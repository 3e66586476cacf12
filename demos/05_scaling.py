"""Measuring the O(N) scaling of the direct solver with `hbsolve benchmark`'s
sweep on the smooth star: each stage's median of 3 passes per N and its ratio
to the previous N.  Every stage costs O(N) at bounded rank, so each doubling
should about double every column; ratios near 4x would mean quadratic work."""

import hbsolve as hb
from hbsolve.cli import scaling_sweep

scaling_sweep("smooth_star", [5000, 10000, 20000, 40000], 10, None, hb.CompressionConfig(), 0)
