"""Spans and counters recorded around the public functions of hbsolve.

The benchmark never edits the library: it swaps module attributes for
thin wrappers while a `Tracer` is installed, and puts them back when it
is removed.  A wrapper records one span per call (name, start, end,
parent span) and, for the functions that do countable work, the number
of matrix entries the call touched.  Spans stay in memory and are
written out once, when the run ends.

Where a module imported a function by name (``from .lowrank import
id_row`` in compression), the binding in the importing module is the
one that gets wrapped, because that is the name the library calls.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter
from time import perf_counter

import numpy as np

from hbsolve import (compression, diagnostics, geometry, hbs, inversion,
                     quadrature, serialization)


def _block_entries(grid, rows, cols, *rest):
    return np.size(rows) * np.size(cols)


def _id_entries(B, *rest, **kw):
    return np.size(B)


class Tracer:
    """In-memory spans around wrapped module functions.

    A span is ``[name, start, end, parent, entries]``; `parent` is the
    index of the enclosing span or -1.  Return values of the functions
    named in `keep` are held in ``kept`` so the benchmark can reuse the
    factorization that ``solve_workflow`` builds internally.
    """

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.kept = {}
        self._stack = []
        self._undo = []

    def wrap(self, module, attr, name, entries=None, keep=False):
        orig = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    entries(*args, **kwargs) if entries else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if keep:
                self.kept[name] = out
            return out

        self._set(module, attr, wrapper)

    def _set(self, module, attr, value):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def remove(self):
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    # -- layer-specific hooks ------------------------------------------

    def count_proxy_kernel(self):
        """Hand compress_proxy a kernel that counts proxy-block entries."""
        orig = compression.compress_proxy
        counters = self.counters

        class CountingKernel(compression.NystromDlpKernel):
            def row_proxy(self, rows, proxy_pts):
                counters["compression.proxy.entries"] += np.size(rows) * len(proxy_pts)
                return super().row_proxy(rows, proxy_pts)

            def col_proxy(self, cols, proxy_pts):
                counters["compression.proxy.entries"] += np.size(cols) * len(proxy_pts)
                return super().col_proxy(cols, proxy_pts)

        @functools.wraps(orig)
        def compress_proxy(grid, kernel, tree, cfg):
            return orig(grid, CountingKernel(grid), tree, cfg)

        self._set(compression, "compress_proxy", compress_proxy)

    def count_power_iterations(self):
        """Count the forward applications power_norm makes."""
        orig = diagnostics.power_norm
        counters = self.counters

        @functools.wraps(orig)
        def power_norm(apply, apply_adjoint, dim, **kwargs):
            def counted(v):
                counters["diagnostics.power_norm.iters"] += 1
                return apply(v)
            return orig(counted, apply_adjoint, dim, **kwargs)

        self._set(diagnostics, "power_norm", power_norm)


def install_stage_timers():
    """Untraced runs: time only the two factorization stages inside
    solve_workflow and keep their results (two spans per solve)."""
    t = Tracer()
    t.wrap(compression, "compress", "compression.compress", keep=True)
    t.wrap(compression, "hbs_invert", "inversion.hbs_invert", keep=True)
    return t


def install_full_trace():
    """Traced runs: every public function the workloads reach, per module."""
    t = Tracer()
    t.count_proxy_kernel()
    t.count_power_iterations()
    for module, attr, name, entries, keep in [
        (geometry, "decompose", "geometry.decompose", None, False),
        (quadrature, "build_grid", "quadrature.build_grid", None, False),
        (quadrature, "harmonic_trace", "quadrature.harmonic_trace", None, False),
        (quadrature, "interior_probe_points", "quadrature.interior_probe_points", None, False),
        (quadrature, "eval_dlp_potential", "quadrature.eval_dlp_potential", None, False),
        (quadrature, "nystrom_block", "quadrature.nystrom_block", _block_entries, False),
        (quadrature, "dense_matvec", "quadrature.dense_matvec", None, False),
        (quadrature, "dense_matvec_transpose", "quadrature.dense_matvec", None, False),
        (compression, "id_row", "lowrank.id_row", _id_entries, False),
        (compression, "build_tree", "tree.build_tree", None, False),
        (compression, "compress", "compression.compress", None, True),
        (compression, "compress_proxy", "compression.compress_proxy", None, False),
        (compression, "hbs_invert", "inversion.hbs_invert", None, True),
        (compression, "inverse_to_hbs", "inversion.inverse_to_hbs", None, False),
        (compression, "solve_workflow", "compression.solve_workflow", None, False),
        (hbs, "hbs_matvec", "hbs.hbs_matvec", None, False),
        (diagnostics, "hbs_matvec", "hbs.hbs_matvec", None, False),
        (inversion, "apply_inverse", "inversion.apply_inverse", None, False),
        (diagnostics, "apply_inverse", "inversion.apply_inverse", None, False),
        (diagnostics, "estimate_solver_error", "diagnostics.estimate_solver_error", None, False),
        (diagnostics, "power_norm", "diagnostics.power_norm", None, False),
        (serialization, "save_inverse", "serialization.save_inverse", None, False),
        (serialization, "load", "serialization.load", None, False),
    ]:
        t.wrap(module, attr, name, entries, keep)
    return t


def span_seconds(spans, name):
    """Total time of the spans with this name (never nested in themselves)."""
    return sum(s[2] - s[1] for s in spans if s[0] == name)


def layer_metrics(tracer, n):
    """Per-layer numbers of one traced iteration (one Tracer's spans)."""
    spans = tracer.spans
    calls = Counter(s[0] for s in spans)
    entries = Counter()
    for s in spans:
        entries[s[0]] += s[4]
    secs = functools.partial(span_seconds, spans)

    A, _ = tracer.kept["compression.compress"]
    inv = tracer.kept["inversion.hbs_invert"]
    tree = A.tree
    skeletonized = tree.node_count - 1
    ranks = [A.rank_of(tau) for tau in A.U]

    # the error estimate runs power_norm twice; the err_A pass is the one
    # that streams the exact matrix through dense_matvec
    has_dense_child = {s[3] for s in spans if s[0] == "quadrature.dense_matvec"}
    err_A_s = norm_inv_s = 0.0
    for i, s in enumerate(spans):
        if s[0] == "diagnostics.power_norm":
            if i in has_dense_child:
                err_A_s += s[2] - s[1]
            else:
                norm_inv_s += s[2] - s[1]

    # compression's self time: compress minus the kernel blocks, IDs and
    # tree it calls (directly or through compress_proxy)
    compress_ids = {i for i, s in enumerate(spans)
                    if s[0] in ("compression.compress", "compression.compress_proxy")}
    child_s = sum(s[2] - s[1] for s in spans if s[3] in compress_ids and s[0] in
                  ("quadrature.nystrom_block", "lowrank.id_row", "tree.build_tree"))
    apply_ms = [1e3 * (s[2] - s[1]) for s in spans if s[0] == "inversion.apply_inverse"]
    inv_doubles = sum(b.size for d in (inv.E, inv.F, inv.G, inv.Dhat) for b in d.values())
    return {
        "quadrature.nystrom_block.calls": calls["quadrature.nystrom_block"],
        "quadrature.nystrom_block.entries": entries["quadrature.nystrom_block"],
        "quadrature.nystrom_block_s": secs("quadrature.nystrom_block"),
        "quadrature.dense_matvec.calls": calls["quadrature.dense_matvec"],
        "quadrature.dense_matvec_s": secs("quadrature.dense_matvec"),
        "lowrank.id_row.calls": calls["lowrank.id_row"],
        "lowrank.id_row.entries": entries["lowrank.id_row"],
        "lowrank.id_row_s": secs("lowrank.id_row"),
        "lowrank.id_row.per_node": calls["lowrank.id_row"] / skeletonized,
        "tree.levels": tree.levels,
        "tree.nodes": tree.node_count,
        "compression.compress_s": secs("compression.compress"),
        "compression.compress_self_s": secs("compression.compress") - child_s,
        "compression.proxy.entries": tracer.counters["compression.proxy.entries"],
        "compression.rank_mean": float(np.mean(ranks)),
        "compression.rank_max": max(ranks),
        "hbs.storage_doubles_per_n": A.storage_count() / n,
        "hbs.matvec.calls": calls["hbs.hbs_matvec"],
        "hbs.matvec_s": secs("hbs.hbs_matvec"),
        "inversion.invert_s": secs("inversion.hbs_invert"),
        "inversion.reformat_s": secs("inversion.inverse_to_hbs"),
        "inversion.apply_inverse.calls": calls["inversion.apply_inverse"],
        "inversion.apply_inverse_ms": statistics.median(apply_ms),
        "inversion.inverse_doubles_per_n": inv_doubles / n,
        "diagnostics.err_A_s": err_A_s,
        "diagnostics.norm_inv_s": norm_inv_s,
        "diagnostics.power_norm.iters": tracer.counters["diagnostics.power_norm.iters"],
        "serialization.save_s": secs("serialization.save_inverse"),
        "serialization.load_s": secs("serialization.load") / calls["serialization.load"],
    }
