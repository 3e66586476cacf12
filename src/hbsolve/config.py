"""Solver settings.  This module imports nothing heavy, so the CLI takes its
flag defaults from here before --threads pins BLAS and numpy loads."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CompressionConfig:
    tol: float = 1e-10
    proxy_points: int = 50
    proxy_radius_factor: float = 1.5
    symmetrize: bool = False
    # 96..128 (78-point leaves from N = 10k to 80k) compress and apply
    # faster, but then the inverse apply outgrows the last-level cache
    # between N = 20k and 40k: there criterion 8's apply ratio read
    # x2.23-x2.65 over 10 runs at 128 (2 above its bound of 2.6), and
    # x1.83-x2.57 over 20 runs at 64.  128 also costs accuracy: perfbench's
    # interior_digits fell 0.2-0.8 (star-40k 10.93 -> 10.51 at seed 1)
    target_leaf: int = 64
    # dense mode needs the N x N matrix (N <= DENSE_MODE_GUARD); it stays the
    # oracle that proxy mode is checked against
    mode: str = "proxy"

    def __post_init__(self):
        # written so that NaN fails too: tol >= 1 or a non-finite radius
        # leaves the proxy rings undefined, and tol = NaN turns compression off
        if not 0 < self.tol < 1:
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        if self.proxy_points < 8:
            raise ValueError("proxy_points must be >= 8")
        if not 1 < self.proxy_radius_factor < float("inf"):
            raise ValueError(f"proxy_radius_factor must be finite and exceed 1, "
                             f"got {self.proxy_radius_factor}")
        if self.target_leaf < 2:
            raise ValueError("target_leaf must be >= 2")
        if self.mode not in ("dense", "proxy"):
            raise ValueError(f"mode must be 'dense' or 'proxy', got {self.mode!r}")
