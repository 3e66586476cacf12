"""Command-line driver: discretize, solve, benchmark.

Heavy imports happen inside the command handlers so that --threads can
pin the BLAS thread count through environment variables before numpy
loads.  Exit codes: 0 success, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_ERROR = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# the scaling sweep: timed passes per size, their stages, and the block's columns
REPEATS = 3
STAGES = ("compress", "invert", "apply", "apply_block")
SWEEP_COLUMNS = 32


def _positive_float(text):
    x = float(text)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text}")
    return x


def _positive_int(text):
    x = int(text)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return x


def _add_solver_flags(p):
    from .config import CompressionConfig

    lib = CompressionConfig()  # the library's defaults are the CLI's
    p.add_argument("--tol", type=_positive_float, default=lib.tol,
                   help="compression tolerance (default %(default)s)")
    p.add_argument("--proxy-points", type=int, default=lib.proxy_points,
                   help="points on each proxy circle (default %(default)s)")
    p.add_argument("--proxy-radius-factor", type=float, default=lib.proxy_radius_factor,
                   help="proxy circle radius over bounding radius (default %(default)s)")
    p.add_argument("--mode", choices=("dense", "proxy"), default=lib.mode,
                   help="compression mode (default %(default)s)")
    p.add_argument("--symmetrize", action="store_true",
                   help="share one basis between rows and columns per node; for "
                        "symmetric kernels (on the double layer it costs about two digits)")
    p.add_argument("--target-leaf", type=int, default=lib.target_leaf,
                   help="target indices per tree leaf (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for all randomized pieces (default 0)")
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="BLAS thread count, a positive integer; takes effect only "
                        "when numpy has not been imported yet in this process")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hbsolve",
        description="Fast direct solver for boundary integral equations on curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discretize", help="geometry spec JSON -> quadrature grid CSV")
    p.add_argument("spec", help="geometry spec JSON file")
    p.add_argument("-o", "--output", default="grid.csv", help="output grid CSV")
    p.add_argument("--nodes-per-panel", type=_positive_int, default=10)
    p.add_argument("--corner-levels", type=int, default=None,
                   help="override the spec's corner refinement level count")
    p.set_defaults(func=cmd_discretize)

    p = sub.add_parser("solve", help="grid CSV + right-hand side -> solution CSV")
    p.add_argument("grid", help="grid CSV from `discretize`")
    p.add_argument("rhs", help="right-hand-side file (N rows, one column per "
                               "right-hand side), or harmonic:X,Y for the "
                               "trace of log|x - (X,Y)|")
    p.add_argument("-o", "--output", default="solution.csv", help="solution CSV")
    p.add_argument("--report", default=None, help="write the run report JSON here")
    p.add_argument("--estimate-error", action="store_true",
                   help="append an a posteriori error bound to the report "
                        "(block subspace iteration, 8 columns, until a step "
                        "gains < 1e-4, at most 50 steps; each norm is a lower "
                        "bound; above N = 8000 err_A is estimated from "
                        "sampled rows, so the bound is an estimate)")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("benchmark", help="timing/accuracy sweep over problem sizes -> JSON")
    p.add_argument("--geometry", choices=("smooth_star", "corner_star", "snake"),
                   default="smooth_star")
    p.add_argument("--sizes", default="10000,20000,40000",
                   help="comma-separated target N values")
    p.add_argument("-o", "--output", default="benchmark.json", help="scaling record JSON")
    p.add_argument("--nodes-per-panel", type=_positive_int, default=10)
    p.add_argument("--corner-levels", type=int, default=None,
                   help="corner refinement levels (default 5 for cornered shapes)")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_benchmark)
    return parser


def cmd_discretize(args):
    from . import geometry, quadrature

    contour, panels_per_unit, corner_levels = geometry.load_geometry_spec(args.spec)
    if args.corner_levels is not None:
        corner_levels = args.corner_levels
    panels = geometry.decompose(contour, panels_per_unit, corner_levels)
    grid = quadrature.build_grid(contour, panels, args.nodes_per_panel)
    quadrature.save_grid_csv(args.output, grid)
    print(f"wrote {args.output}: {grid.size} nodes on {panels.count} panels "
          f"({contour.kind})")
    return EXIT_OK


def _load_rhs(spec, grid):
    import numpy as np

    from . import quadrature

    if spec.startswith("harmonic:"):
        try:
            x0, y0 = (float(v) for v in spec[len("harmonic:"):].split(","))
        except ValueError:
            raise ValueError(f"bad harmonic rhs spec {spec!r}; expected harmonic:X,Y")
        source = np.array([x0, y0])
        if quadrature.winding_number(grid, source)[0] != 0:  # log|x - s| is not harmonic inside
            raise ValueError(f"harmonic source ({x0:g}, {y0:g}) lies inside the contour; "
                             f"it must lie outside")
        return quadrature.harmonic_trace(grid, source), source
    rhs = np.loadtxt(spec, ndmin=2)  # one column per right-hand side
    if rhs.shape[0] != grid.size:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, grid has {grid.size} nodes")
    return (rhs[:, 0] if rhs.shape[1] == 1 else rhs), None


def _config_from(args):
    from .config import CompressionConfig

    # each solver flag's dest is its field's name (_add_solver_flags)
    return CompressionConfig(**{f.name: getattr(args, f.name)
                                for f in dataclasses.fields(CompressionConfig)})


def cmd_solve(args):
    from . import quadrature
    from .compression import solve_workflow

    grid = quadrature.load_grid_csv(args.grid)
    rhs, source = _load_rhs(args.rhs, grid)
    cfg = _config_from(args)
    q, report = solve_workflow(grid, cfg, rhs,
                               estimate_error=args.estimate_error, seed=args.seed)
    if source is not None:
        report["interior_error"] = float(f"{quadrature.interior_error(grid, q, source):.3g}")

    with open(args.output, "w") as f:
        f.writelines(" ".join(f"{v:.17g}" for v in row) + "\n"
                     for row in q.reshape(len(q), -1))
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=2)
    t = report["timings"]
    line = (f"solved N={report['n']} ({report['mode']}): compress {t['compress']}s, "
            f"invert {t['invert']}s, apply {t['apply']}s")
    if "interior_error" in report:
        line += f", interior error {report['interior_error']:g}"
    print(line)
    return EXIT_OK


def _benchmark_setup(geometry, n_target, nodes_per_panel, corner_levels):
    """Pick the base panel count whose node count lands nearest the requested N.

    ``decompose``'s panel count is linear in the base from 2 upward, so two
    decompositions give the line to solve.
    """
    from . import geometry as geo

    contour = geo.make_contour(geometry)
    levels = (5 if corner_levels is None else corner_levels) if contour.cornered else 0
    at2, at3 = (geo.decompose(contour, b, levels).count for b in (2, 3))
    base = 2 + round((n_target / nodes_per_panel - at2) / (at3 - at2))
    return contour, max(1, base), levels


def scaling_sweep(geometry, sizes, nodes_per_panel, corner_levels, cfg, seed):
    """Run compress, hbs_invert, a one-column and a SWEEP_COLUMNS-column apply
    REPEATS times per target size, print each size's stage medians (x: ratio
    to the previous size) and return the JSON record.  The right-hand sides
    are traces of log|x - s|, s on a circle about the node centroid at twice
    the largest node distance."""
    import platform
    import time

    import numpy as np
    import scipy

    from . import geometry as geo
    from . import quadrature
    from .compression import _rank_stats, _residual, apply_inverse, compress, hbs_invert
    from .diagnostics import _sig3, error_estimate

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "schema_version": 1, "geometry": geometry, "nodes_per_panel": nodes_per_panel,
        "corner_levels": None, **dataclasses.asdict(cfg), "seed": seed,
        "repeats": REPEATS, "block_columns": SWEEP_COLUMNS,
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "scipy": scipy.__version__,
                    "threads": {var: os.environ.get(var) for var in THREAD_VARS},
                    "blas": {k: v for k, v in blas.items() if "directory" not in k}},
        "sizes": [],
    }
    print(f"{'N':>8}" + "".join(f"{name:>12}" for name in STAGES) + f"{'residual':>10}")
    prev = None
    for n_target in sizes:
        contour, base, levels = _benchmark_setup(geometry, n_target, nodes_per_panel, corner_levels)
        grid = quadrature.build_grid(contour, geo.decompose(contour, base, levels), nodes_per_panel)
        c = grid.points.mean(axis=0)
        z = np.exp(2j * np.pi * np.arange(SWEEP_COLUMNS) / SWEEP_COLUMNS)
        sources = c + 2 * np.max(np.linalg.norm(grid.points - c, axis=1)) * np.c_[z.real, z.imag]
        F = np.column_stack([quadrature.harmonic_trace(grid, s) for s in sources])
        runs = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            A, _ = compress(grid, cfg)
            t1 = time.perf_counter()
            inv = hbs_invert(A)
            t2 = time.perf_counter()
            q = apply_inverse(inv, F[:, 0])
            t3 = time.perf_counter()
            Q = apply_inverse(inv, F)
            runs.append((t1 - t0, t2 - t1, t3 - t2, time.perf_counter() - t3))
        n, medians, residual = grid.size, np.median(runs, axis=0), _residual(A, Q, F)
        record["corner_levels"] = levels
        record["sizes"].append({
            "n": n, "levels": A.tree.levels,
            "seconds": {name: {"median": _sig3(m), "min": _sig3(min(ts))}
                        for name, m, ts in zip(STAGES, medians, zip(*runs))},
            "storage_doubles_per_n": {"matrix": _sig3(A.storage_count() / n),
                                      "inverse": _sig3(inv.storage_count() / n)},
            "residual": _sig3(residual),
            "interior_error": _sig3(quadrature.interior_error(grid, q, sources[0])),
            "ranks": _rank_stats(A),
            "error_estimate": error_estimate(grid, A, inv, seed),
        })
        line = f"{n:>8}" + "".join(f"{m:>11.3g}s" for m in medians) + f"{residual:>10.1e}"
        if prev is not None:
            line += "   x" + ", x".join(f"{b / a:.2f}" for a, b in zip(prev, medians))
        print(line)
        prev = medians
    return record


def cmd_benchmark(args):
    try:
        sizes = [_positive_int(s) for s in args.sizes.split(",") if s.strip()]
    except (ValueError, argparse.ArgumentTypeError):
        sizes = []
    if not sizes:
        raise ValueError(f"--sizes needs comma-separated positive integers, got {args.sizes!r}")
    record = scaling_sweep(args.geometry, sizes, args.nodes_per_panel, args.corner_levels,
                           _config_from(args), args.seed)
    with open(args.output, "w") as f:
        json.dump(record, f, indent=2)
    print(f"wrote {args.output}")
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "threads", None):
        for var in THREAD_VARS:
            os.environ[var] = str(args.threads)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        import numpy as np

        if isinstance(exc, np.linalg.LinAlgError):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL_ERROR
        if isinstance(exc, (ValueError, OSError, json.JSONDecodeError)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        raise


if __name__ == "__main__":
    sys.exit(main())
