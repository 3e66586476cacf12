"""hbsolve benchmark: one workload per run, through the public API.

    python3 perfbench/run.py --workload star-40k --seed 1 --seconds 24 --trace 0

Run it from a checkout of the repository; it imports hbsolve from the
checkout's src/ and writes scratch files under .perfbench/.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1, named and with the units given in
BENCHMARK.json.  The line before it records the machine, the BLAS set-up
and the run's sample counts.

BLAS runs single-threaded, pinned through the environment before numpy
loads.  --size smoke runs a small version of each workload (see smoke.py).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
MIN_ITERATIONS = 3
SETUP_REPEATS = 3
# untraced iterations repeat the factorization, the reload and the block
# until each adds up to the workload's repeat_s; traced ones run each step
# a fixed number of times, so their counts repeat exactly
RELOADS = 5            # loads of the stored factorization, at least
BLOCKS = 2             # applications of the block, at least
# sampled timings are reported at this percentile of the run's samples: on a
# shared machine whose speed flips between a fast and a slow mode, it stays in
# the slow mode, which holds most samples, while the mean and the median move
# with the mix of the two (README.md, "End-to-end metrics")
CENTRAL_PERCENTILE = 75
TAIL_PERCENTILE = 90   # needs >= 100 closed-loop samples for 10 beyond it
BLAS_THREADS = 1       # the single-threaded baseline
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    return p.parse_args(argv)


def pin_blas_threads():
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas, "cpu": cpu}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "hbsolve" / "__init__.py").is_file():
        print(f"error: no hbsolve sources under {ROOT / 'src'}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import tracing
    import workloads
    from hbsolve import compression, geometry, inversion, quadrature, serialization

    import_s = time.perf_counter() - T_START

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    size = w.sizes[args.size]
    env = environment()

    # -- set-up: inputs built SETUP_REPEATS times, traced when --trace 1
    build_s, decompose_s, build_grid_s, trace_out = [], [], [], {}
    for rep in range(SETUP_REPEATS):
        tracer = tracing.install_full_trace() if args.trace else None
        t = time.perf_counter()
        try:
            inputs = workloads.build_inputs(w, size, args.seed)
        finally:
            build_s.append(time.perf_counter() - t)
            if tracer:
                tracer.remove()
        if tracer:
            decompose_s.append(tracing.span_seconds(tracer.spans, "geometry.decompose"))
            build_grid_s.append(tracing.span_seconds(tracer.spans, "quadrature.build_grid"))
            trace_out[f"setup {rep}"] = tracer.spans
    setup_s = import_s + statistics.median(build_s)

    def accepts_block():
        """Whether apply_inverse takes an (N, m) block, probed on a tiny problem."""
        star = geometry.SmoothStar()
        grid = quadrature.build_grid(star, geometry.decompose(star, 8, 0), 16)
        A, _ = compression.compress(
            grid, compression.CompressionConfig(mode="proxy", target_leaf=32))
        try:
            Q = inversion.apply_inverse(inversion.hbs_invert(A), np.ones((grid.size, 2)))
        except ValueError:
            return False
        return np.shape(Q) == (grid.size, 2)

    block_ok = accepts_block()
    gate = workloads.Gate(w, inputs)
    closed = range(1, 1 + size.closed_rhs)
    block = slice(closed.stop, closed.stop + workloads.BLOCK_RHS)
    cfg = compression.CompressionConfig(mode="proxy", tol=w.tol)
    SCRATCH.mkdir(exist_ok=True)
    store = SCRATCH / f"{w.name}-{os.getpid()}.hbs"

    def repeat(step, least, floor):
        """Durations of `step` run at least `least` times and until they add
        up to `floor` seconds, and its last result."""
        times, out = [], None
        while len(times) < least or sum(times) < floor:
            out = None   # let the previous result go before the next is built
            t = time.perf_counter()
            out = step()
            times.append(time.perf_counter() - t)
        return times, out

    def apply_block(inv, B):
        if block_ok:
            return inversion.apply_inverse(inv, B)
        return np.column_stack([inversion.apply_inverse(inv, b) for b in B.T])

    def iterate(tracer, floor):
        """Factor and solve once, store and reload the factorization, then
        serve the closed loop and the block; returns the timings."""
        rec = {}
        t = time.perf_counter()
        q, report = compression.solve_workflow(
            inputs.grid, cfg, inputs.F[:, 0], estimate_error=w.estimate_error, seed=args.seed)
        rec["solve_s"] = time.perf_counter() - t
        rec["bound"] = report.get("error_estimate", {}).get("bound_factor", 0.0)
        gate.check(q, 0, rec["bound"])
        factor_s = (tracing.span_seconds(tracer.spans, "compression.compress")
                    + tracing.span_seconds(tracer.spans, "inversion.hbs_invert"))
        serialization.save_inverse(store, tracer.kept["inversion.hbs_invert"])
        rec["file_mib"] = store.stat().st_size / 2**20

        more, _ = repeat(lambda: inversion.hbs_invert(compression.compress(inputs.grid, cfg)[0]),
                         0, floor - factor_s)
        rec["factor_s"] = [factor_s, *more]
        rec["reload_s"], inv = repeat(lambda: serialization.load(store), RELOADS, floor)

        rec["rhs_s"] = []
        for j in closed:
            t = time.perf_counter()
            q = inversion.apply_inverse(inv, inputs.F[:, j])
            rec["rhs_s"].append(time.perf_counter() - t)
            gate.check(q, j)

        B = inputs.F[:, block]
        rec["block_s"], Q = repeat(lambda: apply_block(inv, B), BLOCKS, floor)
        for i, j in enumerate(range(block.start, block.stop)):
            gate.check(Q[:, i], j)
        return rec

    # -- measurement: whole iterations while the next one still fits
    records = []
    deadline = time.perf_counter() + args.seconds
    longest = 0.0
    gc.disable()   # collect between iterations, not inside timed calls
    try:
        while len(records) < MIN_ITERATIONS or time.perf_counter() + longest <= deadline:
            traced = bool(args.trace) and len(records) % 2 == 0
            tracer = tracing.install_full_trace() if traced else tracing.install_stage_timers()
            t = time.perf_counter()
            try:
                rec = iterate(tracer, 0.0 if traced else w.repeat_s)
            except Exception:
                # the call that raised is a failed solve; the iteration ends
                traceback.print_exc()
                gate.fail()
                rec = None
            finally:
                tracer.remove()
            longest = max(longest, time.perf_counter() - t)
            if rec is not None and traced:
                rec["layers"] = tracing.layer_metrics(tracer, inputs.n)
                trace_out[f"iteration {len(records)}"] = tracer.spans
            if rec is not None:
                rec["traced"] = traced
            records.append(rec)
            del tracer
            gc.collect()
    finally:
        gc.enable()
        store.unlink(missing_ok=True)

    ok = [r for r in records if r is not None]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no iteration completed", file=sys.stderr)
        return 1

    def med(key, recs):
        return statistics.median(r[key] for r in recs)

    def pooled(key):
        return [x for r in plain for x in r[key]]

    latencies, reloads, blocks = pooled("rhs_s"), pooled("reload_s"), pooled("block_s")
    if args.trace:
        values = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        values["geometry.decompose_s"] = statistics.median(decompose_s)
        values["quadrature.build_grid_s"] = statistics.median(build_grid_s)
        values["serialization.file_mib"] = med("file_mib", traced)
        values["trace.overhead_s"] = med("solve_s", traced) - med("solve_s", plain)
        path = SCRATCH / f"trace-{w.name}-seed{args.seed}.json"
        spans = {k: [[s[0], s[1] - T_START, s[2] - T_START, s[3], s[4]] for s in v]
                 for k, v in trace_out.items()}
        with open(path, "w") as f:
            json.dump({"env": env, "workload": w.name, "seed": args.seed,
                       "span_fields": ["name", "start_s", "end_s", "parent", "entries"],
                       "spans": spans}, f)
    else:
        def central(samples):
            return float(np.percentile(list(samples), CENTRAL_PERCENTILE))

        values = {
            "setup_s": setup_s,
            "solve_s": central(r["solve_s"] for r in plain),
            "factor_s": central(pooled("factor_s")),
            "reload_s": central(reloads),
            "rhs_ms": 1e3 * central(latencies),
            "rhs_ms_tail": 1e3 * float(np.percentile(latencies, TAIL_PERCENTILE)),
            "batch_rhs_per_s": workloads.BLOCK_RHS / central(blocks),
            # a non-finite or O(1) error leaves no correct digits
            "interior_digits": max(0.0, -math.log10(gate.worst)),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (gate.attempted - gate.failed) / gate.attempted,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    print(json.dumps({
        "env": env, "workload": w.name, "size": args.size, "seed": args.seed, "n": inputs.n,
        "iterations": len(records), "traced_iterations": len(traced),
        "rhs_samples": len(latencies), "central": f"p{CENTRAL_PERCENTILE}",
        "tail": f"p{TAIL_PERCENTILE}",
        "factor_samples": len(pooled("factor_s")), "reload_samples": len(reloads),
        "block_samples": len(blocks),
        "block_apply": "block" if block_ok else "columns",
        "worst_error": gate.worst, "max_error": w.max_error,
        "bound_factor": max(r["bound"] for r in ok), "import_s": import_s,
    }))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
