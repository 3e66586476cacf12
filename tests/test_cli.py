import json
import os
import re

import numpy as np
import pytest

import hbsolve as hb
from hbsolve import cli


def write_spec(tmp_path, kind="unit_circle", panels_per_unit=16, corner_levels=0, **params):
    path = tmp_path / "geom.json"
    hb.save_geometry_spec(path, hb.make_contour(kind, **params), panels_per_unit,
                          corner_levels)
    return str(path)


def discretize(tmp_path, **kwargs):
    spec = write_spec(tmp_path, **kwargs)
    grid_path = str(tmp_path / "grid.csv")
    assert cli.main(["discretize", spec, "-o", grid_path]) == 0
    return grid_path


def test_discretize_writes_grid(tmp_path, capsys):
    grid_path = discretize(tmp_path)
    lines = open(grid_path).read().splitlines()
    assert len(lines) == 1 + 160  # header + 16 panels x 10 nodes
    assert lines[0].split(",") == ["t", "x", "y", "nx", "ny", "w", "panel"]
    assert "160 nodes" in capsys.readouterr().out


def test_discretize_corner_levels_override(tmp_path):
    spec = write_spec(tmp_path, kind="corner_star", panels_per_unit=4, corner_levels=2)
    out = str(tmp_path / "g.csv")
    assert cli.main(["discretize", spec, "-o", out, "--corner-levels", "3"]) == 0
    grid = hb.load_grid_csv(out)
    assert grid.panel_count == 10 * (4 + 2 * 3)


def test_missing_spec_exits_2(tmp_path, capsys):
    assert cli.main(["discretize", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_invalid_spec_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["discretize", str(bad)]) == 2


@pytest.mark.parametrize("kind, params, message", [
    ("smooth_star", {"arms": 5, "bogus": 1}, "smooth_star.*'bogus'"),
    ("corner_star", [1, 2], "corner_star params must be a JSON object"),
    ("unit_circle", {"radius": "big"}, "unit_circle parameter 'radius'"),
    ("smooth_star", {"arms": 5.9}, "arms must be a whole number, got 5.9"),
    ("corner_star", {"segments": 2.5}, "segments must be a whole number, got 2.5"),
    ("snake", {"waves": 2.7}, "waves must be a whole number, got 2.7"),
])
def test_malformed_spec_params_exit_2(tmp_path, capsys, kind, params, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": kind, "params": params,
                               "panels_per_unit": 4, "corner_levels": 0}))
    assert cli.main(["discretize", str(bad), "-o", str(tmp_path / "g.csv")]) == 2
    assert re.search(message, capsys.readouterr().err)


def test_solve_harmonic_rhs(tmp_path, capsys):
    grid_path = discretize(tmp_path, kind="smooth_star", panels_per_unit=48)
    sol = str(tmp_path / "q.csv")
    rep = str(tmp_path / "report.json")
    code = cli.main(["solve", grid_path, "harmonic:3,0", "-o", sol, "--report", rep])
    assert code == 0
    q = np.loadtxt(sol)
    assert q.shape == (480,)
    report = json.load(open(rep))
    assert report["interior_error"] < 1e-7
    assert set(report["timings"]) == {"compress", "invert", "apply"}
    assert "interior error" in capsys.readouterr().out


def test_solve_estimates_error_above_the_power_cap(tmp_path):
    from hbsolve.compression import DENSE_MODE_GUARD

    grid_path = discretize(tmp_path, kind="smooth_star",
                           panels_per_unit=DENSE_MODE_GUARD // 10 + 1)
    rep = str(tmp_path / "report.json")
    code = cli.main(["solve", grid_path, "harmonic:3,0", "-o", str(tmp_path / "q.csv"),
                     "--report", rep, "--estimate-error"])
    assert code == 0
    report = json.load(open(rep))
    assert report["n"] > DENSE_MODE_GUARD
    assert report["error_estimate"]["method"] == "sampled"
    assert np.isfinite(report["error_estimate"]["bound_factor"])


def test_solve_dense_mode_above_the_guard_exits_2(tmp_path, monkeypatch, capsys):
    from hbsolve import compression

    calls = []
    monkeypatch.setattr(compression.quad, "assemble_dlp", lambda grid: calls.append(grid))
    grid_path = discretize(tmp_path, kind="smooth_star",
                           panels_per_unit=compression.DENSE_MODE_GUARD // 10 + 2)
    code = cli.main(["solve", grid_path, "harmonic:3,0", "-o", str(tmp_path / "q.csv"),
                     "--mode", "dense"])
    assert code == 2
    assert "proxy mode" in capsys.readouterr().err
    assert calls == []


def test_solve_rhs_file_and_zero_rhs(tmp_path):
    grid_path = discretize(tmp_path)
    rhs = tmp_path / "rhs.txt"
    np.savetxt(rhs, np.zeros(160))
    sol = str(tmp_path / "q.csv")
    assert cli.main(["solve", grid_path, str(rhs), "-o", sol, "--mode", "dense"]) == 0
    assert np.allclose(np.loadtxt(sol), 0.0, atol=1e-13)


def test_solve_bad_harmonic_spec_exits_2(tmp_path, capsys):
    grid_path = discretize(tmp_path)
    assert cli.main(["solve", grid_path, "harmonic:one,two"]) == 2
    assert "harmonic" in capsys.readouterr().err


def test_solve_rhs_length_mismatch_exits_2(tmp_path):
    grid_path = discretize(tmp_path)
    rhs = tmp_path / "rhs.txt"
    np.savetxt(rhs, np.zeros(7))
    assert cli.main(["solve", grid_path, str(rhs)]) == 2


def test_solve_tolerance_controls_ranks(tmp_path):
    grid_path = discretize(tmp_path, kind="smooth_star", panels_per_unit=48)
    maxranks = {}
    for tol in ("1e-4", "1e-10"):
        rep = str(tmp_path / f"r{tol}.json")
        assert cli.main(["solve", grid_path, "harmonic:3,0",
                         "-o", str(tmp_path / "q.csv"), "--report", rep,
                         "--tol", tol]) == 0
        report = json.load(open(rep))
        assert report["tol"] == float(tol)
        maxranks[tol] = max(s["max"] for s in report["ranks"].values())
    assert maxranks["1e-4"] < maxranks["1e-10"]


def test_solve_is_deterministic(tmp_path):
    grid_path = discretize(tmp_path, kind="smooth_star", panels_per_unit=32)
    outs = []
    for name in ("q1.csv", "q2.csv"):
        sol = str(tmp_path / name)
        assert cli.main(["solve", grid_path, "harmonic:3,0", "-o", sol]) == 0
        outs.append(open(sol, "rb").read())
    assert outs[0] == outs[1]


def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    from hbsolve.inversion import SingularBlockError

    grid_path = discretize(tmp_path)

    def boom(*a, **k):
        raise SingularBlockError("singular matrix while inverting node 4 (level 2)")

    import hbsolve.compression

    monkeypatch.setattr(hbsolve.compression, "solve_workflow", boom)
    assert cli.main(["solve", grid_path, "harmonic:3,0",
                     "-o", str(tmp_path / "q.csv")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_non_finite_solution_exits_3(tmp_path, monkeypatch, capsys):
    import hbsolve.compression

    grid_path = discretize(tmp_path)
    invert = hbsolve.compression.hbs_invert

    def corrupted(A):
        inv = invert(A)
        inv.G[1][0, 0] = np.nan
        return inv

    monkeypatch.setattr(hbsolve.compression, "hbs_invert", corrupted)
    assert cli.main(["solve", grid_path, "harmonic:3,0",
                     "-o", str(tmp_path / "q.csv")]) == 3
    assert "non-finite result" in capsys.readouterr().err


def test_benchmark_small_sizes(tmp_path, capsys):
    out = str(tmp_path / "bench.csv")
    code = cli.main(["benchmark", "--geometry", "smooth_star",
                     "--sizes", "300,600", "-o", out])
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "N,t_compress,t_invert,t_apply,err_A,norm_inv"
    assert len(lines) == 3
    for line in lines[1:]:
        n, tc, ti, ta, err_a, norm_inv = line.split(",")
        assert int(n) >= 300
        assert all(float(v) >= 0 for v in (tc, ti, ta))
        # small sizes fit under the dense guard, so error columns are filled
        assert float(err_a) < 1e-6 and float(norm_inv) > 0
    assert "wrote" in capsys.readouterr().out


def test_benchmark_bad_sizes_exits_2(capsys):
    assert cli.main(["benchmark", "--sizes", "abc"]) == 2
    assert cli.main(["benchmark", "--sizes", ","]) == 2
    assert cli.main(["benchmark", "--sizes", "-5"]) == 2
    assert cli.main(["benchmark", "--sizes", "300,0"]) == 2
    assert "positive integers" in capsys.readouterr().err
    for command in ("benchmark", "discretize spec.json"):
        with pytest.raises(SystemExit) as exc:
            cli.main([*command.split(), "--nodes-per-panel", "0"])
        assert exc.value.code == 2
        assert "--nodes-per-panel" in capsys.readouterr().err


@pytest.mark.parametrize("geometry", ["smooth_star", "corner_star", "snake"])
@pytest.mark.parametrize("corner_levels", [None, 2, 7])
def test_benchmark_setup_lands_nearest_the_target(geometry, corner_levels):
    per_panel = 10
    for n_target in (3000, 4321, 10000, 20007, 40000):
        contour, base, levels = cli._benchmark_setup(geometry, n_target, per_panel,
                                                     corner_levels)
        assert levels == (0 if geometry == "smooth_star" else corner_levels or 5)
        misses = {b: abs(per_panel * hb.decompose(contour, b, levels).count - n_target)
                  for b in (base - 1, base, base + 1)}
        assert misses[base] == min(misses.values())


def test_solve_nan_rhs_exits_2(tmp_path, capsys):
    grid_path = discretize(tmp_path)
    rhs = np.ones(160)
    rhs[42] = np.nan
    np.savetxt(tmp_path / "rhs.txt", rhs)
    sol = tmp_path / "q.csv"
    assert cli.main(["solve", grid_path, str(tmp_path / "rhs.txt"), "-o", str(sol)]) == 2
    assert "non-finite entries, the first at index 42" in capsys.readouterr().err
    assert not sol.exists()


def test_solve_grid_with_inf_coordinate_exits_2(tmp_path, capsys):
    grid_path = discretize(tmp_path)
    lines = open(grid_path).read().splitlines()
    fields = lines[7].split(",")
    fields[1] = "inf"
    lines[7] = ",".join(fields)
    open(grid_path, "w").write("\n".join(lines) + "\n")
    assert cli.main(["solve", grid_path, "harmonic:3,0",
                     "-o", str(tmp_path / "q.csv")]) == 2
    assert "non-finite or unreadable 'x' in data row 7" in capsys.readouterr().err


def test_solve_multi_column_rhs_matches_column_solves(tmp_path):
    grid_path = discretize(tmp_path)
    grid = hb.load_grid_csv(grid_path)
    F = np.column_stack([hb.harmonic_trace(grid, np.array(x0))
                         for x0 in ((3.0, 0.0), (0.0, 2.5), (-2.0, -2.0))])
    np.savetxt(tmp_path / "rhs3.txt", F)
    sol = tmp_path / "q3.csv"
    assert cli.main(["solve", grid_path, str(tmp_path / "rhs3.txt"), "-o", str(sol)]) == 0
    lines = sol.read_text().splitlines()
    assert len(lines) == 160
    assert all(tok == f"{float(tok):.17g}" for line in lines for tok in line.split(" "))
    Q = np.loadtxt(sol)
    assert Q.shape == (160, 3)
    for j in range(3):
        np.savetxt(tmp_path / "rhs1.txt", F[:, j])
        one = tmp_path / "q1.csv"
        assert cli.main(["solve", grid_path, str(tmp_path / "rhs1.txt"), "-o", str(one)]) == 0
        q = np.loadtxt(one)
        assert q.shape == (160,)
        assert np.linalg.norm(Q[:, j] - q) <= 1e-12 * np.linalg.norm(q)


def test_solve_one_column_output_format(tmp_path, monkeypatch):
    import hbsolve.compression

    grid_path = discretize(tmp_path)
    grid = hb.load_grid_csv(grid_path)
    f = hb.harmonic_trace(grid, np.array([3.0, 0.0]))
    np.savetxt(tmp_path / "rhs.txt", f)
    sol = tmp_path / "q.csv"
    shapes, solve = [], hbsolve.compression.solve_workflow
    monkeypatch.setattr(hbsolve.compression, "solve_workflow",
                        lambda g, cfg, rhs, **kw: shapes.append(rhs.shape) or solve(g, cfg, rhs, **kw))
    assert cli.main(["solve", grid_path, str(tmp_path / "rhs.txt"), "-o", str(sol)]) == 0
    assert shapes == [(160,)]  # a one-column file is one right-hand side
    monkeypatch.undo()
    # one value per line, as a 1-D solve with the library's default settings
    # gives it: the CLI takes its defaults from CompressionConfig
    q, _ = hb.solve_workflow(grid, hb.CompressionConfig(),
                             np.loadtxt(tmp_path / "rhs.txt"))
    assert sol.read_text() == "".join(f"{v:.17g}\n" for v in q)


def test_solve_rhs_row_count_mismatch_exits_2(tmp_path, capsys):
    grid_path = discretize(tmp_path)
    np.savetxt(tmp_path / "rhs.txt", np.ones((7, 3)))
    assert cli.main(["solve", grid_path, str(tmp_path / "rhs.txt")]) == 2
    assert "rhs has 7 rows, grid has 160 nodes" in capsys.readouterr().err


def test_solve_grid_with_one_node_panel_exits_2(tmp_path, capsys):
    # the curvature fit of a one-node panel is NaN; load must refuse the grid
    grid_path = discretize(tmp_path)
    lines = open(grid_path).read().splitlines()
    fields = lines[-1].split(",")
    fields[-1] = "16"  # panels are 0..15: the last node becomes panel 16
    lines[-1] = ",".join(fields)
    open(grid_path, "w").write("\n".join(lines) + "\n")
    assert cli.main(["solve", grid_path, "harmonic:3,0",
                     "-o", str(tmp_path / "q.csv")]) == 2
    assert "panel 16 (data row 160) has one node" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-4", "two"])
def test_threads_must_be_a_positive_integer(monkeypatch, capsys, threads):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "grid.csv", "harmonic:3,0", "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert all(os.environ[var] == "1"
               for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    assert cli.build_parser().parse_args(["solve", "g", "r", "--threads", "3"]).threads == 3
