"""Every committed bench/BENCH_*.json has the shape that `hbsolve benchmark`
writes today: the writer's schema version and keys, at the top, in the
machine block (with the thread settings) and per size, and ascending sizes.
A record written by an older writer fails here until it is written again."""

import json
from pathlib import Path

import pytest

from hbsolve import cli
from hbsolve.config import CompressionConfig

FILES = sorted((Path(__file__).resolve().parent.parent / "bench").glob("BENCH_*.json"))


@pytest.fixture(scope="module")
def written():
    return cli.scaling_sweep("smooth_star", [300], 10, None, CompressionConfig(), 0)


def test_the_baselines_are_committed():
    names = {path.name for path in FILES}
    assert {f"BENCH_baseline_{geometry}_leaf{leaf}.json" for geometry in
            ("smooth_star", "corner_star") for leaf in (64, 128)} <= names


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_bench_file_matches_the_writer(path, written):
    record = json.loads(path.read_text())
    assert record["schema_version"] == written["schema_version"]
    assert record.keys() == written.keys()
    assert record["machine"].keys() == written["machine"].keys()
    assert record["machine"]["threads"].keys() == set(cli.THREAD_VARS)
    sizes = [row["n"] for row in record["sizes"]]
    assert sizes and sizes == sorted(set(sizes))
    row0 = written["sizes"][0]
    for row in record["sizes"]:
        assert row.keys() == row0.keys()
        assert row["seconds"].keys() == row0["seconds"].keys()
        assert all(t.keys() == {"median", "min"} for t in row["seconds"].values())
        assert row["storage_doubles_per_n"].keys() == row0["storage_doubles_per_n"].keys()
        assert row["error_estimate"]["method"] in ("power", "sampled")
