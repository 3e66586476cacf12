import numpy as np
import pytest

import hbsolve as hb
from hbsolve.hbs import block_names
from hbsolve.inversion import apply_inverse, hbs_invert
from hbsolve.serialization import HBS_MAGIC, _read_into, load, save_hbs, save_inverse
from conftest import depth_zero_hbs, random_hbs


def test_matrix_roundtrip_is_bit_exact(tmp_path, rng):
    A = random_hbs(rng)
    p1, p2 = tmp_path / "a.hbs", tmp_path / "b.hbs"
    save_hbs(p1, A)
    back = load(p1)
    assert back.tree.ranges == A.tree.ranges
    for store, bstore in ((A.D, back.D), (A.U, back.U), (A.V, back.V),
                          (A.B12, back.B12), (A.B21, back.B21)):
        assert store.keys() == bstore.keys()
        for tau in store:
            assert np.array_equal(store[tau], bstore[tau])
    save_hbs(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_matrix_acts_identically(tmp_path, rng, smooth_star_600):
    _, A, _ = smooth_star_600  # ranks 23-64, siblings of unequal rank
    path = tmp_path / "a.hbs"
    save_hbs(path, A)
    back = load(path)
    q = rng.standard_normal(A.tree.n)
    ref = hb.hbs_matvec(A, q)
    # blocks are bit-exact but BLAS may pick a different code path for the
    # reloaded buffers, so compare numerically, not bitwise
    assert np.linalg.norm(hb.hbs_matvec(back, q) - ref) <= 1e-13 * np.linalg.norm(ref)


def test_inverse_roundtrip(tmp_path, rng, smooth_star_600):
    _, A, inv = smooth_star_600
    p1, p2 = tmp_path / "i1.hbs", tmp_path / "i2.hbs"
    save_inverse(p1, inv)
    back = load(p1)
    assert isinstance(back, type(inv))
    save_inverse(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    u = rng.standard_normal(A.tree.n)
    ref = apply_inverse(inv, u)
    assert np.linalg.norm(apply_inverse(back, u) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_depth_zero_roundtrips(tmp_path, rng):
    tree = hb.build_tree(6, 10)
    D = rng.standard_normal((6, 6)) + 3 * np.eye(6)
    A = hb.HbsMatrix(tree=tree, D={1: D}, U={}, V={}, B12={}, B21={})
    path = tmp_path / "d0.hbs"
    save_hbs(path, A)
    back = load(path)
    assert np.array_equal(back.D[1], D)
    assert back.tree.levels == 0

    inv = hbs_invert(A)
    save_inverse(path, inv)
    backi = load(path)
    assert np.array_equal(backi.G[1], inv.G[1])


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.hbs"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(ValueError, match="magic"):
        load(path)


def test_corrupt_role(tmp_path, rng):
    A = random_hbs(rng, n=64, target_leaf=32)
    path = tmp_path / "a.hbs"
    save_hbs(path, A)
    data = bytearray(path.read_bytes())
    # header is 16 bytes; the role field of the first record is bytes 20:24
    data[20:24] = (77).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="role"):
        load(path)


def test_header_records_shape(tmp_path, rng):
    A = random_hbs(rng, n=100, target_leaf=30)
    path = tmp_path / "a.hbs"
    save_hbs(path, A)
    import struct

    magic, n, levels, reserved = struct.unpack("<4sIII", path.read_bytes()[:16])
    assert magic == HBS_MAGIC
    assert (n, levels, reserved) == (100, A.tree.levels, 0)


def test_record_blocks_keep_their_order():
    # each role's blocks in the order HBS1 files store them (module docstring)
    def names(levels, tau, inverse=False):
        return list(block_names(levels, tau, inverse))

    assert names(0, 1) == ["D"]
    assert names(2, 4) == names(2, 7) == ["D", "U", "V"]
    assert names(2, 2) == ["U", "V", "B12", "B21"]
    assert names(2, 1) == ["B12", "B21"]
    assert names(2, 2, True) == names(0, 2, True) == ["E", "F", "G", "Dhat"]
    assert names(2, 1, True) == names(0, 1, True) == ["G"]


# -- malformed files ----------------------------------------------------------


def record_layout(data):
    """(offset, node, [offset of each block's shape]) for every record."""
    import struct

    out, at = [], 16
    while at < len(data):
        node, _, count = struct.unpack_from("<III", data, at)
        start, at, shapes = at, at + 12, []
        for _ in range(count):
            rows, cols = struct.unpack_from("<II", data, at)
            shapes.append(at)
            at += 8 + 8 * rows * cols
        out.append((start, node, shapes))
    return out


@pytest.fixture
def saved_pair(tmp_path, rng):
    """Bytes of a saved HBS matrix and of its saved inverse."""
    A = random_hbs(rng, n=100, target_leaf=30)
    for tau in A.D:
        A.D[tau] += 10 * np.eye(A.D[tau].shape[0])
    p1, p2 = tmp_path / "a.hbs", tmp_path / "i.hbs"
    save_hbs(p1, A)
    save_inverse(p2, hbs_invert(A))
    return p1.read_bytes(), p2.read_bytes()


def load_bytes(tmp_path, data):
    path = tmp_path / "x.hbs"
    path.write_bytes(bytes(data))
    return load(path)


def test_truncation_names_node_and_offset(tmp_path, saved_pair):
    for data in saved_pair:
        layout = record_layout(data)
        start, node, shapes = layout[len(layout) // 2]
        cuts = {10: None, 16 + 5: 1, start + 3: node, shapes[-1] + 4: node,
                shapes[-1] + 20: node, len(data) - 1: layout[-1][1]}
        for cut, node in cuts.items():
            with pytest.raises(ValueError, match="truncated") as err:
                load_bytes(tmp_path, data[:cut])
            assert "at byte" in str(err.value)
            if node is not None:
                assert f"of node {node} " in str(err.value)


def test_trailing_byte_is_rejected(tmp_path, saved_pair):
    for data in saved_pair:
        with pytest.raises(ValueError, match="1 trailing bytes"):
            load_bytes(tmp_path, data + b"\0")


def test_records_out_of_order_are_rejected(tmp_path, saved_pair):
    for data in saved_pair:
        layout = record_layout(data)
        (a, _, _), (b, _, _), (c, _, _) = layout[1:4]  # nodes 2, 3, 4
        swapped = data[:a] + data[b:c] + data[a:b] + data[c:]
        with pytest.raises(ValueError, match="expected node 2"):
            load_bytes(tmp_path, swapped)


def test_bad_block_shape_is_rejected(tmp_path, rng, smooth_star_600):
    # in the first record of each role, its first block is re-declared as one
    # row (or one column) of the same entries: the stream stays aligned, only
    # the shape is wrong
    _, A, inv = smooth_star_600
    files = []
    for save, obj in ((save_hbs, A), (save_inverse, inv), (save_hbs, depth_zero_hbs(rng))):
        save(tmp_path / "a.hbs", obj)
        files.append((tmp_path / "a.hbs").read_bytes())
    roles = {}
    for data in files:
        for start, node, shapes in record_layout(data):
            role = int.from_bytes(data[start + 4 : start + 8], "little")
            if role in roles:
                continue
            roles[role] = node
            at = shapes[0]
            rows, cols = np.frombuffer(data, "<u4", 2, at)
            assert rows * cols > 1
            bad = bytearray(data)
            bad[at : at + 8] = np.array([1, rows * cols] if rows > 1 else [rows * cols, 1],
                                        "<u4").tobytes()
            with pytest.raises(ValueError, match=f"(node|leaf|parent) {node}: "):
                load_bytes(tmp_path, bad)
    assert sorted(roles) == [0, 1, 2, 3, 9, 10]


def test_resave_is_byte_identical_at_every_depth(tmp_path, rng):
    for levels in range(4):
        A = depth_zero_hbs(rng) if levels == 0 else random_hbs(rng, n=25 << levels)
        assert A.tree.levels == levels
        for tau in A.D:
            A.D[tau] += 10 * np.eye(A.D[tau].shape[0])
        for save, obj in ((save_hbs, A), (save_inverse, hbs_invert(A))):
            p1, p2 = tmp_path / "1.hbs", tmp_path / "2.hbs"
            save(p1, obj)
            save(p2, load(p1))
            assert p1.read_bytes() == p2.read_bytes(), (levels, save.__name__)


def test_bad_block_count_and_non_finite_matrix(tmp_path, saved_pair):
    data = saved_pair[0]
    start, node, shapes = record_layout(data)[-1]
    bad = bytearray(data)
    bad[start + 8 : start + 12] = (4).to_bytes(4, "little")
    with pytest.raises(ValueError, match="3 blocks, the record says 4"):
        load_bytes(tmp_path, bad)
    # a matrix load runs validate, so a NaN entry is caught
    bad = bytearray(data)
    bad[shapes[0] + 8 : shapes[0] + 16] = np.array([np.nan]).tobytes()
    with pytest.raises(ValueError, match="non-finite"):
        load_bytes(tmp_path, bad)


def test_non_finite_inverse_loads_but_does_not_solve(tmp_path, saved_pair):
    # load scans no inverse entry; apply_inverse rejects what a NaN makes
    data = saved_pair[1]
    _, node, shapes = record_layout(data)[0]
    assert node == 1
    bad = bytearray(data)
    bad[shapes[0] + 8 : shapes[0] + 16] = np.array([np.nan]).tobytes()  # root G
    inv = load_bytes(tmp_path, bad)
    assert np.isnan(inv.G[1][0, 0])
    with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        apply_inverse(inv, np.ones(inv.tree.n))


def test_header_depth_must_fit_n(tmp_path, saved_pair):
    bad = bytearray(saved_pair[1])
    bad[8:12] = (2**32 - 1).to_bytes(4, "little")  # levels
    with pytest.raises(ValueError, match="cannot fill"):
        load_bytes(tmp_path, bad)


def test_block_reads_resume_and_stop_at_the_end_of_the_file(tmp_path, monkeypatch):
    # load reads the blocks after checking the headers: a short read resumes
    # inside the buffer it left part filled, and a file cut short in between
    # raises instead of leaving a slot unfilled
    import os

    path = tmp_path / "twenty.bin"
    path.write_bytes(bytes(range(20)))
    preadv = os.preadv

    def at_most_3_bytes(fd, buffers, at):
        return preadv(fd, [buffers[0].reshape(-1).view(np.uint8)[:3]], at)

    with open(path, "rb") as f:
        blocks = [np.zeros(8, np.uint8), np.zeros(0, np.uint8), np.zeros(12, np.uint8)]
        with monkeypatch.context() as m:
            m.setattr(os, "preadv", at_most_3_bytes)
            _read_into(f.fileno(), blocks, 0, 20)
        assert list(np.concatenate(blocks)) == list(range(20))
        first, second = np.zeros(4, np.uint8), np.zeros(12, np.uint8)
        with pytest.raises(ValueError, match="ended at byte 20"):
            _read_into(f.fileno(), [first, second], 8, 24)
    assert list(first) == [8, 9, 10, 11] and list(second[:8]) == list(range(12, 20))
