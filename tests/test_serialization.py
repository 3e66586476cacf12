import struct
import sys

import numpy as np
import pytest

import hbsolve as hb
from hbsolve.hbs import block_layout
from hbsolve.inversion import apply_inverse, hbs_invert
from hbsolve import serialization
from hbsolve.serialization import HBS_MAGIC, load, save_hbs, save_inverse
from hbsolve.tree import tree_with_levels
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
    # the loaded stacks have the compressed matrix's layout, one buffer for
    # all levels in place of one per level, so every product is the same
    q = rng.standard_normal((A.tree.n, 3))
    assert np.array_equal(hb.hbs_matvec(back, q), hb.hbs_matvec(A, q))
    assert np.array_equal(hb.hbs_matvec(back, q[:, 0]), hb.hbs_matvec(A, q[:, 0]))
    save_hbs(tmp_path / "b.hbs", back)
    assert (tmp_path / "b.hbs").read_bytes() == path.read_bytes()


def test_inverse_roundtrip(tmp_path, rng, smooth_star_600):
    _, A, inv = smooth_star_600
    p1, p2 = tmp_path / "i1.hbs", tmp_path / "i2.hbs"
    save_inverse(p1, inv)
    back = load(p1)
    assert isinstance(back, type(inv))
    save_inverse(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    u = rng.standard_normal(A.tree.n)
    assert np.array_equal(apply_inverse(back, u), apply_inverse(inv, u))


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


def test_bad_magic(tmp_path, saved_pair):
    path = tmp_path / "junk.hbs"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(ValueError, match="bad magic b'NOPE'"):
        load(path)
    # the older per-record format is refused by name, not misread
    for data in saved_pair:
        with pytest.raises(ValueError, match="HBS1 files are no longer read"):
            load_bytes(tmp_path, b"HBS1" + data[4:])


def test_corrupt_kind(tmp_path, saved_pair):
    for kind in (2, 77, 2**32 - 1):
        bad = bytearray(saved_pair[0])
        bad[4:8] = kind.to_bytes(4, "little")
        with pytest.raises(ValueError, match=f"kind {kind}, expected 0 .* or 1"):
            load_bytes(tmp_path, bad)


def test_header_records_shape(tmp_path, rng):
    A = random_hbs(rng, n=100, target_leaf=30)
    path = tmp_path / "a.hbs"
    save_hbs(path, A)
    data = path.read_bytes()
    magic, kind, n, levels = struct.unpack("<4sIII", data[:16])
    assert magic == HBS_MAGIC == b"HBS2"
    assert (kind, n, levels) == (0, 100, A.tree.levels)
    ranks = np.frombuffer(data, "<u4", A.tree.node_count - 1, 16)
    assert list(ranks) == [A.rank_of(tau) for tau in range(2, A.tree.node_count + 1)]
    assert len(data) == data_offset(data) + 8 * A.storage_count()


def test_record_blocks_keep_their_order():
    # each node's blocks in block_layout order, which fixes the order of a
    # level's stacks and so of an HBS2 file's data (module docstring)
    def names(levels, tau, inverse=False):
        return [name for name, _ in block_layout(tree_with_levels(8, levels), {}, tau, inverse)]

    assert names(0, 1) == ["D"]
    assert names(2, 4) == names(2, 7) == ["D", "U", "V"]
    assert names(2, 2) == ["U", "V", "B12", "B21"]
    assert names(2, 1) == ["B12", "B21"]
    assert names(2, 2, True) == names(2, 4, True) == ["E", "F", "G", "Dhat"]
    assert names(2, 1, True) == names(0, 1, True) == ["G"]


# -- malformed files ----------------------------------------------------------


def data_offset(data):
    """Where the float64 data of the HBS2 file `data` starts: after the
    16-byte header and a u32 rank for each of nodes 2 ... 2^(levels+1) - 1."""
    levels = struct.unpack_from("<I", data, 12)[0]
    return 16 + 4 * ((2 << levels) - 2)


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


def test_truncation_names_section_and_offset(tmp_path, saved_pair):
    for data in saved_pair:
        at = data_offset(data)
        cuts = {0: "header at byte 0: 16 bytes expected, 0 left",
                10: "header at byte 0: 16 bytes expected, 10 left",
                16 + 5: f"ranks at byte 16: {at - 16} bytes expected, 5 left",
                at: f"data for the stated ranks at byte {at}: {len(data) - at} bytes expected, 0 left",
                len(data) - 1: f"data for the stated ranks at byte {at}: {len(data) - at} bytes "
                               f"expected, {len(data) - at - 1} left"}
        for cut, message in cuts.items():
            with pytest.raises(ValueError, match="truncated HBS2 file") as err:
                load_bytes(tmp_path, data[:cut])
            assert message in str(err.value)


def test_trailing_byte_is_rejected(tmp_path, saved_pair):
    for data in saved_pair:
        with pytest.raises(ValueError, match=f"1 trailing bytes .* at byte {len(data)}"):
            load_bytes(tmp_path, data + b"\0")


def test_bad_block_shape_is_rejected(tmp_path, saved_pair, monkeypatch):
    # the ranks fix every block's shape: a corrupted rank misstates the
    # blocks' length, and load refuses it before it allocates any stack
    def no_allocation(*args):
        raise AssertionError("stacks allocated for a corrupted rank")

    monkeypatch.setattr(serialization, "allocate_stacks", no_allocation)
    for data in saved_pair:
        for node in (2, 5):  # a parent and a leaf
            at = 16 + 4 * (node - 2)
            rank = int.from_bytes(data[at:at + 4], "little")
            for bad_rank, message in ((rank + 1, "truncated"), (rank - 1, "trailing bytes"),
                                      (2**32 - 1, "truncated")):
                bad = bytearray(data)
                bad[at:at + 4] = bad_rank.to_bytes(4, "little")
                with pytest.raises(ValueError, match=f"{message} .*ranks"):
                    load_bytes(tmp_path, bad)


def test_resave_is_byte_identical_at_every_depth(tmp_path, rng):
    for levels in range(4):
        A = depth_zero_hbs(rng) if levels == 0 else random_hbs(rng, n=25 << levels)
        assert A.tree.levels == levels
        for tau in A.D:
            A.D[tau] += 10 * np.eye(A.D[tau].shape[0])
        inv = hbs_invert(A)
        q = rng.standard_normal((A.tree.n, 2))
        # the transposes' stacks are transposed views of their own
        for save, obj in ((save_hbs, A), (save_inverse, inv), (save_hbs, hb.hbs_transpose(A)),
                          (save_inverse, hb.inverse_transpose(inv))):
            p1, p2 = tmp_path / "1.hbs", tmp_path / "2.hbs"
            save(p1, obj)
            back = load(p1)
            save(p2, back)
            assert p1.read_bytes() == p2.read_bytes(), (levels, save.__name__)
            for name in obj.NAMES:
                saved, loaded = getattr(obj, name), getattr(back, name)
                assert saved.keys() == loaded.keys()
                assert all(np.array_equal(saved[tau], loaded[tau]) for tau in saved)
            apply = apply_inverse if save is save_inverse else hb.hbs_matvec
            ref = apply(obj, q)
            if obj in (A, inv):
                assert np.array_equal(apply(back, q), ref)
            else:  # BLAS takes another path for a transposed view's stack
                assert np.linalg.norm(apply(back, q) - ref) <= 1e-13 * np.linalg.norm(ref)


def test_non_finite_matrix_names_the_node(tmp_path, saved_pair):
    # a matrix load scans every entry; the data starts with the root's B12
    data = saved_pair[0]
    at = data_offset(data)
    bad = bytearray(data)
    bad[at:at + 8] = np.array([np.nan]).tobytes()
    with pytest.raises(ValueError, match="node 1: non-finite entries in B12"):
        load_bytes(tmp_path, bad)
    bad = bytearray(data)
    bad[-8:] = np.array([-np.inf]).tobytes()  # the last leaf stack's V
    with pytest.raises(ValueError, match=r"node \d+: non-finite entries in V"):
        load_bytes(tmp_path, bad)


def test_non_finite_inverse_loads_but_does_not_solve(tmp_path, saved_pair):
    # load scans no inverse entry; apply_inverse rejects what a NaN makes
    data = saved_pair[1]
    at = data_offset(data)
    bad = bytearray(data)
    bad[at:at + 8] = np.array([np.nan]).tobytes()  # root G, the data's first block
    inv = load_bytes(tmp_path, bad)
    assert np.isnan(inv.G[1][0, 0])
    with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        apply_inverse(inv, np.ones(inv.tree.n))


def test_header_depth_must_fit_n(tmp_path, saved_pair):
    # a depth of 2^32 - 1 would be a tree of 2^(2^32) nodes: the header is
    # refused before any rank is read
    bad = bytearray(saved_pair[1])
    bad[12:16] = (2**32 - 1).to_bytes(4, "little")  # levels
    with pytest.raises(ValueError, match="N = 100 cannot fill"):
        load_bytes(tmp_path, bad)


def test_block_reads_resume_and_stop_at_the_end_of_the_file(tmp_path, saved_pair, monkeypatch):
    # load fills its arrays with as many reads as the file takes: a read that
    # gives fewer bytes than asked for is resumed, and a file that ends early
    # (it changed after its size was taken) raises instead of leaving a slot
    # unfilled
    class Trickle:
        """A file whose reads give at most 3 bytes, and none past `stop`."""

        def __init__(self, path, stop):
            self.f, self.stop = open(path, "rb", buffering=0), stop

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def fileno(self):
            return self.f.fileno()

        def readinto(self, b):
            n = min(3, len(b), self.stop - self.f.tell())
            return self.f.readinto(b[:n]) if n > 0 else 0

    data = saved_pair[0]
    path = tmp_path / "a.hbs"
    path.write_bytes(data)
    reference = load(path)
    for stop, ok in ((len(data), True), (len(data) - 5, False), (data_offset(data) + 1, False)):
        with monkeypatch.context() as m:
            m.setattr(serialization, "open", lambda p, *a, **k: Trickle(p, stop), raising=False)
            if ok:
                back = load(path)
                for name in back.NAMES:
                    blocks = getattr(back, name)
                    assert all(np.array_equal(blocks[tau], getattr(reference, name)[tau])
                               for tau in blocks)
            else:
                with pytest.raises(ValueError, match="ended early"):
                    load(path)


def test_big_endian_host_is_refused(tmp_path, saved_pair, monkeypatch):
    # HBS2 is little-endian and stacks are written and read in native order
    path = tmp_path / "a.hbs"
    path.write_bytes(saved_pair[0])
    A = load(path)
    monkeypatch.setattr(sys, "byteorder", "big")
    with pytest.raises(ValueError, match="little-endian: a big-endian host is refused"):
        load(path)
    with pytest.raises(ValueError, match="little-endian"):
        save_hbs(tmp_path / "b.hbs", A)
    assert not (tmp_path / "b.hbs").exists()
