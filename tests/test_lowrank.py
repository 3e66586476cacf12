import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hbsolve import lowrank
from hbsolve.lowrank import COEFF_BOUND, id_row


def residual(B, dec):
    return np.linalg.norm(B - dec.coeffs @ B[dec.skeleton]) / np.linalg.norm(B)


def low_rank_matrix(rng, m, n, r, noise=1e-12):
    B = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    return B + noise * rng.standard_normal((m, n))


def test_identity_self_skeletonizes():
    dec = id_row(np.eye(5), 1e-10)
    assert dec.rank == 5
    assert sorted(dec.skeleton) == [0, 1, 2, 3, 4]
    # coefficients form a permutation matrix
    assert np.array_equal(np.sort(dec.coeffs, axis=0)[-1], np.ones(5))
    assert np.allclose(dec.coeffs @ np.eye(5)[dec.skeleton], np.eye(5))


def test_rank_one():
    rng = np.random.default_rng(1)
    B = np.outer(rng.standard_normal(20), rng.standard_normal(30))
    dec = id_row(B, 1e-10)
    assert dec.rank == 1
    assert residual(B, dec) <= 1e-10


def test_separated_log_clusters():
    # two unit-diameter clusters at distance 4: numerically low rank
    rng = np.random.default_rng(2)
    p = rng.uniform(-0.5, 0.5, size=(50, 2))
    q = rng.uniform(-0.5, 0.5, size=(50, 2)) + np.array([4.0, 0.0])
    B = np.log(np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2))
    dec = id_row(B, 1e-10)
    assert dec.rank <= 20
    assert residual(B, dec) <= 1e-10


def test_skeleton_rows_are_identity():
    rng = np.random.default_rng(3)
    B = low_rank_matrix(rng, 40, 60, 7)
    dec = id_row(B, 1e-10)
    assert np.array_equal(dec.coeffs[dec.skeleton], np.eye(dec.rank))
    # reconstruction is exact on the skeleton rows
    R = dec.coeffs @ B[dec.skeleton]
    assert np.array_equal(R[dec.skeleton], B[dec.skeleton])


def test_tolerance_monotonicity():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((60, 60)) * np.logspace(0, -14, 60)[None, :]
    ranks = [id_row(B, tol).rank for tol in (1e-2, 1e-6, 1e-10, 1e-13)]
    assert ranks == sorted(ranks)
    assert ranks[0] < ranks[-1]


def test_coefficient_bound():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m, n = rng.integers(5, 120, size=2)
        r = int(rng.integers(1, min(m, n) + 1))
        B = low_rank_matrix(rng, m, n, r)
        dec = id_row(B, 1e-10)
        if dec.rank:
            assert np.max(np.abs(dec.coeffs)) <= COEFF_BOUND


def test_pinned_rank():
    rng = np.random.default_rng(6)
    B = low_rank_matrix(rng, 30, 30, 5)
    assert id_row(B, 1e-10, rank=9).rank == 9
    assert id_row(B, 1e-10, rank=0).rank == 0


def test_empty_and_invalid_inputs():
    dec = id_row(np.zeros((4, 0)), 1e-10)
    assert dec.rank == 0 and dec.coeffs.shape == (4, 0)
    assert id_row(np.zeros((4, 6)), 1e-10).rank == 0
    with pytest.raises(ValueError):
        id_row(np.ones((2, 2)), -1.0)


def kahan(n, c=0.285):
    """Kahan's matrix, columns scaled so CPQR keeps the natural order; its
    CPQR coefficients R11^-1 R12 grow past COEFF_BOUND at moderate k."""
    s = np.sqrt(1 - c * c)
    K = np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
    return K @ np.diag((1 - 1e-10) ** np.arange(n))


def test_truncate_matches_pinned_rank():
    rng = np.random.default_rng(9)
    B = rng.standard_normal((50, 70)) * np.logspace(0, -14, 70)[None, :]
    dec = id_row(B, 1e-6)
    assert 0 < dec.rank < 50
    for k in (0, 1, dec.rank - 1, dec.rank, dec.rank + 3, 50, 80):
        cut, fresh = dec.truncate(k), id_row(B, 1e-6, rank=k)
        assert cut.rank == min(k, 50)
        assert np.array_equal(cut.skeleton, fresh.skeleton)
        assert np.array_equal(cut.coeffs, fresh.coeffs)


def test_truncate_keeps_maxvol_fallback(monkeypatch):
    calls = []
    refine = lowrank._maxvol_refine
    monkeypatch.setattr(lowrank, "_maxvol_refine",
                        lambda C, J: calls.append(len(J)) or refine(C, J))
    B = kahan(60).T
    dec = id_row(B, 0.5)
    assert dec.rank < 30
    for k in (30, 45):
        calls.clear()
        cut = dec.truncate(k)
        assert calls == [k]  # CPQR overshot the bound at this rank
        assert np.max(np.abs(cut.coeffs)) <= COEFF_BOUND
        assert np.array_equal(cut.coeffs[cut.skeleton], np.eye(k))
        fresh = id_row(B, 0.5, rank=k)
        assert np.array_equal(cut.skeleton, fresh.skeleton)
        assert np.array_equal(cut.coeffs, fresh.coeffs)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 25), st.integers(1, 25), st.integers(1, 8), st.integers(0, 10**6))
def test_id_residual_property(m, n, r, seed):
    rng = np.random.default_rng(seed)
    B = low_rank_matrix(rng, m, n, min(r, m, n))
    dec = id_row(B, 1e-9)
    if np.linalg.norm(B) > 0:
        assert residual(B, dec) <= 1e-9 * 10  # small slack for round-off
        assert dec.rank <= min(m, n)
        if dec.rank:
            assert np.max(np.abs(dec.coeffs)) <= COEFF_BOUND
