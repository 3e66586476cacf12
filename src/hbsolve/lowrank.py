"""Rank-revealing factorizations: the interpolatory decomposition.

The interpolatory decomposition (ID) of a matrix B picks k rows of B (the
skeleton) and an m x k coefficient matrix U with U[J, :] = I such that

    B ~= U @ B[J, :],    ||B - U B[J, :]||_F <= tol ||B||_F.

It is computed from a column-pivoted Householder QR of B.T.  The pivots of
CPQR do not depend on k, so one factorization yields the ID at every rank
(`InterpolatoryDecomposition.truncate`).  CPQR alone can leave coefficient
entries slightly above the target bound of 2, so a maxvol style row-swap
refinement kicks in as a fallback whenever that happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

COEFF_BOUND = 2.0
MAXVOL_SWEEPS = 200  # row swaps _maxvol_refine makes at most


@dataclass(eq=False)
class InterpolatoryDecomposition:
    """Rank-k ID from the leading min(m, n) rows of the R factor of B.T and
    its column pivots; k is capped at min(m, n).  The skeleton row indices J
    and the coefficients U with U[J, :] = I_k are formed on first use."""

    r_factor: np.ndarray = field(repr=False)
    pivots: np.ndarray = field(repr=False)
    rank: int

    def __post_init__(self):
        self.rank = min(int(self.rank), self.r_factor.shape[0])

    @cached_property
    def _formed(self):
        return _id_from_factor(self.r_factor, self.pivots, self.rank)

    @property
    def skeleton(self):
        """(k,) row indices into B."""
        return self._formed[0]

    @property
    def coeffs(self):
        """(m, k); the rows at the skeleton indices form I_k."""
        return self._formed[1]

    def truncate(self, k):
        """The rank-k ID of the same matrix from the same factorization.
        A pinned rank is the one the caller goes on to use, so it is formed
        at once."""
        cut = InterpolatoryDecomposition(self.r_factor, self.pivots, k)
        if cut.rank == self.rank:
            return self
        cut._formed  # noqa: B018 -- evaluating the cached property forms it
        return cut


def _adaptive_rank(R, tol):
    """Smallest k with ||R[k:, k:]||_F <= tol ||R||_F (column-pivoted R)."""
    m = R.shape[0]
    rows = np.sum(R**2, axis=1)
    # tail[k] = ||R[k:, k:]||_F^2; R is upper triangular so row k contributes
    # only to tails with index <= k
    tail = np.cumsum(rows[::-1])[::-1]
    total = tail[0] if m else 0.0
    if total == 0.0:
        return 0
    cutoff = (tol**2) * total
    k = int(np.searchsorted(-tail, -cutoff))
    return min(k, m)


def _maxvol_refine(C, J):
    """Swap rows into J until all entries of C @ inv(C[J]) are <= 1 + 1e-8.

    C is m x k of full column rank.  Each swap strictly increases
    |det C[J]|, so the loop terminates.
    """
    J = list(J)
    for _ in range(MAXVOL_SWEEPS):
        W = np.linalg.solve(C[J].T, C.T).T
        i, j = np.unravel_index(np.argmax(np.abs(W)), W.shape)
        if abs(W[i, j]) <= 1.0 + 1e-8:
            break
        J[j] = i
    return np.asarray(J), W


def _id_from_factor(R, piv, k):
    """Skeleton J and coefficients U of the rank-k ID from the R factor and
    pivots of a CPQR of B.T (k <= R.shape[0])."""
    m = piv.shape[0]
    J = piv[:k]
    U = np.zeros((m, k))
    if k:
        T = scipy.linalg.solve_triangular(R[:k, :k], R[:k, k:], check_finite=False)
        U[J] = np.eye(k)
        U[piv[k:]] = T.T
        if np.max(np.abs(U)) > COEFF_BOUND:
            # rare CPQR coefficient overshoot: re-pick the skeleton by maxvol
            # on C = B Q[:, :k], whose pivoted rows are R[:k].T
            C = np.empty((m, k))
            C[piv] = R[:k].T
            J, W = _maxvol_refine(C, J)
            U = W
            U[J] = np.eye(k)
    return np.asarray(J), U


def id_row(B, tol):
    """Row interpolatory decomposition B ~= U @ B[J, :].

    The rank is adaptive; `truncate` moves the result to another rank
    without factoring again.  Only the factorization runs
    here; the skeleton and coefficients are formed when first read, with
    coefficient entries kept within COEFF_BOUND via the maxvol fallback.
    """
    B = np.asarray(B, float)
    if B.size == 0:
        return InterpolatoryDecomposition(np.empty((0, B.shape[0])), np.arange(B.shape[0]), 0)
    if tol <= 0:
        raise ValueError("tol must be positive")
    # LAPACK's CPQR directly (what scipy.linalg.qr(B.T, pivoting=True)
    # runs), with the same workspace query so R and the pivots match it bit
    # for bit; the query leaves B.T alone, the factorization works on a copy
    lwork = int(lapack.dgeqp3(B.T, lwork=-1, overwrite_a=True)[3][0])
    qr, piv, _, _, info = lapack.dgeqp3(B.T, lwork=lwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqp3 failed with info = {info}")
    piv -= 1
    R = np.triu(qr[: min(B.shape)])
    return InterpolatoryDecomposition(R, piv, _adaptive_rank(R, tol))
