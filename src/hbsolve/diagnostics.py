"""A posteriori error estimation for the compressed solver.

The solver's solution error obeys

    ||q_approx - q|| <= ||A_approx^-1|| ||A - A_approx|| ||q||,

so estimating the two operator norms bounds the error without ever
solving exactly.  Both norms are estimated by a block subspace iteration
on the normal operator: BLOCK_COLUMNS orthonormal columns go through one
block apply and one block adjoint apply per step, and the largest singular
value of the small triangular factor is the estimate.  That is a lower
bound on the operator norm (up to round-off) for non-symmetric operators
too.  The iteration stops once a step raises the estimate by less than
BLOCK_RTOL relatively, so a well-separated top singular value costs a few
steps and a clustered one more, up to the step cap.

The exact operator A is the Nystrom matrix of a QuadratureGrid.  When
its 8 N^2 bytes fit EXACT_ASSEMBLY_BYTES it is assembled once and every
step is a dense block product with the stored matrix; above that budget
each step re-forms it in panels (quadrature.dense_matvec), O(N^2) kernel
evaluations per step that serve all the block's columns at once.  Where
even that is too dear, `sampled_error` estimates ||A - A_approx||_F from a
few exact rows in O(s N) instead; that is a random estimate, not a bound.
"""

from __future__ import annotations

import numpy as np

from . import quadrature as quad
from .hbs import HbsMatrix, hbs_matvec, hbs_transpose
from .inversion import HbsInverse, apply_inverse, inverse_transpose
from .quadrature import QuadratureGrid

# the exact matrix is assembled once up to this size (N <= 2896), else streamed
EXACT_ASSEMBLY_BYTES = 64 * 2**20
SAMPLED_ROWS = 32
# the block norm estimates: columns per block, and the relative rise of
# the estimate below which one more step is not taken
BLOCK_COLUMNS = 8
BLOCK_RTOL = 1e-4


def power_norm(apply, apply_adjoint, dim, iters=50, seed=0):
    """Spectral-norm estimate of a linear operator; a lower bound on the
    true norm up to round-off.

    With dim = N it runs `iters` steps of power iteration on A* A from one
    random vector.  With dim = (N, m) it runs a block subspace iteration
    (see _subspace_norm) from a random N x m block, for at most `iters`
    steps.  apply and apply_adjoint take what dim describes: (N,) vectors,
    or (N, k) blocks with k <= m.
    """
    if iters < 2:
        raise ValueError("iters must be >= 2")
    rng = np.random.default_rng(seed)
    if np.ndim(dim):
        return _subspace_norm(apply, apply_adjoint, rng.standard_normal(dim), iters)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(iters):
        w = apply(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = apply_adjoint(w / nw)
        sigma = np.linalg.norm(v)
        if sigma == 0.0:
            return 0.0
        # v is now A* u for a unit vector u, so ||v|| -> sigma_max
        v /= sigma
    return float(sigma)


def _subspace_norm(apply, apply_adjoint, start, iters):
    """||A|| estimated from the span of `start`, an N x m block.

    V = orth(start); each step takes A V = Q R, then A* Q = V R', both by
    QR, and estimates ||A* Q||_2 = ||R'||_2, a lower bound on ||A|| since Q
    has orthonormal columns.  Householder QR keeps Q and V orthonormal even
    when A V has rank below m, so a zero operator gives 0 and a rank-1 one
    its norm.  The estimates never fall (up to round-off); the iteration
    stops after the first step that raises its estimate by at most
    BLOCK_RTOL relatively, or after `iters` steps.
    """
    from scipy.linalg import qr  # already loaded by .inversion

    def orth(X):
        return qr(X, mode="economic", check_finite=False)

    V = orth(start)[0]
    sigma = 0.0
    for _ in range(iters):
        V, R = orth(apply_adjoint(orth(apply(V))[0]))
        previous, sigma = sigma, np.linalg.norm(R, 2)
        if sigma - previous <= BLOCK_RTOL * sigma:
            break
    return float(max(sigma, previous))


def _exact_matvecs(A_exact):
    """Forward/adjoint matvec callbacks for a dense array or a grid.

    A grid's matrix is assembled once when it fits EXACT_ASSEMBLY_BYTES and
    streamed in panels on every call above that budget.
    """
    if isinstance(A_exact, QuadratureGrid):
        grid = A_exact
        if 8 * grid.size**2 > EXACT_ASSEMBLY_BYTES:
            return (
                lambda v: quad.dense_matvec(grid, v),
                lambda v: quad.dense_matvec_transpose(grid, v),
                grid.size,
            )
        A_exact = quad.assemble_dlp(grid)
    A = np.asarray(A_exact, float)
    return (lambda v: A @ v), (lambda v: A.T @ v), A.shape[0]


def inverse_norm(inv: HbsInverse, *, iters=50, seed=0):
    """Block estimate of ||A_approx^-1|| from the factored inverse."""
    invT = inverse_transpose(inv)
    return power_norm(
        lambda v: apply_inverse(inv, v),
        lambda v: apply_inverse(invT, v),
        (inv.tree.n, BLOCK_COLUMNS), iters=iters, seed=seed,
    )


def estimate_solver_error(A_exact, A_approx: HbsMatrix, inv: HbsInverse, *,
                          iters=50, seed=0):
    """Returns (err_A, norm_inv, bound_factor).

    err_A estimates ||A - A_approx||, norm_inv estimates ||A_approx^-1||,
    and their product bounds ||q_approx - q|| / ||q||.  A_exact is either
    the dense matrix or a QuadratureGrid (assembled once, or streamed).
    Each norm is a block estimate of BLOCK_COLUMNS columns and at most
    `iters` steps.
    """
    mv, mvT, n = _exact_matvecs(A_exact)
    At = hbs_transpose(A_approx)
    err_A = power_norm(
        lambda v: mv(v) - hbs_matvec(A_approx, v),
        lambda v: mvT(v) - hbs_matvec(At, v),
        (n, BLOCK_COLUMNS), iters=iters, seed=seed,
    )
    norm_inv = inverse_norm(inv, iters=iters, seed=seed + 1)
    return err_A, norm_inv, err_A * norm_inv


def sampled_error(grid: QuadratureGrid, A: HbsMatrix, seed):
    """Estimate of ||A_exact - A|| from s = SAMPLED_ROWS distinct random
    rows, in O(s N).

    The exact rows come from the kernel, the same rows of A from one block
    product of A^T with the s unit columns.  sqrt(N/s) ||rows of A_exact - A||_F
    is an unbiased estimate of the Frobenius norm of the difference.  It is
    an estimate, not a bound: when the error sits in a few rows the sample
    can miss them and fall below the spectral norm.
    """
    n, s = grid.size, SAMPLED_ROWS
    rows = np.sort(np.random.default_rng(seed).choice(n, s, replace=False))
    E = np.zeros((n, s))
    E[rows, np.arange(s)] = 1.0
    approx = hbs_matvec(hbs_transpose(A), E).T
    exact = quad.nystrom_block(grid, rows, np.arange(n))
    return float(np.sqrt(n / s) * np.linalg.norm(exact - approx))
