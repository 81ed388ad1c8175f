"""Discrete Lyapunov operator L(A, Q) and its differential.

L(A, Q) is the unique P solving P = A P A^T + Q when rho(A) < 1, solved
by Smith doubling. Stability is decided by the membership tests in
policy_core; dlyap only guards, raising when its iteration does not converge.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotSchurStableError

SMITH_TOL = 1e-13
SMITH_MAX_ITER = 64
DIVERGENCE_FACTOR = 1e8


@dataclass(frozen=True)
class LyapSolution:
    P: np.ndarray
    iterations: int
    residual: float
    Pt: np.ndarray | None = None


def _sq(X):
    """Squared Frobenius norm."""
    v = X.ravel()
    return float(v @ v)


def _norm(X):
    """Frobenius norm of a matrix, or the array of those of the slices of a
    (k, n, n) stack."""
    if X.ndim == 2:
        return math.sqrt(_sq(X))
    return np.sqrt(np.einsum("ijk,ijk->i", X, X))


def _largest_norm(X):
    """Frobenius norm of a matrix, or the largest over the slices of a stack."""
    r = _norm(X)
    return r if X.ndim == 2 else float(r.max())


def _within(X, bound):
    """Whether ||X||_F <= bound, slice by slice for a (k, n, n) stack with
    the array of its slices' bounds; False when X is not finite. Every bound
    is at least DIVERGENCE_FACTOR, so an X whose whole norm is within it
    passes without its slice norms."""
    return math.sqrt(_sq(X)) <= DIVERGENCE_FACTOR or bool(np.all(_norm(X) <= bound))


def dlyap(A, Q, Qt=None):
    """Solve P = A P A^T + Q by Smith doubling; given Qt, also solve
    Pt = A^T Pt A + Qt on the same powers of A, for each slice when Qt is a
    (k, n, n) stack (Pt is then the stack of solutions).

    P_{k+1} = P_k + M_k P_k M_k^T (and Pt_{k+1} = Pt_k + M_k^T Pt_k M_k)
    with M_{k+1} = M_k^2, starting from P_0 = Q, Pt_0 = Qt, M_0 = A, until
    ||M_k||_F^2 <= SMITH_TOL. Raises NotSchurStableError when it does not
    converge (rho(A) >= 1): ||M_k||_F^2, ||P_k||_F or the norm of a slice
    of Pt_k exceeds DIVERGENCE_FACTOR * (1 + its start) or is not finite,
    or M_k misses SMITH_TOL after SMITH_MAX_ITER doublings. The growth
    bounds stop the iteration long before a product could overflow. The
    residual is the largest of the fixed-point residuals, slice by slice.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.ndim != 2 or A.shape[1] != n:
        raise DimensionError(f"dlyap: A must be square, got {A.shape}")
    rhs = [np.asarray(R, dtype=float) for R in ((Q,) if Qt is None else (Q, Qt))]
    for R, ndims in zip(rhs, ((2,), (2, 3))):
        if R.ndim not in ndims or R.shape[-2:] != (n, n):
            raise DimensionError(f"dlyap: Q shape {R.shape} does not match A {A.shape}")
    P = [R.copy() for R in rhs]
    p_bound = [DIVERGENCE_FACTOR * (1.0 + _norm(R)) for R in rhs]
    M = A.copy()
    m_bound = DIVERGENCE_FACTOR * (1.0 + np.linalg.norm(A) ** 2)
    for iterations in range(SMITH_MAX_ITER + 1):
        m2 = _sq(M)
        # NaN and inf fail these comparisons
        if not (m2 <= m_bound
                and all(map(_within, P, p_bound))):
            raise NotSchurStableError("dlyap: Smith iteration diverged (rho(A) >= 1?)")
        if m2 <= SMITH_TOL:
            break
        if iterations == SMITH_MAX_ITER:
            raise NotSchurStableError(
                f"dlyap: no convergence in {SMITH_MAX_ITER} doublings (rho(A) >= 1?)")
        # zip stops at P's length: M_k serves P, its transpose Pt (each
        # slice of a stack: the products broadcast)
        P = [Pk + X @ Pk @ X.T for Pk, X in zip(P, (M, M.T))]
        M = M @ M
    residual = max(_largest_norm(Pk - X @ Pk @ X.T - R)
                   for Pk, X, R in zip(P, (A, A.T), rhs))
    return LyapSolution(P=P[0], iterations=iterations, residual=residual,
                        Pt=None if Qt is None else P[1])


def dlyap_diff(A, Q, E, F):
    """Differential of the Lyapunov map: dL_(A,Q)[E,F] = L(A, E P A^T + A P E^T + F)."""
    P = dlyap(A, Q).P
    rhs = E @ P @ A.T + A @ P @ E.T + F
    return dlyap(A, rhs).P

