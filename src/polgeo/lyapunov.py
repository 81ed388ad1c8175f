"""Discrete Lyapunov operator L(A, Q), its differential, and the trace identity.

L(A, Q) is the unique P solving P = A P A^T + Q when rho(A) < 1, solved
by Smith doubling. Stability is decided by the membership tests in
policy_core; dlyap only guards, raising when its iteration does not converge.
"""

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


def dlyap(A, Q):
    """Solve P = A P A^T + Q by Smith doubling.

    P_{k+1} = P_k + M_k P_k M_k^T with M_{k+1} = M_k^2, starting from
    P_0 = Q, M_0 = A, until ||M_k||_F^2 <= SMITH_TOL. Raises
    NotSchurStableError when it does not converge (rho(A) >= 1): ||P_k||_F
    or ||M_k||_F^2 exceeds DIVERGENCE_FACTOR * (1 + its start) or is not
    finite, or M_k misses SMITH_TOL after SMITH_MAX_ITER doublings. The
    growth bounds stop the iteration long before a product could overflow.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n = A.shape[0]
    if A.ndim != 2 or A.shape[1] != n:
        raise DimensionError(f"dlyap: A must be square, got {A.shape}")
    if Q.shape != (n, n):
        raise DimensionError(f"dlyap: Q shape {Q.shape} does not match A {A.shape}")
    P = Q.copy()
    M = A.copy()
    p_bound = DIVERGENCE_FACTOR * (1.0 + np.linalg.norm(Q))
    m_bound = DIVERGENCE_FACTOR * (1.0 + np.linalg.norm(A) ** 2)
    for iterations in range(SMITH_MAX_ITER + 1):
        m2 = float(np.linalg.norm(M)) ** 2
        # NaN and inf fail these comparisons
        if not (m2 <= m_bound and np.linalg.norm(P) <= p_bound):
            raise NotSchurStableError("dlyap: Smith iteration diverged (rho(A) >= 1?)")
        if m2 <= SMITH_TOL:
            break
        if iterations == SMITH_MAX_ITER:
            raise NotSchurStableError(
                f"dlyap: no convergence in {SMITH_MAX_ITER} doublings (rho(A) >= 1?)")
        P = P + M @ P @ M.T
        M = M @ M
    residual = float(np.linalg.norm(P - A @ P @ A.T - Q))
    return LyapSolution(P=P, iterations=iterations, residual=residual)


def dlyap_diff(A, Q, E, F):
    """Differential of the Lyapunov map: dL_(A,Q)[E,F] = L(A, E P A^T + A P E^T + F)."""
    P = dlyap(A, Q).P
    rhs = E @ P @ A.T + A @ P @ E.T + F
    return dlyap(A, rhs).P


def lyap_trace_check(A, Q, Sigma):
    """Normalized residual of the trace identity tr(L(A^T,Q) Sigma) = tr(L(A,Sigma) Q)."""
    lhs = float(np.trace(dlyap(A.T, Q).P @ Sigma))
    rhs = float(np.trace(dlyap(A, Sigma).P @ Q))
    return abs(lhs - rhs) / (1.0 + abs(rhs))
