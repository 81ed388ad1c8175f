"""Discrete Lyapunov operator L(A, Q), its differential, and the trace identity.

L(A, Q) is the unique P solving P = A P A^T + Q when rho(A) < 1, solved
by Smith doubling.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotSchurStableError
from .numerics import spectral_radius

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
    P_0 = Q, M_0 = A. Divergence of the iterate norm (which happens iff
    rho(A) >= 1) raises NotSchurStableError.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n = A.shape[0]
    if A.ndim != 2 or A.shape[1] != n:
        raise DimensionError(f"dlyap: A must be square, got {A.shape}")
    if Q.shape != (n, n):
        raise DimensionError(f"dlyap: Q shape {Q.shape} does not match A {A.shape}")
    if spectral_radius(A) >= 1.0:
        raise NotSchurStableError("dlyap: rho(A) >= 1")
    P = Q.copy()
    M = A.copy()
    norm0 = 1.0 + np.linalg.norm(Q)
    iterations = 0
    for k in range(SMITH_MAX_ITER):
        m2 = float(np.linalg.norm(M)) ** 2
        if m2 <= SMITH_TOL:
            break
        P = P + M @ P @ M.T
        M = M @ M
        iterations = k + 1
        if np.linalg.norm(P) > DIVERGENCE_FACTOR * norm0:
            raise NotSchurStableError("dlyap: Smith iteration diverged (rho(A) >= 1?)")
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
