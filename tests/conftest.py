"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately use different algorithms than the library
(Kronecker solves, bisection on the characteristic
polynomial, finite differences, trajectory simulation) so agreement is
meaningful.
"""

import zlib

import numpy as np
import pytest

from polgeo import Plant, StaticGain, is_stabilizing_static


def char_poly_det(S, lam):
    return np.linalg.det(S - lam * np.eye(S.shape[0]))


def bisection_lambda_max(S, tol=1e-12):
    """Largest eigenvalue of symmetric S by bisection on the number of
    eigenvalues above lambda, counted via LDL-like pivots of S - lam I."""
    bound = np.linalg.norm(S, ord=np.inf) + 1.0
    lo, hi = -bound, bound

    def count_above(lam):
        # eigenvalue count above lam = n - (negative inertia of S - lam I)
        M = S - lam * np.eye(S.shape[0])
        # symmetric Gaussian elimination, counting pivot signs
        M = M.copy()
        n = M.shape[0]
        pos = 0
        for i in range(n):
            piv = M[i, i]
            if abs(piv) < 1e-300:
                piv = 1e-300
            if piv > 0:
                pos += 1
            M[i + 1:, i + 1:] -= np.outer(M[i + 1:, i], M[i, i + 1:]) / piv
        return pos

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if count_above(mid) >= 1:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def kron_lyap(A, Q):
    """vec(P) = (I - A kron A)^{-1} vec(Q), independent of the library path."""
    n = A.shape[0]
    M = np.eye(n * n) - np.kron(A, A)
    vecP = np.linalg.solve(M, Q.reshape(-1))
    return vecP.reshape(n, n)


def fd_grad(f, X, h=1e-6):
    """Central-difference gradient of a scalar function of a matrix."""
    X = np.asarray(X, dtype=float)
    g = np.zeros_like(X)
    for idx in np.ndindex(*X.shape):
        Xp = X.copy()
        Xp[idx] += h
        Xm = X.copy()
        Xm[idx] -= h
        g[idx] = (f(Xp) - f(Xm)) / (2.0 * h)
    return g


def trajectory_decays(Acl, steps=200):
    """Simulate x_{t+1} = Acl x_t from a random start; decay oracle."""
    rng = np.random.default_rng(zlib.crc32(Acl.tobytes()))
    x0 = rng.standard_normal(Acl.shape[0])
    x = x0.copy()
    for _ in range(steps):
        x = Acl @ x
    return np.linalg.norm(x) < np.linalg.norm(x0)


def random_stabilizable(rng, n, m, scale=0.5):
    """Random plant with the zero gain stabilizing (A scaled Schur stable)."""
    A = rng.standard_normal((n, n))
    A *= scale / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-6)
    B = rng.standard_normal((n, m))
    Q = np.eye(n)
    Rm = rng.standard_normal((m, m))
    R = Rm @ Rm.T + np.eye(m)
    return Plant.create(A=A, B=B, Q=Q, R=R)


def random_certified_gain(rng, plant, tries=100):
    """Random gain kept small enough to stabilize the (stable-A) plant."""
    for _ in range(tries):
        K = rng.standard_normal((plant.m, plant.n)) * 0.1
        if is_stabilizing_static(plant, K):
            return StaticGain(K=K, certified=True)
    return StaticGain(K=np.zeros((plant.m, plant.n)), certified=True)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def lqg_dual_cost_mismatch(monkeypatch):
    """Corrupt every second Lyapunov solve inside lqg, so the two LQG cost
    expressions disagree."""
    from polgeo import dlyap, lqg

    calls = []

    def skewed(A, Q):
        sol = dlyap(A, Q)
        calls.append(None)
        return sol if len(calls) % 2 else type(sol)(2.0 * sol.P, sol.iterations, sol.residual)

    monkeypatch.setattr(lqg, "dlyap", skewed)


@pytest.fixture
def scalar_plant():
    """a = b = q = r = sigma = 1: the golden-ratio benchmark."""
    return Plant.create(A=np.array([[1.0]]), B=np.array([[1.0]]))


@pytest.fixture
def ab09_plant():
    """A = 0.9, B = C = 1, all weights 1: the output-feedback benchmark."""
    return Plant.create(A=np.array([[0.9]]), B=np.array([[1.0]]))
