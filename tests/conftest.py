"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately use different algorithms than the library
(Kronecker solves, bisection on the characteristic
polynomial, finite differences, trajectory simulation) so agreement is
meaningful.
"""

import dataclasses
import itertools
import zlib

import numpy as np
import pytest

from polgeo import Plant, StaticGain, dlyap, is_stabilizing_static, km_inner, lqg_grad


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


def lyap_trace_check(A, Q, Sigma):
    """Normalized residual of the trace identity tr(L(A^T,Q) Sigma) = tr(L(A,Sigma) Q),
    both sides from one paired dlyap solve."""
    sol = dlyap(A, Sigma, Q)
    lhs = float(np.trace(sol.Pt @ Sigma))
    rhs = float(np.trace(sol.P @ Q))
    return abs(lhs - rhs) / (1.0 + abs(rhs))


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


def min_norm_by_faces(gradients):
    """Minimum-norm point of the convex hull of the gradients by enumerating
    every face of the simplex of weights (2^N - 1 of them) and solving the
    equality-constrained quadratic subproblem on each. Exponential: a
    reference for small N only."""
    flat = np.array([g.reshape(-1) for g in gradients])
    N = len(flat)
    gram = flat @ flat.T
    best, best_val = None, np.inf
    for k in range(1, N + 1):
        for idx in itertools.combinations(range(N), k):
            sub = gram[np.ix_(idx, idx)]
            # minimize l^T sub l subject to sum(l) = 1 via KKT
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = 2.0 * sub
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            try:
                lam = np.linalg.solve(kkt, rhs)[:k]
            except np.linalg.LinAlgError:
                continue
            if np.any(lam < -1e-12):
                continue
            val = float(lam @ sub @ lam)
            if val < best_val:
                best_val = val
                best = np.zeros(N)
                best[list(idx)] = np.clip(lam, 0.0, None)
    return (best @ flat).reshape(gradients[0].shape), np.sqrt(max(best_val, 0.0))


def peak_gain_reference(plant, K, omegas):
    """lambda_max(R(w)^H (Q + K^T R K) R(w)) one frequency at a time, with
    R(w) = (e^{jw} I - A_cl)^{-1} by np.linalg.solve and the top eigenvalue
    by np.linalg.eigvalsh: the per-frequency loop the batched kernel replaces."""
    Acl = plant.A + plant.B @ K
    mid = plant.Q + K.T @ plant.R @ K
    eye = np.eye(plant.n)
    values = []
    for w in omegas:
        Rw = np.linalg.solve(np.exp(1j * w) * eye - Acl, eye)
        values.append(np.linalg.eigvalsh(Rw.conj().T @ mid @ Rw)[-1])
    return np.array(values)


def golden_max_scalar(f, lo, hi, tol):
    """Golden-section search for the maximum of a scalar f on [lo, hi], one
    point at a time: the sequential search that the lockstep one must match."""
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - golden * (b - a)
    d = a + golden * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = f(d)
        x, fx = (c, fc) if fc >= fd else (d, fd)
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f


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


def km_grad_by_basis(plant, Kd, weights=(1.0, 1.0, 1.0)):
    """KM gradient from the definition: the Gram matrix of km_inner over the
    canonical tangent basis, then a solve against the Euclidean partials."""
    shapes = [(Kd.order, Kd.order), (Kd.order, plant.p), (plant.m, Kd.order)]
    basis = []
    for k, shape in enumerate(shapes):
        for idx in np.ndindex(*shape):
            V = [np.zeros(s) for s in shapes]
            V[k][idx] = 1.0
            basis.append(tuple(V))
    dim = len(basis)
    G = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            G[i, j] = G[j, i] = km_inner(plant, Kd, basis[i], basis[j], weights)
    b = np.concatenate([x.reshape(-1) for x in lqg_grad(plant, Kd)])
    c = np.linalg.solve(G, b)
    sizes = np.cumsum([r * s for r, s in shapes])[:-1]
    return tuple(x.reshape(s) for x, s in zip(np.split(c, sizes), shapes))


def record_iterates(monkeypatch, module, name):
    """Spy on module.name, which a descent driver calls once per iteration as
    f(plant, x, ...); returns the list of the iterates x it is called with."""
    fn = getattr(module, name)
    iterates = []

    def spy(plant, x, *args, **kwargs):
        iterates.append(x)
        return fn(plant, x, *args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return iterates


def record_first_steps(monkeypatch):
    """Spy on every line search of lqr.descend; returns the list of the
    first steps tried, one per line search."""
    from polgeo import lqr

    backtrack, steps = lqr.backtrack, []

    def spy(accept, eta0):
        steps.append(eta0)
        return backtrack(accept, eta0)

    monkeypatch.setattr(lqr, "backtrack", spy)
    return steps


def record_certified_searches(monkeypatch):
    """Spy on lqr's certified step bound and line searches; returns (pairs,
    steps), the (K, V) of every bound asked for and the first step of every
    line search, which under CertificateStep pair up one to one."""
    from polgeo import lqr

    steps, bound, pairs = record_first_steps(monkeypatch), lqr.certified_step, []

    def spy(plant, K, V, ev=None):
        pairs.append((K, V))
        return bound(plant, K, V, ev)

    monkeypatch.setattr(lqr, "certified_step", spy)
    return pairs, steps


def lyapunov_bound_reference(Acl, Delta, P, N):
    """1 / (x + sqrt(x^2 + 2z)), x and z the largest eigenvalues of
    N^-1/2 (Acl^T P Delta + Delta^T P Acl) N^-1/2 and of
    N^-1/2 Delta^T P Delta N^-1/2, with N^-1/2 from a dense
    eigendecomposition."""
    w, U = np.linalg.eigh(N)
    root_inv = (U / np.sqrt(w)) @ U.T
    S = Acl.T @ P @ Delta
    x = np.linalg.eigvalsh(root_inv @ (S + S.T) @ root_inv)[-1]
    z = np.linalg.eigvalsh(root_inv @ Delta.T @ P @ Delta @ root_inv)[-1]
    return 1.0 / (x + np.sqrt(x * x + 2.0 * z))


def certificate_bound(plant, K, V, cap):
    """min(cap, s): s is the larger of the bounds from the two Lyapunov
    functions of A_cl, P = A_cl^T P A_cl + Q + K^T R K (for A_cl + eta BV)
    and Y = A_cl Y A_cl^T + Sigma (for its transpose), each by a Kronecker
    solve and dense eigenvalues."""
    Acl, Delta = plant.A + plant.B @ K.K, plant.B @ V
    N = plant.Q + K.K.T @ plant.R @ K.K
    s_P = lyapunov_bound_reference(Acl, Delta, kron_lyap(Acl.T, N), N)
    s_Y = lyapunov_bound_reference(Acl.T, Delta.T, kron_lyap(Acl, plant.Sigma), plant.Sigma)
    return min(cap, max(s_P, s_Y))


def lqg_bound_reference(plant, Kd, V, cap):
    """min(cap, s) for the dynamic policy Kd along the tangent V: s is the
    larger of the bound from Z = A_cl^T Z A_cl + I along Delta = E(V) and
    1 / (2 lambda_max(Z) ||Delta||_2), with Z by a Kronecker solve and
    dense eigenvalues and singular values."""
    dA, dB, dC = V
    n = plant.n
    Acl = np.block([[plant.A, plant.B @ Kd.C_K], [Kd.B_K @ plant.C, Kd.A_K]])
    Delta = np.block([[np.zeros((n, n)), plant.B @ dC], [dB @ plant.C, dA]])
    eye = np.eye(len(Acl))
    Z = kron_lyap(Acl.T, eye)
    s_cert = 1.0 / (2.0 * np.linalg.eigvalsh(Z)[-1] * np.linalg.norm(Delta, 2))
    return min(cap, max(lyapunov_bound_reference(Acl, Delta, Z, eye), s_cert))


def structured_optimum_reference(plant, mask, K0):
    """Stationary point of J over gains supported on mask, by Newton's method
    on the free entries from K0: the gradient (R K + B^T P A_cl) Y with P and
    Y from Kronecker solves, the Hessian by central differences of it. The
    difference Hessian only slows the iteration; its fixed point is where
    that gradient vanishes."""
    idx = np.flatnonzero(mask)

    def grad(k):
        K = np.zeros(mask.shape)
        K.flat[idx] = k
        Acl = plant.A + plant.B @ K
        P = kron_lyap(Acl.T, plant.Q + K.T @ plant.R @ K)
        Y = kron_lyap(Acl, plant.Sigma)
        return ((plant.R @ K + plant.B.T @ P @ Acl) @ Y).flat[idx]

    k, h = np.asarray(K0, dtype=float).flat[idx], 1e-6
    for _ in range(50):
        H = np.array([(grad(k + h * e) - grad(k - h * e)) / (2.0 * h)
                      for e in np.eye(len(k))]).T
        step = np.linalg.solve(0.5 * (H + H.T), grad(k))
        k = k - step
        if np.linalg.norm(step) <= 1e-15 * (1.0 + np.linalg.norm(k)):
            break
    K = np.zeros(mask.shape)
    K.flat[idx] = k
    return K


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def lqg_dual_cost_mismatch(monkeypatch):
    """Corrupt the transposed solve Pt of every paired Lyapunov solve inside
    lqg, so the two LQG cost expressions disagree."""
    from polgeo import dlyap, lqg

    def skewed(A, Q, Qt=None):
        sol = dlyap(A, Q, Qt)
        return sol if Qt is None else dataclasses.replace(sol, Pt=2.0 * sol.Pt)

    monkeypatch.setattr(lqg, "dlyap", skewed)


@pytest.fixture
def scalar_plant():
    """a = b = q = r = sigma = 1: the golden-ratio benchmark."""
    return Plant.create(A=np.array([[1.0]]), B=np.array([[1.0]]))


@pytest.fixture
def ab09_plant():
    """A = 0.9, B = C = 1, all weights 1: the output-feedback benchmark."""
    return Plant.create(A=np.array([[0.9]]), B=np.array([[1.0]]))
