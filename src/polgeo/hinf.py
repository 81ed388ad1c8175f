"""State-feedback H-infinity cost by frequency sweep with golden-section
refinement, plus a gradient-sampling descent driver for the resulting
non-smooth (locally Lipschitz) cost.

J(K) is the squared H-infinity norm of the closed loop from process noise
to the stacked performance output [Q^(1/2) x; R^(1/2) u]:
    J(K) = sup_w lambda_max( (e^{-jw}I - A_cl)^{-T} (Q + K^T R K)
                             (e^{jw}I - A_cl)^{-1} ).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InternalInvariantError
from .lqr import CertificateStep, IterTrace, backtrack, initial_eta
from .numerics import hermitian_lambda_max, solve_linear, spectral_radius
from .policy_core import (
    StaticGain,
    closed_loop_static,
    is_stabilizing_static,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class HinfEval:
    J: float
    omega_star: float
    grid_size: int
    refined: bool


def hinf_freq_response(plant, K, omega):
    """lambda_max of the Hermitian transfer matrix at a single frequency."""
    if not K.certified:
        raise InfeasibleError("hinf_freq_response requires a certified gain")
    Acl = closed_loop_static(plant, K.K)
    n = plant.n
    mid = plant.Q + K.K.T @ plant.R @ K.K
    z = complex(math.cos(omega), math.sin(omega))
    try:
        resolvent = solve_linear(z * np.eye(n) - Acl.astype(complex), np.eye(n))
    except Exception as exc:  # cannot happen for rho(Acl) < 1
        raise InternalInvariantError("hinf_freq_response: resolvent singular") from exc
    H = resolvent.conj().T @ mid.astype(complex) @ resolvent
    return hermitian_lambda_max(H)


def _golden_max(f, lo, hi, tol):
    """Golden-section search for the maximum of f on [lo, hi]."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
        x, fx = (c, fc) if fc >= fd else (d, fd)
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def hinf_cost(plant, K, grid=2048, refine_tol=1e-10):
    """Sweep [0, pi] (conjugate symmetry halves the work), then golden-section
    refine around the top 3 grid maxima (sup over omega can have near-ties)."""
    if grid < 64:
        raise InfeasibleError("hinf_cost: grid must be >= 64")
    omegas = np.linspace(0.0, math.pi, grid)
    values = np.array([hinf_freq_response(plant, K, w) for w in omegas])
    order = np.argsort(values)[::-1]
    peaks = []
    taken = []
    for idx in order:
        if all(abs(idx - t) > 1 for t in taken):
            taken.append(int(idx))
            peaks.append(int(idx))
        if len(peaks) == 3:
            break
    best_J = float(np.max(values))
    best_w = float(omegas[int(np.argmax(values))])
    step = math.pi / (grid - 1)
    for idx in peaks:
        lo = max(0.0, omegas[idx] - step)
        hi = min(math.pi, omegas[idx] + step)
        w, v = _golden_max(lambda om: hinf_freq_response(plant, K, om), lo, hi, refine_tol)
        if v > best_J:
            best_J, best_w = float(v), float(w)
    return HinfEval(J=best_J, omega_star=best_w, grid_size=grid, refined=True)


def _min_norm_convex_combination(gradients):
    """Minimum-norm point of the convex hull of a small set of gradients.

    Enumerates simplex faces (exact for the sizes used here) and solves the
    equality-constrained quadratic subproblem on each.
    """
    flat = [g.reshape(-1) for g in gradients]
    N = len(flat)
    Gram = np.array([[float(fi @ fj) for fj in flat] for fi in flat])
    best = None
    best_val = math.inf
    for mask in range(1, 2 ** N):
        idx = [i for i in range(N) if mask >> i & 1]
        k = len(idx)
        sub = Gram[np.ix_(idx, idx)]
        # minimize l^T sub l subject to sum(l) = 1 via KKT
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = 2.0 * sub
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            continue
        lam = sol[:k]
        if np.any(lam < -1e-12):
            continue
        val = float(lam @ sub @ lam)
        if val < best_val:
            best_val = val
            full = np.zeros(N)
            full[idx] = np.clip(lam, 0.0, None)
            best = full
    combo = sum(w * g for w, g in zip(best, gradients))
    return combo, math.sqrt(max(best_val, 0.0))


def _fd_gradient(costfn, K, h):
    g = np.zeros_like(K)
    for i in range(K.shape[0]):
        for j in range(K.shape[1]):
            Kp = K.copy(); Kp[i, j] += h
            Km = K.copy(); Km[i, j] -= h
            g[i, j] = (costfn(Kp) - costfn(Km)) / (2.0 * h)
    return g


def hinf_descent_run(plant, K0, sample_count=None, sample_radius=None,
                     grid=512, tol=1e-6, max_iter=500, radius_min=1e-9,
                     rng_seed=0):
    """Gradient-sampling descent toward approximate Clarke stationarity.

    Each step samples perturbations in a Frobenius ball around K, takes FD
    gradients of the H-infinity cost there, and descends along the negated
    minimum-norm convex combination. When that combination's norm drops
    below tol the sampling radius is shrunk; termination requires both
    small direction norm and radius <= radius_min.
    """
    if not K0.certified:
        raise InfeasibleError("hinf_descent_run requires a certified gain")
    m, n = K0.K.shape
    N = sample_count if sample_count is not None else 2 * m * n + 2
    rng = np.random.default_rng(rng_seed)

    def cost(Kmat):
        if not is_stabilizing_static(plant, Kmat):
            return math.inf
        return hinf_cost(plant, StaticGain(Kmat, True), grid=grid, refine_tol=1e-11).J

    K = K0.K.copy()
    radius = sample_radius if sample_radius is not None else 1e-4 * (1.0 + np.linalg.norm(K))
    fd_h = max(radius * 1e-2, 1e-12)
    trace = []
    for it in range(max_iter + 1):
        J = cost(K)
        grads = []
        g0 = _fd_gradient(cost, K, fd_h)
        if np.all(np.isfinite(g0)):
            grads.append(g0)
        for _ in range(N):
            for _ in range(50):
                pert = rng.standard_normal((m, n))
                pert *= radius * rng.random() ** (1.0 / (m * n)) / max(np.linalg.norm(pert), 1e-300)
                Ks = K + pert
                if is_stabilizing_static(plant, Ks):
                    gs = _fd_gradient(cost, Ks, fd_h)
                    if np.all(np.isfinite(gs)):
                        grads.append(gs)
                    break
        direction, dnorm = _min_norm_convex_combination(grads)
        rho = spectral_radius(closed_loop_static(plant, K))
        trace.append(IterTrace(iter=it, J=J, grad_norm=dnorm, step=0.0, rho=rho))
        if it == max_iter:
            break
        if dnorm > tol:
            V = -direction
            eta, accepted = backtrack(
                lambda e: cost(K + e * V) < J,
                initial_eta(plant, StaticGain(K, True), V, CertificateStep()))
            if accepted:
                trace[-1] = IterTrace(iter=it, J=J, grad_norm=dnorm, step=eta, rho=rho)
                K = K + eta * V
                continue
        # stationary at the sampling scale, or a non-smooth kink there:
        # shrink the radius and retry
        if radius <= radius_min:
            break
        radius = max(radius * 0.1, radius_min)
        fd_h = max(radius * 1e-2, 1e-14)
    return StaticGain(K, True), trace
