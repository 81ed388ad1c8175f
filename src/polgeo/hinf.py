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

from .errors import ContractError, DimensionError, InfeasibleError, InternalInvariantError
from .lqr import CertificateStep, IterTrace, backtrack, initial_eta
from .numerics import hermitian_lambda_max
from .policy_core import (
    StaticGain,
    closed_loop_static,
    is_stabilizing_static,
    stabilizing_radius,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Frequencies per batched resolvent solve: a call's working set is a few
# (FREQ_BLOCK, n, n) complex stacks, whatever the number of frequencies.
FREQ_BLOCK = 256


@dataclass(frozen=True)
class HinfEval:
    J: float
    omega_star: float
    grid_size: int
    refined: bool


def hinf_freq_response(plant, K, omega):
    """lambda_max(R(w)^H (Q + K^T R K) R(w)), R(w) = (e^{jw} I - A_cl)^{-1}:
    a float at a scalar frequency, one value per frequency for a 1-D array.

    Frequencies are taken FREQ_BLOCK at a time, each block by one stacked
    solve, one stacked product and one stacked Hermitian eigensolve. A
    resolvent that is exactly singular or not finite raises
    InternalInvariantError (neither can happen for rho(A_cl) < 1)."""
    if not K.certified:
        raise InfeasibleError("hinf_freq_response requires a certified gain")
    omega = np.asarray(omega, dtype=float)
    if omega.ndim > 1:
        raise DimensionError(f"hinf_freq_response: scalar or 1-D frequencies, got {omega.shape}")
    Acl = closed_loop_static(plant, K.K)
    mid = (plant.Q + K.K.T @ plant.R @ K.K).astype(complex)
    eye = np.eye(plant.n)
    flat = omega.reshape(-1)
    values = np.empty(flat.size)
    for start in range(0, flat.size, FREQ_BLOCK):
        z = np.exp(1j * flat[start:start + FREQ_BLOCK])
        try:
            resolvent = np.linalg.solve(z[:, None, None] * eye - Acl, eye)
        except np.linalg.LinAlgError as exc:
            raise InternalInvariantError("hinf_freq_response: resolvent singular") from exc
        if not np.all(np.isfinite(resolvent)):
            raise InternalInvariantError("hinf_freq_response: resolvent not finite")
        H = np.swapaxes(resolvent, 1, 2).conj() @ mid @ resolvent
        values[start:start + FREQ_BLOCK] = hermitian_lambda_max(H)
    return float(values[0]) if omega.ndim == 0 else values


def _golden_search(lo, hi, tol):
    """Golden-section search for the maximum on [lo, hi], as a generator: it
    yields each point to evaluate, is sent the value there, and returns the
    best (x, f(x))."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc = yield c
    fd = yield d
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = yield d
        x, fx = (c, fc) if fc >= fd else (d, fd)
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def _golden_max(f, intervals, tol):
    """Golden-section searches for the maximum of f on each [lo, hi] of
    intervals, run in lockstep: f maps a 1-D array of points to their values,
    and each step evaluates the next point of every search still running in
    one call. Each search keeps the scalar search's arithmetic, so its
    (x, f(x)) is what it would be alone. Returns one (x, f(x)) per interval."""
    searches = [_golden_search(lo, hi, tol) for lo, hi in intervals]
    results = [None] * len(searches)
    pending = {i: next(search) for i, search in enumerate(searches)}
    while pending:
        values = f(np.array(list(pending.values())))
        running = {}
        for i, value in zip(pending, values):
            try:
                running[i] = searches[i].send(float(value))
            except StopIteration as done:
                results[i] = done.value
        pending = running
    return results


def hinf_cost(plant, K, grid=2048, refine_tol=1e-10):
    """Sweep [0, pi] (conjugate symmetry halves the work), then golden-section
    refine around the top 3 grid maxima (sup over omega can have near-ties).
    The sweep is one hinf_freq_response call; the three refinements run in
    lockstep, one call per step."""
    if grid < 64:
        raise ContractError("hinf_cost: grid must be >= 64")
    omegas = np.linspace(0.0, math.pi, grid)
    values = hinf_freq_response(plant, K, omegas)
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
    intervals = [(max(0.0, omegas[idx] - step), min(math.pi, omegas[idx] + step))
                 for idx in peaks]
    for w, v in _golden_max(lambda om: hinf_freq_response(plant, K, om), intervals, refine_tol):
        if v > best_J:
            best_J, best_w = float(v), float(w)
    return HinfEval(J=best_J, omega_star=best_w, grid_size=grid, refined=True)


def _min_norm_convex_combination(gradients):
    """Minimum-norm point of the convex hull of the gradients, by Wolfe's
    algorithm (Math. Programming 11, 1976).

    A corral S of affinely independent gradients holds the current point x
    in its hull. Each major cycle adds the gradient most negatively aligned
    with x; minor cycles move toward the affine minimizer of S, dropping
    gradients whose weight would turn negative. Stops when
    <x, g - x> >= -1e-12 max ||g||^2 for every gradient g, or when a cycle
    makes no progress.
    """
    G = np.array([g.reshape(-1) for g in gradients])
    sq = np.einsum("ij,ij->i", G, G)
    S, lam = [int(np.argmin(sq))], np.ones(1)
    x = G[S[0]]
    while True:
        j = int(np.argmin(G @ x))
        if j in S or x @ x - G[j] @ x <= 1e-12 * np.max(sq):
            break
        S, lam = S + [j], np.append(lam, 0.0)
        while True:
            # affine minimizer of the corral, by least squares on differences
            c = np.linalg.lstsq((G[S[1:]] - G[S[0]]).T, -G[S[0]], rcond=None)[0]
            mu = np.concatenate(([1.0 - c.sum()], c))
            if np.all(mu > 0.0):
                lam = mu
                break
            # step from lam toward mu until the first weight reaches zero
            neg = np.flatnonzero(mu <= 0.0)
            ratios = lam[neg] / np.maximum(lam[neg] - mu[neg], np.finfo(float).tiny)
            lam = lam + ratios.min() * (mu - lam)
            lam[neg[np.argmin(ratios)]] = 0.0
            S, lam = [i for i, w in zip(S, lam) if w > 0.0], lam[lam > 0.0]
        x_new = lam @ G[S]
        progress = x_new @ x_new < x @ x
        x = x_new
        if not progress:
            break
    return x.reshape(gradients[0].shape), float(np.linalg.norm(x))


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
    small direction norm and radius <= radius_min. The accepted candidate's
    cost and spectral radius carry over to the next iterate, so no iterate
    is evaluated or eigensolved twice. Raises InfeasibleError when K0 fails
    membership.
    """
    if not K0.certified:
        raise InfeasibleError("hinf_descent_run requires a certified gain")
    m, n = K0.K.shape
    N = sample_count if sample_count is not None else 2 * m * n + 2
    rng = np.random.default_rng(rng_seed)

    def evaluate(Kmat):
        """(J, rho) of a gain: its H-infinity cost and the spectral radius
        that membership computed, or (inf, None) off the stabilizing set."""
        rho = stabilizing_radius(closed_loop_static(plant, Kmat))
        if rho is None:
            return math.inf, None
        return hinf_cost(plant, StaticGain(Kmat, True), grid=grid, refine_tol=1e-11).J, rho

    def cost(Kmat):
        return evaluate(Kmat)[0]

    K = K0.K.copy()
    J, rho = evaluate(K)
    if rho is None:
        raise InfeasibleError("hinf_descent_run: start is not stabilizing")
    radius = sample_radius if sample_radius is not None else 1e-4 * (1.0 + np.linalg.norm(K))
    fd_h = max(radius * 1e-2, 1e-12)
    trace = []
    for it in range(max_iter + 1):
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
        trace.append(IterTrace(iter=it, J=J, grad_norm=dnorm, step=0.0, rho=rho))
        if it == max_iter:
            break
        if dnorm > tol:
            V = -direction
            found = []

            def lower(e):
                Kc = K + e * V
                found[:] = [Kc, *evaluate(Kc)]
                return found[1] < J

            eta, accepted = backtrack(
                lower, initial_eta(plant, StaticGain(K, True), V, CertificateStep()))
            if accepted:
                trace[-1] = IterTrace(iter=it, J=J, grad_norm=dnorm, step=eta, rho=rho)
                K, J, rho = found
                continue
        # stationary at the sampling scale, or a non-smooth kink there:
        # shrink the radius and retry
        if radius <= radius_min:
            break
        radius = max(radius * 0.1, radius_min)
        fd_h = max(radius * 1e-2, 1e-14)
    return StaticGain(K, True), trace
