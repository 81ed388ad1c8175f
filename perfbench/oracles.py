"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports polgeo: costs come from SciPy's Riccati and Lyapunov
solvers, stability from ``np.linalg.eigvals``, and peak gains from a dense,
vectorized frequency sweep with SVDs plus bounded scalar refinement. Every
function returns plain floats or arrays; the workloads compare them with
polgeo's results. Time spent here is never part of a benchmark metric.
"""

import math

import numpy as np
import scipy.linalg as sla
from scipy.optimize import minimize_scalar

# Cells whose spectral radius lies this close to 1 are not checked: both
# answers are legitimate there.
BOUNDARY_BAND = 1e-9


def rho(M):
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def lqr_cost(A, B, Q, R, Sigma, K):
    """J(K) = 1/2 tr(P Sigma), P = L(A_cl^T, Q + K^T R K); inf if unstable."""
    Acl = A + B @ K
    if rho(Acl) >= 1.0:
        return math.inf
    P = sla.solve_discrete_lyapunov(Acl.T, Q + K.T @ R @ K)
    return 0.5 * float(np.trace(P @ Sigma))


def lqr_optimum(A, B, Q, R, Sigma):
    """(J*, K*) from the discrete algebraic Riccati equation."""
    P = sla.solve_discrete_are(A, B, Q, R)
    K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    return 0.5 * float(np.trace(P @ Sigma)), K


def lqr_euclidean_grad(A, B, Q, R, Sigma, K):
    """grad J(K) = (R K + B^T P A_cl) Y with Y = L(A_cl, Sigma)."""
    Acl = A + B @ K
    P = sla.solve_discrete_lyapunov(Acl.T, Q + K.T @ R @ K)
    Y = sla.solve_discrete_lyapunov(Acl, Sigma)
    return (R @ K + B.T @ P @ Acl) @ Y


def dynamic_closed_loop(A, B, C, A_K, B_K, C_K):
    return np.block([[A, B @ C_K], [B_K @ C, A_K]])


def lqg_cost(A, B, C, W, V, Q, R, A_K, B_K, C_K):
    """tr(diag(Q, C_K^T R C_K) X), X = L(A_cl, diag(W, B_K V B_K^T)); inf if unstable."""
    Acl = dynamic_closed_loop(A, B, C, A_K, B_K, C_K)
    if rho(Acl) >= 1.0:
        return math.inf
    noise = sla.block_diag(W, B_K @ V @ B_K.T)
    weight = sla.block_diag(Q, C_K.T @ R @ C_K)
    X = sla.solve_discrete_lyapunov(Acl, noise)
    return float(np.trace(weight @ X))


def km_gradient_residual(A, B, C, W, V, Q, R, A_K, B_K, C_K, grad, weights, h=1e-5):
    """Relative residual of a claimed KM-metric gradient ``grad`` = (gA, gB, gC).

    Its defining property is <grad, E_i>_KM = dJ/dE_i for every coordinate
    tangent E_i. The KM inner product is built here from closed-loop Gramians
    solved by SciPy (w1 tr(Wo E(V1) Wc E(V2)^T) + w2 tr(F(V1)^T Wo F(V2))
    + w3 tr(G(V1) Wc G(V2)^T)), and dJ/dE_i by central differences of
    ``lqg_cost``. Returns max_i |<grad, E_i>_KM - dJ/dE_i| / max_i |dJ/dE_i|.
    """
    n, q, p, m = A.shape[0], A_K.shape[0], C.shape[0], B.shape[1]
    Acl = dynamic_closed_loop(A, B, C, A_K, B_K, C_K)
    Bcl = sla.block_diag(np.eye(n), B_K)
    Ccl = sla.block_diag(C, C_K)
    Wc = sla.solve_discrete_lyapunov(Acl, Bcl @ Bcl.T)
    Wo = sla.solve_discrete_lyapunov(Acl.T, Ccl.T @ Ccl)
    w1, w2, w3 = weights

    def blocks(dA, dB, dC):
        E = np.zeros((n + q, n + q))
        E[:n, n:] = B @ dC
        E[n:, :n] = dB @ C
        E[n:, n:] = dA
        return E, sla.block_diag(np.zeros((n, n)), dB), sla.block_diag(np.zeros((p, n)), dC)

    E_g, F_g, G_g = blocks(*grad)
    sizes = (q * q, q * p, m * q)
    policy = np.concatenate([A_K.ravel(), B_K.ravel(), C_K.ravel()])

    def split(x):
        a, b = sizes[0], sizes[0] + sizes[1]
        return x[:a].reshape(q, q), x[a:b].reshape(q, p), x[b:].reshape(m, q)

    km, fd = [], []
    for i in range(policy.size):
        unit = np.zeros(policy.size)
        unit[i] = 1.0
        E, F, G = blocks(*split(unit))
        km.append(w1 * np.trace(Wo @ E_g @ Wc @ E.T) + w2 * np.trace(F_g.T @ Wo @ F)
                  + w3 * np.trace(G_g @ Wc @ G.T))
        step = h * max(1.0, abs(policy[i]))
        up = lqg_cost(A, B, C, W, V, Q, R, *split(policy + step * unit))
        down = lqg_cost(A, B, C, W, V, Q, R, *split(policy - step * unit))
        fd.append((up - down) / (2.0 * step))
    km, fd = np.array(km), np.array(fd)
    return float(np.max(np.abs(km - fd)) / max(np.max(np.abs(fd)), 1e-300))


def scalar_dynamic_radii(a, points):
    """Spectral radii of [[a, c_k], [b_k, a_k]] for the plant A=a, B=C=1,
    one per row (a_k, b_k, c_k) of ``points``."""
    points = np.asarray(points, dtype=float)
    M = np.empty((len(points), 2, 2))
    M[:, 0, 0] = a
    M[:, 0, 1] = points[:, 2]
    M[:, 1, 0] = points[:, 1]
    M[:, 1, 1] = points[:, 0]
    return np.max(np.abs(np.linalg.eigvals(M)), axis=1)


def membership_mismatches(radii, decisions):
    """Cells, away from the boundary band, where a decision contradicts rho < 1."""
    radii = np.asarray(radii)
    decisions = np.asarray(decisions, dtype=bool)
    decided = np.abs(radii - 1.0) > BOUNDARY_BAND
    return int(np.sum(decided & (decisions != (radii < 1.0))))


def hinf_peak(A, B, Q, R, K, grid=8192):
    """sup_w sigma_max(M^(1/2) (e^{jw} I - A_cl)^{-1})^2 with M = Q + K^T R K.

    Dense sweep over [0, pi] with batched solves and SVDs, then bounded
    scalar refinement around the three largest local maxima.
    """
    Acl = A + B @ K
    n = Acl.shape[0]
    M = Q + K.T @ R @ K
    w, U = np.linalg.eigh(0.5 * (M + M.T))
    half = (U * np.sqrt(np.clip(w, 0.0, None))) @ U.T

    def gains(omegas):
        z = np.exp(1j * np.asarray(omegas, dtype=float))
        shifted = z[:, None, None] * np.eye(n) - Acl[None, :, :]
        resolvents = np.linalg.solve(shifted, np.broadcast_to(np.eye(n), shifted.shape))
        s = np.linalg.svd(half[None, :, :] @ resolvents, compute_uv=False)
        return s[:, 0] ** 2

    omegas = np.linspace(0.0, math.pi, grid)
    values = gains(omegas)
    best = float(np.max(values))
    step = math.pi / (grid - 1)
    interior = [i for i in range(grid)
                if values[i] >= values[max(i - 1, 0)] and values[i] >= values[min(i + 1, grid - 1)]]
    for i in sorted(interior, key=lambda i: -values[i])[:3]:
        lo, hi = max(0.0, omegas[i] - step), min(math.pi, omegas[i] + step)
        res = minimize_scalar(lambda om: -float(gains([om])[0]), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-13})
        best = max(best, -float(res.fun))
    return best
