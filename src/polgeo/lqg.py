"""Dynamic-output-feedback LQG: closed-loop assembly, cost and gradient,
similarity transforms, minimality, the saddle construction, the
similarity-invariant KM metric and its Riemannian gradient, and the
Euclidean / Riemannian descent drivers.

Conventions: the closed loop is
    [x; xi]+ = [[A, B C_K], [B_K C, A_K]] [x; xi] + diag(I, B_K) [w; v]
    [y; u]   = diag(C, C_K) [x; xi] + [v; 0]
X = L(A_cl, diag(W, B_K V B_K^T)) and Y = L(A_cl^T, diag(Q, C_K^T R C_K));
J = tr(diag(Q, C_K^T R C_K) X) = tr(diag(W, B_K V B_K^T) Y).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    GramianSingularError,
    InfeasibleError,
    InternalInvariantError,
    MinimalityLostError,
    SingularMatrixError,
)
from .lqr import decrease, descend
from .lyapunov import dlyap
from .numerics import matrix_rank, solve_linear, spectral_radius, sym_lambda_min
from .policy_core import (
    DynamicPolicy,
    closed_loop_matrix_dynamic,
    is_stabilizing_dynamic,
    stabilizing_radius,
)


@dataclass(frozen=True)
class ClosedLoop:
    Acl: np.ndarray
    Bcl: np.ndarray
    Ccl: np.ndarray


@dataclass(frozen=True)
class LqgEval:
    J: float
    X: np.ndarray
    Y: np.ndarray


def _blockdiag(M1, M2):
    r1, c1 = M1.shape
    r2, c2 = M2.shape
    out = np.zeros((r1 + r2, c1 + c2))
    out[:r1, :c1] = M1
    out[r1:, c1:] = M2
    return out


def closed_loop(plant, Kd):
    Acl = closed_loop_matrix_dynamic(plant, Kd)
    Bcl = _blockdiag(np.eye(plant.n), Kd.B_K)
    Ccl = _blockdiag(plant.C, Kd.C_K)
    return ClosedLoop(Acl=Acl, Bcl=Bcl, Ccl=Ccl)


def lqg_eval(plant, Kd):
    """LQG cost via both Lyapunov solves, cross-checked."""
    if not is_stabilizing_dynamic(plant, Kd):
        raise InfeasibleError("lqg_eval: policy is not stabilizing")
    cl = closed_loop(plant, Kd)
    noise = _blockdiag(plant.W, Kd.B_K @ plant.V @ Kd.B_K.T)
    weight = _blockdiag(plant.Q, Kd.C_K.T @ plant.R @ Kd.C_K)
    sol = dlyap(cl.Acl, noise, weight)
    X, Y = sol.P, sol.Pt
    J = float(np.trace(weight @ X))
    J_dual = float(np.trace(noise @ Y))
    if abs(J - J_dual) > 1e-9 * (1.0 + abs(J)):
        raise InternalInvariantError("lqg_eval: dual cost expressions disagree")
    return LqgEval(J=J, X=X, Y=Y)


def lqg_grad(plant, Kd, ev=None):
    """Closed-form partials (dA_K, dB_K, dC_K) from the 2x2 blocks of X, Y."""
    ev = ev if ev is not None else lqg_eval(plant, Kd)
    n = plant.n
    A, B, C, R, V = plant.A, plant.B, plant.C, plant.R, plant.V
    A_K, B_K, C_K = Kd.A_K, Kd.B_K, Kd.C_K
    X11, X12, X22 = ev.X[:n, :n], ev.X[:n, n:], ev.X[n:, n:]
    Y11, Y12, Y22 = ev.Y[:n, :n], ev.Y[:n, n:], ev.Y[n:, n:]
    dA = 2.0 * (Y12.T @ (A @ X12 + B @ C_K @ X22) + Y22 @ A_K @ X22
                + Y22 @ B_K @ C @ X12)
    dB = 2.0 * (Y12.T @ (A @ X11 + B @ C_K @ X12.T) @ C.T
                + Y22 @ A_K @ X12.T @ C.T + Y22 @ B_K @ (C @ X11 @ C.T + V))
    dC = 2.0 * (B.T @ Y12 @ (A_K @ X22 + B_K @ C @ X12) + B.T @ Y11 @ A @ X12
                + (B.T @ Y11 @ B + R) @ C_K @ X22)
    return dA, dB, dC


def similarity_transform(Kd, T):
    """Coordinate change (T A_K T^-1, T B_K, C_K T^-1)."""
    T = np.asarray(T, dtype=float)
    try:
        Tinv = solve_linear(T, np.eye(T.shape[0]))
    except SingularMatrixError as exc:
        raise ContractError("similarity_transform: T is singular") from exc
    return DynamicPolicy(A_K=T @ Kd.A_K @ Tinv, B_K=T @ Kd.B_K, C_K=Kd.C_K @ Tinv)


def transform_tangent(V, T):
    """Apply the similarity differential to a tangent triple (dA, dB, dC)."""
    T = np.asarray(T, dtype=float)
    Tinv = solve_linear(T, np.eye(T.shape[0]))
    dA, dB, dC = V
    return (T @ dA @ Tinv, T @ dB, dC @ Tinv)


def is_minimal(Kd, rtol=1e-8):
    """Controllability and observability rank tests at threshold rtol*sigma_max."""
    q = Kd.order
    ctrb = np.hstack([np.linalg.matrix_power(Kd.A_K, i) @ Kd.B_K for i in range(q)])
    obsv = np.vstack([Kd.C_K @ np.linalg.matrix_power(Kd.A_K, i) for i in range(q)])
    return matrix_rank(ctrb, rtol) == q and matrix_rank(obsv, rtol) == q


def saddle_policy(plant, Lambda):
    """The zero policy (Lambda, 0, 0): a stationary point when the plant is
    open-loop stable."""
    Lambda = np.asarray(Lambda, dtype=float)
    if spectral_radius(Lambda) >= 1.0:
        raise ContractError("saddle_policy: Lambda must be Schur stable")
    if spectral_radius(plant.A) >= 1.0:
        raise ContractError("saddle_policy: plant must be open-loop stable")
    q = Lambda.shape[0]
    return DynamicPolicy(A_K=Lambda, B_K=np.zeros((q, plant.p)),
                         C_K=np.zeros((plant.m, q)))


def gramians(plant, Kd):
    """Closed-loop controllability/observability Gramians; both must be SPD,
    which holds exactly when the policy is minimal."""
    if not is_stabilizing_dynamic(plant, Kd):
        raise InfeasibleError("gramians: policy is not stabilizing")
    cl = closed_loop(plant, Kd)
    sol = dlyap(cl.Acl, cl.Bcl @ cl.Bcl.T, cl.Ccl.T @ cl.Ccl)
    Wc, Wo = sol.P, sol.Pt
    floor = 1e-12 * (1.0 + np.linalg.norm(Wc) + np.linalg.norm(Wo))
    if sym_lambda_min(Wc) <= floor or sym_lambda_min(Wo) <= floor:
        raise GramianSingularError("gramians: Gramian not positive definite "
                                   "(policy not minimal?)")
    return Wc, Wo


def _embed_E(plant, V):
    dA, dB, dC = V
    n, q = plant.n, dA.shape[0]
    out = np.zeros((n + q, n + q))
    out[:n, n:] = plant.B @ dC
    out[n:, :n] = dB @ plant.C
    out[n:, n:] = dA
    return out


def _embed_F(plant, V):
    dB = V[1]
    return _blockdiag(np.zeros((plant.n, plant.n)), dB)


def _embed_G(plant, V):
    dC = V[2]
    return _blockdiag(np.zeros((plant.p, plant.n)), dC)


def km_inner(plant, Kd, V1, V2, weights=(1.0, 1.0, 1.0), grams=None):
    """Similarity-invariant (KM) inner product of tangent triples.

    w1 tr(Wo E(V1) Wc E(V2)^T) + w2 tr(F(V1)^T Wo F(V2))
    + w3 tr(G(V1) Wc G(V2)^T), where E/F/G embed the tangent into the
    closed-loop differential blocks. Requires w1 > 0, w2, w3 >= 0.
    """
    w1, w2, w3 = weights
    if not (w1 > 0.0 and w2 >= 0.0 and w3 >= 0.0):
        raise ContractError("km_inner: weights need w1 > 0, w2, w3 >= 0")
    Wc, Wo = grams if grams is not None else gramians(plant, Kd)
    E1, E2 = _embed_E(plant, V1), _embed_E(plant, V2)
    F1, F2 = _embed_F(plant, V1), _embed_F(plant, V2)
    G1, G2 = _embed_G(plant, V1), _embed_G(plant, V2)
    total = w1 * float(np.trace(Wo @ E1 @ Wc @ E2.T))
    if w2 != 0.0:
        total += w2 * float(np.trace(F1.T @ Wo @ F2))
    if w3 != 0.0:
        total += w3 * float(np.trace(G1 @ Wc @ G2.T))
    return total


def _tangent_basis(q, p, m):
    basis = []
    for i in range(q):
        for j in range(q):
            dA = np.zeros((q, q)); dA[i, j] = 1.0
            basis.append((dA, np.zeros((q, p)), np.zeros((m, q))))
    for i in range(q):
        for j in range(p):
            dB = np.zeros((q, p)); dB[i, j] = 1.0
            basis.append((np.zeros((q, q)), dB, np.zeros((m, q))))
    for i in range(m):
        for j in range(q):
            dC = np.zeros((m, q)); dC[i, j] = 1.0
            basis.append((np.zeros((q, q)), np.zeros((q, p)), dC))
    return basis


def km_grad(plant, Kd, weights=(1.0, 1.0, 1.0), ev=None):
    """Riemannian gradient under the KM metric via the Gram system over the
    canonical tangent basis; defining property
    km_inner(km_grad, W) = <euclidean grad, W>_F for all tangents W."""
    grams = gramians(plant, Kd)
    dA, dB, dC = lqg_grad(plant, Kd, ev)
    q, p, m = Kd.order, plant.p, plant.m
    basis = _tangent_basis(q, p, m)
    dim = len(basis)
    G = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            G[i, j] = km_inner(plant, Kd, basis[i], basis[j], weights, grams)
            G[j, i] = G[i, j]
    b = np.concatenate([dA.reshape(-1), dB.reshape(-1), dC.reshape(-1)])
    try:
        c = solve_linear(G, b)
    except SingularMatrixError as exc:
        raise MinimalityLostError("km_grad: KM Gram system singular") from exc
    gA = c[: q * q].reshape(q, q)
    gB = c[q * q: q * q + q * p].reshape(q, p)
    gC = c[q * q + q * p:].reshape(m, q)
    return gA, gB, gC


def _policy_add(Kd, V, scale):
    dA, dB, dC = V
    return DynamicPolicy(A_K=Kd.A_K + scale * dA, B_K=Kd.B_K + scale * dB,
                         C_K=Kd.C_K + scale * dC)


def lqg_gd_run(plant, Kd0, mode="euclidean", weights=(1.0, 1.0, 1.0),
               alpha=0.5, tol=1e-8, max_iter=1000):
    """Gradient descent over dynamic policies.

    mode 'euclidean' uses the raw partials; 'km_riemannian' uses the KM
    gradient (full order, minimal policies). No closed-form certificate
    exists for dynamic policies, so each step is verify-then-backtrack.
    The returned final policy carries an is_minimal flag so the caller can
    invoke the global-optimality characterization.
    """
    if plant.n != Kd0.order and mode == "km_riemannian":
        raise ContractError("lqg_gd_run: KM mode requires a full-order policy")

    def direction(Kd, ev, it):
        if mode == "km_riemannian":
            g = km_grad(plant, Kd, weights, ev)
        else:
            g = lqg_grad(plant, Kd, ev)
        return tuple(-x for x in g), float(np.sqrt(sum(np.sum(x * x) for x in g)))

    Kd, trace = descend(
        "lqg_gd_run", Kd0,
        evaluate=lambda Kd: lqg_eval(plant, Kd),
        membership=lambda Kd: stabilizing_radius(closed_loop_matrix_dynamic(plant, Kd)),
        direction=direction,
        initial_step=lambda Kd, V: alpha,
        move=_policy_add,
        accept=decrease,
        tol=tol, max_iter=max_iter)
    return Kd, trace, is_minimal(Kd)
