"""Dynamic-output-feedback LQG: cost and gradient, closed-loop Gramians,
similarity transforms, minimality, the saddle construction, the
similarity-invariant KM metric and its Riemannian gradient, and the
Euclidean / Riemannian descent drivers.

Conventions: the closed loop is
    [x; xi]+ = [[A, B C_K], [B_K C, A_K]] [x; xi] + diag(I, B_K) [w; v]
    [y; u]   = diag(C, C_K) [x; xi] + [v; 0]
X = L(A_cl, diag(W, B_K V B_K^T)) and Y = L(A_cl^T, diag(Q, C_K^T R C_K));
J = tr(diag(Q, C_K^T R C_K) X) = tr(diag(W, B_K V B_K^T) Y). A step along a
tangent (dA, dB, dC) moves A_cl by E(V) = diag(B, I_q) [[0, dC], [dB C, dA]].

The evaluations here do not decide stability: callers gate on the
membership test in policy_core, and for a closed loop that is not Schur
stable dlyap raises NotSchurStableError, an InfeasibleError.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    GramianSingularError,
    InternalInvariantError,
    MinimalityLostError,
    SingularMatrixError,
)
from .lqr import decrease, descend
from .lyapunov import dlyap
from .numerics import matrix_rank, solve_linear, spectral_norm, sym_lambda_max, sym_lambda_min
from .policy_core import (
    DynamicPolicy,
    closed_loop_matrix_dynamic,
    lyapunov_step_bound,
    stabilizing_radius,
)


@dataclass(frozen=True)
class LqgEval:
    """The cost, both Gramian-type solutions X and Y and the closed loop
    A_cl; Z = L(A_cl^T, I), which bounds the step (certified_step), when
    lqg_eval was asked for it."""

    J: float
    X: np.ndarray
    Y: np.ndarray
    A_cl: np.ndarray
    Z: np.ndarray | None = None


def _blockdiag(M1, M2):
    r1, c1 = M1.shape
    r2, c2 = M2.shape
    out = np.zeros((r1 + r2, c1 + c2))
    out[:r1, :c1] = M1
    out[r1:, c1:] = M2
    return out


def lqg_eval(plant, Kd, with_Z=False):
    """LQG cost via both Lyapunov solves, cross-checked. with_Z also solves
    Z = L(A_cl^T, I), as a third right-hand side of the same doubling; X, Y
    and J are the same either way."""
    Acl = closed_loop_matrix_dynamic(plant, Kd)
    noise = _blockdiag(plant.W, Kd.B_K @ plant.V @ Kd.B_K.T)
    weight = _blockdiag(plant.Q, Kd.C_K.T @ plant.R @ Kd.C_K)
    sol = dlyap(Acl, noise, np.stack([weight, np.eye(len(Acl))]) if with_Z else weight)
    X, (Y, Z) = sol.P, sol.Pt if with_Z else (sol.Pt, None)
    J = float(np.trace(weight @ X))
    J_dual = float(np.trace(noise @ Y))
    if abs(J - J_dual) > 1e-9 * (1.0 + abs(J)):
        raise InternalInvariantError("lqg_eval: dual cost expressions disagree")
    return LqgEval(J=J, X=X, Y=Y, A_cl=Acl, Z=Z)


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


def _similarity(T, name):
    """T as a float array and its inverse; a singular T is a ContractError."""
    T = np.asarray(T, dtype=float)
    try:
        return T, solve_linear(T, np.eye(T.shape[0]))
    except SingularMatrixError as exc:
        raise ContractError(f"{name}: T is singular") from exc


def similarity_transform(Kd, T):
    """Coordinate change (T A_K T^-1, T B_K, C_K T^-1)."""
    T, Tinv = _similarity(T, "similarity_transform")
    return DynamicPolicy(A_K=T @ Kd.A_K @ Tinv, B_K=T @ Kd.B_K, C_K=Kd.C_K @ Tinv)


def transform_tangent(V, T):
    """Apply the similarity differential to a tangent triple (dA, dB, dC)."""
    T, Tinv = _similarity(T, "transform_tangent")
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
    if stabilizing_radius(Lambda) is None:
        raise ContractError("saddle_policy: Lambda must be Schur stable")
    if stabilizing_radius(plant.A) is None:
        raise ContractError("saddle_policy: plant must be open-loop stable")
    q = Lambda.shape[0]
    return DynamicPolicy(A_K=Lambda, B_K=np.zeros((q, plant.p)),
                         C_K=np.zeros((plant.m, q)))


def gramians(plant, Kd):
    """Closed-loop controllability/observability Gramians; both must be SPD,
    which holds exactly when the policy is minimal."""
    sol = dlyap(closed_loop_matrix_dynamic(plant, Kd),
                _blockdiag(np.eye(plant.n), Kd.B_K @ Kd.B_K.T),
                _blockdiag(plant.C.T @ plant.C, Kd.C_K.T @ Kd.C_K))
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


def certified_step(plant, V, ev, cap):
    """min(cap, s): the policy that ev evaluates, moved by eta V, stays
    stabilizing for every 0 <= eta <= s.

    s is the larger of two bounds along Delta = E(V) from Z = L(A_cl^T, I),
    which ev holds (lqg_eval with with_Z): the certificate-type bound
    1 / (2 lambda_max(Z) ||Delta||_2), and lyapunov_step_bound with N = I, factored as
    Delta = diag(B, I_q) [[0, dC], [dB C, dA]]. Neither dominates the
    other. The cheap parts come first: since lambda_max(Z) <= ||Z||_F
    <= tr Z and ||Delta||_2 <= ||Delta||_F, 1 / (2 ||Z||_F ||Delta||_F)
    is at most the first bound, and once a lower bound on s reaches cap,
    cap is returned without the rest. Returns cap for V = 0.
    """
    E = _embed_E(plant, V)
    fro = np.linalg.norm(E)
    if fro == 0.0 or 2.0 * cap * np.linalg.norm(ev.Z) * fro <= 1.0:
        return cap
    s = 1.0 / (2.0 * sym_lambda_max(ev.Z) * spectral_norm(E))
    if s >= cap:
        return cap
    dA, dB, dC = V
    n, m, q = plant.n, plant.m, dA.shape[0]
    Vf = np.zeros((m + q, n + q))
    Vf[:m, n:] = dC
    Vf[m:, :n] = dB @ plant.C
    Vf[m:, n:] = dA
    s = max(s, lyapunov_step_bound(ev.A_cl, _blockdiag(plant.B, np.eye(q)), Vf, ev.Z,
                                   np.eye(n + q)))
    return min(cap, s)


def _check_weights(weights):
    w1, w2, w3 = weights
    if not (w1 > 0.0 and w2 >= 0.0 and w3 >= 0.0):
        raise ContractError("KM metric: weights need w1 > 0, w2, w3 >= 0")
    return w1, w2, w3


def km_inner(plant, Kd, V1, V2, weights=(1.0, 1.0, 1.0)):
    """Similarity-invariant (KM) inner product of tangent triples.

    w1 tr(Wo E(V1) Wc E(V2)^T) + w2 tr(dB1^T Wo22 dB2) + w3 tr(dC1 Wc22 dC2^T),
    where E embeds the tangent into the closed-loop differential and Wc22,
    Wo22 are the controller blocks of the Gramians. Requires w1 > 0,
    w2, w3 >= 0.
    """
    w1, w2, w3 = _check_weights(weights)
    Wc, Wo = gramians(plant, Kd)
    n = plant.n
    E1, E2 = _embed_E(plant, V1), _embed_E(plant, V2)
    return (w1 * float(np.trace(Wo @ E1 @ Wc @ E2.T))
            + w2 * float(np.trace(V1[1].T @ Wo[n:, n:] @ V2[1]))
            + w3 * float(np.trace(V1[2] @ Wc[n:, n:] @ V2[2].T)))


def _km_gram(plant, q, Wc, Wo, weights):
    """The matrix G with km_inner(V1, V2) = x1^T G x2 over
    x = (vec dA, vec dB, vec dC), row-major. vec E(V) = Phi_E x, whose
    blocks map dA to itself in [n:, n:] (the identity), dB to dB C in
    [n:, :n] (kron(I_q, C^T)) and dC to B dC in [:n, n:] (kron(B, I_q));
    the E term is w1 Phi_E^T (Wo kron Wc) Phi_E, and the dB and dC terms
    are diagonal blocks."""
    w1, w2, w3 = weights
    n, m, p = plant.n, plant.m, plant.p
    a, b = q * q, q * q + q * p
    cells = np.arange((n + q) ** 2).reshape(n + q, n + q)
    Phi = np.zeros(((n + q) ** 2, b + m * q))
    Phi[cells[n:, n:].ravel(), np.arange(a)] = 1.0
    Phi[cells[n:, :n].ravel(), a:b] = np.kron(np.eye(q), plant.C.T)
    Phi[cells[:n, n:].ravel(), b:] = np.kron(plant.B, np.eye(q))
    G = w1 * (Phi.T @ np.kron(Wo, Wc) @ Phi)
    G[a:b, a:b] += w2 * np.kron(Wo[n:, n:], np.eye(p))
    G[b:, b:] += w3 * np.kron(np.eye(m), Wc[n:, n:])
    return G


def km_grad(plant, Kd, weights=(1.0, 1.0, 1.0), ev=None):
    """Riemannian gradient under the KM metric, solved against its Gram
    matrix; defining property
    km_inner(km_grad, W) = <euclidean grad, W>_F for all tangents W."""
    weights = _check_weights(weights)
    Wc, Wo = gramians(plant, Kd)
    g = lqg_grad(plant, Kd, ev)
    q, p = Kd.order, plant.p
    try:
        c = solve_linear(_km_gram(plant, q, Wc, Wo, weights),
                         np.concatenate([x.reshape(-1) for x in g]))
    except SingularMatrixError as exc:
        raise MinimalityLostError("km_grad: KM Gram system singular") from exc
    gA, gB, gC = np.split(c, [q * q, q * q + q * p])
    return gA.reshape(q, q), gB.reshape(q, p), gC.reshape(plant.m, q)


def _policy_add(Kd, V, scale):
    dA, dB, dC = V
    return DynamicPolicy(A_K=Kd.A_K + scale * dA, B_K=Kd.B_K + scale * dB,
                         C_K=Kd.C_K + scale * dC)


def lqg_gd_run(plant, Kd0, mode="euclidean", weights=(1.0, 1.0, 1.0),
               alpha=0.5, tol=1e-8, max_iter=1000):
    """Gradient descent over dynamic policies.

    mode 'euclidean' uses the raw partials, and each line search starts at
    min(alpha, s), s the certified bound of certified_step from the
    iterate's own evaluation, warm-started after the first iteration as in
    descend, with regrow, from the slope <grad J, V> = -||grad J||^2 and the
    last decrease of J. 'km_riemannian' uses the KM gradient (full order,
    minimal policies) and tries alpha first: ||E(V)|| is not
    similarity-invariant, so neither is that bound.
    Either way each candidate is verified (membership, then a strict
    decrease of J) and halved until one passes. The returned final policy
    carries an is_minimal flag so the caller can invoke the
    global-optimality characterization.
    """
    km = mode == "km_riemannian"
    if plant.n != Kd0.order and km:
        raise ContractError("lqg_gd_run: KM mode requires a full-order policy")

    def direction(Kd, ev, it):
        if km:
            g = km_grad(plant, Kd, weights, ev)
        else:
            g = lqg_grad(plant, Kd, ev)
        return tuple(-x for x in g), float(np.sqrt(sum(np.sum(x * x) for x in g)))

    Kd, trace = descend(
        "lqg_gd_run", Kd0,
        evaluate=lambda Kd: lqg_eval(plant, Kd, with_Z=not km),
        membership=lambda Kd: stabilizing_radius(closed_loop_matrix_dynamic(plant, Kd)),
        direction=direction,
        initial_step=(lambda Kd, V, ev: alpha) if km else (
            lambda Kd, V, ev: certified_step(plant, V, ev, alpha)),
        move=_policy_add,
        accept=decrease,
        tol=tol, max_iter=max_iter,
        # V = -grad J in Euclidean mode
        slope=None if km else lambda Kd, ev, V: -sum(float(np.sum(x * x)) for x in V),
        regrow=True)
    return Kd, trace, is_minimal(Kd)
