"""LQR cost, gradients, Hessian-vector products, the DARE oracle, Hewer's
quasi-Newton iteration, and certified gradient-descent drivers.

Cost: J(K) = 1/2 tr(P_K Sigma) = 1/2 tr((Q + K^T R K) Y_K) with
P_K = L(A_cl^T, Q + K^T R K) and Y_K = L(A_cl, Sigma).
"""

import json
from dataclasses import dataclass, asdict

import numpy as np

from .errors import InfeasibleError, InternalInvariantError, StalledError
from .lyapunov import dlyap, dlyap_diff
from .numerics import solve_linear, spectral_norm
from .policy_core import (
    StaticGain,
    closed_loop_static,
    lyapunov_step_bound,
    stability_certificate,
    stabilizing_radius,
)

MAX_BACKTRACKS = 30


def backtrack(accept, eta0):
    """Halve eta from eta0 until accept(eta) holds, trying at most
    MAX_BACKTRACKS halvings. The package's only halving loop. Returns
    (eta, accepted)."""
    eta = eta0
    for _ in range(MAX_BACKTRACKS + 1):
        if accept(eta):
            return eta, True
        eta *= 0.5
    return eta, False


ROUND_OFF = "round_off"


def decrease(candidate, membership, evaluate, J_ref, eta0):
    """Acceptance test for smooth costs.

    A candidate is accepted when it passes membership, evaluates without
    InfeasibleError, and strictly decreases J. Returns (eta, candidate, its
    spectral radius, its evaluation). When 30 halvings find no strict
    decrease but some candidate came within round-off slack of J_ref (the
    decrement fell below J's round-off near a minimizer), returns ROUND_OFF:
    the iterate cannot be improved at this precision. Otherwise None.
    """
    slack = 1e-14 * (1.0 + abs(J_ref))
    found, within_slack = [], []

    def ok(eta):
        x = candidate(eta)
        rho = membership(x)
        if rho is None:
            return False
        try:
            ev = evaluate(x)
        except InfeasibleError:
            return False
        found[:] = [x, rho, ev]
        if ev.J <= J_ref + slack:
            within_slack.append(eta)
        return ev.J < J_ref

    eta, accepted = backtrack(ok, eta0)
    if accepted:
        return (eta, *found)
    return ROUND_OFF if within_slack else None


def feasible_only(candidate, membership, evaluate, J_ref, eta0):
    """Acceptance test that evaluates no cost: the first candidate that
    passes membership. Returns (eta, candidate, its spectral radius, None)
    or None."""
    found = []

    def ok(eta):
        x = candidate(eta)
        rho = membership(x)
        found[:] = [x, rho]
        return rho is not None

    eta, accepted = backtrack(ok, eta0)
    return (eta, *found, None) if accepted else None


@dataclass(frozen=True)
class LqrEval:
    J: float
    P_K: np.ndarray
    Y_K: np.ndarray
    A_cl: np.ndarray


@dataclass(frozen=True)
class IterTrace:
    iter: int
    J: float
    grad_norm: float
    step: float
    rho: float


def write_trace_jsonl(path, trace):
    with open(path, "w") as fh:
        for rec in trace:
            fh.write(json.dumps(asdict(rec)) + "\n")


def _require_certified(K):
    if not K.certified:
        raise InfeasibleError("operation requires a certified stabilizing gain")


def lqr_eval(plant, K):
    """Both Lyapunov solves; the two cost forms agree by the trace identity."""
    _require_certified(K)
    Acl = closed_loop_static(plant, K.K)
    mid = plant.Q + K.K.T @ plant.R @ K.K
    sol = dlyap(Acl, plant.Sigma, mid)
    Y, P = sol.P, sol.Pt
    J = 0.5 * float(np.trace(P @ plant.Sigma))
    J_dual = 0.5 * float(np.trace(mid @ Y))
    if abs(J - J_dual) > 1e-9 * (1.0 + abs(J)):
        raise InternalInvariantError("lqr_eval: dual cost expressions disagree")
    return LqrEval(J=J, P_K=P, Y_K=Y, A_cl=Acl)


def lqr_grad_riemannian(plant, K, ev=None):
    """grad J(K) = R K + B^T P_K A_cl (gradient in the Lyapunov metric)."""
    ev = ev if ev is not None else lqr_eval(plant, K)
    return plant.R @ K.K + plant.B.T @ ev.P_K @ ev.A_cl


def lqr_grad_euclidean(plant, K, ev=None):
    ev = ev if ev is not None else lqr_eval(plant, K)
    return lqr_grad_riemannian(plant, K, ev) @ ev.Y_K


def s_map(plant, K, V, ev=None):
    """S_K(V) = L(A_cl^T, V^T grad + grad^T V): the derivative of K -> P_K along V."""
    ev = ev if ev is not None else lqr_eval(plant, K)
    g = lqr_grad_riemannian(plant, K, ev)
    V = np.asarray(V, dtype=float)
    return dlyap(ev.A_cl.T, V.T @ g + g.T @ V).P


def lqr_hvp_pseudo(plant, K, V, ev=None):
    """Pseudo-Euclidean Hessian-vector product:
    (R + B^T P_K B) V + B^T S_K(V) A_cl, the derivative of K -> grad J(K)."""
    ev = ev if ev is not None else lqr_eval(plant, K)
    V = np.asarray(V, dtype=float)
    S = s_map(plant, K, V, ev)
    return (plant.R + plant.B.T @ ev.P_K @ plant.B) @ V + plant.B.T @ S @ ev.A_cl


def lqr_hvp_euclidean(plant, K, V, ev=None):
    """Full chain-rule derivative of the Euclidean gradient grad*Y_K along V."""
    ev = ev if ev is not None else lqr_eval(plant, K)
    V = np.asarray(V, dtype=float)
    g = lqr_grad_riemannian(plant, K, ev)
    dY = dlyap_diff(ev.A_cl, plant.Sigma, plant.B @ V, np.zeros((plant.n, plant.n)))
    return lqr_hvp_pseudo(plant, K, V, ev) @ ev.Y_K + g @ dY


def dare_solve(plant):
    """Stabilizing solution P* of the discrete algebraic Riccati equation
    (SciPy's solve_discrete_are) and the optimal gain K*, certified;
    InfeasibleError when there is none, e.g. for an unstabilizable (A, B)."""
    # imported here, its only use: SciPy dominates the package's import time
    from scipy.linalg import solve_discrete_are

    A, B, Q, R = plant.A, plant.B, plant.Q, plant.R
    try:
        P = solve_discrete_are(A, B, Q, R)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise InfeasibleError(f"dare_solve: no stabilizing solution ({exc})") from exc
    BtP = B.T @ P
    Kstar = -solve_linear(R + BtP @ B, BtP @ A)
    return P, StaticGain.certify(plant, Kstar)


def hewer_step(plant, K, ev=None):
    """K+ = -(R + B^T P_K B)^-1 B^T P_K A; unit step certified by re-verification."""
    ev = ev if ev is not None else lqr_eval(plant, K)
    BtP = plant.B.T @ ev.P_K
    Knew = -solve_linear(plant.R + BtP @ plant.B, BtP @ plant.A)
    return StaticGain.certify(plant, Knew)


@dataclass(frozen=True)
class FixedStep:
    eta: float | None = None


@dataclass(frozen=True)
class CertificateStep:
    """First step min(cap, s), with s the certified bound of certified_step:
    K + eta V stays stabilizing for every 0 <= eta <= s."""

    cap: float = 1.0


def _descent_direction(plant, K, ev, direction):
    g = lqr_grad_riemannian(plant, K, ev)
    if direction == "riemannian":
        return -g, float(np.linalg.norm(g))
    if direction == "euclidean":
        ge = g @ ev.Y_K
        return -ge, float(np.linalg.norm(ge))
    if direction == "pseudo_newton":
        # Hewer's quasi-Newton operator (R + B^T P_K B), positive definite.
        V = -solve_linear(plant.R + plant.B.T @ ev.P_K @ plant.B, g)
        return V, float(np.linalg.norm(g))
    raise ValueError(f"unknown direction {direction!r}")


def certified_step(plant, K, V, ev=None):
    """A step bound s with K + eta V stabilizing for every 0 <= eta <= s.

    Given K's evaluation ev, no Lyapunov equation is solved: both Lyapunov
    functions of the closed loop that ev holds bound the step, and the
    larger bound is returned. P_K certifies A_cl + eta BV with
    N = Q + K^T R K, when N is positive definite (Q singular can make it
    singular or nearly so); Y_K certifies its transpose with N = Sigma,
    always positive definite. Without ev, the certificate s_K(V)."""
    if ev is None:
        return stability_certificate(plant, K, V)
    s = lyapunov_step_bound(ev.A_cl.T, V.T, plant.B.T, ev.Y_K, plant.Sigma)
    try:
        return max(s, lyapunov_step_bound(ev.A_cl, plant.B, V, ev.P_K,
                                          plant.Q + K.K.T @ plant.R @ K.K))
    except np.linalg.LinAlgError:
        return s


def initial_eta(plant, K, V, step_rule, ev=None):
    """The first step a line search tries: min(cap, certified_step) under
    CertificateStep (cap when the bound is +inf, V = 0), the fixed step
    otherwise, 1e-3 / ||R||_2 for FixedStep(None)."""
    if isinstance(step_rule, CertificateStep):
        eta = min(step_rule.cap, certified_step(plant, K, V, ev))
        return eta if np.isfinite(eta) else step_rule.cap
    eta = step_rule.eta
    if eta is None:
        eta = 1e-3 / spectral_norm(plant.R)
    return eta


def descend(name, x0, evaluate, membership, direction, initial_step, move,
            accept, tol, max_iter, slope=None):
    """The certified descent loop that every gradient driver configures.

    membership(x) is the spectral radius of x's closed loop when x passes
    the membership test, else None; evaluate(x) returns an evaluation with
    attribute J and raises InfeasibleError off the feasible set;
    direction(x, ev, it) returns (V, grad_norm); initial_step(x, V, ev)
    bounds the first step tried; move(x, V, eta) is the candidate at step eta;
    accept(candidate, membership, evaluate, J, eta0) is the line search
    (decrease or feasible_only). With slope(x, ev, V) = <grad J(x), V>, the
    first step is warm-started: after the first iteration it is
    min(initial_step(x, V, ev), eta_prev <grad J_prev, V_prev> / <grad J, V>),
    the step whose first-order decrease repeats the last accepted step's
    (Nocedal & Wright, Numerical Optimization, eq. 3.59), so it never
    exceeds initial_step. The accepted candidate's evaluation and spectral
    radius carry over to the next iteration, so no iterate is evaluated or
    eigensolved twice. Raises InfeasibleError when x0 fails membership.

    Stops when grad_norm <= tol, at max_iter, or at round-off (accept
    returns ROUND_OFF: no halving strictly decreases J, but one stays within
    its round-off slack); each stop returns the current iterate, whose last
    trace record has step 0.0. A failed line search raises StalledError
    carrying the trace so far. Returns (x, trace).
    """
    r = membership(x0)
    if r is None:
        raise InfeasibleError(f"{name}: start is not stabilizing")
    x, ev = x0, evaluate(x0)
    trace = []
    last = None  # eta_prev <grad J_prev, V_prev>, when warm-starting
    for it in range(max_iter + 1):
        V, gnorm = direction(x, ev, it)
        stop = gnorm <= tol or it == max_iter
        if not stop:
            eta0 = initial_step(x, V, ev)
            d = None if slope is None else slope(x, ev, V)
            if last is not None and d < 0.0:
                eta0 = min(eta0, last / d)
            step = accept(lambda eta: move(x, V, eta), membership, evaluate, ev.J, eta0)
            stop = step is ROUND_OFF
        if stop or step is None:
            trace.append(IterTrace(iter=it, J=ev.J, grad_norm=gnorm, step=0.0, rho=r))
            if stop:
                break
            raise StalledError(f"{name}: {MAX_BACKTRACKS} failed backtracks", trace)
        eta, x, r_next, accepted_ev = step
        trace.append(IterTrace(iter=it, J=ev.J, grad_norm=gnorm, step=eta, rho=r))
        r = r_next
        ev = accepted_ev if accepted_ev is not None else evaluate(x)
        last = eta * d if d is not None and d < 0.0 else None
    return x, trace


def static_descent(name, plant, K0, direction, step_rule, tol, max_iter):
    """descend over static gains with the LQR cost. A candidate is tagged
    certified when built; the acceptance test checks its membership before
    anything evaluates it, and only accepted candidates become iterates.
    Under CertificateStep the first step is warm-started from the slope
    <grad J, V> = tr((grad_R Y_K)^T V), the Euclidean gradient's inner
    product with V; a FixedStep always tries its fixed step first."""
    def slope(K, ev, V):
        return float(np.sum(lqr_grad_euclidean(plant, K, ev) * V))

    return descend(
        name, K0,
        evaluate=lambda K: lqr_eval(plant, K),
        membership=lambda K: stabilizing_radius(closed_loop_static(plant, K.K)),
        direction=direction,
        initial_step=lambda K, V, ev: initial_eta(plant, K, V, step_rule, ev),
        move=lambda K, V, eta: StaticGain(K.K + eta * V, True),
        accept=decrease,
        tol=tol, max_iter=max_iter,
        slope=slope if isinstance(step_rule, CertificateStep) else None)


def gd_run(plant, K0, direction="euclidean", step_rule=CertificateStep(),
           tol=1e-8, max_iter=1000):
    """Certified descent driver.

    Every iterate is certified stabilizing. The first step tried is
    min(cap, s) under CertificateStep, s the bound of certified_step from
    the iterate's own evaluation (no Lyapunov solve), warm-started after the
    first iteration to min(cap, s, eta_prev <grad J_prev, V_prev> / <grad J, V>)
    (see descend), or the fixed step; it is halved (up to 30 times) until
    the candidate both stays stabilizing and strictly decreases J.
    Terminates when the gradient norm falls below tol, at max_iter, or at
    round-off: when no halving decreases J strictly but one stays within
    1e-14 (1 + |J|) of it, the current iterate is returned.
    """
    _require_certified(K0)
    return static_descent(
        "gd_run", plant, K0,
        lambda K, ev, it: _descent_direction(plant, K, ev, direction),
        step_rule, tol, max_iter)
