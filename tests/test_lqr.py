import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from polgeo import (
    CertificateStep,
    FixedStep,
    InfeasibleError,
    Plant,
    StaticGain,
    StalledError,
    closed_loop_static,
    dare_solve,
    gd_run,
    hewer_step,
    lqr_eval,
    lqr_grad_euclidean,
    lqr_grad_riemannian,
    lqr_hvp_euclidean,
    lqr_hvp_pseudo,
    s_map,
    spectral_radius,
    write_trace_jsonl,
)
from polgeo import lqr
from conftest import (
    certificate_bound,
    fd_grad,
    random_certified_gain,
    random_stabilizable,
    record_certified_searches,
    record_first_steps,
    record_iterates,
)

GOLDEN_K = -0.6180339887498949
GOLDEN_P = 1.6180339887498949


def gain(plant, K):
    return StaticGain.certify(plant, np.asarray(K, dtype=float))


def test_eval_scalar_hand(scalar_plant):
    ev = lqr_eval(scalar_plant, gain(scalar_plant, [[-1.0]]))
    assert abs(ev.J - 1.0) < 1e-12
    assert abs(ev.P_K[0, 0] - 2.0) < 1e-12
    ev2 = lqr_eval(scalar_plant, gain(scalar_plant, [[-0.5]]))
    assert abs(ev2.J - 5.0 / 6.0) < 1e-12
    assert abs(ev2.Y_K[0, 0] - 4.0 / 3.0) < 1e-12


def test_eval_dual_costs_agree(rng):
    for _ in range(20):
        plant = random_stabilizable(rng, 3, 2)
        K = random_certified_gain(rng, plant)
        ev = lqr_eval(plant, K)
        dual = 0.5 * float(np.trace((plant.Q + K.K.T @ plant.R @ K.K) @ ev.Y_K))
        assert abs(ev.J - dual) <= 1e-10 * (1.0 + abs(ev.J))


def test_eval_near_boundary_is_infeasible(scalar_plant):
    # rho(A + BK) = 1 - 1e-9 passes membership, but the Lyapunov solve
    # cannot certify it; the failure must be an InfeasibleError
    K = StaticGain(np.array([[-1e-9]]), True)
    with pytest.raises(InfeasibleError):
        lqr_eval(scalar_plant, K)


def test_eval_requires_certified(scalar_plant):
    with pytest.raises(InfeasibleError):
        lqr_eval(scalar_plant, StaticGain(np.array([[-1.0]]), False))


def test_grad_riemannian_scalar(scalar_plant):
    g = lqr_grad_riemannian(scalar_plant, gain(scalar_plant, [[-1.0]]))
    assert abs(g[0, 0] + 1.0) < 1e-12


def test_grad_euclidean_scalar(scalar_plant):
    g = lqr_grad_euclidean(scalar_plant, gain(scalar_plant, [[-1.0]]))
    assert abs(g[0, 0] + 1.0) < 1e-12


def test_grads_vanish_at_optimum(rng):
    plant = random_stabilizable(rng, 4, 2)
    _, Kstar = dare_solve(plant)
    assert np.max(np.abs(lqr_grad_riemannian(plant, Kstar))) < 1e-8
    assert np.max(np.abs(lqr_grad_euclidean(plant, Kstar))) < 1e-8


def test_grad_euclidean_vs_fd(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        plant = random_stabilizable(rng, n, m)
        K = random_certified_gain(rng, plant)
        g = lqr_grad_euclidean(plant, K)
        h = 1e-6 * (1.0 + np.linalg.norm(K.K))
        gfd = fd_grad(lambda X: lqr_eval(plant, StaticGain(X, True)).J, K.K, h)
        assert np.max(np.abs(g - gfd)) <= 1e-5 * (1.0 + np.max(np.abs(gfd)))


def test_riemannian_euclidean_relation(rng):
    plant = random_stabilizable(rng, 3, 2)
    K = random_certified_gain(rng, plant)
    ev = lqr_eval(plant, K)
    assert np.allclose(lqr_grad_euclidean(plant, K),
                       lqr_grad_riemannian(plant, K) @ ev.Y_K)


def test_s_map_zero_direction(rng):
    plant = random_stabilizable(rng, 3, 2)
    K = random_certified_gain(rng, plant)
    assert np.allclose(s_map(plant, K, np.zeros((2, 3))), 0.0)


def test_s_map_vs_fd_of_P(rng):
    h = 1e-6
    for _ in range(10):
        plant = random_stabilizable(rng, 3, 2)
        K = random_certified_gain(rng, plant)
        V = rng.standard_normal((2, 3))
        Pp = lqr_eval(plant, StaticGain(K.K + h * V, True)).P_K
        Pm = lqr_eval(plant, StaticGain(K.K - h * V, True)).P_K
        fd = (Pp - Pm) / (2.0 * h)
        an = s_map(plant, K, V)
        assert np.max(np.abs(fd - an)) <= 1e-5 * (1.0 + np.max(np.abs(an)))


def test_hvp_pseudo_scalar_hand(scalar_plant):
    out = lqr_hvp_pseudo(scalar_plant, gain(scalar_plant, [[-1.0]]), np.array([[1.0]]))
    assert abs(out[0, 0] - 3.0) < 1e-12


def test_hvp_pseudo_vs_fd(rng):
    h = 1e-6
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        plant = random_stabilizable(rng, n, m)
        K = random_certified_gain(rng, plant)
        V = rng.standard_normal((m, n))
        gp = lqr_grad_riemannian(plant, StaticGain(K.K + h * V, True))
        gm = lqr_grad_riemannian(plant, StaticGain(K.K - h * V, True))
        fd = (gp - gm) / (2.0 * h)
        an = lqr_hvp_pseudo(plant, K, V)
        assert np.max(np.abs(fd - an)) <= 1e-5 * (1.0 + np.max(np.abs(an)))


def test_hvp_euclidean_vs_fd(rng):
    h = 1e-6
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        plant = random_stabilizable(rng, n, m)
        K = random_certified_gain(rng, plant)
        V = rng.standard_normal((m, n))
        gp = lqr_grad_euclidean(plant, StaticGain(K.K + h * V, True))
        gm = lqr_grad_euclidean(plant, StaticGain(K.K - h * V, True))
        fd = (gp - gm) / (2.0 * h)
        an = lqr_hvp_euclidean(plant, K, V)
        assert np.max(np.abs(fd - an)) <= 1e-5 * (1.0 + np.max(np.abs(an)))


def test_hvps_zero_direction(rng):
    plant = random_stabilizable(rng, 2, 2)
    K = random_certified_gain(rng, plant)
    assert np.allclose(lqr_hvp_pseudo(plant, K, np.zeros((2, 2))), 0.0)
    assert np.allclose(lqr_hvp_euclidean(plant, K, np.zeros((2, 2))), 0.0)


def test_hvp_euclidean_at_optimum_reduces(rng):
    plant = random_stabilizable(rng, 3, 2)
    _, Kstar = dare_solve(plant)
    ev = lqr_eval(plant, Kstar)
    V = rng.standard_normal((2, 3))
    full = lqr_hvp_euclidean(plant, Kstar, V)
    reduced = lqr_hvp_pseudo(plant, Kstar, V) @ ev.Y_K
    assert np.max(np.abs(full - reduced)) < 1e-7 * (1.0 + np.max(np.abs(full)))


def test_dare_scalar_golden(scalar_plant):
    P, Kstar = dare_solve(scalar_plant)
    assert abs(P[0, 0] - GOLDEN_P) < 1e-10
    assert abs(Kstar.K[0, 0] - GOLDEN_K) < 1e-10


def test_dare_zero_A():
    plant = Plant.create(A=np.array([[0.0]]), B=np.array([[1.0]]))
    P, Kstar = dare_solve(plant)
    assert abs(P[0, 0] - 1.0) < 1e-12
    assert abs(Kstar.K[0, 0]) < 1e-12


def test_dare_unstabilizable_is_infeasible():
    # the mode at 2 is unstable and B cannot reach it
    plant = Plant.create(A=np.diag([1.0, 2.0]), B=np.array([[1.0], [0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InfeasibleError):
            dare_solve(plant)


def test_dare_unstable_A_zero_Q():
    # Q = 0 still has a stabilizing solution: P = 3, K = -1.5, A + BK = 0.5
    plant = Plant.create(A=np.array([[2.0]]), B=np.array([[1.0]]), Q=np.zeros((1, 1)))
    P, Kstar = dare_solve(plant)
    assert abs(P[0, 0] - 3.0) < 1e-12
    assert abs(Kstar.K[0, 0] + 1.5) < 1e-12


def test_dare_stationarity_random(rng):
    plant = random_stabilizable(rng, 4, 2)
    _, Kstar = dare_solve(plant)
    assert np.max(np.abs(lqr_grad_riemannian(plant, Kstar))) <= 1e-8


def test_hewer_scalar_sequence(scalar_plant):
    K0 = gain(scalar_plant, [[-1.0]])
    K1 = hewer_step(scalar_plant, K0)
    assert abs(K1.K[0, 0] + 2.0 / 3.0) < 1e-12
    K2 = hewer_step(scalar_plant, K1)
    assert abs(K2.K[0, 0] + 13.0 / 21.0) < 1e-12


def test_hewer_fixed_point(rng):
    plant = random_stabilizable(rng, 3, 2)
    _, Kstar = dare_solve(plant)
    assert np.max(np.abs(hewer_step(plant, Kstar).K - Kstar.K)) < 1e-10


def test_gd_terminates_at_optimum(scalar_plant):
    _, Kstar = dare_solve(scalar_plant)
    K, trace = gd_run(scalar_plant, Kstar, tol=1e-7)
    assert trace[-1].iter == 0
    assert np.array_equal(K.K, Kstar.K)


def test_gd_scalar_benchmark(scalar_plant):
    K0 = gain(scalar_plant, [[-1.0]])
    K, trace = gd_run(scalar_plant, K0, direction="euclidean",
                      step_rule=CertificateStep(), tol=1e-9, max_iter=500)
    assert abs(K.K[0, 0] - GOLDEN_K) < 1e-6
    assert trace[-1].iter <= 500


def test_gd_pseudo_newton_is_hewer(scalar_plant):
    K0 = gain(scalar_plant, [[-1.0]])
    K, trace = gd_run(scalar_plant, K0, direction="pseudo_newton",
                      tol=1e-12, max_iter=20)
    # full steps accepted: iterates retrace the Hewer sequence
    ks = [rec.J for rec in trace]
    K1 = hewer_step(scalar_plant, K0)
    K2 = hewer_step(scalar_plant, K1)
    evs = [lqr_eval(scalar_plant, x).J for x in (K0, K1, K2)]
    assert np.allclose(ks[:3], evs, atol=1e-10)


def test_gd_monotone_and_certified(rng):
    plant = random_stabilizable(rng, 3, 2)
    K0 = random_certified_gain(rng, plant)
    K, trace = gd_run(plant, K0, direction="riemannian", tol=1e-8, max_iter=2000)
    js = [rec.J for rec in trace]
    assert all(js[i + 1] <= js[i] + 1e-12 for i in range(len(js) - 1))
    assert all(rec.rho < 1.0 for rec in trace)


def test_gd_stops_at_round_off(rng):
    # regression: this run used to wander for 1000+ of its 1217 iterations
    # within 3e-14 of one J, stepping on round-off until the gradient norm
    # happened to dip under tol; it now returns once no halving decreases J
    plant = random_stabilizable(rng, 3, 2)
    K0 = random_certified_gain(rng, plant)
    Jstar = lqr_eval(plant, dare_solve(plant)[1]).J
    # with tol = 0 the gradient norm never reaches tol: the run must return
    for tol in (1e-8, 0.0):
        K, trace = gd_run(plant, K0, direction="riemannian", tol=tol, max_iter=2000)
        assert trace[-1].grad_norm > tol
        assert trace[-1].iter < 200
        assert trace[-1].step == 0.0
        assert abs(trace[-1].J - Jstar) <= 1e-12 * Jstar
        assert lqr_eval(plant, K).J == trace[-1].J


def test_decrease_outcomes():
    # a strict decrease is accepted at the first step that gives one; no
    # strict decrease but one within round-off slack is ROUND_OFF; else None
    def search(J):
        return lqr.decrease(lambda eta: eta, lambda x: 0.5,
                            lambda x: SimpleNamespace(J=J(x)), 1.0, 1.0)

    eta, x, rho, ev = search(lambda x: 1.0 + 4.0 * x * (x - 0.3))
    assert (eta, x, rho, ev.J) == (0.25, 0.25, 0.5, 0.95)
    assert search(lambda x: 1.0 + 1e-15) is lqr.ROUND_OFF
    assert search(lambda x: 1.0 + 1e-9) is None


@pytest.mark.parametrize("direction", ["euclidean", "riemannian", "pseudo_newton"])
def test_gd_first_step_within_certificate(rng, monkeypatch, direction):
    # the warm-started first step of every line search stays within the
    # certified bound min(cap, s) of its evaluation; it falls below the
    # bound on some iterations, except along pseudo-Newton directions, whose
    # slope shrinks faster than their certificate
    plant = random_stabilizable(rng, 3, 2)
    K0 = random_certified_gain(rng, plant)
    pairs, steps = record_certified_searches(monkeypatch)
    gd_run(plant, K0, direction=direction, tol=1e-10, max_iter=500)
    bounds = [certificate_bound(plant, K, V, 1.0) for K, V in pairs]
    assert len(steps) == len(bounds) > 1
    assert all(eta <= b * (1 + 1e-9) for eta, b in zip(steps, bounds))
    assert steps[0] == pytest.approx(bounds[0], rel=1e-9)
    assert any(eta < 0.99 * b for eta, b in zip(steps, bounds)) == (direction != "pseudo_newton")


@pytest.mark.parametrize("direction", ["riemannian", "pseudo_newton"])
def test_gd_zero_Q_steps_by_the_Y_bound(monkeypatch, direction):
    # with Q = 0 and m < n, Q + K^T R K is singular: its Cholesky
    # factorization fails (or leaves a bound below Y_K's), so the bound from
    # Y_K with N = Sigma sets every certified step, and descent still
    # reaches the Riccati optimum
    A = np.array([[1.1, 1.0, 0.0], [0.0, 0.9, 1.0], [0.0, 0.0, 0.5]])
    B = np.array([[0.0], [0.0], [1.0]])
    plant = Plant.create(A=A, B=B, Q=np.zeros((3, 3)))
    _, K0 = dare_solve(Plant.create(A=A, B=B))
    bound, calls = lqr.lyapunov_step_bound, []

    def spy(Acl, Bf, V, P, N):
        # (is this Y_K's bound, the bound or None when Cholesky fails)
        calls.append((N is plant.Sigma, None))
        s = bound(Acl, Bf, V, P, N)
        calls[-1] = (N is plant.Sigma, s)
        return s

    monkeypatch.setattr(lqr, "lyapunov_step_bound", spy)
    _, trace = gd_run(plant, K0, direction=direction, tol=1e-8, max_iter=1000)
    Jstar = lqr_eval(plant, dare_solve(plant)[1]).J
    assert trace[-1].iter < 1000
    assert abs(trace[-1].J - Jstar) <= 1e-12 * Jstar
    s_Y = [s for is_Y, s in calls if is_Y]
    s_P = [s for is_Y, s in calls if not is_Y]
    assert len(s_Y) == len(s_P) >= len(trace) - 1
    assert s_P.count(None) > len(s_P) // 2
    assert all(p is None or p <= y for p, y in zip(s_P, s_Y))


def test_gd_fixed_step_tries_its_step_first(rng, monkeypatch):
    plant = random_stabilizable(rng, 3, 2)
    steps = record_first_steps(monkeypatch)
    _, trace = gd_run(plant, random_certified_gain(rng, plant),
                      step_rule=FixedStep(eta=0.3), tol=1e-8, max_iter=300)
    assert len(steps) >= len(trace) - 1 > 0
    assert set(steps) == {0.3}


@pytest.mark.parametrize("direction", ["euclidean", "riemannian", "pseudo_newton"])
def test_gd_trace_rho_is_the_iterates(rng, monkeypatch, direction):
    # a step of 2 is rejected (unstable or not decreasing) and halved on most
    # iterations; each record's rho must be its iterate's, not a candidate's
    plant = random_stabilizable(rng, 3, 2, scale=0.9)
    K0 = random_certified_gain(rng, plant)
    iterates = record_iterates(monkeypatch, lqr, "_descent_direction")
    _, trace = gd_run(plant, K0, direction=direction, step_rule=FixedStep(eta=2.0),
                      tol=1e-8, max_iter=300)
    assert any(rec.step < 2.0 for rec in trace[:-1])
    assert [rec.rho for rec in trace] == [
        spectral_radius(closed_loop_static(plant, K.K)) for K in iterates]


def test_gd_fixed_step(rng):
    plant = random_stabilizable(rng, 2, 1)
    K0 = random_certified_gain(rng, plant)
    K, trace = gd_run(plant, K0, direction="euclidean",
                      step_rule=FixedStep(eta=0.05), tol=1e-8, max_iter=5000)
    _, Kstar = dare_solve(plant)
    assert np.max(np.abs(K.K - Kstar.K)) < 1e-6


def test_gd_linear_rate_scalar(scalar_plant):
    # gradient dominance shadow: log-error decreases linearly, R^2 >= 0.98
    K0 = gain(scalar_plant, [[-1.0]])
    _, trace = gd_run(scalar_plant, K0, direction="euclidean", tol=1e-11,
                      max_iter=500)
    Jstar = lqr_eval(scalar_plant, dare_solve(scalar_plant)[1]).J
    errs = np.array([rec.J - Jstar for rec in trace if rec.J - Jstar > 1e-12])
    t = np.arange(len(errs))
    logs = np.log(errs)
    slope, intercept = np.polyfit(t, logs, 1)
    fit = slope * t + intercept
    ss_res = np.sum((logs - fit) ** 2)
    ss_tot = np.sum((logs - np.mean(logs)) ** 2)
    assert slope < 0.0
    assert 1.0 - ss_res / ss_tot >= 0.98


def test_gradient_dominance_ratio_bounded(rng):
    plant = random_stabilizable(rng, 2, 1)
    Jstar = lqr_eval(plant, dare_solve(plant)[1]).J
    ratios = []
    for _ in range(500):
        K = random_certified_gain(rng, plant)
        ev = lqr_eval(plant, K)
        g = lqr_grad_euclidean(plant, K, ev)
        gap = ev.J - Jstar
        if gap < 1e-10:
            continue
        ratios.append(gap / max(np.sum(g * g), 1e-300))
    assert np.isfinite(max(ratios))


def test_coercivity_ray_probe(rng):
    # J blows past 1e6 along rays before the stability boundary or ||K|| 1e6
    plant = random_stabilizable(rng, 2, 2)
    _, Kstar = dare_solve(plant)
    for _ in range(5):
        V = rng.standard_normal((2, 2))
        V /= np.linalg.norm(V)
        t, J = 1.0, 0.0
        crossed = False
        while t < 1e6:
            K = Kstar.K + t * V
            rho = spectral_radius(closed_loop_static(plant, K))
            if rho >= 1.0 - 1e-6:
                break
            J = lqr_eval(plant, StaticGain(K, True)).J
            if J > 1e6:
                crossed = True
                break
            t *= 2.0
        assert crossed or rho >= 1.0 - 1e-6
        if crossed:
            assert J > 1e6


def test_trace_jsonl_format(tmp_path, scalar_plant):
    K0 = gain(scalar_plant, [[-1.0]])
    _, trace = gd_run(scalar_plant, K0, tol=1e-6, max_iter=50)
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(path, trace)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(trace)
    rec = json.loads(lines[0])
    assert set(rec) == {"iter", "J", "grad_norm", "step", "rho"}
