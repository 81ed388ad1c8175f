import numpy as np
import pytest

from polgeo import (
    BoundaryError,
    ContractError,
    Plant,
    StalledError,
    StaticGain,
    ZoConfig,
    dare_solve,
    estimate_gradient,
    is_stabilizing_static,
    lqr_eval,
    lqr_grad_euclidean,
    sample_sphere,
    zo_gd_run,
    zo_grad_baseline,
    zo_grad_one_point,
    zo_grad_two_point,
)
from conftest import record_first_steps


def quad(theta):
    return 0.5 * float(np.sum(np.asarray(theta) ** 2))


def scalar_lqr_cost(plant):
    def costfn(theta):
        K = np.asarray(theta).reshape(1, 1)
        if not is_stabilizing_static(plant, K):
            return np.inf
        return lqr_eval(plant, StaticGain(K, True)).J
    return costfn


def test_config_validation():
    with pytest.raises(ContractError):
        ZoConfig(epsilon=0.0)
    with pytest.raises(ContractError):
        ZoConfig(samples=0)
    with pytest.raises(ContractError):
        ZoConfig(estimator="three_point")


def test_sample_sphere_unit_norm(rng):
    for d in (1, 2, 5):
        for _ in range(100):
            u = sample_sphere(d, rng)
            assert abs(np.linalg.norm(u) - 1.0) < 1e-14
    assert sample_sphere(1, rng)[0] in (-1.0, 1.0)


def test_sample_sphere_mean_concentrates(rng):
    total = np.zeros(5)
    N = 100_000
    for _ in range(N):
        total += sample_sphere(5, rng)
    assert np.linalg.norm(total / N) <= 0.02


def test_two_point_hand_example():
    # f = 0.5||theta||^2 at theta=(1,0): per-sample values are exact
    theta = np.array([1.0, 0.0])
    eps = 0.1
    d = 2
    for u, expect in [(np.array([1.0, 0.0]), np.array([2.0, 0.0])),
                      (np.array([0.0, 1.0]), np.array([0.0, 0.0]))]:
        per = (quad(theta + eps * u) - quad(theta - eps * u)) * d / (2 * eps) * u
        assert np.allclose(per, expect)
    # and their average is the exact gradient
    assert np.allclose(0.5 * (np.array([2.0, 0.0]) + 0.0), np.array([1.0, 0.0]))


def test_two_point_constant_function_is_zero():
    cfg = ZoConfig(samples=16, seed=3)
    g = zo_grad_two_point(lambda th: 5.0, np.zeros(4), cfg)
    assert np.array_equal(g, np.zeros(4))


def test_two_point_linear_unbiased():
    a = np.array([1.0, -2.0, 0.5, 3.0])
    cfg = ZoConfig(epsilon=0.05, samples=500, seed=7)
    est = zo_grad_two_point(lambda th: float(a @ th), np.zeros(4), cfg)
    assert np.linalg.norm(est - a) <= 0.15 * np.linalg.norm(a)


def test_two_point_cosine_on_quadratic():
    cfg = ZoConfig(epsilon=1e-3, samples=200, seed=0)
    theta = np.array([1.0, -0.5, 2.0, 0.3, -1.1, 0.7])
    g = zo_grad_two_point(quad, theta, cfg)
    cos = float(g @ theta) / (np.linalg.norm(g) * np.linalg.norm(theta))
    assert cos >= 0.9


def test_one_point_quadratic_monte_carlo():
    cfg = ZoConfig(epsilon=0.05, samples=5000, seed=16, estimator="one_point")
    est = zo_grad_one_point(quad, np.array([1.0, 0.0]), cfg)
    assert np.linalg.norm(est - np.array([1.0, 0.0])) <= 0.25


def test_one_point_worse_than_two_point_at_equal_budget():
    theta = np.array([1.0, -0.5, 0.7, 0.2])
    grad = theta
    cfg1 = ZoConfig(epsilon=0.05, samples=100, seed=5, estimator="one_point")
    cfg2 = ZoConfig(epsilon=0.05, samples=100, seed=5, estimator="two_point")
    g1 = zo_grad_one_point(quad, theta, cfg1)
    g2 = zo_grad_two_point(quad, theta, cfg2)
    def cos(g):
        return float(g @ grad) / (np.linalg.norm(g) * np.linalg.norm(grad))
    assert cos(g2) > cos(g1)


def test_baseline_zero_function():
    cfg = ZoConfig(samples=8, seed=2, estimator="baseline")
    g = zo_grad_baseline(lambda th: 0.0, lambda th: 0.0, np.zeros(3), cfg)
    assert np.array_equal(g, np.zeros(3))


def test_baseline_is_forward_difference_smoothing():
    cfg = ZoConfig(epsilon=0.1, samples=32, seed=9, estimator="baseline")
    theta = np.array([0.5, -0.3])
    g1 = zo_grad_baseline(quad, lambda th: quad(th), theta, cfg)
    # same thing assembled by hand from the shared sample stream
    g2 = estimate_gradient(quad, theta, cfg)
    assert np.array_equal(g1, g2)


def test_baseline_variance_below_one_point():
    theta = np.array([1.0, 0.4, -0.6])
    ests_one, ests_base = [], []
    for seed in range(40):
        c1 = ZoConfig(epsilon=0.05, samples=20, seed=seed, estimator="one_point")
        cb = ZoConfig(epsilon=0.05, samples=20, seed=seed, estimator="baseline")
        ests_one.append(zo_grad_one_point(quad, theta, c1))
        ests_base.append(zo_grad_baseline(quad, lambda th: quad(th), theta, cb))
    var_one = np.mean(np.var(np.array(ests_one), axis=0))
    var_base = np.mean(np.var(np.array(ests_base), axis=0))
    assert var_base < var_one


def test_estimator_linearity_under_shared_samples():
    # shared (seed, iteration, index) streams make the estimate additive
    cfg = ZoConfig(epsilon=0.05, samples=50, seed=13)
    theta = np.array([0.3, -0.2, 1.0])
    f = quad
    g = lambda th: float(np.sum(th))
    est_f = zo_grad_two_point(f, theta, cfg)
    est_g = zo_grad_two_point(g, theta, cfg)
    est_sum = zo_grad_two_point(lambda th: f(th) + g(th), theta, cfg)
    assert np.max(np.abs(est_sum - (est_f + est_g))) < 1e-10


def test_determinism():
    cfg = ZoConfig(epsilon=1e-3, samples=64, seed=21)
    theta = np.array([0.7, -0.1])
    a = zo_grad_two_point(quad, theta, cfg)
    b = zo_grad_two_point(quad, theta, cfg)
    assert np.array_equal(a, b)


def test_boundary_error_on_infeasible_neighborhood():
    cfg = ZoConfig(epsilon=1.0, samples=1, seed=0)
    with pytest.raises(BoundaryError):
        zo_grad_two_point(lambda th: np.inf, np.zeros(2), cfg)


def test_zo_gd_scalar_lqr(scalar_plant):
    costfn = scalar_lqr_cost(scalar_plant)
    cfg = ZoConfig(epsilon=1e-3, samples=200, seed=0)
    theta, trace = zo_gd_run(
        costfn, lambda th: is_stabilizing_static(scalar_plant, th.reshape(1, 1)),
        np.array([-1.0]), cfg, eta=0.05, tol=1e-3, max_iter=3000)
    Jstar = lqr_eval(scalar_plant, dare_solve(scalar_plant)[1]).J
    assert trace[-1].iter <= 3000
    assert trace[-1].J <= Jstar * 1.01


def test_zo_gd_quadratic_converges():
    cfg = ZoConfig(epsilon=1e-3, samples=20, seed=4)
    theta, trace = zo_gd_run(quad, lambda th: True,
                             np.array([1.0, -2.0, 0.5, 0.3, -0.7]), cfg,
                             eta=0.2, tol=1e-4, max_iter=5000)
    assert np.linalg.norm(theta) <= 1e-2


def test_zo_gd_tries_eta_first(monkeypatch):
    steps = record_first_steps(monkeypatch)
    cfg = ZoConfig(epsilon=1e-3, samples=20, seed=4)
    _, trace = zo_gd_run(quad, lambda th: True, np.array([1.0, -2.0, 0.5]), cfg,
                         eta=0.2, tol=1e-4, max_iter=50)
    assert len(steps) >= len(trace) - 1 > 0
    assert set(steps) == {0.2}


def test_zo_gd_stationary_start_stays_put(scalar_plant):
    costfn = scalar_lqr_cost(scalar_plant)
    _, Kstar = dare_solve(scalar_plant)
    cfg = ZoConfig(epsilon=1e-3, samples=100, seed=8)
    theta0 = Kstar.K.reshape(-1)
    theta, trace = zo_gd_run(
        costfn, lambda th: is_stabilizing_static(scalar_plant, th.reshape(1, 1)),
        theta0, cfg, eta=0.05, tol=1e-3, max_iter=100)
    assert np.linalg.norm(theta - theta0) <= 5 * cfg.epsilon


def test_zo_gd_infeasible_start():
    plant_cost = lambda th: np.inf
    with pytest.raises(BoundaryError):
        zo_gd_run(plant_cost, lambda th: False, np.zeros(2), ZoConfig())


def test_zo_gd_deterministic_trace(scalar_plant):
    costfn = scalar_lqr_cost(scalar_plant)
    feas = lambda th: is_stabilizing_static(scalar_plant, th.reshape(1, 1))
    cfg = ZoConfig(epsilon=1e-3, samples=8, seed=17)
    t1 = zo_gd_run(costfn, feas, np.array([-1.0]), cfg, eta=0.05,
                   tol=1e-4, max_iter=200)[1]
    t2 = zo_gd_run(costfn, feas, np.array([-1.0]), cfg, eta=0.05,
                   tol=1e-4, max_iter=200)[1]
    assert t1 == t2


def test_zo_gd_stalls_when_only_start_is_feasible():
    theta0 = np.array([1.0, -2.0])
    cfg = ZoConfig(epsilon=1e-3, samples=4, seed=1)
    with pytest.raises(StalledError, match=r"^zo_gd_run: 30 failed backtracks$") as exc:
        zo_gd_run(quad, lambda th: np.array_equal(th, theta0), theta0, cfg, eta=0.1)
    trace = exc.value.trace
    assert len(trace) == 1
    assert trace[0].iter == 0 and trace[0].step == 0.0
    assert trace[0].J == quad(theta0)
