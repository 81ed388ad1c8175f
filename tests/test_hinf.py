import math

import numpy as np
import pytest

from polgeo import (
    ContractError,
    InfeasibleError,
    InternalInvariantError,
    Plant,
    StaticGain,
    closed_loop_static,
    hinf_cost,
    hinf_descent_run,
    hinf_freq_response,
    is_stabilizing_static,
    spectral_radius,
)
from polgeo import hinf
from polgeo.hinf import FREQ_BLOCK, _golden_max, _min_norm_convex_combination
from conftest import (
    golden_max_scalar,
    min_norm_by_faces,
    peak_gain_reference,
    random_certified_gain,
    random_stabilizable,
)


def gain(plant, K):
    return StaticGain.certify(plant, np.asarray(K, dtype=float))


def scalar_response(a, k, q, r, omega):
    """Closed-form scalar frequency response (q + k^2 r) / |e^{jw} - (a+k)|^2."""
    acl = a + k
    return (q + k * k * r) / abs(np.exp(1j * omega) - acl) ** 2


def test_response_flat_for_zero_A():
    plant = Plant.create(A=np.array([[0.0]]), B=np.array([[1.0]]))
    K = gain(plant, [[0.0]])
    for w in (0.0, 0.7, math.pi / 2, math.pi):
        assert abs(hinf_freq_response(plant, K, w) - 1.0) < 1e-12


def test_response_scalar_peak(ab09_plant):
    K = gain(ab09_plant, [[0.0]])
    assert abs(hinf_freq_response(ab09_plant, K, 0.0) - 100.0) < 1e-9


def test_response_conjugate_symmetry(rng):
    plant = random_stabilizable(rng, 3, 2)
    K = random_certified_gain(rng, plant)
    for _ in range(10):
        w = float(rng.uniform(0.0, math.pi))
        a = hinf_freq_response(plant, K, w)
        b = hinf_freq_response(plant, K, 2.0 * math.pi - w)
        assert abs(a - b) <= 1e-10 * (1.0 + abs(a))


def test_response_matches_closed_form(ab09_plant, rng):
    K = gain(ab09_plant, [[-0.4]])
    for _ in range(10):
        w = float(rng.uniform(0.0, math.pi))
        assert abs(hinf_freq_response(ab09_plant, K, w)
                   - scalar_response(0.9, -0.4, 1.0, 1.0, w)) < 1e-10


@pytest.mark.parametrize("n", [1, 4, 8, 16])
def test_batched_response_matches_per_frequency_reference(rng, n):
    plant = random_stabilizable(rng, n, 2)
    K = random_certified_gain(rng, plant)
    # random frequencies, and a grid that leaves a partial last block
    for omegas in (rng.uniform(0.0, 2.0 * math.pi, 50),
                   np.linspace(0.0, math.pi, 2 * FREQ_BLOCK + 37)):
        values = hinf_freq_response(plant, K, omegas)
        ref = peak_gain_reference(plant, K.K, omegas)
        assert values.shape == omegas.shape
        assert np.all(np.abs(values - ref) <= 1e-12 * np.abs(ref))
    w = float(omegas[FREQ_BLOCK + 5])
    assert hinf_freq_response(plant, K, w) == values[FREQ_BLOCK + 5]


def test_response_guards(rng):
    plant = random_stabilizable(rng, 3, 2)
    K = random_certified_gain(rng, plant)
    for omega in (0.3, np.linspace(0.0, math.pi, 5)):
        with pytest.raises(InfeasibleError):
            hinf_freq_response(plant, StaticGain(K.K, False), omega)
    # a pole on the unit circle at w = 0: the shifted matrix is singular
    unit = Plant.create(A=np.array([[1.0]]), B=np.array([[1.0]]))
    with pytest.raises(InternalInvariantError):
        hinf_freq_response(unit, StaticGain(np.array([[0.0]]), True), np.array([0.5, 0.0]))
    with pytest.raises(InternalInvariantError):
        hinf_freq_response(plant, StaticGain(np.full(K.K.shape, np.nan), True), 0.3)


def test_lockstep_golden_matches_sequential_searches(rng):
    # three intervals, the first and last clipped at 0 and pi as hinf_cost
    # clips them
    step = math.pi / 255
    intervals = [(0.0, step), (1.3 - step, 1.3 + step), (math.pi - step, math.pi)]

    def wavy(x):
        return np.sin(3.0 * x) + 0.3 * np.cos(17.0 * x)

    plant = random_stabilizable(rng, 4, 2)
    K = random_certified_gain(rng, plant)
    for f in (wavy, lambda x: hinf_freq_response(plant, K, x)):
        lockstep = _golden_max(f, intervals, 1e-10)
        sequential = [golden_max_scalar(lambda x: float(f(np.array([x]))[0]), lo, hi, 1e-10)
                      for lo, hi in intervals]
        assert lockstep == sequential


def test_cost_scalar_analytic_values(ab09_plant):
    ev = hinf_cost(ab09_plant, gain(ab09_plant, [[0.0]]))
    assert abs(ev.J - 100.0) <= 1e-6
    assert abs(ev.omega_star) < 1e-6
    ev2 = hinf_cost(ab09_plant, gain(ab09_plant, [[-0.9]]))
    assert abs(ev2.J - 1.81) <= 1e-6


def test_cost_requires_grid(ab09_plant):
    with pytest.raises(ContractError):
        hinf_cost(ab09_plant, gain(ab09_plant, [[0.0]]), grid=32)


def test_cost_grid_independence(rng):
    for _ in range(5):
        plant = random_stabilizable(rng, int(rng.integers(1, 5)), 1)
        K = random_certified_gain(rng, plant)
        J1 = hinf_cost(plant, K, grid=2048).J
        J2 = hinf_cost(plant, K, grid=4096).J
        assert abs(J1 - J2) <= 1e-8 * (1.0 + abs(J1))


def test_cost_dominates_random_frequencies(rng):
    plant = random_stabilizable(rng, 3, 2)
    K = random_certified_gain(rng, plant)
    J = hinf_cost(plant, K).J
    for _ in range(64):
        w = float(rng.uniform(0.0, math.pi))
        assert hinf_freq_response(plant, K, w) <= J + 1e-9 * (1.0 + J)


def raster_min(plant, lo, hi, count=2001):
    ks = np.linspace(lo, hi, count)
    best_J, best_k = np.inf, None
    for k in ks:
        K = np.array([[k]])
        if not is_stabilizing_static(plant, K):
            continue
        J = hinf_cost(plant, StaticGain(K, True), grid=256).J
        if J < best_J:
            best_J, best_k = J, k
    return best_J, best_k


def test_descent_reaches_raster_minimum(ab09_plant):
    K0 = gain(ab09_plant, [[-0.5]])
    K, trace = hinf_descent_run(ab09_plant, K0, grid=256, max_iter=100)
    js = [rec.J for rec in trace]
    assert all(js[i + 1] <= js[i] + 1e-12 for i in range(len(js) - 1))
    best_J, best_k = raster_min(ab09_plant, -1.9, 0.1, 501)
    assert trace[-1].J <= best_J + 1e-6
    assert abs(K.K[0, 0] - best_k) < 0.05
    # the minimizer sits at the non-smooth kink where A_cl = 0
    assert abs(K.K[0, 0] + 0.9) < 1e-4


def test_descent_evaluates_and_eigensolves_each_iterate_once(ab09_plant, monkeypatch):
    # every cost and radius hinf_descent_run asks for is of a distinct gain:
    # the accepted candidate's J and rho carry over to the next iterate
    radius, gains = hinf.stabilizing_radius, []

    def spy(Acl):
        gains.append(Acl.tobytes())
        return radius(Acl)

    monkeypatch.setattr(hinf, "stabilizing_radius", spy)
    K, trace = hinf_descent_run(ab09_plant, gain(ab09_plant, [[-0.5]]), grid=128, max_iter=5)
    assert len(gains) == len(set(gains))
    assert trace[0].rho == spectral_radius(closed_loop_static(ab09_plant, np.array([[-0.5]])))
    assert trace[-1].rho == spectral_radius(closed_loop_static(ab09_plant, K.K))
    with pytest.raises(InfeasibleError):
        hinf_descent_run(ab09_plant, StaticGain(np.array([[0.5]]), True), grid=128)


def test_descent_immediate_at_minimizer(ab09_plant):
    K0 = gain(ab09_plant, [[-0.9]])
    K, trace = hinf_descent_run(ab09_plant, K0, grid=256, max_iter=50)
    assert abs(K.K[0, 0] + 0.9) < 1e-6


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 2)])
def test_min_norm_combination_matches_face_enumeration(rng, shape):
    # offsets 0 put the origin inside most hulls; duplicates and N > dim + 1
    # make the hull degenerate
    for N in range(1, 8):
        for offset in (0.0, 0.5, 3.0):
            gradients = [offset + rng.standard_normal(shape) for _ in range(N)]
            gradients.append(gradients[0].copy())
            x, norm = _min_norm_convex_combination(gradients)
            x_ref, norm_ref = min_norm_by_faces(gradients)
            scale = max(np.linalg.norm(g) for g in gradients)
            assert x.shape == shape
            assert np.linalg.norm(x - x_ref) <= 1e-8 * scale
            assert abs(norm - norm_ref) <= 1e-8 * scale
            assert abs(norm - np.linalg.norm(x)) <= 1e-15 * scale


def test_min_norm_combination_optimal_at_35_gradients(rng):
    # 2^35 faces are out of reach for enumeration; check the optimality
    # condition <x*, g_i - x*> >= -tol ||x*|| of the minimum-norm point
    gradients = [0.5 + rng.standard_normal((2, 8)) for _ in range(35)]
    x, norm = _min_norm_convex_combination(gradients)
    scale = max(np.linalg.norm(g) for g in gradients)
    assert norm > 0.1
    for g in gradients:
        assert np.sum(x * (g - x)) >= -1e-9 * scale * norm


def test_coercivity_ray_probe(ab09_plant):
    # J exceeds 1e6 before rho(A_cl) reaches 1 - 1e-6 along the boundary ray
    crossed = False
    for j in range(1, 13):
        k = 0.1 * (1.0 - 10.0 ** (-j))
        K = np.array([[k]])
        rho = spectral_radius(closed_loop_static(ab09_plant, K))
        if rho >= 1.0 - 1e-6:
            break
        J = hinf_cost(ab09_plant, StaticGain(K, True), grid=128).J
        if J > 1e6:
            crossed = True
            break
    assert crossed


def test_sublevel_sets_are_intervals(ab09_plant):
    # compact, path-connected sublevel sets: the raster sublevel set is an
    # interval for every tested threshold
    ks = np.linspace(-1.85, 0.05, 301)
    js = []
    for k in ks:
        K = np.array([[k]])
        if is_stabilizing_static(ab09_plant, K):
            js.append(hinf_cost(ab09_plant, StaticGain(K, True), grid=128).J)
        else:
            js.append(np.inf)
    js = np.array(js)
    for gamma in (2.0, 5.0, 20.0, 80.0):
        inside = js <= gamma
        idx = np.where(inside)[0]
        if idx.size:
            assert np.all(inside[idx[0]: idx[-1] + 1])
