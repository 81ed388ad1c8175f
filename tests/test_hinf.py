import math

import numpy as np
import pytest

from polgeo import (
    ContractError,
    Plant,
    StaticGain,
    closed_loop_static,
    hinf_cost,
    hinf_descent_run,
    hinf_freq_response,
    is_stabilizing_static,
    spectral_radius,
)
from polgeo.hinf import _min_norm_convex_combination
from conftest import min_norm_by_faces, random_certified_gain, random_stabilizable


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
