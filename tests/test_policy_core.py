import math

import numpy as np
import pytest

from polgeo import (
    ConstraintSubspace,
    ContractError,
    DynamicPolicy,
    InfeasibleError,
    Plant,
    StaticGain,
    closed_loop_matrix_dynamic,
    closed_loop_static,
    connectivity_scan,
    dlyap,
    is_stabilizing_dynamic,
    is_stabilizing_static,
    landscape_slice,
    lqr_eval,
    lyapunov_step_bound,
    spectral_radius,
    stability_certificate,
    write_grid_csv,
)
from conftest import (
    kron_lyap,
    lyapunov_bound_reference,
    random_certified_gain,
    random_stabilizable,
    trajectory_decays,
)


def test_plant_defaults_and_dims():
    plant = Plant.create(A=np.array([[0.5, 0.0], [0.0, 0.5]]), B=np.eye(2))
    assert plant.n == 2 and plant.m == 2 and plant.p == 2
    assert np.array_equal(plant.Q, np.eye(2))


def test_plant_rejects_non_psd_Q():
    with pytest.raises(ContractError, match="eigenvalue"):
        Plant.create(A=np.eye(1), B=np.eye(1), Q=np.array([[-1.0]]))


def test_plant_rejects_non_pd_R():
    with pytest.raises(ContractError):
        Plant.create(A=np.eye(1), B=np.eye(1), R=np.array([[0.0]]))


def test_static_membership_scalar():
    plant = Plant.create(A=np.array([[1.0]]), B=np.array([[1.0]]))
    assert is_stabilizing_static(plant, np.array([[-1.0]]))
    plant0 = Plant.create(A=np.array([[0.0]]), B=np.array([[1.0]]))
    assert not is_stabilizing_static(plant0, np.array([[1.5]]))
    assert not is_stabilizing_static(plant0, np.array([[-2.0]]))
    assert is_stabilizing_static(plant0, np.array([[-0.5]]))


def test_static_membership_nilpotent():
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    plant = Plant.create(A=A, B=np.eye(3))
    assert is_stabilizing_static(plant, np.zeros((3, 3)))


def test_membership_matches_trajectory_decay(rng):
    # 200-step simulation oracle on samples with rho bounded away from 1
    for _ in range(50):
        n = int(rng.integers(1, 5))
        plant = random_stabilizable(rng, n, n, scale=float(rng.uniform(0.2, 2.0)))
        K = rng.standard_normal((n, n)) * 0.3
        Acl = closed_loop_static(plant, K)
        rho = spectral_radius(Acl)
        if abs(rho - 1.0) < 0.05:
            continue
        assert is_stabilizing_static(plant, K) == trajectory_decays(Acl)


def test_dynamic_membership_examples():
    plant = Plant.create(A=np.array([[0.9]]), B=np.array([[1.0]]))
    Kd = DynamicPolicy.create(np.array([[-0.5]]), np.array([[0.0]]), np.array([[0.0]]))
    assert is_stabilizing_dynamic(plant, Kd)
    plant2 = Plant.create(A=np.array([[1.1]]), B=np.array([[1.0]]))
    Kd0 = DynamicPolicy.create(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    assert not is_stabilizing_dynamic(plant2, Kd0)


def test_closed_loop_dynamic_layout():
    plant = Plant.create(A=np.array([[0.9]]), B=np.array([[1.0]]))
    Kd = DynamicPolicy.create(np.array([[0.1]]), np.array([[0.2]]), np.array([[0.3]]))
    Acl = closed_loop_matrix_dynamic(plant, Kd)
    assert np.allclose(Acl, np.array([[0.9, 0.3], [0.2, 0.1]]))


def test_certificate_scalar_closed_form():
    plant = Plant.create(A=np.array([[0.0]]), B=np.array([[1.0]]))
    K = StaticGain.certify(plant, np.array([[-0.5]]))
    s = stability_certificate(plant, K, np.array([[1.0]]))
    assert abs(s - 0.375) < 1e-12
    assert abs(-0.5 + s) < 1.0  # the certified step stays inside the disk


def test_certificate_zero_direction_sentinel():
    plant = Plant.create(A=np.array([[0.0]]), B=np.array([[1.0]]))
    K = StaticGain.certify(plant, np.array([[-0.5]]))
    assert stability_certificate(plant, K, np.zeros((1, 1))) == math.inf


def test_certificate_homogeneity(rng):
    plant = random_stabilizable(rng, 3, 2)
    K = random_certified_gain(rng, plant)
    V = rng.standard_normal((2, 3))
    s = stability_certificate(plant, K, V)
    for c in (0.5, 2.0, 7.3):
        assert abs(stability_certificate(plant, K, c * V) - s / c) < 1e-12 * s / c


@pytest.mark.parametrize("n, m, zero_column", [
    (5, 2, False), (4, 4, False), (2, 4, False), (4, 3, True)])
def test_certificate_matches_full_svd_formula(rng, n, m, zero_column):
    # the certificate takes ||BV||_2 from B's triangular factor; compare with
    # 1 / (2 lambda_max(L(A_cl^T, I)) ||BV||_2) by an n x n SVD
    plant = random_stabilizable(rng, n, m)
    if zero_column:
        B = plant.B.copy()
        B[:, 1] = 0.0
        plant = Plant.create(A=plant.A, B=B, R=plant.R)
    K = random_certified_gain(rng, plant)
    for _ in range(5):
        V = rng.standard_normal((m, n))
        lam = np.linalg.eigvalsh(dlyap(closed_loop_static(plant, K.K).T, np.eye(n)).P)[-1]
        expected = 1.0 / (2.0 * lam * np.linalg.norm(plant.B @ V, 2))
        assert abs(stability_certificate(plant, K, V) - expected) <= 1e-12 * expected


def test_certificate_requires_certified(rng):
    plant = random_stabilizable(rng, 2, 1)
    with pytest.raises(InfeasibleError):
        stability_certificate(plant, StaticGain(np.zeros((1, 2)), False), np.ones((1, 2)))


def test_certificate_monte_carlo_safety(rng):
    # certified steps never destabilize
    for _ in range(500):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        plant = random_stabilizable(rng, n, m, scale=float(rng.uniform(0.2, 0.9)))
        K = random_certified_gain(rng, plant)
        V = rng.standard_normal((m, n))
        s = stability_certificate(plant, K, V)
        if not np.isfinite(s):
            continue
        eta = s * float(rng.uniform(0.0, 1.0))
        assert spectral_radius(closed_loop_static(plant, K.K + eta * V)) < 1.0


def test_lyapunov_step_bound_scalar_closed_form():
    # a = 0.5, P = 4/3 for N = 1; along Delta = -1, x = -4/3 and z = 4/3,
    # so s is the positive root of -(4/3) eta + (4/3) eta^2 = 1/2
    P = np.array([[4.0 / 3.0]])
    s = lyapunov_step_bound(np.array([[0.5]]), np.array([[1.0]]), np.array([[-1.0]]),
                            P, np.eye(1))
    assert abs(s - (4.0 / 3.0 + math.sqrt(16.0 / 9.0 + 8.0 / 3.0)) / (8.0 / 3.0)) < 1e-12
    assert abs(0.5 - s) < 1.0  # the endpoint is stable


def test_lyapunov_step_bound_zero_direction_and_singular_N(rng):
    Acl = np.array([[0.5, 0.1], [0.0, 0.3]])
    N = np.eye(2)
    P = kron_lyap(Acl.T, N)
    assert lyapunov_step_bound(Acl, np.ones((2, 1)), np.zeros((1, 2)), P, N) == math.inf
    for singular in (np.zeros((2, 2)), np.diag([1.0, 0.0])):
        with pytest.raises(np.linalg.LinAlgError):
            lyapunov_step_bound(Acl, np.ones((2, 1)), np.ones((1, 2)), P, singular)


@pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (3, 2), (4, 2), (6, 2), (8, 3)])
def test_lyapunov_step_bound_matches_dense_reference(rng, n, k):
    # the eigenvalues of order min(n, 2k) give the bound computed from the
    # dense n x n matrices, whether 2k < n or not, and whatever x's sign
    for _ in range(20):
        Acl = rng.standard_normal((n, n))
        Acl *= float(rng.uniform(0.1, 0.95)) / spectral_radius(Acl)
        M = rng.standard_normal((n, n))
        N = M @ M.T + 1e-2 * np.eye(n)
        P = kron_lyap(Acl.T, N)
        B, V = rng.standard_normal((n, k)), rng.standard_normal((k, n))
        expected = lyapunov_bound_reference(Acl, B @ V, P, N)
        assert abs(lyapunov_step_bound(Acl, B, V, P, N) - expected) <= 1e-9 * expected


def test_lyapunov_step_bound_safety():
    # modelled on criterion 5: every step up to and including the bound from
    # either Lyapunov function of an evaluation, P_K with Q + K^T R K (Q's
    # eigenvalues in [1e-3, 2]) or Y_K with Sigma on the transposed loop,
    # keeps the gain stabilizing
    rng = np.random.default_rng(16)
    steps = violations = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 4))
        base = random_stabilizable(rng, n, m)
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        Q = (U * rng.uniform(1e-3, 2.0, n)) @ U.T
        plant = Plant.create(A=base.A, B=base.B, Q=0.5 * (Q + Q.T), R=base.R)
        K = random_certified_gain(rng, plant)
        V = rng.standard_normal((m, n)) * float(rng.uniform(0.1, 3.0))
        ev = lqr_eval(plant, K)
        for s in (lyapunov_step_bound(ev.A_cl, plant.B, V, ev.P_K,
                                      plant.Q + K.K.T @ plant.R @ K.K),
                  lyapunov_step_bound(ev.A_cl.T, V.T, plant.B.T, ev.Y_K, plant.Sigma)):
            for eta in (s * float(rng.uniform(1e-6, 1.0)), s):
                steps += 1
                violations += not is_stabilizing_static(plant, K.K + eta * V)
    assert steps == 40_000
    assert violations == 0


def test_connectivity_static_interval():
    # scalar a=0, b=1: stabilizing iff k in (-2, 0); one component
    plant = Plant.create(A=np.array([[0.0]]), B=np.array([[1.0]]))

    def member(pt):
        return is_stabilizing_static(plant, np.array([[pt[0]]]))

    assert connectivity_scan(member, [[-3.0, 1.0]], 101) == 1


def test_connectivity_refuses_small_resolution():
    with pytest.raises(ContractError):
        connectivity_scan(lambda p: True, [[-1.0, 1.0]], 7)


def test_connectivity_refuses_high_dimension():
    with pytest.raises(ContractError):
        connectivity_scan(lambda p: True, [[-1.0, 1.0]] * 5, 9)


def test_sparsity_subspace_contains():
    sub = ConstraintSubspace.sparsity(np.array([[True, False], [False, True]]))
    assert sub.contains(np.diag([1.0, -2.0]))
    assert not sub.contains(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_output_feedback_full_rank_is_everything(rng):
    sub = ConstraintSubspace.output_feedback(np.eye(3), 2)
    assert sub.contains(rng.standard_normal((2, 3)))


def test_landscape_constant_cost():
    s, t, grid = landscape_slice(lambda X: 7.0, np.zeros((2, 2)),
                                 np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]),
                                 [[-1, 1], [-1, 1]], 11)
    assert np.all(grid == 7.0)


def test_landscape_infeasible_sentinel():
    def costfn(X):
        if X[0, 0] > 0:
            raise InfeasibleError("right half infeasible")
        return float(X[0, 0])

    s, t, grid = landscape_slice(costfn, np.zeros((1, 2)),
                                 np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]),
                                 [[-1, 1], [-1, 1]], 11)
    assert np.isinf(grid[-1, 0]) and np.isfinite(grid[0, 0])


def test_landscape_rejects_dependent_directions():
    with pytest.raises(ContractError):
        landscape_slice(lambda X: 0.0, np.zeros((1, 2)),
                        np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]]),
                        [[-1, 1], [-1, 1]], 11)


def test_grid_csv_roundtrip(tmp_path):
    s = np.array([0.0, 1.0])
    t = np.array([0.0, 1.0])
    grid = np.array([[1.0, np.inf], [2.5, 3.0]])
    path = tmp_path / "grid.csv"
    write_grid_csv(path, s, t, grid)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "s,t,value"
    assert len(lines) == 5
    assert lines[2].endswith(",inf")
