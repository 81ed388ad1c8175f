import numpy as np
import pytest

from polgeo import (
    ConstraintSubspace,
    ContractError,
    FixedStep,
    Frobenius,
    LyapunovMetric,
    Plant,
    StaticGain,
    closed_loop_static,
    dare_solve,
    gd_run,
    lqr_eval,
    lqr_grad_euclidean,
    structured_gd_run,
    structured_grad,
    spectral_radius,
    tangential_project,
)
from polgeo import structured
from conftest import (
    certificate_bound,
    random_certified_gain,
    random_stabilizable,
    record_certified_searches,
    record_iterates,
    structured_optimum_reference,
)


@pytest.fixture
def slqr_plant():
    """The 2x2 benchmark with an off-diagonal coupling and swapped inputs."""
    return Plant.create(A=np.array([[0.8, 1.0], [0.0, 0.8]]),
                        B=np.array([[0.0, 1.0], [1.0, 0.0]]))


def diag_gain(plant, d1, d2):
    return StaticGain.certify(plant, np.diag([d1, d2]))


def full_subspace(m, n):
    return ConstraintSubspace.sparsity(np.ones((m, n), dtype=bool))


def test_projection_idempotent(rng):
    plant = random_stabilizable(rng, 3, 2)
    K = random_certified_gain(rng, plant)
    sub = full_subspace(2, 3)
    V = rng.standard_normal((2, 3))
    once = tangential_project(plant, K, V, sub)
    twice = tangential_project(plant, K, once, sub)
    assert np.max(np.abs(once - twice)) < 1e-10


def test_projection_frobenius_masking(rng):
    plant = random_stabilizable(rng, 2, 2)
    K0 = StaticGain.certify(plant, np.zeros((2, 2)))
    mask = np.array([[True, False], [False, True]])
    sub = ConstraintSubspace.sparsity(mask)
    V = rng.standard_normal((2, 2))
    proj = tangential_project(plant, K0, V, sub, Frobenius())
    assert np.allclose(proj, V * mask)


def test_projection_lyapunov_differs_from_masking(rng):
    # correlated Y_K couples the diagonal slots to the masked ones
    A = np.array([[0.5, 0.3], [0.1, 0.4]])
    plant = Plant.create(A=A, B=np.eye(2), Sigma=np.array([[2.0, 0.7], [0.7, 1.0]]))
    K0 = StaticGain.certify(plant, np.zeros((2, 2)))
    sub = ConstraintSubspace.sparsity(np.eye(2, dtype=bool))
    V = rng.standard_normal((2, 2))
    proj = tangential_project(plant, K0, V, sub, LyapunovMetric())
    assert not np.allclose(proj, V * np.eye(2), atol=1e-6)
    # residual is Lyapunov-orthogonal to the unit matrix E_ij of every
    # entry the mask allows
    Y = lqr_eval(plant, K0).Y_K
    resid = V - proj
    for i, j in zip(*np.nonzero(sub.mask)):
        E = np.zeros((2, 2))
        E[i, j] = 1.0
        assert abs(np.trace(E.T @ resid @ Y)) < 1e-10


def test_projection_output_feedback_lyapunov_orthogonal(rng):
    plant = random_stabilizable(rng, 3, 2)
    K = StaticGain.certify(plant, np.zeros((2, 3)))
    Cout = rng.standard_normal((2, 3))
    sub = ConstraintSubspace.output_feedback(Cout, 2)
    V = rng.standard_normal((2, 3))
    proj = tangential_project(plant, K, V, sub, LyapunovMetric())
    assert sub.contains(proj, tol=1e-10)
    # <L Cout, V - proj>_K = tr(Cout^T L^T (V - proj) Y_K) vanishes for all L
    Y = lqr_eval(plant, K).Y_K
    assert np.max(np.abs((V - proj) @ Y @ Cout.T)) < 1e-10


def test_projection_self_adjoint(rng):
    plant = random_stabilizable(rng, 3, 2)
    # zero gain lies in every sparsity subspace
    K = StaticGain.certify(plant, np.zeros((2, 3)))
    mask = rng.random((2, 3)) > 0.3
    mask[0, 0] = True
    sub = ConstraintSubspace.sparsity(mask)
    for metric in (Frobenius(), LyapunovMetric()):
        Y = lqr_eval(plant, K).Y_K
        X = rng.standard_normal((2, 3))
        Z = rng.standard_normal((2, 3))
        pX = tangential_project(plant, K, X, sub, metric)
        pZ = tangential_project(plant, K, Z, sub, metric)
        if isinstance(metric, Frobenius):
            lhs = np.sum(pX * Z)
            rhs = np.sum(X * pZ)
        else:
            lhs = np.trace(pX.T @ Z @ Y)
            rhs = np.trace(X.T @ pZ @ Y)
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(rhs))


def test_projection_requires_membership(rng):
    plant = random_stabilizable(rng, 2, 2)
    K = StaticGain.certify(plant, np.array([[0.0, 0.1], [0.0, 0.0]]))
    sub = ConstraintSubspace.sparsity(np.eye(2, dtype=bool))
    with pytest.raises(ContractError):
        tangential_project(plant, K, np.eye(2), sub)


def test_structured_grad_full_space_matches_unconstrained(rng):
    plant = random_stabilizable(rng, 3, 2)
    K = random_certified_gain(rng, plant)
    sub = full_subspace(2, 3)
    g = structured_grad(plant, K, sub, Frobenius())
    assert np.max(np.abs(g - lqr_grad_euclidean(plant, K))) < 1e-10


def test_structured_grad_vs_fd_diagonal(slqr_plant):
    # FD gradient of J restricted to the two diagonal coordinates
    sub = ConstraintSubspace.sparsity(np.eye(2, dtype=bool))
    K = diag_gain(slqr_plant, -0.5, -0.5)
    g = structured_grad(slqr_plant, K, sub, Frobenius())
    h = 1e-6

    def J_of(d1, d2):
        return lqr_eval(slqr_plant, StaticGain(np.diag([d1, d2]), True)).J

    fd = np.diag([
        (J_of(-0.5 + h, -0.5) - J_of(-0.5 - h, -0.5)) / (2 * h),
        (J_of(-0.5, -0.5 + h) - J_of(-0.5, -0.5 - h)) / (2 * h),
    ])
    assert np.max(np.abs(g - fd)) <= 1e-5 * (1.0 + np.max(np.abs(fd)))


def test_structured_gd_full_space_bit_for_bit(rng):
    plant = random_stabilizable(rng, 2, 2)
    K0 = random_certified_gain(rng, plant)
    sub = full_subspace(2, 2)
    K1, tr1 = gd_run(plant, K0, direction="euclidean", tol=1e-8, max_iter=200)
    K2, tr2 = structured_gd_run(plant, K0, sub, metric=Frobenius(),
                                tol=1e-8, max_iter=200)
    assert np.array_equal(K1.K, K2.K)
    assert tr1 == tr2


def test_structured_gd_output_feedback_identity(rng):
    plant = random_stabilizable(rng, 2, 2)
    K0 = random_certified_gain(rng, plant)
    sub = ConstraintSubspace.output_feedback(np.eye(2), 2)
    K1, _ = gd_run(plant, K0, direction="euclidean", tol=1e-8, max_iter=200)
    K2, _ = structured_gd_run(plant, K0, sub, metric=Frobenius(),
                              tol=1e-8, max_iter=200)
    assert np.max(np.abs(K1.K - K2.K)) < 1e-7


def test_structured_gd_diagonal_beats_raster(slqr_plant):
    sub = ConstraintSubspace.sparsity(np.eye(2, dtype=bool))
    K0 = diag_gain(slqr_plant, -0.5, -0.5)
    K, trace = structured_gd_run(slqr_plant, K0, sub, tol=1e-6, max_iter=5000)
    assert trace[-1].grad_norm <= 1e-6
    J_final = trace[-1].J
    # exhaustive raster of the diagonal feasible set, evaluated through the
    # independent eigvals + Kronecker route rather than the library path
    from conftest import kron_lyap
    A, B = slqr_plant.A, slqr_plant.B
    vals = np.linspace(-3.0, 3.0, 201)
    best = np.inf
    for d1 in vals:
        for d2 in vals:
            Kd = np.diag([d1, d2])
            Acl = A + B @ Kd
            if np.max(np.abs(np.linalg.eigvals(Acl))) >= 1.0:
                continue
            Y = kron_lyap(Acl, np.eye(2))
            J = 0.5 * float(np.trace((np.eye(2) + Kd.T @ Kd) @ Y))
            best = min(best, J)
    assert J_final <= best + 1e-9


@pytest.mark.parametrize("metric", [Frobenius(), LyapunovMetric()])
def test_structured_trace_rho_is_the_iterates(slqr_plant, monkeypatch, metric):
    # a step of 2 is halved on most iterations; each record's rho must be
    # its iterate's, not a rejected candidate's
    sub = ConstraintSubspace.sparsity(np.eye(2, dtype=bool))
    iterates = record_iterates(monkeypatch, structured, "structured_grad")
    _, trace = structured_gd_run(slqr_plant, diag_gain(slqr_plant, -0.3, -0.3), sub,
                                 metric=metric, step_rule=FixedStep(eta=2.0),
                                 tol=1e-8, max_iter=300)
    assert any(rec.step < 2.0 for rec in trace[:-1])
    assert [rec.rho for rec in trace] == [
        spectral_radius(closed_loop_static(slqr_plant, K.K)) for K in iterates]


@pytest.mark.parametrize("metric", [Frobenius(), LyapunovMetric()])
def test_structured_first_step_within_certificate(slqr_plant, monkeypatch, metric):
    # the warm-started first step of every line search stays within the
    # certified bound min(cap, s) of its evaluation, and below it on some
    sub = ConstraintSubspace.sparsity(np.eye(2, dtype=bool))
    pairs, steps = record_certified_searches(monkeypatch)
    structured_gd_run(slqr_plant, diag_gain(slqr_plant, -0.3, -0.3), sub,
                      metric=metric, tol=1e-9, max_iter=2000)
    bounds = [certificate_bound(slqr_plant, K, V, 1.0) for K, V in pairs]
    assert len(steps) == len(bounds) > 1
    assert all(eta <= b * (1 + 1e-9) for eta, b in zip(steps, bounds))
    assert any(eta < 0.99 * b for eta, b in zip(steps, bounds))


def test_structured_iterates_stay_masked(slqr_plant):
    sub = ConstraintSubspace.sparsity(np.eye(2, dtype=bool))
    K0 = diag_gain(slqr_plant, -0.5, -0.5)
    K, _ = structured_gd_run(slqr_plant, K0, sub, metric=LyapunovMetric(),
                             tol=1e-6, max_iter=2000)
    assert K.K[0, 1] == 0.0 and K.K[1, 0] == 0.0


def test_structured_stationary_point_grad_zero(slqr_plant):
    # the run stops on its gradient norm or at round-off (near 1e-7 here,
    # where J's decrement falls below its round-off), in either case next to
    # the stationary point Newton's method finds on the diagonal
    mask = np.eye(2, dtype=bool)
    sub = ConstraintSubspace.sparsity(mask)
    K0 = diag_gain(slqr_plant, -0.5, -0.5)
    K, trace = structured_gd_run(slqr_plant, K0, sub, tol=1e-7, max_iter=5000)
    assert trace[-1].iter < 5000 and trace[-1].step == 0.0
    g = structured_grad(slqr_plant, K, sub, Frobenius())
    if trace[-1].grad_norm <= 1e-7:
        assert np.linalg.norm(g) <= 1e-7
    K_star = structured_optimum_reference(slqr_plant, mask, K0.K)
    assert np.linalg.norm(structured_grad(slqr_plant, StaticGain(K_star, True), sub)) <= 1e-13
    assert np.linalg.norm(K.K - K_star) <= 2e-8
