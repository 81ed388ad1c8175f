import itertools
import math
import warnings

import numpy as np
import pytest

from polgeo import (
    ContractError,
    DynamicPolicy,
    GramianSingularError,
    InfeasibleError,
    InternalInvariantError,
    Plant,
    closed_loop_matrix_dynamic,
    dlyap,
    gramians,
    is_minimal,
    is_stabilizing_dynamic,
    km_grad,
    km_inner,
    lqg_eval,
    lqg_gd_run,
    lqg_grad,
    saddle_policy,
    similarity_transform,
    spectral_radius,
    transform_tangent,
)
from polgeo import lqg
from conftest import (
    km_grad_by_basis,
    kron_lyap,
    lqg_bound_reference,
    record_first_steps,
    record_iterates,
)

SADDLE_J = 5.263157894736842  # 1 / (1 - 0.81)

# (n, q, m, p): q < n and m, p > 1 fix the orientation of the Kronecker blocks
KM_SHAPES = [(2, 2, 1, 1), (3, 3, 2, 2), (4, 2, 2, 3)]
KM_WEIGHTS = [(1.0, 1.0, 1.0), (2.0, 0.5, 0.0), (1.0, 0.0, 3.0)]


def random_plant(rng, n=2, m=1, p=1, scale=0.4):
    A = rng.standard_normal((n, n))
    A *= scale / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-9)
    return Plant.create(A=A, B=rng.standard_normal((n, m)),
                        C=rng.standard_normal((p, n)))


def random_minimal_policy(rng, plant, q=None, scale=0.2, tries=100):
    q = plant.n if q is None else q
    for _ in range(tries):
        Kd = DynamicPolicy.create(rng.standard_normal((q, q)) * scale,
                                  rng.standard_normal((q, plant.p)) * scale,
                                  rng.standard_normal((plant.m, q)) * scale)
        if is_stabilizing_dynamic(plant, Kd) and is_minimal(Kd):
            return Kd
    raise RuntimeError("no minimal stabilizing policy found")


def random_tangent(rng, q, p, m):
    return (rng.standard_normal((q, q)), rng.standard_normal((q, p)),
            rng.standard_normal((m, q)))


def policy_J(plant, Kd):
    return lqg_eval(plant, Kd).J


def test_eval_zero_policy_value(ab09_plant):
    Kd = saddle_policy(ab09_plant, np.array([[-0.1753]]))
    assert abs(lqg_eval(ab09_plant, Kd).J - SADDLE_J) < 1e-9


def test_eval_rejects_unstable():
    # in the second case the controller mode 1.5 is reached by neither the
    # noise nor the weight (B_K = C_K = 0): only dlyap's bound on the powers
    # of A_cl sees it
    cases = [(Plant.create(A=np.array([[1.1]]), B=np.array([[1.0]])),
              DynamicPolicy.create([[0.0]], [[0.0]], [[0.0]])),
             (Plant.create(A=np.array([[0.5]]), B=np.array([[1.0]])),
              DynamicPolicy.create([[1.5]], [[0.0]], [[0.0]]))]
    for plant, Kd in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleError):
                lqg_eval(plant, Kd)
            with pytest.raises(InfeasibleError):
                gramians(plant, Kd)


def test_eval_with_Z_solves_a_third_side(rng):
    # with_Z adds Z = L(A_cl^T, I) to the doubling and leaves J, X and Y
    # as they are, to the bit
    for _ in range(10):
        plant = random_plant(rng)
        Kd = random_minimal_policy(rng, plant)
        ev, evZ = lqg_eval(plant, Kd), lqg_eval(plant, Kd, with_Z=True)
        assert ev.Z is None
        assert evZ.J == ev.J and np.array_equal(evZ.X, ev.X) and np.array_equal(evZ.Y, ev.Y)
        Z = kron_lyap(evZ.A_cl.T, np.eye(len(evZ.A_cl)))
        assert np.max(np.abs(evZ.Z - Z)) <= 1e-10 * (1.0 + np.max(np.abs(Z)))


def test_eval_dual_cost_mismatch_is_internal_invariant(ab09_plant, lqg_dual_cost_mismatch):
    Kd = DynamicPolicy.create([[0.5]], [[0.0]], [[0.0]])
    with pytest.raises(InternalInvariantError, match="dual cost"):
        lqg_eval(ab09_plant, Kd)


def test_eval_similarity_invariance(rng):
    plant = random_plant(rng)
    Kd = random_minimal_policy(rng, plant)
    J0 = policy_J(plant, Kd)
    for _ in range(100):
        T = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
        if np.linalg.cond(T) > 1e3:
            continue
        assert abs(policy_J(plant, similarity_transform(Kd, T)) - J0) <= 1e-8 * (1 + J0)


def test_eval_matches_monte_carlo(ab09_plant, rng):
    # long-run average stage cost of the simulated closed loop
    Kd = DynamicPolicy.create(np.array([[0.1]]), np.array([[0.2]]), np.array([[-0.3]]))
    ev = lqg_eval(ab09_plant, Kd)
    steps = 100_000
    z = np.zeros(2)
    total = 0.0
    costs = []
    for t in range(steps):
        w = rng.standard_normal()
        v = rng.standard_normal()
        x, xi = z
        y = x + v
        u = -0.3 * xi
        cost = x * x + u * u
        total += cost
        costs.append(cost)
        z = np.array([0.9 * x + u + w, 0.1 * xi + 0.2 * y])
    mean = total / steps
    se = np.std(costs) / np.sqrt(steps)
    assert abs(mean - ev.J) <= 3.0 * se


def test_grad_zero_at_saddle(ab09_plant):
    Kd = saddle_policy(ab09_plant, np.array([[-0.1753]]))
    g = lqg_grad(ab09_plant, Kd)
    assert max(np.max(np.abs(x)) for x in g) <= 1e-9


def test_grad_zero_at_saddle_any_stable_lambda():
    plant = Plant.create(A=np.array([[0.5]]), B=np.array([[1.0]]))
    g = lqg_grad(plant, saddle_policy(plant, np.array([[0.3]])))
    assert max(np.max(np.abs(x)) for x in g) <= 1e-9


def test_grad_vs_fd(rng):
    h = 1e-6
    for _ in range(10):
        plant = random_plant(rng)
        Kd = random_minimal_policy(rng, plant)
        dA, dB, dC = lqg_grad(plant, Kd)
        parts = {"A": (Kd.A_K, dA), "B": (Kd.B_K, dB), "C": (Kd.C_K, dC)}
        for name, (M, an) in parts.items():
            fd = np.zeros_like(M)
            for idx in np.ndindex(*M.shape):
                def shifted(s):
                    blocks = {"A": Kd.A_K.copy(), "B": Kd.B_K.copy(),
                              "C": Kd.C_K.copy()}
                    blocks[name][idx] += s
                    return DynamicPolicy(A_K=blocks["A"], B_K=blocks["B"],
                                         C_K=blocks["C"])
                fd[idx] = (policy_J(plant, shifted(h))
                           - policy_J(plant, shifted(-h))) / (2 * h)
            assert np.max(np.abs(fd - an)) <= 1e-5 * (1.0 + np.max(np.abs(fd)))


def test_plain_gradient_not_equivariant(rng):
    # the raw partials do not transform like tangent vectors
    plant = random_plant(rng)
    Kd = random_minimal_policy(rng, plant)
    T = np.array([[5.0, 1.0], [0.0, 0.2]])
    g = lqg_grad(plant, Kd)
    gT = lqg_grad(plant, similarity_transform(Kd, T))
    moved = transform_tangent(g, T)
    diff = max(np.max(np.abs(a - b)) for a, b in zip(moved, gT))
    assert diff > 1e-6


def test_similarity_identity_and_composition(rng):
    Kd = DynamicPolicy.create(rng.standard_normal((2, 2)),
                              rng.standard_normal((2, 1)),
                              rng.standard_normal((1, 2)))
    same = similarity_transform(Kd, np.eye(2))
    assert np.allclose(same.A_K, Kd.A_K) and np.allclose(same.B_K, Kd.B_K)
    S = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    T = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    lhs = similarity_transform(similarity_transform(Kd, T), S)
    rhs = similarity_transform(Kd, S @ T)
    for a, b in [(lhs.A_K, rhs.A_K), (lhs.B_K, rhs.B_K), (lhs.C_K, rhs.C_K)]:
        assert np.max(np.abs(a - b)) < 1e-12 * (1.0 + np.max(np.abs(b)))


def test_similarity_preserves_stability(rng):
    plant = random_plant(rng)
    Kd = random_minimal_policy(rng, plant)
    for _ in range(100):
        T = rng.standard_normal((2, 2)) + 2.5 * np.eye(2)
        assert is_stabilizing_dynamic(plant, similarity_transform(Kd, T))


def test_similarity_rejects_singular(rng):
    Kd = DynamicPolicy.create(np.zeros((2, 2)), np.ones((2, 1)), np.ones((1, 2)))
    with pytest.raises(ContractError):
        similarity_transform(Kd, np.ones((2, 2)))
    with pytest.raises(ContractError):
        transform_tangent(random_tangent(rng, 2, 1, 1), np.ones((2, 2)))


def test_minimality_cases(rng):
    q = 2
    Kd = DynamicPolicy.create(np.diag([0.1, 0.2]), np.zeros((q, 1)), np.ones((1, q)))
    assert not is_minimal(Kd)
    scalar = DynamicPolicy.create(np.array([[0.3]]), np.array([[1.0]]),
                                  np.array([[2.0]]))
    assert is_minimal(scalar)
    plant = random_plant(rng)
    good = random_minimal_policy(rng, plant)
    broken = DynamicPolicy(A_K=good.A_K, B_K=good.B_K,
                           C_K=np.zeros_like(good.C_K))
    assert is_minimal(good) and not is_minimal(broken)


def test_saddle_rejects_unstable_inputs(ab09_plant):
    with pytest.raises(ContractError):
        saddle_policy(ab09_plant, np.array([[1.2]]))
    unstable_plant = Plant.create(A=np.array([[1.1]]), B=np.array([[1.0]]))
    with pytest.raises(ContractError):
        saddle_policy(unstable_plant, np.array([[0.0]]))
    # inside the membership test's margin
    with pytest.raises(ContractError):
        saddle_policy(ab09_plant, np.array([[1.0 - 1e-13]]))


def test_saddle_curvature_both_signs(ab09_plant, rng):
    # FD curvature probe along (0, dB, dC) directions finds both signs
    Kd = saddle_policy(ab09_plant, np.array([[-0.1753]]))
    h = 1e-3
    signs = set()
    J0 = policy_J(ab09_plant, Kd)
    for _ in range(200):
        db, dc = rng.standard_normal(2)
        shift = DynamicPolicy(A_K=Kd.A_K,
                              B_K=Kd.B_K + h * np.array([[db]]),
                              C_K=Kd.C_K + h * np.array([[dc]]))
        shift2 = DynamicPolicy(A_K=Kd.A_K,
                               B_K=Kd.B_K - h * np.array([[db]]),
                               C_K=Kd.C_K - h * np.array([[dc]]))
        curv = policy_J(ab09_plant, shift) + policy_J(ab09_plant, shift2) - 2 * J0
        if curv > 1e-10:
            signs.add(1)
        elif curv < -1e-10:
            signs.add(-1)
    assert signs == {1, -1}


def test_gramians_error_on_nonminimal(ab09_plant):
    Kd = DynamicPolicy.create(np.array([[0.1]]), np.zeros((1, 1)), np.array([[0.5]]))
    with pytest.raises(GramianSingularError):
        gramians(ab09_plant, Kd)


def test_gramians_vs_kron_oracle(ab09_plant, rng):
    Kd = DynamicPolicy.create(np.array([[0.1]]), np.array([[0.2]]), np.array([[-0.3]]))
    Wc, Wo = gramians(ab09_plant, Kd)
    Acl = closed_loop_matrix_dynamic(ab09_plant, Kd)
    Bcl = np.array([[1.0, 0.0], [0.0, 0.2]])
    Ccl = np.array([[1.0, 0.0], [0.0, -0.3]])
    assert np.max(np.abs(Wc - kron_lyap(Acl, Bcl @ Bcl.T))) < 1e-9
    assert np.max(np.abs(Wo - kron_lyap(Acl.T, Ccl.T @ Ccl))) < 1e-9


def test_gramian_trace_duality(ab09_plant):
    Kd = DynamicPolicy.create(np.array([[0.1]]), np.array([[0.2]]), np.array([[-0.3]]))
    Wc, Wo = gramians(ab09_plant, Kd)
    Acl = closed_loop_matrix_dynamic(ab09_plant, Kd)
    Bcl = np.array([[1.0, 0.0], [0.0, 0.2]])
    Ccl = np.array([[1.0, 0.0], [0.0, -0.3]])
    lhs = float(np.trace(Wo @ (Bcl @ Bcl.T)))
    rhs = float(np.trace(Wc @ (Ccl.T @ Ccl)))
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


def test_km_inner_basic_properties(rng):
    plant = random_plant(rng)
    Kd = random_minimal_policy(rng, plant)
    zero = tuple(np.zeros_like(x) for x in random_tangent(rng, 2, 1, 1))
    assert km_inner(plant, Kd, zero, zero) == 0.0
    V1 = random_tangent(rng, 2, 1, 1)
    V2 = random_tangent(rng, 2, 1, 1)
    a = km_inner(plant, Kd, V1, V2)
    b = km_inner(plant, Kd, V2, V1)
    assert abs(a - b) < 1e-12 * (1.0 + abs(a))
    assert km_inner(plant, Kd, V1, V1) > 0.0


def test_km_inner_similarity_invariance(rng):
    plant = random_plant(rng)
    Kd = random_minimal_policy(rng, plant)
    V1 = random_tangent(rng, 2, 1, 1)
    V2 = random_tangent(rng, 2, 1, 1)
    base = km_inner(plant, Kd, V1, V2)
    for _ in range(20):
        T = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
        if np.linalg.cond(T) > 1e3:
            continue
        moved = km_inner(plant, similarity_transform(Kd, T),
                         transform_tangent(V1, T), transform_tangent(V2, T))
        assert abs(moved - base) <= 1e-8 * (1.0 + abs(base))


def test_km_inner_rejects_bad_weights(rng):
    plant = random_plant(rng)
    Kd = random_minimal_policy(rng, plant)
    V = random_tangent(rng, 2, 1, 1)
    with pytest.raises(ContractError):
        km_inner(plant, Kd, V, V, weights=(0.0, 1.0, 1.0))
    with pytest.raises(ContractError):
        km_grad(plant, Kd, weights=(0.0, 1.0, 1.0))


def test_km_grad_defining_property(rng):
    for (n, q, m, p), weights in itertools.product(KM_SHAPES, KM_WEIGHTS):
        plant = random_plant(rng, n, m, p)
        Kd = random_minimal_policy(rng, plant, q)
        g = km_grad(plant, Kd, weights)
        eg = lqg_grad(plant, Kd)
        for _ in range(50):
            W = random_tangent(rng, q, p, m)
            lhs = km_inner(plant, Kd, g, W, weights)
            rhs = sum(float(np.sum(a * b)) for a, b in zip(eg, W))
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))


@pytest.mark.parametrize("weights", KM_WEIGHTS)
@pytest.mark.parametrize("shape", KM_SHAPES)
def test_km_grad_matches_basis_reference(rng, shape, weights):
    n, q, m, p = shape
    plant = random_plant(rng, n, m, p)
    Kd = random_minimal_policy(rng, plant, q)
    g = km_grad(plant, Kd, weights)
    ref = km_grad_by_basis(plant, Kd, weights)
    scale = max(np.max(np.abs(x)) for x in ref)
    assert max(np.max(np.abs(a - b)) for a, b in zip(g, ref)) <= 1e-10 * scale


def test_km_grad_equivariance(rng):
    plant = random_plant(rng)
    Kd = random_minimal_policy(rng, plant)
    g = km_grad(plant, Kd)
    checked = 0
    for _ in range(100):
        T = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
        if np.linalg.cond(T) > 1e3:
            continue
        gT = km_grad(plant, similarity_transform(Kd, T))
        moved = transform_tangent(g, T)
        scale = 1.0 + max(np.max(np.abs(x)) for x in gT)
        assert max(np.max(np.abs(a - b)) for a, b in zip(moved, gT)) <= 1e-6 * scale
        checked += 1
    assert checked >= 50


def test_lqg_gd_escapes_saddle(ab09_plant, rng):
    Kd0 = DynamicPolicy.create(np.array([[-0.1753]]),
                               1e-3 * rng.standard_normal((1, 1)),
                               1e-3 * rng.standard_normal((1, 1)))
    Kd, trace, minimal = lqg_gd_run(ab09_plant, Kd0, mode="euclidean",
                                    tol=1e-7, max_iter=3000)
    assert trace[-1].J < SADDLE_J - 1e-3
    # the warm start regrows: the ratio alone took 1095 iterations here
    assert len(trace) <= 300


@pytest.mark.parametrize("mode", ["euclidean", "km_riemannian"])
def test_lqg_gd_trace_rho_is_the_iterates(ab09_plant, monkeypatch, mode):
    # a step of 2 is halved on most iterations; each record's rho must be
    # its iterate's, not a rejected candidate's (km_grad calls lqg_grad once)
    Kd0 = DynamicPolicy.create([[0.5]], [[0.3]], [[-0.2]])
    iterates = record_iterates(monkeypatch, lqg, "lqg_grad")
    _, trace, _ = lqg_gd_run(ab09_plant, Kd0, mode=mode, alpha=2.0, tol=1e-8,
                             max_iter=300)
    assert any(rec.step < 2.0 for rec in trace[:-1])
    assert [rec.rho for rec in trace] == [
        spectral_radius(closed_loop_matrix_dynamic(ab09_plant, Kd)) for Kd in iterates]


@pytest.mark.parametrize("mode", ["euclidean", "km_riemannian"])
def test_lqg_gd_tries_alpha_first(ab09_plant, monkeypatch, mode):
    # KM descent tries alpha first on every line search. Euclidean descent
    # starts at the certified min(alpha, s) and warm-starts later searches,
    # so no first step exceeds min(alpha, s) of its iterate, nor alpha
    iterates = record_iterates(monkeypatch, lqg, "lqg_grad")
    steps = record_first_steps(monkeypatch)
    _, trace, _ = lqg_gd_run(ab09_plant, DynamicPolicy.create([[0.5]], [[0.3]], [[-0.2]]),
                             mode=mode, alpha=2.0, tol=1e-8, max_iter=300)
    assert len(steps) >= len(trace) - 1 > 0
    if mode == "km_riemannian":
        assert set(steps) == {2.0}
        return
    bounds = [lqg_bound_reference(ab09_plant, Kd, tuple(-x for x in lqg_grad(ab09_plant, Kd)),
                                  2.0) for Kd in iterates[:len(steps)]]
    assert steps[0] == pytest.approx(bounds[0], rel=1e-9)
    assert all(eta <= b * (1 + 1e-9) for eta, b in zip(steps, bounds))
    assert max(steps) <= 2.0 and min(bounds) < 2.0


def test_lqg_certified_step_safety():
    # modelled on criterion 5: every step up to and including the certified
    # bound s, along a random tangent of a random stabilizing dynamic policy,
    # keeps the closed loop stabilizing
    rng = np.random.default_rng(24)
    steps = violations = 0
    for _ in range(1500):
        n, q = (int(x) for x in rng.integers(1, 5, size=2))
        m, p = (int(x) for x in rng.integers(1, 3, size=2))
        plant = random_plant(rng, n, m, p, scale=float(rng.uniform(0.1, 0.95)))
        scale = float(rng.uniform(0.1, 1.0))
        while True:
            Kd = DynamicPolicy.create(*(scale * x for x in random_tangent(rng, q, p, m)))
            if is_stabilizing_dynamic(plant, Kd):
                break
            scale *= 0.5
        V = tuple(float(rng.uniform(0.1, 3.0)) * x for x in random_tangent(rng, q, p, m))
        s = lqg.certified_step(plant, V, lqg_eval(plant, Kd, with_Z=True), math.inf)
        for eta in (s * float(rng.uniform(1e-6, 1.0)), s):
            steps += 1
            violations += not is_stabilizing_dynamic(plant, lqg._policy_add(Kd, V, eta))
    assert steps == 3000
    assert violations == 0


def test_lqg_gd_terminates_at_transformed_optimum(rng):
    # run KM descent to a stationary point, transform, restart: immediate stop.
    # The run may stop at round-off short of its tol; the restart's tol of
    # 1e-6 decides whether it is stationary
    plant = random_plant(rng)
    Kd0 = random_minimal_policy(rng, plant)
    Kd, trace, minimal = lqg_gd_run(plant, Kd0, mode="km_riemannian",
                                    tol=1e-7, max_iter=4000)
    if trace[-1].grad_norm <= 1e-6:
        T = np.array([[1.3, 0.2], [0.0, 0.8]])
        moved = similarity_transform(Kd, T)
        _, trace2, _ = lqg_gd_run(plant, moved, mode="km_riemannian",
                                  tol=1e-6, max_iter=50)
        assert trace2[-1].iter <= 2


def test_lqg_km_trajectories_equivariant(rng):
    plant = random_plant(rng)
    Kd0 = random_minimal_policy(rng, plant)
    T = np.array([[1.2, 0.3], [-0.1, 0.9]])
    Kd0T = similarity_transform(Kd0, T)
    K1, tr1, _ = lqg_gd_run(plant, Kd0, mode="km_riemannian", alpha=0.1,
                            tol=0.0, max_iter=20)
    K2, tr2, _ = lqg_gd_run(plant, Kd0T, mode="km_riemannian", alpha=0.1,
                            tol=0.0, max_iter=20)
    moved = similarity_transform(K1, T)
    scale = 1.0 + max(np.max(np.abs(x)) for x in (K2.A_K, K2.B_K, K2.C_K))
    assert np.max(np.abs(moved.A_K - K2.A_K)) <= 1e-5 * scale
    assert np.max(np.abs(moved.B_K - K2.B_K)) <= 1e-5 * scale
    assert np.max(np.abs(moved.C_K - K2.C_K)) <= 1e-5 * scale
