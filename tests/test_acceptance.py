"""End-to-end acceptance checks. Each test covers one numbered criterion and
prints a single pass/fail line (visible with pytest -s; the pytest verdict
line carries the same information otherwise).
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from polgeo import (
    CertificateStep,
    DynamicPolicy,
    Plant,
    StaticGain,
    ZoConfig,
    closed_loop_static,
    connectivity_scan,
    dare_solve,
    dlyap,
    gd_run,
    hewer_step,
    hinf_cost,
    hinf_descent_run,
    is_stabilizing_dynamic,
    is_stabilizing_static,
    lqg_eval,
    lqg_gd_run,
    lqg_grad,
    lqr_eval,
    lqr_grad_euclidean,
    lqr_grad_riemannian,
    lqr_hvp_euclidean,
    lqr_hvp_pseudo,
    saddle_policy,
    similarity_transform,
    spectral_radius,
    stability_certificate,
    structured_gd_run,
    structured_grad,
    transform_tangent,
    zo_grad_two_point,
    zo_gd_run,
)
from polgeo import cli
from polgeo.policy_core import ConstraintSubspace, Frobenius
from polgeo.lqg import km_grad
from conftest import kron_lyap, lyap_trace_check, random_certified_gain, random_stabilizable


@contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def scalar_plant():
    return Plant.create(A=np.array([[1.0]]), B=np.array([[1.0]]))


def ab09_plant():
    return Plant.create(A=np.array([[0.9]]), B=np.array([[1.0]]))


def test_criterion_01_scalar_lqr_endpoint():
    with verdict("criterion 1 scalar LQR gradient-descent endpoint"):
        plant = scalar_plant()
        K0 = StaticGain.certify(plant, np.array([[-1.0]]))
        start = time.perf_counter()
        K, trace = gd_run(plant, K0, direction="euclidean",
                          step_rule=CertificateStep(), tol=1e-8, max_iter=500)
        elapsed = time.perf_counter() - start
        assert abs(K.K[0, 0] + 0.6180340) <= 1e-6
        assert trace[-1].iter <= 500
        assert elapsed < 1.0


def test_criterion_02_hewer_quadratic_convergence():
    with verdict("criterion 2 Hewer iteration quadratic convergence"):
        # exact rational recurrence as the oracle; sqrt(5) to 120 digits
        sqrt5 = Fraction(isqrt(5 * 10 ** 240), 10 ** 120)
        kstar = (1 - sqrt5) / 2

        def step_exact(k):
            p = (1 + k * k) / (1 - (1 + k) ** 2)
            return -p / (1 + p)

        exact = [Fraction(-1)]
        for _ in range(7):
            exact.append(step_exact(exact[-1]))
        assert exact[1] == Fraction(-2, 3)
        assert exact[2] == Fraction(-13, 21)

        plant = scalar_plant()
        K = StaticGain.certify(plant, np.array([[-1.0]]))
        for t in range(1, 7):
            K = hewer_step(plant, K)
            assert abs(K.K[0, 0] - float(exact[t])) <= 1e-9

        errors = [abs(k - kstar) for k in exact]
        for t in range(6):
            ratio = errors[t + 1] / (errors[t] ** 2)
            assert float(ratio) <= 10.0


def test_criterion_03_gradients_and_hvps_vs_fd():
    with verdict("criterion 3 gradient/HVP finite-difference agreement"):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            plant = random_stabilizable(rng, n, m)
            K = random_certified_gain(rng, plant)

            def J_of(Km):
                return lqr_eval(plant, StaticGain(Km, True)).J

            g = lqr_grad_euclidean(plant, K)
            fd = np.zeros_like(g)
            for idx in np.ndindex(*K.K.shape):
                Kp, Km_ = K.K.copy(), K.K.copy()
                Kp[idx] += h
                Km_[idx] -= h
                fd[idx] = (J_of(Kp) - J_of(Km_)) / (2 * h)
            assert np.max(np.abs(g - fd)) <= 1e-5 * (1.0 + np.max(np.abs(fd)))

            V = rng.standard_normal(K.K.shape)
            Kp = StaticGain(K.K + h * V, True)
            Km = StaticGain(K.K - h * V, True)
            fd_r = (lqr_grad_riemannian(plant, Kp)
                    - lqr_grad_riemannian(plant, Km)) / (2 * h)
            hv = lqr_hvp_pseudo(plant, K, V)
            assert np.max(np.abs(hv - fd_r)) <= 1e-5 * (1.0 + np.max(np.abs(fd_r)))

            fd_e = (lqr_grad_euclidean(plant, Kp)
                    - lqr_grad_euclidean(plant, Km)) / (2 * h)
            hve = lqr_hvp_euclidean(plant, K, V)
            assert np.max(np.abs(hve - fd_e)) <= 1e-5 * (1.0 + np.max(np.abs(fd_e)))

        # dynamic output-feedback gradient on its own batch of 100 instances
        from test_lqg import random_minimal_policy, random_plant
        for i in range(100):
            m = 1 + (i % 2)
            p = 1 + ((i // 2) % 2)
            plant = random_plant(rng, n=2, m=m, p=p)
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
                    fd[idx] = (lqg_eval(plant, shifted(h)).J
                               - lqg_eval(plant, shifted(-h)).J) / (2 * h)
                assert np.max(np.abs(fd - an)) <= 1e-5 * (1.0 + np.max(np.abs(fd)))


def test_criterion_04_lyapunov_layer():
    with verdict("criterion 4 Lyapunov solver agreement and trace identity"):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            A = rng.standard_normal((n, n))
            A *= float(rng.uniform(0.1, 0.95)) / max(
                np.max(np.abs(np.linalg.eigvals(A))), 1e-9)
            M = rng.standard_normal((n, n))
            Q = M @ M.T
            S = rng.standard_normal((n, n))
            S = S @ S.T
            P = dlyap(A, Q).P
            P_kron = kron_lyap(A, Q)
            assert (np.max(np.abs(P - P_kron))
                    <= 1e-9 * (1.0 + np.max(np.abs(P_kron))))
            assert lyap_trace_check(A, Q, S) <= 1e-10


def test_criterion_05_certificate_safety():
    with verdict("criterion 5 step-size certificate safety (10^4 samples)"):
        rng = np.random.default_rng(5)
        violations = 0
        for _ in range(10_000):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            plant = random_stabilizable(rng, n, m)
            K = random_certified_gain(rng, plant)
            V = rng.standard_normal((m, n)) * float(rng.uniform(0.1, 3.0))
            s = stability_certificate(plant, K, V)
            if not np.isfinite(s):
                continue
            eta = s * float(rng.uniform(1e-6, 1.0))
            if not is_stabilizing_static(plant, K.K + eta * V):
                violations += 1
        assert violations == 0


def test_criterion_06_lqg_saddle():
    with verdict("criterion 6 dynamic output-feedback saddle point"):
        plant = ab09_plant()
        Kd = saddle_policy(plant, np.array([[-0.1753]]))
        g = lqg_grad(plant, Kd)
        assert max(np.max(np.abs(x)) for x in g) <= 1e-9
        J0 = lqg_eval(plant, Kd).J
        assert abs(J0 - 5.263158) <= 1e-6

        rng = np.random.default_rng(6)
        hstep = 1e-3
        signs = set()
        for _ in range(200):
            da, db, dc = rng.standard_normal(3)
            def shifted(s):
                return DynamicPolicy(A_K=Kd.A_K + s * np.array([[da]]),
                                     B_K=Kd.B_K + s * np.array([[db]]),
                                     C_K=Kd.C_K + s * np.array([[dc]]))
            curv = (lqg_eval(plant, shifted(hstep)).J
                    + lqg_eval(plant, shifted(-hstep)).J - 2 * J0)
            if curv > 1e-10:
                signs.add(1)
            elif curv < -1e-10:
                signs.add(-1)
        assert signs == {1, -1}


def test_criterion_07_similarity_structure():
    with verdict("criterion 7 similarity invariance and equivariance"):
        from test_lqg import random_minimal_policy, random_plant
        rng = np.random.default_rng(11)
        plant = random_plant(rng)
        Kd = random_minimal_policy(rng, plant)
        J0 = lqg_eval(plant, Kd).J
        g = km_grad(plant, Kd)
        checked = 0
        while checked < 100:
            T = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
            if np.linalg.cond(T) > 1e3:
                continue
            moved = similarity_transform(Kd, T)
            assert abs(lqg_eval(plant, moved).J - J0) <= 1e-8 * (1.0 + J0)
            gT = km_grad(plant, moved)
            pushed = transform_tangent(g, T)
            scale = 1.0 + max(np.max(np.abs(x)) for x in gT)
            assert (max(np.max(np.abs(a - b)) for a, b in zip(pushed, gT))
                    <= 1e-6 * scale)
            checked += 1

        T = np.array([[1.2, 0.3], [-0.1, 0.9]])
        KdT = similarity_transform(Kd, T)
        K1, _, _ = lqg_gd_run(plant, Kd, mode="km_riemannian", alpha=0.1,
                              tol=0.0, max_iter=20)
        K2, _, _ = lqg_gd_run(plant, KdT, mode="km_riemannian", alpha=0.1,
                              tol=0.0, max_iter=20)
        moved = similarity_transform(K1, T)
        scale = 1.0 + max(np.max(np.abs(x)) for x in (K2.A_K, K2.B_K, K2.C_K))
        assert np.max(np.abs(moved.A_K - K2.A_K)) <= 1e-5 * scale
        assert np.max(np.abs(moved.B_K - K2.B_K)) <= 1e-5 * scale
        assert np.max(np.abs(moved.C_K - K2.C_K)) <= 1e-5 * scale


def _scalar_dynamic_components(a, resolution):
    plant = Plant.create(A=np.array([[a]]), B=np.array([[1.0]]))

    def membership(point):
        a_k, b_k, c_k = point
        Kd = DynamicPolicy(A_K=np.array([[a_k]]), B_K=np.array([[b_k]]),
                           C_K=np.array([[c_k]]))
        return is_stabilizing_dynamic(plant, Kd)

    box = [[-3.0, 3.0]] * 3
    return connectivity_scan(membership, box, resolution)


def test_criterion_08_connectivity_components():
    with verdict("criterion 8 feasible-set connectivity scan"):
        for res in (41, 61, 81):
            assert _scalar_dynamic_components(1.1, res) == 2
            assert _scalar_dynamic_components(0.9, res) == 1


def test_criterion_09_hinf_values_descent_coercivity():
    with verdict("criterion 9 peak-gain values, descent, and coercivity"):
        plant = ab09_plant()
        assert abs(hinf_cost(plant, StaticGain(np.array([[0.0]]), True)).J
                   - 100.0) <= 1e-6
        assert abs(hinf_cost(plant, StaticGain(np.array([[-0.9]]), True)).J
                   - 1.81) <= 1e-6

        K0 = StaticGain.certify(plant, np.array([[-0.5]]))
        K, trace = hinf_descent_run(plant, K0, grid=256, max_iter=100)
        best_J = np.inf
        for k in np.linspace(-1.9, 0.1, 501):
            Km = np.array([[k]])
            if not is_stabilizing_static(plant, Km):
                continue
            best_J = min(best_J,
                         hinf_cost(plant, StaticGain(Km, True), grid=256).J)
        assert trace[-1].J <= best_J + 1e-6

        crossed = False
        for j in range(1, 13):
            k = 0.1 * (1.0 - 10.0 ** (-j))
            Km = np.array([[k]])
            if spectral_radius(closed_loop_static(plant, Km)) >= 1.0 - 1e-6:
                break
            if hinf_cost(plant, StaticGain(Km, True), grid=128).J > 1e6:
                crossed = True
                break
        assert crossed


def test_criterion_10_zeroth_order():
    with verdict("criterion 10 zeroth-order estimator and descent"):
        plant = scalar_plant()

        def costfn(theta):
            Km = np.asarray(theta).reshape(1, 1)
            if not is_stabilizing_static(plant, Km):
                return np.inf
            return lqr_eval(plant, StaticGain(Km, True)).J

        theta = np.array([-1.0])
        cfg = ZoConfig(epsilon=1e-3, samples=200, seed=0)
        est = zo_grad_two_point(costfn, theta, cfg)
        g = lqr_grad_euclidean(plant, StaticGain(theta.reshape(1, 1), True))
        cos = float(est @ g.reshape(-1)) / (np.linalg.norm(est)
                                            * np.linalg.norm(g))
        assert cos >= 0.9

        _, Kstar = dare_solve(plant)
        Jstar = lqr_eval(plant, Kstar).J
        _, trace = zo_gd_run(
            costfn,
            lambda th: is_stabilizing_static(plant, th.reshape(1, 1)),
            theta, cfg, eta=0.05, tol=1e-3, max_iter=3000)
        assert trace[-1].iter <= 3000
        assert trace[-1].J <= Jstar * 1.01


def test_criterion_11_structured_diagonal_benchmark():
    with verdict("criterion 11 sparse diagonal-gain benchmark"):
        plant = Plant.create(A=np.array([[0.8, 1.0], [0.0, 0.8]]),
                             B=np.array([[0.0, 1.0], [1.0, 0.0]]))
        sub = ConstraintSubspace.sparsity(np.eye(2, dtype=bool))
        K0 = StaticGain.certify(plant, np.diag([-0.5, -0.5]))
        K, trace = structured_gd_run(plant, K0, sub, tol=1e-6, max_iter=5000)
        g = structured_grad(plant, K, sub, Frobenius())
        assert np.linalg.norm(g) <= 1e-6

        vals = np.linspace(-3.0, 3.0, 201)
        best = np.inf
        for d1 in vals:
            for d2 in vals:
                Kd = np.diag([d1, d2])
                Acl = plant.A + plant.B @ Kd
                if np.max(np.abs(np.linalg.eigvals(Acl))) >= 1.0:
                    continue
                Y = kron_lyap(Acl, np.eye(2))
                best = min(best, 0.5 * float(np.trace(
                    (np.eye(2) + Kd.T @ Kd) @ Y)))
        assert trace[-1].J <= best + 1e-9


def test_criterion_12_determinism(tmp_path):
    with verdict("criterion 12 reproducible traces under fixed seed"):
        raw = {"task": "zo_gd",
               "plant": {"A": [[0.5, 0.0], [0.0, 0.3]], "B": [[1.0], [1.0]],
                         "C": [[1.0, 0.0]], "Sigma": [[1.0, 0.0], [0.0, 1.0]],
                         "W": [[1.0, 0.0], [0.0, 1.0]], "V": [[1.0]],
                         "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]]},
               "options": {"K0": [[0.0, 0.0]], "samples": 8, "eta": 0.05,
                           "tol": 1e-5, "max_iter": 60, "seed": 9}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["zo_gd", "--config", str(path),
                             "--out", str(out)]) == 0
            outs.append(out)
        t1 = (outs[0] / "trace.jsonl").read_bytes()
        t2 = (outs[1] / "trace.jsonl").read_bytes()
        assert t1 == t2
        s1 = json.loads((outs[0] / "summary.json").read_text())
        s2 = json.loads((outs[1] / "summary.json").read_text())
        s1.pop("wall_time"), s2.pop("wall_time")
        assert s1 == s2
