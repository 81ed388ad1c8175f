import numpy as np
import pytest

from polgeo import (
    DimensionError,
    SingularMatrixError,
    ContractError,
    hermitian_lambda_max,
    solve_linear,
    spectral_norm,
    spectral_radius,
    sym_lambda_max,
)
from conftest import bisection_lambda_max


def test_solve_identity(rng):
    v = rng.standard_normal((4, 1))
    assert np.allclose(solve_linear(np.eye(4), v), v)


def test_solve_diagonal():
    x = solve_linear(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([[2.0], [8.0]]))
    assert np.allclose(x, np.array([[1.0], [2.0]]))


def test_solve_random_spd(rng):
    M = rng.standard_normal((8, 8))
    G = M @ M.T + np.eye(8)
    b = rng.standard_normal((8, 1))
    x = solve_linear(G, b)
    assert np.linalg.norm(G @ x - b) <= 1e-10 * (1.0 + np.linalg.norm(b))


def test_solve_residual_sweep(rng):
    # well-conditioned systems: residual within the stated bound
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        M = rng.standard_normal((n, n))
        G = M @ M.T + np.eye(n)
        b = rng.standard_normal((n, 1))
        x = solve_linear(G, b)
        assert np.linalg.norm(G @ x - b) <= 1e-10 * (1.0 + np.linalg.norm(b))


def test_solve_singular():
    with pytest.raises(SingularMatrixError):
        solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([[1.0], [0.0]]))


def test_solve_pivot_below_floor():
    # the second pivot, 1.1e-15, is non-zero but below PIVOT_FLOOR * ||G||_F
    with pytest.raises(SingularMatrixError):
        solve_linear(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]), np.array([1.0, 0.0]))


def test_solve_complex_matches_numpy(rng):
    # the resolvent solve of the frequency sweep: complex G, real or complex b
    n = 5
    G = np.exp(0.7j) * np.eye(n) - 0.3 * rng.standard_normal((n, n))
    for b in (rng.standard_normal(n) + 1j * rng.standard_normal(n), np.eye(n)):
        x = solve_linear(G, b)
        assert x.shape == b.shape
        assert np.allclose(x, np.linalg.solve(G, b), rtol=1e-12, atol=1e-12)


def test_spectral_radius_diagonal():
    assert abs(spectral_radius(np.diag([0.3, -0.7])) - 0.7) < 1e-8


def test_spectral_radius_nilpotent():
    shift = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    assert spectral_radius(shift) < 1e-10


def test_spectral_radius_defective():
    # double eigenvalue 0.5 from lambda^2 - lambda + 0.25; a defective
    # eigenvalue is ill-conditioned (rounding of size delta shifts a double
    # root by sqrt(delta)), so the achievable accuracy here is ~1e-8, not
    # the generic 1e-16
    M = np.array([[0.0, 1.0], [-0.25, 1.0]])
    assert abs(spectral_radius(M) - 0.5) < 1e-5 * 0.5


def test_spectral_radius_homogeneous(rng):
    for _ in range(20):
        M = rng.standard_normal((4, 4))
        c = float(rng.uniform(-5.0, 5.0))
        if abs(c) < 1e-3:
            continue
        r = spectral_radius(M)
        assert abs(spectral_radius(c * M) - abs(c) * r) < 1e-7 * (1.0 + abs(c) * r)


def test_spectral_radius_large_norm():
    # entries whose squares would overflow
    M = 1e150 * np.eye(3)
    assert abs(spectral_radius(M) - 1e150) / 1e150 < 1e-8


def test_sym_lambda_max_diag():
    assert abs(sym_lambda_max(np.diag([1.0, 4.0 / 3.0])) - 4.0 / 3.0) < 1e-10
    assert abs(sym_lambda_max(np.eye(5)) - 1.0) < 1e-12


def test_sym_lambda_max_vs_bisection(rng):
    for _ in range(10):
        M = rng.standard_normal((6, 6))
        S = 0.5 * (M + M.T)
        assert abs(sym_lambda_max(S) - bisection_lambda_max(S)) < 1e-8


def test_sym_lambda_max_rejects_nonsymmetric():
    with pytest.raises(ContractError):
        sym_lambda_max(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_norm_zero_and_vector():
    assert spectral_norm(np.zeros((3, 2))) == 0.0
    assert abs(spectral_norm(np.array([[3.0], [4.0]])) - 5.0) < 1e-12


def test_spectral_norm_dual(rng):
    M = rng.standard_normal((4, 3))
    # dual route: largest eigenvalue of M M^T instead of M^T M
    dual = np.sqrt(sym_lambda_max(M @ M.T))
    assert abs(spectral_norm(M) - dual) < 1e-9


def test_spectral_norm_dominates_radius(rng):
    for _ in range(20):
        M = rng.standard_normal((4, 4))
        assert spectral_norm(M) >= spectral_radius(M) - 1e-9


def test_hermitian_lambda_max_real_diag():
    assert abs(hermitian_lambda_max(np.diag([2.0, 5.0]).astype(complex)) - 5.0) < 1e-10


def test_hermitian_lambda_max_pauli():
    H = np.array([[1.0, 1j], [-1j, 1.0]])
    assert abs(hermitian_lambda_max(H) - 2.0) < 1e-10


def test_hermitian_lambda_max_rank_one(rng):
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    assert abs(hermitian_lambda_max(np.outer(v, v.conj())) - 1.0) < 1e-10


def test_hermitian_lambda_max_rejects_nonhermitian():
    with pytest.raises(ContractError):
        hermitian_lambda_max(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
