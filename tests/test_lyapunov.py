import numpy as np
import pytest

from polgeo import (
    DimensionError,
    NotSchurStableError,
    dlyap,
    dlyap_diff,
    lyap_trace_check,
)
from conftest import kron_lyap


def stable_matrix(rng, n, scale=0.6):
    A = rng.standard_normal((n, n))
    return A * scale / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-9)


def psd_matrix(rng, n):
    M = rng.standard_normal((n, n))
    return M @ M.T


def test_dlyap_zero_A(rng):
    Q = psd_matrix(rng, 3)
    assert np.allclose(dlyap(np.zeros((3, 3)), Q).P, Q)


def test_dlyap_scalar_geometric():
    # P = q / (1 - a^2)
    sol = dlyap(np.array([[0.5]]), np.array([[1.0]]))
    assert abs(sol.P[0, 0] - 4.0 / 3.0) < 1e-12
    assert sol.residual < 1e-12


def test_dlyap_vs_kron_oracle(rng):
    for _ in range(20):
        A = stable_matrix(rng, 5)
        Q = psd_matrix(rng, 5)
        P = dlyap(A, Q).P
        P_oracle = kron_lyap(A, Q)
        assert np.max(np.abs(P - P_oracle)) <= 1e-9 * (1.0 + np.max(np.abs(P_oracle)))


def test_dlyap_unstable_rejected():
    with pytest.raises(NotSchurStableError):
        dlyap(np.array([[1.01]]), np.array([[1.0]]))


@pytest.mark.parametrize("A, Q", [
    (np.diag([1.5, 0.5]), np.diag([0.0, 1.0])),
    (np.eye(2), np.zeros((2, 2))),
])
def test_dlyap_unstable_mode_hidden_from_Q_rejected(A, Q):
    # P stays bounded while rho(A) >= 1, so only the iterate M_k = A^(2^k)
    # shows it; the solve must raise before M_k overflows
    with pytest.raises(NotSchurStableError):
        dlyap(A, Q)


def test_dlyap_symmetric_psd(rng):
    for _ in range(50):
        n = int(rng.integers(1, 6))
        A = stable_matrix(rng, n, scale=float(rng.uniform(0.1, 0.95)))
        Q = psd_matrix(rng, n)
        P = dlyap(A, Q).P
        assert np.max(np.abs(P - P.T)) < 1e-10 * (1.0 + np.max(np.abs(P)))
        assert np.min(np.linalg.eigvalsh(P)) >= -1e-10


def test_dlyap_linearity(rng):
    A = stable_matrix(rng, 4)
    Q1 = psd_matrix(rng, 4)
    Q2 = psd_matrix(rng, 4)
    lhs = dlyap(A, Q1 + Q2).P
    rhs = dlyap(A, Q1).P + dlyap(A, Q2).P
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * (1.0 + np.max(np.abs(rhs)))


def test_dlyap_fixed_point_residual(rng):
    A = stable_matrix(rng, 4, scale=0.9)
    Q = psd_matrix(rng, 4)
    P = dlyap(A, Q).P
    assert np.max(np.abs(P - (A @ P @ A.T + Q))) < 1e-10 * (1.0 + np.max(np.abs(P)))


def test_kron_oracle_agreement(rng):
    for _ in range(100):
        A = stable_matrix(rng, 4, scale=float(rng.uniform(0.2, 0.9)))
        Q = psd_matrix(rng, 4)
        P1 = dlyap(A, Q).P
        P2 = kron_lyap(A, Q)
        assert np.max(np.abs(P1 - P2)) <= 1e-9 * (1.0 + np.max(np.abs(P2)))


def test_dlyap_diff_zero():
    A = np.array([[0.5]])
    out = dlyap_diff(A, np.array([[1.0]]), np.zeros((1, 1)), np.zeros((1, 1)))
    assert np.allclose(out, 0.0)


def test_dlyap_diff_linearity_in_F(rng):
    A = stable_matrix(rng, 3)
    F = psd_matrix(rng, 3)
    out = dlyap_diff(A, psd_matrix(rng, 3), np.zeros((3, 3)), F)
    assert np.allclose(out, dlyap(A, F).P, atol=1e-10)


def test_dlyap_diff_vs_central_differences(rng):
    # d/dh dlyap(A + hE, Q) at h=0
    h = 1e-6
    for _ in range(10):
        A = stable_matrix(rng, 3)
        Q = psd_matrix(rng, 3)
        E = rng.standard_normal((3, 3))
        fd = (dlyap(A + h * E, Q).P - dlyap(A - h * E, Q).P) / (2.0 * h)
        an = dlyap_diff(A, Q, E, np.zeros((3, 3)))
        assert np.max(np.abs(fd - an)) <= 1e-6 * (1.0 + np.max(np.abs(an)))


def test_dlyap_diff_scalar_hand():
    # scalar: P = 4/3 at a=0.5, q=1; dP/da = 2 a P / (1-a^2) = (4/3)/(0.75)
    an = dlyap_diff(np.array([[0.5]]), np.array([[1.0]]),
                    np.array([[1.0]]), np.array([[0.0]]))
    expect = 2.0 * 0.5 * (4.0 / 3.0) / 0.75
    assert abs(an[0, 0] - expect) < 1e-12


def test_trace_identity_zero_A(rng):
    Q = psd_matrix(rng, 3)
    S = psd_matrix(rng, 3)
    assert lyap_trace_check(np.zeros((3, 3)), Q, S) < 1e-14


def test_trace_identity_scalar():
    # both sides q*sigma/(1-a^2) = 2*3/0.75 = 8
    assert lyap_trace_check(np.array([[0.5]]), np.array([[2.0]]),
                            np.array([[3.0]])) < 1e-12
    P = dlyap(np.array([[0.5]]).T, np.array([[2.0]])).P
    assert abs(float(P[0, 0]) * 3.0 - 8.0) < 1e-12


def test_trace_identity_random_sweep(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        A = stable_matrix(rng, n, scale=float(rng.uniform(0.1, 0.95)))
        Q = psd_matrix(rng, n)
        S = psd_matrix(rng, n)
        assert lyap_trace_check(A, Q, S) <= 1e-10
