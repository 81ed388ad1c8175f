"""Dense real/complex matrix substrate.

The one module the rest of the package uses for raw linear algebra:
products, linear solves, norms, spectral-radius and extreme-eigenvalue
estimation. Tolerances are centralized here so every engine sees the same
numerics.
"""

import numpy as np

from .errors import ContractError, DimensionError, SingularMatrixError

# Centralized tolerances: structural checks, iterative convergence, pivot floor.
STRUCT_TOL = 1e-10
CONV_TOL = 1e-12
PIVOT_FLOOR = 1e-14


def as_mat(x, name="matrix"):
    """Validate and return a 2-D float array with finite entries."""
    M = np.asarray(x, dtype=float)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    if M.ndim != 2:
        raise DimensionError(f"{name}: expected a 2-D array, got ndim={M.ndim}")
    if M.size and not np.all(np.isfinite(M)):
        raise ContractError(f"{name}: entries must be finite")
    return M


def solve_linear(G, b):
    """Solve Gx = b by Gaussian elimination with partial pivoting.

    Works for real and complex inputs. Raises SingularMatrixError when a
    pivot falls below PIVOT_FLOOR * ||G||_F.
    """
    G = np.array(G, copy=True)
    b = np.asarray(b)
    squeeze = b.ndim == 1
    b = np.array(b.reshape(-1, 1) if squeeze else b, copy=True)
    n = G.shape[0]
    if G.ndim != 2 or G.shape[1] != n:
        raise DimensionError(f"solve_linear: G must be square, got {G.shape}")
    if b.shape[0] != n:
        raise DimensionError(f"solve_linear: b has {b.shape[0]} rows, G has {n}")
    dtype = np.result_type(G.dtype, b.dtype, float)
    G = G.astype(dtype)
    b = b.astype(dtype)
    scale = np.linalg.norm(G)
    if scale == 0.0:
        raise SingularMatrixError("solve_linear: zero matrix")
    for k in range(n):
        p = k + int(np.argmax(np.abs(G[k:, k])))
        if np.abs(G[p, k]) <= PIVOT_FLOOR * scale:
            raise SingularMatrixError(f"solve_linear: pivot {abs(G[p, k]):.3e} below floor")
        if p != k:
            G[[k, p]] = G[[p, k]]
            b[[k, p]] = b[[p, k]]
        factors = G[k + 1:, k] / G[k, k]
        G[k + 1:, k + 1:] -= np.outer(factors, G[k, k + 1:])
        b[k + 1:] -= np.outer(factors, b[k])
    x = np.zeros_like(b)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - G[k, k + 1:] @ x[k + 1:]) / G[k, k]
    return x[:, 0] if squeeze else x


def spectral_radius(M):
    """Spectral radius by norm-of-powers doubling.

    r_k = ||M^(2^k)||_F^(1/2^k); repeated squaring with rescaling so
    overflow cannot occur. Stops when successive log-estimates differ by
    < 1e-10 or after 40 doublings.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"spectral_radius: square matrix required, got {M.shape}")
    c = np.linalg.norm(M)
    if c == 0.0:
        return 0.0
    N = M / c
    log_c = np.log(c)
    est = log_c
    for k in range(1, 41):
        N = N @ N
        nu = np.linalg.norm(N)
        if nu == 0.0:
            return 0.0
        log_c = 2.0 * log_c + np.log(nu)
        N = N / nu
        new_est = log_c / 2.0 ** k
        if abs(new_est - est) < 1e-10:
            est = new_est
            break
        est = new_est
    return float(np.exp(est))


def _check_symmetric(S, name):
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionError(f"{name}: square matrix required, got {S.shape}")
    if np.linalg.norm(S - S.T) > STRUCT_TOL * (1.0 + np.linalg.norm(S)):
        raise ContractError(f"{name}: input not symmetric within tolerance")
    return S


def sym_lambda_max(S):
    """Largest eigenvalue of a symmetric matrix."""
    S = _check_symmetric(S, "sym_lambda_max")
    return float(np.linalg.eigvalsh(0.5 * (S + S.T))[-1])


def sym_lambda_min(S):
    S = _check_symmetric(S, "sym_lambda_min")
    return float(np.linalg.eigvalsh(0.5 * (S + S.T))[0])


def spectral_norm(M):
    """Largest singular value, computed as sqrt(lambda_max(M^T M))."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    lam = sym_lambda_max(M.T @ M)
    return float(np.sqrt(max(lam, 0.0)))


def hermitian_lambda_max(H):
    """Largest (real) eigenvalue of a Hermitian matrix."""
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DimensionError(f"hermitian_lambda_max: square matrix required, got {H.shape}")
    if np.linalg.norm(H - H.conj().T) > STRUCT_TOL * (1.0 + np.linalg.norm(H)):
        raise ContractError("hermitian_lambda_max: input not Hermitian within tolerance")
    return float(np.linalg.eigvalsh(0.5 * (H + H.conj().T))[-1])


def matrix_rank(M, rtol=1e-8):
    """Rank by singular-value threshold sigma > rtol * sigma_max."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def orthonormal_rows(M):
    """Row-orthonormalized copy of a full-row-rank matrix."""
    M = np.asarray(M, dtype=float)
    q, r = np.linalg.qr(M.T)
    if matrix_rank(M) < M.shape[0]:
        raise ContractError("orthonormal_rows: matrix is not full row rank")
    return q[:, : M.shape[0]].T
