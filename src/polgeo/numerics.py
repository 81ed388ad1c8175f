"""Dense real/complex matrix substrate.

The one module the rest of the package uses for raw linear algebra: linear
solves, norms, spectral radius and extreme eigenvalues, each a checked call
into LAPACK. Tolerances are centralized here so every engine sees the same
numerics.
"""

import numpy as np
from scipy.linalg import get_lapack_funcs

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
    """Solve Gx = b by LU with partial pivoting (LAPACK getrf/getrs).

    Works for real and complex inputs. Raises SingularMatrixError when a
    pivot (a diagonal entry of U) falls below PIVOT_FLOOR * ||G||_F.
    """
    G = np.asarray(G)
    b = np.asarray(b)
    squeeze = b.ndim == 1
    if squeeze:
        b = b.reshape(-1, 1)
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
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (G, b))
    lu, piv, _ = getrf(G)
    pivot = float(np.min(np.abs(np.diag(lu))))
    if not pivot > PIVOT_FLOOR * scale:
        raise SingularMatrixError(f"solve_linear: pivot {pivot:.3e} below floor")
    x, _ = getrs(lu, piv, b)
    return x[:, 0] if squeeze else x


def spectral_radius(M):
    """Largest eigenvalue modulus; inf when M has a non-finite entry."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"spectral_radius: square matrix required, got {M.shape}")
    if not np.all(np.isfinite(M)):
        return np.inf
    return float(np.max(np.abs(np.linalg.eigvals(M)), initial=0.0))


def _eigvalsh(S, name, dtype=float):
    """Ascending eigenvalues of a square matrix that is symmetric (Hermitian
    for complex dtype) within STRUCT_TOL, computed from its exact part."""
    S = np.asarray(S, dtype=dtype)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionError(f"{name}: square matrix required, got {S.shape}")
    SH = S.conj().T
    if np.linalg.norm(S - SH) > STRUCT_TOL * (1.0 + np.linalg.norm(S)):
        kind = "Hermitian" if dtype is complex else "symmetric"
        raise ContractError(f"{name}: input not {kind} within tolerance")
    return np.linalg.eigvalsh(0.5 * (S + SH))


def sym_lambda_max(S):
    """Largest eigenvalue of a symmetric matrix."""
    return float(_eigvalsh(S, "sym_lambda_max")[-1])


def sym_lambda_min(S):
    return float(_eigvalsh(S, "sym_lambda_min")[0])


def spectral_norm(M):
    """Largest singular value (SVD)."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def hermitian_lambda_max(H):
    """Largest (real) eigenvalue of a Hermitian matrix."""
    return float(_eigvalsh(H, "hermitian_lambda_max", complex)[-1])


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
