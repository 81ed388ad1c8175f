"""Dense real/complex matrix substrate.

The one module the rest of the package uses for raw linear algebra: linear
solves, norms, spectral radius and extreme eigenvalues, each a checked call
into LAPACK. Tolerances are centralized here so every engine sees the same
numerics.
"""

import numpy as np

from .errors import ContractError, DimensionError, SingularMatrixError

# Centralized tolerances: structural checks, pivot floor.
STRUCT_TOL = 1e-10
PIVOT_FLOOR = 1e-14

# LAPACK (getrf, getrs) per dtype, resolved on first use: importing SciPy
# dominates the package's import time
_LU_FUNCS = {}


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
    if dtype not in _LU_FUNCS:
        from scipy.linalg import get_lapack_funcs

        _LU_FUNCS[dtype] = get_lapack_funcs(("getrf", "getrs"), dtype=dtype)
    getrf, getrs = _LU_FUNCS[dtype]
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


def _frobenius(M):
    """Frobenius norm of a matrix, or of each matrix of a stack."""
    return np.linalg.norm(M) if M.ndim == 2 else np.linalg.norm(M, axis=(-2, -1))


def _eigvalsh(S, name, dtype=float):
    """Ascending eigenvalues of a square matrix, or of each matrix of a
    (k, n, n) stack, that is symmetric (Hermitian for complex dtype) within
    STRUCT_TOL, computed from its exact part. The test is made per matrix."""
    S = np.asarray(S, dtype=dtype)
    if S.ndim not in (2, 3) or S.shape[-1] != S.shape[-2]:
        raise DimensionError(f"{name}: square matrix or stack required, got {S.shape}")
    SH = S.swapaxes(-1, -2).conj()
    if (_frobenius(S - SH) > STRUCT_TOL * (1.0 + _frobenius(S))).any():
        kind = "Hermitian" if dtype is complex else "symmetric"
        raise ContractError(f"{name}: input not {kind} within tolerance")
    return np.linalg.eigvalsh(0.5 * (S + SH))


def _per_matrix(values):
    """A float for one matrix, the array of values for a stack."""
    return float(values) if values.ndim == 0 else values


def sym_lambda_max(S):
    """Largest eigenvalue of a symmetric matrix (of each matrix of a stack)."""
    return _per_matrix(_eigvalsh(S, "sym_lambda_max")[..., -1])


def sym_lambda_min(S):
    return _per_matrix(_eigvalsh(S, "sym_lambda_min")[..., 0])


def spectral_norm(M):
    """Largest singular value (SVD)."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def hermitian_lambda_max(H):
    """Largest (real) eigenvalue of a Hermitian matrix: a float, or one value
    per matrix of a (k, n, n) stack."""
    return _per_matrix(_eigvalsh(H, "hermitian_lambda_max", complex)[..., -1])


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
