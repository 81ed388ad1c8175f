"""Domain types for plants, policies, constraints and metrics, plus the
stability membership tests, the step bounds (the closed-form stability
certificate and the bound from a Lyapunov function already at hand), and
the grid scanners (connectivity / landscape slices)."""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InfeasibleError
from .lyapunov import dlyap
from .numerics import (
    as_mat,
    orthonormal_rows,
    solve_linear,
    spectral_norm,
    spectral_radius,
    sym_lambda_max,
    sym_lambda_min,
)

# Hard margin on the strict inequality rho < 1; grid scans land near the
# boundary and a margin avoids flapping.
STABILITY_MARGIN = 1e-12


def _check_symmetric(M, name):
    if np.linalg.norm(M - M.T) > 1e-10 * (1.0 + np.linalg.norm(M)):
        raise ContractError(f"{name} must be symmetric")


def _check_psd(M, name, definite=False):
    _check_symmetric(M, name)
    lam = sym_lambda_min(M)
    if lam <= 0.0 if definite else lam < -1e-10:
        kind = "positive definite" if definite else "PSD"
        raise ContractError(f"{name} must be {kind}; min eigenvalue {lam:.3e}")


@dataclass(frozen=True)
class Plant:
    """LTI system data (A, B, C) with noise covariances and cost weights.

    x_{t+1} = A x_t + B u_t + w_t,  y_t = C x_t + v_t,
    w ~ N(0, W), v ~ N(0, V); quadratic weights (Q, R); Sigma is the
    state-noise / initial covariance used by the LQR cost, and Sigma_chol
    its lower Cholesky factor, which decided that Sigma is positive definite.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Sigma: np.ndarray
    W: np.ndarray
    V: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Sigma_chol: np.ndarray

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]

    @staticmethod
    def create(A, B, C=None, Sigma=None, W=None, V=None, Q=None, R=None):
        A = as_mat(A, "A")
        B = as_mat(B, "B")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ContractError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ContractError(f"B must have {n} rows, got {B.shape}")
        m = B.shape[1]
        C = np.eye(n) if C is None else as_mat(C, "C")
        if C.shape[1] != n:
            raise ContractError(f"C must have {n} columns, got {C.shape}")
        p = C.shape[0]
        Sigma = np.eye(n) if Sigma is None else as_mat(Sigma, "Sigma")
        W = np.eye(n) if W is None else as_mat(W, "W")
        V = np.eye(p) if V is None else as_mat(V, "V")
        Q = np.eye(n) if Q is None else as_mat(Q, "Q")
        R = np.eye(m) if R is None else as_mat(R, "R")
        for M, shape, name in ((Sigma, (n, n), "Sigma"), (W, (n, n), "W"),
                               (V, (p, p), "V"), (Q, (n, n), "Q"), (R, (m, m), "R")):
            if M.shape != shape:
                raise ContractError(f"{name} must have shape {shape}, got {M.shape}")
        # the factor the LQR step bound divides by: one answer to "is Sigma
        # positive definite?"
        _check_symmetric(Sigma, "Sigma")
        try:
            Sigma_chol = np.linalg.cholesky(Sigma)
        except np.linalg.LinAlgError as exc:
            raise ContractError("Sigma must be positive definite; "
                                "its Cholesky factorization fails") from exc
        _check_psd(V, "V", definite=True)
        _check_psd(R, "R", definite=True)
        _check_psd(Q, "Q")
        _check_psd(W, "W")
        return Plant(A=A, B=B, C=C, Sigma=Sigma, W=W, V=V, Q=Q, R=R,
                     Sigma_chol=Sigma_chol)


@dataclass(frozen=True)
class StaticGain:
    """m x n feedback matrix with an optional certified-stabilizing tag."""

    K: np.ndarray
    certified: bool = False

    @staticmethod
    def certify(plant, K):
        K = as_mat(K, "K")
        if not is_stabilizing_static(plant, K):
            raise InfeasibleError("gain is not stabilizing for this plant")
        return StaticGain(K=K, certified=True)


@dataclass(frozen=True)
class DynamicPolicy:
    """Dynamic controller xi_{t+1} = A_K xi + B_K y, u = C_K xi."""

    A_K: np.ndarray
    B_K: np.ndarray
    C_K: np.ndarray

    @property
    def order(self):
        return self.A_K.shape[0]

    @staticmethod
    def create(A_K, B_K, C_K):
        A_K = as_mat(A_K, "A_K")
        B_K = as_mat(B_K, "B_K")
        C_K = as_mat(C_K, "C_K")
        q = A_K.shape[0]
        if A_K.shape != (q, q):
            raise ContractError(f"A_K must be square, got {A_K.shape}")
        if B_K.shape[0] != q or C_K.shape[1] != q:
            raise ContractError("B_K rows and C_K columns must match controller order")
        return DynamicPolicy(A_K=A_K, B_K=B_K, C_K=C_K)


@dataclass(frozen=True)
class ConstraintSubspace:
    """Linear subspace of gain space: a sparsity pattern (K[~mask] = 0) or
    static output feedback (K = L Cout, kept as the orthonormal rows of Cout)."""

    kind: str
    mask: np.ndarray | None = None
    rows: np.ndarray | None = None

    @staticmethod
    def sparsity(mask):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ContractError(f"sparsity mask must be 2-D, got shape {mask.shape}")
        if not mask.any():
            raise ContractError("sparsity mask allows no entries")
        return ConstraintSubspace(kind="sparsity", mask=mask)

    @staticmethod
    def output_feedback(Cout, m):
        """K = L Cout for some m x p matrix L."""
        return ConstraintSubspace(kind="output_feedback",
                                  rows=orthonormal_rows(as_mat(Cout, "Cout")))

    def contains(self, K, tol=1e-12):
        """Membership: every entry of K's component off the subspace is at
        most tol * (1 + ||K||_F); exact for sparsity masks."""
        K = np.asarray(K, dtype=float)
        if self.mask is not None:
            resid = K[~self.mask]
        else:
            resid = K - (K @ self.rows.T) @ self.rows
        return not np.any(np.abs(resid) > tol * (1.0 + np.linalg.norm(K)))

    def project(self, V, weight=None):
        """Orthogonal projection of V under <X, Y> = tr(X^T Y M), with M the
        SPD matrix weight (the identity when None), in closed form.

        Sparsity: masking for the identity; otherwise row i solves
        W_i[S] M[S, S] = (V_i M)[S] on its support S. Output feedback: the
        normal equations L (C M C^T) = V M C^T over the rows C give W = L C.
        """
        if self.mask is not None:
            if weight is None:
                return np.where(self.mask, V, 0.0)
            W = np.zeros_like(V)
            VM = V @ weight
            for i, support in enumerate(self.mask):
                if support.any():
                    W[i, support] = solve_linear(weight[np.ix_(support, support)],
                                                 VM[i, support])
            return W
        C = self.rows
        CM = C if weight is None else C @ weight
        return solve_linear(CM @ C.T, CM @ V.T).T @ C


@dataclass(frozen=True)
class Frobenius:
    pass


@dataclass(frozen=True)
class LyapunovMetric:
    """<V, W>_K = tr(V^T W Y_K) with Y_K = L(A+BK, Sigma)."""


def closed_loop_static(plant, K):
    return plant.A + plant.B @ np.asarray(K)


def stabilizing_radius(Acl):
    """The membership decision for a closed-loop state matrix: its spectral
    radius when rho(Acl) < 1 with the hard margin, else None. Descent
    records the radius of the candidate it accepts."""
    rho = spectral_radius(Acl)
    return rho if rho < 1.0 - STABILITY_MARGIN else None


def is_stabilizing_static(plant, K):
    """K stabilizes iff rho(A + BK) < 1 (with the hard margin)."""
    K = np.asarray(K, dtype=float)
    if K.shape != (plant.m, plant.n):
        raise ContractError(f"K must have shape ({plant.m}, {plant.n}), got {K.shape}")
    return stabilizing_radius(closed_loop_static(plant, K)) is not None


def closed_loop_matrix_dynamic(plant, Kd):
    """The augmented state matrix [[A, B C_K], [B_K C, A_K]]."""
    top = np.hstack([plant.A, plant.B @ Kd.C_K])
    bottom = np.hstack([Kd.B_K @ plant.C, Kd.A_K])
    return np.vstack([top, bottom])


def is_stabilizing_dynamic(plant, Kd):
    return stabilizing_radius(closed_loop_matrix_dynamic(plant, Kd)) is not None


def stability_certificate(plant, K, V):
    """Safe step bound s_K(V) = 1 / (2 lambda_max(L(A_cl^T, I)) ||BV||_2).

    K + eta*V is guaranteed stabilizing for 0 <= eta <= s_K(V). Returns
    +inf for V = 0 (converged descent direction).
    """
    if not K.certified:
        raise InfeasibleError("stability_certificate requires a certified gain")
    V = np.asarray(V, dtype=float)
    # ||BV||_2 = ||RV||_2 for B = QR with orthonormal Q: an SVD of at most
    # m rows instead of n
    bnorm = spectral_norm(np.linalg.qr(plant.B, mode="r") @ V)
    if bnorm == 0.0:
        return math.inf
    Acl = closed_loop_static(plant, K.K)
    lam = sym_lambda_max(dlyap(Acl.T, np.eye(plant.n)).P)
    return 1.0 / (2.0 * lam * bnorm)


def lyapunov_step_bound(Acl, B, V, P, L):
    """Safe step bound along Delta = B V from a Lyapunov function at hand.

    Given P = Acl^T P Acl + N with P > 0 and N = L L^T > 0, L the lower
    Cholesky factor of N (the caller factors N: np.linalg.cholesky raises
    LinAlgError when N is not positive definite), let x and z be the
    largest eigenvalues of L^-1 (Acl^T P Delta + Delta^T P Acl) L^-T and
    of L^-1 Delta^T P Delta L^-T. Returns s = 1 / (x + sqrt(x^2 + 2z)), the
    positive root of x eta + z eta^2 = 1/2, or +inf for Delta = 0. For
    0 <= eta <= s, (Acl + eta Delta)^T P (Acl + eta Delta) - P <= -N/2 < 0,
    so Acl + eta Delta is Schur stable, the endpoint included. Raises
    np.linalg.LinAlgError when L is singular.

    B is n x k and V is k x n, so both matrices have rank at most 2k. With
    [F, U] = L^-1 [Acl^T P B, V^T] = Q_Z [R_1, R_2] (a thin QR), they are
    Q_Z (R_1 R_2^T + R_2 R_1^T) Q_Z^T and Q_Z R_2 (B^T P B) R_2^T Q_Z^T:
    x and z are eigenvalues of matrices of order min(n, 2k), and x is at
    least 0 when 2k < n (the rest of the spectrum is 0).
    """
    n, k = B.shape
    Z = np.linalg.solve(L, np.hstack([Acl.T @ (P @ B), V.T]))
    R = np.linalg.qr(Z, mode="r")
    R1, R2 = R[:, :k], R[:, k:]
    C = R1 @ R2.T
    x, z = map(float, sym_lambda_max(np.stack([C + C.T, R2 @ (B.T @ P @ B) @ R2.T])))
    if R.shape[0] < n:
        x = max(x, 0.0)
    root = math.sqrt(x * x + 2.0 * z)
    # the two forms of the root, each free of cancellation on its side of 0
    if x > 0.0:
        return 1.0 / (x + root)
    return (root - x) / (2.0 * z) if z > 0.0 else math.inf


def connectivity_scan(membership, box, resolution):
    """Count connected components of a rasterized feasible set.

    Corner (full) adjacency via flood fill; refuses resolutions < 8. Face
    adjacency fragments thin curved shells of the feasible set into dozens
    of spurious pieces at practical resolutions, so diagonal neighbors are
    treated as connected, which matches the path components of the
    continuous region on the reference instances.
    """
    box = [tuple(map(float, axis)) for axis in box]
    dim = len(box)
    if dim > 4:
        raise ContractError("connectivity_scan: dimension must be <= 4")
    if resolution < 8:
        raise ContractError("connectivity_scan: resolution must be >= 8")
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    feasible = np.zeros([resolution] * dim, dtype=bool)
    for idx in np.ndindex(*feasible.shape):
        point = tuple(axes[d][idx[d]] for d in range(dim))
        feasible[idx] = bool(membership(point))
    # imported here, its only use: scipy.ndimage dominates the package's import time
    from scipy import ndimage

    structure = ndimage.generate_binary_structure(dim, dim)
    _, count = ndimage.label(feasible, structure=structure)
    return int(count)


def check_slice_directions(dir1, dir2):
    """Raise ContractError unless the two slice directions are linearly
    independent (Gram determinant above round-off)."""
    gram = np.array([
        [np.sum(dir1 * dir1), np.sum(dir1 * dir2)],
        [np.sum(dir1 * dir2), np.sum(dir2 * dir2)],
    ])
    if np.linalg.det(gram) <= 1e-14 * max(1.0, gram[0, 0] * gram[1, 1]):
        raise ContractError("landscape_slice: directions must be linearly independent")


def landscape_slice(costfn, origin, dir1, dir2, box, resolution):
    """Evaluate costfn on origin + s*dir1 + t*dir2 over a 2-D grid.

    costfn must be pure (cells may be evaluated in parallel); infeasible
    cells (InfeasibleError or non-finite return) become +inf sentinels.
    Returns (s_values, t_values, grid) with grid[i, j] at (s_i, t_j).
    """
    origin = np.asarray(origin, dtype=float)
    dir1 = np.asarray(dir1, dtype=float)
    dir2 = np.asarray(dir2, dtype=float)
    check_slice_directions(dir1, dir2)
    (s_lo, s_hi), (t_lo, t_hi) = box
    s_vals = np.linspace(s_lo, s_hi, resolution)
    t_vals = np.linspace(t_lo, t_hi, resolution)
    grid = np.full((resolution, resolution), np.inf)
    for i, s in enumerate(s_vals):
        for j, t in enumerate(t_vals):
            point = origin + s * dir1 + t * dir2
            try:
                value = float(costfn(point))
            except InfeasibleError:
                continue
            if np.isfinite(value):
                grid[i, j] = value
    return s_vals, t_vals, grid


def write_grid_csv(path, s_vals, t_vals, grid):
    """CSV with header s,t,value; infeasible cells written as 'inf'."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "t", "value"])
        for i, s in enumerate(s_vals):
            for j, t in enumerate(t_vals):
                v = grid[i, j]
                writer.writerow([repr(float(s)), repr(float(t)),
                                 "inf" if not np.isfinite(v) else repr(float(v))])
