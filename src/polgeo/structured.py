"""Policy optimization restricted to linear subspaces of gain space
(sparsity masks, static output feedback): metric-weighted tangential
projection and certified projected descent."""

import numpy as np

from .errors import ContractError, InternalInvariantError
from .lqr import (
    CertificateStep,
    lqr_eval,
    lqr_grad_euclidean,
    lqr_grad_riemannian,
    static_descent,
)
from .policy_core import Frobenius, LyapunovMetric


def tangential_project(plant, K, V, sub, metric=Frobenius(), ev=None):
    """Metric-orthogonal projection of V onto the subspace, in closed form
    (see ConstraintSubspace.project); the Lyapunov metric
    <X, Y> = tr(X^T Y Y_K) takes Y_K from ev or from evaluating K."""
    if not K.certified:
        raise ContractError("tangential_project: K must be certified")
    if not sub.contains(K.K):
        raise ContractError("tangential_project: K is not in the constraint subspace")
    if isinstance(metric, Frobenius):
        weight = None
    elif isinstance(metric, LyapunovMetric):
        weight = (ev if ev is not None else lqr_eval(plant, K)).Y_K
    else:
        raise ContractError(f"unsupported metric for structured projection: {metric!r}")
    return sub.project(np.asarray(V, dtype=float), weight)


def structured_grad(plant, K, sub, metric=Frobenius(), ev=None):
    """Projected gradient: Riemannian gradient under the Lyapunov metric,
    Euclidean gradient under Frobenius."""
    ev = ev if ev is not None else lqr_eval(plant, K)
    if isinstance(metric, LyapunovMetric):
        g = lqr_grad_riemannian(plant, K, ev)
    else:
        g = lqr_grad_euclidean(plant, K, ev)
    return tangential_project(plant, K, g, sub, metric, ev)


def structured_gd_run(plant, K0, sub, metric=Frobenius(),
                      step_rule=CertificateStep(), tol=1e-8, max_iter=1000):
    """Certified projected descent; iterates stay in the subspace (updates
    are projections onto it), which every iteration re-checks."""
    if not K0.certified:
        raise ContractError("structured_gd_run: K0 must be certified")
    if not sub.contains(K0.K):
        raise ContractError("structured_gd_run: K0 is not in the constraint subspace")

    def direction(K, ev, it):
        if not sub.contains(K.K):
            raise InternalInvariantError("structured_gd_run: iterate drifted out "
                                         "of the constraint subspace")
        g = structured_grad(plant, K, sub, metric, ev)
        return -g, float(np.linalg.norm(g))

    return static_descent("structured_gd_run", plant, K0, direction, step_rule,
                          tol, max_iter)
