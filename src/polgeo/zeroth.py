"""Model-free gradient estimation from cost evaluations: uniform-sphere
smoothing with one-point, two-point, and baseline-subtracted estimators,
plus a zeroth-order descent driver usable with any cost in the package.

Randomness is counter-based (Philox) and fully determined by
(seed, iteration, sample index), so parallel and serial evaluation orders
agree bit-for-bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, ContractError
from .lqr import descend, feasible_only

RNG_NAME = "philox"
MAX_RESAMPLES = 50


@dataclass(frozen=True)
class ZoConfig:
    epsilon: float = 1e-3
    samples: int = 2
    seed: int = 0
    estimator: str = "two_point"

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ContractError("ZoConfig: epsilon must be positive")
        if self.samples < 1:
            raise ContractError("ZoConfig: samples must be >= 1")
        if self.estimator not in ("one_point", "two_point", "baseline"):
            raise ContractError(f"ZoConfig: unknown estimator {self.estimator!r}")


def _sample_rng(seed, iteration, index):
    return np.random.Generator(np.random.Philox(
        key=np.random.SeedSequence(entropy=(int(seed), int(iteration), int(index)))
            .generate_state(2, dtype=np.uint64)))


def sample_sphere(dim, rng):
    """Uniform draw from the unit sphere (normalized Gaussian)."""
    if dim < 1:
        raise ContractError("sample_sphere: dim must be >= 1")
    while True:
        u = rng.standard_normal(dim)
        norm = np.linalg.norm(u)
        if norm > 0.0:
            return u / norm


def _feasible_direction(costfn, theta, eps, seed, iteration, index, two_sided):
    """Draw directions until the perturbed points evaluate finite."""
    for retry in range(MAX_RESAMPLES):
        rng = _sample_rng(seed, iteration, index + 1000003 * retry)
        u = sample_sphere(theta.size, rng)
        plus = costfn(theta + eps * u)
        if not np.isfinite(plus):
            continue
        if not two_sided:
            return u, plus, None
        minus = costfn(theta - eps * u)
        if np.isfinite(minus):
            return u, plus, minus
    raise BoundaryError("zeroth-order sampling: 50 infeasible retries "
                        "(too close to the feasibility boundary)")


def zo_grad_two_point(costfn, theta, cfg, iteration=0):
    """(1/N) sum (J(theta + eps U) - J(theta - eps U)) * d/(2 eps) * U."""
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    acc = np.zeros(d)
    for i in range(cfg.samples):
        u, plus, minus = _feasible_direction(costfn, theta, cfg.epsilon, cfg.seed,
                                             iteration, i, two_sided=True)
        acc += (plus - minus) * d / (2.0 * cfg.epsilon) * u
    return acc / cfg.samples


def zo_grad_one_point(costfn, theta, cfg, iteration=0):
    """(1/N) sum J(theta + eps U) * d/eps * U."""
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    acc = np.zeros(d)
    for i in range(cfg.samples):
        u, plus, _ = _feasible_direction(costfn, theta, cfg.epsilon, cfg.seed,
                                         iteration, i, two_sided=False)
        acc += plus * d / cfg.epsilon * u
    return acc / cfg.samples


def zo_grad_baseline(costfn, baselinefn, theta, cfg, iteration=0):
    """One-point estimator with a per-sample baseline subtraction."""
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    acc = np.zeros(d)
    for i in range(cfg.samples):
        u, plus, _ = _feasible_direction(costfn, theta, cfg.epsilon, cfg.seed,
                                         iteration, i, two_sided=False)
        acc += (plus - baselinefn(theta)) * d / cfg.epsilon * u
    return acc / cfg.samples


def estimate_gradient(costfn, theta, cfg, iteration=0, baselinefn=None):
    if cfg.estimator == "two_point":
        return zo_grad_two_point(costfn, theta, cfg, iteration)
    if cfg.estimator == "one_point":
        return zo_grad_one_point(costfn, theta, cfg, iteration)
    base = baselinefn if baselinefn is not None else (lambda th: costfn(th))
    return zo_grad_baseline(costfn, base, theta, cfg, iteration)


@dataclass(frozen=True)
class _Query:
    """One cost query, in the shape the descent loop reads."""
    J: float


def zo_gd_run(costfn, feasibility, theta0, cfg, eta=0.1, tol=1e-8,
              max_iter=1000, rho_fn=None):
    """Zeroth-order descent: estimated gradients, every iterate
    feasibility-checked (step halved until the candidate is feasible)."""
    theta0 = np.asarray(theta0, dtype=float).copy()
    if not feasibility(theta0):
        raise BoundaryError("zo_gd_run: infeasible start")
    if rho_fn is None:
        rho_fn = lambda th: math.nan

    def direction(theta, query, it):
        g = estimate_gradient(costfn, theta, cfg, iteration=it)
        return -g, float(np.linalg.norm(g))

    return descend(
        "zo_gd_run", theta0,
        evaluate=lambda th: _Query(float(costfn(th))),
        membership=lambda th: float(rho_fn(th)) if feasibility(th) else None,
        direction=direction,
        initial_step=lambda th, V, query: eta,
        move=lambda th, V, step: th + step * V,
        accept=feasible_only,
        tol=tol, max_iter=max_iter)
