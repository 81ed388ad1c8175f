"""Batch front end: JSON config ingestion, experiment orchestration across
all engines, and emission of traces (JSONL), grids (CSV), and summaries.

Usage: polgeo <task> --config <path> [--out <dir>] [--seed <u64>]
Exit codes: 0 ok, 2 config error, 3 infeasible start, 4 stalled,
5 internal-invariant violation.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import hinf, lqg, lqr, structured, zeroth
from .errors import (
    BoundaryError,
    ConfigError,
    ContractError,
    InfeasibleError,
    InternalInvariantError,
    PolgeoError,
    StalledError,
)
from .numerics import spectral_radius
from .policy_core import (
    ConstraintSubspace,
    DynamicPolicy,
    Frobenius,
    LyapunovMetric,
    Plant,
    StaticGain,
    check_slice_directions,
    closed_loop_static,
    connectivity_scan,
    is_stabilizing_dynamic,
    is_stabilizing_static,
    landscape_slice,
    write_grid_csv,
)

TASKS = ("lqr_gd", "hewer", "structured_gd", "lqg_gd", "lqg_rgd", "hinf_eval",
         "hinf_descent", "zo_gd", "landscape", "connectivity", "dare")

# Defaults echoed into every summary for reproducibility.
DEFAULTS = {
    "tol": 1e-8,
    "max_iter": 1000,
    "direction": "euclidean",
    "step_rule": {"kind": "certificate", "cap": 1.0},
    "metric": "frobenius",
    "alpha": 0.5,
    "km_weights": [1.0, 1.0, 1.0],
    "grid": 2048,
    "refine_tol": 1e-10,
    "hinf_descent_grid": 512,
    "epsilon": 1e-3,
    "samples": 2,
    "estimator": "two_point",
    "eta": 0.1,
    "resolution": 61,
    "seed": 0,
}


@dataclass
class ExperimentConfig:
    task: str
    plant: Plant
    options: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def _get_matrix(obj, path, violations, required=True, shape=None):
    if path.split(".")[-1] not in obj:
        if required:
            violations.append(f"{path}: missing")
        return None
    value = obj[path.split(".")[-1]]
    try:
        M = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        violations.append(f"{path}: not a numeric matrix")
        return None
    if M.ndim == 1:
        M = M.reshape(1, -1)
    if M.ndim != 2:
        violations.append(f"{path}: expected a 2-D array")
        return None
    if not np.all(np.isfinite(M)):
        violations.append(f"{path}: entries must be finite")
        return None
    if shape is not None and M.shape != shape:
        violations.append(f"{path}: expected shape {shape}, got {M.shape}")
        return None
    return M


def parse_config(path):
    """Parse and fully validate an experiment config, or raise ConfigError
    carrying every violation found (with field paths)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"JSON parse error at line {exc.lineno} col {exc.colno}: {exc.msg}"])

    violations = []
    task = raw.get("task")
    if task not in TASKS:
        violations.append(f"task: must be one of {TASKS}, got {task!r}")
    plant_raw = raw.get("plant")
    plant = None
    if not isinstance(plant_raw, dict):
        violations.append("plant: missing or not an object")
    else:
        kwargs = {}
        for name in ("A", "B", "C", "Sigma", "W", "V", "Q", "R"):
            kwargs[name] = _get_matrix(plant_raw, f"plant.{name}", violations,
                                       required=True)
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        if not violations:
            try:
                plant = Plant.create(**kwargs)
            except (ContractError, PolgeoError) as exc:
                violations.append(f"plant: {exc}")
    options = raw.get("options", {})
    if not isinstance(options, dict):
        violations.append("options: must be an object")
        options = {}
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(task=task, plant=plant, options=options, raw=raw)


def _opt(cfg, key, default_key=None):
    return cfg.options.get(key, DEFAULTS[default_key or key])


# Options that must be finite numbers when given.
_NUMERIC = ("tol", "max_iter", "alpha", "eta", "epsilon", "samples", "resolution",
            "grid", "refine_tol", "radius", "order", "seed")


def _option_violations(options):
    return [f"options.{key}: expected a finite number, got {options[key]!r}"
            for key in _NUMERIC if key in options
            and (isinstance(options[key], bool) or not isinstance(options[key], (int, float))
                 or not math.isfinite(options[key]))]


def _gain(cfg, key, violations):
    return _get_matrix(cfg.options, f"options.{key}", violations,
                       shape=(cfg.plant.m, cfg.plant.n))


def _dynamic_policy(cfg, key, violations):
    value = cfg.options.get(key)
    if not isinstance(value, dict):
        violations.append(f"options.{key}: missing or not an object")
        return None
    try:
        return DynamicPolicy.create(np.asarray(value["A_K"], dtype=float),
                                    np.asarray(value["B_K"], dtype=float),
                                    np.asarray(value["C_K"], dtype=float))
    except (KeyError, ValueError, ContractError) as exc:
        violations.append(f"options.{key}: {exc}")
        return None


def _slice_frame(cfg, size):
    """origin (zero by default), dir1 and dir2 of a landscape slice, each
    flattened to `size` entries; the directions must be linearly independent."""
    violations = []
    options = {"origin": np.zeros(size).tolist(), **cfg.options}
    frame = [_get_matrix(options, f"options.{key}", violations)
             for key in ("origin", "dir1", "dir2")]
    for key, M in zip(("origin", "dir1", "dir2"), frame):
        if M is not None and M.size != size:
            violations.append(f"options.{key}: expected {size} entries, got {M.size}")
    if not violations:
        frame = [M.reshape(-1) for M in frame]
        try:
            check_slice_directions(frame[1], frame[2])
        except ContractError as exc:
            violations.append(f"options.dir1, options.dir2: {exc}")
    if violations:
        raise ConfigError(violations)
    return frame


def _constraint(cfg, violations):
    constraint = cfg.options.get("constraint")
    kind = constraint.get("kind") if isinstance(constraint, dict) else None
    entry = {"sparsity": "mask", "output_feedback": "Cout"}.get(kind)
    if entry is None:
        violations.append(f"options.constraint.kind: unknown {kind!r}")
        return None
    shape = (cfg.plant.m, cfg.plant.n) if kind == "sparsity" else None
    M = _get_matrix(constraint, f"options.constraint.{entry}", violations, shape=shape)
    try:
        if M is not None and kind == "sparsity":
            return ConstraintSubspace.sparsity(M != 0.0)
        if M is not None:
            return ConstraintSubspace.output_feedback(M, cfg.plant.m)
    except ContractError as exc:
        violations.append(f"options.constraint.{entry}: {exc}")
    return None


def _step_rule(cfg):
    rule = _opt(cfg, "step_rule")
    if rule.get("kind") == "fixed":
        return lqr.FixedStep(eta=rule.get("eta"))
    return lqr.CertificateStep(cap=float(rule.get("cap", 1.0)))


def _trace_summary(trace):
    last = trace[-1]
    return {"final_J": last.J, "grad_norm": last.grad_norm,
            "iterations": last.iter, "rho": last.rho}


def _run_task(cfg, outdir, seed):
    plant = cfg.plant
    extras = {}
    trace = None
    violations = []

    if cfg.task in ("lqr_gd", "hewer", "structured_gd", "hinf_eval",
                    "hinf_descent", "zo_gd"):
        K0 = _gain(cfg, "K0" if cfg.task != "hinf_eval" else "K", violations)
        if violations:
            raise ConfigError(violations)

    if cfg.task == "dare":
        P, Kstar = lqr.dare_solve(plant)
        ev = lqr.lqr_eval(plant, Kstar)
        extras.update({"P_star": P.tolist(), "K_star": Kstar.K.tolist(),
                       "final_J": ev.J,
                       "grad_norm": float(np.linalg.norm(
                           lqr.lqr_grad_riemannian(plant, Kstar)))})
        return extras, trace

    if cfg.task == "lqr_gd":
        Kc = StaticGain.certify(plant, K0)
        K, trace = lqr.gd_run(plant, Kc, direction=_opt(cfg, "direction"),
                              step_rule=_step_rule(cfg), tol=_opt(cfg, "tol"),
                              max_iter=int(_opt(cfg, "max_iter")))
        extras.update(_trace_summary(trace))
        extras["K_final"] = K.K.tolist()
        return extras, trace

    if cfg.task == "hewer":
        K = StaticGain.certify(plant, K0)
        tol = cfg.options.get("tol", 1e-12)
        trace = []
        for it in range(int(cfg.options.get("max_iter", 100))):
            ev = lqr.lqr_eval(plant, K)
            Knew = lqr.hewer_step(plant, K, ev)
            delta = float(np.linalg.norm(Knew.K - K.K))
            trace.append(lqr.IterTrace(iter=it, J=ev.J, grad_norm=delta, step=1.0,
                                       rho=spectral_radius(ev.A_cl)))
            K = Knew
            if delta <= tol:
                break
        extras.update(_trace_summary(trace))
        extras["K_final"] = K.K.tolist()
        return extras, trace

    if cfg.task == "structured_gd":
        sub = _constraint(cfg, violations)
        if violations:
            raise ConfigError(violations)
        metric = LyapunovMetric() if _opt(cfg, "metric") == "lyapunov" else Frobenius()
        Kc = StaticGain.certify(plant, K0)
        K, trace = structured.structured_gd_run(
            plant, Kc, sub, metric=metric, step_rule=_step_rule(cfg),
            tol=_opt(cfg, "tol"), max_iter=int(_opt(cfg, "max_iter")))
        extras.update(_trace_summary(trace))
        extras["K_final"] = K.K.tolist()
        return extras, trace

    if cfg.task in ("lqg_gd", "lqg_rgd"):
        Kd0 = _dynamic_policy(cfg, "Kd0", violations)
        if violations:
            raise ConfigError(violations)
        mode = "km_riemannian" if cfg.task == "lqg_rgd" else "euclidean"
        weights = tuple(_opt(cfg, "km_weights"))
        Kd, trace, minimal = lqg.lqg_gd_run(
            plant, Kd0, mode=mode, weights=weights, alpha=_opt(cfg, "alpha"),
            tol=_opt(cfg, "tol"), max_iter=int(_opt(cfg, "max_iter")))
        extras.update(_trace_summary(trace))
        extras.update({"A_K": Kd.A_K.tolist(), "B_K": Kd.B_K.tolist(),
                       "C_K": Kd.C_K.tolist(), "is_minimal": minimal})
        return extras, trace

    if cfg.task == "hinf_eval":
        Kc = StaticGain.certify(plant, K0)
        ev = hinf.hinf_cost(plant, Kc, grid=int(_opt(cfg, "grid")),
                            refine_tol=_opt(cfg, "refine_tol"))
        extras.update({"final_J": ev.J, "omega_star": ev.omega_star,
                       "grid": ev.grid_size, "refined": ev.refined})
        print(f"J={ev.J:.9g} omega_star={ev.omega_star:.9g} "
              f"grid={ev.grid_size} refined={str(ev.refined).lower()}")
        return extras, trace

    if cfg.task == "hinf_descent":
        Kc = StaticGain.certify(plant, K0)
        K, trace = hinf.hinf_descent_run(
            plant, Kc, sample_count=cfg.options.get("samples"),
            sample_radius=cfg.options.get("radius"),
            grid=int(_opt(cfg, "grid", "hinf_descent_grid")),
            tol=cfg.options.get("tol", 1e-6),
            max_iter=int(cfg.options.get("max_iter", 200)), rng_seed=seed)
        extras.update(_trace_summary(trace))
        extras["K_final"] = K.K.tolist()
        return extras, trace

    if cfg.task == "zo_gd":
        if not is_stabilizing_static(plant, K0):
            raise InfeasibleError("zo_gd: K0 is not stabilizing")
        zcfg = zeroth.ZoConfig(epsilon=_opt(cfg, "epsilon"),
                               samples=int(_opt(cfg, "samples")),
                               seed=seed, estimator=_opt(cfg, "estimator"))
        m, n = plant.m, plant.n

        def costfn(theta):
            K = theta.reshape(m, n)
            if not is_stabilizing_static(plant, K):
                return np.inf
            return lqr.lqr_eval(plant, StaticGain(K, True)).J

        def feasibility(theta):
            return is_stabilizing_static(plant, theta.reshape(m, n))

        theta, trace = zeroth.zo_gd_run(
            costfn, feasibility, K0.reshape(-1), zcfg, eta=_opt(cfg, "eta"),
            tol=cfg.options.get("tol", 1e-8),
            max_iter=int(_opt(cfg, "max_iter")),
            rho_fn=lambda th: spectral_radius(
                closed_loop_static(plant, th.reshape(m, n))))
        extras.update(_trace_summary(trace))
        extras["K_final"] = theta.reshape(m, n).tolist()
        extras["rng"] = zeroth.RNG_NAME
        extras["zo_config"] = {"epsilon": zcfg.epsilon, "samples": zcfg.samples,
                               "seed": zcfg.seed, "estimator": zcfg.estimator}
        return extras, trace

    if cfg.task == "landscape":
        kind = cfg.options.get("cost", "lqr")
        resolution = int(_opt(cfg, "resolution"))
        box = cfg.options.get("box", [[-1.0, 1.0], [-1.0, 1.0]])
        m, n = plant.m, plant.n
        if kind in ("lqr", "hinf"):
            origin, dir1, dir2 = (M.reshape(m, n) for M in _slice_frame(cfg, m * n))

            if kind == "lqr":
                def costfn(K):
                    if not is_stabilizing_static(plant, K):
                        raise InfeasibleError("unstable cell")
                    return lqr.lqr_eval(plant, StaticGain(K, True)).J
            else:
                def costfn(K):
                    if not is_stabilizing_static(plant, K):
                        raise InfeasibleError("unstable cell")
                    return hinf.hinf_cost(plant, StaticGain(K, True), grid=256).J
        elif kind == "lqg":
            q = int(cfg.options.get("order", plant.n))
            shape = (q * q + q * plant.p + plant.m * q,)

            def unpack(v):
                a = v[: q * q].reshape(q, q)
                b = v[q * q: q * q + q * plant.p].reshape(q, plant.p)
                c = v[q * q + q * plant.p:].reshape(plant.m, q)
                return DynamicPolicy(A_K=a, B_K=b, C_K=c)

            origin, dir1, dir2 = _slice_frame(cfg, shape[0])

            def costfn(v):
                Kd = unpack(v)
                if not is_stabilizing_dynamic(plant, Kd):
                    raise InfeasibleError("unstable cell")
                return lqg.lqg_eval(plant, Kd).J
        else:
            raise ConfigError([f"options.cost: unknown {kind!r}"])
        s_vals, t_vals, grid = landscape_slice(costfn, origin, dir1, dir2,
                                               box, resolution)
        write_grid_csv(outdir / "grid.csv", s_vals, t_vals, grid)
        extras.update({"resolution": resolution,
                       "feasible_cells": int(np.sum(np.isfinite(grid))),
                       "min_value": (float(np.min(grid[np.isfinite(grid)]))
                                     if np.any(np.isfinite(grid)) else None)})
        return extras, trace

    if cfg.task == "connectivity":
        kind = cfg.options.get("kind", "dynamic")
        resolution = int(_opt(cfg, "resolution"))
        box = cfg.options["box"]
        if kind == "dynamic":
            q = int(cfg.options.get("order", 1))
            if q != 1 or plant.p != 1 or plant.m != 1:
                raise ConfigError(["options: dynamic connectivity scan supports "
                                   "scalar (q=1, m=1, p=1) policies"])

            def membership(point):
                a_k, b_k, c_k = point
                Kd = DynamicPolicy(A_K=np.array([[a_k]]), B_K=np.array([[b_k]]),
                                   C_K=np.array([[c_k]]))
                return is_stabilizing_dynamic(plant, Kd)
        else:
            m, n = plant.m, plant.n

            def membership(point):
                K = np.asarray(point, dtype=float).reshape(m, n)
                return is_stabilizing_static(plant, K)
        components = connectivity_scan(membership, box, resolution)
        extras.update({"components": components, "resolution": resolution})
        return extras, trace

    raise ConfigError([f"task: unhandled {cfg.task!r}"])


def run_experiment(cfg, outdir, seed=None):
    """Execute a validated config; write trace.jsonl / summary.json (and
    grid.csv for grid tasks) into outdir. Returns the process exit code."""
    from pathlib import Path

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {"task": cfg.task, "seed": seed, "config": cfg.raw,
               "defaults": DEFAULTS, "error": None}
    start = time.perf_counter()
    code = 0
    try:
        violations = _option_violations(cfg.options)
        if violations:
            raise ConfigError(violations)
        if seed is None:
            seed = summary["seed"] = int(cfg.options.get("seed", DEFAULTS["seed"]))
        extras, trace = _run_task(cfg, outdir, seed)
        summary.update(extras)
        if trace is not None:
            lqr.write_trace_jsonl(outdir / "trace.jsonl", trace)
    except ConfigError as exc:
        summary["error"] = {"kind": "config", "violations": exc.violations}
        code = 2
    except (InfeasibleError, BoundaryError) as exc:
        summary["error"] = {"kind": "infeasible", "message": str(exc)}
        code = 3
    except StalledError as exc:
        summary["error"] = {"kind": "stalled", "message": str(exc)}
        if exc.trace:
            lqr.write_trace_jsonl(outdir / "trace.jsonl", exc.trace)
        code = 4
    except InternalInvariantError as exc:
        summary["error"] = {"kind": "internal_invariant", "message": str(exc)}
        code = 5
    summary["wall_time"] = time.perf_counter() - start
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(prog="polgeo")
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    if cfg.task != args.task:
        print(f"config error: task: config says {cfg.task!r}, "
              f"command line says {args.task!r}", file=sys.stderr)
        return 2
    return run_experiment(cfg, args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
