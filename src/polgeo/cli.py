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

class Options:
    """A task's options. Every lookup records the value in force, given or
    defaulted; the summary echoes that record as `options_in_force`, so it
    cannot drift from what the task used."""

    def __init__(self, given):
        self.given = given
        self.in_force = {}

    def __contains__(self, key):
        return key in self.given

    def __getitem__(self, key):
        return self.get(key)

    def get(self, key, default=None):
        value = self.given.get(key, default)
        self.in_force[key] = value
        return value

    def choice(self, key, default, choices, violations):
        value = self.get(key, default)
        if value not in choices:
            violations.append(f"options.{key}: must be one of {choices}, got {value!r}")
        return value


@dataclass
class ExperimentConfig:
    task: str
    plant: Plant
    options: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def _get_matrix(obj, path, violations, shape=None):
    if path.split(".")[-1] not in obj:
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
        kwargs = {name: _get_matrix(plant_raw, f"plant.{name}", violations)
                  for name in ("A", "B", "C", "Sigma", "W", "V", "Q", "R")}
        if not violations:
            try:
                plant = Plant.create(**kwargs)
            except PolgeoError as exc:
                violations.append(f"plant: {exc}")
    options = raw.get("options", {})
    if not isinstance(options, dict):
        violations.append("options: must be an object")
        options = {}
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(task=task, plant=plant, options=options, raw=raw)


# Options that must be finite numbers when given.
_NUMERIC = ("tol", "max_iter", "alpha", "eta", "epsilon", "samples", "resolution",
            "grid", "refine_tol", "radius", "order", "seed")


def _finite_number(value):
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and math.isfinite(value))


def _option_violations(options):
    return [f"options.{key}: expected a finite number, got {options[key]!r}"
            for key in _NUMERIC if key in options and not _finite_number(options[key])]


def _gain(plant, opts, key, violations):
    return _get_matrix(opts, f"options.{key}", violations, shape=(plant.m, plant.n))


def _dynamic_policy(plant, opts, violations):
    value = opts.get("Kd0")
    if not isinstance(value, dict):
        violations.append("options.Kd0: missing or not an object")
        return None
    try:
        Kd = DynamicPolicy.create(np.asarray(value["A_K"], dtype=float),
                                  np.asarray(value["B_K"], dtype=float),
                                  np.asarray(value["C_K"], dtype=float))
    except (KeyError, ValueError, ContractError) as exc:
        violations.append(f"options.Kd0: {exc}")
        return None
    for name, M, shape in (("B_K", Kd.B_K, (Kd.order, plant.p)),
                           ("C_K", Kd.C_K, (plant.m, Kd.order))):
        if M.shape != shape:
            violations.append(f"options.Kd0.{name}: expected shape {shape}, got {M.shape}")
    return Kd


def _slice_frame(opts, size):
    """origin (zero by default), dir1 and dir2 of a landscape slice, each
    flattened to `size` entries; the directions must be linearly independent."""
    violations = []
    given = {key: opts[key] for key in ("dir1", "dir2") if key in opts}
    given["origin"] = opts.get("origin", np.zeros(size).tolist())
    frame = [_get_matrix(given, f"options.{key}", violations)
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


def _box(opts, dim, violations, default=None):
    """A scan box: `dim` [lo, hi] pairs of finite numbers."""
    box = opts.get("box", default)
    try:
        B = np.asarray(box, dtype=float)
    except (TypeError, ValueError):
        B = np.zeros(0)
    if B.shape != (dim, 2) or not np.all(np.isfinite(B)):
        violations.append(f"options.box: expected {dim} [lo, hi] pairs of finite "
                          f"numbers, got {box!r}")
    return B


def _constraint(plant, opts, violations):
    constraint = opts.get("constraint")
    kind = constraint.get("kind") if isinstance(constraint, dict) else None
    entry = {"sparsity": "mask", "output_feedback": "Cout"}.get(kind)
    if entry is None:
        violations.append(f"options.constraint.kind: unknown {kind!r}")
        return None
    shape = (plant.m, plant.n) if kind == "sparsity" else None
    M = _get_matrix(constraint, f"options.constraint.{entry}", violations, shape=shape)
    try:
        if M is not None and kind == "sparsity":
            return ConstraintSubspace.sparsity(M != 0.0)
        if M is not None:
            return ConstraintSubspace.output_feedback(M, plant.m)
    except ContractError as exc:
        violations.append(f"options.constraint.{entry}: {exc}")
    return None


def _step_rule(opts, violations):
    rule = opts.get("step_rule", {"kind": "certificate", "cap": 1.0})
    kind = rule.get("kind", "certificate") if isinstance(rule, dict) else None
    value = rule.get("eta" if kind == "fixed" else "cap") if kind else None
    if kind not in ("certificate", "fixed") or not (value is None or _finite_number(value)):
        violations.append(f"options.step_rule: expected kind 'certificate' (with cap) or "
                          f"'fixed' (with eta), each a finite number, got {rule!r}")
        return None
    if kind == "fixed":
        return lqr.FixedStep(eta=value)
    return lqr.CertificateStep(cap=1.0 if value is None else float(value))


def _run_task(cfg, opts, outdir, seed):
    plant = cfg.plant
    extras = {}
    trace = None
    violations = []

    def check():
        if violations:
            raise ConfigError(violations)

    if cfg.task in ("lqr_gd", "hewer", "structured_gd", "hinf_eval",
                    "hinf_descent", "zo_gd"):
        K0 = _gain(plant, opts, "K0" if cfg.task != "hinf_eval" else "K", violations)
        check()

    if cfg.task == "dare":
        P, Kstar = lqr.dare_solve(plant)
        ev = lqr.lqr_eval(plant, Kstar)
        extras.update({"P_star": P.tolist(), "K_star": Kstar.K.tolist(),
                       "final_J": ev.J,
                       "grad_norm": float(np.linalg.norm(
                           lqr.lqr_grad_riemannian(plant, Kstar)))})

    elif cfg.task == "lqr_gd":
        direction = opts.choice("direction", "euclidean",
                                ("euclidean", "riemannian", "pseudo_newton"), violations)
        step_rule = _step_rule(opts, violations)
        check()
        Kc = StaticGain.certify(plant, K0)
        K, trace = lqr.gd_run(plant, Kc, direction=direction, step_rule=step_rule,
                              tol=opts.get("tol", 1e-8),
                              max_iter=int(opts.get("max_iter", 1000)))
        extras["K_final"] = K.K.tolist()

    elif cfg.task == "hewer":
        K = StaticGain.certify(plant, K0)
        tol = opts.get("tol", 1e-12)
        trace = []
        for it in range(int(opts.get("max_iter", 100))):
            ev = lqr.lqr_eval(plant, K)
            Knew = lqr.hewer_step(plant, K, ev)
            delta = float(np.linalg.norm(Knew.K - K.K))
            trace.append(lqr.IterTrace(iter=it, J=ev.J, grad_norm=delta, step=1.0,
                                       rho=spectral_radius(ev.A_cl)))
            K = Knew
            if delta <= tol:
                break
        extras["K_final"] = K.K.tolist()

    elif cfg.task == "structured_gd":
        sub = _constraint(plant, opts, violations)
        metric = opts.choice("metric", "frobenius", ("frobenius", "lyapunov"), violations)
        step_rule = _step_rule(opts, violations)
        check()
        Kc = StaticGain.certify(plant, K0)
        K, trace = structured.structured_gd_run(
            plant, Kc, sub, metric=LyapunovMetric() if metric == "lyapunov" else Frobenius(),
            step_rule=step_rule, tol=opts.get("tol", 1e-8),
            max_iter=int(opts.get("max_iter", 1000)))
        extras["K_final"] = K.K.tolist()

    elif cfg.task in ("lqg_gd", "lqg_rgd"):
        Kd0 = _dynamic_policy(plant, opts, violations)
        check()
        mode = "km_riemannian" if cfg.task == "lqg_rgd" else "euclidean"
        Kd, trace, minimal = lqg.lqg_gd_run(
            plant, Kd0, mode=mode, weights=tuple(opts.get("km_weights", [1.0, 1.0, 1.0])),
            alpha=opts.get("alpha", 0.5), tol=opts.get("tol", 1e-8),
            max_iter=int(opts.get("max_iter", 1000)))
        extras.update({"A_K": Kd.A_K.tolist(), "B_K": Kd.B_K.tolist(),
                       "C_K": Kd.C_K.tolist(), "is_minimal": minimal})

    elif cfg.task == "hinf_eval":
        Kc = StaticGain.certify(plant, K0)
        ev = hinf.hinf_cost(plant, Kc, grid=int(opts.get("grid", 2048)),
                            refine_tol=opts.get("refine_tol", 1e-10))
        extras.update({"final_J": ev.J, "omega_star": ev.omega_star,
                       "grid": ev.grid_size, "refined": ev.refined})
        print(f"J={ev.J:.9g} omega_star={ev.omega_star:.9g} "
              f"grid={ev.grid_size} refined={str(ev.refined).lower()}")

    elif cfg.task == "hinf_descent":
        Kc = StaticGain.certify(plant, K0)
        # hinf_descent_run's own defaults, spelled out so the summary shows them
        K, trace = hinf.hinf_descent_run(
            plant, Kc, sample_count=int(opts.get("samples", 2 * plant.m * plant.n + 2)),
            sample_radius=opts.get("radius", 1e-4 * (1.0 + float(np.linalg.norm(K0)))),
            grid=int(opts.get("grid", 512)), tol=opts.get("tol", 1e-6),
            max_iter=int(opts.get("max_iter", 200)), rng_seed=seed)
        extras["K_final"] = K.K.tolist()

    elif cfg.task == "zo_gd":
        estimator = opts.choice("estimator", "two_point",
                                ("one_point", "two_point", "baseline"), violations)
        check()
        if not is_stabilizing_static(plant, K0):
            raise InfeasibleError("zo_gd: K0 is not stabilizing")
        zcfg = zeroth.ZoConfig(epsilon=opts.get("epsilon", 1e-3),
                               samples=int(opts.get("samples", 2)),
                               seed=seed, estimator=estimator)
        m, n = plant.m, plant.n

        def costfn(theta):
            K = theta.reshape(m, n)
            if not is_stabilizing_static(plant, K):
                return np.inf
            return lqr.lqr_eval(plant, StaticGain(K, True)).J

        def feasibility(theta):
            return is_stabilizing_static(plant, theta.reshape(m, n))

        theta, trace = zeroth.zo_gd_run(
            costfn, feasibility, K0.reshape(-1), zcfg, eta=opts.get("eta", 0.1),
            tol=opts.get("tol", 1e-8), max_iter=int(opts.get("max_iter", 1000)),
            rho_fn=lambda th: spectral_radius(
                closed_loop_static(plant, th.reshape(m, n))))
        extras["K_final"] = theta.reshape(m, n).tolist()
        extras["rng"] = zeroth.RNG_NAME
        extras["zo_config"] = {"epsilon": zcfg.epsilon, "samples": zcfg.samples,
                               "seed": zcfg.seed, "estimator": zcfg.estimator}

    elif cfg.task == "landscape":
        kind = opts.choice("cost", "lqr", ("lqr", "hinf", "lqg"), violations)
        resolution = int(opts.get("resolution", 61))
        box = _box(opts, 2, violations, default=[[-1.0, 1.0], [-1.0, 1.0]])
        check()
        m, n = plant.m, plant.n
        if kind in ("lqr", "hinf"):
            origin, dir1, dir2 = (M.reshape(m, n) for M in _slice_frame(opts, m * n))

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
        else:
            q = int(opts.get("order", plant.n))
            shape = (q * q + q * plant.p + plant.m * q,)

            def unpack(v):
                a = v[: q * q].reshape(q, q)
                b = v[q * q: q * q + q * plant.p].reshape(q, plant.p)
                c = v[q * q + q * plant.p:].reshape(plant.m, q)
                return DynamicPolicy(A_K=a, B_K=b, C_K=c)

            origin, dir1, dir2 = _slice_frame(opts, shape[0])

            def costfn(v):
                Kd = unpack(v)
                if not is_stabilizing_dynamic(plant, Kd):
                    raise InfeasibleError("unstable cell")
                return lqg.lqg_eval(plant, Kd).J
        s_vals, t_vals, grid = landscape_slice(costfn, origin, dir1, dir2,
                                               box, resolution)
        write_grid_csv(outdir / "grid.csv", s_vals, t_vals, grid)
        extras.update({"resolution": resolution,
                       "feasible_cells": int(np.sum(np.isfinite(grid))),
                       "min_value": (float(np.min(grid[np.isfinite(grid)]))
                                     if np.any(np.isfinite(grid)) else None)})

    elif cfg.task == "connectivity":
        kind = opts.choice("kind", "dynamic", ("dynamic", "static"), violations)
        resolution = int(opts.get("resolution", 61))
        if resolution < 8:
            violations.append(f"options.resolution: must be >= 8, got {resolution}")
        if kind == "dynamic":
            q = int(opts.get("order", 1))
            if q != 1 or plant.p != 1 or plant.m != 1:
                violations.append("options: dynamic connectivity scan supports "
                                  "scalar (q=1, m=1, p=1) policies")
            box = _box(opts, 3, violations)
            check()

            def membership(point):
                a_k, b_k, c_k = point
                Kd = DynamicPolicy(A_K=np.array([[a_k]]), B_K=np.array([[b_k]]),
                                   C_K=np.array([[c_k]]))
                return is_stabilizing_dynamic(plant, Kd)
        else:
            m, n = plant.m, plant.n
            if m * n > 4:
                violations.append("options: static connectivity scan supports at most "
                                  "4 gain entries")
            box = _box(opts, m * n, violations)
            check()

            def membership(point):
                K = np.asarray(point, dtype=float).reshape(m, n)
                return is_stabilizing_static(plant, K)
        components = connectivity_scan(membership, box, resolution)
        extras.update({"components": components, "resolution": resolution})

    else:
        raise ConfigError([f"task: unhandled {cfg.task!r}"])
    if trace:
        last = trace[-1]
        extras.update({"final_J": last.J, "grad_norm": last.grad_norm,
                       "iterations": last.iter, "rho": last.rho})
    return extras, trace


def run_experiment(cfg, outdir, seed=None):
    """Execute a validated config; write trace.jsonl / summary.json (and
    grid.csv for grid tasks) into outdir. Returns the process exit code."""
    from pathlib import Path

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    opts = Options(cfg.options)
    summary = {"task": cfg.task, "seed": seed, "config": cfg.raw,
               "options_in_force": opts.in_force, "error": None}
    start = time.perf_counter()
    code = 0
    try:
        violations = _option_violations(cfg.options)
        if violations:
            raise ConfigError(violations)
        if seed is None:
            seed = summary["seed"] = int(opts.get("seed", 0))
        extras, trace = _run_task(cfg, opts, outdir, seed)
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
