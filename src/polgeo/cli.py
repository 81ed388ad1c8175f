"""Batch front end: JSON config ingestion, experiment orchestration across
all engines, and emission of traces (JSONL), grids (CSV), and summaries.

Usage: polgeo <task> --config <path> [--out <dir>] [--seed <u64>]
Exit codes: 0 ok, 2 config error, 3 infeasible start, 4 stalled,
5 internal-invariant violation or any other package error.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

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

@dataclass
class ExperimentConfig:
    task: str
    plant: Plant
    options: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def _invalid(path, message):
    return ConfigError([f"{path}: {message}"])


def _matrix(value, path, shape=None):
    """A 2-D array of finite numbers; a flat list is one row."""
    try:
        M = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise _invalid(path, "not a numeric matrix") from None
    if M.ndim == 1:
        M = M.reshape(1, -1)
    if M.ndim != 2:
        raise _invalid(path, "expected a 2-D array")
    if not np.all(np.isfinite(M)):
        raise _invalid(path, "entries must be finite")
    if shape is not None and M.shape != shape:
        raise _invalid(path, f"expected shape {shape}, got {M.shape}")
    return M


# Option parsers. Each takes (value, path, plant, opts), where opts holds the
# task's options parsed before this one, and returns the typed value the task
# uses or raises ConfigError naming the field.

def _number(lo, strict=False, integer=False):
    """A finite number >= lo (> lo when strict); with integer, an integer,
    where an integral float such as 1e3 counts as one."""
    expected = f"{'an integer' if integer else 'a finite number'} {'>' if strict else '>='} {lo}"

    def parse(value, path, plant=None, opts=None):
        try:
            ok = (not isinstance(value, bool) and math.isfinite(value)
                  and (value > lo if strict else value >= lo)
                  and (not integer or value == int(value)))
        except (TypeError, OverflowError):
            ok = False
        if not ok:
            raise _invalid(path, f"expected {expected}, got {value!r}")
        return int(value) if integer else value
    return parse


_count = partial(_number, integer=True)
_POSITIVE = _number(0, strict=True)
_NONNEGATIVE = _number(0)


def _one_of(*names, **values):
    """One of the names; a name given as a keyword parses to its value."""
    choices = {**{name: name for name in names}, **values}

    def parse(value, path, plant, opts):
        if not isinstance(value, str) or value not in choices:
            raise _invalid(path, f"must be one of {tuple(choices)}, got {value!r}")
        return choices[value]
    return parse


def _policy(full_order):
    """A dynamic policy {A_K, B_K, C_K} of order q: B_K q x p, C_K m x q, and
    q = n when full_order (the KM metric needs it)."""
    def parse(value, path, plant, opts):
        if not isinstance(value, dict) or not {"A_K", "B_K", "C_K"} <= set(value):
            raise _invalid(path, "expected an object with A_K, B_K and C_K")
        try:
            Kd = DynamicPolicy.create(value["A_K"], value["B_K"], value["C_K"])
        except (PolgeoError, TypeError, ValueError, OverflowError) as exc:
            raise _invalid(path, str(exc)) from None
        for name, M, shape in (("B_K", Kd.B_K, (Kd.order, plant.p)),
                               ("C_K", Kd.C_K, (plant.m, Kd.order))):
            if M.shape != shape:
                raise _invalid(f"{path}.{name}", f"expected shape {shape}, got {M.shape}")
        if full_order and Kd.order != plant.n:
            raise _invalid(path, f"KM descent needs a full-order policy (order {plant.n}), "
                                 f"got order {Kd.order}")
        return Kd
    return parse


def _km_weights(value, path, plant, opts):
    """Three KM-metric weights, w1 > 0 and w2, w3 >= 0."""
    if not isinstance(value, list) or len(value) != 3:
        raise _invalid(path, f"expected three weights, got {value!r}")
    return (_POSITIVE(value[0], f"{path}[0]"), _NONNEGATIVE(value[1], f"{path}[1]"),
            _NONNEGATIVE(value[2], f"{path}[2]"))


def _constraint(value, path, plant, opts):
    """A sparsity mask (m x n) or an output-feedback Cout (n columns); K0
    must lie in the subspace it defines."""
    kind = value.get("kind") if isinstance(value, dict) else None
    if kind not in ("sparsity", "output_feedback"):
        raise _invalid(f"{path}.kind", f"must be 'sparsity' or 'output_feedback', "
                                       f"got {kind!r}")
    key = "mask" if kind == "sparsity" else "Cout"
    entry = f"{path}.{key}"
    if key not in value:
        raise _invalid(entry, "missing")
    M = _matrix(value[key], entry, shape=(plant.m, plant.n) if kind == "sparsity" else None)
    if M.shape[1] != plant.n:
        raise _invalid(entry, f"expected {plant.n} columns, got {M.shape[1]}")
    try:
        sub = (ConstraintSubspace.sparsity(M != 0.0) if kind == "sparsity"
               else ConstraintSubspace.output_feedback(M, plant.m))
    except ContractError as exc:
        raise _invalid(entry, str(exc)) from None
    if not sub.contains(opts["K0"]):
        raise _invalid("options.K0", "not in the constraint subspace")
    return sub


def _step_rule(value, path, plant, opts):
    """{"kind": "certificate", "cap": c} or {"kind": "fixed", "eta": e}, c and
    e positive; a fixed rule without eta steps 1e-3 / ||R||_2."""
    kind = value.get("kind", "certificate") if isinstance(value, dict) else None
    if kind not in ("certificate", "fixed"):
        raise _invalid(path, f"expected kind 'certificate' (with cap) or 'fixed' "
                             f"(with eta), got {value!r}")
    key = "eta" if kind == "fixed" else "cap"
    bound = None if value.get(key) is None else _POSITIVE(value[key], f"{path}.{key}")
    return (lqr.FixedStep(eta=bound) if kind == "fixed"
            else lqr.CertificateStep(cap=1.0 if bound is None else float(bound)))


def _box(dim):
    """A scan box: dim(plant, opts) [lo, hi] rows of finite numbers."""
    return lambda value, path, plant, opts: _matrix(value, path, shape=(dim(plant, opts), 2))


MAX_SCAN_CELLS = 10**7


def _resolution(lo, dim):
    """A scan resolution: an integer >= lo whose grid, resolution**d cells
    for d = dim(plant, opts) axes, holds at most MAX_SCAN_CELLS cells."""
    def parse(value, path, plant, opts):
        resolution, d = _count(lo)(value, path), dim(plant, opts)
        if resolution ** d > MAX_SCAN_CELLS:
            raise _invalid(path, f"expected at most {MAX_SCAN_CELLS} grid cells, "
                                 f"got {resolution}**{d} = {resolution ** d}")
        return resolution
    return parse


def _scan_kind(value, path, plant, opts):
    """'dynamic' (scalar policies on a plant with m = p = 1) or 'static'
    (at most 4 gain entries)."""
    kind = _one_of("dynamic", "static")(value, path, plant, opts)
    if kind == "dynamic" and plant.m * plant.p != 1:
        raise _invalid(path, "the dynamic scan supports scalar (q=1, m=1, p=1) policies")
    if kind == "static" and plant.m * plant.n > 4:
        raise _invalid(path, "the static scan supports at most 4 gain entries")
    return kind


def _scan_dim(plant, opts):
    """Axes of a connectivity scan: (a_K, b_K, c_K) or the gain's entries."""
    return 3 if opts["kind"] == "dynamic" else plant.m * plant.n


def _slice_size(plant, opts):
    """Entries of a landscape point: a static gain, or an order-q policy."""
    if opts["cost"] != "lqg":
        return plant.m * plant.n
    q = opts["order"]
    return q * q + q * plant.p + plant.m * q


def _slice_vector(value, path, plant, opts):
    """A landscape origin or direction: a gain for the lqr and hinf costs,
    the flattened (A_K, B_K, C_K) for lqg."""
    size = _slice_size(plant, opts)
    M = _matrix(value, path)
    if M.size != size:
        raise _invalid(path, f"expected {size} entries, got {M.size}")
    v = M.reshape(-1)
    return v if opts["cost"] == "lqg" else v.reshape(plant.m, plant.n)


def _slice_dir2(value, path, plant, opts):
    """The second slice direction, linearly independent of dir1."""
    dir2 = _slice_vector(value, path, plant, opts)
    try:
        check_slice_directions(opts["dir1"], dir2)
    except ContractError as exc:
        raise _invalid(f"options.dir1, {path}", str(exc)) from None
    return dir2


REQUIRED = object()
_GAIN = (REQUIRED, lambda value, path, plant, opts: _matrix(value, path, (plant.m, plant.n)))
_STEP_RULE = ({"kind": "certificate", "cap": 1.0}, _step_rule)
_DESCENT = {"tol": (1e-8, _NONNEGATIVE), "max_iter": (1000, _count(0))}

# Every option of every task: name -> (default, parser), in the order they
# are parsed. A default is a JSON value or a function of (plant, options
# parsed before it); REQUIRED marks an option without one. Every task also
# takes `seed`, which --seed overrides.
TASKS = {task: {**options, "seed": (0, _count(0))} for task, options in {
    "lqr_gd": {"K0": _GAIN,
               "direction": ("euclidean", _one_of("euclidean", "riemannian",
                                                  "pseudo_newton")),
               "step_rule": _STEP_RULE, **_DESCENT},
    "hewer": {"K0": _GAIN, "tol": (1e-12, _NONNEGATIVE), "max_iter": (100, _count(0))},
    "structured_gd": {"K0": _GAIN, "constraint": (REQUIRED, _constraint),
                      "metric": ("frobenius", _one_of(frobenius=Frobenius(),
                                                      lyapunov=LyapunovMetric())),
                      "step_rule": _STEP_RULE, **_DESCENT},
    "lqg_gd": {"Kd0": (REQUIRED, _policy(full_order=False)), "alpha": (0.5, _POSITIVE), **_DESCENT},
    "lqg_rgd": {"Kd0": (REQUIRED, _policy(full_order=True)),
                "km_weights": ([1.0, 1.0, 1.0], _km_weights),
                "alpha": (0.5, _POSITIVE), **_DESCENT},
    "hinf_eval": {"K": _GAIN, "grid": (2048, _count(64)),
                  "refine_tol": (1e-10, _POSITIVE)},
    "hinf_descent": {"K0": _GAIN,
                     "samples": (lambda plant, opts: 2 * plant.m * plant.n + 2, _count(0)),
                     "radius": (lambda plant, opts: 1e-4 * (1.0 + float(
                         np.linalg.norm(opts["K0"]))), _POSITIVE),
                     "grid": (512, _count(64)), "tol": (1e-6, _NONNEGATIVE),
                     "max_iter": (200, _count(0))},
    "zo_gd": {"K0": _GAIN,
              "estimator": ("two_point", _one_of("one_point", "two_point", "baseline")),
              "epsilon": (1e-3, _POSITIVE), "samples": (2, _count(1)),
              "eta": (0.1, _POSITIVE), **_DESCENT},
    "landscape": {"cost": ("lqr", _one_of("lqr", "hinf", "lqg")),
                  "order": (lambda plant, opts: plant.n, _count(1)),
                  "resolution": (61, _resolution(2, lambda plant, opts: 2)),
                  "box": ([[-1.0, 1.0], [-1.0, 1.0]], _box(lambda plant, opts: 2)),
                  "origin": (lambda plant, opts: np.zeros(_slice_size(plant, opts)).tolist(),
                             _slice_vector),
                  "dir1": (REQUIRED, _slice_vector), "dir2": (REQUIRED, _slice_dir2)},
    "connectivity": {"kind": ("dynamic", _scan_kind),
                     "resolution": (61, _resolution(8, _scan_dim)),
                     "box": (REQUIRED, _box(_scan_dim))},
    "dare": {},
}.items()}


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
    if not isinstance(raw, dict):
        raise ConfigError(["config: must be a JSON object"])

    violations = []
    task = raw.get("task")
    if not isinstance(task, str) or task not in TASKS:
        violations.append(f"task: must be one of {tuple(TASKS)}, got {task!r}")
    plant_raw = raw.get("plant")
    plant = None
    if not isinstance(plant_raw, dict):
        violations.append("plant: missing or not an object")
    else:
        kwargs = {}
        for name in ("A", "B", "C", "Sigma", "W", "V", "Q", "R"):
            try:
                kwargs[name] = _matrix(plant_raw[name], f"plant.{name}")
            except KeyError:
                violations.append(f"plant.{name}: missing")
            except ConfigError as exc:
                violations += exc.violations
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


def _read_options(task, plant, given, in_force):
    """Parse the task's options from its TASKS entry in table order, given or
    defaulted, and record each value in force in in_force. Returns the parsed
    options, or raises ConfigError with every violation, unknown options too."""
    table = TASKS[task]
    violations = [f"options.{key}: not an option of {task}"
                  for key in given if key not in table]
    opts = {}
    for key, (default, parse) in table.items():
        path = f"options.{key}"
        try:
            if key in given:
                value = given[key]
            elif default is REQUIRED:
                raise _invalid(path, "missing")
            else:
                value = default(plant, opts) if callable(default) else default
            opts[key] = parse(value, path, plant, opts)
            in_force[key] = value
        except ConfigError as exc:
            violations += exc.violations
        except KeyError:
            # needs an option that failed above, which is already reported
            if not violations:
                raise
    if violations:
        raise ConfigError(violations)
    return opts


def _run_task(task, plant, opts, outdir):
    """Run a task on its parsed options; returns (summary extras, trace)."""
    extras, trace, K = {}, None, None
    gain = opts.get("K0", opts.get("K"))
    Kc = None if gain is None else StaticGain.certify(plant, gain)

    if task == "dare":
        P, Kstar = lqr.dare_solve(plant)
        extras.update({"P_star": P.tolist(), "K_star": Kstar.K.tolist(),
                       "final_J": lqr.lqr_eval(plant, Kstar).J,
                       "grad_norm": float(np.linalg.norm(lqr.lqr_grad_riemannian(plant, Kstar)))})

    elif task == "lqr_gd":
        K, trace = lqr.gd_run(plant, Kc, direction=opts["direction"],
                              step_rule=opts["step_rule"], tol=opts["tol"],
                              max_iter=opts["max_iter"])

    elif task == "hewer":
        K, trace = Kc, []
        for it in range(opts["max_iter"]):
            ev = lqr.lqr_eval(plant, K)
            Knew = lqr.hewer_step(plant, K, ev)
            delta = float(np.linalg.norm(Knew.K - K.K))
            trace.append(lqr.IterTrace(iter=it, J=ev.J, grad_norm=delta, step=1.0,
                                       rho=spectral_radius(ev.A_cl)))
            K = Knew
            if delta <= opts["tol"]:
                break

    elif task == "structured_gd":
        K, trace = structured.structured_gd_run(
            plant, Kc, opts["constraint"], metric=opts["metric"],
            step_rule=opts["step_rule"], tol=opts["tol"], max_iter=opts["max_iter"])

    elif task in ("lqg_gd", "lqg_rgd"):
        km = {"mode": "km_riemannian", "weights": opts["km_weights"]} if task == "lqg_rgd" else {}
        Kd, trace, minimal = lqg.lqg_gd_run(plant, opts["Kd0"], alpha=opts["alpha"],
                                            tol=opts["tol"], max_iter=opts["max_iter"], **km)
        extras.update({"A_K": Kd.A_K.tolist(), "B_K": Kd.B_K.tolist(),
                       "C_K": Kd.C_K.tolist(), "is_minimal": minimal})

    elif task == "hinf_eval":
        ev = hinf.hinf_cost(plant, Kc, grid=opts["grid"], refine_tol=opts["refine_tol"])
        extras.update({"final_J": ev.J, "omega_star": ev.omega_star,
                       "grid": ev.grid_size, "refined": ev.refined})
        print(f"J={ev.J:.9g} omega_star={ev.omega_star:.9g} "
              f"grid={ev.grid_size} refined={str(ev.refined).lower()}")

    elif task == "hinf_descent":
        K, trace = hinf.hinf_descent_run(
            plant, Kc, sample_count=opts["samples"], sample_radius=opts["radius"],
            grid=opts["grid"], tol=opts["tol"], max_iter=opts["max_iter"],
            rng_seed=opts["seed"])

    elif task == "zo_gd":
        zcfg = zeroth.ZoConfig(epsilon=opts["epsilon"], samples=opts["samples"],
                               seed=opts["seed"], estimator=opts["estimator"])
        m, n = plant.m, plant.n

        def costfn(theta):
            K = theta.reshape(m, n)
            if not is_stabilizing_static(plant, K):
                return np.inf
            return lqr.lqr_eval(plant, StaticGain(K, True)).J

        def feasibility(theta):
            return is_stabilizing_static(plant, theta.reshape(m, n))

        theta, trace = zeroth.zo_gd_run(
            costfn, feasibility, Kc.K.reshape(-1), zcfg, eta=opts["eta"],
            tol=opts["tol"], max_iter=opts["max_iter"],
            rho_fn=lambda th: spectral_radius(
                closed_loop_static(plant, th.reshape(m, n))))
        extras["K_final"] = theta.reshape(m, n).tolist()
        extras["rng"] = zeroth.RNG_NAME
        extras["zo_config"] = {"epsilon": zcfg.epsilon, "samples": zcfg.samples,
                               "seed": zcfg.seed, "estimator": zcfg.estimator}

    elif task == "landscape":
        if opts["cost"] != "lqg":
            def costfn(Kmat):
                if not is_stabilizing_static(plant, Kmat):
                    raise InfeasibleError("unstable cell")
                Kg = StaticGain(Kmat, True)
                return (lqr.lqr_eval(plant, Kg) if opts["cost"] == "lqr"
                        else hinf.hinf_cost(plant, Kg, grid=256)).J
        else:
            q, p, m = opts["order"], plant.p, plant.m

            def costfn(v):
                Kd = DynamicPolicy(A_K=v[: q * q].reshape(q, q),
                                   B_K=v[q * q: q * q + q * p].reshape(q, p),
                                   C_K=v[q * q + q * p:].reshape(m, q))
                if not is_stabilizing_dynamic(plant, Kd):
                    raise InfeasibleError("unstable cell")
                return lqg.lqg_eval(plant, Kd).J
        s_vals, t_vals, grid = landscape_slice(costfn, opts["origin"], opts["dir1"],
                                               opts["dir2"], opts["box"], opts["resolution"])
        write_grid_csv(outdir / "grid.csv", s_vals, t_vals, grid)
        extras.update({"resolution": opts["resolution"],
                       "feasible_cells": int(np.sum(np.isfinite(grid))),
                       "min_value": (float(np.min(grid[np.isfinite(grid)]))
                                     if np.any(np.isfinite(grid)) else None)})

    elif task == "connectivity":
        if opts["kind"] == "dynamic":
            def membership(point):
                return is_stabilizing_dynamic(plant, DynamicPolicy(
                    *(np.array([[x]]) for x in point)))
        else:
            def membership(point):
                K = np.asarray(point, dtype=float).reshape(plant.m, plant.n)
                return is_stabilizing_static(plant, K)
        components = connectivity_scan(membership, opts["box"], opts["resolution"])
        extras.update({"components": components, "resolution": opts["resolution"]})

    if K is not None:
        extras["K_final"] = K.K.tolist()
    if trace:
        last = trace[-1]
        extras.update({"final_J": last.J, "grad_norm": last.grad_norm,
                       "iterations": last.iter, "rho": last.rho})
    if task in ("lqr_gd", "structured_gd", "lqg_gd", "lqg_rgd"):
        extras["stop"] = _stop(trace[-1], opts)
    return extras, trace


def _stop(last, opts):
    """Why a run of lqr.descend under lqr.decrease returned: "tol",
    "max_iter" or "round_off", from its last record and the options in force."""
    if last.grad_norm <= opts["tol"]:
        return "tol"
    return "max_iter" if last.iter == opts["max_iter"] else "round_off"


def _write_summary(outdir, summary):
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(cfg, outdir, seed=None):
    """Execute a validated config; write trace.jsonl / summary.json (and
    grid.csv for grid tasks) into outdir. A seed given here overrides the
    config's. Returns the process exit code."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    given = cfg.options if seed is None else {**cfg.options, "seed": seed}
    summary = {"task": cfg.task, "seed": seed, "config": cfg.raw,
               "options_in_force": {}, "error": None}
    start = time.perf_counter()
    code = 0
    try:
        opts = _read_options(cfg.task, cfg.plant, given, summary["options_in_force"])
        summary["seed"] = opts["seed"]
        extras, trace = _run_task(cfg.task, cfg.plant, opts, outdir)
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
    except PolgeoError as exc:
        # a broken invariant, or a package error no task turns into a code above
        kind = "internal_invariant" if isinstance(exc, InternalInvariantError) else "internal"
        summary["error"] = {"kind": kind, "class": type(exc).__name__, "message": str(exc)}
        code = 5
    summary["wall_time"] = time.perf_counter() - start
    _write_summary(outdir, summary)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(prog="polgeo")
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    cfg = None
    try:
        cfg = parse_config(args.config)
        if cfg.task != args.task:
            raise ConfigError([f"task: config says {cfg.task!r}, "
                               f"command line says {args.task!r}"])
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        _write_summary(Path(args.out), {
            "task": args.task, "seed": args.seed,
            "config": None if cfg is None else cfg.raw, "options_in_force": {},
            "error": {"kind": "config", "violations": exc.violations}})
        return 2
    return run_experiment(cfg, args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
