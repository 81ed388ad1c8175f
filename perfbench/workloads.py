"""The four benchmark workloads: seeded instance sets, timed calls, oracle checks.

``build(seed, workdir)`` returns the workload's instance set as a list of
blocks; one round of the benchmark solves one block, and rounds cycle through
the blocks. Each block holds every kind of instance of its workload, so a run
cut after any round keeps the workload's mix. ``run`` is the timed call into
polgeo; ``check`` compares its result with the independent oracle
in ``oracles.py`` and returns ``None`` or a one-line reason for the miss.
Oracle values are cached per instance, so only the first check pays for them.

Plants of the synthesis workloads are a fixed family (drawn from a constant
key) plus a small seeded perturbation. That keeps the difficulty of a round
the same from seed to seed, so timings of different seeds are comparable,
while every seed still gives different inputs.

polgeo functions are always reached as module attributes (``lqr.gd_run``),
never bound at import, so the tracer's rebinding sees every call.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from polgeo import cli, hinf, lqr, lqg, policy_core, structured
from polgeo.errors import InfeasibleError
from polgeo.policy_core import (ConstraintSubspace, DynamicPolicy, Frobenius,
                                LyapunovMetric, Plant, StaticGain)

import oracles

FAMILY = 20240606  # key of the fixed plant family; the run seed perturbs it


@dataclass
class Instance:
    id: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    cells: int = 0                      # grid cells decided by one run
    prepare: Optional[Callable[[], None]] = None
    out_dir: Optional[Path] = None      # CLI output directory


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _cached(fn):
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


def _perturbed(seed, key, base, scale=1e-3):
    rng = np.random.default_rng([seed, *key])
    return base + scale * rng.standard_normal(base.shape)


def _scaled(A, radius):
    return A * (radius / oracles.rho(A))


def _family_plant(seed, n, m, index, block, radius=0.95):
    base = np.random.default_rng([FAMILY, n, m, index])
    A0 = base.standard_normal((n, n))
    B0 = base.standard_normal((n, m)) / math.sqrt(n)
    A = _scaled(_perturbed(seed, (n, m, index, block, 0), A0), radius)
    B = _perturbed(seed, (n, m, index, block, 1), B0, 1e-3 / math.sqrt(n))
    return Plant.create(A=A, B=B)


# ---------------------------------------------------------------------------
# lqr_synthesis
# ---------------------------------------------------------------------------

DESCENT_TOL = 1e-6
LQR_BLOCKS = 6
STRUCTURED_TOL = 1e-7
# (n, m, plant index, methods); n = 64 runs only the fast directions. The
# second n = 8 plant leaves out structured Frobenius descent, the slowest
# kind of instance: without it a run fits more rounds, and p50 and p75 fall
# inside kinds of instance rather than on the steps between them.
LQR_CLASSES = (
    (8, 2, 0, ("gd/euclidean", "gd/riemannian", "gd/pseudo_newton", "hewer",
               "structured/frobenius", "structured/lyapunov")),
    (8, 2, 1, ("gd/euclidean", "gd/riemannian", "gd/pseudo_newton", "hewer",
               "structured/lyapunov")),
    (32, 4, 0, ("gd/euclidean", "gd/riemannian", "gd/pseudo_newton", "hewer")),
    (64, 8, 0, ("gd/pseudo_newton", "hewer")),
)


def _block_mask(n, m):
    """Decentralized pattern: input i sees only its own block of states."""
    mask = np.zeros((m, n), dtype=bool)
    width = n // m
    for i in range(m):
        mask[i, i * width:(i + 1) * width] = True
    return mask


def _hewer_loop(plant, K, tol=1e-12, max_iter=100):
    for _ in range(max_iter):
        Knew = lqr.hewer_step(plant, K)
        delta = float(np.linalg.norm(Knew.K - K.K))
        K = Knew
        if delta <= tol:
            break
    return K


def _lqr_block(seed, block):
    instances = []
    for n, m, index, methods in LQR_CLASSES:
        plant = _family_plant(seed, n, m, index, block)
        K0 = StaticGain.certify(plant, np.zeros((m, n)))
        mask = _block_mask(n, m)
        sub = ConstraintSubspace.sparsity(mask)
        data = (plant.A, plant.B, plant.Q, plant.R, plant.Sigma)
        optimum = _cached(lambda data=data: oracles.lqr_optimum(*data)[0])
        structured_J = {}
        for method in methods:
            iid = f"lqr/n{n}m{m}/{index}/{block}/{method}"
            if method.startswith("gd/"):
                direction = method[3:]

                def run(plant=plant, K0=K0, direction=direction):
                    return lqr.gd_run(plant, K0, direction=direction,
                                      tol=DESCENT_TOL, max_iter=5000)[0]

                def check(K, data=data, optimum=optimum):
                    J = oracles.lqr_cost(*data, K.K)
                    err = _rel(J, optimum())
                    return None if err <= 1e-6 else f"J off J* by {err:.2e} (rel)"
            elif method == "hewer":
                def run(plant=plant, K0=K0):
                    return _hewer_loop(plant, K0)

                def check(K, data=data, optimum=optimum):
                    J = oracles.lqr_cost(*data, K.K)
                    err = _rel(J, optimum())
                    return None if err <= 1e-9 else f"J off J* by {err:.2e} (rel)"
            else:
                metric = Frobenius() if method.endswith("frobenius") else LyapunovMetric()

                def run(plant=plant, K0=K0, sub=sub, metric=metric):
                    return structured.structured_gd_run(
                        plant, K0, sub, metric=metric, tol=STRUCTURED_TOL,
                        max_iter=5000)[0]

                def check(K, data=data, mask=mask, method=method, store=structured_J):
                    if np.any(K.K[~mask] != 0.0):
                        return "gain left the sparsity pattern"
                    J = oracles.lqr_cost(*data, K.K)
                    if not np.isfinite(J):
                        return "gain not stabilizing"
                    pg = float(np.linalg.norm(mask * oracles.lqr_euclidean_grad(*data, K.K)))
                    if pg > 1e-5:
                        return f"projected gradient {pg:.2e} > 1e-5"
                    store[method] = J
                    other = store.get("structured/frobenius")
                    if other is not None and _rel(J, other) > 1e-6:
                        return f"Frobenius/Lyapunov runs disagree on J by {_rel(J, other):.2e}"
                    return None
            instances.append(Instance(iid, run, check))
    return instances


def build_lqr_synthesis(seed, workdir):
    # Each block perturbs the same family afresh: descent iteration counts
    # react to round-off-sized changes, so distinct draws per round keep the
    # percentiles from resting on one draw.
    return [_lqr_block(seed, b) for b in range(LQR_BLOCKS)]


# ---------------------------------------------------------------------------
# feasible_set_scan
# ---------------------------------------------------------------------------

SCAN_RESOLUTIONS = (17, 21)
SLICE_RESOLUTION = 27
# More LQG slices than LQR slices, so that p50 and p75 of a round's solve
# times fall inside the LQG slices and not on the steps between kinds of
# instance (LQR slices < LQG slices < scans).
LQR_SLICES = 6
LQG_SLICES = 14
# criterion 8: the feasible set of scalar dynamic policies has 2 path
# components for the open-loop unstable plant, 1 for the stable one. The box
# is the criterion's own: coarse rasters of a shifted box can split thin
# parts of the set and count spurious components.
SCAN_PLANTS = ((1.1, 2), (0.9, 1))
SCAN_BOX = [[-3.0, 3.0]] * 3


def _scan_instance(a, expected, resolution):
    plant = Plant.create(A=np.array([[a]]), B=np.array([[1.0]]))
    seen = []

    def membership(point):
        a_k, b_k, c_k = point
        Kd = DynamicPolicy(A_K=np.array([[a_k]]), B_K=np.array([[b_k]]),
                           C_K=np.array([[c_k]]))
        decision = policy_core.is_stabilizing_dynamic(plant, Kd)
        seen.append((a_k, b_k, c_k, decision))
        return decision

    def run():
        return policy_core.connectivity_scan(membership, SCAN_BOX, resolution)

    def check(count):
        if len(seen) != resolution ** 3:
            return f"{len(seen)} membership calls for {resolution ** 3} cells"
        cells = np.array([s[:3] for s in seen])
        miss = oracles.membership_mismatches(oracles.scalar_dynamic_radii(a, cells),
                                             [s[3] for s in seen])
        if miss:
            return f"{miss} membership decisions contradict eigvals"
        return None if count == expected else f"{count} components, expected {expected}"

    return Instance(f"scan/a{a}/r{resolution}", run, check,
                    cells=resolution ** 3, prepare=seen.clear)


def _slice_check(grid, s_vals, t_vals, reference):
    bad = 0
    for i, s in enumerate(s_vals):
        for j, t in enumerate(t_vals):
            r, value = reference(s, t)
            if abs(r - 1.0) <= oracles.BOUNDARY_BAND:
                continue
            got = grid[i, j]
            if r > 1.0:
                bad += np.isfinite(got)
            elif not np.isfinite(got) or _rel(got, value) > 1e-6:
                bad += 1
    return None if bad == 0 else f"{bad} cells disagree with the reference cost"


def _lqr_slice(seed, index):
    # criterion 11 plant; slices through the diagonal gains
    plant = Plant.create(A=np.array([[0.8, 1.0], [0.0, 0.8]]),
                         B=np.array([[0.0, 1.0], [1.0, 0.0]]))
    rng = np.random.default_rng([seed, 11, index])
    origin = np.diag([-0.5, -0.5]) + 0.02 * rng.standard_normal((2, 2))
    dir1 = np.diag([1.0, 0.0]) + 0.03 * rng.standard_normal((2, 2))
    dir2 = np.diag([0.0, 1.0]) + 0.03 * rng.standard_normal((2, 2))
    box = [[-2.0 + rng.uniform(-0.05, 0.05), 2.0 + rng.uniform(-0.05, 0.05)] for _ in range(2)]

    def cost(K):
        if not policy_core.is_stabilizing_static(plant, K):
            raise InfeasibleError("unstable cell")
        return lqr.lqr_eval(plant, StaticGain(K, True)).J

    def run():
        return policy_core.landscape_slice(cost, origin, dir1, dir2, box, SLICE_RESOLUTION)

    def reference(s, t):
        K = origin + s * dir1 + t * dir2
        return (oracles.rho(plant.A + plant.B @ K),
                oracles.lqr_cost(plant.A, plant.B, plant.Q, plant.R, plant.Sigma, K))

    def check(result):
        s_vals, t_vals, grid = result
        return _slice_check(grid, s_vals, t_vals, reference)

    return Instance(f"slice/lqr/{index}", run, check,
                    cells=SLICE_RESOLUTION ** 2)


def _lqg_slice(seed, index):
    # scalar dynamic policy (a_k, b_k, c_k) on the criterion 9 plant
    plant = Plant.create(A=np.array([[0.9]]), B=np.array([[1.0]]))
    rng = np.random.default_rng([seed, 9, index])
    origin = np.array([0.4 + rng.uniform(-0.05, 0.05), 0.0, 0.0])
    dir1 = np.array([0.0, 1.0, 0.0]) + 0.03 * rng.standard_normal(3)
    dir2 = np.array([0.0, 0.0, 1.0]) + 0.03 * rng.standard_normal(3)
    box = [[-2.0 + rng.uniform(-0.05, 0.05), 2.0 + rng.uniform(-0.05, 0.05)] for _ in range(2)]

    def policy(v):
        return DynamicPolicy(A_K=v[0:1].reshape(1, 1), B_K=v[1:2].reshape(1, 1),
                             C_K=v[2:3].reshape(1, 1))

    def cost(v):
        Kd = policy(v)
        if not policy_core.is_stabilizing_dynamic(plant, Kd):
            raise InfeasibleError("unstable cell")
        return lqg.lqg_eval(plant, Kd).J

    def run():
        return policy_core.landscape_slice(cost, origin, dir1, dir2, box, SLICE_RESOLUTION)

    def reference(s, t):
        a_k, b_k, c_k = (np.array([[x]]) for x in origin + s * dir1 + t * dir2)
        Acl = oracles.dynamic_closed_loop(plant.A, plant.B, plant.C, a_k, b_k, c_k)
        return (oracles.rho(Acl),
                oracles.lqg_cost(plant.A, plant.B, plant.C, plant.W, plant.V, plant.Q, plant.R,
                                 a_k, b_k, c_k))

    def check(result):
        s_vals, t_vals, grid = result
        return _slice_check(grid, s_vals, t_vals, reference)

    return Instance(f"slice/lqg/{index}", run, check,
                    cells=SLICE_RESOLUTION ** 2)


def build_feasible_set_scan(seed, workdir):
    instances = [_scan_instance(a, expected, res)
                 for a, expected in SCAN_PLANTS for res in SCAN_RESOLUTIONS]
    instances += [_lqr_slice(seed, i) for i in range(LQR_SLICES)]
    instances += [_lqg_slice(seed, i) for i in range(LQG_SLICES)]
    return [instances]


# ---------------------------------------------------------------------------
# hinf_synthesis
# ---------------------------------------------------------------------------

HINF_GRID = 2048
HINF_SIZES = ((1, 1), (4, 2), (8, 2))
HINF_PLANTS_PER_SIZE = 4


def _hinf_cost_instance(iid, plant, K, expected=None):
    data = (plant.A, plant.B, plant.Q, plant.R, K.K)
    reference = _cached(lambda: expected if expected is not None else oracles.hinf_peak(*data))

    def run():
        return hinf.hinf_cost(plant, K, grid=HINF_GRID)

    def check(ev):
        ref = reference()
        if expected is not None:
            err = abs(ev.J - ref)
            return None if err <= 1e-6 else f"J={ev.J!r}, analytic {ref} (abs err {err:.2e})"
        err = _rel(ev.J, ref)
        return None if err <= 1e-6 else f"J off the dense-sweep reference by {err:.2e} (rel)"

    return Instance(iid, run, check)


def _hinf_descent_instance(seed, iid, plant, K0, max_iter, grid=256):
    data = (plant.A, plant.B, plant.Q, plant.R)

    def run():
        return hinf.hinf_descent_run(plant, K0, grid=grid, max_iter=max_iter,
                                     rng_seed=seed)

    def check(result):
        K, trace = result
        Js = [rec.J for rec in trace]
        if any(b > a for a, b in zip(Js, Js[1:])):
            return "H-infinity cost increased along the descent"
        if oracles.rho(plant.A + plant.B @ K.K) >= 1.0:
            return "final gain not stabilizing"
        err = _rel(Js[-1], oracles.hinf_peak(*data, K.K))
        return None if err <= 1e-6 else f"final J off the dense-sweep reference by {err:.2e}"

    return Instance(iid, run, check)


def build_hinf_synthesis(seed, workdir):
    ab09 = Plant.create(A=np.array([[0.9]]), B=np.array([[1.0]]))
    # criterion 9 analytic values
    instances = [
        _hinf_cost_instance("hinf/ab09/K=0", ab09, StaticGain(np.array([[0.0]]), True), 100.0),
        _hinf_cost_instance("hinf/ab09/K=-0.9", ab09, StaticGain(np.array([[-0.9]]), True), 1.81),
    ]
    for n, m in HINF_SIZES:
        for index in range(HINF_PLANTS_PER_SIZE):
            rng = np.random.default_rng([seed, 99, n, index])
            A = _scaled(rng.standard_normal((n, n)), 0.8)
            plant = Plant.create(A=A, B=rng.standard_normal((n, m)))
            K = 0.05 * rng.standard_normal((m, n))
            while not policy_core.is_stabilizing_static(plant, K):
                K = 0.5 * K
            K = StaticGain.certify(plant, K)
            instances.append(_hinf_cost_instance(f"hinf/n{n}m{m}/{index}", plant, K))
    rng = np.random.default_rng([seed, 9])
    K0 = StaticGain.certify(ab09, np.array([[-0.5 + rng.uniform(-0.05, 0.05)]]))
    instances.append(_hinf_descent_instance(seed, "hinf_descent/ab09", ab09, K0, max_iter=2))
    two = Plant.create(A=np.array([[0.8, 0.3], [0.0, 0.7]]), B=np.array([[0.0], [1.0]]))
    K0 = StaticGain.certify(two, 0.05 * rng.standard_normal((1, 2)))
    instances.append(_hinf_descent_instance(seed, "hinf_descent/two_state", two, K0,
                                            max_iter=1, grid=128))
    return [instances]


# ---------------------------------------------------------------------------
# output_feedback (in-process CLI)
# ---------------------------------------------------------------------------

LQG_ORDERS = (2, 3, 4)
LQG_POLICIES_PER_ORDER = 3
LQG_MAX_ITER = 12
KM_WEIGHTS = (1.0, 1.0, 1.0)
ZO_MAX_ITER = 60
OUTPUT_FEEDBACK_BLOCKS = 12


def _plant_json(plant):
    return {name: getattr(plant, name).tolist()
            for name in ("A", "B", "C", "Sigma", "W", "V", "Q", "R")}


class CliExit(Exception):
    """The CLI reported a failure through its exit code."""


def _cli_instance(iid, task, config, out_dir, cli_seed, check_summary):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "config.json"
    path.write_text(json.dumps(config))
    argv = [task, "--config", str(path), "--out", str(out_dir), "--seed", str(cli_seed)]

    def prepare():
        for name in ("summary.json", "trace.jsonl"):
            (out_dir / name).unlink(missing_ok=True)

    def run():
        code = cli.main(argv)
        if code != 0:
            raise CliExit(f"exit code {code}")

    def check(_):
        summary_path = out_dir / "summary.json"
        trace_path = out_dir / "trace.jsonl"
        if not summary_path.is_file() or not trace_path.is_file():
            return "summary.json or trace.jsonl missing"
        summary = json.loads(summary_path.read_text())
        trace = [json.loads(line) for line in trace_path.read_text().splitlines()]
        return check_summary(summary, trace)

    return Instance(iid, run, check, prepare=prepare, out_dir=out_dir)


def _lqg_setup(seed, q, index, block):
    """A plant of order q with a stabilizing minimal policy of the same order,
    drawn from the fixed family and then perturbed by the seed and block."""
    base = np.random.default_rng([FAMILY, 6, q, index])
    while True:
        A = _scaled(base.standard_normal((q, q)), 0.8)
        B, C = base.standard_normal((q, 1)), base.standard_normal((1, q))
        A_K = _scaled(base.standard_normal((q, q)), 0.5)
        B_K, C_K = 0.3 * base.standard_normal((q, 1)), 0.3 * base.standard_normal((1, q))
        mats = [_perturbed(seed, (6, q, index, block, k), M)
                for k, M in enumerate((A, B, C, A_K, B_K, C_K))]
        plant = Plant.create(A=mats[0], B=mats[1], C=mats[2])
        Kd = DynamicPolicy.create(*mats[3:])
        if policy_core.is_stabilizing_dynamic(plant, Kd) and lqg.is_minimal(Kd):
            return plant, Kd


def _lqg_check(plant):
    def check(summary, trace):
        Js = [rec["J"] for rec in trace]
        if any(b > a + 1e-12 * (1.0 + abs(a)) for a, b in zip(Js, Js[1:])):
            return "LQG cost increased along the descent"
        A_K, B_K, C_K = (np.array(summary[k]) for k in ("A_K", "B_K", "C_K"))
        Acl = oracles.dynamic_closed_loop(plant.A, plant.B, plant.C, A_K, B_K, C_K)
        if oracles.rho(Acl) >= 1.0:
            return "final closed loop not stable"
        J = oracles.lqg_cost(plant.A, plant.B, plant.C, plant.W, plant.V, plant.Q, plant.R,
                             A_K, B_K, C_K)
        err = _rel(summary["final_J"], J)
        return None if err <= 1e-6 else f"final_J off the reference cost by {err:.2e}"
    return check


def _km_grad_instance(iid, plant, Kd):
    """One KM-metric gradient at the certified starting policy. The KM
    descent (CLI task lqg_rgd) is not benchmarked: it fails on about one
    seeded policy in ten (see README.md)."""
    def check(grad):
        err = oracles.km_gradient_residual(plant.A, plant.B, plant.C, plant.W, plant.V,
                                           plant.Q, plant.R, Kd.A_K, Kd.B_K, Kd.C_K,
                                           grad, KM_WEIGHTS)
        return None if err <= 1e-6 else f"KM gradient property off by {err:.2e}"
    return Instance(iid, lambda: lqg.km_grad(plant, Kd, KM_WEIGHTS), check)


def _zo_check(plant):
    data = (plant.A, plant.B, plant.Q, plant.R, plant.Sigma)
    optimum = _cached(lambda: oracles.lqr_optimum(*data)[0])

    def check(summary, trace):
        J = oracles.lqr_cost(*data, np.array(summary["K_final"]))
        err = _rel(J, optimum())
        return None if err <= 0.01 else f"J off J* by {err:.2%}"
    return check


def _output_feedback_block(seed, workdir, block):
    instances = []
    for q in LQG_ORDERS:
        for index in range(LQG_POLICIES_PER_ORDER):
            plant, Kd = _lqg_setup(seed, q, index, block)
            config = {"plant": _plant_json(plant),
                      "options": {"Kd0": {"A_K": Kd.A_K.tolist(), "B_K": Kd.B_K.tolist(),
                                          "C_K": Kd.C_K.tolist()},
                                  "tol": 1e-8, "max_iter": LQG_MAX_ITER}}
            iid = f"lqg_gd/q{q}/{index}/{block}"
            instances.append(_cli_instance(
                iid, "lqg_gd", dict(config, task="lqg_gd"), workdir / iid.replace("/", "-"),
                seed, _lqg_check(plant)))
            instances.append(_km_grad_instance(f"km_grad/q{q}/{index}/{block}", plant, Kd))
    rng = np.random.default_rng([seed, 12, block])
    # criterion 12 plant, and the scalar golden-ratio plant
    c12 = Plant.create(A=np.array([[0.5, 0.0], [0.0, 0.3]]), B=np.array([[1.0], [1.0]]),
                       C=np.array([[1.0, 0.0]]))
    scalar = Plant.create(A=np.array([[1.0]]), B=np.array([[1.0]]))
    for name, plant, K0, samples in (
            ("c12", c12, 0.05 * rng.standard_normal((1, 2)), 8),
            ("scalar", scalar, np.array([[-1.0 + rng.uniform(-0.05, 0.05)]]), 4)):
        StaticGain.certify(plant, K0)
        config = {"task": "zo_gd", "plant": _plant_json(plant),
                  "options": {"K0": K0.tolist(), "samples": samples, "eta": 0.05,
                              "tol": 1e-5, "max_iter": ZO_MAX_ITER}}
        iid = f"zo_gd/{name}/{block}"
        instances.append(_cli_instance(iid, "zo_gd", config,
                                       workdir / iid.replace("/", "-"), seed + block,
                                       _zo_check(plant)))
    return instances


def build_output_feedback(seed, workdir):
    # Each block perturbs the same policies afresh: LQG descent times change
    # a lot between nearby policies, so percentiles need many draws, and
    # blocks of equal make-up keep runs of different length comparable.
    return [_output_feedback_block(seed, workdir, b) for b in range(OUTPUT_FEEDBACK_BLOCKS)]


WORKLOADS = {
    "lqr_synthesis": build_lqr_synthesis,
    "feasible_set_scan": build_feasible_set_scan,
    "hinf_synthesis": build_hinf_synthesis,
    "output_feedback": build_output_feedback,
}
