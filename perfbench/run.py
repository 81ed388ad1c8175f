"""polgeo benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop in this process: the workload's fixed,
seeded instance set is solved one instance after another, round after round,
until S seconds of solving have been measured and, with --trace 0, at least
MIN_PASSED solves have passed. Every result goes through its oracle after the
round (oracle time is excluded from all metrics).

Times are kept in seconds and in reference units (seconds over the time of
a fixed reference work run between instances; see README.md).

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced rounds and prints the per-layer metrics
(--every-block: keep going until every block has had a traced round). Both
print human-readable lines first and one JSON object as the last line, and
write the full record (environment, per-instance outcomes, every layer's
self time, spans of one traced round) under perfbench/out/.

"correct" is false when any solve, traced rounds included, misses its
oracle, raises or exits with a code other than 0, or when no solve passes.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# setup_s is set-up time in reference units times this: seconds on a host
# where the reference work takes 15 ms (about the host the baseline was
# measured on; see README.md).
REF_NOMINAL_S = 0.015
REF_WINDOW = 6  # reference timings around an instance whose median scales it
MIN_PASSED = 40  # passed solves a --trace 0 run needs: ten lie beyond p75 ...
MAX_OVERRUN = 3  # ... unless its solving has taken this many times --seconds

# Run in a fresh interpreter: how long importing numpy and polgeo takes.
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import numpy, polgeo; "
                 "print(time.perf_counter() - t)")


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def _reference_work():
    """A fixed mix of small numpy calls and Python arithmetic, unrelated to
    polgeo. Its time, taken between instances, tracks the speed the host
    gives this process at that moment."""
    import numpy as np

    M = np.linspace(-0.3, 0.3, 36).reshape(6, 6)
    shift = 3.0 * np.eye(6)
    ones = np.ones(6)
    acc = 0.0
    for _ in range(900):
        N = M @ M
        acc += float(np.linalg.norm(N))
        acc += sum(float(v) for v in np.linalg.solve(N + shift, ones))
    return acc


def _reference_seconds():
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def _measure_setup(build, seed, workdir):
    """Set up SETUP_REPEATS times; returns (blocks, seconds of each set-up,
    each set-up in reference units).

    One set-up is importing numpy and polgeo, timed in a fresh interpreter,
    plus building the instance set from the seed. The reference work runs
    before the first set-up and after each one, outside the measured time,
    and each set-up is divided by the median of the reference times next to it.
    """
    times, ref_units = [], []
    refs = [statistics.median(_reference_seconds() for _ in range(3))]
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
                               capture_output=True, text=True, check=True, timeout=120)
        seconds = float(probe.stdout.split()[-1])
        start = time.perf_counter()
        blocks = build(seed, workdir)
        times.append(seconds + time.perf_counter() - start)
        refs.append(statistics.median(_reference_seconds() for _ in range(3)))
        ref_units.append(times[-1] / statistics.median(refs[-2:]))
    return blocks, times, ref_units


def _run_round(instances, tracer=None):
    """Solve every instance once; returns (wall seconds, outcomes).

    The reference work runs before the first instance and after each one,
    outside the measured time. An instance's time in reference units is its
    seconds over the median of the reference times in a window around it:
    the window smooths the reference's own noise while still following the
    host's speed, which drifts over seconds.
    """
    outcomes = []
    refs = [_reference_seconds()]
    for inst in instances:
        if inst.prepare is not None:
            inst.prepare()
        if tracer is not None:
            tracer.begin_instance(inst.id)
        start = time.perf_counter()
        try:
            result, error = inst.run(), None
        except Exception as exc:  # every failure is counted, none aborts the run
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None and inst.out_dir is not None:
            trace_file = inst.out_dir / "trace.jsonl"
            if trace_file.is_file():
                tracer.add("cli.bytes_written", trace_file.stat().st_size)
        refs.append(_reference_seconds())
        outcomes.append([inst, elapsed, None, result, error])
    for i, outcome in enumerate(outcomes):
        window = refs[max(0, i + 1 - REF_WINDOW // 2): i + 1 + REF_WINDOW // 2]
        outcome[2] = outcome[1] / statistics.median(window)
    return sum(o[1] for o in outcomes), outcomes


def _check_round(outcomes):
    """Apply each oracle; returns records [id, seconds, ref units, status, detail].

    Status is "ok", "miss" (outside the oracle's tolerance) or "error" (an
    exception or a CLI exit code other than 0)."""
    records = []
    for inst, elapsed, ref_units, result, error in outcomes:
        if error is not None:
            records.append([inst.id, elapsed, ref_units, "error", error])
            continue
        miss = inst.check(result)
        records.append([inst.id, elapsed, ref_units, "ok" if miss is None else "miss", miss])
    return records


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--every-block", action="store_true",
                        help="with --trace 1, run until every block has had a traced round")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "polgeo" / "__init__.py").is_file():
        return _fail(f"no polgeo sources under {ROOT / 'src'}; run from a full checkout")
    if not spec_path.is_file():
        return _fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))

    # Set-up is timed in _measure_setup; these imports are not part of it.
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")

    out_root = HERE / "out"
    workdir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    blocks, setup_times, setup_refs = _measure_setup(
        workloads.WORKLOADS[args.workload], args.seed, workdir)

    def more(measured, passed, rounds):
        if measured < args.seconds:
            return True
        if args.trace:
            return args.every_block and rounds < len(blocks)
        return passed < MIN_PASSED and measured < MAX_OVERRUN * args.seconds

    # Closed loop: one block per round, blocks in turn, until more() is
    # false. A traced run follows each untraced round with a traced round of
    # the same block.
    walls, ref_walls, traced_ref_walls, records, traced_rounds = [], [], [], [], []
    first_spans = None
    traced_bad = []
    measured = 0.0
    while more(measured, sum(1 for r in records if r[3] == "ok"), len(walls)):
        block = blocks[len(walls) % len(blocks)]
        wall, outcomes = _run_round(block)
        walls.append(wall)
        ref_walls.append(sum(o[2] for o in outcomes))
        records.extend(_check_round(outcomes))
        measured += wall
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                wall, outcomes = _run_round(block, tracer)
            finally:
                tracer.uninstall()
            traced_ref_walls.append(sum(o[2] for o in outcomes))
            traced_bad += [r for r in _check_round(outcomes) if r[3] != "ok"]
            measured += wall
            traced_rounds.append(tracing.aggregate(tracer))
            if first_spans is None:
                first_spans = tracer.spans

    attempted = len(records)
    failed = sum(1 for r in records if r[3] != "ok")
    misses = sum(1 for r in records if r[3] == "miss")
    incorrect = [r for r in records if r[3] != "ok"] + traced_bad
    errors = {}
    for r in records:
        if r[3] == "error":
            name = r[4].split(":")[0]
            errors[name] = errors.get(name, 0) + 1
    passed = [r for r in records if r[3] == "ok"]
    cells_by_id = {inst.id: inst.cells for block in blocks for inst in block}
    scan_records = [r for r in records if cells_by_id[r[0]]]
    end_to_end = {
        "setup_s": statistics.median(setup_refs) * REF_NOMINAL_S,
        "setup_raw_s": statistics.median(setup_times),
        "wall_ref": statistics.median(ref_walls),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if passed:  # only solves that passed their oracle are timed
        for q in (50, 75):
            end_to_end[f"solve_ref.p{q}"] = _percentile([r[2] for r in passed], q)
            end_to_end[f"solve_s.p{q}"] = _percentile([r[1] for r in passed], q)
    extra = {
        "setup_times_s": setup_times,
        "setup_times_ref": setup_refs,
        "fail_ratio": failed / attempted,
        "solve_samples": len(passed),
        "rounds": len(walls),
        "blocks": len(blocks),
        "instances": sum(len(block) for block in blocks),
        "cells_per_s": (sum(cells_by_id[r[0]] for r in scan_records)
                        / sum(r[1] for r in scan_records)) if scan_records else None,
        "errors_by_class": errors,
        "oracle_misses": misses,
        "incorrect": incorrect,
    }

    env = _environment()
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} rounds over "
          f"{len(blocks)} block(s), {attempted} solves, {failed} failed "
          f"({misses} oracle misses, errors {errors or 'none'})")
    for r in incorrect[:5]:
        print(f"  incorrect: {r[0]} {r[3]}: {r[4]}")

    correct = bool(passed) and not incorrect
    result = {"correct": correct, "attempted": attempted, "failed": failed}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "end_to_end": end_to_end, "extra": extra,
              "records": records}
    if not args.trace:
        for name, value in end_to_end.items():
            note = f" (n={len(passed)})" if name.startswith("solve_") else ""
            print(f"  {name:<14} {value:.6g}{note}")
        print(f"  {'fail_ratio':<14} {extra['fail_ratio']:.6g} ({failed}/{attempted})")
        if extra["cells_per_s"]:
            print(f"  {'cells_per_s':<14} {extra['cells_per_s']:.6g}")
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in units.items() if name in end_to_end}
    else:
        # Counts of a block's first traced round, and whether every later
        # traced round of the same block repeated them (None: none did).
        block_counts, repeats = {}, []
        for i, (c, _) in enumerate(traced_rounds):
            if i % len(blocks) in block_counts:
                repeats.append(c == block_counts[i % len(blocks)])
            else:
                block_counts[i % len(blocks)] = c
        repeat = all(repeats) if repeats else None
        counts = block_counts[0]
        times = {}
        for key in sorted({k for _, t in traced_rounds for k in t}):
            times[key] = statistics.median(t.get(key, 0.0) for _, t in traced_rounds)
        overhead = statistics.median(t / u for t, u in zip(traced_ref_walls, ref_walls))
        layer = dict(counts, **times, **{"tracing.overhead": overhead})
        negative = [k for k, v in times.items() if v < 0.0]
        shown = "n/a (no block traced twice)" if repeat is None else repeat
        print(f"  traced rounds {len(traced_ref_walls)}, counts repeat: {shown}, "
              f"tracing overhead {overhead:.4f}x, negative self times: {negative or 'none'}")
        for name in sorted(layer):
            print(f"  {name:<44} {layer[name]:.6g}")
        detail.update({"per_layer": layer, "counts_repeat": repeat,
                       "block_counts": block_counts})
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit}
                   for name, unit in units.items()}
        out_root.mkdir(parents=True, exist_ok=True)
        spans_path = out_root / f"spans-{args.workload}-seed{args.seed}.tsv"
        with open(spans_path, "w") as fh:
            fh.write("index\tlayer\tstart_s\tend_s\tparent\tinstance\n")
            t0 = first_spans[0][1] if first_spans else 0.0
            for i, (name, start, end, parent, inst) in enumerate(first_spans):
                fh.write(f"{i}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\t{inst}\n")

    out_root.mkdir(parents=True, exist_ok=True)
    detail_path = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1, default=str) + "\n")
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
