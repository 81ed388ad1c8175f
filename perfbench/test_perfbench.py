"""Self-checks of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/test_perfbench.py

- Every per-layer count of every block repeats exactly across two traced
  runs of one seed.
- A seed that was not used while the benchmark was written runs clean on
  every workload: every solve passes its oracle.
- Without the polgeo sources next to it the benchmark refuses to run.
- The KM-metric descent that output_feedback leaves out still fails on some
  of the workload's policies (expected failure; see README.md, "Left out").
  Once it passes, the descent can go back into the workload.

Each run uses --seconds 1; traced runs go on until every block has had a
traced round. The whole file takes about ten minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from polgeo import lqg  # noqa: E402
from polgeo.errors import PolgeoError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
FRESH_SEED = 68413


def _run(workload, seed, trace, cwd=ROOT, script=ROOT / "perfbench" / "run.py"):
    every_block = ["--every-block"] if trace else []
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)] + every_block,
        cwd=cwd, capture_output=True, text=True, timeout=900)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _detail(workload, seed, trace):
    path = ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat(workload):
    names = {m["name"] for m in SPEC["per_layer"]}
    runs = []
    for _ in range(2):
        result = _result(_run(workload, 3, 1))
        assert result["correct"]
        assert set(result["metrics"]) == names
        detail = _detail(workload, 3, 1)
        assert detail["counts_repeat"] is not False
        assert names <= set(detail["per_layer"])
        assert all(v >= 0.0 for k, v in detail["per_layer"].items() if k.endswith(".self_s"))
        runs.append(detail["block_counts"])
    assert len(runs[0]) == detail["extra"]["blocks"]  # every block was traced
    assert runs[0] == runs[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fresh_seed_runs_clean(workload):
    result = _result(_run(workload, FRESH_SEED, 0))
    assert result["correct"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    for iid, _, _, status, detail in _detail(workload, FRESH_SEED, 0)["records"]:
        assert status == "ok", (iid, status, detail)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(WORKLOADS[0], 1, 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.xfail(raises=PolgeoError, strict=False,
                   reason="KM-metric descent fails on about one seeded policy in ten")
def test_km_descent_runs_clean():
    for block in range(4):
        for q in workloads.LQG_ORDERS:
            for index in range(workloads.LQG_POLICIES_PER_ORDER):
                plant, Kd = workloads._lqg_setup(1, q, index, block)
                lqg.lqg_gd_run(plant, Kd, mode="km_riemannian", tol=1e-8,
                               max_iter=workloads.LQG_MAX_ITER)
