import json
import re

import numpy as np
import pytest

from polgeo import ConfigError, InternalInvariantError, StalledError
from polgeo import cli
from polgeo.lqr import IterTrace


def scalar_plant_dict(a=1.0):
    return {name: [[1.0]] for name in ("B", "C", "Sigma", "W", "V", "Q", "R")} | {
        "A": [[a]]}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_summary(outdir):
    with open(outdir / "summary.json") as fh:
        return json.load(fh)


def test_parse_config_round_trip(tmp_path):
    raw = {"task": "lqr_gd", "plant": scalar_plant_dict(),
           "options": {"K0": [[-1.0]], "tol": 1e-6}}
    cfg = cli.parse_config(write_config(tmp_path, raw))
    assert cfg.task == "lqr_gd"
    assert cfg.plant.A[0, 0] == 1.0
    assert cfg.options["tol"] == 1e-6
    assert cfg.raw == raw


def test_parse_config_missing_R(tmp_path):
    raw = {"task": "lqr_gd", "plant": scalar_plant_dict()}
    del raw["plant"]["R"]
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(write_config(tmp_path, raw))
    assert any("plant.R: missing" in v for v in exc.value.violations)


def test_parse_config_non_psd_Q_names_eigenvalue(tmp_path):
    raw = {"task": "lqr_gd", "plant": scalar_plant_dict()}
    raw["plant"]["Q"] = [[-1.0]]
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(write_config(tmp_path, raw))
    assert any("eigenvalue" in v for v in exc.value.violations)


def test_parse_config_collects_multiple_violations(tmp_path):
    raw = {"task": "nonsense", "plant": scalar_plant_dict()}
    del raw["plant"]["R"]
    raw["plant"]["W"] = [["x"]]
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(write_config(tmp_path, raw))
    joined = "\n".join(exc.value.violations)
    assert "task:" in joined and "plant.R" in joined and "plant.W" in joined


def test_parse_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(str(path))
    assert any("JSON parse error" in v for v in exc.value.violations)


def test_lqr_gd_end_to_end(tmp_path):
    raw = {"task": "lqr_gd", "plant": scalar_plant_dict(),
           "options": {"K0": [[-1.0]], "tol": 1e-8, "max_iter": 500}}
    out = tmp_path / "out"
    code = cli.main(["lqr_gd", "--config", write_config(tmp_path, raw),
                     "--out", str(out)])
    assert code == 0
    summary = read_summary(out)
    assert abs(summary["K_final"][0][0] + 0.6180339887) < 1e-6
    assert summary["error"] is None
    assert "wall_time" in summary
    lines = (out / "trace.jsonl").read_text().splitlines()
    recs = [json.loads(ln) for ln in lines]
    assert recs[0]["iter"] == 0
    assert set(recs[0]) == {"iter", "J", "grad_norm", "step", "rho"}
    assert all(r["rho"] < 1.0 for r in recs)
    assert summary["iterations"] == recs[-1]["iter"]


def test_summary_config_echo_reparses_equal(tmp_path):
    raw = {"task": "dare", "plant": scalar_plant_dict(),
           "options": {}}
    out = tmp_path / "out"
    assert cli.main(["dare", "--config", write_config(tmp_path, raw),
                     "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["config"] == raw
    echoed = write_config(tmp_path, summary["config"], "echo.json")
    cfg2 = cli.parse_config(echoed)
    assert cfg2.raw == raw
    assert abs(summary["K_star"][0][0] + 0.6180339887) < 1e-9


def test_exit_2_invalid_config(tmp_path, capsys):
    raw = {"task": "lqr_gd", "plant": scalar_plant_dict()}
    del raw["plant"]["R"]
    code = cli.main(["lqr_gd", "--config", write_config(tmp_path, raw)])
    assert code == 2
    assert "plant.R: missing" in capsys.readouterr().err


def test_exit_2_task_mismatch(tmp_path, capsys):
    raw = {"task": "dare", "plant": scalar_plant_dict()}
    code = cli.main(["lqr_gd", "--config", write_config(tmp_path, raw)])
    assert code == 2
    assert "task" in capsys.readouterr().err


def test_exit_2_missing_K0_written_to_summary(tmp_path):
    raw = {"task": "lqr_gd", "plant": scalar_plant_dict(), "options": {}}
    out = tmp_path / "out"
    code = cli.main(["lqr_gd", "--config", write_config(tmp_path, raw),
                     "--out", str(out)])
    assert code == 2
    summary = read_summary(out)
    assert summary["error"]["kind"] == "config"
    assert any("options.K0" in v for v in summary["error"]["violations"])


def test_exit_3_infeasible_start(tmp_path):
    raw = {"task": "lqr_gd", "plant": scalar_plant_dict(a=2.0),
           "options": {"K0": [[0.0]]}}
    out = tmp_path / "out"
    code = cli.main(["lqr_gd", "--config", write_config(tmp_path, raw),
                     "--out", str(out)])
    assert code == 3
    assert read_summary(out)["error"]["kind"] == "infeasible"


def test_exit_4_stalled_writes_partial_trace(tmp_path, monkeypatch):
    trace = [IterTrace(iter=0, J=1.0, grad_norm=0.5, step=0.0, rho=0.9)]

    def stall(*args, **kwargs):
        raise StalledError("gd_run: 30 failed backtracks", trace)

    monkeypatch.setattr(cli.lqr, "gd_run", stall)
    raw = {"task": "lqr_gd", "plant": scalar_plant_dict(),
           "options": {"K0": [[-1.0]]}}
    out = tmp_path / "out"
    code = cli.main(["lqr_gd", "--config", write_config(tmp_path, raw),
                     "--out", str(out)])
    assert code == 4
    assert read_summary(out)["error"]["kind"] == "stalled"
    rec = json.loads((out / "trace.jsonl").read_text().splitlines()[0])
    assert rec["J"] == 1.0


def test_exit_5_internal_invariant(tmp_path, monkeypatch):
    def blow_up(*args, **kwargs):
        raise InternalInvariantError("dual cost expressions disagree")

    monkeypatch.setattr(cli.lqr, "gd_run", blow_up)
    raw = {"task": "lqr_gd", "plant": scalar_plant_dict(),
           "options": {"K0": [[-1.0]]}}
    out = tmp_path / "out"
    code = cli.main(["lqr_gd", "--config", write_config(tmp_path, raw),
                     "--out", str(out)])
    assert code == 5
    assert read_summary(out)["error"]["kind"] == "internal_invariant"


def test_zo_gd_deterministic_traces_byte_identical(tmp_path):
    raw = {"task": "zo_gd", "plant": scalar_plant_dict(),
           "options": {"K0": [[-1.0]], "epsilon": 1e-3, "samples": 8,
                       "eta": 0.05, "tol": 1e-4, "max_iter": 50}}
    path = write_config(tmp_path, raw)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["zo_gd", "--config", path, "--out", str(out1)]) == 0
    assert cli.main(["zo_gd", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "trace.jsonl").read_bytes() == (out2 / "trace.jsonl").read_bytes()
    s1, s2 = read_summary(out1), read_summary(out2)
    s1.pop("wall_time"), s2.pop("wall_time")
    assert s1 == s2


def test_seed_override(tmp_path):
    # two gain coordinates so the sampled directions (hence the trace)
    # actually depend on the seed
    raw = {"task": "zo_gd",
           "plant": {"A": [[0.5, 0.0], [0.0, 0.3]], "B": [[1.0], [1.0]],
                     "C": [[1.0, 0.0]], "Sigma": [[1.0, 0.0], [0.0, 1.0]],
                     "W": [[1.0, 0.0], [0.0, 1.0]], "V": [[1.0]],
                     "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]]},
           "options": {"K0": [[0.0, 0.0]], "samples": 4, "eta": 0.05,
                       "tol": 1e-4, "max_iter": 30, "seed": 3}}
    path = write_config(tmp_path, raw)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["zo_gd", "--config", path, "--out", str(out1)]) == 0
    assert cli.main(["zo_gd", "--config", path, "--out", str(out2),
                     "--seed", "7"]) == 0
    s1, s2 = read_summary(out1), read_summary(out2)
    assert s1["seed"] == 3 and s2["seed"] == 7
    assert (out1 / "trace.jsonl").read_bytes() != (out2 / "trace.jsonl").read_bytes()


def test_landscape_grid_csv_shape(tmp_path):
    # single-input, two-state plant so the gain space has two directions
    raw = {"task": "landscape",
           "plant": {"A": [[0.5, 0.0], [0.0, 0.3]], "B": [[1.0], [1.0]],
                     "C": [[1.0, 0.0]], "Sigma": [[1.0, 0.0], [0.0, 1.0]],
                     "W": [[1.0, 0.0], [0.0, 1.0]], "V": [[1.0]],
                     "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]]},
           "options": {"cost": "lqr", "resolution": 17,
                       "box": [[-1.0, 1.0], [-1.0, 1.0]],
                       "origin": [[0.0, 0.0]],
                       "dir1": [[1.0, 0.0]], "dir2": [[0.0, 1.0]]}}
    out = tmp_path / "out"
    code = cli.main(["landscape", "--config", write_config(tmp_path, raw),
                     "--out", str(out)])
    assert code == 0
    lines = (out / "grid.csv").read_text().splitlines()
    assert lines[0] == "s,t,value"
    assert len(lines) == 17 * 17 + 1
    summary = read_summary(out)
    assert summary["feasible_cells"] >= 1
    assert summary["min_value"] is not None


def test_hinf_eval_stdout_format(tmp_path, capsys):
    raw = {"task": "hinf_eval", "plant": scalar_plant_dict(a=0.9),
           "options": {"K": [[0.0]]}}
    out = tmp_path / "out"
    code = cli.main(["hinf_eval", "--config", write_config(tmp_path, raw),
                     "--out", str(out)])
    assert code == 0
    line = capsys.readouterr().out.strip()
    m = re.fullmatch(
        r"J=(\S+) omega_star=(\S+) grid=(\d+) refined=(true|false)", line)
    assert m is not None
    assert abs(float(m.group(1)) - 100.0) < 1e-6
    assert read_summary(out)["final_J"] == pytest.approx(100.0, abs=1e-6)


def test_connectivity_static_scalar(tmp_path):
    raw = {"task": "connectivity", "plant": scalar_plant_dict(a=0.9),
           "options": {"kind": "static", "box": [[-3.0, 1.5]],
                       "resolution": 101}}
    out = tmp_path / "out"
    code = cli.main(["connectivity", "--config", write_config(tmp_path, raw),
                     "--out", str(out)])
    assert code == 0
    summary = read_summary(out)
    assert summary["components"] == 1
    assert summary["resolution"] == 101


def test_lqg_gd_saddle_probe(tmp_path):
    raw = {"task": "lqg_gd", "plant": scalar_plant_dict(a=0.9),
           "options": {"Kd0": {"A_K": [[-0.1753]], "B_K": [[0.0]],
                               "C_K": [[0.0]]},
                       "tol": 1e-9, "max_iter": 5}}
    out = tmp_path / "out"
    code = cli.main(["lqg_gd", "--config", write_config(tmp_path, raw),
                     "--out", str(out)])
    assert code == 0
    summary = read_summary(out)
    assert summary["grad_norm"] <= 1e-9
    assert summary["iterations"] == 0
    assert abs(summary["final_J"] - 5.263157894736842) < 1e-9


def test_hewer_task(tmp_path):
    raw = {"task": "hewer", "plant": scalar_plant_dict(),
           "options": {"K0": [[-1.0]], "tol": 1e-12}}
    out = tmp_path / "out"
    code = cli.main(["hewer", "--config", write_config(tmp_path, raw),
                     "--out", str(out)])
    assert code == 0
    summary = read_summary(out)
    assert abs(summary["K_final"][0][0] + 0.6180339887) < 1e-9
    recs = [json.loads(ln) for ln in
            (out / "trace.jsonl").read_text().splitlines()]
    js = [r["J"] for r in recs]
    assert all(js[i + 1] <= js[i] + 1e-12 for i in range(len(js) - 1))


def two_state_plant_dict():
    return {"A": [[0.5, 0.0], [0.0, 0.3]], "B": [[1.0], [1.0]],
            "C": [[1.0, 0.0]], "Sigma": [[1.0, 0.0], [0.0, 1.0]],
            "W": [[1.0, 0.0], [0.0, 1.0]], "V": [[1.0]],
            "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]]}


@pytest.mark.parametrize("task, options, path", [
    ("lqr_gd", {"K0": "abc"}, "options.K0"),
    ("lqr_gd", {"K0": [[0.0, 0.0]], "tol": "x"}, "options.tol"),
    ("landscape", {"dir2": [[0.0, 1.0]]}, "options.dir1"),
    ("structured_gd", {"K0": [[0.0, 0.0]], "constraint": {"kind": "sparsity"}},
     "options.constraint.mask"),
    ("landscape", {"dir1": [[1.0, 0.0]], "dir2": [[2.0, 0.0]]}, "options.dir1, options.dir2"),
    ("lqr_gd", {"K0": [[0.0, 0.0]], "direction": "foo"}, "options.direction"),
    ("lqr_gd", {"K0": [[0.0, 0.0]], "step_rule": "x"}, "options.step_rule"),
    ("zo_gd", {"K0": [[0.0, 0.0]], "estimator": "x"}, "options.estimator"),
    ("connectivity", {"kind": "static", "resolution": 9}, "options.box"),
    ("lqg_gd", {"Kd0": {"A_K": [[0.5]], "B_K": [[0.0, 0.0]], "C_K": [[0.0]]}},
     "options.Kd0.B_K"),
    ("lqg_gd", {"Kd0": {"A_K": [[0.5]], "B_K": [[0.0]], "C_K": [[0.0], [0.0]]}},
     "options.Kd0.C_K"),
])
def test_exit_2_malformed_option_names_field(tmp_path, task, options, path):
    raw = {"task": task, "plant": two_state_plant_dict(), "options": options}
    out = tmp_path / "out"
    code = cli.main([task, "--config", write_config(tmp_path, raw), "--out", str(out)])
    assert code == 2
    error = read_summary(out)["error"]
    assert error["kind"] == "config"
    assert any(v.startswith(path + ":") for v in error["violations"])


def test_summary_echoes_options_in_force(tmp_path):
    # hewer's own defaults, not those of the descent tasks
    raw = {"task": "hewer", "plant": scalar_plant_dict(), "options": {"K0": [[-1.0]]}}
    out = tmp_path / "out"
    assert cli.main(["hewer", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 0
    in_force = read_summary(out)["options_in_force"]
    assert in_force["tol"] == 1e-12
    assert in_force["max_iter"] == 100
    assert in_force["K0"] == [[-1.0]]
    assert "direction" not in in_force


def test_landscape_near_boundary_cell_is_infeasible(tmp_path):
    # the origin K = [-1e-9, 0] passes membership (rho = 1 - 1e-9) but
    # cannot be evaluated; the cell must become an inf sentinel
    raw = {"task": "landscape",
           "plant": {"A": [[1.0, 0.0], [0.0, 0.5]], "B": [[1.0], [0.0]],
                     "C": [[1.0, 0.0]], "Sigma": [[1.0, 0.0], [0.0, 1.0]],
                     "W": [[1.0, 0.0], [0.0, 1.0]], "V": [[1.0]],
                     "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]]},
           "options": {"cost": "lqr", "resolution": 5,
                       "origin": [[-1e-9, 0.0]],
                       "dir1": [[1.0, 0.0]], "dir2": [[0.0, 1.0]]}}
    out = tmp_path / "out"
    code = cli.main(["landscape", "--config", write_config(tmp_path, raw),
                     "--out", str(out)])
    assert code == 0
    rows = (out / "grid.csv").read_text().splitlines()[1:]
    cells = {(float(s), float(t)): v for s, t, v in (r.split(",") for r in rows)}
    assert cells[(0.0, 0.0)] == "inf"
    assert cells[(-0.5, 0.0)] != "inf"
    assert read_summary(out)["feasible_cells"] < 25


def test_exit_5_lqg_dual_cost_mismatch(tmp_path, lqg_dual_cost_mismatch):
    raw = {"task": "lqg_gd", "plant": scalar_plant_dict(a=0.9),
           "options": {"Kd0": {"A_K": [[0.5]], "B_K": [[0.0]], "C_K": [[0.0]]}}}
    out = tmp_path / "out"
    code = cli.main(["lqg_gd", "--config", write_config(tmp_path, raw),
                     "--out", str(out)])
    assert code == 5
    assert read_summary(out)["error"]["kind"] == "internal_invariant"
