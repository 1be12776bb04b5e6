"""Smoke tests of the benchmark at a tiny size (a few seconds in total)."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from grumpc import gru_model, harness, observer, plant_sim  # noqa: E402

import compare  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_config(seed):
    cfg = harness.ExperimentConfig(seed=seed)
    cfg.data.n_samples = 300
    cfg.data.test_n_samples = 200
    cfg.train.T_s = 100
    cfg.train.washout = 20
    cfg.observer.maxiter = 50
    cfg.controller.N_f = 50
    cfg.controller.terminal_samples = 256
    cfg.controller.audit_factor = 2
    return cfg


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "experiment_config", tiny_config)
    monkeypatch.setattr(workloads, "SETUP_PROBES", 0)
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    return tmp_path


def check_metrics(result, specs):
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for spec in specs:
        m = result["metrics"][spec["name"]]
        assert m["unit"] == spec["unit"]
        assert isinstance(m["value"], float)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_emits_every_end_to_end_metric(tiny, workload):
    result, details = workloads.run(workload, 3, 0.01, False,
                                    time.perf_counter(), None)
    check_metrics(result, BENCHMARK["end_to_end"])
    assert all(v > 0 for v in (m["value"] for m in result["metrics"].values()))
    assert (tiny / f"{workload}-s3-t0" / "result.json").is_file()
    assert details["env"]["backend"] in ("numpy", "numba")


def test_traced_smoke_self_times_sum_to_wall(tiny):
    result, details = workloads.run("regulate", 4, 0.01, True,
                                    time.perf_counter(), None)
    check_metrics(result, BENCHMARK["per_layer"])
    m = result["metrics"]
    assert m["mpc.ingredients.hit_ratio"]["value"] == 1.0
    assert m["kernels.fhocp.tick_pct"]["value"] > 90.0
    spans = json.loads((tiny / "regulate-s4-t1" / "spans.json").read_text())["spans"]
    # one root; every other span lies inside its parent, which opened first,
    # and the children of one parent do not overlap
    assert [s[0] for s in spans if s[3] < 0] == ["run"]
    last_child_end = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        assert t0 <= t1
        if parent >= 0:
            assert parent < i
            assert spans[parent][1] <= t0 and t1 <= spans[parent][2]
            assert t0 >= last_child_end.get(parent, t0)
            last_child_end[parent] = t1
    rows = workloads.spans.Tracer()
    rows.spans = spans
    assert all(r["self_ms"] >= -1e-6 for r in rows.summary().values())
    overhead_ms = (m["trace.overhead_pct"]["value"] / 100.0
                   * details["run_wall_ms"])
    assert abs(details["span_sum_self_ms"] - details["run_wall_ms"]) <= overhead_ms + 0.1


# a 36 s run makes about 18 regulate and 8 track ticks
@pytest.mark.parametrize("workload,ticks", [("regulate", 18), ("track", 8)])
def test_tracking_error_is_checked_within_a_run(workload, ticks):
    cfg = harness.ExperimentConfig(seed=1)
    sc = workloads.make_scenario(workload, 1, cfg, plant_sim.default_params())
    assert sc.settled[:ticks].sum() >= 3


def test_failed_gain_certification_fails_the_run(tiny, monkeypatch, capsys):
    certify = observer.certify_gains
    monkeypatch.setattr(observer, "certify_gains", lambda w, g: dataclasses.replace(
        certify(w, g), passed=False, reason="forced"))
    code = workloads.main(["--workload", "identify", "--seed", "3",
                           "--seconds", "0.01"], time.perf_counter(), None)
    assert code == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False


def test_uncertified_fixture_is_refused(monkeypatch, tmp_path):
    for name in ("gains.json", "normalization.json"):
        shutil.copy(workloads.FIXTURE / name, tmp_path / name)
    w = gru_model.load_weights(workloads.FIXTURE / "weights.json")
    grown = w.replace(**{k: 3.0 * getattr(w, k) for k in gru_model.WEIGHT_FIELDS})
    gru_model.save_weights(grown, tmp_path / "weights.json")
    monkeypatch.setattr(workloads, "FIXTURE", tmp_path)
    with pytest.raises(workloads.CheckFailed, match="not certified"):
        workloads.load_pinned()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "regulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert res.returncode != 0
    assert res.stdout == ""


def test_compare_refuses_mixed_backends(tmp_path):
    paths = []
    for i, backend in enumerate(("numpy", "numba")):
        doc = {"workload": "regulate", "trace": 0, "env": {"backend": backend},
               "result": {"metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}}
        paths.append(tmp_path / f"r{i}.json")
        paths[-1].write_text(json.dumps(doc))
    assert compare.main(["--base", str(paths[0]), "--new", str(paths[1])]) == 2
    assert compare.main(["--base", str(paths[0]), "--new", str(paths[0])]) == 0
