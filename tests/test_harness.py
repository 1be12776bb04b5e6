import csv
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grumpc import gru_model, harness, mpc, observer, sysid
from grumpc.harness import CommandError, ExperimentConfig

from conftest import scaled_certified_weights


def tiny_config(**overrides):
    cfg = ExperimentConfig()
    cfg.data = harness.DataConfig(n_samples=300, test_n_samples=200)
    cfg.train = harness.TrainSection(n_states=3, epochs=2, batch_size=4,
                                     washout=10, T_s=60, tau=10)
    cfg.controller = mpc.ControllerConfig(N_c=5, N_p=12, N_f=200,
                                          terminal_samples=256, audit_factor=2,
                                          ref_filter_window=6)
    cfg.scenario = harness.ScenarioSection(
        duration_h=0.25, reference_program=[[0.0, 7.0]], disturbances=[],
        plant="model", settle_minutes=5.0)
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def seed_certified_artifacts(out, cfg, seed=404):
    """Write certified weights + map + gains as if trained, for CLI tests."""
    rng = np.random.default_rng(seed)
    w = scaled_certified_weights(rng, n=cfg.train.n_states, target=-0.1)
    gru_model.save_weights(w, out / "weights.json")
    nmap = sysid.NormalizationMap([14.2], [3.0],
                                  [7.0], [2.0])
    nmap.save(out / "normalization.json")
    g = observer.synthesize_gains(w, maxiter=500)
    observer.save_gains(g, w, out / "gains.json")
    return w, nmap, g


def test_generate_data_writes_dataset(tmp_path):
    cfg = tiny_config()
    result = harness.cmd_generate_data(cfg, tmp_path)
    assert result["rows"] == 300
    ts = sysid.load_timeseries_csv(tmp_path / "dataset.csv")
    assert len(ts) == 300
    assert (tmp_path / "normalization.json").exists()
    assert (tmp_path / "params.json").exists()


def test_generate_data_deterministic_per_seed(tmp_path):
    cfg = tiny_config()
    harness.cmd_generate_data(cfg, tmp_path / "a")
    harness.cmd_generate_data(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "dataset.csv").read_text() == \
        (tmp_path / "b" / "dataset.csv").read_text()
    cfg.seed += 1
    harness.cmd_generate_data(cfg, tmp_path / "c")
    assert (tmp_path / "a" / "dataset.csv").read_text() != \
        (tmp_path / "c" / "dataset.csv").read_text()


def test_train_requires_dataset(tmp_path):
    with pytest.raises(CommandError, match="dataset"):
        harness.cmd_train(tiny_config(), tmp_path)


def test_train_uncertified_exits_nonzero(tmp_path):
    # two epochs at tiny scale cannot certify: the command must fail loudly
    cfg = tiny_config()
    harness.cmd_generate_data(cfg, tmp_path)
    with pytest.raises(CommandError, match="nu"):
        harness.cmd_train(cfg, tmp_path)
    # the weights file is still persisted for inspection
    assert (tmp_path / "weights.json").exists()


def test_train_zero_epochs_persists_init(tmp_path):
    cfg = tiny_config()
    cfg.train.epochs = 0
    harness.cmd_generate_data(cfg, tmp_path)
    with pytest.raises(CommandError):
        harness.cmd_train(cfg, tmp_path)
    w = gru_model.load_weights(tmp_path / "weights.json")
    seed = int(cfg.component_seed("train").integers(2 ** 31))
    w_init = gru_model.random_weights(3, 1, 1, np.random.default_rng(seed))
    assert np.array_equal(w.U_r, w_init.U_r)


def test_validate_perfect_model_stub(tmp_path):
    cfg = tiny_config()
    seed_certified_artifacts(tmp_path, cfg)
    result = harness.cmd_validate(cfg, tmp_path)   # scenario.plant == "model"
    assert result["fit"] == pytest.approx(100.0, abs=1e-6)
    assert result["test_mse"] < 1e-20


def test_synth_observer_command(tmp_path):
    cfg = tiny_config()
    w, _, _ = seed_certified_artifacts(tmp_path, cfg)
    report = harness.cmd_synth_observer(cfg, tmp_path)
    assert report["passed"]
    assert report["spectral_norm"] <= report["trivial_spectral_norm"] + 1e-12
    g = observer.load_gains(tmp_path / "gains.json")
    assert observer.certify_gains(w, g).passed


def test_synth_observer_rejects_uncertified(tmp_path):
    cfg = tiny_config()
    rng = np.random.default_rng(90)
    w = gru_model.random_weights(3, 1, 1, rng, scale=2.0)
    assert gru_model.diss_residual(w) > 0
    gru_model.save_weights(w, tmp_path / "weights.json")
    with pytest.raises(CommandError, match="nu >= 0"):
        harness.cmd_synth_observer(cfg, tmp_path)


def test_closed_loop_model_plant_and_exports(tmp_path):
    cfg = tiny_config()
    seed_certified_artifacts(tmp_path, cfg)
    # pick a reference the tiny model can reach: its own nominal output range
    w = gru_model.load_weights(tmp_path / "weights.json")
    nmap = sysid.NormalizationMap.load(tmp_path / "normalization.json")
    y_mid = 0.5 * (gru_model.gru_output(w, mpc.steady_state(w, [-1.0]))[0]
                   + gru_model.gru_output(w, mpc.steady_state(w, [1.0]))[0])
    ph_mid = float(nmap.denormalize_y([y_mid])[0])
    cfg.scenario.reference_program = [[0.0, ph_mid]]
    metrics = harness.cmd_run_closed_loop(cfg, tmp_path)
    assert metrics["constraint_violations"] == 0
    assert metrics["max_settled_error"] < 1e-3 * float(nmap.y_half[0])

    rows = list(csv.reader(open(tmp_path / "closed_loop.csv")))
    assert rows[0] == ["k", "y_ref", "y_meas", "u_applied", "v", "xi",
                       "cost", "solve_iters", "feasible", "evals", "tail_steps"]
    assert len(rows) - 1 == int(0.25 * 3600 / 10)
    # every solve evaluates the objective; no tail runs past the cap N_f
    assert all(int(r[9]) >= 1 and 0 <= int(r[10]) <= cfg.controller.N_f
               for r in rows[1:])

    files = harness.cmd_plot_export(tmp_path / "closed_loop.csv", tmp_path / "figs")
    assert set(files) == {"fig_output.csv", "fig_tracking_error.csv",
                          "fig_input.csv"}
    out_rows = list(csv.reader(open(tmp_path / "figs" / "fig_output.csv")))
    err_rows = list(csv.reader(open(tmp_path / "figs" / "fig_tracking_error.csv")))
    in_rows = list(csv.reader(open(tmp_path / "figs" / "fig_input.csv")))
    assert len(out_rows) == len(err_rows) == len(in_rows) == len(rows)
    # error column is reference minus measurement, row by row
    for orow, erow in zip(out_rows[1:], err_rows[1:]):
        assert float(erow[1]) == pytest.approx(float(orow[1]) - float(orow[2]),
                                               abs=1e-15)
    # bounds columns constant at the actuator limits
    assert all(float(r[2]) == 11.2 and float(r[3]) == 17.2 for r in in_rows[1:])


def test_closed_loop_survives_a_nan_measurement(tmp_path, monkeypatch):
    # one non-finite measurement in a disturbed model-plant loop is a
    # dropout: every applied input stays finite and the loop settles as it
    # does without the fault
    cfg = tiny_config()
    seed_certified_artifacts(tmp_path, cfg)
    w = gru_model.load_weights(tmp_path / "weights.json")
    nmap = sysid.NormalizationMap.load(tmp_path / "normalization.json")
    y_mid = 0.5 * (gru_model.gru_output(w, mpc.steady_state(w, [-1.0]))[0]
                   + gru_model.gru_output(w, mpc.steady_state(w, [1.0]))[0])
    cfg.scenario.reference_program = [[0.0, float(nmap.denormalize_y([y_mid])[0])]]
    cfg.controller.N_f = 60
    cfg.scenario.duration_h = 0.12
    cfg.scenario.disturbances = [[0.01, 0.02, "input-additive", 0.3]]

    def run(out, nan_at):
        measure = harness._ModelPlant.measure
        calls = []

        def faulty(plant):
            calls.append(1)
            return float("nan") if len(calls) - 1 == nan_at else measure(plant)
        monkeypatch.setattr(harness._ModelPlant, "measure", faulty)
        metrics = harness.cmd_run_closed_loop(cfg, out)
        monkeypatch.setattr(harness._ModelPlant, "measure", measure)
        rows = list(csv.reader(open(out / "closed_loop.csv")))[1:]
        return metrics, np.array([float(r[3]) for r in rows])

    clean, u_clean = run(tmp_path, None)
    faulty, u_faulty = run(tmp_path, 6)
    assert clean["dropout_ticks"] == 0 and faulty["dropout_ticks"] == 1
    assert np.all(np.isfinite(u_faulty))
    assert faulty["constraint_violations"] == 0 and faulty["fallback_ticks"] == 0
    np.testing.assert_array_equal(u_faulty[:6], u_clean[:6])
    assert np.any(u_faulty[6:] != u_clean[6:])
    bound = 1e-3 * float(nmap.y_half[0])
    assert clean["max_settled_error"] < bound
    assert faulty["max_settled_error"] < bound


def test_plot_export_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(CommandError, match="malformed"):
        harness.cmd_plot_export(bad, tmp_path)


def test_cli_exit_codes(tmp_path):
    # missing inputs surface as exit code 1 through the argparse entry
    rc = harness.main(["train", "--out", str(tmp_path / "empty")])
    assert rc == 1
    rc = harness.main(["generate-data", "--out", str(tmp_path / "gen"),
                       "--config", str(_write_tiny_config(tmp_path))])
    assert rc == 0
    assert (tmp_path / "gen" / "dataset.csv").exists()


def _write_tiny_config(tmp_path):
    doc = dataclasses.asdict(tiny_config())
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    return path


def test_config_round_trip_and_unknown_keys(tmp_path):
    path = _write_tiny_config(tmp_path)
    cfg = ExperimentConfig.load(path)
    assert cfg.data.n_samples == 300
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"data": {"bogus_key": 1}}))
    with pytest.raises(CommandError, match="bogus_key"):
        ExperimentConfig.load(bad)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_desk_config_file_equals_code_defaults():
    # the JSON round trip turns the code's tuples (hold_range) into lists,
    # as loading the file does
    doc = json.loads(json.dumps(dataclasses.asdict(ExperimentConfig())))
    assert ExperimentConfig.load(CONFIGS / "desk.json") == ExperimentConfig.from_dict(doc)


def test_paper_config_holds_the_full_scale_profile():
    cfg = ExperimentConfig.load(CONFIGS / "paper.json")
    assert cfg.data.n_samples == 5060
    assert cfg.train.epochs == 200
    assert cfg.controller.N_p == 75


def test_module_entrypoint_help():
    res = subprocess.run([sys.executable, "-m", "grumpc", "--help"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    for name in ("generate-data", "train", "validate", "synth-observer",
                 "run-closed-loop", "plot-export"):
        assert name in res.stdout
