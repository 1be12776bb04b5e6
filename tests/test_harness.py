import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grumpc import gru_model, harness, mpc, observer, plant_sim, sysid
from grumpc.harness import CommandError, ExperimentConfig

from conftest import scaled_certified_weights, scipy_modules_after


def tiny_config(**overrides):
    cfg = ExperimentConfig()
    cfg.data = harness.DataConfig(n_samples=300, test_n_samples=200)
    cfg.train = sysid.TrainConfig(n_states=3, epochs=2, batch_size=4,
                                  washout=10, T_s=60, tau=10)
    cfg.controller = mpc.ControllerConfig(N_c=5, N_p=12, terminal_samples=768,
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
    g = observer.synthesize_gains(w)
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
    # every column of the training log is a plain number
    rows = list(csv.reader(open(tmp_path / "train_log.csv")))
    assert rows[0] == ["epoch", "loss", "nu", "val_mse"] and len(rows) == 3
    for row in rows[1:]:
        [float(v) for v in row]


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
    assert 0.0 < report["synth_ms"] < 1e3
    saved = json.loads((tmp_path / "observer_report.json").read_text())
    assert saved == report
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


def mid_range_config(tmp_path):
    """tiny_config with certified artifacts and a reference the tiny model
    can reach: the middle of its own steady output range."""
    cfg = tiny_config()
    w, nmap, _ = seed_certified_artifacts(tmp_path, cfg)
    y_mid = 0.5 * (gru_model.gru_output(w, mpc.steady_state(w, [-1.0]))[0]
                   + gru_model.gru_output(w, mpc.steady_state(w, [1.0]))[0])
    ph_mid = float(nmap.denormalize_y([y_mid])[0])
    cfg.scenario.reference_program = [[0.0, ph_mid]]
    return cfg, nmap, ph_mid


def test_closed_loop_model_plant_and_exports(tmp_path):
    cfg, nmap, _ = mid_range_config(tmp_path)
    metrics = harness.cmd_run_closed_loop(cfg, tmp_path)
    assert metrics["constraint_violations"] == 0
    assert metrics["max_settled_error"] < 1e-3 * float(nmap.y_half[0])

    rows = list(csv.reader(open(tmp_path / "closed_loop.csv")))
    assert rows[0] == ["k", "y_ref", "y_meas", "u_applied", "v", "xi",
                       "cost", "solve_iters", "feasible", "evals", "terminal_level",
                       "rejections", "solve_ms"]
    assert len(rows) - 1 == int(0.25 * 3600 / 10)
    # every tick solves, so every tick reports a positive finite solve time
    assert all(np.isfinite(float(r[12])) and float(r[12]) > 0.0 for r in rows[1:])
    # every solve evaluates the objective; every plan ends inside the
    # terminal set e'Pi e <= omega, up to the solver's constraint tolerance;
    # every evaluation after the first one tries a Gauss-Newton step, which
    # is accepted (solve_iters) or rejected, or one clamped plan
    tol = cfg.controller.constraint_tol
    assert all(int(r[9]) >= 1 and 0.0 <= float(r[10]) <= 1.0 + tol
               for r in rows[1:])
    assert all(0 <= int(r[7]) + int(r[11]) <= int(r[9]) - 1 for r in rows[1:])

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
    cfg, nmap, _ = mid_range_config(tmp_path)
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


def test_closed_loop_reseeds_after_a_non_finite_estimate(tmp_path, monkeypatch):
    # a poisoned estimate: the controller re-seeds at the equilibrium of its
    # ingredients and applies its input without a solve (no evaluation, no
    # fallback, solve_ms 0), the next tick solves normally and the loop
    # settles
    cfg, nmap, _ = mid_range_config(tmp_path)
    cfg.scenario.duration_h = 0.12
    step = mpc.RecedingHorizonController.step
    ticks = []

    def poisoned(ctl, y_meas, y0):
        if len(ticks) == 6:
            ctl.est.x[0] = np.nan
        u, info = step(ctl, y_meas, y0)
        ticks.append((u, info, ctl.nonfinite_resets,
                      np.clip(ctl._last_ing.eq.u0, -1.0, 1.0)))
        return u, info
    monkeypatch.setattr(mpc.RecedingHorizonController, "step", poisoned)
    metrics = harness.cmd_run_closed_loop(cfg, tmp_path)
    assert metrics["nonfinite_resets"] == 1
    assert [t[2] for t in ticks[5:8]] == [0, 1, 1]
    u6, info6, _, u_eq = ticks[6]
    np.testing.assert_array_equal(u6, u_eq)
    assert (info6.evals, info6.fallback, info6.feasible, info6.solve_ms) == (
        0, False, False, 0.0)
    assert metrics["fallback_ticks"] == 0
    solve_ms = [float(r[12]) for r in list(csv.reader(open(tmp_path / "closed_loop.csv")))[1:]]
    assert solve_ms[6] == 0.0
    assert all(np.isfinite(t) and t > 0.0 for k, t in enumerate(solve_ms) if k != 6)
    _, info7, _, _ = ticks[7]
    assert info7.feasible and not info7.fallback and np.isfinite(info7.cost)
    assert all(np.all(np.isfinite(t[0])) for t in ticks)
    assert metrics["constraint_violations"] == 0
    assert metrics["max_settled_error"] < 1e-3 * float(nmap.y_half[0])


def test_closed_loop_is_offset_free_under_a_persistent_input_disturbance(
        tmp_path, monkeypatch):
    # the paper's claim: with the model as the plant, a constant additive
    # input disturbance that lasts to the end of the run leaves no settled
    # offset; the integrator shifts the applied input by the disturbance
    cfg, nmap, _ = mid_range_config(tmp_path)
    cfg.scenario.disturbances = [[0.02, cfg.scenario.duration_h, "input-additive", 0.3]]
    step = mpc.RecedingHorizonController.step
    infos = []

    def recording(ctl, y_meas, y0):
        u, info = step(ctl, y_meas, y0)
        infos.append(info)
        return u, info
    monkeypatch.setattr(mpc.RecedingHorizonController, "step", recording)
    metrics = harness.cmd_run_closed_loop(cfg, tmp_path)
    tol = 1e-3 * float(nmap.y_half[0])
    assert [list(w[:2]) for w in metrics["windows"]] == [
        [pytest.approx(0.02 + 5.0 / 60.0), cfg.scenario.duration_h]]
    assert metrics["max_settled_error"] < tol
    assert metrics["constraint_violations"] == 0 and metrics["fallback_ticks"] == 0
    rows = list(csv.reader(open(tmp_path / "closed_loop.csv")))[1:]
    u = [float(r[3]) for r in rows]
    assert u[-1] - u[0] == pytest.approx(-0.3, abs=1e-3)
    # the solver telemetry columns are the controller's, tick by tick
    assert [(int(r[7]), int(r[9]), int(r[11])) for r in rows] == [
        (i.iterations, i.evals, i.rejections) for i in infos]
    assert sum(i.iterations for i in infos) > sum(i.rejections for i in infos)


FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixture"


def pinned_artifacts(out):
    """The benchmark's pinned model, gains and normalization in out."""
    out.mkdir(parents=True, exist_ok=True)
    for name in ("weights.json", "gains.json", "normalization.json"):
        (out / name).write_bytes((FIXTURE / name).read_bytes())


@pytest.mark.parametrize("factor", [0.7, 1.3])
def test_closed_loop_is_offset_free_under_a_persistent_buffer_flow_disturbance(
        tmp_path, factor):
    # the paper's claim on the pH plant itself: the buffer flow q2, which
    # the model never saw as an input, moves to factor * q2 at 0.1 h and
    # stays there; the loop settles back onto pH 7.0 with no offset
    pinned_artifacts(tmp_path)
    cfg = ExperimentConfig()
    q2 = plant_sim.default_params().q2
    cfg.scenario = harness.ScenarioSection(
        duration_h=1.0, reference_program=[[0.0, 7.0]],
        disturbances=[[0.1, 1.0, "q2-override", factor * q2]], plant="ph",
        settle_minutes=20.0)
    metrics = harness.cmd_run_closed_loop(cfg, tmp_path)
    assert [list(w[:2]) for w in metrics["windows"]] == [
        [pytest.approx(0.1 + 20.0 / 60.0), 1.0]]
    assert metrics["max_settled_error"] < 1e-6
    assert metrics["constraint_violations"] == 0 and metrics["fallback_ticks"] == 0
    rows = list(csv.reader(open(tmp_path / "closed_loop.csv")))[1:]
    # the disturbance acted: the settled input is not the nominal one
    assert abs(float(rows[-1][3]) - float(rows[0][3])) > 0.05


def test_model_plant_refuses_a_buffer_flow_disturbance(tmp_path, capsys):
    # the identified model has no q2 input, so a q2-override window would
    # be ignored and the run would report settling under a disturbance that
    # never acted: the command refuses it and writes nothing
    cfg, _, _ = mid_range_config(tmp_path)
    cfg.scenario.disturbances = [[0.02, 0.1, "q2-override", 0.4]]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    rc = harness.main(["run-closed-loop", "--config", str(path),
                       "--out", str(tmp_path)])
    assert rc == 1
    assert "q2-override" in capsys.readouterr().err
    assert not (tmp_path / "closed_loop.csv").exists()
    assert not (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize("command", ["generate-data", "run-closed-loop"])
def test_commands_load_no_scipy(tmp_path, command):
    # data generation, the pH plant and the closed loop run without SciPy:
    # importing scipy.optimize alone costs 0.35-0.5 s and 49 MB
    pinned_artifacts(tmp_path)
    code = ("from grumpc import harness\n"
            "cfg = harness.ExperimentConfig()\n"
            "cfg.data = harness.DataConfig(n_samples=300, test_n_samples=200)\n"
            "cfg.scenario = harness.ScenarioSection(duration_h=0.05, "
            "reference_program=[[0.0, 7.0]], disturbances=[], plant='ph')\n"
            f"harness.COMMANDS[{command!r}](cfg, {str(tmp_path)!r})\n")
    assert scipy_modules_after(code) == []


def test_closed_loop_keeps_the_last_ingredients_when_a_rebuild_fails(
        tmp_path, monkeypatch):
    # the ingredients of the second setpoint fail to build: the loop runs on
    # with those of the first, tries the failed setpoint once, and every
    # applied input stays finite and inside the box
    cfg, nmap, ph_mid = mid_range_config(tmp_path)
    cfg.controller.ref_filter_window = 1
    cfg.scenario.reference_program = [[0.0, ph_mid], [0.05, ph_mid + 0.01]]
    build = mpc.build_ingredients
    setpoints = []

    def failing(w, y0, *args, **kwargs):
        setpoints.append(float(y0[0]))
        if len(setpoints) == 2:
            raise mpc.TerminalSetError("injected")
        return build(w, y0, *args, **kwargs)
    monkeypatch.setattr(mpc, "build_ingredients", failing)
    metrics = harness.cmd_run_closed_loop(cfg, tmp_path)
    assert setpoints == [pytest.approx(float(v)) for v in
                         nmap.normalize_y([ph_mid, ph_mid + 0.01])]
    assert metrics["rebuild_failures"] == 1
    assert metrics["constraint_violations"] == 0 and metrics["fallback_ticks"] == 0
    rows = list(csv.reader(open(tmp_path / "closed_loop.csv")))[1:]
    u = np.array([float(r[3]) for r in rows])
    assert np.all(np.isfinite(u)) and np.all((u >= 11.2) & (u <= 17.2))
    # the loop holds the setpoint of the ingredients it kept
    assert abs(float(rows[-1][2]) - ph_mid) < 1e-3 * float(nmap.y_half[0])


def test_closed_loop_holds_its_setpoint_when_a_step_is_unreachable(tmp_path):
    # a step to pH 10.5 lies outside the model's steady range: the loop keeps
    # the ingredients of the first setpoint and holds it, tries the
    # unreachable setpoint once, and every applied input stays finite and
    # inside the box
    cfg, nmap, ph_mid = mid_range_config(tmp_path)
    cfg.controller.ref_filter_window = 1
    cfg.scenario.duration_h = 0.1
    cfg.scenario.reference_program = [[0.0, ph_mid], [0.02, 10.5]]
    w = gru_model.load_weights(tmp_path / "weights.json")
    ing = mpc.build_ingredients(w, nmap.normalize_y([ph_mid]),
                                mpc.ControllerConfig(terminal_samples=192))
    with pytest.raises(mpc.UnreachableReferenceError):
        mpc.find_equilibrium(w, nmap.normalize_y([10.5]), x_guess=ing.eq.x0,
                             u_guess=ing.eq.u0)
    metrics = harness.cmd_run_closed_loop(cfg, tmp_path)
    assert metrics["rebuild_failures"] == 1
    assert metrics["constraint_violations"] == 0 and metrics["fallback_ticks"] == 0
    rows = list(csv.reader(open(tmp_path / "closed_loop.csv")))[1:]
    u = np.array([float(r[3]) for r in rows])
    assert np.all(np.isfinite(u)) and np.all((u >= 11.2) & (u <= 17.2))
    assert abs(float(rows[-1][2]) - ph_mid) < 1e-3 * float(nmap.y_half[0])

    # the first setpoint is never held over: one that fails at reset raises
    cfg.scenario.reference_program = [[0.0, 10.5]]
    with pytest.raises(mpc.UnreachableReferenceError):
        harness.cmd_run_closed_loop(cfg, tmp_path)


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


def test_layer_defaults_are_the_desk_profile():
    # each setting is defined once, in the dataclass of the layer that reads
    # it; the desk file repeats those defaults
    desk = json.loads((CONFIGS / "desk.json").read_text())
    assert dataclasses.asdict(sysid.TrainConfig()) == desk["train"]
    assert dataclasses.asdict(mpc.ControllerConfig()) == desk["controller"]


@pytest.mark.parametrize("section,key,value", [
    ("train", "seed", 3), ("train", "init_scale", 0.1),
    ("observer", "synthesize", False), ("controller", "audit_factor", 10)])
def test_removed_config_keys_are_refused(tmp_path, section, key, value):
    doc = json.loads((CONFIGS / "desk.json").read_text())
    doc[section][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CommandError, match=key):
        ExperimentConfig.load(path)


@pytest.mark.parametrize("doc,where", [
    ({"train": 5}, "'train'"), ({"controller": [20, 40]}, "'controller'"),
    ([1, 2], "top level"), ({"controller": {"N_c": "20"}}, "controller.N_c"),
    ({"train": {"epochs": "5"}}, "train.epochs"),
    ({"controller": {"N_p": True}}, "controller.N_p"),
    ({"data": {"levels": 11.2}}, "data.levels"),
    ({"scenario": {"plant": None}}, "scenario.plant"),
    ({"seed": 1.5}, "config value seed")],
    ids=["train-number", "controller-list", "top-level-list", "controller-N_c-string",
         "train-epochs-string", "int-bool", "list-number", "str-null", "int-float"])
def test_malformed_config_exits_with_an_error(tmp_path, capsys, doc, where):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    rc = harness.main(["generate-data", "--config", str(path),
                       "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [
    ("n_states", 0), ("epochs", -1), ("batch_size", 0), ("T_s", 0), ("tau", 0),
    ("washout", -1), ("washout", 200), ("val_fraction", -0.1),
    ("val_fraction", 1.0), ("rho_plus", 0.0), ("rho_minus", -1e-6),
    ("lr", -1.0), ("beta1", 1.0), ("beta2", 0.0)])
def test_bad_training_settings_are_refused_at_load(key, value):
    # refused when the config is read, not by the train command later (a
    # zero batch size used to fail there with "range() arg 3 must not be
    # zero"); T_s is 200, so washout 200 leaves no sample to fit
    doc = json.loads((CONFIGS / "desk.json").read_text())
    doc["train"][key] = value
    with pytest.raises(CommandError, match=key):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("key,value", [
    ("terminal_samples", 0), ("cache_quantum", 0.0), ("gamma", -1.0),
    ("q_tilde_weight", 0.0), ("omega_max", 0.0), ("omega_max", -1.0),
    ("ref_filter_window", 0), ("q_weight", 0.0), ("constraint_tol", -1.0),
    ("N_f", -1), ("r_weight", -1.0)])
def test_bad_controller_settings_are_refused_at_load(key, value):
    # each would pass an unchecked terminal set (no samples, a negative
    # decrease margin), give every setpoint one cache key, fail every
    # ingredient build (r_weight -1: the Riccati iteration diverges), the
    # reference filter or the first solve (N_f -1: a broadcast error) in the
    # loop, or make every tick fall back to the auxiliary law
    doc = json.loads((CONFIGS / "desk.json").read_text())
    doc["controller"][key] = value
    with pytest.raises(CommandError, match=key):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("key,value", [("tau_s", 0.0), ("tau_s", -10.0),
                                       ("substeps", 0)])
def test_bad_plant_settings_are_refused_at_load(key, value):
    # substeps 0 made generate-data crash with a ZeroDivisionError in the
    # RK4 integrator, and tau_s 0 was refused only later, as "t must be
    # strictly increasing"
    doc = json.loads((CONFIGS / "desk.json").read_text())
    doc[key] = value
    with pytest.raises(CommandError, match=key):
        ExperimentConfig.from_dict(doc)
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(**{key: value})


def test_config_values_take_the_json_forms_of_their_types():
    # an int for a float, an array for a tuple, null for an optional value
    cfg = ExperimentConfig.from_dict({"controller": {"gamma": 1},
                                      "data": {"hold_range": [20, 40]},
                                      "plant_params": None})
    assert (cfg.controller.gamma, cfg.data.hold_range, cfg.plant_params) == (
        1, [20, 40], None)


def test_paper_config_holds_the_full_scale_profile():
    cfg = ExperimentConfig.load(CONFIGS / "paper.json")
    assert cfg.data.n_samples == 5060
    assert cfg.train.epochs == 200
    assert cfg.controller.N_p == 75


def test_module_entrypoint_help():
    # the child finds the package the way this process does, also when the
    # source path comes from the pytest configuration rather than PYTHONPATH
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    res = subprocess.run([sys.executable, "-m", "grumpc", "--help"],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0
    for name in ("generate-data", "train", "validate", "synth-observer",
                 "run-closed-loop", "plot-export"):
        assert name in res.stdout
