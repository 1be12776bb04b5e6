"""Experiment orchestration and the command-line interface.

Subcommands: generate-data, train, validate, synth-observer,
run-closed-loop, plot-export.  Every command takes --config (JSON, desk
defaults when omitted), --seed (overrides the config seed) and --out.
All randomness flows from the single root seed, split per component.

ExperimentConfig is made of the settings of each layer, each defined once:
the train section is sysid.TrainConfig and the controller section
mpc.ControllerConfig; data, observer and scenario are defined here.  Their
defaults are the desk profile, which configs/desk.json repeats; the
full-scale profile of the paper lives only in configs/paper.json.  Loading
refuses unknown keys and values of the wrong JSON type for their field.
"""

import argparse
import csv
import dataclasses
import json
import logging
import sys
import time
import types
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import gru_model, mpc, observer, plant_sim, sysid
from .gru_model import GruWeights

log = logging.getLogger(__name__)


class CommandError(RuntimeError):
    """Raised by commands on invariant violations; maps to a nonzero exit."""


@dataclass
class DataConfig:
    n_samples: int = 1500
    levels: list = field(default_factory=lambda: list(np.linspace(11.2, 17.2, 7)))
    hold_range: tuple = (30, 60)
    noise_std_u_norm: float = 1e-3
    noise_std_y_norm: float = 7.5e-3
    test_n_samples: int = 1000


@dataclass
class ObserverSection:
    # integrator weight of the fallback gains; synth-observer reports their
    # norm next to that of the synthesized gains
    lam: float = 0.5


@dataclass
class ScenarioSection:
    duration_h: float = 6.0
    reference_program: list = field(default_factory=lambda: [
        [0.0, 7.0], [1.8, 7.8], [3.8, 7.0]])
    disturbances: list = field(default_factory=lambda: [
        [0.5, 1.5, "output-additive", -0.5],
        [2.5, 3.5, "q2-override", 0.4],
        [4.5, 5.5, "input-additive", 0.6]])
    plant: str = "ph"             # "ph" or "model" (model-in-the-loop stub)
    noise_std_y_norm: float = 0.0
    settle_minutes: float = 20.0


def _fits(tp, value):
    """Whether a JSON value fits a config field annotated tp: an int field
    takes no bool, a float field also an int, a list or tuple field an
    array, and an X | None field also null."""
    if isinstance(tp, types.UnionType):
        return any(_fits(t, value) for t in tp.__args__)
    if tp in (list, tuple):
        return isinstance(value, (list, tuple))
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, (int, float) if tp is float else tp)


@dataclass
class ExperimentConfig:
    tau_s: float = 10.0
    substeps: int = 10
    plant_params: str | None = None   # path; None = calibrated defaults
    u_min: float = 11.2
    u_max: float = 17.2
    seed: int = 1234
    data: DataConfig = field(default_factory=DataConfig)
    train: sysid.TrainConfig = field(default_factory=sysid.TrainConfig)
    observer: ObserverSection = field(default_factory=ObserverSection)
    controller: mpc.ControllerConfig = field(default_factory=mpc.ControllerConfig)
    scenario: ScenarioSection = field(default_factory=ScenarioSection)

    def __post_init__(self):
        # a zero substep count divides by zero in the RK4 integrator, and a
        # sample time of zero gives the recorded data no increasing time axis
        if not self.tau_s > 0:
            raise ValueError(f"tau_s must be positive, not {self.tau_s!r}")
        if not self.substeps >= 1:
            raise ValueError(f"substeps must be at least 1, not {self.substeps!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        def build(tp, sub, section=None):
            annotations = {f.name: f.type for f in dataclasses.fields(tp)}
            unknown = set(sub) - set(annotations)
            if unknown:
                raise CommandError(f"unknown config keys {sorted(unknown)} for {tp.__name__}")
            for key, value in sub.items():
                if not _fits(annotations[key], value):
                    where = key if section is None else f"{section}.{key}"
                    name = getattr(annotations[key], "__name__", annotations[key])
                    raise CommandError(f"config value {where} must be {name}, not {value!r}")
            try:
                return tp(**sub)
            except ValueError as exc:
                where = "config" if section is None else f"config section {section!r}"
                raise CommandError(f"{where}: {exc}") from exc
        if not isinstance(doc, dict):
            raise CommandError("config top level must be a JSON object, not "
                               f"{type(doc).__name__}")
        kw = dict(doc)
        for name, tp in (("data", DataConfig), ("train", sysid.TrainConfig),
                         ("observer", ObserverSection),
                         ("controller", mpc.ControllerConfig),
                         ("scenario", ScenarioSection)):
            if name in kw:
                if not isinstance(kw[name], dict):
                    raise CommandError(f"config section {name!r} must be a JSON "
                                       f"object, not {type(kw[name]).__name__}")
                kw[name] = build(tp, kw[name], name)
        return build(cls, kw)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def component_seed(self, name: str) -> np.random.Generator:
        """Deterministic per-component stream derived from the root seed."""
        order = ("mprs", "meas-noise", "test-mprs", "test-noise", "train",
                 "scenario-noise")
        idx = order.index(name)
        children = np.random.SeedSequence(self.seed).spawn(len(order))
        return np.random.default_rng(children[idx])


def _params_for(cfg: ExperimentConfig) -> plant_sim.PhParams:
    if cfg.plant_params:
        return plant_sim.load_params(cfg.plant_params)
    return plant_sim.default_params()


def _paths(out_dir) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return {
        "out": out,
        "dataset": out / "dataset.csv",
        "normalization": out / "normalization.json",
        "params": out / "params.json",
        "weights": out / "weights.json",
        "train_log": out / "train_log.csv",
        "gains": out / "gains.json",
        "observer_report": out / "observer_report.json",
        "closed_loop": out / "closed_loop.csv",
        "metrics": out / "metrics.json",
    }


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------

def _mprs_experiment(cfg: ExperimentConfig, p, rng_sig, rng_noise, n_samples):
    """Clean plant run under an MPRS signal, noise added in normalized units."""
    u_sig = sysid.generate_mprs(cfg.data.levels, cfg.data.hold_range,
                                n_samples, rng=rng_sig)
    clean = plant_sim.run_experiment(u_sig, plant_sim.DisturbanceSchedule.empty(),
                                     p, tau_s=cfg.tau_s, substeps=cfg.substeps)
    nmap = sysid.NormalizationMap.from_data(clean, u_range=(cfg.u_min, cfg.u_max))
    norm = sysid.normalize(clean, nmap)
    un = norm.u + rng_noise.normal(0.0, cfg.data.noise_std_u_norm, norm.u.shape)
    yn = norm.y + rng_noise.normal(0.0, cfg.data.noise_std_y_norm, norm.y.shape)
    noisy = sysid.TimeSeries(norm.t, nmap.denormalize_u(un), nmap.denormalize_y(yn))
    return noisy, nmap


def cmd_generate_data(cfg: ExperimentConfig, out_dir) -> dict:
    paths = _paths(out_dir)
    p = _params_for(cfg)
    plant_sim.save_params(p, paths["params"])
    ts, nmap = _mprs_experiment(cfg, p, cfg.component_seed("mprs"),
                                cfg.component_seed("meas-noise"),
                                cfg.data.n_samples)
    sysid.save_timeseries_csv(ts, paths["dataset"])
    nmap.save(paths["normalization"])
    log.info("wrote %s (%d rows) and %s", paths["dataset"], len(ts),
             paths["normalization"])
    return {"dataset": str(paths["dataset"]),
            "normalization": str(paths["normalization"]),
            "rows": len(ts)}


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def cmd_train(cfg: ExperimentConfig, out_dir) -> dict:
    paths = _paths(out_dir)
    if not paths["dataset"].exists():
        raise CommandError(f"dataset {paths['dataset']} missing; run generate-data")
    ts = sysid.load_timeseries_csv(paths["dataset"])
    nmap = sysid.NormalizationMap.load(paths["normalization"])
    tsn = sysid.normalize(ts, nmap)
    batch = sysid.make_sequences(tsn, cfg.train.T_s, cfg.train.tau)
    seed = int(cfg.component_seed("train").integers(2**31))
    t0 = time.time()
    w, train_log = sysid.train(batch, cfg.train, seed)
    nu = gru_model.diss_residual(w)
    gru_model.save_weights(w, paths["weights"])
    sysid.save_training_log(train_log, paths["train_log"])
    log.info("trained %d epochs in %.0f s; nu = %+.4f", cfg.train.epochs,
             time.time() - t0, nu)
    if nu >= 0.0:
        raise CommandError(
            f"training finished without a stability certificate (nu = {nu:+.4f})")
    return {"weights": str(paths["weights"]), "nu": nu,
            "epochs": cfg.train.epochs}


# ---------------------------------------------------------------------------
# open-loop validation
# ---------------------------------------------------------------------------

def cmd_validate(cfg: ExperimentConfig, out_dir) -> dict:
    paths = _paths(out_dir)
    for key in ("weights", "normalization"):
        if not paths[key].exists():
            raise CommandError(f"{paths[key]} missing")
    w = gru_model.load_weights(paths["weights"])
    nmap = sysid.NormalizationMap.load(paths["normalization"])

    if cfg.scenario.plant == "model":
        # perfect-model stub: the data-generating system is the network itself
        rng_sig = cfg.component_seed("test-mprs")
        u_sig = sysid.generate_mprs(cfg.data.levels, cfg.data.hold_range,
                                    cfg.data.test_n_samples, rng=rng_sig)
        un = nmap.normalize_u(u_sig.reshape(-1, 1))
        _, yn = gru_model.simulate(w, np.zeros(w.n), un)
        ts_n = sysid.TimeSeries(np.arange(len(u_sig)) * cfg.tau_s, un, yn)
    else:
        p = _params_for(cfg)
        ts, _ = _mprs_experiment(cfg, p, cfg.component_seed("test-mprs"),
                                 cfg.component_seed("test-noise"),
                                 cfg.data.test_n_samples)
        ts_n = sysid.normalize(ts, nmap)

    _, yhat = gru_model.simulate(w, np.zeros(w.n), ts_n.u)
    wash = cfg.train.washout
    fit = sysid.fit_index(ts_n.y[wash:], yhat[wash:])
    test_mse = sysid.mse(ts_n.y[wash:], yhat[wash:])
    nu = gru_model.diss_residual(w)
    result = {"fit": fit, "test_mse": test_mse, "nu": nu,
              "washout_skipped": wash, "samples": len(ts_n)}
    with open(paths["out"] / "validation.json", "w") as fh:
        json.dump(result, fh, indent=1)
    log.info("validation: FIT %.2f%%, MSE %.3e, nu %+.4f", fit, test_mse, nu)
    return result


# ---------------------------------------------------------------------------
# observer synthesis
# ---------------------------------------------------------------------------

def cmd_synth_observer(cfg: ExperimentConfig, out_dir) -> dict:
    paths = _paths(out_dir)
    if not paths["weights"].exists():
        raise CommandError(f"{paths['weights']} missing")
    w = gru_model.load_weights(paths["weights"])
    nu = gru_model.diss_residual(w)
    if nu >= 0.0:
        raise CommandError(f"nu >= 0 (got {nu:+.4f}); cannot synthesize observer")
    trivial = observer.trivial_gains(w, cfg.observer.lam)
    trivial_norm = observer.certify_gains(w, trivial).spectral_norm
    t0 = time.perf_counter()
    try:
        gains = observer.synthesize_gains(w)
    except observer.ObserverSynthesisError as exc:
        raise CommandError(str(exc)) from exc
    synth_ms = 1e3 * (time.perf_counter() - t0)
    rep = observer.certify_gains(w, gains)
    if not rep.passed:
        raise CommandError(f"synthesized gains failed certification ({rep.reason})")
    observer.save_gains(gains, w, paths["gains"])
    report = {"delta": rep.delta, "alpha": rep.alpha,
              "spectral_radius": rep.spectral_radius,
              "spectral_norm": rep.spectral_norm,
              "trivial_spectral_norm": trivial_norm,
              "passed": rep.passed, "nu": nu, "synth_ms": synth_ms}
    with open(paths["observer_report"], "w") as fh:
        json.dump(report, fh, indent=1)
    log.info("observer: delta %.4f, rho(A_delta) %.4f, |A_delta| %.4f "
             "(fallback %.4f) in %.1f ms", rep.delta, rep.spectral_radius,
             rep.spectral_norm, trivial_norm, synth_ms)
    return report


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

class _PhPlant:
    def __init__(self, cfg, p):
        self.cfg = cfg
        self.p = p
        self.state, _ = plant_sim.nominal_point(p)

    def measure(self):
        return plant_sim.output_solve(self.state, self.p)

    def advance(self, u_phys, t_now, sched):
        u_plant = u_phys + sched.at(t_now, "input-additive")
        d_plant = sched.at(t_now, "q2-override", self.p.q2)
        self.state = plant_sim.integrate_step(self.state, u_plant, d_plant,
                                              self.p, self.cfg.tau_s,
                                              self.cfg.substeps)


class _ModelPlant:
    """Plant replaced by the identified model (nominal trivial case)."""

    def __init__(self, cfg, w, nmap, y0_ph):
        self.cfg = cfg
        self.w = w
        self.nmap = nmap
        eq = mpc.find_equilibrium(w, nmap.normalize_y([y0_ph]))
        self.x = eq.x0.copy()

    def measure(self):
        yn = gru_model.gru_output(self.w, self.x)
        return float(self.nmap.denormalize_y(yn)[0])

    def advance(self, u_phys, t_now, sched):
        u_plant = u_phys + sched.at(t_now, "input-additive")
        un = self.nmap.normalize_u(np.atleast_1d(u_plant))
        self.x = gru_model.gru_step(self.w, self.x, un)


@dataclass
class RunMetrics:
    test_mse: float | None
    fit: float | None
    nu: float
    rho_A_delta: float
    windows: list                 # [(t_lo_h, t_hi_h, max_abs_err_pH)]
    max_settled_error: float
    constraint_violations: int
    saturation_ticks: int
    fallback_ticks: int
    dropout_ticks: int            # non-finite measurements replaced by y_hat
    rebuild_failures: int         # setpoints whose ingredients failed to build
    nonfinite_resets: int         # ticks re-seeded after a non-finite input


def _settling_windows(events_h, duration_h, settle_h):
    bounds = sorted(set(e for e in events_h if 0.0 <= e < duration_h))
    bounds = [0.0] + [e for e in bounds if e > 0.0] + [duration_h]
    windows = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        lo = a + settle_h
        if lo < b - 1e-9:
            windows.append((lo, b))
    return windows


def cmd_run_closed_loop(cfg: ExperimentConfig, out_dir) -> dict:
    paths = _paths(out_dir)
    for key in ("weights", "gains", "normalization"):
        if not paths[key].exists():
            raise CommandError(f"{paths[key]} missing")
    w = gru_model.load_weights(paths["weights"])
    gains = observer.load_gains(paths["gains"])
    nmap = sysid.NormalizationMap.load(paths["normalization"])
    rep = observer.certify_gains(w, gains)
    if not rep.passed:
        raise CommandError("observer gains do not certify for these weights")

    sc = cfg.scenario
    tau_s = cfg.tau_s
    K = int(round(sc.duration_h * 3600.0 / tau_s))
    t_h = np.arange(K) * tau_s / 3600.0

    prog = sorted((float(t), float(v)) for t, v in sc.reference_program)
    raw_ref = np.empty(K)
    for t_start, val in prog:
        raw_ref[t_h >= t_start - 1e-12] = val
    refs_ph = mpc.reference_filter(raw_ref, cfg.controller.ref_filter_window)

    sched = plant_sim.DisturbanceSchedule(
        [(a * 3600.0, b * 3600.0, ch, val) for a, b, ch, val in sc.disturbances])

    if sc.plant == "model":
        # the model has no buffer-flow input: a q2 disturbance would never act
        if any(e.channel == "q2-override" for e in sched.entries):
            raise CommandError("scenario.plant 'model' cannot apply the "
                               "'q2-override' disturbance channel; use plant 'ph'")
        plant = _ModelPlant(cfg, w, nmap, refs_ph[0])
    elif sc.plant == "ph":
        plant = _PhPlant(cfg, _params_for(cfg))
    else:
        raise CommandError(f"unknown scenario plant {sc.plant!r}")

    rng_noise = cfg.component_seed("scenario-noise")
    y_half = float(nmap.y_half[0])

    ctl = mpc.RecedingHorizonController(w, gains, cfg.controller)
    ctl.reset(nmap.normalize_y([refs_ph[0]]))

    rows = []
    violations = 0
    saturated = 0
    t0 = time.time()
    for k in range(K):
        t_now = k * tau_s
        y_true = plant.measure()
        y_meas = y_true + sched.at(t_now, "output-additive")
        if sc.noise_std_y_norm > 0.0:
            y_meas += rng_noise.normal(0.0, sc.noise_std_y_norm) * y_half
        u_norm, info = ctl.step(nmap.normalize_y([y_meas]),
                                nmap.normalize_y([refs_ph[k]]))
        u_phys = float(nmap.denormalize_u(u_norm)[0])
        if not (cfg.u_min - 1e-9 <= u_phys <= cfg.u_max + 1e-9):
            violations += 1
            u_phys = float(np.clip(u_phys, cfg.u_min, cfg.u_max))
        if abs(abs(u_norm[0]) - 1.0) < 1e-12:
            saturated += 1
        plant.advance(u_phys, t_now, sched)
        rows.append((k, refs_ph[k], y_meas, u_phys, float(info.v[0]),
                     float(info.xi[0]), info.cost, info.iterations,
                     int(info.feasible), info.evals, info.terminal_level,
                     info.rejections, info.solve_ms))
    log.info("closed loop: %d ticks in %.0f s, %d fallbacks, %d violations",
             K, time.time() - t0, ctl.fallback_count, violations)

    with open(paths["closed_loop"], "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["k", "y_ref", "y_meas", "u_applied", "v", "xi",
                     "cost", "solve_iters", "feasible", "evals", "terminal_level",
                     "rejections", "solve_ms"])
        wr.writerows([v if isinstance(v, int) else repr(float(v)) for v in row]
                     for row in rows)

    err = np.array([r[1] - r[2] for r in rows])
    events = [t for t, _ in prog if t > 0.0]
    events += [a for a, b, _, _ in sc.disturbances] + [b for _, b, _, _ in sc.disturbances]
    windows = _settling_windows(events, sc.duration_h, sc.settle_minutes / 60.0)
    win_metrics = []
    for lo, hi in windows:
        msk = (t_h >= lo) & (t_h < hi)
        win_metrics.append((lo, hi, float(np.max(np.abs(err[msk])))))
    max_settled = max((m[2] for m in win_metrics), default=float("nan"))

    metrics = RunMetrics(
        test_mse=None, fit=None, nu=gru_model.diss_residual(w),
        rho_A_delta=rep.spectral_radius, windows=win_metrics,
        max_settled_error=max_settled, constraint_violations=violations,
        saturation_ticks=saturated, fallback_ticks=ctl.fallback_count,
        dropout_ticks=ctl.dropout_count, rebuild_failures=ctl.rebuild_failures,
        nonfinite_resets=ctl.nonfinite_resets)
    with open(paths["metrics"], "w") as fh:
        json.dump(asdict(metrics), fh, indent=1)
    if violations:
        raise CommandError(f"{violations} input constraint violations")
    return asdict(metrics)


# ---------------------------------------------------------------------------
# figure-data export
# ---------------------------------------------------------------------------

def cmd_plot_export(trajectory_csv, out_dir, u_min=11.2, u_max=17.2) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ks, yref, ymeas, uapp = [], [], [], []
    with open(trajectory_csv, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        need = ["k", "y_ref", "y_meas", "u_applied"]
        if header[:4] != need:
            raise CommandError(f"malformed trajectory header {header[:4]}")
        for row in rd:
            ks.append(int(row[0]))
            yref.append(float(row[1]))
            ymeas.append(float(row[2]))
            uapp.append(float(row[3]))
    files = {}

    def write(name, header_row, rows):
        path = out / name
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(header_row)
            wr.writerows(rows)
        files[name] = str(path)

    write("fig_output.csv", ["k", "y_ref", "y_meas"],
          [[k, repr(a), repr(b)] for k, a, b in zip(ks, yref, ymeas)])
    write("fig_tracking_error.csv", ["k", "error"],
          [[k, repr(a - b)] for k, a, b in zip(ks, yref, ymeas)])
    write("fig_input.csv", ["k", "u_applied", "u_min", "u_max"],
          [[k, repr(u), repr(float(u_min)), repr(float(u_max))]
           for k, u in zip(ks, uapp)])
    return files


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

COMMANDS = {
    "generate-data": cmd_generate_data,
    "train": cmd_train,
    "validate": cmd_validate,
    "synth-observer": cmd_synth_observer,
    "run-closed-loop": cmd_run_closed_loop,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="grumpc",
        description="GRU identification and offset-free MPC for the pH benchmark")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None,
                        help="JSON experiment config (desk defaults if omitted)")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", type=str, default="out")
    sp = sub.add_parser("plot-export")
    sp.add_argument("trajectory", type=str)
    sp.add_argument("--out", type=str, default="out")

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "plot-export":
            result = cmd_plot_export(args.trajectory, args.out)
        else:
            cfg = (ExperimentConfig.load(args.config) if args.config
                   else ExperimentConfig())
            if args.seed is not None:
                cfg.seed = args.seed
            result = COMMANDS[args.command](cfg, args.out)
        json.dump(result, sys.stdout, indent=1, default=str)
        print()
        return 0
    except (CommandError, FileNotFoundError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
