"""Workloads, metrics and correctness checks of the grumpc benchmark.

Three workloads, each driven by one single-threaded process:

regulate  Closed loop on the simulated pH plant with the setpoint held at
          pH 7.0 and seeded disturbance windows on all three channels.
          Every tick after the first reuses the cached controller
          ingredients, so the time goes to warm-started FHOCP solves.
track     The same loop with setpoint steps every three minutes and seeded
          measurement noise.  The reference filter turns each step into a
          ramp of distinct setpoints, so ticks rebuild the ingredients
          (cache misses).
identify  Seeded MPRS data generation, a fixed number of training epochs,
          observer synthesis and validation.  No MPC work.

The closed loops are closed in the load-generator sense as well: each tick
starts when the previous one has returned.  The closed-loop workloads run
on the pinned model in perfbench/fixture, which is certified before use.

With trace off the run reports the end-to-end metrics of BENCHMARK.json;
with trace on it wraps the public functions of every layer at their call
sites, records spans, and reports the per-layer metrics instead.
"""

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from grumpc import gru_model, harness, kernels, mpc, observer, plant_sim, sysid

import cases
import layers
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE = HERE / "fixture"
OUT = ROOT / ".bench_out"

WORKLOADS = ("regulate", "track", "identify")
SETUP_PROBES = 4            # fresh processes timed next to the main one
MAX_TICKS = 4000
IDENTIFY_EPOCHS = 2

SETPOINT_PH = 7.0
NOISE_STD_PH = 0.004
SETTLE_TICKS = 4            # quiet ticks after an event before errors count
SETTLED_ERR_BOUND_PH = 0.1  # seeds 1-5 of regulate settle within 0.005-0.021
# held-out MSE (normalized units) after the fixed epochs: 0.002-0.027 over
# seeds 1-10, while predicting the mean output scores 0.2-0.4
VAL_MSE_BOUND = 0.1

# regulate: three two-tick disturbance windows at the start of every period
REG_PERIOD = 24
REG_WINDOWS = ((2, 4, "output-additive"), (4, 6, "q2-override"),
               (6, 8, "input-additive"))
# track: setpoint steps of alternating sign every three minutes, the first
# at tick 1.  A 36 s run makes about 8 ticks, so it covers the first step
# only: every tick of its filtered ramp is an ingredient-cache miss.  The
# step size is fixed, not seeded: the ingredient build time depends
# erratically on the setpoint (1.1-3.0 s between pH 6.5 and 8.0, depending on
# how many radius audits fail), so with seeded sizes of 0.1-0.3 pH ten seeds
# spread 20 % in ticks/s and 30 % in tick p50.  The seed drives the
# measurement noise.
TRACK_STEP_EVERY = 18
TRACK_STEP_PH = 0.2


class CheckFailed(RuntimeError):
    """A correctness check failed; the run exits nonzero."""


def experiment_config(seed):
    """Desk defaults of the harness (N_p = 40), with the workload seed."""
    return harness.ExperimentConfig(seed=seed)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def environment(cfg):
    return {
        "backend": "numba" if kernels.NUMBA_ENABLED else "numpy",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "config": "harness.ExperimentConfig() desk defaults; "
                  "configs/desk.json (N_p = 75) is not used",
        "controller": dataclasses.asdict(cfg.controller),
    }


# ---------------------------------------------------------------------------
# closed-loop scenarios
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Scenario:
    refs_ph: np.ndarray          # filtered reference per tick
    sched: plant_sim.DisturbanceSchedule
    settled: np.ndarray          # ticks whose tracking error is checked
    noise_ph: np.ndarray         # measurement noise per tick


def _settled_ticks(busy, n):
    """Ticks at least SETTLE_TICKS after the end of every (start, end) span."""
    settled = np.ones(n, dtype=bool)
    for lo, hi in busy:
        settled[lo:hi + SETTLE_TICKS] = False
    return settled


def make_scenario(workload, seed, cfg, p):
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    n = MAX_TICKS
    tau = cfg.tau_s
    window = cfg.controller.ref_filter_window
    raw = np.full(n, SETPOINT_PH)
    entries, busy = [], [(0, 0)]
    if workload == "regulate":
        for start in range(0, n, REG_PERIOD):
            for lo, hi, channel in REG_WINDOWS:
                sign = rng.choice((-1.0, 1.0))
                if channel == "output-additive":
                    value = sign * rng.uniform(0.05, 0.15)          # pH
                elif channel == "q2-override":
                    value = p.q2 * (1.0 + sign * rng.uniform(0.1, 0.3))
                else:
                    value = sign * rng.uniform(0.2, 0.5)            # mL/s
                entries.append(((start + lo) * tau, (start + hi) * tau,
                                channel, value))
                busy.append((start + lo, start + hi))
    else:
        for i, k in enumerate(range(1, n, TRACK_STEP_EVERY)):
            raw[k:] = SETPOINT_PH + TRACK_STEP_PH * (1 - i % 2)
            # errors count from SETTLE_TICKS after the step on, against the
            # filtered reference while it still ramps: the filtered ramp
            # lasts 12 ticks, longer than a 36 s run
            busy.append((k, k))
    return Scenario(
        refs_ph=mpc.reference_filter(raw, window),
        sched=plant_sim.DisturbanceSchedule(entries),
        settled=_settled_ticks(busy, n),
        noise_ph=rng.normal(0.0, NOISE_STD_PH, n))


def load_pinned():
    """Pinned weights, gains and normalization; refuses uncertified ones."""
    w = gru_model.load_weights(FIXTURE / "weights.json")
    gains = observer.load_gains(FIXTURE / "gains.json")
    nmap = sysid.NormalizationMap.load(FIXTURE / "normalization.json")
    nu = gru_model.diss_residual(w)
    rep = observer.certify_gains(w, gains)
    if not (nu < 0.0 and rep.passed):
        raise CheckFailed(f"pinned model is not certified (nu = {nu:+.4f}, "
                          f"observer check {rep.reason!r})")
    return w, gains, nmap


class ClosedLoop:
    """Plant simulator plus controller; set-up ends where the first tick starts."""

    def __init__(self, workload, seed):
        self.cfg = experiment_config(seed)
        self.p = plant_sim.default_params()            # calibration
        self.w, gains, self.nmap = load_pinned()
        self.sc = make_scenario(workload, seed, self.cfg, self.p)
        self.state, _ = plant_sim.nominal_point(self.p)
        self.ctl = mpc.RecedingHorizonController(self.w, gains, self.cfg.controller)
        self.ctl.reset(self.nmap.normalize_y([self.sc.refs_ph[0]]))
        self.tick_ms, self.err_ph = [], []
        self.violations = self.iterations = 0

    def tick(self, k):
        cfg, p, sc, nmap = self.cfg, self.p, self.sc, self.nmap
        t_now = k * cfg.tau_s
        y_true = plant_sim.output_solve(self.state, p)
        y_meas = (y_true + sc.sched.at(t_now, "output-additive")
                  + sc.noise_ph[k])
        t0 = time.perf_counter()
        u_norm, info = self.ctl.step(nmap.normalize_y([y_meas]),
                                     nmap.normalize_y([sc.refs_ph[k]]))
        self.tick_ms.append((time.perf_counter() - t0) * 1e3)
        self.iterations += info.iterations
        u_phys = float(nmap.denormalize_u(u_norm)[0])
        if not (cfg.u_min - 1e-9 <= u_phys <= cfg.u_max + 1e-9):
            self.violations += 1
        self.err_ph.append(sc.refs_ph[k] - y_meas)
        self.state = plant_sim.integrate_step(
            self.state, u_phys + sc.sched.at(t_now, "input-additive"),
            sc.sched.at(t_now, "q2-override", p.q2), p, cfg.tau_s,
            cfg.substeps)

    def run(self, seconds):
        t_start = time.perf_counter()
        k = 0
        while k < MAX_TICKS and (k == 0 or time.perf_counter() - t_start
                                 + statistics.median(self.tick_ms) / 1e3 <= seconds):
            self.tick(k)
            k += 1
        return self.report()

    def report(self):
        n = len(self.tick_ms)
        ms = np.array(self.tick_ms)
        err = np.abs(np.array(self.err_ph))
        settled = self.sc.settled[:n]
        fallbacks = self.ctl.fallback_count
        tail_pct, tail_ms = tail_percentile(ms)
        out = {
            "ticks": n,
            "ticks_per_s": n / (ms.sum() / 1e3),
            "tick_p50_ms": float(np.median(ms)),
            "tick_tail_ms": tail_ms,
            "tick_tail_percentile": tail_pct,
            "deadline_miss_ratio": (int(np.sum(ms > self.cfg.tau_s * 1e3))
                                    + fallbacks) / n,
            "fallback_ratio": fallbacks / n,
            "settled_err_ph": float(err[settled].max()) if settled.any() else None,
            "settled_ticks": int(settled.sum()),
            "solver_iterations": self.iterations,
            "constraint_violations": self.violations,
            "fallbacks": fallbacks,
        }
        if self.violations:
            raise CheckFailed(f"{self.violations} input constraint violations")
        if out["settled_err_ph"] is not None and out["settled_err_ph"] > SETTLED_ERR_BOUND_PH:
            raise CheckFailed(f"settled error {out['settled_err_ph']:.3f} pH exceeds "
                              f"{SETTLED_ERR_BOUND_PH} pH")
        return out


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n <= 10:
        return None, None
    q = 100.0 * (n - 10) / n
    return q, float(np.percentile(values, q))


# ---------------------------------------------------------------------------
# identification
# ---------------------------------------------------------------------------

class Identify:
    """generate-data -> train -> synth-observer -> validate, through harness.

    harness.cmd_train refuses, after saving them, weights without a
    stability certificate, and the desk profile certifies only after about
    ten epochs.  That refusal is expected after IDENTIFY_EPOCHS; the loss
    and validation checks read the saved training log, and observer
    synthesis and validation run on the pinned (certified) model.
    """

    def __init__(self, seed, out_dir):
        self.cfg = experiment_config(seed)
        self.cfg.train.epochs = IDENTIFY_EPOCHS
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        harness.cmd_generate_data(self.cfg, self.out)
        self.batch_starts = []      # perf_counter at each loss_gradient call
        self.steps = 0              # GRU steps, forward pass only
        self.train_s, self.synth_s, self.cycle_s = [], [], []
        self.val_mse, self.commands = None, 0

    def batch_probe(self, fn):
        def probe(w, batch, x0s, cfg):
            self.batch_starts.append(time.perf_counter())
            self.steps += len(batch) * batch.T_s
            return fn(w, batch, x0s, cfg)
        return probe

    def use_pinned_model(self):
        for name in ("weights.json", "gains.json"):
            (self.out / name).write_bytes((FIXTURE / name).read_bytes())

    def train(self):
        """The train command; returns the loss and validation MSE per epoch."""
        try:
            self.command(harness.cmd_train)
        except CheckFailed as exc:
            if "without a stability certificate" not in str(exc):
                raise
        with open(self.out / "train_log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return ([float(r["loss"]) for r in rows],
                [float(r["val_mse"]) for r in rows])

    def cycle(self):
        t0 = time.perf_counter()
        losses, val_mse = self.train()
        t1 = time.perf_counter()
        if not (len(losses) == IDENTIFY_EPOCHS and np.all(np.isfinite(losses))
                and losses[-1] < losses[0]):
            raise CheckFailed(f"training loss not finite and decreasing: {losses}")
        self.val_mse = val_mse[-1]
        self.train_s.append(t1 - t0)
        self.use_pinned_model()
        rep = self.command(harness.cmd_synth_observer)
        self.synth_s.append(time.perf_counter() - t1)
        if rep["spectral_norm"] > rep["trivial_spectral_norm"]:
            raise CheckFailed(f"synthesized gains worse than the fallback: {rep}")
        self.command(harness.cmd_validate)
        self.cycle_s.append(time.perf_counter() - t0)

    def command(self, cmd):
        """Run one harness command; a failed command fails the run."""
        self.commands += 1
        try:
            return cmd(self.cfg, self.out)
        except sysid.TrainingDivergedError as exc:
            raise CheckFailed(f"{cmd.__name__}: {exc}") from exc
        except harness.CommandError as exc:
            raise CheckFailed(f"{cmd.__name__} failed: {exc}") from exc

    def run(self, seconds):
        orig = sysid.loss_gradient
        sysid.loss_gradient = self.batch_probe(orig)
        try:
            t_start = time.perf_counter()
            while not self.cycle_s or (time.perf_counter() - t_start
                                       + statistics.median(self.cycle_s) <= seconds):
                self.cycle()
        finally:
            sysid.loss_gradient = orig
        return self.report()

    def report(self):
        gaps = np.diff(self.batch_starts) * 1e3
        val = self.val_mse
        if not (np.isfinite(val) and val <= VAL_MSE_BOUND):
            raise CheckFailed(f"validation MSE {val:.3e} above {VAL_MSE_BOUND}")
        return {
            "cycles": len(self.cycle_s),
            "batches": len(self.batch_starts),
            # forward and reverse pass
            "train_steps_per_s": 2 * self.steps / sum(self.train_s),
            "batch_p50_ms": float(np.median(gaps)),
            "synth_s": float(np.median(self.synth_s)),
            "val_mse": float(val),
            "commands": self.commands,
        }


# ---------------------------------------------------------------------------
# set-up timing
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def fresh_dir():
    """A new directory for one process's artifacts, removed afterwards.

    Writing the identify artifacts over those of an earlier run made its
    set-up about 40 % slower on a 2-core test box, so every process starts
    from an empty directory.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def set_up(workload, seed, out_dir):
    if workload == "identify":
        return Identify(seed, out_dir)
    return ClosedLoop(workload, seed)


def set_up_until_ready(workload, seed, out_dir):
    """Set up in this process up to the first tick or first training batch."""
    sim = set_up(workload, seed, out_dir)
    if workload == "identify":
        # set-up ends when the first training batch starts
        class Reached(Exception):
            pass

        def stop(*args):
            raise Reached
        orig = sysid.loss_gradient
        sysid.loss_gradient = stop
        try:
            harness.cmd_train(sim.cfg, sim.out)
        except Reached:
            pass
        finally:
            sysid.loss_gradient = orig
    return sim


def probe_setup_s(workload, seed, run_py):
    """Set-up times of fresh processes, each from its first line to ready."""
    times = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, str(run_py), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seed, seconds, trace, t_process, run_py):
    """One benchmark run; returns (result line dict, details dict)."""
    cfg = experiment_config(seed)
    out_dir = OUT / f"{workload}-s{seed}-t{int(trace)}"
    tracer = spans.Tracer()
    span = tracer.span if trace else (lambda name: contextlib.nullcontext())
    if trace:
        layers.instrument(tracer)
    with fresh_dir() as work_dir:
        t_run = time.perf_counter()
        try:
            with span("run"):
                with span("setup"):
                    sim = set_up(workload, seed, work_dir)
                t_ready = time.perf_counter()
                with span("measure"):
                    t0 = time.perf_counter()
                    report = sim.run(seconds)
                    wall_s = time.perf_counter() - t0
        finally:
            run_wall_s = time.perf_counter() - t_run
            tracer.restore()
    if workload == "identify":
        # the main process's set-up ends at its first training batch
        t_ready = sim.batch_starts[0]
        attempted, failed = sim.commands, 0    # a failed command fails the run
    else:
        attempted, failed = report["ticks"], report["fallbacks"]
    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": int(trace), "measured_wall_s": wall_s,
               "env": environment(cfg), "report": report}
    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        metrics = layers.per_layer_metrics(tracer, cfg.train.n_states, 1, wall_s)
        metrics.update(cases.kernel_case_metrics())
        details["span_sum_self_ms"] = sum(
            row["self_ms"] for row in tracer.summary().values())
        details["run_wall_ms"] = run_wall_s * 1e3
        tracer.dump(out_dir / "spans.json")
    else:
        setups = [t_ready - t_process] + probe_setup_s(workload, seed, run_py)
        details["setup_samples_s"] = setups
        rate = report["train_steps_per_s" if workload == "identify" else "ticks_per_s"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "throughput_per_s": {"value": rate, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    result = {"correct": True, "attempted": int(attempted),
              "failed": int(failed), "metrics": metrics}
    details["result"] = result
    with open(out_dir / "result.json", "w") as fh:
        json.dump(details, fh, indent=1, default=float)
    return result, details


REPORT_UNITS = {
    "ticks_per_s": "ticks/s", "tick_p50_ms": "ms", "tick_tail_ms": "ms",
    "deadline_miss_ratio": "ratio", "fallback_ratio": "ratio",
    "settled_err_ph": "pH", "train_steps_per_s": "GRU-steps/s",
    "batch_p50_ms": "ms", "synth_s": "s", "val_mse": "normalized^2",
}


def print_details(details):
    """Human-readable lines; the JSON result line comes last."""
    rep = details["report"]
    print(f"workload {details['workload']} seed {details['seed']} "
          f"trace {details['trace']}: measured {details['measured_wall_s']:.2f} s")
    print("env " + json.dumps(details["env"], sort_keys=True))
    for key, unit in REPORT_UNITS.items():
        if key in rep:
            val = rep[key]
            note = ""
            if key == "tick_tail_ms":
                note = (f" (p{rep['tick_tail_percentile']:.1f} of {rep['ticks']} ticks)"
                        if val is not None else
                        f" (n/a: {rep['ticks']} ticks, need more than 10)")
            if key == "settled_err_ph":
                note = (f" (max over {rep['settled_ticks']} checked ticks)"
                        if val is not None else " (n/a: no checked tick in this run)")
            shown = "n/a" if val is None else f"{val:.6g}"
            print(f"  {key:<22} {shown:>12} {unit}{note}")
    if "setup_samples_s" in details:
        print("  setup_s samples       " + ", ".join(
            f"{s:.3f}" for s in details["setup_samples_s"]) + " s")
    for name, m in details["result"]["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")


def main(argv, t_process, run_py):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            with fresh_dir() as work_dir:
                set_up_until_ready(args.workload, args.seed, work_dir)
                setup_s = time.perf_counter() - t_process
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result, details = run(args.workload, args.seed, args.seconds,
                              bool(args.trace), t_process, run_py)
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print_details(details)
    print(json.dumps(result))
    return 0
