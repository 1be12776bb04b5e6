"""In-process A/B timing of the closed loop between two source trees.

    python3 tests/loop_ab.py PARENT_TREE CHANGE_TREE --workload regulate|track
                             [--rounds 8] [--ticks 1000] [--seed 1]

Loads the src/grumpc package of each tree under its own package name
(train_ab.load_package), so both run in one process.  A round runs one
closed loop per side, the first side switching every round.  The change
tree's harness.closed_loop drives both, so a parent that predates it can be
timed too: each runs its tree's pinned model (perfbench/fixture) on its
tree's harness._PhPlant from the nominal point for --ticks ticks, with
seeded measurement noise.  regulate holds pH 7.0 under seeded two-tick
disturbance windows on the output, the buffer flow and the base flow every
24 ticks; track steps the setpoint by 0.2 pH every 18 ticks, through the
controller's reference filter.  It prints each side's median and quartiles
of the controller's ticks per second (the ticks over the summed wall time of
its step), the rounds the change won, and whether both sides applied equal
inputs (as bytes) and made equal evaluations, iterations, rejections and
exits tick for tick; where they do not, the largest difference of the
applied inputs (normalized) and the number of ticks whose counts or exit
differ.  Pin BLAS to one thread (OPENBLAS_NUM_THREADS=1) for timings
comparable with perfbench.

Benchmark processes of one unchanged tree spread with the phase of a shared
host by more than a kernel change moves them; alternating loops in one
process keeps both sides in the same phase.
"""

import argparse
import statistics
import sys
from pathlib import Path

import numpy as np

from train_ab import load_package, quartiles

WORKLOADS = ("regulate", "track")
SETPOINT_PH = 7.0
NOISE_STD_PH = 0.004
# regulate: two-tick windows at the start of every period
REG_PERIOD = 24
REG_WINDOWS = ((2, 4, "output-additive"), (4, 6, "q2-override"), (6, 8, "input-additive"))
# track: setpoint steps of alternating sign
TRACK_STEP_EVERY = 18
TRACK_STEP_PH = 0.2


def scenario(h, workload, seed, ticks, cfg, p):
    """Raw setpoints, disturbance schedule and measurement noise per tick."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    tau = cfg.tau_s
    raw = np.full(ticks, SETPOINT_PH)
    entries = []
    if workload == "regulate":
        for start in range(0, ticks, REG_PERIOD):
            for lo, hi, channel in REG_WINDOWS:
                sign = rng.choice((-1.0, 1.0))
                value = {"output-additive": sign * rng.uniform(0.05, 0.15),
                         "q2-override": p.q2 * (1.0 + sign * rng.uniform(0.1, 0.3)),
                         "input-additive": sign * rng.uniform(0.2, 0.5)}[channel]
                entries.append(((start + lo) * tau, (start + hi) * tau, channel, value))
    else:
        for i, k in enumerate(range(1, ticks, TRACK_STEP_EVERY)):
            raw[k:] = SETPOINT_PH + TRACK_STEP_PH * (1 - i % 2)
    return (h.mpc.reference_filter(raw, cfg.controller.ref_filter_window),
            h.plant_sim.DisturbanceSchedule(entries),
            rng.normal(0.0, NOISE_STD_PH, ticks))


class Side:
    """One tree's package, its pinned model and its closed loops."""

    def __init__(self, label, tree, name, workload, seed, ticks):
        self.label = label
        h = self.h = load_package(tree, name)
        fixture = Path(tree).resolve() / "perfbench" / "fixture"
        self.w = h.gru_model.load_weights(fixture / "weights.json")
        self.gains = h.observer.load_gains(fixture / "gains.json")
        self.nmap = h.sysid.NormalizationMap.load(fixture / "normalization.json")
        self.cfg = h.ExperimentConfig(seed=seed)
        self.p = h.plant_sim.default_params()
        self.refs, self.sched, self.noise = scenario(h, workload, seed, ticks,
                                                     self.cfg, self.p)
        self.rates, self.records = [], None

    def run(self, closed_loop):
        """One closed loop driven by closed_loop; records its ticks/s and its
        per-tick record."""
        ctl = self.h.mpc.RecedingHorizonController(self.w, self.gains, self.cfg.controller)
        ctl.reset(self.nmap.normalize_y([self.refs[0]]))
        plant = self.h._PhPlant(self.cfg, self.p)
        records, spent_ms = [], 0.0
        for t in closed_loop(self.cfg, ctl, plant, self.nmap, self.refs, self.sched,
                             self.noise):
            spent_ms += t.step_ms
            records.append((t.u_norm.tobytes(), t.info.evals, t.info.iterations,
                            t.info.rejections, t.info.stop))
        self.rates.append(len(self.refs) / (spent_ms / 1e3))
        if self.records is None:
            self.records = records
        elif records != self.records:
            raise SystemExit(f"error: the {self.label} tree's loops differ between rounds")


def main(argv=None):
    ap = argparse.ArgumentParser(prog="tests/loop_ab.py")
    ap.add_argument("parent_tree")
    ap.add_argument("change_tree")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--ticks", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.rounds < 2 or args.ticks < 1:
        ap.error("--rounds must be at least 2 and --ticks at least 1")

    sides = [Side("parent", args.parent_tree, "grumpc_ab_parent", args.workload,
                  args.seed, args.ticks),
             Side("change", args.change_tree, "grumpc_ab_change", args.workload,
                  args.seed, args.ticks)]
    closed_loop = sides[1].h.closed_loop
    for r in range(args.rounds):
        for side in sides if r % 2 == 0 else sides[::-1]:
            side.run(closed_loop)

    p, c = sides
    print(f"{args.workload}, seed {args.seed}, {args.ticks} ticks per loop, "
          f"{args.rounds} rounds")
    for side in sides:
        q1, q2, q3 = quartiles(side.rates)
        print(f"{side.label:<7} median {q2:.1f} ticks/s  quartiles [{q1:.1f}-{q3:.1f}]")
    won = sum(rc > rp for rp, rc in zip(p.rates, c.rates))
    print(f"change faster in {won} of {args.rounds} rounds; median change/parent "
          f"{statistics.median(c.rates) / statistics.median(p.rates):.3f}")
    inputs = [t[0] for t in p.records] == [t[0] for t in c.records]
    counts = [t[1:] for t in p.records] == [t[1:] for t in c.records]
    print(f"applied inputs equal: {'yes' if inputs else 'no'}; evaluations, "
          f"iterations, rejections and stops equal: {'yes' if counts else 'no'}")
    if not (inputs and counts):
        du = max(np.max(np.abs(np.frombuffer(a[0]) - np.frombuffer(b[0])))
                 for a, b in zip(p.records, c.records))
        ticks = sum(a[1:] != b[1:] for a, b in zip(p.records, c.records))
        print(f"largest applied input difference {du:.3e} (normalized); ticks with "
              f"other evaluations, iterations, rejections or stop: {ticks} of "
              f"{len(p.records)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
