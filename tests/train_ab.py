"""In-process A/B timing of training between two source trees.

    python3 tests/train_ab.py PARENT_TREE CHANGE_TREE [--config PATH]
                              [--rounds 12] [--epochs 1]

Loads the src/grumpc package of each tree under its own package name, so
both run in one process on the same data.  The first tree generates the
config's MPRS data once (desk defaults without --config); each tree then
reads it as cmd_train does, and the rounds alternate trainings of that data
from cmd_train's seed, the first side switching every round.  It prints
each side's median and quartiles of the training wall time, the rounds the
change won, and whether both sides trained equal weights and logs (every
EpochRecord field but the timings).  Pin BLAS to one thread in the
environment (OPENBLAS_NUM_THREADS=1) for timings comparable with perfbench.

Back-to-back benchmark processes of one unchanged tree can spread by more
than a training change moves them; alternating trainings in one process
keeps both sides in the same phase of the host.
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

TIMED = ("wall_s", "val_s")


def load_package(tree, name):
    """The grumpc package of the source tree, imported as name."""
    root = Path(tree).resolve() / "src" / "grumpc"
    if not (root / "__init__.py").is_file():
        raise SystemExit(f"error: no grumpc sources at {root}")
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return importlib.import_module(f"{name}.harness")


class Side:
    """One tree's package, its copy of the data and its trainings."""

    def __init__(self, label, harness, config, data_dir, epochs):
        self.label, self.harness = label, harness
        sysid = harness.sysid
        self.cfg = (harness.ExperimentConfig.load(config) if config
                    else harness.ExperimentConfig())
        self.cfg.train.epochs = epochs
        ts = sysid.load_timeseries_csv(data_dir / "dataset.csv")
        nmap = sysid.NormalizationMap.load(data_dir / "normalization.json")
        self.batch = sysid.make_sequences(sysid.normalize(ts, nmap),
                                          self.cfg.train.T_s, self.cfg.train.tau)
        self.seed = int(self.cfg.component_seed("train").integers(2**31))
        self.times, self.result = [], None

    def train(self):
        t0 = time.perf_counter()
        w, log = self.harness.sysid.train(self.batch, self.cfg.train, self.seed)
        self.times.append(time.perf_counter() - t0)
        self.result = (w, log)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def same_training(a, b, fields):
    (wa, la), (wb, lb) = a, b
    weights = all(np.array_equal(getattr(wa, f), getattr(wb, f)) for f in fields)

    def untimed(log):
        return [{k: v for k, v in vars(rec).items() if k not in TIMED} for rec in log]
    return weights, untimed(la) == untimed(lb)


def main(argv=None):
    ap = argparse.ArgumentParser(prog="tests/train_ab.py")
    ap.add_argument("parent_tree")
    ap.add_argument("change_tree")
    ap.add_argument("--config", help="experiment config JSON (desk defaults if omitted)")
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--epochs", type=int, default=1)
    args = ap.parse_args(argv)
    if args.rounds < 2 or args.epochs < 1:
        ap.error("--rounds must be at least 2 and --epochs at least 1")

    parent = load_package(args.parent_tree, "grumpc_ab_parent")
    change = load_package(args.change_tree, "grumpc_ab_change")
    with tempfile.TemporaryDirectory(prefix="train-ab-") as tmp:
        data_dir = Path(tmp)
        cfg = (parent.ExperimentConfig.load(args.config) if args.config
               else parent.ExperimentConfig())
        parent.cmd_generate_data(cfg, data_dir)
        sides = [Side("parent", parent, args.config, data_dir, args.epochs),
                 Side("change", change, args.config, data_dir, args.epochs)]
    for r in range(args.rounds):
        for side in sides if r % 2 == 0 else sides[::-1]:
            side.train()

    p, c = sides
    print(f"{len(p.batch)} sequences of {p.cfg.train.T_s} samples, batch "
          f"{p.cfg.train.batch_size}, n = {p.cfg.train.n_states}, "
          f"{args.epochs} epoch(s) per training, {args.rounds} rounds")
    for side in sides:
        q1, q2, q3 = quartiles(side.times)
        print(f"{side.label:<7} median {q2:.4f} s  quartiles [{q1:.4f}-{q3:.4f}] s")
    won = sum(tc < tp for tp, tc in zip(p.times, c.times))
    print(f"change faster in {won} of {args.rounds} rounds; median change/parent "
          f"{statistics.median(c.times) / statistics.median(p.times):.3f}")
    weights, logs = same_training(p.result, c.result, parent.gru_model.WEIGHT_FIELDS)
    print(f"weights equal: {'yes' if weights else 'no'}; "
          f"logs equal but timings: {'yes' if logs else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
