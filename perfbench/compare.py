"""Compare two sets of benchmark result files of one workload.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json ...

Reads the result.json files a run writes under .bench_out/, prints each
metric's median on both sides and their ratio, and refuses (exit 2) to
compare results whose environment records name different backends or
workloads.
"""

import argparse
import json
import statistics
import sys


def load(paths):
    docs = []
    for path in paths:
        with open(path) as fh:
            docs.append(json.load(fh))
    return docs


def main(argv=None):
    ap = argparse.ArgumentParser(prog="perfbench/compare.py")
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    backends = {d["env"]["backend"] for d in base + new}
    if len(backends) > 1:
        print(f"error: results mix backends {sorted(backends)}; not comparable",
              file=sys.stderr)
        return 2
    workloads = {(d["workload"], d["trace"]) for d in base + new}
    if len(workloads) > 1:
        print(f"error: results mix workloads {sorted(workloads)}", file=sys.stderr)
        return 2
    names = base[0]["result"]["metrics"]
    print(f"{'metric':<44} {'base':>12} {'new':>12} {'new/base':>9}")
    for name, m in names.items():
        b = statistics.median(d["result"]["metrics"][name]["value"] for d in base)
        n = statistics.median(d["result"]["metrics"][name]["value"] for d in new)
        ratio = f"{n / b:9.3f}" if b else "      n/a"
        print(f"{name:<44} {b:>12.6g} {n:>12.6g} {ratio}  {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
