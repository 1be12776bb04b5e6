#!/bin/sh
# Rebuilds the pinned model the closed-loop workloads run on, with the
# repository's own commands at the desk defaults (harness.ExperimentConfig(),
# N_p = 40) and root seed 1234.  Run from the repository root:
#
#     sh perfbench/fixture/regenerate.sh
#
# Takes about four minutes on one core (50 epochs of training).  The seed-1234
# model certifies with nu = -0.0129, validation FIT 92.8 %, and the
# synthesized observer reaches |A_delta| = 0.981 against 2.743 for the
# fallback gains.
set -e
export PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1
out=.bench_out/fixture-build
for cmd in generate-data train synth-observer validate; do
    python3 -m grumpc "$cmd" --seed 1234 --out "$out"
done
cp "$out/weights.json" "$out/normalization.json" "$out/gains.json" \
   "$out/observer_report.json" "$out/validation.json" perfbench/fixture/
