"""Single-kernel timings on inputs built from the pinned model.

The four cases of benchmarks/bench_kernels.py, with their inputs taken at
a reachable equilibrium of the pinned model (pH 7.0) and the controller's
own horizons, timed on whichever backend kernels.NUMBA_ENABLED reports.
"""

import statistics
import time

import numpy as np

from grumpc import kernels, mpc, plant_sim

import workloads

REPS = 5


def build_cases():
    w, _, nmap = workloads.load_pinned()
    ctl = workloads.experiment_config(0).controller
    rng = np.random.default_rng(42)
    n, na = w.n, w.n + w.p
    eq = mpc.find_equilibrium(w, nmap.normalize_y([workloads.SETPOINT_PH]))
    lin = mpc.linearize_augmented(w, eq)
    K, _ = mpc.lq_gain(lin, np.eye(na), np.eye(w.p))
    Qlq = np.eye(na) + K.T @ K
    Pi = mpc.lyapunov_Pi(lin, K, ctl.q_tilde_weight * np.eye(na))
    useq = np.clip(eq.u0 + rng.uniform(-0.3, 0.3, (2000, 1)), -1.0, 1.0)
    Ub = np.clip(eq.u0 + rng.uniform(-0.3, 0.3, (2, 200, 1)), -1.0, 1.0)
    Yb = rng.uniform(-0.5, 0.5, (2, 200, 1))
    X0b = rng.uniform(-1.0, 1.0, (2, n))
    vplan = rng.uniform(-0.05, 0.05, ctl.N_c)
    p = plant_sim.default_params()
    s0, q3 = plant_sim.nominal_point(p)
    useq_ph = np.full(500, q3)
    dseq_ph = np.full(500, p.q2)
    model = (*w.arrays(), w.U_o, w.b_o)
    return {
        "gru_rollout": lambda: kernels.gru_rollout(eq.x0, useq, *w.arrays()),
        "tbptt_loss_grad_batch": lambda: kernels.tbptt_loss_grad_batch(
            Ub, Yb, X0b, 50, *model),
        "ph_run": lambda: kernels.ph_run(
            s0.x1, s0.x2, s0.x3, useq_ph, dseq_ph, 10.0, 10,
            *p.rhs_args(), p.pK1, p.pK2),
        "fhocp_forward_backward": lambda: kernels.fhocp_forward_backward(
            vplan, eq.xa0, eq.u0, eq.y0, *model, np.ascontiguousarray(K),
            eq.xa0, np.eye(na), np.eye(w.p), Qlq, Pi, 1.0,
            ctl.N_c, ctl.N_p, ctl.N_f, 1e3, 1e3),
    }


def kernel_case_metrics():
    out = {}
    for name, fn in build_cases().items():
        fn()                                   # warm-up (compiles under numba)
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1e3)
        out[f"kernels.case.{name}.ms"] = {"value": statistics.median(times),
                                          "unit": "ms"}
    return out
