"""Per-layer instrumentation and metrics of the traced runs.

instrument() wraps the public functions of every layer on the module or
class through which the program calls them, so nothing under src/ changes.
Kernel-level counts (GRU cell evaluations, floating-point operations and
bytes) are computed from the argument shapes, not measured, so they read
the same under the NumPy and the numba backend.
"""

import statistics
import time
import types

from grumpc import gru_model, harness, kernels, mpc, observer, plant_sim, sysid

import spans

IO_FUNCTIONS = (
    (gru_model, "load_weights"), (gru_model, "save_weights"),
    (observer, "load_gains"), (observer, "save_gains"),
    (sysid, "load_timeseries_csv"), (sysid, "save_timeseries_csv"),
    (sysid, "save_training_log"), (plant_sim, "save_params"),
    (sysid.NormalizationMap, "load"), (sysid.NormalizationMap, "save"),
)
FHOCP_KERNELS = ("kernels.fhocp_forward", "kernels.fhocp_forward_backward",
                 "kernels.fhocp_clip_restore", "kernels.augmented_rollout_cached")


def _cells(fwd):
    def count(c, args, result):
        c["cells_fwd"] += fwd(args)
    return count


def _fhocp_forward(c, args, result):
    # args end with (..., Nc, Np, Nf, mu_box, mu_term); the line search is
    # the only caller that evaluates with a nonzero penalty weight
    c["cells_fwd"] += args[-4] + args[-3]
    c["line_search"] += args[-2] > 0.0


def _fhocp_forward_backward(c, args, result):
    c["cells_fwd"] += args[-4] + args[-3]
    c["cells_bwd"] += args[-4] + args[-3]


def _terminal_check(c, args, result):
    c["terminal_samples"] += args[0].shape[0]
    c["cells_fwd"] += args[0].shape[0]


def _tbptt(c, args, result):
    steps = args[0].shape[0] * args[0].shape[1]
    c["cells_fwd"] += steps
    c["cells_bwd"] += steps


def _solve(c, args, result):
    c["solve_iterations"] += result.iterations


def instrument(tracer: spans.Tracer):
    wrap = tracer.wrap
    wrap(mpc.RecedingHorizonController, "step", "tick")
    for name in ("cmd_generate_data", "cmd_train", "cmd_synth_observer",
                 "cmd_validate"):
        wrap(harness, name, f"harness.{name}")
    for name in ("fhocp_solve", "build_ingredients", "find_equilibrium",
                 "lq_gain", "lyapunov_Pi", "terminal_set_radius"):
        wrap(mpc, name, f"mpc.{name}",
             count=_solve if name == "fhocp_solve" else None)
    wrap(mpc.RecedingHorizonController, "ingredients_for", "mpc.ingredients_for")
    wrap(mpc, "observer_step", "observer.observer_step",
         count=_cells(lambda a: 1))
    wrap(kernels, "fhocp_forward", "kernels.fhocp_forward", count=_fhocp_forward)
    wrap(kernels, "fhocp_forward_backward", "kernels.fhocp_forward_backward",
         count=_fhocp_forward_backward)
    wrap(kernels, "fhocp_clip_restore", "kernels.fhocp_clip_restore",
         count=_cells(lambda a: a[-1]))
    wrap(kernels, "augmented_rollout_cached", "kernels.augmented_rollout_cached",
         count=_cells(lambda a: a[1].shape[0]))
    wrap(kernels, "terminal_samples_check", "kernels.terminal_samples_check",
         count=_terminal_check)
    wrap(kernels, "tbptt_loss_grad_batch", "kernels.tbptt_loss_grad_batch",
         count=_tbptt)
    wrap(kernels, "gru_rollout", "kernels.gru_rollout",
         count=_cells(lambda a: a[1].shape[0]))
    wrap(kernels, "ph_run", "kernels.ph_run")
    for name in ("synthesize_gains", "build_A_delta", "certify_gains"):
        wrap(observer, name, f"observer.{name}")
    for name in ("train", "loss_gradient", "penalty_subgradient"):
        wrap(sysid, name, f"sysid.{name}")
    wrap(gru_model, "simulate", "gru_model.simulate")
    for name in ("integrate_step", "output_solve", "run_experiment",
                 "calibrate_params"):
        wrap(plant_sim, name, f"plant_sim.{name}")
    for owner, name in IO_FUNCTIONS:
        wrap(owner, name, "harness.io")


def span_cost_s(calls=20000):
    """Time a traced call adds over a plain one."""
    ns = types.SimpleNamespace(f=lambda: None)
    t0 = time.perf_counter()
    for _ in range(calls):
        ns.f()
    plain = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.wrap(ns, "f", "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        ns.f()
    traced = time.perf_counter() - t0
    return max(traced - plain, 0.0) / calls


def per_layer_metrics(tracer: spans.Tracer, n_states, n_inputs, measured_s):
    """The per_layer metrics of BENCHMARK.json, over the whole traced run."""
    s = tracer.summary()
    c = tracer.counts

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    solves = get("mpc.fhocp_solve", "calls")
    fwd, fb = (get("kernels.fhocp_forward", "calls"),
               get("kernels.fhocp_forward_backward", "calls"))
    put("mpc.fhocp_solve.ms", get("mpc.fhocp_solve", "ms"), "ms")
    put("mpc.fhocp_solve.self_ms", get("mpc.fhocp_solve", "self_ms"), "ms")
    put("mpc.fhocp_solve.iters_per_solve", ratio(c["solve_iterations"], solves), "count")
    put("mpc.fhocp_solve.evals_per_solve", ratio(fwd + fb, solves), "count")
    put("mpc.fhocp_solve.accept_ratio",
        ratio(c["solve_iterations"], c["line_search"]), "ratio")
    for name in ("kernels.fhocp_forward", "kernels.fhocp_forward_backward"):
        put(f"{name}.calls", get(name, "calls"), "count")
        put(f"{name}.ms", get(name, "ms"), "ms")

    tick_ms = get("tick", "ms")
    put("kernels.fhocp.tick_pct",
        100.0 * ratio(tracer.within(FHOCP_KERNELS, "tick")[1], tick_ms), "%")
    lookups = tracer.within(("mpc.ingredients_for",), "tick")[0]
    builds, build_tick_ms = tracer.within(("mpc.build_ingredients",), "tick")
    put("mpc.ingredients.lookups", lookups, "count")
    put("mpc.ingredients.builds", builds, "count")
    put("mpc.ingredients.hit_ratio", ratio(lookups - builds, lookups), "ratio")
    put("mpc.build_ingredients.ms", get("mpc.build_ingredients", "ms"), "ms")
    build_ms = tracer.durations_ms("mpc.build_ingredients")
    put("mpc.build_ingredients.p50_ms",
        statistics.median(build_ms) if build_ms else 0.0, "ms")
    put("mpc.build_ingredients.tick_pct", 100.0 * ratio(build_tick_ms, tick_ms), "%")
    put("mpc.terminal_set_radius.ms", get("mpc.terminal_set_radius", "ms"), "ms")
    put("mpc.terminal_set_radius.trials_per_build",
        ratio(get("kernels.terminal_samples_check", "calls"),
              get("mpc.terminal_set_radius", "calls")), "count")
    put("kernels.terminal_samples_check.calls",
        get("kernels.terminal_samples_check", "calls"), "count")
    put("kernels.terminal_samples_check.ms",
        get("kernels.terminal_samples_check", "ms"), "ms")
    put("kernels.terminal_samples_check.samples", c["terminal_samples"], "count")
    for name in ("find_equilibrium", "lq_gain", "lyapunov_Pi"):
        put(f"mpc.{name}.ms", get(f"mpc.{name}", "ms"), "ms")

    put("kernels.tbptt_loss_grad_batch.calls",
        get("kernels.tbptt_loss_grad_batch", "calls"), "count")
    put("kernels.tbptt_loss_grad_batch.ms",
        get("kernels.tbptt_loss_grad_batch", "ms"), "ms")
    put("kernels.tbptt_loss_grad_batch.train_pct", 100.0 * ratio(
        tracer.within(("kernels.tbptt_loss_grad_batch",), "sysid.train")[1],
        get("sysid.train", "ms")), "%")
    put("sysid.loss_gradient.ms", get("sysid.loss_gradient", "ms"), "ms")
    put("sysid.penalty_subgradient.ms", get("sysid.penalty_subgradient", "ms"), "ms")
    put("sysid.train.self_ms", get("sysid.train", "self_ms"), "ms")
    put("gru_model.simulate.ms", get("gru_model.simulate", "ms"), "ms")

    put("observer.synthesize_gains.ms", get("observer.synthesize_gains", "ms"), "ms")
    put("observer.synthesize_gains.evals", tracer.within(
        ("observer.build_A_delta",), "observer.synthesize_gains")[0], "count")
    put("observer.observer_step.ms", get("observer.observer_step", "ms"), "ms")

    for name in ("integrate_step", "output_solve", "run_experiment",
                 "calibrate_params"):
        put(f"plant_sim.{name}.ms", get(f"plant_sim.{name}", "ms"), "ms")
    put("kernels.ph_run.ms", get("kernels.ph_run", "ms"), "ms")

    # computed from shapes: per cell, three gates of (n x n) and (n x m)
    # matrix-vector products plus elementwise work; the reverse pass costs
    # about twice the forward pass; every cell streams the recurrent weights
    n, m = n_states, n_inputs
    cell_flops = 6 * n * (n + m) + 12 * n
    cell_bytes = 8 * (3 * (n * n + n * m + n) + 2 * n)
    cells = c["cells_fwd"] + c["cells_bwd"]
    put("kernels.gru_cells", cells, "count")
    put("kernels.gru_cells_per_s", ratio(cells, measured_s), "1/s")
    put("kernels.flops_computed",
        c["cells_fwd"] * cell_flops + c["cells_bwd"] * 2 * cell_flops, "flop")
    put("kernels.bytes_computed", cells * cell_bytes, "B")

    put("harness.io_ms", get("harness.io", "ms"), "ms")
    run_ms = get("run", "ms")
    overhead_ms = len(tracer.spans) * span_cost_s() * 1e3
    put("trace.overhead_pct", 100.0 * ratio(overhead_ms, run_ms - overhead_ms), "%")
    return out
