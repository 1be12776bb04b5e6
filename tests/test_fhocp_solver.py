"""The Gauss-Newton FHOCP solver against the gradient-descent reference.

reference_solve is the solver the controller used before Gauss-Newton:
Barzilai-Borwein steps with an Armijo backtracking safeguard on the
penalized objective, over the same penalty schedule, with the same clamp
restore, best-feasible rule and strict-interior exit.  The solve inputs are
recorded from closed loops of the benchmark's pinned model on the pH plant.
"""

from pathlib import Path

import numpy as np
import pytest

from grumpc import gru_model, harness, kernels, mpc, observer, plant_sim, sysid
from grumpc.observer import AugmentedState

FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixture"
GRAD_TOL = 1e-8


def reference_solve(w, ing, cfg, xa_hat, xi_true, warm_start=None):
    """Barzilai-Borwein/Armijo penalized single shooting.

    Returns (v, cost, feasible).
    """
    Nc, Np = cfg.N_c, cfg.N_p
    xa0 = xa_hat.stacked()
    y0 = ing.eq.y0
    args_model = (*w.arrays(), w.U_o, w.b_o)
    args_prob = (ing.K_lq, ing.eq.xa0, ing.Q, ing.R, ing.P_f, ing.P_f,
                 float(ing.omega), Nc, Np, int(cfg.N_f))
    ctol = mpc.CONSTRAINT_TOL
    best = {"cost": np.inf, "v": None}

    def forward(v, mu_box, mu_term):
        return kernels.fhocp_forward(v, xa0, xi_true, y0, *args_model, *args_prob,
                                     mu_box, mu_term)

    def value_grad(v, mu_box, mu_term):
        Jp, _, g, *_ = kernels.fhocp_forward_backward(
            v, xa0, xi_true, y0, *args_model, *args_prob, mu_box, mu_term)
        return Jp, g

    def consider(v):
        _, Jc, bviol, tviol = forward(v, 0.0, 0.0)
        if bviol <= ctol and tviol <= ctol * max(1.0, ing.omega) and Jc < best["cost"]:
            best.update(cost=Jc, v=v.copy())
        return bviol <= 0.0 and tviol <= 0.0

    v = (np.zeros(Nc * w.p) if warm_start is None
         else np.asarray(warm_start, dtype=np.float64).ravel().copy())
    consider(v)
    budget = mpc.MAX_ITERS // len(mpc.MU_SCHEDULE)
    for mu in mpc.MU_SCHEDULE:
        mu_box, mu_term = mu, mu / max(1.0, ing.omega) ** 2
        Jp, g = value_grad(v, mu_box, mu_term)
        alpha = 1.0 / max(np.linalg.norm(g), 1.0)
        g_prev = v_prev = None
        stall = 0
        for _ in range(budget):
            gn2 = float(g @ g)
            if np.sqrt(gn2) < GRAD_TOL:
                break
            if g_prev is not None:
                s, yv = v - v_prev, g - g_prev
                if float(s @ yv) > 1e-300:
                    alpha = float(s @ s) / float(s @ yv)
                alpha = min(max(alpha, 1e-12), 1e6)
            a = alpha
            for _ in range(40):
                v_try = v - a * g
                Jp_try = forward(v_try, mu_box, mu_term)[0]
                if Jp_try <= Jp - 1e-4 * a * gn2:
                    break
                a *= 0.5
            else:
                break
            stall = stall + 1 if Jp - Jp_try < 1e-12 * (1.0 + abs(Jp)) else 0
            v_prev, g_prev = v.copy(), g.copy()
            v = v_try
            Jp, g = value_grad(v, mu_box, mu_term)
            if stall >= 3:
                break
        strict = consider(v)
        v_clip, _, _ = kernels.fhocp_clip_restore(
            v, xa0, xi_true, y0, *args_model, ing.K_lq, ing.eq.xa0, Nc, Np)
        consider(v_clip)
        if strict:
            break
    return best["v"], best["cost"], best["v"] is not None


def recorded_solves(monkeypatch, refs_ph, disturbances=()):
    """The solve inputs of every tick of a pinned-model loop on the pH plant."""
    w = gru_model.load_weights(FIXTURE / "weights.json")
    nmap = sysid.NormalizationMap.load(FIXTURE / "normalization.json")
    cfg = harness.ExperimentConfig()
    plant = harness._PhPlant(cfg, plant_sim.default_params())
    sched = plant_sim.DisturbanceSchedule(list(disturbances))
    ctl = mpc.RecedingHorizonController(w, observer.load_gains(FIXTURE / "gains.json"),
                                        cfg.controller)
    ctl.reset(nmap.normalize_y([refs_ph[0]]))
    solves = []
    solve = mpc.fhocp_solve

    def record(w, ing, fcfg, est, xi, warm_start=None):
        solves.append((ing, fcfg, AugmentedState(est.x.copy(), est.xi.copy()),
                       np.copy(xi), None if warm_start is None else warm_start.copy()))
        return solve(w, ing, fcfg, est, xi, warm_start)
    monkeypatch.setattr(mpc, "fhocp_solve", record)
    for k, ref in enumerate(refs_ph):
        t = k * cfg.tau_s
        y = plant.measure() + sched.at(t, "output-additive")
        u, _ = ctl.step(nmap.normalize_y([y]), nmap.normalize_y([ref]))
        plant.advance(float(nmap.denormalize_u(u)[0]), t, sched)
    monkeypatch.setattr(mpc, "fhocp_solve", solve)
    return w, solves


def rollout(w, ing, cfg, est, v):
    """States 0..N_p and moves of a plan, rolled afresh."""
    step = kernels.augmented_step_matrices(kernels.stack_gates(*w.arrays()), w.U_o,
                                           w.b_o, ing.eq.y0, (ing.K_lq, ing.eq.xa0))
    XA, V, _ = kernels.augmented_rollout(step, est.stacked(), v.reshape(cfg.N_c, -1),
                                         cfg.N_p)
    return XA, V


def box_activity(w, ing, cfg, est, xi, v):
    """max |xi~ + v| over the prediction of a plan: 1 where the box binds."""
    XA, V = rollout(w, ing, cfg, est, v)
    return float(np.max(np.abs(XA[:cfg.N_p, w.n:] + (xi - est.xi) + V)))


def assert_matches_reference(w, solve_inputs):
    """Cost at most the reference's times 1 + 1e-9 and v[0] within 1e-6; the
    reported trajectory and terminal level are those of the returned plan."""
    ing, cfg, est, xi, warm = solve_inputs
    sol = mpc.fhocp_solve(w, ing, cfg, est, xi, warm_start=warm)
    v_ref, cost_ref, feasible_ref = reference_solve(w, ing, cfg, est, xi, warm)
    assert feasible_ref
    assert sol.cost <= cost_ref * (1.0 + 1e-9)
    assert np.max(np.abs(sol.v[0] - v_ref.reshape(cfg.N_c, -1)[0])) <= 1e-6
    XA, _ = rollout(w, ing, cfg, est, sol.v)
    np.testing.assert_array_equal(sol.trajectory, XA)
    eN = XA[cfg.N_p] - ing.eq.xa0
    assert sol.terminal_level == eN @ ing.P_f @ eN / ing.omega
    return sol


def plain_cost(w, ing, cfg, est, xi, v):
    """(cost, box excess, terminal excess) of a plan, without penalties."""
    _, J, bviol, tviol = kernels.fhocp_forward(
        np.ravel(v), est.stacked(), xi, ing.eq.y0, *w.arrays(), w.U_o, w.b_o,
        ing.K_lq, ing.eq.xa0, ing.Q, ing.R, ing.P_f, ing.P_f, float(ing.omega),
        cfg.N_c, cfg.N_p, int(cfg.N_f), 0.0, 0.0, consts=ing.consts)
    return J, bviol, tviol


def regulate_ticks(monkeypatch):
    # pH 7.0 hold; +0.4 mL/s on the base flow during ticks 6-8, as in the
    # benchmark's regulate windows; the controller sees it from tick 7 on
    tau = harness.ExperimentConfig().tau_s
    w, solves = recorded_solves(monkeypatch, np.full(12, 7.0),
                                [(6 * tau, 9 * tau, "input-additive", 0.4)])
    return w, solves[7:12]


def track_ticks(monkeypatch):
    # +0.2 pH at tick 1 through the desk reference filter: every tick of the
    # ramp builds new ingredients and starts from a shifted plan
    window = harness.ExperimentConfig().controller.ref_filter_window
    raw = np.r_[7.0, np.full(5, 7.2)]
    w, solves = recorded_solves(monkeypatch, mpc.reference_filter(raw, window))
    return w, solves[1:6]


# the reference contract holds for the converged solver: V0_TOL = 0 turns
# the move exit off (the loops are recorded with it off as well)

def test_regulate_ticks_in_an_input_additive_window(monkeypatch):
    monkeypatch.setattr(mpc, "V0_TOL", 0.0)
    w, ticks = regulate_ticks(monkeypatch)
    sols = [assert_matches_reference(w, s) for s in ticks]
    # Gauss-Newton converges in a few undamped steps here
    assert all(1 <= s.iterations <= 5 and s.rejections == 0 for s in sols)


def test_track_ticks_after_a_setpoint_step(monkeypatch):
    monkeypatch.setattr(mpc, "V0_TOL", 0.0)
    w, ticks = track_ticks(monkeypatch)
    for s in ticks:
        assert_matches_reference(w, s)


@pytest.mark.parametrize("ticks", [regulate_ticks, track_ticks],
                         ids=["regulate", "track"])
def test_the_move_exit_applies_a_feasible_plan_near_the_converged_one(
        monkeypatch, ticks):
    # at the default V0_TOL a strictly feasible round may stop before its
    # cost converges: v(0) stays within 2 V0_TOL of the converged solve's,
    # the plan is strictly feasible, and it costs no more than the warm
    # start (feasible on every one of these ticks)
    w, ticks = ticks(monkeypatch)
    stops = []
    for ing, cfg, est, xi, warm in ticks:
        sol = mpc.fhocp_solve(w, ing, cfg, est, xi, warm_start=warm)
        with monkeypatch.context() as m:
            m.setattr(mpc, "V0_TOL", 0.0)
            converged = mpc.fhocp_solve(w, ing, cfg, est, xi, warm_start=warm)
        assert np.max(np.abs(sol.v[0] - converged.v[0])) <= 2 * mpc.V0_TOL
        cost, bviol, tviol = plain_cost(w, ing, cfg, est, xi, sol.v)
        assert bviol <= 0.0 and tviol <= 0.0 and cost == sol.cost
        warm_cost, warm_bviol, warm_tviol = plain_cost(w, ing, cfg, est, xi, warm)
        assert warm_bviol <= 0.0 and warm_tviol <= 0.0
        assert sol.cost <= warm_cost
        assert sol.evals <= converged.evals
        stops.append(sol.stop)
    assert "move" in stops


def test_box_active_tick_after_an_unfiltered_step_to_ph_7_4(monkeypatch):
    # the first tick after an unfiltered step from pH 7.0 to 7.4: the plan
    # saturates the input, so the box penalty is active at the returned plan;
    # the reference stops at its iteration cap at a higher cost
    w, solves = recorded_solves(monkeypatch, [7.0, 7.4])
    ing, cfg, est, xi, warm = solves[1]
    sol = assert_matches_reference(w, solves[1])
    # no iterate is strictly interior, so the move exit cannot end a round
    assert sol.stop != "move"
    assert box_activity(w, ing, cfg, est, xi, sol.v) == pytest.approx(1.0, abs=1e-9)
    assert sol.rejections > 0
    assert sol.max_violation == 0.0                   # the clamp is exact
    # a tolerance that admits the last iterate's small box excess makes that
    # iterate, not its clamp, the best plan; the trajectory and the
    # violation reported are still its own (the clamp that follows violates
    # nothing and must not overwrite it)
    monkeypatch.setattr(mpc, "CONSTRAINT_TOL", 1e-4)
    sol = mpc.fhocp_solve(w, ing, cfg, est, xi, warm_start=warm)
    assert sol.stop != "move"
    excess = box_activity(w, ing, cfg, est, xi, sol.v) - 1.0
    assert 0.0 < excess <= 1e-4
    assert sol.max_violation == excess
    np.testing.assert_array_equal(sol.trajectory, rollout(w, ing, cfg, est, sol.v)[0])


def test_interior_solve_rolls_each_plan_once(monkeypatch):
    # a regulate tick that ends strictly inside the box and the terminal set:
    # every rollout is an objective evaluation, none is a clamp or a re-roll
    # of the returned plan for its trajectory
    w, solves = recorded_solves(monkeypatch, np.full(4, 7.0))
    ing, cfg, est, xi, warm = solves[3]
    steps = []                  # the length of every rollout made
    rollout_kernel = kernels.augmented_rollout

    def counted(*args, **kwargs):
        steps.append(args[-1])
        return rollout_kernel(*args, **kwargs)
    monkeypatch.setattr(kernels, "augmented_rollout", counted)
    sol = mpc.fhocp_solve(w, ing, cfg, est, xi, warm_start=warm)
    monkeypatch.setattr(kernels, "augmented_rollout", rollout_kernel)
    assert box_activity(w, ing, cfg, est, xi, sol.v) < 1.0
    assert 0.0 < sol.terminal_level < 1.0
    assert sol.evals >= 2 and steps == [cfg.N_p + cfg.N_f] * sol.evals
    XA, _ = rollout(w, ing, cfg, est, sol.v)
    np.testing.assert_array_equal(sol.trajectory, XA)


def test_a_solve_repeats_no_set_up(monkeypatch):
    # the packed cell and step, the factors of Q, R and P_f and the
    # integrator rows of the tangent come with the ingredients, and the
    # rollout steps the fused cell: a regulate solve stacks no gates, packs
    # no step matrix, builds no identity block, factors no weight and makes
    # no kernels.cell call, and its calls repeat exactly
    w, solves = recorded_solves(monkeypatch, np.full(4, 7.0))
    ing, cfg, est, xi, warm = solves[3]
    calls = {}
    for owner, name in ((kernels, "stack_gates"), (kernels, "augmented_step_matrices"),
                        (kernels, "_root"), (kernels, "cell"),
                        (kernels, "augmented_rollout"), (np, "eye")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    counts = []
    for _ in range(2):
        calls.clear()
        sol = mpc.fhocp_solve(w, ing, cfg, est, xi, warm_start=warm)
        counts.append(dict(calls))
    assert counts[0] == counts[1] == {"augmented_rollout": sol.evals}


def test_a_plan_at_the_equilibrium_ends_without_a_linear_solve(monkeypatch):
    # the first regulate tick starts at the equilibrium of its setpoint with
    # the zero plan, whose cost is at rounding level: no Gauss-Newton step
    # can predict a larger decrease, so the solve makes its one evaluation
    # and no damped linear solve
    window = harness.ExperimentConfig().controller.ref_filter_window
    raw = np.r_[7.0, np.full(2, 7.2)]
    w, solves = recorded_solves(monkeypatch, mpc.reference_filter(raw, window))
    ing, cfg, est, xi, warm = solves[0]
    assert warm is None
    solved = []
    lin = mpc._solve
    monkeypatch.setattr(mpc, "_solve", lambda A, b: solved.append(1) or lin(A, b))
    sol = mpc.fhocp_solve(w, ing, cfg, est, xi)
    assert sol.cost <= mpc.LM_STOP
    assert solved == [] and sol.evals == 1 and sol.iterations == 0
    np.testing.assert_array_equal(sol.v, 0.0)
    # a tick of the ramp to pH 7.2 starts away from its equilibrium: it solves
    ing, cfg, est, xi, warm = solves[1]
    sol = mpc.fhocp_solve(w, ing, cfg, est, xi, warm_start=warm)
    assert sol.iterations >= 1 and len(solved) > sol.iterations


def test_a_solution_keeps_its_plan_and_trajectory_through_later_solves(monkeypatch):
    # the kernels evaluate in workspaces that every later evaluation writes:
    # a returned plan and trajectory, of a clamped solve after an unfiltered
    # step to pH 7.4 and of regulate ticks, stay as they were returned and
    # equal a fresh rollout of the plan
    w, solves = recorded_solves(monkeypatch, [7.0, 7.4, 7.4, 7.4])
    clamps = []
    clip = kernels.fhocp_clip_restore
    monkeypatch.setattr(kernels, "fhocp_clip_restore",
                        lambda *a, **k: clamps.append(1) or clip(*a, **k))
    sols = [mpc.fhocp_solve(w, ing, cfg, est, xi, warm_start=warm)
            for ing, cfg, est, xi, warm in solves]
    assert clamps
    kept = [(sol.v.copy(), sol.trajectory.copy()) for sol in sols]
    for ing, cfg, est, xi, warm in solves[::-1]:
        mpc.fhocp_solve(w, ing, cfg, est, xi, warm_start=warm)
    for sol, (v, XA), (ing, cfg, est, xi, _) in zip(sols, kept, solves):
        np.testing.assert_array_equal(sol.v, v)
        np.testing.assert_array_equal(sol.trajectory, XA)
        np.testing.assert_array_equal(XA, rollout(w, ing, cfg, est, sol.v)[0])
