"""The shooting and training kernels against slow references.

The references are written step by step on top of observer.augmented_step
and the auxiliary law v = -K (xa - xa_eq), with the costs summed explicitly
and the terminal cost e'P_f e charged at the last state, so that a kernel
and its reference share no code beyond the GRU cell.  The training
references loop kernels.cell forward and a test-local cell_vjp backward;
the gradient kernel must also equal, bit for bit, the former reverse pass
of ten calls a step, kept here as ten_call_tbptt_grad.  Likewise the FHOCP
evaluation in its workspaces must equal, bit for bit, the former one that
made every array afresh (fresh_rollout, fresh_tangent, fresh_evaluation).
"""

import dataclasses
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from grumpc import gru_model, harness, kernels, mpc, observer, plant_sim, sysid
from grumpc.observer import AugmentedState

from conftest import scaled_certified_weights

N_C, N_P, N_F = 6, 15, 30
CFG = mpc.ControllerConfig(terminal_samples=768)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(401)
    w = scaled_certified_weights(rng, n=5, target=-0.1)
    y_lo = gru_model.gru_output(w, mpc.steady_state(w, [-1.0]))[0]
    y_hi = gru_model.gru_output(w, mpc.steady_state(w, [1.0]))[0]
    ing = mpc.build_ingredients(w, [0.5 * (y_lo + y_hi)], CFG)
    return w, ing


def offset(ing, rng, level):
    """Deviation from the equilibrium with e'P_f e = level * omega."""
    e = rng.normal(size=ing.eq.xa0.size)
    return e * np.sqrt(level * ing.omega / (e @ ing.P_f @ e))


def problem_args(w, ing):
    return ((*w.arrays(), w.U_o, w.b_o),
            (np.ascontiguousarray(ing.K_lq), ing.eq.xa0,
             np.ascontiguousarray(ing.Q), np.ascontiguousarray(ing.R),
             np.ascontiguousarray(ing.P_f), np.ascontiguousarray(ing.P_f),
             float(ing.omega)))


def forward(w, ing, vflat, xa0, xi0, mu_box, mu_term, Nf=N_F, omega=None):
    model, prob = problem_args(w, ing)
    if omega is not None:
        prob = prob[:-1] + (omega,)
    return kernels.fhocp_forward(vflat, xa0, xi0, ing.eq.y0, *model, *prob,
                                 N_C, N_P, Nf, mu_box, mu_term)


def forward_backward(w, ing, vflat, xa0, xi0, mu_box, mu_term, Nf=N_F, omega=None):
    model, prob = problem_args(w, ing)
    if omega is not None:
        prob = prob[:-1] + (omega,)
    return kernels.fhocp_forward_backward(vflat, xa0, xi0, ing.eq.y0, *model,
                                          *prob, N_C, N_P, Nf, mu_box, mu_term)


def reference_fhocp(w, ing, vflat, xa0, xi0, mu_box, mu_term, Nf=N_F, omega=None,
                    Nc=N_C, Np=N_P):
    """Step-by-step rollout over N_p + N_f steps with explicit cost sums and
    the terminal cost e'P_f e at the last state.

    Returns (states, moves, J_pen, J, box_viol, term_viol).
    """
    n = w.n
    omega = ing.omega if omega is None else omega
    V = vflat.reshape(Nc, w.p)
    s = AugmentedState(xa0[:n].copy(), xa0[n:].copy())
    xit = xi0.copy()
    states, moves = [s.stacked()], []
    J = pen = box_viol = 0.0
    for i in range(Np + Nf):
        e = s.stacked() - ing.eq.xa0
        if i < Nc:
            v = V[i]
            J += e @ ing.Q @ e + v @ ing.R @ v
        else:
            v = -(ing.K_lq @ e)
            J += e @ ing.Q_lq @ e
        if i < Np:
            excess = np.abs(xit + v) - 1.0
            box_viol = max(box_viol, np.max(excess))
            pen += mu_box * np.sum(np.maximum(excess, 0.0) ** 2)
        y = gru_model.gru_output(w, s.x)
        s, _ = observer.augmented_step(w, s, v, ing.eq.y0)
        xit = xit + ing.eq.y0 - y
        states.append(s.stacked())
        moves.append(v)
    eT = s.stacked() - ing.eq.xa0
    J += eT @ ing.P_f @ eT
    eN = states[Np] - ing.eq.xa0
    term_viol = max(eN @ ing.P_f @ eN - omega, 0.0)
    pen += mu_term * term_viol ** 2
    return np.array(states), np.array(moves), J + pen, J, box_viol, term_viol


def test_fhocp_forward_matches_stepwise_reference(setup):
    w, ing = setup
    rng = np.random.default_rng(403)
    # inactive penalties, then both penalties active (large moves, a tight
    # terminal radius); the terminal cost at state N_p, then N_F law steps on
    for Nf in (0, N_F):
        for level, scale, mu, omega in ((0.3, 0.02, 0.0, None),
                                        (3.0, 1.5, 50.0, 1e-4)):
            xa0 = ing.eq.xa0 + offset(ing, rng, level)
            xi0 = xa0[w.n:] + rng.normal(0.0, 0.05, w.p)
            vflat = rng.normal(0.0, scale, N_C * w.p)
            ref = reference_fhocp(w, ing, vflat, xa0, xi0, mu, 2 * mu, Nf=Nf,
                                  omega=omega)
            got = forward(w, ing, vflat, xa0, xi0, mu, 2 * mu, Nf=Nf, omega=omega)
            assert len(got) == 4
            # the penalized cost reaches 5e3 with the terminal set on P_f, so
            # the sums' rounding also gets a relative allowance
            np.testing.assert_allclose(got, ref[2:], rtol=1e-14, atol=1e-12)
            if mu:
                assert ref[4] > 0 and ref[5] > 0      # both penalties active


def test_fhocp_forward_takes_a_semidefinite_state_weight(setup):
    # Q weighting only the integrator has no Cholesky factor; the residuals
    # take a symmetric square root instead and still sum to the stepwise cost
    w, ing = setup
    Q = np.diag(np.r_[np.zeros(w.n), 1.0])
    ing = dataclasses.replace(ing, Q=Q, Q_lq=Q + ing.K_lq.T @ ing.R @ ing.K_lq)
    rng = np.random.default_rng(407)
    xa0 = ing.eq.xa0 + offset(ing, rng, 0.5)
    vflat = rng.normal(0.0, 0.05, N_C * w.p)
    for Nf in (0, N_F):
        ref = reference_fhocp(w, ing, vflat, xa0, xa0[w.n:], 0.0, 0.0, Nf=Nf)
        got = forward(w, ing, vflat, xa0, xa0[w.n:], 0.0, 0.0, Nf=Nf)
        np.testing.assert_allclose(got, ref[2:], rtol=0, atol=1e-12)


def reference_gradient(w, ing, states, moves, xi0, mu_box, mu_term, omega, Nc, Np):
    """Reverse pass over a reference rollout, step by step, built on
    reference_jacobians instead of the kernels' cell Jacobians."""
    n, p = w.n, w.p
    xi_off = xi0 - states[0, n:]
    E = states - ing.eq.xa0
    s = E[Np] @ ing.P_f @ E[Np] - omega
    g_term = 4.0 * mu_term * s * (ing.P_f @ E[Np]) if s > 0 else np.zeros(n + p)
    lam = 2.0 * ing.P_f @ E[-1]                 # the terminal cost
    if len(moves) == Np:
        lam = lam + g_term
    grad = np.empty((Nc, p))
    for i in range(len(moves) - 1, -1, -1):
        e, v = E[i], moves[i]
        gx = 2.0 * (ing.Q if i < Nc else ing.Q_lq) @ e
        gv = 2.0 * ing.R @ v if i < Nc else np.zeros(p)
        if i < Np:
            wbox = states[i, n:] + xi_off + v
            over = 2.0 * mu_box * (wbox - np.clip(wbox, -1.0, 1.0))
            gx[n:] += over
            gv = gv + over
        if i == Np:
            gx += g_term
        Jx, Ju = reference_jacobians(w, states[i, :n], v + states[i, n:])
        gv = gv + Ju.T @ lam[:n]
        gx[:n] += Jx.T @ lam[:n] - w.U_o.T @ lam[n:]
        gx[n:] += Ju.T @ lam[:n] + lam[n:]
        if i < Nc:
            grad[i] = gv
        else:
            gx -= ing.K_lq.T @ gv
        lam = gx
    return grad.ravel()


FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixture"


@pytest.fixture(scope="module")
def pinned():
    """The benchmark's pinned model at pH 7.0 with the desk controller."""
    w = gru_model.load_weights(FIXTURE / "weights.json")
    nmap = sysid.NormalizationMap.load(FIXTURE / "normalization.json")
    cfg = harness.ExperimentConfig().controller
    ctl = mpc.RecedingHorizonController(w, observer.load_gains(FIXTURE / "gains.json"),
                                        cfg)
    return w, ctl.ingredients_for(nmap.normalize_y([7.0])), cfg


def test_terminal_cost_matches_stepwise_reference_on_pinned_model(pinned):
    # the desk controller charges e'P_f e at state N_p (N_f = 0); value and
    # gradient equal the step-by-step reference to 1e-12 relative, with the
    # penalties inactive and active
    w, ing, cfg = pinned
    Nc, Np, Nf = cfg.N_c, cfg.N_p, cfg.N_f
    assert Nf == 0
    model, prob = problem_args(w, ing)
    rng = np.random.default_rng(437)
    cases = [(0.3, 0.02, 0.0, ing.omega), (0.8, 0.1, 0.0, ing.omega),
             (1.0, 1.5, 50.0, 1e-3), (2.0, 2.0, 1e3, 1e-4)]
    for level, scale, mu, omega in cases:
        xa0 = ing.eq.xa0 + offset(ing, rng, level)
        xi0 = xa0[w.n:] + rng.normal(0.0, 0.05, w.p)
        vflat = rng.normal(0.0, scale, Nc * w.p)
        args = (vflat, xa0, xi0, ing.eq.y0, *model, *prob[:-1], omega,
                Nc, Np, Nf, mu, 2 * mu)
        states, moves, *ref = reference_fhocp(w, ing, vflat, xa0, xi0, mu, 2 * mu,
                                              Nf=Nf, omega=omega, Nc=Nc, Np=Np)
        assert len(states) == Np + 1
        if mu:
            assert ref[2] > 0 and ref[3] > 0      # both penalties active
        else:
            assert ref[2] <= 0 and ref[3] <= 0
        ref_grad = reference_gradient(w, ing, states, moves, xi0, mu, 2 * mu,
                                      omega, Nc, Np)
        got = kernels.fhocp_forward(*args)
        Jp, J, grad, bviol, tviol, _, XA = kernels.fhocp_forward_backward(*args)
        np.testing.assert_allclose(XA, states, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[:2], ref[:2], rtol=1e-12, atol=0)
        np.testing.assert_allclose((Jp, J), ref[:2], rtol=1e-12, atol=0)
        assert (got[2], got[3]) == (bviol, tviol)
        np.testing.assert_allclose((bviol, tviol), ref[2:], rtol=1e-12, atol=1e-15)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


def test_augmented_rollout_matches_stepwise_reference(setup):
    w, ing = setup
    rng = np.random.default_rng(409)
    xa0 = ing.eq.xa0 + offset(ing, rng, 0.5)
    vflat = rng.normal(0.0, 0.1, N_C * w.p)
    states, moves, *_ = reference_fhocp(w, ing, vflat, xa0, xa0[w.n:], 0.0, 0.0)
    XA, _, _, _ = kernels.augmented_rollout_cached(
        xa0, moves[:N_P], ing.eq.y0, *w.arrays(), w.U_o, w.b_o)
    np.testing.assert_allclose(XA, states[:N_P + 1], rtol=0, atol=1e-12)
    v_out, XA, tail_viol = kernels.fhocp_clip_restore(
        vflat, xa0, xa0[w.n:], ing.eq.y0, *w.arrays(), w.U_o, w.b_o,
        np.ascontiguousarray(ing.K_lq), ing.eq.xa0, N_C, N_P)
    np.testing.assert_array_equal(v_out, vflat)      # inside the box: no clamp
    np.testing.assert_allclose(XA, states[:N_P + 1], rtol=0, atol=1e-12)
    assert tail_viol == 0.0


def reference_rollout(step, xa0, V, T, box_offset=None):
    """augmented_rollout as a loop of kernels.cell calls on states kept as
    rows [x xi] (the kernels' former rollout), with every intermediate a
    fresh array: the law's move v = K (xa_eq - xa) and xi+ = xi + y0 -
    (Uo x + bo) are formed as written from the step's source arrays; its
    packed Mxi and Ka are not used."""
    cellp, Uo, bo, y0, (K, xa_eq) = step.cell, step.Uo, step.bo, step.y0, step.law
    n = Uo.shape[1]
    XA = np.empty((T + 1,) + xa0.shape)
    XA[0] = xa0
    moves = np.empty((T,) + xa0.shape[:-1] + bo.shape)
    U = np.empty_like(moves)
    Z, F, R = (np.empty((T,) + xa0.shape[:-1] + (n,)) for _ in range(3))
    for i in range(T):
        x, xi = XA[i, ..., :n], XA[i, ..., n:]
        if i >= len(V):
            v = (xa_eq - XA[i]) @ K.T
        elif box_offset is None:
            v = V[i]
        else:
            v = np.clip(V[i], -1.0 - (xi + box_offset), 1.0 - (xi + box_offset))
        moves[i] = v
        U[i] = v + xi
        XA[i + 1, ..., :n], Z[i], F[i], R[i] = kernels.cell(x, U[i], *cellp)
        XA[i + 1, ..., n:] = xi + y0 - (x @ Uo.T + bo)
    return XA, moves, (U, Z, F, R)


def assert_rollouts_agree(got, ref, atol):
    """States, moves and the cache (U, Z, F, R) equal, or within atol."""
    for a, b in zip(got[:2] + got[2], ref[:2] + ref[2]):
        assert a.shape == b.shape
        if atol == 0.0:
            np.testing.assert_array_equal(a, b)
        else:
            np.testing.assert_allclose(a, b, rtol=0, atol=atol)


def assert_steps_agree_with_the_cell(w, cellp, law, y0, V, box_offset, got):
    """Each step of a rollout against its own states: the gates and x+ equal
    a kernels.cell call on the step's (x, u) and a free move its clamp
    (u = v + xi) bit for bit; xi+ and the law's u, each one product with
    the step's slot, lie within 2e-15 of the former formulas xi + y0 -
    (Uo x + bo) and K (xa_eq - xa) + xi, and a law move is u - xi."""
    n, (K, xa_eq) = w.n, law
    XA, moves, (U, Z, F, R) = got
    for i in range(len(moves)):
        x, xi = XA[i, :n], XA[i, n:]
        for a, b in zip((XA[i + 1, :n], Z[i], F[i], R[i]), kernels.cell(x, U[i], *cellp)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(XA[i + 1, n:], xi + y0 - (w.U_o @ x + w.b_o),
                                   rtol=0, atol=2e-15)
        if i < len(V):
            v = V[i] if box_offset is None else np.clip(
                V[i], -1.0 - (xi + box_offset), 1.0 - (xi + box_offset))
            np.testing.assert_array_equal(moves[i], v)
            np.testing.assert_array_equal(U[i], v + xi)
        else:
            np.testing.assert_allclose(U[i], K @ (xa_eq - XA[i]) + xi, rtol=0, atol=2e-15)
            np.testing.assert_array_equal(moves[i], U[i] - xi)


def test_fused_rollout_equals_the_cell_loop(pinned):
    # one plan (free moves, then the auxiliary law) and its sequential
    # clamp, step by step against the cell (assert_steps_agree_with_the_cell);
    # the integrator and law rows round differently from the former
    # formulas, so the whole rollout lies within 1e-14 of reference_rollout
    # (4.4e-15 at most over 240 plans at pH 6.8, 7.0 and 7.4)
    w, ing, cfg = pinned
    cellp = kernels.stack_gates(*w.arrays())
    law = (ing.K_lq, ing.eq.xa0)
    step = kernels.augmented_step_matrices(cellp, w.U_o, w.b_o, ing.eq.y0, law)
    rng = np.random.default_rng(441)
    xa0 = ing.eq.xa0 + offset(ing, rng, 0.5)
    for scale, box_offset in ((0.05, None), (2.0, rng.normal(0.0, 0.1, w.p))):
        V = rng.normal(0.0, scale, (cfg.N_c, w.p))
        args = (step, xa0, V, cfg.N_p)
        got = kernels.augmented_rollout(*args, box_offset=box_offset)
        assert_steps_agree_with_the_cell(w, cellp, law, ing.eq.y0, V, box_offset, got)
        assert_rollouts_agree(got, reference_rollout(*args, box_offset=box_offset), 1e-14)
        if box_offset is not None:      # the clamp binds
            assert np.any(got[1][:cfg.N_c] != V)
    # the auxiliary law from the first step on
    args = (step, xa0, (), 5)
    got = kernels.augmented_rollout(*args)
    assert_steps_agree_with_the_cell(w, cellp, law, ing.eq.y0, (), None, got)
    assert_rollouts_agree(got, reference_rollout(*args), 1e-14)


def test_fused_rollout_on_1024_rows_matches_the_cell_loop(pinned):
    # a terminal-sample block: the gates come from the same gate matmul, but
    # the law's u and xi+ are each one product with the step's slot, which
    # rounds differently from the reference's formulas: within 1e-15
    w, ing, cfg = pinned
    step = kernels.augmented_step_matrices(kernels.stack_gates(*w.arrays()), w.U_o,
                                           w.b_o, ing.eq.y0, (ing.K_lq, ing.eq.xa0))
    rng = np.random.default_rng(443)
    E = rng.normal(0.0, 0.05, (mpc.TERMINAL_BLOCK, w.n + w.p))
    for T in (1, 3):
        args = (step, ing.eq.xa0 + E, (), T)
        assert_rollouts_agree(kernels.augmented_rollout(*args),
                              reference_rollout(*args), 1e-15)


def test_closed_loop_agrees_with_the_cell_loop_rollout(monkeypatch):
    # 60 regulate ticks with the fused rollout and with reference_rollout:
    # the same solver steps, evaluations and rejections on every tick and
    # applied inputs within 1e-12
    fast = pinned_regulate(60)
    monkeypatch.setattr(kernels, "augmented_rollout", reference_rollout)
    slow = pinned_regulate(60)
    assert [t[1:] for t in fast] == [t[1:] for t in slow]
    assert max(abs(a[0] - b[0]) for a, b in zip(fast, slow)) <= 1e-12
    assert sum(t[2] for t in fast) > 60


def test_kernels_given_the_constants_equal_kernels_building_them(pinned):
    # the per-setpoint constants change no bit of any FHOCP kernel
    w, ing, cfg = pinned
    model, prob = problem_args(w, ing)
    rng = np.random.default_rng(447)
    xa0 = ing.eq.xa0 + offset(ing, rng, 0.5)
    vflat = rng.normal(0.0, 1.5, cfg.N_c * w.p)        # leaves the box
    args = (vflat, xa0, xa0[w.n:], ing.eq.y0, *model, *prob, cfg.N_c, cfg.N_p,
            cfg.N_f, 1e3, 1e3)
    for kernel in (kernels.fhocp_forward, kernels.fhocp_forward_backward):
        for a, b in zip(kernel(*args), kernel(*args, consts=ing.consts)):
            np.testing.assert_array_equal(a, b)
    clip_args = args[:15] + (ing.K_lq, ing.eq.xa0, cfg.N_c, cfg.N_p)
    for a, b in zip(kernels.fhocp_clip_restore(*clip_args),
                    kernels.fhocp_clip_restore(*clip_args, consts=ing.consts)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("model", ["small", "pinned"])
def test_clip_restore_inside_the_box_keeps_the_scored_rollout(setup, pinned, model):
    # a plan with box violation 0 comes back bitwise, with the states that
    # fhocp_forward_backward scored it on, whatever the tail behind N_p
    if model == "small":
        (w, ing), (Nc, Np) = setup, (N_C, N_P)
    else:
        w, ing, cfg = pinned
        Nc, Np = cfg.N_c, cfg.N_p
    model_args, prob = problem_args(w, ing)
    rng = np.random.default_rng(439)
    xa0 = ing.eq.xa0 + offset(ing, rng, 0.5)
    xi0 = xa0[w.n:] + rng.normal(0.0, 0.02, w.p)
    vflat = rng.normal(0.0, 0.05, Nc * w.p)
    v_out, XA_clip, tail_viol = kernels.fhocp_clip_restore(
        vflat, xa0, xi0, ing.eq.y0, *model_args, *prob[:2], Nc, Np)
    for Nf in (0, N_F):
        *_, bviol, _, _, XA = kernels.fhocp_forward_backward(
            vflat, xa0, xi0, ing.eq.y0, *model_args, *prob, Nc, Np, Nf, 1e3, 1e3)
        assert bviol == 0.0
        np.testing.assert_array_equal(v_out, vflat)
        np.testing.assert_array_equal(XA_clip, XA)
    assert tail_viol == 0.0


def test_clip_restore_enforces_the_box(setup):
    w, ing = setup
    rng = np.random.default_rng(419)
    xa0 = ing.eq.xa0 + offset(ing, rng, 0.5)
    xi0 = xa0[w.n:] + 0.1
    vflat = rng.normal(0.0, 2.0, N_C * w.p)
    v_out, _, _ = kernels.fhocp_clip_restore(
        vflat, xa0, xi0, ing.eq.y0, *w.arrays(), w.U_o, w.b_o,
        np.ascontiguousarray(ing.K_lq), ing.eq.xa0, N_C, N_P)
    assert np.any(v_out != vflat)
    _, _, bviol, _ = forward(w, ing, v_out, xa0, xi0, 0.0, 0.0)
    assert bviol <= 1e-12


@pytest.mark.parametrize("active", [False, True])
def test_fhocp_gradient_matches_central_differences(setup, active):
    w, ing = setup
    rng = np.random.default_rng(421 + active)
    if active:
        # large moves leave the input box; a tight radius puts the state at
        # N_p outside the terminal set
        xa0 = ing.eq.xa0 + offset(ing, rng, 2.0)
        vflat = rng.normal(0.0, 1.5, N_C * w.p)
        omega, mu_box, mu_term = 1e-4, 30.0, 10.0
    else:
        xa0 = ing.eq.xa0 + offset(ing, rng, 0.2)
        vflat = rng.normal(0.0, 0.01, N_C * w.p)
        omega, mu_box, mu_term = None, 30.0, 10.0
    xi0 = xa0[w.n:].copy()
    for Nf in (0, N_F):
        Jp, _, grad, bviol, tviol, *_ = forward_backward(w, ing, vflat, xa0, xi0,
                                                         mu_box, mu_term, Nf, omega)
        assert (bviol > 0 and tviol > 0) if active else (bviol <= 0 and tviol <= 0)

        def J(v):
            return forward(w, ing, v, xa0, xi0, mu_box, mu_term, Nf=Nf, omega=omega)[0]
        h = 1e-6
        fd = np.empty_like(vflat)
        for j in range(vflat.size):
            dv = np.zeros_like(vflat)
            dv[j] = h
            fd[j] = (J(vflat + dv) - J(vflat - dv)) / (2 * h)
        assert Jp == J(vflat)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-7 * np.max(np.abs(fd)))


def residuals(w, ing, vflat, xa0, xi0, mu_box, mu_term, Nf, omega):
    model, prob = problem_args(w, ing)
    return kernels.fhocp_residuals(vflat, xa0, xi0, ing.eq.y0, *model, *prob[:-1],
                                   omega, N_C, N_P, Nf, mu_box, mu_term)


@pytest.mark.parametrize("active", [False, True])
def test_fhocp_residual_jacobian_matches_central_differences(setup, active):
    # the tangent rows give the exact Jacobian of the residuals, whose
    # squares sum to the objective fhocp_forward charges; the gradient and
    # the Gauss-Newton Hessian of fhocp_forward_backward are built from them
    w, ing = setup
    rng = np.random.default_rng(461 + active)
    if active:
        xa0 = ing.eq.xa0 + offset(ing, rng, 2.0)
        vflat = rng.normal(0.0, 1.5, N_C * w.p)
        omega, mu_box, mu_term = 1e-4, 30.0, 10.0
    else:
        xa0 = ing.eq.xa0 + offset(ing, rng, 0.2)
        vflat = rng.normal(0.0, 0.01, N_C * w.p)
        omega, mu_box, mu_term = ing.omega, 30.0, 10.0
    xi0 = xa0[w.n:] + rng.normal(0.0, 0.02, w.p)
    for Nf in (0, N_F):
        Jp, J, bviol, tviol, r, Jr, XA = residuals(w, ing, vflat, xa0, xi0, mu_box,
                                                   mu_term, Nf, omega)
        assert XA.shape == (N_P + 1, w.n + w.p)
        assert (bviol > 0 and tviol > 0) if active else (bviol <= 0 and tviol <= 0)
        assert (Jp, J, bviol, tviol) == forward(w, ing, vflat, xa0, xi0, mu_box,
                                                mu_term, Nf=Nf, omega=omega)
        assert float(r @ r) == Jp
        assert Jr.shape == (len(r), vflat.size)
        h = 1e-6
        fd = np.empty_like(Jr)
        for j in range(vflat.size):
            dv = np.zeros_like(vflat)
            dv[j] = h
            fd[:, j] = (residuals(w, ing, vflat + dv, xa0, xi0, mu_box, mu_term, Nf,
                                  omega)[4]
                        - residuals(w, ing, vflat - dv, xa0, xi0, mu_box, mu_term, Nf,
                                    omega)[4]) / (2 * h)
        assert np.max(np.abs(Jr - fd)) <= 1e-7 * np.max(np.abs(fd))
        # the penalty rows are live exactly when their penalty is
        assert np.any(Jr[-1] != 0.0) == active
        fb = forward_backward(w, ing, vflat, xa0, xi0, mu_box, mu_term, Nf, omega)
        assert fb[:2] == (Jp, J) and fb[3:5] == (bviol, tviol)
        np.testing.assert_array_equal(fb[6], XA)
        np.testing.assert_allclose(fb[2], 2.0 * Jr.T @ r, rtol=1e-14, atol=0)
        np.testing.assert_allclose(fb[5], 2.0 * Jr.T @ Jr, rtol=1e-14, atol=0)


def test_terminal_samples_check_matches_per_row_reference(setup):
    w, ing = setup
    rng = np.random.default_rng(431)
    n, na = w.n, w.n + w.p
    # samples scaled around the accepted radius, all rows in one call
    E = rng.normal(size=(4096 + 1000, na))
    level = np.einsum("ij,jk,ik->i", E, ing.P_f, E)
    E *= np.sqrt(ing.omega * rng.uniform(0.0, 2.0, len(E)) / level)[:, None]
    vf_lhs = kernels.terminal_samples_check(E, ing.consts.step, ing.P_f, ing.Q_lq)
    ref_vf = np.empty(len(E))
    for k, e in enumerate(E):
        xa = ing.eq.xa0 + e
        v = -(ing.K_lq @ e)
        nxt, _ = observer.augmented_step(w, AugmentedState(xa[:n], xa[n:]), v,
                                         ing.eq.y0)
        en = nxt.stacked() - ing.eq.xa0
        ref_vf[k] = en @ ing.P_f @ en - e @ ing.P_f @ e + e @ ing.Q_lq @ e
    np.testing.assert_allclose(vf_lhs, ref_vf, rtol=0, atol=1e-12)
    # the samples inside the accepted radius pass
    assert np.all(vf_lhs[np.einsum("ij,jk,ik->i", E, ing.P_f, E) <= ing.omega] <= 0.0)


def test_tbptt_gradient_matches_central_differences():
    rng = np.random.default_rng(433)
    w = gru_model.random_weights(4, 1, 1, rng, scale=0.4)
    Ub = rng.uniform(-1, 1, (3, 12, 1))
    Yb = rng.uniform(-1, 1, (3, 12, 1))
    X0b = rng.uniform(-1, 1, (3, 4))
    loss, *grads = kernels.tbptt_loss_grad_batch(Ub, Yb, X0b, 3,
                                                 *w.arrays(), w.U_o, w.b_o)
    arrays = [*w.arrays(), w.U_o, w.b_o]
    assert loss == pytest.approx(
        kernels.tbptt_loss_batch(Ub, Yb, X0b, 3, *arrays), rel=1e-14)
    h = 1e-6
    for k, (a, g) in enumerate(zip(arrays, grads)):
        fd = np.empty(a.size)
        for j in range(a.size):
            plus = [b.copy() for b in arrays]
            minus = [b.copy() for b in arrays]
            plus[k].flat[j] += h
            minus[k].flat[j] -= h
            fd[j] = (kernels.tbptt_loss_batch(Ub, Yb, X0b, 3, *plus)
                     - kernels.tbptt_loss_batch(Ub, Yb, X0b, 3, *minus)) / (2 * h)
        np.testing.assert_allclose(g.ravel(), fd, rtol=1e-6, atol=1e-8,
                                   err_msg=gru_model.WEIGHT_FIELDS[k])


def cell_vjp(lam, x, u, z, f, r, M, G, Wr, Ur):
    """Pull lam = dJ/dx+ back through one cell (rows in, rows out): the
    kernels' former per-step vector-Jacobian product.

    Returns (dJ/dx, dJ/du, dJ/da_zf, dJ/da_r), the last two with respect to
    the gate pre-activations.
    """
    m = u.shape[-1]
    da_r = lam * (1.0 - z) * (1.0 - r * r)
    dh = da_r @ Ur
    da_zf = np.concatenate((lam * (x - r) * z * (1.0 - z),
                            dh * x * f * (1.0 - f)), axis=-1)
    g = da_zf @ G
    return lam * z + dh * f + g[..., m:], g[..., :m] + da_r @ Wr, da_zf, da_r


def reference_tbptt_grad(Ub, Yb, X0b, Tw, Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo):
    """tbptt_loss_grad_batch as a loop of kernels.cell calls forward and of
    cell_vjp calls backward, on rows (the kernels' former gradient)."""
    B, T, m = Ub.shape
    n = Uz.shape[0]
    cellp = kernels.stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br)
    U = np.ascontiguousarray(Ub.transpose(1, 0, 2))
    X = np.empty((T + 1, B, n))
    X[0] = X0b
    Z, F, R = (np.empty((T, B, n)) for _ in range(3))
    for k in range(T):
        X[k + 1], Z[k], F[k], R[k] = kernels.cell(X[k], U[k], *cellp)
    E = np.zeros((T, B, Yb.shape[2]))
    E[Tw:] = X[Tw + 1:] @ Uo.T + bo - Yb[:, Tw:].transpose(1, 0, 2)
    dE = (2.0 / (T - Tw)) * E
    dX = dE @ Uo
    DZF, DR = np.empty((T, B, 2 * n)), np.empty((T, B, n))
    lam = np.zeros((B, n))
    for k in range(T - 1, -1, -1):
        lam, _, DZF[k], DR[k] = cell_vjp(lam + dX[k], X[k], U[k], Z[k], F[k], R[k],
                                         *cellp)

    def outer_sum(A, C):
        return A.reshape(-1, A.shape[-1]).T @ C.reshape(-1, C.shape[-1])

    dG = outer_sum(DZF, np.concatenate((U, X[:-1]), axis=-1))
    dbzf = DZF.sum(axis=(0, 1))
    return (np.sum(E * E) / (T - Tw),
            dG[:n, :m], dG[:n, m:], dbzf[:n], dG[n:, :m], dG[n:, m:], dbzf[n:],
            outer_sum(DR, U), outer_sum(DR, F * X[:-1]), DR.sum(axis=(0, 1)),
            outer_sum(dE, X[1:]), dE.sum(axis=(0, 1)))


def training_batch(B, T, n, p, seed):
    rng = np.random.default_rng(seed)
    w = gru_model.random_weights(n, p, p, rng)
    return (rng.uniform(-1, 1, (B, T, p)), rng.uniform(-1, 1, (B, T, p)),
            rng.uniform(-1, 1, (B, n)), (*w.arrays(), w.U_o, w.b_o))


@pytest.mark.parametrize("B,T,n,p,Tw", [(2, 200, 10, 1, 50), (1, 200, 10, 1, 50),
                                        (3, 60, 5, 2, 10), (2, 80, 6, 1, 0)],
                         ids=["desk", "one-row", "p=2", "no-washout"])
def test_tbptt_gradient_matches_the_cell_loop_reference(B, T, n, p, Tw):
    # the scan and the lean reverse pass against a loop of cell and cell_vjp
    # calls: loss and all 11 gradients within 1e-12 relative (the reverse
    # pass groups its products differently); the validation loss is the
    # gradient kernel's, bit for bit
    Ub, Yb, X0b, model = training_batch(B, T, n, p, 449 + B + p + Tw)
    got = kernels.tbptt_loss_grad_batch(Ub, Yb, X0b, Tw, *model)
    ref = reference_tbptt_grad(Ub, Yb, X0b, Tw, *model)
    assert len(got) == len(ref) == 1 + len(gru_model.WEIGHT_FIELDS)
    for name, a, b in zip(("loss",) + gru_model.WEIGHT_FIELDS, got, ref):
        assert np.shape(a) == np.shape(b), name
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name
    assert kernels.tbptt_loss_batch(Ub, Yb, X0b, Tw, *model) == got[0]


def ten_call_tbptt_grad(Ub, Yb, X0b, Tw, Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo):
    """tbptt_loss_grad_batch with the former reverse pass: fresh buffers per
    call, a loop of kernels.cell calls forward (the scan's states and gates,
    bit for bit) and ten calls a reverse step, each product on its own."""
    B, T, m = Ub.shape
    n = Uz.shape[0]
    _, G, _, _ = cellp = kernels.stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br)
    S = np.empty((T + 1, 1 + m + n, B))
    S[:, 0] = 1.0
    S[:T, 1:1 + m] = Ub.transpose(1, 2, 0)
    S[0, 1 + m:] = X0b.T
    gates = np.empty((T, 3 * n, B))
    for k in range(T):
        x, z, f, r = kernels.cell(S[k, 1 + m:].T, Ub[:, k], *cellp)
        S[k + 1, 1 + m:], gates[k] = x.T, np.hstack((z, f, r)).T
    UX, X = S[:T, 1:], S[:, 1 + m:]
    Z, F, R = gates[:, :n], gates[:, n:2 * n], gates[:, 2 * n:]
    E = kernels._output_errors(X, Yb, Tw, Uo, bo)
    dE = (2.0 / (T - Tw)) * E
    L = np.zeros((T + 1, n, B))
    L[Tw + 1:] = np.matmul(Uo.T, dE)
    Ar = (1.0 - Z) * (1.0 - R * R)
    Cz = (X[:-1] - R) * Z * (1.0 - Z)
    Cf = X[:-1] * F * (1.0 - F)
    UrT, GxT = Ur.T.copy(), G[:, m:].T.copy()
    DZF = np.empty((T, 2 * n, B))
    DR = np.empty((T, n, B))
    dh, t1, t2 = np.empty((n, B)), np.empty((n, B)), np.empty((n, B))
    for lam, prev, dzf, dz, df, dr, ar, cz, cf, z, f in zip(*(A[::-1] for A in (
            L[1:], L[:-1], DZF, DZF[:, :n], DZF[:, n:], DR, Ar, Cz, Cf, Z, F))):
        np.multiply(lam, ar, dr)
        np.dot(UrT, dr, dh)
        np.multiply(lam, cz, dz)
        np.multiply(dh, cf, df)
        np.multiply(lam, z, t1)
        np.add(t1, np.multiply(dh, f, t2), t1)
        np.add(t1, np.dot(GxT, dzf, t2), t1)
        np.add(prev, t1, prev)

    def outer_sum(A, C):
        return np.tensordot(A, C, axes=((0, 2), (0, 2)))

    dG = outer_sum(DZF, UX)
    dbzf = DZF.sum(axis=(0, 2))
    return (np.sum(E * E) / (T - Tw),
            dG[:n, :m], dG[:n, m:], dbzf[:n], dG[n:, :m], dG[n:, m:], dbzf[n:],
            outer_sum(DR, UX[:, :m]), outer_sum(DR, F * X[:-1]), DR.sum(axis=(0, 2)),
            outer_sum(dE, X[Tw + 1:]), dE.sum(axis=(0, 2)))


def assert_same_bits(got, ref):
    assert len(got) == len(ref) == 1 + len(gru_model.WEIGHT_FIELDS)
    for name, a, b in zip(("loss",) + gru_model.WEIGHT_FIELDS, got, ref):
        assert np.shape(a) == np.shape(b), name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("B,T,n,p,Tw", [(2, 200, 10, 1, 50), (1, 200, 10, 1, 50),
                                        (3, 60, 5, 2, 10), (2, 80, 6, 1, 0),
                                        (8, 300, 10, 1, 50), (1, 30, 5, 1, 29),
                                        (5, 7, 3, 1, 2)],
                         ids=["desk", "one-row", "p=2", "no-washout", "8-rows",
                              "one-sample", "short"])
def test_tbptt_gradient_equals_the_ten_call_reverse_pass(B, T, n, p, Tw):
    # the workspace and the seven-call reverse step keep the arithmetic of
    # the former pass element for element: loss and all 11 gradients equal
    Ub, Yb, X0b, model = training_batch(B, T, n, p, 463 + B + p + Tw)
    assert_same_bits(kernels.tbptt_loss_grad_batch(Ub, Yb, X0b, Tw, *model),
                     ten_call_tbptt_grad(Ub, Yb, X0b, Tw, *model))


def test_the_gradient_workspace_keeps_no_state_between_calls():
    # calls A, B, A of one shape and B = 1 and B = 2 calls interleaved give
    # A's results bit for bit; no result shares memory with the workspace or
    # with another call's results; a cold cache gives a warm one's bits
    (Ua, Ya, Xa, ma), (Ub, Yb, Xb, mb) = (training_batch(2, 50, 6, 1, s)
                                          for s in (467, 479))

    def grad(U, Y, X0, model):
        return kernels.tbptt_loss_grad_batch(U, Y, X0, 10, *model)

    kernels.grad_workspace.cache_clear()
    first = grad(Ua, Ya, Xa, ma)
    results = [first, grad(Ub, Yb, Xb, mb), grad(Ua, Ya, Xa, ma)]
    assert_same_bits(results[2], first)
    one_row = grad(Ub[:1], Yb[:1], Xb[:1], mb)
    results += [one_row, grad(Ua, Ya, Xa, ma), grad(Ub[:1], Yb[:1], Xb[:1], mb)]
    assert_same_bits(results[4], first)
    assert_same_bits(results[5], one_row)
    assert kernels.grad_workspace.cache_info().currsize == 2
    buffers = [a for B in (1, 2) for a in kernels.grad_workspace(50, B, 6, 1)
               if isinstance(a, np.ndarray)]
    arrays = [a for res in results for a in res[1:]]
    for k, a in enumerate(arrays):
        assert not any(np.shares_memory(a, buf) for buf in buffers)
        assert not any(np.shares_memory(a, b) for b in arrays[k // 11 * 11 + 11:])
    kernels.grad_workspace.cache_clear()
    assert_same_bits(grad(Ua, Ya, Xa, ma), first)
    assert_same_bits(grad(Ub[:1], Yb[:1], Xb[:1], mb), one_row)


def test_scan_states_equal_the_cell_loop():
    # gru_rollout on one row, the validation scan and the gradient's forward
    # pass in its workspace on rows: the states (and the gradient's gates)
    # equal a loop of kernels.cell calls bit for bit
    Ub, _, X0b, model = training_batch(8, 120, 10, 1, 457)
    cellp = kernels.stack_gates(*model[:9])
    X = kernels.gru_rollout(X0b[0], Ub[0], *model[:9])
    x = X0b[0]
    assert X.shape == (121, 10)
    np.testing.assert_array_equal(X[0], x)
    for k, u in enumerate(Ub[0]):
        x = kernels.cell(x, u, *cellp)[0]
        np.testing.assert_array_equal(X[k + 1], x)
    for B in (1, 2, 8):
        S = kernels._scan(cellp, X0b[:B].T, Ub[:B].transpose(1, 2, 0))
        kernels.tbptt_loss_grad_batch(Ub[:B], Ub[:B], X0b[:B], 0, *model)
        ws = kernels.grad_workspace(120, B, 10, 1)
        x = X0b[:B]
        for k in range(Ub.shape[1]):
            x, *zfr = kernels.cell(x, Ub[:B, k], *cellp)
            np.testing.assert_array_equal(S[k + 1, 2:].T, x)
            np.testing.assert_array_equal(ws.S[k + 1, 2:].T, x)
            np.testing.assert_array_equal(ws.GC[k, 20:].T, np.hstack(zfr))


def test_a_gradient_call_packs_the_cell_once_and_calls_no_cell(monkeypatch):
    Ub, Yb, X0b, model = training_batch(2, 30, 4, 1, 461)
    calls = {"stack_gates": 0, "cell": 0}

    def counted(name):
        fn = getattr(kernels, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    for name in calls:
        monkeypatch.setattr(kernels, name, counted(name))
    kernels.tbptt_loss_grad_batch(Ub, Yb, X0b, 5, *model)
    assert calls == {"stack_gates": 1, "cell": 0}


def test_cell_helpers_consistent():
    # the single-vector and the rows forms of the cell and of its VJP agree,
    # and the VJP matches central differences of the cell
    rng = np.random.default_rng(27)
    w = gru_model.random_weights(5, 2, 2, rng)
    cellp = kernels.stack_gates(*w.arrays())
    X = rng.uniform(-1, 1, (7, 5))
    U = rng.uniform(-1, 1, (7, 2))
    L = rng.normal(size=(7, 5))
    rows = kernels.cell(X, U, *cellp)
    rows_vjp = cell_vjp(L, X, U, *rows[1:], *cellp)
    for k in range(len(X)):
        one = kernels.cell(X[k], U[k], *cellp)
        one_vjp = cell_vjp(L[k], X[k], U[k], *one[1:], *cellp)
        for a, b in zip(one + one_vjp, rows + rows_vjp):
            np.testing.assert_allclose(a, b[k], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(gru_model.gru_step(w, X[0], U[0]),
                                  kernels.cell(X[0], U[0], *cellp)[0])
    z, f, r = rows[1:]
    assert np.all((z > 0) & (z < 1)) and np.all((f > 0) & (f < 1))
    assert np.all(np.abs(r) < 1)

    h = 1e-6
    g = np.concatenate((rows_vjp[0][0], rows_vjp[1][0]))     # (dJ/dx, dJ/du)
    for j in range(7):
        d = np.zeros(7)
        d[j] = h
        plus = kernels.cell(X[0] + d[:5], U[0] + d[5:], *cellp)[0]
        minus = kernels.cell(X[0] - d[:5], U[0] - d[5:], *cellp)[0]
        assert g[j] == pytest.approx(L[0] @ (plus - minus) / (2 * h),
                                     rel=1e-7, abs=1e-9)


def test_cell_next_equals_the_cell_bit_for_bit():
    # the observer's one-vector step: the state cell returns, to the bit
    rng = np.random.default_rng(28)
    for m in (1, 2):
        w = gru_model.random_weights(5, m, m, rng)
        cellp = kernels.stack_gates(*w.arrays())
        for _ in range(20):
            x, u = rng.uniform(-1, 1, 5), rng.uniform(-1, 1, m)
            np.testing.assert_array_equal(kernels.cell_next(x, u, cellp[0], cellp[3]),
                                          kernels.cell(x, u, *cellp)[0])


def logistic(a):
    return 0.5 + 0.5 * np.tanh(0.5 * a)


def reference_jacobians(w, x, u):
    """dphi/dx and dphi/du written out from the nine weight arrays, gates
    recomputed: the formula gru_model.jacobians used on its own before it
    called kernels.cell_jacobians."""
    z = logistic(w.W_z @ u + w.U_z @ x + w.b_z)
    f = logistic(w.W_f @ u + w.U_f @ x + w.b_f)
    r = np.tanh(w.W_r @ u + w.U_r @ (f * x) + w.b_r)
    dz, df, dr = z * (1.0 - z), f * (1.0 - f), 1.0 - r * r
    dphi_dx = (np.diag(z) + ((x - r) * dz)[:, None] * w.U_z
               + ((1.0 - z) * dr)[:, None]
               * (w.U_r @ (np.diag(f) + (x * df)[:, None] * w.U_f)))
    dphi_du = (((x - r) * dz)[:, None] * w.W_z
               + ((1.0 - z) * dr)[:, None]
               * (w.W_r + w.U_r @ ((x * df)[:, None] * w.W_f)))
    return dphi_dx, dphi_du


def reference_cell_jvp(dx, du, x, u, z, f, r, M, G, Wr, Ur):
    """Forward-mode product of one cell on tangent rows (dx, du), from the
    gates cell returned: the kernels' former cell_jvp."""
    n = x.shape[-1]
    da_zf = np.concatenate((du, dx), axis=-1) @ G.T
    dz = z * (1.0 - z) * da_zf[..., :n]
    df = f * (1.0 - f) * da_zf[..., n:]
    dr = (1.0 - r * r) * (du @ Wr.T + (df * x + f * dx) @ Ur.T)
    return dz * (x - r) + z * dx + (1.0 - z) * dr


def reference_tangent(step, XA, cache, Nc):
    """augmented_tangent step by step: every step pushes the tangent rows
    through reference_cell_jvp (the kernels' former tangent recursion),
    from the step's source arrays; its packed Mxi and Ka are not used.
    Returns the kernel's layout, features before directions."""
    cellp, Uo, K = step.cell, step.Uo, step.law[0]
    n = Uo.shape[1]
    U, Z, F, R = cache
    T, p = U.shape
    dXA = np.zeros((T + 1, Nc * p, n + p))
    dV = np.zeros((T, Nc * p, p))
    for i in range(T):
        dx, dxi = dXA[i, :, :n], dXA[i, :, n:]
        if i < Nc:
            dV[i, i * p:(i + 1) * p] = np.eye(p)
        else:
            dV[i] = -dXA[i] @ K.T
        dXA[i + 1, :, :n] = reference_cell_jvp(dx, dV[i] + dxi, XA[i, :n], U[i],
                                               Z[i], F[i], R[i], *cellp)
        dXA[i + 1, :, n:] = dxi - dx @ Uo.T
    return dXA.transpose(0, 2, 1), dV.transpose(0, 2, 1)


@pytest.mark.parametrize("p", [1, 2])
def test_cell_jacobians_match_differences_the_vjp_and_the_weight_formula(p):
    # rows against single vectors (1e-15), every column against central
    # differences of the cell (rtol 1e-7), the adjoint identity
    # lam'[Jx Ju] = cell_vjp(lam) (1e-12 relative), and the weight-array
    # formula of reference_jacobians and gru_model.jacobians (1e-15)
    rng = np.random.default_rng(29 + p)
    n, h = 5, 1e-6
    w = gru_model.random_weights(n, p, p, rng)
    cellp = kernels.stack_gates(*w.arrays())
    X, U = rng.uniform(-1, 1, (7, n)), rng.uniform(-1, 1, (7, p))
    _, Z, F, R = kernels.cell(X, U, *cellp)
    Jx, Ju = kernels.cell_jacobians(X, U, Z, F, R, *cellp)
    assert Jx.shape == (7, n, n) and Ju.shape == (7, n, p)
    for k in range(7):
        x, u = X[k], U[k]
        J = np.hstack((Jx[k], Ju[k]))
        one = kernels.cell_jacobians(x, u, Z[k], F[k], R[k], *cellp)
        np.testing.assert_allclose(np.hstack(one), J, rtol=0, atol=1e-15)
        for j in range(n + p):
            d = np.zeros(n + p)
            d[j] = h
            plus = kernels.cell(x + d[:n], u + d[n:], *cellp)[0]
            minus = kernels.cell(x - d[:n], u - d[n:], *cellp)[0]
            np.testing.assert_allclose(J[:, j], (plus - minus) / (2 * h),
                                       rtol=1e-7, atol=1e-9)
        lam = rng.normal(size=n)
        gx, gu, _, _ = cell_vjp(lam, x, u, Z[k], F[k], R[k], *cellp)
        np.testing.assert_allclose(np.r_[gx, gu], lam @ J, rtol=0,
                                   atol=1e-12 * np.max(np.abs(lam @ J)))
        np.testing.assert_allclose(J, np.hstack(reference_jacobians(w, x, u)),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(J, np.hstack(gru_model.jacobians(w, x, u)[:2]),
                                   rtol=0, atol=1e-15)


@pytest.mark.parametrize("model", ["pinned", "random p=2"])
def test_augmented_tangent_matches_the_stepwise_recursion(pinned, model):
    # the batched linearization against reference_tangent, for one, half and
    # all of the horizon's moves free (the rest under the auxiliary law)
    rng = np.random.default_rng(431)
    if model == "pinned":
        w, ing, cfg = pinned
        K, xa_eq, y0, Np = ing.K_lq, ing.eq.xa0, ing.eq.y0, cfg.N_p
        xa0 = xa_eq + offset(ing, rng, 0.5)
    else:
        w = scaled_certified_weights(rng, n=5, p=2, target=-0.1)
        Np = 16
        K = rng.normal(0.0, 0.3, (2, 7))
        xa_eq, y0 = rng.uniform(-0.5, 0.5, 7), rng.uniform(-0.5, 0.5, 2)
        xa0 = xa_eq + rng.normal(0.0, 0.1, 7)
    step = kernels.augmented_step_matrices(kernels.stack_gates(*w.arrays()), w.U_o,
                                           w.b_o, y0, (K, xa_eq))
    for Nc in (1, Np // 2, Np):
        V = rng.normal(0.0, 0.1, (Nc, w.p))
        XA, _, cache = kernels.augmented_rollout(step, xa0, V, Np)
        dXA, dV = kernels.augmented_tangent(step, XA, cache, Nc)
        ref_dXA, ref_dV = reference_tangent(step, XA, cache, Nc)
        assert dXA.shape == ref_dXA.shape and dV.shape == ref_dV.shape
        np.testing.assert_allclose(dXA, ref_dXA, rtol=0, atol=1e-13)
        np.testing.assert_allclose(dV, ref_dV, rtol=0, atol=1e-13)
        assert np.max(np.abs(ref_dXA)) > 1e-3


def pinned_regulate(ticks):
    """Applied inputs and solver counts of a pinned-model pH 7.0 hold on the
    pH plant: seeded measurement noise and two input-additive windows."""
    w = gru_model.load_weights(FIXTURE / "weights.json")
    nmap = sysid.NormalizationMap.load(FIXTURE / "normalization.json")
    cfg = harness.ExperimentConfig()
    tau = cfg.tau_s
    plant = harness._PhPlant(cfg, plant_sim.default_params())
    sched = plant_sim.DisturbanceSchedule([(8 * tau, 20 * tau, "input-additive", 0.4),
                                           (35 * tau, 45 * tau, "input-additive", -0.3)])
    noise = np.random.default_rng(31).normal(0.0, 0.005, ticks)
    ctl = mpc.RecedingHorizonController(w, observer.load_gains(FIXTURE / "gains.json"),
                                        cfg.controller)
    ctl.reset(nmap.normalize_y([7.0]))
    return [(t.u_norm[0], t.info.iterations, t.info.evals, t.info.rejections)
            for t in harness.closed_loop(cfg, ctl, plant, nmap, np.full(ticks, 7.0), sched,
                                         noise)]


def test_closed_loop_agrees_with_the_stepwise_tangent(monkeypatch):
    # 60 regulate ticks with the batched tangent and with reference_tangent:
    # applied inputs within 1e-12, the same solver steps, evaluations and
    # rejections on every tick
    fast = pinned_regulate(60)
    monkeypatch.setattr(kernels, "augmented_tangent", reference_tangent)
    slow = pinned_regulate(60)
    assert [t[1:] for t in fast] == [t[1:] for t in slow]
    assert max(abs(a[0] - b[0]) for a, b in zip(fast, slow)) <= 1e-12
    assert sum(t[1] for t in fast) > 60


def test_sigmoid_stable_at_extremes():
    # the cell's z and f gates at extreme pre-activations (the biases alone)
    a = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
    zero, col = np.zeros((5, 5)), np.zeros((5, 1))
    cellp = kernels.stack_gates(col, zero, a, col, zero, a, col, zero, np.zeros(5))
    _, z, f, _ = kernels.cell(np.zeros(5), np.zeros(1), *cellp)
    for out in (z, f):
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 or out[0] < 1e-300
        assert out[-1] == 1.0
        assert out[2] == 0.5


# ---------------------------------------------------------------------------
# the FHOCP evaluation before its workspaces, kept as the bit-for-bit
# reference of the workspace kernels: every array is fresh in every call
# ---------------------------------------------------------------------------

def fresh_rollout(step, xa0, V, T, box_offset=None):
    """augmented_rollout with a fresh S, gate buffer and moves per call and
    the per-step views made by its loops."""
    M, Ur, Mxi, Ka = step.cell[0], step.cell[3], step.Mxi, step.Ka
    p, n = step.Uo.shape
    Nv = len(V)
    rows = xa0.shape[:-1]
    S = np.empty((T + 1, 1 + p + n + p) + rows)
    S[:, 0] = 1.0
    S[0, 1 + p:] = xa0.T
    gates = np.empty((T, 3 * n) + rows)
    moves = np.empty((T, p) + rows)
    U, X, XI = S[:, 1:1 + p], S[:, 1 + p:1 + p + n], S[:, 1 + p + n:]
    if Nv:
        moves[:Nv] = V
    if T > Nv:
        U[Nv:T] = 0.0
    steps = (S[:T], S[:T, :1 + p + n], X[:T], gates, gates[:, :2 * n], gates[:, :n],
             gates[:, n:2 * n], gates[:, 2 * n:], X[1:], XI[1:])
    for s, g, x, a, zf, z, f, r, x1, xi1, u, xi, v in zip(
            *(A[:Nv] for A in steps), U, XI, moves):
        if box_offset is not None:
            np.clip(v, -1.0 - (xi + box_offset), 1.0 - (xi + box_offset), v)
        np.add(v, xi, u)
        kernels._cell_step(g, x, M, Ur, a, zf, z, f, r, x1)
        np.dot(Mxi, s, xi1)
    for s, g, x, a, zf, z, f, r, x1, xi1, u in zip(*(A[Nv:] for A in steps), U[Nv:]):
        np.dot(Ka, s, u)
        kernels._cell_step(g, x, M, Ur, a, zf, z, f, r, x1)
        np.dot(Mxi, s, xi1)
    if T > Nv:
        np.subtract(U[Nv:T], XI[Nv:T], moves[Nv:])
    return (S[:, 1 + p:].swapaxes(1, -1), moves.swapaxes(1, -1),
            tuple(A.swapaxes(1, -1) for A in (U[:T], gates[:, :n],
                                               gates[:, n:2 * n], gates[:, 2 * n:])))


def fresh_cell_jacobians(x, u, z, f, r, M, G, Wr, Ur):
    """cell_jacobians with every intermediate a fresh temporary."""
    n, m = x.shape[-1], u.shape[-1]

    def diag(A):
        return A.reshape(A.shape[:-2] + (-1,))[..., m::n + m + 1]

    Y = (x * f * (1.0 - f))[..., None] * G[n:]
    diag(Y)[...] += f
    J = Ur @ Y
    J[..., :m] += Wr
    J *= ((1.0 - z) * (1.0 - r * r))[..., None]
    J += ((x - r) * z * (1.0 - z))[..., None] * G[:n]
    diag(J)[...] += z
    return J[..., m:], J[..., :m]


def fresh_tangent(step, XA, cache, Nc):
    """augmented_tangent with zero-filled AB and W in every call."""
    p, n = step.Uo.shape
    na, D = n + p, Nc * p
    K = step.law[0]
    U, Z, F, R = cache
    T = len(U)
    Jx, Ju = fresh_cell_jacobians(XA[:T, :n], U, Z, F, R, *step.cell)
    AB = np.zeros((T, na, na + p))
    AB[:, :n, :n] = Jx
    AB[:, :n, n:na] = Ju
    AB[:, n:, :na] = step.Mxi[:, 1 + p:]
    AB[:Nc, :n, na:] = Ju[:Nc]
    AB[Nc:, :n, :na] -= Ju[Nc:] @ K
    W = np.zeros((T + 1, na + p, D))
    d = np.arange(D)
    W[d // p, na + d % p, d] = 1.0
    for ab, w, dxa1 in zip(AB, W, W[1:, :na]):
        np.dot(ab, w, dxa1)
    np.matmul(-K, W[Nc:T, :na], out=W[Nc:T, na:])
    return W[:, :na], W[:T, na:]


def fresh_blocks(T, na, p, Np):
    k1, k2 = T * na, T * (na + p)
    return (slice(0, k1), slice(k1, k2), slice(k2, k2 + na),
            slice(k2 + na, k2 + na + Np * p))


def fresh_box_excess(W):
    return W - np.clip(W, -1.0, 1.0), np.max(np.abs(W), initial=1.0) - 1.0


def fresh_residuals(XA, V, xi_off, xa_eq, roots, Pi, omega, Np, mu_box, mu_term):
    """The residuals r of a rollout in a fresh r, with (J_pen, J, box_viol,
    term_viol), the box excess and Pi e_Np."""
    Lq, Lr, Lf = roots
    T, p = V.shape
    na = XA.shape[1]
    E = XA - xa_eq
    over, box_viol = fresh_box_excess(XA[:Np, -p:] + xi_off + V[:Np])
    PeN = Pi @ E[Np]
    s = float(E[Np] @ PeN) - omega
    st, mv, term, box = fresh_blocks(T, na, p, Np)
    r = np.empty(box.stop + 1)
    np.matmul(E[:-1], Lq, out=r[st].reshape(T, na))
    np.matmul(V, Lr, out=r[mv].reshape(T, p))
    np.dot(E[-1], Lf, out=r[term])
    np.multiply(over, math.sqrt(mu_box), out=r[box].reshape(Np, p))
    r[-1] = math.sqrt(mu_term) * max(s, 0.0)
    cost = r[:box.start]
    return (r, (float(r @ r), float(cost @ cost), float(box_viol), max(s, 0.0)),
            over, PeN)


class Problem(NamedTuple):
    """One FHOCP's model, auxiliary law, weights and terminal radius."""
    w: gru_model.GruWeights
    consts: kernels.FhocpConstants
    K: np.ndarray
    xa_eq: np.ndarray
    y0: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Pf: np.ndarray
    omega: float

    def args(self, vflat, xa0, xi0, Nc, Np, Nf, mu_box, mu_term):
        """The 27 positional arguments of fhocp_forward(_backward)."""
        w = self.w
        return (vflat, xa0, xi0, self.y0, *w.arrays(), w.U_o, w.b_o, self.K, self.xa_eq,
                self.Q, self.R, self.Pf, self.Pf, self.omega, Nc, Np, Nf, mu_box, mu_term)


def problem_of(w, ing):
    return Problem(w, ing.consts, ing.K_lq, ing.eq.xa0, ing.eq.y0, ing.Q, ing.R, ing.P_f,
                   float(ing.omega))


def random_problem(seed, p):
    """A 5-state, p-output model with a random law, a random P_f and
    omega 1."""
    rng = np.random.default_rng(seed)
    w = scaled_certified_weights(rng, n=5, p=p, target=-0.1)
    na = 5 + p
    K = rng.normal(0.0, 0.3, (p, na))
    xa_eq, y0 = rng.uniform(-0.5, 0.5, na), rng.uniform(-0.5, 0.5, p)
    A = rng.normal(size=(na, na))
    Pf = A @ A.T + na * np.eye(na)
    Q, R = np.eye(na), np.eye(p)
    consts = kernels.fhocp_constants(
        kernels.augmented_step_matrices(w.cell, w.U_o, w.b_o, y0, (K, xa_eq)), Q, R, Pf)
    return Problem(w, consts, K, xa_eq, y0, Q, R, Pf, 1.0)


def fresh_evaluation(prob, vflat, xa0, xi0, Nc, Np, Nf, mu_box, mu_term):
    """The former fhocp_residuals: (J_pen, J, box_viol, term_viol, r, Jr, XA)."""
    step = prob.consts.step
    p, n = step.Uo.shape
    XA, V, cache = fresh_rollout(step, xa0, vflat.reshape(Nc, -1), Np + Nf)
    r, cost, over, PeN = fresh_residuals(XA, V, xi0 - xa0[n:], prob.xa_eq, prob.consts.roots,
                                         prob.Pf, prob.omega, Np, mu_box, mu_term)
    dXA, dV = fresh_tangent(step, XA, cache, Nc)
    T, p, D = dV.shape
    Lq, Lr, Lf = prob.consts.roots
    st, mv, term, box = fresh_blocks(T, n + p, p, Np)
    Jr = np.empty((len(r), D))
    np.matmul(Lq.T, dXA[:T], out=Jr[st].reshape(T, n + p, D))
    np.matmul(Lr.T, dV, out=Jr[mv].reshape(T, p, D))
    np.dot(Lf.T, dXA[T], out=Jr[term])
    Jr[box] = 0.0
    i, j = np.nonzero(over)
    if len(i):
        Jr[box][i * p + j] = math.sqrt(mu_box) * (dXA[i, n + j] + dV[i, j])
    Jr[-1] = math.sqrt(mu_term) * (2.0 * (PeN @ dXA[Np])) if cost[3] > 0.0 else 0.0
    return (*cost, r, Jr, XA[:Np + 1])


def fresh_forward_backward(*args):
    Jp, J, box_viol, term_viol, r, Jr, XA = fresh_evaluation(*args)
    return Jp, J, 2.0 * (r @ Jr), box_viol, term_viol, 2.0 * (Jr.T @ Jr), XA


def fresh_clip_restore(prob, vflat, xa0, xi0, Nc, Np):
    n = prob.w.n
    xi_off = xi0 - xa0[n:]
    XA, V, _ = fresh_rollout(prob.consts.step, xa0, vflat.reshape(Nc, -1), Np,
                             box_offset=xi_off)
    _, tail_viol = fresh_box_excess(XA[Nc:Np, n:] + xi_off + V[Nc:])
    return V[:Nc].ravel(), XA, float(tail_viol)


def fresh_terminal_check(E, step, Pf, Qlq):
    xa_eq = step.law[1]
    e_next = fresh_rollout(step, xa_eq + E, (), 1)[0][1] - xa_eq
    return kernels._quad(e_next, Pf) + kernels._quad(E, Qlq - Pf)


def assert_equal_bits(got, ref):
    """Equal lengths, and every entry equal in shape and in every bit."""
    assert len(got) == len(ref)
    for k, (a, b) in enumerate(zip(got, ref)):
        assert np.shape(a) == np.shape(b), k
        assert np.array_equal(a, b), k


def exact_cases(setup, pinned):
    """(label, problem, (N_c, N_p, N_f), plan, start, integrator, penalty
    weights) of the shapes the workspace kernels must match bit for bit."""
    (w_s, ing_s), (w, ing, cfg) = setup, pinned
    desk, small = problem_of(w, ing), problem_of(w_s, ing_s)
    rng = np.random.default_rng(491)
    xa0 = ing.eq.xa0 + offset(ing, rng, 0.5)
    xi0 = xa0[w.n:] + rng.normal(0.0, 0.02, w.p)
    xs0 = ing_s.eq.xa0 + offset(ing_s, rng, 0.5)
    far = ing_s.eq.xa0 + offset(ing_s, rng, 3.0)
    p2, p1 = random_problem(493, 2), random_problem(495, 1)
    x2 = p2.xa_eq + rng.normal(0.0, 0.1, 7)
    x1 = p1.xa_eq + rng.normal(0.0, 0.1, 6)
    return [
        ("desk zero plan", desk, (cfg.N_c, cfg.N_p, cfg.N_f), np.zeros(cfg.N_c * w.p),
         xa0, xi0, (1e3, 1e3)),
        ("desk warm plan", desk, (cfg.N_c, cfg.N_p, cfg.N_f),
         rng.normal(0.0, 0.05, cfg.N_c * w.p), xa0, xi0, (1e5, 1e5)),
        ("test model", small, (N_C, N_P, N_F), rng.normal(0.0, 0.1, N_C * w_s.p),
         xs0, xs0[w_s.n:], (1e3, 1e3)),
        ("N_c = N_p", desk, (12, 12, 0), rng.normal(0.0, 0.05, 12 * w.p), xa0, xi0,
         (1e3, 1e3)),
        ("p = 2", p2, (5, 16, 3), rng.normal(0.0, 0.1, 10), x2,
         x2[5:] + rng.normal(0.0, 0.05, 2), (1e3, 1e3)),
        ("another model of the test shape", p1, (N_C, N_P, N_F),
         rng.normal(0.0, 0.1, N_C), x1, x1[5:], (1e3, 1e3)),
        ("box", desk, (cfg.N_c, cfg.N_p, cfg.N_f), rng.normal(0.0, 1.5, cfg.N_c * w.p),
         xa0, xi0, (1e3, 1e3)),
        ("terminal penalty", small._replace(omega=1e-4), (N_C, N_P, N_F),
         rng.normal(0.0, 0.02, N_C * w_s.p), far, far[w_s.n:], (30.0, 10.0)),
    ]


def test_workspace_kernels_equal_the_fresh_evaluation(setup, pinned):
    # the rollout (with its clamp), the tangent, the residuals with their
    # Jacobian, the gradient and Hessian and the objective alone, each
    # against the former evaluation that allocates every array afresh: equal
    # bit for bit, at the desk and test shapes, N_c = N_p, p = 2, for a
    # second model of one shape and with the box and terminal penalty rows
    # active
    for label, prob, (Nc, Np, Nf), vflat, xa0, xi0, mu in exact_cases(setup, pinned):
        step = prob.consts.step
        V = vflat.reshape(Nc, -1)
        XA, moves, cache = kernels.augmented_rollout(step, xa0, V, Np + Nf)
        ref = fresh_rollout(step, xa0, V, Np + Nf)
        assert_equal_bits((XA, moves) + cache, ref[:2] + ref[2])
        assert_equal_bits(kernels.augmented_tangent(step, XA, cache, Nc),
                          fresh_tangent(step, *ref[::2], Nc))
        args = (vflat, xa0, xi0, Nc, Np, Nf, *mu)
        fb = kernels.fhocp_forward_backward(*prob.args(*args), consts=prob.consts)
        assert_equal_bits(fb, fresh_forward_backward(prob, *args))
        assert_equal_bits(kernels.fhocp_residuals(*prob.args(*args), consts=prob.consts),
                          fresh_evaluation(prob, *args))
        assert_equal_bits(kernels.fhocp_forward(*prob.args(*args), consts=prob.consts),
                          fresh_evaluation(prob, *args)[:4])
        clip = kernels.fhocp_clip_restore(*prob.args(*args)[:17], Nc, Np, consts=prob.consts)
        assert_equal_bits(clip, fresh_clip_restore(prob, vflat, xa0, xi0, Nc, Np))
        if label == "box":
            assert fb[3] > 0.0 and np.any(clip[0] != vflat)
        if label == "terminal penalty":
            assert fb[4] > 0.0


@pytest.mark.parametrize("rows", [mpc.TERMINAL_BLOCK, 7, 1])
def test_terminal_samples_check_equals_the_fresh_rollout(pinned, rows):
    w, ing, cfg = pinned
    rng = np.random.default_rng(497)
    E = rng.normal(0.0, 0.05, (rows, w.n + w.p))
    for _ in range(2):
        got = kernels.terminal_samples_check(E, ing.consts.step, ing.P_f, ing.Q_lq)
        np.testing.assert_array_equal(
            got, fresh_terminal_check(E, ing.consts.step, ing.P_f, ing.Q_lq))


WORKSPACES = (kernels.rollout_workspace, kernels.tangent_workspace,
              kernels.residual_workspace)


def workspace_buffers(ws):
    """The arrays that own the memory of every array in a workspace."""
    out = []
    for a in ws:
        if isinstance(a, tuple):
            out += workspace_buffers(a)
        elif isinstance(a, np.ndarray):
            while a.base is not None:
                a = a.base
            if not any(a is b for b in out):
                out.append(a)
    return out


def test_the_fhocp_workspaces_keep_no_state_between_calls(pinned):
    # a plan's evaluation, a terminal block, a clamp that binds, a plan of
    # another horizon and the positional rollout, interleaved A, B, A after
    # plans of NaN moves:
    # every call gives the bits of a cold cache, and no result shares memory
    # with a workspace or with the result of another call
    w, ing, cfg = pinned
    prob, step, n, p = problem_of(w, ing), ing.consts.step, w.n, w.p
    rng = np.random.default_rng(499)
    xa0 = ing.eq.xa0 + offset(ing, rng, 0.5)
    xi0 = xa0[n:] + 0.1
    E = rng.normal(0.0, 0.05, (mpc.TERMINAL_BLOCK, n + p))
    plan, big, short = (rng.normal(0.0, s, k * p) for s, k in ((0.05, cfg.N_c),
                                                                (2.0, cfg.N_c), (0.05, 10)))
    calls = {
        "plan": lambda: kernels.fhocp_forward_backward(
            *prob.args(plan, xa0, xi0, cfg.N_c, cfg.N_p, 0, 1e3, 1e3), consts=prob.consts),
        "terminal block": lambda: (kernels.terminal_samples_check(E, step, ing.P_f, ing.Q_lq),),
        "clamp": lambda: kernels.fhocp_clip_restore(
            *prob.args(big, xa0, xi0, cfg.N_c, cfg.N_p, 0, 0, 0)[:17], cfg.N_c, cfg.N_p,
            consts=prob.consts),
        "other horizon": lambda: kernels.fhocp_forward_backward(
            *prob.args(short, xa0, xi0, 10, 25, 0, 1e3, 1e3), consts=prob.consts),
        "positional rollout": lambda: kernels.augmented_rollout_cached(
            xa0, plan.reshape(cfg.N_c, p), ing.eq.y0, *w.arrays(), w.U_o, w.b_o),
    }
    cold = {}
    for name, call in calls.items():
        for ws in WORKSPACES:
            ws.cache_clear()
        cold[name] = call()
    assert np.any(cold["clamp"][0] != big)
    # a plan of non-finite moves leaves NaN in every buffer it writes
    for Nc, Np in ((cfg.N_c, cfg.N_p), (10, 25)):
        assert np.isnan(kernels.fhocp_forward_backward(
            *prob.args(np.full(Nc * p, np.nan), xa0, xi0, Nc, Np, 0, 1e3, 1e3),
            consts=prob.consts)[0])
    kept = list(cold.values())
    for name in ("plan", "terminal block", "plan", "clamp", "plan", "other horizon",
                 "plan", "positional rollout", "plan", "clamp", "terminal block",
                 "other horizon", "positional rollout", "clamp"):
        kept.append(calls[name]())
        assert_equal_bits(kept[-1], cold[name])
    buffers = workspace_buffers(
        [kernels.rollout_workspace(T, Nv, n, p, rows)
         for T, Nv, rows in ((cfg.N_p, cfg.N_c, ()), (1, 0, (mpc.TERMINAL_BLOCK,)),
                             (25, 10, ()), (cfg.N_c, cfg.N_c, ()))]
        + [kernels.tangent_workspace(T, Nc, n, p) for T, Nc in ((cfg.N_p, cfg.N_c), (25, 10))]
        + [kernels.residual_workspace(T, n + p, p, T, Nc * p)
           for T, Nc in ((cfg.N_p, cfg.N_c), (25, 10))])
    assert [ws.cache_info().currsize for ws in WORKSPACES] == [4, 2, 2]
    arrays = [[a for a in res if isinstance(a, np.ndarray)] for res in kept]
    for k, res in enumerate(arrays):
        for a in res:
            assert not any(np.shares_memory(a, buf) for buf in buffers)
            assert not any(np.shares_memory(a, b) for other in arrays[k + 1:] for b in other)


def test_a_large_batch_leaves_no_rollout_workspace(pinned):
    # more rows than a terminal block (a one-off audit batch) roll in a
    # workspace of their own that is dropped afterwards
    w, ing, cfg = pinned
    E = np.random.default_rng(503).normal(0.0, 0.05, (mpc.TERMINAL_BLOCK + 1, w.n + w.p))
    before = kernels.rollout_workspace.cache_info()
    got = kernels.terminal_samples_check(E, ing.consts.step, ing.P_f, ing.Q_lq)
    after = kernels.rollout_workspace.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    np.testing.assert_array_equal(
        got, fresh_terminal_check(E, ing.consts.step, ing.P_f, ing.Q_lq))
