"""The shooting kernels against slow references.

The references are written step by step on top of observer.augmented_step
and the auxiliary law v = -K (xa - xa_eq), with the costs summed explicitly,
so that a kernel and its reference share no code beyond the GRU cell.
"""

from pathlib import Path

import numpy as np
import pytest

from grumpc import gru_model, harness, kernels, mpc, observer, sysid
from grumpc.observer import AugmentedState

from conftest import scaled_certified_weights

N_C, N_P, N_F = 6, 15, 30


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(401)
    w = scaled_certified_weights(rng, n=5, target=-0.1)
    y_lo = gru_model.gru_output(w, mpc.steady_state(w, [-1.0]))[0]
    y_hi = gru_model.gru_output(w, mpc.steady_state(w, [1.0]))[0]
    na = w.n + 1
    ing = mpc.build_ingredients(w, [0.5 * (y_lo + y_hi)], np.eye(na), np.eye(1),
                                10 * np.eye(na), 0.01, N_f=N_F, n_samples=256,
                                audit_factor=2)
    return w, ing


def offset(ing, rng, level):
    """Deviation from the equilibrium with |e|_Pi^2 = level * omega."""
    e = rng.normal(size=ing.eq.xa0.size)
    return e * np.sqrt(level * ing.omega / (e @ ing.Pi @ e))


def problem_args(w, ing):
    return ((*w.arrays(), w.U_o, w.b_o),
            (np.ascontiguousarray(ing.K_lq), ing.eq.xa0,
             np.ascontiguousarray(ing.Q), np.ascontiguousarray(ing.R),
             np.ascontiguousarray(ing.Q_lq), np.ascontiguousarray(ing.Pi),
             float(ing.omega)))


def forward(w, ing, vflat, xa0, xi0, mu_box, mu_term, Nf=N_F, omega=None):
    model, prob = problem_args(w, ing)
    if omega is not None:
        prob = prob[:-1] + (omega,)
    return kernels.fhocp_forward(vflat, xa0, xi0, ing.eq.y0, *model, *prob,
                                 N_C, N_P, Nf, mu_box, mu_term)


def forward_backward(w, ing, vflat, xa0, xi0, mu_box, mu_term, omega=None):
    model, prob = problem_args(w, ing)
    if omega is not None:
        prob = prob[:-1] + (omega,)
    return kernels.fhocp_forward_backward(vflat, xa0, xi0, ing.eq.y0, *model,
                                          *prob, N_C, N_P, N_F, mu_box, mu_term)


def reference_fhocp(w, ing, vflat, xa0, xi0, mu_box, mu_term, Nf=N_F, omega=None,
                    Nc=N_C, Np=N_P):
    """Step-by-step rollout over N_p + N_f steps with explicit cost sums.

    Returns (states, moves, J_pen, J, box_viol, term_viol).
    """
    n = w.n
    omega = ing.omega if omega is None else omega
    V = vflat.reshape(Nc, w.p)
    s = AugmentedState(xa0[:n].copy(), xa0[n:].copy())
    xit = xi0.copy()
    states, moves = [s.stacked()], []
    J = pen = box_viol = term_viol = 0.0
    for i in range(Np + Nf):
        if i == Np:
            eN = s.stacked() - ing.eq.xa0
            term = eN @ ing.Pi @ eN - omega
            term_viol = max(term, 0.0)
            pen += mu_term * term_viol ** 2
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
    return np.array(states), np.array(moves), J + pen, J, box_viol, term_viol


def test_fhocp_forward_matches_stepwise_reference(setup):
    w, ing = setup
    rng = np.random.default_rng(403)
    # inactive penalties, then both penalties active (large moves, a tight
    # terminal radius)
    for level, scale, mu, omega in ((0.3, 0.02, 0.0, None), (3.0, 1.5, 50.0, 1e-4)):
        xa0 = ing.eq.xa0 + offset(ing, rng, level)
        xi0 = xa0[w.n:] + rng.normal(0.0, 0.05, w.p)
        vflat = rng.normal(0.0, scale, N_C * w.p)
        ref = reference_fhocp(w, ing, vflat, xa0, xi0, mu, 2 * mu, omega=omega)
        got = forward(w, ing, vflat, xa0, xi0, mu, 2 * mu, omega=omega)
        np.testing.assert_allclose(got[:4], ref[2:], rtol=0, atol=1e-12)
        assert got[4] == N_F          # the tail has not converged: it runs to the cap
        if mu:
            assert ref[4] > 0 and ref[5] > 0      # both penalties active


def reference_gradient(w, ing, states, moves, xi0, mu_box, mu_term, omega, Nc, Np):
    """Reverse pass over a reference rollout, step by step, built on
    gru_model.jacobians instead of the kernels' cell VJP."""
    n, p = w.n, w.p
    xi_off = xi0 - states[0, n:]
    lam = np.zeros(n + p)                    # the last state carries no cost
    grad = np.empty((Nc, p))
    for i in range(len(moves) - 1, -1, -1):
        e, v = states[i] - ing.eq.xa0, moves[i]
        gx = 2.0 * (ing.Q if i < Nc else ing.Q_lq) @ e
        gv = 2.0 * ing.R @ v if i < Nc else np.zeros(p)
        if i < Np:
            wbox = states[i, n:] + xi_off + v
            over = 2.0 * mu_box * (wbox - np.clip(wbox, -1.0, 1.0))
            gx[n:] += over
            gv = gv + over
        if i == Np:
            s = e @ ing.Pi @ e - omega
            if s > 0:
                gx += 4.0 * mu_term * s * (ing.Pi @ e)
        Jx, Ju, _ = gru_model.jacobians(w, states[i, :n], v + states[i, n:])
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


def test_converged_tail_matches_full_length_reference(pinned):
    # N_f = 1000 caps a tail that stops after about a hundred steps; value
    # and gradient equal those of the full-length rollout to 1e-12 relative
    w, ing, cfg = pinned
    Nc, Np, Nf = cfg.N_c, cfg.N_p, cfg.N_f
    assert Nf == 1000
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
        if mu:
            assert ref[2] > 0 and ref[3] > 0      # both penalties active
        else:
            assert ref[2] <= 0 and ref[3] <= 0
        ref_grad = reference_gradient(w, ing, states, moves, xi0, mu, 2 * mu,
                                      omega, Nc, Np)
        got = kernels.fhocp_forward(*args)
        Jp, J, grad, bviol, tviol, tail = kernels.fhocp_forward_backward(*args)
        assert 50 < got[4] == tail < 200
        np.testing.assert_allclose(got[:2], ref[:2], rtol=1e-12, atol=0)
        np.testing.assert_allclose((Jp, J), ref[:2], rtol=1e-12, atol=0)
        assert (got[2], got[3]) == (bviol, tviol)
        np.testing.assert_allclose((bviol, tviol), ref[2:], rtol=1e-12, atol=1e-15)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


def test_vf_rollout_tail_runs_to_the_cap_unless_converged(setup):
    w, ing = setup
    rng = np.random.default_rng(439)
    xa = ing.eq.xa0 + offset(ing, rng, 0.5)
    cellp = kernels.stack_gates(*w.arrays())

    def steps(cap):
        XA, _, _ = kernels.augmented_rollout(cellp, w.U_o, w.b_o, ing.eq.y0, xa, (),
                                             (ing.K_lq, ing.eq.xa0), cap,
                                             tail=(0, ing.Q_lq))
        return len(XA) - 1

    converged = steps(5000)
    assert N_F < converged < 5000
    assert steps(N_F) == N_F and steps(converged + 1) == converged


def test_augmented_rollout_matches_stepwise_reference(setup):
    w, ing = setup
    rng = np.random.default_rng(409)
    xa0 = ing.eq.xa0 + offset(ing, rng, 0.5)
    vflat = rng.normal(0.0, 0.1, N_C * w.p)
    states, moves, *_ = reference_fhocp(w, ing, vflat, xa0, xa0[w.n:], 0.0, 0.0)
    XA, _, _, _ = kernels.augmented_rollout_cached(
        xa0, moves[:N_P], ing.eq.y0, *w.arrays(), w.U_o, w.b_o)
    np.testing.assert_allclose(XA, states[:N_P + 1], rtol=0, atol=1e-12)
    v_out, xaN, tail_viol = kernels.fhocp_clip_restore(
        vflat, xa0, xa0[w.n:], ing.eq.y0, *w.arrays(), w.U_o, w.b_o,
        np.ascontiguousarray(ing.K_lq), ing.eq.xa0, N_C, N_P)
    np.testing.assert_array_equal(v_out, vflat)      # inside the box: no clamp
    np.testing.assert_allclose(xaN, states[N_P], rtol=0, atol=1e-12)
    assert tail_viol == 0.0
    vf = kernels.vf_rollout(states[N_P], ing.eq.y0, np.ascontiguousarray(ing.K_lq),
                            ing.eq.xa0, np.ascontiguousarray(ing.Q_lq), N_F,
                            *w.arrays(), w.U_o, w.b_o)
    E = states[N_P:-1] - ing.eq.xa0
    assert vf == pytest.approx(np.einsum("ij,jk,ik->", E, ing.Q_lq, E),
                               rel=0, abs=1e-12)


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
    _, _, bviol, _, _ = forward(w, ing, v_out, xa0, xi0, 0.0, 0.0)
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
    Jp, _, grad, bviol, tviol, tail = forward_backward(w, ing, vflat, xa0, xi0,
                                                       mu_box, mu_term, omega)
    assert tail == N_F
    assert (bviol > 0 and tviol > 0) if active else (bviol <= 0 and tviol <= 0)
    h = 1e-6
    fd = np.empty_like(vflat)
    for j in range(vflat.size):
        dv = np.zeros_like(vflat)
        dv[j] = h
        fd[j] = (forward(w, ing, vflat + dv, xa0, xi0, mu_box, mu_term, omega=omega)[0]
                 - forward(w, ing, vflat - dv, xa0, xi0, mu_box, mu_term, omega=omega)[0]
                 ) / (2 * h)
    assert Jp == forward(w, ing, vflat, xa0, xi0, mu_box, mu_term, omega=omega)[0]
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-7 * np.max(np.abs(fd)))


def test_terminal_samples_check_matches_per_row_reference(setup):
    w, ing = setup
    rng = np.random.default_rng(431)
    n, na = w.n, w.n + w.p
    # several blocks and a partial one, scaled around the accepted radius
    E = rng.normal(size=(4096 + 1000, na))
    E *= np.sqrt(ing.omega * rng.uniform(0.0, 2.0, len(E))
                 / np.einsum("ij,jk,ik->i", E, ing.Pi, E))[:, None]
    over, lhs = kernels.terminal_samples_check(
        E, np.ascontiguousarray(ing.K_lq), ing.eq.xa0, ing.eq.y0,
        np.ascontiguousarray(ing.Pi), ing.gamma, *w.arrays(), w.U_o, w.b_o)
    ref_over, ref_lhs = np.empty(len(E)), np.empty(len(E))
    for k, e in enumerate(E):
        xa = ing.eq.xa0 + e
        v = -(ing.K_lq @ e)
        ref_over[k] = np.max(np.abs(xa[n:] + v)) - 1.0
        nxt, _ = observer.augmented_step(w, AugmentedState(xa[:n], xa[n:]), v,
                                         ing.eq.y0)
        en = nxt.stacked() - ing.eq.xa0
        ref_lhs[k] = en @ ing.Pi @ en - e @ ing.Pi @ e + ing.gamma * (e @ e)
    np.testing.assert_allclose(over, ref_over, rtol=0, atol=1e-12)
    np.testing.assert_allclose(lhs, ref_lhs, rtol=0, atol=1e-12)


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
    rows_vjp = kernels.cell_vjp(L, X, U, *rows[1:], *cellp)
    for k in range(len(X)):
        one = kernels.cell(X[k], U[k], *cellp)
        one_vjp = kernels.cell_vjp(L[k], X[k], U[k], *one[1:], *cellp)
        for a, b in zip(one + one_vjp, rows + rows_vjp):
            np.testing.assert_allclose(a, b[k], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(kernels.gru_cell(X[0], U[0], *w.arrays()),
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


def test_sigmoid_stable_at_extremes():
    a = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
    out = kernels.logistic(a)
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 or out[0] < 1e-300
    assert out[-1] == 1.0
    assert out[2] == 0.5
