import dataclasses
from pathlib import Path

import numpy as np
import pytest

from grumpc import gru_model, observer
from grumpc.observer import (AugmentedState, ObserverGains,
                             ObserverSynthesisError, alpha_coefficient,
                             augmented_step, build_A_delta, certify_gains,
                             delta_margin, jury_schur_check, observer_step,
                             synthesize_gains, trivial_gains)

from conftest import scaled_certified_weights

FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixture"


def inf_norm(M):
    return np.max(np.sum(np.abs(np.atleast_2d(M)), axis=1))


def random_gains(rng, n, p, scale=0.3):
    return ObserverGains(
        L_zxi=rng.uniform(-scale, scale, (n, p)),
        L_fxi=rng.uniform(-scale, scale, (n, p)),
        L_zy=rng.uniform(-scale, scale, (n, p)),
        L_fy=rng.uniform(-scale, scale, (n, p)),
        L_xiy=rng.uniform(-scale, scale, (p, p)),
        L_xixi=rng.uniform(-scale, scale, (p, p)),
        delta=0.0)


# ---------------------------------------------------------------------------
# augmented system
# ---------------------------------------------------------------------------

def test_augmented_fixed_point_at_equilibrium():
    rng = np.random.default_rng(41)
    w = scaled_certified_weights(rng, n=4)
    # find a fixed point by rolling to convergence under constant input
    u0 = np.array([0.3])
    x = np.zeros(4)
    for _ in range(2000):
        x = gru_model.gru_step(w, x, u0)
    y0 = gru_model.gru_output(w, x)
    s = AugmentedState(x, u0)
    nxt, ya = augmented_step(w, s, np.zeros(1), y0)
    assert np.max(np.abs(nxt.stacked() - s.stacked())) < 1e-10
    np.testing.assert_allclose(ya, np.concatenate([y0, u0]))


def test_augmented_integrator_freezes_on_track():
    rng = np.random.default_rng(43)
    w = scaled_certified_weights(rng, n=3)
    s = AugmentedState(rng.uniform(-1, 1, 3), rng.uniform(-0.5, 0.5, 1))
    y_now = gru_model.gru_output(w, s.x)
    nxt, _ = augmented_step(w, s, rng.uniform(-0.1, 0.1, 1), y_now)
    np.testing.assert_allclose(nxt.xi, s.xi, atol=1e-15)


def test_augmented_step_matches_composition():
    rng = np.random.default_rng(47)
    w = scaled_certified_weights(rng, n=4)
    s = AugmentedState(rng.uniform(-1, 1, 4), rng.uniform(-0.5, 0.5, 1))
    v = rng.uniform(-0.3, 0.3, 1)
    y0 = rng.uniform(-0.5, 0.5, 1)
    nxt, ya = augmented_step(w, s, v, y0)
    np.testing.assert_allclose(nxt.x, gru_model.gru_step(w, s.x, v + s.xi),
                               atol=1e-15)
    np.testing.assert_allclose(
        nxt.xi, s.xi + y0 - gru_model.gru_output(w, s.x), atol=1e-15)
    np.testing.assert_allclose(ya[:1], gru_model.gru_output(w, s.x))
    np.testing.assert_allclose(ya[1:], s.xi)


# ---------------------------------------------------------------------------
# observer dynamics
# ---------------------------------------------------------------------------

def test_observer_zero_gains_equals_augmented_step():
    rng = np.random.default_rng(53)
    w = scaled_certified_weights(rng, n=4)
    zero = ObserverGains(np.zeros((4, 1)), np.zeros((4, 1)), np.zeros((4, 1)),
                         np.zeros((4, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                         delta=0.0)
    s = AugmentedState(rng.uniform(-1, 1, 4), rng.uniform(-0.5, 0.5, 1))
    v = rng.uniform(-0.3, 0.3, 1)
    y0 = rng.uniform(-0.3, 0.3, 1)
    true_next, _ = augmented_step(w, s, v, y0)
    y_meas = rng.uniform(-1, 1, 1)        # arbitrary measurement, gains zero
    est_next = observer_step(w, zero, AugmentedState(s.x, s.xi), v, y0,
                             y_meas, rng.uniform(-1, 1, 1))
    np.testing.assert_allclose(est_next.stacked(), true_next.stacked(),
                               atol=1e-15)


def test_observer_exact_estimate_tracks_truth_any_gains():
    rng = np.random.default_rng(59)
    w = scaled_certified_weights(rng, n=4)
    g = random_gains(rng, 4, 1)
    s = AugmentedState(rng.uniform(-1, 1, 4), rng.uniform(-0.5, 0.5, 1))
    v = rng.uniform(-0.3, 0.3, 1)
    y0 = rng.uniform(-0.3, 0.3, 1)
    true_next, ya = augmented_step(w, s, v, y0)
    est_next = observer_step(w, g, AugmentedState(s.x.copy(), s.xi.copy()),
                             v, y0, ya[:1], s.xi)
    np.testing.assert_allclose(est_next.stacked(), true_next.stacked(),
                               atol=1e-14)


def observer_step_by_hand(w, g, est, v, y0, y_meas, xi_meas):
    """The observer update with each gate written out, innovations included."""
    y_hat = w.U_o @ est.x + w.b_o
    e_y, e_xi = y_meas - y_hat, xi_meas - est.xi
    u_hat = v + est.xi

    def sig(a):
        return 1.0 / (1.0 + np.exp(-a))
    z = sig(w.W_z @ u_hat + w.U_z @ est.x + w.b_z + g.L_zxi @ e_xi + g.L_zy @ e_y)
    f = sig(w.W_f @ u_hat + w.U_f @ est.x + w.b_f + g.L_fxi @ e_xi + g.L_fy @ e_y)
    r = np.tanh(w.W_r @ u_hat + w.U_r @ (f * est.x) + w.b_r)
    return np.concatenate([z * est.x + (1.0 - z) * r,
                           est.xi + y0 - y_hat + g.L_xiy @ e_y + g.L_xixi @ e_xi])


@pytest.mark.parametrize("p", [1, 2])
def test_observer_step_equals_the_gates_written_out(p):
    # the innovations enter the cell as shifts of the z and f gate biases
    rng = np.random.default_rng(61 + p)
    n = 4
    w = scaled_certified_weights(rng, n=n, p=p)
    for _ in range(20):
        g = random_gains(rng, n, p, scale=1.0)
        est = AugmentedState(rng.uniform(-1, 1, n), rng.uniform(-0.5, 0.5, p))
        args = (rng.uniform(-0.3, 0.3, p), rng.uniform(-0.3, 0.3, p),
                rng.uniform(-1, 1, p), rng.uniform(-1, 1, p))
        got = observer_step(w, g, est, *args).stacked()
        np.testing.assert_allclose(got, observer_step_by_hand(w, g, est, *args),
                                   rtol=0, atol=1e-14)


def deadbeat_gains(w, lam=0.5):
    """Fallback gains with the integrator row copying the measured xi."""
    g = trivial_gains(w, lam)
    return ObserverGains(g.L_zxi, g.L_fxi, g.L_zy, g.L_fy,
                         -np.eye(w.p), np.eye(w.p), delta=g.delta)


def test_observer_contraction_bound_along_rollouts():
    # the certificate assumes admissible inputs (xi + v and xi_hat + v inside
    # the unit box, states inside the invariant set), which the controller
    # enforces in closed loop; the integrator estimate starts at the known
    # true value and the deadbeat row keeps it there
    rng = np.random.default_rng(61)
    for trial in range(5):
        w = scaled_certified_weights(rng, n=4, target=-0.1)
        g = deadbeat_gains(w)
        A = build_A_delta(w, g).A_delta
        assert certify_gains(w, g).passed
        for _ in range(10):
            st = AugmentedState(rng.uniform(-1, 1, 4), rng.uniform(-0.5, 0.5, 1))
            est = AugmentedState(rng.uniform(-1, 1, 4), st.xi.copy())
            y0 = rng.uniform(-0.3, 0.3, 1)
            for k in range(60):
                u_des = np.array([0.5 * np.sin(0.1 * k)])
                v = u_des - st.xi
                y = gru_model.gru_output(w, st.x)
                nxt, _ = augmented_step(w, st, v, y0)
                est_n = observer_step(w, g, est, v, y0, y, st.xi)
                assert np.max(np.abs(v + st.xi)) <= 1.0
                assert np.max(np.abs(v + est.xi)) <= 1.0
                e_now = np.array([np.max(np.abs(st.x - est.x)),
                                  np.max(np.abs(st.xi - est.xi))])
                e_next = np.array([np.max(np.abs(nxt.x - est_n.x)),
                                   np.max(np.abs(nxt.xi - est_n.xi))])
                assert np.all(e_next <= A @ e_now + 1e-12)
                st, est = nxt, est_n


# ---------------------------------------------------------------------------
# certification arithmetic
# ---------------------------------------------------------------------------

def test_alpha_zero_cases():
    rng = np.random.default_rng(67)
    w = scaled_certified_weights(rng, n=3)
    g = trivial_gains(w)
    assert alpha_coefficient(w, g) == 0.0        # L_zxi = W_z
    wz = gru_model.zero_weights(3, 1, 1)
    zero = ObserverGains(*(np.zeros((3, 1)),) * 4, np.zeros((1, 1)),
                         np.zeros((1, 1)), delta=0.0)
    assert alpha_coefficient(wz, zero) == 0.0


def test_alpha_formula_oracle():
    rng = np.random.default_rng(71)
    w = scaled_certified_weights(rng, n=4)
    g = random_gains(rng, 4, 1)
    want = 0.25 * inf_norm(w.W_z - g.L_zxi) * (
        1.0 + inf_norm(w.W_r)
        + 0.25 * inf_norm(w.U_r) * inf_norm(w.W_f - g.L_fxi))
    assert alpha_coefficient(w, g) == pytest.approx(want, rel=1e-15)


def test_delta_zero_weights_zero_gains():
    wz = gru_model.zero_weights(3, 1, 1)
    zero = ObserverGains(*(np.zeros((3, 1)),) * 4, np.zeros((1, 1)),
                         np.zeros((1, 1)), delta=0.0)
    assert delta_margin(wz, zero) == pytest.approx(1.0)


def test_delta_equals_minus_nu_for_zero_output_gains():
    rng = np.random.default_rng(73)
    for _ in range(10):
        w = gru_model.random_weights(4, 1, 1, rng)
        g = ObserverGains(rng.uniform(-1, 1, (4, 1)), rng.uniform(-1, 1, (4, 1)),
                          np.zeros((4, 1)), np.zeros((4, 1)),
                          rng.uniform(-1, 1, (1, 1)), rng.uniform(-1, 1, (1, 1)),
                          delta=0.0)
        assert delta_margin(w, g) == pytest.approx(-gru_model.diss_residual(w),
                                                   abs=1e-14)


def test_delta_formula_oracle():
    rng = np.random.default_rng(79)
    w = scaled_certified_weights(rng, n=4)
    g = random_gains(rng, 4, 1)
    gb = gru_model.gate_bounds(w)
    want = 1.0 - (inf_norm(w.U_r) * (0.25 * inf_norm(w.U_f - g.L_fy @ w.U_o)
                                     + gb.sigma_f_bar)
                  + 0.25 * (1 + gb.phi_r_bar) / (1 - gb.sigma_z_bar)
                  * inf_norm(w.U_z - g.L_zy @ w.U_o))
    assert delta_margin(w, g) == pytest.approx(want, rel=1e-15)


def test_A_delta_structure():
    rng = np.random.default_rng(83)
    w = scaled_certified_weights(rng, n=4)
    ed = build_A_delta(w, trivial_gains(w, lam=0.4))
    assert ed.A_delta[0, 0] == pytest.approx(1.0 - ed.delta)
    assert ed.A_delta[0, 1] == 0.0                       # alpha = 0
    assert ed.A_delta[1, 1] == pytest.approx(0.6)        # |1 - lam|
    assert ed.spectral_radius == pytest.approx(max(1.0 - ed.delta, 0.6))

    wz = gru_model.zero_weights(3, 1, 1)
    zero = ObserverGains(*(np.zeros((3, 1)),) * 4, np.zeros((1, 1)),
                         np.zeros((1, 1)), delta=0.0)
    edz = build_A_delta(wz, zero)
    np.testing.assert_allclose(edz.A_delta, [[0.0, 0.0], [0.0, 1.0]])
    assert not jury_schur_check(edz.A_delta)


def test_jury_hand_cases():
    assert jury_schur_check([[0.5, 0.0], [0.3, 0.5]])
    assert not jury_schur_check([[1.0, 0.0], [0.0, 0.2]])


def test_jury_matches_eigenvalue_oracle():
    rng = np.random.default_rng(89)
    agree = 0
    for k in range(1000):
        if k % 3 == 0:
            # near-boundary cases: scale a random matrix to |eig| around 1
            A = rng.uniform(-1, 1, (2, 2))
            r = np.max(np.abs(np.linalg.eigvals(A)))
            if r > 0:
                A *= rng.uniform(0.99, 1.01) / r
        else:
            A = rng.uniform(-2, 2, (2, 2))
        want = bool(np.max(np.abs(np.linalg.eigvals(A))) < 1.0)
        assert jury_schur_check(A) == want
        agree += 1
    assert agree == 1000


# ---------------------------------------------------------------------------
# gain synthesis
# ---------------------------------------------------------------------------

def test_trivial_gains_always_certify():
    rng = np.random.default_rng(97)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        w = scaled_certified_weights(rng, n=n, target=float(rng.uniform(-0.3, -0.02)))
        rep = certify_gains(w, trivial_gains(w, lam=float(rng.uniform(0.1, 0.9))))
        assert rep.passed, rep.reason


def test_trivial_gains_require_certificate():
    rng = np.random.default_rng(101)
    w = gru_model.random_weights(4, 1, 1, rng, scale=2.0)
    assert gru_model.diss_residual(w) > 0
    with pytest.raises(ObserverSynthesisError):
        trivial_gains(w)


def test_trivial_gains_spectral_radius():
    rng = np.random.default_rng(103)
    w = scaled_certified_weights(rng, n=4, target=-0.2)
    g = trivial_gains(w, lam=0.5)
    ed = build_A_delta(w, g)
    assert ed.spectral_radius == pytest.approx(max(1 - ed.delta, 0.5))
    assert ed.spectral_radius < 1.0


# ||A_delta||_2 reached on the same five models by the multistart
# Nelder-Mead search (two starts, maxiter 4000) the closed form replaced
NELDER_MEAD_NORMS = (0.6186781999960436, 0.8079641188153596,
                     0.8191803222177025, 0.7377615485102867,
                     0.8629809744600517)


def test_synthesis_beats_or_matches_fallback():
    rng = np.random.default_rng(107)
    for nm_norm in NELDER_MEAD_NORMS:
        w = scaled_certified_weights(rng, n=4, target=-0.1)
        base = certify_gains(w, trivial_gains(w)).spectral_norm
        g = synthesize_gains(w)
        rep = certify_gains(w, g)
        assert rep.passed
        assert rep.spectral_norm <= base + 1e-12
        assert rep.spectral_norm <= nm_norm + 1e-9


def row_l1(M, L, U_o):
    return np.sum(np.abs(M - L @ U_o), axis=1)


def test_l1_row_fit_p1_is_the_least_breakpoint():
    # a one-variable l1 minimum sits at a breakpoint M[i, j] / U_o[j]
    rng = np.random.default_rng(131)
    cases = []
    for _ in range(40):
        n = int(rng.integers(1, 9))
        U_o = rng.normal(size=(1, n))
        U_o[0, rng.random(n) < 0.3] = 0.0
        cases.append((rng.normal(size=(5, n)), U_o))
    # tied ratios (rows 0 and 1), an even weight split (row 2) and a row
    # living only on the zero column of U_o (row 3)
    cases.append((np.array([[1.0, -2.0, 0.5, 3.0, 2.5],
                            [2.0, -4.0, 1.0, -1.0, 5.0],
                            [0.0, 0.0, 0.0, 0.0, 2.5],
                            [0.0, 0.0, 0.0, 7.0, 0.0]]),
                  np.array([[1.0, 1.0, 0.5, 0.0, 2.5]])))
    cases.append((rng.normal(size=(3, 4)), np.zeros((1, 4))))
    for M, U_o in cases:
        L = observer.l1_row_fit(M, U_o)
        assert L.shape == (len(M), 1)
        nz = U_o[0] != 0.0
        if not nz.any():
            np.testing.assert_array_equal(L, 0.0)
            continue
        got = row_l1(M, L, U_o)
        for i, row in enumerate(M):
            brute = min(np.sum(np.abs(row - b * U_o[0]))
                        for b in row[nz] / U_o[0, nz])
            assert got[i] <= brute * (1.0 + 1e-14), (i, got[i], brute)
    np.testing.assert_array_equal(
        observer.l1_row_fit(cases[-2][0][:2], cases[-2][1]), [[1.0], [2.0]])


def test_l1_row_fit_lp_path_for_two_outputs():
    rng = np.random.default_rng(137)
    for _ in range(3):
        w = scaled_certified_weights(rng, n=5, p=2, target=-0.1)
        g = synthesize_gains(w)
        rep = certify_gains(w, g)
        assert rep.passed and g.delta == rep.delta
        assert rep.spectral_norm <= certify_gains(w, trivial_gains(w)).spectral_norm
        M = np.vstack([w.U_z, w.U_f])
        L = np.vstack([g.L_zy, g.L_fy])
        best = row_l1(M, L, w.U_o)
        lsq = np.linalg.lstsq(w.U_o.T, M.T, rcond=None)[0].T
        assert np.all(best <= row_l1(M, lsq, w.U_o) + 1e-12)
        for scale in (1e-6, 1e-4, 1e-2, 1e-1):
            for _ in range(25):
                trial = L + scale * rng.standard_normal(L.shape)
                assert np.all(best <= row_l1(M, trial, w.U_o) + 1e-12)


def test_synthesis_on_the_pinned_model():
    w = gru_model.load_weights(FIXTURE / "weights.json")
    pinned = certify_gains(w, observer.load_gains(FIXTURE / "gains.json"))
    assert pinned.spectral_norm == pytest.approx(0.9811273432, abs=1e-10)
    g = synthesize_gains(w)
    rep = certify_gains(w, g)
    assert rep.passed and g.delta == rep.delta
    assert rep.delta == pytest.approx(0.0189080274, abs=1e-9)
    np.testing.assert_array_equal(rep.A_delta, [[1.0 - rep.delta, 0.0],
                                                [0.0, 0.0]])
    assert rep.spectral_norm <= pinned.spectral_norm


def test_no_certified_perturbation_has_a_smaller_norm():
    w = gru_model.load_weights(FIXTURE / "weights.json")
    g = synthesize_gains(w)
    best = certify_gains(w, g).spectral_norm
    rng = np.random.default_rng(139)
    certified = 0
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-6.0, -1.0)
        # perturb a random nonempty subset of the gain matrices
        names = [f for f in observer.GAIN_FIELDS if rng.random() < 0.5]
        names = names or [observer.GAIN_FIELDS[rng.integers(6)]]
        trial = dataclasses.replace(g, **{
            f: getattr(g, f) + scale * rng.standard_normal(getattr(g, f).shape)
            for f in names})
        rep = certify_gains(w, trial)
        if rep.passed:
            certified += 1
            assert rep.spectral_norm >= best - 1e-15
    assert certified > 1000


def test_synthesis_rejects_uncertified_model():
    rng = np.random.default_rng(109)
    w = gru_model.random_weights(3, 1, 1, rng, scale=2.0)
    with pytest.raises(ObserverSynthesisError):
        synthesize_gains(w)


def test_error_decay_below_tolerance():
    rng = np.random.default_rng(113)
    w = scaled_certified_weights(rng, n=4, target=-0.15)
    g = synthesize_gains(w)
    st = AugmentedState(np.zeros(4), np.zeros(1))
    est = AugmentedState(rng.uniform(-1, 1, 4), st.xi.copy())
    y0 = np.array([0.1])
    err = None
    for k in range(500):
        u_des = np.array([0.5 * np.sin(0.05 * k)])
        v = u_des - st.xi
        y = gru_model.gru_output(w, st.x)
        nxt, _ = augmented_step(w, st, v, y0)
        est = observer_step(w, g, est, v, y0, y, st.xi)
        st = nxt
        err = np.max(np.abs(st.stacked() - est.stacked()))
    assert err < 1e-6


def test_gain_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(127)
    w = scaled_certified_weights(rng, n=4)
    g = synthesize_gains(w)
    path = tmp_path / "gains.json"
    observer.save_gains(g, w, path)
    g2 = observer.load_gains(path)
    for name in observer.GAIN_FIELDS:
        assert np.array_equal(getattr(g, name), getattr(g2, name)), name
    assert g2.delta == g.delta
    # re-saving the pinned benchmark gains writes the same bytes
    fixture = Path(__file__).resolve().parent.parent / "perfbench" / "fixture"
    resaved = tmp_path / "resaved.json"
    observer.save_gains(observer.load_gains(fixture / "gains.json"),
                        gru_model.load_weights(fixture / "weights.json"), resaved)
    assert resaved.read_bytes() == (fixture / "gains.json").read_bytes()
