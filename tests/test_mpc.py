import inspect
from pathlib import Path

import numpy as np
import pytest

from grumpc import gru_model, harness, kernels, mpc, observer, sysid
from grumpc.mpc import (ControllerConfig, UnreachableReferenceError,
                        build_ingredients, check_design_assumptions,
                        find_equilibrium, linearize_augmented, lq_gain,
                        lyapunov_Pi, reference_filter, steady_state,
                        terminal_set_radius, fhocp_solve)
from grumpc.observer import AugmentedState

from conftest import scaled_certified_weights, scipy_modules_after, zero_weights


@pytest.fixture(scope="module")
def small_model():
    rng = np.random.default_rng(201)
    return scaled_certified_weights(rng, n=5, target=-0.1)


SMALL_CFG = ControllerConfig(terminal_samples=2560)
FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixture"


@pytest.fixture(scope="module")
def small_setup(small_model):
    w = small_model
    y_lo = gru_model.gru_output(w, steady_state(w, [-1.0]))[0]
    y_hi = gru_model.gru_output(w, steady_state(w, [1.0]))[0]
    y_mid = 0.5 * (y_lo + y_hi)
    eq = find_equilibrium(w, [y_mid])
    ing = build_ingredients(w, [y_mid], SMALL_CFG)
    return w, eq, ing, (y_lo, y_hi)


# ---------------------------------------------------------------------------
# equilibrium
# ---------------------------------------------------------------------------

def test_equilibrium_recovers_simulated_fixed_point(small_model):
    w = small_model
    u0 = np.array([0.4])
    x0 = steady_state(w, u0)
    y0 = gru_model.gru_output(w, x0)
    eq = find_equilibrium(w, y0)
    assert np.max(np.abs(eq.x0 - x0)) < 1e-8
    assert np.max(np.abs(eq.u0 - u0)) < 1e-8
    # fixed-point residuals
    assert np.max(np.abs(gru_model.gru_step(w, eq.x0, eq.u0) - eq.x0)) < 1e-10
    assert np.max(np.abs(gru_model.gru_output(w, eq.x0) - eq.y0)) < 1e-10


def test_equilibrium_unreachable_reference(small_model):
    w = small_model
    y_lo = gru_model.gru_output(w, steady_state(w, [-1.0]))[0]
    y_hi = gru_model.gru_output(w, steady_state(w, [1.0]))[0]
    below = min(y_lo, y_hi) - 0.5 * abs(y_hi - y_lo) - 0.1
    with pytest.raises(UnreachableReferenceError):
        find_equilibrium(w, [below])


def test_equilibrium_augmented_forms(small_setup):
    w, eq, _, _ = small_setup
    np.testing.assert_allclose(eq.xa0, np.concatenate([eq.x0, eq.u0]))
    assert np.max(np.abs(eq.u0)) <= 1.0


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

def test_linearize_zero_weight_blocks():
    w = zero_weights(3, 1, 1)
    eq = mpc.Equilibrium(x0=np.zeros(3), u0=np.zeros(1), y0=np.zeros(1))
    lin = linearize_augmented(w, eq)
    np.testing.assert_allclose(lin.A_a[:3, :3], 0.5 * np.eye(3), atol=1e-15)
    np.testing.assert_allclose(lin.A_a[:3, 3:], 0.0, atol=1e-15)
    np.testing.assert_allclose(lin.C_a[1], [0, 0, 0, 1.0])


def test_linearize_matches_finite_differences(small_setup):
    w, eq, _, _ = small_setup
    lin = linearize_augmented(w, eq)
    na = w.n + 1

    def phi_a(xa, v):
        s = AugmentedState(xa[:w.n], xa[w.n:])
        nxt, _ = observer.augmented_step(w, s, v, eq.y0)
        return nxt.stacked()

    eps = 1e-6
    fd_A = np.empty((na, na))
    xa0 = eq.xa0
    for j in range(na):
        e = np.zeros(na); e[j] = eps
        fd_A[:, j] = (phi_a(xa0 + e, np.zeros(1))
                      - phi_a(xa0 - e, np.zeros(1))) / (2 * eps)
    fd_B = ((phi_a(xa0, np.array([eps])) - phi_a(xa0, np.array([-eps])))
            / (2 * eps)).reshape(na, 1)
    assert np.max(np.abs(lin.A_a - fd_A)) < 1e-5
    assert np.max(np.abs(lin.B_a - fd_B)) < 1e-5


def test_design_assumption_diagnostics(small_setup):
    w, eq, _, _ = small_setup
    lin = linearize_augmented(w, eq)
    rep = check_design_assumptions(lin)
    assert rep.passed, rep.margins

    # scalar stable embedded system passes
    simple = mpc.LinearizedAugmented(
        A_a=np.array([[0.5, 1.0], [-1.0, 1.0]]),
        B_a=np.array([[1.0], [0.0]]),
        C_a=np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert check_design_assumptions(simple).passed

    # no input authority: stabilizability must fail
    broken = mpc.LinearizedAugmented(A_a=simple.A_a,
                                     B_a=np.zeros((2, 1)), C_a=simple.C_a)
    rep2 = check_design_assumptions(broken)
    assert not rep2.stabilizable
    assert not rep2.passed


# ---------------------------------------------------------------------------
# LQ ingredients
# ---------------------------------------------------------------------------

def test_lq_gain_scalar_closed_form():
    lin = mpc.LinearizedAugmented(A_a=np.array([[0.5]]), B_a=np.array([[1.0]]),
                                  C_a=np.array([[1.0]]))
    K, P = lq_gain(lin, np.eye(1), np.eye(1))
    want_P = (0.25 + np.sqrt(4.0625)) / 2.0
    want_K = 0.5 * want_P / (1.0 + want_P)
    assert P[0, 0] == pytest.approx(1.132782, abs=1e-6)
    assert K[0, 0] == pytest.approx(0.265565, abs=1e-6)
    assert P[0, 0] == pytest.approx(want_P, abs=1e-12)
    assert K[0, 0] == pytest.approx(want_K, abs=1e-12)


def test_lq_gain_no_authority_needed():
    lin = mpc.LinearizedAugmented(A_a=np.array([[0.8]]), B_a=np.array([[0.0]]),
                                  C_a=np.array([[1.0]]))
    K, P = lq_gain(lin, np.eye(1), np.eye(1))
    assert K[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert P[0, 0] == pytest.approx(1.0 / (1.0 - 0.64), abs=1e-10)


def test_lq_gain_matches_scipy_dare(small_setup):
    from scipy.linalg import solve_discrete_are
    w, eq, ing, _ = small_setup
    lin = linearize_augmented(w, eq)
    na = w.n + 1
    Q, R = np.eye(na), np.eye(1)
    K, P = lq_gain(lin, Q, R)
    P_ref = solve_discrete_are(lin.A_a, lin.B_a, Q, R)
    assert np.max(np.abs(P - P_ref)) / np.max(np.abs(P_ref)) < 1e-13
    cl = np.max(np.abs(np.linalg.eigvals(lin.A_a - lin.B_a @ K)))
    assert cl < 1.0 - 1e-6


def fixed_point_lq_gain(lin, Q, R, tol=1e-12, max_iter=200000):
    """The fixed-point Riccati iteration lq_gain ran before the doubling:
    the reference its K and P are held to."""
    A, B = lin.A_a, lin.B_a
    P = Q.copy()
    for _ in range(max_iter):
        BtP = B.T @ P
        K = np.linalg.solve(R + BtP @ B, BtP @ A)
        P_next = Q + A.T @ P @ (A - B @ K)
        res = np.max(np.abs(P_next - P))
        P = 0.5 * (P_next + P_next.T)
        if res < tol:
            break
    else:
        raise AssertionError("reference Riccati iteration did not converge")
    BtP = B.T @ P
    return np.linalg.solve(R + BtP @ B, BtP @ A), P


def series_lyapunov_Pi(lin, K_lq, Q_tilde, tol=1e-14):
    """The doubling series lyapunov_Pi ran before the shared doubling: the
    reference its Pi equals bit for bit."""
    Acl = lin.A_a - lin.B_a @ K_lq
    Pi = Q_tilde.copy()
    M = Acl.copy()
    for _ in range(200):
        inc = M.T @ Pi @ M
        Pi = Pi + inc
        if np.max(np.abs(inc)) < tol * max(1.0, np.max(np.abs(Pi))):
            break
        M = M @ M
    return 0.5 * (Pi + Pi.T)


def scalar_lin(a, b):
    return mpc.LinearizedAugmented(A_a=np.array([[a]]), B_a=np.array([[b]]),
                                   C_a=np.array([[1.0]]))


@pytest.fixture(scope="module")
def pinned_linearizations():
    """The pinned model's augmented linearization at pH 6.5 to 8.0 in steps
    of 0.05, the setpoints of tests/terminal_audit.py."""
    w = gru_model.load_weights(FIXTURE / "weights.json")
    nmap = sysid.NormalizationMap.load(FIXTURE / "normalization.json")
    return [linearize_augmented(w, find_equilibrium(w, nmap.normalize_y([ph])))
            for ph in np.round(np.arange(6.5, 8.0 + 1e-9, 0.05), 2)]


def riccati_cases(small_setup, pinned_linearizations):
    """(lin, Q, R, Q_tilde) of the small model, the scalar systems and the
    pinned model at every audit setpoint, with the desk weights."""
    w, eq, _, _ = small_setup
    cases = [(linearize_augmented(w, eq), np.eye(w.n + 1), np.eye(1),
              SMALL_CFG.q_tilde_weight * np.eye(w.n + 1))]
    cases += [(scalar_lin(a, b), np.eye(1), np.eye(1), np.array([[2.5]]))
              for a, b in ((0.5, 1.0), (0.8, 0.0), (0.5, 0.0), (0.0, 0.0), (1.5, 1.0))]
    ctl = ControllerConfig()
    cases += [(lin, ctl.q_weight * np.eye(len(lin.A_a)), ctl.r_weight * np.eye(1),
               ctl.q_tilde_weight * np.eye(len(lin.A_a)))
              for lin in pinned_linearizations]
    return cases


def test_lq_gain_matches_the_fixed_point_reference(small_setup, pinned_linearizations):
    # the reference stops at a 1e-12 step of a linear iteration, up to
    # 7.2e-13 of its largest entry from SciPy's P on the small model, where
    # the doubling lies within 4e-14: K and P agree to 2e-12 of their
    # largest entries (at worst 8.1e-13 on the small model, 3.7e-13 on the
    # pinned one)
    for lin, Q, R, _ in riccati_cases(small_setup, pinned_linearizations):
        K, P = lq_gain(lin, Q, R)
        K_ref, P_ref = fixed_point_lq_gain(lin, Q, R)
        assert np.max(np.abs(P - P_ref)) <= 2e-12 * np.max(np.abs(P_ref))
        assert np.max(np.abs(K - K_ref)) <= 2e-12 * np.max(np.abs(K_ref))


def test_lyapunov_Pi_equals_the_series_reference(small_setup, pinned_linearizations):
    # with G = 0 the doubling makes the series' arithmetic step for step
    for lin, Q, R, Q_tilde in riccati_cases(small_setup, pinned_linearizations):
        K = lq_gain(lin, Q, R)[0]
        np.testing.assert_array_equal(lyapunov_Pi(lin, K, Q_tilde),
                                      series_lyapunov_Pi(lin, K, Q_tilde))


@pytest.mark.parametrize("a, b, q, message", [
    (1.2, 0.0, 1.0, "non-finite"),          # no stabilizing solution
    (1e200, 1.0, 1.0, "non-finite"),        # A W^-1 A overflows
    (1.0, 0.0, 1.0, "did not converge"),    # P doubles every step
    (0.5, 1.0, np.nan, "non-finite")])
def test_riccati_failures_raise_riccati_error(a, b, q, message):
    # ingredients_for turns RiccatiError into a failed rebuild; a
    # LinAlgError would crash the loop
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(mpc.RiccatiError, match=message):
        lq_gain(scalar_lin(a, b), np.array([[q]]), np.eye(1))


def test_dare_residual(small_setup):
    w, eq, _, _ = small_setup
    lin = linearize_augmented(w, eq)
    na = w.n + 1
    Q, R = np.eye(na), np.eye(1)
    K, P = lq_gain(lin, Q, R)
    A, B = lin.A_a, lin.B_a
    res = A.T @ P @ A - P - (A.T @ P @ B) @ np.linalg.solve(
        R + B.T @ P @ B, B.T @ P @ A) + Q
    assert np.max(np.abs(res)) < 1e-10


def test_lyapunov_scalar_cases():
    lin_half = mpc.LinearizedAugmented(A_a=np.array([[0.5]]),
                                       B_a=np.array([[0.0]]),
                                       C_a=np.array([[1.0]]))
    Pi = lyapunov_Pi(lin_half, np.zeros((1, 1)), np.array([[1.0]]))
    assert Pi[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)
    lin_zero = mpc.LinearizedAugmented(A_a=np.array([[0.0]]),
                                       B_a=np.array([[0.0]]),
                                       C_a=np.array([[1.0]]))
    Pi0 = lyapunov_Pi(lin_zero, np.zeros((1, 1)), np.array([[2.5]]))
    assert Pi0[0, 0] == pytest.approx(2.5, abs=1e-14)


def margin(w, ing, q_tilde_weight=SMALL_CFG.q_tilde_weight):
    """Q_tilde and its Lyapunov matrix Pi, the margin inside P_f = P + Pi."""
    Q_tilde = q_tilde_weight * np.eye(w.n + w.p)
    return Q_tilde, lyapunov_Pi(ing.lin, ing.K_lq, Q_tilde)


def test_lyapunov_residual_and_definiteness(small_setup):
    w, eq, ing, _ = small_setup
    Q_tilde, Pi = margin(w, ing)
    Acl = ing.lin.A_a - ing.lin.B_a @ ing.K_lq
    res = Acl.T @ Pi @ Acl - Pi + Q_tilde
    assert np.max(np.abs(res)) < 1e-12
    np.linalg.cholesky(Pi)    # symmetric positive definite
    # the terminal cost P_f = P + Pi decreases by Q_lq + Q_tilde on the
    # linearization
    _, P = lq_gain(ing.lin, ing.Q, ing.R)
    np.testing.assert_array_equal(ing.P_f, P + Pi)
    res_f = Acl.T @ ing.P_f @ Acl - ing.P_f + ing.Q_lq + Q_tilde
    assert np.max(np.abs(res_f)) < 1e-10 * np.max(np.abs(ing.P_f))
    np.linalg.cholesky(ing.P_f)


def test_lyapunov_matches_scipy(small_setup):
    from scipy.linalg import solve_discrete_lyapunov
    w, eq, ing, _ = small_setup
    Q_tilde, Pi = margin(w, ing)
    Acl = ing.lin.A_a - ing.lin.B_a @ ing.K_lq
    ref = solve_discrete_lyapunov(Acl.T, Q_tilde)
    assert np.max(np.abs(Pi - ref)) / np.max(np.abs(ref)) < 1e-10


# ---------------------------------------------------------------------------
# terminal ingredients
# ---------------------------------------------------------------------------

def test_terminal_radius_shrinks_as_q_tilde_weight_falls(small_setup, monkeypatch):
    # the margin Pi inside P_f = P + Pi is what the nonlinear remainder eats
    # into: as q_tilde_weight falls the accepted set shrinks (its inscribed
    # ball, a size in a fixed metric), and with next to no margin no radius
    # passes
    w, _, ing, _ = small_setup
    monkeypatch.setattr(mpc, "OMEGA_MAX", 1e5)
    _, P = lq_gain(ing.lin, ing.Q, ing.R)
    balls = []
    for q in (1.0, 0.1, 0.01):
        P_f = P + margin(w, ing, q)[1]
        omega, _ = terminal_set_radius(ing.consts.step, P_f, ing.Q_lq,
                                       ControllerConfig(terminal_samples=768))
        balls.append(np.sqrt(omega / np.linalg.eigvalsh(P_f)[-1]))
    assert balls[0] > balls[1] > balls[2]
    with pytest.raises(mpc.TerminalSetError, match="q_tilde_weight"):
        terminal_set_radius(ing.consts.step, P + margin(w, ing, 1e-6)[1], ing.Q_lq,
                            ControllerConfig(terminal_samples=192))


def test_terminal_radius_sampled_soundness(small_setup):
    # random interior points: the auxiliary law keeps the input in the box
    # and the state inside, and decreases the terminal cost by at least the
    # stage cost
    w, eq, ing, _ = small_setup
    rng = np.random.default_rng(211)
    na = w.n + 1
    L = np.linalg.cholesky(ing.P_f)
    Linv_T = np.linalg.inv(L.T)
    dirs = rng.normal(size=(10000, na))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.sqrt(ing.omega) * rng.uniform(0, 1, 10000) ** (1.0 / na)
    E = (dirs @ Linv_T.T) * radii[:, None]
    vf_lhs = kernels.terminal_samples_check(np.ascontiguousarray(E), ing.consts.step,
                                            ing.P_f, ing.Q_lq)
    u = eq.xa0[w.n:] + E[:, w.n:] - E @ ing.K_lq.T
    assert np.all(np.abs(u) <= 1.0 + 1e-12)
    assert np.all(vf_lhs <= 1e-10)
    # next state stays inside the ellipsoid
    for e in E[:200]:
        xa = eq.xa0 + e
        vlq = -(ing.K_lq @ e)
        s = AugmentedState(xa[:w.n], xa[w.n:])
        nxt, _ = observer.augmented_step(w, s, vlq, eq.y0)
        en = nxt.stacked() - eq.xa0
        assert en @ ing.P_f @ en <= ing.omega + 1e-9


def pinned_ingredients(ph):
    w = gru_model.load_weights(FIXTURE / "weights.json")
    nmap = sysid.NormalizationMap.load(FIXTURE / "normalization.json")
    ctl = mpc.RecedingHorizonController(w, observer.load_gains(FIXTURE / "gains.json"),
                                        harness.ExperimentConfig().controller)
    return w, ctl.ingredients_for(nmap.normalize_y([ph]))


@pytest.mark.parametrize("ph, omega", [(7.0, 5.565858797960306),
                                       (7.2, 3.0224478850020806),
                                       (6.8, 10.0)])
def test_terminal_radius_on_pinned_model(ph, omega):
    # the radii accepted for the benchmark's pinned model, where the walk
    # starts and the sampled V_f decrease passes at the first trial: the
    # exact input-box radius at pH 7.0 and 7.2, OMEGA_MAX at pH 6.8 (its box
    # radius is 10.40).  With the set on Pi's ellipsoid and a second, Pi
    # decrease condition they were 4.934, 2.620 and 9.352
    _, ing = pinned_ingredients(ph)
    assert ing.omega == pytest.approx(omega, rel=1e-12)
    assert ing.omega_trials == 1


def box_peaks(w, ing, omega):
    """The auxiliary law's cell input at the points of the ellipsoid
    e'P_f e = omega that maximize and minimize each of its rows,
    e* = +-omega P_f^-1 c_j / sqrt(omega c_j'P_f^-1 c_j) with C = [0 I] - K;
    and the exact box radius min_j (1 - |u_eq,j|)^2 / c_j'P_f^-1 c_j."""
    C = np.hstack((np.zeros((w.p, w.n)), np.eye(w.p))) - ing.K_lq
    S = np.linalg.solve(ing.P_f, C.T)            # columns P_f^-1 c_j
    spread = np.einsum("ij,ij->j", C.T, S)
    E = (omega * S / np.sqrt(omega * spread)).T
    E = np.vstack((E, -E))
    # the law's input as the kernels form it: xi + v with v = -K e
    U = ing.eq.xa0[w.n:] + E[:, w.n:] - E @ ing.K_lq.T
    omega_box = np.min((1.0 - np.abs(ing.eq.u0)) ** 2 / spread)
    return U, omega_box


@pytest.mark.parametrize("ph", [6.8, 7.0, 7.2, 7.8])
def test_the_input_box_holds_at_its_worst_point(ph):
    # the accepted radius keeps the law's input in the box at the analytic
    # maximizer on the ellipsoid, and the box radius is tight: 0.1 % beyond
    # it, that point leaves the box
    w, ing = pinned_ingredients(ph)
    U, omega_box = box_peaks(w, ing, ing.omega)
    assert np.max(np.abs(U)) <= 1.0 + 1e-12
    U_out, _ = box_peaks(w, ing, 1.001 * omega_box)
    assert np.max(np.abs(U_out)) > 1.0


@pytest.mark.parametrize("ph", [6.5, 6.8, 7.0, 7.8])
def test_every_accepted_boundary_sample_maps_into_the_terminal_set(ph):
    # the walk's boundary samples at the accepted radius, rebuilt here from
    # P_f: under the auxiliary law each keeps its input in the box and loses
    # at least its stage cost of V_f, so it lands in e'P_f e <= omega.  At
    # pH 6.5 the decrease, not the box, sets the radius (OMEGA_MAX fails)
    w, ing = pinned_ingredients(ph)
    L = np.linalg.cholesky(ing.P_f)
    D = mpc._directions(harness.ExperimentConfig().controller.terminal_samples, len(L))
    xa_eq = ing.eq.xa0
    for lo in range(0, len(D), 4096):
        E = np.sqrt(ing.omega) * np.linalg.solve(L.T, D[lo:lo + 4096].T).T
        E_next = kernels.augmented_rollout(ing.consts.step, xa_eq + E, (), 1)[0][1] - xa_eq
        level = np.einsum("ij,jk,ik->i", E, ing.P_f, E)
        level_next = np.einsum("ij,jk,ik->i", E_next, ing.P_f, E_next)
        stage = np.einsum("ij,jk,ik->i", E, ing.Q_lq, E)
        np.testing.assert_allclose(level, ing.omega, rtol=1e-12)
        assert np.all(np.abs(xa_eq[w.n:] + E[:, w.n:] - E @ ing.K_lq.T) <= 1.0 + 1e-12)
        assert np.all(level_next - level + stage <= 0.0)
        assert np.all(level_next <= ing.omega)


def test_the_walk_samples_the_boundary_of_the_set_it_returns(monkeypatch):
    # every sample of every trial lies on e'P_f e = omega for that trial's
    # radius: OMEGA_MAX, rejected at pH 6.5, then the accepted omega
    w = gru_model.load_weights(FIXTURE / "weights.json")
    nmap = sysid.NormalizationMap.load(FIXTURE / "normalization.json")
    levels = []

    def recorded(E, step, Pf, Qlq, _fn=kernels.terminal_samples_check):
        levels.append(np.einsum("ij,jk,ik->i", E, Pf, E))
        return _fn(E, step, Pf, Qlq)
    monkeypatch.setattr(kernels, "terminal_samples_check", recorded)
    cfg = harness.ExperimentConfig().controller
    ing = mpc.build_ingredients(w, nmap.normalize_y([6.5]), cfg)
    assert (ing.omega, ing.omega_trials) == (mpc.OMEGA_MAX * mpc.TERMINAL_SHRINK, 2)
    levels = np.concatenate(levels)
    # the rejected trial stops at its first failing block
    accepted = levels[-cfg.terminal_samples:]
    np.testing.assert_allclose(accepted, ing.omega, rtol=1e-12)
    np.testing.assert_allclose(levels[:-cfg.terminal_samples], mpc.OMEGA_MAX, rtol=1e-12)


def test_the_terminal_audit_runs_at_a_tiny_size():
    # tests/terminal_audit.py on 64 directions: its table has the radius, the
    # walk's radii and counts within the points audited (their values are
    # not asserted: the samples certify nothing off themselves)
    import terminal_audit
    [row] = terminal_audit.run([7.0], 64)
    _, ing = pinned_ingredients(7.0)
    assert row["omega"] == ing.omega and row["radii_tried"][-1] == ing.omega
    assert len(row["radii_tried"]) == row["omega_trials"] == ing.omega_trials
    assert row["omega"] <= row["omega_box"] * (1.0 + 1e-12)
    for where in ("boundary", "interior"):
        assert all(0 <= row[where][k] <= 64 for k in ("box", "vf", "leave"))
        assert np.isfinite(row[where]["max_vf"])


def test_a_tick_reports_its_ingredient_build():
    # a tick whose setpoint misses the cache reports the build's wall time
    # and the radii its walk tried; a tick that hits reports 0 for both, and
    # so does the first tick after a reset, which built outside any tick
    w = gru_model.load_weights(FIXTURE / "weights.json")
    nmap = sysid.NormalizationMap.load(FIXTURE / "normalization.json")
    ctl = mpc.RecedingHorizonController(w, observer.load_gains(FIXTURE / "gains.json"),
                                        harness.ExperimentConfig().controller)
    y70, y72 = nmap.normalize_y([7.0]), nmap.normalize_y([7.2])
    ctl.reset(y70)
    _, hit = ctl.step(y70, y70)
    _, built = ctl.step(y70, y72)
    _, hit_again = ctl.step(y70, y72)
    assert (hit.build_ms, hit.omega_trials) == (0.0, 0)
    assert (hit_again.build_ms, hit_again.omega_trials) == (0.0, 0)
    assert built.build_ms > 0.0
    assert built.omega_trials == ctl.ingredients_for(y72).omega_trials == 1


def test_a_setpoint_build_packs_the_cell_and_the_step_once(monkeypatch):
    # on fresh weights the packed cell is made once, on first use, and the
    # augmented step once, for both the radius walk and the solver
    w = gru_model.load_weights(FIXTURE / "weights.json")
    nmap = sysid.NormalizationMap.load(FIXTURE / "normalization.json")
    calls = {"stack_gates": 0, "augmented_step_matrices": 0}
    for name in calls:
        def counted(*args, _fn=getattr(kernels, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(kernels, name, counted)
    ing = mpc.build_ingredients(w, nmap.normalize_y([7.0]),
                                harness.ExperimentConfig().controller)
    assert calls == {"stack_gates": 1, "augmented_step_matrices": 1}
    assert ing.consts.step.cell is w.cell
    # the exact input-box radius at pH 7.0
    assert ing.omega == pytest.approx(5.565858797960306, rel=1e-12)


def test_terminal_cost_check_rejects_the_riccati_matrix_alone():
    # P alone decreases by exactly the stage cost on the linearization, so
    # the nonlinear remainder breaks the certificate on the terminal-set
    # samples: the V_f check rejects P_f = P on the samples where P + Pi
    # passes, and the radius walk finds no radius for it at all
    _, ing = pinned_ingredients(6.8)
    _, P = lq_gain(ing.lin, ing.Q, ing.R)
    E = np.sqrt(ing.omega) * mpc._directions(4096, len(P)) @ np.linalg.inv(
        np.linalg.cholesky(ing.P_f).T).T

    def vf_lhs(Pf):
        return kernels.terminal_samples_check(E, ing.consts.step, Pf, ing.Q_lq)

    assert np.max(vf_lhs(P)) > 0.0
    assert np.max(vf_lhs(ing.P_f)) <= 0.0
    with pytest.raises(mpc.TerminalSetError, match="q_tilde_weight"):
        terminal_set_radius(ing.consts.step, P, ing.Q_lq, ControllerConfig())


def test_ingredients_build_without_scipy_stats():
    # importing scipy.stats, scipy.special or scipy.optimize costs 0.2-0.75 s
    # and 22-49 MB: the terminal-set directions are Gaussian rows of NumPy's
    # legacy RandomState stream, so no scipy module loads at all
    code = ("import numpy as np\n"
            "from grumpc import mpc\n"
            "from conftest import scaled_certified_weights\n"
            "w = scaled_certified_weights(np.random.default_rng(201), n=5, target=-0.1)\n"
            "y = mpc.gru_model.gru_output(w, mpc.steady_state(w, [0.0]))\n"
            "mpc.build_ingredients(w, y, mpc.ControllerConfig(terminal_samples=192))\n")
    assert scipy_modules_after(code) == []


def test_damped_system_solve_equals_numpy_solve():
    # the solver's LAPACK call without np.linalg.solve's wrapper: the same
    # solution bit for bit, and a singular system still raises
    rng = np.random.default_rng(5)
    J = rng.normal(size=(60, 20))
    H = 2.0 * J.T @ J
    H.reshape(-1)[::21] *= 1.0 + 1e-3
    for A in (H, rng.normal(size=(20, 20))):
        b = rng.normal(size=20)
        np.testing.assert_array_equal(mpc._solve(A, b), np.linalg.solve(A, b))
    with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
        mpc._solve(np.zeros((3, 3)), np.ones(3))


def rolled_tail_cost(w, eq, ing, xa, steps):
    """Auxiliary-law cost-to-go from xa, summed step by step: the rolled
    terminal tail that e'P_f e replaces."""
    s, total = AugmentedState(xa[:w.n], xa[w.n:]), 0.0
    for _ in range(steps):
        e = s.stacked() - eq.xa0
        total += e @ ing.Q_lq @ e
        s, _ = observer.augmented_step(w, s, -(ing.K_lq @ e), eq.y0)
    return total


def test_terminal_cost_zero_at_equilibrium(small_setup):
    # the equilibrium is itself a root-solver output, so the charged cost
    # (stages and e'P_f e) vanishes to the fixed-point residual, not to
    # exactly zero, whether the terminal cost sits at N_p or N_f law steps on
    w, eq, ing, _ = small_setup
    for Nf in (0, 100):
        _, J, bviol, tviol = kernels.fhocp_forward(
            np.zeros(6), eq.xa0.copy(), eq.u0, eq.y0, *w.arrays(), w.U_o, w.b_o,
            np.ascontiguousarray(ing.K_lq), eq.xa0, ing.Q, ing.R, ing.P_f, ing.P_f,
            ing.omega, 6, 15, Nf, 0.0, 0.0)
        assert J < 1e-18 and bviol <= 0.0 and tviol == 0.0


def test_terminal_cost_bounds_the_rolled_tail(small_setup):
    # on the certified terminal set V_f falls by at least the stage cost
    # under the auxiliary law, so e'P_f e bounds the whole rolled tail
    w, eq, ing, _ = small_setup
    rng = np.random.default_rng(223)
    for level in (0.05, 0.25, 1.0):
        e = rng.normal(size=w.n + 1)
        e /= np.sqrt(e @ ing.P_f @ e / (level * ing.omega))
        tail = rolled_tail_cost(w, eq, ing, eq.xa0 + e, 2000)
        assert 0.0 < tail <= e @ ing.P_f @ e


def test_terminal_cost_matches_lq_cost_to_go_for_linear_system(small_setup):
    # on the linearized system the rolled tail approaches the DARE
    # cost-to-go e'Pe (P = P_f - Pi); check on a tiny deviation where the
    # nonlinearity is weak
    w, eq, ing, _ = small_setup
    _, P = lq_gain(ing.lin, ing.Q, ing.R)
    np.testing.assert_allclose(P, ing.P_f - margin(w, ing)[1], rtol=0,
                               atol=1e-12 * np.max(np.abs(ing.P_f)))
    rng = np.random.default_rng(227)
    e = 1e-4 * rng.normal(size=w.n + 1)
    assert rolled_tail_cost(w, eq, ing, eq.xa0 + e, 2000) == pytest.approx(
        e @ P @ e, rel=5e-3)


# ---------------------------------------------------------------------------
# FHOCP
# ---------------------------------------------------------------------------

def test_controller_config_rejects_a_control_horizon_past_the_prediction():
    with pytest.raises(ValueError, match="N_c <= N_p"):
        ControllerConfig(N_c=5, N_p=4)
    with pytest.raises(ValueError, match="N_c <= N_p"):
        ControllerConfig(N_c=0)
    assert ControllerConfig(N_c=4, N_p=4).N_c == 4


def test_fhocp_at_equilibrium_returns_zero_plan(small_setup):
    w, eq, ing, _ = small_setup
    cfg = ControllerConfig(N_c=6, N_p=15)
    sol = fhocp_solve(w, ing, cfg, AugmentedState(eq.x0, eq.u0), eq.u0)
    assert np.max(np.abs(sol.v)) < 1e-6
    assert sol.cost < 1e-12


def test_fhocp_respects_input_box_and_improves_warm_start(small_setup):
    w, eq, ing, _ = small_setup
    rng = np.random.default_rng(229)
    cfg = ControllerConfig(N_c=6, N_p=15)
    # start away from the equilibrium but inside the terminal set
    na = w.n + 1
    e = rng.normal(size=na)
    e /= np.sqrt(e @ ing.P_f @ e / (0.5 * ing.omega))
    xa = eq.xa0 + e
    est = AugmentedState(xa[:w.n], xa[w.n:])
    sol = fhocp_solve(w, ing, cfg, est, xa[w.n:])

    # verify the constraint on the returned plan by explicit rollout
    xit = xa[w.n:].copy()
    s = AugmentedState(est.x.copy(), est.xi.copy())
    for i in range(cfg.N_p):
        if i < cfg.N_c:
            v = sol.v[i]
        else:
            v = -(ing.K_lq @ (s.stacked() - eq.xa0))
        assert np.max(np.abs(xit + v)) <= 1.0 + 1e-9
        y = gru_model.gru_output(w, s.x)
        s, _ = observer.augmented_step(w, s, v, eq.y0)
        xit = xit + eq.y0 - y
    # the reported terminal level is that of the plan's state N_p
    eN = s.stacked() - eq.xa0
    assert sol.terminal_level == pytest.approx(eN @ ing.P_f @ eN / ing.omega,
                                               rel=1e-9)
    assert sol.terminal_level <= 1.0 + mpc.CONSTRAINT_TOL

    # warm start: cost never degrades
    warm = mpc.shifted_warm_start(sol, ing, w, cfg)
    sol2 = fhocp_solve(w, ing, cfg, est, xa[w.n:], warm_start=warm)
    _, Jwarm, bv, tv = kernels.fhocp_forward(
        warm, np.ascontiguousarray(xa), xa[w.n:], eq.y0,
        *w.arrays(), w.U_o, w.b_o, np.ascontiguousarray(ing.K_lq), eq.xa0,
        np.ascontiguousarray(ing.Q), np.ascontiguousarray(ing.R),
        np.ascontiguousarray(ing.P_f), np.ascontiguousarray(ing.P_f),
        ing.omega, cfg.N_c, cfg.N_p, cfg.N_f, 0.0, 0.0)
    if bv <= mpc.CONSTRAINT_TOL and tv <= mpc.CONSTRAINT_TOL * max(1, ing.omega):
        assert sol2.cost <= Jwarm + 1e-12


def test_the_solver_constrains_the_set_the_radius_walk_sampled(small_setup, monkeypatch):
    # every evaluation gets P_f in the kernels' terminal-set slot (Pi): the
    # plan ends in e'P_f e <= omega, the sublevel set of V_f that
    # terminal_set_radius certified
    w, eq, ing, _ = small_setup
    slot = list(inspect.signature(kernels.fhocp_forward_backward).parameters).index("Pi")
    seen = []

    def spy(*args, _fn=kernels.fhocp_forward_backward, **kwargs):
        seen.append(args[slot])
        return _fn(*args, **kwargs)
    monkeypatch.setattr(kernels, "fhocp_forward_backward", spy)
    e = np.full(w.n + 1, 0.1)
    xa = eq.xa0 + e
    fhocp_solve(w, ing, ControllerConfig(N_c=6, N_p=15), AugmentedState(xa[:w.n], xa[w.n:]),
                xa[w.n:])
    assert seen and all(Pi is ing.P_f for Pi in seen)


def test_fhocp_nominal_cost_decreases_along_closed_loop(small_setup):
    w, eq, ing, _ = small_setup
    rng = np.random.default_rng(233)
    cfg = ControllerConfig(N_c=6, N_p=15)
    na = w.n + 1
    e = rng.normal(size=na)
    e /= np.sqrt(e @ ing.P_f @ e / (0.3 * ing.omega))
    xa = eq.xa0 + e
    est = AugmentedState(xa[:w.n], xa[w.n:])
    xi = xa[w.n:].copy()
    warm = None
    costs = []
    for _ in range(10):
        sol = fhocp_solve(w, ing, cfg, est, xi, warm_start=warm)
        costs.append(sol.cost)
        v = sol.v[0]
        warm = mpc.shifted_warm_start(sol, ing, w, cfg)
        y = gru_model.gru_output(w, est.x)
        est, _ = observer.augmented_step(w, est, v, eq.y0)
        xi = xi + eq.y0 - y
    assert all(b <= a + 1e-8 for a, b in zip(costs, costs[1:]))


def test_step_without_a_measurement_is_a_dropout(small_setup):
    # a dropped sample (None) reads as NaN, so it takes the dropout branch:
    # the tick equals one fed the model's own predicted output
    w, eq, _, _ = small_setup
    cfg = ControllerConfig(N_c=5, N_p=12, terminal_samples=768)
    gains = observer.trivial_gains(w)
    ctls = [mpc.RecedingHorizonController(w, gains, cfg) for _ in range(2)]
    for ctl in ctls:
        ctl.reset(eq.y0)
        ctl.step(eq.y0 + 0.01, eq.y0)
    u, info = ctls[0].step(None, eq.y0)
    u_ref, _ = ctls[1].step(gru_model.gru_output(w, ctls[1].est.x), eq.y0)
    assert ctls[0].dropout_count == 1 and ctls[1].dropout_count == 0
    assert np.all(np.isfinite(u)) and info.feasible
    np.testing.assert_array_equal(u, u_ref)
    np.testing.assert_array_equal(ctls[0].xi, ctls[1].xi)


# ---------------------------------------------------------------------------
# reference filter
# ---------------------------------------------------------------------------

def test_reference_filter_identity_and_constant():
    sig = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(reference_filter(sig, 1), sig)
    np.testing.assert_allclose(reference_filter(np.full(5, 2.5), 3), 2.5)


def test_reference_filter_step_ramp():
    W = 4
    sig = np.concatenate([np.zeros(4), np.ones(8)])
    out = reference_filter(sig, W)
    # closed form: ramp k/W over W steps after the edge, then constant 1
    want = np.array([0, 0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1, 1, 1.0])
    np.testing.assert_allclose(out, want)
    with pytest.raises(ValueError):
        reference_filter(sig, 0)


def loop_reference_filter(signal, window):
    """The filter tick by tick: the mean of the last window samples."""
    signal = np.asarray(signal, dtype=np.float64)
    out = np.empty_like(signal)
    csum = np.cumsum(signal, axis=0)
    for k in range(len(signal)):
        lo = max(0, k - window + 1)
        out[k] = (csum[k] - (csum[lo - 1] if lo > 0 else 0.0)) / (k - lo + 1)
    return out


@pytest.mark.parametrize("window", [1, 2, 12, 299, 300, 301])
def test_reference_filter_equals_the_loop_form(window):
    sig = 7.0 + np.random.default_rng(7).normal(0.0, 0.5, (300, 2))
    out = reference_filter(sig, window)
    assert out.shape == sig.shape
    assert np.array_equal(out, loop_reference_filter(sig, window))
    assert np.array_equal(reference_filter(sig[:, 0], window),
                          loop_reference_filter(sig[:, 0], window))
