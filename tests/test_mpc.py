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

from conftest import scaled_certified_weights, scipy_modules_after


@pytest.fixture(scope="module")
def small_model():
    rng = np.random.default_rng(201)
    return scaled_certified_weights(rng, n=5, target=-0.1)


SMALL_CFG = ControllerConfig(terminal_samples=2560)


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
    np.testing.assert_allclose(eq.ya0, np.concatenate([eq.y0, eq.u0]))
    assert np.max(np.abs(eq.u0)) <= 1.0


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

def test_linearize_zero_weight_blocks():
    w = gru_model.zero_weights(3, 1, 1)
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
    assert np.max(np.abs(P - P_ref)) / np.max(np.abs(P_ref)) < 1e-9
    cl = np.max(np.abs(np.linalg.eigvals(lin.A_a - lin.B_a @ K)))
    assert cl < 1.0 - 1e-6


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


def test_lyapunov_residual_and_definiteness(small_setup):
    w, eq, ing, _ = small_setup
    Acl = ing.lin.A_a - ing.lin.B_a @ ing.K_lq
    res = Acl.T @ ing.Pi @ Acl - ing.Pi + ing.Q_tilde
    assert np.max(np.abs(res)) < 1e-12
    np.linalg.cholesky(ing.Pi)    # symmetric positive definite
    # the terminal cost P_f = P + Pi decreases by Q_lq + Q_tilde on the
    # linearization
    res_f = Acl.T @ ing.P_f @ Acl - ing.P_f + ing.Q_lq + ing.Q_tilde
    assert np.max(np.abs(res_f)) < 1e-10 * np.max(np.abs(ing.P_f))
    np.linalg.cholesky(ing.P_f)


def test_lyapunov_matches_scipy(small_setup):
    from scipy.linalg import solve_discrete_lyapunov
    w, eq, ing, _ = small_setup
    Acl = ing.lin.A_a - ing.lin.B_a @ ing.K_lq
    ref = solve_discrete_lyapunov(Acl.T, ing.Q_tilde)
    assert np.max(np.abs(ing.Pi - ref)) / np.max(np.abs(ref)) < 1e-10


# ---------------------------------------------------------------------------
# terminal ingredients
# ---------------------------------------------------------------------------

def test_terminal_radius_shrinks_with_gamma(small_setup):
    # the decrease margin is governed by Q_tilde = 10 I, so radii collapse
    # as gamma approaches 10 and no radius exists far beyond it
    _, _, ing, _ = small_setup
    radii = [terminal_set_radius(ing.consts.step, ing.Pi, ing.P_f, ing.Q_lq,
                                 ControllerConfig(gamma=gamma, omega_max=1e5,
                                                  terminal_samples=768))
             for gamma in (0.01, 9.0, 9.9)]
    assert radii[0] > radii[1] > radii[2]
    with pytest.raises(mpc.TerminalSetError):
        terminal_set_radius(ing.consts.step, ing.Pi, ing.P_f, ing.Q_lq,
                            ControllerConfig(gamma=1e6, terminal_samples=192))


def test_terminal_radius_sampled_soundness(small_setup):
    # random interior points: auxiliary law keeps the state inside,
    # decreases the Lyapunov value by at least the gamma margin and the
    # terminal cost by at least the stage cost
    w, eq, ing, _ = small_setup
    rng = np.random.default_rng(211)
    na = w.n + 1
    L = np.linalg.cholesky(ing.Pi)
    Linv_T = np.linalg.inv(L.T)
    dirs = rng.normal(size=(10000, na))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.sqrt(ing.omega) * rng.uniform(0, 1, 10000) ** (1.0 / na)
    E = (dirs @ Linv_T.T) * radii[:, None]
    over, lhs, vf_lhs = kernels.terminal_samples_check(
        np.ascontiguousarray(E), ing.consts.step, np.ascontiguousarray(ing.Pi),
        ing.P_f, ing.Q_lq, SMALL_CFG.gamma)
    assert np.all(over <= 1e-12)
    assert np.all(lhs <= 1e-10)
    assert np.all(vf_lhs <= 1e-10)
    # next state stays inside the ellipsoid
    for e in E[:200]:
        xa = eq.xa0 + e
        vlq = -(ing.K_lq @ e)
        s = AugmentedState(xa[:w.n], xa[w.n:])
        nxt, _ = observer.augmented_step(w, s, vlq, eq.y0)
        en = nxt.stacked() - eq.xa0
        assert en @ ing.Pi @ en <= ing.omega + 1e-9


FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixture"


def pinned_ingredients(ph):
    w = gru_model.load_weights(FIXTURE / "weights.json")
    nmap = sysid.NormalizationMap.load(FIXTURE / "normalization.json")
    ctl = mpc.RecedingHorizonController(w, observer.load_gains(FIXTURE / "gains.json"),
                                        harness.ExperimentConfig().controller)
    return w, ctl.ingredients_for(nmap.normalize_y([ph]))


@pytest.mark.parametrize("ph, omega", [(7.0, 6.4), (7.2, 3.2768), (6.8, 8.0)])
def test_terminal_radius_on_pinned_model(ph, omega):
    # the radii the sampled check accepted for the benchmark's pinned model;
    # at pH 6.8 the terminal-cost decrease rejects 10.0, which the input box
    # and the Pi decrease alone accept
    _, ing = pinned_ingredients(ph)
    assert ing.omega == pytest.approx(omega, rel=1e-12)


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
    assert ing.omega == pytest.approx(6.4, rel=1e-12)


def two_set_radius(w, ing, cfg, n_samples=4096, audit_factor=10, block=1024):
    """The radius walk with a sample set and an audit set: the first
    n_samples Halton directions, then audit_factor times as many from the
    points after them, each set checked block by block."""
    Linv_T = np.linalg.inv(np.linalg.cholesky(ing.Pi).T)
    na = w.n + w.p
    E_unit = mpc._halton_directions(n_samples, na, skip=1) @ Linv_T.T
    E_audit = mpc._halton_directions(audit_factor * n_samples, na,
                                     skip=1 + n_samples) @ Linv_T.T

    def all_pass(E, scale):
        for lo in range(0, len(E), block):
            over, lhs, vf_lhs = kernels.terminal_samples_check(
                scale * E[lo:lo + block], ing.consts.step,
                np.ascontiguousarray(ing.Pi), ing.P_f, ing.Q_lq, cfg.gamma)
            if not (np.all(over <= 0.0) and np.all(lhs <= 1e-12)
                    and np.all(vf_lhs <= 0.0)):
                return False
        return True

    omega = cfg.omega_max
    while omega > mpc.TERMINAL_MIN_OMEGA:
        if all_pass(E_unit, np.sqrt(omega)) and all_pass(E_audit, np.sqrt(omega)):
            return omega
        omega *= mpc.TERMINAL_SHRINK
    raise mpc.TerminalSetError("no radius")


@pytest.mark.parametrize("ph", [6.8, 7.0, 7.4])
def test_one_sample_set_walk_equals_the_sample_and_audit_walk(ph):
    # the sample set followed by its audit set is one contiguous run of the
    # Halton sequence, and a trial stops at its first failing block in
    # either walk, so walking the run as one set accepts the same radius
    w, ing = pinned_ingredients(ph)
    cfg = harness.ExperimentConfig().controller
    assert cfg.terminal_samples == 4096 * 11
    na = w.n + w.p
    np.testing.assert_array_equal(
        mpc._halton_directions(cfg.terminal_samples, na, skip=1),
        np.vstack((mpc._halton_directions(4096, na, skip=1),
                   mpc._halton_directions(40960, na, skip=4097))))
    assert ing.omega == two_set_radius(w, ing, cfg)


def test_terminal_cost_check_rejects_the_riccati_matrix_alone():
    # P alone decreases by exactly the stage cost on the linearization, so
    # the nonlinear remainder breaks the certificate on the terminal-set
    # samples: the V_f check rejects P_f = P at 10.0 and at the radius
    # P + Pi passes, and the radius walk finds no radius for it at all
    _, ing = pinned_ingredients(6.8)
    P = ing.P_f - ing.Pi
    E_unit = mpc._halton_directions(4096, ing.Pi.shape[0], skip=1) @ np.linalg.inv(
        np.linalg.cholesky(ing.Pi).T).T

    def vf_lhs(Pf, omega):
        return kernels.terminal_samples_check(
            np.sqrt(omega) * E_unit, ing.consts.step, ing.Pi, Pf, ing.Q_lq,
            ControllerConfig().gamma)[2]

    assert np.max(vf_lhs(P, 10.0)) > 0.0
    assert np.max(vf_lhs(P, ing.omega)) > 0.0
    assert np.max(vf_lhs(ing.P_f, ing.omega)) <= 0.0
    with pytest.raises(mpc.TerminalSetError):
        terminal_set_radius(ing.consts.step, ing.Pi, P, ing.Q_lq, ControllerConfig())


@pytest.mark.parametrize("dim", [3, 6, 9, 11])
def test_halton_points_equal_scipy(dim):
    from scipy.stats import qmc
    for count, skip in ((4096, 1), (40960, 4097)):
        h = qmc.Halton(d=dim, scramble=False)
        h.fast_forward(skip)
        np.testing.assert_array_equal(mpc.halton_points(count, dim, skip),
                                      h.random(count))


def test_ingredients_build_without_scipy_stats():
    # importing scipy.stats, scipy.special or scipy.optimize costs 0.2-0.75 s
    # and 22-49 MB: the terminal-set directions come from the in-repo Halton
    # generator and inverse normal CDF, so no scipy module loads at all
    code = ("import numpy as np\n"
            "from grumpc import mpc\n"
            "from conftest import scaled_certified_weights\n"
            "w = scaled_certified_weights(np.random.default_rng(201), n=5, target=-0.1)\n"
            "y = mpc.gru_model.gru_output(w, mpc.steady_state(w, [0.0]))\n"
            "mpc.build_ingredients(w, y, mpc.ControllerConfig(terminal_samples=192))\n")
    assert scipy_modules_after(code) == []


def test_ndtri_is_within_3_ulp_of_scipy():
    # the whole desk direction set before normalization, and the ends of
    # the domain and of the central branch (exp(-2), 1 - exp(-2)) on both sides
    from scipy.special import ndtri
    e2 = np.exp(-2.0)
    edges = [1e-12, np.nextafter(e2, 0.0), e2, np.nextafter(e2, 1.0),
             np.nextafter(1.0 - e2, 0.0), 1.0 - e2, np.nextafter(1.0 - e2, 1.0),
             0.5, 1.0 - 1e-12]
    for y in (np.clip(mpc.halton_points(45056, 11, skip=1), 1e-12, 1.0 - 1e-12),
              np.array(edges)):
        ref = ndtri(y)
        ulps = np.abs(mpc._ndtri(y) - ref) / np.spacing(np.abs(ref))
        assert np.max(ulps) <= 3.0


def reference_ndtri(y):
    """mpc._ndtri as first ported: both branches on all of y, np.polyval,
    np.where to pick."""
    upper = y > 1.0 - mpc._EXP_M2
    t = np.where(upper, 1.0 - y, y)
    c = t - 0.5
    c2 = c * c
    central = mpc._SQRT_2PI * (c + c * (c2 * np.polyval(mpc._NDTRI_P0, c2)
                                        / np.polyval(mpc._NDTRI_Q0, c2)))
    z = np.sqrt(-2.0 * np.log(t))
    r = 1.0 / z
    tail = (z - np.log(z) / z
            - r * np.polyval(mpc._NDTRI_P1, r) / np.polyval(mpc._NDTRI_Q1, r))
    return np.where(t > mpc._EXP_M2, central, np.where(upper, tail, -tail))


def test_ndtri_equals_the_two_branch_form():
    # each branch on its own subset, Horner in place: the same values bit
    # for bit, on the desk direction set and the branch edges
    e2 = np.exp(-2.0)
    edges = np.array([1e-12, np.nextafter(e2, 0.0), e2, np.nextafter(e2, 1.0),
                      np.nextafter(1.0 - e2, 0.0), 1.0 - e2,
                      np.nextafter(1.0 - e2, 1.0), 0.5, 1.0 - 1e-12])
    for y in (np.clip(mpc.halton_points(45056, 11, skip=1), 1e-12, 1.0 - 1e-12),
              edges):
        np.testing.assert_array_equal(mpc._ndtri(y), reference_ndtri(y))


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


@pytest.mark.parametrize("ph", [6.8, 7.0, 7.4, 7.8])
def test_terminal_radius_with_scipy_built_directions(ph, monkeypatch):
    # the in-repo inverse normal CDF changes no accepted radius on the
    # pinned model: a direction set built by scipy.special.ndtri gives the same
    from scipy.special import ndtri
    w, ing = pinned_ingredients(ph)
    cfg = harness.ExperimentConfig().controller
    g = ndtri(np.clip(mpc.halton_points(cfg.terminal_samples, w.n + w.p, skip=1),
                      1e-12, 1.0 - 1e-12))
    g /= np.linalg.norm(g, axis=1)[:, None]
    monkeypatch.setitem(mpc._HALTON_CACHE, (cfg.terminal_samples, w.n + w.p, 1), g)
    assert terminal_set_radius(ing.consts.step, ing.Pi, ing.P_f, ing.Q_lq,
                               cfg) == ing.omega


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
            np.ascontiguousarray(ing.K_lq), eq.xa0, ing.Q, ing.R, ing.P_f, ing.Pi,
            ing.omega, 6, 15, Nf, 0.0, 0.0)
        assert J < 1e-18 and bviol <= 0.0 and tviol == 0.0


def test_terminal_cost_bounds_the_rolled_tail(small_setup):
    # on the certified terminal set V_f falls by at least the stage cost
    # under the auxiliary law, so e'P_f e bounds the whole rolled tail
    w, eq, ing, _ = small_setup
    rng = np.random.default_rng(223)
    for level in (0.05, 0.25, 1.0):
        e = rng.normal(size=w.n + 1)
        e /= np.sqrt(e @ ing.Pi @ e / (level * ing.omega))
        tail = rolled_tail_cost(w, eq, ing, eq.xa0 + e, 2000)
        assert 0.0 < tail <= e @ ing.P_f @ e


def test_terminal_cost_matches_lq_cost_to_go_for_linear_system(small_setup):
    # on the linearized system the rolled tail approaches the DARE
    # cost-to-go e'Pe (P = P_f - Pi); check on a tiny deviation where the
    # nonlinearity is weak
    w, eq, ing, _ = small_setup
    _, P = lq_gain(ing.lin, ing.Q, ing.R)
    np.testing.assert_allclose(P, ing.P_f - ing.Pi, rtol=0,
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
    e /= np.sqrt(e @ ing.Pi @ e / (0.5 * ing.omega))
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
    assert sol.terminal_level == pytest.approx(eN @ ing.Pi @ eN / ing.omega,
                                               rel=1e-9)
    assert sol.terminal_level <= 1.0 + cfg.constraint_tol

    # warm start: cost never degrades
    warm = mpc.shifted_warm_start(sol, ing, w, cfg)
    sol2 = fhocp_solve(w, ing, cfg, est, xa[w.n:], warm_start=warm)
    _, Jwarm, bv, tv = kernels.fhocp_forward(
        warm, np.ascontiguousarray(xa), xa[w.n:], eq.y0,
        *w.arrays(), w.U_o, w.b_o, np.ascontiguousarray(ing.K_lq), eq.xa0,
        np.ascontiguousarray(ing.Q), np.ascontiguousarray(ing.R),
        np.ascontiguousarray(ing.P_f), np.ascontiguousarray(ing.Pi),
        ing.omega, cfg.N_c, cfg.N_p, cfg.N_f, 0.0, 0.0)
    if bv <= cfg.constraint_tol and tv <= cfg.constraint_tol * max(1, ing.omega):
        assert sol2.cost <= Jwarm + 1e-12


def test_fhocp_nominal_cost_decreases_along_closed_loop(small_setup):
    w, eq, ing, _ = small_setup
    rng = np.random.default_rng(233)
    cfg = ControllerConfig(N_c=6, N_p=15)
    na = w.n + 1
    e = rng.normal(size=na)
    e /= np.sqrt(e @ ing.Pi @ e / (0.3 * ing.omega))
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
