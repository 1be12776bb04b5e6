import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grumpc import gru_model, harness, kernels, mpc, observer, sysid
from grumpc.mpc import (ControllerConfig, FhocpConfig, UnreachableReferenceError,
                        build_ingredients, check_design_assumptions,
                        find_equilibrium, linearize_augmented, lq_gain,
                        lyapunov_Pi, reference_filter, steady_state,
                        terminal_cost, terminal_set_radius, fhocp_solve)
from grumpc.observer import AugmentedState

from conftest import scaled_certified_weights


@pytest.fixture(scope="module")
def small_model():
    rng = np.random.default_rng(201)
    return scaled_certified_weights(rng, n=5, target=-0.1)


@pytest.fixture(scope="module")
def small_setup(small_model):
    w = small_model
    y_lo = gru_model.gru_output(w, steady_state(w, [-1.0]))[0]
    y_hi = gru_model.gru_output(w, steady_state(w, [1.0]))[0]
    y_mid = 0.5 * (y_lo + y_hi)
    eq = find_equilibrium(w, [y_mid])
    na = w.n + 1
    ing = build_ingredients(w, [y_mid], np.eye(na), np.eye(1), 10 * np.eye(na),
                            0.01, N_f=300, n_samples=512, audit_factor=4)
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
    w, eq, ing, _ = small_setup
    radii = [terminal_set_radius(w, eq, ing.K_lq, ing.Pi, gamma,
                                 omega_max=1e5, n_samples=256, audit_factor=2)
             for gamma in (0.01, 9.0, 9.9)]
    assert radii[0] > radii[1] > radii[2]
    with pytest.raises(mpc.TerminalSetError):
        terminal_set_radius(w, eq, ing.K_lq, ing.Pi, 1e6,
                            n_samples=64, audit_factor=2)


def test_terminal_radius_sampled_soundness(small_setup):
    # random interior points: auxiliary law keeps the state inside and
    # decreases the Lyapunov value by at least the gamma margin
    w, eq, ing, _ = small_setup
    rng = np.random.default_rng(211)
    na = w.n + 1
    L = np.linalg.cholesky(ing.Pi)
    Linv_T = np.linalg.inv(L.T)
    dirs = rng.normal(size=(10000, na))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.sqrt(ing.omega) * rng.uniform(0, 1, 10000) ** (1.0 / na)
    E = (dirs @ Linv_T.T) * radii[:, None]
    over, lhs = kernels.terminal_samples_check(
        np.ascontiguousarray(E), np.ascontiguousarray(ing.K_lq), eq.xa0,
        eq.y0, np.ascontiguousarray(ing.Pi), ing.gamma,
        *w.arrays(), w.U_o, w.b_o)
    assert np.all(over <= 1e-12)
    assert np.all(lhs <= 1e-10)
    # next state stays inside the ellipsoid
    for e in E[:200]:
        xa = eq.xa0 + e
        vlq = -(ing.K_lq @ e)
        s = AugmentedState(xa[:w.n], xa[w.n:])
        nxt, _ = observer.augmented_step(w, s, vlq, eq.y0)
        en = nxt.stacked() - eq.xa0
        assert en @ ing.Pi @ en <= ing.omega + 1e-9


FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixture"


@pytest.mark.parametrize("ph, omega", [(7.0, 6.4), (7.2, 3.2768)])
def test_terminal_radius_on_pinned_model(ph, omega):
    # the radii the sampled check accepted for the benchmark's pinned model
    w = gru_model.load_weights(FIXTURE / "weights.json")
    nmap = sysid.NormalizationMap.load(FIXTURE / "normalization.json")
    ctl = mpc.RecedingHorizonController(w, observer.load_gains(FIXTURE / "gains.json"),
                                        harness.ExperimentConfig().controller)
    assert ctl.ingredients_for(nmap.normalize_y([ph])).omega == pytest.approx(
        omega, rel=1e-12)


@pytest.mark.parametrize("dim", [3, 6, 9, 11])
def test_halton_points_equal_scipy(dim):
    from scipy.stats import qmc
    for count, skip in ((4096, 1), (40960, 4097)):
        h = qmc.Halton(d=dim, scramble=False)
        h.fast_forward(skip)
        np.testing.assert_array_equal(mpc.halton_points(count, dim, skip),
                                      h.random(count))


def test_ingredients_build_without_scipy_stats():
    # scipy.stats costs about 0.75 s and 22 MB on import; the terminal-set
    # directions come from the in-repo Halton generator instead
    code = ("import sys, numpy as np\n"
            "from grumpc import mpc\n"
            "from conftest import scaled_certified_weights\n"
            "w = scaled_certified_weights(np.random.default_rng(201), n=5, target=-0.1)\n"
            "y = mpc.gru_model.gru_output(w, mpc.steady_state(w, [0.0]))\n"
            "mpc.build_ingredients(w, y, np.eye(6), np.eye(1), 10 * np.eye(6), 0.01,\n"
            "                      n_samples=64, audit_factor=2)\n"
            "print('scipy.stats' in sys.modules)\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here)]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, env=env, check=True)
    assert res.stdout.split() == ["False"]


def test_terminal_cost_zero_at_equilibrium(small_setup):
    # the equilibrium is itself a root-solver output, so the rollout cost
    # vanishes to the fixed-point residual, not to exactly zero
    w, eq, ing, _ = small_setup
    assert terminal_cost(w, eq, ing.K_lq, ing.Q_lq, eq.xa0, N_f=100) < 1e-18


def test_terminal_cost_truncation_converged(small_setup):
    w, eq, ing, _ = small_setup
    rng = np.random.default_rng(223)
    e = rng.normal(size=w.n + 1)
    e /= np.sqrt(e @ ing.Pi @ e / (0.25 * ing.omega))
    xa = eq.xa0 + e
    # the sum stops once converged, well within N_f = 1000; a step-by-step
    # sum over 2000 steps gives the same value
    v1 = terminal_cost(w, eq, ing.K_lq, ing.Q_lq, xa, N_f=1000)
    s, full = AugmentedState(xa[:w.n], xa[w.n:]), 0.0
    for _ in range(2000):
        e = s.stacked() - eq.xa0
        full += e @ ing.Q_lq @ e
        s, _ = observer.augmented_step(w, s, -(ing.K_lq @ e), eq.y0)
    assert v1 == pytest.approx(full, rel=1e-12, abs=0)


def test_terminal_cost_matches_lq_cost_to_go_for_linear_system(small_setup):
    # on the linearized system the truncated rollout cost approaches the
    # DARE cost-to-go; check on a tiny deviation where nonlinearity is weak
    w, eq, ing, _ = small_setup
    _, P = lq_gain(ing.lin, ing.Q, ing.R)
    rng = np.random.default_rng(227)
    e = 1e-4 * rng.normal(size=w.n + 1)
    vf = terminal_cost(w, eq, ing.K_lq, ing.Q_lq, eq.xa0 + e, N_f=2000)
    lq = e @ P @ e
    assert vf == pytest.approx(lq, rel=5e-3)


# ---------------------------------------------------------------------------
# FHOCP
# ---------------------------------------------------------------------------

def test_fhocp_at_equilibrium_returns_zero_plan(small_setup):
    w, eq, ing, _ = small_setup
    cfg = FhocpConfig(N_c=6, N_p=15)
    sol = fhocp_solve(w, ing, cfg, AugmentedState(eq.x0, eq.u0), eq.u0)
    assert sol.feasible
    assert np.max(np.abs(sol.v)) < 1e-6
    assert sol.cost < 1e-12


def test_fhocp_respects_input_box_and_improves_warm_start(small_setup):
    w, eq, ing, _ = small_setup
    rng = np.random.default_rng(229)
    cfg = FhocpConfig(N_c=6, N_p=15)
    # start away from the equilibrium but inside the terminal set
    na = w.n + 1
    e = rng.normal(size=na)
    e /= np.sqrt(e @ ing.Pi @ e / (0.5 * ing.omega))
    xa = eq.xa0 + e
    est = AugmentedState(xa[:w.n], xa[w.n:])
    sol = fhocp_solve(w, ing, cfg, est, xa[w.n:])
    assert sol.feasible

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

    # warm start: cost never degrades
    warm = mpc.shifted_warm_start(sol, ing, w, cfg)
    sol2 = fhocp_solve(w, ing, cfg, est, xa[w.n:], warm_start=warm)
    _, Jwarm, bv, tv, _ = kernels.fhocp_forward(
        warm, np.ascontiguousarray(xa), xa[w.n:], eq.y0,
        *w.arrays(), w.U_o, w.b_o, np.ascontiguousarray(ing.K_lq), eq.xa0,
        np.ascontiguousarray(ing.Q), np.ascontiguousarray(ing.R),
        np.ascontiguousarray(ing.Q_lq), np.ascontiguousarray(ing.Pi),
        ing.omega, cfg.N_c, cfg.N_p, ing.N_f, 0.0, 0.0)
    if bv <= cfg.constraint_tol and tv <= cfg.constraint_tol * max(1, ing.omega):
        assert sol2.cost <= Jwarm + 1e-12


def test_fhocp_nominal_cost_decreases_along_closed_loop(small_setup):
    w, eq, ing, _ = small_setup
    rng = np.random.default_rng(233)
    cfg = FhocpConfig(N_c=6, N_p=15)
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
