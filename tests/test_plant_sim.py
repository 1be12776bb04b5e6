import numpy as np
import pytest

from grumpc import kernels, plant_sim, sysid
from grumpc.plant_sim import (DisturbanceSchedule, LevelCollapseError,
                              OutputSolveError, PhParams, PlantState,
                              integrate_step, nominal_point, output_solve,
                              run_experiment)


def output_residual(x1, x2, y, p):
    """Charge balance c(x, y); strictly increasing in y for x2 >= 0."""
    return float(kernels.ph_c_residual(x1, x2, y, p.pK1, p.pK2))


def ph_dynamics(s, u, d, p):
    """State derivative at base flow u and buffer flow d."""
    return np.array(kernels.ph_rhs(s.x1, s.x2, s.x3, float(u), float(d),
                                   *p.rhs_args()))


def state_array(s):
    return np.array([s.x1, s.x2, s.x3])


def reference_rhs(s, u, d, p):
    """Independent term-by-term transcription of the reactor ODE."""
    f1 = np.array([p.q1 / (p.A1 * s.x3) * (p.Wa1 - s.x1),
                   p.q1 / (p.A1 * s.x3) * (p.Wb1 - s.x2),
                   (p.q1 - p.Cv4 * (s.x3 + p.z) ** p.n) / p.A1])
    f2 = np.array([(p.Wa3 - s.x1) / (p.A1 * s.x3),
                   (p.Wb3 - s.x2) / (p.A1 * s.x3),
                   1.0 / p.A1])
    f3 = np.array([(p.Wa2 - s.x1) / (p.A1 * s.x3),
                   (p.Wb2 - s.x2) / (p.A1 * s.x3),
                   1.0 / p.A1])
    return f1 + f2 * u + f3 * d


def bisect_ph(s, p, iters=80):
    """Bisection-only root of the charge balance, the cross-check oracle."""
    lo, hi = 0.0, 14.0
    clo = output_residual(s.x1, s.x2, lo, p)
    if clo * output_residual(s.x1, s.x2, hi, p) > 0:
        raise AssertionError("no bracket")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        cm = output_residual(s.x1, s.x2, mid, p)
        if cm * clo <= 0:
            hi = mid
        else:
            lo = mid
            clo = cm
    return 0.5 * (lo + hi)


def random_admissible_state(rng):
    return PlantState(x1=rng.uniform(-1e-3, 1e-3),
                      x2=rng.uniform(1e-5, 1e-3),
                      x3=rng.uniform(5.0, 25.0))


def test_calibration_selects_standard_interpretation(ph_params):
    p = plant_sim.calibrate_params()
    assert p == ph_params
    assert {k: getattr(p, k) for k in plant_sim.STANDARD_CONCENTRATIONS} \
        == plant_sim.STANDARD_CONCENTRATIONS
    s, q3 = nominal_point(p)
    assert output_solve(s, p) == pytest.approx(7.0, abs=1e-6)
    # the table q3 is a rounded value of the nominal one
    assert q3 == pytest.approx(15.6, abs=0.1)
    # the table flows hold pH 7.0 only to within the startup check's 0.1
    with pytest.raises(ValueError, match="parameter table gives pH"):
        plant_sim.calibrate_params(tol=1e-6)


def test_nominal_point_is_equilibrium(ph_params):
    s, q3 = nominal_point(ph_params)
    dx = ph_dynamics(s, q3, ph_params.q2, ph_params)
    assert np.linalg.norm(dx) < 1e-8
    assert output_solve(s, ph_params) == pytest.approx(7.0, abs=1e-6)


def test_dynamics_match_reference_transcription(ph_params):
    rng = np.random.default_rng(31)
    for _ in range(25):
        s = random_admissible_state(rng)
        u = rng.uniform(11.2, 17.2)
        d = rng.uniform(0.3, 0.7)
        got = ph_dynamics(s, u, d, ph_params)
        want = reference_rhs(s, u, d, ph_params)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_level_outflow_sign(ph_params):
    p = ph_params
    # with u = d = 0 the level derivative is (q1 - Cv4 (x3+z)^n) / A1
    for x3 in (0.5, 5.0, 14.0, 30.0):
        s = PlantState(0.0, 0.0, x3)
        want = (p.q1 - p.Cv4 * (x3 + p.z) ** p.n) / p.A1
        got = ph_dynamics(s, 0.0, 0.0, p)[2]
        assert got == pytest.approx(want, rel=1e-14)
        assert np.sign(got) == np.sign(want)


def test_level_collapse_rejected(ph_params):
    with pytest.raises(LevelCollapseError):
        PlantState(0.0, 0.0, -1.0)


def test_output_solve_constructed_roots(ph_params):
    p = ph_params
    # with x2 = 0 the charge balance reduces to x1 + 10^(y-14) - 10^-y
    for y0 in (5.0, 7.0, 9.0):
        x1 = -(10.0 ** (y0 - 14.0) - 10.0 ** (-y0))
        s = PlantState(x1, 0.0, 10.0)
        assert output_solve(s, p) == pytest.approx(y0, abs=1e-9)


def test_output_solve_no_bracket_raises(ph_params):
    s = PlantState(1.0, 0.0, 10.0)   # strongly positive for all y
    with pytest.raises(OutputSolveError):
        output_solve(s, ph_params)


def test_output_solver_cross_check_against_bisection(ph_params):
    rng = np.random.default_rng(33)
    for _ in range(100):
        s = random_admissible_state(rng)
        try:
            want = bisect_ph(s, ph_params)
        except AssertionError:
            continue
        assert abs(output_solve(s, ph_params) - want) < 1e-10


def test_residual_tolerance_at_root(ph_params):
    rng = np.random.default_rng(34)
    for _ in range(20):
        s = random_admissible_state(rng)
        y = output_solve(s, ph_params)
        assert abs(output_residual(s.x1, s.x2, y, ph_params)) < 1e-12
    # over the reactor's state range the bisection ends within one ulp of
    # the root, far below 1e-13, the residual at which a Newton polish
    # would have stopped
    for _ in range(2000):
        x1, x2 = rng.uniform(-3e-2, 3e-2), rng.uniform(0.0, 3e-2)
        y = kernels.ph_output_solve(x1, x2, ph_params.pK1, ph_params.pK2)
        if np.isfinite(y):
            assert abs(output_residual(x1, x2, y, ph_params)) < 1e-15


def test_monotone_charge_balance_under_nominal_states(ph_params):
    s, _ = nominal_point(ph_params)
    u = sysid.generate_mprs(np.linspace(11.2, 17.2, 5), (30, 40), 200,
                            np.random.default_rng(35))
    state = s
    grid = np.linspace(0.5, 13.5, 53)
    for k in range(0, 200, 20):
        state = integrate_step(state, u[k], ph_params.q2, ph_params, 10.0)
        c_vals = [output_residual(state.x1, state.x2, y, ph_params) for y in grid]
        assert np.all(np.diff(c_vals) > 0)


def test_integrate_equilibrium_fixed_point(ph_params):
    s, q3 = nominal_point(ph_params)
    s2 = integrate_step(s, q3, ph_params.q2, ph_params, 10.0, substeps=10)
    assert np.max(np.abs(state_array(s2) - state_array(s))) < 1e-12


def test_rk4_order_four(ph_params):
    s, _ = nominal_point(ph_params)
    u, d = 17.0, ph_params.q2
    ref = state_array(integrate_step(s, u, d, ph_params, 10.0, substeps=512))
    e = []
    for sub in (1, 2, 4):
        got = state_array(integrate_step(s, u, d, ph_params, 10.0, substeps=sub))
        e.append(np.linalg.norm(got - ref))
    assert 12.0 <= e[0] / e[1] <= 20.0
    assert 12.0 <= e[1] / e[2] <= 20.0


def test_refinement_convergence(ph_params):
    s, _ = nominal_point(ph_params)
    a = integrate_step(s, 16.5, ph_params.q2, ph_params, 10.0, substeps=10)
    b = integrate_step(s, 16.5, ph_params.q2, ph_params, 10.0, substeps=100)
    assert np.max(np.abs(state_array(a) - state_array(b))) < 1e-8


def test_mass_level_consistency(ph_params):
    # with all inflows zero the level never rises
    s = PlantState(1e-4, 1e-4, 15.0)
    p = ph_params
    zero_inflow = PhParams(**{**{k: getattr(p, k) for k in plant_sim.PARAM_KEYS},
                              "q1": 0.0})
    levels = [s.x3]
    for _ in range(8):
        s = integrate_step(s, 0.0, 0.0, zero_inflow, 10.0)
        levels.append(s.x3)
    assert np.all(np.diff(levels) <= 0)
    # draining to empty is eventually flagged, not silently continued
    with pytest.raises(LevelCollapseError):
        state = s
        for _ in range(100):
            state = integrate_step(state, 0.0, 0.0, zero_inflow, 10.0)


# ---------------------------------------------------------------------------
# experiments and disturbances
# ---------------------------------------------------------------------------

def test_run_experiment_constant_nominal_holds(ph_params):
    _, q3 = nominal_point(ph_params)
    u = np.full(30, q3)
    ts = run_experiment(u, ph_params)
    assert np.max(np.abs(ts.y - 7.0)) < 1e-6
    assert np.all(np.diff(ts.t) == 10.0)


@pytest.mark.parametrize("key,value", [("tau_s", 0.0), ("tau_s", -10.0),
                                       ("substeps", 0)])
def test_run_experiment_refuses_a_bad_step(ph_params, key, value):
    # substeps 0 ended in a ZeroDivisionError in the RK4 integrator, and
    # tau_s 0 in "t must be strictly increasing"
    with pytest.raises(ValueError, match=key):
        run_experiment(np.full(5, 15.0), ph_params, **{key: value})


def test_schedule_validation():
    with pytest.raises(ValueError):
        DisturbanceSchedule([(0.0, 10.0, "bogus-channel", 1.0)])
    with pytest.raises(ValueError):
        DisturbanceSchedule([(10.0, 5.0, "output-additive", 1.0)])
    with pytest.raises(ValueError):
        DisturbanceSchedule([(0.0, 10.0, "output-additive", 1.0),
                             (5.0, 15.0, "output-additive", 2.0)])
    # non-overlapping per channel is fine, overlap across channels too
    DisturbanceSchedule([(0.0, 10.0, "output-additive", 1.0),
                         (5.0, 15.0, "input-additive", 2.0)])


def test_params_file_round_trip(tmp_path, ph_params):
    path = tmp_path / "params.json"
    plant_sim.save_params(ph_params, path)
    p2 = plant_sim.load_params(path)
    for key in plant_sim.PARAM_KEYS:
        assert getattr(p2, key) == getattr(ph_params, key), key


def test_nominal_flow_closed_form_equals_scipy_brentq():
    # the closed-form base flow is SciPy's Brent root of the equilibrium pH,
    # bit for bit on the standard parameters and within Brent's xtol on
    # perturbed ones; a root outside the actuator range is refused by both
    from scipy.optimize import brentq

    def equilibrium_ph(p, q3):
        x1, x2, _ = plant_sim._mixing_equilibrium(p, q3)
        return float(kernels.ph_output_solve(x1, x2, p.pK1, p.pK2))

    def scipy_q3(p):
        return brentq(lambda q: equilibrium_ph(p, q) - p.pH,
                      11.2, 17.2, xtol=1e-13, rtol=8.9e-16)

    p = plant_sim.calibrate_params()
    q3 = scipy_q3(p)
    assert plant_sim._nominal_q3(p) == q3
    assert nominal_point(p)[1] == q3
    rng = np.random.default_rng(17)
    fields = {k: getattr(p, k) for k in plant_sim.PARAM_KEYS}
    outside = 0
    for _ in range(200):
        pp = PhParams(**{**fields, "q1": p.q1 * rng.uniform(0.9, 1.1),
                         "q2": p.q2 * rng.uniform(0.5, 1.5),
                         "Wa1": p.Wa1 * rng.uniform(0.95, 1.05)})
        try:
            want = scipy_q3(pp)
        except ValueError:
            outside += 1
            with pytest.raises(ValueError, match="outside"):
                nominal_point(pp)
            continue
        s, got = nominal_point(pp)
        assert abs(got - want) <= 1e-13
        assert abs(output_residual(s.x1, s.x2, pp.pH, pp)) <= 1e-12
    assert 0 < outside < 100
    with pytest.raises(ValueError, match="outside"):
        plant_sim._nominal_q3(PhParams(**{**fields, "q1": 2.0 * p.q1}))
