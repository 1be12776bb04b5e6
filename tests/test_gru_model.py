import numpy as np
import pytest

from grumpc import gru_model, kernels
from grumpc.gru_model import (DimensionMismatchError, GruWeights, gate_bounds,
                              diss_residual, gru_output, gru_step, jacobians,
                              simulate, stability_penalty, zero_weights)

from conftest import scaled_certified_weights


def sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def reference_step(w, x, u):
    """Line-by-line transcription of the state update, kept as the oracle."""
    z = sigmoid(w.W_z @ u + w.U_z @ x + w.b_z)
    f = sigmoid(w.W_f @ u + w.U_f @ x + w.b_f)
    r = np.tanh(w.W_r @ u + w.U_r @ (f * x) + w.b_r)
    return z * x + (1.0 - z) * r


def test_zero_weights_zero_state_stays_zero():
    w = zero_weights(3, 1, 1)
    assert np.all(gru_step(w, np.zeros(3), np.array([0.7])) == 0.0)


def test_zero_weights_halves_state():
    w = zero_weights(3, 1, 1)
    v = np.array([0.3, -0.8, 0.1])
    np.testing.assert_allclose(gru_step(w, v, np.array([0.2])), 0.5 * v)


def test_step_matches_reference_transcription():
    rng = np.random.default_rng(101)
    for _ in range(20):
        w = gru_model.random_weights(3, 1, 1, rng)
        x = rng.uniform(-1, 1, 3)
        u = rng.uniform(-1, 1, 1)
        np.testing.assert_allclose(gru_step(w, x, u), reference_step(w, x, u),
                                   rtol=0, atol=1e-12)


def test_step_dimension_mismatch_names_operand():
    w = zero_weights(3, 1, 1)
    with pytest.raises(DimensionMismatchError, match="x"):
        gru_step(w, np.zeros(4), np.zeros(1))
    with pytest.raises(DimensionMismatchError, match="u"):
        gru_step(w, np.zeros(3), np.zeros(2))


def test_step_warns_outside_unit_box():
    w = zero_weights(2, 1, 1)
    with pytest.warns(UserWarning):
        gru_step(w, np.zeros(2), np.array([1.5]))


def test_output_map():
    w = zero_weights(3, 1, 1).replace(b_o=np.array([0.25]))
    assert gru_output(w, np.zeros(3))[0] == 0.25
    w2 = zero_weights(3, 1, 1).replace(U_o=np.array([[1.0, 0, 0]]))
    assert gru_output(w2, np.array([0.7, -1, 2]))[0] == 0.7
    rng = np.random.default_rng(5)
    w3 = gru_model.random_weights(4, 2, 2, rng)
    x = rng.uniform(-1, 1, 4)
    np.testing.assert_allclose(gru_output(w3, x), w3.U_o @ x + w3.b_o)


def test_gate_bounds_zero_weights():
    gb = gate_bounds(zero_weights(3, 1, 1))
    assert gb.sigma_z_bar == 0.5
    assert gb.phi_r_bar == 0.0
    assert gb.sigma_f_bar == 0.5


def test_gate_bounds_scalar_hand_value():
    w = zero_weights(1, 1, 1).replace(U_r=np.array([[4.0]]))
    gb = gate_bounds(w)
    assert gb.phi_r_bar == pytest.approx(np.tanh(4.0), abs=1e-15)


def test_gate_bounds_stacked_norm_brute_force():
    rng = np.random.default_rng(7)
    w = gru_model.random_weights(5, 2, 2, rng)
    rows = [sum(abs(v) for v in np.concatenate([w.W_z[i], w.U_z[i], [w.b_z[i]]]))
            for i in range(5)]
    expected = 1.0 / (1.0 + np.exp(-max(rows)))
    assert gate_bounds(w).sigma_z_bar == pytest.approx(expected, abs=1e-15)


def test_diss_residual_zero_weights():
    assert diss_residual(zero_weights(3, 1, 1)) == pytest.approx(-1.0)


def test_diss_residual_scalar_hand_value():
    w = zero_weights(1, 1, 1).replace(U_r=np.array([[4.0]]))
    # 4 * (0 + 0.5) + 0 - 1 = 1
    assert diss_residual(w) == pytest.approx(1.0, abs=1e-15)


def test_stability_penalty():
    assert stability_penalty(0.0, 1e-2, 1e-6) == 0.0
    assert stability_penalty(1.0, 1e-2, 1e-6) == pytest.approx(1e-2)
    assert stability_penalty(-1.0, 1e-2, 1e-6) == pytest.approx(-1e-6)
    with pytest.raises(ValueError):
        stability_penalty(0.1, -1.0, 1e-6)
    # strictly increasing on a grid
    vals = [stability_penalty(nu, 1e-2, 1e-6) for nu in np.linspace(-2, 2, 41)]
    assert np.all(np.diff(vals) > 0)


def test_simulate_shapes_and_trivial_case():
    w = zero_weights(2, 1, 1)
    X, Y = simulate(w, np.zeros(2), np.zeros((1, 1)))
    assert X.shape == (2, 2) and Y.shape == (1, 1)
    assert np.all(X == 0.0)
    with pytest.raises(ValueError):
        simulate(w, np.zeros(2), np.zeros((0, 1)))


def test_simulate_certified_trajectories_converge():
    rng = np.random.default_rng(11)
    w = scaled_certified_weights(rng, n=4)
    assert diss_residual(w) < 0
    u_seq = np.tile(rng.uniform(-1, 1, (1, 1)), (500, 1))
    Xa, _ = simulate(w, rng.uniform(-1, 1, 4), u_seq)
    Xb, _ = simulate(w, rng.uniform(-1, 1, 4), u_seq)
    gap = np.linalg.norm(Xa - Xb, axis=1)
    assert gap[-1] < 1e-6
    assert gap[-1] < gap[0]


def test_invariant_set_property():
    rng = np.random.default_rng(13)
    for _ in range(50):
        w = gru_model.random_weights(4, 2, 2, rng)
        x = rng.uniform(-1, 1, 4)
        u = rng.uniform(-1, 1, 2)
        assert np.max(np.abs(gru_step(w, x, u))) <= 1.0 + 1e-12


def test_finite_time_entry_into_unit_box():
    rng = np.random.default_rng(17)
    for _ in range(10):
        w = gru_model.random_weights(3, 1, 1, rng)
        x = rng.uniform(-10, 10, 3)
        entered = False
        for k in range(200):
            x = gru_step(w, x, rng.uniform(-1, 1, 1))
            if np.max(np.abs(x)) <= 1.0:
                entered = True
                break
        assert entered
        # once inside, never leaves
        for _ in range(100):
            x = gru_step(w, x, rng.uniform(-1, 1, 1))
            assert np.max(np.abs(x)) <= 1.0 + 1e-12


def test_step_bitwise_reproducible():
    rng = np.random.default_rng(19)
    w = gru_model.random_weights(5, 1, 1, rng)
    x = rng.uniform(-1, 1, 5)
    u = rng.uniform(-1, 1, 1)
    a = gru_step(w, x, u)
    b = gru_step(w, x, u)
    assert np.array_equal(a, b)


def test_jacobians_trivial_cases():
    w = zero_weights(3, 1, 1)
    dx, du, dy = jacobians(w, np.array([0.2, -0.4, 0.9]), np.array([0.1]))
    np.testing.assert_allclose(dx, 0.5 * np.eye(3), atol=1e-15)
    np.testing.assert_allclose(du, 0.0, atol=1e-15)
    np.testing.assert_allclose(dy, w.U_o)


def test_jacobians_match_finite_differences():
    rng = np.random.default_rng(23)
    eps = 1e-6
    for _ in range(100):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        w = gru_model.random_weights(n, m, m, rng)
        x = rng.uniform(-1, 1, n)
        u = rng.uniform(-1, 1, m)
        dx, du, _ = jacobians(w, x, u)
        fd_x = np.empty_like(dx)
        for j in range(n):
            e = np.zeros(n); e[j] = eps
            fd_x[:, j] = (gru_step(w, x + e, u) - gru_step(w, x - e, u)) / (2 * eps)
        fd_u = np.empty_like(du)
        for j in range(m):
            e = np.zeros(m); e[j] = eps
            fd_u[:, j] = (gru_step(w, x, u + e) - gru_step(w, x, u - e)) / (2 * eps)
        scale = max(1.0, np.max(np.abs(fd_x)), np.max(np.abs(fd_u)))
        assert np.max(np.abs(dx - fd_x)) / scale < 1e-5
        assert np.max(np.abs(du - fd_u)) / scale < 1e-5


def test_weights_validation():
    with pytest.raises(ValueError):
        zero_weights(3, 2, 1)          # m != p
    with pytest.raises(DimensionMismatchError):
        GruWeights(n=2, m=1, p=1,
                   W_z=np.zeros((3, 1)), U_z=np.zeros((2, 2)), b_z=np.zeros(2),
                   W_f=np.zeros((2, 1)), U_f=np.zeros((2, 2)), b_f=np.zeros(2),
                   W_r=np.zeros((2, 1)), U_r=np.zeros((2, 2)), b_r=np.zeros(2),
                   U_o=np.zeros((1, 2)), b_o=np.zeros(1))
    with pytest.raises(ValueError, match="finite"):
        zero_weights(2, 1, 1).replace(b_r=np.array([np.nan, 0.0]))


def test_weights_are_read_only_copies_with_a_cached_packed_cell():
    # the arrays are copies that refuse writes, so the packed cell cached
    # on first use equals a fresh kernels.stack_gates for the life of w
    rng = np.random.default_rng(31)
    src = gru_model.random_weights(4, 2, 2, rng)
    arrays = {name: getattr(src, name).copy() for name in gru_model.WEIGHT_FIELDS}
    w = GruWeights(n=4, m=2, p=2, **arrays)
    arrays["U_z"][0, 0] += 1.0                  # the caller's array is not w's
    assert w.U_z[0, 0] == src.U_z[0, 0]
    for name in gru_model.WEIGHT_FIELDS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(w, name)[...] = 0.0
    assert w.cell is w.cell
    for a, b in zip(w.cell, kernels.stack_gates(*w.arrays())):
        np.testing.assert_array_equal(a, b)


def test_weight_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(29)
    w = gru_model.random_weights(4, 1, 1, rng)
    # awkward values that expose lossy formatting
    w = w.replace(b_o=np.array([1.0 / 3.0]), b_z=w.b_z * 1e-17)
    path = tmp_path / "w.json"
    gru_model.save_weights(w, path)
    w2 = gru_model.load_weights(path)
    for name in gru_model.WEIGHT_FIELDS:
        assert np.array_equal(getattr(w, name), getattr(w2, name)), name
    assert (w2.n, w2.m, w2.p) == (w.n, w.m, w.p)
