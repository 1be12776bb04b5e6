import csv
import time

import numpy as np
import pytest

from grumpc import gru_model, sysid
from grumpc.sysid import (NormalizationMap, SequenceBatch, TimeSeries,
                          TrainConfig, fit_index, generate_mprs,
                          loss_gradient, make_sequences, mse, normalize,
                          train)

from conftest import zero_weights


def make_series(T=60, m=1, p=1, seed=0, tau_s=10.0):
    rng = np.random.default_rng(seed)
    t = np.arange(T) * tau_s
    return TimeSeries(t, rng.uniform(11.2, 17.2, (T, m)),
                      rng.uniform(5.0, 9.0, (T, p)))


# ---------------------------------------------------------------------------
# MPRS
# ---------------------------------------------------------------------------

def test_mprs_single_level_is_constant():
    sig = generate_mprs([14.2], (30, 60), 200, np.random.default_rng(1))
    assert np.all(sig == 14.2)


def test_mprs_deterministic_for_seed():
    a = generate_mprs([1.0, 2.0, 3.0], (30, 40), 500, np.random.default_rng(42))
    b = generate_mprs([1.0, 2.0, 3.0], (30, 40), 500, np.random.default_rng(42))
    assert np.array_equal(a, b)
    c = generate_mprs([1.0, 2.0, 3.0], (30, 40), 500, np.random.default_rng(43))
    assert not np.array_equal(a, c)


def test_mprs_duration_at_paper_scale():
    sig = generate_mprs([11.2, 17.2], (30, 60), 5060, np.random.default_rng(3))
    assert sig.shape == (5060,)
    hours = 5060 * 10.0 / 3600.0
    assert hours == pytest.approx(14.0, abs=0.1)


def test_mprs_rejects_empty_levels_and_warns_short_holds():
    with pytest.raises(ValueError):
        generate_mprs([], (30, 60), 100, np.random.default_rng(0))
    with pytest.warns(UserWarning):
        generate_mprs([1.0, 2.0], (5, 10), 100, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_paper_input_range():
    nmap = NormalizationMap([14.2], [3.0], [7.0], [2.0])
    assert nmap.normalize_u([[17.2]])[0, 0] == pytest.approx(1.0)
    assert nmap.normalize_u([[11.2]])[0, 0] == pytest.approx(-1.0)


def denormalize(ts: TimeSeries, nmap: NormalizationMap) -> TimeSeries:
    return TimeSeries(ts.t.copy(), nmap.denormalize_u(ts.u), nmap.denormalize_y(ts.y))


def test_normalize_round_trip():
    ts = make_series(seed=4)
    nmap = NormalizationMap.from_data(ts, u_range=(11.2, 17.2))
    back = denormalize(normalize(ts, nmap), nmap)
    assert np.max(np.abs(back.u - ts.u)) < 1e-12
    assert np.max(np.abs(back.y - ts.y)) < 1e-12


def test_constant_channel_rejected():
    ts = make_series(seed=5)
    ts.y[:] = 7.0
    with pytest.raises(ValueError):
        NormalizationMap.from_data(ts, u_range=(11.2, 17.2))


def test_normalization_map_round_trip_file(tmp_path):
    nmap = NormalizationMap([14.2], [3.0], [7.123456789012345], [1.987654321e-3])
    nmap.save(tmp_path / "map.json")
    m2 = NormalizationMap.load(tmp_path / "map.json")
    assert np.array_equal(m2.y_center, nmap.y_center)
    assert np.array_equal(m2.y_half, nmap.y_half)


# ---------------------------------------------------------------------------
# sequence slicing
# ---------------------------------------------------------------------------

def test_make_sequences_paper_count():
    ts = make_series(T=5060, seed=6)
    batch = make_sequences(ts, 1000, 5)
    assert len(batch) == 813


def test_make_sequences_disjoint_and_single():
    ts = make_series(T=40, seed=7)
    disjoint = make_sequences(ts, 10, 10)
    assert len(disjoint) == 4
    assert np.array_equal(disjoint.offsets, [0, 10, 20, 30])
    single = make_sequences(ts, 40, 5)
    assert len(single) == 1
    with pytest.raises(ValueError):
        make_sequences(ts, 41, 5)


def test_sequences_preserve_all_samples_when_overlapping():
    ts = make_series(T=57, seed=8)
    batch = make_sequences(ts, 20, 7)
    covered = np.zeros(57, dtype=bool)
    for o in batch.offsets:
        covered[o:o + 20] = True
    assert covered[:batch.offsets[-1] + 20].all()


# ---------------------------------------------------------------------------
# loss and gradient
# ---------------------------------------------------------------------------

def naive_loss(w, batch, x0s, cfg):
    """Two-loop summation oracle for the washed-out batch loss."""
    total = 0.0
    for b in range(len(batch)):
        x = x0s[b].copy()
        for k in range(batch.T_s):
            x = gru_model.gru_step(w, x, batch.U[b, k])
            if k >= cfg.washout:
                e = gru_model.gru_output(w, x) - batch.Y[b, k]
                total += float(e @ e) / (batch.T_s - cfg.washout)
    nu = gru_model.diss_residual(w)
    return total + gru_model.stability_penalty(nu, cfg.rho_plus, cfg.rho_minus)


def tbptt_loss(w, batch, x0s, cfg):
    """The training loss alone, as loss_gradient returns it."""
    return loss_gradient(w, batch, x0s, cfg)[0]


def small_batch(rng, B=3, T=15, n=3, m=1):
    U = rng.uniform(-1, 1, (B, T, m))
    Y = rng.uniform(-1, 1, (B, T, m))
    return SequenceBatch(U, Y, np.arange(B), T, 1)


def test_loss_zero_when_outputs_match_and_nu_zero():
    # zero weights except a residual-neutral tweak is hard to build; instead
    # check the mse part alone: targets generated by the model itself
    rng = np.random.default_rng(9)
    w = gru_model.random_weights(3, 1, 1, rng)
    cfg = TrainConfig(n_states=3, washout=2, rho_plus=1e-2, rho_minus=1e-6)
    U = rng.uniform(-1, 1, (2, 12, 1))
    x0s = rng.uniform(-1, 1, (2, 3))
    Y = np.stack([gru_model.simulate(w, x0s[b], U[b])[1] for b in range(2)])
    batch = SequenceBatch(U, Y, np.arange(2), 12, 1)
    nu = gru_model.diss_residual(w)
    pen = gru_model.stability_penalty(nu, cfg.rho_plus, cfg.rho_minus)
    assert tbptt_loss(w, batch, x0s, cfg) == pytest.approx(pen, abs=1e-12)


def test_loss_constant_unit_error_is_one_plus_penalty():
    w = zero_weights(2, 1, 1)          # output identically 0
    T = 9
    batch = SequenceBatch(np.zeros((1, T, 1)), np.ones((1, T, 1)),
                          np.zeros(1), T, 1)
    cfg = TrainConfig(n_states=2, washout=0)
    nu = gru_model.diss_residual(w)
    pen = gru_model.stability_penalty(nu, cfg.rho_plus, cfg.rho_minus)
    assert tbptt_loss(w, batch, np.zeros((1, 2)), cfg) == pytest.approx(1.0 + pen)


def test_loss_matches_naive_two_loop_oracle():
    rng = np.random.default_rng(10)
    for _ in range(5):
        w = gru_model.random_weights(3, 1, 1, rng)
        batch = small_batch(rng)
        x0s = rng.uniform(-1, 1, (3, 3))
        cfg = TrainConfig(n_states=3, washout=4)
        assert tbptt_loss(w, batch, x0s, cfg) == pytest.approx(
            naive_loss(w, batch, x0s, cfg), abs=1e-10)


def test_washout_masks_early_targets():
    rng = np.random.default_rng(12)
    w = gru_model.random_weights(3, 1, 1, rng)
    batch = small_batch(rng)
    x0s = rng.uniform(-1, 1, (3, 3))
    cfg = TrainConfig(n_states=3, washout=5)
    base = tbptt_loss(w, batch, x0s, cfg)
    batch.Y[:, :5] += rng.uniform(-3, 3, (3, 5, 1))
    assert tbptt_loss(w, batch, x0s, cfg) == pytest.approx(base, abs=1e-14)


def test_empty_batch_rejected():
    w = zero_weights(2, 1, 1)
    batch = SequenceBatch(np.zeros((0, 5, 1)), np.zeros((0, 5, 1)),
                          np.zeros(0), 5, 1)
    with pytest.raises(ValueError):
        tbptt_loss(w, batch, np.zeros((0, 2)), TrainConfig(n_states=2, washout=0))


def flatten_grads(grads):
    return np.concatenate([grads[k].ravel() for k in gru_model.WEIGHT_FIELDS])


def perturbed(w, name, i, j, eps):
    arr = getattr(w, name).copy()
    if arr.ndim == 1:
        arr[i] += eps
    else:
        arr[i, j] += eps
    return w.replace(**{name: arr})


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(14)
    eps = 1e-6
    for trial in range(5):
        n = int(rng.integers(2, 4))
        w = gru_model.random_weights(n, 1, 1, rng)
        B, T = 2, int(rng.integers(8, 16))
        U = rng.uniform(-1, 1, (B, T, 1))
        Y = rng.uniform(-1, 1, (B, T, 1))
        batch = SequenceBatch(U, Y, np.arange(B), T, 1)
        x0s = rng.uniform(-1, 1, (B, n))
        cfg = TrainConfig(n_states=n, washout=3)
        _, grads = loss_gradient(w, batch, x0s, cfg)
        worst = 0.0
        for name in gru_model.WEIGHT_FIELDS:
            arr = getattr(w, name)
            it = np.ndindex(arr.shape) if arr.ndim == 2 else ((i,) for i in range(arr.size))
            for idx in it:
                i = idx[0]
                j = idx[1] if len(idx) == 2 else 0
                lp = tbptt_loss(perturbed(w, name, i, j, eps), batch, x0s, cfg)
                lm = tbptt_loss(perturbed(w, name, i, j, -eps), batch, x0s, cfg)
                fd = (lp - lm) / (2 * eps)
                g = grads[name][idx] if arr.ndim == 2 else grads[name][i]
                worst = max(worst, abs(g - fd) / max(1.0, abs(fd)))
        assert worst < 1e-5


def test_gradient_zero_when_no_error_and_no_penalty_slope():
    rng = np.random.default_rng(15)
    w = gru_model.random_weights(3, 1, 1, rng)
    U = rng.uniform(-1, 1, (1, 10, 1))
    x0s = rng.uniform(-1, 1, (1, 3))
    Y = gru_model.simulate(w, x0s[0], U[0])[1][None]
    batch = SequenceBatch(U, Y, np.zeros(1), 10, 1)
    cfg = TrainConfig(n_states=3, washout=0, rho_plus=1e-300, rho_minus=1e-300)
    _, grads = loss_gradient(w, batch, x0s, cfg)
    assert np.max(np.abs(flatten_grads(grads))) < 1e-12


def reference_penalty_subgradient(w, rho_plus, rho_minus):
    """penalty_subgradient as first written: the norms from gate_bounds and
    inf_norm, the argmax rows from the row sums formed again, every gradient
    array zero-filled, summed into and scaled."""
    def row_argmax(*arrays):
        rows = sum(np.sum(np.abs(np.atleast_2d(A.T).T), axis=1) for A in arrays)
        i = int(np.argmax(rows))
        out = []
        for A in arrays:
            g = np.zeros_like(A)
            g[i] = np.sign(A[i])
            out.append(g)
        return out

    gb = gru_model.gate_bounds(w)
    nUr, nUf, nUz = (gru_model.inf_norm(U) for U in (w.U_r, w.U_f, w.U_z))
    sz, pr, sf = gb.sigma_z_bar, gb.phi_r_bar, gb.sigma_f_bar
    nu = nUr * (0.25 * nUf + sf) + 0.25 * (1.0 + pr) / (1.0 - sz) * nUz - 1.0
    coeff = rho_plus if nu > 0 else rho_minus
    grads = {name: np.zeros_like(getattr(w, name)) for name in gru_model.WEIGHT_FIELDS}
    grads["U_r"] += (0.25 * nUf + sf) * row_argmax(w.U_r)[0]
    grads["U_f"] += 0.25 * nUr * row_argmax(w.U_f)[0]
    grads["U_z"] += 0.25 * (1.0 + pr) / (1.0 - sz) * row_argmax(w.U_z)[0]
    for gate, d in (("f", nUr * sf * (1.0 - sf)),
                    ("r", 0.25 * nUz / (1.0 - sz) * (1.0 - pr * pr)),
                    ("z", 0.25 * (1.0 + pr) * nUz / (1.0 - sz) ** 2 * sz * (1.0 - sz))):
        names = (f"W_{gate}", f"U_{gate}", f"b_{gate}")
        for name, g in zip(names, row_argmax(*(getattr(w, k) for k in names))):
            grads[name] += d * g
    for name in grads:
        grads[name] *= coeff
    return float(nu), grads


def test_penalty_subgradient_equals_the_zero_filled_form():
    # each row sum formed once, only the rows that are not zero written: nu
    # and every gradient array equal the reference bit for bit, ties included
    rng = np.random.default_rng(17)
    for k in range(200):
        n, p = int(rng.integers(1, 12)), int(rng.integers(1, 3))
        w = gru_model.random_weights(n, p, p, rng, scale=float(rng.uniform(0.05, 1.5)))
        if k % 5 == 0:      # tied rows: the lowest index wins on both sides
            w = w.replace(U_r=np.round(w.U_r, 1), W_z=np.zeros_like(w.W_z))
        rho = (float(rng.uniform(1e-3, 1.0)), float(rng.uniform(1e-6, 1e-2)))
        nu, grads = sysid.penalty_subgradient(w, *rho)
        ref_nu, ref = reference_penalty_subgradient(w, *rho)
        assert nu == ref_nu
        assert grads.keys() == ref.keys()
        for name in ref:
            np.testing.assert_array_equal(grads[name], ref[name])


def test_penalty_gradient_scales_linearly_with_rho_plus():
    rng = np.random.default_rng(16)
    w = gru_model.random_weights(3, 1, 1, rng, scale=2.0)   # nu > 0 for sure
    assert gru_model.diss_residual(w) > 0
    nu, g1 = sysid.penalty_subgradient(w, 1e-2, 1e-6)
    assert nu == gru_model.diss_residual(w)
    _, g2 = sysid.penalty_subgradient(w, 2e-2, 1e-6)
    for name in gru_model.WEIGHT_FIELDS:
        np.testing.assert_allclose(g2[name], 2.0 * g1[name], atol=1e-18)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def training_batch(rng, B=12, T=20, n=2):
    U = rng.uniform(-1, 1, (B, T, 1))
    Y = np.tanh(np.cumsum(U, axis=1) * 0.2)
    return SequenceBatch(U, Y, np.arange(B), T, 1)


def test_train_zero_step_size_keeps_init():
    rng = np.random.default_rng(18)
    batch = training_batch(rng)
    cfg = TrainConfig(n_states=2, epochs=3, batch_size=4, washout=2, lr=0.0)
    w, log = train(batch, cfg, 9)
    w_init = gru_model.random_weights(2, 1, 1, np.random.default_rng(9))
    for name in gru_model.WEIGHT_FIELDS:
        assert np.array_equal(getattr(w, name), getattr(w_init, name)), name
    assert len(log) == 3


def test_train_deterministic_for_seed():
    rng = np.random.default_rng(20)
    batch = training_batch(rng)
    cfg = TrainConfig(n_states=2, epochs=4, batch_size=4, washout=2, lr=1e-3)
    w1, _ = train(batch, cfg, 21)
    w2, _ = train(batch, cfg, 21)
    for name in gru_model.WEIGHT_FIELDS:
        assert np.array_equal(getattr(w1, name), getattr(w2, name)), name


def test_train_zero_epochs_returns_init():
    rng = np.random.default_rng(22)
    batch = training_batch(rng)
    cfg = TrainConfig(n_states=2, epochs=0, batch_size=4, washout=2)
    w, log = train(batch, cfg, 3)
    assert log == []
    w_init = gru_model.random_weights(2, 1, 1, np.random.default_rng(3))
    assert np.array_equal(w.U_r, w_init.U_r)


def test_train_makes_one_loss_gradient_call_per_batch(monkeypatch):
    # the benchmark counts training steps through sysid.loss_gradient; the
    # last of the 6 batches of an epoch holds the 21st training sequence
    rng = np.random.default_rng(23)
    batch = training_batch(rng, B=23)
    cfg = TrainConfig(n_states=2, epochs=3, batch_size=4, washout=2,
                      val_fraction=0.1)
    calls = []

    def counted(*args):
        calls.append(len(args[1]))
        return loss_gradient(*args)
    monkeypatch.setattr(sysid, "loss_gradient", counted)
    train(batch, cfg, 5)
    n_train = len(batch) - round(cfg.val_fraction * len(batch))
    assert len(calls) == cfg.epochs * int(np.ceil(n_train / cfg.batch_size)) == 18
    assert sum(calls) == cfg.epochs * n_train


def test_each_epoch_records_its_batches_and_wall_time(tmp_path):
    # 21 training sequences in batches of 4 make 6 Adam steps an epoch; the
    # training log writes the two columns after the older ones
    rng = np.random.default_rng(23)
    batch = training_batch(rng, B=23)
    cfg = TrainConfig(n_states=2, epochs=3, batch_size=4, washout=2,
                      val_fraction=0.1)
    t0 = time.perf_counter()
    _, log = train(batch, cfg, 5)
    total = time.perf_counter() - t0
    assert [rec.batches for rec in log] == [6, 6, 6]
    assert all(rec.wall_s > 0.0 for rec in log)
    assert sum(rec.wall_s for rec in log) <= total
    sysid.save_training_log(log, tmp_path / "train_log.csv")
    rows = list(csv.DictReader(open(tmp_path / "train_log.csv")))
    assert list(rows[0]) == ["epoch", "loss", "nu", "val_mse", "wall_s", "batches"]
    assert [(float(r["loss"]), float(r["val_mse"]), float(r["wall_s"]), int(r["batches"]))
            for r in rows] == [(rec.loss, rec.val_mse, rec.wall_s, rec.batches)
                               for rec in log]


def test_train_reduces_loss():
    rng = np.random.default_rng(24)
    batch = training_batch(rng, B=20, T=30)
    cfg = TrainConfig(n_states=3, epochs=10, batch_size=5, washout=2, lr=5e-3)
    _, log = train(batch, cfg, 1)
    assert log[-1].loss < log[0].loss


def test_open_loop_mse_equals_per_sequence_simulation():
    # the held-out sequences run as rows of one scan; the reference simulates
    # them one at a time from x0 = 0
    rng = np.random.default_rng(25)
    for p in (1, 2):
        w = gru_model.random_weights(4, p, p, rng)
        U = rng.uniform(-1, 1, (7, 40, p))
        Y = rng.uniform(-1, 1, (7, 40, p))
        errs = [gru_model.simulate(w, np.zeros(4), U[b])[1][10:] - Y[b, 10:]
                for b in range(7)]
        ref = sum(float(np.sum(e * e)) for e in errs) / sum(e.size for e in errs)
        got = sysid._open_loop_mse(w, U, Y, 10)
        assert type(got) is float
        assert got == pytest.approx(ref, rel=1e-13)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_fit_index_perfect_and_mean_predictor():
    rng = np.random.default_rng(26)
    y = rng.uniform(-1, 1, (50, 1))
    assert fit_index(y, y) == pytest.approx(100.0)
    assert fit_index(y, np.full_like(y, y.mean())) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        fit_index(np.ones((10, 1)), np.zeros((10, 1)))


def test_mse():
    a = np.zeros((4, 1))
    b = np.full((4, 1), 0.5)
    assert mse(a, b) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def test_timeseries_csv_round_trip(tmp_path):
    ts = make_series(T=25, seed=27)
    path = tmp_path / "data.csv"
    sysid.save_timeseries_csv(ts, path)
    ts2 = sysid.load_timeseries_csv(path)
    assert np.array_equal(ts.t, ts2.t)
    assert np.array_equal(ts.u, ts2.u)
    assert np.array_equal(ts.y, ts2.y)
    header = path.read_text().splitlines()[0]
    assert header == "t,u,y"
