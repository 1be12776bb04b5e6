"""Identification pipeline: excitation signals, normalization, sequence
batching, truncated-BPTT training with the stability penalty, and the
standard model-quality metrics (MSE, FIT).

TrainConfig is the train section of the experiment config, with the desk
profile as its defaults, and refuses settings that leave no batch or no
fitted sample; the training seed is an argument of train, drawn from the
experiment's root seed.  Each training batch is one loss_gradient call:
its sequences run as rows of one scan and one reverse pass
(kernels.tbptt_loss_grad_batch), and penalty_subgradient evaluates the
certificate nu once for both the penalty and its subgradient.  Held-out
validation runs the sequences as rows of the same scan
(kernels.tbptt_loss_batch).
"""

import csv
import json
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import gru_model, kernels
from .gru_model import GruWeights, WEIGHT_FIELDS


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch, value):
        self.epoch = epoch
        super().__init__(f"non-finite loss ({value}) at epoch {epoch}")


@dataclass
class TimeSeries:
    """Uniformly sampled experiment record in physical units."""

    t: np.ndarray   # (T,)
    u: np.ndarray   # (T, m)
    y: np.ndarray   # (T, p)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.float64)
        self.u = np.atleast_2d(np.asarray(self.u, dtype=np.float64))
        self.y = np.atleast_2d(np.asarray(self.y, dtype=np.float64))
        if not (len(self.t) == len(self.u) == len(self.y)):
            raise ValueError("t, u, y must have equal lengths")
        if len(self.t) >= 2:
            dt = np.diff(self.t)
            if np.any(dt <= 0) or not np.allclose(dt, dt[0], rtol=1e-9, atol=1e-9):
                raise ValueError("t must be strictly increasing with constant spacing")

    def __len__(self):
        return len(self.t)


@dataclass
class NormalizationMap:
    """Per-channel affine map to [-1, 1]: v_norm = (v - center) / half."""

    u_center: np.ndarray
    u_half: np.ndarray
    y_center: np.ndarray
    y_half: np.ndarray

    def __post_init__(self):
        for name in ("u_center", "u_half", "y_center", "y_half"):
            setattr(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=np.float64)))
        if np.any(self.u_half <= 0) or np.any(self.y_half <= 0):
            raise ValueError("half-range must be positive")

    @classmethod
    def from_data(cls, ts: TimeSeries, u_range):
        """Map of the input range u_range = (lo, hi) and the output extrema."""
        def center_half(lo, hi):
            if np.any(hi - lo <= 0):
                raise ValueError("zero half-range (constant channel)")
            return (hi + lo) / 2.0, (hi - lo) / 2.0
        u_lo, u_hi = (np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in u_range)
        y_lo, y_hi = ts.y.min(axis=0), ts.y.max(axis=0)
        uc, uh = center_half(u_lo, u_hi)
        yc, yh = center_half(y_lo, y_hi)
        return cls(uc, uh, yc, yh)

    def normalize_u(self, u):
        return (np.asarray(u, dtype=np.float64) - self.u_center) / self.u_half

    def denormalize_u(self, u):
        return np.asarray(u, dtype=np.float64) * self.u_half + self.u_center

    def normalize_y(self, y):
        return (np.asarray(y, dtype=np.float64) - self.y_center) / self.y_half

    def denormalize_y(self, y):
        return np.asarray(y, dtype=np.float64) * self.y_half + self.y_center

    def save(self, path):
        doc = {k: [float(v) for v in getattr(self, k)]
               for k in ("u_center", "u_half", "y_center", "y_half")}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            doc = json.load(fh)
        return cls(**doc)


def normalize(ts: TimeSeries, nmap: NormalizationMap) -> TimeSeries:
    return TimeSeries(ts.t.copy(), nmap.normalize_u(ts.u), nmap.normalize_y(ts.y))


@dataclass
class SequenceBatch:
    """Partially overlapping training subsequences of fixed length T_s."""

    U: np.ndarray          # (N_s, T_s, m)
    Y: np.ndarray          # (N_s, T_s, p)
    offsets: np.ndarray    # (N_s,) start index into the parent series
    T_s: int
    tau: int

    def __len__(self):
        return self.U.shape[0]

    def subset(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        return SequenceBatch(np.ascontiguousarray(self.U[idx]),
                             np.ascontiguousarray(self.Y[idx]),
                             self.offsets[idx], self.T_s, self.tau)


def make_sequences(ts: TimeSeries, T_s: int, tau: int) -> SequenceBatch:
    """Slice the record into N_s = floor((T - T_s)/tau) + 1 sequences."""
    T = len(ts)
    if T_s > T:
        raise ValueError(f"sequence length {T_s} exceeds record length {T}")
    if tau < 1:
        raise ValueError("tau must be at least 1")
    N_s = (T - T_s) // tau + 1
    offsets = np.arange(N_s, dtype=np.int64) * tau
    U = np.stack([ts.u[o:o + T_s] for o in offsets])
    Y = np.stack([ts.y[o:o + T_s] for o in offsets])
    return SequenceBatch(np.ascontiguousarray(U), np.ascontiguousarray(Y),
                         offsets, T_s, tau)


@dataclass
class TrainConfig:
    """Training settings; the defaults are the desk profile."""

    n_states: int = 10
    epochs: int = 50
    batch_size: int = 2
    washout: int = 50
    rho_plus: float = 1e-2
    rho_minus: float = 1e-6
    lr: float = 5e-3
    T_s: int = 200            # subsequence length (make_sequences)
    tau: int = 2              # subsequence stride (make_sequences)
    val_fraction: float = 0.1

    def __post_init__(self):
        for name, low in (("n_states", 1), ("epochs", 0), ("batch_size", 1),
                          ("T_s", 1), ("tau", 1), ("washout", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, "
                                 f"not {getattr(self, name)!r}")
        if self.washout >= self.T_s:
            raise ValueError(f"washout ({self.washout}) must be smaller than "
                             f"the sequence length T_s ({self.T_s})")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ValueError(f"val_fraction must lie in [0, 1), "
                             f"not {self.val_fraction!r}")
        for name in ("rho_plus", "rho_minus"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, "
                                 f"not {getattr(self, name)!r}")
        if self.lr < 0:
            raise ValueError(f"lr must be nonnegative, not {self.lr!r}")


def generate_mprs(levels, hold_range, length, rng):
    """Multilevel pseudo-random signal: random level, random hold time.

    Hold times are drawn uniformly (in samples) from hold_range; at least 30
    samples per step is advisable so each step covers a settling time.
    """
    levels = np.atleast_1d(np.asarray(levels, dtype=np.float64))
    if levels.size == 0:
        raise ValueError("levels must be nonempty")
    lo, hi = int(hold_range[0]), int(hold_range[1])
    if lo < 1 or hi < lo:
        raise ValueError("invalid hold range")
    if lo < 30:
        warnings.warn("hold times below 30 samples may under-cover the "
                      "settling time", stacklevel=2)
    out = np.empty(length)
    k = 0
    while k < length:
        level = levels[rng.integers(0, levels.size)]
        hold = int(rng.integers(lo, hi + 1))
        out[k:k + hold] = level
        k += hold
    return out


# ---------------------------------------------------------------------------
# loss, gradient and the stability-penalty subgradient
# ---------------------------------------------------------------------------

def _draw_x0(rng, count, n):
    return rng.uniform(-1.0, 1.0, size=(count, n))


def _rows_subgrad(A, terms, coeff):
    """coeff times the sum of d sign(A[i]) placed in row i, over (d, i) in
    terms: the arithmetic of scaling zero-filled arrays, on the rows that
    are not zero."""
    g = np.zeros_like(A)
    for d, i in terms:
        g[i] += d * np.sign(A[i])
    for i in {i for _, i in terms}:
        g[i] *= coeff
    return g


def penalty_subgradient(w: GruWeights, rho_plus, rho_minus):
    """The residual nu of w and a subgradient of rho(nu) with respect to
    every weight array; returns (nu, grads).

    Each norm in nu is a max absolute row sum (|U|_inf, and |[W U b]|_inf
    in the gate bounds); its subgradient routes through its max row (lowest
    index on ties), entrywise through the sign.  Every row-sum vector is
    formed once, and both its max and its argmax are taken from it.
    """
    norm, row, stacked, srow = {}, {}, {}, {}
    for g in "zfr":
        W, U, b = getattr(w, f"W_{g}"), getattr(w, f"U_{g}"), getattr(w, f"b_{g}")
        sums = np.sum(np.abs(U), axis=1)
        norm[g], row[g] = float(np.max(sums)), int(np.argmax(sums))
        sums = np.sum(np.abs(W), axis=1) + sums + np.abs(b)
        stacked[g], srow[g] = float(np.max(sums)), int(np.argmax(sums))
    gb = gru_model.bounds_from_norms(stacked["z"], stacked["r"], stacked["f"])
    nUr, nUf, nUz = norm["r"], norm["f"], norm["z"]
    sz, pr, sf = gb.sigma_z_bar, gb.phi_r_bar, gb.sigma_f_bar

    nu = gru_model.contraction(nUr, nUf, nUz, gb) - 1.0
    coeff = rho_plus if nu > 0 else rho_minus

    # direct norm terms, then the gate-bound terms through the stacked norms
    d_nUr = 0.25 * nUf + sf
    d_nUf = 0.25 * nUr
    d_nUz = 0.25 * (1.0 + pr) / (1.0 - sz)
    d_sf = nUr * sf * (1.0 - sf)
    d_pr = 0.25 * nUz / (1.0 - sz) * (1.0 - pr * pr)
    d_sz = 0.25 * (1.0 + pr) * nUz / (1.0 - sz) ** 2 * sz * (1.0 - sz)
    grads = {}
    for g, d_norm, d_gate in (("z", d_nUz, d_sz), ("f", d_nUf, d_sf), ("r", d_nUr, d_pr)):
        gate = [(d_gate, srow[g])]
        grads[f"W_{g}"] = _rows_subgrad(getattr(w, f"W_{g}"), gate, coeff)
        grads[f"U_{g}"] = _rows_subgrad(getattr(w, f"U_{g}"),
                                        [(d_norm, row[g])] + gate, coeff)
        grads[f"b_{g}"] = _rows_subgrad(getattr(w, f"b_{g}"), gate, coeff)
    grads["U_o"], grads["b_o"] = np.zeros_like(w.U_o), np.zeros_like(w.b_o)
    return float(nu), grads


def loss_gradient(w: GruWeights, batch: SequenceBatch, x0s, cfg: TrainConfig):
    """Simulation-error loss over the batch plus the stability penalty, and
    its exact reverse-mode gradient; returns (loss, grads).

    nu comes from penalty_subgradient, which evaluates the certificate once.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    if cfg.washout >= batch.T_s:
        raise ValueError("washout must be smaller than the sequence length")
    x0s = np.ascontiguousarray(x0s, dtype=np.float64)
    out = kernels.tbptt_loss_grad_batch(batch.U, batch.Y, x0s, cfg.washout,
                                        *w.arrays(), w.U_o, w.b_o)
    nu, pen = penalty_subgradient(w, cfg.rho_plus, cfg.rho_minus)
    grads = {name: g + pen[name] for name, g in zip(WEIGHT_FIELDS, out[1:])}
    loss = float(out[0] + gru_model.stability_penalty(nu, cfg.rho_plus, cfg.rho_minus))
    return loss, grads


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class EpochRecord:
    epoch: int
    loss: float
    nu: float
    val_mse: float
    wall_s: float            # wall time of the epoch, validation included
    batches: int             # Adam steps of the epoch


def _open_loop_mse(w: GruWeights, U, Y, washout):
    """Mean squared simulation error from x0 = 0, first `washout` samples
    skipped; the sequences run as rows of one scan."""
    B, _, p = Y.shape
    return float(kernels.tbptt_loss_batch(U, Y, np.zeros((B, w.n)), washout,
                                          *w.arrays(), w.U_o, w.b_o) / (B * p))


# Adam's moment decay rates and its denominator offset (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def train(data: SequenceBatch, cfg: TrainConfig, seed: int):
    """Adam on the truncated-BPTT loss; returns (weights, per-epoch log).

    The last val_fraction of the sequences is held out for model selection;
    among epochs whose residual nu is negative the one with the best
    validation MSE wins (falling back to the overall best if none certifies).
    Deterministic for a fixed seed, which draws the initial weights, the
    batch order and the initial states.
    """
    if len(data) == 0:
        raise ValueError("empty training data")
    rng = np.random.default_rng(seed)
    m = data.U.shape[2]
    p = data.Y.shape[2]
    w = gru_model.random_weights(cfg.n_states, m, p, rng)

    n_val = int(round(cfg.val_fraction * len(data)))
    n_val = min(max(n_val, 0), len(data) - 1)
    train_idx = np.arange(0, len(data) - n_val)
    val = data.subset(np.arange(len(data) - n_val, len(data))) if n_val else None

    params = {name: getattr(w, name).copy() for name in WEIGHT_FIELDS}
    mom = {name: np.zeros_like(v) for name, v in params.items()}
    vel = {name: np.zeros_like(v) for name, v in params.items()}
    t_adam = 0

    log = []
    best = None   # ((not certified, val_mse, epoch), weights)

    def snapshot():
        return GruWeights(n=cfg.n_states, m=m, p=p, **params)

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(train_idx)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch = data.subset(idx)
            x0s = _draw_x0(rng, len(idx), cfg.n_states)
            cur = snapshot()
            loss, grads = loss_gradient(cur, batch, x0s, cfg)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, loss)
            epoch_loss += loss
            n_batches += 1
            t_adam += 1
            b1c = 1.0 - ADAM_BETA1 ** t_adam
            b2c = 1.0 - ADAM_BETA2 ** t_adam
            for name in WEIGHT_FIELDS:
                g = grads[name]
                mom[name] = ADAM_BETA1 * mom[name] + (1.0 - ADAM_BETA1) * g
                vel[name] = ADAM_BETA2 * vel[name] + (1.0 - ADAM_BETA2) * g * g
                mhat = mom[name] / b1c
                vhat = vel[name] / b2c
                params[name] = params[name] - cfg.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)

        cur = snapshot()
        nu = gru_model.diss_residual(cur)
        if val is not None:
            val_mse = _open_loop_mse(cur, val.U, val.Y, cfg.washout)
        else:
            val_mse = epoch_loss / max(n_batches, 1)
        log.append(EpochRecord(epoch, epoch_loss / max(n_batches, 1), nu, val_mse,
                               time.perf_counter() - t0, n_batches))

        cand = (not (nu < 0.0), val_mse, epoch)
        if best is None or cand < best[0]:
            best = (cand, cur)
    return (snapshot() if best is None else best[1]), log


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def fit_index(y_test, y_model) -> float:
    """FIT [%] = 100 (1 - |y_test - y_model| / |y_test - mean(y_test)|)."""
    y_test = np.asarray(y_test, dtype=np.float64)
    y_model = np.asarray(y_model, dtype=np.float64)
    if y_test.shape != y_model.shape:
        raise ValueError("sequences must have equal shapes")
    denom = np.linalg.norm(y_test - np.mean(y_test, axis=0))
    if denom == 0.0:
        raise ValueError("constant reference sequence has no FIT")
    return float(100.0 * (1.0 - np.linalg.norm(y_test - y_model) / denom))


def mse(y_test, y_model) -> float:
    y_test = np.asarray(y_test, dtype=np.float64)
    y_model = np.asarray(y_model, dtype=np.float64)
    return float(np.mean((y_test - y_model) ** 2))


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

def save_timeseries_csv(ts: TimeSeries, path):
    if ts.u.shape[1] != 1 or ts.y.shape[1] != 1:
        raise ValueError("CSV format is defined for single-input single-output records")
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "u", "y"])
        for k in range(len(ts)):
            wr.writerow([repr(float(ts.t[k])), repr(float(ts.u[k, 0])),
                         repr(float(ts.y[k, 0]))])


def load_timeseries_csv(path) -> TimeSeries:
    t, u, y = [], [], []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if header[:3] != ["t", "u", "y"]:
            raise ValueError(f"unexpected CSV header {header}")
        for row in rd:
            t.append(float(row[0])); u.append(float(row[1])); y.append(float(row[2]))
    return TimeSeries(np.array(t), np.array(u).reshape(-1, 1),
                      np.array(y).reshape(-1, 1))


def save_training_log(log, path):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["epoch", "loss", "nu", "val_mse", "wall_s", "batches"])
        for rec in log:
            wr.writerow([rec.epoch, repr(rec.loss), repr(rec.nu), repr(rec.val_mse),
                         repr(rec.wall_s), rec.batches])
