"""Integrator-augmented model and its convergent state observer.

The model is augmented with a discrete integrator of the output tracking
error (u = v + xi, xi+ = xi + y0 - y).  The observer injects innovation
terms into both gates and into the integrator estimate, which shift the
gate biases of the model's packed cell (GruWeights.cell).  Its nominal
error dynamics are bounded componentwise by a nonnegative 2x2 matrix
A_delta, and Schur stability of A_delta (checked by the Jury criterion)
certifies convergence; build_A_delta returns A_delta with that verdict as
one CertificationReport.  Gain synthesis finds the least ||A_delta||_2 in
closed form: every entry of A_delta depends on its own gains, so each is
made least on its own (the output-gate gains by an l1 fit per row).
"""

import itertools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import gru_model, kernels
from .gru_model import GruWeights, as_vector, inf_norm


class ObserverSynthesisError(RuntimeError):
    """Raised when the model does not admit the requested observer."""


@dataclass(slots=True)
class AugmentedState:
    x: np.ndarray    # model state (n,)
    xi: np.ndarray   # integrator state (p,)

    def __post_init__(self):
        self.x = as_vector(self.x)
        self.xi = as_vector(self.xi)

    def stacked(self):
        return np.concatenate([self.x, self.xi])


GAIN_FIELDS = ("L_zxi", "L_fxi", "L_zy", "L_fy", "L_xiy", "L_xixi")


@dataclass(frozen=True)
class ObserverGains:
    L_zxi: np.ndarray   # (n, p) innovation into the update gate from e_xi
    L_fxi: np.ndarray   # (n, p) innovation into the forget gate from e_xi
    L_zy: np.ndarray    # (n, p) innovation into the update gate from e_y
    L_fy: np.ndarray    # (n, p) innovation into the forget gate from e_y
    L_xiy: np.ndarray   # (p, p) output innovation on the integrator estimate
    L_xixi: np.ndarray  # (p, p) integrator innovation on itself
    delta: float        # certified contraction margin
    # [L_zxi L_zy; L_fxi L_fy; L_xixi L_xiy]: the z and f gate bias shifts
    # and the integrator correction, all from [e_xi; e_y]
    innovation: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in GAIN_FIELDS:
            object.__setattr__(self, name,
                               np.ascontiguousarray(getattr(self, name), dtype=np.float64))
        object.__setattr__(self, "innovation", np.block(
            [[self.L_zxi, self.L_zy], [self.L_fxi, self.L_fy],
             [self.L_xixi, self.L_xiy]]))


def augmented_step(w: GruWeights, s: AugmentedState, v, y0):
    """One step of the augmented system; returns (next state, y_a)."""
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    y0 = np.atleast_1d(np.asarray(y0, dtype=np.float64))
    u = v + s.xi
    y = gru_model.gru_output(w, s.x)
    x_next = kernels.cell(s.x, u, *w.cell)[0]
    xi_next = s.xi + y0 - y
    return AugmentedState(x_next, xi_next), np.concatenate([y, s.xi])


def observer_step(w: GruWeights, g: ObserverGains, est: AugmentedState,
                  v, y0, y_meas, xi_meas) -> AugmentedState:
    """Observer update: gates and integrator receive innovation terms.

    The innovations only shift the update and forget gate biases, so the
    state update is one kernels.cell call on the model's packed cell with
    those biases shifted.  xi_meas is the controller's own integrator state,
    known exactly.
    """
    x, xi = est.x, est.xi
    y_hat = w.U_o.dot(x) + w.b_o    # gru_output; est.x has the model's shape
    # the z and f gate bias shifts, then the integrator correction
    shift = g.innovation.dot(np.concatenate((xi_meas - xi, y_meas - y_hat)))
    n2 = 2 * w.n
    M = w.cell[0].copy()            # the packed cell with those biases shifted
    M[:n2, 0] += 0.5 * shift[:n2]
    x_next = kernels.cell_next(x, v + xi, M, w.cell[3])
    return AugmentedState(x_next, xi + y0 - y_hat + shift[n2:])


def alpha_coefficient(w: GruWeights, g: ObserverGains) -> float:
    """Cross-coupling coefficient of the error dynamics."""
    return (0.25 * inf_norm(w.W_z - g.L_zxi)
            * (1.0 + inf_norm(w.W_r)
               + 0.25 * inf_norm(w.U_r) * inf_norm(w.W_f - g.L_fxi)))


def delta_margin(w: GruWeights, g: ObserverGains) -> float:
    """Contraction margin delta; nonpositive values signal infeasibility."""
    return 1.0 - gru_model.contraction(
        inf_norm(w.U_r), inf_norm(w.U_f - g.L_fy @ w.U_o),
        inf_norm(w.U_z - g.L_zy @ w.U_o), gru_model.gate_bounds(w))


def jury_schur_check(A) -> bool:
    """Schur stability of a real 2x2 matrix by the Jury conditions."""
    A = np.asarray(A, dtype=np.float64)
    det = float(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
    tr = float(A[0, 0] + A[1, 1])
    return (-1.0 + tr < det < 1.0) and (abs(tr) < 1.0 + det)


@dataclass
class CertificationReport:
    """The error-dynamics bound A_delta of some gains and its verdict: the
    gains certify when the margin delta is positive and A_delta is Schur."""
    delta: float
    alpha: float
    A_delta: np.ndarray
    schur_ok: bool
    passed: bool
    reason: str         # "ok", or the first failing condition: "margin", "schur"

    @property
    def spectral_radius(self):
        return float(np.max(np.abs(np.linalg.eigvals(self.A_delta))))

    @property
    def spectral_norm(self):
        return float(np.linalg.norm(self.A_delta, 2))


def build_A_delta(w: GruWeights, g: ObserverGains) -> CertificationReport:
    """A_delta = [[1 - delta, alpha], [|Uo| |I + L_xiy|, |I - L_xixi|]] and
    its verdict."""
    delta = delta_margin(w, g)
    alpha = alpha_coefficient(w, g)
    eye = np.eye(w.p)
    A = np.array([
        [1.0 - delta, alpha],
        [inf_norm(w.U_o) * inf_norm(eye + g.L_xiy), inf_norm(eye - g.L_xixi)],
    ])
    schur = jury_schur_check(A)
    reason = "margin" if delta <= 0.0 else "schur" if not schur else "ok"
    return CertificationReport(float(delta), float(alpha), A, schur,
                               bool(delta > 0.0 and schur), reason)


def certify_gains(w: GruWeights, g: ObserverGains) -> CertificationReport:
    """Check the sufficient conditions for nominal observer convergence."""
    return build_A_delta(w, g)


def trivial_gains(w: GruWeights, lam=0.5) -> ObserverGains:
    """Always-feasible fallback gains for a certified (nu < 0) model."""
    nu = gru_model.diss_residual(w)
    if nu >= 0.0:
        raise ObserverSynthesisError(
            f"model residual nu = {nu:.4g} is not negative; the fallback "
            "gains require a certified model")
    if not (0.0 < lam < 1.0):
        raise ValueError("lam must lie in (0, 1)")
    n, p = w.n, w.p
    g = ObserverGains(
        L_zxi=w.W_z.copy(), L_fxi=np.zeros((n, p)),
        L_zy=np.zeros((n, p)), L_fy=np.zeros((n, p)),
        L_xiy=np.zeros((p, p)), L_xixi=lam * np.eye(p),
        delta=-nu)
    return g


def l1_row_fit(M, U_o):
    """Gains L (r, p) minimizing ||M[i] - L[i] @ U_o||_1 for every row i of M.

    For p = 1 the optimum of sum_j |M[i, j] - l U_o[j]| is a weighted
    median of the ratios M[i, j] / U_o[j], weighted by |U_o[j]|; columns
    with U_o[j] = 0 add a constant and are skipped, and L = 0 when no
    U_o[j] is nonzero.  For p > 1 an l1 fit has an optimum that
    interpolates p linearly independent columns of U_o (a vertex of its
    LP), so every nonsingular p-subset of columns is solved exactly and the
    cheapest fit of each row is kept.  U_o without p independent columns
    raises ObserverSynthesisError.
    """
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    U_o = np.atleast_2d(np.asarray(U_o, dtype=np.float64))
    p, n = U_o.shape
    if p == 1:
        c = U_o[0]
        nz = c != 0.0
        if not nz.any():
            return np.zeros((M.shape[0], 1))
        ratios = M[:, nz] / c[nz]
        order = np.argsort(ratios, axis=1)
        cum = np.cumsum(np.abs(c[nz])[order], axis=1)
        k = np.argmax(2.0 * cum >= cum[:, -1:], axis=1)
        return np.take_along_axis(ratios, order, axis=1)[np.arange(len(k)), k][:, None]

    if np.linalg.matrix_rank(U_o) < p:
        raise ObserverSynthesisError(
            f"the output map U_o has no {p} linearly independent columns")
    L = np.empty((M.shape[0], p))
    best = np.full(M.shape[0], np.inf)
    for cols in itertools.combinations(range(n), p):
        try:
            # L_c U_o[:, cols] = M[:, cols]: each row's residual vanishes there
            L_c = np.linalg.solve(U_o[:, cols].T, M[:, cols].T).T
        except np.linalg.LinAlgError:
            continue
        cost = np.sum(np.abs(M - L_c @ U_o), axis=1)
        better = cost < best
        L[better], best[better] = L_c[better], cost[better]
    return L


def synthesize_gains(w: GruWeights) -> ObserverGains:
    """The gains minimizing ||A_delta||_2, in closed form.

    A_delta is nonnegative, so its spectral norm never falls when an entry
    grows, and each entry depends on its own gains:
      - alpha = 0 at L_zxi = W_z (L_fxi is then free; W_f is taken);
      - entry (2,1) is 0 at L_xiy = -I and entry (2,2) is 0 at L_xixi = I;
      - 1 - delta is smallest where ||U_z - L_zy U_o||_inf and
        ||U_f - L_fy U_o||_inf are, which `l1_row_fit` reaches row by row.
    The result A_delta = diag(1 - delta*, 0) is entrywise at most the
    A_delta of any gains, so its norm 1 - delta* is the least.  It
    certifies whenever nu < 0: the fallback's L_zy = L_fy = 0 is a
    candidate of the same row problems and reaches delta = -nu > 0, so
    delta* >= -nu.  A certification failure therefore raises
    ObserverSynthesisError.
    """
    nu = gru_model.diss_residual(w)
    if nu >= 0.0:
        raise ObserverSynthesisError(
            f"model residual nu = {nu:.4g} is not negative; synthesis "
            "is infeasible")
    eye = np.eye(w.p)
    L_zy, L_fy = np.split(l1_row_fit(np.vstack([w.U_z, w.U_f]), w.U_o), 2)
    g = ObserverGains(L_zxi=w.W_z.copy(), L_fxi=w.W_f.copy(), L_zy=L_zy,
                      L_fy=L_fy, L_xiy=-eye, L_xixi=eye.copy(), delta=0.0)
    rep = certify_gains(w, g)
    if not rep.passed:
        raise ObserverSynthesisError(
            f"closed-form gains failed certification ({rep.reason}, "
            f"delta = {rep.delta:.4g})")
    return replace(g, delta=rep.delta)


# ---------------------------------------------------------------------------
# serialization (same structured-text idea as the weights)
# ---------------------------------------------------------------------------

def save_gains(g: ObserverGains, w: GruWeights, path):
    rep = certify_gains(w, g)
    doc = {"delta": float(g.delta), "certified": bool(rep.passed),
           "alpha": float(rep.alpha),
           "spectral_radius": rep.spectral_radius,
           "A_delta": [[float(v) for v in row] for row in rep.A_delta]}
    for name in GAIN_FIELDS:
        doc[name] = gru_model.array_doc(getattr(g, name))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_gains(path) -> ObserverGains:
    with open(path) as fh:
        doc = json.load(fh)
    arrs = {name: gru_model.array_from_doc(doc[name]) for name in GAIN_FIELDS}
    return ObserverGains(**arrs, delta=float(doc["delta"]))
