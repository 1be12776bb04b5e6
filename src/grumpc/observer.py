"""Integrator-augmented model and its convergent state observer.

The model is augmented with a discrete integrator of the output tracking
error (u = v + xi, xi+ = xi + y0 - y).  The observer injects innovation
terms into both gates and into the integrator estimate; its nominal error
dynamics are bounded componentwise by a nonnegative 2x2 matrix A_delta,
and Schur stability of A_delta (checked by the Jury criterion) certifies
convergence.  Gain synthesis minimizes ||A_delta||_2 by direct search from
the always-feasible fallback gains.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import gru_model, kernels
from .gru_model import GruWeights, inf_norm


class ObserverSynthesisError(RuntimeError):
    """Raised when the model does not admit the requested observer."""


@dataclass
class AugmentedState:
    x: np.ndarray    # model state (n,)
    xi: np.ndarray   # integrator state (p,)

    def __post_init__(self):
        self.x = np.atleast_1d(np.asarray(self.x, dtype=np.float64))
        self.xi = np.atleast_1d(np.asarray(self.xi, dtype=np.float64))

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

    def __post_init__(self):
        for name in GAIN_FIELDS:
            object.__setattr__(self, name,
                               np.ascontiguousarray(getattr(self, name), dtype=np.float64))


@dataclass
class ErrorDynamicsMatrix:
    A: np.ndarray
    delta: float
    alpha: float

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        if self.A.shape != (2, 2):
            raise ValueError("error dynamics matrix must be 2x2")

    def spectral_radius(self):
        return float(np.max(np.abs(np.linalg.eigvals(self.A))))

    def spectral_norm(self):
        return float(np.linalg.norm(self.A, 2))


def augmented_step(w: GruWeights, s: AugmentedState, v, y0):
    """One step of the augmented system; returns (next state, y_a)."""
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    y0 = np.atleast_1d(np.asarray(y0, dtype=np.float64))
    u = v + s.xi
    y = gru_model.gru_output(w, s.x)
    x_next = kernels.gru_cell(s.x, u, *w.arrays())
    xi_next = s.xi + y0 - y
    return AugmentedState(x_next, xi_next), np.concatenate([y, s.xi])


def observer_step(w: GruWeights, g: ObserverGains, est: AugmentedState,
                  v, y0, y_meas, xi_meas) -> AugmentedState:
    """Observer update: gates and integrator receive innovation terms.

    xi_meas is the controller's own integrator state, known exactly.
    """
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    y0 = np.atleast_1d(np.asarray(y0, dtype=np.float64))
    y_meas = np.atleast_1d(np.asarray(y_meas, dtype=np.float64))
    xi_meas = np.atleast_1d(np.asarray(xi_meas, dtype=np.float64))

    y_hat = gru_model.gru_output(w, est.x)
    e_y = y_meas - y_hat
    e_xi = xi_meas - est.xi
    u_hat = v + est.xi

    z = kernels.logistic(w.W_z @ u_hat + w.U_z @ est.x + w.b_z
                         + g.L_zxi @ e_xi + g.L_zy @ e_y)
    f = kernels.logistic(w.W_f @ u_hat + w.U_f @ est.x + w.b_f
                         + g.L_fxi @ e_xi + g.L_fy @ e_y)
    r = np.tanh(w.W_r @ u_hat + w.U_r @ (f * est.x) + w.b_r)
    x_next = z * est.x + (1.0 - z) * r
    xi_next = est.xi + y0 - y_hat + g.L_xiy @ e_y + g.L_xixi @ e_xi
    return AugmentedState(x_next, xi_next)


def alpha_coefficient(w: GruWeights, g: ObserverGains) -> float:
    """Cross-coupling coefficient of the error dynamics."""
    return (0.25 * inf_norm(w.W_z - g.L_zxi)
            * (1.0 + inf_norm(w.W_r)
               + 0.25 * inf_norm(w.U_r) * inf_norm(w.W_f - g.L_fxi)))


def delta_margin(w: GruWeights, g: ObserverGains) -> float:
    """Contraction margin delta; nonpositive values signal infeasibility."""
    gb = gru_model.gate_bounds(w)
    lhs = (inf_norm(w.U_r) * (0.25 * inf_norm(w.U_f - g.L_fy @ w.U_o)
                              + gb.sigma_f_bar)
           + 0.25 * (1.0 + gb.phi_r_bar) / (1.0 - gb.sigma_z_bar)
           * inf_norm(w.U_z - g.L_zy @ w.U_o))
    return 1.0 - lhs


def build_A_delta(w: GruWeights, g: ObserverGains) -> ErrorDynamicsMatrix:
    delta = delta_margin(w, g)
    alpha = alpha_coefficient(w, g)
    eye = np.eye(w.p)
    A = np.array([
        [1.0 - delta, alpha],
        [inf_norm(w.U_o) * inf_norm(eye + g.L_xiy), inf_norm(eye - g.L_xixi)],
    ])
    return ErrorDynamicsMatrix(A, delta, alpha)


def jury_schur_check(A) -> bool:
    """Schur stability of a real 2x2 matrix by the Jury conditions."""
    A = np.asarray(A, dtype=np.float64)
    det = float(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
    tr = float(A[0, 0] + A[1, 1])
    return (-1.0 + tr < det < 1.0) and (abs(tr) < 1.0 + det)


@dataclass
class CertificationReport:
    delta: float
    alpha: float
    A_delta: np.ndarray
    schur_ok: bool
    passed: bool
    reason: str

    @property
    def spectral_radius(self):
        return float(np.max(np.abs(np.linalg.eigvals(self.A_delta))))

    @property
    def spectral_norm(self):
        return float(np.linalg.norm(self.A_delta, 2))


def certify_gains(w: GruWeights, g: ObserverGains) -> CertificationReport:
    """Check the sufficient conditions for nominal observer convergence."""
    ed = build_A_delta(w, g)
    schur = jury_schur_check(ed.A)
    if ed.delta <= 0.0:
        reason = "margin"
    elif not schur:
        reason = "schur"
    else:
        reason = "ok"
    return CertificationReport(float(ed.delta), float(ed.alpha), ed.A, schur,
                               bool(ed.delta > 0.0 and schur), reason)


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


def _pack(g: ObserverGains):
    return np.concatenate([getattr(g, name).ravel() for name in GAIN_FIELDS])


def _unpack(vec, n, p):
    shapes = [(n, p), (n, p), (n, p), (n, p), (p, p), (p, p)]
    out = []
    k = 0
    for shp in shapes:
        size = shp[0] * shp[1]
        out.append(vec[k:k + size].reshape(shp).copy())
        k += size
    return out


def _constraint_violation(w, g):
    """Exact-penalty measure of the synthesis constraints (0 when feasible)."""
    ed = build_A_delta(w, g)
    eye = np.eye(w.p)
    t1 = inf_norm(eye - g.L_xixi)
    t2 = ed.alpha * inf_norm(w.U_o) * inf_norm(eye + g.L_xiy)
    viol = 0.0
    margin = 1e-9
    viol += max(0.0, margin - ed.delta)                                 # delta > 0
    viol += max(0.0, t2 - ed.delta * (1.0 - t1) + margin)               # delta(1-t1) > t2
    viol += max(0.0, (1.0 - ed.delta) * t1 - (1.0 + t2) + margin)       # (1-delta) t1 < 1+t2
    return viol


def synthesize_gains(w: GruWeights, lam=0.5, maxiter=4000, n_starts=2,
                     seed=0) -> ObserverGains:
    """Minimize ||A_delta||_2 over the gains by multistart Nelder-Mead.

    Search starts from the fallback gains (plus a deadbeat-integrator
    start exploiting that xi is measured exactly); only candidates passing
    certification are accepted, so the result is never worse than the
    fallback.
    """
    nu = gru_model.diss_residual(w)
    if nu >= 0.0:
        raise ObserverSynthesisError(
            f"model residual nu = {nu:.4g} is not negative; synthesis "
            "is infeasible")
    from scipy.optimize import minimize

    n, p = w.n, w.p
    base = trivial_gains(w, lam)
    eye = np.eye(p)

    # deadbeat-integrator start: copy the known integrator, cancel the
    # input paths into both gates, shrink the output-gate mismatch rows
    lsq_zy = np.linalg.lstsq(w.U_o.T, w.U_z.T, rcond=None)[0].T
    lsq_fy = np.linalg.lstsq(w.U_o.T, w.U_f.T, rcond=None)[0].T
    aggressive = ObserverGains(
        L_zxi=w.W_z.copy(), L_fxi=w.W_f.copy(),
        L_zy=lsq_zy, L_fy=lsq_fy,
        L_xiy=-eye, L_xixi=eye.copy(), delta=0.0)

    def gains_from(vec):
        parts = _unpack(vec, n, p)
        return ObserverGains(*parts, delta=0.0)

    def objective(vec):
        g = gains_from(vec)
        ed = build_A_delta(w, g)
        return ed.spectral_norm() + 1e3 * _constraint_violation(w, g)

    candidates = []

    def consider(g: ObserverGains):
        rep = certify_gains(w, g)
        if rep.passed:
            final = ObserverGains(*[getattr(g, f) for f in GAIN_FIELDS],
                                  delta=rep.delta)
            candidates.append((rep.spectral_norm, tuple(_pack(final)), final))
        # the integrator state is measured exactly, so copying it verbatim
        # (deadbeat integrator row) is always worth considering
        snapped = ObserverGains(g.L_zxi, g.L_fxi, g.L_zy, g.L_fy,
                                -eye.copy(), eye.copy(), delta=0.0)
        rep2 = certify_gains(w, snapped)
        if rep2.passed:
            final2 = ObserverGains(*[getattr(snapped, f) for f in GAIN_FIELDS],
                                   delta=rep2.delta)
            candidates.append((rep2.spectral_norm, tuple(_pack(final2)), final2))

    consider(base)
    starts = [base, aggressive][:max(1, n_starts)]
    for g0 in starts:
        consider(g0)
        res = minimize(objective, _pack(g0), method="Nelder-Mead",
                       options={"maxiter": maxiter, "xatol": 1e-10,
                                "fatol": 1e-12, "adaptive": True})
        consider(gains_from(res.x))

    if not candidates:
        # cannot happen when nu < 0, but never fail where the fallback applies
        return base
    candidates.sort(key=lambda c: (c[0], c[1]))
    return candidates[0][2]


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
        arr = getattr(g, name)
        doc[name] = {"shape": list(arr.shape),
                     "data": [float(v) for v in arr.ravel()]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_gains(path) -> ObserverGains:
    with open(path) as fh:
        doc = json.load(fh)
    arrs = {name: np.array(doc[name]["data"]).reshape(doc[name]["shape"])
            for name in GAIN_FIELDS}
    return ObserverGains(**arrs, delta=float(doc["delta"]))
