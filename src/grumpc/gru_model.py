"""Single-layer GRU state-space model.

State update and output map

    x+ = z * x + (1 - z) * tanh(Wr u + Ur (f * x) + br)
    z  = sigma(Wz u + Uz x + bz)
    f  = sigma(Wf u + Uf x + bf)
    y  = Uo x + bo

with inputs normalized to [-1, 1].  Besides the forward dynamics this module
provides the gate-bound constants, the incremental-stability residual nu
(negative nu certifies the contraction property used everywhere downstream),
analytic Jacobians (kernels.cell_jacobians, from which the FHOCP tangent is
also built), and lossless JSON (de)serialization of the weights.
"""

import json
import warnings
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import kernels


class DimensionMismatchError(ValueError):
    """Raised when an operand does not conform to the declared dimensions."""

    def __init__(self, operand, expected, got):
        self.operand = operand
        super().__init__(f"{operand}: expected shape {expected}, got {got}")


WEIGHT_FIELDS = ("W_z", "U_z", "b_z", "W_f", "U_f", "b_f",
                 "W_r", "U_r", "b_r", "U_o", "b_o")


@dataclass(frozen=True)
class GruWeights:
    """All trainable matrices/vectors plus the explicit dimensions.

    Arrays are read-only float64 copies made at construction, so the packed
    cell cached from them cannot go stale; sharing across threads is safe.
    """

    n: int
    m: int
    p: int
    W_z: np.ndarray
    U_z: np.ndarray
    b_z: np.ndarray
    W_f: np.ndarray
    U_f: np.ndarray
    b_f: np.ndarray
    W_r: np.ndarray
    U_r: np.ndarray
    b_r: np.ndarray
    U_o: np.ndarray
    b_o: np.ndarray

    def __post_init__(self):
        if self.n <= 0 or self.m <= 0 or self.p <= 0:
            raise ValueError("dimensions must be positive")
        if self.m != self.p:
            raise ValueError(f"m = p is required, got m={self.m}, p={self.p}")
        shapes = {
            "W_z": (self.n, self.m), "U_z": (self.n, self.n), "b_z": (self.n,),
            "W_f": (self.n, self.m), "U_f": (self.n, self.n), "b_f": (self.n,),
            "W_r": (self.n, self.m), "U_r": (self.n, self.n), "b_r": (self.n,),
            "U_o": (self.p, self.n), "b_o": (self.p,),
        }
        for name, want in shapes.items():
            arr = np.array(getattr(self, name), dtype=np.float64, order="C")
            arr.flags.writeable = False
            if arr.shape != want:
                raise DimensionMismatchError(name, want, arr.shape)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)

    def arrays(self):
        """The nine recurrent arrays in kernel argument order."""
        return (self.W_z, self.U_z, self.b_z, self.W_f, self.U_f, self.b_f,
                self.W_r, self.U_r, self.b_r)

    @cached_property
    def cell(self):
        """The packed cell of the nine recurrent arrays (kernels.stack_gates)."""
        return kernels.stack_gates(*self.arrays())

    def replace(self, **updates):
        kw = {f.name: getattr(self, f.name) for f in fields(self)}
        kw.update(updates)
        return GruWeights(**kw)


@dataclass(frozen=True)
class GateBounds:
    """Worst-case gate activations over the unit state/input box."""

    sigma_z_bar: float
    phi_r_bar: float
    sigma_f_bar: float

    def __post_init__(self):
        if not (0.0 < self.sigma_z_bar < 1.0):
            raise ValueError("sigma_z_bar must lie in (0, 1)")
        if not (0.0 <= self.phi_r_bar < 1.0):
            raise ValueError("phi_r_bar must lie in [0, 1)")
        if not (0.0 < self.sigma_f_bar < 1.0):
            raise ValueError("sigma_f_bar must lie in (0, 1)")


def random_weights(n, m, p, rng, scale=None):
    """Uniform init in [-scale, scale]; scale defaults to 1/sqrt(n)."""
    if scale is None:
        scale = 1.0 / np.sqrt(n)
    def u(*shape):
        return rng.uniform(-scale, scale, size=shape)
    return GruWeights(
        n=n, m=m, p=p,
        W_z=u(n, m), U_z=u(n, n), b_z=u(n),
        W_f=u(n, m), U_f=u(n, n), b_f=u(n),
        W_r=u(n, m), U_r=u(n, n), b_r=u(n),
        U_o=u(p, n), b_o=u(p))


_FLOAT64 = np.dtype(np.float64)


def as_vector(v):
    """np.atleast_1d(np.asarray(v, dtype=np.float64)).  A float64 ndarray of
    one or more dimensions comes back as it is, as from those two calls, but
    without calling them: a controller tick makes a dozen such conversions."""
    if type(v) is np.ndarray and v.dtype is _FLOAT64 and v.ndim:
        return v
    return np.atleast_1d(np.asarray(v, dtype=np.float64))


def _check_vec(name, v, dim):
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.shape != (dim,):
        raise DimensionMismatchError(name, (dim,), v.shape)
    return v


def gru_step(w: GruWeights, x, u):
    """One state update.  Warns (does not reject) if ||u||_inf > 1."""
    x = _check_vec("x", x, w.n)
    u = _check_vec("u", u, w.m)
    if np.max(np.abs(u)) > 1.0 + 1e-12:
        warnings.warn("input leaves the unit box; stability analysis assumes "
                      "normalized inputs", stacklevel=2)
    return kernels.cell(x, u, *w.cell)[0]


def gru_output(w: GruWeights, x):
    x = _check_vec("x", x, w.n)
    return w.U_o @ x + w.b_o


def _stacked_inf_norm(W, U, b):
    # max absolute row sum of [W U b]
    return float(np.max(np.sum(np.abs(W), axis=1)
                        + np.sum(np.abs(U), axis=1) + np.abs(b)))


def _sigma(s):
    return 1.0 / (1.0 + np.exp(-s)) if s >= 0 else np.exp(s) / (1.0 + np.exp(s))


def gate_bounds(w: GruWeights) -> GateBounds:
    """Gate bounds sigma(|[W U b]|_inf) resp. tanh for the candidate gate."""
    return bounds_from_norms(_stacked_inf_norm(w.W_z, w.U_z, w.b_z),
                             _stacked_inf_norm(w.W_r, w.U_r, w.b_r),
                             _stacked_inf_norm(w.W_f, w.U_f, w.b_f))


def bounds_from_norms(nz, nr, nf) -> GateBounds:
    """The gate bounds of the stacked norms |[W U b]|_inf of the z, r and f
    gates."""
    return GateBounds(sigma_z_bar=_sigma(nz), phi_r_bar=float(np.tanh(nr)),
                      sigma_f_bar=_sigma(nf))


def inf_norm(M):
    """Induced infinity norm (max absolute row sum)."""
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    return float(np.max(np.sum(np.abs(M), axis=1)))


def contraction(nUr, nUf, nUz, gb: GateBounds) -> float:
    """|Ur| (|Uf| / 4 + sigma_f_bar) + (1 + phi_r_bar) / (4 (1 - sigma_z_bar)) |Uz|
    from the inf-norms nUr, nUf and nUz: the model contracts below 1."""
    return (nUr * (0.25 * nUf + gb.sigma_f_bar)
            + 0.25 * (1.0 + gb.phi_r_bar) / (1.0 - gb.sigma_z_bar) * nUz)


def diss_residual(w: GruWeights) -> float:
    """Contraction-certificate residual nu = contraction - 1; nu < 0
    certifies the model."""
    return float(contraction(inf_norm(w.U_r), inf_norm(w.U_f), inf_norm(w.U_z),
                             gate_bounds(w)) - 1.0)


def stability_penalty(nu, rho_plus, rho_minus):
    """Piecewise-linear hinge rho+ max(0, nu) + rho- min(0, nu)."""
    if rho_plus <= 0 or rho_minus <= 0:
        raise ValueError("penalty coefficients must be positive")
    return rho_plus * max(0.0, nu) + rho_minus * min(0.0, nu)


def simulate(w: GruWeights, x0, u_seq):
    """Open-loop rollout.

    Returns (X, Y) with X of shape (T+1, n) including x0, and Y of shape
    (T, p) where Y[k] is the output after applying u_seq[k].
    """
    x0 = _check_vec("x0", x0, w.n)
    u_seq = np.ascontiguousarray(u_seq, dtype=np.float64)
    if u_seq.ndim != 2 or u_seq.shape[1] != w.m:
        raise DimensionMismatchError("u_seq", ("T", w.m), u_seq.shape)
    if u_seq.shape[0] == 0:
        raise ValueError("u_seq must be nonempty")
    X = kernels.gru_rollout(x0, u_seq, *w.arrays())
    Y = X[1:] @ w.U_o.T + w.b_o
    return X, Y


def jacobians(w: GruWeights, x, u):
    """Analytic Jacobians (dphi/dx, dphi/du, deta/dx) at (x, u)."""
    x = _check_vec("x", x, w.n)
    u = _check_vec("u", u, w.m)
    gates = kernels.cell(x, u, *w.cell)[1:]
    return (*kernels.cell_jacobians(x, u, *gates, *w.cell), w.U_o.copy())


# ---------------------------------------------------------------------------
# serialization: self-describing JSON, lossless for float64 via repr
# ---------------------------------------------------------------------------

def array_doc(a):
    a = np.asarray(a, dtype=np.float64)
    return {"shape": list(a.shape), "data": [float(v) for v in a.ravel()]}


def array_from_doc(doc):
    return np.array(doc["data"], dtype=np.float64).reshape(doc["shape"])


def save_weights(w: GruWeights, path):
    doc = {"n": w.n, "m": w.m, "p": w.p}
    for name in WEIGHT_FIELDS:
        doc[name] = array_doc(getattr(w, name))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_weights(path) -> GruWeights:
    with open(path) as fh:
        doc = json.load(fh)
    kw = {name: array_from_doc(doc[name]) for name in WEIGHT_FIELDS}
    return GruWeights(n=doc["n"], m=doc["m"], p=doc["p"], **kw)
