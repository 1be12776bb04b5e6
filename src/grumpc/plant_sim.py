"""First-principles pH neutralization reactor.

Two-tank neutralization process: the reactor receives an acid stream q1, a
buffer stream q2 (disturbance d) and an alkaline stream q3 (control u); the
measured output is the pH of the effluent.  States are the two reaction
invariants x1, x2 and the liquid level x3:

    dx1 = q1/(A1 x3) (Wa1 - x1) + u/(A1 x3) (Wa3 - x1) + d/(A1 x3) (Wa2 - x1)
    dx2 = q1/(A1 x3) (Wb1 - x2) + u/(A1 x3) (Wb3 - x2) + d/(A1 x3) (Wb2 - x2)
    dx3 = (q1 + u + d - Cv4 (x3 + z)^n) / A1

and the pH solves the implicit charge balance

    c(x, y) = x1 + 10^(y-14) - 10^(-y)
              + x2 (1 + 2*10^(y-pK2)) / (1 + 10^(pK1-y) + 10^(y-pK2)) = 0.

At a steady state the invariants are flow-weighted means of the feeds
(Henson & Seborg, IEEE TCST 2(3), 1994) and c is affine in (x1, x2), so the
base flow that holds a given pH solves a linear equation (`_nominal_q3`).
"""

import functools
import json
import logging
from dataclasses import dataclass, asdict

import numpy as np

from . import kernels
from .sysid import TimeSeries

log = logging.getLogger(__name__)


class LevelCollapseError(RuntimeError):
    """Liquid level reached zero; the model divides by x3."""


class OutputSolveError(RuntimeError):
    """The charge balance has no root in [0, 14] for this state."""


PARAM_KEYS = ("z", "Cv4", "n", "pK1", "pK2", "h1", "A1",
              "Wa1", "Wa2", "Wa3", "Wa4", "Wb1", "Wb2", "Wb3", "Wb4",
              "q1", "q2", "q3", "q4", "pH")


@dataclass(frozen=True)
class PhParams:
    """Reactor geometry, chemistry and nominal operating condition."""

    z: float
    Cv4: float
    n: float
    pK1: float
    pK2: float
    h1: float
    A1: float
    Wa1: float
    Wa2: float
    Wa3: float
    Wa4: float
    Wb1: float
    Wb2: float
    Wb3: float
    Wb4: float
    q1: float
    q2: float
    q3: float
    q4: float
    pH: float

    def __post_init__(self):
        if self.A1 <= 0 or self.Cv4 <= 0:
            raise ValueError("A1 and Cv4 must be positive")
        if not (0.0 < self.n <= 1.0):
            raise ValueError("valve exponent must lie in (0, 1]")
        if not (self.pK1 < self.pK2):
            raise ValueError("pK1 < pK2 required")

    def rhs_args(self):
        return (self.q1, self.A1, self.z, self.Cv4, self.n,
                self.Wa1, self.Wb1, self.Wa2, self.Wb2, self.Wa3, self.Wb3)


@dataclass
class PlantState:
    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        if self.x3 <= 0.0:
            raise LevelCollapseError(f"liquid level x3 = {self.x3} is not positive")


_COMMON = dict(z=11.5, Cv4=4.59, n=0.607, pK1=6.35, pK2=10.25, h1=14.0,
               A1=207.0, q1=16.6, q2=0.55, q3=15.6, q4=32.8, pH=7.0)

# Standard benchmark molarities; these reproduce the printed Wa4/Wb4
# mantissas (-4.32e-4, 5.28e-4), q4 = 32.8 mL/s and the level h1 = 14 cm.
STANDARD_CONCENTRATIONS = dict(Wa1=3e-3, Wb1=0.0, Wa2=-3e-2, Wb2=3e-2,
                               Wa3=-3.05e-3, Wb3=5e-5, Wa4=-4.32e-4, Wb4=5.28e-4)


def _mixing_equilibrium(p: PhParams, q3):
    """Closed-form steady state at flows (q1, q2, q3)."""
    qt = p.q1 + p.q2 + q3
    x1 = (p.q1 * p.Wa1 + p.q2 * p.Wa2 + q3 * p.Wa3) / qt
    x2 = (p.q1 * p.Wb1 + p.q2 * p.Wb2 + q3 * p.Wb3) / qt
    x3 = (qt / p.Cv4) ** (1.0 / p.n) - p.z
    return x1, x2, x3


def _nominal_q3(p: PhParams) -> float:
    """Base flow q3 in the actuator range [11.2, 17.2] at which the
    equilibrium pH is p.pH: the root of (q1 + q2 + q3) c(x, pH), which is
    the sum of q_i c(Wa_i, Wb_i, pH) over the three feeds.
    """
    def charge(wa, wb):
        return kernels.ph_c_residual(wa, wb, p.pH, p.pK1, p.pK2)

    base = charge(p.Wa3, p.Wb3)
    if base == 0.0:
        raise ValueError("the base stream carries no charge at the nominal pH")
    q3 = -(p.q1 * charge(p.Wa1, p.Wb1) + p.q2 * charge(p.Wa2, p.Wb2)) / base
    if not 11.2 <= q3 <= 17.2:
        raise ValueError(f"nominal base flow {q3} lies outside [11.2, 17.2]")
    return q3


def calibrate_params(tol=0.1) -> PhParams:
    """The standard benchmark parameters, checked against the nominal
    condition: the table flows must hold the equilibrium within `tol` of
    pH 7.0.  The nominal base flow that makes it exactly 7.0 (the table q3
    is a rounded value) is `_nominal_q3`.
    """
    p = PhParams(**_COMMON, **STANDARD_CONCENTRATIONS)
    x1, x2, _ = _mixing_equilibrium(p, p.q3)
    ph_table = kernels.ph_output_solve(x1, x2, p.pK1, p.pK2)
    if not abs(ph_table - p.pH) < tol:
        raise ValueError(f"the parameter table gives pH {ph_table} at its "
                         f"flows, not {p.pH}")
    log.info("pH parameters: pH %.6f at the table flows", ph_table)
    return p


@functools.cache
def default_params() -> PhParams:
    return calibrate_params()


def nominal_point(p: PhParams) -> tuple[PlantState, float]:
    """Nominal operating point: (state, base flow q3).

    The state solves xdot = 0 and the charge balance vanishes there at p.pH.
    """
    q3_star = _nominal_q3(p)
    return PlantState(*_mixing_equilibrium(p, q3_star)), q3_star


def output_solve(s: PlantState, p: PhParams) -> float:
    """pH from the charge balance (bisection on [0, 14])."""
    y = kernels.ph_output_solve(s.x1, s.x2, p.pK1, p.pK2)
    if not np.isfinite(y):
        raise OutputSolveError(
            f"charge balance has no sign change on [0, 14] at state {s}")
    return float(y)


def integrate_step(s: PlantState, u, d, p: PhParams, tau_s, substeps=10) -> PlantState:
    """Classical RK4 over one sampling period with zero-order-hold inputs."""
    if substeps < 1:
        raise ValueError("substeps must be at least 1")
    x1, x2, x3 = kernels.rk4_ph(s.x1, s.x2, s.x3, float(u), float(d),
                                float(tau_s), int(substeps), *p.rhs_args())
    if x3 <= 0.0:
        raise LevelCollapseError("liquid level collapsed during integration")
    return PlantState(x1, x2, x3)


KNOWN_CHANNELS = ("output-additive", "input-additive", "q2-override")


@dataclass(frozen=True)
class DisturbanceEntry:
    start: float
    end: float
    channel: str
    value: float

    def __post_init__(self):
        if self.channel not in KNOWN_CHANNELS:
            raise ValueError(f"unknown disturbance channel {self.channel!r}")
        if not (self.start < self.end):
            raise ValueError("disturbance start must precede its end")


@dataclass
class DisturbanceSchedule:
    entries: list

    def __post_init__(self):
        self.entries = [e if isinstance(e, DisturbanceEntry) else DisturbanceEntry(*e)
                        for e in self.entries]
        for ch in KNOWN_CHANNELS:
            spans = sorted((e.start, e.end) for e in self.entries if e.channel == ch)
            for (s0, e0), (s1, _) in zip(spans, spans[1:]):
                if s1 < e0:
                    raise ValueError(f"overlapping {ch} disturbances")

    def at(self, t, channel, default=0.0):
        for e in self.entries:
            if e.channel == channel and e.start <= t < e.end:
                return e.value
        return default

def run_experiment(u_signal, p: PhParams, tau_s=10.0, substeps=10) -> TimeSeries:
    """Open-loop ZOH simulation from the nominal point at buffer flow p.q2;
    returns the noise-free record.  Sample k holds t = k tau_s and the pH
    after the k-th hold period.
    """
    if not tau_s > 0:
        raise ValueError(f"tau_s must be positive, not {tau_s!r}")
    if substeps < 1:
        raise ValueError("substeps must be at least 1")
    u_signal = np.asarray(u_signal, dtype=np.float64).ravel()
    K = u_signal.shape[0]
    x0, _ = nominal_point(p)
    states, ys = kernels.ph_run(x0.x1, x0.x2, x0.x3, u_signal, np.full(K, p.q2),
                                float(tau_s), int(substeps),
                                *p.rhs_args(), p.pK1, p.pK2)
    if states[-1, 2] <= 0.0:
        raise LevelCollapseError("liquid level collapsed during the experiment")
    if np.any(~np.isfinite(ys)):
        raise OutputSolveError("charge balance lost its root during the experiment")
    return TimeSeries(np.arange(K) * tau_s, u_signal.reshape(-1, 1), ys.reshape(-1, 1))


def save_params(p: PhParams, path):
    with open(path, "w") as fh:
        json.dump({k: asdict(p)[k] for k in PARAM_KEYS}, fh, indent=1)
        fh.write("\n")


def load_params(path) -> PhParams:
    with open(path) as fh:
        doc = json.load(fh)
    return PhParams(**{k: float(doc[k]) for k in PARAM_KEYS})
