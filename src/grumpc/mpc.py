"""Receding-horizon control of the integrator-augmented model.

Pipeline per reference value: equilibrium (damped Newton on the model's
fixed-point equations), linearization of the augmented system, LQ gain from
a fixed-point Riccati iteration, Lyapunov matrix for the terminal-set
ellipsoid, the quadratic terminal cost e'(P + Pi)e, sampled terminal-set
radius with its certificates, and the finite-horizon optimal control
problem solved by penalized single shooting: Levenberg-Marquardt
Gauss-Newton on the residuals of the penalized cost, with their exact
Jacobian from one batched linearization of the rollout (cell_jacobians).
Each setpoint packs its augmented model under the auxiliary law once
(kernels.AugmentedStep, inside the ingredients' FhocpConstants); the radius
search and every solver evaluation step through it.

ControllerConfig holds every controller setting (horizons, weights, the
terminal-set search, the solver's budget); the ingredient build, the
radius search and the solver read it directly.  Fixed numerics (the
penalty schedule, the damping rule, the radius walk) are module constants.
"""

import logging
import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from . import gru_model, kernels
from .gru_model import GruWeights
from .observer import AugmentedState, ObserverGains, observer_step

log = logging.getLogger(__name__)


class UnreachableReferenceError(RuntimeError):
    """The reference lies outside the steady-state range of the unit input box."""


class EquilibriumError(RuntimeError):
    pass


class RiccatiError(RuntimeError):
    pass


class TerminalSetError(RuntimeError):
    """No positive terminal radius found; enlarge Q_tilde or reduce gamma."""


class FhocpInfeasibleError(RuntimeError):
    def __init__(self, violation, evals=0, terminal_level=np.nan, rejections=0):
        self.violation = violation
        self.evals = evals
        self.terminal_level = terminal_level
        self.rejections = rejections
        super().__init__(f"no feasible plan found (min violation {violation:.3e})")


@dataclass
class ControllerConfig:
    """Controller settings; the defaults are the desk profile."""

    N_c: int = 20                 # free moves (control horizon)
    N_p: int = 40                 # prediction horizon
    q_weight: float = 1.0         # Q = q_weight I on the augmented state
    r_weight: float = 1.0         # R = r_weight I on the move
    q_tilde_weight: float = 10.0  # Q_tilde = q_tilde_weight I (terminal set)
    gamma: float = 0.01           # Lyapunov decrease margin on the terminal set
    # auxiliary-law steps rolled past N_p before the terminal cost e'P_f e
    # is charged; 0 charges it at state N_p
    N_f: int = 0
    ref_filter_window: int = 12
    max_iters: int = 200          # Gauss-Newton steps tried over all rounds
    constraint_tol: float = 1e-9
    omega_max: float = 10.0       # first terminal radius tried
    terminal_samples: int = 45056  # boundary samples per radius trial
    cache_quantum: float = 1e-4   # setpoint rounding of the ingredient cache

    def __post_init__(self):
        if not (1 <= self.N_c <= self.N_p):
            raise ValueError("require 1 <= N_c <= N_p")
        # each of these would void the terminal-set certificate, share one
        # cache key among all setpoints, fail every ingredient build, the
        # reference filter or the first solve, or refuse every plan as
        # infeasible
        for name in ("q_weight", "q_tilde_weight", "omega_max",
                     "terminal_samples", "cache_quantum", "ref_filter_window"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, "
                                 f"not {getattr(self, name)!r}")
        for name in ("gamma", "constraint_tol", "r_weight", "N_f"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative, "
                                 f"not {getattr(self, name)!r}")


@dataclass(frozen=True)
class Equilibrium:
    x0: np.ndarray
    u0: np.ndarray
    y0: np.ndarray

    def __post_init__(self):
        for name in ("x0", "u0", "y0"):
            object.__setattr__(self, name,
                               np.atleast_1d(np.asarray(getattr(self, name), dtype=np.float64)))

    @cached_property
    def xa0(self):
        return np.concatenate([self.x0, self.u0])

    @property
    def ya0(self):
        return np.concatenate([self.y0, self.u0])


@dataclass
class LinearizedAugmented:
    A_a: np.ndarray
    B_a: np.ndarray
    C_a: np.ndarray


def steady_state(w: GruWeights, u_const, max_steps=50000, tol=1e-13):
    """Steady state under a constant input, by rollout to convergence."""
    u = np.atleast_1d(np.asarray(u_const, dtype=np.float64))
    x = np.zeros(w.n)
    for _ in range(max_steps):
        xn = kernels.cell(x, u, *w.cell)[0]
        if np.max(np.abs(xn - x)) < tol:
            return xn
        x = xn
    return x


def find_equilibrium(w: GruWeights, y0, max_iter=100, tol=1e-12,
                     x_guess=None, u_guess=None) -> Equilibrium:
    """Solve phi(x, u) = x, eta(x) = y0 by damped Newton.

    For single-output models the steady outputs at the saturated inputs
    u = -1 and u = +1 bracket the reachable references; values outside
    raise UnreachableReferenceError.
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=np.float64))
    n, p = w.n, w.p

    if u_guess is None or x_guess is None:
        if p == 1:
            y_lo = gru_model.gru_output(w, steady_state(w, [-1.0]))[0]
            y_hi = gru_model.gru_output(w, steady_state(w, [1.0]))[0]
            lo, hi = min(y_lo, y_hi), max(y_lo, y_hi)
            if not (lo <= y0[0] <= hi):
                raise UnreachableReferenceError(
                    f"reference {y0[0]:.4f} outside steady range [{lo:.4f}, {hi:.4f}]")
            t = 0.0 if hi == lo else (y0[0] - y_lo) / (y_hi - y_lo)
            u = np.array([-1.0 + 2.0 * np.clip(t, 0.0, 1.0)])
            x = steady_state(w, u)
        else:
            u = np.zeros(p)
            x = steady_state(w, u)
    else:
        x = np.asarray(x_guess, dtype=np.float64).copy()
        u = np.asarray(u_guess, dtype=np.float64).copy()

    def residual(x, u):
        return np.concatenate([kernels.cell(x, u, *w.cell)[0] - x,
                               gru_model.gru_output(w, x) - y0])

    F = residual(x, u)
    for _ in range(max_iter):
        if np.linalg.norm(F, np.inf) < tol:
            break
        dphi_dx, dphi_du, _ = gru_model.jacobians(w, x, u)
        J = np.block([[dphi_dx - np.eye(n), dphi_du],
                      [w.U_o, np.zeros((p, p))]])
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise EquilibriumError(f"singular Newton system: {exc}") from exc
        t = 1.0
        base = np.linalg.norm(F)
        for _ in range(40):
            x_try = x + t * step[:n]
            u_try = u + t * step[n:]
            F_try = residual(x_try, u_try)
            if np.linalg.norm(F_try) < (1.0 - 1e-4 * t) * base:
                x, u, F = x_try, u_try, F_try
                break
            t *= 0.5
        else:
            raise EquilibriumError("Newton line search stalled")
    else:
        raise EquilibriumError(
            f"no convergence in {max_iter} iterations (residual "
            f"{np.linalg.norm(F, np.inf):.3e})")

    if np.max(np.abs(u)) > 1.0 + 1e-9:
        raise UnreachableReferenceError(
            f"equilibrium input {u} leaves the unit box")
    return Equilibrium(x0=x, u0=u, y0=y0)


def linearize_augmented(w: GruWeights, eq: Equilibrium) -> LinearizedAugmented:
    """Block linearization of the augmented system at (xa0, v=0)."""
    n, p = w.n, w.p
    dphi_dx, dphi_du, _ = gru_model.jacobians(w, eq.x0, eq.u0)
    A_a = np.block([[dphi_dx, dphi_du],
                    [-w.U_o, np.eye(p)]])
    B_a = np.vstack([dphi_du, np.zeros((p, p))])
    C_a = np.block([[w.U_o, np.zeros((p, p))],
                    [np.zeros((p, n)), np.eye(p)]])
    return LinearizedAugmented(A_a, B_a, C_a)


@dataclass
class AssumptionsReport:
    stabilizable: bool
    detectable: bool
    no_unit_transmission_zero: bool
    margins: dict

    @property
    def passed(self):
        return self.stabilizable and self.detectable and self.no_unit_transmission_zero


def check_design_assumptions(lin: LinearizedAugmented, rank_tol=1e-9) -> AssumptionsReport:
    """PBH-style rank diagnostics for the linearized augmented system."""
    A, B, C = lin.A_a, lin.B_a, lin.C_a
    na = A.shape[0]
    eigs = np.linalg.eigvals(A)
    stab_margin = np.inf
    det_margin = np.inf
    for lam in eigs:
        if abs(lam) >= 1.0 - 1e-9:
            s_ctrl = np.linalg.svd(np.hstack([A - lam * np.eye(na), B]),
                                   compute_uv=False)[-1]
            s_obs = np.linalg.svd(np.vstack([A - lam * np.eye(na), C]),
                                  compute_uv=False)[-1]
            stab_margin = min(stab_margin, s_ctrl)
            det_margin = min(det_margin, s_obs)
    pencil = np.block([[A - np.eye(na), B],
                       [C, np.zeros((C.shape[0], B.shape[1]))]])
    tz_margin = np.linalg.svd(pencil, compute_uv=False)[B.shape[1] + na - 1]
    report = AssumptionsReport(
        stabilizable=stab_margin > rank_tol,
        detectable=det_margin > rank_tol,
        no_unit_transmission_zero=tz_margin > rank_tol,
        margins={"stabilizability": float(stab_margin),
                 "detectability": float(det_margin),
                 "transmission_zero_at_one": float(tz_margin)})
    if not report.passed:
        log.warning("design assumption diagnostics failed: %s", report.margins)
    return report


def lq_gain(lin: LinearizedAugmented, Q, R, tol=1e-12, max_iter=200000):
    """Infinite-horizon LQ gain by fixed-point Riccati iteration."""
    A, B = lin.A_a, lin.B_a
    Q = np.asarray(Q, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    P = Q.copy()
    for _ in range(max_iter):
        BtP = B.T @ P
        K = np.linalg.solve(R + BtP @ B, BtP @ A)
        P_next = Q + A.T @ P @ (A - B @ K)
        res = np.max(np.abs(P_next - P))
        P = 0.5 * (P_next + P_next.T)
        if res < tol:
            break
    else:
        raise RiccatiError(f"Riccati iteration did not converge (last step {res:.3e})")
    BtP = B.T @ P
    K = np.linalg.solve(R + BtP @ B, BtP @ A)
    cl_eigs = np.linalg.eigvals(A - B @ K)
    if np.max(np.abs(cl_eigs)) >= 1.0:
        raise RiccatiError(
            f"closed loop not Schur (spectral radius {np.max(np.abs(cl_eigs)):.6f})")
    return K, P


def lyapunov_Pi(lin: LinearizedAugmented, K_lq, Q_tilde, tol=1e-14):
    """Solve Acl' Pi Acl - Pi = -Q_tilde by the doubling series."""
    Acl = lin.A_a - lin.B_a @ np.asarray(K_lq)
    if np.max(np.abs(np.linalg.eigvals(Acl))) >= 1.0:
        raise RiccatiError("closed loop not Schur; Lyapunov series diverges")
    Pi = np.asarray(Q_tilde, dtype=np.float64).copy()
    M = Acl.copy()
    for _ in range(200):
        inc = M.T @ Pi @ M
        Pi = Pi + inc
        if np.max(np.abs(inc)) < tol * max(1.0, np.max(np.abs(Pi))):
            break
        M = M @ M
    Pi = 0.5 * (Pi + Pi.T)
    res = np.max(np.abs(Acl.T @ Pi @ Acl - Pi + Q_tilde))
    if res > 1e-10:
        raise RiccatiError(f"Lyapunov residual {res:.3e} too large")
    return Pi


# ---------------------------------------------------------------------------
# terminal ingredients
# ---------------------------------------------------------------------------

_HALTON_CACHE: dict = {}


def _primes(count):
    """The first count primes."""
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % q for q in primes if q * q <= k):
            primes.append(k)
        k += 1
    return primes


def halton_points(count, dim, skip=0):
    """Points skip .. skip+count-1 of the unscrambled Halton sequence.

    Coordinate j is the radical inverse of the point index in the j-th
    prime base, its digits summed from the least significant one on, the
    same arithmetic as scipy.stats.qmc.Halton(scramble=False).  Each
    coordinate is summed in a contiguous buffer, one np.divmod per digit,
    over the digit count of the largest index.
    """
    pts = np.empty((count, dim))
    index = np.arange(skip, skip + count)
    for j, base in enumerate(_primes(dim)):
        acc = np.zeros(count)
        q, scale, top = index, 1.0 / base, skip + count - 1
        while top > 0:
            q, digit = np.divmod(q, base)
            acc += digit * scale
            scale /= base
            top //= base
        pts[:, j] = acc
    return pts


# Cephes ndtri: the rational approximations of the inverse normal CDF for
# |y - 1/2| <= 1/2 - exp(-2) (P0/Q0) and for the tail with
# 2 <= sqrt(-2 ln y) < 8 (P1/Q1), highest power first
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242


def _horner(coeffs, x):
    """The polynomial of coeffs (highest power first) at x, in place, with
    np.polyval's arithmetic."""
    y = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        y *= x
        y += c
    return y


def _ndtri(y):
    """Inverse standard normal CDF for y in [1e-12, 1 - 1e-12].

    Cephes `ndtri`, as `scipy.special.ndtri` evaluates it, in NumPy: the
    central approximation and the tail below z = 8, each on its own subset
    of y; the z >= 8 branch (y < exp(-32)) cannot be reached on this domain
    and is not ported.  The result equals SciPy's to within 3 ulp (np.log
    and libm's log round differently in the tail).  It is in-repo because
    `import scipy.special` costs 0.2-0.25 s and 26 MB of resident memory
    (2-vCPU x86-64 guest).
    """
    upper = y > 1.0 - _EXP_M2
    t = np.where(upper, 1.0 - y, y)
    out = np.empty_like(t)
    central = t > _EXP_M2
    c = t[central] - 0.5
    c2 = c * c
    out[central] = _SQRT_2PI * (
        c + c * (c2 * _horner(_NDTRI_P0, c2) / _horner(_NDTRI_Q0, c2)))
    tail = ~central
    z = np.sqrt(-2.0 * np.log(t[tail]))
    r = 1.0 / z
    x = z - np.log(z) / z - r * _horner(_NDTRI_P1, r) / _horner(_NDTRI_Q1, r)
    out[tail] = np.where(upper[tail], x, -x)
    return out


def _halton_directions(count, dim, skip=0):
    """Deterministic low-discrepancy unit directions (Halton -> Gaussian).

    The Gaussian map is `_ndtri`, a NumPy port of `scipy.special.ndtri`
    within 3 ulp of it, so that the terminal set imports no SciPy module.
    Built in place, TERMINAL_BLOCK rows at a time: a copy of a 45056-row
    set would add 3.6 MB to the peak memory.
    """
    key = (count, dim, skip)
    cached = _HALTON_CACHE.get(key)
    if cached is not None:
        return cached
    g = halton_points(count, dim, skip)
    for lo in range(0, count, TERMINAL_BLOCK):
        blk = g[lo:lo + TERMINAL_BLOCK]
        blk[...] = _ndtri(np.clip(blk, 1e-12, 1.0 - 1e-12))
        norms = np.linalg.norm(blk, axis=1)
        norms[norms == 0.0] = 1.0
        blk /= norms[:, None]
    _HALTON_CACHE[key] = g
    return g


# the radius walk: the factor between radii tried, the radius below which
# no terminal set is found, and the samples per terminal_samples_check call
# and per block of the direction build (bounds their working memory; a
# trial stops at its first failing block)
TERMINAL_SHRINK = 0.8
TERMINAL_MIN_OMEGA = 1e-12
TERMINAL_BLOCK = 1024


def terminal_set_radius(step: kernels.AugmentedStep, Pi, P_f, Q_lq,
                        cfg: ControllerConfig):
    """Largest sampled radius for which the auxiliary law of the setpoint's
    packed step stays admissible.

    Walks a geometric grid from cfg.omega_max downward by TERMINAL_SHRINK.
    The samples are one ordered Halton set of cfg.terminal_samples boundary
    directions (points 1, 2, ... of the sequence), checked in blocks of
    TERMINAL_BLOCK; a radius is accepted when every sample satisfies the
    total-input box (xi + v_lq in [-1, 1]), the Lyapunov decrease condition
    with margin cfg.gamma and the terminal-cost decrease
    V_f(phi_a(e)) - V_f(e) + e'Q_lq e <= 0 with V_f(e) = e'P_f e, and
    rejected at the first block with a failing sample.
    """
    L = np.linalg.cholesky(Pi)
    # rows satisfy e' Pi e = 1
    E_unit = (_halton_directions(cfg.terminal_samples, len(Pi), skip=1)
              @ np.linalg.inv(L.T).T)

    def all_pass(scale):
        for lo in range(0, len(E_unit), TERMINAL_BLOCK):
            over, lhs, vf_lhs = kernels.terminal_samples_check(
                scale * E_unit[lo:lo + TERMINAL_BLOCK], step, Pi, P_f, Q_lq, cfg.gamma)
            if not (np.all(over <= 0.0) and np.all(lhs <= 1e-12)
                    and np.all(vf_lhs <= 0.0)):
                return False
        return True

    omega = float(cfg.omega_max)
    while omega > TERMINAL_MIN_OMEGA:
        if all_pass(np.sqrt(omega)):
            return omega
        omega *= TERMINAL_SHRINK
    raise TerminalSetError(
        "no positive terminal radius found; retune Q_tilde or gamma")


@dataclass
class TerminalIngredients:
    """Everything the FHOCP of one setpoint needs; the arrays are C-contiguous."""
    eq: Equilibrium
    lin: LinearizedAugmented
    K_lq: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Q_lq: np.ndarray
    Pi: np.ndarray
    P_f: np.ndarray          # terminal cost V_f(e) = e'P_f e, P_f = P + Pi
    Q_tilde: np.ndarray
    omega: float
    # the kernels' set-up for this problem (kernels.fhocp_constants): the
    # packed augmented step under the auxiliary law and the factors of Q, R
    # and P_f; derived from the fields above and the model, so a copy with
    # other Q, R or P_f needs it rebuilt
    consts: kernels.FhocpConstants


def build_ingredients(w: GruWeights, y0, cfg: ControllerConfig,
                      eq_guess=None) -> TerminalIngredients:
    """All reference-dependent controller ingredients for one setpoint.

    Q, R and Q_tilde are the identities scaled by the weights of cfg.  The
    design assumptions are checked at the equilibrium; a failure raises
    EquilibriumError.
    """
    if eq_guess is not None:
        eq = find_equilibrium(w, y0, x_guess=eq_guess.x0, u_guess=eq_guess.u0)
    else:
        eq = find_equilibrium(w, y0)
    lin = linearize_augmented(w, eq)
    rep = check_design_assumptions(lin)
    if not rep.passed:
        raise EquilibriumError(f"design assumptions fail: {rep.margins}")
    na = w.n + w.p
    Q = cfg.q_weight * np.eye(na)
    R = cfg.r_weight * np.eye(w.p)
    Q_tilde = cfg.q_tilde_weight * np.eye(na)
    K, P = lq_gain(lin, Q, R)
    K = np.ascontiguousarray(K)
    Q_lq = Q + K.T @ R @ K
    Pi = np.ascontiguousarray(lyapunov_Pi(lin, K, Q_tilde))
    # P solves Acl'P Acl - P = -Q_lq and Pi the same with -Q_tilde, so the
    # sum decreases by the stage cost plus the margin e'Q_tilde e on the
    # linearization; terminal_set_radius checks it on the nonlinear model
    P_f = np.ascontiguousarray(P + Pi)
    consts = kernels.fhocp_constants(
        kernels.augmented_step_matrices(w.cell, w.U_o, w.b_o, eq.y0, (K, eq.xa0)),
        Q, R, P_f)
    omega = terminal_set_radius(consts.step, Pi, P_f, Q_lq, cfg)
    return TerminalIngredients(eq, lin, K, Q, R, Q_lq, Pi, P_f, Q_tilde, omega,
                               consts)


# ---------------------------------------------------------------------------
# finite-horizon optimal control problem
# ---------------------------------------------------------------------------

# Levenberg-Marquardt: initial damping, its factor on a rejected (raise)
# or accepted (lower) step, and the decrease, relative to 1 + cost, that
# ends a penalty round (the 1 keeps a cost at rounding level from stepping
# on noise)
LM_LAMBDA0 = 1e-3
LM_RAISE = 10.0
LM_STOP = 1e-12
# penalty weights of the successive rounds
MU_SCHEDULE = (1e3, 1e5, 1e7)


def _solve(A, b):
    """x with A x = b for float64 A and b: LAPACK's gesv through the same
    gufunc np.linalg.solve calls, without its Python wrapper (15-35 us per
    call in the first ticks of a process, against 5-10 us for the 20 x 20
    solve itself) and its "dd->d" signature (a third of a call).  A
    singular A raises LinAlgError, as in np.linalg.solve."""
    x = _umath_linalg.solve1(A, b)
    if not np.isfinite(x).all():
        raise np.linalg.LinAlgError("singular matrix")
    return x


@dataclass
class FhocpSolution:
    v: np.ndarray            # (N_c, p)
    trajectory: np.ndarray   # (N_p + 1, n + p)
    cost: float
    iterations: int          # accepted Gauss-Newton steps
    # the plan's box excess or terminal excess over max(1, omega), the larger
    max_violation: float
    evals: int = 0           # objective evaluations, with or without Jacobian
    terminal_level: float = np.nan   # e_Np'Pi e_Np / omega of the plan
    rejections: int = 0      # rejected Gauss-Newton steps (damping raised)


def fhocp_solve(w: GruWeights, ing: TerminalIngredients, cfg: ControllerConfig,
                xa_hat: AugmentedState, xi_true, warm_start=None) -> FhocpSolution:
    """Penalized single shooting over the free moves v(0..N_c-1).

    The penalized objective is a sum of squares r(v)'r(v)
    (kernels.fhocp_residuals), minimized by Levenberg-Marquardt
    Gauss-Newton on the exact Jacobian J of r: each step solves
    (J'J + lam diag(J'J)) dv = -J'r and is accepted when it lowers the
    penalized cost; lam falls after an accepted step and rises after a
    rejected one.  A penalty round ends when the decrease, actual or
    predicted by the Gauss-Newton model, is at most LM_STOP (1 + cost), or
    after cfg.max_iters // rounds steps.  The penalty weights rise over
    MU_SCHEDULE.  A round whose plan leaves the box is followed by a
    sequential clamp that restores exact box feasibility (inside the box the
    clamp is the identity, so it does not run there), and a strictly
    interior iterate ends the schedule.  The best feasible iterate wins, so
    a feasible warm start is never degraded.  Every candidate keeps the
    states 0..N_p of the rollout that scored it, which become the
    trajectory and terminal level of the solution.
    """
    p = w.p
    Nc, Np = cfg.N_c, cfg.N_p
    D = Nc * p
    # the adapters' arguments after the plan: start, model and law, then problem
    head = (xa_hat.stacked(), np.atleast_1d(np.asarray(xi_true, dtype=np.float64)),
            ing.eq.y0, *w.arrays(), w.U_o, w.b_o, ing.K_lq, ing.eq.xa0)
    args = (*head, ing.Q, ing.R, ing.P_f, ing.Pi, float(ing.omega), Nc, Np, int(cfg.N_f))

    ctol = cfg.constraint_tol
    omega_tol = ctol * max(1.0, ing.omega)

    # best feasible plan, its states and violation; the least violation
    # seen and the states of its plan
    best = {"cost": np.inf, "v": None, "XA": None, "viol": np.inf,
            "least": np.inf, "least_XA": None}
    evals = 0

    def evaluate(kernel, vflat, mu_box, mu_term):
        nonlocal evals
        evals += 1
        return kernel(vflat, *args, mu_box, mu_term, consts=ing.consts)

    def consider(vflat, Jc, bviol, tviol, XA):
        """Record a plan from its evaluation and the states XA it scored;
        True when strictly interior.  A plan's violation is its box excess
        or its terminal excess over max(1, omega), whichever is larger.
        Plans are fresh arrays that nothing writes into: none is copied."""
        viol = max(bviol, tviol / max(1.0, ing.omega))
        if bviol <= ctol and tviol <= omega_tol and Jc < best["cost"]:
            best.update(cost=Jc, v=vflat, XA=XA, viol=viol)
        if viol < best["least"]:
            best.update(least=viol, least_XA=XA)
        return bviol <= 0.0 and tviol <= 0.0

    def level(XA):
        """e_Np'Pi e_Np / omega of a plan's states."""
        eN = XA[Np] - ing.eq.xa0
        return float(eN.dot(ing.Pi).dot(eN)) / ing.omega

    if warm_start is not None:
        v = np.array(warm_start, dtype=np.float64).ravel()
        if v.size != Nc * p:
            raise ValueError("warm start has the wrong length")
    else:
        v = np.zeros(Nc * p)

    iters = rejections = 0
    budget = max(5, cfg.max_iters // len(MU_SCHEDULE))
    for k, mu in enumerate(MU_SCHEDULE):
        mu_box, mu_term = mu, mu / max(1.0, ing.omega) ** 2
        Jp, Jc, g, bviol, tviol, H, XA = evaluate(kernels.fhocp_forward_backward,
                                                  v, mu_box, mu_term)
        if k == 0:
            consider(v, Jc, bviol, tviol, XA)     # the warm start or zero plan
        lam = LM_LAMBDA0
        for _ in range(budget):
            stop = LM_STOP * (1.0 + Jp)
            # no step predicts a decrease above the cost Jp = |r|^2 (the model
            # |r + Jr dv|^2 is nonnegative): a plan at equilibrium needs no solve
            if Jp <= stop:
                break
            # (H + lam diag(H)) dv = -g, on a copy of H with its diagonal damped
            Hd = H.copy()
            diag = Hd.reshape(-1)[::D + 1]
            diag += lam * diag
            dv = _solve(Hd, -g)
            # the decrease the model predicts (ndarray.dot: @ without its dispatch)
            if -float(dv.dot(g + 0.5 * H.dot(dv))) <= stop:
                break
            trial = evaluate(kernels.fhocp_forward_backward, v + dv, mu_box, mu_term)
            if trial[0] >= Jp:
                rejections += 1
                lam *= LM_RAISE
                continue
            iters += 1
            lam /= LM_RAISE
            decrease = Jp - trial[0]
            v = v + dv
            Jp, Jc, g, bviol, tviol, H, XA = trial
            if decrease <= stop:
                break
        strict = consider(v, Jc, bviol, tviol, XA)
        if bviol > 0.0:
            v_clip, XA_clip, _ = kernels.fhocp_clip_restore(v, *head, Nc, Np,
                                                            consts=ing.consts)
            if not np.array_equal(v_clip, v):
                consider(v_clip, *evaluate(kernels.fhocp_forward, v_clip, 0.0, 0.0)[1:],
                         XA_clip)
        # a strictly interior iterate makes the remaining penalty rounds
        # no-ops (the penalties vanish identically around it)
        if strict:
            break

    if best["v"] is None:
        raise FhocpInfeasibleError(
            best["least"], evals,
            np.nan if best["least_XA"] is None else level(best["least_XA"]),
            rejections)

    return FhocpSolution(v=best["v"].reshape(Nc, p), trajectory=best["XA"],
                         cost=best["cost"], iterations=iters,
                         max_violation=best["viol"], evals=evals,
                         terminal_level=level(best["XA"]), rejections=rejections)


def shifted_warm_start(sol: FhocpSolution, ing: TerminalIngredients, w: GruWeights,
                       cfg: ControllerConfig):
    """Standard shift: drop v*(0), append the auxiliary move at the end."""
    v = np.empty((cfg.N_c, w.p))
    v[:-1] = sol.v[1:]
    np.negative(ing.K_lq.dot(sol.trajectory[cfg.N_c] - ing.eq.xa0), out=v[-1])
    return v.ravel()


def reference_filter(signal, window: int):
    """Causal moving average; window 1 is the identity."""
    if window < 1:
        raise ValueError("window must be at least 1")
    signal = np.asarray(signal, dtype=np.float64)
    out = np.empty_like(signal)
    csum = np.cumsum(signal, axis=0)
    for k in range(len(signal)):
        lo = max(0, k - window + 1)
        out[k] = (csum[k] - (csum[lo - 1] if lo > 0 else 0.0)) / (k - lo + 1)
    return out


# ---------------------------------------------------------------------------
# receding-horizon controller
# ---------------------------------------------------------------------------

@dataclass
class StepInfo:
    v: np.ndarray
    xi: np.ndarray
    cost: float
    iterations: int          # accepted Gauss-Newton steps of the solve
    feasible: bool
    fallback: bool
    evals: int = 0           # objective evaluations of the solve
    terminal_level: float = np.nan   # e_Np'Pi e_Np / omega of the plan
    rejections: int = 0      # rejected Gauss-Newton steps of the solve
    solve_ms: float = 0.0    # wall time of fhocp_solve; 0 when none ran


class RecedingHorizonController:
    """One controller instance: observer state, integrator, warm start.

    Works entirely in normalized units; the harness denormalizes the
    applied input.  Reference-dependent ingredients are cached per
    quantized setpoint.  A setpoint whose ingredients fail to build is not
    tried again: the controller keeps the last good ingredients and holds
    their setpoint, and counts the event in rebuild_failures.  A tick that
    starts from a non-finite estimate or integrator re-seeds the controller
    at the equilibrium of its ingredients and applies the equilibrium input
    without a solve; it counts in nonfinite_resets, not as a fallback.
    """

    def __init__(self, w: GruWeights, gains: ObserverGains,
                 cfg: ControllerConfig | None = None):
        self.w = w
        self.gains = gains
        self.cfg = cfg or ControllerConfig()
        self._cache = {}
        self._failed = set()
        self._last_ing = None
        self.est: AugmentedState | None = None
        self.xi: np.ndarray | None = None
        self._warm = None
        self.fallback_count = 0
        self.dropout_count = 0
        self.rebuild_failures = 0
        self.nonfinite_resets = 0

    def _key(self, y0):
        # round, as np.rint, rounds half to even; non-finite values share None
        return tuple(round(y / self.cfg.cache_quantum) if math.isfinite(y) else None
                     for y in y0.tolist())

    def ingredients_for(self, y0) -> TerminalIngredients:
        y0 = np.atleast_1d(np.asarray(y0, dtype=np.float64))
        key = self._key(y0)
        if key in self._failed:
            return self._last_ing
        ing = self._cache.get(key)
        if ing is None:
            guess = self._last_ing.eq if self._last_ing is not None else None
            try:
                ing = build_ingredients(self.w, y0, self.cfg, eq_guess=guess)
            except (UnreachableReferenceError, EquilibriumError, RiccatiError,
                    TerminalSetError) as exc:
                if self._last_ing is None:
                    raise
                self._failed.add(key)
                self.rebuild_failures += 1
                log.warning("ingredients for setpoint %s failed (%s); keeping "
                            "those of %s", y0, exc, self._last_ing.eq.y0)
                return self._last_ing
            self._cache[key] = ing
        self._last_ing = ing
        return ing

    def _seed_at(self, ing: TerminalIngredients):
        self.est = AugmentedState(ing.eq.x0.copy(), ing.eq.u0.copy())
        self.xi = ing.eq.u0.copy()
        self._warm = None

    def reset(self, y0_init):
        """Start at the model equilibrium of the initial reference."""
        self._seed_at(self.ingredients_for(y0_init))

    def step(self, y_meas, y0):
        """One closed-loop tick; returns (u_norm in [-1,1], StepInfo)."""
        if self.est is None:
            self.reset(y0)
        y_meas = np.atleast_1d(np.asarray(y_meas, dtype=np.float64))
        y0 = np.atleast_1d(np.asarray(y0, dtype=np.float64))
        ing = self.ingredients_for(y0)
        if self._failed and self._key(y0) in self._failed:
            y0 = ing.eq.y0          # hold the setpoint of the kept ingredients
        # a poisoned estimate or integrator gets no solve: start again at the
        # equilibrium of the held ingredients and apply its input (a finite
        # state always yields a finite plan or fallback move)
        poisoned = not np.isfinite(np.concatenate((self.est.x, self.est.xi, self.xi))).all()
        if poisoned:
            self.nonfinite_resets += 1
            log.warning("non-finite estimate or integrator; re-seeding at the equilibrium")
            self._seed_at(ing)
        # a non-finite measurement is a dropout: the observer and the
        # integrator take the model's predicted output in its place
        if not np.isfinite(y_meas).all():
            self.dropout_count += 1
            log.warning("non-finite measurement %s; using the model output", y_meas)
            y_meas = gru_model.gru_output(self.w, self.est.x)

        cost, iters, feas, fallback, evals, level, rejections = (
            np.nan, 0, False, False, 0, np.nan, 0)
        v, solve_ms = np.zeros(self.w.p), 0.0
        if not poisoned:
            t0 = time.perf_counter()
            try:
                sol = fhocp_solve(self.w, ing, self.cfg, self.est, self.xi,
                                  warm_start=self._warm)
                # neither the plan nor self.xi (in info) is written in place: no copies
                v = sol.v[0]
                self._warm = shifted_warm_start(sol, ing, self.w, self.cfg)
                cost, iters, feas = sol.cost, sol.iterations, True
                evals, level, rejections = sol.evals, sol.terminal_level, sol.rejections
            except FhocpInfeasibleError as exc:
                # auxiliary law on the estimate, clipped into the input box
                fallback = True
                self.fallback_count += 1
                log.warning("FHOCP infeasible (%s); applying auxiliary law", exc)
                v = -(ing.K_lq @ (self.est.stacked() - ing.eq.xa0))
                v = np.clip(v, -1.0 - self.xi, 1.0 - self.xi)
                self._warm = None
                evals, level, rejections = exc.evals, exc.terminal_level, exc.rejections
            solve_ms = (time.perf_counter() - t0) * 1e3
        u = np.minimum(np.maximum(v + self.xi, -1.0), 1.0)
        info = StepInfo(v=v, xi=self.xi, cost=cost, iterations=iters,
                        feasible=feas, fallback=fallback, evals=evals,
                        terminal_level=level, rejections=rejections,
                        solve_ms=solve_ms)

        # propagate observer with this tick's move and measurement, then
        # integrate the tracking error
        self.est = observer_step(self.w, self.gains, self.est, v, y0,
                                 y_meas, self.xi)
        self.xi = self.xi + y0 - y_meas
        return u, info
