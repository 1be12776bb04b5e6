"""Receding-horizon control of the integrator-augmented model.

Pipeline per reference value: equilibrium (damped Newton on the model's
fixed-point equations), linearization of the augmented system, LQ gain and
terminal cost V_f(e) = e'P_f e from one doubling iteration, with
P_f = P + Pi (Pi the Lyapunov matrix of the margin Q_tilde), the terminal
set e'P_f e <= omega, a sublevel set of V_f whose radius is exact for the
auxiliary law's input box and sampled for V_f's decrease, and the
finite-horizon optimal control problem solved by penalized single
shooting: Levenberg-Marquardt Gauss-Newton on the residuals of the
penalized cost, with their exact Jacobian from one batched linearization
of the rollout (cell_jacobians).
Each setpoint packs its augmented model under the auxiliary law once
(kernels.AugmentedStep, inside the ingredients' FhocpConstants); the radius
search and every solver evaluation step through it.

ControllerConfig holds the controller's design settings (horizons,
weights, the terminal-set margin and samples, the reference filter); the
ingredient build, the radius search and the solver read it directly.
Fixed numerics (the penalty schedule, the constraint tolerance, the
damping, budget and stopping rules, the radius walk, the cache's setpoint
rounding) are module constants.
"""

import functools
import logging
import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from . import gru_model, kernels
from .gru_model import GruWeights, as_vector
from .observer import AugmentedState, ObserverGains, observer_step

log = logging.getLogger(__name__)


class UnreachableReferenceError(RuntimeError):
    """The reference lies outside the steady-state range of the unit input box."""


class EquilibriumError(RuntimeError):
    pass


class RiccatiError(RuntimeError):
    pass


class TerminalSetError(RuntimeError):
    """No positive terminal radius found; enlarge q_tilde_weight."""


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
    q_tilde_weight: float = 10.0  # Q_tilde = q_tilde_weight I: the margin Pi in P_f
    # auxiliary-law steps rolled past N_p before the terminal cost e'P_f e
    # is charged; 0 charges it at state N_p
    N_f: int = 0
    ref_filter_window: int = 12
    terminal_samples: int = 45056  # boundary samples per radius trial

    def __post_init__(self):
        if not (1 <= self.N_c <= self.N_p):
            raise ValueError("require 1 <= N_c <= N_p")
        # each of these would void the terminal-set certificate, or fail
        # every ingredient build, the reference filter or the first solve
        for name in ("q_weight", "r_weight", "q_tilde_weight", "terminal_samples",
                     "ref_filter_window"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, "
                                 f"not {getattr(self, name)!r}")
        if not self.N_f >= 0:
            raise ValueError(f"N_f must be nonnegative, not {self.N_f!r}")


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


def _doubling(A, G, H):
    """Stabilizing X = H + A'X(I + GX)^-1 A, G and H positive semidefinite,
    by structure-preserving doubling (Anderson, Int. J. Control 28(2), 1978):
    with W = I + GH, A <- AW^-1 A, G <- G + AW^-1 GA' and H <- H + A'HW^-1 A
    until H's increment is below 1e-14 of max(1, |H|).  With G = 0 it sums
    the Lyapunov series of X = H + A'XA, twice its terms each step; 64 steps
    reach A^(2^64), past any spectral radius below 1 in double precision."""
    H = np.array(H, dtype=np.float64)
    for _ in range(64):
        W = np.eye(len(A)) + G @ H
        if not np.all(np.isfinite(W)):
            raise RiccatiError("doubling iterate turned non-finite")
        WA, WG = np.linalg.solve(W, A), np.linalg.solve(W, G)
        inc = A.T @ H @ WA
        H = H + inc
        if np.max(np.abs(inc)) < 1e-14 * max(1.0, np.max(np.abs(H))):
            return 0.5 * (H + H.T)
        G, A = G + A @ (WG @ A.T), A @ WA
    raise RiccatiError("doubling did not converge in 64 steps")


def lq_gain(lin: LinearizedAugmented, Q, R):
    """Infinite-horizon LQ gain K and Riccati matrix P, by _doubling with
    G = BR^-1 B' (R positive definite) and H = Q."""
    A, B = lin.A_a, lin.B_a
    P = _doubling(A, B @ np.linalg.solve(R, B.T), Q)
    BtP = B.T @ P
    K = np.linalg.solve(R + BtP @ B, BtP @ A)
    rho = np.max(np.abs(np.linalg.eigvals(A - B @ K)))
    if rho >= 1.0:
        raise RiccatiError(f"closed loop not Schur (spectral radius {rho:.6f})")
    return K, P


def lyapunov_Pi(lin: LinearizedAugmented, K_lq, Q_tilde):
    """Solve Acl' Pi Acl - Pi = -Q_tilde, Acl = A - BK, by _doubling with G = 0."""
    Acl = lin.A_a - lin.B_a @ np.asarray(K_lq)
    if np.max(np.abs(np.linalg.eigvals(Acl))) >= 1.0:
        raise RiccatiError("closed loop not Schur; Lyapunov series diverges")
    Pi = _doubling(Acl, np.zeros_like(Acl), Q_tilde)
    res = np.max(np.abs(Acl.T @ Pi @ Acl - Pi + Q_tilde))
    if res > 1e-10:
        raise RiccatiError(f"Lyapunov residual {res:.3e} too large")
    return Pi


# ---------------------------------------------------------------------------
# terminal ingredients
# ---------------------------------------------------------------------------

# the radius walk: the first radius tried, the factor between radii tried,
# the radius below which no terminal set is found, and the samples per
# terminal_samples_check call and per block of the direction build (bounds
# their working memory; a trial stops at its first failing block; the
# kernels keep the rollout workspace of a block)
OMEGA_MAX = 10.0
TERMINAL_SHRINK = 0.8
TERMINAL_MIN_OMEGA = 1e-12
TERMINAL_BLOCK = kernels.TERMINAL_BLOCK


@functools.cache
def _directions(count, dim):
    """count unit directions in R^dim, read-only: Gaussian rows of the
    legacy np.random.RandomState(0) stream, which NumPy keeps fixed across
    versions (NEP 19), normalized in blocks so that no whole-array
    temporary adds to the peak memory."""
    g = np.random.RandomState(0).standard_normal((count, dim))
    for lo in range(0, count, TERMINAL_BLOCK):
        blk = g[lo:lo + TERMINAL_BLOCK]
        blk /= np.linalg.norm(blk, axis=1)[:, None]
    g.flags.writeable = False
    return g


def terminal_set_radius(step: kernels.AugmentedStep, P_f, Q_lq, cfg: ControllerConfig):
    """Largest radius omega of the terminal set e'P_f e <= omega, a sublevel
    set of V_f(e) = e'P_f e, on which the auxiliary law of the setpoint's
    packed step stays admissible and V_f falls by at least the stage cost;
    returns omega and the number of radii tried.

    The input box is exact: under the law the cell input is u = u_eq + C e
    with C = [0 I] - K, whose row j peaks at |u_eq,j| +
    sqrt(omega c_j'P_f^-1 c_j) on the ellipsoid, so the walk starts at
    min(OMEGA_MAX, omega_box), omega_box = min_j max(1 - |u_eq,j|, 0)^2
    / c_j'P_f^-1 c_j (a zero c_j bounds nothing), and goes down by
    TERMINAL_SHRINK.  The decrease V_f(phi_a(e)) - V_f(e) + e'Q_lq e <= 0 is
    sampled on cfg.terminal_samples boundary directions in blocks of
    TERMINAL_BLOCK, and a radius is rejected at the first failing block.  On
    a sublevel set of V_f the decrease also keeps each sample in the set.
    """
    K, xa_eq = step.law
    p = len(K)
    Linv = np.linalg.inv(np.linalg.cholesky(P_f))
    C = -K
    C[:, -p:] += np.eye(p)
    spread = np.sum((Linv @ C.T) ** 2, axis=0)       # c_j'P_f^-1 c_j
    slack = np.maximum(1.0 - np.abs(xa_eq[-p:]), 0.0) ** 2
    bounded = spread > 0.0
    omega_box = np.min(slack[bounded] / spread[bounded], initial=np.inf)
    # rows satisfy e'P_f e = 1
    E_unit = _directions(cfg.terminal_samples, len(P_f)) @ Linv

    def all_pass(scale):
        return all(np.all(kernels.terminal_samples_check(
            scale * E_unit[lo:lo + TERMINAL_BLOCK], step, P_f, Q_lq) <= 0.0)
            for lo in range(0, len(E_unit), TERMINAL_BLOCK))

    omega = min(OMEGA_MAX, float(omega_box))
    trials = 0
    while omega > TERMINAL_MIN_OMEGA:
        trials += 1
        if all_pass(np.sqrt(omega)):
            return omega, trials
        omega *= TERMINAL_SHRINK
    raise TerminalSetError(f"no terminal radius passed {trials} trials; "
                           "raise q_tilde_weight")


@dataclass
class TerminalIngredients:
    """Everything the FHOCP of one setpoint needs; the arrays are C-contiguous."""
    eq: Equilibrium
    lin: LinearizedAugmented
    K_lq: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Q_lq: np.ndarray
    P_f: np.ndarray          # V_f(e) = e'P_f e, P_f = P + Pi; the set is V_f <= omega
    omega: float
    omega_trials: int        # radii terminal_set_radius tried
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
    K, P = lq_gain(lin, Q, R)
    K = np.ascontiguousarray(K)
    Q_lq = Q + K.T @ R @ K
    # P solves Acl'P Acl - P = -Q_lq and Pi the same with -Q_tilde, so V_f
    # falls by the stage cost plus the margin e'Q_tilde e on the
    # linearization; terminal_set_radius checks the stage-cost decrease on
    # the nonlinear model
    P_f = np.ascontiguousarray(P + lyapunov_Pi(lin, K, cfg.q_tilde_weight * np.eye(na)))
    consts = kernels.fhocp_constants(
        kernels.augmented_step_matrices(w.cell, w.U_o, w.b_o, eq.y0, (K, eq.xa0)),
        Q, R, P_f)
    omega, trials = terminal_set_radius(consts.step, P_f, Q_lq, cfg)
    return TerminalIngredients(eq, lin, K, Q, R, Q_lq, P_f, omega, trials, consts)


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
# a strictly feasible round ends once its step moves the applied v(0) by at most
# this: suboptimal MPC needs only a feasible plan no costlier than the warm start
V0_TOL = 1e-4
# penalty weights of the successive rounds, the Gauss-Newton steps tried
# over all of them, and the violation a feasible plan may have (box excess;
# terminal excess relative to max(1, omega))
MU_SCHEDULE = (1e3, 1e5, 1e7)
MAX_ITERS = 200
CONSTRAINT_TOL = 1e-9


# the input box [-1, 1] (normalized units)
_LOWER, _UPPER = np.array(-1.0), np.array(1.0)


def _finite(*vectors):
    """Whether every entry of the 1-D float arrays is finite, tested on Python
    floats: in a tick, after the kernels have run, np.isfinite and its
    reduction take more than twice as long on these few entries."""
    return all(map(math.isfinite, [v for a in vectors for v in a.tolist()]))


def _solve(A, b):
    """x with A x = b for float64 A and b: LAPACK's gesv through the same
    gufunc np.linalg.solve calls, without its Python wrapper (15-35 us per
    call in the first ticks of a process, against 5-10 us for the 20 x 20
    solve itself) and its "dd->d" signature (a third of a call).  A
    singular A raises LinAlgError, as in np.linalg.solve."""
    x = _umath_linalg.solve1(A, b)
    if not _finite(x):
        raise np.linalg.LinAlgError("singular matrix")
    return x


@dataclass(slots=True)
class FhocpSolution:
    v: np.ndarray            # (N_c, p)
    trajectory: np.ndarray   # (N_p + 1, n + p)
    cost: float
    iterations: int          # accepted Gauss-Newton steps
    # the plan's box excess or terminal excess over max(1, omega), the larger
    max_violation: float
    ing: TerminalIngredients = field(repr=False, compare=False)  # of the solved problem
    evals: int = 0           # objective evaluations, with or without Jacobian
    rejections: int = 0      # rejected Gauss-Newton steps (damping raised)
    stop: str = ""           # the exit that ended the last round (fhocp_solve)

    @property
    def terminal_level(self):
        """e_Np'P_f e_Np / omega of the plan, computed when read (a
        controller tick does not read it)."""
        return _terminal_level(self.trajectory, self.ing)


def _terminal_level(XA, ing: TerminalIngredients) -> float:
    """e_Np'P_f e_Np / omega of a plan's states 0..N_p."""
    eN = XA[-1] - ing.eq.xa0
    return float(eN.dot(ing.P_f).dot(eN)) / ing.omega


def fhocp_solve(w: GruWeights, ing: TerminalIngredients, cfg: ControllerConfig,
                xa_hat: AugmentedState, xi_true, warm_start=None) -> FhocpSolution:
    """Penalized single shooting over the free moves v(0..N_c-1).

    The penalized objective is a sum of squares r(v)'r(v), minimized by
    Levenberg-Marquardt Gauss-Newton on the exact Jacobian J of r; every
    iterate and trial step is evaluated by kernels.fhocp_forward_backward
    (cost, gradient 2 J'r and Hessian 2 J'J), the clamped plan by
    kernels.fhocp_forward.  Each step solves
    (J'J + lam diag(J'J)) dv = -J'r and is accepted when it lowers the
    penalized cost; lam falls after an accepted step and rises after a
    rejected one.  The penalty weights rise over MU_SCHEDULE.  A penalty
    round ends at the first of these exits, whose name the solution keeps
    in `stop` (the last round's wins):

    equilibrium  the penalized cost is at most LM_STOP (1 + cost), so no
                 step can decrease it by more;
    move         the iterate is strictly feasible and the step would move
                 v(0) by at most V0_TOL;
    model        the decrease that the Gauss-Newton model predicts for the
                 step is at most LM_STOP (1 + cost);
    decrease     an accepted step decreased the cost by at most
                 LM_STOP (1 + cost);
    budget       MAX_ITERS // rounds steps were tried.

    A round whose plan leaves the box is followed by a sequential clamp
    that restores exact box feasibility (inside the box the clamp is the
    identity, so it does not run there), and a strictly interior iterate
    ends the schedule.  The best feasible iterate wins, so a feasible warm
    start is never degraded; with none, FhocpInfeasibleError.  Every
    candidate keeps the states 0..N_p of the rollout that scored it, which
    become the trajectory and terminal level of the solution.
    """
    p = w.p
    Nc, Np = cfg.N_c, cfg.N_p
    D = Nc * p
    # the adapters' arguments after the plan: start, model and law, then
    # problem; the terminal set is a sublevel set of V_f, so P_f is also the
    # terminal-set matrix (the kernels' Pi)
    head = (xa_hat.stacked(), as_vector(xi_true),
            ing.eq.y0, *w.arrays(), w.U_o, w.b_o, ing.K_lq, ing.eq.xa0)
    args = (*head, ing.Q, ing.R, ing.P_f, ing.P_f, float(ing.omega), Nc, Np, int(cfg.N_f))

    ctol = CONSTRAINT_TOL
    omega_tol = ctol * max(1.0, ing.omega)

    # best feasible plan: its cost, moves, states and violation; the least
    # violation seen and the states of its plan
    best_cost, best_v, best_XA, best_viol = np.inf, None, None, np.inf
    least, least_XA = np.inf, None
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
        nonlocal best_cost, best_v, best_XA, best_viol, least, least_XA
        viol = max(bviol, tviol / max(1.0, ing.omega))
        if bviol <= ctol and tviol <= omega_tol and Jc < best_cost:
            best_cost, best_v, best_XA, best_viol = Jc, vflat, XA, viol
        if viol < least:
            least, least_XA = viol, XA
        return bviol <= 0.0 and tviol <= 0.0

    if warm_start is not None:
        v = np.array(warm_start, dtype=np.float64).ravel()
        if v.size != Nc * p:
            raise ValueError("warm start has the wrong length")
    else:
        v = np.zeros(Nc * p)

    iters = rejections = 0
    budget = MAX_ITERS // len(MU_SCHEDULE)
    for k, mu in enumerate(MU_SCHEDULE):
        mu_box, mu_term = mu, mu / max(1.0, ing.omega) ** 2
        Jp, Jc, g, bviol, tviol, H, XA = evaluate(kernels.fhocp_forward_backward,
                                                  v, mu_box, mu_term)
        if k == 0:
            consider(v, Jc, bviol, tviol, XA)     # the warm start or zero plan
        # a round's first plan was considered already (the previous round's last)
        moved = False
        lam = LM_LAMBDA0
        for _ in range(budget):
            stop = LM_STOP * (1.0 + Jp)
            # no step predicts a decrease above the cost Jp = |r|^2 (the model
            # |r + Jr dv|^2 is nonnegative): a plan at equilibrium needs no solve
            if Jp <= stop:
                ended = "equilibrium"
                break
            # (H + lam diag(H)) dv = -g, on a copy of H with its diagonal damped
            Hd = H.copy()
            diag = Hd.reshape(-1)[::D + 1]
            diag += lam * diag
            dv = _solve(Hd, -g)
            # |dv(0)| on Python floats: a NumPy reduction costs more than the test
            if bviol <= 0.0 and tviol <= 0.0 and max(map(abs, dv[:p].tolist())) <= V0_TOL:
                ended = "move"
                break
            # the decrease the model predicts (ndarray.dot: @ without its dispatch)
            if -float(dv.dot(g + 0.5 * H.dot(dv))) <= stop:
                ended = "model"
                break
            trial = evaluate(kernels.fhocp_forward_backward, v + dv, mu_box, mu_term)
            if trial[0] >= Jp:
                rejections += 1
                lam *= LM_RAISE
                continue
            iters += 1
            moved = True
            lam /= LM_RAISE
            decrease = Jp - trial[0]
            v = v + dv
            Jp, Jc, g, bviol, tviol, H, XA = trial
            if decrease <= stop:
                ended = "decrease"
                break
        else:
            ended = "budget"
        strict = (consider(v, Jc, bviol, tviol, XA) if moved
                  else bviol <= 0.0 and tviol <= 0.0)
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

    if best_v is None:
        raise FhocpInfeasibleError(
            least, evals,
            np.nan if least_XA is None else _terminal_level(least_XA, ing), rejections)

    return FhocpSolution(v=best_v.reshape(Nc, p), trajectory=best_XA, cost=best_cost,
                         iterations=iters, max_violation=best_viol, ing=ing,
                         evals=evals, rejections=rejections, stop=ended)


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
    csum = np.cumsum(signal, axis=0)
    # the sum over ticks k-window+1..k is csum[k] less csum[k - window]; the
    # first window ticks average the samples seen so far
    out = csum.copy()
    out[window:] -= csum[:-window]
    out[window:] /= window
    head = out[:window]
    head /= np.arange(1, len(head) + 1).reshape(-1, *(1,) * (signal.ndim - 1))
    return out


# ---------------------------------------------------------------------------
# receding-horizon controller
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class StepInfo:
    v: np.ndarray
    xi: np.ndarray
    cost: float
    iterations: int          # accepted Gauss-Newton steps of the solve
    feasible: bool
    fallback: bool
    evals: int = 0           # objective evaluations of the solve
    rejections: int = 0      # rejected Gauss-Newton steps of the solve
    solve_ms: float = 0.0    # wall time of fhocp_solve; 0 when none ran
    # the exit that ended the solve (FhocpSolution.stop), "fallback" when it
    # found no feasible plan, "" when none ran
    stop: str = ""
    # the solve's solution (None on a fallback or without a solve) and, on a
    # fallback, the terminal level of the least violating plan
    solution: FhocpSolution | None = field(default=None, repr=False, compare=False)
    fallback_level: float = np.nan
    # wall time of the tick's ingredient build and the radii its walk tried
    # (0 for a failed build); both 0 on a cache hit
    build_ms: float = 0.0
    omega_trials: int = 0

    @property
    def terminal_level(self):
        """e_Np'P_f e_Np / omega of the applied plan, of the least violating
        one on a fallback, nan without a solve."""
        return self.fallback_level if self.solution is None else self.solution.terminal_level


# setpoint rounding of the ingredient cache (normalized units)
CACHE_QUANTUM = 1e-4


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
        self._build = (0.0, 0)   # this tick's (StepInfo.build_ms, omega_trials)

    def _key(self, y0):
        # round, as np.rint, rounds half to even; non-finite values share None
        return tuple(round(y / CACHE_QUANTUM) if math.isfinite(y) else None
                     for y in y0.tolist())

    def ingredients_for(self, y0) -> TerminalIngredients:
        y0 = as_vector(y0)
        key = self._key(y0)
        if key in self._failed:
            return self._last_ing
        ing = self._cache.get(key)
        if ing is None:
            guess = self._last_ing.eq if self._last_ing is not None else None
            t0 = time.perf_counter()
            try:
                ing = build_ingredients(self.w, y0, self.cfg, eq_guess=guess)
            except (UnreachableReferenceError, EquilibriumError, RiccatiError,
                    TerminalSetError) as exc:
                if self._last_ing is None:
                    raise
                self._build = ((time.perf_counter() - t0) * 1e3, 0)
                self._failed.add(key)
                self.rebuild_failures += 1
                log.warning("ingredients for setpoint %s failed (%s); keeping "
                            "those of %s", y0, exc, self._last_ing.eq.y0)
                return self._last_ing
            self._build = ((time.perf_counter() - t0) * 1e3, ing.omega_trials)
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
        self._build = (0.0, 0)
        if self.est is None:
            self.reset(y0)
        y_meas = as_vector(y_meas)
        y0 = as_vector(y0)
        ing = self.ingredients_for(y0)
        if self._failed and self._key(y0) in self._failed:
            y0 = ing.eq.y0          # hold the setpoint of the kept ingredients
        # one test for the two rare cases below
        poisoned = False
        if not _finite(self.est.x, self.est.xi, self.xi, y_meas):
            # a poisoned estimate or integrator gets no solve: start again at
            # the equilibrium of the held ingredients and apply its input (a
            # finite state always yields a finite plan or fallback move)
            poisoned = not _finite(self.est.x, self.est.xi, self.xi)
            if poisoned:
                self.nonfinite_resets += 1
                log.warning("non-finite estimate or integrator; re-seeding at the equilibrium")
                self._seed_at(ing)
            # a non-finite measurement is a dropout: the observer and the
            # integrator take the model's predicted output in its place
            if not _finite(y_meas):
                self.dropout_count += 1
                log.warning("non-finite measurement %s; using the model output", y_meas)
                y_meas = gru_model.gru_output(self.w, self.est.x)

        if poisoned:
            v = np.zeros(self.w.p)
            info = StepInfo(v=v, xi=self.xi, cost=np.nan, iterations=0,
                            feasible=False, fallback=False)
        else:
            t0 = time.perf_counter()
            try:
                sol = fhocp_solve(self.w, ing, self.cfg, self.est, self.xi,
                                  warm_start=self._warm)
                # neither the plan nor self.xi (in info) is written in place: no copies
                v = sol.v[0]
                self._warm = shifted_warm_start(sol, ing, self.w, self.cfg)
                info = StepInfo(v=v, xi=self.xi, cost=sol.cost, iterations=sol.iterations,
                                feasible=True, fallback=False, evals=sol.evals,
                                rejections=sol.rejections, stop=sol.stop, solution=sol)
            except FhocpInfeasibleError as exc:
                # auxiliary law on the estimate, clipped into the input box
                self.fallback_count += 1
                log.warning("FHOCP infeasible (%s); applying auxiliary law", exc)
                v = -(ing.K_lq @ (self.est.stacked() - ing.eq.xa0))
                v = np.clip(v, -1.0 - self.xi, 1.0 - self.xi)
                self._warm = None
                info = StepInfo(v=v, xi=self.xi, cost=np.nan, iterations=0,
                                feasible=False, fallback=True, evals=exc.evals,
                                rejections=exc.rejections, stop="fallback",
                                fallback_level=exc.terminal_level)
            info.solve_ms = (time.perf_counter() - t0) * 1e3
        info.build_ms, info.omega_trials = self._build
        # the bounds as arrays: a Python float operand slows the ufunc down
        u = np.minimum(np.maximum(v + self.xi, _LOWER), _UPPER)

        # propagate observer with this tick's move and measurement, then
        # integrate the tracking error
        self.est = observer_step(self.w, self.gains, self.est, v, y0,
                                 y_meas, self.xi)
        self.xi = self.xi + y0 - y_meas
        return u, info
