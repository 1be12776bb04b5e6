"""Receding-horizon control of the integrator-augmented model.

Pipeline per reference value: equilibrium (damped Newton on the model's
fixed-point equations), linearization of the augmented system, LQ gain from
a fixed-point Riccati iteration, Lyapunov matrix for the terminal cost
ellipsoid, sampled terminal-set radius, and the finite-horizon optimal
control problem solved by penalized single shooting with analytic
reverse-mode gradients.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

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
    def __init__(self, violation, evals=0, tail_steps=0):
        self.violation = violation
        self.evals = evals
        self.tail_steps = tail_steps
        super().__init__(f"no feasible plan found (min violation {violation:.3e})")


@dataclass(frozen=True)
class Equilibrium:
    x0: np.ndarray
    u0: np.ndarray
    y0: np.ndarray

    def __post_init__(self):
        for name in ("x0", "u0", "y0"):
            object.__setattr__(self, name,
                               np.atleast_1d(np.asarray(getattr(self, name), dtype=np.float64)))

    @property
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
    cellp = kernels.stack_gates(*w.arrays())
    x = np.zeros(w.n)
    for _ in range(max_steps):
        xn = kernels.cell(x, u, *cellp)[0]
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
        return np.concatenate([kernels.gru_cell(x, u, *w.arrays()) - x,
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
    same arithmetic as scipy.stats.qmc.Halton(scramble=False).
    """
    pts = np.zeros((count, dim))
    for j, base in enumerate(_primes(dim)):
        q = np.arange(skip, skip + count)
        scale = 1.0 / base
        while np.any(q > 0):
            pts[:, j] += (q % base) * scale
            scale /= base
            q //= base
    return pts


def _halton_directions(count, dim, skip=0):
    """Deterministic low-discrepancy unit directions (Halton -> Gaussian)."""
    key = (count, dim, skip)
    cached = _HALTON_CACHE.get(key)
    if cached is not None:
        return cached
    from scipy.special import ndtri
    pts = np.clip(halton_points(count, dim, skip), 1e-12, 1.0 - 1e-12)
    g = ndtri(pts)
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    out = g / norms[:, None]
    _HALTON_CACHE[key] = out
    return out


def terminal_set_radius(w: GruWeights, eq: Equilibrium, K_lq, Pi, gamma,
                        omega_max=10.0, shrink=0.8, n_samples=4096,
                        audit_factor=10, min_omega=1e-12):
    """Largest sampled radius for which the auxiliary law stays admissible.

    Walks a geometric grid from omega_max downward; a radius is accepted
    when every boundary sample satisfies the total-input box (xi + v_lq in
    [-1, 1]) and the Lyapunov decrease condition, then re-verified on an
    audit set `audit_factor` times denser.
    """
    na = w.n + w.p
    L = np.linalg.cholesky(Pi)
    Linv_T = np.linalg.inv(L.T)
    dirs = _halton_directions(n_samples, na, skip=1)
    E_unit = dirs @ Linv_T.T     # rows satisfy e' Pi e = 1
    dirs_audit = _halton_directions(audit_factor * n_samples, na,
                                    skip=1 + n_samples)
    E_audit = dirs_audit @ Linv_T.T

    Klq = np.ascontiguousarray(K_lq, dtype=np.float64)
    Pi = np.ascontiguousarray(Pi, dtype=np.float64)
    xa_eq = eq.xa0
    y0 = eq.y0

    def all_pass(E_scaled):
        over, lhs = kernels.terminal_samples_check(
            np.ascontiguousarray(E_scaled), Klq, xa_eq, y0, Pi, gamma,
            *w.arrays(), w.U_o, w.b_o)
        return np.all(over <= 0.0) and np.all(lhs <= 1e-12)

    omega = float(omega_max)
    while omega > min_omega:
        if all_pass(np.sqrt(omega) * E_unit) and all_pass(np.sqrt(omega) * E_audit):
            return omega
        omega *= shrink
    raise TerminalSetError(
        "no positive terminal radius found; retune Q_tilde or gamma")


def terminal_cost(w: GruWeights, eq: Equilibrium, K_lq, Q_lq, x_aN, N_f=1000):
    """Auxiliary-law cost-to-go from x_aN, summed until it has converged.

    N_f caps the number of steps (see kernels.TAIL_RTOL).
    """
    vf = kernels.vf_rollout(np.asarray(x_aN, dtype=np.float64), eq.y0,
                            np.ascontiguousarray(K_lq, dtype=np.float64),
                            eq.xa0, np.ascontiguousarray(Q_lq, dtype=np.float64),
                            int(N_f), *w.arrays(), w.U_o, w.b_o)
    if not np.isfinite(vf):
        raise RuntimeError("terminal-cost rollout diverged")
    return float(vf)


@dataclass
class TerminalIngredients:
    eq: Equilibrium
    lin: LinearizedAugmented
    K_lq: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Q_lq: np.ndarray
    Pi: np.ndarray
    Q_tilde: np.ndarray
    gamma: float
    omega: float
    N_f: int


def build_ingredients(w: GruWeights, y0, Q, R, Q_tilde, gamma, N_f=1000,
                      omega_max=10.0, n_samples=4096, audit_factor=10,
                      eq_guess=None, check_assumptions=True) -> TerminalIngredients:
    """All reference-dependent controller ingredients for one setpoint."""
    if eq_guess is not None:
        eq = find_equilibrium(w, y0, x_guess=eq_guess.x0, u_guess=eq_guess.u0)
    else:
        eq = find_equilibrium(w, y0)
    lin = linearize_augmented(w, eq)
    if check_assumptions:
        rep = check_design_assumptions(lin)
        if not rep.passed:
            raise EquilibriumError(f"design assumptions fail: {rep.margins}")
    Q = np.asarray(Q, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    K, _ = lq_gain(lin, Q, R)
    Q_lq = Q + K.T @ R @ K
    Pi = lyapunov_Pi(lin, K, Q_tilde)
    omega = terminal_set_radius(w, eq, K, Pi, gamma, omega_max=omega_max,
                                n_samples=n_samples, audit_factor=audit_factor)
    return TerminalIngredients(eq, lin, K, Q, R, Q_lq, Pi,
                               np.asarray(Q_tilde, dtype=np.float64),
                               gamma, omega, N_f)


# ---------------------------------------------------------------------------
# finite-horizon optimal control problem
# ---------------------------------------------------------------------------

@dataclass
class FhocpConfig:
    N_c: int = 20
    N_p: int = 75
    max_iters: int = 200
    grad_tol: float = 1e-8
    constraint_tol: float = 1e-9
    mu_schedule: tuple = (1e3, 1e5, 1e7)

    def __post_init__(self):
        if not (1 <= self.N_c <= self.N_p):
            raise ValueError("require 1 <= N_c <= N_p")


@dataclass
class FhocpSolution:
    v: np.ndarray            # (N_c, p)
    trajectory: np.ndarray   # (N_p + 1, n + p)
    cost: float
    iterations: int
    feasible: bool
    max_violation: float
    evals: int = 0           # objective evaluations, with or without gradient
    tail_steps: int = 0      # longest terminal tail rolled (<= N_f)


def fhocp_solve(w: GruWeights, ing: TerminalIngredients, cfg: FhocpConfig,
                xa_hat: AugmentedState, xi_true, warm_start=None) -> FhocpSolution:
    """Penalized single shooting over the free moves v(0..N_c-1).

    Gradient descent with Barzilai-Borwein step sizes and an Armijo
    backtracking safeguard on the penalized objective, over an increasing
    penalty schedule; after each round the plan is restored to exact box
    feasibility by a sequential clamp.  The best feasible iterate wins, so
    a feasible warm start is never degraded.
    """
    p = w.p
    Nc, Np = cfg.N_c, cfg.N_p
    xa0 = np.ascontiguousarray(xa_hat.stacked())
    xi0 = np.atleast_1d(np.asarray(xi_true, dtype=np.float64))
    y0 = ing.eq.y0
    args_model = (*w.arrays(), w.U_o, w.b_o)
    args_prob = (np.ascontiguousarray(ing.K_lq), ing.eq.xa0,
                 np.ascontiguousarray(ing.Q), np.ascontiguousarray(ing.R),
                 np.ascontiguousarray(ing.Q_lq), np.ascontiguousarray(ing.Pi),
                 float(ing.omega), Nc, Np, int(ing.N_f))

    ctol = cfg.constraint_tol
    omega_tol = ctol * max(1.0, ing.omega)

    best = {"cost": np.inf, "v": None, "viol": np.inf, "traj": None}
    work = {"evals": 0, "tail_steps": 0}

    def counted(out):
        work["evals"] += 1
        work["tail_steps"] = max(work["tail_steps"], out[-1])
        return out[:-1]

    def forward(vflat, mu_box, mu_term):
        return counted(kernels.fhocp_forward(
            vflat, xa0, xi0, y0, *args_model, *args_prob, mu_box, mu_term))

    def forward_backward(vflat, mu_box, mu_term):
        return counted(kernels.fhocp_forward_backward(
            vflat, xa0, xi0, y0, *args_model, *args_prob, mu_box, mu_term))

    def consider(vflat):
        _, Jc, bviol, tviol = forward(vflat, 0.0, 0.0)
        viol = max(bviol, tviol / max(1.0, ing.omega))
        feasible = bviol <= ctol and tviol <= omega_tol
        if feasible and Jc < best["cost"]:
            best.update(cost=Jc, v=vflat.copy(), viol=max(bviol, tviol))
        best["viol"] = min(best["viol"], viol)
        return feasible, Jc

    def strictly_feasible(vflat):
        _, _, bviol, tviol = forward(vflat, 0.0, 0.0)
        return bviol <= 0.0 and tviol <= 0.0

    if warm_start is not None:
        v = np.asarray(warm_start, dtype=np.float64).ravel().copy()
        if v.size != Nc * p:
            raise ValueError("warm start has the wrong length")
    else:
        v = np.zeros(Nc * p)
    consider(v)

    iters = 0
    rounds = len(cfg.mu_schedule)
    budget = max(5, cfg.max_iters // rounds)
    for mu in cfg.mu_schedule:
        mu_box, mu_term = mu, mu / max(1.0, ing.omega) ** 2
        Jp, _, g, _, _ = forward_backward(v, mu_box, mu_term)
        alpha = 1.0 / max(np.linalg.norm(g), 1.0)
        g_prev = None
        v_prev = None
        stall = 0
        for _ in range(budget):
            gn2 = float(g @ g)
            if np.sqrt(gn2) < cfg.grad_tol:
                break
            if g_prev is not None:
                s = v - v_prev
                yv = g - g_prev
                sy = float(s @ yv)
                if sy > 1e-300:
                    alpha = float(s @ s) / sy
                alpha = min(max(alpha, 1e-12), 1e6)
            accepted = False
            a = alpha
            for _ in range(40):
                v_try = v - a * g
                Jp_try, _, _, _ = forward(v_try, mu_box, mu_term)
                if Jp_try <= Jp - 1e-4 * a * gn2:
                    accepted = True
                    break
                a *= 0.5
            if not accepted:
                break
            stall = stall + 1 if Jp - Jp_try < 1e-12 * (1.0 + abs(Jp)) else 0
            v_prev, g_prev = v.copy(), g.copy()
            v = v_try
            Jp, _, g, _, _ = forward_backward(v, mu_box, mu_term)
            iters += 1
            if stall >= 3:
                break
        consider(v)
        v_clip, _, _ = kernels.fhocp_clip_restore(
            v, xa0, xi0, y0, *args_model, np.ascontiguousarray(ing.K_lq),
            ing.eq.xa0, Nc, Np)
        consider(v_clip)
        # a strictly interior iterate makes the remaining penalty rounds
        # no-ops (the penalties vanish identically around it)
        if strictly_feasible(v):
            break

    if best["v"] is None:
        raise FhocpInfeasibleError(best["viol"], **work)

    vbest = best["v"]
    XA, _, _ = kernels.augmented_rollout(
        kernels.stack_gates(*w.arrays()), w.U_o, w.b_o, y0, xa0,
        vbest.reshape(Nc, p), (ing.K_lq, ing.eq.xa0), Np)
    return FhocpSolution(v=vbest.reshape(Nc, p), trajectory=XA,
                         cost=best["cost"], iterations=iters, feasible=True,
                         max_violation=best["viol"], **work)


def shifted_warm_start(sol: FhocpSolution, ing: TerminalIngredients, w: GruWeights,
                       cfg: FhocpConfig):
    """Standard shift: drop v*(0), append the auxiliary move at the end."""
    p = w.p
    v = np.zeros((cfg.N_c, p))
    v[:-1] = sol.v[1:]
    xa_Nc = sol.trajectory[cfg.N_c]
    v[-1] = -(ing.K_lq @ (xa_Nc - ing.eq.xa0))
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
class ControllerConfig:
    N_c: int = 20
    N_p: int = 75
    q_weight: float = 1.0
    r_weight: float = 1.0
    q_tilde_weight: float = 10.0
    gamma: float = 0.01
    # cap on the terminal tail: it ends once its cost has converged
    # (kernels.TAIL_RTOL), after 99-124 steps on the pinned benchmark model
    N_f: int = 1000
    ref_filter_window: int = 12
    max_iters: int = 200
    grad_tol: float = 1e-8
    constraint_tol: float = 1e-9
    omega_max: float = 10.0
    terminal_samples: int = 4096
    audit_factor: int = 10
    cache_quantum: float = 1e-4

    def fhocp(self) -> FhocpConfig:
        return FhocpConfig(self.N_c, self.N_p, self.max_iters,
                           self.grad_tol, self.constraint_tol)


@dataclass
class StepInfo:
    v: np.ndarray
    xi: np.ndarray
    cost: float
    iterations: int
    feasible: bool
    fallback: bool
    evals: int = 0           # objective evaluations of the solve
    tail_steps: int = 0      # longest terminal tail of the solve


class RecedingHorizonController:
    """One controller instance: observer state, integrator, warm start.

    Works entirely in normalized units; the harness denormalizes the
    applied input.  Reference-dependent ingredients are cached per
    quantized setpoint.
    """

    def __init__(self, w: GruWeights, gains: ObserverGains,
                 cfg: ControllerConfig | None = None):
        self.w = w
        self.gains = gains
        self.cfg = cfg or ControllerConfig()
        na = w.n + w.p
        self.Q = self.cfg.q_weight * np.eye(na)
        self.R = self.cfg.r_weight * np.eye(w.p)
        self.Q_tilde = self.cfg.q_tilde_weight * np.eye(na)
        self._cache = {}
        self._last_ing = None
        self.est: AugmentedState | None = None
        self.xi: np.ndarray | None = None
        self._warm = None
        self.fallback_count = 0
        self.dropout_count = 0

    def ingredients_for(self, y0) -> TerminalIngredients:
        y0 = np.atleast_1d(np.asarray(y0, dtype=np.float64))
        key = tuple(np.round(y0 / self.cfg.cache_quantum).astype(np.int64))
        ing = self._cache.get(key)
        if ing is None:
            guess = self._last_ing.eq if self._last_ing is not None else None
            ing = build_ingredients(self.w, y0, self.Q, self.R, self.Q_tilde,
                                    self.cfg.gamma, N_f=self.cfg.N_f,
                                    omega_max=self.cfg.omega_max,
                                    n_samples=self.cfg.terminal_samples,
                                    audit_factor=self.cfg.audit_factor,
                                    eq_guess=guess)
            self._cache[key] = ing
        self._last_ing = ing
        return ing

    def reset(self, y0_init):
        """Start at the model equilibrium of the initial reference."""
        ing = self.ingredients_for(y0_init)
        self.est = AugmentedState(ing.eq.x0.copy(), ing.eq.u0.copy())
        self.xi = ing.eq.u0.copy()
        self._warm = None

    def step(self, y_meas, y0):
        """One closed-loop tick; returns (u_norm in [-1,1], StepInfo)."""
        if self.est is None:
            self.reset(y0)
        y_meas = np.atleast_1d(np.asarray(y_meas, dtype=np.float64))
        y0 = np.atleast_1d(np.asarray(y0, dtype=np.float64))
        ing = self.ingredients_for(y0)
        cfg = self.cfg.fhocp()
        # a non-finite measurement is a dropout: the observer and the
        # integrator take the model's predicted output in its place
        if not np.all(np.isfinite(y_meas)):
            self.dropout_count += 1
            log.warning("non-finite measurement %s; using the model output", y_meas)
            y_meas = gru_model.gru_output(self.w, self.est.x)

        fallback = False
        try:
            sol = fhocp_solve(self.w, ing, cfg,
                              AugmentedState(self.est.x, self.est.xi),
                              self.xi, warm_start=self._warm)
            v = sol.v[0].copy()
            self._warm = shifted_warm_start(sol, ing, self.w, cfg)
            cost, iters, feas = sol.cost, sol.iterations, True
            evals, tail_steps = sol.evals, sol.tail_steps
        except FhocpInfeasibleError as exc:
            # auxiliary law on the estimate, clipped into the input box
            fallback = True
            self.fallback_count += 1
            log.warning("FHOCP infeasible (%s); applying auxiliary law", exc)
            v = -(ing.K_lq @ (self.est.stacked() - ing.eq.xa0))
            v = np.clip(v, -1.0 - self.xi, 1.0 - self.xi)
            self._warm = None
            cost, iters, feas = np.nan, 0, False
            evals, tail_steps = exc.evals, exc.tail_steps

        u = np.clip(v + self.xi, -1.0, 1.0)
        info = StepInfo(v=v, xi=self.xi.copy(), cost=cost, iterations=iters,
                        feasible=feas, fallback=fallback, evals=evals,
                        tail_steps=tail_steps)

        # propagate observer with this tick's move and measurement, then
        # integrate the tracking error
        self.est = observer_step(self.w, self.gains, self.est, v, y0,
                                 y_meas, self.xi)
        self.xi = self.xi + y0 - y_meas
        return u, info
