"""Hot numerical kernels: GRU rollouts, truncated-BPTT gradients, the pH
reactor integrator, and the shooting-based optimal control evaluations.

Plain NumPy, built on four shared pieces:
cell                one GRU update; the z and f gates come from one matmul
                    over the stacked [W_z U_z; W_f U_f] (see stack_gates)
                    and the logistic is computed as 0.5 + 0.5 tanh(a/2).
                    It takes a single vector or a matrix of rows.
cell_vjp            the vector-Jacobian product of that update.
augmented_rollout   the integrator-augmented model x+ = phi(x, v + xi),
                    xi+ = xi + y0 - y, under free moves for i < N_c and the
                    auxiliary law v = -K (xa - xa_eq) after that, through the
                    prediction horizon and the terminal tail.  The tail ends
                    once its stage cost has converged (see TAIL_RTOL), so
                    N_f is a cap on its length, not the length itself.
augmented_adjoint   the reverse pass over the same (possibly shortened)
                    horizon.

Every public kernel is a short caller of these.  Batched work (training
sequences, terminal-set samples) runs as rows of one cell call.
"""

import math

import numpy as np

# the backend flag perfbench records: every kernel here is plain NumPy
NUMBA_ENABLED = False

# rows per cell call in terminal_samples_check; bounds its working memory
TERMINAL_BLOCK = 1024

# The terminal tail stops at the first state past its start whose stage cost
# c_i = e'Q_lq e is at most TAIL_RTOL times the tail cost S accumulated so
# far.  Near the equilibrium the tail follows its linearization e+ = Acl e,
# Acl = A_a - B_a K; if |Acl^k e|_Q_lq <= M rho^k |e|_Q_lq, the stage costs
# dropped from state i on sum to at most M^2 c_i / (1 - rho^2), that is at
# most M^2 / (1 - rho^2) * TAIL_RTOL * S.  On the pinned benchmark model at
# pH 6.8-7.2, rho (the spectral radius of Acl) is 0.85-0.87 and M is 3.3-3.6,
# so the bound is about 50 TAIL_RTOL (1e-14) of the tail cost; tails from
# inside the terminal set stop after 99-124 steps with a measured remainder
# of at most 10 TAIL_RTOL.  A tail that does not contract, or one that sits
# at the equilibrium's own fixed-point residual, runs to the cap N_f.
TAIL_RTOL = float(np.finfo(np.float64).eps)


# ---------------------------------------------------------------------------
# the GRU cell and its vector-Jacobian product
# ---------------------------------------------------------------------------

def logistic(a):
    """Logistic function as 0.5 + 0.5 tanh(a/2): no overflow at any a."""
    return 0.5 + 0.5 * np.tanh(0.5 * a)


def stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br):
    """Cell parameters (G, b_zf, Wr, Ur, br) with G = [Wz Uz; Wf Uf]."""
    return np.block([[Wz, Uz], [Wf, Uf]]), np.concatenate((bz, bf)), Wr, Ur, br


def cell(x, u, G, bzf, Wr, Ur, br):
    """One update x+ = z*x + (1-z)*tanh(Wr u + Ur (f*x) + br).

    x and u are vectors or matrices of rows.  Returns (x+, z, f, r).
    """
    n = x.shape[-1]
    zf = logistic(np.concatenate((u, x), axis=-1) @ G.T + bzf)
    z, f = zf[..., :n], zf[..., n:]
    r = np.tanh(u @ Wr.T + (f * x) @ Ur.T + br)
    return z * x + (1.0 - z) * r, z, f, r


def cell_vjp(lam, x, u, z, f, r, G, bzf, Wr, Ur, br):
    """Pull lam = dJ/dx+ back through one cell.

    Returns (dJ/dx, dJ/du, dJ/da_zf, dJ/da_r), the last two with respect to
    the gate pre-activations; rows in, rows out.
    """
    m = u.shape[-1]
    da_r = lam * (1.0 - z) * (1.0 - r * r)
    dh = da_r @ Ur
    da_zf = np.concatenate((lam * (x - r) * z * (1.0 - z),
                            dh * x * f * (1.0 - f)), axis=-1)
    g = da_zf @ G
    return lam * z + dh * f + g[..., m:], g[..., :m] + da_r @ Wr, da_zf, da_r


def gru_cell(x, u, Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br):
    """One state update from the nine weight arrays."""
    return cell(x, u, *stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br))[0]


# ---------------------------------------------------------------------------
# the integrator-augmented model: one rollout, one adjoint
# ---------------------------------------------------------------------------

def augmented_rollout(cellp, Uo, bo, y0, xa0, V, law, T, box_offset=None,
                      tail=None):
    """Roll the augmented model up to T steps from xa0 (a vector or rows).

    Step i applies the free move V[i] for i < len(V) and the auxiliary law
    v = -K (xa - xa_eq), law = (K, xa_eq), after that.  With box_offset,
    the offset xi~ - xi of the controller's integrator from the model's,
    each free move is first clamped so that xi~ + v stays in [-1, 1].
    With tail = (N, Qlq) and a single vector xa0, the stage costs
    e'Qlq e, e = xa - xa_eq, are summed from state N on, and the rollout
    ends at the first state i > N whose stage cost is at most TAIL_RTOL
    times that sum; T then caps the number of steps.
    Returns the states (T+1, ..., n+p), the moves applied (T, ..., p) and
    the cache (U, Z, F, R) of cell inputs and gates for the adjoint, all
    cut to the steps taken.
    """
    n = Uo.shape[1]
    K, xa_eq = law
    XA = np.empty((T + 1,) + xa0.shape)
    XA[0] = xa0
    moves = np.empty((T,) + xa0.shape[:-1] + bo.shape)
    U = np.empty_like(moves)
    Z, F, R = (np.empty((T,) + xa0.shape[:-1] + (n,)) for _ in range(3))
    tail_start, Qlq = tail if tail is not None else (T, None)
    tail_cost = 0.0
    for i in range(T):
        if i >= tail_start:
            e = XA[i] - xa_eq
            c = float(e @ Qlq @ e)
            if i > tail_start and c <= TAIL_RTOL * tail_cost:
                T = i
                break
            tail_cost += c
        x, xi = XA[i, ..., :n], XA[i, ..., n:]
        if i >= len(V):
            v = (xa_eq - XA[i]) @ K.T
        elif box_offset is None:
            v = V[i]
        else:
            v = np.clip(V[i], -1.0 - (xi + box_offset), 1.0 - (xi + box_offset))
        moves[i] = v
        U[i] = v + xi
        XA[i + 1, ..., :n], Z[i], F[i], R[i] = cell(x, U[i], *cellp)
        XA[i + 1, ..., n:] = xi + y0 - (x @ Uo.T + bo)
    return XA[:T + 1], moves[:T], (U[:T], Z[:T], F[:T], R[:T])


def augmented_adjoint(cellp, Uo, K, XA, cache, gXA, gV, Nc):
    """Gradient with respect to the free moves of a cost over one rollout.

    gXA (T+1, n+p) and gV (T, p) hold the cost's direct partials with
    respect to the states and the moves; the reverse pass adds what flows
    through the dynamics and, for i >= Nc, through the auxiliary law.
    """
    n = Uo.shape[1]
    U, Z, F, R = cache
    grad = np.empty((Nc, gV.shape[1]))
    lam = gXA[-1]
    for i in range(len(U) - 1, -1, -1):
        gx, gu, _, _ = cell_vjp(lam[:n], XA[i, :n], U[i], Z[i], F[i], R[i], *cellp)
        dv = gu + gV[i]
        nxt = gXA[i] + np.concatenate((gx - lam[n:] @ Uo, gu + lam[n:]))
        if i < Nc:
            grad[i] = dv
        else:
            nxt -= dv @ K
        lam = nxt
    return grad


# ---------------------------------------------------------------------------
# GRU rollouts and the truncated-BPTT loss/gradient
# ---------------------------------------------------------------------------

def _scan(cellp, x0, U):
    """States (T+1, ..., n) and gates (Z, F, R) under inputs U (T, ..., m)."""
    X = np.empty((len(U) + 1,) + x0.shape)
    X[0] = x0
    Z, F, R = (np.empty((len(U),) + x0.shape) for _ in range(3))
    for k in range(len(U)):
        X[k + 1], Z[k], F[k], R[k] = cell(X[k], U[k], *cellp)
    return X, (Z, F, R)


def gru_rollout(x0, useq, Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br):
    """Open-loop state trajectory; row 0 is x0, row k+1 the state after u[k]."""
    return _scan(stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br), x0, useq)[0]


def _output_errors(X, Yb, Tw, Uo, bo):
    """Output errors (T, B, p) of time-major states X, zero in the washout."""
    E = np.zeros((len(X) - 1,) + Yb.shape[::2])
    E[Tw:] = X[Tw + 1:] @ Uo.T + bo - Yb[:, Tw:].transpose(1, 0, 2)
    return E


def tbptt_loss_batch(Ub, Yb, X0b, Tw,
                     Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo):
    """Sum over sequences of the washed-out mean squared simulation error.

    Ub: (B, T, m) inputs, Yb: (B, T, p) targets, X0b: (B, n) initial states.
    Sample k of sequence b is the output after k+1 state updates; the first
    Tw samples are not penalized.  The B sequences run as rows.
    """
    cellp = stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br)
    X, _ = _scan(cellp, X0b, Ub.transpose(1, 0, 2))
    E = _output_errors(X, Yb, Tw, Uo, bo)
    return np.sum(E * E) / (Ub.shape[1] - Tw)


def tbptt_loss_grad_batch(Ub, Yb, X0b, Tw,
                          Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo):
    """Loss of tbptt_loss_batch plus its exact reverse-mode weight gradient."""
    B, T, m = Ub.shape
    n = Uz.shape[0]
    cellp = stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br)
    U = np.ascontiguousarray(Ub.transpose(1, 0, 2))
    X, (Z, F, R) = _scan(cellp, X0b, U)
    E = _output_errors(X, Yb, Tw, Uo, bo)
    dE = (2.0 / (T - Tw)) * E

    # reverse pass over time; the weight gradients are summed afterwards
    dX = dE @ Uo
    DZF = np.empty((T, B, 2 * n))
    DR = np.empty((T, B, n))
    lam = np.zeros((B, n))
    for k in range(T - 1, -1, -1):
        lam, _, DZF[k], DR[k] = cell_vjp(lam + dX[k], X[k], U[k], Z[k], F[k],
                                         R[k], *cellp)

    def outer_sum(A, C):
        return A.reshape(-1, A.shape[-1]).T @ C.reshape(-1, C.shape[-1])

    dG = outer_sum(DZF, np.concatenate((U, X[:-1]), axis=-1))
    dbzf = DZF.sum(axis=(0, 1))
    return (np.sum(E * E) / (T - Tw),
            dG[:n, :m], dG[:n, m:], dbzf[:n], dG[n:, :m], dG[n:, m:], dbzf[n:],
            outer_sum(DR, U), outer_sum(DR, F * X[:-1]), DR.sum(axis=(0, 1)),
            outer_sum(dE, X[1:]), dE.sum(axis=(0, 1)))


# ---------------------------------------------------------------------------
# pH reactor physics
# ---------------------------------------------------------------------------

def ph_rhs(x1, x2, x3, u, d,
           q1, A1, zlvl, Cv4, nexp, Wa1, Wb1, Wa2, Wb2, Wa3, Wb3):
    """Right-hand side of the reactor ODE; u is the base flow, d the buffer."""
    ax = A1 * x3
    dx1 = q1 / ax * (Wa1 - x1) + u / ax * (Wa3 - x1) + d / ax * (Wa2 - x1)
    dx2 = q1 / ax * (Wb1 - x2) + u / ax * (Wb3 - x2) + d / ax * (Wb2 - x2)
    dx3 = (q1 + u + d - Cv4 * (x3 + zlvl) ** nexp) / A1
    return dx1, dx2, dx3


def rk4_ph(x1, x2, x3, u, d, tau, substeps,
           q1, A1, zlvl, Cv4, nexp, Wa1, Wb1, Wa2, Wb2, Wa3, Wb3):
    """Classical RK4 over tau seconds with zero-order-hold inputs."""
    h = tau / substeps
    for _ in range(substeps):
        k11, k12, k13 = ph_rhs(x1, x2, x3, u, d,
                               q1, A1, zlvl, Cv4, nexp, Wa1, Wb1, Wa2, Wb2, Wa3, Wb3)
        k21, k22, k23 = ph_rhs(x1 + 0.5 * h * k11, x2 + 0.5 * h * k12, x3 + 0.5 * h * k13, u, d,
                               q1, A1, zlvl, Cv4, nexp, Wa1, Wb1, Wa2, Wb2, Wa3, Wb3)
        k31, k32, k33 = ph_rhs(x1 + 0.5 * h * k21, x2 + 0.5 * h * k22, x3 + 0.5 * h * k23, u, d,
                               q1, A1, zlvl, Cv4, nexp, Wa1, Wb1, Wa2, Wb2, Wa3, Wb3)
        k41, k42, k43 = ph_rhs(x1 + h * k31, x2 + h * k32, x3 + h * k33, u, d,
                               q1, A1, zlvl, Cv4, nexp, Wa1, Wb1, Wa2, Wb2, Wa3, Wb3)
        x1 += h / 6.0 * (k11 + 2.0 * k21 + 2.0 * k31 + k41)
        x2 += h / 6.0 * (k12 + 2.0 * k22 + 2.0 * k32 + k42)
        x3 += h / 6.0 * (k13 + 2.0 * k23 + 2.0 * k33 + k43)
        if x3 <= 0.0:
            return x1, x2, -1.0
    return x1, x2, x3


def ph_c_residual(x1, x2, y, pK1, pK2):
    """Implicit charge balance c(x, y); its root in y is the pH."""
    num = 1.0 + 2.0 * 10.0 ** (y - pK2)
    den = 1.0 + 10.0 ** (pK1 - y) + 10.0 ** (y - pK2)
    return x1 + 10.0 ** (y - 14.0) - 10.0 ** (-y) + x2 * num / den


def ph_c_residual_dy(x1, x2, y, pK1, pK2):
    ln10 = math.log(10.0)
    a = 10.0 ** (y - pK2)
    b = 10.0 ** (pK1 - y)
    num = 1.0 + 2.0 * a
    den = 1.0 + b + a
    dnum = 2.0 * ln10 * a
    dden = ln10 * (a - b)
    dfrac = (dnum * den - num * dden) / (den * den)
    return ln10 * (10.0 ** (y - 14.0) + 10.0 ** (-y)) + x2 * dfrac


def ph_output_solve(x1, x2, pK1, pK2):
    """pH from the implicit output map: bisection on [0, 14], Newton polish.

    Returns NaN when c has no sign change on [0, 14].
    """
    lo = 0.0
    hi = 14.0
    clo = ph_c_residual(x1, x2, lo, pK1, pK2)
    chi = ph_c_residual(x1, x2, hi, pK1, pK2)
    if clo == 0.0:
        return lo
    if chi == 0.0:
        return hi
    if clo * chi > 0.0:
        return np.nan
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        cm = ph_c_residual(x1, x2, mid, pK1, pK2)
        if cm == 0.0:
            return mid
        if cm * clo < 0.0:
            hi = mid
        else:
            lo = mid
            clo = cm
    y = 0.5 * (lo + hi)
    for _ in range(8):
        cy = ph_c_residual(x1, x2, y, pK1, pK2)
        if abs(cy) < 1e-13:
            break
        dy = ph_c_residual_dy(x1, x2, y, pK1, pK2)
        if dy == 0.0:
            break
        step = cy / dy
        ynew = y - step
        if ynew < 0.0 or ynew > 14.0:
            break
        y = ynew
    return y


def ph_run(x1, x2, x3, useq, dseq, tau, substeps,
           q1, A1, zlvl, Cv4, nexp, Wa1, Wb1, Wa2, Wb2, Wa3, Wb3, pK1, pK2):
    """Simulate K samples: states after each hold period and the pH there."""
    K = useq.shape[0]
    states = np.empty((K + 1, 3))
    ys = np.empty(K)
    states[0, 0] = x1; states[0, 1] = x2; states[0, 2] = x3
    for k in range(K):
        x1, x2, x3 = rk4_ph(x1, x2, x3, useq[k], dseq[k], tau, substeps,
                            q1, A1, zlvl, Cv4, nexp, Wa1, Wb1, Wa2, Wb2, Wa3, Wb3)
        if x3 <= 0.0:
            states[k + 1, 2] = -1.0
            ys[k] = np.nan
            return states, ys
        states[k + 1, 0] = x1; states[k + 1, 1] = x2; states[k + 1, 2] = x3
        ys[k] = ph_output_solve(x1, x2, pK1, pK2)
    return states, ys


# ---------------------------------------------------------------------------
# finite-horizon optimal control evaluations (single shooting)
# ---------------------------------------------------------------------------

def _quad(E, M):
    """e' M e for every row e of E."""
    return np.sum(E * (E @ M.T), axis=-1)


def _box_excess(W):
    """Signed excess of W over [-1, 1] and the largest violation (>= 0)."""
    return W - np.clip(W, -1.0, 1.0), np.max(np.abs(W), initial=1.0) - 1.0


def _fhocp_cost(XA, V, xi_off, xa_eq, Qmat, Rmat, Qlq, Pi, omega,
                Nc, Np, mu_box, mu_term):
    """Penalized cost of one rollout and its direct partials.

    Stage cost e'Q e + v'R v on the free moves and e'Q_lq e under the law,
    through the prediction horizon and the terminal tail alike; the box
    penalty on xi~ + v = xi + xi_off + v for i < Np; the terminal penalty
    at state Np.  Returns (J_pen, J, box_viol, term_viol, gXA, gV).
    """
    T, p = V.shape
    E = XA - xa_eq
    gXA = np.zeros_like(XA)
    gXA[:Nc] = E[:Nc] @ Qmat.T
    gXA[Nc:T] = E[Nc:T] @ Qlq.T
    gV = np.zeros_like(V)
    gV[:Nc] = V[:Nc] @ Rmat.T
    J = float(np.sum(E * gXA) + np.sum(V * gV))
    gXA *= 2.0
    gV *= 2.0

    over, box_viol = _box_excess(XA[:Np, -p:] + xi_off + V[:Np])
    pen = mu_box * np.sum(over * over)
    gXA[:Np, -p:] += 2.0 * mu_box * over
    gV[:Np] += 2.0 * mu_box * over

    PeN = Pi @ E[Np]
    s = float(E[Np] @ PeN) - omega
    if s > 0.0:
        pen += mu_term * s * s
        gXA[Np] += (4.0 * mu_term * s) * PeN
    return J + pen, J, float(box_viol), max(s, 0.0), gXA, gV


def augmented_rollout_cached(xa0, V, y0,
                             Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo):
    """Roll the integrator-augmented model under an explicit v sequence."""
    cellp = stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br)
    XA, _, (_, Z, F, R) = augmented_rollout(cellp, Uo, bo, y0, xa0, V,
                                            (None, None), len(V))
    return XA, Z, F, R


def vf_rollout(xaN, y0, Klq, xa_eq, Qlq, Nf,
               Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo):
    """Cost-to-go of the auxiliary-law closed loop from xaN.

    The sum ends once it has converged (see TAIL_RTOL), after at most Nf
    steps.
    """
    cellp = stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br)
    XA, _, _ = augmented_rollout(cellp, Uo, bo, y0, xaN, (), (Klq, xa_eq), Nf,
                                 tail=(0, Qlq))
    return float(np.sum(_quad(XA[:-1] - xa_eq, Qlq)))


def fhocp_forward(vflat, xa_init, xi_init, y0,
                  Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo,
                  Klq, xa_eq, Qmat, Rmat, Qlq, Pi, omega,
                  Nc, Np, Nf, mu_box, mu_term):
    """Penalized shooting objective.

    Returns (J_pen, J, box_viol, term_viol, tail_steps); the terminal tail
    ends once converged (see TAIL_RTOL) and tail_steps <= Nf is its length.
    """
    cellp = stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br)
    XA, V, _ = augmented_rollout(cellp, Uo, bo, y0, xa_init, vflat.reshape(Nc, -1),
                                 (Klq, xa_eq), Np + Nf, tail=(Np, Qlq))
    return _fhocp_cost(XA, V, xi_init - xa_init[len(bz):], xa_eq, Qmat, Rmat,
                       Qlq, Pi, omega, Nc, Np, mu_box, mu_term)[:4] + (len(V) - Np,)


def fhocp_forward_backward(vflat, xa_init, xi_init, y0,
                           Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo,
                           Klq, xa_eq, Qmat, Rmat, Qlq, Pi, omega,
                           Nc, Np, Nf, mu_box, mu_term):
    """fhocp_forward plus the exact gradient of the penalized objective.

    Returns (J_pen, J, grad, box_viol, term_viol, tail_steps); the adjoint
    runs over the same shortened horizon as the forward pass.
    """
    cellp = stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br)
    XA, V, cache = augmented_rollout(cellp, Uo, bo, y0, xa_init,
                                     vflat.reshape(Nc, -1), (Klq, xa_eq), Np + Nf,
                                     tail=(Np, Qlq))
    Jp, J, box_viol, term_viol, gXA, gV = _fhocp_cost(
        XA, V, xi_init - xa_init[len(bz):], xa_eq, Qmat, Rmat, Qlq, Pi, omega,
        Nc, Np, mu_box, mu_term)
    grad = augmented_adjoint(cellp, Uo, Klq, XA, cache, gXA, gV, Nc)
    return Jp, J, grad.ravel(), box_viol, term_viol, len(V) - Np


def fhocp_clip_restore(vflat, xa_init, xi_init, y0,
                       Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo,
                       Klq, xa_eq, Nc, Np):
    """Sequentially clamp v so the parallel-integrator box holds exactly.

    Walks the prediction once; at each free step v(i) is clipped into
    [-1 - xi~(i), 1 - xi~(i)] before advancing.  The auxiliary-law tail is
    left untouched; its residual box violation is returned.
    """
    cellp = stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br)
    xi_off = xi_init - xa_init[len(bz):]
    XA, V, _ = augmented_rollout(cellp, Uo, bo, y0, xa_init, vflat.reshape(Nc, -1),
                                 (Klq, xa_eq), Np, box_offset=xi_off)
    _, tail_viol = _box_excess(XA[Nc:Np, len(bz):] + xi_off + V[Nc:])
    return V[:Nc].ravel(), XA[Np], float(tail_viol)


def terminal_samples_check(E, Klq, xa_eq, y0, Pi, gamma,
                           Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo):
    """Evaluate the terminal-set membership conditions at offsets E.

    Row k of E is a deviation from the equilibrium.  Returns per sample the
    total-input overshoot max(|xi + v_lq|) - 1 and the Lyapunov-decrease
    left-hand side |phi_a - xa0|_Pi^2 - |e|_Pi^2 + gamma |e|^2.  The rows
    go through the cell in blocks of TERMINAL_BLOCK.
    """
    cellp = stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br)
    input_over = np.empty(len(E))
    decrease_lhs = np.empty(len(E))
    for lo in range(0, len(E), TERMINAL_BLOCK):
        e = E[lo:lo + TERMINAL_BLOCK]
        XA, V, _ = augmented_rollout(cellp, Uo, bo, y0, xa_eq + e, (),
                                     (Klq, xa_eq), 1)
        block = slice(lo, lo + len(e))
        input_over[block] = np.max(np.abs(XA[0, :, len(bz):] + V[0]), axis=1) - 1.0
        decrease_lhs[block] = (_quad(XA[1] - xa_eq, Pi) - _quad(e, Pi)
                               + gamma * np.sum(e * e, axis=1))
    return input_over, decrease_lhs
