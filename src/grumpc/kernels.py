"""Hot numerical kernels: GRU rollouts, truncated-BPTT gradients, the pH
reactor integrator, and the shooting-based optimal control evaluations.

Plain NumPy, built on four shared pieces:
cell                one GRU update, on a single vector or a matrix of rows.
                    Its packed weights (stack_gates) put the halved z and f
                    gates and the r gate's input term, biases included, in
                    one matrix M, so the gates take one matmul on [1; u; x]
                    and the logistic is 0.5 + 0.5 tanh of the halved
                    pre-activation.  The update itself is _cell_step, which
                    writes every gate and the next state into given arrays.
cell_vjp            the vector-Jacobian product of that update (reverse
                    mode, for truncated BPTT).
cell_jacobians      the Jacobians of that update with respect to x and u,
                    from the gates cell returned; for rows, one pair per row.
augmented_rollout   the integrator-augmented model x+ = phi(x, v + xi),
                    xi+ = xi + y0 - y, under free moves for i < N_c and the
                    auxiliary law v = -K (xa - xa_eq) after that, for a
                    fixed number of steps.  Each step is one _cell_step on
                    a slot of one preallocated state array, so a rollout
                    equals a loop of cell calls bit for bit.  Single plans,
                    the sequential clamp and the terminal-sample blocks all
                    go through it.

The shooting objective rolls N_p + N_f steps (N_f auxiliary-law steps past
the prediction horizon, 0 by default) and charges the quadratic terminal
cost V_f(e) = e'P_f e at the last state.  P_f = P + Pi, with P the Riccati
matrix of the LQ gain and Pi the terminal-set matrix, solves
Acl'P_f Acl - P_f = -(Q_lq + Q_tilde) for Acl = A_a - B_a K; the sampled
terminal-set check (terminal_samples_check) certifies that V_f falls by at
least the stage cost e'Q_lq e under the auxiliary law on the terminal set.

The objective is a sum of squares r'r (see _residuals).  fhocp_residuals
returns r with its exact Jacobian Jr: augmented_tangent linearizes every step
of the rollout in one cell_jacobians call on its cached gates and pushes one
tangent row per free-move coordinate through those linear maps.
fhocp_forward_backward turns r and Jr into the gradient 2 Jr'r and the
Gauss-Newton Hessian 2 Jr'Jr that the solver in mpc steps on.  Both also
hand back the states 0..Np of the rollout they scored, so the solver never
rolls a plan again to report its trajectory.

Every public kernel is a short caller of these.  Batched work (training
sequences, terminal-set samples, tangent rows) runs as rows of one call.
What the evaluations of one problem share (the packed cell, the factors of
Q, R and P_f, the constant tangent columns) is an FhocpConstants that the
controller builds once per setpoint; a kernel called without one builds it
from its positional arrays.
"""

import math
from typing import NamedTuple

import numpy as np

# the backend flag perfbench records: every kernel here is plain NumPy
NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# the GRU cell and its vector-Jacobian product
# ---------------------------------------------------------------------------

def stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br):
    """The packed cell (M, G, Wr, Ur) of one set of weights.

    M = [bz Wz Uz; bf Wf Uf] / 2 stacked over [br Wr 0] maps the gate input
    [1; u; x] to the halved z and f pre-activations and to the r
    pre-activation without its Ur (f*x) term, in one matmul (halving is
    exact).  G = [Wz Uz; Wf Uf] serves the derivatives.
    """
    n, m = Wz.shape
    G = np.concatenate((np.concatenate((Wz, Uz), axis=1),
                        np.concatenate((Wf, Uf), axis=1)))
    M = np.zeros((3 * n, 1 + m + n))
    M[:2 * n, 0] = 0.5 * np.concatenate((bz, bf))
    M[:2 * n, 1:] = 0.5 * G
    M[2 * n:, 0] = br
    M[2 * n:, 1:1 + m] = Wr
    return M, G, Wr, Ur


def shift_gate_biases(cellp, shift):
    """The packed cell with shift (2n,) added to the z and f gate biases."""
    M, G, Wr, Ur = cellp
    M = M.copy()
    M[:len(shift), 0] += 0.5 * shift
    return M, G, Wr, Ur


# the logistic's 0.5 as an array: with a Python float operand, a ufunc call
# on a 10-vector takes about twice as long
_HALF = np.array(0.5)


def _cell_step(g, x, M, Ur, a, zf, z, f, r, x_next):
    """One cell update of the gate inputs g = [1; u; x], features first.

    Every operand holds its features along its first axis and, for a batch,
    its rows along the second, so each gate is a contiguous block.  a is
    the gate buffer [z; f; r] with its views zf, z, f and r; x+ = z*x +
    (1-z)*r, computed as r + z*(x - r), goes into x_next, which serves as
    scratch until then.  cell and augmented_rollout both step through here,
    so a rollout equals a loop of cell calls bit for bit.
    """
    np.dot(M, g, a)
    np.tanh(zf, zf)                     # logistic(a) = 0.5 + 0.5 tanh(a/2),
    np.multiply(zf, _HALF, zf)          # which overflows at no a
    np.add(zf, _HALF, zf)
    np.multiply(f, x, x_next)
    r += np.dot(Ur, x_next)
    np.tanh(r, r)
    np.subtract(x, r, x_next)
    np.multiply(z, x_next, x_next)
    np.add(r, x_next, x_next)


def cell(x, u, M, G, Wr, Ur):
    """One update x+ = z*x + (1-z)*tanh(Wr u + Ur (f*x) + br).

    x and u are vectors or matrices of rows; (M, G, Wr, Ur) is the packed
    cell of stack_gates.  Returns (x+, z, f, r), for rows as transposed
    views.
    """
    n, m = x.shape[-1], u.shape[-1]
    g = np.concatenate((np.ones((1,) + x.shape[:-1]), u.T, x.T))
    a = np.empty((3 * n,) + x.shape[:-1])
    x_next = np.empty(a[:n].shape)
    z, f, r = a[:n], a[n:2 * n], a[2 * n:]
    _cell_step(g, g[1 + m:], M, Ur, a, a[:2 * n], z, f, r, x_next)
    return x_next.T, z.T, f.T, r.T


def cell_vjp(lam, x, u, z, f, r, M, G, Wr, Ur):
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


def cell_jacobians(x, u, z, f, r, M, G, Wr, Ur):
    """Jacobians (dx+/dx, dx+/du) of one cell at (x, u).

    z, f and r are the gates cell returned at (x, u); rows in, rows out:
    for T rows the results are (T, n, n) and (T, n, m).
    """
    n, m = x.shape[-1], u.shape[-1]
    # d(Wr u + Ur (f*x))/d[u x] = [Wr 0] + Ur (diag(x f(1-f)) [Wf Uf] + [0 diag(f)])
    dar = Ur @ ((x * f * (1.0 - f))[..., None] * G[n:])
    dar[..., :m] += Wr
    dar[..., m:] += Ur * f[..., None, :]
    J = (((x - r) * z * (1.0 - z))[..., None] * G[:n]
         + ((1.0 - z) * (1.0 - r * r))[..., None] * dar)
    J[..., range(n), range(m, m + n)] += z
    return J[..., m:], J[..., :m]


def gru_cell(x, u, Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br):
    """One state update from the nine weight arrays."""
    return cell(x, u, *stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br))[0]


# ---------------------------------------------------------------------------
# the integrator-augmented model: one rollout, one adjoint
# ---------------------------------------------------------------------------

def augmented_rollout(cellp, Uo, bo, y0, xa0, V, law, T, box_offset=None):
    """Roll the augmented model T steps from xa0 (a vector or rows).

    Step i applies the free move V[i] for i < len(V) and the auxiliary law
    v = -K (xa - xa_eq), law = (K, xa_eq), after that.  With box_offset,
    the offset xi~ - xi of the controller's integrator from the model's,
    each free move is first clamped so that xi~ + v stays in [-1, 1].

    Step i lives in S[i] = [1; u; x; xi] (u = v + xi, the cell input) of
    one preallocated array, features first and the rows of a batch along a
    last axis.  S[i, :1+m+n] is the gate input of the packed cell, whose M
    holds the biases in its first column, so no step concatenates:
    _cell_step writes x+ straight into S[i + 1] and the gates into a
    preallocated cache, and with features first every gate of a batch is a
    contiguous block.  Returns the states (T+1, ..., n+p), the moves applied
    (T, ..., p) and the cache (U, Z, F, R) of cell inputs and gates for the
    tangent, as views of those arrays in that (steps, rows, features) order.
    """
    M, _, _, Ur = cellp
    n, p = Uo.shape[1], len(bo)
    K, xa_eq = law
    rows = xa0.shape[:-1]

    def col(c):
        """c (k,) shaped to broadcast against features-first (k, rows...)."""
        return np.reshape(c, (-1,) + (1,) * len(rows))

    S = np.empty((T + 1, 1 + p + n + p) + rows)
    S[:, 0] = 1.0
    S[0, 1 + p:] = xa0.T
    gates = np.empty((T, 3 * n) + rows)
    moves = np.empty((T, p) + rows)
    if len(V):
        moves[:len(V)] = V
    y = np.empty((p,) + rows)
    XA, U, X, XI = S[:, 1 + p:], S[:, 1:1 + p], S[:, 1 + p:1 + p + n], S[:, 1 + p + n:]
    Z, F, R = gates[:, :n], gates[:, n:2 * n], gates[:, 2 * n:]
    y0, bo = col(y0), col(bo)
    if T > len(V):                      # auxiliary-law steps follow
        xa_eq = col(xa_eq)
    for i, (g, u, x, xi, v, a, zf, z, f, r, x1, xi1) in enumerate(zip(
            S[:, :1 + p + n], U, X, XI, moves, gates, gates[:, :2 * n], Z, F, R,
            X[1:], XI[1:])):
        if i >= len(V):
            np.dot(K, xa_eq - XA[i], v)
        elif box_offset is not None:
            np.clip(v, -1.0 - (xi + box_offset), 1.0 - (xi + box_offset), v)
        np.add(v, xi, u)
        _cell_step(g, x, M, Ur, a, zf, z, f, r, x1)
        np.add(np.dot(Uo, x, y), bo, y)
        np.subtract(np.add(xi, y0, xi1), y, xi1)
    # back to the callers' layout, rows before features
    return (XA.swapaxes(1, -1), moves.swapaxes(1, -1),
            tuple(A.swapaxes(1, -1) for A in (U[:T], Z, F, R)))


def xi_columns(Uo):
    """[-Uo'; I]: the integrator columns of every A_i' of augmented_tangent."""
    return np.vstack((-Uo.T, np.eye(Uo.shape[0])))


def augmented_tangent(cellp, Uo, K, XA, cache, Nc, xi_cols=None):
    """Tangents of one rollout with respect to its free moves.

    Row d carries the derivative along free-move coordinate d = i p + j:
    dv = e_d on the free moves and dv = -dxa K' under the auxiliary law.
    Step i is linear in the tangent, dxa+ = A_i dxa + B_i dv with
    A_i = [[Jx, Ju], [-Uo, I]] and B_i = [Ju; 0] from cell_jacobians of all
    steps at once; the law folds into A_i - B_i K for i >= Nc.  xi_cols is
    xi_columns(Uo), built here when not given.
    Returns the state tangents (T+1, Nc p, n+p) and move tangents (T, Nc p, p).
    """
    n = Uo.shape[1]
    U, Z, F, R = cache
    T, p = U.shape
    Jx, Ju = cell_jacobians(XA[:T, :n], U, Z, F, R, *cellp)
    AT = np.empty((T, n + p, n + p))            # A_i', so rows step as dxa A_i'
    AT[:, :, :n] = np.concatenate((Jx, Ju), axis=2).transpose(0, 2, 1)
    AT[:, :, n:] = xi_columns(Uo) if xi_cols is None else xi_cols
    AT[Nc:, :, :n] -= K.T @ AT[Nc:, n:, :n]     # (A_i - B_i K)' = A_i' - K'B_i'
    dXA = np.zeros((T + 1, Nc * p, n + p))
    for i, (d, d1, A) in enumerate(zip(dXA, dXA[1:], AT)):
        np.matmul(d, A, out=d1)
        if i < Nc:
            d1[i * p:(i + 1) * p, :n] += A[n:, :n]
    dV = np.empty((T, Nc * p, p))
    dV[:Nc] = np.eye(Nc * p).reshape(Nc, p, Nc * p).transpose(0, 2, 1)  # dv = e_d
    dV[Nc:] = -dXA[Nc:T] @ K.T
    return dXA, dV


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


def tbptt_loss_batch(Ub, Yb, X0b, Tw,
                     Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo):
    """Sum over sequences of the washed-out mean squared simulation error.

    Ub: (B, T, m) inputs, Yb: (B, T, p) targets, X0b: (B, n) initial states.
    Sample k of sequence b is the output after k+1 state updates; the first
    Tw samples are not penalized.  The B sequences run as rows, and only the
    current state rows are kept: the squared errors are summed as they come.
    """
    cellp = stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br)
    T = Ub.shape[1]
    x = X0b
    sq = np.zeros(Yb.shape[::2])
    for k in range(T):
        x = cell(x, Ub[:, k], *cellp)[0]
        if k >= Tw:
            e = x @ Uo.T + bo - Yb[:, k]
            sq += e * e
    return np.sum(sq) / (T - Tw)


def tbptt_loss_grad_batch(Ub, Yb, X0b, Tw,
                          Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo):
    """Loss of tbptt_loss_batch plus its exact reverse-mode weight gradient."""
    B, T, m = Ub.shape
    n = Uz.shape[0]
    cellp = stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br)
    U = np.ascontiguousarray(Ub.transpose(1, 0, 2))
    X, (Z, F, R) = _scan(cellp, X0b, U)
    E = np.zeros((T, B, Yb.shape[2]))         # output errors, zero in the washout
    E[Tw:] = X[Tw + 1:] @ Uo.T + bo - Yb[:, Tw:].transpose(1, 0, 2)
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


def _root(M):
    """A factor L with L L' = M of a symmetric positive semidefinite M."""
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        lam, U = np.linalg.eigh(M)
        return U * np.sqrt(np.maximum(lam, 0.0))


class FhocpConstants(NamedTuple):
    """The set-up every evaluation of one problem shares; a kernel given none
    builds it from its positional arrays (fhocp_constants)."""
    cell: tuple            # the packed cell (stack_gates)
    roots: tuple           # (Lq, Lr, Lf) with L L' = Q, R, P_f (_root)
    xi_cols: np.ndarray    # xi_columns(Uo), for augmented_tangent


def fhocp_constants(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, Qmat, Rmat, Pf):
    return FhocpConstants(stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br),
                          (_root(Qmat), _root(Rmat), _root(Pf)), xi_columns(Uo))


def _residuals(XA, V, xi_off, xa_eq, roots, Pi, omega, Np, mu_box, mu_term):
    """Residuals r of one rollout; r'r is the penalized cost.

    With roots (Lq, Lr, Lf), Q = Lq Lq', R = Lr Lr' and P_f = Lf Lf', the
    rows are e'Lq and v'Lr of every stage (under the auxiliary law v = -K e
    they sum to e'Q_lq e, Q_lq = Q + K'R K), e'Lf at the last state,
    sqrt(mu_box) times the excess of xi~ + v = xi + xi_off + v over [-1, 1]
    for i < Np, and sqrt(mu_term) max(s, 0) with s = e_Np'Pi e_Np - omega.
    Returns (r, (J_pen, J, box_viol, term_viol), box excess, Pi e_Np).
    """
    Lq, Lr, Lf = roots
    p = V.shape[1]
    E = XA - xa_eq
    over, box_viol = _box_excess(XA[:Np, -p:] + xi_off + V[:Np])
    PeN = Pi @ E[Np]
    s = float(E[Np] @ PeN) - omega
    r = np.concatenate(((E[:-1] @ Lq).ravel(), (V @ Lr).ravel(), E[-1] @ Lf,
                        math.sqrt(mu_box) * over.ravel(),
                        [math.sqrt(mu_term) * max(s, 0.0)]))
    cost = r[:-over.size - 1]
    return (r, (float(r @ r), float(cost @ cost), float(box_viol), max(s, 0.0)),
            over, PeN)


def augmented_rollout_cached(xa0, V, y0,
                             Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo):
    """Roll the integrator-augmented model under an explicit v sequence."""
    cellp = stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br)
    XA, _, (_, Z, F, R) = augmented_rollout(cellp, Uo, bo, y0, xa0, V,
                                            (None, None), len(V))
    return XA, Z, F, R


def fhocp_forward(vflat, xa_init, xi_init, y0,
                  Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo,
                  Klq, xa_eq, Qmat, Rmat, Pf, Pi, omega,
                  Nc, Np, Nf, mu_box, mu_term, *, consts=None):
    """Penalized shooting objective over Np + Nf steps, V_f = e'Pf e at the end.

    consts is the FhocpConstants of the problem.  Returns (J_pen, J,
    box_viol, term_viol).
    """
    if consts is None:
        consts = fhocp_constants(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo,
                                 Qmat, Rmat, Pf)
    XA, V, _ = augmented_rollout(consts.cell, Uo, bo, y0, xa_init,
                                 vflat.reshape(Nc, -1), (Klq, xa_eq), Np + Nf)
    return _residuals(XA, V, xi_init - xa_init[len(bz):], xa_eq, consts.roots,
                      Pi, omega, Np, mu_box, mu_term)[1]


def fhocp_residuals(vflat, xa_init, xi_init, y0,
                    Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo,
                    Klq, xa_eq, Qmat, Rmat, Pf, Pi, omega,
                    Nc, Np, Nf, mu_box, mu_term, *, consts=None):
    """fhocp_forward plus its residuals r (r'r = J_pen) and their Jacobian.

    The tangent rows of augmented_tangent follow the linearization of the
    same rollout at its cached gates.  Returns (J_pen, J, box_viol,
    term_viol, r, Jr, XA) with Jr = dr/dv of shape (len(r), Nc p) and XA
    the states 0..Np of the rollout.
    """
    n = len(bz)
    if consts is None:
        consts = fhocp_constants(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo,
                                 Qmat, Rmat, Pf)
    XA, V, cache = augmented_rollout(consts.cell, Uo, bo, y0, xa_init,
                                     vflat.reshape(Nc, -1), (Klq, xa_eq), Np + Nf)
    r, cost, over, PeN = _residuals(XA, V, xi_init - xa_init[n:], xa_eq,
                                    consts.roots, Pi, omega, Np, mu_box, mu_term)
    dXA, dV = augmented_tangent(consts.cell, Uo, Klq, XA, cache, Nc,
                                xi_cols=consts.xi_cols)
    D = dV.shape[1]
    Lq, Lr, Lf = consts.roots

    def rows(T):
        """(steps, D, k) tangents of residual blocks -> (steps k, D)."""
        return T.transpose(0, 2, 1).reshape(-1, D)

    dover = np.where(over[:, None] != 0.0, dXA[:Np, :, n:] + dV[:Np], 0.0)
    dterm = 2.0 * (dXA[Np] @ PeN) if cost[3] > 0.0 else np.zeros(D)
    Jr = np.concatenate((rows(dXA[:-1] @ Lq), rows(dV @ Lr), (dXA[-1] @ Lf).T,
                         math.sqrt(mu_box) * rows(dover),
                         math.sqrt(mu_term) * dterm[None]))
    return (*cost, r, Jr, XA[:Np + 1])


def fhocp_forward_backward(vflat, xa_init, xi_init, y0,
                           Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo,
                           Klq, xa_eq, Qmat, Rmat, Pf, Pi, omega,
                           Nc, Np, Nf, mu_box, mu_term, *, consts=None):
    """fhocp_forward plus the exact gradient 2 Jr'r of the penalized objective
    and its Gauss-Newton Hessian 2 Jr'Jr, from the residuals r and their
    Jacobian Jr (fhocp_residuals).

    Returns (J_pen, J, grad, box_viol, term_viol, H, XA), XA the states
    0..Np of the rollout.
    """
    Jp, J, box_viol, term_viol, r, Jr, XA = fhocp_residuals(
        vflat, xa_init, xi_init, y0, Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo,
        Klq, xa_eq, Qmat, Rmat, Pf, Pi, omega, Nc, Np, Nf, mu_box, mu_term,
        consts=consts)
    return Jp, J, 2.0 * (r @ Jr), box_viol, term_viol, 2.0 * (Jr.T @ Jr), XA


def fhocp_clip_restore(vflat, xa_init, xi_init, y0,
                       Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo,
                       Klq, xa_eq, Nc, Np, *, cell=None):
    """Sequentially clamp v so the parallel-integrator box holds exactly.

    Walks the prediction once; at each free step v(i) is clipped into
    [-1 - xi~(i), 1 - xi~(i)] before advancing.  The auxiliary-law tail is
    left untouched.  cell is the packed cell (stack_gates).  Returns the
    clamped free moves, the states 0..Np of the clamped plan and the tail's
    residual box violation.
    """
    if cell is None:
        cell = stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br)
    xi_off = xi_init - xa_init[len(bz):]
    XA, V, _ = augmented_rollout(cell, Uo, bo, y0, xa_init, vflat.reshape(Nc, -1),
                                 (Klq, xa_eq), Np, box_offset=xi_off)
    _, tail_viol = _box_excess(XA[Nc:Np, len(bz):] + xi_off + V[Nc:])
    return V[:Nc].ravel(), XA, float(tail_viol)


def terminal_samples_check(E, Klq, xa_eq, y0, Pi, gamma,
                           Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo, *, Pf, Qlq,
                           cell=None):
    """Evaluate the terminal-set membership conditions at offsets E.

    Row k of E is a deviation from the equilibrium; all rows go through one
    cell call.  Returns per sample the total-input overshoot
    max(|xi + v_lq|) - 1, the Lyapunov-decrease left-hand side
    |phi_a - xa0|_Pi^2 - |e|_Pi^2 + gamma |e|^2, and the terminal-cost
    decrease left-hand side V_f(phi_a) - V_f(e) + e'Qlq e with V_f(e) = e'Pf e.
    cell is the packed cell (stack_gates).
    """
    if cell is None:
        cell = stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br)
    XA, V, _ = augmented_rollout(cell, Uo, bo, y0, xa_eq + E, (), (Klq, xa_eq), 1)
    e_next = XA[1] - xa_eq
    return (np.max(np.abs(XA[0, :, len(bz):] + V[0]), axis=1) - 1.0,
            _quad(e_next, Pi) - _quad(E, Pi) + gamma * np.sum(E * E, axis=1),
            _quad(e_next, Pf) + _quad(E, Qlq - Pf))
