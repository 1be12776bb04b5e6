"""Hot numerical kernels: GRU rollouts, truncated-BPTT gradients, the pH
reactor integrator, and the shooting-based optimal control evaluations.

Plain NumPy, built on these shared pieces:
cell                one GRU update, on a single vector or a matrix of rows.
                    Its packed weights (stack_gates, cached per model as
                    GruWeights.cell) put the halved z and f gates and the r
                    gate's input term, biases included, in one matrix M, so
                    the gates take one matmul on [1; u; x] and the logistic
                    is 0.5 + 0.5 tanh of the halved pre-activation.  The
                    update itself is _cell_step, which writes every gate and
                    the next state into given arrays.
_scan               the open-loop rollout under given inputs: each step is
                    one _cell_step on a slot [1; u; x] of one preallocated
                    array, so it equals a loop of cell calls bit for bit.
                    Simulation, the training loss and its gradient all run
                    on it.
cell_jacobians      the Jacobians of that update with respect to x and u,
                    from the gates cell returned; for rows, one pair per row.
AugmentedStep       the integrator-augmented model x+ = phi(x, v + xi),
                    xi+ = xi + y0 - y of one setpoint with its auxiliary law
                    v = -K (xa - xa_eq), packed once (augmented_step_matrices)
                    as matrices on a slot [1; u; x; xi].  augmented_rollout
                    steps it under free moves for i < N_c and the law after
                    that: the law's u = v + xi is one product Ka slot, the
                    cell one _cell_step on the slot's [1; u; x], so the
                    gates and x+ equal a cell call bit for bit, and xi+ one
                    product Mxi slot: 13 NumPy calls a step.  Single plans,
                    the sequential clamp and the terminal-sample blocks all
                    go through it.
reverse pass        the adjoint of a _scan (tbptt_loss_grad_batch).  The
                    factors of the cell's vector-Jacobian product that do
                    not depend on the adjoint come from the scan's gates for
                    all steps at once, so a reverse step makes only the
                    adjoint's products; the weight gradients are outer sums
                    over all steps afterwards.

The shooting objective rolls N_p + N_f steps (N_f auxiliary-law steps past
the prediction horizon, 0 by default) and charges the quadratic terminal
cost V_f(e) = e'P_f e at the last state.  P_f = P + Pi, with P the Riccati
matrix of the LQ gain and Pi the Lyapunov matrix of the margin Q_tilde,
solves Acl'P_f Acl - P_f = -(Q_lq + Q_tilde) for Acl = A_a - B_a K.  The
terminal set is the sublevel set e'P_f e <= omega of V_f: the controller
passes P_f as the terminal-set matrix (the adapters' Pi), and the sampled
terminal-set check (terminal_samples_check) tests that V_f falls by at
least the stage cost e'Q_lq e under the auxiliary law on the set's
boundary samples, which also keeps each sample in the set.

The objective is a sum of squares r'r (see _residuals).  fhocp_residuals
returns r with its exact Jacobian Jr: augmented_tangent linearizes every step
of the rollout in one cell_jacobians call on its cached gates and steps the
tangents of all free-move coordinates at once, one product [A_i B_i] W_i a
step, laid out features before directions so that each block of Jr (stages,
moves, terminal state, active box rows, terminal penalty) is one product
written straight into a preallocated Jr.  fhocp_forward_backward turns r
and Jr into the gradient 2 Jr'r and the Gauss-Newton Hessian 2 Jr'Jr that
the solver in mpc steps on.  Both also hand back the states 0..Np of the
rollout they scored, so the solver never rolls a plan again to report its
trajectory.

Batched work (training sequences, terminal-set samples, tangent rows) runs
as rows of one call.  The controller builds the AugmentedStep of a setpoint
and the factors of Q, R and P_f once, as an FhocpConstants.  Four entry
points keep the former positional weight arrays, because perfbench calls
them by position and counts work from their arguments: fhocp_forward,
fhocp_residuals with fhocp_forward_backward, fhocp_clip_restore and
augmented_rollout_cached.  Without an FhocpConstants they build the step
from those arrays; ROADMAP item E moves perfbench off them.
"""

import math
from typing import NamedTuple

import numpy as np

# the backend flag perfbench records: every kernel here is plain NumPy
NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# the GRU cell and its Jacobians
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


# the logistic's 0.5 as an array: with a Python float operand, a ufunc call
# on a 10-vector takes about twice as long
_HALF = np.array(0.5)
_ONE = np.ones(1)


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
    g = np.empty((1 + m + n,) + x.shape[:-1])
    g[0], g[1:1 + m], g[1 + m:] = 1.0, u.T, x.T     # [1; u; x]
    a = np.empty((4 * n,) + x.shape[:-1])            # the gates [z; f; r], x+
    z, f, r, x_next = a[:n], a[n:2 * n], a[2 * n:3 * n], a[3 * n:]
    _cell_step(g, g[1 + m:], M, Ur, a[:3 * n], a[:2 * n], z, f, r, x_next)
    return x_next.T, z.T, f.T, r.T


def cell_next(x, u, M, Ur):
    """x+ of one cell update of the vectors x and u: cell's first result bit
    for bit, without the gates and the row layout (an observer update runs
    one such step a tick)."""
    n = len(x)
    a = np.empty(4 * n)
    _cell_step(np.concatenate((_ONE, u, x)), x, M, Ur, a[:3 * n], a[:2 * n],
               a[:n], a[n:2 * n], a[2 * n:3 * n], a[3 * n:])
    return a[3 * n:]


def cell_jacobians(x, u, z, f, r, M, G, Wr, Ur):
    """Jacobians (dx+/dx, dx+/du) of one cell at (x, u).

    z, f and r are the gates cell returned at (x, u); rows in, rows out:
    for T rows the results are (T, n, n) and (T, n, m).
    """
    n, m = x.shape[-1], u.shape[-1]

    def diag(A):
        """The diagonal of the x columns of every (n, m+n) block of a fresh A."""
        return A.reshape(A.shape[:-2] + (-1,))[..., m::n + m + 1]

    # d(Wr u + Ur (f*x))/d[u x] = [Wr 0] + Ur (diag(x f(1-f)) [Wf Uf] + [0 diag(f)])
    Y = (x * f * (1.0 - f))[..., None] * G[n:]
    diag(Y)[...] += f
    J = Ur @ Y
    J[..., :m] += Wr
    J *= ((1.0 - z) * (1.0 - r * r))[..., None]
    J += ((x - r) * z * (1.0 - z))[..., None] * G[:n]
    diag(J)[...] += z
    return J[..., m:], J[..., :m]


# ---------------------------------------------------------------------------
# the integrator-augmented model: one rollout, one adjoint
# ---------------------------------------------------------------------------

class AugmentedStep(NamedTuple):
    """The packed augmented step (augmented_step_matrices) with the arrays
    it was packed from."""
    cell: tuple            # the packed cell (stack_gates): gates act on [1; u; x]
    Uo: np.ndarray
    bo: np.ndarray
    y0: np.ndarray
    law: tuple             # (K, xa_eq) of v = -K (xa - xa_eq), or (None, None)
    Mxi: np.ndarray        # [y0 - bo, 0, -Uo, I]: the slot to xi+
    Ka: np.ndarray         # [K xa_eq, 0, -K_x, I - K_xi]: the slot to u; or None


def augmented_step_matrices(cellp, Uo, bo, y0, law):
    """The AugmentedStep of the packed cell, the output map (Uo, bo), the
    setpoint y0 and the auxiliary law (K, xa_eq), whose K may be None."""
    p, n = Uo.shape
    Mxi = np.zeros((p, 1 + p + n + p))
    Mxi[:, 0] = y0 - bo
    Mxi[:, 1 + p:1 + p + n] = -Uo
    Mxi[:, 1 + p + n:] = np.eye(p)
    K, xa_eq = law
    Ka = None
    if K is not None:
        Ka = np.zeros((p, 1 + p + n + p))
        Ka[:, 0] = K @ xa_eq
        Ka[:, 1 + p:] = -K
        Ka[:, 1 + p + n:] += np.eye(p)
    return AugmentedStep(cellp, Uo, bo, y0, law, Mxi, Ka)


def augmented_rollout(step, xa0, V, T, box_offset=None):
    """Roll the augmented model of the AugmentedStep step T steps from xa0
    (a vector or rows).

    Step i applies the free move V[i] for i < len(V) and the step's
    auxiliary law v = -K (xa - xa_eq) after that.  With box_offset, the
    offset xi~ - xi of the controller's integrator from the model's, each
    free move is first clamped so that xi~ + v stays in [-1, 1].

    Step i lives in S[i] = [1; u; x; xi] (u = v + xi, the cell input) of
    one preallocated array, features first and the rows of a batch along a
    last axis.  A free step writes u = v + xi; a law step gets u from one
    product Ka S[i].  Then _cell_step writes x+ straight into S[i + 1] and
    the gates into a preallocated cache, and one product Mxi S[i] writes
    xi+ there too: 13 NumPy calls a step.  The gates act on S[i, :1+m+n]
    = [1; u; x] as in cell, so a step's gates and x+ equal a cell call on
    its (x, u) bit for bit, and with features first every gate of a batch
    is a contiguous block.  The law's moves are recovered after the loop
    as u - xi.
    Returns the states (T+1, ..., n+p), the moves applied (T, ..., p) and
    the cache (U, Z, F, R) of cell inputs and gates for the tangent, as
    views of those arrays in that (steps, rows, features) order.
    """
    M, Ur, Mxi, Ka = step.cell[0], step.cell[3], step.Mxi, step.Ka
    p, n = step.Uo.shape
    Nv = len(V)
    rows = xa0.shape[:-1]
    S = np.empty((T + 1, 1 + p + n + p) + rows)
    S[:, 0] = 1.0
    S[0, 1 + p:] = xa0.T
    gates = np.empty((T, 3 * n) + rows)
    moves = np.empty((T, p) + rows)
    U, X, XI = S[:, 1:1 + p], S[:, 1 + p:1 + p + n], S[:, 1 + p + n:]
    if Nv:
        moves[:Nv] = V
    if T > Nv:
        U[Nv:T] = 0.0               # Ka's zero columns read u: keep it finite
    # the views every step passes to _cell_step and to the xi+ product
    steps = (S[:T], S[:T, :1 + p + n], X[:T], gates, gates[:, :2 * n], gates[:, :n],
             gates[:, n:2 * n], gates[:, 2 * n:], X[1:], XI[1:])
    for s, g, x, a, zf, z, f, r, x1, xi1, u, xi, v in zip(
            *(A[:Nv] for A in steps), U, XI, moves):
        if box_offset is not None:
            np.clip(v, -1.0 - (xi + box_offset), 1.0 - (xi + box_offset), v)
        np.add(v, xi, u)
        _cell_step(g, x, M, Ur, a, zf, z, f, r, x1)
        np.dot(Mxi, s, xi1)
    for s, g, x, a, zf, z, f, r, x1, xi1, u in zip(
            *(A[Nv:] for A in steps), U[Nv:]):
        np.dot(Ka, s, u)
        _cell_step(g, x, M, Ur, a, zf, z, f, r, x1)
        np.dot(Mxi, s, xi1)
    if T > Nv:
        np.subtract(U[Nv:T], XI[Nv:T], moves[Nv:])
    # back to the callers' layout, rows before features
    return (S[:, 1 + p:].swapaxes(1, -1), moves.swapaxes(1, -1),
            tuple(A.swapaxes(1, -1) for A in (U[:T], gates[:, :n],
                                               gates[:, n:2 * n], gates[:, 2 * n:])))


def augmented_tangent(step, XA, cache, Nc):
    """Tangents of one rollout of the AugmentedStep step with respect to its
    free moves.

    Column d carries the derivative along free-move coordinate d = i p + j:
    dv = e_d on the free moves and dv = -K dxa under the auxiliary law.
    Step i is linear in the tangent, dxa+ = A_i dxa + B_i dv with
    A_i = [[Jx, Ju], [-Uo, I]] and B_i = [Ju; 0] from cell_jacobians of all
    steps at once; the law folds into A_i - B_i K (and B_i = 0) for
    i >= Nc.  The tangents of step i are stacked as W[i] = [dxa_i; dv_i],
    so a step is one product dxa_{i+1} = [A_i B_i] W[i]; the law's dv
    follow after the loop.  The integrator rows [-Uo I] are a view of the
    step's Mxi.
    Returns the state tangents (T+1, n+p, Nc p) and move tangents
    (T, p, Nc p), features before directions, so that every block of the
    residual Jacobian is one product with them.
    """
    p, n = step.Uo.shape
    na, D = n + p, Nc * p
    K = step.law[0]
    U, Z, F, R = cache
    T = len(U)
    Jx, Ju = cell_jacobians(XA[:T, :n], U, Z, F, R, *step.cell)
    AB = np.zeros((T, na, na + p))             # [A_i B_i]
    AB[:, :n, :n] = Jx
    AB[:, :n, n:na] = Ju
    AB[:, n:, :na] = step.Mxi[:, 1 + p:]
    AB[:Nc, :n, na:] = Ju[:Nc]
    AB[Nc:, :n, :na] -= Ju[Nc:] @ K             # A_i - B_i K
    W = np.zeros((T + 1, na + p, D))
    d = np.arange(D)
    W[d // p, na + d % p, d] = 1.0              # dv_i = e_d for i < Nc
    for ab, w, dxa1 in zip(AB, W, W[1:, :na]):
        np.dot(ab, w, dxa1)
    np.matmul(-K, W[Nc:T, :na], out=W[Nc:T, na:])
    return W[:, :na], W[:T, na:]


# ---------------------------------------------------------------------------
# GRU rollouts and the truncated-BPTT loss/gradient
# ---------------------------------------------------------------------------

def _scan(cellp, x0, U, keep_gates=True):
    """Roll the cell over the inputs U (T, m, rows...) from x0 (n, rows...).

    Operands are features first, with the rows of a batch along the last
    axis.  Step k lives in the slot S[k] = [1; u_k; x_k] of one preallocated
    array, the gate input of the packed cell, whose ones row and inputs are
    written once; each step is one _cell_step that writes x+ into S[k + 1]
    and the gates into a preallocated cache, so the states and gates equal a
    loop of cell calls bit for bit.  Returns S (T+1, 1+m+n, rows...), whose
    S[:, 1+m:] are the states, and the gates [z; f; r] (T, 3n, rows...) of
    every step, or with keep_gates False of the last step only.
    """
    M, _, _, Ur = cellp
    T, m = U.shape[:2]
    n = len(x0)
    S = np.empty((T + 1, 1 + m + n) + x0.shape[1:])
    S[:, 0] = 1.0
    S[:T, 1:1 + m] = U
    S[0, 1 + m:] = x0
    gates = np.empty((T if keep_gates else 1, 3 * n) + x0.shape[1:])
    views = (gates, gates[:, :2 * n], gates[:, :n], gates[:, n:2 * n], gates[:, 2 * n:])
    if not keep_gates:
        views = tuple([v[0]] * T for v in views)
    for g, x1, a, zf, z, f, r in zip(S, S[1:, 1 + m:], *views):
        _cell_step(g, g[1 + m:], M, Ur, a, zf, z, f, r, x1)
    return S, gates


def gru_rollout(x0, useq, Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br):
    """Open-loop state trajectory; row 0 is x0, row k+1 the state after u[k]."""
    S, _ = _scan(stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br), x0, useq,
                 keep_gates=False)
    return S[:, useq.shape[1] + 1:]


def _output_errors(X, Yb, Tw, Uo, bo):
    """Errors (T-Tw, p, B) of the outputs of the states X (T+1, n, B) against
    the targets Yb (B, T, p), from sample Tw on."""
    return np.matmul(Uo, X[Tw + 1:]) + (bo[:, None] - Yb[:, Tw:].transpose(1, 2, 0))


# steps per scan of tbptt_loss_batch: the validation batch holds one block's
# states at a time (106 KB for 65 desk sequences), not the whole sequence's
LOSS_BLOCK_STEPS = 16


def tbptt_loss_batch(Ub, Yb, X0b, Tw,
                     Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo):
    """Sum over sequences of the washed-out mean squared simulation error.

    Ub: (B, T, m) inputs, Yb: (B, T, p) targets, X0b: (B, n) initial states.
    Sample k of sequence b is the output after k+1 state updates; the first
    Tw samples are not penalized.  The B sequences run as rows of a scan
    over blocks of LOSS_BLOCK_STEPS steps, each block starting from the last
    state of the one before; the states, errors and loss equal those of
    tbptt_loss_grad_batch's single scan bit for bit.
    """
    B, T, m = Ub.shape
    cellp = stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br)
    U = Ub.transpose(1, 2, 0)
    E = np.empty((T, Yb.shape[2], B))
    x = X0b.T
    for k in range(0, T, LOSS_BLOCK_STEPS):
        S, _ = _scan(cellp, x, U[k:k + LOSS_BLOCK_STEPS], keep_gates=False)
        E[k:k + LOSS_BLOCK_STEPS] = _output_errors(
            S[:, 1 + m:], Yb[:, k:k + LOSS_BLOCK_STEPS], 0, Uo, bo)
        x = S[-1, 1 + m:]
    E = E[Tw:]
    return np.sum(E * E) / (T - Tw)


def tbptt_loss_grad_batch(Ub, Yb, X0b, Tw,
                          Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo):
    """Loss of tbptt_loss_batch plus its exact reverse-mode weight gradient.

    The reverse pass pulls lam = dJ/dx+ back through every step:
    da_r = lam (1-z)(1-r^2), dh = Ur' da_r, da_z = lam (x-r) z(1-z),
    da_f = dh x f(1-f) and dJ/dx = lam z + dh f + [Uz; Uf]' [da_z; da_f].
    The lam-free factors come from the cached gates for all steps at once,
    so a step makes only the lam-dependent products, into preallocated
    buffers; the weight gradients are outer sums over all steps afterwards.
    """
    B, T, m = Ub.shape
    n = Uz.shape[0]
    _, G, _, _ = cellp = stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br)
    S, gates = _scan(cellp, X0b.T, Ub.transpose(1, 2, 0))
    UX, X = S[:T, 1:], S[:, 1 + m:]
    Z, F, R = gates[:, :n], gates[:, n:2 * n], gates[:, 2 * n:]
    E = _output_errors(X, Yb, Tw, Uo, bo)
    dE = (2.0 / (T - Tw)) * E
    L = np.zeros((T + 1, n, B))         # dJ/dx_k: the output term, then what
    L[Tw + 1:] = np.matmul(Uo.T, dE)    # step k pulls back is added

    # the lam-free factors of every step
    Ar = (1.0 - Z) * (1.0 - R * R)
    Cz = (X[:-1] - R) * Z * (1.0 - Z)
    Cf = X[:-1] * F * (1.0 - F)
    UrT, GxT = Ur.T.copy(), G[:, m:].T.copy()
    DZF = np.empty((T, 2 * n, B))
    DR = np.empty((T, n, B))
    dh, t1, t2 = np.empty((n, B)), np.empty((n, B)), np.empty((n, B))
    for lam, prev, dzf, dz, df, dr, ar, cz, cf, z, f in zip(*(A[::-1] for A in (
            L[1:], L[:-1], DZF, DZF[:, :n], DZF[:, n:], DR, Ar, Cz, Cf, Z, F))):
        np.multiply(lam, ar, dr)
        np.dot(UrT, dr, dh)
        np.multiply(lam, cz, dz)
        np.multiply(dh, cf, df)
        np.multiply(lam, z, t1)
        np.add(t1, np.multiply(dh, f, t2), t1)
        np.add(t1, np.dot(GxT, dzf, t2), t1)
        np.add(prev, t1, prev)

    def outer_sum(A, C):
        """sum over steps and rows of A[k, :, b] C[k, :, b]'."""
        return np.tensordot(A, C, axes=((0, 2), (0, 2)))

    dG = outer_sum(DZF, UX)
    dbzf = DZF.sum(axis=(0, 2))
    return (np.sum(E * E) / (T - Tw),
            dG[:n, :m], dG[:n, m:], dbzf[:n], dG[n:, :m], dG[n:, m:], dbzf[n:],
            outer_sum(DR, UX[:, :m]), outer_sum(DR, F * X[:-1]), DR.sum(axis=(0, 2)),
            outer_sum(dE, X[Tw + 1:]), dE.sum(axis=(0, 2)))


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


def ph_output_solve(x1, x2, pK1, pK2):
    """pH from the implicit output map: bisection on [0, 14].

    60 halvings of [0, 14] end within one ulp of the root, where |c| is at
    most about 1e-16, so the midpoint needs no polish.  Returns NaN when c
    has no sign change on [0, 14].
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
    return 0.5 * (lo + hi)


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
    """The set-up every evaluation of one problem shares (fhocp_constants)."""
    step: AugmentedStep    # the packed augmented step under the auxiliary law
    roots: tuple           # (Lq, Lr, Lf) with L L' = Q, R, P_f (_root)


def fhocp_constants(step, Qmat, Rmat, Pf):
    return FhocpConstants(step, (_root(Qmat), _root(Rmat), _root(Pf)))


def _residuals(XA, V, xi_off, xa_eq, roots, Pi, omega, Np, mu_box, mu_term):
    """Residuals r of one rollout; r'r is the penalized cost.

    With roots (Lq, Lr, Lf), Q = Lq Lq', R = Lr Lr' and P_f = Lf Lf', the
    rows are e'Lq and v'Lr of every stage (under the auxiliary law v = -K e
    they sum to e'Q_lq e, Q_lq = Q + K'R K), e'Lf at the last state,
    sqrt(mu_box) times the excess of xi~ + v = xi + xi_off + v over [-1, 1]
    for i < Np, and sqrt(mu_term) max(s, 0) with s = e_Np'Pi e_Np - omega;
    each block is written into one preallocated r (_blocks gives its rows).
    Returns (r, (J_pen, J, box_viol, term_viol), box excess, Pi e_Np).
    """
    Lq, Lr, Lf = roots
    T, p = V.shape
    na = XA.shape[1]
    E = XA - xa_eq
    over, box_viol = _box_excess(XA[:Np, -p:] + xi_off + V[:Np])
    PeN = Pi @ E[Np]
    s = float(E[Np] @ PeN) - omega
    st, mv, term, box = _blocks(T, na, p, Np)
    r = np.empty(box.stop + 1)
    np.matmul(E[:-1], Lq, out=r[st].reshape(T, na))
    np.matmul(V, Lr, out=r[mv].reshape(T, p))
    np.dot(E[-1], Lf, out=r[term])
    np.multiply(over, math.sqrt(mu_box), out=r[box].reshape(Np, p))
    r[-1] = math.sqrt(mu_term) * max(s, 0.0)
    cost = r[:box.start]
    return (r, (float(r @ r), float(cost @ cost), float(box_viol), max(s, 0.0)),
            over, PeN)


def _blocks(T, na, p, Np):
    """The row ranges of r's stage, move, terminal and box blocks; the
    terminal penalty is the last row."""
    k1, k2 = T * na, T * (na + p)
    return (slice(0, k1), slice(k1, k2), slice(k2, k2 + na),
            slice(k2 + na, k2 + na + Np * p))


def terminal_samples_check(E, step, Pf, Qlq):
    """The terminal-cost decrease V_f(phi_a) - V_f(e) + e'Qlq e, with
    V_f(e) = e'Pf e, at each row e of E.

    Row k of E is a deviation from the equilibrium xa_eq of the law of the
    AugmentedStep step; all rows go through one step of it.  The law's
    input box needs no samples: the radius search
    (mpc.terminal_set_radius) bounds it exactly.
    """
    xa_eq = step.law[1]
    e_next = augmented_rollout(step, xa_eq + E, (), 1)[0][1] - xa_eq
    return _quad(e_next, Pf) + _quad(E, Qlq - Pf)


# The adapters below keep the positional weight arrays of the former kernel
# convention, because perfbench calls them by position; the FHOCP ones take
# the problem's FhocpConstants as consts and build them only without it.

def _positional_step(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo, y0, law):
    """The AugmentedStep of the positional arrays of the adapters."""
    return augmented_step_matrices(stack_gates(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br),
                                   Uo, bo, y0, law)


def augmented_rollout_cached(xa0, V, y0,
                             Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo):
    """Roll the integrator-augmented model under an explicit v sequence."""
    step = _positional_step(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo, y0,
                            (None, None))
    XA, _, (_, Z, F, R) = augmented_rollout(step, xa0, V, len(V))
    return XA, Z, F, R


def fhocp_forward(vflat, xa_init, xi_init, y0,
                  Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo,
                  Klq, xa_eq, Qmat, Rmat, Pf, Pi, omega,
                  Nc, Np, Nf, mu_box, mu_term, *, consts=None):
    """Penalized shooting objective over Np + Nf steps, V_f = e'Pf e at the end.

    Returns (J_pen, J, box_viol, term_viol).
    """
    if consts is None:
        consts = fhocp_constants(_positional_step(
            Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo, y0, (Klq, xa_eq)), Qmat, Rmat, Pf)
    XA, V, _ = augmented_rollout(consts.step, xa_init, vflat.reshape(Nc, -1), Np + Nf)
    return _residuals(XA, V, xi_init - xa_init[len(bz):], xa_eq, consts.roots,
                      Pi, omega, Np, mu_box, mu_term)[1]


def fhocp_residuals(vflat, xa_init, xi_init, y0,
                    Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo,
                    Klq, xa_eq, Qmat, Rmat, Pf, Pi, omega,
                    Nc, Np, Nf, mu_box, mu_term, *, consts=None):
    """fhocp_forward plus its residuals r (r'r = J_pen) and their Jacobian.

    The tangents of augmented_tangent follow the linearization of the same
    rollout at its cached gates; each block of Jr is one product with them,
    written into one preallocated Jr (the box block only on its active
    rows).  Returns (J_pen, J, box_viol, term_viol, r, Jr, XA) with
    Jr = dr/dv of shape (len(r), Nc p) and XA the states 0..Np of the
    rollout.
    """
    n = len(bz)
    if consts is None:
        consts = fhocp_constants(_positional_step(
            Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo, y0, (Klq, xa_eq)), Qmat, Rmat, Pf)
    XA, V, cache = augmented_rollout(consts.step, xa_init, vflat.reshape(Nc, -1),
                                     Np + Nf)
    r, cost, over, PeN = _residuals(XA, V, xi_init - xa_init[n:], xa_eq,
                                    consts.roots, Pi, omega, Np, mu_box, mu_term)
    dXA, dV = augmented_tangent(consts.step, XA, cache, Nc)
    T, p, D = dV.shape
    na = n + p
    Lq, Lr, Lf = consts.roots
    st, mv, term, box = _blocks(T, na, p, Np)
    Jr = np.empty((len(r), D))
    np.matmul(Lq.T, dXA[:T], out=Jr[st].reshape(T, na, D))
    np.matmul(Lr.T, dV, out=Jr[mv].reshape(T, p, D))
    np.dot(Lf.T, dXA[T], out=Jr[term])
    Jr[box] = 0.0
    i, j = np.nonzero(over)
    if len(i):
        Jr[box][i * p + j] = math.sqrt(mu_box) * (dXA[i, n + j] + dV[i, j])
    Jr[-1] = math.sqrt(mu_term) * (2.0 * (PeN @ dXA[Np])) if cost[3] > 0.0 else 0.0
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
                       Klq, xa_eq, Nc, Np, *, consts=None):
    """Sequentially clamp v so the parallel-integrator box holds exactly.

    Walks the prediction once; at each free step v(i) is clipped into
    [-1 - xi~(i), 1 - xi~(i)] before advancing.  The auxiliary-law tail is
    left untouched.  Of consts it uses the packed step.  Returns the
    clamped free moves, the states 0..Np of the clamped plan and the tail's
    residual box violation.
    """
    step = (_positional_step(Wz, Uz, bz, Wf, Uf, bf, Wr, Ur, br, Uo, bo, y0, (Klq, xa_eq))
            if consts is None else consts.step)
    xi_off = xi_init - xa_init[len(bz):]
    XA, V, _ = augmented_rollout(step, xa_init, vflat.reshape(Nc, -1), Np,
                                 box_offset=xi_off)
    _, tail_viol = _box_excess(XA[Nc:Np, len(bz):] + xi_off + V[Nc:])
    return V[:Nc].ravel(), XA, float(tail_viol)
