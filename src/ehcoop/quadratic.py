"""Iterative quadratic approximation solver.

Every row of the program (the objective and each epigraph row) is replaced
by its second-order model around the current point x_k,

    c + G . (x - x_k) + 0.5 * (x - x_k)^T H (x - x_k),

with c, G and the term curvature H read from one `ConvexProgram.evaluate`
at x_k (each perspective term contributes coeff * v v^T, v its rank-one
Hessian factor).  That turns the allocation problem into a small convex
QCQP held as arrays: the objective (const, g, H), every row's (const, G),
the stacked Hessians `nl_H` of the curved rows, which come first, and the
linear rows after them.  A trust-region box around x_k is appended as
+-e_i rows.  The QCQP is solved with a primal-dual path-following
interior-point method that steps over all rows at once, the auxiliary rate
variables are pulled back inside the true epigraph region, and the model
is rebuilt at the new point until two successive solutions coincide.  Any
slot whose time fell below the expansion floor is then put on the ray its
multipliers ask for, and `program.finish` builds the result from the last
subproblem's duals: a settled point counts as converged only with the
certificate both solvers share (violation <= 0, KKT residual <= KKT_TOL).

The Newton direction of an interior-point step linearizes each curved
slack as s - alpha p, while along the step it is s - alpha p - alpha^2 q / 2
(q = dx^T nl_H[j] dx).  Where the exact step limit falls below
_CORRECT_BELOW on a subproblem with curved rows, the step is corrected to
second order (Nocedal & Wright, Numerical Optimization, 2nd ed., 15.6 and
19.3): the same Newton matrix is solved again with the complementarity
residual shifted by lam * q / 2 of the first direction, and the step limit
is taken along the corrected one.  Without it the steps crawl along a
curved row at alpha of 0.03-0.2.  On the energy grid's 48 rho screens and
144 S2-S4 solves it cuts the stacked iterations 42,704 -> 32,571 (11.9 ->
9.2 per subproblem), the summed longest member of each stacked solve
6,913 -> 4,804, the lone ones 12,670 -> 10,810 (10.2 -> 8.8), and the
subproblems stopped by _IPM_MAX_ITERS 59 -> 0, with statuses and rho*
unchanged.  A subproblem without curved rows (S3/S4 sum) never takes it.

Every subproblem starts cold (lam = 1 / max(s, 1e-3), mu near 1), so the
centring parameter _SIGMA, which cuts mu at most 1/_SIGMA-fold a step,
sets most iteration counts: at 0.1, 823 of the 1,230 lone energy-grid
subproblems took exactly the 8 iterations from mu ~ 0.9 to _IPM_TOL (at
0.03, 652 of 1,080 take 6).  Long-step path following allows a far smaller
sigma (Wright, Primal-Dual Interior-Point Methods, SIAM 1997, ch. 5).
Measured with the polish rules below (iterations: lone `_ipm` ones plus
the longest member of each `_ipm_many` call; the energy grid's 528
programs, the distance grid's 372; certificates lost of those 900; the
edge set is X1 = 0, X1 = 1e-3, eta = w1 = 0, X1 = X2 = 0 and d1 in {0.2,
0.6, 1.0, 1.4, 1.8}, 380 programs, 355 of them certified at sigma 0.1 with
the former polish):

    sigma                 energy   distance   grid lost   edge certified
    0.1, former polish    15,614     11,626        0           355
    0.1                   13,945     10,387        0           353
    0.05                  12,085      9,031        0           354
    0.04                  11,374      8,552        0           355
    0.03                  11,249      8,443        0           355
    0.02                  10,679      7,984        2           353

Every sigma below 0.1 trades a few X1 = 0 and X1 = 1e-3 edge cells, which
settle near the t = 0 flat face, for others; 0.03 loses X1 = 0 S3-A and S4-A
sum and gains four S1 cells (the table counts X1 = 0 and 1e-3 S1-B common
rho = 0.1 lost too: they certify since a round without a step settles).

The rounds settle when a round's model sees no descent around x, when none
of its boxes gives an acceptable step (x is then stationary for its model,
and is tested, not abandoned: Conn, Gould & Toint, Trust-Region Methods,
SIAM 2000, ch. 6), or when its step moves x by at most _SETTLE_TOL; only
MAX_ROUNDS leaves a solve unsettled.  Boxless rebuilds then polish the
point: the first one that is accepted and moves it by at most _SETTLE_TOL
ends the polish (a second one, run in 505 of the energy grid's 528 solves,
only confirmed the first: each was accepted, median move 1.7e-14).  A
rebuild is rejected when its objective reads worse than the settled point's
by more than max(1e-8 (1 + |f|), J * gap), J the subproblem's inequality
count: the interior-point stop lets the rebuild's complementarity lam . s =
J * gap reach J * _IPM_TOL, and its objective is known only to within that.
With the fixed 1e-8 (1 + |f|) alone, sigma 0.05 lost 8 grid certificates
(S1-B common rho = 0.6 at X1 = 175-300 mW and rho = 0.2 and 0.3 at d1 =
0.6, KKT 1.1-2.1e-6): at X1 = 175 mW the first polish read 4.2e-8 worse
against a guard of 3.5e-8, with J * gap = 1.2e-7.

A solve takes only its program: the round cap MAX_ROUNDS and the
interior-point and trust-region tuning values are module constants, read
at call time.  It keeps no per-round log.

The rounds are written once, as a generator (`_rounds`) that yields an
`_Ask` for every subproblem it needs solved (the model around x, built anew
for every ask, boxed or not, started under the caps) and reads a `_Reply`
(the solution, the point under its caps and the objective values the
acceptance test needs); the accept, shrink, grow, settle and polish rules
run on Python floats per program, with the objective at x that of the
accepted reply.  `solve_iterative` is `solve_iterative_many` on one
program, which runs the rounds of K programs side by side and answers the
waiting asks of one `program.stack_key` and box state, at least
LOCKSTEP_MIN of them, with one `_answer_stack`: one pass of a
`ProgramStack` (with `math.log1p`'s bits) gives the row values, gradients
and Hessians of all K models, the boxes come from (K, n) centres and radii
and the starts from (K, m) caps, the arrays go as a `_Stack` to
`_ipm_many`, which steps the Newton systems as (K, n, n) and the rows as
(K, J) arrays with every rule of `_ipm` kept per program, and one more pass
gives the objective values.  Every other ask goes to `_answer` (the scalar
`quadratize`, `_with_trust_region`, `_under_caps` and `_ipm`), whose bits
the stacked models, starts and replies keep.  Boxless asks wait while any
ask is boxed, so that the programs that settle in different rounds polish
in one stack.

Measured on the eight-candidate rounds of the default S1-A sum screen
(Intel Xeon, 2 CPUs, OpenBLAS, numpy 2.4, one process; median over the
rounds of stacked/one-by-one time, two runs), the round work without the
interior-point solve, about 110-180 us per program one by one, takes
0.84-0.90, 0.59-0.65, 0.46-0.48 and 0.25 of that time stacked at K = 2, 3,
4 and 8; the whole round, solve included, 0.86-0.87, 0.59-0.60, 0.47-0.49
and 0.30-0.31.  At K = 1 a stack costs 1.43-1.49 (round work) and
1.56-1.58 (whole round), so LOCKSTEP_MIN is 2.  For the same reason `_ipm`
stays: on the energy grid's 1,080 lone subproblems, `_ipm_many` on a stack
of one gives its bits in at least 1.36 times its time (each numpy call on
(1, ...) arrays costs about 1 us more), and one algorithm over one-program
and stacked arithmetic, as nb's `_One` and `_Stack`, took 222 lines
against 197 and 1.07 times the time (median of 30 alternating pairs).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .program import (
    ConvexProgram,
    ProgramStack,
    SolveResult,
    aux_bounds,
    energy_caps,
    finish,
    scalar_log1p,
    stack_key,
    start,
)

# expansion points are lifted this far off the t = 0 boundary to keep the
# model curvature finite
_T_FLOOR = 1e-9
# the rounds settle once two successive solutions are this close
_SETTLE_TOL = 1e-6
# quadratization rounds per solve
MAX_ROUNDS = 50
# fewest asks of one layout and box state that `solve_iterative_many`
# answers as one stack (the measured crossover is in the module docstring)
LOCKSTEP_MIN = 2


@dataclass
class QuadraticSubproblem:
    """Convex QCQP in dense array form.

    Minimizes obj_const + obj_g . x + 0.5 x^T obj_H x subject to rows
    con_const[j] + con_G[j] . x + 0.5 x^T nl_H[j] x <= 0, where only the
    first len(nl_H) rows (the curved ones) carry a Hessian; the linear rows,
    then any trust-region box rows, follow.  Nonnegativity of the
    time/energy coordinates is kept separate, mirroring `ConvexProgram`.
    """

    obj_const: float
    obj_g: np.ndarray          # (n,)
    obj_H: np.ndarray          # (n, n)
    con_const: np.ndarray      # (rows,)
    con_G: np.ndarray          # (rows, n)
    nl_H: np.ndarray           # (m, n, n) Hessians of the m curved rows
    t_indices: tuple[int, ...]
    y_indices: tuple[int, ...]

    positive_indices = ConvexProgram.positive_indices

    @property
    def n_vars(self) -> int:
        return len(self.obj_g)

    @property
    def n_nonlinear(self) -> int:
        return len(self.nl_H)

    def objective_value(self, x) -> float:
        return self.obj_const + float(self.obj_g @ x) + 0.5 * float(x @ (self.obj_H @ x))


def quadratize(p: ConvexProgram, x_k: np.ndarray) -> QuadraticSubproblem:
    """Second-order model of a canonical program around x_k.

    The model of each row, c + G.(x - x_k) + 0.5 (x - x_k)^T H (x - x_k),
    is stored expanded as const + g.x + 0.5 x^T H x.
    """
    x_k = np.asarray(x_k, dtype=float)
    for i in p.t_indices:
        if x_k[i] <= 0.0:
            raise ValueError(f"expansion point needs positive times (x[{i}] = {x_k[i]:g})")
    ev = p.evaluate(x_k)
    m = p.n_nonlinear
    H = ev.row_hessians()                       # the objective's last
    Hx = H @ x_k
    G = np.vstack((ev.G, ev.grad))
    const = np.append(ev.c, ev.f) - G @ x_k + 0.5 * (Hx @ x_k)
    g = G - Hx
    return QuadraticSubproblem(
        obj_const=float(const[-1]), obj_g=g[-1], obj_H=H[-1],
        con_const=np.concatenate((const[:m], -p.lin_b)),
        con_G=np.concatenate((g[:m], p.lin_A)),
        nl_H=H[:m], t_indices=p.t_indices, y_indices=p.y_indices,
    )


# ---------------------------------------------------------------------------
# Primal-dual interior-point method for the QCQP subproblem
# ---------------------------------------------------------------------------


# centring parameter: each step aims at _SIGMA times the duality measure
# (the scan that chose it is in the module docstring)
_SIGMA = 0.03
_IPM_TOL = 1e-8        # dual residual and duality measure target
_IPM_MAX_ITERS = 50
_FRAC = 0.99           # fraction-to-boundary scaling of the max step
_BACKTRACKS = 40       # step halvings before an interior-point solve gives up
# a Newton step whose exact limit falls below this on a subproblem with
# curved rows is corrected to second order (see the module docstring).
# Measured on the energy and distance grids and an edge set (X1 = 0, X1 =
# 1e-3, eta = w1 = 0, X1 = X2 = 0, d1 from 0.2 to 1.8): 0.4, 0.5 and 0.6
# keep every certificate and gain 5-6; 0.9 and correcting every step lose
# 3-4 X1 = 0 and X1 = 1e-3 certificates
_CORRECT_BELOW = 0.5


@dataclass
class SubproblemSolution:
    x: np.ndarray
    lam_constraints: np.ndarray   # multipliers of the subproblem rows, in order
    lam_bounds: np.ndarray        # multipliers for the nonnegativity bounds
    iters: int
    kkt_residual: float           # dual residual, subproblem metric
    gap: float                    # final duality measure
    converged: bool


def _step_limit(lam, dlam, s, p, q):
    """Largest alpha keeping every lam + alpha dlam and every row slack positive.

    Along the step, row j's slack is s_j - alpha p_j - alpha^2 q_j / 2, so its
    limit is the positive root where the row is curved (q_j > 0), else
    s_j / p_j where p_j > 0.  The rows lie on the last axis: one program's
    (J,) rows give one limit, the (K, J) rows of a stack one per program.
    """
    lims = np.full((3,) + s.shape, np.inf)
    np.divide(-lam, dlam, out=lims[0], where=dlam < 0.0)
    curved = q > 1e-14 * np.maximum(1.0, np.abs(p))
    root = np.sqrt(p * p + 2.0 * q * s, out=np.zeros(s.shape), where=curved)
    np.divide(-p + root, q, out=lims[1], where=curved)
    np.divide(s, p, out=lims[2], where=~curved & (p > 0.0))
    return lims.min(axis=(0, -1))


def _solve(M, rhs):
    """Solve M dx = rhs, a singular M bumped on its diagonal."""
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        n = len(M)
        bump = 1e-12 * max(1.0, float(np.trace(M)) / n)
        return np.linalg.solve(M + bump * np.eye(n), rhs)


def _solve_all(M, rhs):
    """`_solve` on every stacked system, a singular one regularized alone."""
    try:
        return np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return np.array([_solve(one, r) for one, r in zip(M, rhs)])


def _ipm(sub: QuadraticSubproblem, x: np.ndarray) -> SubproblemSolution:
    """Path-following solve of one QCQP subproblem from a strictly feasible x.

    The inequalities are stacked once: every row of `sub`, then -x_i <= 0 for
    each positive coordinate, as b0 + A x + 0.5 x^T nl_H[j] x <= 0 with the
    curvature on the first m rows only.
    """
    n, m = sub.n_vars, sub.n_nonlinear
    pos = list(sub.positive_indices)
    n_con = len(sub.con_const)
    A = np.concatenate((sub.con_G, -np.eye(n)[pos]))
    b0 = np.concatenate((sub.con_const, np.zeros(len(pos))))
    nl_H = sub.nl_H
    H_rows = nl_H.reshape(m, n * n)
    J = len(b0)

    def state(x_):
        """Slacks and gradients of every inequality at x_."""
        Hx = nl_H @ x_
        s_ = -(b0 + A @ x_)
        s_[:m] -= 0.5 * (Hx @ x_)
        grad_ = A.copy()
        grad_[:m] += Hx
        return s_, grad_

    def dual_residual(x_, lam_, grad_):
        return sub.obj_g + sub.obj_H @ x_ + grad_.T @ lam_

    s, grad = state(x)
    if s.min() <= 0.0:
        raise ValueError("interior-point start must be strictly feasible")
    lam = 1.0 / np.maximum(s, 1e-3)
    r_d = dual_residual(x, lam, grad)

    iters = 0
    for iters in range(1, _IPM_MAX_ITERS + 1):
        mu_hat = float(lam @ s) / J
        if float(np.abs(r_d).max()) <= _IPM_TOL and mu_hat <= _IPM_TOL:
            return SubproblemSolution(
                x=x, lam_constraints=lam[:n_con], lam_bounds=lam[n_con:],
                iters=iters - 1, kkt_residual=float(np.abs(r_d).max()),
                gap=mu_hat, converged=True,
            )
        target = _SIGMA * mu_hat

        # condensed Newton system for (dx, dlam); gap is the negated
        # complementarity residual
        gap = target - lam * s
        M = sub.obj_H + (lam[:m] @ H_rows).reshape(n, n) + grad.T @ (grad * (lam / s)[:, None])
        dx = _solve(M, -r_d - grad.T @ (gap / s))
        p = grad @ dx
        dlam = (gap + lam * p) / s

        # exact largest step keeping lam > 0 and every constraint negative
        q = np.zeros(J)
        q[:m] = (nl_H @ dx) @ dx
        limit = float(_step_limit(lam, dlam, s, p, q))
        if m and limit < _CORRECT_BELOW:
            # second-order correction: the same M, each curved slack taken
            # to second order along the first direction
            half = 0.5 * q
            dx = _solve(M, -r_d - grad.T @ ((gap + lam * half) / s))
            p = grad @ dx
            dlam = (gap + lam * (p + half)) / s
            q[:m] = (nl_H @ dx) @ dx
            limit = float(_step_limit(lam, dlam, s, p, q))
        alpha = min(1.0, _FRAC * min(1.0 / _FRAC, limit))

        # backtrack on the combined residual
        rnorm = math.sqrt(float(r_d @ r_d) + float(gap @ gap))
        for _ in range(_BACKTRACKS):
            x_try = x + alpha * dx
            lam_try = lam + alpha * dlam
            s_try, grad_try = state(x_try)
            if s_try.min() > 0.0 and lam_try.min() > 0.0:
                r_d_try = dual_residual(x_try, lam_try, grad_try)
                r_c = lam_try * s_try - target
                if math.sqrt(float(r_d_try @ r_d_try) + float(r_c @ r_c)) <= (1.0 - 0.01 * alpha) * rnorm:
                    break
            alpha *= 0.5
        else:
            break  # no productive step length found
        x, lam, s, grad, r_d = x_try, lam_try, s_try, grad_try, r_d_try

    mu_hat = float(lam @ s) / J
    res = float(np.abs(r_d).max())
    return SubproblemSolution(
        x=x, lam_constraints=lam[:n_con], lam_bounds=lam[n_con:],
        iters=iters, kkt_residual=res, gap=mu_hat,
        converged=res <= _IPM_TOL and mu_hat <= _IPM_TOL,
    )


def _rowdot(a, b):
    """a_k . b_k for every row k of two (K, J) arrays."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


class _Stack:
    """K subproblems of one shape as (K, ...) arrays: the objective (c0, g,
    H) and `_ipm`'s inequality rows b0 + A x + 0.5 x^T nl_H[j] x <= 0, the
    n_con rows of each subproblem, then -x_i <= 0 per positive coordinate.
    `stack[k]` is subproblem k."""

    def __init__(self, c0, g, H, A, b0, nl_H, n_con, t_indices, y_indices):
        self.c0, self.g, self.H, self.A, self.b0, self.nl_H = c0, g, H, A, b0, nl_H
        self.n_con, self.t_indices, self.y_indices = n_con, t_indices, y_indices

    def __getitem__(self, k) -> QuadraticSubproblem:
        return QuadraticSubproblem(
            obj_const=float(self.c0[k]), obj_g=self.g[k], obj_H=self.H[k],
            con_const=self.b0[k, :self.n_con], con_G=self.A[k, :self.n_con], nl_H=self.nl_H[k],
            t_indices=self.t_indices, y_indices=self.y_indices)

    def take(self, keep) -> "_Stack":
        """The subproblems at the positions `keep`."""
        out = copy.copy(self)
        for name in ("c0", "A", "b0", "nl_H", "g", "H"):
            setattr(out, name, getattr(self, name)[keep])
        return out

    def state(self, X):
        """Slacks and gradients of every inequality at the points X."""
        m = self.nl_H.shape[1]
        Hx = (self.nl_H @ X[:, None, :, None])[..., 0]
        S = -(self.b0 + (self.A @ X[:, :, None])[..., 0])
        S[:, :m] -= 0.5 * (Hx @ X[:, :, None])[..., 0]
        G = self.A.copy()
        G[:, :m] += Hx
        return S, G

    def dual_residual(self, X, L, G):
        return self.g + (self.H @ X[:, :, None])[..., 0] + (L[:, None, :] @ G)[:, 0]


def _ipm_many(st: _Stack, X) -> list[SubproblemSolution]:
    """`_ipm` on every subproblem of a `_Stack` at once, from the starts X (K, n), in order.

    Each Newton system is one of a (K, n, n) stack and every slack,
    gradient and trial is one array over (K, J) rows.  Every rule of
    `_ipm` holds per program: the stop test, the step limit, backtracking
    on its own combined residual and the iteration cap; each program
    leaves the stack at its own stop.
    """
    K, J = st.b0.shape
    n, m, n_con = st.g.shape[1], st.nl_H.shape[1], st.n_con
    live = np.arange(K)
    S, G = st.state(X)
    if S.min() <= 0.0:
        raise ValueError("interior-point start must be strictly feasible")
    L = 1.0 / np.maximum(S, 1e-3)
    R = st.dual_residual(X, L, G)
    out: list = [None] * K

    def leave(ks, iters, mu, res):
        for k in ks:
            out[live[k]] = SubproblemSolution(
                x=X[k], lam_constraints=L[k, :n_con], lam_bounds=L[k, n_con:], iters=iters,
                kkt_residual=float(res[k]), gap=float(mu[k]),
                converged=bool(res[k] <= _IPM_TOL and mu[k] <= _IPM_TOL))

    def keep(rows):
        nonlocal st, live, X, L, S, G, R
        st, live, X, L, S, G, R = st.take(rows), live[rows], X[rows], L[rows], S[rows], G[rows], R[rows]

    iters = 0
    for iters in range(1, _IPM_MAX_ITERS + 1):
        mu, res = _rowdot(L, S) / J, np.abs(R).max(1)
        done = (res <= _IPM_TOL) & (mu <= _IPM_TOL)
        if done.any():
            leave(np.flatnonzero(done), iters - 1, mu, res)
            if done.all():
                return out
            rows = np.flatnonzero(~done)
            keep(rows)
            mu, res = mu[rows], res[rows]
        target = _SIGMA * mu

        # condensed Newton systems for (dx, dlam)
        gap = target[:, None] - L * S
        Gt = G.transpose(0, 2, 1)
        M = (st.H + (L[:, None, :m] @ st.nl_H.reshape(len(X), m, n * n)).reshape(-1, n, n)
             + Gt @ (G * (L / S)[:, :, None]))
        dX = _solve_all(M, -R - (Gt @ (gap / S)[:, :, None])[..., 0])
        P = (G @ dX[:, :, None])[..., 0]
        dL = (gap + L * P) / S

        # exact largest steps keeping lam > 0 and every constraint negative
        Q = np.zeros_like(S)
        Q[:, :m] = ((st.nl_H @ dX[:, None, :, None])[..., 0] @ dX[:, :, None])[..., 0]
        limit = _step_limit(L, dL, S, P, Q)
        fix = np.flatnonzero(limit < _CORRECT_BELOW) if m else ()
        if len(fix):
            # `_ipm`'s second-order correction, on the programs that need it
            half, Lf, Sf, gapf = 0.5 * Q[fix], L[fix], S[fix], gap[fix]
            dXf = _solve_all(M[fix], -R[fix] - (Gt[fix] @ ((gapf + Lf * half) / Sf)[:, :, None])[..., 0])
            Pf = (G[fix] @ dXf[:, :, None])[..., 0]
            dLf = (gapf + Lf * (Pf + half)) / Sf
            Qf = np.zeros_like(Sf)
            Qf[:, :m] = ((st.nl_H[fix] @ dXf[:, None, :, None])[..., 0] @ dXf[:, :, None])[..., 0]
            dX[fix], dL[fix] = dXf, dLf
            limit[fix] = _step_limit(Lf, dLf, Sf, Pf, Qf)
        alpha = np.minimum(1.0, _FRAC * np.minimum(1.0 / _FRAC, limit))

        # backtrack every program on its own combined residual
        rnorm = np.sqrt(_rowdot(R, R) + _rowdot(gap, gap))
        search = slice(None)        # every program, then those still searching
        trial, new = st, None
        for _ in range(_BACKTRACKS):
            a = alpha[search]
            X_try = X[search] + a[:, None] * dX[search]
            L_try = L[search] + a[:, None] * dL[search]
            S_try, G_try = trial.state(X_try)
            R_try = trial.dual_residual(X_try, L_try, G_try)
            Rc = L_try * S_try - target[search, None]
            ok = ((S_try.min(1) > 0.0) & (L_try.min(1) > 0.0)
                  & (np.sqrt(_rowdot(R_try, R_try) + _rowdot(Rc, Rc)) <= (1.0 - 0.01 * a) * rnorm[search]))
            if new is None:
                new, search = [X_try, L_try, S_try, G_try, R_try], np.flatnonzero(~ok)
            else:
                for arr, tried in zip(new, (X_try, L_try, S_try, G_try, R_try)):
                    arr[search[ok]] = tried[ok]
                search = search[~ok]
            if not search.size:
                break
            alpha[search] *= 0.5
            trial = st.take(search)
        if search.size:
            # no productive step length found: these programs stop where they are
            leave(search, iters, mu, res)
        X, L, S, G, R = new
        if search.size:
            rows = np.setdiff1d(np.arange(len(X)), search)
            if not rows.size:
                return out
            keep(rows)

    leave(range(len(X)), iters, _rowdot(L, S) / J, np.abs(R).max(1))
    return out


# ---------------------------------------------------------------------------
# Outer loop
# ---------------------------------------------------------------------------


def _under_caps(p: ConvexProgram, x: np.ndarray, backoff: float) -> np.ndarray:
    """x with each rate variable at most its epigraph cap at x, less
    `backoff` (1 + |cap|): 0 pulls the rates onto the true feasible region,
    a positive back-off recenters them so every subproblem row starts slack."""
    x = x.copy()
    for aux, bound in aux_bounds(p, x).items():
        x[aux] = min(x[aux], bound) - backoff * (1.0 + abs(bound))
    return x


# the interior-point start keeps each rate this far (relative) below its cap
_IPM_BACKOFF = 1e-3


# trust region schedule: the quadratic model of a log is only locally
# faithful, so steps are boxed around the expansion point and the box is
# grown or shrunk on the ratio of actual to predicted descent
_TR_DELTA0 = 0.8
_TR_SHRINK = 0.25
_TR_GROW = 2.0
_TR_FREE = 50.0      # radius factor beyond which the box is dropped entirely
_TR_RETRIES = 4

_T_SCALE_FLOOR = 0.05     # slot fractions live on (0, 1)


def _box_floors(p: ConvexProgram) -> np.ndarray:
    """Smallest box half-width scale of each of `positive_indices`.

    Times use the slot floor, energies 2% of their best-case budget cap.
    """
    caps = energy_caps(p)
    return np.array([_T_SCALE_FLOOR] * len(p.t_indices) + [
        0.02 * caps[i] if math.isfinite(caps[i]) and caps[i] > 0.0 else 1.0 for i in p.y_indices])


def _with_trust_region(sub: QuadraticSubproblem, center: np.ndarray,
                       delta: float, floors: np.ndarray) -> QuadraticSubproblem:
    """`sub` with the box around `center` appended: x_i <= hi_i, then -x_i <= -lo_i, per coordinate."""
    idx = list(sub.positive_indices)
    c = center[idx]
    r = delta * np.maximum(np.abs(c), floors)
    # the lower edge never reaches zero (the interior-point iterates keep
    # c > 0): a log term frozen at the origin cannot be revived by a local
    # quadratic model
    lo = np.maximum(c - r, 0.25 * c)
    eye = np.eye(sub.n_vars)[idx]
    rows = np.stack((eye, -eye), axis=1).reshape(-1, sub.n_vars)
    const = np.column_stack((-(c + r), lo)).ravel()
    return replace(sub, con_const=np.concatenate((sub.con_const, const)),
                   con_G=np.concatenate((sub.con_G, rows)))


def _settle_unused_slots(p: ConvexProgram, x: np.ndarray, lam_nl, lam_lin) -> np.ndarray:
    """Put each slot whose time is below `_T_FLOOR` on the ray its multipliers ask for.

    Such a slot sits at the corner t = y = 0 of its perspective terms, where
    the gradient depends on y/t alone, and its model was built at a lifted
    time, so the interior-point steps leave y/t at noise.  With the row
    multipliers w_k (1 for the objective) the corner is optimal on the ray
    r = y/t where the energy needs no bound multiplier,

        a_y = sum_k w_k c_k gamma_k / (1 + gamma_k r),

    a_y being the pull of the objective and linear rows on y.  The slot moves
    onto that ray by shrinking t or y, and the rates are clamped after it.
    """
    pull = p.objective_linear + p.lin_A.T @ lam_lin
    w = list(lam_nl) + [1.0]
    slots: dict[tuple[int, int], list] = {}
    for row, gamma, coeff, ti, yi in p.term_table:
        if x[ti] < _T_FLOOR:
            slots.setdefault((ti, yi), []).append((w[row] * coeff, gamma))
    if not slots:
        return x
    new = x.copy()
    for (ti, yi), terms in slots.items():
        a = pull[yi]

        def excess(r):
            return sum(wc * g / (1.0 + g * r) for wc, g in terms) - a

        if a <= 0.0:
            continue                # no ray frees the energy's bound
        lo, hi = 0.0, sum(wc for wc, _ in terms) / a
        if excess(lo) <= 0.0:
            hi = 0.0
        for _ in range(100):        # excess falls in r: bisect its root
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
        if hi * new[ti] <= new[yi]:
            new[yi] = hi * new[ti]
        else:
            new[ti] = new[yi] / hi
    new = _under_caps(p, new, 0.0)
    return new if p.max_violation(new) <= max(p.max_violation(x), 0.0) else x


def _expansion_point(p: ConvexProgram, x: np.ndarray) -> np.ndarray:
    """x with every time lifted to at least `_T_FLOOR`."""
    x = x.copy()
    t = list(p.t_indices)
    x[t] = np.maximum(x[t], _T_FLOOR)
    return x


class _Ask(NamedTuple):
    """What a solve's rounds need next: the model of `program` around x, boxed
    by `delta` unless it is None, solved from x under its caps (`_IPM_BACKOFF`)."""

    program: ConvexProgram
    floors: np.ndarray          # `_box_floors(program)`
    x: np.ndarray
    delta: float | None


class _Reply(NamedTuple):
    """The answer to an `_Ask`: the subproblem's solution and, when it
    converged, the point under its caps and the objective values the
    acceptance test reads (NaN otherwise)."""

    sol: SubproblemSolution
    cand: np.ndarray | None     # `_under_caps(program, sol.x, 0.0)`
    f_model: float              # the (boxless) model's objective at sol.x
    f_cand: float               # objective at cand


def _rounds(program: ConvexProgram):
    """One solve's rounds as a generator: it yields an `_Ask` for every
    subproblem it needs solved, is sent back its `_Reply`, and returns the
    `SolveResult`.

    `outer_iters` on the result counts the rounds that moved x by more than
    `_SETTLE_TOL` when the rounds settle, and every round when they do not.
    """
    started = start(program)
    if started is None:
        return SolveResult.infeasible("quad")
    pre, x = started
    red = pre.program
    floors = _box_floors(red)
    f_x = red.objective_value(x)    # after this, the accepted reply's f_cand

    inner_total = 0
    rounds = 0
    moves = 0
    settled = False
    sol = None
    # a program without perspective terms is its own quadratic model, so
    # the box would only slow the one exact solve down
    has_models = bool(red.term_table)
    delta = _TR_DELTA0 if has_models else _TR_FREE
    for rounds in range(1, MAX_ROUNDS + 1):
        step = None
        for _ in range(_TR_RETRIES + 1):
            reply = yield _Ask(red, floors, x, None if delta >= _TR_FREE else delta)
            sol = reply.sol
            inner_total += sol.iters
            if not sol.converged:
                delta *= _TR_SHRINK
                continue
            pred = f_x - reply.f_model
            act = f_x - reply.f_cand
            if pred <= 1e-12 * (1.0 + abs(f_x)):
                break               # the model itself sees no descent around x
            if act >= 1e-3 * pred:
                step = reply
                if act >= 0.7 * pred:
                    delta = min(delta * _TR_GROW, _TR_FREE)
                break
            delta *= _TR_SHRINK
        if step is not None:
            dif = float(np.linalg.norm(step.cand - x))
            x, f_x = step.cand, step.f_cand
        if step is None or dif <= _SETTLE_TOL:
            settled = True
            break
        moves += 1

    if settled:
        # boxless rebuilds from the settled point: each accepted round is a
        # Newton step on the true stationarity system, so one of them
        # polishes the coordinates and yields multipliers for the true
        # constraint set; another runs only when that one still moved
        for _ in range(3):
            reply = yield _Ask(red, floors, x, None)
            clean = reply.sol
            inner_total += clean.iters
            if not clean.converged:
                break
            move = float(np.linalg.norm(reply.cand - x))
            # a centred rebuild reads worse than a boundary-hugging iterate
            # by up to its own complementarity offset, lam . s = J * gap, so
            # the deterioration guard sits above that offset
            worse = max(1e-8 * (1.0 + abs(f_x)),
                        (len(clean.lam_constraints) + len(clean.lam_bounds)) * clean.gap)
            if move > 50.0 * _SETTLE_TOL or reply.f_cand > f_x + worse:
                break
            x, f_x, sol = reply.cand, reply.f_cand, clean
            if move <= _SETTLE_TOL:
                break

    seeds = None
    if sol is not None and sol.converged:
        # the subproblem duals certify the model, not the program: any
        # trust-region rows and the expansion-point shift land in the
        # residual, which `finish` refines against the true gradients.  On
        # a flat optimal face the rounds can settle while a slot still
        # crawls towards t = 0, where the gradient does not certify it
        n_nl, n_lin = red.n_nonlinear, len(red.lin_b)
        seeds = (sol.lam_constraints[:n_nl], sol.lam_constraints[n_nl:n_nl + n_lin], sol.lam_bounds)
        x = _settle_unused_slots(red, x, *seeds[:2])
    return finish(program, pre, x, seeds, settled, "quad",
                  moves if settled else rounds, inner_total)


def _answer(ask: _Ask) -> _Reply:
    """An ask answered with the scalar `quadratize`, `_with_trust_region`
    and `_ipm`."""
    red, x = ask.program, ask.x
    sub0 = quadratize(red, _expansion_point(red, x))
    sub = sub0 if ask.delta is None else _with_trust_region(sub0, x, ask.delta, ask.floors)
    sol = _ipm(sub, _under_caps(red, x, _IPM_BACKOFF))
    if not sol.converged:
        return _Reply(sol, None, math.nan, math.nan)
    cand = _under_caps(red, sol.x, 0.0)
    return _Reply(sol, cand, sub0.objective_value(sol.x), red.objective_value(cand))


def _stacked_under_caps(ps: ProgramStack, X, sums, backoff: float):
    """`_under_caps` on every row of X, `sums` the row sums there."""
    cap = -sums[:, :-1]
    rows, cols = [], []         # each rate's first row
    for j, aux in enumerate(ps.aux_index):
        if aux in cols:
            k = rows[cols.index(aux)]
            cap[:, k] = np.where(cap[:, k] < cap[:, j], cap[:, k], cap[:, j])
        else:
            rows.append(j)
            cols.append(aux)
    cap, rates = cap[:, rows], X[:, cols]
    X = X.copy()
    X[:, cols] = np.where(cap < rates, cap, rates) - backoff * (1.0 + np.abs(cap))
    return X


def _answer_stack(ps: ProgramStack, floors, asks) -> list[_Reply]:
    """The asks of the K programs of `ps`, all boxed or all boxless, answered
    together with the bits of `_answer`: one stacked pass builds every
    model as `quadratize` and `_with_trust_region` would, `_ipm_many`
    solves them and one more pass takes the objective at the new points."""
    red = asks[0].program
    m, n = red.n_nonlinear, red.n_vars
    pos = list(red.positive_indices)
    X = np.array([ask.x for ask in asks])
    K = len(X)

    # the models around the expansion points, as `quadratize` builds them
    E, t = X, list(red.t_indices)
    if X[:, t].min(initial=_T_FLOOR) < _T_FLOOR:
        E = X.copy()
        E[:, t] = np.maximum(X[:, t], _T_FLOOR)
    sums, grads, factors = ps.derivatives(*ps.terms(E)[:2])
    H = ps.row_hessians(factors)
    Hx = (H @ E[:, None, :, None])[..., 0]
    f = np.concatenate((E[:, list(red.aux_index)] + sums[:, :-1],
                        (_rowdot(ps.q, E) + sums[:, -1])[:, None]), 1)
    const = f - (grads @ E[:, :, None])[..., 0] + 0.5 * (Hx @ E[:, :, None])[..., 0]
    g = grads - Hx
    eye = np.eye(n)[pos]
    A = [g[:, :m], ps.lin_A]
    b0 = [const[:, :m], -ps.lin_b]
    if asks[0].delta is not None:
        c = X[:, pos]
        r = np.array([ask.delta for ask in asks])[:, None] * np.maximum(np.abs(c), floors)
        A.append(np.broadcast_to(np.stack((eye, -eye), axis=1).reshape(-1, n), (K, 2 * len(pos), n)))
        b0.append(np.stack((-(c + r), np.maximum(c - r, 0.25 * c)), 2).reshape(K, -1))
    n_con = sum(rows.shape[1] for rows in A)
    A.append(np.broadcast_to(-eye, (K, len(pos), n)))
    b0.append(np.zeros((K, len(pos))))
    st = _Stack(const[:, m], g[:, m], H[:, m], np.concatenate(A, 1), np.concatenate(b0, 1), H[:, :m],
                n_con, red.t_indices, red.y_indices)

    if E is not X:
        sums = ps.row_sums(*ps.terms(X)[:2])
    sols = _ipm_many(st, _stacked_under_caps(ps, X, sums, _IPM_BACKOFF))

    # sol.x is strictly interior whether or not the solve converged
    X_sol = np.array([sol.x for sol in sols])
    sums = ps.row_sums(*ps.terms(X_sol)[:2])
    cand = _stacked_under_caps(ps, X_sol, sums, 0.0)
    f_cand = (_rowdot(ps.q, cand) + sums[:, -1]).tolist()
    # each model's objective at its solution, as `QuadraticSubproblem.objective_value`
    HX = (st.H @ X_sol[:, :, None])[..., 0]
    f_model = (st.c0 + _rowdot(st.g, X_sol) + 0.5 * _rowdot(X_sol, HX)).tolist()
    return [_Reply(sol, cand[k], f_model[k], f_cand[k]) if sol.converged
            else _Reply(sol, None, math.nan, math.nan) for k, sol in enumerate(sols)]


def solve_iterative(program: ConvexProgram) -> SolveResult:
    """Repeated quadratization until the solution stops moving: a lockstep
    solve of one, whose every subproblem is built and solved by `_answer`."""
    return solve_iterative_many([program])[0]


def solve_iterative_many(programs) -> list[SolveResult]:
    """`solve_iterative` on each program, in order, their rounds stepped together.

    Every program runs its own rounds; each waits on an ask until it is
    answered.  The waiting asks are grouped by `stack_key` and by whether
    they are boxed: a group of at least LOCKSTEP_MIN is answered by one
    `_answer_stack` on a `ProgramStack` of its programs, every other ask by
    `_answer`.  Boxless asks (the polish rebuilds) wait while any ask is
    boxed, so that the programs that settle in different rounds polish in
    one stack.
    """
    results: list = [None] * len(programs)
    running = dict(enumerate(map(_rounds, programs)))
    replies: dict = dict.fromkeys(running)      # what the answered programs' rounds are sent next
    asks: dict = {}
    stacks: dict = {}       # stack_key -> (ProgramStack, box floors, {program: position})
    keys: dict = {}
    while running:
        for i, reply in replies.items():
            try:
                asks[i] = running[i].send(reply)
            except StopIteration as done:
                results[i] = done.value
                del running[i]
        replies = {}
        if not keys:
            # the first asks carry every reduced program
            layouts: dict = {}
            for i, ask in asks.items():
                keys[i] = stack_key(ask.program)
                layouts.setdefault(keys[i], []).append(i)
            for key, members in layouts.items():
                if len(members) >= LOCKSTEP_MIN:
                    stacks[key] = (ProgramStack([asks[i].program for i in members], scalar_log1p),
                                   np.array([asks[i].floors for i in members]),
                                   {i: k for k, i in enumerate(members)})
        groups: dict = {}
        for i in sorted(asks):
            groups.setdefault((keys[i], asks[i].delta is None), []).append(i)
        if not all(free for _, free in groups):
            groups = {group: members for group, members in groups.items() if not group[1]}
        for (key, _), members in groups.items():
            if len(members) >= LOCKSTEP_MIN:
                ps, floors, position = stacks[key]
                rows = [position[i] for i in members]
                if len(rows) < len(position):
                    ps, floors = ps.take(rows), floors[rows]
                replies.update(zip(members, _answer_stack(ps, floors, [asks.pop(i) for i in members])))
            else:
                replies.update((i, _answer(asks.pop(i))) for i in members)
    return results
