"""quad: iterated quadratic models, each solved by a primal-dual interior point.

Every row of the program (the objective and each epigraph row) is replaced
by its second-order model around the current point (`quadratize`), which
turns the program into a small convex QCQP; a trust-region box around the
point is appended as +-e_i rows.  The interior point (`_ipm` and its rules,
`_ipm_many` on a `_Stack`) solves it, the model is rebuilt at each accepted
point until the rounds (`_rounds`) settle, and `program.finish` builds the
result from the last converged subproblem's duals.  `_drive` steps the
rounds of one `stack_key` on a `_Layout`, and `_answer` answers their
waiting asks together.  Each rule is stated once, where it is applied, with
the PR whose CHANGES.md entry holds its numbers.  A solve takes only its
program: the tuning values are module constants, read at call time.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .program import (
    ConvexProgram,
    ProgramStack,
    SolveResult,
    all_positive,
    aux_bounds,
    energy_caps,
    regularized_solve,
    solve_many,
)

# expansion points are lifted this far off the t = 0 boundary to keep the
# model curvature finite
_T_FLOOR = 1e-9
# the rounds settle once two successive solutions are this close
_SETTLE_TOL = 1e-6
# quadratization rounds per solve
MAX_ROUNDS = 50


def quadratize(ps: ProgramStack, E: np.ndarray):
    """Second-order model of every row of the stacked programs around the points E (K, n).

    Returns (const, g, H, sums): the models as (K, m+1, ...) arrays, the
    epigraph rows first and the objective last, row j's model c + G.(x - e)
    + 0.5 (x - e)^T H (x - e) stored expanded as const[k, j] + g[k, j].x +
    0.5 x^T H[k, j] x; and the rows' term sums at E (`ProgramStack.row_sums`).
    Each term adds coeff * v v^T to its row's H (v its rank-one Hessian
    factor), whatever the company it is stacked in; a lone solve takes this
    pass too, a few percent slower than a scalar pass would be (PR 32).
    """
    t, y, aux = ps.terms(E)
    if t.min(initial=math.inf) <= 0.0:
        raise ValueError("expansion point needs positive times")
    sums, grads, factors = ps.derivatives(t, y)
    H = ps.row_hessians(factors)
    Hx = (H @ E[:, None, :, None])[..., 0]
    f = np.concatenate((aux + sums[:, :-1], (_rowdot(ps.q, E) + sums[:, -1])[:, None]), 1)
    const = f - (grads @ E[:, :, None])[..., 0] + 0.5 * (Hx @ E[:, :, None])[..., 0]
    return const, grads - Hx, H, sums


# ---------------------------------------------------------------------------
# Primal-dual interior-point method for the QCQP subproblem
# ---------------------------------------------------------------------------


# centring parameter: each step aims at _SIGMA times the duality measure, so
# from a cold start (every subproblem but a loose boxed one: `_ipm`) it sets
# most iteration counts; long-step path following
# allows far less than 0.1 (Wright, Primal-Dual Interior-Point Methods, SIAM
# 1997, ch. 5), and this is the least of PR 18's scan keeping every certificate
_SIGMA = 0.03
_IPM_TOL = 1e-8        # dual residual and duality measure target
_IPM_MAX_ITERS = 50
_FRAC = 0.99           # fraction-to-boundary scaling of the max step
_BACKTRACKS = 40       # step halvings before an interior-point solve gives up
# a Newton step whose exact limit falls below this on a subproblem with
# curved rows is corrected to second order (`_ipm`); mid-range, since
# correcting nearly every step loses certificates (PR 17)
_CORRECT_BELOW = 0.5
# a singular Newton system is solved with this times max(1, trace / n) on its diagonal
_REGULARIZE = 1e-12
# a warm start keeps each multiplier at least this times its cold value (`_ipm`)
_WARM_FLOOR = 1e-3


@dataclass
class SubproblemSolution:
    x: np.ndarray
    lam: np.ndarray               # multipliers of every subproblem row, in `_Stack` order
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


def _float_step_limit(lam, dlam, s, p, q) -> float:
    """`_step_limit` on one program's rows as lists of Python floats, bit for
    bit: the same expressions in the same order, without numpy's cost per
    call.  The first len(q) rows are curved by q, the others straight.  A
    NaN limit of any row makes the limit NaN, as in `np.min`."""
    lims = [-lam_j / dlam_j for lam_j, dlam_j in zip(lam, dlam) if dlam_j < 0.0]
    for s_j, p_j, q_j in zip(s, p, q):
        # max(NaN, 1.0) is NaN, as np.maximum's, so a NaN p is not curved
        if q_j > 1e-14 * max(abs(p_j), 1.0):
            disc = p_j * p_j + 2.0 * q_j * s_j
            lims.append((-p_j + math.sqrt(disc)) / q_j if disc >= 0.0 else math.nan)
        elif p_j > 0.0:
            lims.append(s_j / p_j)
    m = len(q)
    lims += [s_j / p_j for s_j, p_j in zip(s[m:], p[m:]) if p_j > 0.0]
    # Python's min skips a NaN that is not first; the sum carries any NaN
    if math.isnan(sum(lims)) and any(v != v for v in lims):
        return math.nan
    return min(lims, default=math.inf)


def _start_multipliers(S, W):
    """The first multipliers at the slacks S from the warm rows W (NaN: cold): `_ipm`'s start."""
    L = 1.0 / np.maximum(S, 1e-3)
    return np.where(np.isnan(W), L, np.maximum(W, _WARM_FLOOR * L))


class _Stack:
    """K subproblems of one shape as (K, ...) arrays: the objective (c0, g, H),
    the inequality rows b0 + A x + 0.5 x^T nl_H[j] x <= 0 (the m curved ones
    with their Hessians nl_H, the linear ones, any trust-region box, then
    -x_i <= 0 per positive coordinate), the (K,) stop tolerances `tol` of
    the interior point (`_IPM_TOL` unless given) and the (K, J) multipliers
    `warm` it starts from (`_start_multipliers`; a NaN row, the default,
    starts cold)."""

    def __init__(self, c0, g, H, A, b0, nl_H, tol=None, warm=None):
        self.c0, self.g, self.H, self.A, self.b0, self.nl_H = c0, g, H, A, b0, nl_H
        self.tol = np.full(len(c0), _IPM_TOL) if tol is None else np.asarray(tol, dtype=float)
        self.warm = np.full(b0.shape, math.nan) if warm is None else np.asarray(warm, dtype=float)

    def take(self, keep) -> "_Stack":
        """The subproblems at the positions `keep`."""
        out = copy.copy(self)
        for name in ("c0", "A", "b0", "nl_H", "g", "H", "tol", "warm"):
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


def _ipm(st: _Stack, x: np.ndarray) -> SubproblemSolution:
    """Path-following solve of the one subproblem of `st` from a strictly
    feasible x, to its tolerance `st.tol[0]`; the rules of `_ipm_many` too.

    A solve starts cold, lam = 1 / max(s, 1e-3), unless `st.warm[0]` holds
    warm rows: then lam is those, each floored at _WARM_FLOOR times its cold
    value (a shift off the boundary: Yildirim & Wright, SIAM J. Optim. 12(3),
    2002).  `_rounds` warms only a loose boxed ask, from its solve's last
    converged boxed subproblem (scan in CHANGES.md).  The Newton direction
    linearizes each curved slack as s - alpha p, while along the step it is
    s - alpha p - alpha^2 q / 2 (q = dx^T nl_H[j] dx); where the exact step
    limit falls below _CORRECT_BELOW, the step is corrected to second order
    (Nocedal & Wright, Numerical Optimization, 2nd ed., 15.6 and 19.3): the
    same Newton matrix is solved again with the complementarity residual
    shifted by lam q / 2 of the first direction.  Without it the steps
    crawl along a curved row at short step lengths (PR 17).  On a stack of
    one it gives `_ipm_many`'s bits in less than half the time: numpy calls
    on (J,) rows cost less, and it takes the step limit and sign tests on
    Python floats (`_float_step_limit`, `all_positive`; PR 23).
    """
    g, H, A, b0, nl_H, tol = st.g[0], st.H[0], st.A[0], st.b0[0], st.nl_H[0], float(st.tol[0])
    n, m = len(g), len(nl_H)
    H_rows = nl_H.reshape(m, n * n)
    J = len(b0)

    def state(x_):
        """Slacks and gradients of every inequality at x_."""
        if not m:       # the gradients are A's rows; skip the empty curved-row calls
            return -(b0 + A @ x_), A
        Hx = nl_H @ x_
        s_ = -(b0 + A @ x_)
        s_[:m] -= 0.5 * (Hx @ x_)
        grad_ = A.copy()
        grad_[:m] += Hx
        return s_, grad_

    def dual_residual(x_, lam_, grad_):
        return g + H @ x_ + grad_.T @ lam_

    s, grad = state(x)
    if s.min() <= 0.0:
        raise ValueError("interior-point start must be strictly feasible")
    lam = _start_multipliers(s, st.warm[0])
    r_d = dual_residual(x, lam, grad)
    lam_f, s_f = lam.tolist(), s.tolist()

    iters = 0
    for iters in range(1, _IPM_MAX_ITERS + 1):
        mu_hat = float(lam @ s) / J
        if mu_hat <= tol and (res := float(np.abs(r_d).max())) <= tol:
            return SubproblemSolution(
                x=x, lam=lam, iters=iters - 1, kkt_residual=res, gap=mu_hat, converged=True,
            )
        target = _SIGMA * mu_hat

        # condensed Newton system for (dx, dlam); gap is the negated
        # complementarity residual
        gap = target - lam * s
        M = H + (lam[:m] @ H_rows).reshape(n, n) + grad.T @ (grad * (lam / s)[:, None])
        dx, _ = regularized_solve(M, -r_d - grad.T @ (gap / s), _REGULARIZE)
        p = grad @ dx
        dlam = (gap + lam * p) / s

        # exact largest step keeping lam > 0 and every constraint negative;
        # q of the curved rows, the others' is 0
        q = (nl_H @ dx) @ dx
        limit = _float_step_limit(lam_f, dlam.tolist(), s_f, p.tolist(), q.tolist())
        if m and limit < _CORRECT_BELOW:
            # second-order correction: the same M, each curved slack taken
            # to second order along the first direction
            half = np.zeros(J)
            half[:m] = 0.5 * q
            dx, _ = regularized_solve(M, -r_d - grad.T @ ((gap + lam * half) / s), _REGULARIZE)
            p = grad @ dx
            dlam = (gap + lam * (p + half)) / s
            q = (nl_H @ dx) @ dx
            limit = _float_step_limit(lam_f, dlam.tolist(), s_f, p.tolist(), q.tolist())
        alpha = min(1.0, _FRAC * min(1.0 / _FRAC, limit))

        # backtrack on the combined residual
        rnorm = math.sqrt(float(r_d @ r_d) + float(gap @ gap))
        for _ in range(_BACKTRACKS):
            x_try = x + alpha * dx
            lam_try = lam + alpha * dlam
            s_try, grad_try = state(x_try)
            s_try_f, lam_try_f = s_try.tolist(), lam_try.tolist()
            if all_positive(s_try_f) and all_positive(lam_try_f):
                r_d_try = dual_residual(x_try, lam_try, grad_try)
                r_c = lam_try * s_try - target
                if math.sqrt(float(r_d_try @ r_d_try) + float(r_c @ r_c)) <= (1.0 - 0.01 * alpha) * rnorm:
                    break
            alpha *= 0.5
        else:
            break  # no productive step length found
        x, lam, s, grad, r_d = x_try, lam_try, s_try, grad_try, r_d_try
        lam_f, s_f = lam_try_f, s_try_f

    mu_hat = float(lam @ s) / J
    res = float(np.abs(r_d).max())
    return SubproblemSolution(
        x=x, lam=lam, iters=iters, kkt_residual=res, gap=mu_hat,
        converged=res <= tol and mu_hat <= tol,
    )


def _rowdot(a, b):
    """a_k . b_k for every row k of two (K, J) arrays."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _ipm_many(st: _Stack, X) -> list[SubproblemSolution]:
    """`_ipm` on every subproblem of a `_Stack` at once, from the starts X (K, n), in
    order: each Newton system one of a (K, n, n) stack, every slack, gradient and
    trial one array over (K, J) rows, every rule of `_ipm` kept per program, and
    each program leaving the stack at its own stop."""
    K, J = st.b0.shape
    n, m = st.g.shape[1], st.nl_H.shape[1]
    live = np.arange(K)
    S, G = st.state(X)
    if S.min() <= 0.0:
        raise ValueError("interior-point start must be strictly feasible")
    L = _start_multipliers(S, st.warm)
    R = st.dual_residual(X, L, G)
    out: list = [None] * K

    def leave(ks, iters, mu, res):
        for k in ks:
            out[live[k]] = SubproblemSolution(
                x=X[k], lam=L[k], iters=iters,
                kkt_residual=float(res[k]), gap=float(mu[k]),
                converged=bool(res[k] <= st.tol[k] and mu[k] <= st.tol[k]))

    def keep(rows):
        nonlocal st, live, X, L, S, G, R
        st, live, X, L, S, G, R = st.take(rows), live[rows], X[rows], L[rows], S[rows], G[rows], R[rows]

    iters = 0
    for iters in range(1, _IPM_MAX_ITERS + 1):
        mu, res = _rowdot(L, S) / J, np.abs(R).max(1)
        done = (res <= st.tol) & (mu <= st.tol)
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
        dX = regularized_solve(M, -R[:, :, None] - Gt @ (gap / S)[:, :, None], _REGULARIZE)[0][..., 0]
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
            rhs = -R[fix, :, None] - Gt[fix] @ ((gapf + Lf * half) / Sf)[:, :, None]
            dXf = regularized_solve(M[fix], rhs, _REGULARIZE)[0][..., 0]
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


def _under_caps(aux_index, X, sums, backoff: float) -> np.ndarray:
    """The points X (K, n) with each rate variable at most its tightest
    epigraph cap, less `backoff` (1 + |cap|): 0 pulls the rates onto the
    true feasible region, a positive back-off recenters them so every
    subproblem row starts slack.  `sums` (K, m+1) are the term row sums at
    X.  It runs on Python floats, row by row: at the few programs of a
    stack, numpy's per-call cost makes the same rule on arrays slower."""
    out = X.tolist()
    for x, row_sums in zip(out, sums.tolist()):
        for aux, cap in aux_bounds(aux_index, row_sums).items():
            x[aux] = min(x[aux], cap) - backoff * (1.0 + abs(cap))
    return np.array(out)


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
    """Smallest box half-width scale of each of `positive_indices`: the slot
    floor for times, 2% of their best-case budget cap for energies."""
    caps = energy_caps(p)
    return np.array([_T_SCALE_FLOOR] * len(p.t_indices) + [
        0.02 * caps[i] if math.isfinite(caps[i]) and caps[i] > 0.0 else 1.0 for i in p.y_indices])


def _settle_unused_slots(p: ConvexProgram, x: np.ndarray, lam) -> np.ndarray:
    """Put each slot whose time is below `_T_FLOOR` on the ray its multipliers ask for.

    Such a slot sits at the corner t = y = 0 of its perspective terms, where
    the gradient depends on y/t alone, and its model was built at a lifted
    time, so the interior-point steps leave y/t at noise.  With the row
    multipliers w_k (1 for the objective) the corner is optimal on the ray
    r = y/t where the energy needs no bound multiplier,

        a_y = sum_k w_k c_k gamma_k / (1 + gamma_k r),

    a_y being the pull of the objective and linear rows on y.  The slot moves
    onto that ray by shrinking t or y, and the rates are clamped after it.
    A move longer than _SETTLE_TOL is refused: that slot still holds energy
    the rounds have not placed, and discarding it can pass the certificate
    below the optimum (PR 23).
    """
    m = p.n_nonlinear
    pull = p.objective_linear + p.lin_A.T @ lam[m:m + len(p.lin_b)]
    w = list(lam[:m]) + [1.0]
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
    new = _under_caps(p.aux_index, new[None], np.array([p.term_sums(new.tolist())]), 0.0)[0]
    if float(np.linalg.norm(new - x)) > _SETTLE_TOL:
        return x
    return new if p.max_violation(new) <= max(p.max_violation(x), 0.0) else x


class _Ask(NamedTuple):
    """What a solve's rounds need next: the model of its program around x, boxed
    by `delta` unless it is None, solved from x under its caps (`_IPM_BACKOFF`)
    to the interior-point tolerance `tol` (`_IPM_TOL` on a boxless ask), its
    multipliers started from `warm` (None: cold; `_ipm`)."""

    x: np.ndarray
    delta: float | None
    tol: float
    warm: np.ndarray | None = None


class _Reply(NamedTuple):
    """The answer to an `_Ask`: the subproblem's solution and, when it
    converged, the point under its caps and the objective values the
    acceptance test reads (NaN otherwise)."""

    sol: SubproblemSolution
    cand: np.ndarray | None     # sol.x under its caps (`_under_caps`, no back-off)
    f_model: float              # the (boxless) model's objective at sol.x
    f_cand: float               # objective at cand


def _forcing_tol(last: float) -> float:
    """The interior-point tolerance of a boxed ask after an accepted move of
    norm `last` (inf before the first): loose while the moves are long, since
    the model of a long step is thrown away in the next round (a forcing rule:
    Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19(2), 1982; PR 33)."""
    return max(_IPM_TOL, min(1e-2, 1e-2 * last * last))


def _rounds(red: ConvexProgram, x: np.ndarray):
    """The rounds of one reduced program from its start x as a generator: it
    yields an `_Ask` for every subproblem it needs solved, is sent back its
    `_Reply`, and returns the (x, seeds, converged, outer, inner, tau) of
    `program.finish`.

    The rounds settle when a round's model sees no descent around x, when
    none of its boxes gives an acceptable step (x is then stationary for its
    model, and is tested, not abandoned: Conn, Gould & Toint, Trust-Region
    Methods, SIAM 2000, ch. 6), or when its step moves x by at most
    _SETTLE_TOL; only MAX_ROUNDS leaves a solve unsettled.  A round that
    would settle on a loosely solved subproblem asks again at _IPM_TOL
    instead, since settling on a loose one lost grid certificates (PR 33).
    Boxless rebuilds then polish the settled point (PR 18).
    """
    f_x = red.objective_value(x)    # after this, the accepted reply's f_cand

    inner_total = 0
    rounds = 0
    moves = 0
    settled = False
    sol = None
    warm = None                     # the last converged boxed subproblem's multipliers
    # a program without perspective terms is its own quadratic model, so
    # the box would only slow the one exact solve down
    has_models = bool(red.term_table)
    delta = _TR_DELTA0 if has_models else _TR_FREE
    tol = _forcing_tol(math.inf)
    for rounds in range(1, MAX_ROUNDS + 1):
        step = None
        loose = False               # whether a boxed ask of this round was solved loosely
        for _ in range(_TR_RETRIES + 1):
            box = None if delta >= _TR_FREE else delta
            loose_ask = box is not None and tol > _IPM_TOL
            loose |= loose_ask
            reply = yield _Ask(x, box, _IPM_TOL if box is None else tol, warm if loose_ask else None)
            inner_total += reply.sol.iters
            if not reply.sol.converged:
                delta *= _TR_SHRINK
                continue
            sol = reply.sol         # the last converged subproblem seeds `finish`
            if box is not None:
                warm = sol.lam
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
            if loose:
                tol = _IPM_TOL      # settle only on a subproblem solved to _IPM_TOL
                continue
            settled = True
            break
        moves += 1
        tol = _forcing_tol(dif)

    if settled:
        # boxless rebuilds from the settled point: each accepted round is a
        # Newton step on the true stationarity system, so one of them
        # polishes the coordinates and yields multipliers for the true
        # constraint set; another runs only when that one still moved
        for _ in range(3):
            reply = yield _Ask(x, None, _IPM_TOL)
            clean = reply.sol
            inner_total += clean.iters
            if not clean.converged:
                break
            move = float(np.linalg.norm(reply.cand - x))
            # a centred rebuild reads worse than a boundary-hugging iterate
            # by up to its own complementarity offset, lam . s = J * gap, so
            # the deterioration guard sits above that offset
            worse = max(1e-8 * (1.0 + abs(f_x)),
                        len(clean.lam) * clean.gap)
            if move > 50.0 * _SETTLE_TOL or reply.f_cand > f_x + worse:
                break
            x, f_x, sol = reply.cand, reply.f_cand, clean
            if move <= _SETTLE_TOL:
                break

    seeds = None
    if sol is not None:
        # the subproblem duals certify the model, not the program: any
        # trust-region rows and the expansion-point shift land in the
        # residual, which `finish` refines against the true gradients.  On
        # a flat optimal face the rounds can settle while a slot still
        # crawls towards t = 0, where the gradient does not certify it
        ml, n_pos = red.n_nonlinear + len(red.lin_b), len(red.positive_indices)
        seeds = np.concatenate((sol.lam[:ml], sol.lam[len(sol.lam) - n_pos:]))
        x = _settle_unused_slots(red, x, seeds)
    return x, seeds, settled, moves if settled else rounds, inner_total, math.nan


class _Layout:
    """The reduced programs of one `stack_key` in a solve and what their
    subproblems share, built once: the time and positive coordinates `t`
    and `pos`, each program's box floors, the `ProgramStack` `ps` of their
    models, and `A[boxed]`, `b0[boxed]`, (K, J, n) and (K, J), every
    subproblem's rows in `_Stack` order, a box as x_i <= hi_i then -x_i <=
    -lo_i per positive coordinate, zeros where an ask's curved rows and box
    edges go."""

    def __init__(self, programs):
        p = programs[0]
        K, n, m = len(programs), p.n_vars, p.n_nonlinear
        self.programs = programs
        self.t, self.pos = np.array(p.t_indices, dtype=int), np.array(p.positive_indices, dtype=int)
        self.floors = np.array([_box_floors(q) for q in programs])
        self.ps = ProgramStack(programs)
        lin, n_pos = m + len(p.lin_b), len(self.pos)
        A = np.zeros((K, lin + 3 * n_pos, n))
        A[:, m:lin] = [q.lin_A for q in programs]
        eye = np.eye(n)[self.pos]
        A[:, lin:lin + 2 * n_pos:2] = eye
        A[:, lin + 1:lin + 2 * n_pos:2] = A[:, lin + 2 * n_pos:] = -eye
        b0 = np.zeros((K, lin + 3 * n_pos))
        b0[:, m:lin] = [-q.lin_b for q in programs]
        self.A, self.b0 = ((np.concatenate((A[:, :lin], A[:, lin + 2 * n_pos:]), 1), A),
                           (np.concatenate((b0[:, :lin], b0[:, lin + 2 * n_pos:]), 1), b0))


def _answer(lay: _Layout, rows, asks) -> list[_Reply]:
    """The asks of the programs at positions `rows` of a layout, all boxed
    or all boxless, answered together: one `quadratize` pass of the
    layout's `ProgramStack` builds their models, the rows, the starts
    under the caps and the replies are (K, ...) arrays, and `_ipm` (one
    ask) or `_ipm_many` (more) solves them."""
    red = lay.programs[rows[0]]
    m, t, pos = red.n_nonlinear, lay.t, lay.pos
    X = np.array([ask.x for ask in asks])
    K = len(X)
    ps = lay.ps if K == len(lay.programs) else lay.ps.take(rows)

    # the models around the points with every time lifted to at least _T_FLOOR
    E = X
    if X[:, t].min(initial=_T_FLOOR) < _T_FLOOR:
        E = X.copy()
        E[:, t] = np.maximum(X[:, t], _T_FLOOR)
    const, g, H, sums = quadratize(ps, E)
    if E is not X:
        sums = ps.row_sums(*ps.terms(X)[:2])

    boxed = asks[0].delta is not None
    A, b0 = lay.A[boxed][rows], lay.b0[boxed][rows]
    A[:, :m], b0[:, :m] = g[:, :m], const[:, :m]
    if boxed:
        c = X[:, pos]
        r = np.array([[ask.delta] for ask in asks]) * np.maximum(np.abs(c), lay.floors[rows])
        edges = b0[:, -3 * len(pos):-len(pos)].reshape(K, -1, 2)     # a view: (hi, lo) per coordinate
        np.negative(c + r, out=edges[:, :, 0])
        # the lower edge never reaches zero (the interior-point iterates
        # keep c > 0): a log term frozen at the origin cannot be revived by
        # a local quadratic model
        np.maximum(c - r, 0.25 * c, out=edges[:, :, 1])
    cold = np.full(b0.shape[1], math.nan)
    st = _Stack(const[:, m], g[:, m], H[:, m], A, b0, H[:, :m], [ask.tol for ask in asks],
                [cold if ask.warm is None else ask.warm for ask in asks])
    X0 = _under_caps(red.aux_index, X, sums, _IPM_BACKOFF)
    sols = [_ipm(st, X0[0])] if K == 1 else _ipm_many(st, X0)

    # sol.x is strictly interior whether or not the solve converged
    X_sol = np.array([sol.x for sol in sols])
    sums = ps.row_sums(*ps.terms(X_sol)[:2])
    cand = _under_caps(red.aux_index, X_sol, sums, 0.0)
    f_cand = (_rowdot(ps.q, cand) + sums[:, -1]).tolist()
    # each model's objective at its solution
    HX = (st.H @ X_sol[:, :, None])[..., 0]
    f_model = (st.c0 + _rowdot(st.g, X_sol) + 0.5 * _rowdot(X_sol, HX)).tolist()
    return [_Reply(sol, cand[k], f_model[k], f_cand[k]) if sol.converged
            else _Reply(sol, None, math.nan, math.nan) for k, sol in enumerate(sols)]


def solve_iterative(program: ConvexProgram) -> SolveResult:
    """Repeated quadratization until the solution stops moving: a lockstep
    solve of one, whose every subproblem `_answer` builds and solves alone."""
    return solve_iterative_many([program])[0]


def _drive(reduced, X):
    """quad's kernel for `program.solve_many`: the rounds of reduced programs
    of one `stack_key` from their starts X, stepped together on one
    `_Layout`.  Each waits on its ask until it is answered; the boxed asks,
    else the boxless ones, are answered by one `_answer`, so that programs
    that settle in different rounds polish in one stack."""
    lay = _Layout(reduced)
    running = {k: _rounds(p, x) for k, (p, x) in enumerate(zip(reduced, X))}
    ends: list = [None] * len(reduced)
    replies: dict = dict.fromkeys(running)      # what the answered programs' rounds are sent next
    asks: dict = {}
    while running:
        for k, reply in replies.items():
            try:
                asks[k] = running[k].send(reply)
            except StopIteration as done:
                ends[k] = done.value
                del running[k]
        waiting = [k for k in sorted(asks) if asks[k].delta is not None] or sorted(asks)
        replies = {}
        if waiting:
            replies = dict(zip(waiting, _answer(lay, np.array(waiting), [asks.pop(k) for k in waiting])))
    return ends


def solve_iterative_many(programs) -> list[SolveResult]:
    """`solve_iterative` on each program, in order: the rounds of the programs
    whose presolved forms share a `stack_key` step together (`_drive`)."""
    return solve_many(programs, "quad", _drive)
