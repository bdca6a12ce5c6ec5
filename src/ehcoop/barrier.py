"""nb: Newton's method on the logarithmic barrier path.

The solver minimizes  f(x) - (1/tau) * [ sum_j ln(-c_j(x)) + sum_i ln x_i ]
over the strict interior for a growing tau.  The barrier covers every
inequality and the nonnegative time/energy coordinates; the auxiliary rate
variables stay free, since the epigraph rows already fence them in.  The
sections below hold the barrier and its primal-dual Newton system, the
line-search pieces, the arithmetic backends `_One` and `_Stack`, and the
algorithm, written once for K programs: `_line_search`, `_minimize_stage`
(the stage ends) and `_path` (each program's tau schedule and the
central-path prediction).  Each rule is stated once, where it is applied,
with the PR whose CHANGES.md entry holds its numbers.  The tuning values
are module constants read at call time.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .program import (ProgramStack, SolveResult, all_positive, lagrangian_gradient, point_rows,
                      regularized_solve, solve_many)

# steps towards unconstrained directions are capped here instead of at infinity
ALPHA_CAP = 1e6
# sufficient-decrease fraction of the Armijo test
ARMIJO = 1e-4
# barrier weight of the first stage: a stage at tau = 1, whose gap bound m/tau
# exceeds |f|, would only centre the iterate (PR 9)
TAU0 = 100.0
# the outer loop ends here even if the gap test never passes (f not finite)
TAU_CEILING = 1e16
# tau multiplier per outer stage; MU**2 after a one-step stage near the optimum (`_path`)
MU = 100.0
# the gap stop (`_path`)
GAP_TOL = 1e-10
# the stage ends (`_minimize_stage`)
STEP_TOL = 1e-6
GRAD_TOL = 1e-7
LOOSE_GAP = 1e-4
LOOSE_DECREMENT = 1.0
# Newton iteration cap per stage
MAX_INNER = 200
# back-off of the first trial step from the nearest linear row or axis
SHRINK = 0.99
# a step keeps each multiplier at least LAM_FLOOR / (tau s) (scanned in PR 34)
LAM_FLOOR = 1e-2
# a singular Newton system is solved with this times max(1, trace / n) on its diagonal
REGULARIZE = 1e-10

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# Barrier evaluation
# ---------------------------------------------------------------------------


def barrier_value(program, tau: float, x: np.ndarray) -> float:
    """Barrier objective at x; +inf outside the strict interior and where an
    affine slack is NaN (`program.all_positive`).  Its logs and sums are
    numpy's, as in `_Stack.barrier`."""
    A, b = program.affine_rows
    s = b - A @ x
    if not all_positive(s.tolist()):
        return math.inf
    f, c = program.values(x)
    if max(c, default=-1.0) >= 0.0:
        return math.inf
    return f - float(np.add.reduce(np.log(np.negative(c))) + np.add.reduce(np.log(s))) / tau


def barrier_gradient(view, tau: float) -> np.ndarray:
    """Barrier gradient at a `program.point_rows` view: the Lagrangian gradient at
    the barrier multipliers 1/(tau s)."""
    return lagrangian_gradient(view, 1.0 / (tau * view[2]))


def _newton_matrix(view, lam) -> np.ndarray:
    """The Newton matrix at a `program.point_rows` view and one multiplier per row:
    the curvature of epigraph row j weighted by lam_j (the objective's by 1), plus
    R^T diag(lam / s) R, R the rows' gradients and s their slacks.  Primal-dual
    steps (Forsgren, Gill & Wright, SIAM Review 44(4), 2002, sections 4-5):
    the barrier Hessian's 1/(tau s) and 1/(tau s^2), read off the current slack
    alone, let a slack cut to 1% of its centre value only double per full
    step (PR 34)."""
    ev, rows, s = view
    H = ev.curvature(lam[:len(ev.c)].tolist() + [1.0])
    return H + (rows.T * (lam / s)) @ rows


def barrier_hessian(view, tau: float) -> np.ndarray:
    """Barrier Hessian at a `program.point_rows` view: the Newton matrix at the
    barrier multipliers 1/(tau s)."""
    return _newton_matrix(view, 1.0 / (tau * view[2]))


def _newton_direction(view, lam, g):
    """Solve M d = -g, M the Newton matrix at the multipliers lam, g one or more
    columns; also says whether M was regularized."""
    return regularized_solve(_newton_matrix(view, lam), -g, REGULARIZE)


def _multiplier_step(tau, lam, s, Rd):
    """The multiplier step dlam that linearizes lam s = 1/tau along a Newton step d
    (Rd the rows' gradients times d), and the floor LAM_FLOOR/(tau s), both at the
    point before the step.  Every program that searches takes lam to
    max(lam + dlam, floor), whatever step alpha d its line search accepts, a
    stall (alpha = 0) included: the separate dual step length of primal-dual
    interior methods (Waechter & Biegler, Math. Program. 106(1), 2006, eq. 15),
    with the floor in place of the fraction to the boundary; it cuts the Newton
    steps per stage, as CHANGES.md measures.  A stall that kept its multipliers
    would leave a last stage stalled at the noise floor with the stage before's."""
    return (1.0 / tau - lam * s + lam * Rd) / s, LAM_FLOOR / (tau * s)


# ---------------------------------------------------------------------------
# Line search pieces.  `bisect_sign_change`, `alpha_log_bisection` and
# `golden_section_min` are not called by the solver; the benchmark's trace
# (perfbench/tracing.py) looks each of them up by name.
# ---------------------------------------------------------------------------


def alpha_linear(program, slack: np.ndarray, d: np.ndarray) -> float:
    """Largest safe step against linear rows and coordinate axes, `slack` = b - A x."""
    along = program.affine_rows[0] @ d
    hit = along > 0.0
    return SHRINK * float((slack[hit] / along[hit]).min(initial=ALPHA_CAP))


def bisect_sign_change(fn, lo: float, hi: float, tol: float = 1e-9) -> float:
    """Root of a scalar function with fn(lo) < 0 <= fn(hi), to within tol."""
    flo = fn(lo)
    if flo >= 0.0:
        raise ValueError("lower end must be strictly negative")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def alpha_log_bisection(program, x: np.ndarray, d: np.ndarray, alpha_lin: float,
                        shrink: float = 0.99, tol: float = 1e-9) -> float:
    """Trim the step so every nonlinear constraint stays strictly negative."""
    alpha = alpha_lin
    for j in range(program.n_nonlinear):
        end = program.nonlinear_value(j, x + alpha_lin * d)
        if end < 0.0:
            continue
        crossing = bisect_sign_change(
            lambda a: program.nonlinear_value(j, x + a * d), 0.0, alpha_lin, tol
        )
        alpha = min(alpha, crossing)
    return shrink * alpha


def golden_section_min(fn, interval, tol: float = 1e-8) -> float:
    """Argmin of a unimodal scalar function on a closed interval."""
    a, b = interval
    if b < a:
        raise ValueError("empty interval")
    span = b - a
    if span <= tol:
        return 0.5 * (a + b)
    c = a + _INVPHI2 * span
    d = a + _INVPHI * span
    fc, fd = fn(c), fn(d)
    while span > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            span = b - a
            c = a + _INVPHI2 * span
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            span = b - a
            d = a + _INVPHI * span
            fd = fn(d)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# Arithmetic backends
# ---------------------------------------------------------------------------
#
# A backend holds K programs at the rows of a (K, n) array X and their
# multipliers `lam`, one row of `program.point_rows`' length per program, set
# to 1/(tau s) by the first `newton` call and kept across stages and
# predictions; it takes one tau per program and answers with one Python float
# per program.  `newton(X, tau)` gives (f, max |g|, g . d, D, Z, slack):
# objective values, barrier gradient norms and slopes along the Newton
# directions D (in the backend's layout), central-path tangents
# Z = -M^-1 grad f (K, n) and affine slacks; D solves
# M D = -g, M the Newton matrix at lam and g the barrier gradient, so each
# stage keeps its centre.  `barrier` gives barrier values, `first_steps`
# min(1, SHRINK * distance to the nearest affine row along D), `norms` the
# lengths of D, `step(X, D, a)` X + a D where a > 0 (the other rows stay), and
# `advance(X, D, a, search)` that step with the multipliers of the programs in
# `search` moved by the full step of the last `newton` call, and floored
# (`_multiplier_step`); the others keep theirs.  `_One` and `_Stack`
# give the same bits, so a result does not depend on its company: both take
# `program.scalar_log1p`'s term logs, numpy's barrier logs and sums, and the
# same multiplier arithmetic (PR 31).


class _One:
    """One program (K = 1) on the scalar arithmetic of `barrier_value`,
    `barrier_gradient`, `_newton_direction` and `alpha_linear`; its
    direction is a vector.  One `evaluate` and one affine-row pass serve
    each Newton iterate."""

    def __init__(self, program):
        self.program = program
        self.n_rows = program.n_nonlinear + len(program.affine_rows[1])
        self.lam = None

    def barrier(self, X, tau):
        return [barrier_value(self.program, tau[0], X[0])]

    def newton(self, X, tau):
        tau = tau[0]
        view = point_rows(self.program, X[0])
        ev, rows, s = view
        if self.lam is None:
            self.lam = (1.0 / (tau * s))[None]
        lam = self.lam[0]
        g = barrier_gradient(view, tau)
        dz, _ = _newton_direction(view, lam, np.array((g, ev.grad)).T)
        d = dz[:, 0]
        self.dlam, self.floor = _multiplier_step(tau, lam, s, rows @ d)
        return ([ev.f], [float(np.abs(g).max())], [float(g @ d)], d, dz[None, :, 1],
                s[self.program.n_nonlinear:])

    def first_steps(self, X, d, slack):
        return [min(1.0, alpha_linear(self.program, slack, d))]

    def norms(self, d):
        return [float(np.linalg.norm(d))]

    def step(self, X, d, a):
        return X + a[0] * d if a[0] > 0.0 else X

    def advance(self, X, d, a, search):
        if search:
            self.lam = np.maximum(self.lam + self.dlam, self.floor)
        return self.step(X, d, a)


class _Stack:
    """K programs of one `stack_key` as (K, ...) arrays: the `ProgramStack`
    term pass, and the affine rows with the objective vector stacked under
    them, so that one product gives both."""

    def __init__(self, programs):
        self.terms = ProgramStack(programs)
        self.m, self.n = self.terms.m, self.terms.n
        self.n_rows = self.m + len(programs[0].affine_rows[1])
        A = np.array([prog.affine_rows[0] for prog in programs])
        self.b = np.array([prog.affine_rows[1] for prog in programs])
        self.Aq = np.concatenate((A, self.terms.q[:, None, :]), 1)
        self.lam = None

    def take(self, keep) -> "_Stack":
        """The programs at the positions `keep`, with their multipliers."""
        out = copy.copy(self)
        out.terms, out.b, out.Aq, out.lam = self.terms.take(keep), self.b[keep], self.Aq[keep], self.lam[keep]
        return out

    def _terms(self, X):
        """(t, y, aux rates, A x) at the points X, the last column of A x the objective's q . x."""
        return *self.terms.terms(X), (self.Aq @ X[:, :, None])[:, :, 0]

    def barrier(self, X, tau):
        """Barrier values; +inf outside the strict interior, where a log of a row
        value or slack, and so the sum, is NaN or -inf, or at a NaN coordinate."""
        t, y, aux, Ax = self._terms(X)
        sums = self.terms.row_sums(t, y)
        out = (Ax[:, -1] + sums[:, -1]
               - (np.log(-(aux + sums[:, :-1])).sum(1) + np.log(self.b - Ax[:, :-1]).sum(1)) / np.array(tau))
        out[np.isnan(out)] = math.inf
        return out.tolist()

    def gradient(self, X, tau):
        """The `evaluate` pass and the barrier gradient g at the weights tau (K, 1),
        stacked: (f, grad f, g, slacks, row gradients, term factors), the rows
        in `program.point_rows`' order and the factors (v_t, v_y) of each
        term's rank-one Hessian."""
        t, y, aux, Ax = self._terms(X)
        sums, grads, factors = self.terms.derivatives(t, y)
        c = aux + sums[:, :-1]
        rows = np.concatenate((grads[:, :-1], self.Aq[:, :-1]), 1)
        s = np.concatenate((-c, self.b - Ax[:, :-1]), 1)
        g = grads[:, -1] + ((1.0 / (tau * s))[:, None, :] @ rows)[:, 0]
        return Ax[:, -1] + sums[:, -1], grads[:, -1], g, s, rows, factors

    def matrix(self, s, rows, factors):
        """Newton matrices at the multipliers `lam` from a `gradient` pass (`_newton_matrix`)."""
        H = self.terms.curvature(self.lam[:, :self.m], factors)
        return H + (rows.transpose(0, 2, 1) * (self.lam / s)[:, None, :]) @ rows

    def newton(self, X, tau):
        tau = np.array(tau)[:, None]
        f, grad, g, s, rows, factors = self.gradient(X, tau)
        if self.lam is None:
            self.lam = 1.0 / (tau * s)
        dz, _ = regularized_solve(self.matrix(s, rows, factors), -np.stack((g, grad), 2), REGULARIZE)
        D = dz[:, :, 0]
        self.dlam, self.floor = _multiplier_step(tau, self.lam, s, (rows @ D[:, :, None])[:, :, 0])
        return f.tolist(), np.abs(g).max(1).tolist(), (g * D).sum(1).tolist(), D, dz[:, :, 1], s[:, self.m:]

    def first_steps(self, X, D, slack):
        along = (self.Aq[:, :-1] @ D[:, :, None])[:, :, 0]
        limit = np.where(along > 0.0, slack / along, ALPHA_CAP).min(1).tolist()
        return [min(1.0, SHRINK * lim) for lim in limit]

    def norms(self, D):
        return np.linalg.norm(D, axis=1).tolist()

    def step(self, X, D, a):
        a = np.array(a)[:, None]
        return np.where(a > 0.0, X + a * D, X)

    def advance(self, X, D, a, search):
        self.lam = self.lam.copy()
        self.lam[search] = np.maximum(self.lam[search] + self.dlam[search], self.floor[search])
        return self.step(X, D, a)


# ---------------------------------------------------------------------------
# The algorithm, on either backend
# ---------------------------------------------------------------------------


def _at_noise(slope, f_x):
    """Whether the squared Newton decrement -slope is under the barrier's evaluation
    noise, so that the remaining gradient is representation error."""
    return max(-slope, 0.0) <= 2e-14 * (1.0 + abs(f_x))


def _line_search(be, tau, X, D, f_x, slope, slack, search):
    """Backtracking (Armijo) steps along D for the programs in `search`, trials evaluated together.

    The first trial step, `first_steps`, is halved until the barrier falls
    by at least ARMIJO * step * (g . d) (Boyd & Vandenberghe, Convex
    Optimization, sections 9.2 and 11.3); only a step that passes is taken
    (PR 35).  A trial outside the domain of a nonlinear row has barrier
    value +inf and fails like any other, so those rows need no crossing
    search.  A program gives up, a stall, once the decrease a shorter step
    predicts is at the noise floor.  A program whose slope is NaN stalls
    without a trial: no step passes the Armijo test against a NaN slope,
    and the noise floor never reads it as small, so its search would halve
    the step until it underflows, one barrier evaluation each (PR 39).
    Returns {program: (alpha, barrier value at the new point)} for the
    programs that take a step.
    """
    a = be.first_steps(X, D, slack)
    steps = {}
    searching = [i for i in search if a[i] > 0.0 and not math.isnan(slope[i])]
    while searching:
        f_a = be.barrier(be.step(X, D, a), tau)
        still = []
        for i in searching:
            if f_a[i] <= f_x[i] + ARMIJO * a[i] * slope[i]:
                steps[i] = (a[i], f_a[i])
                continue
            a[i] *= 0.5
            if a[i] > 0.0 and not _at_noise(a[i] * slope[i], f_x[i]):
                still.append(i)
        searching = still
    return steps


def _minimize_stage(be, tau, X, f_x):
    """Newton iterations at each program's fixed tau; f_x, the barrier at X, is updated in place.

    A stage has two ends (PR 39).  A program stops, converged, once its
    last step is at most STEP_TOL long (a stall counts as 0) and its
    gradient at most GRAD_TOL (or its Newton decrement at the noise floor);
    while its gap bound m/tau exceeds LOOSE_GAP * (1 + |f|), as the last
    stage's never does, also once its squared Newton decrement tau (-g . d)
    is at most LOOSE_DECREMENT (Boyd & Vandenberghe, sections 11.3.3 and
    11.5): a larger bound starts the next stage too far from its centre to
    finish within MAX_INNER (PR 21).  Otherwise it stops, unconverged, at
    MAX_INNER steps, and `_path` ends its solve there.  Returns (X, Newton
    steps, objective, Z), Z = -H^-1 grad f at each final iterate (the
    central-path tangent); objective and Z are NaN where the step cap ends
    the stage.
    """
    K = len(X)
    run = list(range(K))
    steps = [MAX_INNER] * K
    f_end, Z = [math.nan] * K, np.full_like(X, math.nan)
    last_step = [math.inf] * K
    for k in range(MAX_INNER):
        f, gnorm, slope, D, dZ, slack = be.newton(X, tau)
        search = []
        for i in run:
            if (last_step[i] <= STEP_TOL and (gnorm[i] <= GRAD_TOL or _at_noise(slope[i], f_x[i]))
                    or be.n_rows / tau[i] > LOOSE_GAP * (1.0 + abs(f[i]))
                    and -tau[i] * slope[i] <= LOOSE_DECREMENT):
                steps[i], f_end[i], Z[i] = k, f[i], dZ[i]
            else:
                search.append(i)
        if not search:
            break
        moves = _line_search(be, tau, X, D, f_x, slope, slack, search)
        alpha = [0.0] * K
        if moves:
            dnorm = be.norms(D)
        for i in search:
            if i in moves:
                alpha[i], f_x[i] = moves[i]
                last_step[i] = alpha[i] * dnorm[i]
            else:
                last_step[i] = 0.0
        X = be.advance(X, D, alpha, search)
        run = search
    return X, steps, f_end, Z


def _path(be, X, tau):
    """The outer loop from tau, each program on its own tau schedule to its own gap stop.

    A program's tau grows by MU per stage until m/tau <= GAP_TOL * (1 + |f|),
    m the barrier rows, the stage optimum being within m/tau of the optimum,
    or to TAU_CEILING where f is not finite.  It grows by MU**2 instead after
    a stage that took at most one Newton step with m/tau <= LOOSE_GAP * (1 +
    |f|), while m/(MU tau) > GAP_TOL * (1 + |f|): such an iterate already
    follows the path, so the stage skipped would only add a step, and the
    skip never passes the gap stop (superlinear barrier decrease, Waechter &
    Biegler, Math. Program. 106(1), 2006, eq. 7; PR 38).  The schedule reads
    only the program's own stages, so that it does not depend on its
    company.  The central path is almost linear in 1/tau near the optimum
    (Fiacco & McCormick 1968), so going to grow * tau predicts
    x + (1 - 1/grow) Z; the prediction is kept only where the next stage's
    barrier is finite and lower than at x (a NaN one never is), and a late
    stage then needs about one Newton step (PR 7).  Returns (x, multipliers,
    converged, stages, Newton steps, tau) per program, as `program.finish`
    takes them.  A program whose stage runs into MAX_INNER leaves there,
    unconverged, since the next stage would start no nearer its centre; every
    other stage end is converged.
    """
    live = list(range(len(X)))
    out: list = [None] * len(X)
    stages, steps = [0] * len(X), [0] * len(X)
    tau = [tau] * len(X)
    f_x = be.barrier(X, tau)
    while True:
        X, k, f, Z = _minimize_stage(be, tau, X, f_x)
        keep, grow = [], []
        for j, i in enumerate(live):
            steps[i] += k[j]
            stages[i] += 1
            gap, scale = be.n_rows / tau[j], 1.0 + abs(f[j])
            if k[j] == MAX_INNER or gap <= GAP_TOL * scale or tau[j] >= TAU_CEILING:
                out[i] = (X[j], be.lam[j], k[j] < MAX_INNER, stages[i], steps[i], tau[j])
            else:
                keep.append(j)
                skip = k[j] <= 1 and gap <= LOOSE_GAP * scale and be.n_rows / (MU * tau[j]) > GAP_TOL * scale
                grow.append(MU**2 if skip else MU)
        if not keep:
            return out
        live = [live[j] for j in keep]
        if len(keep) < len(X):      # never on a `_One`
            be, X, Z = be.take(keep), X[keep], Z[keep]
        tau = [g * tau[j] for g, j in zip(grow, keep)]
        ahead = [1.0 - 1.0 / g for g in grow]
        f_x, f_p = be.barrier(X, tau), be.barrier(be.step(X, Z, ahead), tau)
        kept = [fp < fx for fp, fx in zip(f_p, f_x)]
        X = be.step(X, Z, [a if up else 0.0 for a, up in zip(ahead, kept)])
        f_x = [fp if up else fx for fp, fx, up in zip(f_p, f_x, kept)]


def solve_nb(program) -> SolveResult:
    """Interior-point solve of a canonical program via the log barrier, from the
    deterministic interior point of its presolved (zero budgets pinned) form."""
    return solve_nb_many([program])[0]


def _kernel(reduced, X):
    """The barrier paths of reduced programs of one `stack_key` from their
    starts X, as `program.solve_many` takes them: two or more on one `_Stack`,
    a lone one on a `_One`.  Each path seeds `finish` with the multipliers it
    carried."""
    return _path(_Stack(reduced) if len(reduced) > 1 else _One(reduced[0]), X, TAU0)


def solve_nb_many(programs) -> list[SolveResult]:
    """`solve_nb` on each program, in order, stepped together by `_kernel`."""
    return solve_many(programs, "nb", _kernel)
