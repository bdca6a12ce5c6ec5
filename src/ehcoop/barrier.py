"""Newton method with a logarithmic barrier and a backtracking line search.

The solver minimizes  f(x) - (1/tau) * [ sum_j ln(-c_j(x)) + sum_i ln x_i ]
over the strictly feasible region, increasing tau geometrically.  The
barrier covers every inequality and the nonnegative time/energy
coordinates; auxiliary rate variables are kept free because the epigraph
rows already fence them in.

Each Newton direction d is damped by backtracking (Boyd & Vandenberghe,
Convex Optimization, sections 9.2 and 11.3).  The first trial step is
min(1, closed-form distance to the nearest linear row or coordinate axis,
scaled back by SHRINK); it is halved until the barrier decreases by at
least ARMIJO * step * (g . d).  A trial that leaves the domain of a
nonlinear row has barrier value +inf and fails the test, so those rows
need no separate crossing search.  Near a stage optimum, where the
predicted decrease sinks under the evaluation noise of the barrier, the
first finite trial is still taken when it does not raise the barrier
beyond that noise and at least halves the gradient.

Between stages the iterate is moved along the central path.  On the path
grad f + (1/tau) grad phi = 0 (phi the negated log sum above), so
dx/d(1/tau) = tau H^-1 grad f with H the barrier Hessian; near the
optimum the path is almost linear in 1/tau (Fiacco & McCormick 1968;
Boyd & Vandenberghe section 11.3), and going from tau to mu*tau predicts
x - (1 - 1/mu) H^-1 grad f.  Every Newton solve takes grad f as a second
right-hand side, and a stage hands on the one solved at its final
iterate, where its stop test builds the Hessian anyway.  The prediction
is kept only where the next stage's barrier is finite and lower than at
x; a late stage then needs about one Newton step.

The outer loop starts at TAU0 = 100 and stops on the duality gap of the
central path: with m barrier rows (nonlinear and affine), the stage
optimum at tau is within m/tau of the optimum, so tau grows by MU per stage
until m/tau <= GAP_TOL * (1 + |f|).  TAU_CEILING ends the loop where f is not
finite.  At tau = 1 the gap bound m/tau exceeds |f|, so a first stage
there only centres the iterate (starting at 100 cut the Newton steps of
the 528 solves of the acceptance energy grid by a quarter, all
converged); starting at 1e4 left 40 of them unconverged.  The result is
built by `program.finish` from the barrier multipliers 1/(tau s) of the
final iterate, so a finished path counts as converged only with the
certificate both solvers share.  The tuning values are module constants
read at call time.

A stage ends once its last step is at most STEP_TOL long and its gradient
at most GRAD_TOL.  An early stage need not be centred that well, since
its gap bound m/tau is still wide (Boyd & Vandenberghe sections 11.3.3
and 11.5): while m/tau > LOOSE_GAP * (1 + |f|), with f the objective as
in the gap stop, a stage also ends once the squared Newton decrement of
tau f + phi, tau (-g . d), is at most LOOSE_DECREMENT.  With 7 to 13 rows
that covers the stages at tau = 1e2 and 1e4 (gap bounds near 0.1 and
1e-3; on the energy grid all 528 at 1e2 and 525 at 1e4), never the last
one, whose bound is below GAP_TOL * (1 + |f|).  A scan of (LOOSE_GAP,
LOOSE_DECREMENT) gave these Newton steps on the energy grid, against
14,804 with every stage centred in full:

    (1e-2, 0.25) 12,448    (1e-2, 1) 11,873    (1e-3, 1) 11,862
    (1e-4, 0.25) 12,364    (1e-4, 0.5) 11,956  (1e-4, 1) 11,581
    (1e-5, 1)    11,578    (1e-6, 1) 12,789    (3e-4, 1) 11,653

with every status and rho* unchanged and objectives within 2e-13.  A
decrement of 2 (17,874 steps) or 4 (25,703) leaves 8 or 19 of the 528
uncertified: the next stage starts too far from its centre and runs into
MAX_INNER.  (1e-4, 1) is kept; in 3 alternating runs each, the energy-nb
benchmark took 0.86 of the time with every stage centred in full in the
median, and 0.89 at (1e-4, 0.5).

The algorithm is written once, for K programs at a time (`_path`,
`_minimize_stage`, `_line_search`): every test runs per program on Python
floats, and each program leaves at its own stop.  Its arithmetic comes
from one of two backends.  `solve_nb_many` steps each group of at least
LOCKSTEP_MIN programs whose reduced forms share a `stack_key` on a `_Stack`,
with one stacked evaluation (`program.ProgramStack`, whose term pass
`_Stack` wraps), Hessian and `np.linalg.solve` on (K, n, n) per Newton
iteration.  Every other program, and so every `solve_nb`,
runs alone on a `_One`: the scalar `barrier_value`, `barrier_gradient`,
`_newton_direction` and `alpha_linear`, one `program.evaluate` pass and
one affine-row pass per iterate.  The two agree term by term to a few ulps
and take the same Newton steps on the default screens.  There a stack of
2, 3 and 4 programs takes 0.95, 0.68 and 0.56 of the time of as many
`_One` runs; at 2 the gain is too small to change the arithmetic that
two-candidate screens get, so LOCKSTEP_MIN is 3.  The solver keeps no
per-step log.

`alpha_log_bisection`, `bisect_sign_change` and `golden_section_min` are
no longer called by the solver; they stay because the benchmark's trace
(perfbench/tracing.py) looks each of them up by name.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .program import ProgramStack, SolveResult, finish, stack_key, start

# steps towards unconstrained directions are capped here instead of at infinity
ALPHA_CAP = 1e6
# sufficient-decrease fraction of the Armijo test
ARMIJO = 1e-4
# barrier weight of the first stage
TAU0 = 100.0
# the outer loop ends here even if the gap test never passes (f not finite)
TAU_CEILING = 1e16
# tau multiplier per outer stage
MU = 100.0
# stop once (barrier rows)/tau <= GAP_TOL * (1 + |f|)
GAP_TOL = 1e-10
# a stage ends once the last step is at most STEP_TOL long and the barrier
# gradient is at most GRAD_TOL (or the Newton decrement is at the noise floor)
STEP_TOL = 1e-6
GRAD_TOL = 1e-7
# while (barrier rows)/tau > LOOSE_GAP * (1 + |f|), a stage also ends once the
# squared Newton decrement of tau f + phi is at most LOOSE_DECREMENT
LOOSE_GAP = 1e-4
LOOSE_DECREMENT = 1.0
# Newton iteration cap per stage
MAX_INNER = 200
# back-off of the first trial step from the nearest linear row or axis
SHRINK = 0.99
# fewest programs of one layout that `solve_nb_many` steps on a `_Stack`
# (the measured crossover is in the module docstring)
LOCKSTEP_MIN = 3

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# Barrier evaluation
# ---------------------------------------------------------------------------


def barrier_value(program, tau: float, x: np.ndarray) -> float:
    """Barrier objective at x; +inf outside the strict interior."""
    A, b = program.affine_rows
    s = (b - A @ x).tolist()
    if min(s, default=1.0) <= 0.0:
        return math.inf
    f, c = program.values(x)
    if max(c, default=-1.0) >= 0.0:
        return math.inf
    return f - (sum(math.log(-cj) for cj in c) + sum(map(math.log, s))) / tau


def _point(program, x):
    """`program.evaluate(x)` and every barrier row at x: gradients (nonlinear rows,
    then affine ones) and slacks."""
    ev = program.evaluate(x)
    A, b = program.affine_rows
    return ev, np.concatenate((ev.G, A)), np.concatenate((-ev.c, b - A @ x))


def barrier_gradient(program, tau: float, x: np.ndarray, point=None) -> np.ndarray:
    """Barrier gradient; `point` is `_point(program, x)` when the caller already has it."""
    ev, A, s = _point(program, x) if point is None else point
    return ev.grad + A.T @ (1.0 / (tau * s))


def barrier_hessian(program, tau: float, x: np.ndarray, point=None) -> np.ndarray:
    """Barrier Hessian; the curvature of row j is weighted by -1/(tau c_j)."""
    ev, A, s = _point(program, x) if point is None else point
    H = ev.curvature((-1.0 / (tau * ev.c)).tolist() + [1.0])
    return H + (A.T / (tau * s * s)) @ A


def _solve(H, g):
    """Solve H d = -g; also says whether H had to be regularized."""
    try:
        return np.linalg.solve(H, -g), False
    except np.linalg.LinAlgError:
        bump = 1e-10 * max(1.0, float(np.trace(H)) / max(1, H.shape[0]))
        H = H + bump * np.eye(H.shape[0])
        return np.linalg.solve(H, -g), True


def _newton_direction(program, tau, x, g, point=None):
    """Solve H d = -g for the current barrier stage, g one or more columns; also says
    whether H was regularized."""
    return _solve(barrier_hessian(program, tau, x, point), g)


# ---------------------------------------------------------------------------
# Line search pieces
# ---------------------------------------------------------------------------


def alpha_linear(program, x: np.ndarray, d: np.ndarray, slack=None) -> float:
    """Largest safe step against linear rows and coordinate axes; `slack` is b - A x if known."""
    A, b = program.affine_rows
    along = A @ d
    hit = along > 0.0
    slack = b - A @ x if slack is None else slack
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
# A backend holds K programs at the rows of a (K, n) array X and answers
# with one Python float per program.  `newton(X, tau)` gives (f, max |g|,
# g . d, D, Z, slack): objective values, barrier gradient norms and slopes
# along the Newton directions D (in the backend's layout), central-path
# tangents Z (K, n) and affine slacks.  `barrier` gives barrier values,
# `first_steps` min(1, SHRINK * distance to the nearest affine row along
# D), `norms` the lengths of D, `gnorm` max |barrier gradient|, and
# `step(X, D, a)` X + a D where a > 0 (the other rows stay).


class _One:
    """One program (K = 1) on the scalar arithmetic of `barrier_value`,
    `barrier_gradient`, `_newton_direction` and `alpha_linear`; its
    direction is a vector.  One `evaluate` and one affine-row pass serve
    each Newton iterate."""

    def __init__(self, program):
        self.program = program
        self.n_rows = program.n_nonlinear + len(program.affine_rows[1])

    def barrier(self, X, tau):
        return [barrier_value(self.program, tau, X[0])]

    def newton(self, X, tau):
        p, x = self.program, X[0]
        point = _point(p, x)
        ev = point[0]
        g = barrier_gradient(p, tau, x, point)
        dz, _ = _newton_direction(p, tau, x, np.array((g, ev.grad)).T, point)
        d = dz[:, 0]
        return ([ev.f], [float(np.abs(g).max())], [float(g @ d)], d, dz[None, :, 1],
                point[2][p.n_nonlinear:])

    def first_steps(self, X, d, slack):
        return [min(1.0, alpha_linear(self.program, X[0], d, slack))]

    def norms(self, d):
        return [float(np.linalg.norm(d))]

    def gnorm(self, X, tau):
        return [float(np.abs(barrier_gradient(self.program, tau, X[0])).max())]

    def step(self, X, d, a):
        return X + a[0] * d if a[0] > 0.0 else X


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

    def take(self, keep) -> "_Stack":
        """The programs at the positions `keep`."""
        out = copy.copy(self)
        out.terms, out.b, out.Aq = self.terms.take(keep), self.b[keep], self.Aq[keep]
        return out

    def _terms(self, X):
        """(t, y, aux rates, A x) at the points X, the last column of A x the objective's q . x."""
        return *self.terms.terms(X), (self.Aq @ X[:, :, None])[:, :, 0]

    def barrier(self, X, tau):
        """Barrier values; +inf outside the strict interior.

        There a log of a row value or slack is NaN or -inf, and so is the
        sum, or the point has a NaN coordinate.
        """
        t, y, aux, Ax = self._terms(X)
        sums = self.terms.row_sums(t, y)
        out = (Ax[:, -1] + sums[:, -1]
               - (np.log(-(aux + sums[:, :-1])).sum(1) + np.log(self.b - Ax[:, :-1]).sum(1)) / tau)
        out[np.isnan(out)] = math.inf
        return out.tolist()

    def gradient(self, X, tau):
        """The `evaluate` pass and the barrier gradient g, stacked.

        Returns (f, grad f, g, c, slacks, row gradients, term factors) with
        the rows nonlinear first, as in `_point`, and the factors (v_t, v_y)
        of each term's rank-one Hessian.
        """
        t, y, aux, Ax = self._terms(X)
        sums, grads, factors = self.terms.derivatives(t, y)
        c = aux + sums[:, :-1]
        rows = np.concatenate((grads[:, :-1], self.Aq[:, :-1]), 1)
        s = np.concatenate((-c, self.b - Ax[:, :-1]), 1)
        g = grads[:, -1] + ((1.0 / (tau * s))[:, None, :] @ rows)[:, 0]
        return Ax[:, -1] + sums[:, -1], grads[:, -1], g, c, s, rows, factors

    def hessian(self, tau, c, s, rows, factors):
        """Barrier Hessians from a `gradient` pass."""
        H = self.terms.curvature(-1.0 / (tau * c), factors)
        return H + (rows.transpose(0, 2, 1) / (tau * s * s)[:, None, :]) @ rows

    def newton(self, X, tau):
        f, grad, g, c, s, rows, factors = self.gradient(X, tau)
        dz = _solve_all(self.hessian(tau, c, s, rows, factors), np.stack((g, grad), 2))
        D = dz[:, :, 0]
        return f.tolist(), np.abs(g).max(1).tolist(), (g * D).sum(1).tolist(), D, dz[:, :, 1], s[:, self.m:]

    def first_steps(self, X, D, slack):
        along = (self.Aq[:, :-1] @ D[:, :, None])[:, :, 0]
        limit = np.where(along > 0.0, slack / along, ALPHA_CAP).min(1).tolist()
        return [min(1.0, SHRINK * lim) for lim in limit]

    def norms(self, D):
        return np.linalg.norm(D, axis=1).tolist()

    def gnorm(self, X, tau):
        return np.abs(self.gradient(X, tau)[2]).max(1).tolist()

    def step(self, X, D, a):
        a = np.array(a)[:, None]
        return np.where(a > 0.0, X + a * D, X)


def _solve_all(H, g):
    """Solve H d = -g on every stacked system, a singular one regularized as in `_solve`."""
    try:
        return np.linalg.solve(H, -g)
    except np.linalg.LinAlgError:
        return np.array([_solve(h, r)[0] for h, r in zip(H, g)])


# ---------------------------------------------------------------------------
# The algorithm, on either backend
# ---------------------------------------------------------------------------


def _line_search(be, tau, X, D, f_x, slope, gnorm, slack, search):
    """Backtracking (Armijo) steps along D for the programs in `search`, trials evaluated together.

    A trial outside the domain of a nonlinear row has barrier value +inf
    and is halved like any other failed test.  Returns {program: (alpha,
    barrier value at the new point)} for the programs that take a step.
    """
    a = be.first_steps(X, D, slack)
    steps, first = {}, {}
    searching = [i for i in search if a[i] > 0.0]
    while searching:
        f_a = be.barrier(be.step(X, D, a), tau)
        still = []
        for i in searching:
            if f_a[i] <= f_x[i] + ARMIJO * a[i] * slope[i]:
                steps[i] = (a[i], f_a[i])
                continue
            if i not in first and f_a[i] < math.inf:
                first[i] = (a[i], f_a[i])
            a[i] *= 0.5
            # stop once the decrease a shorter step predicts is below what
            # the barrier evaluation resolves
            if a[i] > 0.0 and not -a[i] * slope[i] <= 2e-14 * (1.0 + abs(f_x[i])):
                still.append(i)
        searching = still

    # noise floor: close to the stage optimum the predicted decrease of a
    # Newton step drops under what the barrier evaluation resolves, so take
    # the first finite trial whenever it clearly contracts the gradient
    near = [i for i, (_, f_i) in first.items()
            if i not in steps and f_i <= f_x[i] + 1e-9 * (1.0 + abs(f_x[i]))]
    if near:
        trial = [0.0] * len(a)
        for i in near:
            trial[i] = first[i][0]
        g_a = be.gnorm(be.step(X, D, trial), tau)
        steps.update((i, first[i]) for i in near if g_a[i] <= 0.5 * gnorm[i])
    return steps


def _at_noise(slope, f_x):
    """Whether the squared Newton decrement -slope is under the barrier's evaluation
    noise, so that the remaining gradient is representation error."""
    return max(-slope, 0.0) <= 2e-14 * (1.0 + abs(f_x))


def _minimize_stage(be, tau, X, f_x):
    """Newton iterations at fixed tau on every program; f_x, the barrier at X, is updated in place.

    A program stops once its last step is at most STEP_TOL long and its
    gradient at most GRAD_TOL (or at the noise floor); while its gap bound
    is wide, once its squared Newton decrement tau (-g . d) is at most
    LOOSE_DECREMENT; after three stalls in a row; or at MAX_INNER steps.
    Returns (X, Newton steps, converged, objective, Z) with Z = -H^-1 grad f
    at each final iterate, the central-path tangent, NaN where the step
    cap ends the stage.
    """
    K = len(X)
    run = list(range(K))
    steps, converged = [MAX_INNER] * K, [False] * K
    f_end, Z = [math.nan] * K, np.full_like(X, math.nan)
    last_step, stalls = [math.inf] * K, [0] * K
    gap = be.n_rows / tau
    for k in range(MAX_INNER + 1):
        f, gnorm, slope, D, dZ, slack = be.newton(X, tau)
        if k == MAX_INNER:
            for i in run:
                f_end[i] = f[i]
            break
        ended, search = [], []
        for i in run:
            if (last_step[i] <= STEP_TOL and (gnorm[i] <= GRAD_TOL or _at_noise(slope[i], f_x[i]))
                    or gap > LOOSE_GAP * (1.0 + abs(f[i])) and -tau * slope[i] <= LOOSE_DECREMENT):
                steps[i], converged[i] = k, True
                ended.append(i)
            else:
                search.append(i)
        moves = _line_search(be, tau, X, D, f_x, slope, gnorm, slack, search) if search else {}
        for i in search:
            if i in moves:
                stalls[i] = 0
            else:
                stalls[i] += 1
                last_step[i] = 0.0
                if stalls[i] >= 3:
                    # no further progress representable in floating point
                    steps[i], converged[i] = k + 1, gnorm[i] <= 5.0 * GRAD_TOL or _at_noise(slope[i], f_x[i])
                    ended.append(i)
        if moves:
            alpha, dnorm = [0.0] * K, be.norms(D)
            for i, (a_i, f_a) in moves.items():
                alpha[i] = a_i
                f_x[i], last_step[i] = f_a, a_i * dnorm[i]
            X = be.step(X, D, alpha)
        if ended:
            for i in ended:
                f_end[i], Z[i] = f[i], dZ[i]
            run = [i for i in run if i not in ended]
            if not run:
                break
    return X, steps, converged, f_end, Z


def _path(be, X, tau):
    """The outer loop on one tau schedule from tau, each program leaving at its own gap stop.

    Returns (x, tau, converged, stages, Newton steps) per program.  A NaN
    prediction has barrier value +inf or NaN and is never kept.
    """
    live = list(range(len(X)))
    out: list = [None] * len(X)
    stages, steps = [0] * len(X), [0] * len(X)
    f_x = be.barrier(X, tau)
    ahead = 1.0 - 1.0 / MU
    while True:
        X, k, converged, f, Z = _minimize_stage(be, tau, X, f_x)
        keep = []
        for j, i in enumerate(live):
            steps[i] += k[j]
            stages[i] += 1
            if be.n_rows / tau <= GAP_TOL * (1.0 + abs(f[j])) or tau >= TAU_CEILING:
                out[i] = (X[j], tau, converged[j], stages[i], steps[i])
            else:
                keep.append(j)
        if not keep:
            return out
        live = [live[j] for j in keep]
        if len(keep) < len(X):      # never on a `_One`
            be, X, Z = be.take(keep), X[keep], Z[keep]
        tau *= MU
        f_x, f_p = be.barrier(X, tau), be.barrier(be.step(X, Z, [ahead] * len(X)), tau)
        kept = [fp < fx for fp, fx in zip(f_p, f_x)]
        X = be.step(X, Z, [ahead if up else 0.0 for up in kept])
        f_x = [fp if up else fx for fp, fx, up in zip(f_p, f_x, kept)]


def _seeds(program, tau, x):
    """The barrier multipliers 1/(tau s) of every row at x, in `refine_multipliers`' blocks."""
    lam = 1.0 / (tau * _point(program, x)[2])
    m, k = program.n_nonlinear, program.n_nonlinear + program.lin_b.size
    return lam[:m], lam[m:k], lam[k:]


def solve_nb(program) -> SolveResult:
    """Interior-point solve of a canonical program via the log barrier, from the
    deterministic interior point of its presolved (zero budgets pinned) form."""
    return solve_nb_many([program])[0]


def solve_nb_many(programs) -> list[SolveResult]:
    """`solve_nb` on each program, in order: each group of at least LOCKSTEP_MIN programs whose
    presolved forms share a `stack_key` steps in lockstep on a `_Stack`, every other one on a `_One`."""
    results: list = [None] * len(programs)
    groups: dict = {}
    for i, p in enumerate(programs):
        started = start(p)
        if started is None:
            results[i] = SolveResult.infeasible("nb")
        else:
            key = stack_key(started[0].program) if len(programs) >= LOCKSTEP_MIN else i
            groups.setdefault(key, []).append((i, *started))
    for members in groups.values():
        for run in [members] if len(members) >= LOCKSTEP_MIN else [[one] for one in members]:
            reduced, X = [pre.program for _, pre, _ in run], np.array([x for *_, x in run])
            if len(run) < LOCKSTEP_MIN:
                path = _path(_One(reduced[0]), X, TAU0)
            else:
                # stacked trials off the domain make NaN and inf, read as barrier +inf; a
                # ufunc call costs more under errstate, so a `_One` runs outside it
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    path = _path(_Stack(reduced), X, TAU0)
            for (i, pre, _), (x, tau, converged, stages, steps) in zip(run, path):
                results[i] = finish(programs[i], pre, x, _seeds(pre.program, tau, x), converged, "nb",
                                    stages, steps, tau)
    return results
