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

Each Newton iterate is evaluated once: the barrier gradient and Hessian
both come from one `program.evaluate(x)` pass over the compiled term table
(see program.py), the curvature from the term factors weighted by
-1/(tau c_j).  Line-search trials use the value-only `program.values(x)`.

Between stages the iterate is moved along the central path.  On the path
grad f + (1/tau) grad phi = 0 (phi the negated log sum above), so
dx/d(1/tau) = tau H^-1 grad f with H the barrier Hessian; near the
optimum the path is almost linear in 1/tau (Fiacco & McCormick 1968;
Boyd & Vandenberghe section 11.3), and going from tau to mu*tau predicts
x - (1 - 1/mu) H^-1 grad f.  Every Newton
solve takes grad f as a second right-hand side on the same Hessian, and
the stage hands on the one solved at its final iterate, where it builds
the Hessian anyway for its stop test.  The predicted point is kept only
where the next stage's barrier is finite and lower than at x, and a late
stage then needs about one Newton step.

The outer loop starts at TAU0 = 100 and stops on the duality gap of the
central path: with m barrier rows (nonlinear and affine), the stage
optimum at tau is within m/tau of the optimum, so tau grows by MU per stage
until m/tau <= GAP_TOL * (1 + |f|).  TAU_CEILING ends the loop where f is not
finite.  At tau = 1 the gap bound m/tau exceeds |f|, so a first stage
there only centres the iterate (starting at 100 cut the Newton steps of
the 528 solves of the acceptance energy grid from 19,879 to 14,804, all
converged); starting at 1e4 left 40 of them unconverged.  The result is
built by `program.finish` from the barrier multipliers 1/(tau s) of the
final iterate, so a finished path counts as converged only with the
certificate both solvers share.  A solve takes only its program: TAU0 and
the other tuning values are the module constants below, read at call
time.  `solve_nb(program, history)` appends one record per Newton step to
a list the caller passes.

`solve_nb_many` solves a list of programs, such as the candidates of one
rho screen, in lockstep.  Programs whose reduced (presolved) forms share a
layout (`_layout`: variables, each term's row and coordinates, auxiliary
rates, affine row count) are stacked into (K, ...) arrays, and
`solve_nb`'s algorithm runs on all of them at once: one stacked
evaluation, gradient, Hessian and `np.linalg.solve` on (K, n, n) per Newton
iteration, Armijo halving (with the noise-floor rule), stalls and the step
cap per program, one tau schedule with each program leaving at its own
gap stop.  The arithmetic is `solve_nb`'s, term by term, so on the default
screens the two paths take the same Newton steps and agree to a few ulps.
A stacked iteration costs about as much as two scalar ones at these sizes
(numpy call overhead dominates), so groups smaller than LOCKSTEP_MIN = 3,
where the two break even, go through `solve_nb` one by one.

`alpha_log_bisection`, `bisect_sign_change` and `golden_section_min` are
no longer called by the solver; they stay because the benchmark's trace
(perfbench/tracing.py) looks each of them up by name.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .program import SolveResult, finish, start

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
# Newton iteration cap per stage
MAX_INNER = 200
# back-off of the first trial step from the nearest linear row or axis
SHRINK = 0.99
# fewest programs of one layout that `solve_nb_many` steps in lockstep: at 2
# the stacked loop and two `solve_nb` calls cost about the same, at 3 the
# stacked loop takes about 0.7 of their time
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


def _rows(program, x, ev):
    """Every barrier row at x: gradients (nonlinear rows, then affine ones) and slacks."""
    A, b = program.affine_rows
    return np.concatenate((ev.G, A)), np.concatenate((-ev.c, b - A @ x))


def barrier_gradient(program, tau: float, x: np.ndarray, ev=None) -> np.ndarray:
    """Barrier gradient; `ev` is `program.evaluate(x)` when the caller already has it."""
    ev = program.evaluate(x) if ev is None else ev
    A, s = _rows(program, x, ev)
    return ev.grad + A.T @ (1.0 / (tau * s))


def barrier_hessian(program, tau: float, x: np.ndarray, ev=None) -> np.ndarray:
    """Barrier Hessian; the curvature of row j is weighted by -1/(tau c_j)."""
    ev = program.evaluate(x) if ev is None else ev
    A, s = _rows(program, x, ev)
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


def _newton_direction(program, tau, x, g, ev=None):
    """Solve H d = -g for the current barrier stage; also says whether H was regularized.

    g may stack several right-hand sides as columns, solved on one factorization.
    """
    return _solve(barrier_hessian(program, tau, x, ev), g)


# ---------------------------------------------------------------------------
# Line search pieces
# ---------------------------------------------------------------------------


def alpha_linear(program, x: np.ndarray, d: np.ndarray) -> float:
    """Largest safe step against linear constraints and coordinate axes."""
    A, b = program.affine_rows
    along = A @ d
    hit = along > 0.0
    return SHRINK * float(((b - A @ x)[hit] / along[hit]).min(initial=ALPHA_CAP))


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


def _line_search(program, tau, x, d, f_x, slope, gnorm):
    """Backtracking (Armijo) step along d.

    Returns (alpha, barrier value at the new point, barrier evaluations).
    The first trial is the Newton step capped by fraction-to-boundary on
    the linear rows and coordinate axes; a trial outside the domain of a
    nonlinear row has barrier value +inf and is halved like any other
    failed test.
    """
    a = min(1.0, alpha_linear(program, x, d))
    first = None
    evals = 0
    floor = 2e-14 * (1.0 + abs(f_x))
    while a > 0.0:
        f_a = barrier_value(program, tau, x + a * d)
        evals += 1
        if f_a <= f_x + ARMIJO * a * slope:
            return a, f_a, evals
        if first is None and f_a < math.inf:
            first = (a, f_a)
        a *= 0.5
        if -a * slope <= floor:
            # the decrease a shorter step predicts is below what the
            # barrier evaluation resolves
            break

    # noise floor: close to the stage optimum the predicted decrease of a
    # Newton step drops under what the barrier evaluation resolves, so take
    # the first finite trial whenever it clearly contracts the gradient
    if first is not None and first[1] <= f_x + 1e-9 * (1.0 + abs(f_x)):
        a, f_a = first
        g_a = barrier_gradient(program, tau, x + a * d)
        if float(np.abs(g_a).max()) <= 0.5 * gnorm:
            return a, f_a, evals
    return 0.0, f_x, evals


# ---------------------------------------------------------------------------
# Inner minimization and the outer barrier loop
# ---------------------------------------------------------------------------


def _minimize_stage(program, tau, x, f_x, history):
    """Newton iterations at fixed tau until the step norm falls under STEP_TOL.

    f_x is the barrier value at the start point.  Returns (x, Newton steps,
    converged, objective at x, z) with z = -H^-1 grad f on the barrier
    Hessian at x, the central-path tangent; z is None when the step cap
    ends the stage, as the last Hessian was then built elsewhere.
    """
    last_step = math.inf
    stalls = 0
    for k in range(MAX_INNER):
        ev = program.evaluate(x)
        g = barrier_gradient(program, tau, x, ev)
        gnorm = float(np.abs(g).max())
        dz, regularized = _newton_direction(program, tau, x, np.column_stack((g, ev.grad)), ev)
        d, z = dz[:, 0], dz[:, 1]
        # squared Newton decrement: the decrease a full step can still buy;
        # once it sinks under the evaluation noise of the barrier, the
        # remaining gradient is representation error along stiff directions
        slope = float(g @ d)
        dec2 = max(-slope, 0.0)
        at_noise = dec2 <= 2e-14 * (1.0 + abs(f_x))
        if last_step <= STEP_TOL and (gnorm <= GRAD_TOL or at_noise):
            return x, k, True, ev.f, z
        alpha, f_new, evals = _line_search(program, tau, x, d, f_x, slope, gnorm)
        if history is not None:
            history.append({
                "tau": tau, "iter": k, "barrier": f_x, "barrier_next": f_new,
                "alpha": alpha, "grad_norm": gnorm, "slope": slope,
                "regularized": regularized, "evals": evals,
            })
        if alpha == 0.0:
            stalls += 1
            if stalls >= 3:
                # no further progress representable in floating point
                return x, k + 1, gnorm <= 5.0 * GRAD_TOL or at_noise, ev.f, z
            last_step = 0.0
            continue
        stalls = 0
        x = x + alpha * d
        f_x = f_new
        last_step = alpha * float(np.linalg.norm(d))
    return x, MAX_INNER, False, program.values(x)[0], None


def _extrapolate(program, tau, x, z):
    """Start point of the stage at tau and its barrier value.

    x + (1 - 1/MU) z, the first-order central-path prediction from the
    stage at tau/MU, when the barrier at tau is lower there than at x;
    otherwise x itself.
    """
    f_x = barrier_value(program, tau, x)
    if z is not None:
        x_p = x + (1.0 - 1.0 / MU) * z
        f_p = barrier_value(program, tau, x_p)
        if f_p < f_x:
            return x_p, f_p
    return x, f_x


def _seeds(program, tau, x):
    """The barrier multipliers 1/(tau s) of every row at x, in `refine_multipliers`' blocks."""
    lam = 1.0 / (tau * _rows(program, x, program.evaluate(x))[1])
    m, k = program.n_nonlinear, program.n_nonlinear + program.lin_b.size
    return lam[:m], lam[m:k], lam[k:]


def solve_nb(program, history: list | None = None) -> SolveResult:
    """Interior-point solve of a canonical program via the log barrier.

    Zero-budget coordinates are presolved away and the iterations start
    from the deterministic interior point of the reduced program.  Given a
    list `history`, each Newton step appends its record to it.
    """
    started = start(program)
    if started is None:
        return SolveResult.infeasible("nb")
    pre, x = started
    red = pre.program

    rows = red.n_nonlinear + len(red.affine_rows[1])
    tau = TAU0
    f_x = barrier_value(red, tau, x)
    outer = 0
    inner_total = 0
    while True:
        x, iters, converged, f, z = _minimize_stage(red, tau, x, f_x, history)
        inner_total += iters
        outer += 1
        if rows / tau <= GAP_TOL * (1.0 + abs(f)) or tau >= TAU_CEILING:
            break
        tau *= MU
        x, f_x = _extrapolate(red, tau, x, z)
    return finish(program, pre, x, _seeds(red, tau, x), converged, "nb", outer, inner_total, tau)


# ---------------------------------------------------------------------------
# Lockstep solves of programs that share a layout
# ---------------------------------------------------------------------------


def _layout(p):
    """What programs must share to be stacked: variables, term rows and coordinates, aux rates, affine rows."""
    return (p.n_vars, p.aux_index, p.affine_rows[0].shape,
            tuple((row, ti, yi) for row, _, _, ti, yi in p.term_table))


class _Stack:
    """K programs of one layout as (K, ...) arrays.

    Gammas and coefficients (K, T), objective vectors and affine rows are
    per program, the objective vector stacked under the affine rows so that
    one product gives both.  Shared 0/1 matrices place the T terms: R sums
    their values into the rows (the objective last), P scatters their t
    and y derivatives into the (m+1, n) gradient block, C their rank-one
    curvature (a v_t^2, a v_t v_y, a v_y^2) into the n x n Hessian as
    `Evaluation.curvature` adds it, and W spreads the row weights onto the
    terms.
    """

    def __init__(self, programs):
        p = programs[0]
        table = p.term_table
        n, m, T = p.n_vars, p.n_nonlinear, len(table)
        rows = [row % (m + 1) for row, *_ in table]
        ti, yi = [t[3] for t in table], [t[4] for t in table]
        self.n, self.m, self.T = n, m, T
        self.n_rows = m + len(p.affine_rows[1])
        self.index = ti + yi + list(p.aux_index)
        self.R = np.zeros((T, m + 1))
        self.R[range(T), rows] = -1.0
        self.W = -self.R[:, :m].T
        self.obj = -self.R[:, m]
        self.P = np.zeros((2 * T, (m + 1) * n))
        self.C = np.zeros((3 * T, n * n))
        for k in range(T):
            self.P[k, rows[k] * n + ti[k]] = self.P[T + k, rows[k] * n + yi[k]] = 1.0
            self.C[k, ti[k] * n + ti[k]] = self.C[2 * T + k, yi[k] * n + yi[k]] = 1.0
            self.C[T + k, ti[k] * n + yi[k]] = self.C[T + k, yi[k] * n + ti[k]] = 1.0
        self.gamma = np.array([[t[1] for t in prog.term_table] for prog in programs])
        self.neg_gamma = -self.gamma
        self.coeff = np.array([[t[2] for t in prog.term_table] for prog in programs])
        q = np.array([prog.objective_linear for prog in programs])
        A = np.array([prog.affine_rows[0] for prog in programs])
        self.b = np.array([prog.affine_rows[1] for prog in programs])
        self.Aq = np.concatenate((A, q[:, None, :]), 1)
        unit = np.zeros((m, n))
        unit[range(m), p.aux_index] = 1.0
        self.base = np.concatenate((np.broadcast_to(unit, (len(programs), m, n)),
                                    q[:, None, :]), 1).reshape(len(programs), -1)

    def take(self, keep) -> "_Stack":
        """The programs at the positions `keep`."""
        out = copy.copy(self)
        for name in ("gamma", "neg_gamma", "coeff", "b", "Aq", "base"):
            setattr(out, name, getattr(self, name)[keep])
        return out

    def _terms(self, X):
        """(t, y, aux rates, A x) at the points X, the last column of A x the objective's q . x."""
        Xi = X[:, self.index]
        T = self.T
        return Xi[:, :T], Xi[:, T:2 * T], Xi[:, 2 * T:], (self.Aq @ X[:, :, None])[:, :, 0]

    def values(self, X):
        """Objective values, epigraph row values and affine slacks (NaN off the domain)."""
        t, y, aux, Ax = self._terms(X)
        sums = (self.coeff * (t * np.log1p(self.gamma * y / t))) @ self.R
        return Ax[:, -1] + sums[:, -1], aux + sums[:, :-1], self.b - Ax[:, :-1]

    def barrier(self, X, tau):
        """Barrier values; +inf outside the strict interior.

        There a log of a row value or slack is NaN or -inf, and so is the
        sum, or the point has a NaN coordinate.
        """
        f, c, s = self.values(X)
        out = f - (np.log(-c).sum(1) + np.log(s).sum(1)) / tau
        out[np.isnan(out)] = math.inf
        return out

    def gradient(self, X, tau):
        """The `evaluate` pass and the barrier gradient g, stacked.

        Returns (f, grad f, g, c, slacks, row gradients, term factors) with
        the rows nonlinear first, as in `_rows`, and the factors (v_t, v_y)
        of each term's rank-one Hessian.
        """
        t, y, aux, Ax = self._terms(X)
        coeff = self.coeff
        gy = self.gamma * y
        log = np.log1p(gy / t)
        den = t + gy
        rt = np.sqrt(t)
        sums = (coeff * (t * log)) @ self.R
        c = aux + sums[:, :-1]
        parts = np.concatenate((coeff * (gy / den - log), coeff * (self.neg_gamma * t / den)), 1)
        grads = (self.base + parts @ self.P).reshape(len(X), self.m + 1, self.n)
        rows = np.concatenate((grads[:, :-1], self.Aq[:, :-1]), 1)
        s = np.concatenate((-c, self.b - Ax[:, :-1]), 1)
        g = grads[:, -1] + ((1.0 / (tau * s))[:, None, :] @ rows)[:, 0]
        return (Ax[:, -1] + sums[:, -1], grads[:, -1], g, c, s, rows,
                (gy / (rt * den), self.neg_gamma * rt / den))

    def hessian(self, tau, c, s, rows, factors):
        """Barrier Hessians from a `gradient` pass."""
        v0, v1 = factors
        w = ((-1.0 / (tau * c)) @ self.W + self.obj) * self.coeff
        a = w * v0
        H = (np.concatenate((a * v0, a * v1, w * v1 * v1), 1) @ self.C).reshape(len(c), self.n, self.n)
        return H + (rows.transpose(0, 2, 1) / (tau * s * s)[:, None, :]) @ rows


def _solve_all(H, g):
    """Solve H d = -g on every stacked system, a singular one regularized as in `_solve`."""
    try:
        return np.linalg.solve(H, -g)
    except np.linalg.LinAlgError:
        return np.array([_solve(h, r)[0] for h, r in zip(H, g)])


def _line_search_all(stack, tau, X, D, f_x, slope, gnorm, slack, search):
    """`_line_search` on the programs listed in `search`.

    The trials of all programs are evaluated together; the tests run per
    program on Python floats, as in `_line_search`.  f_x, slope and gnorm
    are lists, `slack` the affine slacks at X.  Returns {program: (alpha,
    barrier value at the new point)} for the programs that take a step.
    """
    along = (stack.Aq[:, :-1] @ D[:, :, None])[:, :, 0]
    limit = np.where(along > 0.0, slack / along, ALPHA_CAP).min(1).tolist()
    a = [min(1.0, SHRINK * lim) for lim in limit]
    steps, first = {}, {}
    searching = [i for i in search if a[i] > 0.0]
    while searching:
        f_a = stack.barrier(X + np.array(a)[:, None] * D, tau).tolist()
        still = []
        for i in searching:
            if f_a[i] <= f_x[i] + ARMIJO * a[i] * slope[i]:
                steps[i] = (a[i], f_a[i])
                continue
            if i not in first and f_a[i] < math.inf:
                first[i] = (a[i], f_a[i])
            a[i] *= 0.5
            if a[i] > 0.0 and not -a[i] * slope[i] <= 2e-14 * (1.0 + abs(f_x[i])):
                still.append(i)
        searching = still

    # the noise-floor rule of `_line_search`
    near = [i for i in search if i not in steps and i in first
            and first[i][1] <= f_x[i] + 1e-9 * (1.0 + abs(f_x[i]))]
    if near:
        trial = np.zeros(len(X))
        trial[near] = [first[i][0] for i in near]
        g_a = np.abs(stack.gradient(X + trial[:, None] * D, tau)[2]).max(1).tolist()
        steps.update((i, first[i]) for i in near if g_a[i] <= 0.5 * gnorm[i])
    return steps


def _stage_all(stack, tau, X, f_x):
    """`_minimize_stage` on every program at once, each stopping on its own.

    f_x is a list.  Returns (X, Newton steps, converged, objective, Z) with
    lists per program, and a row of Z NaN where `_minimize_stage` returns
    z = None.
    """
    K = len(X)
    run = list(range(K))
    steps, converged = [MAX_INNER] * K, [False] * K
    f_end, Z = [math.nan] * K, np.full_like(X, math.nan)
    last_step, stalls = [math.inf] * K, [0] * K
    for k in range(MAX_INNER):
        f, grad, g, c, s, rows, factors = stack.gradient(X, tau)
        dz = _solve_all(stack.hessian(tau, c, s, rows, factors), np.stack((g, grad), 2))
        D = dz[:, :, 0]
        gnorm = np.abs(g).max(1).tolist()
        slope = (g * D).sum(1).tolist()
        at_noise = [max(-sl, 0.0) <= 2e-14 * (1.0 + abs(fx)) for sl, fx in zip(slope, f_x)]
        ended, search = [], []
        for i in run:
            if last_step[i] <= STEP_TOL and (gnorm[i] <= GRAD_TOL or at_noise[i]):
                steps[i], converged[i] = k, True
                ended.append(i)
            else:
                search.append(i)
        moves = _line_search_all(stack, tau, X, D, f_x, slope, gnorm, s[:, stack.m:],
                                 search) if search else {}
        for i in search:
            if i in moves:
                stalls[i] = 0
            else:
                stalls[i] += 1
                last_step[i] = 0.0
                if stalls[i] >= 3:
                    # no further progress representable in floating point
                    steps[i], converged[i] = k + 1, gnorm[i] <= 5.0 * GRAD_TOL or at_noise[i]
                    ended.append(i)
        if moves:
            alpha = np.zeros(K)
            alpha[list(moves)] = [a for a, _ in moves.values()]
            X = np.where(alpha[:, None] > 0.0, X + alpha[:, None] * D, X)
            norms = np.linalg.norm(D, axis=1).tolist()
            for i, (a, f_a) in moves.items():
                f_x[i], last_step[i] = f_a, a * norms[i]
        if ended:
            f = f.tolist()
            for i in ended:
                f_end[i] = f[i]
            Z[ended] = dz[ended, :, 1]
            run = [i for i in run if i not in ended]
            if not run:
                break
    if run:
        f = stack.values(X)[0].tolist()
        for i in run:
            f_end[i] = f[i]
    return X, steps, converged, f_end, Z


def _path_all(stack, X, tau):
    """`solve_nb`'s outer loop on every program at once, on one tau schedule from tau.

    Each program leaves the loop at its own duality-gap stop.  Returns
    (x, tau, converged, stages, Newton steps) per program.
    """
    live = list(range(len(X)))
    out: list = [None] * len(X)
    stages, steps = [0] * len(X), [0] * len(X)
    f_x = stack.barrier(X, tau).tolist()
    while True:
        X, k, converged, f, Z = _stage_all(stack, tau, X, f_x)
        keep = []
        for j, i in enumerate(live):
            steps[i] += k[j]
            stages[i] += 1
            if stack.n_rows / tau <= GAP_TOL * (1.0 + abs(f[j])) or tau >= TAU_CEILING:
                out[i] = (X[j], tau, converged[j], stages[i], steps[i])
            else:
                keep.append(j)
        if not keep:
            return out
        live = [live[j] for j in keep]
        stack, X, Z = stack.take(keep), X[keep], Z[keep]
        tau *= MU
        # `_extrapolate`; a NaN prediction has barrier value +inf
        f_x = stack.barrier(X, tau)
        X_p = X + (1.0 - 1.0 / MU) * Z
        f_p = stack.barrier(X_p, tau)
        ahead = f_p < f_x
        X = np.where(ahead[:, None], X_p, X)
        f_x = np.where(ahead, f_p, f_x).tolist()


def solve_nb_many(programs) -> list[SolveResult]:
    """`solve_nb` on each program, in order; programs sharing a layout step in lockstep.

    After presolve, each group of at least LOCKSTEP_MIN reduced programs
    with one `_layout` runs `solve_nb`'s algorithm on stacked arrays: one
    evaluation, Hessian and `np.linalg.solve` on (K, n, n) per Newton
    iteration, Armijo halving, stalls and stops per program, one tau
    schedule with a duality-gap stop per program.  Fewer than LOCKSTEP_MIN
    programs and smaller groups go through `solve_nb`.
    """
    if len(programs) < LOCKSTEP_MIN:
        return [solve_nb(p) for p in programs]
    results: list = [None] * len(programs)
    groups: dict = {}
    for i, p in enumerate(programs):
        started = start(p)
        if started is None:
            results[i] = SolveResult.infeasible("nb")
        else:
            groups.setdefault(_layout(started[0].program), []).append((i, *started))
    for members in groups.values():
        if len(members) < LOCKSTEP_MIN:
            for i, *_ in members:
                results[i] = solve_nb(programs[i])
            continue
        stack = _Stack([pre.program for _, pre, _ in members])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            path = _path_all(stack, np.array([x for *_, x in members]), TAU0)
        for (i, pre, _), (x, tau, converged, stages, steps) in zip(members, path):
            results[i] = finish(programs[i], pre, x, _seeds(pre.program, tau, x), converged, "nb",
                                stages, steps, tau)
    return results
