"""Newton method with a logarithmic barrier and a backtracking line search.

The solver minimizes  f(x) - (1/tau) * [ sum_j ln(-c_j(x)) + sum_i ln x_i ]
over the strictly feasible region, increasing tau geometrically.  The
barrier covers every inequality and the nonnegative time/energy
coordinates; auxiliary rate variables are kept free because the epigraph
rows already fence them in.

Each Newton direction d is damped by backtracking (Boyd & Vandenberghe,
Convex Optimization, sections 9.2 and 11.3).  The first trial step is
min(1, closed-form distance to the nearest linear row or coordinate axis,
scaled back by `shrink`); it is halved until the barrier decreases by at
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

The outer loop stops on the duality gap of the central path: with m
barrier rows (nonlinear and affine), the stage optimum at tau is within
m/tau of the optimum, so tau grows until m/tau <= gap_tol * (1 + |f|).
TAU_CEILING ends the loop where f is not finite.

`alpha_log_bisection`, `bisect_sign_change` and `golden_section_min` are
no longer called by the solver; they stay because the benchmark's trace
(perfbench/tracing.py) looks each of them up by name.

Any program exposing the evaluation protocol of `ConvexProgram` (see
program.py) can be solved, including the quadratic subproblems built by
the iterative solver, which is handy for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .program import (
    LN2,
    Allocation,
    InfeasibleProgramError,
    initial_point,
    presolve_program,
    refine_multipliers,
    stationarity_residual,
)

# steps towards unconstrained directions are capped here instead of at infinity
ALPHA_CAP = 1e6
# sufficient-decrease fraction of the Armijo test
ARMIJO = 1e-4
# the outer loop ends here even if the gap test never passes (f not finite)
TAU_CEILING = 1e16

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass
class BarrierOptions:
    tau0: float = 1.0          # initial barrier weight
    mu: float = 100.0          # tau multiplier per outer stage
    gap_tol: float = 1e-10     # stop once (barrier rows)/tau <= gap_tol * (1 + |f|)
    eps: float = 1e-6          # inner termination on the step norm
    max_inner: int = 200       # Newton iteration cap per stage
    shrink: float = 0.99       # back-off from the linear boundary
    grad_tol: float = 1e-7     # barrier gradient norm required at convergence
    record_history: bool = False

    def __post_init__(self):
        if self.tau0 <= 0 or self.mu <= 1:
            raise ValueError("need tau0 > 0 and mu > 1")
        if not 0 < self.shrink < 1:
            raise ValueError("shrink must lie in (0, 1)")
        if min(self.eps, self.grad_tol, self.gap_tol) <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_inner < 1:
            raise ValueError("max_inner must be at least 1")


class SolveStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    INFEASIBLE = "infeasible"


@dataclass
class SolveResult:
    status: SolveStatus
    x_star: Allocation | None
    objective_bits: float          # maximized throughput objective, bits
    outer_iters: int               # barrier stages / quadratization rounds
    inner_iters: int               # Newton or interior-point steps in total
    max_constraint_violation: float
    kkt_residual: float
    solver: str
    tau_final: float = math.nan
    history: list | None = None

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED

    @classmethod
    def infeasible(cls, solver: str) -> "SolveResult":
        """The result of a program without a strictly interior point."""
        return cls(status=SolveStatus.INFEASIBLE, x_star=None, objective_bits=math.nan,
                   outer_iters=0, inner_iters=0, max_constraint_violation=math.inf,
                   kkt_residual=math.inf, solver=solver)


def maximized_bits(program, x) -> float:
    """The maximized objective at x in bits; a zero optimum reads 0.0, not -0.0."""
    return -program.objective_value(x) / LN2 + 0.0


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


def _newton_direction(program, tau, x, g, ev=None):
    """Solve H d = -g for the current barrier stage; also says whether H was regularized.

    g may stack several right-hand sides as columns, solved on one factorization.
    """
    H = barrier_hessian(program, tau, x, ev)
    try:
        return np.linalg.solve(H, -g), False
    except np.linalg.LinAlgError:
        bump = 1e-10 * max(1.0, float(np.trace(H)) / max(1, H.shape[0]))
        H = H + bump * np.eye(H.shape[0])
        return np.linalg.solve(H, -g), True


# ---------------------------------------------------------------------------
# Line search pieces
# ---------------------------------------------------------------------------


def alpha_linear(program, x: np.ndarray, d: np.ndarray, shrink: float = 0.99,
                 cap: float = ALPHA_CAP) -> float:
    """Largest safe step against linear constraints and coordinate axes."""
    A, b = program.affine_rows
    along = A @ d
    hit = along > 0.0
    return shrink * float(((b - A @ x)[hit] / along[hit]).min(initial=cap))


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


def _line_search(program, tau, x, d, f_x, slope, gnorm, opts: BarrierOptions):
    """Backtracking (Armijo) step along d.

    Returns (alpha, barrier value at the new point, barrier evaluations).
    The first trial is the Newton step capped by fraction-to-boundary on
    the linear rows and coordinate axes; a trial outside the domain of a
    nonlinear row has barrier value +inf and is halved like any other
    failed test.
    """
    a = min(1.0, alpha_linear(program, x, d, opts.shrink))
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


def _minimize_stage(program, tau, x, f_x, opts: BarrierOptions, history):
    """Newton iterations at fixed tau until the step norm falls under eps.

    f_x is the barrier value at the start point.  Returns (x, Newton steps,
    converged, objective at x, z) with z = -H^-1 grad f on the barrier
    Hessian at x, the central-path tangent; z is None when the step cap
    ends the stage, as the last Hessian was then built elsewhere.
    """
    last_step = math.inf
    stalls = 0
    for k in range(opts.max_inner):
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
        if last_step <= opts.eps and (gnorm <= opts.grad_tol or at_noise):
            return x, k, True, ev.f, z
        alpha, f_new, evals = _line_search(program, tau, x, d, f_x, slope, gnorm, opts)
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
                return x, k + 1, gnorm <= 5.0 * opts.grad_tol or at_noise, ev.f, z
            last_step = 0.0
            continue
        stalls = 0
        x = x + alpha * d
        f_x = f_new
        last_step = alpha * float(np.linalg.norm(d))
    return x, opts.max_inner, False, program.values(x)[0], None


def _extrapolate(program, tau, x, z, mu):
    """Start point of the stage at tau and its barrier value.

    x + (1 - 1/mu) z, the first-order central-path prediction from the
    stage at tau/mu, when the barrier at tau is lower there than at x;
    otherwise x itself.
    """
    f_x = barrier_value(program, tau, x)
    if z is not None:
        x_p = x + (1.0 - 1.0 / mu) * z
        f_p = barrier_value(program, tau, x_p)
        if f_p < f_x:
            return x_p, f_p
    return x, f_x


def _certificate(program, tau, x, act_tol: float = 1e-4):
    """Multiplier estimates at the final iterate.

    The barrier supplies lam_j = 1/(tau * s_j) for every row, which makes
    the stationarity residual equal to the barrier gradient.  On stiff
    instances that residual bottoms out at curvature times the coordinate
    representation error, so the seeds go through `refine_multipliers`
    for a least-squares correction along the near-active normals.
    """
    x = np.asarray(x, dtype=float)
    lam = 1.0 / (tau * _rows(program, x, program.evaluate(x))[1])
    m, k = program.n_nonlinear, program.n_nonlinear + program.lin_b.size
    return refine_multipliers(program, x, lam[:m], lam[m:k], lam[k:], act_tol)


def solve_nb(program, options: BarrierOptions | None = None,
             x0: np.ndarray | None = None) -> SolveResult:
    """Interior-point solve of a canonical program via the log barrier.

    With `x0` given, the program is taken as is and iterations start from
    that strictly interior point; this also admits any object implementing
    the shared evaluation protocol (such as a quadratic subproblem).
    Otherwise zero-budget coordinates are presolved away and the
    deterministic interior point of the reduced program is used.
    """
    opts = options or BarrierOptions()
    if x0 is None:
        pre = presolve_program(program)
        red = pre.program
        try:
            start = initial_point(red)
        except InfeasibleProgramError:
            return SolveResult.infeasible("nb")
        x = start.x.astype(float)
    else:
        pre = None
        red = program
        x = np.asarray(x0, dtype=float).copy()
        if barrier_value(red, opts.tau0, x) == math.inf:
            return SolveResult.infeasible("nb")
    history: list | None = [] if opts.record_history else None

    rows = red.n_nonlinear + len(red.affine_rows[1])
    tau = opts.tau0
    f_x = barrier_value(red, tau, x)
    outer = 0
    inner_total = 0
    while True:
        x, iters, converged, f, z = _minimize_stage(red, tau, x, f_x, opts, history)
        inner_total += iters
        outer += 1
        if rows / tau <= opts.gap_tol * (1.0 + abs(f)) or tau >= TAU_CEILING:
            break
        tau *= opts.mu
        x, f_x = _extrapolate(red, tau, x, z, opts.mu)

    kkt = stationarity_residual(red, x, *_certificate(red, tau, x))
    x_full = pre.expand(x) if pre is not None else x
    violation = program.max_violation(x_full)
    return SolveResult(
        status=SolveStatus.CONVERGED if converged else SolveStatus.MAX_ITERATIONS,
        x_star=Allocation(x=x_full, degenerate=pre.pinned if pre is not None else ()),
        objective_bits=maximized_bits(program, x_full),
        outer_iters=outer,
        inner_iters=inner_total,
        max_constraint_violation=violation,
        kkt_residual=kkt,
        solver="nb",
        tau_final=tau,
        history=history,
    )
