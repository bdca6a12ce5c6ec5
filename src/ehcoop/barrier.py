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

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass
class BarrierOptions:
    tau0: float = 1.0          # initial barrier weight
    mu: float = 10.0           # tau multiplier per outer stage
    tau_max: float = 1e8       # stop once tau reaches this
    eps: float = 1e-6          # inner termination on the step norm
    max_inner: int = 200       # Newton iteration cap per stage
    shrink: float = 0.99       # back-off from the linear boundary
    grad_tol: float = 1e-7     # barrier gradient norm required at convergence
    record_history: bool = False

    def __post_init__(self):
        if self.tau0 <= 0 or self.mu <= 1 or self.tau_max < self.tau0:
            raise ValueError("need tau0 > 0, mu > 1, tau_max >= tau0")
        if not 0 < self.shrink < 1:
            raise ValueError("shrink must lie in (0, 1)")
        if min(self.eps, self.grad_tol) <= 0:
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


# ---------------------------------------------------------------------------
# Barrier evaluation
# ---------------------------------------------------------------------------


def barrier_value(program, tau: float, x: np.ndarray) -> float:
    """Barrier objective at x; +inf outside the strict interior."""
    total = program.objective_value(x)
    logs = 0.0
    for j in range(program.n_nonlinear):
        c = program.nonlinear_value(j, x)
        if c >= 0.0:
            return math.inf
        logs += math.log(-c)
    if program.lin_b.size:
        slack = program.lin_b - program.lin_A @ x
        if slack.min() <= 0.0:
            return math.inf
        logs += float(np.log(slack).sum())
    for i in program.positive_indices:
        if x[i] <= 0.0:
            return math.inf
        logs += math.log(x[i])
    return total - logs / tau


def barrier_gradient(program, tau: float, x: np.ndarray) -> np.ndarray:
    g = program.objective_gradient(x)
    for j in range(program.n_nonlinear):
        c = program.nonlinear_value(j, x)
        g -= program.nonlinear_gradient(j, x) / (tau * c)
    if program.lin_b.size:
        slack = program.lin_b - program.lin_A @ x
        g += program.lin_A.T @ (1.0 / slack) / tau
    for i in program.positive_indices:
        g[i] -= 1.0 / (tau * x[i])
    return g


def barrier_hessian(program, tau: float, x: np.ndarray) -> np.ndarray:
    H = program.objective_hessian(x)
    for j in range(program.n_nonlinear):
        c = program.nonlinear_value(j, x)
        gc = program.nonlinear_gradient(j, x)
        H += np.outer(gc, gc) / (tau * c * c)
        H -= program.nonlinear_hessian(j, x) / (tau * c)
    if program.lin_b.size:
        slack = program.lin_b - program.lin_A @ x
        H += (program.lin_A.T * (1.0 / slack**2)) @ program.lin_A / tau
    for i in program.positive_indices:
        H[i, i] += 1.0 / (tau * x[i] * x[i])
    return H


def _newton_direction(program, tau, x, g):
    """Solve H d = -g for the current barrier stage; also says whether H was regularized."""
    H = barrier_hessian(program, tau, x)
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
    alpha = cap
    if program.lin_b.size:
        slack = program.lin_b - program.lin_A @ x
        along = program.lin_A @ d
        for s, a in zip(slack, along):
            if a > 0.0:
                alpha = min(alpha, s / a)
    for i in program.positive_indices:
        if d[i] < 0.0:
            alpha = min(alpha, -x[i] / d[i])
    return shrink * alpha


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


def _minimize_stage(program, tau, x, opts: BarrierOptions, history):
    """Newton iterations at fixed tau until the step norm falls under eps."""
    last_step = math.inf
    stalls = 0
    f_x = barrier_value(program, tau, x)
    for k in range(opts.max_inner):
        g = barrier_gradient(program, tau, x)
        gnorm = float(np.abs(g).max())
        d, regularized = _newton_direction(program, tau, x, g)
        # squared Newton decrement: the decrease a full step can still buy;
        # once it sinks under the evaluation noise of the barrier, the
        # remaining gradient is representation error along stiff directions
        slope = float(g @ d)
        dec2 = max(-slope, 0.0)
        at_noise = dec2 <= 2e-14 * (1.0 + abs(f_x))
        if last_step <= opts.eps and (gnorm <= opts.grad_tol or at_noise):
            return x, k, True
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
                return x, k + 1, gnorm <= 5.0 * opts.grad_tol or at_noise
            last_step = 0.0
            continue
        stalls = 0
        x = x + alpha * d
        f_x = f_new
        last_step = alpha * float(np.linalg.norm(d))
    return x, opts.max_inner, False


def _certificate(program, tau, x, act_tol: float = 1e-4):
    """Multiplier estimates at the final iterate.

    The barrier supplies lam_j = 1/(tau * s_j) for every row, which makes
    the stationarity residual equal to the barrier gradient.  On stiff
    instances that residual bottoms out at curvature times the coordinate
    representation error, so the seeds go through `refine_multipliers`
    for a least-squares correction along the near-active normals.
    """
    x = np.asarray(x, dtype=float)
    n_nl = program.n_nonlinear
    pos = list(program.positive_indices)
    slack_nl = np.array([-program.nonlinear_value(j, x) for j in range(n_nl)])
    slack_lin = program.lin_b - program.lin_A @ x if len(program.lin_b) else np.zeros(0)
    lam_nl = 1.0 / (tau * slack_nl) if n_nl else np.zeros(0)
    lam_lin = 1.0 / (tau * slack_lin) if slack_lin.size else np.zeros(0)
    lam_pos = np.array([1.0 / (tau * x[i]) for i in pos])
    return refine_multipliers(program, x, lam_nl, lam_lin, lam_pos, act_tol)


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

    tau = opts.tau0
    outer = 0
    inner_total = 0
    converged = False
    while True:
        x, iters, converged = _minimize_stage(red, tau, x, opts, history)
        inner_total += iters
        outer += 1
        tau_used = tau
        tau *= opts.mu
        if tau >= opts.tau_max:
            break

    kkt = stationarity_residual(red, x, *_certificate(red, tau_used, x))
    x_full = pre.expand(x) if pre is not None else x
    violation = program.max_violation(x_full)
    obj_bits = -program.objective_value(x_full) / LN2
    return SolveResult(
        status=SolveStatus.CONVERGED if converged else SolveStatus.MAX_ITERATIONS,
        x_star=Allocation(x=x_full, degenerate=pre.pinned if pre is not None else ()),
        objective_bits=obj_bits,
        outer_iters=outer,
        inner_iters=inner_total,
        max_constraint_violation=violation,
        kkt_residual=kkt,
        solver="nb",
        tau_final=tau_used,
        history=history,
    )
