"""Canonical convex program over logarithmic perspective terms.

Every allocation problem in this package is written as a minimization of

    q . x  +  sum_k  c_k * l(gamma_k; t_k, y_k)

subject to epigraph constraints  x[aux] + sum c_k * l(gamma_k; ...) <= 0,
linear constraints  a . x <= b,  and nonnegativity of the time/energy
coordinates, where

    l(gamma; t, y) = -t * ln(1 + gamma * y / t)

is the (negated) throughput of a transmission of energy y spread over time
t at SNR coefficient gamma.  l is jointly convex in (t, y) with an exact
rank-one Hessian, which both solvers exploit.  Programs are small (at most
eight variables), so everything is dense.  `ConvexProgram` is held as its
term table alone and evaluated in one pass; `ProgramStack` makes that pass
over the K programs of one `stack_key`.  `presolve_program` and
`initial_point` start a solve, `point_rows`, `refine_multipliers` and
`KKT_TOL` make its certificate, and `solve_many` and `finish` are the shell
both solvers run in.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

LN2 = math.log(2.0)


class InfeasibleProgramError(ValueError):
    """No strictly interior point could be constructed."""


def perspective_value(gamma: float, t: float, y: float) -> float:
    """-t * ln(1 + gamma*y/t), extended continuously by 0 at t=0 or y=0."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if t < 0 or y < 0:
        raise ValueError("t and y must be nonnegative")
    if t == 0.0 or y == 0.0:
        return 0.0
    return -t * math.log1p(gamma * y / t)


def perspective_gradient(gamma: float, t: float, y: float):
    """Gradient and rank-one Hessian factor of the perspective term.

    Returns (g, v) with g the exact gradient in (t, y) and v the vector
    whose outer product v v^T equals the exact Hessian.  Requires t > 0;
    y = 0 is allowed (the term is smooth there for fixed t > 0).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if t <= 0:
        raise ValueError("gradient requires t > 0")
    if y < 0:
        raise ValueError("y must be nonnegative")
    z = gamma * y / t
    den = t + gamma * y
    g = np.array([-math.log1p(z) + gamma * y / den, -gamma * t / den])
    rt = math.sqrt(t)
    v = np.array([gamma * y / (rt * den), -gamma * rt / den])
    return g, v


class Evaluation(NamedTuple):
    """One pass over a program at a point; `factors` holds (row, t_index,
    y_index, coeff, v_t, v_y) per term, v the term's rank-one Hessian factor."""

    f: float
    grad: np.ndarray       # (n,) objective gradient
    c: np.ndarray          # (m,) epigraph row values
    G: np.ndarray          # (m, n) epigraph row gradients
    factors: tuple

    def curvature(self, w) -> np.ndarray:
        """Sum of w[row] * coeff * v v^T over the terms; w[-1] weighs the objective."""
        n = len(self.grad)
        H = [0.0] * (n * n)
        for row, ti, yi, coeff, v0, v1 in self.factors:
            s = w[row] * coeff
            a = s * v0
            t, y = ti * n, yi * n
            H[t + ti] += a * v0
            H[t + yi] += a * v1
            H[y + ti] += a * v1
            H[y + yi] += s * v1 * v1
        return np.array(H).reshape(n, n)


@dataclass
class ConvexProgram:
    """Dense canonical form of one allocation problem.

    `term_table` holds one (row, gamma, coeff, t_index, y_index) per
    perspective term, row -1 for the objective and j for epigraph row j,
    whose rate variable is `aux_index[j]`.  `labels` names the epigraph
    rows, then the linear rows `lin_A x <= lin_b`.  Builders write the table
    directly and presolve filters and renumbers it; an instance is not
    changed after construction.
    """

    n_vars: int
    objective_linear: np.ndarray
    term_table: tuple
    aux_index: tuple[int, ...]
    lin_A: np.ndarray
    lin_b: np.ndarray
    t_indices: tuple[int, ...]
    y_indices: tuple[int, ...]
    var_names: tuple[str, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        m = len(self.aux_index)
        self.term_table = tuple((row, float(gamma), float(coeff), ti, yi)
                                for row, gamma, coeff, ti, yi in self.term_table)
        for row, gamma, coeff, ti, yi in self.term_table:
            if gamma <= 0:
                raise ValueError("gamma must be positive")
            if coeff <= 0:
                raise ValueError("term coefficient must be positive")
            if ti == yi:
                raise ValueError("t and y must be distinct coordinates")
            if not -1 <= row < m:
                raise ValueError(f"term row {row} is out of range")
        self.objective_linear = np.asarray(self.objective_linear, dtype=float)
        self.lin_A = np.asarray(self.lin_A, dtype=float)
        self.lin_b = np.asarray(self.lin_b, dtype=float)
        if self.objective_linear.shape != (self.n_vars,):
            raise ValueError("objective vector has wrong length")
        if len(self.var_names) != self.n_vars:
            raise ValueError("need one name per variable")
        if self.lin_A.shape != (len(self.lin_b), self.n_vars):
            raise ValueError("linear constraint rows have the wrong shape")
        if len(self.labels) != m + len(self.lin_b):
            raise ValueError("need one label per epigraph and linear row")

    # -- rows and the compiled term pass ---------------------------------

    @property
    def positive_indices(self) -> tuple[int, ...]:
        """Coordinates constrained to be nonnegative (times and energies)."""
        return self.t_indices + self.y_indices

    @cached_property
    def affine_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) of every affine row A x <= b: the linear rows, then -x_i <= 0."""
        pos = list(self.positive_indices)
        return (np.concatenate((self.lin_A, -np.eye(self.n_vars)[pos])),
                np.concatenate((self.lin_b, np.zeros(len(pos)))))

    @property
    def n_nonlinear(self) -> int:
        return len(self.aux_index)

    def term_sums(self, xs: list) -> list:
        """Each row's sum of coeff * l over its terms at the point xs, the objective's last."""
        sums = [0.0] * (len(self.aux_index) + 1)
        for row, gamma, coeff, ti, yi in self.term_table:
            t, y = xs[ti], xs[yi]
            if t <= 0.0 or y <= 0.0:
                if t < 0.0 or y < 0.0:
                    raise ValueError("t and y must be nonnegative")
                continue            # the term is 0 on the boundary
            sums[row] += coeff * (-t * math.log1p(gamma * y / t))
        return sums

    def values(self, x) -> tuple[float, list]:
        """Objective value and epigraph row values, one pass without derivatives."""
        x = np.asarray(x, dtype=float)
        xs = x.tolist()
        sums = self.term_sums(xs)
        f = float(self.objective_linear @ x) + sums[-1]
        return f, [xs[aux] + s for aux, s in zip(self.aux_index, sums)]

    def evaluate(self, x) -> Evaluation:
        """Values, gradients and rank-one term factors in one pass; needs t > 0."""
        x = np.asarray(x, dtype=float)
        xs = x.tolist()
        n, m = self.n_vars, len(self.aux_index)
        grad = self.objective_linear.tolist()
        G = [[0.0] * n for _ in range(m)]
        for j, aux in enumerate(self.aux_index):
            G[j][aux] = 1.0
        sums = [0.0] * (m + 1)
        factors = []
        for row, gamma, coeff, ti, yi in self.term_table:
            t, y = xs[ti], xs[yi]
            if t <= 0.0 or y < 0.0:
                raise ValueError("gradient requires t > 0 and y >= 0")
            gy = gamma * y
            log = math.log1p(gy / t)
            den = t + gy
            rt = math.sqrt(t)
            sums[row] += coeff * (-t * log)
            g = grad if row < 0 else G[row]
            g[ti] += coeff * (-log + gy / den)
            g[yi] += coeff * (-gamma * t / den)
            factors.append((row, ti, yi, coeff, gy / (rt * den), -gamma * rt / den))
        f = float(self.objective_linear @ x) + sums[-1]
        c = [xs[aux] + s for aux, s in zip(self.aux_index, sums)]
        return Evaluation(f, np.array(grad), np.array(c), np.array(G).reshape(m, n), tuple(factors))

    def objective_value(self, x) -> float:
        return self.values(x)[0]

    def objective_gradient(self, x) -> np.ndarray:
        return self.evaluate(x).grad

    def objective_hessian(self, x) -> np.ndarray:
        return self.evaluate(x).curvature([0.0] * self.n_nonlinear + [1.0])

    def nonlinear_value(self, j: int, x) -> float:
        return self.values(x)[1][j]

    def nonlinear_values(self, x) -> np.ndarray:
        return np.array(self.values(x)[1])

    def nonlinear_gradient(self, j: int, x) -> np.ndarray:
        return self.evaluate(x).G[j]

    def nonlinear_hessian(self, j: int, x) -> np.ndarray:
        w = [0.0] * (self.n_nonlinear + 1)
        w[j] = 1.0
        return self.evaluate(x).curvature(w)

    # -- whole-program evaluation ---------------------------------------

    def constraint_values(self, x) -> np.ndarray:
        """All inequality constraint values, epigraph rows first."""
        return np.array(self.values(x)[1] + (self.lin_A @ x - self.lin_b).tolist())

    def max_violation(self, x) -> float:
        """Largest constraint value; <= 0 means feasible (0 on the boundary)."""
        cv = self.constraint_values(x)
        worst = float(cv.max()) if cv.size else -math.inf
        for i in self.positive_indices:
            worst = max(worst, -float(x[i]))
        return worst


def stack_key(p: ConvexProgram):
    """What programs must share to be stacked: variables, term rows and
    coordinates, aux rates, linear rows and positive coordinates."""
    return (p.n_vars, p.aux_index, p.lin_A.shape, p.t_indices, p.y_indices,
            tuple((row, ti, yi) for row, _, _, ti, yi in p.term_table))


def scalar_log1p(z: np.ndarray) -> np.ndarray:
    """`np.log1p` with the bits of `math.log1p`, which `ConvexProgram.evaluate`
    uses; numpy's vectorized log1p differs from it in the last bit on about
    2% of arguments.  Off the domain (nb tries points with t < 0), where
    `math.log1p` raises, an element takes numpy's value: NaN below -1, -inf
    at -1."""
    flat = z.ravel().tolist()
    try:
        out = np.fromiter(map(math.log1p, flat), float, len(flat))
    except ValueError:
        out = np.array([math.log1p(v) if v > -1.0 else -math.inf if v == -1.0 else math.nan for v in flat])
    return out.reshape(z.shape)


class ProgramStack:
    """K programs of one `stack_key` as (K, ...) arrays, evaluated in one pass.

    Gammas and coefficients (K, T) and objective vectors (K, n) are per
    program.  Shared 0/1 matrices place the T terms: R sums their
    values into the rows (the objective last), P scatters their t and y
    derivatives into the (m+1, n) gradient block, C_rows their rank-one
    curvature (a v_t^2, a v_t v_y, a v_y^2) into each row's n x n Hessian
    and C into one n x n sum, and W spreads row weights onto the terms.
    Each product adds a row's terms in table order and each log is
    `scalar_log1p`, as `evaluate` does, so a stacked solve gives each
    program its lone solve's bits (PR 31).
    """

    def __init__(self, programs):
        p = programs[0]
        table = p.term_table
        n, m, T = p.n_vars, p.n_nonlinear, len(table)
        rows = [row % (m + 1) for row, *_ in table]
        ti, yi = [t[3] for t in table], [t[4] for t in table]
        self.n, self.m, self.T = n, m, T
        self.index = ti + yi + list(p.aux_index)
        self.R = np.zeros((T, m + 1))
        self.R[range(T), rows] = -1.0
        self.W = -self.R[:, :m].T
        self.obj = -self.R[:, m]
        self.P = np.zeros((2 * T, (m + 1) * n))
        C = np.zeros((3 * T, m + 1, n * n))
        for k, r in enumerate(rows):
            self.P[k, r * n + ti[k]] = self.P[T + k, r * n + yi[k]] = 1.0
            C[k, r, ti[k] * n + ti[k]] = C[2 * T + k, r, yi[k] * n + yi[k]] = 1.0
            C[T + k, r, ti[k] * n + yi[k]] = C[T + k, r, yi[k] * n + ti[k]] = 1.0
        self.C_rows = C.reshape(3 * T, (m + 1) * n * n)
        self.C = C.sum(1)
        self.gamma = np.array([[t[1] for t in prog.term_table] for prog in programs])
        self.neg_gamma = -self.gamma
        self.coeff = np.array([[t[2] for t in prog.term_table] for prog in programs])
        self.q = np.array([prog.objective_linear for prog in programs])
        unit = np.zeros((m, n))
        unit[range(m), p.aux_index] = 1.0
        self.base = np.concatenate((np.broadcast_to(unit, (len(programs), m, n)),
                                    self.q[:, None, :]), 1).reshape(len(programs), -1)

    def take(self, keep) -> "ProgramStack":
        """The programs at the positions `keep`."""
        out = copy.copy(self)
        for name in ("gamma", "neg_gamma", "coeff", "q", "base"):
            setattr(out, name, getattr(self, name)[keep])
        return out

    def terms(self, X):
        """(t, y, aux rates) at the points X: each term's time and energy, each row's rate."""
        Xi = X[:, self.index]
        T = self.T
        return Xi[:, :T], Xi[:, T:2 * T], Xi[:, 2 * T:]

    def row_sums(self, t, y):
        """Each row's sum of coeff * l over its terms, the objective's last (`term_sums`)."""
        return (self.coeff * (t * scalar_log1p(self.gamma * y / t))) @ self.R

    def derivatives(self, t, y):
        """The pass of `evaluate`: row sums as `row_sums`, the (K, m+1, n) row
        gradients (the objective's last) and each term's factors (v_t, v_y)."""
        coeff = self.coeff
        gy = self.gamma * y
        log = scalar_log1p(gy / t)
        den = t + gy
        rt = np.sqrt(t)
        sums = (coeff * (t * log)) @ self.R
        parts = np.concatenate((coeff * (gy / den - log), coeff * (self.neg_gamma * t / den)), 1)
        grads = (self.base + parts @ self.P).reshape(len(t), self.m + 1, self.n)
        return sums, grads, (gy / (rt * den), self.neg_gamma * rt / den)

    def curvature(self, weights, factors):
        """(K, n, n) sums of w[row] * coeff * v v^T over the terms, w the
        (K, m) row weights and 1 for the objective (`Evaluation.curvature`)."""
        v0, v1 = factors
        w = (weights @ self.W + self.obj) * self.coeff
        a = w * v0
        H = np.concatenate((a * v0, a * v1, w * v1 * v1), 1) @ self.C
        return H.reshape(len(w), self.n, self.n)

    def row_hessians(self, factors):
        """(K, m+1, n, n) stacks of each row's sum of coeff * v v^T, the
        objective's last."""
        v0, v1 = factors
        a = self.coeff * v0
        H = np.concatenate((a * v0, a * v1, self.coeff * v1 * v1), 1) @ self.C_rows
        return H.reshape(len(a), self.m + 1, self.n, self.n)


def aux_bounds(aux_index, sums) -> dict[int, float]:
    """Tightest epigraph cap on each auxiliary rate variable, the least -s
    over its rows, `sums` the rows' term sums (`term_sums`) at the point."""
    bounds: dict[int, float] = {}
    for aux, s in zip(aux_index, sums):
        bounds[aux] = min(-s, bounds.get(aux, math.inf))
    return bounds


def all_positive(values) -> bool:
    """min(values) > 0 on a list of floats as numpy reads it, a NaN failing:
    Python's min may skip the NaN, their sum does not."""
    return min(values, default=1.0) > 0.0 and not math.isnan(sum(values))


def regularized_solve(M, rhs, bump: float):
    """(d, whether a system was regularized) with M d = rhs, M one system or a
    stack (K, n, n) with rhs (K, n, k); a singular system gets bump * max(1,
    trace / n) on its diagonal, each of a stack alone."""
    try:
        return np.linalg.solve(M, rhs), False
    except np.linalg.LinAlgError:
        if M.ndim == 3:
            return np.array([regularized_solve(one, r, bump)[0] for one, r in zip(M, rhs)]), True
        n = len(M)
        return np.linalg.solve(M + bump * max(1.0, float(np.trace(M)) / n) * np.eye(n), rhs), True


# ---------------------------------------------------------------------------
# Interior starting point
# ---------------------------------------------------------------------------

# slack every row must keep at the start point
_START_MARGIN = 1e-9


def initial_point(p: ConvexProgram) -> np.ndarray:
    """Deterministic strictly interior starting point.

    Times get an equal share 0.8/(m+1) so the idle slot keeps 20% plus one
    share of the block.  Energies are filled in index order at half the
    budget remaining under every linear constraint involving them (later
    energies counted as zero, earlier ones at their chosen values).  Each
    auxiliary rate starts at 90% of its tightest epigraph bound.

    A program whose point keeps less than `_START_MARGIN` of slack on some
    row raises: zero budgets included, which `presolve_program` removes
    before either solver starts, and a NaN margin, as where a term overflows
    and its rate starts at 0.9 * inf.
    """
    x = np.zeros(p.n_vars)
    m = len(p.t_indices)
    for i in p.t_indices:
        x[i] = 0.8 / (m + 1)

    for yi in p.y_indices:
        bound = math.inf
        for a, b in zip(p.lin_A, p.lin_b):
            if a[yi] > 0:
                slack = b - float(a @ x) + a[yi] * x[yi]
                bound = min(bound, slack / a[yi])
        x[yi] = 1.0 if bound == math.inf else 0.5 * max(bound, 0.0)

    for aux, bound in aux_bounds(p.aux_index, p.term_sums(x.tolist())).items():
        x[aux] = 0.9 * bound

    worst = p.max_violation(x)
    if not worst <= -_START_MARGIN:
        raise InfeasibleProgramError(f"could not construct an interior point (margin {worst:.3g})")
    return x


# ---------------------------------------------------------------------------
# Presolve: eliminate zero-budget coordinates
# ---------------------------------------------------------------------------


@dataclass
class PresolvedProgram:
    """Reduction of a program after pinning collapsed coordinates to zero."""

    program: ConvexProgram
    keep: np.ndarray                # original indices of surviving coordinates
    pinned: tuple[int, ...]         # original indices fixed at zero
    n_full: int

    def expand(self, x_red: np.ndarray) -> np.ndarray:
        x = np.zeros(self.n_full)
        x[self.keep] = x_red
        return x


def energy_caps(p: ConvexProgram) -> dict[int, float]:
    """Best-case cap of every energy variable, walked in transmission order.

    Each cap takes the budget rows at face value with every earlier energy
    at its own cap, so harvested budgets (rows with coupling terms and a
    zero right-hand side) still produce a finite, meaningful scale.
    """
    ybar: dict[int, float] = {}
    for yi in p.y_indices:
        bound = math.inf
        for a, b in zip(p.lin_A, p.lin_b):
            if a[yi] <= 0:
                continue
            slack = b
            for yj in p.y_indices:
                if yj == yi:
                    continue
                if a[yj] < 0 and yj in ybar and ybar[yj] < math.inf:
                    slack -= a[yj] * ybar[yj]
            bound = min(bound, slack / a[yi])
        ybar[yi] = bound
    return ybar


def presolve_program(p: ConvexProgram) -> PresolvedProgram:
    """Pin energies with zero budget (and rates they silence) to 0.

    An energy coordinate is pinned when its best-case budget, walking the
    linear constraints in transmission order with every earlier energy at
    its own best-case value, is zero.  Epigraph rows that lose all their
    terms force their rate variable to zero as well.  The reduced program
    drops the pinned columns, their terms and any rows made vacuous.
    """
    ybar = energy_caps(p)
    pinned = {yi for yi in p.y_indices if ybar[yi] <= 1e-15}
    m = len(p.aux_index)
    live = {row for row, _, _, _, yi in p.term_table if yi not in pinned}
    pinned |= {aux for j, aux in enumerate(p.aux_index) if j not in live}
    if not pinned:
        return PresolvedProgram(program=p, keep=np.arange(p.n_vars), pinned=(), n_full=p.n_vars)

    keep = np.array([i for i in range(p.n_vars) if i not in pinned])
    remap = {old: new for new, old in enumerate(keep)}
    # a rate pinned by one empty epigraph row is capped at zero everywhere
    rows = [j for j, aux in enumerate(p.aux_index) if aux not in pinned]
    renumber = {old: new for new, old in enumerate(rows)}
    renumber[-1] = -1
    table = tuple((renumber[row], gamma, coeff, remap[ti], remap[yi])
                  for row, gamma, coeff, ti, yi in p.term_table
                  if row in renumber and yi not in pinned)
    lin_A = p.lin_A[:, keep]
    lin = lin_A.any(axis=1)
    for j in np.flatnonzero(~lin):
        if p.lin_b[j] < 0:
            raise InfeasibleProgramError(f"constraint {p.labels[m + j]} is infeasible after presolve")

    reduced = ConvexProgram(
        n_vars=len(keep),
        objective_linear=p.objective_linear[keep],
        term_table=table,
        aux_index=tuple(remap[p.aux_index[j]] for j in rows),
        lin_A=lin_A[lin],
        lin_b=p.lin_b[lin],
        t_indices=tuple(remap[i] for i in p.t_indices),
        y_indices=tuple(remap[i] for i in p.y_indices if i not in pinned),
        var_names=tuple(p.var_names[i] for i in keep),
        labels=tuple(p.labels[j] for j in rows) + tuple(p.labels[m + j] for j in np.flatnonzero(lin)),
    )
    return PresolvedProgram(program=reduced, keep=keep, pinned=tuple(sorted(pinned)), n_full=p.n_vars)


# ---------------------------------------------------------------------------
# KKT stationarity
# ---------------------------------------------------------------------------

# the certificate's bound on the KKT residual (`finish`)
KKT_TOL = 1e-6
# rows with at most this slack count as active when multipliers are refined
_ACTIVE_TOL = 1e-4


def point_rows(program, x):
    """The program at x as one row view (ev, rows, slacks): `evaluate(x)`, then
    every row's gradient and slack in the program's row order, the epigraph rows,
    the linear rows, then -x_i <= 0 on `positive_indices`."""
    ev = program.evaluate(x)
    A, b = program.affine_rows
    return ev, np.concatenate((ev.G, A)), np.concatenate((-ev.c, b - A @ x))


def lagrangian_gradient(view, lam) -> np.ndarray:
    """Gradient of the Lagrangian at a `point_rows` view, `lam` one multiplier per row."""
    ev, rows, _ = view
    return ev.grad + rows.T @ lam


def stationarity_residual(view, lam) -> float:
    """Infinity norm of the Lagrangian gradient at a `point_rows` view."""
    return float(np.abs(lagrangian_gradient(view, lam)).max())


def refine_multipliers(view, lam) -> np.ndarray:
    """Least-squares correction of multiplier seeds at a final iterate's `point_rows` view.

    Whatever produced the seeds (barrier weights, the dual solution of the
    last quadratic subproblem), their stationarity residual concentrates
    along the normals of the near-active rows: dropped auxiliary rows,
    coordinate representation error, or a slightly shifted expansion point
    all project onto that span.  Those rows get a least-squares correction,
    clipped at zero to keep the multipliers valid; rows with slack beyond
    `_ACTIVE_TOL` keep their seeds.  `lam` and the returned vector hold one
    multiplier per row of the view.
    """
    _, rows, slacks = view
    lam = np.array(lam, dtype=float)
    active = slacks <= _ACTIVE_TOL
    if active.any():
        delta, *_ = np.linalg.lstsq(rows[active].T, -lagrangian_gradient(view, lam), rcond=None)
        lam[active] = np.maximum(lam[active] + delta, 0.0)
    return lam


# ---------------------------------------------------------------------------
# Start and result, shared by both solvers
# ---------------------------------------------------------------------------


class SolveStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    INFEASIBLE = "infeasible"


@dataclass
class SolveResult:
    status: SolveStatus
    x_star: np.ndarray | None      # the point in program coordinates, None without one
    objective_bits: float          # maximized throughput objective, bits
    outer_iters: int               # nb: barrier stages; quad: rounds that moved x, every round if unsettled
    inner_iters: int               # nb: Newton steps; quad: interior-point iterations
    max_constraint_violation: float
    kkt_residual: float
    solver: str
    tau_final: float = math.nan    # nb: the last barrier weight; NaN for quad

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


def start(program: ConvexProgram):
    """(presolve, start point of the reduced program), or None without an interior point."""
    try:
        pre = presolve_program(program)
        return pre, initial_point(pre.program)
    except InfeasibleProgramError:
        return None


def solve_many(programs, solver: str, kernel) -> list[SolveResult]:
    """Each program solved by a solver's `kernel`, the results in input order.

    A program without an interior point (`start`) gets the infeasible result
    and never reaches the kernel.  The others reach it once per `stack_key`
    of their reduced programs: `kernel(reduced, X)`, X (K, n) their starts,
    returns each one's (x, seeds, converged, outer, inner, tau) for `finish`.
    """
    results: list = [None] * len(programs)
    groups: dict = {}
    # trial points off the domain make NaN and inf, which the solvers read as
    # outside it (a barrier of +inf, a failed row test); an overflowing start
    # or final point does so in `start` and `finish` too
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, p in enumerate(programs):
            started = start(p)
            if started is None:
                results[i] = SolveResult.infeasible(solver)
            else:
                groups.setdefault(stack_key(started[0].program), []).append((i, *started))
        for members in groups.values():
            ends = kernel([pre.program for _, pre, _ in members], np.array([x for *_, x in members]))
            for (i, pre, _), end in zip(members, ends, strict=True):
                results[i] = finish(programs[i], pre, solver, *end)
    return results


def finish(program, pre: PresolvedProgram, solver: str, x, seeds, converged: bool,
           outer: int, inner: int, tau: float) -> SolveResult:
    """The result at the final iterate x of the reduced program `pre.program`.

    `seeds`, the solver's multipliers with one per row of `point_rows`, are
    refined and the KKT residual taken on one view of x; without seeds the
    residual is infinite.  A solve counts as converged only when its point
    carries the certificate: violation <= 0 and a KKT residual at most KKT_TOL.
    """
    kkt = math.inf
    if seeds is not None:
        view = point_rows(pre.program, x)
        kkt = stationarity_residual(view, refine_multipliers(view, seeds))
    x_full = pre.expand(x)
    violation = program.max_violation(x_full)
    converged = converged and kkt <= KKT_TOL and violation <= 0.0
    return SolveResult(
        status=SolveStatus.CONVERGED if converged else SolveStatus.MAX_ITERATIONS,
        x_star=x_full,
        objective_bits=maximized_bits(program, x_full),
        outer_iters=outer,
        inner_iters=inner,
        max_constraint_violation=violation,
        kkt_residual=kkt,
        solver=solver,
        tau_final=tau,
    )
