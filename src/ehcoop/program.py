"""Canonical convex program over logarithmic perspective terms.

Every allocation problem in this package is written as a minimization of

    q . x  +  sum_k  c_k * l(gamma_k; t_k, y_k)

subject to epigraph constraints  x[aux] + sum c_k * l(gamma_k; ...) <= 0,
linear constraints  a . x <= b,  and nonnegativity of the time/energy
coordinates, where

    l(gamma; t, y) = -t * ln(1 + gamma * y / t)

is the (negated) throughput of a transmission of energy y spread over time
t at SNR coefficient gamma.  l is jointly convex in (t, y) with an exact
rank-one Hessian, which both solvers exploit.

Programs are small (at most eight variables) so everything is dense.
Instances are treated as immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class PerspectiveTerm:
    """One weighted perspective term c * l(gamma; x[t_index], x[y_index])."""

    gamma: float
    t_index: int
    y_index: int
    coeff: float = 1.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.coeff <= 0:
            raise ValueError("term coefficient must be positive")
        if self.t_index == self.y_index:
            raise ValueError("t and y must be distinct coordinates")


@dataclass(frozen=True)
class EpigraphConstraint:
    """x[aux_index] + sum of perspective terms <= 0.

    Since each term is -t*ln(1+...), this caps the auxiliary rate variable
    by a weighted sum of link throughputs (in nats).
    """

    aux_index: int
    terms: tuple[PerspectiveTerm, ...]
    label: str = ""


@dataclass(frozen=True)
class LinearConstraint:
    """a . x <= b."""

    a: tuple[float, ...]
    b: float
    label: str = ""


@dataclass
class Allocation:
    """A point in program coordinates.

    `degenerate` lists coordinates whose feasible range collapsed to a
    single boundary value (zero energy budgets); such coordinates carry an
    epsilon placeholder rather than a strictly interior value.
    """

    x: np.ndarray
    degenerate: tuple[int, ...] = ()


@dataclass
class ConvexProgram:
    """Dense canonical form of one allocation problem."""

    n_vars: int
    objective_linear: np.ndarray
    objective_terms: tuple[PerspectiveTerm, ...]
    epigraph: tuple[EpigraphConstraint, ...]
    linear: tuple[LinearConstraint, ...]
    t_indices: tuple[int, ...]
    y_indices: tuple[int, ...]
    var_names: tuple[str, ...]
    lin_A: np.ndarray = field(init=False, repr=False)
    lin_b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.objective_linear = np.asarray(self.objective_linear, dtype=float)
        if self.objective_linear.shape != (self.n_vars,):
            raise ValueError("objective vector has wrong length")
        if len(self.var_names) != self.n_vars:
            raise ValueError("need one name per variable")
        if self.linear:
            self.lin_A = np.array([c.a for c in self.linear], dtype=float)
            self.lin_b = np.array([c.b for c in self.linear], dtype=float)
            if self.lin_A.shape[1] != self.n_vars:
                raise ValueError("linear constraint row has wrong length")
        else:
            self.lin_A = np.zeros((0, self.n_vars))
            self.lin_b = np.zeros(0)

    # -- protocol shared with the quadratic subproblem ------------------

    @property
    def positive_indices(self) -> tuple[int, ...]:
        """Coordinates constrained to be nonnegative (times and energies)."""
        return self.t_indices + self.y_indices

    @property
    def objective_curved(self) -> bool:
        return bool(self.objective_terms)

    @property
    def n_nonlinear(self) -> int:
        return len(self.epigraph)

    def _terms_value(self, terms, x) -> float:
        total = 0.0
        for tm in terms:
            total += tm.coeff * perspective_value(tm.gamma, x[tm.t_index], x[tm.y_index])
        return total

    def objective_value(self, x) -> float:
        return float(self.objective_linear @ x) + self._terms_value(self.objective_terms, x)

    def objective_gradient(self, x) -> np.ndarray:
        g = self.objective_linear.copy()
        for tm in self.objective_terms:
            gt, _ = perspective_gradient(tm.gamma, x[tm.t_index], x[tm.y_index])
            g[tm.t_index] += tm.coeff * gt[0]
            g[tm.y_index] += tm.coeff * gt[1]
        return g

    def objective_hessian(self, x) -> np.ndarray:
        H = np.zeros((self.n_vars, self.n_vars))
        _accumulate_hessian(H, self.objective_terms, x)
        return H

    def nonlinear_value(self, j: int, x) -> float:
        con = self.epigraph[j]
        return float(x[con.aux_index]) + self._terms_value(con.terms, x)

    def nonlinear_values(self, x) -> np.ndarray:
        return np.array([self.nonlinear_value(j, x) for j in range(len(self.epigraph))])

    def nonlinear_gradient(self, j: int, x) -> np.ndarray:
        con = self.epigraph[j]
        g = np.zeros(self.n_vars)
        g[con.aux_index] = 1.0
        for tm in con.terms:
            gt, _ = perspective_gradient(tm.gamma, x[tm.t_index], x[tm.y_index])
            g[tm.t_index] += tm.coeff * gt[0]
            g[tm.y_index] += tm.coeff * gt[1]
        return g

    def nonlinear_hessian(self, j: int, x) -> np.ndarray:
        H = np.zeros((self.n_vars, self.n_vars))
        _accumulate_hessian(H, self.epigraph[j].terms, x)
        return H

    # -- whole-program evaluation ---------------------------------------

    def constraint_values(self, x) -> np.ndarray:
        """All inequality constraint values, epigraph rows first."""
        vals = [self.nonlinear_value(j, x) for j in range(len(self.epigraph))]
        if self.linear:
            vals.extend(self.lin_A @ x - self.lin_b)
        return np.array(vals)

    def max_violation(self, x) -> float:
        """Largest constraint value; <= 0 means feasible (0 on the boundary)."""
        worst = 0.0 if (self.epigraph or self.linear) else -math.inf
        cv = self.constraint_values(x)
        if cv.size:
            worst = float(cv.max())
        for i in self.positive_indices:
            worst = max(worst, -float(x[i]))
        return worst


def _accumulate_hessian(H: np.ndarray, terms, x) -> None:
    for tm in terms:
        _, v = perspective_gradient(tm.gamma, x[tm.t_index], x[tm.y_index])
        ti, yi = tm.t_index, tm.y_index
        c = tm.coeff
        H[ti, ti] += c * v[0] * v[0]
        H[ti, yi] += c * v[0] * v[1]
        H[yi, ti] += c * v[0] * v[1]
        H[yi, yi] += c * v[1] * v[1]


def aux_bounds(p: ConvexProgram, x: np.ndarray) -> dict[int, float]:
    """Tightest epigraph cap on each auxiliary rate variable at x."""
    bounds: dict[int, float] = {}
    for con in p.epigraph:
        bound = -sum(tm.coeff * perspective_value(tm.gamma, x[tm.t_index], x[tm.y_index])
                     for tm in con.terms)
        bounds[con.aux_index] = min(bound, bounds.get(con.aux_index, math.inf))
    return bounds


# ---------------------------------------------------------------------------
# Interior starting point
# ---------------------------------------------------------------------------

_DEGENERATE_FLOOR = 1e-9


def initial_point(p: ConvexProgram, margin: float = 1e-9) -> Allocation:
    """Deterministic strictly interior starting point.

    Times get an equal share 0.8/(m+1) so the idle slot keeps 20% plus one
    share of the block.  Energies are filled in index order at half the
    budget remaining under every linear constraint involving them (later
    energies counted as zero, earlier ones at their chosen values).  Each
    auxiliary rate starts at 90% of its tightest epigraph bound.

    Zero-budget energies (for example when an arrival rate is 0) make a
    strict interior impossible; those coordinates get a tiny placeholder
    and are reported in `Allocation.degenerate`.  Solvers are expected to
    eliminate them with `presolve_program` first.
    """
    x = np.zeros(p.n_vars)
    m = len(p.t_indices)
    for i in p.t_indices:
        x[i] = 0.8 / (m + 1)

    degenerate = []
    for yi in p.y_indices:
        bound = math.inf
        for row, (a, b) in enumerate(zip(p.lin_A, p.lin_b)):
            if a[yi] > 0:
                slack = b - float(a @ x) + a[yi] * x[yi]
                bound = min(bound, slack / a[yi])
        if bound == math.inf:
            x[yi] = 1.0
        elif bound <= _DEGENERATE_FLOOR:
            x[yi] = _DEGENERATE_FLOOR
            degenerate.append(yi)
        else:
            x[yi] = 0.5 * bound

    for aux, bound in aux_bounds(p, x).items():
        x[aux] = 0.9 * bound

    if not degenerate and p.max_violation(x) > -margin:
        raise InfeasibleProgramError(
            f"could not construct an interior point (margin {p.max_violation(x):.3g})"
        )
    return Allocation(x=x, degenerate=tuple(degenerate))


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
    its own best-case value, is zero.  Epigraph constraints that lose all
    their terms force their rate variable to zero as well.  The reduced
    program drops the pinned columns and any constraints made vacuous.
    """
    ybar = energy_caps(p)
    pinned: set[int] = set()
    for yi in p.y_indices:
        if ybar[yi] <= 1e-15:
            pinned.add(yi)

    live_epigraph = []
    for con in p.epigraph:
        terms = tuple(tm for tm in con.terms if tm.y_index not in pinned)
        if terms:
            live_epigraph.append(EpigraphConstraint(con.aux_index, terms, con.label))
        else:
            pinned.add(con.aux_index)
    # a rate pinned by one empty epigraph row is capped at zero everywhere
    live_epigraph = [c for c in live_epigraph if c.aux_index not in pinned]

    if not pinned:
        keep = np.arange(p.n_vars)
        return PresolvedProgram(program=p, keep=keep, pinned=(), n_full=p.n_vars)

    keep = np.array([i for i in range(p.n_vars) if i not in pinned])
    remap = {old: new for new, old in enumerate(keep)}

    def remap_term(tm: PerspectiveTerm) -> PerspectiveTerm:
        return PerspectiveTerm(tm.gamma, remap[tm.t_index], remap[tm.y_index], tm.coeff)

    obj_terms = tuple(remap_term(tm) for tm in p.objective_terms if tm.y_index not in pinned)
    epigraph = tuple(
        EpigraphConstraint(remap[c.aux_index], tuple(remap_term(tm) for tm in c.terms), c.label)
        for c in live_epigraph
    )
    linear = []
    for con in p.linear:
        a = np.asarray(con.a)[keep]
        if np.any(a != 0.0):
            linear.append(LinearConstraint(tuple(a), con.b, con.label))
        elif con.b < 0:
            raise InfeasibleProgramError(f"constraint {con.label or con} is infeasible after presolve")

    reduced = ConvexProgram(
        n_vars=len(keep),
        objective_linear=p.objective_linear[keep],
        objective_terms=obj_terms,
        epigraph=epigraph,
        linear=tuple(linear),
        t_indices=tuple(remap[i] for i in p.t_indices),
        y_indices=tuple(remap[i] for i in p.y_indices if i not in pinned),
        var_names=tuple(p.var_names[i] for i in keep),
    )
    return PresolvedProgram(program=reduced, keep=keep, pinned=tuple(sorted(pinned)), n_full=p.n_vars)


# ---------------------------------------------------------------------------
# KKT stationarity
# ---------------------------------------------------------------------------


def stationarity_residual(program, x, lam_nonlinear, lam_linear, lam_positive) -> float:
    """Infinity norm of the Lagrangian gradient for given multipliers.

    Works for any program exposing the shared evaluation protocol.  The
    multiplier blocks follow the constraint order: nonlinear rows, linear
    rows, then the nonnegativity bounds on `positive_indices`.
    """
    r = program.objective_gradient(x).astype(float, copy=True)
    for j, lam in enumerate(lam_nonlinear):
        if lam:
            r += lam * program.nonlinear_gradient(j, x)
    lam_linear = np.asarray(lam_linear, dtype=float)
    if lam_linear.size:
        r += program.lin_A.T @ lam_linear
    for idx, nu in zip(program.positive_indices, lam_positive):
        r[idx] -= nu
    return float(np.abs(r).max())


def refine_multipliers(program, x, lam_nonlinear, lam_linear, lam_positive,
                       act_tol: float = 1e-4):
    """Least-squares correction of multiplier seeds at a final iterate.

    Whatever produced the seeds (barrier weights, the dual solution of the
    last quadratic subproblem), their stationarity residual concentrates
    along the normals of the near-active rows: dropped auxiliary rows,
    coordinate representation error, or a slightly shifted expansion point
    all project onto that span.  Those rows get a least-squares correction,
    clipped at zero to keep the multipliers valid; rows with slack beyond
    `act_tol` keep their seeds.  Returns new blocks in constraint order.
    """
    x = np.asarray(x, dtype=float)
    lam_nl = np.array(lam_nonlinear, dtype=float)
    lam_lin = np.array(lam_linear, dtype=float)
    lam_pos = np.array(lam_positive, dtype=float)
    n_nl = program.n_nonlinear
    pos = list(program.positive_indices)
    slack_nl = np.array([-program.nonlinear_value(j, x) for j in range(n_nl)])
    slack_lin = program.lin_b - program.lin_A @ x if len(program.lin_b) else np.zeros(0)

    cols = []
    slots = []
    for j in range(n_nl):
        if slack_nl[j] <= act_tol:
            cols.append(program.nonlinear_gradient(j, x))
            slots.append((lam_nl, j))
    for j, s in enumerate(slack_lin):
        if s <= act_tol:
            cols.append(program.lin_A[j])
            slots.append((lam_lin, j))
    for k, i in enumerate(pos):
        if x[i] <= act_tol:
            e = np.zeros(x.size)
            e[i] = -1.0
            cols.append(e)
            slots.append((lam_pos, k))
    if cols:
        r = program.objective_gradient(x).astype(float, copy=True)
        for j in range(n_nl):
            r += lam_nl[j] * program.nonlinear_gradient(j, x)
        if lam_lin.size:
            r += program.lin_A.T @ lam_lin
        for k, i in enumerate(pos):
            r[i] -= lam_pos[k]
        delta, *_ = np.linalg.lstsq(np.column_stack(cols), -r, rcond=None)
        for (block, j), d in zip(slots, delta):
            block[j] = max(block[j] + d, 0.0)
    return lam_nl, lam_lin, lam_pos
