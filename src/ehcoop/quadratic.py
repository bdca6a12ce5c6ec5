"""Iterative quadratic approximation solver.

Each perspective term is replaced by its second-order model around the
current point: with (g, v) the exact gradient and rank-one Hessian factor,

    l(t, y)  ~  l_k + g_k . delta + 0.5 * (v_k . delta)^2 ,

which turns the allocation problem into a small convex QCQP.  That
subproblem is solved with a primal-dual path-following interior-point
method, the auxiliary rate variables are pulled back inside the true
epigraph region, and the model is rebuilt at the new point until two
successive solutions coincide.

The subproblem class exposes the same evaluation protocol as
`ConvexProgram`, so the barrier solver can be pointed at it directly when
cross-checking the interior-point method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .barrier import SolveResult, SolveStatus
from .program import (
    LN2,
    Allocation,
    ConvexProgram,
    InfeasibleProgramError,
    aux_bounds,
    energy_caps,
    initial_point,
    perspective_gradient,
    perspective_value,
    presolve_program,
    refine_multipliers,
    stationarity_residual,
)

# expansion points are lifted this far off the t = 0 boundary to keep the
# model curvature finite
_T_FLOOR = 1e-9


@dataclass(frozen=True)
class QuadraticModel:
    """Second-order model of one weighted perspective term."""

    gamma: float
    t_index: int
    y_index: int
    coeff: float
    t0: float
    y0: float
    base: float          # l(gamma; t0, y0)
    g: tuple[float, float]
    v: tuple[float, float]

    @classmethod
    def from_term(cls, term, x) -> "QuadraticModel":
        t0 = float(x[term.t_index])
        y0 = float(x[term.y_index])
        if t0 <= 0.0:
            raise ValueError("expansion requires t > 0")
        base = perspective_value(term.gamma, t0, y0)
        g, v = perspective_gradient(term.gamma, t0, y0)
        return cls(
            gamma=term.gamma, t_index=term.t_index, y_index=term.y_index,
            coeff=term.coeff, t0=t0, y0=y0, base=base,
            g=(float(g[0]), float(g[1])), v=(float(v[0]), float(v[1])),
        )

    def value(self, x) -> float:
        dt = float(x[self.t_index]) - self.t0
        dy = float(x[self.y_index]) - self.y0
        s = self.v[0] * dt + self.v[1] * dy
        return self.coeff * (self.base + self.g[0] * dt + self.g[1] * dy + 0.5 * s * s)


@dataclass(frozen=True)
class QuadConstraint:
    """a . x - b + sum of quadratic models <= 0."""

    a: tuple[float, ...]
    b: float
    models: tuple[QuadraticModel, ...] = ()
    label: str = ""


@dataclass
class QuadraticSubproblem:
    """Convex QCQP in compiled dense form.

    Rows with quadratic models come first in `constraints`; purely linear
    rows follow.  Nonnegativity of the time/energy coordinates is kept
    separate, mirroring `ConvexProgram`.
    """

    n_vars: int
    objective_linear: np.ndarray
    objective_models: tuple[QuadraticModel, ...]
    constraints: tuple[QuadConstraint, ...]
    t_indices: tuple[int, ...]
    y_indices: tuple[int, ...]
    var_names: tuple[str, ...]
    obj_const: float = field(init=False)
    obj_g: np.ndarray = field(init=False, repr=False)
    obj_H: np.ndarray = field(init=False, repr=False)
    con_const: np.ndarray = field(init=False, repr=False)
    con_G: np.ndarray = field(init=False, repr=False)
    con_H: list = field(init=False, repr=False)
    lin_A: np.ndarray = field(init=False, repr=False)
    lin_b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n_vars
        self.objective_linear = np.asarray(self.objective_linear, dtype=float)
        d0, g0, H0 = _compile_quadratic(n, self.objective_linear, 0.0, self.objective_models)
        self.obj_const, self.obj_g, self.obj_H = d0, g0, H0
        consts, rows, hessians = [], [], []
        for con in self.constraints:
            d, g, H = _compile_quadratic(n, np.asarray(con.a, dtype=float), -con.b, con.models)
            consts.append(d)
            rows.append(g)
            hessians.append(H if con.models else None)
        self.con_const = np.array(consts) if consts else np.zeros(0)
        self.con_G = np.array(rows) if rows else np.zeros((0, n))
        self.con_H = hessians
        plain = [i for i, con in enumerate(self.constraints) if not con.models]
        self.lin_A = self.con_G[plain] if plain else np.zeros((0, n))
        self.lin_b = -self.con_const[plain] if plain else np.zeros(0)

    # -- shared evaluation protocol -------------------------------------

    @property
    def positive_indices(self) -> tuple[int, ...]:
        return self.t_indices + self.y_indices

    @property
    def objective_curved(self) -> bool:
        return bool(self.objective_models)

    @property
    def n_nonlinear(self) -> int:
        return sum(1 for con in self.constraints if con.models)

    def objective_value(self, x) -> float:
        return self.obj_const + float(self.obj_g @ x) + 0.5 * float(x @ (self.obj_H @ x))

    def objective_gradient(self, x) -> np.ndarray:
        return self.obj_g + self.obj_H @ x

    def objective_hessian(self, x) -> np.ndarray:
        return self.obj_H.copy()

    def nonlinear_value(self, j: int, x) -> float:
        return self.con_const[j] + float(self.con_G[j] @ x) + 0.5 * float(x @ (self.con_H[j] @ x))

    def nonlinear_gradient(self, j: int, x) -> np.ndarray:
        return self.con_G[j] + self.con_H[j] @ x

    def nonlinear_hessian(self, j: int, x) -> np.ndarray:
        return self.con_H[j].copy()

    def max_violation(self, x) -> float:
        """Largest constraint value; <= 0 means feasible (0 on the boundary)."""
        worst = -math.inf if not self.constraints else 0.0
        for j, con in enumerate(self.constraints):
            v = self.con_const[j] + float(self.con_G[j] @ x)
            if con.models:
                v += 0.5 * float(x @ (self.con_H[j] @ x))
            worst = max(worst, v)
        for i in self.positive_indices:
            worst = max(worst, -float(x[i]))
        return worst


def _compile_quadratic(n, lin, const, models):
    """Expand const + lin.x + sum of models into (d, g, H) arrays."""
    d = float(const)
    g = np.array(lin, dtype=float, copy=True)
    H = np.zeros((n, n))
    for m in models:
        ti, yi, c = m.t_index, m.y_index, m.coeff
        v0, v1 = m.v
        w = v0 * m.t0 + v1 * m.y0
        d += c * (m.base - (m.g[0] * m.t0 + m.g[1] * m.y0) + 0.5 * w * w)
        g[ti] += c * (m.g[0] - w * v0)
        g[yi] += c * (m.g[1] - w * v1)
        H[ti, ti] += c * v0 * v0
        H[ti, yi] += c * v0 * v1
        H[yi, ti] += c * v0 * v1
        H[yi, yi] += c * v1 * v1
    return d, g, H


def quadratize(p: ConvexProgram, x_k: np.ndarray) -> QuadraticSubproblem:
    """Second-order model of a canonical program around x_k."""
    x_k = np.asarray(x_k, dtype=float)
    for i in p.t_indices:
        if x_k[i] <= 0.0:
            raise ValueError(f"expansion point needs positive times (x[{i}] = {x_k[i]:g})")
    obj_models = tuple(QuadraticModel.from_term(tm, x_k) for tm in p.objective_terms)
    cons = [
        QuadConstraint(
            a=tuple(1.0 if i == con.aux_index else 0.0 for i in range(p.n_vars)),
            b=0.0,
            models=tuple(QuadraticModel.from_term(tm, x_k) for tm in con.terms),
            label=con.label,
        )
        for con in p.epigraph
    ]
    cons.extend(QuadConstraint(a=con.a, b=con.b, label=con.label) for con in p.linear)
    return QuadraticSubproblem(
        n_vars=p.n_vars,
        objective_linear=p.objective_linear,
        objective_models=obj_models,
        constraints=tuple(cons),
        t_indices=p.t_indices,
        y_indices=p.y_indices,
        var_names=p.var_names,
    )


# ---------------------------------------------------------------------------
# Primal-dual interior-point method for the QCQP subproblem
# ---------------------------------------------------------------------------


@dataclass
class IpmOptions:
    sigma: float = 0.1      # centering parameter
    tol: float = 1e-8       # dual residual and duality measure target
    max_iters: int = 50
    frac: float = 0.99      # fraction-to-boundary scaling of the max step

    def __post_init__(self):
        if not 0 < self.sigma < 1:
            raise ValueError("sigma must lie in (0, 1)")
        if self.tol <= 0 or self.max_iters < 1:
            raise ValueError("tol must be positive and max_iters >= 1")
        if not 0 < self.frac < 1:
            raise ValueError("frac must lie in (0, 1)")


@dataclass
class SubproblemSolution:
    x: np.ndarray
    lam_constraints: np.ndarray   # multipliers for `constraints`, in order
    lam_bounds: np.ndarray        # multipliers for the nonnegativity bounds
    iters: int
    kkt_residual: float           # dual residual, subproblem metric
    gap: float                    # final duality measure
    converged: bool


def _constraint_state(sub: QuadraticSubproblem, pos: list[int], x: np.ndarray):
    """Values and gradients of every inequality (rows then bounds)."""
    n = sub.n_vars
    n_con = len(sub.constraints)
    J = n_con + len(pos)
    phi = np.empty(J)
    grad = np.zeros((J, n))
    if n_con:
        phi[:n_con] = sub.con_const + sub.con_G @ x
        grad[:n_con] = sub.con_G
        for j, H in enumerate(sub.con_H):
            if H is not None:
                Hx = H @ x
                phi[j] += 0.5 * float(x @ Hx)
                grad[j] += Hx
    for k, i in enumerate(pos):
        phi[n_con + k] = -x[i]
        grad[n_con + k, i] = -1.0
    return phi, grad


def _ipm(sub: QuadraticSubproblem, x: np.ndarray, opts: IpmOptions) -> SubproblemSolution:
    """Path-following solve of one QCQP subproblem from a strictly feasible x."""
    n = sub.n_vars
    pos = list(sub.positive_indices)
    n_con = len(sub.constraints)
    J = n_con + len(pos)

    if J == 0:
        # unconstrained quadratic: one Newton solve
        x = np.linalg.solve(sub.obj_H + 1e-14 * np.eye(n), -sub.obj_g)
        return SubproblemSolution(
            x=x, lam_constraints=np.zeros(0), lam_bounds=np.zeros(0),
            iters=1, kkt_residual=0.0, gap=0.0, converged=True,
        )

    phi, grad = _constraint_state(sub, pos, x)
    s = -phi
    if s.min() <= 0.0:
        raise ValueError("interior-point start must be strictly feasible")
    lam = 1.0 / np.maximum(s, 1e-3)

    def residual(x_, lam_, s_, grad_, target):
        r_d = sub.objective_gradient(x_) + grad_.T @ lam_
        r_c = lam_ * s_ - target
        return r_d, math.sqrt(float(r_d @ r_d) + float(r_c @ r_c))

    iters = 0
    for iters in range(1, opts.max_iters + 1):
        mu_hat = float(lam @ s) / J
        r_d = sub.objective_gradient(x) + grad.T @ lam
        if float(np.abs(r_d).max()) <= opts.tol and mu_hat <= opts.tol:
            return SubproblemSolution(
                x=x, lam_constraints=lam[:n_con], lam_bounds=lam[n_con:],
                iters=iters - 1, kkt_residual=float(np.abs(r_d).max()),
                gap=mu_hat, converged=True,
            )
        target = opts.sigma * mu_hat

        # condensed Newton system for (dx, dlam)
        M = sub.obj_H.copy()
        for j in range(n_con):
            if sub.con_H[j] is not None:
                M += lam[j] * sub.con_H[j]
        M += grad.T @ (grad * (lam / s)[:, None])
        rhs = -r_d - grad.T @ ((target - lam * s) / s)
        try:
            dx = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            bump = 1e-12 * max(1.0, float(np.trace(M)) / n)
            dx = np.linalg.solve(M + bump * np.eye(n), rhs)
        p = grad @ dx
        dlam = (target - lam * s + lam * p) / s

        # exact largest step keeping lam > 0 and every constraint negative
        alpha = 1.0 / opts.frac
        for j in range(J):
            if dlam[j] < 0.0:
                alpha = min(alpha, -lam[j] / dlam[j])
            q = 0.0
            if j < n_con and sub.con_H[j] is not None:
                q = float(dx @ (sub.con_H[j] @ dx))
            if q > 1e-14 * max(1.0, abs(p[j])):
                root = (-p[j] + math.sqrt(p[j] * p[j] + 2.0 * q * s[j])) / q
                alpha = min(alpha, root)
            elif p[j] > 0.0:
                alpha = min(alpha, s[j] / p[j])
        alpha = min(1.0, opts.frac * alpha)

        # backtrack on the combined residual
        _, rnorm = residual(x, lam, s, grad, target)
        for _ in range(40):
            x_try = x + alpha * dx
            lam_try = lam + alpha * dlam
            phi_try, grad_try = _constraint_state(sub, pos, x_try)
            s_try = -phi_try
            if s_try.min() > 0.0 and lam_try.min() > 0.0:
                _, rnorm_try = residual(x_try, lam_try, s_try, grad_try, target)
                if rnorm_try <= (1.0 - 0.01 * alpha) * rnorm:
                    break
            alpha *= 0.5
        else:
            break  # no productive step length found
        x, lam, s, phi, grad = x_try, lam_try, s_try, phi_try, grad_try

    mu_hat = float(lam @ s) / J
    r_d = sub.objective_gradient(x) + grad.T @ lam
    return SubproblemSolution(
        x=x, lam_constraints=lam[:n_con], lam_bounds=lam[n_con:],
        iters=iters, kkt_residual=float(np.abs(r_d).max()), gap=mu_hat,
        converged=float(np.abs(r_d).max()) <= opts.tol and mu_hat <= opts.tol,
    )


# ---------------------------------------------------------------------------
# Outer loop
# ---------------------------------------------------------------------------


@dataclass
class IterativeOptions:
    eps: float = 1e-6          # termination on the distance between solutions
    max_rounds: int = 50
    ipm: IpmOptions = field(default_factory=IpmOptions)
    record_history: bool = False

    def __post_init__(self):
        if self.eps <= 0 or self.max_rounds < 1:
            raise ValueError("eps must be positive and max_rounds >= 1")


def _clamp_aux(p: ConvexProgram, x: np.ndarray) -> np.ndarray:
    """Pull rate variables down onto the true epigraph feasible region."""
    x = x.copy()
    for aux, bound in aux_bounds(p, x).items():
        if x[aux] > bound:
            x[aux] = bound
    return x


def _ipm_start(p: ConvexProgram, x: np.ndarray) -> np.ndarray:
    """Recenter the rate variables so every subproblem row starts slack."""
    x = x.copy()
    for aux, bound in aux_bounds(p, x).items():
        x[aux] = min(x[aux], bound) - 1e-3 * (1.0 + abs(bound))
    return x


# trust region schedule: the quadratic model of a log is only locally
# faithful, so steps are boxed around the expansion point and the box is
# grown or shrunk on the ratio of actual to predicted descent
_TR_DELTA0 = 0.8
_TR_SHRINK = 0.25
_TR_GROW = 2.0
_TR_FREE = 50.0      # radius factor beyond which the box is dropped entirely
_TR_RETRIES = 4

_T_SCALE_FLOOR = 0.05     # slot fractions live on (0, 1)


def _y_scales(p: ConvexProgram) -> dict[int, float]:
    """Per-variable energy scale from the best-case budget caps."""
    return {
        i: 0.02 * cap if math.isfinite(cap) and cap > 0.0 else 1.0
        for i, cap in energy_caps(p).items()
    }


def _with_trust_region(sub: QuadraticSubproblem, center: np.ndarray,
                       delta: float, y_scales: dict[int, float]) -> QuadraticSubproblem:
    rows = list(sub.constraints)
    for i in list(sub.t_indices) + list(sub.y_indices):
        floor = _T_SCALE_FLOOR if i in sub.t_indices else y_scales[i]
        r = delta * max(abs(center[i]), floor)
        hi = tuple(1.0 if k == i else 0.0 for k in range(sub.n_vars))
        rows.append(QuadConstraint(a=hi, b=center[i] + r, label=f"tr_hi_{sub.var_names[i]}"))
        # the lower edge never reaches zero: a log term frozen at the
        # origin cannot be revived by a local quadratic model
        lo_val = max(center[i] - r, 0.25 * center[i])
        if lo_val > 0.0:
            lo = tuple(-1.0 if k == i else 0.0 for k in range(sub.n_vars))
            rows.append(QuadConstraint(a=lo, b=-lo_val, label=f"tr_lo_{sub.var_names[i]}"))
    return QuadraticSubproblem(
        n_vars=sub.n_vars, objective_linear=sub.objective_linear,
        objective_models=sub.objective_models, constraints=tuple(rows),
        t_indices=sub.t_indices, y_indices=sub.y_indices, var_names=sub.var_names,
    )


def solve_iterative(program: ConvexProgram, options: IterativeOptions | None = None) -> SolveResult:
    """Repeated quadratization until the solution stops moving.

    `outer_iters` on the result counts the rebuilds that moved the solution
    by more than `eps`; the final rebuild that confirms the fixed point is
    not included.
    """
    opts = options or IterativeOptions()
    pre = presolve_program(program)
    red = pre.program
    try:
        start = initial_point(red)
    except InfeasibleProgramError:
        return SolveResult.infeasible("quad")

    x = start.x.astype(float)
    y_scales = _y_scales(red)
    history: list | None = [] if opts.record_history else None
    if history is not None:
        history.append({"round": 0, "dif": math.nan,
                        "objective_nats": red.objective_value(x)})

    inner_total = 0
    rounds = 0
    moves = 0
    converged = False
    sol = None
    # a program without perspective terms is its own quadratic model, so
    # the box would only slow the one exact solve down
    has_models = bool(red.objective_terms) or any(con.terms for con in red.epigraph)
    delta = _TR_DELTA0 if has_models else _TR_FREE
    for rounds in range(1, opts.max_rounds + 1):
        expansion = x.copy()
        for i in red.t_indices:
            expansion[i] = max(expansion[i], _T_FLOOR)
        sub0 = quadratize(red, expansion)
        f_x = red.objective_value(x)
        accepted = False
        at_fixed_point = False
        cand = x
        for _ in range(_TR_RETRIES + 1):
            sub = sub0 if delta >= _TR_FREE else _with_trust_region(sub0, x, delta, y_scales)
            sol = _ipm(sub, _ipm_start(red, x), opts.ipm)
            inner_total += sol.iters
            if not sol.converged:
                delta *= _TR_SHRINK
                continue
            cand = _clamp_aux(red, sol.x)
            pred = f_x - sub0.objective_value(sol.x)
            act = f_x - red.objective_value(cand)
            if pred <= 1e-12 * (1.0 + abs(f_x)):
                # the model itself sees no descent around x
                accepted = True
                at_fixed_point = True
                break
            if act >= 1e-3 * pred:
                accepted = True
                if act >= 0.7 * pred:
                    delta = min(delta * _TR_GROW, _TR_FREE)
                break
            delta *= _TR_SHRINK
        if not accepted:
            break
        if at_fixed_point:
            converged = True
            break
        dif = float(np.linalg.norm(cand - x))
        x = cand
        if history is not None:
            history.append({"round": rounds, "dif": dif, "delta": delta,
                            "objective_nats": red.objective_value(x),
                            "ipm_iters": sol.iters})
        if dif <= opts.eps:
            converged = True
            break
        moves += 1

    if converged:
        # boxless rebuilds from the settled point: each accepted round is a
        # Newton step on the true stationarity system, so a few of them
        # polish the coordinates to machine precision and yield multipliers
        # for the true constraint set
        for _ in range(3):
            expansion = x.copy()
            for i in red.t_indices:
                expansion[i] = max(expansion[i], _T_FLOOR)
            clean = _ipm(quadratize(red, expansion), _ipm_start(red, x), opts.ipm)
            inner_total += clean.iters
            if not clean.converged:
                break
            cand = _clamp_aux(red, clean.x)
            move = float(np.linalg.norm(cand - x))
            f_x = red.objective_value(x)
            # a centered rebuild reads a few nano-nats worse than a
            # boundary-hugging iterate (complementarity offset of the
            # interior-point finish), so the deterioration guard must sit
            # above that offset
            if (move > 50.0 * opts.eps
                    or red.objective_value(cand) > f_x + 1e-8 * (1.0 + abs(f_x))):
                break
            x, sol = cand, clean
            if move <= 1e-12:
                break

    if sol is not None and sol.converged:
        # the subproblem duals certify the model, not the program: any
        # trust-region rows and the expansion-point shift land in the
        # residual, so refine against the true gradients first
        n_nl, n_lin = red.n_nonlinear, len(red.linear)
        lam = refine_multipliers(
            red, x, sol.lam_constraints[:n_nl],
            sol.lam_constraints[n_nl:n_nl + n_lin], sol.lam_bounds,
        )
        kkt = stationarity_residual(red, x, *lam)
    else:
        kkt = math.inf
    x_full = pre.expand(x)
    return SolveResult(
        status=SolveStatus.CONVERGED if converged else SolveStatus.MAX_ITERATIONS,
        x_star=Allocation(x=x_full, degenerate=pre.pinned),
        objective_bits=-program.objective_value(x_full) / LN2,
        outer_iters=moves if converged else rounds,
        inner_iters=inner_total,
        max_constraint_violation=program.max_violation(x_full),
        kkt_residual=kkt,
        solver="quad",
        history=history,
    )
