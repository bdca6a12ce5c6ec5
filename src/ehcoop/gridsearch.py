"""Independent cross-checks: brute-force grid search and derivative probes.

The grid oracle handles the two-slot direct-transmission programs, where
the nonlinear structure allows eliminating everything except (t1, t2):
for fixed times it is optimal to spend every energy budget fully, walking
the budgets in transmission order.  The result lower-bounds the true
optimum and converges to it as the step shrinks, giving a solver check
that shares no code path with the Newton iterations.

The finite-difference probe compares the analytic perspective derivatives
and the assembled barrier derivatives against central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barrier import barrier_gradient, barrier_hessian, barrier_value
from .program import LN2, ConvexProgram, aux_bounds, point_rows

# the grid oracle refuses grids of more points than this
MAX_GRID_POINTS = 1e8
# central-difference steps of the derivative probe
GRAD_STEP = 1e-6
HESS_STEP = 1e-5


@dataclass
class GridResult:
    best: np.ndarray          # the best grid point in program coordinates
    objective_bits: float
    points_scanned: int


def brute_force_grid(p: ConvexProgram, step: float = 1e-3) -> GridResult:
    """Exhaustive scan over the times step, 2 step, ... below 1, energies at their budgets.

    Supports programs with exactly two time variables whose linear rows
    give each energy an explicit budget.  Raises ValueError for the
    relay-scenario programs (three slots, coupled budgets), where the
    elimination argument does not produce a two-dimensional search, for a
    step outside (0, 1) and for a grid of more than MAX_GRID_POINTS points.
    """
    if not 0 < step < 1:
        raise ValueError("step must lie in (0, 1)")
    if len(p.t_indices) != 2:
        raise ValueError("grid oracle supports two-slot programs only")
    size = math.ceil((1.0 - step) / step)    # the length of the axis below
    if size**2 > MAX_GRID_POINTS:
        raise ValueError(f"grid of {size**2:.3g} points exceeds the {MAX_GRID_POINTS:.3g} cap")
    axis = np.arange(step, 1.0, step)

    i1, i2 = p.t_indices
    T1, T2 = np.meshgrid(axis, axis, indexing="ij")
    feasible = T1 + T2 <= 1.0 + 1e-12
    times = {i1: T1, i2: T2}

    # energies at their sequential budget maxima
    energies: dict[int, np.ndarray] = {}
    for yi in p.y_indices:
        bound = None
        for a, b in zip(p.lin_A, p.lin_b):
            if a[yi] <= 0.0:
                continue
            slack = np.full(T1.shape, b)
            for ti, T in times.items():
                if a[ti]:
                    slack = slack - a[ti] * T
            for yj, Y in energies.items():
                if a[yj]:
                    slack = slack - a[yj] * Y
            cand = slack / a[yi]
            bound = cand if bound is None else np.minimum(bound, cand)
        if bound is None:
            raise ValueError(f"energy {p.var_names[yi]} has no budget row")
        energies[yi] = np.clip(bound, 0.0, None)

    # each row's sum of weighted rates over the grid, the objective's last
    sums = [0.0] * (len(p.aux_index) + 1)
    for row, gamma, coeff, ti, yi in p.term_table:
        T = times[ti]
        sums[row] += coeff * T * np.log1p(gamma * energies[yi] / T)
    # max-min objective: the shared rate is the smallest epigraph bound
    value = np.min(sums[:-1], axis=0) if p.aux_index else sums[-1]

    value = np.where(feasible, value, -np.inf)
    flat = int(np.argmax(value))
    r, c = divmod(flat, axis.size)
    best_nats = float(value[r, c])

    x = np.zeros(p.n_vars)
    x[i1], x[i2] = axis[r], axis[c]
    for yi in p.y_indices:
        x[yi] = float(energies[yi][r, c])
    for aux, bound in aux_bounds(p.aux_index, p.term_sums(x.tolist())).items():
        x[aux] = bound
    return GridResult(
        best=x,
        objective_bits=best_nats / LN2,
        points_scanned=int(feasible.sum()),
    )


# ---------------------------------------------------------------------------
# Finite-difference probes
# ---------------------------------------------------------------------------


def _central_gradient(fn, x, h):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def _central_hessian(fn, x, h):
    n = x.size
    H = np.zeros((n, n))
    f0 = fn(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        H[i, i] = (fn(x + ei) - 2.0 * f0 + fn(x - ei)) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            H[i, j] = H[j, i] = (
                fn(x + ei + ej) - fn(x + ei - ej) - fn(x - ei + ej) + fn(x - ei - ej)
            ) / (4.0 * h * h)
    return H


def _rel(err: float, scale: float) -> float:
    return err / max(1.0, scale)


def finite_diff_check(program, x: np.ndarray, tau: float | None = None) -> dict:
    """Norm-relative error of analytic first and second derivatives at x,
    against central differences of steps GRAD_STEP and HESS_STEP.

    Checks the objective and every nonlinear constraint; with `tau` given,
    also the assembled barrier gradient and Hessian.  Returns a dict with
    `gradient` and `hessian` worst-case relative errors.
    """
    x = np.asarray(x, dtype=float)
    pairs = [(program.objective_value, program.objective_gradient, program.objective_hessian)]
    for j in range(program.n_nonlinear):
        pairs.append((
            lambda z, j=j: program.nonlinear_value(j, z),
            lambda z, j=j: program.nonlinear_gradient(j, z),
            lambda z, j=j: program.nonlinear_hessian(j, z),
        ))
    if tau is not None:
        pairs.append((
            lambda z: barrier_value(program, tau, z),
            lambda z: barrier_gradient(point_rows(program, z), tau),
            lambda z: barrier_hessian(point_rows(program, z), tau),
        ))

    worst_g = 0.0
    worst_h = 0.0
    for value, gradient, hessian in pairs:
        g = gradient(x)
        g_fd = _central_gradient(value, x, GRAD_STEP)
        worst_g = max(worst_g, _rel(float(np.linalg.norm(g_fd - g)), float(np.linalg.norm(g))))
        H = hessian(x)
        H_fd = _central_hessian(value, x, HESS_STEP)
        worst_h = max(worst_h, _rel(float(np.linalg.norm(H_fd - H)), float(np.linalg.norm(H))))
    return {"gradient": worst_g, "hessian": worst_h}
