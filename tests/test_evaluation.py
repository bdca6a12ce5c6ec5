"""The compiled one-pass evaluation against a term-by-term reference.

`ConvexProgram.evaluate`/`values` and the barrier built on them are
checked against sums written here from the scalar `perspective_value` and
`perspective_gradient`, row by row, in the form the barrier is defined:

    f - (1/tau) [sum_j ln(-c_j) + sum ln(slack) + sum ln x_i]

with Hessian  H_f + sum_j [G_j G_j^T / (tau c_j^2) - H_j / (tau c_j)] + ...
"""

import math

import numpy as np
import pytest

from ehcoop import Case, NetworkConfig, Objective, Scenario, ScenarioSpec
from ehcoop.barrier import barrier_gradient, barrier_hessian, barrier_value, solve_nb
from ehcoop.network import derive_channels, rho_max
from ehcoop.program import (initial_point, perspective_gradient, perspective_value, point_rows,
                            presolve_program)
from ehcoop.scenarios import build_problem

TAU = 10.0   # any tau != 1, so that a dropped 1/tau shows
REL = 1e-12


def _specs():
    half = 0.5 * rho_max(derive_channels(NetworkConfig()))
    for scenario in Scenario:
        rhos = (0.0, half) if scenario is Scenario.S1 else (0.0,)
        for case in Case:
            for objective in Objective:
                for rho in rhos:
                    yield ScenarioSpec(scenario, case, objective, rho)


SPECS = list(_specs())


def _terms(p, row, x):
    """Value, gradient and Hessian of the sum of one row's weighted perspective terms."""
    n = p.n_vars
    val, g, H = 0.0, np.zeros(n), np.zeros((n, n))
    for r, gamma, coeff, ti, yi in p.term_table:
        if r != row:
            continue
        t, y = x[ti], x[yi]
        gt, v = perspective_gradient(gamma, t, y)
        idx = [ti, yi]
        val += coeff * perspective_value(gamma, t, y)
        g[idx] += coeff * gt
        H[np.ix_(idx, idx)] += coeff * np.outer(v, v)
    return val, g, H


def reference(p, tau, x):
    """Rows and barrier of a ConvexProgram, summed term by term."""
    val, g, Hf = _terms(p, -1, x)
    f = float(p.objective_linear @ x) + val
    grad = p.objective_linear + g
    rows = []
    for j, aux in enumerate(p.aux_index):
        val, g, H = _terms(p, j, x)
        g[aux] += 1.0
        rows.append((x[aux] + val, g, H))
    return f, grad, Hf, rows, _barrier(p, tau, x, f, grad, Hf, rows)


def _barrier(p, tau, x, f, grad, Hf, rows):
    pos = list(p.positive_indices)
    slack = p.lin_b - p.lin_A @ x
    value = f - (sum(math.log(-c) for c, _, _ in rows) + np.log(slack).sum()
                 + np.log(x[pos]).sum()) / tau
    g = grad.copy()
    H = Hf.copy()
    for c, gc, Hc in rows:
        g -= gc / (tau * c)
        H += np.outer(gc, gc) / (tau * c * c) - Hc / (tau * c)
    g += p.lin_A.T @ (1.0 / slack) / tau
    H += p.lin_A.T @ np.diag(1.0 / slack**2) @ p.lin_A / tau
    g[pos] -= 1.0 / (tau * x[pos])
    H[pos, pos] += 1.0 / (tau * x[pos] ** 2)
    return value, g, H


def close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b)) <= REL * max(float(np.linalg.norm(b)), 1e-300)


def _points(p):
    """The deterministic start and the nb optimum, where rows are near-active."""
    x0 = initial_point(p)
    return [x0, solve_nb(p).x_star]


def _check(p, x):
    f, grad, Hf, rows, (bv, bg, bH) = reference(p, TAU, x)
    ev = p.evaluate(x)
    assert close(ev.f, f) and close(ev.grad, grad)
    assert close(ev.c, [c for c, _, _ in rows])
    assert ev.G.shape == (p.n_nonlinear, p.n_vars)
    for j, (_, gc, Hc) in enumerate(rows):
        assert close(ev.G[j], gc)
        assert close(p.nonlinear_hessian(j, x), Hc)
    assert close(p.objective_hessian(x), Hf)
    f_v, c_v = p.values(x)
    assert close(f_v, f) and close(c_v, ev.c)
    assert close(barrier_value(p, TAU, x), bv)
    assert close(barrier_gradient(point_rows(p, x), TAU), bg)
    assert close(barrier_hessian(point_rows(p, x), TAU), bH)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.scenario.value}-{s.case.value}-"
                         f"{s.objective.value}-rho{s.rho:.3f}")
def test_compiled_pass_matches_the_term_sum(spec):
    p = build_problem(spec, NetworkConfig())
    for x in _points(p):
        _check(p, x)


def test_compiled_pass_on_a_presolved_program():
    p = build_problem(ScenarioSpec(Scenario.S1, Case.B, Objective.WEIGHTED_SUM, 0.0),
                      NetworkConfig(X1=0.0))
    pre = presolve_program(p)
    assert pre.pinned    # zero-budget energies are pinned at zero
    for x in _points(pre.program):
        _check(pre.program, x)


@pytest.mark.parametrize("spec", [s for s in SPECS if s.rho == 0.0],
                         ids=lambda s: f"{s.scenario.value}-{s.case.value}-{s.objective.value}")
def test_barrier_value_is_infinite_outside_the_domain(spec):
    p = build_problem(spec, NetworkConfig())
    x = initial_point(p)
    assert math.isfinite(barrier_value(p, TAU, x))
    below = x.copy()
    below[p.t_indices[0]] = -1e-3          # a time below zero
    assert barrier_value(p, TAU, below) == math.inf
    over = x.copy()
    over[p.t_indices[0]] += 1.0            # the slots overrun the frame
    assert barrier_value(p, TAU, over) == math.inf
    if p.aux_index:
        above = x.copy()
        above[p.aux_index[0]] += 100.0   # a rate above its epigraph cap
        assert barrier_value(p, TAU, above) == math.inf
