"""Quadratic models, the QCQP subproblem solver and the iterative loop."""

import math

import numpy as np
import pytest

from ehcoop import Case, NetworkConfig, Objective, Scenario, ScenarioSpec, SolveStatus
from ehcoop.barrier import solve_nb
from ehcoop.program import (
    ConvexProgram,
    EpigraphConstraint,
    LinearConstraint,
    PerspectiveTerm,
    initial_point,
    perspective_value,
)
from ehcoop.quadratic import (
    IpmOptions,
    IterativeOptions,
    QuadConstraint,
    QuadraticModel,
    QuadraticSubproblem,
    _ipm,
    quadratize,
    solve_iterative,
)
from ehcoop.scenarios import build_problem


def relay_program(rho=0.3, objective=Objective.WEIGHTED_SUM):
    spec = ScenarioSpec(Scenario.S1, Case.A, objective, rho)
    return build_problem(spec, NetworkConfig())


def toy_program():
    """max B s.t. B <= t*log(1+100 y/t), t <= 0.5, y <= 0.1."""
    return ConvexProgram(
        n_vars=3,
        objective_linear=np.array([0.0, 0.0, -1.0]),
        objective_terms=(),
        epigraph=(EpigraphConstraint(2, (PerspectiveTerm(100.0, 0, 1),), "rate"),),
        linear=(
            LinearConstraint((1.0, 0.0, 0.0), 0.5, "time"),
            LinearConstraint((0.0, 1.0, 0.0), 0.1, "energy"),
        ),
        t_indices=(0,),
        y_indices=(1,),
        var_names=("t", "y", "B"),
    )


# -- quadratic models -------------------------------------------------------


def test_model_is_exact_at_the_expansion_point():
    p = relay_program()
    x0 = initial_point(p).x
    sub = quadratize(p, x0)
    assert sub.objective_value(x0) == pytest.approx(p.objective_value(x0), rel=1e-12)
    assert sub.objective_gradient(x0) == pytest.approx(p.objective_gradient(x0), rel=1e-12)
    for j in range(p.n_nonlinear):
        assert sub.nonlinear_value(j, x0) == pytest.approx(p.nonlinear_value(j, x0), abs=1e-12)
        assert sub.nonlinear_gradient(j, x0) == pytest.approx(
            p.nonlinear_gradient(j, x0), rel=1e-10, abs=1e-12)


def test_model_error_is_second_order():
    term = PerspectiveTerm(2500.0, 0, 1)
    x0 = np.array([0.5, 0.05])
    model = QuadraticModel.from_term(term, x0)
    direction = np.array([0.08, -0.006])

    def err(scale):
        x = x0 + scale * direction
        return abs(model.value(x) - perspective_value(2500.0, x[0], x[1]))

    # halving the step should shrink the residual by about 2^3
    big, small = err(1.0), err(0.5)
    assert big > 0.0
    assert small <= big / 5.0


def test_model_stays_useful_over_an_operating_box():
    # worst relative mismatch over a wide box around the expansion point
    term = PerspectiveTerm(2500.0, 0, 1)
    x0 = np.array([0.5, 0.05])
    model = QuadraticModel.from_term(term, x0)
    worst = 0.0
    for t in np.linspace(0.3, 0.7, 9):
        for y in np.linspace(0.02, 0.08, 9):
            true = perspective_value(2500.0, t, y)
            worst = max(worst, abs(model.value((t, y)) - true) / abs(true))
    assert worst <= 0.15


def test_quadratize_requires_positive_times():
    p = relay_program()
    x0 = initial_point(p).x
    x0[1] = 0.0
    with pytest.raises(ValueError):
        quadratize(p, x0)


def test_quadratize_orders_model_rows_first():
    p = relay_program()
    sub = quadratize(p, initial_point(p).x)
    kinds = [bool(c.models) for c in sub.constraints]
    assert kinds == [True, True, False, False, False, False]
    assert sub.n_nonlinear == 2
    assert sub.lin_A.shape == (4, 7)


def test_direct_scenario_quadratizes_to_a_qp():
    p = build_problem(ScenarioSpec(Scenario.S3, Case.A), NetworkConfig())
    sub = quadratize(p, initial_point(p).x)
    assert sub.objective_curved
    assert sub.n_nonlinear == 0  # only linear budget rows remain


# -- subproblem solver ------------------------------------------------------


def test_lp_subproblem_recovers_primal_and_dual():
    sub = QuadraticSubproblem(
        n_vars=1, objective_linear=np.array([-1.0]), objective_models=(),
        constraints=(QuadConstraint(a=(1.0,), b=1.0),),
        t_indices=(0,), y_indices=(), var_names=("t",),
    )
    sol = _ipm(sub, np.array([0.4]), IpmOptions())
    assert sol.converged
    assert sol.x[0] == pytest.approx(1.0, abs=1e-7)
    assert sol.lam_constraints[0] == pytest.approx(1.0, abs=1e-6)
    assert sol.lam_bounds[0] == pytest.approx(0.0, abs=1e-6)


def test_subproblem_agrees_with_barrier_solver():
    p = relay_program()
    x0 = initial_point(p).x
    sub = quadratize(p, x0)
    ipm = _ipm(sub, x0, IpmOptions())
    nb = solve_nb(sub, x0=x0)
    assert ipm.converged
    assert nb.converged
    a = sub.objective_value(ipm.x)
    b = sub.objective_value(nb.x_star.x)
    assert abs(a - b) <= 1e-6 * (1.0 + abs(a))


# -- iterative loop ---------------------------------------------------------


def test_toy_program_reaches_the_closed_form_optimum():
    res = solve_iterative(toy_program())
    assert res.converged
    assert res.objective_bits == pytest.approx(0.5 * math.log2(21.0), rel=1e-6)
    assert res.x_star.x[0] == pytest.approx(0.5, abs=1e-4)
    assert res.x_star.x[1] == pytest.approx(0.1, abs=1e-4)


def test_iterative_matches_barrier_on_the_relay_program():
    p = relay_program()
    a = solve_iterative(p)
    b = solve_nb(p)
    assert a.converged and b.converged
    rel = abs(a.objective_bits - b.objective_bits) / (1.0 + abs(b.objective_bits))
    assert rel <= 1e-6
    assert a.max_constraint_violation <= 0.0
    assert a.kkt_residual <= 1e-6


def test_already_quadratic_program_converges_in_one_round():
    p = ConvexProgram(
        n_vars=2, objective_linear=np.array([-1.0, -0.5]), objective_terms=(),
        epigraph=(), linear=(LinearConstraint((1.0, 1.0), 1.0),),
        t_indices=(0, 1), y_indices=(), var_names=("t1", "t2"),
    )
    res = solve_iterative(p)
    assert res.converged
    assert res.outer_iters == 1
    assert res.x_star.x[0] == pytest.approx(1.0, abs=1e-6)
    assert res.x_star.x[1] == pytest.approx(0.0, abs=1e-6)


def test_round_limit_is_reported():
    res = solve_iterative(relay_program(), IterativeOptions(max_rounds=1))
    assert not res.converged
    assert res.status is SolveStatus.MAX_ITERATIONS
    assert res.outer_iters == 1


def test_history_objective_never_increases():
    res = solve_iterative(relay_program(), IterativeOptions(record_history=True))
    assert res.converged
    objs = [h["objective_nats"] for h in res.history]
    assert len(objs) >= 2
    for prev, nxt in zip(objs, objs[1:]):
        assert nxt <= prev + 1e-8 * (1.0 + abs(prev))


def test_common_objective_agrees_across_solvers():
    p = relay_program(objective=Objective.COMMON)
    a = solve_iterative(p)
    b = solve_nb(p)
    assert a.converged and b.converged
    rel = abs(a.objective_bits - b.objective_bits) / (1.0 + abs(b.objective_bits))
    assert rel <= 1e-6
