"""Newton-barrier solver: line search pieces, stages and full solves."""

import math

import numpy as np
import pytest

from ehcoop import Case, NetworkConfig, Objective, Scenario, ScenarioSpec, SolveStatus
from ehcoop.barrier import (
    ALPHA_CAP,
    ARMIJO,
    BarrierOptions,
    _line_search,
    _newton_direction,
    alpha_linear,
    barrier_gradient,
    barrier_value,
    bisect_sign_change,
    golden_section_min,
    solve_nb,
)
from ehcoop.program import (
    ConvexProgram,
    EpigraphConstraint,
    LinearConstraint,
    PerspectiveTerm,
    initial_point,
)
from ehcoop.scenarios import build_problem


def one_var_program(rows):
    return ConvexProgram(
        n_vars=1, objective_linear=np.array([1.0]), objective_terms=(),
        epigraph=(), linear=tuple(LinearConstraint((a,), b) for a, b in rows),
        t_indices=(0,), y_indices=(), var_names=("t",),
    )


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


def relay_program(rho=0.3):
    spec = ScenarioSpec(Scenario.S1, Case.A, Objective.WEIGHTED_SUM, rho)
    return build_problem(spec, NetworkConfig())


# -- line search building blocks --------------------------------------------


def test_alpha_linear_backs_off_from_the_boundary():
    p = one_var_program([(1.0, 1.0)])  # t <= 1
    a = alpha_linear(p, np.array([0.2]), np.array([3.0]))
    assert a == pytest.approx(0.99 * 0.8 / 3.0)


def test_alpha_linear_respects_nonnegativity():
    p = one_var_program([(1.0, 1.0)])
    a = alpha_linear(p, np.array([0.2]), np.array([-1.0]))
    assert a == pytest.approx(0.99 * 0.2)


def test_alpha_linear_caps_unbounded_directions():
    p = one_var_program([(-1.0, 0.0)])  # t >= 0 only
    a = alpha_linear(p, np.array([0.2]), np.array([1.0]))
    assert a == pytest.approx(0.99 * ALPHA_CAP)


def test_bisect_sign_change_linear_root():
    root = bisect_sign_change(lambda a: a - 0.5, 0.0, 1.0, tol=1e-9)
    assert root == pytest.approx(0.5, abs=1e-8)


def test_golden_section_quadratic_minimum():
    a = golden_section_min(lambda s: (s - 0.3) ** 2, (0.0, 1.0), tol=1e-8)
    assert a == pytest.approx(0.3, abs=1e-6)


def test_golden_section_monotone_runs_to_the_far_end():
    a = golden_section_min(lambda s: -s, (0.0, 1.0), tol=1e-8)
    assert a >= 1.0 - 1e-5


def test_newton_direction_descends_on_the_barrier():
    p = relay_program()
    x = initial_point(p).x
    for tau in (1.0, 100.0):
        g = barrier_gradient(p, tau, x)
        d, regularized = _newton_direction(p, tau, x, g)
        assert not regularized
        assert float(g @ d) < 0.0


def test_barrier_value_infinite_outside_the_domain():
    p = toy_program()
    x = initial_point(p).x
    assert math.isfinite(barrier_value(p, 1.0, x))
    bad = x.copy()
    bad[0] = 0.6  # violates t <= 0.5
    assert barrier_value(p, 1.0, bad) == math.inf


# -- full solves ------------------------------------------------------------


def test_toy_program_reaches_the_closed_form_optimum():
    # both caps bind, so B* = 0.5 * log2(1 + 100 * 0.1 / 0.5)
    res = solve_nb(toy_program())
    assert res.converged
    assert res.objective_bits == pytest.approx(0.5 * math.log2(21.0), rel=1e-6)
    assert res.x_star.x[0] == pytest.approx(0.5, abs=1e-4)
    assert res.x_star.x[1] == pytest.approx(0.1, abs=1e-4)
    assert res.max_constraint_violation <= 0.0
    assert res.kkt_residual <= 1e-6


def test_relay_solve_is_feasible_and_stationary():
    res = solve_nb(relay_program())
    assert res.converged
    assert res.max_constraint_violation <= 0.0
    assert res.kkt_residual <= 1e-6
    assert res.tau_final >= 1e7


def test_tau0_invariance_on_one_instance():
    p = build_problem(ScenarioSpec(Scenario.S4, Case.A), NetworkConfig())
    objs = [solve_nb(p, BarrierOptions(tau0=t0)).objective_bits
            for t0 in (0.1, 1.0, 10.0)]
    spread = max(objs) - min(objs)
    assert spread <= 1e-6 * (1.0 + abs(objs[0]))


def test_explicit_start_matches_presolved_path():
    p = relay_program()
    base = solve_nb(p)
    warm = solve_nb(p, x0=initial_point(p).x)
    assert warm.converged
    rel = abs(warm.objective_bits - base.objective_bits) / (1.0 + abs(base.objective_bits))
    assert rel <= 1e-6


def test_mirrored_cases_agree_for_symmetric_users():
    # equal distances and budgets make case A and B relabelings of each other
    cfg = NetworkConfig(d1=2.0, d2=2.0, du=1.0)
    objs = []
    for case in Case:
        p = build_problem(ScenarioSpec(Scenario.S3, case), cfg)
        res = solve_nb(p)
        assert res.converged
        objs.append(res.objective_bits)
    assert objs[0] == pytest.approx(objs[1], rel=1e-8)


def test_zero_budget_user_collapses_cleanly():
    p = build_problem(ScenarioSpec(Scenario.S4, Case.A), NetworkConfig(X1=0.0))
    res = solve_nb(p)
    assert res.converged
    assert res.x_star.degenerate == (2,)
    assert res.x_star.x[2] == 0.0
    assert res.objective_bits > 0.0  # the far user still transmits


def test_infeasible_program_is_reported_not_raised():
    p = one_var_program([(1.0, 0.5), (-1.0, -0.9)])  # t <= 0.5 and t >= 0.9
    res = solve_nb(p)
    assert res.status is SolveStatus.INFEASIBLE
    assert res.x_star is None
    assert math.isnan(res.objective_bits)


def test_history_records_monotone_stages():
    res = solve_nb(relay_program(), BarrierOptions(record_history=True))
    assert res.history
    taus = [h["tau"] for h in res.history]
    assert taus == sorted(taus)
    assert taus[0] == pytest.approx(1.0)
    for h in res.history:
        assert isinstance(h["regularized"], bool)
        assert isinstance(h["evals"], int)
        if h["alpha"] > 0.0:
            assert h["evals"] >= 1
            # accepted steps never raise the barrier beyond evaluation noise
            assert h["barrier_next"] <= h["barrier"] + 1e-9 * (1.0 + abs(h["barrier"]))
    # the relay Hessians are well conditioned: no step needed regularizing
    assert not any(h["regularized"] for h in res.history)


# -- the backtracking line search on a relay program --------------------------


def test_accepted_steps_pass_armijo_or_the_noise_floor_rule():
    hist = solve_nb(relay_program(), BarrierOptions(record_history=True)).history
    accepted = 0
    for h, nxt in zip(hist, hist[1:] + [None]):
        if h["alpha"] == 0.0:
            continue
        accepted += 1
        assert h["slope"] < 0.0
        if h["barrier_next"] <= h["barrier"] + ARMIJO * h["alpha"] * h["slope"]:
            continue
        # noise floor: no rise beyond evaluation noise, and the gradient at
        # the new point (the next entry of the same stage) at least halves
        assert h["barrier_next"] <= h["barrier"] + 1e-9 * (1.0 + abs(h["barrier"]))
        if nxt is not None and nxt["tau"] == h["tau"]:
            assert nxt["grad_norm"] <= 0.5 * h["grad_norm"]
    assert accepted > 0


def test_line_search_needs_few_barrier_evaluations_per_step():
    hist = solve_nb(relay_program(), BarrierOptions(record_history=True)).history
    mean_evals = sum(h["evals"] for h in hist) / len(hist)
    assert mean_evals <= 3.0


def test_step_across_a_perspective_row_is_cut_back_inside():
    p = relay_program()
    x = initial_point(p).x.copy()
    tau = 10.0
    aux = p.epigraph[0].aux_index
    x[aux] = 0.2  # far below both rate rows, so raising it lowers the barrier
    d = np.zeros_like(x)
    d[aux] = 3.0
    # the full step crosses a perspective row but no linear row or axis
    assert max(p.nonlinear_value(j, x + d) for j in range(p.n_nonlinear)) > 0.0
    assert alpha_linear(p, x, d) >= 1.0
    f_x = barrier_value(p, tau, x)
    g = barrier_gradient(p, tau, x)
    slope = float(g @ d)
    assert slope < 0.0
    alpha, f_new, evals = _line_search(p, tau, x, d, f_x, slope,
                                       float(np.abs(g).max()), BarrierOptions())
    assert 0.0 < alpha < 1.0
    assert evals >= 2
    new = x + alpha * d
    assert all(p.nonlinear_value(j, new) < 0.0 for j in range(p.n_nonlinear))
    assert (p.lin_b - p.lin_A @ new).min() > 0.0
    assert math.isfinite(f_new)
    assert f_new == barrier_value(p, tau, new)
    assert f_new <= f_x + ARMIJO * alpha * slope
