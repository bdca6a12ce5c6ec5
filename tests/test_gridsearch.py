"""Brute-force oracle for the two-slot scenarios and derivative checks."""

import numpy as np
import pytest

from ehcoop import Case, NetworkConfig, Objective, Scenario, ScenarioSpec
from ehcoop.barrier import solve_nb
from ehcoop.gridsearch import GridSpec, brute_force_grid, finite_diff_check
from ehcoop.program import initial_point
from ehcoop.scenarios import build_problem


def direct_program(scenario=Scenario.S4, case=Case.A,
                   objective=Objective.WEIGHTED_SUM, **cfg_kwargs):
    cfg = NetworkConfig(**cfg_kwargs)
    return build_problem(ScenarioSpec(scenario, case, objective), cfg)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(step=0.0)
    with pytest.raises(ValueError):
        GridSpec(step=1e-3, max_points=0)


def test_grid_tracks_the_solver_on_a_direct_instance():
    p = direct_program()
    res = solve_nb(p)
    ref = brute_force_grid(p, GridSpec(step=0.01))
    assert res.converged
    # the grid maximizes over feasible points only, so it can only trail
    gap = res.objective_bits - ref.objective_bits
    assert -1e-9 <= gap <= 0.05


def test_grid_refinement_is_monotone():
    p = direct_program(scenario=Scenario.S3)
    coarse = brute_force_grid(p, GridSpec(step=0.02))
    fine = brute_force_grid(p, GridSpec(step=0.005))
    assert fine.objective_bits >= coarse.objective_bits - 1e-12
    assert fine.points_scanned > coarse.points_scanned


def test_grid_best_point_is_feasible():
    p = direct_program(scenario=Scenario.S3, case=Case.B)
    ref = brute_force_grid(p, GridSpec(step=0.01))
    assert p.max_violation(ref.best.x) <= 1e-9


def test_energy_cooperation_never_hurts_on_the_grid():
    grid = GridSpec(step=0.01)
    with_transfer = brute_force_grid(direct_program(scenario=Scenario.S3), grid)
    without = brute_force_grid(direct_program(scenario=Scenario.S4), grid)
    assert with_transfer.objective_bits >= without.objective_bits - 1e-12


def test_grid_handles_the_common_objective():
    p = direct_program(objective=Objective.COMMON)
    res = solve_nb(p)
    ref = brute_force_grid(p, GridSpec(step=0.01))
    gap = res.objective_bits - ref.objective_bits
    assert -1e-9 <= gap <= 0.05


def test_grid_zero_budgets_yield_zero_throughput():
    p = direct_program(X1=0.0, X2=0.0)
    ref = brute_force_grid(p, GridSpec(step=0.05))
    assert ref.objective_bits == 0.0


def test_grid_rejects_relay_programs():
    cfg = NetworkConfig()
    p = build_problem(ScenarioSpec(Scenario.S1, Case.A, rho=0.3), cfg)
    with pytest.raises(ValueError):
        brute_force_grid(p)


def test_grid_refuses_oversized_grids():
    p = direct_program()
    with pytest.raises(ValueError):
        brute_force_grid(p, GridSpec(step=1e-4, max_points=1e6))


def test_finite_differences_confirm_program_derivatives():
    cfg = NetworkConfig()
    p = build_problem(ScenarioSpec(Scenario.S1, Case.A, rho=0.3), cfg)
    x0 = initial_point(p).x
    report = finite_diff_check(p, x0)
    assert report["gradient"] <= 1e-6
    assert report["hessian"] <= 1e-4


def test_finite_differences_cover_the_barrier():
    p = direct_program(scenario=Scenario.S3)
    x0 = initial_point(p).x
    report = finite_diff_check(p, x0, tau=100.0)
    assert np.isfinite(report["gradient"]) and np.isfinite(report["hessian"])
    assert report["gradient"] <= 1e-5
    assert report["hessian"] <= 1e-3
