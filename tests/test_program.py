"""Perspective terms, canonical programs, presolve and starting points."""

import math

import numpy as np
import pytest

from ehcoop import Case, NetworkConfig, Objective, Scenario, ScenarioSpec
from ehcoop.program import (
    ConvexProgram,
    EpigraphConstraint,
    InfeasibleProgramError,
    LinearConstraint,
    PerspectiveTerm,
    energy_caps,
    initial_point,
    perspective_gradient,
    perspective_value,
    presolve_program,
    stationarity_residual,
)
from ehcoop.scenarios import build_problem


def relay_program(rho=0.3, **cfg_kwargs):
    cfg = NetworkConfig(**cfg_kwargs)
    spec = ScenarioSpec(Scenario.S1, Case.A, Objective.WEIGHTED_SUM, rho)
    return build_problem(spec, cfg)


def direct_program(objective=Objective.WEIGHTED_SUM, scenario=Scenario.S4, **cfg_kwargs):
    cfg = NetworkConfig(**cfg_kwargs)
    return build_problem(ScenarioSpec(scenario, Case.A, objective), cfg)


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


# -- perspective term -------------------------------------------------------


def test_perspective_value_matches_direct_formula():
    assert perspective_value(1e4, 0.5, 0.05) == pytest.approx(
        -0.5 * math.log(1.0 + 1e4 * 0.05 / 0.5), rel=1e-14)
    assert perspective_value(2500.0, 0.3, 0.01) == pytest.approx(
        -0.3 * math.log(1.0 + 2500.0 * 0.01 / 0.3), rel=1e-14)


def test_perspective_value_vanishes_on_the_boundary():
    assert perspective_value(1e4, 0.0, 0.05) == 0.0
    assert perspective_value(1e4, 0.5, 0.0) == 0.0


def test_perspective_value_is_positively_homogeneous():
    base = perspective_value(500.0, 0.4, 0.03)
    for s in (0.25, 0.5, 2.0, 7.5):
        assert perspective_value(500.0, s * 0.4, s * 0.03) == pytest.approx(
            s * base, rel=1e-13)


def test_perspective_value_domain():
    with pytest.raises(ValueError):
        perspective_value(0.0, 0.5, 0.05)
    with pytest.raises(ValueError):
        perspective_value(1e4, -0.1, 0.05)
    with pytest.raises(ValueError):
        perspective_value(1e4, 0.5, -0.05)


def test_perspective_gradient_unit_point():
    g, v = perspective_gradient(1.0, 1.0, 1.0)
    assert g == pytest.approx([-math.log(2.0) + 0.5, -0.5])
    assert v == pytest.approx([0.5, -0.5])


def test_perspective_gradient_at_zero_energy():
    g, v = perspective_gradient(2500.0, 0.4, 0.0)
    assert g == pytest.approx([0.0, -2500.0])
    assert v == pytest.approx([0.0, -2500.0 / math.sqrt(0.4)])


def test_perspective_gradient_requires_positive_t():
    with pytest.raises(ValueError):
        perspective_gradient(1e4, 0.0, 0.05)
    with pytest.raises(ValueError):
        perspective_gradient(1e4, 0.5, -0.01)


def test_perspective_gradient_matches_finite_differences():
    gamma, t, y = 2500.0, 0.4, 0.03
    g, _ = perspective_gradient(gamma, t, y)
    h = 1e-6
    fd_t = (perspective_value(gamma, t + h, y) - perspective_value(gamma, t - h, y)) / (2 * h)
    fd_y = (perspective_value(gamma, t, y + h) - perspective_value(gamma, t, y - h)) / (2 * h)
    assert g[0] == pytest.approx(fd_t, rel=1e-7)
    assert g[1] == pytest.approx(fd_y, rel=1e-7)


def test_hessian_rank_one_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        gamma = 10.0 ** rng.uniform(1.0, 5.0)
        t = rng.uniform(0.05, 0.95)
        y = 10.0 ** rng.uniform(-3.0, -0.5)
        _, v = perspective_gradient(gamma, t, y)
        den = t + gamma * y
        exact = np.array([
            [gamma**2 * y**2 / (t * den**2), -gamma**2 * y / den**2],
            [-gamma**2 * y / den**2, gamma**2 * t / den**2],
        ])
        err = np.abs(np.outer(v, v) - exact).max()
        assert err <= 1e-12 * max(1.0, np.abs(exact).max())


def test_perspective_midpoint_convexity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        gamma = 10.0 ** rng.uniform(1.0, 5.0)
        ta, tb = rng.uniform(0.05, 0.95, size=2)
        ya, yb = 10.0 ** rng.uniform(-3.0, -0.5, size=2)
        mid = perspective_value(gamma, 0.5 * (ta + tb), 0.5 * (ya + yb))
        avg = 0.5 * (perspective_value(gamma, ta, ya) + perspective_value(gamma, tb, yb))
        assert mid <= avg + 1e-10 * (1.0 + abs(avg))


# -- term and program validation --------------------------------------------


def test_perspective_term_validation():
    with pytest.raises(ValueError):
        PerspectiveTerm(0.0, 0, 1)
    with pytest.raises(ValueError):
        PerspectiveTerm(1e4, 0, 1, coeff=0.0)
    with pytest.raises(ValueError):
        PerspectiveTerm(1e4, 2, 2)


def test_program_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ConvexProgram(
            n_vars=2, objective_linear=np.zeros(3), objective_terms=(),
            epigraph=(), linear=(), t_indices=(0,), y_indices=(1,),
            var_names=("t", "y"),
        )
    with pytest.raises(ValueError):
        ConvexProgram(
            n_vars=2, objective_linear=np.zeros(2), objective_terms=(),
            epigraph=(), linear=(LinearConstraint((1.0,), 1.0),),
            t_indices=(0,), y_indices=(1,), var_names=("t", "y"),
        )


# -- whole-program evaluation -----------------------------------------------


def test_eval_program_toy_instance():
    p = toy_program()
    x = np.array([0.5, 0.1, 0.2])
    assert p.objective_value(x) == pytest.approx(-0.2)
    cons = p.constraint_values(x)
    rate_cap = 0.2 - 0.5 * math.log(1.0 + 100.0 * 0.1 / 0.5)
    assert cons == pytest.approx([rate_cap, 0.0, 0.0])
    # both linear rows sit exactly on the boundary, so the worst value is 0
    assert p.max_violation(x) == pytest.approx(0.0, abs=1e-15)


def test_objective_gradient_and_hessian_shapes():
    p = relay_program()
    x = initial_point(p).x
    g = p.objective_gradient(x)
    H = p.objective_hessian(x)
    assert g.shape == (7,)
    assert H.shape == (7, 7)
    assert np.allclose(H, H.T)
    # curvature only on the (t1, y1) block of U1's own-rate term
    assert H[0, 0] > 0.0 and H[1, 1] == 0.0


def test_nonlinear_rows_evaluate_per_constraint():
    p = relay_program()
    x = initial_point(p).x
    vals = p.nonlinear_values(x)
    assert vals.shape == (2,)
    for j in range(2):
        assert vals[j] == pytest.approx(p.nonlinear_value(j, x))
        assert p.nonlinear_gradient(j, x)[p.epigraph[j].aux_index] == 1.0


# -- starting points and presolve -------------------------------------------


def test_initial_point_is_strictly_interior():
    p = relay_program()
    alloc = initial_point(p)
    assert alloc.degenerate == ()
    assert p.max_violation(alloc.x) < 0.0
    for i in p.positive_indices:
        assert alloc.x[i] > 0.0


def test_initial_point_time_shares():
    p = relay_program()
    x = initial_point(p).x
    # three slots get 0.8/4 each, leaving 40% of the block idle
    assert x[:3] == pytest.approx([0.2, 0.2, 0.2])
    assert x[3] == pytest.approx(0.02)  # half the slack of U1's tightest budget


def test_initial_point_flags_zero_budget():
    p = direct_program(X1=0.0)
    alloc = initial_point(p)
    assert alloc.degenerate == (2,)  # U1's energy has no feasible interior
    assert alloc.x[2] == pytest.approx(1e-9)


def test_initial_point_without_budget_rows_defaults_energy_to_one():
    p = ConvexProgram(
        n_vars=2, objective_linear=np.zeros(2),
        objective_terms=(PerspectiveTerm(10.0, 0, 1),),
        epigraph=(), linear=(LinearConstraint((1.0, 0.0), 1.0),),
        t_indices=(0,), y_indices=(1,), var_names=("t", "y"),
    )
    assert initial_point(p).x[1] == pytest.approx(1.0)


def test_initial_point_detects_infeasible_rows():
    p = ConvexProgram(
        n_vars=1, objective_linear=np.array([1.0]), objective_terms=(),
        epigraph=(), linear=(
            LinearConstraint((1.0,), 0.5),
            LinearConstraint((-1.0,), -0.9),   # t >= 0.9 contradicts t <= 0.5
        ),
        t_indices=(0,), y_indices=(), var_names=("t",),
    )
    with pytest.raises(InfeasibleProgramError):
        initial_point(p)


def test_energy_caps_walk_budgets_in_order():
    p = relay_program(rho=0.3)
    caps = energy_caps(p)
    # y1 capped by U1's budget; later energies credit harvested input
    assert caps[3] == pytest.approx(0.1)
    assert caps[4] == pytest.approx(0.1 + 0.75 * 0.1)
    assert caps[5] == pytest.approx(0.1 + 0.75 * 0.3 * 0.175)


def test_presolve_keeps_full_program_when_budgets_are_positive():
    p = relay_program()
    pre = presolve_program(p)
    assert pre.pinned == ()
    assert pre.program is p
    assert list(pre.keep) == list(range(7))


def test_presolve_pins_zero_budget_energy():
    p = direct_program(X1=0.0)
    pre = presolve_program(p)
    assert pre.pinned == (2,)
    assert pre.program.n_vars == 3
    assert pre.program.var_names == ("t1", "t2", "y2")
    # U1's rate term disappears with its energy
    assert len(pre.program.objective_terms) == 1
    x_red = np.array([0.1, 0.2, 0.05])
    x_full = pre.expand(x_red)
    assert x_full == pytest.approx([0.1, 0.2, 0.0, 0.05])
    assert x_full[pre.keep] == pytest.approx(x_red)


def test_presolve_pins_rate_silenced_by_empty_epigraph():
    p = direct_program(objective=Objective.COMMON, X1=0.0)
    pre = presolve_program(p)
    # the near user's energy and the common rate it silences both go
    assert pre.pinned == (2, 4)
    assert pre.program.epigraph == ()


def test_stationarity_residual_vanishes_with_exact_multipliers():
    p = ConvexProgram(
        n_vars=1, objective_linear=np.array([1.0]), objective_terms=(),
        epigraph=(), linear=(LinearConstraint((-1.0,), -0.5),),  # t >= 0.5
        t_indices=(0,), y_indices=(), var_names=("t",),
    )
    x = np.array([0.5])
    assert stationarity_residual(p, x, [], [1.0], [0.0]) == pytest.approx(0.0)
    assert stationarity_residual(p, x, [], [0.0], [0.0]) == pytest.approx(1.0)
