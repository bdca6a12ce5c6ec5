"""Perspective terms, canonical programs, presolve and starting points."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ehcoop import Case, NetworkConfig, Objective, Scenario, ScenarioSpec, SolveStatus, barrier, quadratic
from ehcoop.barrier import solve_nb
from ehcoop.network import derive_channels, rho_max
from ehcoop import program as program_module
from ehcoop.program import (
    ConvexProgram,
    InfeasibleProgramError,
    energy_caps,
    initial_point,
    perspective_gradient,
    perspective_value,
    point_rows,
    presolve_program,
    refine_multipliers,
    regularized_solve,
    scalar_log1p,
    solve_many,
    stack_key,
    start,
    stationarity_residual,
)
from ehcoop.quadratic import solve_iterative
from ehcoop.scenarios import build_problem
from ehcoop.strategy import rho_candidates


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
        term_table=((0, 100.0, 1.0, 0, 1),),
        aux_index=(2,),
        lin_A=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        lin_b=np.array([0.5, 0.1]),
        t_indices=(0,),
        y_indices=(1,),
        var_names=("t", "y", "B"),
        labels=("rate", "time", "energy"),
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
    p = toy_program()
    assert replace(p, term_table=((0, 1e4, 2.0, 0, 1),)).term_table == ((0, 1e4, 2.0, 0, 1),)
    for term in ((0, 0.0, 1.0, 0, 1),      # gamma must be positive
                 (0, 1e4, 0.0, 0, 1),      # so must the coefficient
                 (0, 1e4, 1.0, 1, 1),      # t and y must be distinct
                 (1, 1e4, 1.0, 0, 1),      # there is one epigraph row
                 (-2, 1e4, 1.0, 0, 1)):    # and the objective is row -1
        with pytest.raises(ValueError):
            replace(p, term_table=(term,))


def test_program_rejects_bad_shapes():
    p = toy_program()
    for bad in (dict(objective_linear=np.zeros(4)),
                dict(var_names=("t", "y")),
                dict(lin_A=np.zeros((2, 2))),         # rows too short
                dict(lin_b=np.array([0.5])),          # a row without a bound
                dict(labels=("rate", "time"))):       # a row without a label
        with pytest.raises(ValueError):
            replace(p, **bad)


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
    x = initial_point(p)
    g = p.objective_gradient(x)
    H = p.objective_hessian(x)
    assert g.shape == (7,)
    assert H.shape == (7, 7)
    assert np.allclose(H, H.T)
    # curvature only on the (t1, y1) block of U1's own-rate term
    assert H[0, 0] > 0.0 and H[1, 1] == 0.0


def test_nonlinear_rows_evaluate_per_constraint():
    p = relay_program()
    x = initial_point(p)
    vals = p.nonlinear_values(x)
    assert vals.shape == (2,)
    for j in range(2):
        assert vals[j] == pytest.approx(p.nonlinear_value(j, x))
        assert p.nonlinear_gradient(j, x)[p.aux_index[j]] == 1.0


def test_scalar_log1p_has_the_bits_of_math_log1p():
    rng = np.random.default_rng(31)
    z = np.concatenate((np.exp(rng.uniform(-30.0, 10.0, 384)), -rng.uniform(0.0, 1.0, 128))).reshape(64, 8)
    want = np.array([math.log1p(v) for v in z.ravel().tolist()]).reshape(z.shape)
    assert (np.log1p(z) != want).any()          # numpy's bits differ on some of the sample
    assert scalar_log1p(z).tobytes() == want.tobytes()
    # off the domain an element takes numpy's value, without an exception,
    # and the others keep the bits of math.log1p
    got = scalar_log1p(np.array([[-2.0, -1.0, math.nan], [-math.inf, math.inf, z[0, 0]]]))
    assert np.isnan(got[0, 0]) and got[0, 1] == -math.inf and np.isnan(got[0, 2])
    assert np.isnan(got[1, 0]) and got[1, 1] == math.inf and got[1, 2] == want[0, 0]


# -- starting points and presolve -------------------------------------------


def test_initial_point_is_strictly_interior():
    p = relay_program()
    x = initial_point(p)
    assert p.max_violation(x) < 0.0
    for i in p.positive_indices:
        assert x[i] > 0.0


def test_initial_point_time_shares():
    p = relay_program()
    x = initial_point(p)
    # three slots get 0.8/4 each, leaving 40% of the block idle
    assert x[:3] == pytest.approx([0.2, 0.2, 0.2])
    assert x[3] == pytest.approx(0.02)  # half the slack of U1's tightest budget


def test_initial_point_flags_zero_budget():
    p = direct_program(X1=0.0)
    with pytest.raises(InfeasibleProgramError):
        initial_point(p)    # U1's energy has no feasible interior
    # the solvers' start pins that energy first
    pre, x = start(p)
    assert pre.pinned == (2,)
    assert pre.program.max_violation(x) < 0.0


def test_tiny_positive_budget_gets_no_placeholder():
    # X1 = 0 and a split of 1e-12 of its limit leave U1 about 1e-14 J: presolve
    # keeps it, but no start has the margin
    cfg = NetworkConfig(X1=0.0)
    rho = 1e-12 * rho_max(derive_channels(cfg))
    p = build_problem(ScenarioSpec(Scenario.S1, Case.A, Objective.WEIGHTED_SUM, rho), cfg)
    red = presolve_program(p).program
    assert 0.0 < min(energy_caps(red).values()) < 1e-9
    with pytest.raises(InfeasibleProgramError):
        initial_point(red)
    assert solve_nb(p).status is SolveStatus.INFEASIBLE
    assert solve_iterative(p).status is SolveStatus.INFEASIBLE


def test_initial_point_without_budget_rows_defaults_energy_to_one():
    p = ConvexProgram(
        n_vars=2, objective_linear=np.zeros(2), term_table=((-1, 10.0, 1.0, 0, 1),),
        aux_index=(), lin_A=np.array([[1.0, 0.0]]), lin_b=np.array([1.0]),
        t_indices=(0,), y_indices=(1,), var_names=("t", "y"), labels=("time",),
    )
    assert initial_point(p)[1] == pytest.approx(1.0)


def test_initial_point_detects_infeasible_rows():
    p = ConvexProgram(
        n_vars=1, objective_linear=np.array([1.0]), term_table=(), aux_index=(),
        lin_A=np.array([[1.0], [-1.0]]),
        lin_b=np.array([0.5, -0.9]),     # t >= 0.9 contradicts t <= 0.5
        t_indices=(0,), y_indices=(), var_names=("t",), labels=("short", "long"),
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
    # U1's rate term disappears with its energy, U2's is renumbered
    assert pre.program.term_table == ((-1, p.term_table[1][1], 1.0, 1, 2),)
    # U1's budget row is vacuous without its energy
    assert pre.program.labels == ("energy_u2", "total_time")
    x_red = np.array([0.1, 0.2, 0.05])
    x_full = pre.expand(x_red)
    assert x_full == pytest.approx([0.1, 0.2, 0.0, 0.05])
    assert x_full[pre.keep] == pytest.approx(x_red)


def test_presolve_pins_rate_silenced_by_empty_epigraph():
    p = direct_program(objective=Objective.COMMON, X1=0.0)
    pre = presolve_program(p)
    # the near user's energy and the common rate it silences both go
    assert pre.pinned == (2, 4)
    assert pre.program.aux_index == ()
    assert pre.program.term_table == ()


def test_presolve_drops_the_rate_of_a_silent_far_user():
    # U2 neither harvests nor receives energy, so its energy is pinned; the
    # decode row loses its only term, which pins B and drops the route row
    p = relay_program(rho=0.0, X2=0.0, eta=0.0)
    pre = presolve_program(p)
    assert pre.pinned == (4, 6)
    red = pre.program
    assert red.var_names == ("t1", "t2", "t3", "y1", "y3")
    assert red.aux_index == ()
    assert red.term_table == (p.term_table[0],)    # U1's own rate, same indices
    assert red.labels == ("energy_u1_slot1", "energy_u1_slot3", "total_time")
    assert np.array_equal(red.lin_A, p.lin_A[[0, 2, 3]][:, [0, 1, 2, 3, 5]])
    assert np.array_equal(red.lin_b, p.lin_b[[0, 2, 3]])


def test_presolve_names_a_row_it_leaves_infeasible():
    p = ConvexProgram(
        n_vars=2, objective_linear=np.zeros(2), term_table=((-1, 10.0, 1.0, 0, 1),),
        aux_index=(), lin_A=np.array([[0.0, 1.0], [0.0, -1.0]]),
        lin_b=np.array([0.0, -0.1]),    # y <= 0 pins y, which breaks y >= 0.1
        t_indices=(0,), y_indices=(1,), var_names=("t", "y"), labels=("budget", "floor"),
    )
    with pytest.raises(InfeasibleProgramError, match="constraint floor is infeasible"):
        presolve_program(p)
    # both solvers report it as any other program without an interior point
    assert start(p) is None
    assert solve_nb(p).status is SolveStatus.INFEASIBLE
    assert solve_iterative(p).status is SolveStatus.INFEASIBLE


def test_stationarity_residual_vanishes_with_exact_multipliers():
    p = ConvexProgram(
        n_vars=1, objective_linear=np.array([1.0]), term_table=(), aux_index=(),
        lin_A=np.array([[-1.0]]), lin_b=np.array([-0.5]),  # t >= 0.5
        t_indices=(0,), y_indices=(), var_names=("t",), labels=("long",),
    )
    x = np.array([0.5])
    assert stationarity_residual(point_rows(p, x), [1.0, 0.0]) == pytest.approx(0.0)
    assert stationarity_residual(point_rows(p, x), [0.0, 0.0]) == pytest.approx(1.0)


def test_refine_multipliers_corrects_only_the_active_rows():
    # variables (t, y, y2, r): the epigraph row r <= t ln(1 + 2y/t), the
    # linear rows t + y <= 2 and t <= 5, then the bounds on t, y and y2;
    # at (1, 1, 0, ln 3) the epigraph row, t + y <= 2 and y2 >= 0 are active
    gamma, coeff = 2.0, 1.5
    t, y = 1.0, 1.0
    x = np.array([t, y, 0.0, coeff * t * math.log1p(gamma * y / t)])
    g, _ = perspective_gradient(gamma, t, y)
    normals = np.array([
        [coeff * g[0], coeff * g[1], 0.0, 1.0],
        [1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0],
    ])
    # the objective makes these multipliers stationary, slack rows' seeds included
    exact = np.array([1.0, 0.7, 0.2, 0.05, 0.02, 0.5])
    p = ConvexProgram(
        n_vars=4, objective_linear=-normals.T @ exact, term_table=((0, gamma, coeff, 0, 1),),
        aux_index=(3,), lin_A=normals[1:3], lin_b=np.array([2.0, 5.0]),
        t_indices=(0,), y_indices=(1, 2), var_names=("t", "y", "y2", "r"),
        labels=("rate", "budget", "cap"),
    )
    active = np.array([True, True, False, False, False, True])
    seeds = exact + np.where(active, [0.3, -0.2, 0.0, 0.0, 0.0, 0.4], 0.0)
    assert stationarity_residual(point_rows(p, x), seeds) > 0.1
    lam = refine_multipliers(point_rows(p, x), seeds)
    assert len(lam) == len(normals)
    assert stationarity_residual(point_rows(p, x), lam) <= 1e-12
    assert np.array_equal(lam[~active], seeds[~active])
    assert (lam >= 0.0).all()


def test_barrier_gradient_is_the_lagrangian_gradient_at_the_barrier_multipliers():
    # nb's barrier gradient and the certificate's residual read one gradient:
    # at lambda = 1/(tau s) they agree bit for bit
    p = build_problem(ScenarioSpec(Scenario.S1, Case.A, Objective.WEIGHTED_SUM, 0.3), NetworkConfig())
    view = point_rows(p, initial_point(p))
    for tau in (100.0, 1e6):
        g = barrier.barrier_gradient(view, tau)
        assert stationarity_residual(view, 1.0 / (tau * view[2])) == float(np.abs(g).max())


@pytest.mark.parametrize("seeded", [True, False])
def test_finish_takes_one_view_of_the_final_point(seeded, monkeypatch):
    p = direct_program()
    pre, x = start(p)
    calls = []

    def spy(program, z):
        calls.append(z)
        return point_rows(program, z)

    monkeypatch.setattr(program_module, "point_rows", spy)
    seeds = np.ones(pre.program.n_nonlinear + len(pre.program.affine_rows[1])) if seeded else None
    res = program_module.finish(p, pre, "nb", x, seeds, True, 1, 1, math.nan)
    assert len(calls) == (1 if seeded else 0)
    assert (res.kkt_residual < math.inf) is seeded


# -- the solve shell and the shared Newton solve -------------------------------


def test_solve_shell_hands_each_layout_to_the_kernel_once_in_input_order():
    # at X1 = 0, case B, rho = 0 pins U1's relay energy in presolve, so its
    # reduced program has another layout than the rest of the screen
    cfg = NetworkConfig(X1=0.0)
    empty = ConvexProgram(
        n_vars=1, objective_linear=np.array([1.0]), term_table=(), aux_index=(),
        lin_A=np.array([[1.0], [-1.0]]), lin_b=np.array([0.5, -0.9]),
        t_indices=(0,), y_indices=(), var_names=("t",), labels=("", ""),
    )
    programs = [build_problem(ScenarioSpec(Scenario.S1, Case.B, Objective.WEIGHTED_SUM, rho), cfg)
                for rho in rho_candidates(derive_channels(cfg))]
    programs = [programs[1], empty, programs[0]] + programs[2:] + [direct_program(), empty]
    calls = []

    def kernel(reduced, X):
        calls.append((reduced, X))
        # each program ends at its start, its position in the call its outer count
        return [(x, None, True, k, len(reduced), math.nan) for k, x in enumerate(X)]

    results = solve_many(programs, "fake", kernel)
    keys = [stack_key(reduced[0]) for reduced, _ in calls]
    assert len(set(keys)) == len(calls) == 3
    assert sum(len(reduced) for reduced, _ in calls) == len(programs) - 2
    for key, (reduced, X) in zip(keys, calls):
        assert all(stack_key(p) == key for p in reduced)
        assert np.array_equal(X, [initial_point(p) for p in reduced])
    for p, res in zip(programs, results, strict=True):
        assert res.solver == "fake"
        if p is empty:
            assert res.status is SolveStatus.INFEASIBLE
            continue
        pre, x0 = start(p)
        assert np.array_equal(res.x_star, pre.expand(x0))
        # without seeds no certificate: the KKT residual is infinite
        assert res.status is SolveStatus.MAX_ITERATIONS and res.kkt_residual == math.inf
        reduced, X = calls[keys.index(stack_key(pre.program))]
        assert res.inner_iters == len(reduced) and np.array_equal(X[res.outer_iters], x0)


@pytest.mark.parametrize("bump", [pytest.param(barrier.REGULARIZE, id="nb"),
                                  pytest.param(quadratic._REGULARIZE, id="quad")])
def test_singular_stacked_system_is_regularized_alone(bump):
    M = np.array([np.eye(2), [[1.0, 1.0], [1.0, 1.0]]])
    rhs = np.array([[[1.0], [2.0]], [[1.0], [1.0]]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(M, rhs)
    d, regularized = regularized_solve(M, rhs, bump)
    assert regularized and np.array_equal(d[0], rhs[0])
    fixed, alone = regularized_solve(M[1], rhs[1], bump)
    assert alone and np.isfinite(fixed).all() and np.array_equal(d[1], fixed)
    # the bump on the diagonal is the solver's: bump * max(1, trace / n)
    assert np.array_equal(fixed, np.linalg.solve(M[1] + bump * np.eye(2), rhs[1]))
    # a regular system is solved as it is
    assert regularized_solve(M[0], rhs[0], bump)[1] is False
