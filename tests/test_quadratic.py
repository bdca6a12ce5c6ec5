"""Quadratic models, the QCQP subproblem solver and the iterative loop."""

import math
import warnings
from itertools import product

import numpy as np
import pytest

from ehcoop import Case, NetworkConfig, Objective, Scenario, ScenarioSpec, SolveStatus, quadratic
from ehcoop.barrier import solve_nb
from ehcoop.network import derive_channels
from ehcoop.program import (
    ConvexProgram,
    initial_point,
    perspective_value,
)
from ehcoop.quadratic import (
    _FRAC,
    LOCKSTEP_MIN,
    QuadraticSubproblem,
    _ipm,
    _ipm_many,
    _solve,
    _solve_all,
    _step_limit,
    quadratize,
    solve_iterative,
    solve_iterative_many,
)
from ehcoop.scenarios import build_problem
from ehcoop.strategy import rho_candidates, screen_rho


def relay_program(rho=0.3, objective=Objective.WEIGHTED_SUM):
    spec = ScenarioSpec(Scenario.S1, Case.A, objective, rho)
    return build_problem(spec, NetworkConfig())


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


# -- quadratic models -------------------------------------------------------


def test_model_is_exact_at_the_expansion_point():
    p = relay_program()
    x0 = initial_point(p)
    sub = quadratize(p, x0)
    assert sub.objective_value(x0) == pytest.approx(p.objective_value(x0), rel=1e-12)
    assert sub.obj_g + sub.obj_H @ x0 == pytest.approx(p.objective_gradient(x0), rel=1e-12)
    for j in range(p.n_nonlinear):
        row = sub.con_const[j] + sub.con_G[j] @ x0 + 0.5 * x0 @ sub.nl_H[j] @ x0
        assert row == pytest.approx(p.nonlinear_value(j, x0), abs=1e-12)
        assert sub.con_G[j] + sub.nl_H[j] @ x0 == pytest.approx(
            p.nonlinear_gradient(j, x0), rel=1e-10, abs=1e-12)


def one_term_model(gamma, x0):
    """Model around x0 of the program whose objective is the one term l(gamma; t, y)."""
    p = ConvexProgram(
        n_vars=2, objective_linear=np.zeros(2), term_table=((-1, gamma, 1.0, 0, 1),),
        aux_index=(), lin_A=np.zeros((0, 2)), lin_b=np.zeros(0), t_indices=(0,), y_indices=(1,),
        var_names=("t", "y"), labels=(),
    )
    return quadratize(p, x0).objective_value


def test_model_error_is_second_order():
    x0 = np.array([0.5, 0.05])
    model = one_term_model(2500.0, x0)
    direction = np.array([0.08, -0.006])

    def err(scale):
        x = x0 + scale * direction
        return abs(model(x) - perspective_value(2500.0, x[0], x[1]))

    # halving the step should shrink the residual by about 2^3
    big, small = err(1.0), err(0.5)
    assert big > 0.0
    assert small <= big / 5.0


def test_model_stays_useful_over_an_operating_box():
    # worst relative mismatch over a wide box around the expansion point
    x0 = np.array([0.5, 0.05])
    model = one_term_model(2500.0, x0)
    worst = 0.0
    for t in np.linspace(0.3, 0.7, 9):
        for y in np.linspace(0.02, 0.08, 9):
            true = perspective_value(2500.0, t, y)
            worst = max(worst, abs(model(np.array([t, y])) - true) / abs(true))
    assert worst <= 0.15


def test_quadratize_requires_positive_times():
    p = relay_program()
    x0 = initial_point(p)
    x0[1] = 0.0
    with pytest.raises(ValueError):
        quadratize(p, x0)


def test_quadratize_orders_model_rows_first():
    p = relay_program()
    sub = quadratize(p, initial_point(p))
    curved = [j < len(sub.nl_H) and bool(sub.nl_H[j].any()) for j in range(len(sub.con_const))]
    assert curved == [True, True, False, False, False, False]
    assert sub.n_nonlinear == 2
    assert sub.con_G[sub.n_nonlinear:].shape == (4, 7)


def test_direct_scenario_quadratizes_to_a_qp():
    p = build_problem(ScenarioSpec(Scenario.S3, Case.A), NetworkConfig())
    sub = quadratize(p, initial_point(p))
    assert sub.obj_H.any()
    assert sub.n_nonlinear == 0  # only linear budget rows remain


# -- subproblem solver ------------------------------------------------------


def test_lp_subproblem_recovers_primal_and_dual():
    # max t s.t. t <= 1
    sub = QuadraticSubproblem(
        obj_const=0.0, obj_g=np.array([-1.0]), obj_H=np.zeros((1, 1)),
        con_const=np.array([-1.0]), con_G=np.array([[1.0]]), nl_H=np.zeros((0, 1, 1)),
        t_indices=(0,), y_indices=(),
    )
    sol = _ipm(sub, np.array([0.4]))
    assert sol.converged
    assert sol.x[0] == pytest.approx(1.0, abs=1e-7)
    assert sol.lam_constraints[0] == pytest.approx(1.0, abs=1e-6)
    assert sol.lam_bounds[0] == pytest.approx(0.0, abs=1e-6)


def _step_limit_loop(lam, dlam, s, p, q, frac):
    """The per-row loop the interior-point step length was first written as."""
    alpha = 1.0 / frac
    for j in range(len(s)):
        if dlam[j] < 0.0:
            alpha = min(alpha, -lam[j] / dlam[j])
        if q[j] > 1e-14 * max(1.0, abs(p[j])):
            root = (-p[j] + math.sqrt(p[j] * p[j] + 2.0 * q[j] * s[j])) / q[j]
            alpha = min(alpha, root)
        elif p[j] > 0.0:
            alpha = min(alpha, s[j] / p[j])
    return alpha


@pytest.mark.parametrize("seed", range(40))
def test_vectorized_step_limit_equals_the_row_loop(seed):
    rng = np.random.default_rng(seed)
    n, m, k = 7, int(rng.integers(0, 4)), int(rng.integers(1, 12))
    J = m + k
    # curved rows carry a sum of rank-one model Hessians, like quadratize's
    v = rng.normal(size=(m, 3, n)) * rng.choice([1e-8, 1.0, 1e4], size=(m, 1, 1))
    nl_H = np.einsum("mki,mkj->mij", v, v)
    dx = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 1)
    q = np.zeros(J)
    q[:m] = (nl_H @ dx) @ dx
    s = 10.0 ** rng.uniform(-12, 1, size=J)
    lam = 10.0 ** rng.uniform(-10, 2, size=J)
    dlam = rng.normal(size=J) * lam * 10.0 ** rng.uniform(-1, 2)
    p = rng.normal(size=J) * 10.0 ** rng.uniform(-8, 1, size=J)
    p[rng.random(J) < 0.2] = 0.0
    assert min(1.0 / _FRAC, _step_limit(lam, dlam, s, p, q)) == _step_limit_loop(lam, dlam, s, p, q, _FRAC)
    # on (K, J) rows each program gets the limit of its own rows
    rows = (lam, dlam, s, p, q)
    stacked = _step_limit(*(np.array([v, v[::-1]]) for v in rows))
    assert stacked.tolist() == [_step_limit(*rows), _step_limit(*(v[::-1] for v in rows))]


def test_subproblem_agrees_with_slsqp():
    # an independent solve of the same QCQP, read off the subproblem's arrays
    pytest.importorskip("scipy")
    from scipy.optimize import minimize

    p = relay_program()
    x0 = initial_point(p)
    sub = quadratize(p, x0)
    ipm = _ipm(sub, x0)
    assert ipm.converged
    m, pos = sub.n_nonlinear, list(sub.positive_indices)

    def slack(x):
        """-(every row of the subproblem), then the nonnegative coordinates."""
        rows = sub.con_const + sub.con_G @ x
        rows[:m] += 0.5 * (sub.nl_H @ x) @ x
        return np.concatenate((-rows, x[pos]))

    def slack_jac(x):
        G = sub.con_G.copy()
        G[:m] += sub.nl_H @ x
        return np.concatenate((-G, np.eye(len(x))[pos]))

    ref = minimize(sub.objective_value, x0, jac=lambda x: sub.obj_g + sub.obj_H @ x,
                   method="SLSQP", constraints={"type": "ineq", "fun": slack, "jac": slack_jac},
                   options={"ftol": 1e-14, "maxiter": 1000}).x
    # SLSQP ends with success=False here, so its endpoint is judged by its own constraints
    assert slack(ref).min() >= -1e-10
    a = sub.objective_value(ipm.x)
    b = sub.objective_value(ref)
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


def test_iteration_counts_are_unchanged_by_the_array_subproblem():
    # the counts of the scalar per-term models: the array form only reorders sums
    relay = solve_iterative(relay_program())
    direct = solve_iterative(build_problem(ScenarioSpec(Scenario.S3, Case.A), NetworkConfig()))
    assert (relay.outer_iters, relay.inner_iters) == (6, 83)
    assert (direct.outer_iters, direct.inner_iters) == (5, 68)


def test_unused_slot_at_zero_ambient_energy_is_certified():
    # U1 has no ambient energy, so the relay slot ends unused at t ~ 1e-12,
    # where the perspective's gradient depends on y/t alone
    p = build_problem(ScenarioSpec(Scenario.S1, Case.B, Objective.COMMON, 0.3), NetworkConfig(X1=0.0))
    a = solve_iterative(p)
    b = solve_nb(p)
    assert a.converged and b.converged
    assert a.x_star.x[1] < 1e-9
    assert a.max_constraint_violation <= 0.0
    assert a.kkt_residual <= 1e-6
    assert abs(a.objective_bits - b.objective_bits) <= 1e-7 * (1.0 + abs(b.objective_bits))


def test_settled_point_without_a_certificate_is_not_converged():
    # X1 = 0, case B, sum: the rounds settle while the relay slot still
    # shrinks towards t = 0 with a y/t that certifies nothing
    p = build_problem(ScenarioSpec(Scenario.S1, Case.B, Objective.WEIGHTED_SUM, 0.7),
                      NetworkConfig(X1=0.0))
    res = solve_iterative(p)
    assert res.kkt_residual > 1e-6
    assert res.status is SolveStatus.MAX_ITERATIONS


def test_already_quadratic_program_converges_in_one_round():
    p = ConvexProgram(
        n_vars=2, objective_linear=np.array([-1.0, -0.5]), term_table=(), aux_index=(),
        lin_A=np.array([[1.0, 1.0]]), lin_b=np.array([1.0]),
        t_indices=(0, 1), y_indices=(), var_names=("t1", "t2"), labels=("time",),
    )
    res = solve_iterative(p)
    assert res.converged
    assert res.outer_iters == 1
    assert res.x_star.x[0] == pytest.approx(1.0, abs=1e-6)
    assert res.x_star.x[1] == pytest.approx(0.0, abs=1e-6)


def test_round_limit_is_reported(monkeypatch):
    monkeypatch.setattr(quadratic, "MAX_ROUNDS", 1)
    res = solve_iterative(relay_program())
    assert not res.converged
    assert res.status is SolveStatus.MAX_ITERATIONS
    assert res.outer_iters == 1


def test_round_objective_never_increases(monkeypatch):
    # every round and every polishing rebuild expands the model around the
    # iterate it starts from, and the rounds only accept descent
    starts = []
    real = quadratic._expansion_point

    def spy(p, x):
        starts.append(p.objective_value(x))
        return real(p, x)

    monkeypatch.setattr(quadratic, "_expansion_point", spy)
    res = solve_iterative(relay_program())
    assert res.converged
    assert len(starts) >= 2
    for prev, nxt in zip(starts, starts[1:]):
        assert nxt <= prev + 1e-8 * (1.0 + abs(prev))


def test_common_objective_agrees_across_solvers():
    p = relay_program(objective=Objective.COMMON)
    a = solve_iterative(p)
    b = solve_nb(p)
    assert a.converged and b.converged
    rel = abs(a.objective_bits - b.objective_bits) / (1.0 + abs(b.objective_bits))
    assert rel <= 1e-6


# -- lockstep solves ------------------------------------------------------------


def screen_programs(cfg, case, objective):
    """The S1 programs of one rho screen, in grid order."""
    ch = derive_channels(cfg)
    return [build_problem(ScenarioSpec(Scenario.S1, case, objective, rho), cfg, ch)
            for rho in rho_candidates(ch)]


def assert_same_solve(lock, scalar):
    assert lock.status is scalar.status
    assert lock.solver == "quad"
    if scalar.x_star is None:
        assert lock.x_star is None
        return
    rel = abs(lock.objective_bits - scalar.objective_bits) / max(1.0, abs(scalar.objective_bits))
    assert rel <= 1e-12
    assert (lock.outer_iters, lock.inner_iters) == (scalar.outer_iters, scalar.inner_iters)
    assert lock.x_star.degenerate == scalar.x_star.degenerate


def spy_stacks(monkeypatch):
    """Record every (subproblems, starts) group `solve_iterative_many` stacks."""
    groups = []
    real = quadratic._ipm_many

    def spy(subs, xs):
        groups.append((list(subs), [np.array(x) for x in xs]))
        return real(subs, xs)

    monkeypatch.setattr(quadratic, "_ipm_many", spy)
    return groups


@pytest.mark.parametrize("cfg", [
    NetworkConfig(), NetworkConfig(d1=1.8, du=0.2),
    NetworkConfig(d1=1.2, du=0.27, eta=0.0, X1=180.0, X2=285.0, w1=0.5),
])
@pytest.mark.parametrize("case", list(Case))
@pytest.mark.parametrize("objective", list(Objective))
def test_lockstep_screen_matches_solve_iterative(cfg, case, objective, monkeypatch):
    programs = screen_programs(cfg, case, objective)
    stacks = spy_stacks(monkeypatch)
    results = solve_iterative_many(programs)
    assert max(len(subs) for subs, _ in stacks) == len(programs)
    for lock, scalar in zip(results, [solve_iterative(p) for p in programs], strict=True):
        assert_same_solve(lock, scalar)


def test_mixed_layouts_and_infeasible_programs_keep_their_order():
    # at X1 = 0, case B, rho = 0 pins U1's relay energy in presolve, so its
    # reduced program has another layout than the rest of the screen
    empty = ConvexProgram(
        n_vars=1, objective_linear=np.array([1.0]), term_table=(), aux_index=(),
        lin_A=np.array([[1.0], [-1.0]]), lin_b=np.array([0.5, -0.9]),
        t_indices=(0,), y_indices=(), var_names=("t",), labels=("", ""),
    )
    programs = [empty] + screen_programs(NetworkConfig(X1=0.0), Case.B, Objective.WEIGHTED_SUM)
    programs.append(build_problem(ScenarioSpec(Scenario.S4, Case.A), NetworkConfig()))
    results = solve_iterative_many(programs)
    assert results[0].status is SolveStatus.INFEASIBLE
    assert results[1].x_star.degenerate != results[2].x_star.degenerate
    for lock, p in zip(results, programs, strict=True):
        assert_same_solve(lock, solve_iterative(p))


def test_small_groups_run_the_scalar_ipm(monkeypatch):
    alone = []
    real = quadratic._ipm

    def spy(sub, x):
        alone.append(sub)
        return real(sub, x)

    monkeypatch.setattr(quadratic, "_ipm", spy)
    stacks = spy_stacks(monkeypatch)
    programs = screen_programs(NetworkConfig(), Case.A, Objective.WEIGHTED_SUM)
    solve_iterative(programs[0])
    assert alone and not stacks
    alone.clear()
    solve_iterative_many(programs[:LOCKSTEP_MIN - 1])
    assert alone and not stacks
    alone.clear()
    solve_iterative_many(programs[:LOCKSTEP_MIN])
    assert stacks and len(stacks[0][0]) == LOCKSTEP_MIN
    assert all(len(subs) >= LOCKSTEP_MIN for subs, _ in stacks)


@pytest.mark.parametrize("backtracks", [1, 2, 40])
def test_stacked_ipm_keeps_every_rule_per_program(backtracks, monkeypatch):
    # with one or two halvings some programs find no productive step and
    # leave the stack early, while the others go on
    stacks = []
    real = quadratic._ipm_many

    def spy(st, X):
        stacks.append((st, X.copy()))
        return real(st, X)

    monkeypatch.setattr(quadratic, "_ipm_many", spy)
    solve_iterative_many(screen_programs(NetworkConfig(X1=0.0), Case.B, Objective.COMMON))
    monkeypatch.setattr(quadratic, "_BACKTRACKS", backtracks)
    stuck = 0
    for st, X in stacks:
        for k, lock in enumerate(real(st, X)):
            alone = _ipm(st[k], X[k])
            assert (lock.iters, lock.converged) == (alone.iters, alone.converged)
            assert np.array_equal(lock.x, alone.x)
            assert np.array_equal(lock.lam_constraints, alone.lam_constraints)
            assert np.array_equal(lock.lam_bounds, alone.lam_bounds)
            assert (lock.kkt_residual, lock.gap) == (alone.kkt_residual, alone.gap)
            stuck += not alone.converged and alone.iters < quadratic._IPM_MAX_ITERS
    assert (stuck > 0) == (backtracks < 40)


def spy_stacked_rounds(monkeypatch):
    """Record every stacked round: (asks, the `_Stack` and starts sent to `_ipm_many`, replies)."""
    rounds, stacks = [], []
    real_ipm, real_answer = quadratic._ipm_many, quadratic._answer_stack

    def ipm(st, X):
        stacks.append((st, X.copy()))
        return real_ipm(st, X)

    def answer(ps, floors, asks):
        replies = real_answer(ps, floors, asks)
        rounds.append((asks, *stacks[-1], replies))
        return replies

    monkeypatch.setattr(quadratic, "_ipm_many", ipm)
    monkeypatch.setattr(quadratic, "_answer_stack", answer)
    return rounds


@pytest.mark.parametrize("cfg", [
    NetworkConfig(), NetworkConfig(d1=1.8, du=0.2), NetworkConfig(X1=0.0),
    NetworkConfig(d1=1.2, du=0.27, eta=0.0, X1=180.0, X2=285.0, w1=0.5),
])
@pytest.mark.parametrize("case", list(Case))
@pytest.mark.parametrize("objective", list(Objective))
def test_stacked_rounds_equal_the_scalar_ones(cfg, case, objective, monkeypatch):
    # every stacked model, IPM start and reply has the bits of the one-by-one
    # quadratize, _with_trust_region, _under_caps and _ipm (`_answer`)
    rounds = spy_stacked_rounds(monkeypatch)
    solve_iterative_many(screen_programs(cfg, case, objective))
    assert rounds
    lifted = False
    for asks, st, X0, replies in rounds:
        for k, (ask, reply) in enumerate(zip(asks, replies, strict=True)):
            red, x = ask.program, ask.x
            sub = quadratize(red, quadratic._expansion_point(red, x))
            lifted |= bool((x[list(red.t_indices)] < quadratic._T_FLOOR).any())
            if ask.delta is not None:
                sub = quadratic._with_trust_region(sub, x, ask.delta, ask.floors)
            model = st[k]
            assert model.obj_const == sub.obj_const
            for name in ("obj_g", "obj_H", "con_const", "con_G", "nl_H"):
                assert np.array_equal(getattr(model, name), getattr(sub, name)), name
            assert np.array_equal(X0[k], quadratic._under_caps(red, x, quadratic._IPM_BACKOFF))
            alone = quadratic._answer(ask)[0]
            assert np.array_equal(reply.sol.x, alone.sol.x)
            assert reply.sol.iters == alone.sol.iters
            assert np.array_equal(reply.sol.lam_constraints, alone.sol.lam_constraints)
            assert np.array_equal(reply.sol.lam_bounds, alone.sol.lam_bounds)
            assert reply.f_x == alone.f_x
            if alone.sol.converged:
                assert np.array_equal(reply.cand, alone.cand)
                assert (reply.f_model, reply.f_cand) == (alone.f_model, alone.f_cand)
            else:
                assert reply.cand is None
    if cfg.X1 == 0.0 and case is Case.B and objective is Objective.COMMON:
        # the relay slot's time falls below the expansion floor
        assert lifted


def test_quad_screens_raise_no_runtime_warning():
    # only the uncertified candidates warn, with a UserWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for X1, case, objective in product((0.0, 100.0), Case, Objective):
            screen_rho(NetworkConfig(X1=X1), case, objective, solver="quad")
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert caught and all(w.category is UserWarning for w in caught)


def test_singular_stacked_ipm_system_is_regularized_alone():
    M = np.array([np.eye(2), [[1.0, 1.0], [1.0, 1.0]]])
    rhs = np.array([[1.0, 2.0], [1.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(M, rhs[:, :, None])
    dx = _solve_all(M, rhs)
    assert np.array_equal(dx[0], rhs[0])
    fixed = _solve(M[1], rhs[1])
    assert np.isfinite(fixed).all() and np.array_equal(dx[1], fixed)
