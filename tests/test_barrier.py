"""Newton-barrier solver: line search pieces, stages and full solves."""

import math

import numpy as np
import pytest

from ehcoop import Case, NetworkConfig, Objective, Scenario, ScenarioSpec, SolveStatus, barrier
from ehcoop.barrier import (
    ALPHA_CAP,
    ARMIJO,
    GAP_TOL,
    LOCKSTEP_MIN,
    MU,
    TAU0,
    _extrapolate,
    _line_search,
    _line_search_all,
    _newton_direction,
    _solve,
    _solve_all,
    _Stack,
    alpha_linear,
    barrier_gradient,
    barrier_value,
    bisect_sign_change,
    golden_section_min,
    solve_nb,
    solve_nb_many,
)
from ehcoop.network import derive_channels, rho_max
from ehcoop.program import (
    ConvexProgram,
    EpigraphConstraint,
    LinearConstraint,
    PerspectiveTerm,
    initial_point,
)
from ehcoop.scenarios import build_problem
from ehcoop.strategy import rho_candidates


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


def screen_programs(cfg, case, objective):
    """The S1 programs of one rho screen, in grid order."""
    ch = derive_channels(cfg)
    return [build_problem(ScenarioSpec(Scenario.S1, case, objective, rho), cfg, ch)
            for rho in rho_candidates(ch)]


def assert_same_solve(lock, scalar):
    assert lock.status is scalar.status
    assert lock.solver == "nb"
    if scalar.x_star is None:
        assert lock.x_star is None
        return
    rel = abs(lock.objective_bits - scalar.objective_bits) / max(1.0, abs(scalar.objective_bits))
    assert rel <= 1e-12
    assert (lock.inner_iters, lock.outer_iters, lock.tau_final) == \
        (scalar.inner_iters, scalar.outer_iters, scalar.tau_final)
    assert lock.x_star.degenerate == scalar.x_star.degenerate
    if lock.converged:
        assert lock.max_constraint_violation <= 0.0
        assert lock.kkt_residual <= 1e-6


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


def test_tau0_invariance_on_one_instance(monkeypatch):
    p = build_problem(ScenarioSpec(Scenario.S4, Case.A), NetworkConfig())
    objs = []
    for t0 in (0.1, 1.0, 10.0):
        monkeypatch.setattr(barrier, "TAU0", t0)
        objs.append(solve_nb(p).objective_bits)
    spread = max(objs) - min(objs)
    assert spread <= 1e-6 * (1.0 + abs(objs[0]))


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
    history = []
    solve_nb(relay_program(), history)
    assert history
    taus = [h["tau"] for h in history]
    assert taus == sorted(taus)
    assert taus[0] == pytest.approx(TAU0)
    for h in history:
        assert isinstance(h["regularized"], bool)
        assert isinstance(h["evals"], int)
        if h["alpha"] > 0.0:
            assert h["evals"] >= 1
            # accepted steps never raise the barrier beyond evaluation noise
            assert h["barrier_next"] <= h["barrier"] + 1e-9 * (1.0 + abs(h["barrier"]))
    # the relay Hessians are well conditioned: no step needed regularizing
    assert not any(h["regularized"] for h in history)


# -- the backtracking line search on a relay program --------------------------


def test_accepted_steps_pass_armijo_or_the_noise_floor_rule():
    hist = []
    solve_nb(relay_program(), hist)
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
    hist = []
    solve_nb(relay_program(), hist)
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
    alpha, f_new, evals = _line_search(p, tau, x, d, f_x, slope, float(np.abs(g).max()))
    assert 0.0 < alpha < 1.0
    assert evals >= 2
    new = x + alpha * d
    assert all(p.nonlinear_value(j, new) < 0.0 for j in range(p.n_nonlinear))
    assert (p.lin_b - p.lin_A @ new).min() > 0.0
    assert math.isfinite(f_new)
    assert f_new == barrier_value(p, tau, new)
    assert f_new <= f_x + ARMIJO * alpha * slope


# -- central-path predictor and the gap stop ----------------------------------


def test_relay_solve_needs_few_newton_steps():
    # late stages start from the predicted point and finish in one step
    history = []
    res = solve_nb(relay_program(), history)
    assert res.converged
    assert res.inner_iters <= 45
    late = [h["tau"] for h in history if h["tau"] >= 1e8]
    assert late and len(late) == len(set(late))


def test_solve_stops_on_the_duality_gap():
    p = relay_program()
    res = solve_nb(p)
    rows = p.n_nonlinear + len(p.affine_rows[1])
    f = p.objective_value(res.x_star.x)
    assert rows / res.tau_final <= GAP_TOL * (1.0 + abs(f))
    # the stage before the last one had not closed the gap yet
    assert rows * MU / res.tau_final > GAP_TOL * (1.0 + abs(f))


def test_prediction_that_raises_the_barrier_is_rejected():
    p = relay_program()
    x = initial_point(p).x
    tau = 100.0
    g = barrier_gradient(p, tau, x)
    f_x = barrier_value(p, tau, x)
    scale = 1e-3 / (1.0 - 1.0 / MU)
    # uphill: the barrier rises along +g
    start, f_start = _extrapolate(p, tau, x, scale * g)
    assert barrier_value(p, tau, x + 1e-3 * g) > f_x
    assert np.array_equal(start, x) and f_start == f_x
    # out of the domain: the barrier is +inf there
    out = np.zeros_like(x)
    out[p.t_indices[0]] = -2.0 * x[p.t_indices[0]] / (1.0 - 1.0 / MU)
    start, f_start = _extrapolate(p, tau, x, out)
    assert np.array_equal(start, x) and f_start == f_x
    # downhill: the prediction is kept with its barrier value
    start, f_start = _extrapolate(p, tau, x, -scale * g)
    assert np.allclose(start, x - 1e-3 * g)
    assert f_start < f_x and f_start == barrier_value(p, tau, start)


def test_rejected_predictions_leave_the_solve_on_its_stage_path(monkeypatch):
    # the same optimum with every prediction turned uphill, only slower
    base = solve_nb(relay_program())
    real = barrier._minimize_stage

    def uphill(program, tau, x, f_x, history):
        x, k, ok, f, z = real(program, tau, x, f_x, history)
        return x, k, ok, f, None if z is None else -z

    monkeypatch.setattr(barrier, "_minimize_stage", uphill)
    res = solve_nb(relay_program())
    assert res.converged
    assert res.inner_iters > base.inner_iters
    assert res.objective_bits == pytest.approx(base.objective_bits, rel=1e-9)


# -- the certificate rule -------------------------------------------------------


def test_tiny_energy_cell_without_a_certificate_is_not_converged():
    # the stage path settles, but the point is not stationary to 1e-6
    cfg = NetworkConfig(X1=0.001, d1=1.0)
    ch = derive_channels(cfg)
    p = build_problem(ScenarioSpec(Scenario.S1, Case.A, Objective.COMMON, 0.5 * rho_max(ch)), cfg, ch)
    for res in [solve_nb(p)] + solve_nb_many([p] * LOCKSTEP_MIN):
        assert res.status is SolveStatus.MAX_ITERATIONS
        assert res.max_constraint_violation <= 0.0
        assert res.kkt_residual > 1e-6


# -- lockstep solves ------------------------------------------------------------


# at d1 = 1.8 some late Newton steps are taken by the noise-floor rule; on
# the third network some line searches find no step (a stall)
@pytest.mark.parametrize("cfg", [
    NetworkConfig(), NetworkConfig(d1=1.8, du=0.2),
    NetworkConfig(d1=1.2, du=0.27, eta=0.0, X1=180.0, X2=285.0, w1=0.5),
])
@pytest.mark.parametrize("case", list(Case))
@pytest.mark.parametrize("objective", list(Objective))
def test_lockstep_screen_matches_solve_nb(cfg, case, objective):
    programs = screen_programs(cfg, case, objective)
    assert len(programs) >= LOCKSTEP_MIN
    for lock, scalar in zip(solve_nb_many(programs), [solve_nb(p) for p in programs], strict=True):
        assert lock.converged
        assert_same_solve(lock, scalar)


def test_lockstep_programs_leave_at_their_own_gap_stop():
    # ten times the weights: |f| grows tenfold and the gap test passes a stage earlier
    programs = [build_problem(ScenarioSpec(Scenario.S1, Case.A, Objective.WEIGHTED_SUM, rho),
                              NetworkConfig(w1=w, w2=w))
                for w in (1.0, 10.0) for rho in (0.1, 0.3)]
    results = solve_nb_many(programs)
    assert len({r.outer_iters for r in results}) == 2
    for lock, p in zip(results, programs):
        assert_same_solve(lock, solve_nb(p))


def test_mixed_layouts_and_infeasible_programs_keep_their_order():
    # at X1 = 0, case B, rho = 0 pins U1's relay energy in presolve, so its
    # reduced program has another layout than the rest of the screen
    programs = screen_programs(NetworkConfig(X1=0.0), Case.B, Objective.WEIGHTED_SUM)
    programs = [one_var_program([(1.0, 0.5), (-1.0, -0.9)])] + programs
    programs.append(build_problem(ScenarioSpec(Scenario.S4, Case.A), NetworkConfig()))
    results = solve_nb_many(programs)
    assert results[0].status is SolveStatus.INFEASIBLE
    assert results[1].x_star.degenerate != results[2].x_star.degenerate
    for lock, p in zip(results, programs, strict=True):
        assert_same_solve(lock, solve_nb(p))


def test_small_groups_go_through_solve_nb(monkeypatch):
    calls = []
    real = barrier.solve_nb

    def counted(program):
        calls.append(program)
        return real(program)

    monkeypatch.setattr(barrier, "solve_nb", counted)
    programs = screen_programs(NetworkConfig(), Case.A, Objective.WEIGHTED_SUM)
    solve_nb_many(programs[:LOCKSTEP_MIN - 1])
    assert len(calls) == LOCKSTEP_MIN - 1
    calls.clear()
    solve_nb_many(programs[:LOCKSTEP_MIN])
    assert calls == []


def test_lockstep_line_search_takes_the_noise_floor_step(monkeypatch):
    # capture a step that the scalar search takes by the noise-floor rule
    # (it fails the Armijo test), then search it again on stacked copies
    seen = []
    real = barrier._line_search

    def spy(program, tau, x, d, f_x, slope, gnorm):
        out = real(program, tau, x, d, f_x, slope, gnorm)
        if out[0] > 0.0 and out[1] > f_x + ARMIJO * out[0] * slope:
            seen.append(((program, tau, x, d, f_x, slope, gnorm), out[:2]))
        return out

    monkeypatch.setattr(barrier, "_line_search", spy)
    cfg = NetworkConfig(d1=1.8, du=0.2)
    solve_nb(build_problem(ScenarioSpec(Scenario.S1, Case.A, Objective.WEIGHTED_SUM, 0.0), cfg))
    assert seen
    (p, tau, x, d, f_x, slope, gnorm), step = seen[0]
    stack = _Stack([p] * 3)
    X, D = np.array([x] * 3), np.array([d] * 3)
    # the second program is not searching
    steps = _line_search_all(stack, tau, X, D, [f_x] * 3, [slope] * 3, [gnorm] * 3,
                             stack.values(X)[2], [0, 2])
    assert steps == {0: step, 2: step}


def test_singular_stacked_system_is_regularized_alone():
    H = np.array([np.eye(2), [[1.0, 1.0], [1.0, 1.0]]])
    g = np.array([[[1.0], [2.0]], [[1.0], [1.0]]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(H, -g)
    d = _solve_all(H, g)
    assert np.array_equal(d[0], -g[0])
    fixed, regularized = _solve(H[1], g[1])
    assert regularized and np.array_equal(d[1], fixed)
