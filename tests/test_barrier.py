"""Newton-barrier solver: line search pieces, stages and full solves."""

import math
import warnings

import numpy as np
import pytest

from ehcoop import Case, NetworkConfig, Objective, Scenario, ScenarioSpec, SolveStatus, barrier, program
from ehcoop.barrier import (
    ALPHA_CAP,
    ARMIJO,
    GAP_TOL,
    GRAD_TOL,
    MU,
    TAU0,
    _at_noise,
    _line_search,
    _newton_direction,
    _One,
    _Stack,
    alpha_linear,
    barrier_gradient,
    barrier_value,
    bisect_sign_change,
    golden_section_min,
    solve_nb,
    solve_nb_many,
)
from ehcoop.network import derive_channels
from ehcoop.program import (
    ConvexProgram,
    initial_point,
    point_rows,
    presolve_program,
)
from ehcoop.scenarios import build_problem
from ehcoop.strategy import rho_candidates, screen_rho


def one_var_program(rows):
    return ConvexProgram(
        n_vars=1, objective_linear=np.array([1.0]), term_table=(), aux_index=(),
        lin_A=np.array([[a] for a, _ in rows]), lin_b=np.array([b for _, b in rows]),
        t_indices=(0,), y_indices=(), var_names=("t",), labels=("",) * len(rows),
    )


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


def relay_program(rho=0.3):
    spec = ScenarioSpec(Scenario.S1, Case.A, Objective.WEIGHTED_SUM, rho)
    return build_problem(spec, NetworkConfig())


def stalling_programs():
    """Two relay programs whose last line search finds no step (a stall)."""
    return [relay_program(0.34), relay_program(0.38)]


def screen_programs(cfg, case, objective):
    """The S1 programs of one rho screen, in grid order."""
    return [build_problem(ScenarioSpec(Scenario.S1, case, objective, rho), cfg)
            for rho in rho_candidates(derive_channels(cfg))]


def spy_line_searches(monkeypatch):
    """Record every `_line_search` call: its arguments (f_x copied before the
    stage updates it) and the steps it returns."""
    calls = []
    real = barrier._line_search

    def spy(be, tau, X, D, f_x, slope, slack, search):
        call = {"be": be, "tau": tau, "X": X, "D": D, "f_x": list(f_x), "slope": slope,
                "slack": slack, "search": search}
        call["steps"] = real(be, tau, X, D, f_x, slope, slack, search)
        calls.append(call)
        return call["steps"]

    monkeypatch.setattr(barrier, "_line_search", spy)
    return calls


def assert_same_solve(lock, scalar):
    """A lockstep result has the bits of the lone solve."""
    assert lock.status is scalar.status
    assert lock.solver == "nb"
    assert (lock.inner_iters, lock.outer_iters) == (scalar.inner_iters, scalar.outer_iters)
    for field in ("tau_final", "objective_bits", "kkt_residual"):
        assert getattr(lock, field).hex() == getattr(scalar, field).hex(), field
    if scalar.x_star is None:
        assert lock.x_star is None
        return
    assert lock.x_star.tobytes() == scalar.x_star.tobytes()
    if lock.converged:
        assert lock.max_constraint_violation <= 0.0
        assert lock.kkt_residual <= 1e-6


# -- line search building blocks --------------------------------------------


def test_alpha_linear_backs_off_from_the_boundary():
    p = one_var_program([(1.0, 1.0)])  # t <= 1
    a = alpha_linear(p, point_rows(p, np.array([0.2]))[2], np.array([3.0]))
    assert a == pytest.approx(0.99 * 0.8 / 3.0)


def test_alpha_linear_respects_nonnegativity():
    p = one_var_program([(1.0, 1.0)])
    a = alpha_linear(p, point_rows(p, np.array([0.2]))[2], np.array([-1.0]))
    assert a == pytest.approx(0.99 * 0.2)


def test_alpha_linear_caps_unbounded_directions():
    p = one_var_program([(-1.0, 0.0)])  # t >= 0 only
    a = alpha_linear(p, point_rows(p, np.array([0.2]))[2], np.array([1.0]))
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
    x = initial_point(p)
    view = point_rows(p, x)
    for tau in (1.0, 100.0):
        g = barrier_gradient(view, tau)
        d, regularized = _newton_direction(view, 1.0 / (tau * view[2]), g)
        assert not regularized
        assert float(g @ d) < 0.0


def test_barrier_value_infinite_outside_the_domain():
    p = toy_program()
    x = initial_point(p)
    assert math.isfinite(barrier_value(p, 1.0, x))
    bad = x.copy()
    bad[0] = 0.6  # violates t <= 0.5
    assert barrier_value(p, 1.0, bad) == math.inf


def test_barrier_value_infinite_at_a_nan_point():
    # every slack is NaN there, which Python's min never reads as <= 0
    p = relay_program()
    x = initial_point(p)
    partly = x.copy()
    partly[p.y_indices[0]] = math.nan
    for bad in (np.full_like(x, math.nan), partly):
        assert barrier_value(p, 1.0, bad) == math.inf


# -- full solves ------------------------------------------------------------


def test_toy_program_reaches_the_closed_form_optimum():
    # both caps bind, so B* = 0.5 * log2(1 + 100 * 0.1 / 0.5)
    res = solve_nb(toy_program())
    assert res.converged
    assert res.objective_bits == pytest.approx(0.5 * math.log2(21.0), rel=1e-6)
    assert res.x_star[0] == pytest.approx(0.5, abs=1e-4)
    assert res.x_star[1] == pytest.approx(0.1, abs=1e-4)
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
    assert presolve_program(p).pinned == (2,)
    assert res.x_star[2] == 0.0
    assert res.objective_bits > 0.0  # the far user still transmits


def test_infeasible_program_is_reported_not_raised():
    p = one_var_program([(1.0, 0.5), (-1.0, -0.9)])  # t <= 0.5 and t >= 0.9
    res = solve_nb(p)
    assert res.status is SolveStatus.INFEASIBLE
    assert res.x_star is None
    assert math.isnan(res.objective_bits)


def test_overflowing_budget_ends_uncertified_not_raised():
    # at X2 = 1e300 the Newton steps overflow into a NaN point, which the
    # scalar barrier read as inside the domain; its row values then raised
    p = build_problem(ScenarioSpec(Scenario.S1, Case.A, Objective.WEIGHTED_SUM, 0.3), NetworkConfig(X2=1e300))
    with np.errstate(all="ignore"):
        res = solve_nb(p)
    assert res.status is SolveStatus.MAX_ITERATIONS
    assert res.kkt_residual > 1e-6


def test_lone_overflowing_solve_raises_no_runtime_warning():
    # the solve shell runs start, every kernel and finish under one errstate,
    # so a lone solve (a `_One`, outside any stack) reads its overflows as a
    # stacked one does, and so do its start and final points: at X1 = 1e308
    # and at lam = 1e300 the sum's start has a rate of 0.9 * inf, whose NaN
    # margin fails the start test
    for cfg, objective, status in (
            (NetworkConfig(X2=1e300), Objective.WEIGHTED_SUM, SolveStatus.MAX_ITERATIONS),
            (NetworkConfig(X1=1e308), Objective.WEIGHTED_SUM, SolveStatus.INFEASIBLE),
            (NetworkConfig(lam=1e300), Objective.WEIGHTED_SUM, SolveStatus.INFEASIBLE),
            (NetworkConfig(lam=1e300), Objective.COMMON, SolveStatus.MAX_ITERATIONS)):
        p = build_problem(ScenarioSpec(Scenario.S1, Case.A, objective, 0.3), cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_nb(p)
        assert res.status is status


def test_stages_rise_from_tau0_without_regularized_hessians(monkeypatch):
    searches = spy_line_searches(monkeypatch)
    regularized = []
    real = barrier.regularized_solve

    def solve(H, rhs, bump):
        out = real(H, rhs, bump)
        regularized.append(out[1])
        return out

    monkeypatch.setattr(barrier, "regularized_solve", solve)
    assert solve_nb(relay_program()).converged
    taus = [tau for c in searches for tau in c["tau"]]
    assert taus and taus == sorted(taus)
    assert taus[0] == pytest.approx(TAU0)
    # the relay Hessians are well conditioned: no step needed regularizing
    assert regularized and not any(regularized)


# -- the backtracking line search on a relay program --------------------------


def test_accepted_steps_pass_armijo(monkeypatch):
    # at rho = 0.34 and 0.38 the last search finds no Armijo step at the
    # noise floor and stalls; no other step is taken in its place
    searches = spy_line_searches(monkeypatch)
    for p in [relay_program()] + stalling_programs():
        solve_nb(p)
    accepted = 0
    for c in searches:
        for i, (alpha, f_new) in c["steps"].items():
            accepted += 1
            f_x, slope = c["f_x"][i], c["slope"][i]
            assert slope < 0.0
            assert f_new <= f_x + ARMIJO * alpha * slope
    assert accepted > 0


def count_barrier_values(monkeypatch):
    """A list that grows by one per `barrier_value` call."""
    evals = []
    real = barrier.barrier_value

    def counted(program, tau, x):
        evals.append(tau)
        return real(program, tau, x)

    monkeypatch.setattr(barrier, "barrier_value", counted)
    return evals


def test_line_search_needs_few_barrier_evaluations_per_step(monkeypatch):
    evals, per_search = count_barrier_values(monkeypatch), []
    real = barrier._line_search

    def search(*args):
        before = len(evals)
        out = real(*args)
        per_search.append(len(evals) - before)
        return out

    monkeypatch.setattr(barrier, "_line_search", search)
    solve_nb(relay_program())
    assert per_search and sum(per_search) / len(per_search) <= 3.0


def test_step_across_a_perspective_row_is_cut_back_inside(monkeypatch):
    p = relay_program()
    x = initial_point(p)
    tau = 10.0
    aux = p.aux_index[0]
    x[aux] = 0.2  # far below both rate rows, so raising it lowers the barrier
    d = np.zeros_like(x)
    d[aux] = 3.0
    # the full step crosses a perspective row but no linear row or axis
    assert max(p.nonlinear_value(j, x + d) for j in range(p.n_nonlinear)) > 0.0
    assert alpha_linear(p, point_rows(p, x)[2][p.n_nonlinear:], d) >= 1.0
    f_x = barrier_value(p, tau, x)
    g = barrier_gradient(point_rows(p, x), tau)
    slope = float(g @ d)
    assert slope < 0.0
    A, b = p.affine_rows
    evals = count_barrier_values(monkeypatch)
    steps = _line_search(_One(p), [tau], x[None], d, [f_x], [slope], b - A @ x, [0])
    alpha, f_new = steps[0]
    assert 0.0 < alpha < 1.0
    assert len(evals) >= 2
    new = x + alpha * d
    assert all(p.nonlinear_value(j, new) < 0.0 for j in range(p.n_nonlinear))
    assert (p.lin_b - p.lin_A @ new).min() > 0.0
    assert math.isfinite(f_new)
    assert f_new == barrier_value(p, tau, new)
    assert f_new <= f_x + ARMIJO * alpha * slope


# -- central-path predictor and the gap stop ----------------------------------


def test_relay_solve_needs_few_newton_steps(monkeypatch):
    # late stages start from the predicted point and finish in one step
    searches = spy_line_searches(monkeypatch)
    res = solve_nb(relay_program())
    assert res.converged
    assert res.inner_iters <= 26
    late = [tau for c in searches for tau in c["tau"] if tau >= 1e8]
    assert late and len(late) == len(set(late))


def test_loose_centring_never_ends_the_last_stage(monkeypatch):
    # a stage may end on the Newton decrement only while its gap bound is
    # wide; the others, the last one among them, end on the full stop test
    stages = []
    real = barrier._minimize_stage

    def spy(be, tau, X, f_x):
        out = real(be, tau, X, f_x)
        _, gnorm, slope, *_ = be.newton(out[0], tau)
        stages.extend((be.n_rows / t, f, g, d, fx, -t * d)
                      for t, f, g, d, fx in zip(tau, out[2], gnorm, slope, f_x))
        return out

    monkeypatch.setattr(barrier, "_minimize_stage", spy)
    programs = screen_programs(NetworkConfig(), Case.A, Objective.WEIGHTED_SUM)
    for lock, scalar in zip(solve_nb_many(programs), [solve_nb(p) for p in programs], strict=True):
        assert lock.converged
        assert_same_solve(lock, scalar)
    loose, last = 0, 0
    for gap, f, gnorm, slope, f_x, decrement in stages:
        centred = gnorm <= GRAD_TOL or _at_noise(slope, f_x)
        if gap <= GAP_TOL * (1.0 + abs(f)):
            last += 1
        if gap <= barrier.LOOSE_GAP * (1.0 + abs(f)):
            assert centred
        elif not centred:
            loose += 1
            assert decrement <= barrier.LOOSE_DECREMENT
    # each program's last stage, stacked and alone; and some early stage ended loosely
    assert last == 2 * len(programs)
    assert loose > 0


def test_solve_stops_on_the_duality_gap():
    # a relay program, then the 16 configurations on the default network and
    # where U1 harvests nothing or 1 uW (presolve pins energies, and so rows);
    # at 1 uW, S1-B and S2-B sum end uncertified, but on the gap stop too
    programs = [relay_program()] + [
        build_problem(ScenarioSpec(scenario, case, objective), cfg)
        for cfg in (NetworkConfig(), NetworkConfig(X1=0.0), NetworkConfig(X1=1e-3))
        for scenario in Scenario for case in Case for objective in Objective]
    for p in programs:
        res = solve_nb(p)
        reduced = presolve_program(p).program
        rows = reduced.n_rows
        f = p.objective_value(res.x_star)
        assert rows / res.tau_final <= GAP_TOL * (1.0 + abs(f))
        # tau_final / MU had not closed the gap yet: a stage that skips one
        # (tau x MU**2) never overshoots the gap stop
        assert rows * MU / res.tau_final > GAP_TOL * (1.0 + abs(f))


def test_prediction_that_raises_the_barrier_is_rejected(monkeypatch):
    p = relay_program()
    x = initial_point(p)
    tau = TAU0 * MU          # the weight of the second stage
    g = barrier_gradient(point_rows(p, x), tau)
    f_x = barrier_value(p, tau, x)
    scale = 1e-3 / (1.0 - 1.0 / MU)
    out = np.zeros_like(x)
    out[p.t_indices[0]] = -2.0 * x[p.t_indices[0]] / (1.0 - 1.0 / MU)

    def second_stage_start(backend, z):
        """Where `_path` starts the second stage after a first one ending at x with tangent z."""
        starts = []

        def stage(be, tau, X, f_x):
            starts.append((X[0].copy(), f_x[0]))
            be.newton(X, tau)       # as a stage's first iteration, which sets the multipliers
            # the first stage leaves the gap open, the second closes it
            return X, [1], [1e30 if len(starts) > 1 else 0.0], z[None]

        monkeypatch.setattr(barrier, "_minimize_stage", stage)
        with np.errstate(invalid="ignore"):     # as in `solve_nb_many`
            barrier._path(backend(p), x[None], TAU0)
        return starts[1]

    # `_One` and a stack both give the bits of `barrier_value`
    for backend in (_One, lambda p: _Stack([p])):
        # uphill: the barrier rises along +g
        start, f_start = second_stage_start(backend, scale * g)
        assert barrier_value(p, tau, x + 1e-3 * g) > f_x
        assert np.array_equal(start, x) and f_start == f_x
        # out of the domain: the barrier is +inf there (a stack's logs of
        # arguments below -1 take `scalar_log1p`'s NaN)
        start, f_start = second_stage_start(backend, out)
        assert np.array_equal(start, x) and f_start == f_x
        # downhill: the prediction is kept with its barrier value
        start, f_start = second_stage_start(backend, -scale * g)
        assert np.allclose(start, x - 1e-3 * g)
        assert f_start < f_x and f_start == barrier_value(p, tau, start)


def test_rejected_predictions_leave_the_solve_on_its_stage_path(monkeypatch):
    # the same optimum with every prediction turned uphill, only slower
    base = solve_nb(relay_program())
    real = barrier._minimize_stage

    def uphill(be, tau, X, f_x):
        X, k, f, Z = real(be, tau, X, f_x)
        return X, k, f, -Z

    monkeypatch.setattr(barrier, "_minimize_stage", uphill)
    res = solve_nb(relay_program())
    assert res.converged
    assert res.inner_iters > base.inner_iters
    assert res.objective_bits == pytest.approx(base.objective_bits, rel=1e-9)


# -- the multipliers each barrier row carries ------------------------------------


def test_first_centred_stage_takes_few_newton_steps(monkeypatch):
    # the multipliers carried from the stage before weight the Newton matrix,
    # so the stage at tau = 1e6 no longer doubles small slacks step by step
    # (10 steps there, 18 in all, with the primal weights 1/(tau s^2))
    stages = []
    real = barrier._minimize_stage

    def spy(be, tau, X, f_x):
        out = real(be, tau, X, f_x)
        stages.append((tau[0], out[1][0]))
        return out

    monkeypatch.setattr(barrier, "_minimize_stage", spy)
    res = solve_nb(build_problem(ScenarioSpec(Scenario.S3, Case.A), NetworkConfig()))
    assert res.converged
    assert dict(stages)[1e6] <= 3


def test_program_that_takes_no_step_keeps_its_multipliers():
    programs = [relay_program(0.1), relay_program(0.3)]
    X = np.array([initial_point(p) for p in programs])
    stack = _Stack(programs)
    D = stack.newton(X, [TAU0] * 2)[3]
    before = stack.lam.copy()
    moved = stack.advance(X, D, [0.5, 0.0], [0])
    assert moved[1].tobytes() == X[1].tobytes()
    assert stack.lam[1].tobytes() == before[1].tobytes()
    assert not np.array_equal(stack.lam[0], before[0])
    one = _One(programs[1])
    d = one.newton(X[1:], [TAU0])[3]
    lone = one.lam.copy()
    one.advance(X[1:], d, [0.0], [])
    assert one.lam.tobytes() == lone.tobytes() == before[1:].tobytes()


def test_stalled_stage_end_still_moves_the_multipliers():
    # the last stage of each of these solves finds no step at the noise
    # floor; its point stays, but its multipliers take their full step, so
    # the rows far from active leave with about 1/(tau s), not the 100/(tau s)
    # of the stage before, which left KKT at 1.4e-6 to 2.0e-6
    cfg = NetworkConfig(X1=0.125, X2=0.0, d1=0.5, du=0.5, eta=1.0, w1=0.0)
    programs = [build_problem(ScenarioSpec(Scenario.S1, Case.A, Objective.COMMON, rho), cfg)
                for rho in (0.1, 0.4, 0.5)]
    for lock, p in zip(solve_nb_many(programs), programs, strict=True):
        assert lock.converged
        assert_same_solve(lock, solve_nb(p))


def test_stacked_screen_seeds_finish_with_the_lone_multipliers(monkeypatch):
    carried, seeds = [], []
    real_path, real_finish = barrier._path, program.finish

    def path(be, X, tau):
        out = real_path(be, X, tau)
        carried.extend(lam for _, lam, *_ in out)
        return out

    def finish(prog, pre, solver, x, lam, *rest):
        seeds.append(lam)
        return real_finish(prog, pre, solver, x, lam, *rest)

    monkeypatch.setattr(barrier, "_path", path)
    monkeypatch.setattr(program, "finish", finish)
    programs = screen_programs(NetworkConfig(), Case.A, Objective.WEIGHTED_SUM)
    solve_nb_many(programs)
    stacked = list(seeds)
    assert len(stacked) == len(programs) and all(a is b for a, b in zip(stacked, carried))
    seeds.clear()
    for p in programs:
        solve_nb(p)
    assert [lam.tobytes() for lam in stacked] == [lam.tobytes() for lam in seeds]


# -- the certificate rule -------------------------------------------------------


def test_tiny_energy_cell_without_a_certificate_is_not_converged():
    # the stage path settles, but the point is not stationary to 1e-6
    cfg = NetworkConfig(X1=0.001, d1=1.4, du=0.6)
    p = build_problem(ScenarioSpec(Scenario.S1, Case.B, Objective.WEIGHTED_SUM, 0.0), cfg)
    for res in [solve_nb(p)] + solve_nb_many([p] * 2):
        assert res.status is SolveStatus.MAX_ITERATIONS
        assert res.max_constraint_violation <= 0.0
        assert res.kkt_residual > 1e-6


def test_tiny_energy_common_screen_certifies_every_candidate():
    # with the primal weights 1/(tau s^2), rho = 0.1, 0.2, 0.6 and 0.7 ended
    # uncertified here, at KKT 2.3e-4, 7.8e-5, 1.8e-4 and 4.0
    _, table = screen_rho(NetworkConfig(X1=1e-3), Case.A, Objective.COMMON)
    assert len(table) == 8
    for o in table:
        assert o.result.converged
        assert o.result.kkt_residual <= 1e-6


def test_stage_at_the_noise_floor_ends_before_the_step_cap():
    # rho one ulp below rho_max = 0.99: at tau = 1e12 full steps of about
    # 4.5e-6, above STEP_TOL, alternated with the barrier Hessian as the
    # Newton matrix while the Newton decrement stayed at the noise floor,
    # and the stage ran into MAX_INNER uncertified; with the multipliers
    # each barrier row carries, its line search stalls there and the solve
    # certifies in 25 Newton steps
    cfg = NetworkConfig(d1=1.5, du=0.2, eta=0.817268679745837, X1=261.31136883309927,
                        X2=237.44524898342374, w1=0.11947312444562955)
    p = build_problem(ScenarioSpec(Scenario.S1, Case.A, Objective.WEIGHTED_SUM, 0.9899999999999999), cfg)
    for res in [solve_nb(p)] + solve_nb_many([p] * 2):
        assert res.converged
        assert res.kkt_residual <= 1e-6
        assert res.inner_iters < 100


def test_stage_at_the_step_cap_ends_the_path(monkeypatch):
    # at X2 = 1e300 the first stage of S4-A sum runs into MAX_INNER; the solve
    # ends there, uncertified, instead of running the later stages into the
    # cap as well (608 Newton steps over three capped stages).  S4-B sum's
    # second stage stalls on every search, 199 of its 200 along a NaN slope,
    # and runs into the cap too; a NaN-slope search makes no trial (11,835
    # barrier evaluations when each halved its step until it underflowed)
    def solve_capped(case):
        p = build_problem(ScenarioSpec(Scenario.S4, case, Objective.WEIGHTED_SUM), NetworkConfig(X2=1e300))
        res = solve_nb(p)
        assert res.status is SolveStatus.MAX_ITERATIONS
        assert res.inner_iters <= barrier.MAX_INNER + 10

    solve_capped(Case.A)
    evals = count_barrier_values(monkeypatch)
    solve_capped(Case.B)
    assert len(evals) <= 10


# -- lockstep solves ------------------------------------------------------------


def test_stacked_copies_certify_as_the_lone_solve():
    # y1 and y3 end below the active-row slack of `refine_multipliers`, so
    # the certificate follows the point's last bits: stacked copies whose
    # logs were numpy's ended max_iterations with KKT 1.7e-2
    cfg = NetworkConfig(X1=0.125, X2=0.0, d1=0.5, du=0.5, eta=1.0, w1=0.0)
    p = build_problem(ScenarioSpec(Scenario.S1, Case.A, Objective.COMMON, 0.0), cfg)
    lone = solve_nb(p)
    assert lone.converged
    for copies in (2, 3):
        for lock in solve_nb_many([p] * copies):
            assert lock.converged
            assert_same_solve(lock, lone)


# at d1 = 1.8 and on the third network some late line searches find no
# step (a stall); at X1 = 0 presolve leaves case A common without terms, a
# pure centring whose steps turn on the last bits of the barrier value
@pytest.mark.parametrize("cfg", [
    NetworkConfig(), NetworkConfig(d1=1.8, du=0.2),
    NetworkConfig(d1=1.2, du=0.27, eta=0.0, X1=180.0, X2=285.0, w1=0.5),
    NetworkConfig(d1=0.2, du=1.8), NetworkConfig(X1=0.0),
])
@pytest.mark.parametrize("case", list(Case))
@pytest.mark.parametrize("objective", list(Objective))
def test_lockstep_screen_matches_solve_nb(cfg, case, objective):
    programs = screen_programs(cfg, case, objective)
    assert len(programs) >= 2
    for lock, scalar in zip(solve_nb_many(programs), [solve_nb(p) for p in programs], strict=True):
        assert lock.converged
        assert_same_solve(lock, scalar)


def test_overflowing_screen_stacked_gives_the_lone_results():
    # at du = 1e-150 the stacked placement products read 0 x inf as NaN; a
    # stage that ended after three stalls then read its objective as NaN on
    # the stack, and the stacked solves walked on to tau = 1e16 where the lone
    # ones stopped after five stages
    programs = screen_programs(NetworkConfig(eta=1.0, du=1e-150), Case.A, Objective.WEIGHTED_SUM)
    assert len(programs) == 10
    for lock, scalar in zip(solve_nb_many(programs), [solve_nb(p) for p in programs], strict=True):
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
    assert presolve_program(programs[1]).pinned != presolve_program(programs[2]).pinned
    for lock, p in zip(results, programs, strict=True):
        assert_same_solve(lock, solve_nb(p))


def test_small_groups_run_on_one(monkeypatch):
    paths = []
    real = barrier._path

    def spy(be, X, tau):
        paths.append((type(be), len(X)))
        return real(be, X, tau)

    monkeypatch.setattr(barrier, "_path", spy)
    programs = screen_programs(NetworkConfig(), Case.A, Objective.WEIGHTED_SUM)
    solve_nb(programs[0])
    assert paths == [(_One, 1)]
    paths.clear()
    solve_nb_many(programs[:1])
    assert paths == [(_One, 1)]
    paths.clear()
    solve_nb_many(programs[:2])
    assert paths == [(_Stack, 2)]
    # at X1 = 0, case B, rho = 0 pins U1's relay energy: a layout group of one
    paths.clear()
    solve_nb_many(screen_programs(NetworkConfig(X1=0.0), Case.B, Objective.WEIGHTED_SUM))
    assert sorted(paths, key=lambda p: p[1]) == [(_One, 1), (_Stack, 7)]


def record_barrier_values(be):
    """A list that gets each `barrier` answer of the backend be."""
    answers = []
    real = be.barrier

    def recorded(X, tau):
        answers.append(real(X, tau))
        return answers[-1]

    be.barrier = recorded
    return answers


def test_lockstep_line_search_stalls_as_the_lone_one(monkeypatch):
    # capture a search on `_One` that finds no step, then search it again on
    # a stack of copies: the same trials, and no step either
    searches = spy_line_searches(monkeypatch)
    for p in stalling_programs():
        solve_nb(p)
    seen = [c for c in searches if c["search"] == [0] and not c["steps"]]
    assert len(seen) == 2
    for c in seen:
        assert isinstance(c["be"], _One)
        one = _One(c["be"].program)
        lone = record_barrier_values(one)
        assert _line_search(one, c["tau"], c["X"], c["D"], c["f_x"], c["slope"], c["slack"], [0]) == {}
        stack = _Stack([c["be"].program] * 3)
        stacked = record_barrier_values(stack)
        X, D, slack = (np.array([v] * 3) for v in (c["X"][0], c["D"], c["slack"]))
        # the second program is not searching
        steps = _line_search(stack, c["tau"] * 3, X, D, c["f_x"] * 3, c["slope"] * 3, slack, [0, 2])
        assert steps == {}
        assert lone and [f[0] for f in lone] == [f[0] for f in stacked] == [f[2] for f in stacked]

