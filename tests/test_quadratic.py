"""Quadratic models, the QCQP subproblem solver and the iterative loop."""

import math
import warnings
from itertools import product

import numpy as np
import pytest

from ehcoop import Case, NetworkConfig, Objective, Scenario, ScenarioSpec, SolveStatus, quadratic
from ehcoop.barrier import solve_nb
from ehcoop.network import derive_channels, rho_max
from ehcoop.program import (
    Certificate,
    ConvexProgram,
    ProgramStack,
    all_positive,
    initial_point,
    presolve_program,
    perspective_value,
    slot_root,
    start,
)
from ehcoop.quadratic import (
    _FRAC,
    _float_step_limit,
    _ipm,
    _ipm_many,
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


def model_value(model, j, x):
    """Row j's model (the objective at j = -1) of `quadratize`'s (const, g, H) at x."""
    const, g, H = model
    return const[j] + g[j] @ x + 0.5 * x @ H[j] @ x


def lone_model(p, x0):
    """`quadratize`'s (const, g, H) of p alone around x0: a stack of one, then [0]."""
    return tuple(a[0] for a in quadratize(ProgramStack([p]), np.asarray(x0)[None])[:3])


def test_model_is_exact_at_the_expansion_point():
    p = relay_program()
    x0 = initial_point(p)
    model = lone_model(p, x0)
    const, g, H = model
    assert model_value(model, -1, x0) == pytest.approx(p.objective_value(x0), rel=1e-12)
    assert g[-1] + H[-1] @ x0 == pytest.approx(p.objective_gradient(x0), rel=1e-12)
    for j in range(p.n_nonlinear):
        assert model_value(model, j, x0) == pytest.approx(p.nonlinear_value(j, x0), abs=1e-12)
        assert g[j] + H[j] @ x0 == pytest.approx(p.nonlinear_gradient(j, x0), rel=1e-10, abs=1e-12)


def one_term_model(gamma, x0):
    """Model around x0 of the program whose objective is the one term l(gamma; t, y)."""
    p = ConvexProgram(
        n_vars=2, objective_linear=np.zeros(2), term_table=((-1, gamma, 1.0, 0, 1),),
        aux_index=(), lin_A=np.zeros((0, 2)), lin_b=np.zeros(0), t_indices=(0,), y_indices=(1,),
        var_names=("t", "y"), labels=(),
    )
    model = lone_model(p, x0)
    return lambda x: model_value(model, -1, x)


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
        quadratize(ProgramStack([p]), x0[None])


def first_ask(p):
    """The reduced program of p and the first ask of its lone solve."""
    pre, x0 = start(p)
    return pre.program, next(quadratic._rounds(pre.program, x0))


def lone_subproblem(p, x=None, delta=None):
    """The one-program `_Stack` and interior-point start `_answer` builds for
    the first ask of a lone solve of p, or for the model around x boxed by
    delta (None: boxless), solved to `_IPM_TOL`."""
    red, ask = first_ask(p)
    if x is not None:
        ask = quadratic._Ask(np.array(x), delta, quadratic._IPM_TOL)
    _, st, x0 = answer_alone(quadratic._Layout([red]), 0, ask)
    return st, x0


def answer_alone(lay, row, ask):
    """`_answer` on one ask of a layout, with the `_Stack` and start it sends to `_ipm`."""
    seen = []
    real = quadratic._ipm

    def spy(st, x0):
        seen.append((st, x0))
        return real(st, x0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadratic, "_ipm", spy)
        reply, = quadratic._answer(lay, np.array([row]), [ask])
    (st, x0), = seen
    return reply, st, x0


def test_quadratize_orders_model_rows_first():
    p = relay_program()
    red, ask = first_ask(p)
    st, _ = lone_subproblem(p)
    # the program's n_rows rows in `point_rows`' order (the curved model
    # rows, the linear rows, the bounds -x_i <= 0), then the box (x_i <= hi,
    # then -x_i <= -lo, per positive coordinate)
    m, n, npos, J = 2, 7, len(red.positive_indices), red.n_rows
    assert st.nl_H.shape == (1, m, n, n) and all(st.nl_H[0, j].any() for j in range(m))
    assert J == m + 4 + npos and st.A.shape == (1, J + 2 * npos, n)
    rows = st.A[0, m:]
    assert np.array_equal(rows[:4], red.lin_A) and np.array_equal(st.b0[0, m:m + 4], -red.lin_b)
    eye = np.eye(n)[list(red.positive_indices)]
    assert np.array_equal(rows[4:4 + npos], -eye) and not st.b0[0, m + 4:J].any()
    assert np.array_equal(st.A[0, J::2], eye) and np.array_equal(st.A[0, J + 1::2], -eye)
    # the box edges sit around the ask's point
    box = st.b0[0, J:]
    assert (-box[0::2] > ask.x[list(red.positive_indices)]).all()
    assert (box[1::2] < ask.x[list(red.positive_indices)]).all()


def test_direct_scenario_quadratizes_to_a_qp():
    p = build_problem(ScenarioSpec(Scenario.S3, Case.A), NetworkConfig())
    const, g, H = lone_model(p, initial_point(p))
    assert H[-1].any()
    assert len(const) == len(g) == len(H) == 1  # only linear budget rows remain


@pytest.mark.parametrize("cfg, objective", [
    (NetworkConfig(), Objective.WEIGHTED_SUM),
    # at X1 = 0 the S1-A common programs keep no terms after presolve
    (NetworkConfig(X1=0.0), Objective.COMMON),
])
def test_a_model_does_not_depend_on_its_stack_company(cfg, objective):
    # two S1-A candidates of one layout at their start points: each one's
    # rows and term sums have the same bits stacked as a pair and alone
    starts = [start(build_problem(ScenarioSpec(Scenario.S1, Case.A, objective, rho), cfg))
              for rho in (0.1, 0.5)]
    programs = [pre.program for pre, _ in starts]
    assert bool(programs[0].term_table) == (objective is Objective.WEIGHTED_SUM)
    E = np.array([x for _, x in starts])
    pair = quadratize(ProgramStack(programs), E)
    for k, p in enumerate(programs):
        alone = quadratize(ProgramStack([p]), E[k:k + 1])
        for both, one in zip(pair, alone, strict=True):
            assert both[k].tobytes() == one[0].tobytes()


# -- subproblem solver ------------------------------------------------------


def test_lp_subproblem_recovers_primal_and_dual():
    # max t s.t. t <= 1, then the bound -t <= 0
    st = quadratic._Stack(
        c0=np.zeros(1), g=np.array([[-1.0]]), H=np.zeros((1, 1, 1)),
        A=np.array([[[1.0], [-1.0]]]), b0=np.array([[-1.0, 0.0]]), nl_H=np.zeros((1, 0, 1, 1)),
    )
    sol = _ipm(st, np.array([0.4]))
    assert sol.converged
    assert sol.x[0] == pytest.approx(1.0, abs=1e-7)
    assert sol.lam[0] == pytest.approx(1.0, abs=1e-6)
    assert sol.lam[1] == pytest.approx(0.0, abs=1e-6)


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
    # the float limit of one program's rows has the same bits
    assert float_limit(lam, dlam, s, p, q, m).hex() == float(_step_limit(*rows)).hex()


def float_limit(lam, dlam, s, p, q, m):
    """`_float_step_limit` on (J,) rows whose first m are curved, as `_ipm` calls it."""
    return _float_step_limit(lam.tolist(), dlam.tolist(), s.tolist(), p.tolist(), q[:m].tolist())


# rows of two curved and three straight constraints, every candidate finite,
# and the value that replaces the (row, field) entry: rows without a
# candidate, curvature on either side of the 1e-14 max(1, |p|) cut, NaN in
# a curved or a straight row, first or later in the candidate order
@pytest.mark.parametrize("row, field, value", [
    (1, "p", 0.0), (3, "p", 0.0), (2, "dlam", 0.0), (0, "dlam", 0.0),
    (0, "q", 1e-15), (0, "q", 2e-14), (1, "q", 1e-300), (0, "p", -1e20),
    (0, "p", math.nan), (1, "p", math.nan), (4, "p", math.nan),
    (0, "q", math.nan), (1, "q", math.nan),
    (0, "dlam", math.nan), (3, "dlam", math.nan), (4, "dlam", math.nan),
    (2, "s", math.nan), (4, "lam", math.nan), (0, "q", 1.0), (0, "s", -1e3),
])
def test_float_step_limit_keeps_numpys_bits_on_edge_rows(row, field, value):
    rows = {"lam": np.array([1.0, 2.0, 0.5, 3.0, 1e-8]),
            "dlam": np.array([-0.5, 1.0, -4.0, -1e-3, -1e-9]),
            "s": np.array([0.3, 1e-6, 2.0, 5.0, 0.7]),
            "p": np.array([0.2, -0.1, 3.0, 1e-12, 0.35]),
            "q": np.array([0.8, 3e-3, 0.0, 0.0, 0.0])}
    rows[field][row] = value
    with np.errstate(invalid="ignore"):     # sqrt of the negative slack's discriminant
        want = float(_step_limit(*rows.values()))
    assert float_limit(*rows.values(), 2).hex() == want.hex()


@pytest.mark.parametrize("values, want", [
    ([1.0, 2.0], True), ([1.0, 0.0], False), ([-1.0, 2.0], False),
    ([1.0, math.nan], False), ([math.nan, 1.0], False), ([1.0, math.inf], True),
])
def test_all_positive_fails_on_any_nan(values, want):
    assert bool(np.min(values) > 0.0) is want
    assert all_positive(values) is want


def test_trial_with_a_nan_slack_after_a_positive_one_is_rejected(monkeypatch):
    # max x0 + x1 under x <= 1, x >= 0, every Newton direction NaN in x1: a
    # trial's slack is positive in row 0 and NaN in row 1, so no step is
    # taken and the solve stops where it started
    st = quadratic._Stack(
        c0=np.zeros(1), g=np.array([[-1.0, -1.0]]), H=np.zeros((1, 2, 2)),
        A=np.array([[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]]),
        b0=np.array([[-1.0, -1.0, 0.0, 0.0]]), nl_H=np.zeros((1, 0, 2, 2)),
    )
    monkeypatch.setattr(quadratic, "regularized_solve", lambda M, rhs, bump: (np.array([0.1, math.nan]), False))
    x0 = np.array([0.4, 0.4])
    sol = _ipm(st, x0)
    assert (sol.iters, sol.converged) == (1, False)
    assert np.array_equal(sol.x, x0)


def test_subproblem_agrees_with_slsqp():
    # an independent solve of the same QCQP, read off the subproblem's arrays
    pytest.importorskip("scipy")
    from scipy.optimize import minimize

    p = relay_program()
    st, x0 = lone_subproblem(p, first_ask(p)[1].x, None)    # the boxless model at the start
    ipm = _ipm(st, x0)
    assert ipm.converged
    c0, g, H, A, b0, nl_H = (v[0] for v in (st.c0, st.g, st.H, st.A, st.b0, st.nl_H))
    m = len(nl_H)

    def objective(x):
        return c0 + g @ x + 0.5 * x @ H @ x

    def slack(x):
        """-(every row of the subproblem: model rows, box and bounds)."""
        rows = b0 + A @ x
        rows[:m] += 0.5 * (nl_H @ x) @ x
        return -rows

    def slack_jac(x):
        G = A.copy()
        G[:m] += nl_H @ x
        return -G

    ref = minimize(objective, x0, jac=lambda x: g + H @ x,
                   method="SLSQP", constraints={"type": "ineq", "fun": slack, "jac": slack_jac},
                   options={"ftol": 1e-14, "maxiter": 1000}).x
    # SLSQP ends with success=False here, so its endpoint is judged by its own constraints
    assert slack(ref).min() >= -1e-10
    a = objective(ipm.x)
    b = objective(ref)
    assert abs(a - b) <= 1e-6 * (1.0 + abs(a))


# -- iterative loop ---------------------------------------------------------


def test_toy_program_reaches_the_closed_form_optimum():
    res = solve_iterative(toy_program())
    assert res.converged
    assert res.objective_bits == pytest.approx(0.5 * math.log2(21.0), rel=1e-6)
    assert res.x_star[0] == pytest.approx(0.5, abs=1e-4)
    assert res.x_star[1] == pytest.approx(0.1, abs=1e-4)


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
    # the counts of the scalar per-term models: the array form only reorders
    # sums (cold loose asks took (7, 53) and (5, 35); before the proof stop
    # (6, 38) and (5, 29))
    relay = solve_iterative(relay_program())
    direct = solve_iterative(build_problem(ScenarioSpec(Scenario.S3, Case.A), NetworkConfig()))
    # the relay program's interior-point steps take the second-order
    # correction; the S3 program has no curved row, so it never does
    assert (relay.outer_iters, relay.inner_iters) == (7, 32)
    assert (direct.outer_iters, direct.inner_iters) == (6, 23)


def test_unused_slot_at_zero_ambient_energy_is_certified():
    # U1 has no ambient energy, so the relay slot ends unused at t ~ 1e-12,
    # where the perspective's gradient depends on y/t alone
    p = build_problem(ScenarioSpec(Scenario.S1, Case.B, Objective.COMMON, 0.3), NetworkConfig(X1=0.0))
    a = solve_iterative(p)
    b = solve_nb(p)
    assert a.converged and b.converged
    assert a.x_star[1] < 1e-9
    assert a.max_constraint_violation <= 0.0
    assert a.kkt_residual <= 1e-6
    assert abs(a.objective_bits - b.objective_bits) <= 1e-7 * (1.0 + abs(b.objective_bits))


def test_unused_slot_ends_on_its_slot_root_ray(monkeypatch):
    # X1 = 0, d1 = 0.6: the relay slot of this S1-B sum solve ends unused at
    # t ~ 1.5e-11, and `_settle_unused_slots` puts it on the ray y =
    # `slot_root` * t that the rounds' last seeds ask for
    p = build_problem(ScenarioSpec(Scenario.S1, Case.B, Objective.WEIGHTED_SUM, 0.3),
                      NetworkConfig(X1=0.0, d1=0.6, du=1.4))
    red, _, (x, seeds, *_) = lone_rounds(p)
    m = red.n_nonlinear
    pull = red.objective_linear + red.lin_A.T @ seeds[m:m + len(red.lin_b)]
    w = list(seeds[:m]) + [1.0]
    (ti, ((yi, terms),)), = [slot for slot in red.gap_structure.slots if x[slot[0]] < quadratic._T_FLOOR]
    ray = slot_root([(w[row] * coeff, gamma) for row, gamma, coeff in terms], pull[yi])
    assert 0.0 < x[ti] and math.isclose(x[yi], ray * x[ti], rel_tol=1e-12)
    assert solve_iterative(p).status is SolveStatus.CONVERGED
    # a stub that leaves the slot where the rounds left it injects the fault
    # the rule mends; no counter can show that the rule is what certifies
    monkeypatch.setattr(quadratic, "_settle_unused_slots", lambda red, x, lam: x)
    stuck = solve_iterative(p)
    assert stuck.status is SolveStatus.MAX_ITERATIONS and stuck.kkt_residual > 1.0


def test_settled_point_without_a_certificate_is_not_converged():
    # X1 = 0, case B, sum: the rounds settle while the relay slot still
    # shrinks towards t = 0 with a y/t that certifies nothing
    p = build_problem(ScenarioSpec(Scenario.S1, Case.B, Objective.WEIGHTED_SUM, 0.7),
                      NetworkConfig(X1=0.0))
    res = solve_iterative(p)
    assert res.kkt_residual > 1e-6
    assert res.status is SolveStatus.MAX_ITERATIONS


def test_unconverged_last_subproblem_leaves_the_certificate_to_the_one_before(monkeypatch):
    # rho one ulp below rho_max = 0.99: the rounds end on a subproblem whose
    # interior point stops unconverged, and the last converged one seeds the
    # certificate (without it the solve ended max_iterations, KKT inf)
    replies = []
    real = quadratic._answer

    def spy(lay, rows, group):
        replies.extend(real(lay, rows, group))
        return replies[-len(group):]

    monkeypatch.setattr(quadratic, "_answer", spy)
    cfg = NetworkConfig(d1=1.5, du=0.2, eta=0.817268679745837, X1=261.31136883309927,
                        X2=237.44524898342374, w1=0.11947312444562955)
    p = build_problem(ScenarioSpec(Scenario.S1, Case.A, Objective.WEIGHTED_SUM, 0.9899999999999999), cfg)
    res = solve_iterative(p)
    assert not replies[-1].sol.converged
    assert res.converged
    assert res.kkt_residual <= 1e-6 and res.max_constraint_violation <= 0.0
    ref = solve_nb(p)
    assert abs(res.objective_bits - ref.objective_bits) <= 1e-9 * (1.0 + abs(ref.objective_bits))


def test_settle_keeps_a_slot_that_still_holds_energy():
    # rho = 0.99999 rho_max: the rounds end on unconverged subproblems with a
    # relay slot of t = 5e-13 that still holds y = 0.022; putting it on its
    # ray would discard that energy and pass the certificate 5.9e-6 bits
    # below nb's optimum, so the slot stays and the point is uncertified
    cfg = NetworkConfig(X1=1.0, d1=1.0)
    rho = 0.99999 * rho_max(derive_channels(cfg))
    p = build_problem(ScenarioSpec(Scenario.S1, Case.A, Objective.COMMON, rho), cfg)
    res = solve_iterative(p)
    assert res.status is SolveStatus.MAX_ITERATIONS
    assert 1e-6 < res.kkt_residual < math.inf
    assert res.x_star[5] > 0.02
    assert solve_nb(p).objective_bits - res.objective_bits > 1e-6


def test_finish_gets_no_multiplier_of_a_box_row():
    # a boxed reply whose model sees no descent settles the rounds once it
    # is asked again at _IPM_TOL (the first ask is loose), and an
    # unconverged polish leaves the certificate to that tight reply: its
    # first n_rows multipliers (the program's rows) seed `finish`, none of
    # its last 2 n_pos (the box rows) and nothing of the loose reply
    pre, x0 = start(relay_program())
    red = pre.program
    lam = np.arange(1.0, red.n_rows + 2 * len(red.positive_indices) + 1.0)
    f_x = red.objective_value(x0)
    rounds = quadratic._rounds(red, x0)
    first = next(rounds)
    assert first.delta is not None and first.tol > quadratic._IPM_TOL
    loose = quadratic.SubproblemSolution(x=x0, lam=lam + 50.0, iters=2, kkt_residual=0.0, gap=0.0,
                                         converged=True)
    again = rounds.send(quadratic._Reply(loose, x0, f_x, f_x))
    assert again.delta is not None and again.tol == quadratic._IPM_TOL
    assert np.array_equal(again.x, x0)
    boxed = quadratic.SubproblemSolution(x=x0, lam=lam, iters=3, kkt_residual=0.0, gap=0.0, converged=True)
    assert rounds.send(quadratic._Reply(boxed, x0, f_x, f_x)).delta is None
    polish = quadratic.SubproblemSolution(x=x0, lam=lam + 100.0, iters=5, kkt_residual=1.0, gap=1.0,
                                          converged=False)
    with pytest.raises(StopIteration) as done:
        rounds.send(quadratic._Reply(polish, None, math.nan, math.nan))
    x, seeds, settled, *_ = done.value.value
    assert settled and np.array_equal(x, x0)
    assert np.array_equal(seeds, lam[:red.n_rows]) and not np.isin(lam[red.n_rows:], seeds).any()


def spy_asks(monkeypatch):
    """Record every ask `_answer` gets, in order."""
    asks = []
    real = quadratic._answer

    def spy(lay, rows, group):
        asks.extend(group)
        return real(lay, rows, group)

    monkeypatch.setattr(quadratic, "_answer", spy)
    return asks


@pytest.mark.parametrize("X1", [0.0, 1e-3])
def test_round_without_an_acceptable_step_settles(X1, monkeypatch):
    # S1-B common at rho = 0.1, d1 = 1.4: a late round, solved to _IPM_TOL,
    # finds no acceptable step within _TR_RETRIES, which leaves x stationary
    # for its model; the rounds settle there, and the polished point carries
    # the certificate
    asks = spy_asks(monkeypatch)
    p = build_problem(ScenarioSpec(Scenario.S1, Case.B, Objective.COMMON, 0.1),
                      NetworkConfig(X1=X1, d1=1.4, du=0.6))
    res = solve_iterative(p)
    # the last round's every try shrinks the box around one x, and the
    # polish rebuild starts from that same x
    tries = quadratic._TR_RETRIES + 1
    *before, polish = asks
    assert polish.delta is None
    assert not np.array_equal(before[-tries - 1].x, polish.x)
    assert all(np.array_equal(ask.x, polish.x) for ask in before[-tries:])
    radii = [quadratic._TR_FREE if ask.delta is None else ask.delta for ask in before[-tries:]]
    assert all(a > b for a, b in zip(radii, radii[1:]))
    assert all(ask.tol == quadratic._IPM_TOL for ask in before[-tries:])
    assert res.status is SolveStatus.CONVERGED
    b = solve_nb(p)
    assert b.converged
    assert abs(res.objective_bits - b.objective_bits) <= 1e-6 * abs(b.objective_bits)


def test_already_quadratic_program_converges_in_one_round():
    p = ConvexProgram(
        n_vars=2, objective_linear=np.array([-1.0, -0.5]), term_table=(), aux_index=(),
        lin_A=np.array([[1.0, 1.0]]), lin_b=np.array([1.0]),
        t_indices=(0, 1), y_indices=(), var_names=("t1", "t2"), labels=("time",),
    )
    res = solve_iterative(p)
    assert res.converged
    assert res.outer_iters == 1
    assert res.x_star[0] == pytest.approx(1.0, abs=1e-6)
    assert res.x_star[1] == pytest.approx(0.0, abs=1e-6)


def test_round_limit_is_reported(monkeypatch):
    monkeypatch.setattr(quadratic, "MAX_ROUNDS", 1)
    res = solve_iterative(relay_program())
    assert not res.converged
    assert res.status is SolveStatus.MAX_ITERATIONS
    assert res.outer_iters == 1


def test_round_objective_never_increases(monkeypatch):
    # every round and every polishing rebuild expands the model around the
    # iterate it asks from, and the rounds only accept descent
    asks = spy_asks(monkeypatch)
    res = solve_iterative(relay_program())
    assert res.converged
    red = presolve_program(relay_program()).program
    starts = [red.objective_value(ask.x) for ask in asks]
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
    return [build_problem(ScenarioSpec(Scenario.S1, case, objective, rho), cfg)
            for rho in rho_candidates(derive_channels(cfg))]


def assert_same_solve(lock, scalar):
    assert lock.status is scalar.status
    assert lock.solver == "quad"
    if scalar.x_star is None:
        assert lock.x_star is None
        return
    rel = abs(lock.objective_bits - scalar.objective_bits) / max(1.0, abs(scalar.objective_bits))
    assert rel <= 1e-12
    assert (lock.outer_iters, lock.inner_iters) == (scalar.outer_iters, scalar.inner_iters)
    # the same coordinates pinned at zero
    assert np.array_equal(lock.x_star == 0.0, scalar.x_star == 0.0)


def spy_stacks(monkeypatch):
    """Record every (`_Stack`, starts) group `solve_iterative_many` stacks."""
    groups = []
    real = quadratic._ipm_many

    def spy(st, X):
        groups.append((st, X.copy()))
        return real(st, X)

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
    assert max(len(X) for _, X in stacks) == len(programs)
    for lock, scalar in zip(results, [solve_iterative(p) for p in programs], strict=True):
        assert_same_solve(lock, scalar)


@pytest.mark.parametrize("cfg", [
    NetworkConfig(), NetworkConfig(X1=25.0), NetworkConfig(X1=0.0), NetworkConfig(d1=0.4, du=1.6),
])
def test_stacked_copies_equal_the_lone_solve(cfg):
    # the S2-S4 programs, solved alone (K = 1: `_ipm`) and as two copies in
    # one lockstep solve (K = 2: `_ipm_many`), end bit for bit alike
    for scenario, case, objective in product((Scenario.S2, Scenario.S3, Scenario.S4), Case, Objective):
        p = build_problem(ScenarioSpec(scenario, case, objective), cfg)
        lone = solve_iterative(p)
        for lock in solve_iterative_many([p, p]):
            assert (lock.status, lock.outer_iters, lock.inner_iters) == (
                lone.status, lone.outer_iters, lone.inner_iters)
            assert lock.objective_bits.hex() == lone.objective_bits.hex()
            assert lock.kkt_residual == lone.kkt_residual
            assert lock.x_star.tobytes() == lone.x_star.tobytes()


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
    assert presolve_program(programs[1]).pinned != presolve_program(programs[2]).pinned
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
    solve_iterative_many(programs[:1])
    assert alone and not stacks
    alone.clear()
    solve_iterative_many(programs[:2])
    assert stacks and len(stacks[0][1]) == 2
    assert all(len(X) >= 2 for _, X in stacks)


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
            alone = _ipm(st.take([k]), X[k])
            assert (lock.iters, lock.converged) == (alone.iters, alone.converged)
            assert np.array_equal(lock.x, alone.x)
            assert np.array_equal(lock.lam, alone.lam)
            assert (lock.kkt_residual, lock.gap) == (alone.kkt_residual, alone.gap)
            stuck += not alone.converged and alone.iters < quadratic._IPM_MAX_ITERS
    assert (stuck > 0) == (backtracks < 40)


def spy_stacked_rounds(monkeypatch):
    """Record every stacked round: (layout, rows, asks, the `_Stack` and
    starts sent to `_ipm_many`, replies)."""
    rounds = []
    stacks = spy_stacks(monkeypatch)
    real = quadratic._answer

    def answer(lay, rows, asks):
        replies = real(lay, rows, asks)
        if len(asks) > 1:
            rounds.append((lay, rows, asks, *stacks[-1], replies))
        return replies

    monkeypatch.setattr(quadratic, "_answer", answer)
    return rounds


@pytest.mark.parametrize("cfg", [
    NetworkConfig(), NetworkConfig(d1=1.8, du=0.2), NetworkConfig(X1=0.0),
    NetworkConfig(d1=1.2, du=0.27, eta=0.0, X1=180.0, X2=285.0, w1=0.5),
])
@pytest.mark.parametrize("case", list(Case))
@pytest.mark.parametrize("objective", list(Objective))
def test_stacked_rounds_equal_the_scalar_ones(cfg, case, objective, monkeypatch):
    # every stacked model (`quadratize` on the stack), IPM start and reply
    # (`_ipm_many`) has the bits of the same ask answered alone (`quadratize`
    # on a stack of one and `_ipm`)
    rounds = spy_stacked_rounds(monkeypatch)
    solve_iterative_many(screen_programs(cfg, case, objective))
    assert rounds
    lifted = False
    for lay, rows, asks, st, X0, replies in rounds:
        for k, (row, ask, reply) in enumerate(zip(rows, asks, replies, strict=True)):
            lifted |= bool((ask.x[list(lay.programs[row].t_indices)] < quadratic._T_FLOOR).any())
            alone, one, x0 = answer_alone(lay, row, ask)
            model = st.take([k])
            for name in ("c0", "g", "H", "A", "b0", "nl_H"):
                assert np.array_equal(getattr(model, name), getattr(one, name)), name
            assert np.array_equal(X0[k], x0)
            assert np.array_equal(reply.sol.x, alone.sol.x)
            assert reply.sol.iters == alone.sol.iters
            assert np.array_equal(reply.sol.lam, alone.sol.lam)
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


# -- second-order correction of the interior-point step --------------------------


def stack_of(subs):
    """One-program `_Stack`s of one shape as the one `_Stack` `_ipm_many` steps."""
    names = ("c0", "g", "H", "A", "b0", "nl_H", "tol", "warm")
    return quadratic._Stack(*(np.concatenate([getattr(st, name) for st in subs]) for name in names))


def s2_model(x=None, delta=None):
    """The boxed model of the energy grid's S2-A sum program at X1 = 25 mW
    around x by delta (None: its first ask), with its interior-point start."""
    p = build_problem(ScenarioSpec(Scenario.S2, Case.A, Objective.WEIGHTED_SUM), NetworkConfig(X1=25.0))
    return lone_subproblem(p, x, delta)


# the second round's point of that solve, where the uncorrected step stalled
# against curved row 0 and took 40 iterations at a centring of 0.1
STALLED = [float.fromhex(h) for h in (
    "0x1.70a3d6debed48p-2", "0x1.70a3d6f4b29fep-2", "0x1.132adf3c19bb2p-4", "0x1.5caf5d0edbbb9p-8",
    "0x1.ba5e34d323ef0p-5", "0x1.48f72f7eef1dap-7", "0x1.5018621e7a429p+1")]


def test_corrected_step_ends_the_curved_row_stall(monkeypatch):
    stalled, x0 = s2_model(STALLED, 1.6)
    sol = _ipm(stalled, x0)
    assert sol.converged and sol.iters <= 16
    # a stack of it with a subproblem that needs fewer corrections keeps the bits
    pairs = [(stalled, x0), s2_model()]
    stacked = _ipm_many(stack_of([sub for sub, _ in pairs]), np.array([x for _, x in pairs]))
    for lock, (sub, x) in zip(stacked, pairs, strict=True):
        alone = _ipm(sub, x)
        assert (lock.iters, lock.converged) == (alone.iters, alone.converged)
        for name in ("x", "lam"):
            assert np.array_equal(getattr(lock, name), getattr(alone, name)), name
        assert (lock.kkt_residual, lock.gap) == (alone.kkt_residual, alone.gap)
    # without the correction the stall is back
    monkeypatch.setattr(quadratic, "_SIGMA", 0.1)
    monkeypatch.setattr(quadratic, "_CORRECT_BELOW", 0.0)
    assert _ipm(stalled, x0).iters == 40


def test_no_subproblem_reaches_the_iteration_cap(monkeypatch):
    # without the correction 14 subproblems of these screens and S2 solves
    # (12 stacked, 2 lone) ran to the cap
    iters = []
    real_one, real_many = quadratic._ipm, quadratic._ipm_many

    def one(sub, x):
        sol = real_one(sub, x)
        iters.append(sol.iters)
        return sol

    def many(st, X):
        sols = real_many(st, X)
        iters.extend(sol.iters for sol in sols)
        return sols

    monkeypatch.setattr(quadratic, "_ipm", one)
    monkeypatch.setattr(quadratic, "_ipm_many", many)
    for X1, case in product((25.0, 50.0), Case):
        cfg = NetworkConfig(X1=X1)
        screen_rho(cfg, case, Objective.COMMON, solver="quad")
        solve_iterative(build_problem(ScenarioSpec(Scenario.S2, case, Objective.COMMON), cfg))
    assert len(iters) > 100
    assert max(iters) < quadratic._IPM_MAX_ITERS


def test_program_without_curved_rows_keeps_its_bits(monkeypatch):
    # S3 has no curved row, so its interior-point steps are never corrected
    # (before the proof stop: 0x1.d50ba26047fc3p+2 in (5, 29); before the
    # box rows went last: 0x1.d50ba25f822c8p+2, the same counts)
    p = build_problem(ScenarioSpec(Scenario.S3, Case.A), NetworkConfig())
    res = solve_iterative(p)
    assert res.objective_bits.hex() == "0x1.d50ba25f822c7p+2"
    assert (res.outer_iters, res.inner_iters) == (6, 23)
    monkeypatch.setattr(quadratic, "_CORRECT_BELOW", math.inf)
    always = solve_iterative(p)
    assert always.objective_bits.hex() == res.objective_bits.hex()
    assert np.array_equal(always.x_star, res.x_star)


# -- interior-point schedule and polish --------------------------------------


def lone_rounds(p):
    """The rounds of a lone solve of p, each ask answered by `_answer` as
    `_drive` answers it: the reduced program, every (ask, reply) in order
    and the rounds' end."""
    pre, x0 = start(p)
    lay = quadratic._Layout([pre.program])
    rounds = quadratic._rounds(pre.program, x0)
    seen = []
    ask = next(rounds)
    while True:
        reply, = quadratic._answer(lay, np.array([0]), [ask])
        seen.append((ask, reply))
        try:
            ask = rounds.send(reply)
        except StopIteration as done:
            return pre.program, seen, done.value


@pytest.mark.parametrize("sigma, spec, cfg", [
    # at a centring of 0.05 the first polish rebuild reads 4.3e-8 worse than
    # the settled point, inside its own lam . s of 1.2e-7: a fixed 1e-8 (1 +
    # |f|) guard rejected it and left KKT 6.6e-8 (at X1 = 175 mW, where that
    # guard left KKT 2.09e-6, the rounds now end on a proof before the polish)
    pytest.param(0.05, ScenarioSpec(Scenario.S1, Case.B, Objective.COMMON, 0.6), NetworkConfig(X1=25.0),
                 id="S1-B-common-X1-25"),
    # the first rebuild reads 2.1e-5 worse, far above its lam . s of 1.5e-12:
    # the deterioration guard rejected it and the solve ended max_iterations
    # at KKT 0.159; taken, it leads to a proof two rebuilds later
    pytest.param(quadratic._SIGMA, ScenarioSpec(Scenario.S2, Case.A, Objective.COMMON),
                 NetworkConfig(X1=1e-3, d1=1.4, du=0.6), id="S2-A-common-X1-1e-3"),
])
def test_polish_takes_a_rebuild_that_reads_worse(sigma, spec, cfg, monkeypatch):
    # the polish takes every converged boxless rebuild of the settled point,
    # whatever it reads: the rounds go on from it, or end at it
    monkeypatch.setattr(quadratic, "_SIGMA", sigma)
    p = build_problem(spec, cfg)
    red, seen, (x_end, seeds, *_) = lone_rounds(p)
    if isinstance(seeds, Certificate):
        seen = seen[:-1]        # the proof's reply ends the rounds by another rule
    after = [ask.x for ask, _ in seen[1:]] + [x_end]
    assert any(ask.delta is None and reply.cand is not None and np.array_equal(reply.cand, nxt)
               and reply.f_cand > red.objective_value(ask.x)
               for (ask, reply), nxt in zip(seen, after))
    res = solve_iterative(p)
    assert res.status is SolveStatus.CONVERGED
    assert res.kkt_residual <= 1e-9


def test_settled_solve_polishes_once(monkeypatch):
    # the S3-A sum solve at X1 = 1 uW, d1 = 0.6 grows its box from 0.8 to
    # 25.6 in seven rounds that move x, and past _TR_FREE: one boxless
    # round, whose model sees no descent, settles it without a proof, so
    # its only other boxless ask is the one polish rebuild (the default
    # S2-A sum solve, pinned here before, now ends on a proof)
    asks = spy_asks(monkeypatch)
    cfg = NetworkConfig(X1=1e-3, d1=0.6, du=1.4)
    res = solve_iterative(build_problem(ScenarioSpec(Scenario.S3, Case.A), cfg))
    assert res.converged and res.outer_iters == 8
    assert [ask.delta for ask in asks] == [0.8, 1.6, 1.6, 3.2, 6.4, 12.8, 25.6, None, None]
    assert asks[-1].delta is None


def test_lone_subproblems_take_fewer_interior_point_steps(monkeypatch):
    # the S2-S4 solves at X1 = 100 mW; at a centring of 0.1 with two polish
    # rebuilds they took 892 iterations over 102 subproblems (8.75 each),
    # with every subproblem solved to _IPM_TOL 641 over 90, with every
    # loose one started cold 501 over 91, and before the proof stop 423
    # over 92
    iters = []
    real = quadratic._ipm

    def one(sub, x):
        sol = real(sub, x)
        iters.append(sol.iters)
        return sol

    monkeypatch.setattr(quadratic, "_ipm", one)
    cfg = NetworkConfig()
    for scenario, case, objective in product((Scenario.S2, Scenario.S3, Scenario.S4), Case, Objective):
        assert solve_iterative(build_problem(ScenarioSpec(scenario, case, objective), cfg)).converged
    assert (len(iters), sum(iters)) == (75, 321)
    assert sum(iters) / len(iters) < 892 / 102


# -- forcing rule: each subproblem solved only as tightly as its step needs ----


def test_boxed_asks_start_loose_and_boxless_asks_are_tight(monkeypatch):
    # the first boxed ask of a solve carries 1e-2 (no move yet), every later
    # boxed one max(_IPM_TOL, min(1e-2, 1e-2 last^2)), every boxless one
    # _IPM_TOL; the S1-A sum solve at d1 = 1.8 reaches the boxless rounds
    # (the default relay solve, pinned here before, now ends on a proof
    # inside the box)
    asks = spy_asks(monkeypatch)
    spec = ScenarioSpec(Scenario.S1, Case.A, Objective.WEIGHTED_SUM, 0.1)
    assert solve_iterative(build_problem(spec, NetworkConfig(d1=1.8, du=0.2))).converged
    assert asks[0].delta is not None and asks[0].tol == 1e-2
    boxless = [ask for ask in asks if ask.delta is None]
    assert boxless and all(ask.tol == quadratic._IPM_TOL for ask in boxless)
    boxed = [ask.tol for ask in asks if ask.delta is not None]
    assert all(quadratic._IPM_TOL <= tol <= 1e-2 for tol in boxed)
    assert min(boxed) == quadratic._IPM_TOL
    # `_answer` solves each ask, boxed or boxless, to the tolerance it carries
    red, ask = first_ask(relay_program())
    lay = quadratic._Layout([red])
    for delta in (ask.delta, None):
        for tol in (1e-2, quadratic._IPM_TOL):
            _, st, _ = answer_alone(lay, 0, ask._replace(delta=delta, tol=tol))
            assert st.tol.tolist() == [tol]


@pytest.mark.parametrize("spec, cfg", [
    # the model of a loose round sees no descent (the S4-A sum solve at X1 =
    # 50 mW, w1 = 0 and the S1-A sum solve at rho = 0.1, X1 = 0, d1 = 0.6,
    # pinned here before, now end on a proof at the tight re-ask)
    (ScenarioSpec(Scenario.S1, Case.B, Objective.WEIGHTED_SUM, 0.1), NetworkConfig(X1=1e-3)),
    (ScenarioSpec(Scenario.S4, Case.B, Objective.COMMON), NetworkConfig(X1=1e-3, d1=0.2, du=1.8)),
    # a loose round moves x by at most _SETTLE_TOL
    (ScenarioSpec(Scenario.S1, Case.A, Objective.COMMON, 0.1), NetworkConfig(X1=1e-3, d1=0.6, du=1.4)),
])
def test_rounds_settle_only_on_a_tight_subproblem(spec, cfg, monkeypatch):
    # a round that would settle on a loosely solved subproblem asks again
    # at _IPM_TOL, so the last boxed ask before the settle is tight; settling
    # on the loose one leaves the first uncertified (KKT 1.6e-3)
    asks = spy_asks(monkeypatch)
    p = build_problem(spec, cfg)
    res = solve_iterative(p)
    tight, loose = [ask for ask in asks if ask.delta is not None][:-3:-1]
    assert tight.tol == quadratic._IPM_TOL < loose.tol
    assert np.linalg.norm(tight.x - loose.x) <= quadratic._SETTLE_TOL
    assert asks[-1].delta is None
    assert res.status is SolveStatus.CONVERGED
    ref = solve_nb(p)
    assert abs(res.objective_bits - ref.objective_bits) <= 1e-6 * (1.0 + abs(ref.objective_bits))


def test_loose_asks_keep_the_bits_alone_and_stacked():
    # the lone and stacked kernels' bit equality at the ask's own stop
    # test: two first asks (tolerance 1e-2) stacked give `_ipm`'s bits on
    # each, stop loose and report converged against 1e-2
    pairs = [s2_model(), lone_subproblem(relay_program())]
    assert all(sub.tol.tolist() == [1e-2] for sub, _ in pairs)
    stacked = _ipm_many(stack_of([sub for sub, _ in pairs]), np.array([x for _, x in pairs]))
    for lock, (sub, x) in zip(stacked, pairs, strict=True):
        alone = _ipm(sub, x)
        assert alone.converged and max(alone.gap, alone.kkt_residual) > quadratic._IPM_TOL
        assert (lock.iters, lock.converged) == (alone.iters, alone.converged)
        for name in ("x", "lam"):
            assert np.array_equal(getattr(lock, name), getattr(alone, name)), name
        assert (lock.kkt_residual, lock.gap) == (alone.kkt_residual, alone.gap)
        # the same subproblem at _IPM_TOL takes more steps
        sub.tol = np.array([quadratic._IPM_TOL])
        assert _ipm(sub, x).iters > alone.iters


# -- warm starts: a loose boxed ask starts from its rounds' last multipliers ----


def test_only_loose_boxed_asks_start_warm(monkeypatch):
    # each loose boxed ask carries the multipliers of the last converged
    # boxed reply before it (none before the first); the tight boxed asks
    # and the boxless ones carry none
    asks = spy_asks(monkeypatch)
    replies = []
    real = quadratic._answer

    def answer(lay, rows, group):
        replies.extend(real(lay, rows, group))
        return replies[-len(group):]

    monkeypatch.setattr(quadratic, "_answer", answer)
    assert solve_iterative(relay_program()).converged
    last = None
    for ask, reply in zip(asks, replies, strict=True):
        if ask.delta is None or ask.tol == quadratic._IPM_TOL:
            assert ask.warm is None
        else:
            assert ask.warm is last
        if ask.delta is not None and reply.sol.converged:
            last = reply.sol.lam
    assert sum(ask.warm is not None for ask in asks) >= 2


def test_stack_of_a_warm_and_a_cold_ask_keeps_the_bits(monkeypatch):
    # a warm loose ask of the relay solve stacked with a cold first ask: each
    # gives `_ipm`'s bits on its own rows, `take` carrying the warm ones
    asks = spy_asks(monkeypatch)
    solve_iterative(relay_program())
    red, _ = first_ask(relay_program())
    _, warm, x = answer_alone(quadratic._Layout([red]), 0, next(a for a in asks if a.warm is not None))
    assert not np.isnan(warm.warm).any()
    pairs = [(warm, x), s2_model()]
    assert np.isnan(pairs[1][0].warm).all()
    st, X = stack_of([sub for sub, _ in pairs]), np.array([x for _, x in pairs])
    for k, lock in enumerate(_ipm_many(st, X)):
        alone = _ipm(st.take([k]), X[k])
        assert (lock.iters, lock.converged) == (alone.iters, alone.converged)
        for name in ("x", "lam"):
            assert np.array_equal(getattr(lock, name), getattr(alone, name)), name
        assert (lock.kkt_residual, lock.gap) == (alone.kkt_residual, alone.gap)
    # the same subproblem started cold takes more steps
    warm_iters = _ipm(warm, x).iters
    warm.warm = np.full_like(warm.warm, math.nan)
    assert _ipm(warm, x).iters > warm_iters


def test_settle_step_keeps_a_climbing_slot_certified():
    # draw_points(2, 48)[3] of the benchmark, S3-B sum: boxless rounds lift
    # slot t0 from about 1e-7 by 4-8 times a round, while the rounds settle
    # on an absolute step of _SETTLE_TOL; warming those rounds too (floor
    # 3e-4) gave a 6.7e-7 step with t0 still climbing, which left the solve
    # uncertified (KKT 3.1e-6) and sent the pick to S1-B
    cfg = NetworkConfig(d1=0.6989145317497893, du=0.366520951633397, eta=0.7535109856822518,
                        X1=86.62684996812065, X2=115.07440003319184, w1=2.0)
    p = build_problem(ScenarioSpec(Scenario.S3, Case.B, Objective.WEIGHTED_SUM), cfg)
    res = solve_iterative(p)
    assert res.status is SolveStatus.CONVERGED
    ref = solve_nb(p)
    assert abs(res.objective_bits - ref.objective_bits) <= 1e-6 * abs(ref.objective_bits)
