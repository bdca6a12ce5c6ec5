"""Property tests on randomly drawn programs and networks.

Hypothesis draws S1 programs over the ambient arrival rate X1 (zero
included), the near user's distance d1, the power-splitting ratio as a
fraction of its limit, the case and the objective, and whole networks
over both arrival rates, both distances, the harvesting efficiency and
U1's weight (the certificate test draws w1 = 0 on its own as well, and
U2's weight as 0 or 1).
`derandomize=True` makes the draws a fixed function of the test, so CI
runs the same cases every time; the `ci` profile of conftest.py draws
400 of them instead of 100.
"""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ehcoop import Case, NetworkConfig, Objective, Scenario, ScenarioSpec, solve_spec
from ehcoop.barrier import solve_nb, solve_nb_many
from ehcoop.network import derive_channels, relay_feasible, rho_max
from ehcoop.quadratic import solve_iterative, solve_iterative_many
from ehcoop.scenarios import RELAY_SCENARIOS, build_problem, objective_bits, throughputs_from_allocation

AGREE = 1e-7      # relative objective agreement of two converged solves
KKT = 1e-6        # the certificate every converged solve carries
ORDER = 1e-9      # relative slack of an ordering between two optima


def networks(du=st.floats(0.2, 2.4), w1=st.floats(0.0, 2.0)):
    return st.builds(NetworkConfig, X1=st.floats(0.0, 300.0), X2=st.floats(0.0, 300.0),
                     d1=st.floats(0.2, 1.8), du=du, eta=st.floats(0.0, 1.0), w1=w1)


def spec_on(ch, scenario, case, objective, rho_share):
    """The spec of one configuration, S1's rho a share of its limit; None where relaying is impossible."""
    if scenario in RELAY_SCENARIOS and not relay_feasible(ch):
        return None
    rho = rho_share * rho_max(ch) if scenario is Scenario.S1 else 0.0
    return ScenarioSpec(scenario, case, objective, rho)


@settings(derandomize=True, deadline=None)
@given(
    X1=st.floats(0.0, 300.0),
    d1=st.floats(0.2, 1.8),
    rho_share=st.floats(0.0, 1.0, exclude_max=True),
    case=st.sampled_from(Case),
    objective=st.sampled_from(Objective),
)
def test_solvers_agree_and_certify_on_relay_programs(X1, d1, rho_share, case, objective):
    cfg = NetworkConfig(X1=X1, d1=d1)
    ch = derive_channels(cfg)
    spec = ScenarioSpec(Scenario.S1, case, objective, rho_share * rho_max(ch))
    p = build_problem(spec, cfg)
    quad, nb = solve_iterative(p), solve_nb(p)
    for res in (quad, nb):
        if res.converged:
            assert res.max_constraint_violation <= 0.0, res.solver
            assert res.kkt_residual <= KKT, res.solver
    if quad.converged and nb.converged:
        gap = abs(quad.objective_bits - nb.objective_bits)
        assert gap <= AGREE * (1.0 + abs(nb.objective_bits))


@settings(derandomize=True, deadline=None)
@given(cfg=networks(), case=st.sampled_from(Case), objective=st.sampled_from(Objective))
def test_cooperation_never_lowers_the_optimum(cfg, case, objective):
    ch = derive_channels(cfg)

    def optimum(scenario, net=cfg):
        res = solve_nb(build_problem(ScenarioSpec(scenario, case, objective), net))
        return res.objective_bits if res.converged else None

    s3, s4 = optimum(Scenario.S3), optimum(Scenario.S4)
    if s3 is not None and s4 is not None:
        # energy cooperation relaxes the direct program, and without
        # harvesting it is the direct program
        assert s3 >= s4 - ORDER * (1.0 + abs(s4))
        assert optimum(Scenario.S3, replace(cfg, eta=0.0)) == s4
    if relay_feasible(ch):
        # full cooperation at rho = 0 relaxes data-only cooperation
        s1, s2 = optimum(Scenario.S1), optimum(Scenario.S2)
        if s1 is not None and s2 is not None:
            assert s1 >= s2 - ORDER * (1.0 + abs(s2))


@pytest.mark.parametrize("solver", ["nb", "quad"])
@settings(derandomize=True, deadline=None)
@given(
    cfg=networks(du=st.floats(0.2, 1.6)),
    case=st.sampled_from(Case),
    objective=st.sampled_from(Objective),
    shares=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=6),
)
def test_lockstep_screen_agrees_with_lone_solves(solver, cfg, case, objective, shares):
    # a stacked solve gives each program the bits of its lone solve
    ch = derive_channels(cfg)
    assume(relay_feasible(ch))
    programs = [build_problem(ScenarioSpec(Scenario.S1, case, objective, share * rho_max(ch)), cfg)
                for share in shares]
    many, one = {"nb": (solve_nb_many, solve_nb), "quad": (solve_iterative_many, solve_iterative)}[solver]
    for lock, single in zip(many(programs), map(one, programs), strict=True):
        assert_lone_bits(lock, single)


def test_stacked_programs_on_their_own_tau_schedules_keep_the_lone_bits():
    # one stack_key, three schedules: the default network skips tau = 1e10 and
    # ends at 1e12, X1 = 1e-3 takes every stage to 1e12, and ten times the
    # weights skip tau = 1e8 and end at 1e10
    programs = [build_problem(ScenarioSpec(Scenario.S1, Case.A, Objective.WEIGHTED_SUM, rho), cfg)
                for cfg, rho in ((NetworkConfig(), 0.3), (NetworkConfig(X1=1e-3), 0.0),
                                 (NetworkConfig(w1=10.0, w2=10.0), 0.3))]
    results = solve_nb_many(programs)
    for lock, p in zip(results, programs, strict=True):
        assert lock.converged
        assert_lone_bits(lock, solve_nb(p))
    assert len({r.tau_final for r in results}) == 2
    assert len({r.outer_iters for r in results}) == 3


def assert_lone_bits(lock, single):
    """A stacked result has the status, counts and bits of the lone solve."""
    assert (lock.status, lock.outer_iters, lock.inner_iters) == \
        (single.status, single.outer_iters, single.inner_iters)
    for field in ("tau_final", "objective_bits", "kkt_residual"):
        assert getattr(lock, field).hex() == getattr(single, field).hex(), field
    assert (lock.x_star is None) == (single.x_star is None)
    if single.x_star is not None:
        assert lock.x_star.tobytes() == single.x_star.tobytes()
    if lock.converged:
        for res in (lock, single):
            assert res.max_constraint_violation <= 0.0
            assert res.kkt_residual <= KKT


@settings(derandomize=True, deadline=None)
@given(
    cfg=networks(),
    knob=st.sampled_from(("X1", "X2", "eta")),
    share=st.floats(0.0, 1.0),
    scenario=st.sampled_from(Scenario),
    case=st.sampled_from(Case),
    objective=st.sampled_from(Objective),
    rho_share=st.floats(0.0, 1.0, exclude_max=True),
)
def test_more_energy_never_lowers_the_optimum(cfg, knob, share, scenario, case, objective, rho_share):
    # more arriving energy or a better harvester only relaxes the budgets;
    # the channels, and so S1's rho, do not move
    ch = derive_channels(cfg)
    spec = spec_on(ch, scenario, case, objective, rho_share)
    assume(spec is not None)
    top = 1.0 if knob == "eta" else 300.0
    value = getattr(cfg, knob)
    more = replace(cfg, **{knob: value + share * (top - value)})
    low, high = (solve_nb(build_problem(spec, net)) for net in (cfg, more))
    if low.converged and high.converged:
        assert high.objective_bits >= low.objective_bits - ORDER * (1.0 + abs(low.objective_bits))


@settings(derandomize=True, deadline=None)
@given(
    cfg=networks(w1=st.just(0.0) | st.floats(0.0, 2.0)),
    w2=st.sampled_from((1.0, 0.0)),
    scenario=st.sampled_from(Scenario),
    case=st.sampled_from(Case),
    objective=st.sampled_from(Objective),
    rho_share=st.floats(0.0, 1.0, exclude_max=True),
)
def test_every_converged_solve_is_certified(cfg, w2, scenario, case, objective, rho_share):
    assume(cfg.w1 > 0.0 or w2 > 0.0)
    cfg = replace(cfg, w2=w2)
    ch = derive_channels(cfg)
    spec = spec_on(ch, scenario, case, objective, rho_share)
    assume(spec is not None)
    p = build_problem(spec, cfg)
    for res in (solve_nb(p), solve_iterative(p)):
        if res.converged:
            assert res.max_constraint_violation <= 0.0, res.solver
            assert res.kkt_residual <= KKT, res.solver
            # the throughputs read off the point score the program's optimum
            tp = throughputs_from_allocation(spec, cfg, res.x_star)
            gap = abs(objective_bits(spec, cfg, tp) - res.objective_bits)
            assert gap <= AGREE * (1.0 + abs(res.objective_bits)), res.solver


@settings(derandomize=True, deadline=None)
@given(
    d=st.floats(0.2, 2.4),
    du_share=st.floats(0.05, 1.0, exclude_max=True),
    X1=st.floats(0.0, 300.0),
    X2=st.floats(0.0, 300.0),
    w1=st.floats(0.0, 2.0),
    w2=st.floats(0.0, 2.0),
    eta=st.floats(0.0, 1.0),
    scenario=st.sampled_from((Scenario.S3, Scenario.S4)),
    objective=st.sampled_from(Objective),
    solver=st.sampled_from(("nb", "quad")),
)
def test_swapping_the_users_swaps_the_cases(d, du_share, X1, X2, w1, w2, eta, scenario, objective, solver):
    """With both users at one distance from D, swapping their budgets and
    weights turns case A (U1 first) into case B (U2 first).

    The two programs are the same up to the order of their terms, so the
    optimum agrees and U1's throughput in one is U2's in the other.  S1 and
    S2 are left out: U1 is the relay in both orders, so relabelling the
    users does not map one order onto the other there.
    """
    assume(w1 > 0.0 or w2 > 0.0)
    cfg = NetworkConfig(d1=d, d2=d, du=du_share * d, X1=X1, X2=X2, w1=w1, w2=w2, eta=eta)
    mirror = replace(cfg, X1=X2, X2=X1, w1=w2, w2=w1)
    a, tp_a = solve_spec(ScenarioSpec(scenario, Case.A, objective), cfg, solver)
    b, tp_b = solve_spec(ScenarioSpec(scenario, Case.B, objective), mirror, solver)
    assert a.status is b.status
    if a.converged:
        scale = AGREE * (1.0 + abs(a.objective_bits))
        assert abs(a.objective_bits - b.objective_bits) <= scale
        assert abs(tp_a.b1_bits - tp_b.b2_bits) <= scale
        assert abs(tp_a.b2_bits - tp_b.b1_bits) <= scale
