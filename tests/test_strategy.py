"""Power-splitting screens and strategy selection across configurations."""

import math

import numpy as np
import pytest

from ehcoop import (
    Case,
    NetworkConfig,
    Objective,
    Scenario,
    ScenarioSpec,
    screen_rho,
    select_strategy,
    solve_spec,
)
from ehcoop import barrier, strategy
from ehcoop.network import ChannelState, derive_channels
from ehcoop.strategy import SOLVERS, rho_candidates

SUM = Objective.WEIGHTED_SUM
COMMON = Objective.COMMON


def test_rho_candidates_default_geometry(default_ch):
    assert rho_candidates(default_ch) == pytest.approx(
        tuple(0.1 * k for k in range(8)))


def test_rho_candidates_exclude_the_open_boundary():
    # limit is exactly 0.5, which may not be used itself
    ch = ChannelState(h1=1.0, h2=0.5, hu=1.0,
                      gamma1=1e4, gamma2=5e3, gamma_u=1e4)
    assert rho_candidates(ch) == pytest.approx((0.0, 0.1, 0.2, 0.3, 0.4))


# relaying is feasible here, with rho_max = 1.0e-13: only rho = 0 lies below it
TINY_RHO_MAX = NetworkConfig(du=1.9999999999999)


def test_rho_candidates_keep_zero_below_a_tiny_rho_max():
    assert rho_candidates(derive_channels(TINY_RHO_MAX)) == (0.0,)


@pytest.mark.parametrize("solver", SOLVERS)
def test_screen_rho_solves_zero_below_a_tiny_rho_max(solver):
    rho_star, (only,) = screen_rho(TINY_RHO_MAX, Case.A, SUM, solver)
    assert rho_star == 0.0 and only.result.converged


def test_solve_spec_rejects_unknown_solver(default_cfg):
    with pytest.raises(ValueError):
        solve_spec(ScenarioSpec(Scenario.S4, Case.A), default_cfg, solver="simplex")


def forbid_solves(monkeypatch):
    """Make every solver entry point `strategy` calls fail the test."""
    def solved(*args):
        raise AssertionError("a solve ran")

    for name in ("solve_nb", "solve_nb_many", "solve_iterative", "solve_iterative_many"):
        monkeypatch.setattr(strategy, name, solved)


@pytest.mark.parametrize("solver", ["NB", "bogus"])
def test_screen_rho_rejects_an_unknown_solver_before_any_solve(solver, default_cfg, monkeypatch):
    forbid_solves(monkeypatch)
    with pytest.raises(ValueError, match="unknown solver"):
        screen_rho(default_cfg, Case.A, SUM, solver=solver)


def test_select_strategy_rejects_an_unknown_solver_before_any_solve(default_cfg, monkeypatch):
    forbid_solves(monkeypatch)
    with pytest.raises(ValueError, match="unknown solver"):
        select_strategy(default_cfg, SUM, solver="bogus")


def test_solve_spec_throughputs_match_the_objective(default_cfg):
    for solver in ("nb", "quad"):
        result, tp = solve_spec(ScenarioSpec(Scenario.S4, Case.A), default_cfg, solver)
        assert result.converged
        assert tp.b1_bits + tp.b2_bits == pytest.approx(result.objective_bits, rel=1e-6)
        assert tp.t0 >= -1e-9


def test_screen_rho_covers_the_whole_grid(default_cfg, default_ch):
    rho_star, table = screen_rho(default_cfg, Case.B, SUM)
    assert [o.rho for o in table] == list(rho_candidates(default_ch))
    assert all(o.result.converged for o in table)
    assert rho_star == pytest.approx(0.3)


def test_screen_rho_breaks_ties_toward_small_rho(default_cfg, monkeypatch):
    # with an enormous tolerance every candidate ties, so the first wins
    monkeypatch.setattr("ehcoop.strategy.TIE_TOL", 1.0)
    rho_star, _ = screen_rho(default_cfg, Case.B, SUM)
    assert rho_star == 0.0


def test_failed_candidate_warning_names_the_exception(default_cfg, monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("overflow in the barrier")
    monkeypatch.setattr("ehcoop.strategy.solve_spec", broken)
    with pytest.warns(UserWarning, match=r"S3-A rho=0 failed: FloatingPointError: overflow"):
        outcomes = strategy._solve_candidate(Scenario.S3, Case.A, SUM, (0.0,), default_cfg, "nb")
    assert_failed(outcomes, [0.0], "FloatingPointError: overflow in the barrier")


def assert_failed(outcomes, grid, error):
    """Every outcome is a failed candidate of `grid`, in order, naming `error`."""
    assert [o.rho for o in outcomes] == list(grid)
    for o in outcomes:
        assert o.error == error and o.status == f"error: {error}"
        assert not o.result.converged and o.result.x_star is None
        assert math.isnan(o.objective_bits) and math.isnan(o.throughputs.b1_bits)


def test_single_candidate_is_solved_once(default_cfg, monkeypatch):
    # a raising solve is not repeated by the one-by-one fallback
    calls = []

    def broken(program):
        calls.append(program)
        raise FloatingPointError("overflow in the barrier")

    monkeypatch.setattr(strategy, "solve_nb", broken)
    monkeypatch.setattr(barrier, "solve_nb", broken)
    with pytest.warns(UserWarning, match=r"S3-A rho=0 failed: FloatingPointError"):
        strategy._solve_candidate(Scenario.S3, Case.A, SUM, (0.0,), default_cfg, "nb")
    assert len(calls) == 1


MANY = {"nb": "solve_nb_many", "quad": "solve_iterative_many"}


@pytest.mark.parametrize("solver", SOLVERS)
def test_rho_grid_is_solved_in_lockstep_in_grid_order(solver, default_cfg, default_ch, monkeypatch):
    grid = rho_candidates(default_ch)
    calls = []
    real = getattr(strategy, MANY[solver])

    def counted(programs):
        calls.append(programs)
        return real(programs)

    monkeypatch.setattr(strategy, MANY[solver], counted)
    outcomes = strategy._solve_candidate(Scenario.S1, Case.A, SUM, grid, default_cfg, solver)
    assert len(calls) == 1 and len(calls[0]) == len(grid)
    assert [o.rho for o in outcomes] == list(grid)
    for o in outcomes:
        single, tp = solve_spec(ScenarioSpec(Scenario.S1, Case.A, SUM, o.rho), default_cfg, solver)
        assert o.result.status is single.status
        assert o.objective_bits == pytest.approx(tp.b1_bits + tp.b2_bits, rel=1e-12)
        assert o.result.inner_iters == single.inner_iters


@pytest.mark.parametrize("solver", SOLVERS)
def test_failed_lockstep_solve_falls_back_to_single_solves(solver, default_cfg, default_ch, monkeypatch):
    def broken(programs):
        raise FloatingPointError("overflow in a stacked pass")

    grid = rho_candidates(default_ch)
    monkeypatch.setattr(strategy, MANY[solver], broken)
    outcomes = strategy._solve_candidate(Scenario.S1, Case.B, SUM, grid, default_cfg, solver)
    assert [o.rho for o in outcomes] == list(grid)
    assert all(o.result.converged for o in outcomes)


@pytest.mark.parametrize("solver", SOLVERS)
def test_failed_batched_solve_warns_once_and_keeps_the_table(solver, default_cfg, default_ch, monkeypatch):
    grid = rho_candidates(default_ch)
    expected = strategy._solve_candidate(Scenario.S1, Case.B, SUM, grid, default_cfg, solver)

    def broken(programs):
        raise FloatingPointError("overflow in a stacked pass")

    monkeypatch.setattr(strategy, MANY[solver], broken)
    with pytest.warns(UserWarning) as record:
        outcomes = strategy._solve_candidate(Scenario.S1, Case.B, SUM, grid, default_cfg, solver)
    assert [str(w.message) for w in record] == [
        "S1-B batched solve failed: FloatingPointError: overflow in a stacked pass; solving one by one"]
    assert len(outcomes) == len(expected)
    for single, lock in zip(outcomes, expected):
        assert (single.rho, single.result.status) == (lock.rho, lock.result.status)
        assert (single.result.outer_iters, single.result.inner_iters) == (
            lock.result.outer_iters, lock.result.inner_iters)
        # nb's lone solves differ from its stacked ones in the last bits
        assert single.objective_bits == pytest.approx(lock.objective_bits, rel=1e-12)


@pytest.mark.parametrize("solver", SOLVERS)
def test_failed_fallback_solve_names_the_exception(solver, default_cfg, default_ch, monkeypatch):
    # the grid's stacked call and then the candidate's own solve raise
    def broken(*args, **kwargs):
        raise FloatingPointError("overflow in a stacked pass")

    grid = rho_candidates(default_ch)[:2]
    monkeypatch.setattr(strategy, MANY[solver], broken)
    monkeypatch.setattr(strategy, "solve_spec", broken)
    with pytest.warns(UserWarning) as record:
        outcomes = strategy._solve_candidate(Scenario.S1, Case.B, SUM, grid, default_cfg, solver)
    assert_failed(outcomes, grid, "FloatingPointError: overflow in a stacked pass")
    assert [str(w.message) for w in record] == [
        "S1-B batched solve failed: FloatingPointError: overflow in a stacked pass; solving one by one"] + [
        f"S1-B rho={rho:g} failed: FloatingPointError: overflow in a stacked pass" for rho in grid]


def test_unbuildable_rho_is_a_failed_candidate_with_a_warning(default_cfg, default_ch):
    # 0.95 leaves the relay link weaker than the direct one, so it has no program
    grid = rho_candidates(default_ch) + (0.95,)
    with pytest.warns(UserWarning, match=r"S1-A rho=0.95 failed: ValueError"):
        outcomes = strategy._solve_candidate(Scenario.S1, Case.A, SUM, grid, default_cfg, "nb")
    assert [o.rho for o in outcomes] == list(grid)
    assert all(o.result.converged and o.error is None for o in outcomes[:-1])
    failed = outcomes[-1]
    assert_failed([failed], [0.95], failed.error)
    assert failed.error.startswith("ValueError: ")


def test_screen_rho_common_scores_the_minimum_rate(default_cfg):
    _, table = screen_rho(default_cfg, Case.A, COMMON)
    for out in table:
        assert out.objective_bits == pytest.approx(
            min(out.throughputs.b1_bits, out.throughputs.b2_bits), abs=1e-9)


def test_full_cooperation_envelope_contains_data_only(default_cfg):
    # S1 at rho = 0 already relaxes S2, so the screened best must match or beat it
    _, table = screen_rho(default_cfg, Case.A, SUM)
    best = max(o.objective_bits for o in table)
    s2, tp = solve_spec(ScenarioSpec(Scenario.S2, Case.A), default_cfg)
    assert best >= s2.objective_bits - 1e-7 * (1.0 + abs(s2.objective_bits))


def test_s1_at_zero_rho_equals_s2_in_case_b(default_cfg):
    # the mirrored schedule only harvests through the split, so rho = 0
    # reduces the full-cooperation program to data cooperation exactly
    a, _ = solve_spec(ScenarioSpec(Scenario.S1, Case.B, SUM, rho=0.0), default_cfg)
    b, _ = solve_spec(ScenarioSpec(Scenario.S2, Case.B, SUM), default_cfg)
    assert a.objective_bits == pytest.approx(b.objective_bits, abs=1e-9)


def test_select_strategy_common_default_network(default_cfg):
    choice = select_strategy(default_cfg, COMMON)
    assert choice.scenario is Scenario.S1
    assert choice.case is Case.A
    assert choice.rho_star == 0.0
    assert min(choice.b1_bits, choice.b2_bits) == pytest.approx(3.8295, abs=2e-3)
    assert choice.notes == ()
    # the table holds every screened candidate plus the six single solves
    assert len(choice.table) == 2 * 8 + 6


def test_select_strategy_skips_relaying_over_a_weak_link():
    cfg = NetworkConfig(du=3.0)
    choice = select_strategy(cfg, SUM)
    assert choice.scenario is Scenario.S3
    assert len(choice.notes) == 2
    assert all("S1" in n or "S2" in n for n in choice.notes)
    assert all(o.scenario in (Scenario.S3, Scenario.S4) for o in choice.table)


def test_select_strategy_quad_solver_agrees(default_cfg):
    a = select_strategy(default_cfg, COMMON, solver="nb")
    b = select_strategy(default_cfg, COMMON, solver="quad")
    assert (a.scenario, a.case, a.rho_star) == (b.scenario, b.case, b.rho_star)
    rel = abs(a.result.objective_bits - b.result.objective_bits)
    assert rel <= 1e-4 * (1.0 + abs(a.result.objective_bits))


# -- independent solve of the knife-edge screen cell -------------------------
#
# S1-B under the weighted sum at X1 = 125 mW is the one energy-grid cell the
# screen decides by about 1e-5 bits.  The program below is written out from
# the model description with README's default network and nothing from
# ehcoop: U2 opens with t1, heard by D and by U1, which splits off a share
# rho of the received power for harvesting and decodes on the rest; U1
# forwards U2's data in t2 and sends its own in t3.  Ambient energy arrives
# at rates X1, X2 over the whole frame, and a slot spends only what arrived
# (or was scavenged) before it starts.


def _s1b_sum_by_slsqp(rho, minimize, starts=6):
    """Best w1*B1 + w2*B2 of S1-B found by multistart SLSQP, in bits."""
    eta, noise = 0.75, 1e-4
    h1, h2, hu = (1.0 * d ** -2.0 for d in (1.0, 2.0, 1.0))  # lam * d^-alpha
    g1, g2, gu = h1 / noise, h2 / noise, hu / noise  # SNR per W
    x1, x2 = 125.0, 100.0  # mW, i.e. mJ per unit frame
    mj = 1e-3  # energies are in mJ, the gammas are per W

    def rate(gamma, t, energy):
        return t * math.log2(1.0 + gamma * mj * energy / t) if t > 0 and energy > 0 else 0.0

    def parts(v):
        t1, t2, t3, e1, e2, e3 = v[:6]
        scavenged = eta * rho * hu * e1
        causality = [
            1.0 - t1 - t2 - t3,                      # t0 >= 0
            x2 * (1.0 - t1 - t2 - t3) - e1,          # U2 spends its t0 arrivals
            x1 * (1.0 - t2 - t3) + scavenged - e2,   # U1 before forwarding
            x1 * (1.0 - t3) + scavenged - e2 - e3,   # U1 before its own slot
        ]
        decoded = rate((1.0 - rho) * gu, t1, e1)     # U1 decodes U2
        delivered = rate(g2, t1, e1) + rate(g1, t2, e2)  # D combines both hops
        return rate(g1, t3, e3), decoded, delivered, causality

    # v = (t1, t2, t3, e1, e2, e3, B2), with B2 capped by both hops
    constraints = (
        {"type": "ineq", "fun": lambda v: parts(v)[3]},
        {"type": "ineq", "fun": lambda v: parts(v)[1] - v[6]},
        {"type": "ineq", "fun": lambda v: parts(v)[2] - v[6]},
    )
    bounds = [(1e-9, 1.0)] * 3 + [(0.0, None)] * 4
    rng = np.random.default_rng(125)
    best = -math.inf
    for _ in range(starts):
        v0 = np.concatenate([rng.dirichlet(np.ones(4))[:3], rng.uniform(1.0, 50.0, 3), [0.0]])
        # SLSQP ends with success=False at these optima ("positive directional
        # derivative"), so an endpoint is judged by its own constraints instead
        v = minimize(lambda v: -(rate(g1, v[2], v[5]) + v[6]), v0, method="SLSQP",
                     bounds=bounds, constraints=constraints,
                     options={"ftol": 1e-14, "maxiter": 1000}).x
        own, decoded, delivered, causality = parts(v)
        if min(causality) >= -1e-10 and v[:6].min() >= 0.0:
            best = max(best, own + min(decoded, delivered))
    assert best > -math.inf, f"no feasible SLSQP endpoint at rho={rho:g}"
    return best


@pytest.mark.parametrize("case", list(Case))
@pytest.mark.parametrize("objective", list(Objective))
def test_nb_screen_candidates_have_the_lone_solves_bits(case, objective):
    # U1 almost without ambient energy: which candidates certify rides on the
    # last bits of the point, so a stacked screen and a lone solve must share them
    cfg = NetworkConfig(X1=1e-3)
    _, table = screen_rho(cfg, case, objective)
    for outcome in table:
        lone, _ = solve_spec(ScenarioSpec(Scenario.S1, case, objective, outcome.rho), cfg)
        assert outcome.result.status is lone.status, outcome.rho
        assert outcome.result.objective_bits.hex() == lone.objective_bits.hex(), outcome.rho


def test_knife_edge_screen_cell_matches_an_independent_solve():
    pytest.importorskip("scipy")
    from scipy.optimize import minimize

    cfg = NetworkConfig(X1=125.0)
    reference = {rho: _s1b_sum_by_slsqp(rho, minimize) for rho in (0.0, 0.05, 0.1)}
    for rho, want in reference.items():
        for solver in ("nb", "quad"):
            result, tp = solve_spec(ScenarioSpec(Scenario.S1, Case.B, SUM, rho), cfg, solver)
            assert result.converged
            # the sum of the recovered rates is the score the screen ranks
            assert tp.b1_bits + tp.b2_bits == pytest.approx(want, rel=1e-7), (rho, solver)
    # the curve peaks between the grid points 0 and 0.1, and 0 is the higher
    assert reference[0.05] > reference[0.0] > reference[0.1]


def test_nb_closes_the_duality_gap_on_the_knife_edge_cell():
    # nb stops on the gap of the central path, so at the same cell it lands
    # on the optimum itself instead of m/tau short of it
    pytest.importorskip("scipy")
    from scipy.optimize import minimize

    cfg = NetworkConfig(X1=125.0)
    for rho in (0.0, 0.05, 0.1):
        want = _s1b_sum_by_slsqp(rho, minimize)
        spec = ScenarioSpec(Scenario.S1, Case.B, SUM, rho)
        nb, tp = solve_spec(spec, cfg, "nb")
        quad, _ = solve_spec(spec, cfg, "quad")
        assert nb.converged and quad.converged
        got = tp.b1_bits + tp.b2_bits
        assert got == pytest.approx(want, rel=1e-9), rho
        # the epigraph variable sits on the rates it bounds
        assert nb.objective_bits == pytest.approx(got, rel=1e-10), rho
        assert nb.objective_bits == pytest.approx(quad.objective_bits, rel=1e-8), rho
