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
from ehcoop.network import ChannelState
from ehcoop.strategy import rho_candidates

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


def test_solve_spec_rejects_unknown_solver(default_cfg):
    with pytest.raises(ValueError):
        solve_spec(ScenarioSpec(Scenario.S4, Case.A), default_cfg, solver="simplex")


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
