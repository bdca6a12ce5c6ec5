"""Program builders for the eight configurations and throughput recovery."""

import math
from typing import NamedTuple

import numpy as np
import pytest

from ehcoop import Case, NetworkConfig, Objective, Scenario, ScenarioSpec, Throughputs
from ehcoop.network import RelayNotBeneficialError, derive_channels
from ehcoop.scenarios import (
    build_problem,
    objective_bits,
    throughputs_from_allocation,
)


SUM = Objective.WEIGHTED_SUM
COMMON = Objective.COMMON


def build(scenario, case, objective=SUM, rho=0.0, cfg=None):
    cfg = cfg or NetworkConfig()
    return build_problem(ScenarioSpec(scenario, case, objective, rho), cfg)


def programs_equal(p, q):
    return (
        p.n_vars == q.n_vars
        and np.array_equal(p.objective_linear, q.objective_linear)
        and p.term_table == q.term_table
        and p.aux_index == q.aux_index
        and np.array_equal(p.lin_A, q.lin_A)
        and np.array_equal(p.lin_b, q.lin_b)
        and p.labels == q.labels
        and p.t_indices == q.t_indices
        and p.y_indices == q.y_indices
    )


def terms(p, row):
    """The (row, gamma, coeff, t_index, y_index) entries of one row, -1 the objective."""
    return [tm for tm in p.term_table if tm[0] == row]


def epigraph_labels(p):
    return list(p.labels[:p.n_nonlinear])


class Row(NamedTuple):
    a: tuple
    b: float


def linear_rows(p):
    """Every linear row a . x <= b by its label."""
    return {label: Row(tuple(a), b) for label, a, b in
            zip(p.labels[p.n_nonlinear:], p.lin_A.tolist(), p.lin_b.tolist())}


# -- spec validation --------------------------------------------------------


def test_spec_rejects_rho_outside_unit_interval():
    with pytest.raises(ValueError):
        ScenarioSpec(Scenario.S1, Case.A, SUM, rho=1.0)
    with pytest.raises(ValueError):
        ScenarioSpec(Scenario.S1, Case.A, SUM, rho=-0.1)


def test_spec_rejects_rho_outside_full_cooperation():
    with pytest.raises(ValueError):
        ScenarioSpec(Scenario.S2, Case.A, SUM, rho=0.2)
    with pytest.raises(ValueError):
        ScenarioSpec(Scenario.S3, Case.B, COMMON, rho=0.1)


def test_build_rejects_rho_at_or_above_limit():
    # default geometry allows rho < 0.75
    with pytest.raises(ValueError):
        build(Scenario.S1, Case.A, rho=0.75)
    with pytest.raises(ValueError):
        build(Scenario.S1, Case.B, rho=0.9)


def test_build_rejects_relay_over_weak_interuser_link():
    cfg = NetworkConfig(du=3.0)
    with pytest.raises(RelayNotBeneficialError):
        build(Scenario.S1, Case.A, cfg=cfg)
    with pytest.raises(RelayNotBeneficialError):
        build(Scenario.S2, Case.B, cfg=cfg)
    # direct scenarios do not care about the inter-user link
    build(Scenario.S3, Case.A, cfg=cfg)
    build(Scenario.S4, Case.B, cfg=cfg)


# -- program shapes ---------------------------------------------------------


def test_relay_sum_shape():
    p = build(Scenario.S1, Case.A, rho=0.3)
    assert p.n_vars == 7
    assert p.var_names == ("t1", "t2", "t3", "y1", "y2", "y3", "B")
    assert epigraph_labels(p) == ["route_throughput", "interuser_link"]
    assert list(linear_rows(p)) == [
        "energy_u1_slot1", "energy_u2_slot2", "energy_u1_slot3", "total_time"]
    assert p.t_indices == (0, 1, 2)
    assert p.y_indices == (3, 4, 5)


def test_relay_common_adds_near_user_rate_cap():
    p = build(Scenario.S1, Case.A, COMMON, rho=0.3)
    assert p.var_names[-1] == "Bbar"
    assert epigraph_labels(p) == [
        "near_user_rate", "route_throughput", "interuser_link"]
    assert terms(p, -1) == []


def test_direct_shapes():
    p = build(Scenario.S3, Case.A)
    assert p.n_vars == 4
    assert p.aux_index == ()
    assert len(terms(p, -1)) == 2
    q = build(Scenario.S3, Case.A, COMMON)
    assert q.n_vars == 5
    assert epigraph_labels(q) == ["near_user_rate", "far_user_rate"]


def test_relay_rows_case_a():
    cfg = NetworkConfig()
    p = build(Scenario.S1, Case.A, rho=0.3, cfg=cfg)
    X = 0.1  # both arrival rates in W
    rows = linear_rows(p)
    assert rows["energy_u1_slot1"].a == pytest.approx((X, X, X, 1.0, 0, 0, 0))
    assert rows["energy_u1_slot1"].b == pytest.approx(X)
    # U2 harvests the full eta share of U1's opening transmission
    assert rows["energy_u2_slot2"].a == pytest.approx((0, X, X, -0.75, 1.0, 0, 0))
    # U1 recovers only the rho split of U2's relay transmission
    assert rows["energy_u1_slot3"].a == pytest.approx((0, 0, X, 1.0, -0.225, 1.0, 0))
    assert rows["total_time"].a == pytest.approx((1, 1, 1, 0, 0, 0, 0))
    assert rows["total_time"].b == 1.0


def test_relay_rows_case_b():
    p = build(Scenario.S1, Case.B, rho=0.3)
    X = 0.1
    rows = linear_rows(p)
    # U2 opens the block, so its budget covers all three slots
    assert rows["energy_u2_slot1"].a == pytest.approx((X, X, X, 1.0, 0, 0, 0))
    assert rows["energy_u1_slot2"].a == pytest.approx((0, X, X, -0.225, 1.0, 0, 0))
    assert rows["energy_u1_slot3"].a == pytest.approx((0, 0, X, -0.225, 1.0, 1.0, 0))


def test_relay_snr_coefficients():
    ch = derive_channels(NetworkConfig())
    p = build(Scenario.S1, Case.A, rho=0.2)
    route, link = terms(p, 0), terms(p, 1)
    assert [tm[1] for tm in route] == pytest.approx([ch.gamma2, ch.gamma1])
    # the decode constraint sees the (1 - rho) share of the received power
    assert link[0][1] == pytest.approx(0.8 * ch.gamma_u)


def test_s2_is_s1_without_harvesting():
    cfg = NetworkConfig(eta=0.0)
    for case in Case:
        s2 = build(Scenario.S2, case, cfg=cfg)
        s1 = build(Scenario.S1, case, rho=0.0, cfg=cfg)
        assert programs_equal(s2, s1)


def test_s2_ignores_the_harvesting_efficiency():
    assert programs_equal(
        build(Scenario.S2, Case.A, cfg=NetworkConfig(eta=0.75)),
        build(Scenario.S2, Case.A, cfg=NetworkConfig(eta=0.0)),
    )


def test_s1_case_b_at_zero_rho_equals_s2():
    # case B harvesting enters only through rho, so rho = 0 removes it even
    # with eta > 0; case A keeps the slot-1 harvest and stays a superset
    cfg = NetworkConfig()
    assert programs_equal(
        build(Scenario.S1, Case.B, rho=0.0, cfg=cfg),
        build(Scenario.S2, Case.B, cfg=cfg),
    )
    assert not programs_equal(
        build(Scenario.S1, Case.A, rho=0.0, cfg=cfg),
        build(Scenario.S2, Case.A, cfg=cfg),
    )


def test_s4_is_s3_without_harvesting():
    cfg = NetworkConfig(eta=0.0)
    for case in Case:
        for objective in (SUM, COMMON):
            assert programs_equal(
                build(Scenario.S4, case, objective),
                build(Scenario.S3, case, objective, cfg=cfg),
            )


def test_s3_harvest_term_full_efficiency():
    p = build(Scenario.S3, Case.A)
    rows = linear_rows(p)
    # U2's budget credits eta * hu per joule U1 spends, no power splitting
    assert rows["energy_u2"].a == pytest.approx((0.0, 0.1, -0.75, 1.0))
    q = build(Scenario.S3, Case.B)
    rows = linear_rows(q)
    assert rows["energy_u1"].a == pytest.approx((0.0, 0.1, -0.75, 1.0))
    assert rows["energy_u2"].a == pytest.approx((0.1, 0.1, 1.0, 0.0))


def test_sum_weight_zero_drops_far_user_rate():
    p = build(Scenario.S1, Case.B, cfg=NetworkConfig(w2=0.0))
    assert p.n_vars == 6
    assert p.aux_index == ()
    assert len(terms(p, -1)) == 1


def test_sum_weight_zero_drops_near_user_term():
    p = build(Scenario.S1, Case.A, cfg=NetworkConfig(w1=0.0, w2=2.0))
    assert terms(p, -1) == []
    assert p.objective_linear[6] == pytest.approx(-2.0)


# -- throughput recovery ----------------------------------------------------


def test_throughputs_direct_example():
    cfg = NetworkConfig()
    spec = ScenarioSpec(Scenario.S4, Case.A)
    tp = throughputs_from_allocation(spec, cfg, np.array([0.5, 0.4, 0.001, 0.02]))
    assert tp.b1_bits == pytest.approx(0.5 * math.log2(1.0 + 1e4 * 0.001 / 0.5))
    assert tp.b2_bits == pytest.approx(0.4 * math.log2(1.0 + 2500.0 * 0.02 / 0.4))
    assert tp.t0 == pytest.approx(0.1)
    assert tp.slots == pytest.approx((0.5, 0.4))


def test_throughputs_case_b_swaps_user_slots():
    cfg = NetworkConfig()
    spec = ScenarioSpec(Scenario.S4, Case.B)
    tp = throughputs_from_allocation(spec, cfg, np.array([0.4, 0.5, 0.008, 0.001]))
    # U2 transmits first in case B, so slot 1 carries the far user
    assert tp.b1_bits == pytest.approx(0.5 * math.log2(1.0 + 1e4 * 0.001 / 0.5))
    assert tp.b2_bits == pytest.approx(0.4 * math.log2(1.0 + 2500.0 * 0.008 / 0.4))


def test_throughputs_zero_energy_means_zero_rate():
    cfg = NetworkConfig()
    spec = ScenarioSpec(Scenario.S4, Case.A)
    tp = throughputs_from_allocation(spec, cfg, np.array([0.5, 0.4, 0.0, 0.0]))
    assert tp.b1_bits == 0.0
    assert tp.b2_bits == 0.0


def test_relay_rate_takes_the_binding_minimum():
    cfg = NetworkConfig()
    spec = ScenarioSpec(Scenario.S2, Case.A)

    def far_rate(y3):
        x = np.array([0.2, 0.3, 0.2, 0.005, 0.01, y3, 0.0])
        return throughputs_from_allocation(spec, cfg, x).b2_bits

    direct = 0.3 * math.log2(1.0 + 2500.0 * 0.01 / 0.3)
    forwarded = 0.2 * math.log2(1.0 + 1e4 * 0.005 / 0.2)
    decoded = 0.3 * math.log2(1.0 + 1e4 * 0.01 / 0.3)
    # with a forwarding slot the route exceeds what U1 could decode
    assert far_rate(0.005) == pytest.approx(min(direct + forwarded, decoded))
    assert far_rate(0.005) == pytest.approx(decoded)
    # without one the route itself binds
    assert far_rate(0.0) == pytest.approx(direct)


def test_objective_bits_weighted_and_common():
    cfg = NetworkConfig(w1=2.0, w2=0.5)
    tp = Throughputs(b1_bits=3.0, b2_bits=4.0, t0=0.1, slots=(0.4, 0.5))
    assert objective_bits(ScenarioSpec(Scenario.S4, Case.A, SUM), cfg, tp) == pytest.approx(8.0)
    assert objective_bits(ScenarioSpec(Scenario.S4, Case.A, COMMON), cfg, tp) == pytest.approx(3.0)
