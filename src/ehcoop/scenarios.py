"""Allocation problems for the eight cooperation configurations.

Four scenarios, each in two transmission orders:

  S1  energy + data cooperation: U2 routes data through U1 and both users
      can transfer energy (U1 power-splits U2's relay transmission with
      ratio rho; the other direction uses dedicated transfers).
  S2  data cooperation only (S1 with rho = 0 and no energy transfer).
  S3  energy cooperation only: both users transmit directly, U1 beams
      energy to U2 (case A) or receives it (case B is the mirrored order).
  S4  no cooperation: direct transmissions only.

Case A schedules U1 before U2's traffic, case B the reverse.  The block
has a harvesting slot t0 followed by the transmission slots t1.. with
energies y1..; t0 is eliminated through t0 = 1 - sum(t_i).  Who sends in
which slot, and what each budget row lets the sender spend by the end of
its slot (eta is 0 in S2 and S4, rho is 0 outside S1, hu the inter-user
gain):

  S1/S2 A  t1 U1's own data, t2 U2 to D and U1, t3 U1 forwards U2's data
             energy_u1_slot1  y1 <= X1 t0
             energy_u2_slot2  y2 <= X2 (t0 + t1) + eta hu y1
             energy_u1_slot3  y1 + y3 <= X1 (t0 + t1 + t2) + eta rho hu y2
  S1/S2 B  t1 U2 to D and U1, t2 U1 forwards U2's data, t3 U1's own data
             energy_u2_slot1  y1 <= X2 t0
             energy_u1_slot2  y2 <= X1 (t0 + t1) + eta rho hu y1
             energy_u1_slot3  y2 + y3 <= X1 (t0 + t1 + t2) + eta rho hu y1
  S3/S4 A  t1 U1's own data, t2 U2's data
             energy_u1  y1 <= X1 t0
             energy_u2  y2 <= X2 (t0 + t1) + eta hu y1
  S3/S4 B  t1 U2's data, t2 U1's own data
             energy_u2  y1 <= X2 t0
             energy_u1  y2 <= X1 (t0 + t1) + eta hu y1

In S1/S2 U2's rate is the smaller of what reaches D (direct slot plus
forward) and what U1 decodes on the inter-user link at SNR coefficient
(1 - rho) gamma_u.  `_slot_table` holds this model once; `build_problem`
and `throughputs_from_allocation` both read it.

Two objectives: the weighted sum of the user throughputs, and the common
(max-min) throughput where one shared rate is capped by every route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .network import (
    ChannelState,
    NetworkConfig,
    derive_channels,
    rho_max,
)
from .program import (
    Allocation,
    ConvexProgram,
    EpigraphConstraint,
    LinearConstraint,
    PerspectiveTerm,
)


class Scenario(Enum):
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    S4 = "S4"


class Case(Enum):
    A = "A"  # U1 first
    B = "B"  # U2 first


class Objective(Enum):
    WEIGHTED_SUM = "sum"
    COMMON = "common"


# scenarios where U2's data is relayed through U1
RELAY_SCENARIOS = (Scenario.S1, Scenario.S2)
# scenarios with active RF energy transfer
ENERGY_SCENARIOS = (Scenario.S1, Scenario.S3)


@dataclass(frozen=True)
class ScenarioSpec:
    """One cooperation configuration plus its power-splitting ratio."""

    scenario: Scenario
    case: Case
    objective: Objective = Objective.WEIGHTED_SUM
    rho: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("power-splitting ratio must lie in [0, 1)")
        if self.scenario is not Scenario.S1 and self.rho != 0.0:
            raise ValueError("only S1 uses a power-splitting ratio; set rho=0")


def build_problem(spec: ScenarioSpec, cfg: NetworkConfig, ch: ChannelState | None = None) -> ConvexProgram:
    """Construct the canonical convex program for one configuration.

    Variables are t1.. y1.. and, when needed, one rate variable: the shared
    rate Bbar of the common objective, or U2's rate B in the sum when U1's
    decoding caps it next to the route (S1/S2) and w2 > 0 (at w2 = 0 nothing
    would bound B from below).  Otherwise the weighted terms sit in the
    objective itself.
    """
    if ch is None:
        ch = derive_channels(cfg)
    if spec.scenario in RELAY_SCENARIOS:
        limit = rho_max(ch)  # raises RelayNotBeneficialError when the link is too weak
        if spec.scenario is Scenario.S1 and spec.rho >= limit:
            raise ValueError(
                f"rho={spec.rho:g} leaves the relay link weaker than the direct link "
                f"(needs rho < {limit:g})"
            )
    table = _slot_table(spec, cfg, ch)
    k = table.n_slots
    common = spec.objective is Objective.COMMON
    rate = common or (bool(table.decode) and cfg.w2 > 0)
    pad = (0.0,) if rate else ()
    n = 2 * k + len(pad)
    rows = table.budget + [((1.0,) * k + (0.0,) * k, 1.0, "total_time")]

    q = np.zeros(n)
    obj_terms, epigraph = [], []
    if common:
        q[-1] = -1.0
        epigraph.append(EpigraphConstraint(n - 1, (table.own,), "near_user_rate"))
    else:
        if cfg.w1 > 0:
            obj_terms.append(_scaled(table.own, cfg.w1))
        if rate:
            q[-1] = -cfg.w2
        elif cfg.w2 > 0:
            obj_terms.extend(_scaled(tm, cfg.w2) for tm in table.carry)
    if rate:
        far = "route_throughput" if table.decode else "far_user_rate"
        epigraph.append(EpigraphConstraint(n - 1, table.carry, far))
        if table.decode:
            epigraph.append(EpigraphConstraint(n - 1, table.decode, "interuser_link"))
    names = tuple(f"{v}{i}" for v in "ty" for i in range(1, k + 1))
    if rate:
        names += ("Bbar" if common else "B",)

    return ConvexProgram(
        n_vars=n,
        objective_linear=q,
        objective_terms=tuple(obj_terms),
        epigraph=tuple(epigraph),
        linear=tuple(LinearConstraint(a + pad, b, label) for a, b, label in rows),
        t_indices=tuple(range(k)),
        y_indices=tuple(range(k, 2 * k)),
        var_names=names,
    )


class _Slots(NamedTuple):
    """One configuration's slot model; terms are unweighted, budget rows
    are (a, b, label) with a over t1.. y1.."""

    n_slots: int
    own: PerspectiveTerm                   # U1's own data to D
    carry: tuple[PerspectiveTerm, ...]     # U2's data to D: direct slot, or uplink and forward
    decode: tuple[PerspectiveTerm, ...]    # U1 decoding U2 (S1/S2 only)
    budget: list


def _slot_table(spec: ScenarioSpec, cfg: NetworkConfig, ch: ChannelState) -> _Slots:
    """The slot model of the module docstring for one configuration."""
    X1, X2 = cfg.x1_watt, cfg.x2_watt
    g1, g2 = ch.gamma1, ch.gamma2
    eta = cfg.eta if spec.scenario in ENERGY_SCENARIOS else 0.0
    full = -eta * ch.hu  # the whole of the other user's transmission
    k = 3 if spec.scenario in RELAY_SCENARIOS else 2

    def on(gamma, slot):
        return PerspectiveTerm(gamma, slot - 1, k + slot - 1)

    if k == 2 and spec.case is Case.A:
        return _Slots(k, on(g1, 1), (on(g2, 2),), (), [
            ((X1, X1, 1.0, 0.0), X1, "energy_u1"),
            ((0.0, X2, full, 1.0), X2, "energy_u2")])
    if k == 2:
        return _Slots(k, on(g1, 2), (on(g2, 1),), (), [
            ((X2, X2, 1.0, 0.0), X2, "energy_u2"),
            ((0.0, X1, full, 1.0), X1, "energy_u1")])
    split = -eta * spec.rho * ch.hu  # U1's rho share of U2's transmission
    link = (1.0 - spec.rho) * ch.gamma_u
    if spec.case is Case.A:
        return _Slots(k, on(g1, 1), (on(g2, 2), on(g1, 3)), (on(link, 2),), [
            ((X1, X1, X1, 1.0, 0.0, 0.0), X1, "energy_u1_slot1"),
            ((0.0, X2, X2, full, 1.0, 0.0), X2, "energy_u2_slot2"),
            ((0.0, 0.0, X1, 1.0, split, 1.0), X1, "energy_u1_slot3")])
    return _Slots(k, on(g1, 3), (on(g2, 1), on(g1, 2)), (on(link, 1),), [
        ((X2, X2, X2, 1.0, 0.0, 0.0), X2, "energy_u2_slot1"),
        ((0.0, X1, X1, split, 1.0, 0.0), X1, "energy_u1_slot2"),
        ((0.0, 0.0, X1, split, 1.0, 1.0), X1, "energy_u1_slot3")])


def _scaled(term: PerspectiveTerm, w: float) -> PerspectiveTerm:
    return PerspectiveTerm(term.gamma, term.t_index, term.y_index, w)


# ---------------------------------------------------------------------------
# Throughput recovery
# ---------------------------------------------------------------------------


def _rate_bits(term: PerspectiveTerm, x: list) -> float:
    t, y = x[term.t_index], x[term.y_index]
    if t <= 0.0 or y <= 0.0:
        return 0.0
    return t * math.log2(1.0 + term.gamma * y / t)


@dataclass(frozen=True)
class Throughputs:
    """Per-user rates in bits plus the recovered slot lengths."""

    b1_bits: float
    b2_bits: float
    t0: float
    slots: tuple[float, ...]


def throughputs_from_allocation(spec: ScenarioSpec, cfg: NetworkConfig, ch: ChannelState,
                                alloc: Allocation) -> Throughputs:
    """Per-user throughputs implied by an allocation, read off the program's terms.

    U2's rate is the smaller of what its carrying terms deliver to D and,
    in the relay scenarios, what U1 decodes on the inter-user link.
    """
    table = _slot_table(spec, cfg, ch)
    x = [float(v) for v in alloc.x]
    b2 = min(sum(_rate_bits(tm, x) for tm in terms)
             for terms in (table.carry, table.decode) if terms)
    slots = tuple(x[:table.n_slots])
    return Throughputs(b1_bits=_rate_bits(table.own, x), b2_bits=b2,
                       t0=1.0 - sum(slots), slots=slots)


def objective_bits(spec: ScenarioSpec, cfg: NetworkConfig, tp: Throughputs) -> float:
    """Scalar objective in bits for reporting and strategy comparison."""
    if spec.objective is Objective.WEIGHTED_SUM:
        return cfg.w1 * tp.b1_bits + cfg.w2 * tp.b2_bits
    return min(tp.b1_bits, tp.b2_bits)
