"""Strategy selection across the eight cooperation configurations.

The power-splitting ratio rho enters the full-cooperation scenario
nonconvexly, so it is screened over a uniform grid below the largest
useful ratio; every other configuration is a single convex solve.  The
winning configuration maximizes the chosen objective, with ties broken
toward smaller rho and the earlier scenario in S1..S4, case A before B.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .barrier import SolveResult, solve_nb
from .network import ChannelState, NetworkConfig, derive_channels, relay_feasible, rho_max
from .quadratic import solve_iterative
from .scenarios import (
    Case,
    Objective,
    Scenario,
    ScenarioSpec,
    Throughputs,
    build_problem,
    objective_bits,
    throughputs_from_allocation,
)

SOLVERS = ("nb", "quad")
RHO_STEP = 0.1     # grid step of the rho screen
TIE_TOL = 1e-7     # relative objective gap under which two candidates tie


def solve_spec(spec: ScenarioSpec, cfg: NetworkConfig, solver: str = "nb",
               ch: ChannelState | None = None) -> tuple[SolveResult, Throughputs]:
    """Solve one configuration and recover the per-user throughputs."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVERS}")
    if ch is None:
        ch = derive_channels(cfg)
    program = build_problem(spec, cfg, ch)
    result = solve_nb(program) if solver == "nb" else solve_iterative(program)
    if result.x_star is None:
        tp = Throughputs(b1_bits=math.nan, b2_bits=math.nan, t0=math.nan, slots=())
    else:
        tp = throughputs_from_allocation(spec, cfg, ch, result.x_star, check=False)
    return result, tp


def rho_candidates(ch: ChannelState) -> tuple[float, ...]:
    """Uniform rho grid of step RHO_STEP on [0, rho_max), the open end excluded."""
    limit = rho_max(ch)
    out = []
    k = 0
    while True:
        r = round(k * RHO_STEP, 10)
        if r >= limit - 1e-12:
            break
        out.append(r)
        k += 1
    return tuple(out)


@dataclass(frozen=True)
class CandidateOutcome:
    """One solved configuration, annotated for tables and plots."""

    scenario: Scenario
    case: Case
    objective: Objective
    rho: float
    result: SolveResult
    throughputs: Throughputs
    objective_bits: float


@dataclass
class StrategyResult:
    scenario: Scenario
    case: Case
    rho_star: float
    result: SolveResult
    b1_bits: float
    b2_bits: float
    table: list[CandidateOutcome]
    notes: tuple[str, ...] = ()


def _solve_candidate(scenario, case, objective, rho, cfg, ch, solver) -> CandidateOutcome | None:
    spec = ScenarioSpec(scenario=scenario, case=case, objective=objective, rho=rho)
    try:
        result, tp = solve_spec(spec, cfg, solver, ch)
    except Exception as exc:  # solver failures skip the candidate, not the screen
        warnings.warn(f"{scenario.value}-{case.value} rho={rho:g} failed: {exc}")
        return None
    if not result.converged:
        warnings.warn(
            f"{scenario.value}-{case.value} rho={rho:g} did not converge "
            f"({result.status.value})"
        )
    score = objective_bits(spec, cfg, tp) if result.x_star is not None else math.nan
    return CandidateOutcome(
        scenario=scenario, case=case, objective=objective, rho=rho,
        result=result, throughputs=tp, objective_bits=score,
    )


def _candidates(scenario, case, objective, cfg, ch, solver) -> list[CandidateOutcome]:
    """Every solve of one configuration, in grid order: the rho grid for S1, else rho = 0."""
    grid = rho_candidates(ch) if scenario is Scenario.S1 else (0.0,)
    outcomes = (_solve_candidate(scenario, case, objective, rho, cfg, ch, solver) for rho in grid)
    return [o for o in outcomes if o is not None]


def _pick(outcomes):
    """Best converged outcome; within TIE_TOL of it the earliest entry wins."""
    converged = [o for o in outcomes if o.result.converged]
    if not converged:
        return None
    best = max(o.objective_bits for o in converged)
    cut = best - TIE_TOL * (1.0 + abs(best))
    for o in converged:
        if o.objective_bits >= cut:
            return o
    return None


def screen_rho(cfg: NetworkConfig, case: Case, objective: Objective,
               solver: str = "nb", ch: ChannelState | None = None):
    """Grid screen of the power-splitting ratio for full cooperation (S1).

    Returns (rho_star, table) where the table holds every candidate solve
    in grid order.  Within `TIE_TOL` (relative) of the best objective the
    smallest rho wins, since extra splitting buys nothing there.
    """
    if ch is None:
        ch = derive_channels(cfg)
    table = _candidates(Scenario.S1, case, objective, cfg, ch, solver)
    winner = _pick(table)
    if winner is None:
        raise RuntimeError(f"no rho candidate converged for S1-{case.value}")
    return winner.rho, table


def select_strategy(cfg: NetworkConfig, objective: Objective, solver: str = "nb") -> StrategyResult:
    """Solve all eight configurations and pick the best one."""
    ch = derive_channels(cfg)
    relay_ok = relay_feasible(ch)
    notes: list[str] = []
    table: list[CandidateOutcome] = []
    finalists: list[CandidateOutcome] = []

    for scenario in Scenario:
        if scenario in (Scenario.S1, Scenario.S2) and not relay_ok:
            notes.append(
                f"{scenario.value} skipped: inter-user link no stronger than the direct link"
            )
            continue
        for case in Case:
            candidates = _candidates(scenario, case, objective, cfg, ch, solver)
            table.extend(candidates)
            best = _pick(candidates)
            if best is not None:
                finalists.append(best)
            else:
                notes.append(f"{scenario.value}-{case.value}: no converged solve")

    winner = _pick(finalists)
    if winner is None:
        raise RuntimeError("no configuration produced a converged solve")
    return StrategyResult(
        scenario=winner.scenario,
        case=winner.case,
        rho_star=winner.rho,
        result=winner.result,
        b1_bits=winner.throughputs.b1_bits,
        b2_bits=winner.throughputs.b2_bits,
        table=table,
        notes=tuple(notes),
    )
