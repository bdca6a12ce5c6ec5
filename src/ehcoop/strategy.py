"""Strategy selection across the eight cooperation configurations.

The power-splitting ratio rho enters the full-cooperation scenario
nonconvexly, so it is screened over a uniform grid below the largest
useful ratio, the nb solver taking the grid's candidates together
(`barrier.solve_nb_many`); every other configuration is a single convex
solve.  The winning configuration maximizes the chosen objective, with
ties broken toward smaller rho and the earlier scenario in S1..S4, case
A before B.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .barrier import solve_nb, solve_nb_many
from .network import ChannelState, NetworkConfig, derive_channels, relay_feasible, rho_max
from .program import SolveResult
from .quadratic import solve_iterative
from .scenarios import (
    RELAY_SCENARIOS,
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
    return result, _throughputs(spec, cfg, ch, result)


def _throughputs(spec: ScenarioSpec, cfg: NetworkConfig, ch: ChannelState,
                 result: SolveResult) -> Throughputs:
    """The per-user throughputs of a solve; NaN without an allocation."""
    if result.x_star is None:
        return Throughputs(b1_bits=math.nan, b2_bits=math.nan, t0=math.nan, slots=())
    return throughputs_from_allocation(spec, cfg, ch, result.x_star)


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


def _solve_candidate(scenario, case, objective, grid, cfg, ch, solver) -> list[CandidateOutcome]:
    """One configuration solved at every rho of `grid`, in grid order.

    An nb grid of two or more candidates goes to one `solve_nb_many` call,
    which decides whether to step it in lockstep; when a program cannot be
    built or that call raises, the candidates are solved one by one.  A
    single candidate is solved once, by `solve_spec`.  A candidate whose
    solve raises is left out with a warning, so one failure skips the
    candidate, not the grid.
    """
    specs = [ScenarioSpec(scenario=scenario, case=case, objective=objective, rho=rho) for rho in grid]
    batch = {}
    if solver == "nb" and len(specs) > 1:
        try:
            batch = dict(zip(specs, solve_nb_many([build_problem(spec, cfg, ch) for spec in specs])))
        except Exception:
            pass        # the one-by-one solves below report the failure
    outcomes = []
    for spec in specs:
        label = f"{scenario.value}-{case.value} rho={spec.rho:g}"
        try:
            if spec in batch:
                result, tp = batch[spec], _throughputs(spec, cfg, ch, batch[spec])
            else:
                result, tp = solve_spec(spec, cfg, solver, ch)
        except Exception as exc:  # solver failures skip the candidate, not the screen
            warnings.warn(f"{label} failed: {type(exc).__name__}: {exc}")
            continue
        if not result.converged:
            warnings.warn(f"{label} did not converge ({result.status.value})")
        score = objective_bits(spec, cfg, tp) if result.x_star is not None else math.nan
        outcomes.append(CandidateOutcome(
            scenario=scenario, case=case, objective=objective, rho=spec.rho,
            result=result, throughputs=tp, objective_bits=score,
        ))
    return outcomes


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
    table = _solve_candidate(Scenario.S1, case, objective, rho_candidates(ch), cfg, ch, solver)
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
        if scenario in RELAY_SCENARIOS and not relay_ok:
            notes.append(
                f"{scenario.value} skipped: inter-user link no stronger than the direct link"
            )
            continue
        grid = rho_candidates(ch) if scenario is Scenario.S1 else (0.0,)
        for case in Case:
            candidates = _solve_candidate(scenario, case, objective, grid, cfg, ch, solver)
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
