"""Parameter sweeps over arrival energy and geometry, with table export.

A sweep evaluates every requested configuration at each parameter value
(screening rho for full cooperation) and flags the per-point winner by
`select_strategy`'s rule.  Rows are emitted in a fixed order so repeated
runs produce byte-identical CSV files; failures are recorded in the
status column instead of aborting the sweep.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .network import NetworkConfig, derive_channels, relay_feasible
from .scenarios import RELAY_SCENARIOS, Case, Objective, Scenario
from .strategy import _pick, _solve_candidate, screen_rho

CSV_HEADER = "sweep_param,scenario,case,objective_kind,rho_star,obj_bits,B1_bits,B2_bits,t0,t1,t2,t3,status"

# default ranges of the two standard experiments
ENERGY_RANGE = (25.0, 300.0, 25.0)      # X1 in mW, X2 fixed
DISTANCE_RANGE = (0.2, 1.8, 0.2)        # d1, with du = d2 - d1

SWEEP_PARAMS = ("X1", "d1")


@dataclass(frozen=True)
class SweepSpec:
    param: str
    start: float
    stop: float
    step: float
    base: NetworkConfig = NetworkConfig()
    objectives: tuple[Objective, ...] = (Objective.WEIGHTED_SUM,)
    scenarios: tuple[Scenario, ...] = tuple(Scenario)
    solver: str = "nb"

    def __post_init__(self):
        if self.param not in SWEEP_PARAMS:
            raise ValueError(f"sweep parameter must be one of {SWEEP_PARAMS}")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.stop < self.start:
            raise ValueError("stop must not be below start")
        if self.param == "d1" and self.stop >= self.base.d2:
            raise ValueError("d1 sweep must stay below d2")
        if not self.objectives or not self.scenarios:
            raise ValueError("need at least one objective and one scenario")

    def values(self) -> list[float]:
        count = int(math.floor((self.stop - self.start) / self.step + 1e-9))
        return [round(self.start + k * self.step, 10) for k in range(count + 1)]

    def config_at(self, value: float) -> NetworkConfig:
        if self.param == "X1":
            return replace(self.base, X1=value)
        # users move along the line between the old positions: U2 fixed,
        # U1 at distance d1 from D and d2 - d1 from U2
        return replace(self.base, d1=value, du=self.base.d2 - value)


@dataclass
class SweepRow:
    sweep_param: float
    scenario: str
    case: str
    objective_kind: str
    rho_star: float | None
    obj_bits: float | None
    b1_bits: float | None
    b2_bits: float | None
    t0: float | None
    t1: float | None
    t2: float | None
    t3: float | None
    status: str
    winner: bool = False


def _blank_row(value, scenario, case, objective, status) -> SweepRow:
    return SweepRow(
        sweep_param=value, scenario=scenario.value, case=case.value,
        objective_kind=objective.value, rho_star=None, obj_bits=None,
        b1_bits=None, b2_bits=None, t0=None, t1=None, t2=None, t3=None,
        status=status,
    )


def _result_row(value, outcome) -> SweepRow:
    slots = outcome.throughputs.slots
    t1, t2 = float(slots[0]), float(slots[1])
    t3 = float(slots[2]) if len(slots) > 2 else 0.0
    return SweepRow(
        sweep_param=value,
        scenario=outcome.scenario.value,
        case=outcome.case.value,
        objective_kind=outcome.objective.value,
        rho_star=outcome.rho,
        obj_bits=outcome.objective_bits,
        b1_bits=outcome.throughputs.b1_bits,
        b2_bits=outcome.throughputs.b2_bits,
        t0=outcome.throughputs.t0,
        t1=t1, t2=t2, t3=t3,
        status=outcome.result.status.value,
    )


def _evaluate_group(spec: SweepSpec, value: float, objective: Objective) -> list[SweepRow]:
    """Rows for every scenario/case at one sweep point, winner flagged."""
    cfg = spec.config_at(value)
    ch = derive_channels(cfg)
    relay_ok = relay_feasible(ch)
    rows: list[SweepRow] = []
    solved = []          # (outcome, row) of every solved configuration, in row order
    for scenario in spec.scenarios:
        for case in Case:
            if scenario in RELAY_SCENARIOS and not relay_ok:
                rows.append(_blank_row(value, scenario, case, objective, "skipped_relay"))
                continue
            try:
                if scenario is Scenario.S1:
                    rho_star, table = screen_rho(cfg, case, objective, spec.solver, ch)
                    outcome = next(o for o in table if o.rho == rho_star)
                else:
                    outcomes = _solve_candidate(scenario, case, objective, (0.0,), cfg,
                                                ch, spec.solver)
                    if not outcomes:
                        raise RuntimeError("solver failed")
                    outcome = outcomes[0]
            except Exception as exc:
                rows.append(_blank_row(value, scenario, case, objective,
                                       f"error: {type(exc).__name__}: {exc}"))
                continue
            rows.append(_result_row(value, outcome))
            solved.append((outcome, rows[-1]))

    # select_strategy's rule: within TIE_TOL of the best the earlier row wins
    winner = _pick([outcome for outcome, _ in solved])
    for outcome, row in solved:
        row.winner = outcome is winner
    return rows


def _evaluate_group_packed(args):
    return _evaluate_group(*args)


def worker_count(jobs: int, n_tasks: int) -> int:
    """Worker processes for a sweep: no more than its tasks or this machine's CPUs.

    The pool starts every worker up front, so an unclamped request would
    start that many processes whatever the sweep's size.
    """
    return max(1, min(jobs, n_tasks, os.cpu_count() or 1))


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list[SweepRow]:
    """All rows of a sweep, ordered by value, objective, scenario, case."""
    tasks = [(spec, value, objective)
             for value in spec.values() for objective in spec.objectives]
    workers = worker_count(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(_evaluate_group_packed, tasks))
    else:
        groups = [_evaluate_group(*task) for task in tasks]
    return [row for group in groups for row in group]


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    return format(v, ".12g")


def _csv_line(row: SweepRow) -> str:
    status = row.status.replace(",", ";").replace("\n", " ")
    fields = [
        _fmt(row.sweep_param), row.scenario, row.case, row.objective_kind,
        _fmt(row.rho_star), _fmt(row.obj_bits), _fmt(row.b1_bits), _fmt(row.b2_bits),
        _fmt(row.t0), _fmt(row.t1), _fmt(row.t2), _fmt(row.t3), status,
    ]
    return ",".join(fields)


def emit_csv(rows: list[SweepRow], path) -> None:
    """Write the sweep table; deterministic byte-for-byte."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in rows:
                fh.write(_csv_line(row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep table to {path}: {exc}") from exc


def _parse_float(text: str) -> float | None:
    return None if text == "" else float(text)


def read_csv(path) -> list[SweepRow]:
    """Parse a table written by `emit_csv` (the winner flag is not stored)."""
    rows = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"unexpected header in {path}: {header!r}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != 13:
                raise ValueError(f"malformed row in {path}: {line!r}")
            rows.append(SweepRow(
                sweep_param=float(parts[0]), scenario=parts[1], case=parts[2],
                objective_kind=parts[3], rho_star=_parse_float(parts[4]),
                obj_bits=_parse_float(parts[5]), b1_bits=_parse_float(parts[6]),
                b2_bits=_parse_float(parts[7]), t0=_parse_float(parts[8]),
                t1=_parse_float(parts[9]), t2=_parse_float(parts[10]),
                t3=_parse_float(parts[11]), status=parts[12],
            ))
    return rows


def emit_plotdata(rows: list[SweepRow], path) -> None:
    """JSON series grouped per configuration, one point per sweep value."""
    series: dict[tuple, dict] = {}
    for row in rows:
        key = (row.scenario, row.case, row.objective_kind)
        entry = series.setdefault(key, {
            "scenario": row.scenario, "case": row.case,
            "objective_kind": row.objective_kind, "points": [],
        })
        entry["points"].append({
            "x": row.sweep_param, "rho_star": row.rho_star,
            "obj_bits": row.obj_bits, "b1_bits": row.b1_bits,
            "b2_bits": row.b2_bits, "winner": row.winner, "status": row.status,
        })
    payload = {"series": [series[k] for k in sorted(series)]}
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write plot data to {path}: {exc}") from exc
