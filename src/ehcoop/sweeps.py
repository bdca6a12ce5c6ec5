"""Parameter sweeps over arrival energy and geometry, with table export.

A sweep evaluates every requested configuration at each parameter value
(screening rho for full cooperation) and flags the per-point winner by
`select_strategy`'s rule.  Rows are emitted in a fixed order so repeated
runs produce byte-identical CSV files; failures are recorded in the
status column instead of aborting the sweep.  `COLUMNS` declares the
table once: its header, `emit_csv` and `read_csv` follow it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

from .network import NetworkConfig, derive_channels, relay_feasible
from .scenarios import RELAY_SCENARIOS, Case, Objective, Scenario
from .strategy import _pick, _solve_candidate, check_solver, screen_rho

# the table's columns in order: (CSV header name, SweepRow field, text column)
COLUMNS = (
    ("sweep_param", "sweep_param", False), ("scenario", "scenario", True), ("case", "case", True),
    ("objective_kind", "objective_kind", True), ("rho_star", "rho_star", False),
    ("obj_bits", "obj_bits", False), ("B1_bits", "b1_bits", False), ("B2_bits", "b2_bits", False),
    ("t0", "t0", False), ("t1", "t1", False), ("t2", "t2", False), ("t3", "t3", False),
    ("status", "status", True),
)
CSV_HEADER = ",".join(name for name, _, _ in COLUMNS)

# default ranges of the two standard experiments
ENERGY_RANGE = (25.0, 300.0, 25.0)      # X1 in mW, X2 fixed
DISTANCE_RANGE = (0.2, 1.8, 0.2)        # d1, with du = d2 - d1

SWEEP_PARAMS = ("X1", "d1")
# most points one sweep may take; a point costs about 0.05-0.12 s per objective
MAX_SWEEP_POINTS = 10_000


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
        for name in ("start", "stop", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.stop < self.start:
            raise ValueError("stop must not be below start")
        if self.param == "d1" and self.stop >= self.base.d2:
            raise ValueError("d1 sweep must stay below d2")
        if not self.objectives or not self.scenarios:
            raise ValueError("need at least one objective and one scenario")
        check_solver(self.solver)
        # counted first: the list of a tiny step exhausts memory or overflows
        last = (self.stop - self.start) / self.step + 1e-9
        if not last < MAX_SWEEP_POINTS:
            raise ValueError(f"step {self.step:g} gives more than {MAX_SWEEP_POINTS} sweep points")
        # a point outside the network's range fails here, before any solve;
        # every constraint on X1 and d1 is an interval, so the ends suffice
        values = self.values()
        self.config_at(values[0])
        self.config_at(values[-1])

    def values(self) -> list[float]:
        count = int(math.floor((self.stop - self.start) / self.step + 1e-9))
        return [round(self.start + k * self.step, 10) for k in range(count + 1)]

    def config_at(self, value: float) -> NetworkConfig:
        if self.param == "X1":
            return replace(self.base, X1=value)
        # users move along the line between the old positions: U2 fixed,
        # U1 at distance d1 from D and d2 - d1 from U2
        return replace(self.base, d1=value, du=self.base.d2 - value)


@dataclass(kw_only=True)
class SweepRow:
    sweep_param: float
    scenario: str
    case: str
    objective_kind: str
    # the figures of a solved row; None where the row has no point
    rho_star: float | None = None
    obj_bits: float | None = None
    b1_bits: float | None = None
    b2_bits: float | None = None
    t0: float | None = None
    t1: float | None = None
    t2: float | None = None
    t3: float | None = None
    status: str
    winner: bool = False
    # a candidate of the row's rho screen other than the reported one ended
    # unsolved or uncertified; like `winner`, not written to the CSV
    weak_screen: bool = False


def _row(value, scenario, case, objective, status, outcome=None) -> SweepRow:
    """The row of one configuration; the figures come from an outcome with a point."""
    row = SweepRow(sweep_param=value, scenario=scenario.value, case=case.value,
                   objective_kind=objective.value, status=status)
    if outcome is not None and outcome.result.x_star is not None:
        tp = outcome.throughputs
        row.rho_star, row.obj_bits, row.b1_bits, row.b2_bits, row.t0 = (
            outcome.rho, outcome.objective_bits, tp.b1_bits, tp.b2_bits, tp.t0)
        # a direct scenario has two slots, and its t3 reads 0
        row.t1, row.t2, row.t3 = (float(t) for t in (*tp.slots, 0.0)[:3])
    return row


def _evaluate_group(spec: SweepSpec, value: float, objective: Objective) -> list[SweepRow]:
    """Rows for every scenario/case at one sweep point, winner flagged."""
    cfg = spec.config_at(value)
    relay_ok = relay_feasible(derive_channels(cfg))
    rows: list[SweepRow] = []
    solved = []          # (outcome, row) of every solved configuration, in row order
    for scenario in spec.scenarios:
        for case in Case:
            outcome, table, status = None, (), "skipped_relay"
            if relay_ok or scenario not in RELAY_SCENARIOS:
                try:
                    if scenario is Scenario.S1:
                        rho_star, table = screen_rho(cfg, case, objective, spec.solver)
                        outcome = next(o for o in table if o.rho == rho_star)
                    else:
                        table = _solve_candidate(scenario, case, objective, (0.0,), cfg, spec.solver)
                        outcome = table[0]
                    status = outcome.status
                except Exception as exc:
                    status = f"error: {type(exc).__name__}: {exc}"
            rows.append(_row(value, scenario, case, objective, status, outcome))
            if rows[-1].obj_bits is not None:
                rows[-1].weak_screen = any(o is not outcome and not o.result.converged for o in table)
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
        # imported here, so that `import ehcoop` loads no process pool or multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(_evaluate_group_packed, tasks))
    else:
        groups = [_evaluate_group(*task) for task in tasks]
    return [row for group in groups for row in group]


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _cell(value, text: bool) -> str:
    if text:
        return value.replace(",", ";").replace("\n", " ")
    return "" if value is None else format(value, ".12g")


def _csv_line(row: SweepRow) -> str:
    return ",".join(_cell(getattr(row, field), text) for _, field, text in COLUMNS)


def emit_csv(rows: list[SweepRow], path) -> None:
    """Write the sweep table; deterministic byte-for-byte."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in rows:
                fh.write(_csv_line(row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep table to {path}: {exc}") from exc


def _value(cell: str, text: bool):
    if text:
        return cell
    return None if cell == "" else float(cell)


def read_csv(path) -> list[SweepRow]:
    """Parse a table written by `emit_csv` (the winner flag is not stored)."""
    rows = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"unexpected header in {path}: {header!r}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(COLUMNS):
                raise ValueError(f"malformed row in {path}: {line!r}")
            rows.append(SweepRow(**{field: _value(part, text) for (_, field, text), part in zip(COLUMNS, parts)}))
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
