"""The benchmark's four workloads: inputs, one timed pass, and output checks.

Every call into the engine goes through a module attribute at call time
(`strategy.screen_rho(...)`, never a name bound at import), so the trace
wrappers in `tracing.py` see the benchmark's own calls as well as the
engine's internal ones.  See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from ehcoop import strategy, sweeps
from ehcoop.network import NetworkConfig, derive_channels, relay_feasible
from ehcoop.scenarios import Case, Objective, Scenario, ScenarioSpec

WORKLOADS = ("energy-nb", "energy-quad", "distance-sweep", "select-random")

SUM = Objective.WEIGHTED_SUM
COMMON = Objective.COMMON
OBJECTIVES = (SUM, COMMON)
SINGLE_SCENARIOS = (Scenario.S2, Scenario.S3, Scenario.S4)
BASE = NetworkConfig()                                      # X2 = 100 mW, d1 = du = 1, d2 = 2
RATIOS = tuple(round(0.25 * k, 10) for k in range(1, 13))  # X1 / X2 of the acceptance energy grid
D1_RANGE = (0.2, 1.8, 0.2)                                  # distance sweep, du = 2 - d1

SELECT_POINTS = 48        # network points per select-random pass
DESIGN_SEED = 20180126    # fixes which quantile cells share a select point; --seed draws inside them
SMOKE_SELECT_POINTS = 2

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
REL_TOL = 1e-6            # objectives and sweep fields against the reference
VIOLATION_TOL = 1e-12     # round-off allowed above a zero constraint violation
KKT_TOL = 1e-6            # the certificate every converged solve carries


def rel_diff(a, b) -> float:
    """Difference scaled like the acceptance suite's: relative above 1, absolute below."""
    if a is None or b is None:
        return 0.0 if a is b else math.inf
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    return abs(a - b) / max(1.0, abs(a), abs(b))


@dataclass
class Inputs:
    """Everything a pass needs, built before any timing starts."""

    workload: str
    seed: int
    jobs: int = 1
    energy: list = field(default_factory=list)     # (ratio, cfg, expected S1 candidates)
    sweep: object = None                           # SweepSpec
    points: list = field(default_factory=list)     # (cfg, objective, expected solves)

    @property
    def attempted(self) -> int:
        """Solves (rows, for the sweep) one pass attempts."""
        if self.workload.startswith("energy"):
            per_point = sum(n for _, _, n in self.energy)
            return len(OBJECTIVES) * len(Case) * (per_point + len(SINGLE_SCENARIOS) * len(self.energy))
        if self.workload == "distance-sweep":
            return len(self.sweep.values()) * len(self.sweep.objectives) * len(Scenario) * len(Case)
        return sum(n for _, _, n in self.points)


@dataclass
class Pass:
    """Timings and outputs of one pass over a workload.

    Latency samples are (ms, kernel ms) pairs: each sample carries the
    reference kernel time that scales it, measured next to it (see
    _run_energy, _run_select, and _run_sweep for the sweep's workers).
    """

    wall_s: float                # the pass, less its kernel runs
    screen: list[tuple]          # one per S1 rho screen
    solve: list[tuple]           # one per S2-S4 solve
    point: list[tuple]           # one per (network point, objective): all eight configurations
    outputs: dict                # what the correctness check compares
    warnings: int = 0
    csv_bytes: int = 0
    emit_csv_ms: float = 0.0

    @property
    def ref_wall_s(self) -> float:
        """The wall time at reference speed, scaled by the points' time-weighted mean factor."""
        return self.wall_s * sum(at_reference_speed(self.point)) / sum(ms for ms, _ in self.point)


def _expected_candidates(cfg: NetworkConfig) -> int:
    ch = derive_channels(cfg)
    return len(strategy.rho_candidates(ch)) if relay_feasible(ch) else 0


def build_inputs(workload: str, seed: int, smoke: bool = False, jobs: int = 1) -> Inputs:
    """Inputs of one workload; `smoke` shrinks each to a tiny slice of itself."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    inputs = Inputs(workload=workload, seed=seed, jobs=jobs)
    if workload.startswith("energy"):
        ratios = RATIOS[-1:] if smoke else RATIOS
        for r in ratios:
            cfg = replace(BASE, X1=100.0 * r)
            inputs.energy.append((r, cfg, _expected_candidates(cfg)))
    elif workload == "distance-sweep":
        start, stop, step = D1_RANGE
        if smoke:
            stop = start
        inputs.sweep = sweeps.SweepSpec("d1", start, stop, step, objectives=OBJECTIVES, solver="nb")
    else:
        inputs.points = draw_points(seed, SMOKE_SELECT_POINTS if smoke else SELECT_POINTS)
    return inputs


def draw_points(seed: int, n: int) -> list:
    """Random network points for select-random, stratified so seeds cost alike.

    A Latin hypercube: every continuous parameter is drawn once from each
    1/n-quantile of its range.  Which quantile cells share a point is a
    fixed design (du in order, since it alone sets the number of rho
    candidates and whether relaying is possible, du < d2 = 2; the others
    in a fixed shuffle), and the seed draws the values inside the cells.
    The objective alternates, w1 cycles through {0, 0.5, 1, 2}, and one
    point in eight has X1 = 0, which pins U1's ambient energy in presolve.
    So another seed solves other points of the same mix, and its figures
    can be compared with the first's.
    """
    design = np.random.default_rng(DESIGN_SEED)
    cells = [np.arange(n)] + [design.permutation(n) for _ in range(4)]
    rng = np.random.default_rng(seed)
    lo = np.array([0.2, 0.2, 10.0, 10.0, 0.0])
    hi = np.array([2.4, 1.8, 300.0, 300.0, 0.9])
    u = (np.array(cells).T + rng.random((n, 5))) / n
    du, d1, x1, x2, eta = (lo + (hi - lo) * u).T
    points = []
    for k in range(n):
        cfg = replace(BASE, d1=float(d1[k]), du=float(du[k]),
                      X1=0.0 if k % 8 == 7 else float(x1[k]), X2=float(x2[k]),
                      eta=float(eta[k]), w1=(0.0, 0.5, 1.0, 2.0)[k % 4])
        ch = derive_channels(cfg)
        relay = 2 * len(strategy.rho_candidates(ch)) + 2 if relay_feasible(ch) else 0
        points.append((cfg, OBJECTIVES[k % 2], relay + 4))
    return points


# ---------------------------------------------------------------------------
# The reference kernel.  The machine this benchmark was made on runs the
# same code up to 25% faster or slower from one minute to the next (a
# host effect: CPU time follows wall time), far more than the differences
# a change should be judged by.  A fixed numpy computation that uses
# nothing from ehcoop, timed right after each network point, slows down
# with the machine; run.py divides each latency sample by it.
# ---------------------------------------------------------------------------

KERNEL_NOMINAL_MS = 8.0
_KERNEL_ITERS = 400
_KERNEL_M = np.linspace(0.5, 1.5, 64).reshape(8, 8)
_KERNEL_A = _KERNEL_M @ _KERNEL_M.T + 8.0 * np.eye(8)
_KERNEL_B = np.linspace(-1.0, 1.0, 8)


def at_reference_speed(pairs) -> list[float]:
    """(ms, kernel ms) samples as milliseconds at reference speed."""
    return [ms * KERNEL_NOMINAL_MS / kernel for ms, kernel in pairs]


def _combined(pairs) -> tuple[float, float]:
    """(ms, kernel ms) samples as one: their total, with the kernel time that scales it as they are scaled."""
    ms = sum(m for m, _ in pairs)
    return ms, ms / sum(m / k for m, k in pairs)


def reference_kernel_ms() -> float:
    """Milliseconds for a fixed run of small dense Newton-like steps."""
    t0 = time.perf_counter()
    x = np.zeros(8)
    for _ in range(_KERNEL_ITERS):
        g = _KERNEL_A @ x - _KERNEL_B
        x = x - 0.5 * np.linalg.solve(_KERNEL_A + 1e-3 * np.outer(g, g), g)
    return 1e3 * (time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Call-boundary timers.  Screens and solves of the sweep and of select run
# inside engine calls (and, for the sweep, in pool workers), so they are
# timed where the engine looks the callee up.  One clock pair per call of a
# millisecond or more: this is not the trace of tracing.py.
# ---------------------------------------------------------------------------


class _Timers:
    def __init__(self):
        self.screen_ms: list[float] = []
        self.solve_ms: list[float] = []
        self._patched: list = []

    def wrap(self, module, name, record):
        original = getattr(module, name)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = original(*args, **kwargs)
            record(args, 1e3 * (time.perf_counter() - t0))
            return out

        setattr(module, name, timed)
        self._patched.append((module, name, original))

    def restore(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def take(self):
        """Samples since the last take, cleared."""
        out = (list(self.screen_ms), list(self.solve_ms))
        self.screen_ms.clear()
        self.solve_ms.clear()
        return out


def _run_energy(inputs: Inputs, solver: str) -> Pass:
    # point by point, so screens and solves both sample the whole pass.  The
    # kernel runs between consecutive calls, and each sample is scaled by the
    # mean of the kernel times on either side of it: a screen lasts a few
    # hundred ms, over which the host's pace already drifts
    screen, solve, point = [], [], []
    outputs = {}
    kernel_before = reference_kernel_ms()

    def timed(samples, call, *args):
        nonlocal kernel_before
        t0 = time.perf_counter()
        out = call(*args)
        ms = 1e3 * (time.perf_counter() - t0)
        kernel_after = reference_kernel_ms()
        samples.append((ms, 0.5 * (kernel_before + kernel_after)))
        kernel_before = kernel_after
        return out

    def bits_of(spec, cfg):
        result, tp = strategy.solve_spec(spec, cfg, solver)
        return result, strategy.objective_bits(spec, cfg, tp)

    for (ratio, cfg, _), objective in product(inputs.energy, OBJECTIVES):
        samples = []
        for case in Case:
            rho_star, table = timed(samples, strategy.screen_rho, cfg, case, objective, solver)
            outputs[f"S1|{objective.value}|{case.value}|{ratio:g}"] = {
                "rho_star": rho_star,
                "candidates": [[o.rho, o.result.status.value, o.objective_bits] for o in table],
            }
        for scenario, case in product(SINGLE_SCENARIOS, Case):
            spec = ScenarioSpec(scenario, case, objective)
            result, bits = timed(samples, bits_of, spec, cfg)
            outputs[f"{scenario.value}|{objective.value}|{case.value}|{ratio:g}"] = {
                "status": result.status.value, "bits": bits,
            }
        screen += samples[:len(Case)]
        solve += samples[len(Case):]
        point.append(_combined(samples))
    wall = sum(ms for ms, _ in point) / 1e3
    return Pass(wall, screen, solve, point, outputs)


def _run_sweep(inputs: Inputs, csv_path: str) -> Pass:
    timers = _Timers()
    timers.wrap(sweeps, "screen_rho", lambda args, ms: timers.screen_ms.append(ms))
    timers.wrap(sweeps, "_solve_candidate", lambda args, ms: timers.solve_ms.append(ms))
    evaluate = sweeps._evaluate_group

    def timed_group(*args):
        t0 = time.perf_counter()
        rows = evaluate(*args)
        group_ms = 1e3 * (time.perf_counter() - t0)
        # a worker's timings travel back to the parent on the group's first
        # row: rows are pickled with their instance dict, and emit_csv only
        # reads the declared fields
        rows[0].__dict__["_perfbench"] = (group_ms, reference_kernel_ms(), *timers.take())
        return rows

    # the pool forks after this, so its workers run the wrapped functions
    sweeps._evaluate_group = timed_group
    try:
        t_start = time.perf_counter()
        rows = sweeps.run_sweep(inputs.sweep, jobs=inputs.jobs)
        t_emit = time.perf_counter()
        sweeps.emit_csv(rows, csv_path)
        t_end = time.perf_counter()
    finally:
        sweeps._evaluate_group = evaluate
        timers.restore()
    try:
        csv_bytes = os.path.getsize(csv_path)
        parsed = sweeps.read_csv(csv_path)
    finally:
        os.remove(csv_path)
    screen, solve, point = [], [], []
    for row in rows:
        tag = row.__dict__.pop("_perfbench", None)
        if tag is not None:
            group_ms, k, screens, solves = tag
            point.append((group_ms, k))
            screen += [(ms, k) for ms in screens]
            solve += [(ms, k) for ms in solves]
    fields = ("rho_star", "obj_bits", "b1_bits", "b2_bits", "t0", "t1", "t2", "t3", "status")
    outputs = {
        f"{r.sweep_param:g}|{r.scenario}|{r.case}|{r.objective_kind}": {f: getattr(r, f) for f in fields}
        for r in parsed
    }
    # the workers' kernel runs spread over the pool
    wall = t_end - t_start - sum(k for _, k in point) / 1e3 / min(inputs.jobs, len(point))
    return Pass(wall, screen, solve, point, outputs,
                csv_bytes=csv_bytes, emit_csv_ms=1e3 * (t_end - t_emit))


def _run_select(inputs: Inputs) -> Pass:
    # as on the energy grids, the kernel runs after every candidate solve and
    # each solve is scaled by the mean of the kernel times on either side of
    # it; the kernel's own time is taken out of the select_strategy call
    timers = _Timers()
    s1: dict = {}
    solves: list = []
    kernel = {"before": reference_kernel_ms(), "spent_ms": 0.0}

    def record(args, ms):
        t0 = time.perf_counter()
        after = reference_kernel_ms()
        sample = (ms, 0.5 * (kernel["before"] + after))
        kernel["before"] = after
        kernel["spent_ms"] += 1e3 * (time.perf_counter() - t0)
        scenario, case = args[0], args[1]
        if scenario is Scenario.S1:
            s1.setdefault(case, []).append(sample)
        else:
            solves.append(sample)

    timers.wrap(strategy, "_solve_candidate", record)
    screen, solve, point = [], [], []
    outputs = {}
    try:
        for k, (cfg, objective, _) in enumerate(inputs.points):
            s1.clear()
            solves.clear()
            kernel["spent_ms"] = 0.0
            t0 = time.perf_counter()
            res = strategy.select_strategy(cfg, objective, solver="nb")
            point_ms = 1e3 * (time.perf_counter() - t0) - kernel["spent_ms"]
            screens = [_combined(samples) for samples in s1.values()]
            point.append((point_ms, _combined(screens + solves)[1]))
            screen += screens
            solve += solves
            outputs[str(k)] = [[o.result.status.value, o.result.max_constraint_violation,
                                o.result.kkt_residual] for o in res.table]
    finally:
        timers.restore()
    wall = sum(ms for ms, _ in point) / 1e3
    return Pass(wall, screen, solve, point, outputs)


def warm_up() -> None:
    """One untimed solve per solver, so lazy first-call work stays out of the passes."""
    for solver in ("nb", "quad"):
        strategy.solve_spec(ScenarioSpec(Scenario.S4, Case.A, SUM), BASE, solver)


def run_pass(inputs: Inputs, scratch_dir: str) -> Pass:
    """One full pass; warnings the engine raises are counted, not shown."""
    os.makedirs(scratch_dir, exist_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if inputs.workload == "energy-nb":
            out = _run_energy(inputs, "nb")
        elif inputs.workload == "energy-quad":
            out = _run_energy(inputs, "quad")
        elif inputs.workload == "distance-sweep":
            out = _run_sweep(inputs, os.path.join(scratch_dir, f"sweep-{os.getpid()}.csv"))
        else:
            out = _run_select(inputs)
    out.warnings = len(caught)
    return out


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    """Outputs of the grid workloads as the engine computed them when the benchmark was made."""
    with open(REFERENCE) as fh:
        return json.load(fh)


def _screen_failures(got, ref) -> int:
    ref_c = {c[0]: c for c in ref["candidates"]}
    got_c = {c[0]: c for c in got["candidates"]}
    failed = 0
    for rho, (_, status, bits) in ref_c.items():
        g = got_c.get(rho)
        if g is None or g[1] != status or status != "converged" or rel_diff(g[2], bits) > REL_TOL:
            failed += 1
    failed += len(set(got_c) - set(ref_c))
    if not failed and got["rho_star"] != ref["rho_star"]:
        failed = 1
    return failed


def _record_failures(got, ref) -> int:
    if "candidates" in ref:
        return _screen_failures(got, ref)
    if got["status"] != ref["status"] or got["status"] not in ("converged", "skipped_relay"):
        return 1
    if "rho_star" in ref and got["rho_star"] != ref["rho_star"]:
        return 1
    return int(any(rel_diff(got[k], v) > REL_TOL for k, v in ref.items()
                   if k not in ("status", "rho_star")))


def count_failures(inputs: Inputs, p: Pass, reference: dict) -> int:
    """Failed operations of one pass: solves, or rows for the sweep.

    Grid workloads are compared with the stored reference (missing and
    surplus records fail too); select-random solves must converge and carry
    their certificate.
    """
    if inputs.workload == "select-random":
        failed = 0
        for k, (_, _, expected) in enumerate(inputs.points):
            solves = p.outputs.get(str(k), [])
            failed += max(expected - len(solves), 0)
            failed += sum(1 for status, viol, kkt in solves
                          if status != "converged" or not viol <= VIOLATION_TOL or not kkt <= KKT_TOL)
        return failed
    ref = reference[inputs.workload]
    failed = 0
    for key, got in p.outputs.items():
        if key not in ref:
            failed += len(got.get("candidates", [None]))
        else:
            failed += _record_failures(got, ref[key])
    # a smoke pass covers a slice of the reference: only that slice must be there
    missing = [key for key in ref if key not in p.outputs and _in_slice(inputs, key)]
    return failed + sum(len(ref[key].get("candidates", [None])) for key in missing)


def _in_slice(inputs: Inputs, key: str) -> bool:
    if inputs.workload == "distance-sweep":
        return float(key.split("|")[0]) in inputs.sweep.values()
    return float(key.split("|")[-1]) in [r for r, _, _ in inputs.energy]
