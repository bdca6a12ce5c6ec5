"""Per-module trace of one pass, made from the benchmark's own wrappers.

Each traced function is replaced in every `ehcoop` module that holds a
reference to it, because that is where its callers look it up (for
example `perspective_value` lives in both `program` and `quadratic`, and
`screen_rho` in both `strategy` and `sweeps`).  Three kinds of wrapper:

- span: timed, and kept as a span (name, start, end, parent, operation)
  for the calls that bound a solve or a benchmark operation;
- timed: only aggregated into calls, total and self time, for functions
  called once or a few times per Newton step;
- count: only counted, for the hot leaves (`perspective_value`,
  `ConvexProgram.objective_value` / `nonlinear_value`), whose time stays
  with their caller; timing every leaf call would double the pass.

A function's self time is its total minus the total of the traced calls
made inside it.  Untraced functions therefore add to their caller's self
time.  The trace runs in its own process (see run.py), so no untraced
pass ever runs wrapped code.
"""

from __future__ import annotations

import json
import sys
import time

from ehcoop import barrier, network, program, quadratic, scenarios, strategy, sweeps
from ehcoop.program import ConvexProgram
import workloads
from workloads import build_inputs, count_failures, load_reference, run_pass, warm_up

SPAN, TIMED, COUNT = "span", "timed", "count"

# (owner, attribute, kind); the metric name is "<module>.<attribute>"
TARGETS = (
    (strategy, "select_strategy", SPAN),
    (strategy, "screen_rho", SPAN),
    (strategy, "_solve_candidate", SPAN),
    (strategy, "solve_spec", SPAN),
    (sweeps, "run_sweep", SPAN),
    (sweeps, "_evaluate_group", SPAN),
    (sweeps, "emit_csv", SPAN),
    (scenarios, "build_problem", SPAN),
    (barrier, "solve_nb", SPAN),
    (quadratic, "solve_iterative", SPAN),
    (program, "presolve_program", SPAN),
    (program, "initial_point", SPAN),
    (program, "refine_multipliers", SPAN),
    (program, "stationarity_residual", SPAN),
    (barrier, "_newton_direction", TIMED),
    (barrier, "barrier_gradient", TIMED),
    (barrier, "barrier_hessian", TIMED),
    (barrier, "_line_search", TIMED),
    (barrier, "alpha_linear", TIMED),
    (barrier, "alpha_log_bisection", TIMED),
    (barrier, "bisect_sign_change", TIMED),
    (barrier, "golden_section_min", TIMED),
    (quadratic, "quadratize", TIMED),
    (quadratic, "_ipm", TIMED),
    (ConvexProgram, "objective_gradient", TIMED),
    (ConvexProgram, "objective_hessian", TIMED),
    (ConvexProgram, "nonlinear_gradient", TIMED),
    (ConvexProgram, "nonlinear_hessian", TIMED),
    (ConvexProgram, "nonlinear_values", TIMED),
    (ConvexProgram, "constraint_values", TIMED),
    (ConvexProgram, "max_violation", TIMED),
    (barrier, "barrier_value", COUNT),
    (program, "perspective_value", COUNT),
    (program, "perspective_gradient", COUNT),
    (ConvexProgram, "objective_value", COUNT),
    (ConvexProgram, "nonlinear_value", COUNT),
    (network, "derive_channels", COUNT),
    # not a layer: timed so that its runs between select's candidate solves
    # stay out of select_strategy's self time
    (workloads, "reference_kernel_ms", TIMED),
)

EVAL_METHODS = ("objective_gradient", "objective_hessian", "nonlinear_gradient",
                "nonlinear_hessian", "nonlinear_values", "constraint_values", "max_violation")
LINE_SEARCH = ("_line_search", "alpha_linear", "alpha_log_bisection",
               "bisect_sign_change", "golden_section_min")


def _owners(original):
    """Every ehcoop module (or the class, or workloads) whose attribute is `original`."""
    for name, mod in sorted(sys.modules.items()):
        if name in ("ehcoop", "workloads") or name.startswith("ehcoop."):
            for attr, value in vars(mod).items():
                if value is original:
                    yield mod, attr


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.stats: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []         # (name, t0, t1, frame), in order of their end
        self.results: list = []              # SolveResult of every solve
        self.screens: set = set()            # distinct (cfg, case, objective) of S1 candidates
        self.s1_candidates = 0
        self._stack: list[list] = []
        self._patched: list = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, keep_span):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            outer = stack[-1] if stack else None
            # [traced child seconds, nearest enclosing span frame, is a span]
            frame = [0.0, None if outer is None else (outer if outer[2] else outer[1]), keep_span]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                stats[0] += 1
                stats[1] += d
                stats[2] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if keep_span:
                    spans.append((name, t0, t1, frame))
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for owner, attr, kind in TARGETS:
            original = vars(owner)[attr]
            label = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            if kind == COUNT:
                wrapper = self._counted(label, original)
            else:
                wrapper = self._timed(label, original, kind == SPAN)
            wrapper = self._hooked(attr, wrapper)
            sites = [(owner, attr)] if isinstance(owner, type) else list(_owners(original))
            for site, site_attr in sites:
                setattr(site, site_attr, wrapper)
                self._patched.append((site, site_attr, original))

    def _hooked(self, attr, wrapper):
        """Read solver counts off results and S1 screens off candidate calls."""
        if attr in ("solve_nb", "solve_iterative"):
            def solve(*args, **kwargs):
                result = wrapper(*args, **kwargs)
                self.results.append(result)
                return result
            return solve
        if attr == "_solve_candidate":
            def candidate(scenario, case, objective, rho, cfg, *rest):
                if scenario.value == "S1":
                    self.s1_candidates += 1
                    self.screens.add((cfg, case, objective))
                return wrapper(scenario, case, objective, rho, cfg, *rest)
            return candidate
        return wrapper

    def uninstall(self):
        for site, attr, original in reversed(self._patched):
            setattr(site, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def _self_ms(self, *names) -> float:
        return 1e3 * sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def _total_ms(self, name) -> float:
        return 1e3 * self.stats.get(name, (0, 0.0, 0.0))[1]

    def _calls(self, name) -> int:
        if name in self.counts:
            return self.counts[name]
        return self.stats.get(name, (0,))[0]

    def metrics(self) -> dict:
        """Per-layer figures of the traced pass; a ratio with a zero base reads 0."""
        def ratio(num, den):
            return num / den if den else 0.0

        nb = [r for r in self.results if r.solver == "nb"]
        quad = [r for r in self.results if r.solver == "quad"]
        steps = sum(r.inner_iters for r in nb)
        ipm_iters = sum(r.inner_iters for r in quad)
        evals = self._calls("ConvexProgram.objective_value") + self._calls("ConvexProgram.nonlinear_value")
        return {
            "barrier.newton_steps": steps,
            "barrier.stages": sum(r.outer_iters for r in nb),
            "barrier.ms_per_newton_step": ratio(self._total_ms("barrier.solve_nb"), steps),
            "barrier.evals_per_newton_step": ratio(evals, steps),
            "barrier.barrier_value.calls": self._calls("barrier.barrier_value"),
            "barrier.barrier_gradient.self_ms": self._self_ms("barrier.barrier_gradient"),
            "barrier.barrier_hessian.self_ms": self._self_ms("barrier.barrier_hessian"),
            "barrier.line_search.self_ms": self._self_ms(*(f"barrier.{n}" for n in LINE_SEARCH)),
            "barrier.solve_nb.self_ms": self._self_ms("barrier.solve_nb", "barrier._newton_direction"),
            "quadratic.solve_iterative.self_ms": self._self_ms("quadratic.solve_iterative"),
            "quadratic.rounds": sum(r.outer_iters for r in quad),
            "quadratic.ipm_iters": ipm_iters,
            "quadratic.ms_per_ipm_iter": ratio(self._total_ms("quadratic._ipm"), ipm_iters),
            "quadratic.quadratize.calls": self._calls("quadratic.quadratize"),
            "quadratic.quadratize.self_ms": self._self_ms("quadratic.quadratize"),
            "program.perspective_value.calls": self._calls("program.perspective_value"),
            "program.perspective_gradient.calls": self._calls("program.perspective_gradient"),
            "program.objective_value.calls": self._calls("ConvexProgram.objective_value"),
            "program.nonlinear_value.calls": self._calls("ConvexProgram.nonlinear_value"),
            "program.eval.self_ms": self._self_ms(*(f"ConvexProgram.{n}" for n in EVAL_METHODS)),
            "program.presolve_program.self_ms": self._self_ms("program.presolve_program"),
            "program.initial_point.self_ms": self._self_ms("program.initial_point"),
            "program.certificate.self_ms": self._self_ms("program.refine_multipliers",
                                                         "program.stationarity_residual"),
            "scenarios.build_problem.calls": self._calls("scenarios.build_problem"),
            "scenarios.build_problem.self_ms": self._self_ms("scenarios.build_problem"),
            "network.derive_channels.calls": self._calls("network.derive_channels"),
            "strategy.screen_rho.calls": self._calls("strategy.screen_rho"),
            "strategy.candidates_per_screen": ratio(self.s1_candidates, len(self.screens)),
            "strategy.select_strategy.self_ms": self._self_ms("strategy.select_strategy"),
            "sweeps.groups": self._calls("sweeps._evaluate_group"),
        }

    def write_spans(self, path: str) -> None:
        """Spans as JSON lines; `op` is the outermost span, one per benchmark call."""
        ids = {id(frame): k for k, (_, _, _, frame) in enumerate(self.spans)}
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for k, (name, t0, t1, frame) in enumerate(self.spans):
                root = frame
                while root[1] is not None:
                    root = root[1]
                fh.write(json.dumps({
                    "id": k, "parent": ids.get(id(frame[1])), "op": ids[id(root)], "name": name,
                    "start_ms": 1e3 * (t0 - origin), "end_ms": 1e3 * (t1 - origin),
                }) + "\n")


def traced_pass(workload: str, seed: int, out_dir: str, spans_path: str) -> dict:
    """One single-worker traced pass; meant to run in a process of its own."""
    inputs = build_inputs(workload, seed, jobs=1)
    warm_up()
    tracer = Tracer()
    tracer.install()
    try:
        p = run_pass(inputs, out_dir)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    return {"wall_s": p.wall_s, "ref_wall_s": p.ref_wall_s, "metrics": tracer.metrics(), "warnings": p.warnings,
            "attempted": inputs.attempted, "failed": count_failures(inputs, p, load_reference())}
