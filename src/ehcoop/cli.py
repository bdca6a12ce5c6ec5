"""Command-line interface.

    ehcoop solve --scenario S1 --case A --rho 0.3
    ehcoop screen-rho --case B --objective sum
    ehcoop select --objective common
    ehcoop sweep-energy --out table.csv --plotdata table.json
    ehcoop sweep-distance --out table.csv
    ehcoop validate

Network parameters come from defaults, an optional key=value config file
(`--config`), and individual flags, in that order of precedence.  Exit
codes: 0 on success, 2 when any requested point failed to solve, 1 on
usage errors (bad flags, a flag for the parameter a sweep sets at every
point, sweep bounds outside the network's range, an output file that
cannot be written).  Relay rows a sweep skips do not count as failed.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import fields as dataclass_fields
from dataclasses import replace

import numpy as np

from .barrier import solve_nb
from .gridsearch import brute_force_grid, finite_diff_check
from .network import NetworkConfig, derive_channels, relay_feasible, rho_max
from .program import start as presolved_start
from .quadratic import solve_iterative
from .scenarios import (
    RELAY_SCENARIOS,
    Case,
    Objective,
    Scenario,
    ScenarioSpec,
    build_problem,
    objective_bits,
)
from .strategy import screen_rho, select_strategy, solve_spec
from .sweeps import (
    DISTANCE_RANGE,
    ENERGY_RANGE,
    SweepSpec,
    emit_csv,
    emit_plotdata,
    run_sweep,
)

_CONFIG_ALIASES = {"lambda": "lam"}
_AGREEMENT_TOL = 1e-4   # largest relative nb/quad gap `solve --solver both` and `validate` accept
_CONFIG_KEYS = {f.name for f in dataclass_fields(NetworkConfig)}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class UsageError(ValueError):
    pass


def load_config(path) -> dict[str, float]:
    """Parse a flat key=value file; '#' starts a comment, blank lines skipped."""
    values: dict[str, float] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, _, text = line.partition("=")
                key = _CONFIG_ALIASES.get(key.strip(), key.strip())
                if key not in _CONFIG_KEYS:
                    raise UsageError(
                        f"{path}:{lineno}: unknown key {key!r}; "
                        f"valid keys: {', '.join(sorted(_CONFIG_KEYS | {'lambda'}))}"
                    )
                try:
                    values[key] = float(text.strip())
                except ValueError as exc:
                    raise UsageError(f"{path}:{lineno}: bad number {text.strip()!r}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return values


def build_network_config(args) -> NetworkConfig:
    overrides: dict[str, float] = {}
    if getattr(args, "config", None):
        overrides.update(load_config(args.config))
    for name in _CONFIG_KEYS:
        flag = getattr(args, f"cfg_{name}", None)
        if flag is not None:
            overrides[name] = flag
    try:
        return replace(NetworkConfig(), **overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _add_network_flags(parser):
    group = parser.add_argument_group("network parameters")
    group.add_argument("--config", metavar="FILE", help="key=value parameter file")
    for name in sorted(_CONFIG_KEYS):
        group.add_argument(f"--{name}", dest=f"cfg_{name}", type=float, metavar="V",
                           help=f"override {name}")


def _add_solver_flag(parser, both=False):
    choices = ("nb", "quad", "both") if both else ("nb", "quad")
    parser.add_argument("--solver", choices=choices, default="nb",
                        help="nb: Newton barrier, quad: iterative quadratic (default nb)"
                        + ("; both: each, then their agreement" if both else ""))


_OBJECTIVES = {"sum": Objective.WEIGHTED_SUM, "common": Objective.COMMON}


def _objective(args) -> Objective:
    return _OBJECTIVES[args.objective]


def _print_result(tag, spec, cfg, result, tp):
    print(f"[{tag}] {spec.scenario.value}-{spec.case.value} "
          f"objective={spec.objective.value} rho={spec.rho:g}")
    print(f"  status     : {result.status.value} "
          f"(outer {result.outer_iters}, inner {result.inner_iters})")
    if result.x_star is None:
        return
    print(f"  objective  : {objective_bits(spec, cfg, tp):.6f} bits")
    print(f"  B1, B2     : {tp.b1_bits:.6f}, {tp.b2_bits:.6f} bits")
    slots = ", ".join(f"{t:.6f}" for t in tp.slots)
    print(f"  t0, slots  : {tp.t0:.6f} | {slots}")
    powers = (f"{y / t:.6g}" if t > 0 else "0" for t, y in zip(tp.slots, result.x_star[len(tp.slots):]))
    print(f"  P (W)      : {', '.join(powers)}")
    print(f"  violation  : {result.max_constraint_violation:.3e}  "
          f"kkt: {result.kkt_residual:.3e}")


def _disagreement(nb, quad) -> float:
    """How far apart two results' objectives are, relative to nb's and at least 1 bit."""
    return abs(nb.objective_bits - quad.objective_bits) / max(1.0, abs(nb.objective_bits))


def _cmd_solve(args) -> int:
    cfg = build_network_config(args)
    spec = ScenarioSpec(
        scenario=Scenario(args.scenario), case=Case(args.case),
        objective=_objective(args), rho=args.rho,
    )
    solvers = ("nb", "quad") if args.solver == "both" else (args.solver,)
    ok = True
    results = {}
    for solver in solvers:
        result, tp = solve_spec(spec, cfg, solver)
        _print_result(solver, spec, cfg, result, tp)
        results[solver] = result
        ok = ok and result.converged
    # an agreement needs an allocation from both solvers
    if len(results) == 2 and all(r.x_star is not None for r in results.values()):
        rel = _disagreement(results["nb"], results["quad"])
        print(f"solver agreement: {rel:.3e} relative")
        if ok and rel > _AGREEMENT_TOL:
            print(f"ehcoop: nb and quad disagree by {rel:.3e} relative "
                  f"(bound {_AGREEMENT_TOL:g})", file=sys.stderr)
            ok = False
    return 0 if ok else 2


def _cmd_screen_rho(args) -> int:
    cfg = build_network_config(args)
    rho_star, table = screen_rho(cfg, Case(args.case), _objective(args), solver=args.solver)
    print(f"rho     objective_bits  B1_bits   B2_bits   status")
    for out in table:
        tp = out.throughputs
        print(f"{out.rho:<7.2f} {out.objective_bits:<15.6f} {tp.b1_bits:<9.6f} "
              f"{tp.b2_bits:<9.6f} {out.status}")
    print(f"rho* = {rho_star:g}")
    return 0 if all(o.result.converged for o in table) else 2


def _cmd_select(args) -> int:
    cfg = build_network_config(args)
    choice = select_strategy(cfg, _objective(args), solver=args.solver)
    for note in choice.notes:
        print(f"note: {note}")
    print(f"best configuration: {choice.scenario.value}-{choice.case.value} "
          f"(rho* = {choice.rho_star:g})")
    print(f"  objective : {choice.result.objective_bits:.6f} bits "
          f"(B1 {choice.b1_bits:.6f}, B2 {choice.b2_bits:.6f})")
    bad = [o for o in choice.table if not o.result.converged]
    return 2 if bad else 0


def _run_sweep_command(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    # the sweep sets these at every point, so a flag for one would do nothing
    for name in ("X1",) if args.param == "X1" else ("d1", "du"):
        if getattr(args, f"cfg_{name}") is not None:
            raise UsageError(f"{args.command} sets {name} at every point, so --{name} would be ignored")
    cfg = build_network_config(args)
    objectives = (
        tuple(_OBJECTIVES.values()) if args.objective == "both"
        else (_OBJECTIVES[args.objective],)
    )
    try:
        spec = SweepSpec(param=args.param, start=args.start, stop=args.stop, step=args.step,
                         base=cfg, objectives=objectives, solver=args.solver)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for flag, path in (("--out", args.out), ("--plotdata", args.plotdata)):
        if path:
            try:
                open(path, "a").close()    # fail before the sweep runs, not after it
            except OSError as exc:
                raise UsageError(f"cannot write {flag} {path}: {exc.strerror}") from exc
    rows = run_sweep(spec, jobs=args.jobs)
    if args.out:
        emit_csv(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
    if args.plotdata:
        emit_plotdata(rows, args.plotdata)
        print(f"wrote plot data to {args.plotdata}")
    if not args.out and not args.plotdata:
        for row in rows:
            mark = " *" if row.winner else ""
            obj = "" if row.obj_bits is None else f"{row.obj_bits:.6f}"
            print(f"{args.param}={row.sweep_param:g} {row.scenario}-{row.case} "
                  f"[{row.objective_kind}] {obj} {row.status}{mark}")
    skipped = sum(r.status == "skipped_relay" for r in rows)
    if skipped:
        print(f"{skipped} row(s) skipped where relaying is impossible", file=sys.stderr)
    failed = sum(r.status not in ("converged", "skipped_relay") for r in rows)
    if failed:
        print(f"{failed} row(s) failed or did not converge", file=sys.stderr)
    weak = [r for r in rows if r.weak_screen]
    if weak:
        print(f"{len(weak)} row(s) screened an unsolved or uncertified rho candidate", file=sys.stderr)
    return 2 if failed or weak else 0


def _cmd_validate(args) -> int:
    """Self-checks: derivatives, oracle agreement, solver agreement."""
    cfg = build_network_config(args)
    ch = derive_channels(cfg)
    checks: list[tuple[str, bool, str]] = []

    # where relaying is impossible, the S3 program takes the S1 program's place
    if relay_feasible(ch):
        spec = ScenarioSpec(Scenario.S1, Case.A, Objective.WEIGHTED_SUM,
                            rho=min(0.3, 0.5 * rho_max(ch)))
    else:
        spec = ScenarioSpec(Scenario.S3, Case.A, Objective.WEIGHTED_SUM)
    tag = f"{spec.scenario.value}-A"
    # probe the presolved program: presolve pins zero-budget energies, so no
    # coordinate of the start sits within a difference step of y = 0; an
    # overflowing start reads as none, under `program.solve_many`'s errstate
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        started = presolved_start(build_problem(spec, cfg))
    if started is None:
        raise RuntimeError(f"the {tag} program has no interior point to check derivatives at")
    pre, x0 = started
    try:
        fd = finite_diff_check(pre.program, x0, tau=1.0)
        derivs = [(fd[k] <= tol, f"{tag}, {fd[k]:.3e}") for k, tol in (("gradient", 1e-6), ("hessian", 1e-4))]
    except ValueError as exc:   # a difference step crossed a coordinate bound (a tiny budget)
        derivs = [(False, f"{tag}, a difference step left the domain: {exc}")] * 2
    for kind, (ok, detail) in zip(("gradient", "Hessian"), derivs):
        checks.append((f"derivatives vs finite differences ({kind})", ok, detail))

    for scenario in (Scenario.S3, Scenario.S4):
        sp = ScenarioSpec(scenario, Case.A, Objective.WEIGHTED_SUM)
        program = build_problem(sp, cfg)
        res = solve_nb(program)
        ref = brute_force_grid(program, step=1e-3)
        gap = res.objective_bits - ref.objective_bits
        ok = res.converged and gap >= -1e-9 and gap <= 0.05
        checks.append((f"{scenario.value}-A vs grid oracle", ok,
                       f"solver {res.objective_bits:.6f}, grid {ref.objective_bits:.6f}"))

    for scenario in Scenario:
        if scenario in RELAY_SCENARIOS and not relay_feasible(ch):
            continue
        sp = ScenarioSpec(scenario, Case.B, Objective.WEIGHTED_SUM,
                          rho=0.0)
        program = build_problem(sp, cfg)
        rel = _disagreement(solve_nb(program), solve_iterative(program))
        checks.append((f"{scenario.value}-B solver agreement", rel <= _AGREEMENT_TOL, f"{rel:.3e}"))

    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        if not ok:
            failed += 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ehcoop", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one configuration", parents=[])
    p.add_argument("--scenario", choices=[s.value for s in Scenario], required=True)
    p.add_argument("--case", choices=[c.value for c in Case], required=True)
    p.add_argument("--objective", choices=("sum", "common"), default="sum")
    p.add_argument("--rho", type=float, default=0.0,
                   help="power-splitting ratio (S1 only)")
    _add_solver_flag(p, both=True)
    _add_network_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("screen-rho", help="screen the power-splitting ratio for S1")
    p.add_argument("--case", choices=[c.value for c in Case], required=True)
    p.add_argument("--objective", choices=("sum", "common"), default="sum")
    _add_solver_flag(p)
    _add_network_flags(p)
    p.set_defaults(func=_cmd_screen_rho)

    p = sub.add_parser("select", help="pick the best configuration")
    p.add_argument("--objective", choices=("sum", "common"), default="sum")
    _add_solver_flag(p)
    _add_network_flags(p)
    p.set_defaults(func=_cmd_select)

    for name, param, (start, stop, step) in (
        ("sweep-energy", "X1", ENERGY_RANGE),
        ("sweep-distance", "d1", DISTANCE_RANGE),
    ):
        p = sub.add_parser(name, help=f"sweep {param} over a range")
        p.add_argument("--start", type=float, default=start, help=f"first {param} (default %(default)g)")
        p.add_argument("--stop", type=float, default=stop, help=f"last {param} (default %(default)g)")
        p.add_argument("--step", type=float, default=step, help=f"{param} step (default %(default)g)")
        p.add_argument("--objective", choices=("sum", "common", "both"), default="sum")
        p.add_argument("--out", metavar="CSV", help="write the table here")
        p.add_argument("--plotdata", metavar="JSON", help="write grouped series here")
        p.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per point and CPU")
        _add_solver_flag(p)
        _add_network_flags(p)
        p.set_defaults(func=_run_sweep_command, param=param)

    p = sub.add_parser("validate", help="run built-in cross-checks")
    _add_network_flags(p)
    p.set_defaults(func=_cmd_validate)
    return parser


def _format_warning(message, *args, **kwargs) -> str:
    return f"ehcoop: warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the engine's warnings print as one line each, without a source line
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"ehcoop: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"ehcoop: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    raise SystemExit(main())
