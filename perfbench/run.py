"""Benchmark of the ehcoop engine: one workload per run, or all of them.

    python3 perfbench/run.py --workload energy-nb --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the package is imported from ./src.  With
`--trace 0` the run repeats untraced passes for at least `--seconds` seconds
and reports the end-to-end metrics; with `--trace 1` it makes one
untraced pass and one traced pass in a child process and reports the
per-layer metrics.  Every pass is checked for correctness.  The last line
of standard output is the result as one JSON object.  `--workload all`
runs every workload in both modes, prints a table and writes
perfbench/out/results.json.  README.md explains the workloads and
metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 7
JOBS = min(2, os.cpu_count() or 1)

# ref_s and ref_ms: seconds and milliseconds at reference speed (see
# workloads.reference_kernel_ms); so is setup_s, whose unit the benchmark
# contract fixes as s; the unscaled figures go to the info line
END_TO_END = {
    "setup_s": "s", "wall_s": "ref_s",
    "screen_ms_p50": "ref_ms", "screen_ms_p75": "ref_ms",
    "solve_ms_p50": "ref_ms", "solve_ms_p90": "ref_ms",
    "point_ms_p50": "ref_ms", "peak_rss_mb": "MB",
}
PER_LAYER_EXTRA = ("sweeps.group_ms_max", "sweeps.pool_efficiency", "sweeps.emit_csv.ms",
                   "sweeps.csv_bytes", "trace.overhead_pct")
PER_LAYER_UNITS = {"calls": "count", "self_ms": "ms", "ms": "ms"}
PER_LAYER_SPECIAL = {
    "barrier.newton_steps": "count", "barrier.stages": "count",
    "barrier.ms_per_newton_step": "ms", "barrier.evals_per_newton_step": "evals/step",
    "quadratic.rounds": "count", "quadratic.ipm_iters": "count",
    "quadratic.ms_per_ipm_iter": "ms", "strategy.candidates_per_screen": "solves/screen",
    "sweeps.groups": "count", "sweeps.group_ms_max": "ms", "sweeps.pool_efficiency": "ratio",
    "sweeps.csv_bytes": "bytes", "trace.overhead_pct": "%",
}

# the setup probe: import numpy and ehcoop and build the inputs in a fresh
# interpreter, timed from inside it so interpreter start-up is left out;
# then the reference kernel, once to warm it and the median of three
PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy, ehcoop
from workloads import build_inputs, reference_kernel_ms
build_inputs(sys.argv[3], int(sys.argv[4]), jobs=int(sys.argv[5]))
setup_s = time.perf_counter() - t0
reference_kernel_ms()
kernel_ms = sorted(reference_kernel_ms() for _ in range(3))[1]
print(repr(setup_s), repr(kernel_ms))
"""

# the traced pass, in a fresh interpreter so that no untraced pass runs
# wrapped code; a plain child process rather than a multiprocessing pool,
# whose spawn context would leave its resource tracker running past exit
TRACED_CHILD = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import traced_pass
print(json.dumps(traced_pass(sys.argv[3], int(sys.argv[4]), sys.argv[5], sys.argv[6])))
"""


def per_layer_unit(name: str) -> str:
    return PER_LAYER_SPECIAL.get(name) or PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def percentile(samples, q) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A mean of all order statistics, each weighted by the Beta(p(n+1),
    (1-p)(n+1)) mass of its 1/n slice (p = q/100), so it does not jump
    from one sample to the next where the samples cluster (points of the
    two objectives, screens of different candidate counts), as a single
    order statistic does.
    """
    import numpy as np
    if not samples:
        raise RuntimeError("no samples to take a percentile of")
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, grid, cdf)
    edges[0], edges[-1] = 0.0, 1.0
    return float(np.diff(edges) @ x)


def machine(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "loadavg_1m": os.getloadavg()[0], "seed": seed, "jobs": JOBS,
    }


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up s, kernel ms) of SETUP_REPEATS fresh interpreters, after one to warm caches."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", PROBE, SRC, HERE, workload, str(seed), str(JOBS)],
            check=True, capture_output=True, text=True, timeout=60,
        )
        setup_s, kernel_ms = out.stdout.strip().splitlines()[-1].split()
        times.append((float(setup_s), float(kernel_ms)))
    return times[1:]


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    from workloads import at_reference_speed, build_inputs, count_failures, load_reference, run_pass, warm_up
    setup = setup_seconds(workload, seed)
    inputs = build_inputs(workload, seed, jobs=JOBS)
    reference = load_reference()
    warm_up()
    passes, failed = [], 0
    t_start = time.perf_counter()
    while True:
        p = run_pass(inputs, OUT)
        failed += count_failures(inputs, p, reference)
        passes.append(p)
        if time.perf_counter() - t_start >= seconds:
            break
    samples = {kind: [pair for p in passes for pair in getattr(p, kind)]
               for kind in ("screen", "solve", "point")}
    who = resource.RUSAGE_CHILDREN if workload == "distance-sweep" and JOBS > 1 else resource.RUSAGE_SELF

    def figures(ref: bool):
        scale = at_reference_speed if ref else (lambda pairs: [ms for ms, _ in pairs])
        screen, solve, point = (scale(samples[k]) for k in ("screen", "solve", "point"))
        return {
            "wall_s": statistics.median(p.ref_wall_s if ref else p.wall_s for p in passes),
            "screen_ms_p50": percentile(screen, 50), "screen_ms_p75": percentile(screen, 75),
            "solve_ms_p50": percentile(solve, 50), "solve_ms_p90": percentile(solve, 90),
            "point_ms_p50": percentile(point, 50),
        }

    values = {
        "setup_s": statistics.median(at_reference_speed(setup)), **figures(ref=True),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    attempted = inputs.attempted * len(passes)
    info = {
        "passes": len(passes), "samples": {k: len(v) for k, v in samples.items()},
        "warnings_per_pass": [p.warnings for p in passes], "failed_share": failed / attempted,
        "setup_s_all": [t for t, _ in setup], "setup_kernel_ms": [k for _, k in setup],
        "kernel_ms_median": statistics.median(k for _, k in samples["point"]),
        "unscaled": {"setup_s": statistics.median(t for t, _ in setup), **figures(ref=False)},
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def run_traced(workload: str, seed: int) -> dict:
    from workloads import build_inputs, count_failures, load_reference, run_pass, warm_up
    inputs = build_inputs(workload, seed, jobs=JOBS)
    reference = load_reference()
    warm_up()
    p = run_pass(inputs, OUT)
    failed = count_failures(inputs, p, reference)
    attempted = inputs.attempted
    warnings = [p.warnings]
    # these come from the untraced passes; the rest from the trace
    layer = {"sweeps.group_ms_max": 0.0, "sweeps.pool_efficiency": 0.0,
             "sweeps.emit_csv.ms": p.emit_csv_ms, "sweeps.csv_bytes": p.csv_bytes}
    untraced = p
    if workload == "distance-sweep":
        # the trace is single-worker, so it is compared with an untraced
        # single-worker pass, whose group times also give the serial work
        serial = run_pass(replace(inputs, jobs=1), OUT)
        failed += count_failures(inputs, serial, reference)
        attempted += inputs.attempted
        warnings.append(serial.warnings)
        untraced = serial
        group_ms = [ms for ms, _ in serial.point]
        layer["sweeps.group_ms_max"] = max(group_ms)
        layer["sweeps.pool_efficiency"] = sum(group_ms) / 1e3 / (JOBS * p.wall_s)
    spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    out = subprocess.run(
        [sys.executable, "-c", TRACED_CHILD, SRC, HERE, workload, str(seed), OUT, spans],
        check=True, capture_output=True, text=True, timeout=150,
    )
    traced = json.loads(out.stdout.strip().splitlines()[-1])
    failed += traced["failed"]
    attempted += traced["attempted"]
    warnings.append(traced["warnings"])
    layer.update(traced["metrics"])
    # both passes at reference speed: they run at different times
    layer["trace.overhead_pct"] = 100.0 * (traced["ref_wall_s"] / untraced.ref_wall_s - 1.0)
    metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(layer.items())}
    info = {"untraced_wall_s": untraced.wall_s, "traced_wall_s": traced["wall_s"],
            "warnings_per_pass": warnings, "failed_share": failed / attempted, "spans": spans}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def run_all(seed: int, seconds: int) -> int:
    """Every workload in both modes, each run in its own interpreter."""
    from workloads import WORKLOADS
    results, status = {}, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.stderr.write(out.stderr)
                print(f"{workload} trace={trace}: exit code {out.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            info = json.loads(lines[-2].split(" ", 1)[1])
            results.setdefault(workload, {})[f"trace{trace}"] = {**result, "info": info}
            share = result["failed"] / result["attempted"]
            print(f"\n{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} failed_share={share:g}")
            for name, m in result["metrics"].items():
                print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
            status |= 0 if result["correct"] else 1
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "results.json")
    with open(path, "w") as fh:
        json.dump({"machine": machine(seed), "seconds": seconds, "results": results}, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {path}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("energy-nb", "energy-quad", "distance-sweep", "select-random", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # one BLAS thread per process, so `jobs` sweep workers never exceed
    # nproc threads; set before numpy is first imported, inherited by children
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "ehcoop", "__init__.py")):
        print(f"error: no ehcoop sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ehcoop
    if not os.path.abspath(ehcoop.__file__).startswith(SRC + os.sep):
        print(f"error: ehcoop imported from {ehcoop.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args.seed, int(args.seconds))
    print("machine " + json.dumps(machine(args.seed)), flush=True)
    if args.trace:
        result = run_traced(args.workload, args.seed)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    print("info " + json.dumps(result.pop("info")))
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
