"""Smoke test of the benchmark harness: one tiny pass per workload.

Checks correctness only (outputs against the stored reference, or the
certificates of select-random), never timing.
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, build_inputs, count_failures, load_reference, run_pass  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_is_correct(workload, tmp_path):
    # two sweep workers, so timings also come back from pool processes
    inputs = build_inputs(workload, seed=1, smoke=True, jobs=2 if workload == "distance-sweep" else 1)
    p = run_pass(inputs, str(tmp_path))
    assert p.outputs and p.warnings == 0
    assert p.screen and p.solve and p.point
    assert count_failures(inputs, p, load_reference()) == 0


def test_a_wrong_output_counts_as_failed(tmp_path):
    inputs = build_inputs("energy-quad", seed=1, smoke=True)
    p = run_pass(inputs, str(tmp_path))
    key = next(k for k in p.outputs if k.startswith("S3|"))
    p.outputs[key]["bits"] *= 1.0 + 1e-5
    del p.outputs[next(k for k in p.outputs if k.startswith("S1|"))]["candidates"][0]
    assert count_failures(inputs, p, load_reference()) == 2


def test_select_points_follow_the_seed():
    a, b = (build_inputs("select-random", seed=s).points for s in (3, 4))
    assert [cfg for cfg, _, _ in a] == [cfg for cfg, _, _ in build_inputs("select-random", seed=3).points]
    assert [cfg for cfg, _, _ in a] != [cfg for cfg, _, _ in b]


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = set(Tracer().metrics()) | set(run.PER_LAYER_EXTRA)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.per_layer_unit(n) for n in layers}
