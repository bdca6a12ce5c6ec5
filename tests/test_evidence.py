"""tools/evidence.py: the size of each evidence set and what --compare reports."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("evidence", os.path.join(ROOT, "tools", "evidence.py"))
evidence = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(evidence)


def test_each_set_has_its_network_points():
    assert [len(evidence.points(name)) for name in evidence.SETS] == [12, 9, 25, 48, 48]
    assert {cfg.du for label, cfg in evidence.points("edge") if label.endswith("d1=0.6")} == {1.4}


def one_pair(winner, *candidates):
    """A run of one (point, objective) pair of the edge set."""
    return {"solver": "quad", "sets": {"edge": [{
        "point": "X1=0 d1=1", "objective": "sum", "winner": winner,
        "candidates": [{"config": config, "status": status, "bits": bits.hex(), "kkt": (0.0).hex(),
                        "iters": iters} for config, status, bits, iters in candidates]}]}}


def test_compare_reports_flips_winner_changes_and_the_largest_drift():
    parent = one_pair("S3-A", ("S1-A rho=0", "converged", 2.0, 5), ("S2-A", "converged", 3.0, 7),
                      ("S3-A", "converged", 4.0, 1))
    change = one_pair("S1-A rho=0", ("S1-A rho=0", "converged", 2.0, 5), ("S2-A", "max_iterations", 3.0, 9),
                      ("S3-A", "converged", 4.0 + 5e-9, 1))
    assert evidence.compare(parent, change) == [
        "edge: certified 3/3 -> 2/3, iterations 13 -> 15, bit-identical 1/3, 1 flips, 1 winner changes, "
        "largest certified drift 1e-09 (X1=0 d1=1 sum S3-A)",
        "  flip X1=0 d1=1 sum S2-A: converged -> max_iterations",
        "  winner X1=0 d1=1 sum: S3-A -> S1-A rho=0",
    ]
