"""Record the grid workloads' outputs as the reference every run must match.

    python3 perfbench/make_reference.py

Run from the repository root.  The reference is what the engine computes
at the commit it is made on, deviations from the paper included; remake
it only for a change that is meant to alter results, and say so.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import REFERENCE, build_inputs, run_pass  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        for workload in ("energy-nb", "energy-quad", "distance-sweep"):
            reference[workload] = run_pass(build_inputs(workload, seed=0), scratch).outputs
            print(f"{workload}: {len(reference[workload])} records")
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
