"""Certificates, iteration counts and winners of one solver on the evidence sets.

    python tools/evidence.py --solver quad --out quad.json
    python tools/evidence.py --solver nb --sets energy distance
    python tools/evidence.py --compare parent.json change.json

Each set is a list of (network point, objective) pairs, every one solved
by `select_strategy`:

- energy: the acceptance energy grid, X1 = 25-300 mW in steps of 25 at the
  default network;
- distance: the acceptance distance grid, d1 = 0.2-1.8 in steps of 0.2 with
  du = 2 - d1;
- edge: X1 = 0, X1 = 1e-3, eta = w1 = 0, w1 = 0 and X1 = X2 = 0, each at d1 in
  {0.2, 0.6, 1.0, 1.4, 1.8} with du = 2 - d1 rounded to 10 places (the du
  a command line gives);
- draw2, draw3: perfbench's `draw_points(seed, 48)` at seeds 2 and 3.

Every point is solved under both objectives; run from anywhere, the package
and perfbench are imported from this checkout.  A run prints one line per set,
`<set> <certified>/<candidates> certified, <iterations> iterations` (nb's
Newton steps or quad's interior-point iterations), and `--out` writes each
candidate's status, objective and KKT residual as float hex, its iterations,
and each pair's winner, as JSON.  `--compare A B` reads two such files, the
parent's first, and prints per set the certificates and iterations A -> B,
how many results are bit-identical (status, objective and KKT residual), every
status flip, every winner change and the largest drift of an objective
certified in both, relative to 1 + |B| bits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from ehcoop.network import NetworkConfig  # noqa: E402
from ehcoop.scenarios import Objective, Scenario  # noqa: E402
from ehcoop.strategy import select_strategy  # noqa: E402

SETS = ("energy", "distance", "edge", "draw2", "draw3")
D1_EDGE = (0.2, 0.6, 1.0, 1.4, 1.8)
EDGE_VARIANTS = (("X1=0", {"X1": 0.0}), ("X1=1e-3", {"X1": 1e-3}), ("eta=w1=0", {"eta": 0.0, "w1": 0.0}),
                 ("w1=0", {"w1": 0.0}), ("X1=X2=0", {"X1": 0.0, "X2": 0.0}))


def points(name: str) -> list[tuple[str, NetworkConfig]]:
    """The labelled network points of one evidence set."""
    base = NetworkConfig()
    if name == "energy":
        return [(f"X1={100.0 * r:g}", replace(base, X1=100.0 * r))
                for r in (round(0.25 * k, 10) for k in range(1, 13))]
    if name == "distance":
        return [(f"d1={d1:g}", replace(base, d1=d1, du=base.d2 - d1))
                for d1 in (round(0.2 * k, 10) for k in range(1, 10))]
    if name == "edge":
        return [(f"{label} d1={d1:g}", replace(base, d1=d1, du=round(base.d2 - d1, 10), **fields))
                for label, fields in EDGE_VARIANTS for d1 in D1_EDGE]
    if name in ("draw2", "draw3"):
        from perfbench.workloads import draw_points
        return [(f"point {k}", cfg) for k, (cfg, _, _) in enumerate(draw_points(int(name[-1]), 48))]
    raise ValueError(f"unknown set {name!r}; expected one of {SETS}")


def config_label(scenario, case, rho) -> str:
    return f"{scenario.value}-{case.value}" + (f" rho={rho:g}" if scenario is Scenario.S1 else "")


def run_set(name: str, solver: str) -> list[dict]:
    """Every (point, objective) pair of a set through `select_strategy`."""
    out = []
    for label, cfg in points(name):
        for objective in Objective:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")     # one per uncertified candidate
                res = select_strategy(cfg, objective, solver)
            out.append({"point": label, "objective": objective.value,
                        "winner": config_label(res.scenario, res.case, res.rho_star),
                        "candidates": [{"config": config_label(o.scenario, o.case, o.rho), "status": o.status,
                                        "bits": o.result.objective_bits.hex(),
                                        "kkt": o.result.kkt_residual.hex(), "iters": o.result.inner_iters}
                                       for o in res.table]})
    return out


def tally(pairs) -> tuple[int, int, int]:
    """(certified, candidates, iterations) of a set."""
    cands = [c for pair in pairs for c in pair["candidates"]]
    return sum(c["status"] == "converged" for c in cands), len(cands), sum(c["iters"] for c in cands)


def compare(a: dict, b: dict) -> list[str]:
    """What changed from the run `a` (the parent) to the run `b`, set by set."""
    lines = []
    for name in [s for s in a["sets"] if s in b["sets"]]:
        pa, pb = a["sets"][name], b["sets"][name]
        (ca, na, ia), (cb, nb, ib) = tally(pa), tally(pb)
        same, flips, winners, drift = 0, [], [], (0.0, None)
        for x, y in zip(pa, pb, strict=True):
            where = f"{x['point']} {x['objective']}"
            if x["winner"] != y["winner"]:
                winners.append(f"  winner {where}: {x['winner']} -> {y['winner']}")
            for u, v in zip(x["candidates"], y["candidates"], strict=True):
                at = f"{where} {u['config']}"
                if (u["status"], u["bits"], u["kkt"]) == (v["status"], v["bits"], v["kkt"]):
                    same += 1
                if u["status"] != v["status"]:
                    flips.append(f"  flip {at}: {u['status']} -> {v['status']}")
                elif u["status"] == "converged":
                    fa, fb = float.fromhex(u["bits"]), float.fromhex(v["bits"])
                    rel = abs(fa - fb) / (1.0 + abs(fb))
                    if rel > drift[0]:
                        drift = (rel, at)
        lines.append(f"{name}: certified {ca}/{na} -> {cb}/{nb}, iterations {ia} -> {ib}, "
                     f"bit-identical {same}/{nb}, {len(flips)} flips, {len(winners)} winner changes, "
                     f"largest certified drift {drift[0]:.2g}" + (f" ({drift[1]})" if drift[1] else ""))
        lines += flips + winners
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--solver", choices=("nb", "quad"))
    parser.add_argument("--sets", nargs="+", choices=SETS, default=list(SETS))
    parser.add_argument("--out", help="write the per-candidate results to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --out files")
    args = parser.parse_args(argv)
    if args.compare:
        runs = []
        for path in args.compare:
            with open(path) as fh:
                runs.append(json.load(fh))
        print("\n".join(compare(*runs)))
        return 0
    if args.solver is None:
        parser.error("--solver is required unless --compare is given")
    run = {"solver": args.solver, "sets": {}}
    for name in args.sets:
        run["sets"][name] = run_set(name, args.solver)
        cert, total, iters = tally(run["sets"][name])
        print(f"{name} {cert}/{total} certified, {iters} iterations", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(run, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
