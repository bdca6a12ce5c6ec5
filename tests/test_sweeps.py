"""Sweep harness: grids, worker-pool determinism and CSV round trips."""

import json
import os
from dataclasses import replace

import pytest

from ehcoop import (
    NetworkConfig, Objective, Scenario, SolveResult, SweepSpec, emit_csv, emit_plotdata, run_sweep,
    strategy, sweeps,
)
from ehcoop.cli import main
from ehcoop.sweeps import (
    CSV_HEADER,
    DISTANCE_RANGE,
    ENERGY_RANGE,
    MAX_SWEEP_POINTS,
    read_csv,
    worker_count,
)

SUM = Objective.WEIGHTED_SUM
COMMON = Objective.COMMON


def tiny_energy_spec(**kwargs):
    defaults = dict(param="X1", start=100.0, stop=100.0, step=25.0,
                    scenarios=(Scenario.S3, Scenario.S4), objectives=(SUM,))
    defaults.update(kwargs)
    return SweepSpec(**defaults)


# -- spec -------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(param="X2", start=25, stop=300, step=25)
    with pytest.raises(ValueError):
        SweepSpec(param="X1", start=300, stop=25, step=25)
    with pytest.raises(ValueError):
        SweepSpec(param="X1", start=25, stop=300, step=0)
    with pytest.raises(ValueError):
        SweepSpec(param="d1", start=0.2, stop=2.0, step=0.2)  # must stay below d2
    with pytest.raises(ValueError):
        SweepSpec(param="X1", start=25, stop=300, step=25, objectives=())


def test_spec_rejects_an_unknown_solver():
    with pytest.raises(ValueError, match="unknown solver"):
        tiny_energy_spec(solver="bogus")


@pytest.mark.parametrize("step", [1e-7, 1e-320, 275.0 / MAX_SWEEP_POINTS])
def test_tiny_step_is_refused_before_the_points_are_built(step, monkeypatch):
    # 1e-7 asked for 2.75e9 points, 1e-320 for an infinite count
    def values(self):
        raise AssertionError("the sweep points were built")

    monkeypatch.setattr(SweepSpec, "values", values)
    with pytest.raises(ValueError, match="sweep points"):
        SweepSpec("X1", *ENERGY_RANGE[:2], step)


def test_largest_sweep_is_accepted():
    assert len(SweepSpec("X1", 0.0, MAX_SWEEP_POINTS - 1.0, 1.0).values()) == MAX_SWEEP_POINTS


def test_default_grids():
    energy = SweepSpec("X1", *ENERGY_RANGE)
    assert energy.values() == pytest.approx([25.0 * k for k in range(1, 13)])
    distance = SweepSpec("d1", *DISTANCE_RANGE)
    assert distance.values() == pytest.approx([0.2 * k for k in range(1, 10)])


def test_config_at_replaces_the_swept_parameter():
    spec = SweepSpec("X1", *ENERGY_RANGE, base=NetworkConfig(X2=100.0))
    cfg = spec.config_at(150.0)
    assert cfg.X1 == 150.0
    assert cfg.X2 == 100.0


def test_config_at_moves_the_near_user_along_the_line():
    spec = SweepSpec("d1", *DISTANCE_RANGE)
    cfg = spec.config_at(0.6)
    assert cfg.d1 == pytest.approx(0.6)
    assert cfg.du == pytest.approx(1.4)  # users split d2 = 2 between them
    assert cfg.d2 == 2.0


# -- evaluation -------------------------------------------------------------


def test_sweep_rows_and_winner_flag():
    rows = run_sweep(tiny_energy_spec())
    assert len(rows) == 4  # S3/S4 in both cases at one sweep point
    assert all(r.status == "converged" for r in rows)
    winners = [r for r in rows if r.winner]
    assert len(winners) == 1
    assert winners[0].obj_bits == max(r.obj_bits for r in rows)
    assert all(r.rho_star == 0.0 for r in rows)


def test_sweep_marks_one_winner_per_objective():
    rows = run_sweep(tiny_energy_spec(objectives=(SUM, COMMON)))
    assert len(rows) == 8
    for objective in ("sum", "common"):
        group = [r for r in rows if r.objective_kind == objective]
        assert sum(r.winner for r in group) == 1


def test_sweep_winner_breaks_ties_like_select_strategy(monkeypatch):
    # S3-B scores above S3-A by less than TIE_TOL: the earlier row wins, as
    # in select_strategy, where a strict max would flag S3-B
    real = sweeps._solve_candidate
    bits = {(Scenario.S3, "A"): 5.0, (Scenario.S3, "B"): 5.0 * (1 + 1e-8),
            (Scenario.S4, "A"): 4.0, (Scenario.S4, "B"): 4.0}

    def rescored(scenario, case, *args):
        return [replace(o, objective_bits=bits[scenario, case.value])
                for o in real(scenario, case, *args)]

    monkeypatch.setattr(sweeps, "_solve_candidate", rescored)
    rows = run_sweep(tiny_energy_spec())
    assert [(r.scenario, r.case, r.obj_bits) for r in rows if r.winner] == [("S3", "A", 5.0)]
    assert max(rows, key=lambda r: r.obj_bits).case == "B"


def test_sweep_flags_a_screen_with_an_uncertified_candidate(tmp_path):
    # at X1 = 0 the quad S1-B sum screen converges at rho* = 0.6, while rho =
    # 0.3, 0.5 and 0.7 end uncertified; every S1-A candidate certifies
    spec = SweepSpec("X1", 0, 0, 25, scenarios=(Scenario.S1,), solver="quad")
    with pytest.warns(UserWarning, match="S1-B rho=0.3 did not converge"):
        rows = run_sweep(spec)
    assert [(r.case, r.rho_star, r.status, r.weak_screen) for r in rows] == [
        ("A", 0.3, "converged", False), ("B", 0.6, "converged", True)]
    # like the winner flag, it is not written to the table
    path = tmp_path / "sweep.csv"
    emit_csv(rows, path)
    assert not any(row.weak_screen for row in read_csv(path))


def test_sweep_skips_relaying_when_the_link_is_weak():
    spec = tiny_energy_spec(base=NetworkConfig(du=3.0),
                            scenarios=(Scenario.S1, Scenario.S2, Scenario.S3))
    rows = run_sweep(spec)
    skipped = [r for r in rows if r.status == "skipped_relay"]
    assert len(skipped) == 4  # S1 and S2 in both cases
    for row in skipped:
        assert row.obj_bits is None and row.rho_star is None
        assert not row.winner
    assert sum(r.winner for r in rows) == 1


# -- serialization ----------------------------------------------------------


def raising_screens(monkeypatch):
    def screen(*args):
        raise ValueError("no rho, at all")

    monkeypatch.setattr(sweeps, "screen_rho", screen)


def pointless_solves(monkeypatch):
    # the S4 outcomes keep their throughputs but lose their point
    real = sweeps._solve_candidate

    def solve(*args):
        return [replace(o, result=SolveResult.infeasible(o.result.solver)) for o in real(*args)]

    monkeypatch.setattr(sweeps, "_solve_candidate", solve)


FIGURES = ("rho_star", "obj_bits", "b1_bits", "b2_bits", "t0", "t1", "t2", "t3")


def test_csv_round_trip_preserves_numeric_fields(tmp_path, monkeypatch):
    # every row kind: solved, skipped, raised (its comma escaped so the row
    # keeps its 13 fields) and an outcome without a point
    for patch, base, status in (
        (None, NetworkConfig(), "converged"),
        (None, NetworkConfig(du=3.0), "skipped_relay"),
        (raising_screens, NetworkConfig(), "error: ValueError: no rho; at all"),
        (pointless_solves, NetworkConfig(), "infeasible"),
    ):
        with monkeypatch.context() as m:
            if patch:
                patch(m)
            rows = run_sweep(tiny_energy_spec(base=base, scenarios=(Scenario.S1, Scenario.S4)))
        path = tmp_path / "sweep.csv"
        emit_csv(rows, path)
        back = read_csv(path)
        assert len(back) == len(rows)
        assert status in {b.status for b in back}
        # a row without a point keeps only its status
        assert all(getattr(b, name) is None for b in back if b.status != "converged" for name in FIGURES)
        for a, b in zip(rows, back):
            assert (a.sweep_param, a.scenario, a.case, a.objective_kind, a.status.replace(",", ";")) == (
                b.sweep_param, b.scenario, b.case, b.objective_kind, b.status)
            for name in FIGURES:
                if getattr(a, name) is None:
                    assert getattr(b, name) is None
                else:
                    assert getattr(b, name) == pytest.approx(getattr(a, name), rel=1e-11, abs=1e-11)
        # a second emit of the parsed rows is byte-identical
        path2 = tmp_path / "again.csv"
        emit_csv(back, path2)
        assert path2.read_bytes() == path.read_bytes()


def test_csv_header_and_blank_fields(tmp_path):
    spec = tiny_energy_spec(base=NetworkConfig(du=3.0),
                            scenarios=(Scenario.S1, Scenario.S4))
    path = tmp_path / "sweep.csv"
    emit_csv(run_sweep(spec), path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    skipped = [l for l in lines[1:] if l.endswith("skipped_relay")]
    assert skipped
    # value columns stay empty on skipped rows
    assert skipped[0].split(",")[4:12] == [""] * 8


def test_read_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_parallel_sweep_is_byte_identical(tmp_path):
    spec = tiny_energy_spec(objectives=(SUM, COMMON))
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    emit_csv(run_sweep(spec, jobs=1), serial)
    emit_csv(run_sweep(spec, jobs=2), parallel)
    assert serial.read_bytes() == parallel.read_bytes()


def test_plotdata_groups_series(tmp_path):
    rows = run_sweep(tiny_energy_spec())
    path = tmp_path / "plot.json"
    emit_plotdata(rows, path)
    payload = json.loads(path.read_text())
    keys = {(s["scenario"], s["case"], s["objective_kind"]) for s in payload["series"]}
    assert keys == {("S3", "A", "sum"), ("S3", "B", "sum"),
                    ("S4", "A", "sum"), ("S4", "B", "sum")}
    for series in payload["series"]:
        assert len(series["points"]) == 1
        point = series["points"][0]
        assert point["x"] == 100.0
        assert isinstance(point["winner"], bool)


@pytest.mark.parametrize("jobs, n_tasks, cpus, expected", [
    (10_000, 18, 2, 2),   # a huge request is cut to the CPUs
    (10_000, 18, 64, 18),  # and to the tasks
    (2, 18, 2, 2),        # the standard distance sweep keeps both workers
    (4, 1, 8, 1),         # one task runs in this process
    (0, 18, 2, 1),        # library callers asking for none run serially
])
def test_worker_count_clamps_to_tasks_and_cpus(monkeypatch, jobs, n_tasks, cpus, expected):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert worker_count(jobs, n_tasks) == expected


def test_worker_count_without_a_cpu_count_runs_serially(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(8, 18) == 1


def test_failed_single_solve_row_carries_its_reason(monkeypatch):
    # an S3 solve raises: its rows name the exception, the S4 rows still solve
    real = strategy.solve_spec

    def broken_s3(spec, *args):
        if spec.scenario is Scenario.S3:
            raise FloatingPointError("overflow in S3")
        return real(spec, *args)

    monkeypatch.setattr(strategy, "solve_spec", broken_s3)
    with pytest.warns(UserWarning) as record:
        rows = run_sweep(tiny_energy_spec())
    assert [str(w.message) for w in record] == [
        f"S3-{case} rho=0 failed: FloatingPointError: overflow in S3" for case in "AB"]
    assert [(r.scenario, r.status) for r in rows] == [
        ("S3", "error: FloatingPointError: overflow in S3")] * 2 + [("S4", "converged")] * 2
    assert all(r.obj_bits is None and not r.winner for r in rows[:2])
    assert sum(r.winner for r in rows[2:]) == 1


def test_failed_point_records_the_exception_in_the_status(monkeypatch, tmp_path, capsys):
    def broken(*args, **kwargs):
        raise ValueError("no rho, at all")

    monkeypatch.setattr(sweeps, "screen_rho", broken)
    path = tmp_path / "sweep.csv"
    code = main(["sweep-energy", "--start", "100", "--stop", "100", "--step", "25",
                 "--out", str(path)])
    capsys.readouterr()
    assert code == 2
    rows = read_csv(path)
    failed = [r for r in rows if r.scenario == "S1"]
    assert len(failed) == 2
    # the comma of the message is escaped so the row keeps its 13 fields
    assert all(r.status == "error: ValueError: no rho; at all" for r in failed)
    assert all(r.status == "converged" for r in rows if r.scenario != "S1")
