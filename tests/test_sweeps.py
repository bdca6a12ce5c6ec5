"""Sweep harness: grids, worker-pool determinism and CSV round trips."""

import json
import os

import pytest

from ehcoop import NetworkConfig, Objective, Scenario, SweepSpec, emit_csv, emit_plotdata, run_sweep
from ehcoop.sweeps import (
    CSV_HEADER,
    DISTANCE_RANGE,
    ENERGY_RANGE,
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


def test_csv_round_trip_preserves_numeric_fields(tmp_path):
    rows = run_sweep(tiny_energy_spec())
    path = tmp_path / "sweep.csv"
    emit_csv(rows, path)
    back = read_csv(path)
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        assert (a.scenario, a.case, a.objective_kind, a.status) == (
            b.scenario, b.case, b.objective_kind, b.status)
        assert b.obj_bits == pytest.approx(a.obj_bits, rel=1e-11)
        assert b.t0 == pytest.approx(a.t0, rel=1e-11, abs=1e-11)
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
