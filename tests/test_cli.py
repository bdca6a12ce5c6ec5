"""Command-line entry points: exit codes, config files, sweep output."""

import os
from dataclasses import replace

import pytest

from ehcoop import cli, sweeps
from ehcoop.cli import UsageError, build_network_config, build_parser, load_config, main
from ehcoop.sweeps import CSV_HEADER


def test_solve_prints_a_report(capsys):
    code = main(["solve", "--scenario", "S4", "--case", "A"])
    out = capsys.readouterr().out
    assert code == 0
    assert "S4-A" in out
    assert "objective" in out
    assert "converged" in out


def test_solve_both_solvers_reports_agreement(capsys):
    code = main(["solve", "--scenario", "S3", "--case", "B", "--solver", "both"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[nb]" in out and "[quad]" in out
    assert "solver agreement" in out


@pytest.mark.parametrize("gap, expected", [(1e-3, 2), (1e-5, 0)])
def test_solve_both_exits_two_when_the_solvers_disagree(gap, expected, monkeypatch, capsys):
    real = cli.solve_spec

    def skewed(spec, cfg, solver):
        result, tp = real(spec, cfg, solver)
        if solver == "quad":
            result = replace(result, objective_bits=result.objective_bits * (1.0 + gap))
        return result, tp

    monkeypatch.setattr(cli, "solve_spec", skewed)
    code = main(["solve", "--scenario", "S3", "--case", "B", "--solver", "both"])
    err = capsys.readouterr().err
    assert code == expected
    assert ("disagree" in err) == (expected == 2)


def test_solve_both_without_an_allocation_prints_no_agreement(capsys):
    # no start point at 1e-6 mW: both solvers report infeasible
    code = main(["solve", "--scenario", "S4", "--case", "A", "--X1", "1e-6", "--X2", "1e-6",
                 "--solver", "both"])
    out = capsys.readouterr().out
    assert code == 2
    assert "[nb]" in out and "[quad]" in out
    assert "agreement" not in out and "nan" not in out


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--scenario", "S4", "--case", "A", "--frequency", "2.4"])
    assert exc.value.code == 1


def test_missing_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_out_of_range_rho_exits_two(capsys):
    # rho beyond the decode limit is a bad problem, not bad usage
    code = main(["solve", "--scenario", "S1", "--case", "A", "--rho", "0.9"])
    assert code == 2
    assert "rho" in capsys.readouterr().err


def test_rho_at_its_upper_limit_exits_two(capsys):
    # 0.75 is rho_max at the default geometry, the open end of the range
    code = main(["solve", "--scenario", "S1", "--case", "A", "--rho", "0.75"])
    assert code == 2
    assert "rho" in capsys.readouterr().err


def test_rho_on_other_scenarios_exits_two(capsys):
    code = main(["solve", "--scenario", "S3", "--case", "A", "--rho", "0.2"])
    assert code == 2


def test_config_file_with_alias_and_comments(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text("lambda = 2.0\nX1 = 50  # mW\n\nd1 = 0.8\n")
    values = load_config(path)
    assert values == {"lam": 2.0, "X1": 50.0, "d1": 0.8}


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text("X1 = 50\nX2 = 80\n")
    args = build_parser().parse_args(
        ["solve", "--scenario", "S4", "--case", "A",
         "--config", str(path), "--X1", "75"])
    cfg = build_network_config(args)
    assert cfg.X1 == 75.0
    assert cfg.X2 == 80.0


def test_config_unknown_key_is_a_usage_error(tmp_path):
    path = tmp_path / "net.cfg"
    for key in ("bogus", "sigma2_U2"):   # U2's noise power is not a parameter of the model
        path.write_text(f"{key} = 1\n")
        with pytest.raises(UsageError, match="unknown key"):
            load_config(path)
        code = main(["solve", "--scenario", "S4", "--case", "A", "--config", str(path)])
        assert code == 1


def test_config_bad_number_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "net.cfg"
    path.write_text("X1 = fast\n")
    code = main(["solve", "--scenario", "S4", "--case", "A", "--config", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "net.cfg:1" in err


def test_config_inconsistent_values_exit_one(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text("d1 = 3.0\n")  # puts U1 beyond U2
    code = main(["solve", "--scenario", "S4", "--case", "A", "--config", str(path)])
    assert code == 1


def test_screen_rho_command(capsys):
    code = main(["screen-rho", "--case", "B", "--objective", "sum"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rho* = 0.3" in out


def test_select_command(capsys):
    code = main(["select", "--objective", "common"])
    out = capsys.readouterr().out
    assert code == 0
    assert "best configuration: S1-A" in out


def test_select_without_energy_reports_a_plain_zero(capsys):
    # every configuration converges to 0 bits; the sign of a zero is noise
    code = main(["select", "--X1", "0", "--X2", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "objective : 0.000000 bits" in out
    assert "-0.000000" not in out


def test_select_with_zero_weights_exits_one(capsys):
    code = main(["select", "--w1", "0", "--w2", "0"])
    assert code == 1
    assert "weight" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["select"], ["screen-rho", "--case", "A"],
                                     ["sweep-energy"], ["sweep-distance"]])
def test_solver_both_is_a_usage_error_beyond_solve(command, capsys):
    # only solve runs both solvers; the other commands would run nb alone
    with pytest.raises(SystemExit) as exc:
        main(command + ["--solver", "both"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ehcoop ")
    assert "--solver: invalid choice: 'both'" in err


def test_sweep_energy_writes_deterministic_csv(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    base = ["sweep-energy", "--start", "100", "--stop", "125", "--step", "25"]
    assert main(base + ["--out", str(first)]) == 0
    assert main(base + ["--out", str(second), "--jobs", "2"]) == 0
    capsys.readouterr()
    text = first.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert first.read_bytes() == second.read_bytes()
    # two sweep points, eight configurations each
    assert len(text.splitlines()) == 1 + 2 * 8


def test_sweep_rejects_bad_range(capsys):
    code = main(["sweep-distance", "--start", "0.5", "--stop", "2.5", "--step", "0.5"])
    assert code == 1
    assert "d1" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(jobs, capsys):
    code = main(["sweep-distance", "--start", "0.2", "--stop", "0.2", "--step", "0.2",
                 "--jobs", jobs])
    assert code == 1
    assert "--jobs" in capsys.readouterr().err


def test_sweep_with_huge_jobs_starts_no_pool_for_one_point(monkeypatch, capsys):
    # one sweep point is one task, so the request is cut to one worker and
    # the sweep runs in this process
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")
    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", no_pool)
    code = main(["sweep-energy", "--start", "100", "--stop", "100", "--step", "25",
                 "--jobs", "10000"])
    capsys.readouterr()
    assert code == 0


def test_sweep_plotdata_output(tmp_path, capsys):
    path = tmp_path / "plot.json"
    code = main(["sweep-energy", "--start", "100", "--stop", "100", "--step", "25",
                 "--plotdata", str(path)])
    capsys.readouterr()
    assert code == 0
    assert path.exists()


def test_validate_reports_all_checks(capsys):
    code = main(["validate"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)
    assert "checks passed" in out


def test_validate_without_relaying_checks_the_s3_derivatives(capsys):
    # du = 3 makes the inter-user link weaker than U2's direct link
    code = main(["validate", "--du", "3"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)
    assert sum("derivatives" in l and "S3-A" in l for l in lines) == 2


@pytest.mark.parametrize("flags", [["--X1", "0"], ["--X2", "0"], ["--du", "3", "--X1", "0"]])
def test_validate_without_energy_at_one_user_passes(flags, capsys):
    # the derivative probe runs on the presolved program, away from y = 0
    code = main(["validate", *flags])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)


def test_validate_without_an_interior_point_exits_two(capsys):
    # budgets too small for the start margin leave no interior point to probe
    code = main(["validate", "--X1", "1e-6", "--X2", "1e-6"])
    assert code == 2
    assert "S1-A program has no interior point" in capsys.readouterr().err


def test_sweep_energy_from_zero_energy_reports_plain_zeros(capsys):
    code = main(["sweep-energy", "--X2", "0", "--start", "0", "--stop", "50", "--step", "25",
                 "--objective", "both"])
    out = capsys.readouterr().out
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 3 * 2 * 8
    assert all(" converged" in r for r in rows)
    at_zero = [r for r in rows if r.startswith("X1=0 ")]
    assert len(at_zero) == 16
    assert all(" 0.000000 converged" in r for r in at_zero)
    assert "-0.000000" not in out


def test_sweep_distance_without_energy_converges_everywhere(capsys):
    code = main(["sweep-distance", "--X1", "0", "--X2", "0"])
    out = capsys.readouterr().out
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 9 * 8
    assert all(r.endswith((" 0.000000 converged", " 0.000000 converged *")) for r in rows)


def test_sweep_with_huge_jobs_asks_for_at_most_one_worker_per_cpu(monkeypatch, capsys):
    # the executor is replaced before it starts, so no pool of any size runs
    asked = []

    class Recorder:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", Recorder)
    code = main(["sweep-energy", "--start", "100", "--stop", "125", "--step", "25",
                 "--objective", "both", "--jobs", "100000"])
    capsys.readouterr()
    assert code == 0
    cpus = os.cpu_count() or 1
    assert asked == ([] if cpus == 1 else [min(4, cpus)])
    assert all(n <= cpus for n in asked)
