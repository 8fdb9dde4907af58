import hashlib
import json
import math

import numpy as np
import pytest

from geopump import ChartBranchError
from geopump.checks import CheckResult
from geopump.cli import (
    ConfigError,
    ResultTable,
    RunConfig,
    emit,
    main,
    run,
    to_csv,
    to_json,
)


def _simulate_cfg(**overrides):
    params = {"theta": 1.0, "omega": 0.0, "phi": 0.2, "cycles": 8}
    base = dict(command="simulate", params=params, seed=0, output_path=None)
    base.update(overrides)
    return RunConfig(**base)


class TestResultTable:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            ResultTable(("a", "b"), ((1.0,),))

    def test_normalizes_numpy_scalars(self):
        table = ResultTable(("a", "b"), ((np.float64(0.5), np.int64(3)),))
        assert table.rows == ((0.5, 3),)
        assert isinstance(table.rows[0][1], int)

    def test_json_round_trip_is_lossless(self):
        table = ResultTable(
            ("x", "y"),
            ((1.0 / 3.0, 7), (math.pi, -2)),
            {"tool": "geopump", "seed": 4},
        )
        back = ResultTable.from_json(to_json(table))
        assert back.columns == table.columns
        assert back.rows == table.rows
        assert back.metadata == table.metadata

    def test_csv_layout(self):
        table = ResultTable(("x",), ((1.0 / 3.0,),), {"command": "demo"})
        text = to_csv(table)
        lines = text.split("\n")
        assert lines[0] == "# command = demo"
        assert lines[1] == "x"
        assert lines[2] == "0.33333333333333331"  # 17 significant digits
        assert text.endswith("\n")


class TestRun:
    def test_simulate_columns_and_rows(self):
        table = run(_simulate_cfg())
        assert table.columns == ("cycle", "q", "p")
        assert len(table.rows) == 8
        assert table.rows[0][0] == 1
        assert table.metadata["param.theta"] == 1.0

    def test_simulate_prefix_mean_consistency(self):
        table = run(_simulate_cfg())
        qs = [row[1] for row in table.rows]
        for i, row in enumerate(table.rows):
            assert row[2] == pytest.approx(sum(qs[: i + 1]) / (i + 1), abs=1e-14)

    def test_asymptote_grid_stays_interior(self):
        cfg = RunConfig(
            "asymptote", {"samples": 0, "theta_grid": 4, "phi_grid": 4}, seed=0
        )
        table = run(cfg)
        assert len(table.rows) == 16
        for theta, phi, p_inf, p_axis, _ in table.rows:
            assert 0.0 < theta < math.pi
            assert abs(phi) < math.pi / 2
            assert abs(p_inf - p_axis) < 1e-10

    def test_asymptote_sampled_rows(self):
        cfg = RunConfig("asymptote", {"samples": 5, "theta_grid": 4, "phi_grid": 4})
        assert len(run(cfg).rows) == 5

    def test_phase_diagram_rows(self):
        cfg = RunConfig(
            "phase-diagram",
            {"theta_grid": 4, "phi_grid": 3, "n_max": 30, "offset": 0.5, "tol": 1e-9},
        )
        table = run(cfg)
        assert table.columns == ("theta", "phi", "stable", "order")
        assert len(table.rows) == 12
        for _, _, stable, order in table.rows:
            assert stable in (0, 1)
            assert (order == 0) == (stable == 0)

    def test_band_scan_metadata_counts_transitions(self):
        cfg = RunConfig(
            "band-scan",
            {"a": 1.0, "omega": 1.0, "w": 1.0, "l": 1.0, "time_samples": 64, "k_grid": 32},
        )
        table = run(cfg)
        assert table.metadata["tpt_count"] == 2
        assert table.columns == ("k", "theta", "p_g")

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            run(RunConfig("explode", {}))

    def test_bad_domain_value_is_config_error(self):
        with pytest.raises(ConfigError):
            run(_simulate_cfg(params={"theta": 9.0, "omega": 0.0, "phi": 0.0, "cycles": 4}))

    def test_bad_format(self):
        with pytest.raises(ConfigError):
            run(_simulate_cfg(format="yaml"))


class TestEmit:
    def test_writes_requested_file(self, tmp_path):
        cfg = _simulate_cfg(output_path=str(tmp_path / "out.csv"))
        paths = emit(run(cfg), cfg)
        assert len(paths) == 1
        text = paths[0].read_text()
        assert text.startswith("# tool = geopump")
        assert "\r" not in text

    def test_stdout_when_no_path(self, capsys):
        cfg = _simulate_cfg()
        assert emit(run(cfg), cfg) == []
        assert capsys.readouterr().out.startswith("# tool = geopump")


class TestMain:
    def test_success_and_determinism(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--theta", "1.0", "--cycles", "32"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_json_output_parses(self, tmp_path):
        out = tmp_path / "run.json"
        assert (
            main(
                [
                    "simulate",
                    "--theta",
                    "0.8",
                    "--cycles",
                    "4",
                    "--format",
                    "json",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        table = ResultTable.from_json(out.read_text())
        assert table.metadata["command"] == "simulate"
        assert len(table.rows) == 4

    def test_missing_required_flag(self):
        assert main(["simulate"]) == 1

    def test_out_of_range_value(self):
        assert main(["simulate", "--theta", "9.0"]) == 1

    def test_no_command(self):
        assert main([]) == 1

    def test_unwritable_output(self, tmp_path):
        argv = [
            "simulate",
            "--theta",
            "1.0",
            "--cycles",
            "2",
            "--out",
            str(tmp_path / "missing" / "out.csv"),
        ]
        assert main(argv) == 2

    def test_threads_do_not_change_bytes(self, tmp_path):
        outs = []
        for threads in ("1", "2", "8"):
            out = tmp_path / f"pd_{threads}.csv"
            argv = [
                "phase-diagram",
                "--theta-grid",
                "8",
                "--phi-grid",
                "8",
                "--n-max",
                "30",
                "--threads",
                threads,
                "--out",
                str(out),
            ]
            assert main(argv) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]


class TestConfigFile:
    def test_merge_with_cli_override(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"theta": 1.0, "cycles": 5, "seed": 3}))
        out = tmp_path / "out.csv"
        argv = [
            "simulate",
            "--config",
            str(cfg_path),
            "--cycles",
            "7",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        text = out.read_text()
        assert "# param.cycles = 7" in text  # flag wins over file
        assert "# param.theta = 1.0" in text
        assert "# seed = 3" in text

    def test_kebab_case_keys_accepted(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"theta-grid": 4, "phi-grid": 4, "n-max": 20}))
        out = tmp_path / "out.csv"
        assert main(["phase-diagram", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert "# param.n_max = 20" in out.read_text()

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"theta": 1.0, "bogus": 2}))
        assert main(["simulate", "--config", str(cfg_path)]) == 1

    def test_command_mismatch_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"command": "band-scan", "theta": 1.0}))
        assert main(["simulate", "--config", str(cfg_path)]) == 1

    def test_wrong_type_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"theta": 1.0, "cycles": "many"}))
        assert main(["simulate", "--config", str(cfg_path)]) == 1

    def test_missing_file_rejected(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1

    def test_invalid_json_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("{not json")
        assert main(["simulate", "--config", str(cfg_path)]) == 1


class TestVerifyCommand:
    def test_passes_and_prints_lines(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS loop-operator-special-unitary" in out
        assert "FAIL" not in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        import geopump.checks as checks

        def fake(seed=0):
            return (CheckResult("doomed-check", False, 1.0, 0.5),)

        monkeypatch.setattr(checks, "run_checks", fake)
        assert main(["verify"]) == 3
        assert "FAIL doomed-check" in capsys.readouterr().out

    def test_table_written_when_requested(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        assert main(["verify", "--out", str(out)]) == 0
        text = out.read_text()
        assert "check_id,passed,value" in text
        assert "# check.0 = loop-operator-special-unitary" in text


class TestPhaseDiagramGolden:
    # SHA-256 of the CSV bytes, pinned when the grid was scanned cell by cell
    @pytest.mark.parametrize(
        "flags,digest",
        [
            (
                ["--theta-grid", "200", "--phi-grid", "200", "--n-max", "200",
                 "--offset", "0.5", "--threads", "1"],
                "9d73ae351f4b8341327abd9b0d37e6ecd9fa2a782856b5f71f52deaa433d27c1",
            ),
            (
                ["--theta-grid", "201", "--phi-grid", "201", "--n-max", "200",
                 "--offset", "0"],
                "0f9cd63d3aca92ff3eb04df8e84712470ab75dbe4e6d675de6e34780c444953f",
            ),
        ],
    )
    def test_bytes_are_pinned(self, tmp_path, flags, digest):
        out = tmp_path / "pd.csv"
        assert main(["phase-diagram", *flags, "--format", "csv", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_chart_branch_failure_is_runtime_exit(monkeypatch, capsys):
    import geopump.cli as cli

    def unmatched(lp):
        raise ChartBranchError("no branch")

    monkeypatch.setattr(cli, "p_infinity_axis_route", unmatched)
    assert main(["asymptote", "--theta-grid", "2", "--phi-grid", "2"]) == 2
    assert "no branch" in capsys.readouterr().err
