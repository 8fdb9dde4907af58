import dataclasses
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from geopump import (
    IdentityRotationError,
    LoopParams,
    __version__,
    make_rng,
    p_geometric,
    p_infinity,
    p_infinity_axis_route,
    pump_trace,
    sample_loop_params,
)
from geopump.checks import CheckResult
import geopump.cli as cli
from geopump.su2 import _BLOCK
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
            ResultTable(("a", "b"), ([1.0, 2.0], [3.0]))
        with pytest.raises(ValueError):
            ResultTable(("a", "b"), ([1.0],))
        with pytest.raises(ValueError, match="must be 1-D, got shape"):
            ResultTable(("a",), (np.zeros((2, 2)),))

    def test_normalizes_numpy_scalars(self):
        table = ResultTable(
            ("a", "b", "c", "d"),
            (
                np.array([0.5], dtype=np.float32),
                np.array([3], dtype=np.uint8),
                np.array([True]),
                [np.int64(-2)],
            ),
        )
        assert [c.dtype for c in table.data] == [np.float64, np.int64, np.int64, np.int64]
        assert table.rows == ((0.5, 3, 1, -2),)
        assert [type(x) for x in table.rows[0]] == [float, int, int, int]

    def test_rejects_non_numeric_columns(self):
        with pytest.raises(TypeError):
            ResultTable(("name",), (np.array(["a", "b"]),))
        with pytest.raises(TypeError):
            ResultTable(("obj",), (np.array([1.0, None], dtype=object),))
        with pytest.raises(TypeError):  # would wrap in int64
            ResultTable(("big",), (np.array([2**63], dtype=np.uint64),))

    def test_columns_are_read_only(self):
        q = np.linspace(0.0, 1.0, 4)
        table = ResultTable(("q",), (q,))
        with pytest.raises(ValueError):
            table.data[0][0] = 2.0
        assert q.flags.writeable  # the caller's array is left as it was

    def test_json_round_trip_is_lossless(self):
        table = ResultTable(
            ("x", "y"),
            ([1.0 / 3.0, math.pi], [7, -2]),
            {"tool": "geopump", "seed": 4},
        )
        back = json.loads(to_json(table))
        assert tuple(back["columns"]) == table.columns
        assert tuple(map(tuple, back["rows"])) == table.rows
        assert [type(x) for x in back["rows"][0]] == [float, int]
        assert back["metadata"] == table.metadata

    def test_csv_layout(self):
        table = ResultTable(("x", "n"), ([1.0 / 3.0, 2.0], [5, -1]), {"command": "demo"})
        text = to_csv(table)
        lines = text.split("\n")
        assert lines[0] == "# command = demo"
        assert lines[1] == "x,n"
        assert lines[2] == "0.33333333333333331,5"  # 17 significant digits
        assert lines[3] == "2,-1"
        assert text.endswith("\n")

    def test_block_source_is_read_on_each_use(self):
        calls = []

        def source():
            calls.append(len(calls))
            yield np.arange(3), np.array([0.5, 1.5, 2.5])
            yield np.arange(3, 4), np.array([3.5])

        table = ResultTable(("i", "x"), metadata={"seed": 1}, source=source)
        assert calls == []
        assert table.rows == ((0, 0.5), (1, 1.5), (2, 2.5), (3, 3.5))
        whole = ResultTable(table.columns, table.data, table.metadata)
        assert to_csv(table) == to_csv(whole)
        assert to_json(table) == to_json(whole)
        assert len(calls) == 4

    def test_block_source_is_checked_per_block(self):
        ragged = ResultTable(("a", "b"), source=lambda: iter([([1, 2], [1.0])]))
        with pytest.raises(ValueError):
            to_csv(ragged)
        strings = ResultTable(("a",), source=lambda: iter([(np.array(["x"]),)]))
        with pytest.raises(TypeError):
            to_json(strings)
        empty = ResultTable(("a", "b"), metadata={"seed": 2}, source=lambda: iter([([], [])]))
        assert to_json(empty) == to_json(ResultTable(("a", "b"), ([], []), {"seed": 2}))
        assert [c.dtype for c in empty.data] == [np.float64, np.float64]

    def test_needs_columns_or_a_source(self):
        with pytest.raises(ValueError):
            ResultTable(("a",))
        with pytest.raises(ValueError):
            ResultTable(("a",), ([1],), source=lambda: iter([]))

    @pytest.mark.parametrize(
        "columns,data,metadata",
        [
            pytest.param(("a", "b"), ([], []), {"command": "demo"}, id="empty"),
            pytest.param((), (), {}, id="no-columns"),
            pytest.param(("n", "m"), ([0, -3, 2**62], [1, 0, -(2**63)]), {"seed": 5}, id="ints"),
            pytest.param(
                ("x", "n", "y"),
                ([1.0 / 3.0, 2.0, -1e-300], [5, -1, 0], [math.pi, 0.1, 1e22]),
                {"seed": 0, "param.theta": 0.1},
                id="mixed",
            ),
            pytest.param(
                ("edge", "finite"),
                ([-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf], [0.0] * 6),
                {},
                id="edge-floats",
            ),
            pytest.param(
                ("v",),
                ([0.25],),
                {"say": 'a "quoted" \\ back', "name": "Θ-φ ümlaut ✓", "nan": math.nan},
                id="metadata-strings",
            ),
            # blocks that repeat the previous block's bits, runs of equal
            # bits and varied blocks, in float columns with NaN and +/-inf
            # and in int columns
            pytest.param(
                ("runs", "repeat", "n", "varied"),
                (
                    np.repeat([math.nan, 1.5, -math.inf, 2.0], _BLOCK)[: 3 * _BLOCK + 5],
                    np.resize(np.resize([0.1, math.nan, math.inf], _BLOCK), 3 * _BLOCK + 5),
                    np.repeat(np.arange(_BLOCK + 2), 3)[: 3 * _BLOCK + 5],
                    np.linspace(-1.0, 1.0, 3 * _BLOCK + 5),
                ),
                {},
                id="multi-block",
            ),
        ],
    )
    def test_json_writer_matches_json_dumps(self, columns, data, metadata):
        table = ResultTable(columns, data, metadata)
        doc = {
            "metadata": table.metadata,
            "columns": list(table.columns),
            "rows": [list(row) for row in table.rows],
        }
        assert to_json(table) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
            {"a": 1.0, "w": 1.0, "l": 1.0, "k_grid": 32},
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

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("command", "explode", "unknown command: 'explode'"),
            ("format", "yaml", "format must be csv or json, got 'yaml'"),
            ("seed", -1, "seed must be >= 0"),
            ("output_path", "", "field 'out' must be a non-empty string path"),
            ("output_path", 7, "field 'out' must be a non-empty string path"),
            ("params", {}, "missing required flag --theta"),
            ("params", {"theta": 1.0, "cycles": 2.5}, "field 'cycles' must be an integer"),
            ("params", {"theta": 1.0, "bogus": 1}, "unknown config keys: bogus"),
            ("params", {"theta": 1.0, "cycles": 0}, "cycles must be >= 1"),
            ("seed", 1.5, "field 'seed' must be an integer"),
            ("seed", True, "field 'seed' must be a number"),
            # field None: value holds several settings
            (
                None,
                {"command": "band-scan", "params": {"a": 1.0, "k_grid": 32.5}},
                "field 'k_grid' must be an integer",
            ),
        ],
    )
    def test_bad_setting_fails_when_the_config_is_built(self, field, value, message):
        # emit would write JSON for "yaml", and fail late on the directory "";
        # a missing theta would be a KeyError in run, a cycles of 2.5 a
        # TypeError after the CSV head, and a k_grid of 32.5 would write 33
        # uneven momenta
        with pytest.raises(ConfigError) as info:
            _simulate_cfg(**({field: value} if field else value))
        assert str(info.value) == message

    def test_params_are_resolved_to_their_declared_kinds(self):
        spelled = {"theta": 1, "omega": 0, "phi": 0, "cycles": 8.0}
        cfg = RunConfig("simulate", spelled)
        spelled.update(theta=2.0, bogus=1)  # the config holds its own copy
        floats = RunConfig("simulate", {"theta": 1.0, "omega": 0.0, "phi": 0.0, "cycles": 8})
        assert cfg == floats
        assert [type(v) for v in cfg.params.values()] == [float, float, float, int]
        for write in (to_csv, to_json):
            assert write(run(cfg)) == write(run(floats))

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_declared_defaults_resolve_to_themselves(self, command):
        declared = cli._COMMANDS[command]
        required = {p.name: 1 for p in declared if p.default is None}
        params = RunConfig(command, required).params
        assert params == {p.name: required.get(p.name, p.default) for p in declared}
        assert [type(params[p.name]) for p in declared] == [p.kind for p in declared]
        assert RunConfig(command, params).params == params

    def test_params_are_read_only(self):
        # a value set after the config is built would reach run unchecked
        cfg = RunConfig("simulate", {"theta": 1.0})
        with pytest.raises(TypeError):
            cfg.params["cycles"] = 2.5
        assert cfg.params["cycles"] == 10_000
        assert RunConfig("simulate", cfg.params) == cfg

    def test_threads_is_not_a_run_setting(self):
        assert "threads" not in {f.name for f in dataclasses.fields(RunConfig)}
        with pytest.raises(TypeError):
            _simulate_cfg(threads=1)


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


def _reference_csv(table):
    # one row at a time through the row template
    lines = [f"# {key} = {value}" for key, value in table.metadata.items()]
    lines.append(",".join(table.columns))
    fmt = ",".join("%d" if c.dtype.kind == "i" else "%.17g" for c in table.data)
    lines.extend(fmt % row for row in table.rows)
    return "\n".join(lines) + "\n"


def _reference_json(table):
    head = json.dumps(
        {"columns": list(table.columns), "metadata": table.metadata}, indent=2, sort_keys=True
    )
    if not table.rows:
        return head[:-2] + ',\n  "rows": []\n}\n'
    spell = [
        (lambda x: "%d" % x) if c.dtype.kind == "i"
        else (lambda x: "%r" % x) if np.isfinite(c).all()
        else json.dumps
        for c in table.data
    ]
    rows = []
    for row in table.rows:
        cells = [f(x) for f, x in zip(spell, row)]
        rows.append("    [\n      " + ",\n      ".join(cells) + "\n    ]")
    return head[:-2] + ',\n  "rows": [\n' + ",\n".join(rows) + "\n  ]\n}\n"


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 1.0 / 3.0]


class TestBlockBoundaries:
    @pytest.mark.parametrize(
        "n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_writer_matches_row_by_row(self, tmp_path, capsys, n, fmt):
        i = np.arange(n)
        table = ResultTable(
            ("i", "x", "edge"),
            (i - n // 2, np.sqrt(i) * math.pi, np.resize(_EDGE_FLOATS, n)),
            {"command": "demo", "rows": n},
        )
        want = _reference_csv(table) if fmt == "csv" else _reference_json(table)
        assert (to_csv(table) if fmt == "csv" else to_json(table)) == want
        out = tmp_path / f"t.{fmt}"
        cfg = _simulate_cfg(output_path=str(out), format=fmt)
        assert emit(table, cfg) == [out]
        assert out.read_bytes() == want.encode()
        capsys.readouterr()
        assert emit(table, _simulate_cfg(format=fmt)) == []
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK + 1])
    def test_all_finite_json_rows(self, n):
        # a float column with no NaN or inf takes the repr template
        table = ResultTable(("x", "n"), (np.linspace(-1.0, 1e22, n), np.arange(n)))
        assert to_json(table) == _reference_json(table)
        assert tuple(map(tuple, json.loads(to_json(table))["rows"])) == table.rows

    @pytest.mark.parametrize(
        "n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_simulate_matches_the_whole_trace(self, tmp_path, n, fmt):
        out = tmp_path / f"trace.{fmt}"
        argv = ["simulate", "--theta", "1.1", "--omega", "0.3", "--phi", "0.4"]
        assert main([*argv, "--cycles", str(n), "--format", fmt, "--out", str(out)]) == 0
        trace = pump_trace(LoopParams(1.1, 0.3, 0.4), n)
        meta = {"tool": "geopump", "version": __version__, "command": "simulate",
                "format": fmt, "seed": 0, "param.cycles": n, "param.omega": 0.3,
                "param.phi": 0.4, "param.theta": 1.1}
        whole = ResultTable(("cycle", "q", "p"), (np.arange(1, n + 1), trace.q, trace.p), meta)
        want = _reference_csv(whole) if fmt == "csv" else _reference_json(whole)
        assert out.read_bytes() == want.encode()

    @pytest.mark.parametrize(
        "params",
        [
            pytest.param({"samples": 2 * _BLOCK + 1}, id="draws"),
            pytest.param({"samples": 0, "theta_grid": 91, "phi_grid": 91}, id="grid"),
        ],
    )
    def test_asymptote_matches_the_whole_array_kernels(self, params):
        params = {"theta_grid": 50, "phi_grid": 50, **params}
        table = run(RunConfig("asymptote", params, seed=11))
        assert len(table.data[0]) > 2 * _BLOCK
        if params["samples"]:
            theta, omega, phi = sample_loop_params(make_rng(11), params["samples"])
        else:
            theta, omega, phi = table.data[0], 0.0, table.data[1]
        want = (
            theta,
            phi,
            p_infinity(theta, phi),
            p_infinity_axis_route(theta, omega, phi),
            p_geometric(theta),
        )
        for got, expected in zip(table.data, want):
            assert got.tobytes() == expected.tobytes()


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_signed_zeros_are_told_apart(self, small_blocks, fmt):
        # 0.0 == -0.0 in Python, but their bits and texts differ: within a
        # block of runs, and between two blocks of equal values
        small_blocks(4)
        x = np.array([0.0, 0.0, -0.0, -0.0] + [0.0] * 4 + [-0.0] * 4)
        table = ResultTable(("x", "i"), (x, np.arange(12)))
        if fmt == "csv":
            assert to_csv(table) == _reference_csv(table)
            cells = [line.split(",")[0] for line in to_csv(table).splitlines()[1:]]
            assert cells == ["0", "0", "-0", "-0"] + ["0"] * 4 + ["-0"] * 4
        else:
            assert to_json(table) == _reference_json(table)
            assert [math.copysign(1, r[0]) for r in json.loads(to_json(table))["rows"]] == [
                1, 1, -1, -1, 1, 1, 1, 1, -1, -1, -1, -1
            ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_blocks_one_ulp_apart_are_not_repeats(self, small_blocks, fmt):
        small_blocks(4)
        third, tenth = 1.0 / 3.0, 0.1
        up = np.nextafter(third, 1.0), np.nextafter(0.4, 1.0)
        runs = [third] * 4 + [third] * 3 + [up[0]] + [third] * 3 + [up[0]]
        cycle = [tenth, 0.2, 0.3, 0.4] * 2 + [tenth, 0.2, 0.3, up[1]]
        table = ResultTable(("runs", "cycle"), (runs, cycle))
        want = _reference_csv(table) if fmt == "csv" else _reference_json(table)
        assert (to_csv(table) if fmt == "csv" else to_json(table)) == want

    def test_repeated_nonfinite_json_blocks(self, small_blocks):
        # NaN and +/-inf blocks go through json.dumps, whether repeated,
        # in runs or neither
        small_blocks(4)
        nan, inf = math.nan, math.inf
        x = [nan] * 8 + [inf, inf, -inf, -inf] * 2 + [nan, inf, -inf, 1.5] * 2 + [2.5] * 4
        table = ResultTable(("x", "y"), (x, np.resize([nan, 0.5], len(x))))
        assert to_json(table) == _reference_json(table)
        assert to_csv(table) == _reference_csv(table)

    @pytest.mark.parametrize("n_theta,n_phi", [(5, 3), (2, 4), (4, 7), (3, 10), (1, 15)])
    def test_grid_blocks_hold_whole_theta_rows(self, small_blocks, n_theta, n_phi):
        small_blocks(7)
        thetas, phis = np.arange(n_theta) + 0.5, np.arange(n_phi) / 8.0
        blocks = list(cli._grid_blocks(thetas, phis))
        assert all(0 < len(theta) == len(phi) <= 7 for theta, phi in blocks)
        theta, phi = map(np.concatenate, zip(*blocks))
        assert theta.tolist() == np.repeat(thetas, n_phi).tolist()
        assert phi.tolist() == np.tile(phis, n_theta).tolist()
        if n_phi <= 7:  # whole theta rows: every block starts at phi[0]
            assert all(len(b[1]) % n_phi == 0 and b[1][0] == phis[0] for b in blocks)

    @pytest.mark.parametrize(
        "command,params",
        [
            ("phase-diagram", {"theta_grid": 5, "phi_grid": 3, "n_max": 20}),
            ("phase-diagram", {"theta_grid": 3, "phi_grid": 10, "n_max": 20, "offset": 0.0}),
            ("asymptote", {"samples": 0, "theta_grid": 4, "phi_grid": 5}),
            ("asymptote", {"samples": 0, "theta_grid": 2, "phi_grid": 9}),
            ("simulate", {"theta": 1.1, "omega": 0.3, "phi": 0.4, "cycles": 30}),
            ("band-scan", {"a": 1.0, "k_grid": 40}),
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_grid_commands_across_small_blocks(self, small_blocks, command, params, fmt):
        defaults = {"offset": 0.5, "tol": 1e-9} if command == "phase-diagram" else {}
        cfg = RunConfig(command, {**defaults, **params}, format=fmt)
        write = to_csv if fmt == "csv" else to_json
        whole = write(run(cfg))
        small_blocks(7)
        table = run(cfg)
        assert all(len(block[0]) <= 7 for block in table.blocks())
        assert write(table) == whole
        assert whole == (_reference_csv(table) if fmt == "csv" else _reference_json(table))


def test_asymptote_failing_in_a_later_block_writes_nothing(tmp_path, monkeypatch, capsys):
    draw, kernel, sizes = cli.sample_loop_params, cli.p_infinity_axis_route, []

    def identity_in_second_block(rng, count):
        theta, omega, phi = draw(rng, count)
        # theta = 0, phi = pi: the loop operator is -identity and has no axis
        theta[_BLOCK + 5], phi[_BLOCK + 5] = 0.0, math.pi
        return theta, omega, phi

    def counted(theta, omega, phi):
        sizes.append(len(theta))
        return kernel(theta, omega, phi)

    monkeypatch.setattr(cli, "sample_loop_params", identity_in_second_block)
    monkeypatch.setattr(cli, "p_infinity_axis_route", counted)
    out = tmp_path / "rates.csv"
    assert main(["asymptote", "--samples", str(3 * _BLOCK), "--out", str(out)]) == 2
    assert sizes == [_BLOCK, _BLOCK]
    assert not out.exists()
    assert "rotation equals +/-identity" in capsys.readouterr().err


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_memory_does_not_grow_with_cycles(tmp_path, fmt):
    out = tmp_path / f"trace.{fmt}"

    def simulate(cycles):
        argv = ["simulate", "--theta", "1.1", "--omega", "0.3", "--phi", "0.4",
                "--cycles", str(cycles), "--format", fmt, "--out", str(out)]
        assert main(argv) == 0

    simulate(8)  # allocations made once per process are not per row
    small = _traced_peak(lambda: simulate(4 * _BLOCK))
    large = _traced_peak(lambda: simulate(32 * _BLOCK))
    assert abs(large - small) < 0.25 * 2**20, f"peak {small} -> {large} bytes"


def test_asymptote_memory_per_draw_is_bounded():
    # the three float64 columns of the draws take 24 bytes per draw; the
    # kernels' temporaries are bounded by one block, not by the draw count
    draws = 16 * _BLOCK
    params = {"samples": draws, "theta_grid": 50, "phi_grid": 50}
    run(RunConfig("asymptote", {**params, "samples": 8}, seed=3))
    peak = _traced_peak(lambda: run(RunConfig("asymptote", params, seed=3)))
    assert peak / draws < 32, f"{peak / draws:.1f} bytes per draw"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_asymptote_streams_its_rates(tmp_path, fmt):
    # only the three float64 draw columns grow with --samples, 24 bytes a
    # draw; rates held for every block before writing would add about 40
    out = tmp_path / f"rates.{fmt}"

    def asymptote(samples):
        argv = ["asymptote", "--samples", str(samples), "--seed", "3", "--format", fmt]
        assert main([*argv, "--out", str(out)]) == 0

    asymptote(8)  # allocations made once per process are not per draw
    small = _traced_peak(lambda: asymptote(4 * _BLOCK))
    large = _traced_peak(lambda: asymptote(32 * _BLOCK))
    per_draw = (large - small) / (28 * _BLOCK)
    assert per_draw < 32, f"peak {small} -> {large} bytes, {per_draw:.1f} per extra draw"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_band_scan_streams_its_profile(tmp_path, fmt):
    # each block's momenta, angles and rates are computed as it is written;
    # three whole columns would add 24 bytes a momentum
    out = tmp_path / f"band.{fmt}"

    def band_scan(k_grid):
        argv = ["band-scan", "--a", "1.0", "--k-grid", str(k_grid), "--format", fmt]
        assert main([*argv, "--out", str(out)]) == 0

    band_scan(16)  # allocations made once per process are not per momentum
    small = _traced_peak(lambda: band_scan(4 * _BLOCK))
    large = _traced_peak(lambda: band_scan(64 * _BLOCK))
    per_k = (large - small) / (60 * _BLOCK)
    assert per_k < 4, f"peak {small} -> {large} bytes, {per_k:.1f} per extra momentum"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_memory_stays_below_output_size(tmp_path, fmt):
    out = tmp_path / f"trace.{fmt}"
    params = {"theta": 1.1, "omega": 0.3, "phi": 0.4, "cycles": 200_000}
    cfg = _simulate_cfg(params=params, output_path=str(out), format=fmt)
    table = run(cfg)
    tracemalloc.start()
    try:
        emit(table, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = out.stat().st_size
    assert peak < written / 2, f"peak {peak} bytes while writing {written}"


@pytest.fixture
def failing_csv_writer(monkeypatch):
    """Make CSV output raise ENOSPC after its header and first row block."""
    blocks = cli._csv_blocks

    def fail_after_first_rows(table):
        stream = blocks(table)
        yield next(stream)  # metadata and header
        yield next(stream)  # the first _BLOCK rows
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_csv_blocks", fail_after_first_rows)


def _simulate_argv(out, cycles):
    return ["simulate", "--theta", "1.0", "--cycles", str(cycles), "--out", str(out)]


def test_failed_write_leaves_no_file(tmp_path, failing_csv_writer, capsys):
    out = tmp_path / "out.csv"
    out.write_text("an earlier run\n")
    assert main(_simulate_argv(out, 3 * _BLOCK)) == 2
    assert not out.exists()
    assert "No space left on device" in capsys.readouterr().err


def test_failed_write_keeps_a_symlinked_out(tmp_path, failing_csv_writer):
    target = tmp_path / "target.csv"
    target.write_text("an earlier run\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(_simulate_argv(link, 3 * _BLOCK)) == 2
    # the link is the user's, not this run's; the write went through to the target
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text().startswith("# ")


def test_failed_write_keeps_a_fifo_out(tmp_path, failing_csv_writer):
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    # a non-blocking reader lets the writer open; 8 rows fit the pipe buffer
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(_simulate_argv(fifo, 8)) == 2
        assert os.read(reader, 1 << 16).startswith(b"# ")
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


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
        doc = json.loads(out.read_text())
        assert doc["metadata"]["command"] == "simulate"
        assert doc["columns"] == ["cycle", "q", "p"] and len(doc["rows"]) == 4

    def test_missing_required_flag(self):
        assert main(["simulate"]) == 1

    def test_out_of_range_value(self):
        assert main(["simulate", "--theta", "9.0"]) == 1

    def test_no_command(self):
        assert main([]) == 1

    def test_negative_samples_rejected(self, capsys):
        assert main(["asymptote", "--samples", "-3"]) == 1
        captured = capsys.readouterr()
        assert "samples must be >= 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "grid,message",
        [
            (["--theta-grid", "-3", "--phi-grid", "0"], "grids need at least 2 points per axis"),
            (["--theta-grid", str(2**61), "--phi-grid", "2"], "theta_grid * phi_grid must be"),
        ],
    )
    def test_draws_check_the_grid_flags(self, capsys, grid, message):
        # the grid flags are echoed into the metadata, so draw mode checks them too
        assert main(["asymptote", "--samples", "2", *grid]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {message}")
        assert captured.out == ""

    def test_draws_build_no_grid_axes(self):
        # a 1e9-point theta axis would take 7.5 GiB; the check builds no axis
        cfg = RunConfig("asymptote", {"samples": 5, "theta_grid": 10**9, "phi_grid": 50})
        peak = _traced_peak(lambda: run(cfg))
        assert peak < 2**20, f"peak {peak} bytes"
        assert len(run(cfg).rows) == 5

    @pytest.mark.parametrize("flag", [["--omega", "2"], ["--time-samples", "64"]])
    def test_removed_band_scan_flags_rejected(self, flag):
        assert main(["band-scan", "--a", "1.0", *flag]) == 1

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

    def test_zero_threads_rejected(self, capsys):
        assert main(["simulate", "--theta", "1", "--cycles", "2", "--threads", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: threads must be >= 1\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["phase-diagram", "--theta-grid", "1", "--n-max", "0"], "n_max must lie in"),
            (["simulate", "--theta", "1", "--threads", "0", "--out", ""], "threads must be"),
        ],
    )
    def test_first_reported_error(self, capsys, argv, message):
        # the scan arguments before the grid, --threads before the RunConfig
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")

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

    def test_removed_band_scan_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"a": 1.0, "omega": 2.0}))
        assert main(["band-scan", "--config", str(cfg_path)]) == 1

    def test_bad_format_in_file_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"theta": 1.0, "format": "xml"}))
        assert main(["simulate", "--config", str(cfg_path)]) == 1

    def test_command_mismatch_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"command": "band-scan", "theta": 1.0}))
        assert main(["simulate", "--config", str(cfg_path)]) == 1

    def test_wrong_type_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"theta": 1.0, "cycles": "many"}))
        assert main(["simulate", "--config", str(cfg_path)]) == 1

    @pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
    @pytest.mark.parametrize(
        "command,field", [(["simulate", "--theta", "1"], "cycles"), (["phase-diagram"], "n_max")]
    )
    def test_non_finite_integer_rejected(self, tmp_path, capsys, token, command, field):
        # json.loads accepts these tokens; int() of them is not a config error
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(f'{{"{field}": {token}}}')
        assert main([*command, "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert f"config error: field '{field}' must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_empty_out_rejected(self, tmp_path, capsys, monkeypatch, where):
        # Path("") is the working directory, which is no file to write
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"theta": 1.0, "cycles": 2, "out": ""}))
        argv = ["simulate", "--theta", "1", "--cycles", "2", "--out", ""]
        if where == "file":
            argv = ["simulate", "--config", str(cfg_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "config error: field 'out' must be a non-empty string path" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "value,message",
        [
            ("0", "threads must be >= 1"),
            ("1.5", "field 'threads' must be an integer"),
            ("true", "field 'threads' must be a number"),
        ],
    )
    def test_bad_threads_in_file_rejected(self, tmp_path, capsys, value, message):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(f'{{"theta": 1.0, "cycles": 2, "threads": {value}}}')
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""

    def test_huge_integer_in_float_field_rejected(self, tmp_path, capsys):
        # float() of a 401-digit JSON integer raises OverflowError
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text('{"theta": 1' + "0" * 400 + "}")
        assert main(["simulate", "--cycles", "2", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert "config error: field 'theta'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command,text,field",
        [
            ("phase-diagram", '{"n_max": 1' + "0" * 30 + ', "theta_grid": 2, "phi_grid": 2}', "n_max"),
            ("phase-diagram", '{"theta_grid": 1' + "0" * 30 + "}", "theta_grid"),
            ("asymptote", '{"theta_grid": 1' + "0" * 30 + "}", "theta_grid"),
            ("asymptote", f'{{"theta_grid": {2**62}, "phi_grid": 4}}', "phi_grid"),
            ("asymptote", '{"samples": 1' + "0" * 30 + "}", "samples"),
            ("asymptote", f'{{"samples": {2**62}}}', "samples"),
            ("band-scan", '{"a": 1, "k_grid": 1' + "0" * 30 + "}", "k_grid"),
            ("band-scan", f'{{"a": 1, "k_grid": {2**62}}}', "k_grid"),
            ("asymptote", f'{{"theta_grid": {2**61}, "phi_grid": 2}}', "theta_grid"),
            ("phase-diagram", f'{{"theta_grid": {2**61}, "phi_grid": 2}}', "theta_grid"),
        ],
        ids=[
            "n_max",
            "phase-diagram-grid",
            "asymptote-grid",
            "grid-cells",
            "samples",
            "samples-bytes",
            "k-grid",
            "k-grid-bytes",
            "asymptote-grid-bytes",
            "phase-diagram-grid-bytes",
        ],
    )
    def test_size_past_maxsize_names_its_field(self, tmp_path, capsys, command, text, field):
        # islice and numpy reject these sizes with messages that name no
        # field; a float64 column of N rows needs 8 N <= sys.maxsize bytes
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(text)
        assert main([command, "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and field in captured.err
        assert captured.out == ""

    def test_missing_file_rejected(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1

    def test_invalid_json_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("{not json")
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        cfg_path.write_text('["theta", 1.0]')  # valid JSON, but not an object
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        assert "config file must hold a JSON object" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "fmt,digest",
        [
            ("csv", "e503e922a26d1f4cf302e6b165206dd4fa80adec115dee4ff0d50830f403debf"),
            ("json", "7d79b0bf71de43b30c48d91e0c14ddc6f6ac2393651745ff8fc8bf71a01e7dd9"),
        ],
    )
    def test_failing_seed_is_pinned(self, tmp_path, capsys, fmt, digest):
        # seed 23 draws a near-rational drive whose jump angles fail the
        # equidistribution check: the table is still written, then exit 3
        out = tmp_path / f"verify.{fmt}"
        assert main(["verify", "--seed", "23", "--format", fmt, "--out", str(out)]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL jump-angle-equidistribution (value=0.017922, bound=0.01)"
        ]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


def test_phase_diagram_command_builds_no_verdicts(tmp_path, monkeypatch):
    kernel, diagrams = cli.phase_diagram, []

    def capture(*args, **kwargs):
        diagrams.append(kernel(*args, **kwargs))
        return diagrams[-1]

    monkeypatch.setattr(cli, "phase_diagram", capture)
    out = tmp_path / "pd.csv"
    argv = ["phase-diagram", "--theta-grid", "60", "--phi-grid", "60", "--n-max", "1000"]
    assert main([*argv, "--offset", "0", "--out", str(out)]) == 0
    (diagram,) = diagrams
    assert "verdicts" not in vars(diagram)


def test_identity_rotation_is_runtime_exit(monkeypatch, capsys):
    # IdentityRotationError is a ValueError, yet it names no bad config field
    assert issubclass(IdentityRotationError, ValueError)

    def no_axis(theta, omega, phi):
        raise IdentityRotationError("no axis")

    monkeypatch.setattr(cli, "p_infinity_axis_route", no_axis)
    assert main(["asymptote", "--theta-grid", "2", "--phi-grid", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: no axis")


# SHA-256 of each command's output bytes in both formats; a change to the
# table or its writers must reproduce them
_GOLDEN = [
    (
        ["simulate", "--theta", "1.1", "--omega", "0.3", "--phi", "0.4", "--cycles", "5000"],
        "bd14a54adf745dd25ed71cdfa6b8a4bacfbf4830e3c0c7dc40b6182063867dc5",
        "034c3b38a5b364fcd7bde9d94a8e945206bf97867bf555c9d2224f4e83652241",
    ),
    (
        ["asymptote", "--theta-grid", "30", "--phi-grid", "20"],
        "e38e705c99e73bd084ee74f9de0fecb45b84c3fd8173099a55a00d1cd762c9aa",
        "bac23cc71f62583dc11440317d2378bcc8feeecf77df9d60e35d032457a94f6d",
    ),
    (
        ["asymptote", "--samples", "2000", "--seed", "7"],
        "f5f81e5edb136de9f5ed92d8db9e1df8e3a3c298dfcc17eb92efb4621620d162",
        "6490bda446e5046becbe358b038b1d8e062a49e3f869de6d12386296ed4df770",
    ),
    # three full blocks of drawn rates; row 12244 draws theta = 2.8e-7
    (
        ["asymptote", "--samples", "12288", "--seed", "53"],
        "175b77a41f669aae053a64340dd40715ab1b2accd3415155fb029efa7e59344c",
        "2c429701ffca3cc3e06e886bc5b960b859629053fb12514003772627f8ab02f2",
    ),
    (
        ["phase-diagram", "--theta-grid", "40", "--phi-grid", "30", "--n-max", "100"],
        "60b3c030ac92e3714770c284e282bd9428d1b935062f46ae9807b611ce6cf35b",
        "9f90cd9dc4c72269aaff53c6cb4e167699bde35a1d9087616285dfa6590718ef",
    ),
    # grids written in several blocks: whole theta rows per block, and a
    # theta row longer than one block
    (
        ["phase-diagram", "--theta-grid", "200", "--phi-grid", "200", "--n-max", "200"],
        "9d73ae351f4b8341327abd9b0d37e6ecd9fa2a782856b5f71f52deaa433d27c1",
        "659956fbd053dbcd9d7a393fb9319d568777ba3e326144e171e44fa6df4824d0",
    ),
    (
        ["asymptote", "--theta-grid", "150", "--phi-grid", "60"],
        "67f81211f4a4f89f647226f7db07fa67d1c40dc37df9d8559f8e5241dcf1f28e",
        "296702a2eae345cab97a9788b2ecf4ddfd980b5966af35d62f32ed7ef8898131",
    ),
    (
        ["phase-diagram", "--theta-grid", "3", "--phi-grid", "5000", "--n-max", "5"],
        "827fe154090a14c6df199930cf371f307fe668aa1412f3b974818f2c59c4f646",
        "15b86b097fc15a8505de4573a681ee49e5e654cb07166f77b45fb16872f7520f",
    ),
    (
        ["band-scan", "--a", "1.0", "--k-grid", "256"],
        "3531891a4385debbc117bc18f8df9f4ee95bae8042915d799d4513f00864302b",
        "bb5e02ff4f126dabf8fb20f61ec5da0461a0368f5d17255c47f29cd1413c6408",
    ),
    # a whole-column table over three blocks, the last one partial
    (
        ["band-scan", "--k-grid", "10000", "--a", "1.0"],
        "8f828ffb86ceb5e5948bc9d5c36a8effc7c964257310b9ceb59096de21a39197",
        "24e0c98a4e10f77fe99b37d7b6eb24ee2e64ea0002cdee5983ecbbe0520f669c",
    ),
    (
        ["verify", "--seed", "1"],
        "35e131e5085eee8089d43732e83c8ac523891419ff0487eb799ddf0fb397200c",
        "ec9aa7925094fffd3c1d08c34d693347e77d008dd7d222e63f4efeda01ebcace",
    ),
    # the default seed
    (
        ["verify", "--seed", "0"],
        "9764bbd8d10c2ff81f0ec285c490021aac95e6b3046ba8645917b43ad45a335c",
        "3b6997023b06a9d5f4814109ca073bd1c3d33ee1b2cd483bfda49a808198985d",
    ),
    # the benchmark's seed
    (
        ["verify", "--seed", "3"],
        "70be51f5027e0cf74945d108ed30d7a41f6d28590e27e1bfaf7d968af815cd0d",
        "0f85e7b95f2f2821c0a07113b7fb2655c442e7b6c3f5270b0e3043b4b1ca509a",
    ),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv,csv_digest,json_digest", _GOLDEN, ids=[" ".join(g[0][:3]) for g in _GOLDEN]
)
def test_output_bytes_are_pinned(tmp_path, capsys, argv, csv_digest, json_digest, fmt):
    out = tmp_path / f"out.{fmt}"
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
    digest = csv_digest if fmt == "csv" else json_digest
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# one golden command per subcommand: the drawn rates read math.atan2, and
# verify --seed 3 runs the stacked closed forms and the stable-curve scan
_CAPPED = [_GOLDEN[i] for i in (0, 2, 4, 8, 12)]

# in a child process: whether each named dispatch target is still enabled,
# then the SHA-256 of each command's output
_CAPPED_CHILD = """
import contextlib, hashlib, io, json, sys
from numpy._core import _multiarray_umath as umath
from geopump.cli import main
names, runs, out = json.loads(sys.argv[1])
print(json.dumps([umath.__cpu_features__[name] for name in names]))
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):  # verify's PASS lines
        assert main([*argv, "--out", out]) == 0
    with open(out, "rb") as fh:
        print(hashlib.sha256(fh.read()).hexdigest())
"""


def test_output_bytes_do_not_depend_on_simd_dispatch(tmp_path):
    # NPY_DISABLE_CPU_FEATURES acts on the child process only; naming every
    # target of this build's dispatch list caps numpy at its baseline loops
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    names = getattr(umath, "__cpu_dispatch__", None)
    if not names:
        pytest.skip("numpy names no dispatch targets (private __cpu_dispatch__)")
    assert {g[0][0] for g in _CAPPED} == set(cli._COMMANDS)
    runs = [[*argv, "--format", fmt] for argv, _, _ in _CAPPED for fmt in ("csv", "json")]
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": " ".join(names)}
    args = json.dumps([list(names), runs, str(tmp_path / "out")])
    lines = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHILD, args],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    ).stdout.splitlines()
    assert json.loads(lines[0]) == [False] * len(names)  # the cap took effect
    assert lines[1:] == [digest for _, *digests in _CAPPED for digest in digests]


# --- CSV cell spelling ------------------------------------------------------

def _percent_rows(columns):
    # per cell through Python's %, joined by "," and "\n"
    fmts = ["%d" if c.dtype.kind == "i" else "%.17g" for c in columns]
    rows = zip(*(c.tolist() for c in columns))
    return "".join(",".join(f % v for f, v in zip(fmts, row)) + "\n" for row in rows)


def _csv_rows(columns):
    text = to_csv(ResultTable([f"c{j}" for j in range(len(columns))], columns))
    return text.split("\n", 1)[1]  # past the header line


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


_FLOAT_BITS = st.one_of(
    # any sign, any biased exponent (0: zeros and subnormals, 2047: inf and NaN)
    st.builds(
        lambda sign, exponent, mantissa: (sign << 63 | exponent << 52 | mantissa) - (sign << 64),
        st.integers(0, 1),
        st.integers(0, 2047),
        st.one_of(st.integers(0, 2**52 - 1), st.sampled_from([0, 1, 2**51, 2**52 - 1])),
    ),
    # short decimals: trailing zeros, powers of ten and their neighbourhood
    st.builds(
        lambda m, k: _bits(float(f"{m}e{k}")), st.integers(-(10**6), 10**6), st.integers(-300, 300)
    ),
    # m / 2^k with m * 5^k of about 18 digits: exact 18-digit decimal ties
    st.builds(
        lambda m, k: _bits(math.ldexp(m, -k)), st.integers(-(2**12), 2**12), st.integers(17, 30)
    ),
)
_INT64 = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(10**6), 10**6),
    st.sampled_from([0, 2**63 - 1, -(2**63), -(2**63 - 1), 2**53, -(2**53), 2**53 - 1]),
)
# no shrink phase: shrinking a failing list of 60 cells can take minutes
_SPELLING_SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=400,
    deadline=None,
    phases=[Phase.explicit, Phase.generate],
)


@_SPELLING_SETTINGS
@given(cells=st.lists(st.tuples(_FLOAT_BITS, _INT64), min_size=1, max_size=60))
def test_csv_cells_are_spelled_as_percent_does(cells):
    bits, ints = zip(*cells)
    columns = (np.array(bits, np.int64).view(np.float64), np.array(ints, np.int64))
    assert _csv_rows(columns) == _percent_rows(columns)


def _neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])


@pytest.mark.parametrize(
    "values",
    [
        # exact 18-digit ties, which % rounds half to even; 10^23 is no double
        [1.0 + 2.0**-17] + [m / 2.0**24 for m in range(1, 2000, 2)],
        _neighbours([float(f"1e{k}") for k in range(-300, 301)]),
        _neighbours([9.9999999999999991e-5, 1e-4, 1e16, 1e17, 5e-324, 1e300]),
    ],
    ids=["ties", "powers-of-ten", "edges"],
)
def test_csv_spelling_at_ties_and_powers_of_ten(values):
    x = np.asarray(values, dtype=np.float64)
    columns = (x, -x)
    assert _csv_rows(columns) == _percent_rows(columns)


def test_csv_tie_rounds_half_to_even():
    assert _csv_rows((np.array([1.0 + 2.0**-17]),)) == "1.0000076293945312\n"


# --- JSON cell spelling -----------------------------------------------------

def _json_text(columns):
    return to_json(ResultTable([f"c{j}" for j in range(len(columns))], columns))


def _dumps_text(columns):
    # json spells an int or a finite float by repr, NaN and +/-inf by name
    names = [f"c{j}" for j in range(len(columns))]
    rows = [list(row) for row in zip(*(c.tolist() for c in columns))]
    doc = {"columns": names, "metadata": {}, "rows": rows}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@_SPELLING_SETTINGS
@given(cells=st.lists(st.tuples(_FLOAT_BITS, _INT64), min_size=1, max_size=60))
def test_json_cells_are_spelled_as_repr_does(cells):
    bits, ints = zip(*cells)
    columns = (np.array(bits, np.int64).view(np.float64), np.array(ints, np.int64))
    assert _json_text(columns) == _dumps_text(columns)


@pytest.mark.parametrize(
    "values",
    [
        # asymmetric intervals: the next double down is half as far
        _neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
        # the switch between fixed and scientific notation
        _neighbours([1e-4, 1e-5, 1e16, 1e15, 9.999999999999999e15, 123456789012345.6]),
        # the doubles nearest 10^k, 277 of which lie below it: their
        # shortest digits carry to the next power of ten, as 1e23's do
        [float(f"1e{k}") for k in range(-300, 301)] + [9.999999999999999e22, 9.9999999999999e-5],
        # exact ties at the 17th digit, subnormals, zeros and non-finite values
        [1.0 + 2.0**-17] + [m / 2.0**24 for m in range(1, 2000, 2)]
        + [5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308]
        + [0.0, -0.0, math.nan, math.inf, -math.inf],
    ],
    ids=["powers-of-two", "notation-switch", "carries", "ties-and-specials"],
)
def test_json_spelling_at_edges(values):
    x = np.asarray(values, dtype=np.float64)
    assert _json_text((x, -x)) == _dumps_text((x, -x))


def test_rate_draws_are_spelled_by_the_kernel(monkeypatch):
    # an over-eager fallback keeps every byte and loses the gain, so the
    # share of cells spelled by Python is pinned below 1%
    from geopump import _cells

    finish, counts = _cells._finish, []

    def counted(planes, spell, values, fast):
        counts.append((len(values), int(np.count_nonzero(~fast))))
        return finish(planes, spell, values, fast)

    params = {"samples": 40000, "theta_grid": 50, "phi_grid": 50}
    table = run(RunConfig("asymptote", params, seed=1, format="json"))
    monkeypatch.setattr(_cells, "_finish", counted)
    to_json(table)
    cells, slow = map(sum, zip(*counts))
    assert cells == 5 * 40000
    assert slow <= 0.01 * cells, f"{slow} of {cells} cells spelled by Python"


def test_rate_draw_hypots_run_in_numpy(monkeypatch, capsys):
    # sin_h goes through su2._hypot, which hands an element to math.hypot
    # only at 0, subnormal, huge, inf or NaN legs; a fallback that caught
    # more would keep every byte and lose the gain, so it is pinned below 1%
    from geopump import su2

    port, fallback, counts = su2._hypot, math.hypot, {"port": 0, "math": 0}

    def counted_port(x, y):
        counts["port"] += np.broadcast(x, y).size
        return port(x, y)

    def counted_math(x, y):
        counts["math"] += 1
        return fallback(x, y)

    monkeypatch.setattr(su2, "_hypot", counted_port)
    monkeypatch.setattr(math, "hypot", counted_math)
    assert main(["asymptote", "--samples", "40000", "--seed", "1", "--format", "json"]) == 0
    assert capsys.readouterr().out.count("\n") > 40000
    # one sin_h for p_inf and one for the axis route's identity guard
    assert counts["port"] == 2 * 40000
    assert counts["math"] <= 0.01 * counts["port"], counts


def test_cli_import_builds_no_format_table():
    # a fresh interpreter: importing the CLI neither imports _cells nor
    # builds its tables, the first write of either format does, and
    # nothing imports the bignum modules that would cost set-up time
    code = (
        "import sys\n"
        "import geopump.cli as cli\n"
        "print('geopump._cells' in sys.modules)\n"
        "from geopump import _cells\n"
        "print(_cells._tables.cache_info().currsize)\n"
        "table = cli.ResultTable(('x', 'n'), ([0.1, 2.5e-7], [3, -4]))\n"
        "cli.to_FORMAT(table)\n"
        "print(_cells._tables.cache_info().currsize)\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    for fmt in ("csv", "json"):
        out = subprocess.run(
            [sys.executable, "-c", code.replace("FORMAT", fmt)],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out.split("\n") == ["False", "0", "1", "[]", ""], fmt


def test_json_grid_spells_a_repeated_phi_block_once(tmp_path, monkeypatch):
    # 200^2 comes in ten blocks of 20 theta rows; each block's phi column
    # is the first one's, whose 4000 cells are spelled once, and each
    # theta column is 20 runs, whose starts are spelled
    from geopump import _cells

    spell, sizes = _cells.repr_planes, []

    def counted(x):
        sizes.append(len(x))
        return spell(x)

    monkeypatch.setattr(_cells, "repr_planes", counted)
    out = tmp_path / "pd.json"
    argv = ["phase-diagram", "--theta-grid", "200", "--phi-grid", "200", "--n-max", "200"]
    assert main([*argv, "--format", "json", "--out", str(out)]) == 0
    assert sizes == [20, 4000] + [20] * 9
