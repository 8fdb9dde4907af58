"""Command line front end: configured runs, tabular emission, self checks.

Every command produces a ResultTable, one typed numpy column (int64 or
float64) per named field, and writes it as CSV or JSON.  Output bytes are a
pure function of the effective configuration: floats are printed with 17
significant digits, metadata keys have a fixed order, and line endings are
LF.  Rows are formatted and written in blocks of a fixed number of rows, so
memory while writing does not grow with the size of the output.  --threads
is accepted and validated but changes neither the bytes nor the
parallelism: every kernel runs single-threaded.

Exit codes: 0 success, 1 bad configuration, 2 runtime or I/O failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .asymptotics import p_geometric, p_infinity_array, p_infinity_axis_array
from .band import DriveCycle, GapClosedError, pump_profile
from .evolution import pump_trace
from .sampling import make_rng, sample_loop_angles
from .stability import phase_diagram
from .su2 import HALF_PI, ChartBranchError, IdentityRotationError, LoopParams


class ConfigError(ValueError):
    """A flag or config field is unknown, mistyped, or out of range."""


@dataclass(frozen=True)
class _Param:
    name: str
    kind: type
    default: object = None
    required: bool = False
    help: str = ""


_COMMON_HELP = {
    "simulate": "pump a single loop drive and tabulate per-cycle records",
    "asymptote": "tabulate long-run pump rates over a grid or random draws",
    "phase-diagram": "classify stability over a parameter grid",
    "band-scan": "map a driven two-band chain onto loop drives",
    "verify": "run the invariant battery and report pass/fail lines",
}

_COMMANDS: dict[str, tuple[_Param, ...]] = {
    "simulate": (
        _Param("theta", float, required=True, help="loop opening angle, radians"),
        _Param("omega", float, 0.0, help="azimuth offset, radians"),
        _Param("phi", float, 0.0, help="phase bias, radians"),
        _Param("cycles", int, 10_000, help="number of pump cycles"),
    ),
    "asymptote": (
        _Param("samples", int, 0, help="random parameter draws; 0 sweeps a grid"),
        _Param("theta_grid", int, 50, help="grid cells along theta"),
        _Param("phi_grid", int, 50, help="grid cells along phi"),
    ),
    "phase-diagram": (
        _Param("theta_grid", int, 100, help="grid cells along theta"),
        _Param("phi_grid", int, 100, help="grid cells along phi"),
        _Param("n_max", int, 200, help="largest cycle order probed"),
        _Param("offset", float, 0.5, help="cell offset in [0,1); 0 includes endpoints"),
        _Param("tol", float, 1e-9, help="off-diagonal threshold for stability"),
    ),
    "band-scan": (
        _Param("a", float, required=True, help="static intracell offset"),
        _Param("w", float, 1.0, help="intercell hopping"),
        _Param("l", float, 1.0, help="lattice constant"),
        _Param("k_grid", int, 128, help="momentum grid size"),
    ),
    "verify": (),
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict
    seed: int = 0
    output_path: Optional[str] = None
    format: str = "csv"
    threads: int = 1


def _as_column(values) -> np.ndarray:
    col = np.asarray(values)
    if col.ndim != 1:
        raise ValueError(f"table columns must be 1-D, got shape {col.shape}")
    if col.dtype.kind in "biu":  # uint64 does not fit and raises TypeError
        col = col.astype(np.int64, copy=False, casting="safe")
    elif col.dtype.kind == "f":
        col = col.astype(np.float64, copy=False)
    else:
        raise TypeError(f"table columns must be numbers, got dtype {col.dtype}")
    col = col.view()  # read-only view; the caller's array stays writable
    col.flags.writeable = False
    return col


@dataclass(frozen=True)
class ResultTable:
    """Named numeric columns plus the metadata needed to re-run them.

    `data` holds one read-only 1-D array per column, int64 or float64;
    bool and unsigned input up to 32 bits is cast to int64.  Dtypes, the
    column count and equal lengths are checked once per column, never per
    cell.  `rows` is a derived view with Python ints and floats.
    """

    columns: tuple[str, ...]
    data: tuple[np.ndarray, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        columns = tuple(str(c) for c in self.columns)
        data = tuple(_as_column(c) for c in self.data)
        if len(data) != len(columns):
            raise ValueError(f"{len(data)} data columns for {len(columns)} names")
        if len({len(c) for c in data}) > 1:
            raise ValueError(f"ragged columns: lengths {[len(c) for c in data]}")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "data", data)

    @property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(zip(*(c.tolist() for c in self.data)))

    @classmethod
    def from_json(cls, text: str) -> "ResultTable":
        doc = json.loads(text)
        columns = tuple(doc["columns"])
        if any(len(row) != len(columns) for row in doc["rows"]):
            raise ValueError(f"ragged rows for {len(columns)} columns")
        return cls(
            columns=columns,
            data=tuple(zip(*doc["rows"])) or ((),) * len(columns),
            metadata=dict(doc["metadata"]),
        )


# rows per formatted block: a writer holds one block's cells and text at a
# time, so memory does not grow with the length of the table
BLOCK_ROWS = 4096


def _row_blocks(columns, row: str, sep: str):
    """Yield the rows as text, BLOCK_ROWS rows per block, each block after
    the first led by `sep`.  A block is one % call: the one-row template
    `row` joined by `sep`, applied to the block's cells interleaved column
    by column.  `columns` holds (array, convert) pairs; convert, if not
    None, maps a block's Python values before they are formatted."""
    n = len(columns[0][0]) if columns else 0
    width = len(columns)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        cells = [None] * ((stop - start) * width)
        for j, (col, convert) in enumerate(columns):
            values = col[start:stop].tolist()
            cells[j::width] = values if convert is None else map(convert, values)
        fmt = sep.join([row] * (stop - start))
        yield (sep + fmt if start else fmt) % tuple(cells)


def _csv_blocks(table: ResultTable):
    lines = [f"# {key} = {value}" for key, value in table.metadata.items()]
    lines.append(",".join(table.columns))
    yield "\n".join(lines) + "\n"
    # '%.17g' % x == format(x, '.17g')
    row = ",".join("%d" if c.dtype.kind == "i" else "%.17g" for c in table.data) + "\n"
    yield from _row_blocks([(c, None) for c in table.data], row, "")


def _json_blocks(table: ResultTable):
    head = json.dumps(
        {"columns": list(table.columns), "metadata": table.metadata}, indent=2, sort_keys=True
    )
    if not table.data or not len(table.data[0]):
        yield head[:-2] + ',\n  "rows": []\n}\n'
        return
    yield head[:-2] + ',\n  "rows": [\n'
    # json spells a finite float as repr() does; columns holding NaN or
    # +/-inf go through json for its NaN/Infinity spelling
    columns, fmts = [], []
    for col in table.data:
        if col.dtype.kind == "i":
            columns.append((col, None))
            fmts.append("%d")
        elif np.isfinite(col).all():
            columns.append((col, None))
            fmts.append("%r")
        else:
            columns.append((col, json.dumps))
            fmts.append("%s")
    row = "    [\n      " + ",\n      ".join(fmts) + "\n    ]"
    yield from _row_blocks(columns, row, ",\n")
    yield "\n  ]\n}\n"


def to_csv(table: ResultTable) -> str:
    """The CSV bytes emit writes, as one string."""
    return "".join(_csv_blocks(table))


def to_json(table: ResultTable) -> str:
    """The JSON bytes emit writes, as one string: those of
    json.dumps(doc, indent=2, sort_keys=True) and a newline."""
    return "".join(_json_blocks(table))


def emit(table: ResultTable, cfg: RunConfig) -> list[Path]:
    """Write the table per cfg, block by block; stdout when no output path
    is set.  A regular file whose writing fails is removed, never left
    truncated; a symlink, device or FIFO at the output path is kept."""
    blocks = _csv_blocks(table) if cfg.format == "csv" else _json_blocks(table)
    if cfg.output_path is None:
        sys.stdout.writelines(blocks)
        return []
    path = Path(cfg.output_path)
    # checked before the open, which follows links; a failed open removes nothing
    is_link = path.is_symlink()
    fh = open(path, "w", encoding="utf-8", newline="")
    removable = not is_link and stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    try:
        with fh:
            fh.writelines(blocks)
    except BaseException:
        if removable:
            path.unlink(missing_ok=True)
        raise
    return [path]


def _metadata(cfg: RunConfig) -> dict:
    # threads and output path are deliberately not echoed: bytes must not
    # depend on worker count or destination
    meta = {
        "tool": "geopump",
        "version": __version__,
        "command": cfg.command,
        "format": cfg.format,
        "seed": cfg.seed,
    }
    for key in sorted(cfg.params):
        meta[f"param.{key}"] = cfg.params[key]
    return meta


def _run_simulate(cfg: RunConfig) -> ResultTable:
    p = cfg.params
    lp = LoopParams(p["theta"], p["omega"], p["phi"])
    if p["cycles"] < 1:
        raise ConfigError("cycles must be a positive integer")
    trace = pump_trace(lp, p["cycles"])
    cycle = np.arange(1, p["cycles"] + 1)
    return ResultTable(("cycle", "q", "p"), (cycle, trace.q, trace.p), _metadata(cfg))


def _run_asymptote(cfg: RunConfig) -> ResultTable:
    p = cfg.params
    if p["samples"] > 0:
        theta, omega, phi = sample_loop_angles(make_rng(cfg.seed), p["samples"])
    elif p["theta_grid"] >= 2 and p["phi_grid"] >= 2:
        n_theta, n_phi = p["theta_grid"], p["phi_grid"]
        theta = np.repeat((np.arange(n_theta) + 0.5) * math.pi / n_theta, n_phi)
        phi = np.tile(-HALF_PI + (np.arange(n_phi) + 0.5) * math.pi / n_phi, n_theta)
        omega = 0.0
    else:
        raise ConfigError("need samples > 0 or both grids >= 2")
    data = (
        theta,
        phi,
        p_infinity_array(theta, phi),
        p_infinity_axis_array(theta, omega, phi),
        p_geometric(theta),
    )
    return ResultTable(("theta", "phi", "p_inf", "p_inf_axis", "p_g"), data, _metadata(cfg))


def _run_phase_diagram(cfg: RunConfig) -> ResultTable:
    p = cfg.params
    diagram = phase_diagram(
        p["theta_grid"],
        p["phi_grid"],
        p["n_max"],
        offset=p["offset"],
        tol=p["tol"],
    )
    verdicts = [v for row in diagram.verdicts for v in row]
    data = (
        np.repeat(diagram.theta_values, len(diagram.phi_values)),
        np.tile(diagram.phi_values, len(diagram.theta_values)),
        [v.stable for v in verdicts],
        [v.order or 0 for v in verdicts],
    )
    return ResultTable(("theta", "phi", "stable", "order"), data, _metadata(cfg))


def _run_band_scan(cfg: RunConfig) -> ResultTable:
    p = cfg.params
    profile = pump_profile(DriveCycle(p["a"], w=p["w"], l=p["l"]), p["k_grid"])
    meta = _metadata(cfg)
    meta["tpt_count"] = profile.tpt_count
    data = (profile.k_values, profile.theta_values, profile.p_g_values)
    return ResultTable(("k", "theta", "p_g"), data, meta)


def _run_verify(cfg: RunConfig) -> ResultTable:
    from .checks import run_checks

    results = run_checks(cfg.seed)
    meta = _metadata(cfg)
    for i, res in enumerate(results):
        meta[f"check.{i}"] = res.name
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} (value={res.value:.6g}, bound={res.bound:.6g})")
    data = (
        np.arange(len(results)),
        [res.passed for res in results],
        [res.value for res in results],
    )
    return ResultTable(("check_id", "passed", "value"), data, meta)


_HANDLERS = {
    "simulate": _run_simulate,
    "asymptote": _run_asymptote,
    "phase-diagram": _run_phase_diagram,
    "band-scan": _run_band_scan,
    "verify": _run_verify,
}


def run(cfg: RunConfig) -> ResultTable:
    """Dispatch a validated config to its command handler."""
    if cfg.command not in _HANDLERS:
        raise ConfigError(f"unknown command: {cfg.command!r}")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg.format!r}")
    if cfg.threads < 1:
        raise ConfigError("threads must be >= 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    try:
        return _HANDLERS[cfg.command](cfg)
    except ConfigError:
        raise
    except (GapClosedError, IdentityRotationError, ChartBranchError) as exc:
        raise RuntimeError(f"{exc} (command={cfg.command}, params={cfg.params})") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config errors are exit 1
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="geopump", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    for name, params in _COMMANDS.items():
        sp = sub.add_parser(name, help=_COMMON_HELP[name])
        for prm in params:
            sp.add_argument(
                "--" + prm.name.replace("_", "-"),
                type=prm.kind,
                default=None,
                help=prm.help,
            )
        sp.add_argument("--config", default=None, help="JSON file with defaults")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--threads", type=int, default=None)
        sp.add_argument("--format", choices=("csv", "json"), default=None)
        sp.add_argument("--out", default=None, help="output path; stdout when absent")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    return {str(key).replace("-", "_"): value for key, value in raw.items()}


def _coerce(name: str, kind: type, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {name!r} must be a number")
    if kind is int and value != int(value):
        raise ConfigError(f"field {name!r} must be an integer")
    return kind(value)


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over config-file values over declared defaults."""
    declared = _COMMANDS[args.command]
    file_values = _load_config_file(args.config) if args.config else {}

    known = {p.name for p in declared} | {"command", "seed", "threads", "format", "out"}
    unknown = sorted(set(file_values) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "command" in file_values and file_values["command"] != args.command:
        raise ConfigError(
            f"config file is for {file_values['command']!r}, not {args.command!r}"
        )

    params = {}
    for prm in declared:
        cli_value = getattr(args, prm.name)
        if cli_value is not None:
            params[prm.name] = cli_value
        elif prm.name in file_values:
            params[prm.name] = _coerce(prm.name, prm.kind, file_values[prm.name])
        elif prm.required:
            raise ConfigError(f"missing required flag --{prm.name.replace('_', '-')}")
        else:
            params[prm.name] = prm.default

    def scalar(name, kind, default):
        cli_value = getattr(args, name)
        if cli_value is not None:
            return cli_value
        if name in file_values:
            return _coerce(name, kind, file_values[name])
        return default

    fmt = args.format if args.format is not None else file_values.get("format", "csv")
    out = args.out if args.out is not None else file_values.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("field 'out' must be a string path")

    return RunConfig(
        command=args.command,
        params=params,
        seed=scalar("seed", int, 0),
        output_path=out,
        format=fmt,
        threads=scalar("threads", int, 1),
    )


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise ConfigError("choose a command: " + ", ".join(_COMMANDS))
        cfg = build_config(args)
        table = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if not (cfg.command == "verify" and cfg.output_path is None):
            emit(table, cfg)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2

    if cfg.command == "verify" and not table.data[table.columns.index("passed")].all():
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
