"""Command line front end: configured runs, tabular emission, self checks.

Every command produces a ResultTable, one typed numpy column (int64 or
float64) per named field, and writes it as CSV or JSON.  Output bytes are a
pure function of the effective configuration: CSV prints floats with 17
significant digits and JSON as json.dumps does (repr, and NaN, Infinity),
metadata keys have a fixed order, and line endings are LF.  Every table is
read and written in blocks of at most BLOCK_ROWS rows, so memory while
writing does not grow with the size of the output.  Both formats go
through one writer: each column block is spelled as character planes in
numpy (see _cells), '%.17g' % x or repr(x) for a float and '%d' % n for an
int, and the planes are framed by the format's separators and read out as
rows.  Python spells only the cells the kernel cannot decide, such as
near-ties and non-finite values.  A column block that repeats the previous
block's bits, or runs of equal bits, is spelled once per distinct value,
with the same bytes.  Grid commands put whole theta rows in each block;
simulate computes each block as it is written, so its memory does not grow
with --cycles.  --threads is checked (>= 1) where it is parsed and never
reaches a RunConfig, which checks its own settings when it is built.

Exit codes: 0 success, 1 bad configuration, 2 runtime or I/O failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import p_geometric, p_infinity, p_infinity_axis_route
from .band import DriveCycle, GapClosedError, pump_profile
from .evolution import pump_trace_blocks
from .sampling import make_rng, sample_loop_params
from .stability import _grid_axes, phase_diagram
from .su2 import IdentityRotationError, LoopParams


class ConfigError(ValueError):
    """A flag or config field is unknown, mistyped, or out of range."""


@dataclass(frozen=True)
class _Param:
    name: str
    kind: type
    default: object = None  # None: the parameter is required
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
        _Param("theta", float, help="loop opening angle, radians"),
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
        _Param("a", float, help="static intracell offset"),
        _Param("w", float, 1.0, help="intercell hopping"),
        _Param("l", float, 1.0, help="lattice constant"),
        _Param("k_grid", int, 128, help="momentum grid size"),
    ),
    "verify": (),
}

# resolved like every command's parameters, but kept out of RunConfig.params
_RUN_PARAMS = (
    _Param("seed", int, 0, help="random seed"),
    _Param("threads", int, 1, help="checked (>= 1), then unused: kernels run single-threaded"),
)


@dataclass(frozen=True)
class RunConfig:
    """One run's settings; ConfigError when built with an unknown command or
    format, a negative seed or an output path that is not a non-empty str."""

    command: str
    params: dict
    seed: int = 0
    output_path: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command: {self.command!r}")
        # Path("") is the working directory, which no file can be written to
        out = self.output_path
        if out is not None and not (isinstance(out, str) and out):
            raise ConfigError("field 'out' must be a non-empty string path")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


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


# rows per block: a streamed table computes and a writer formats one
# block at a time, so memory does not grow with the length of the table
BLOCK_ROWS = 4096


def _column_blocks(*columns):
    """Column blocks of BLOCK_ROWS rows (the last one shorter) cut from
    equal-length 1-D columns, as views."""
    n = len(columns[0]) if columns else 0
    for start in range(0, n, BLOCK_ROWS):
        yield tuple(c[start : start + BLOCK_ROWS] for c in columns)


class ResultTable:
    """Named numeric columns plus the metadata needed to re-run them.

    The rows come from a block source: a callable returning a fresh
    iterator of column blocks, each a tuple of one 1-D array per column,
    of at most BLOCK_ROWS rows.  Whole columns passed as `data` are checked
    once and cut into blocks by _column_blocks.  The writers read every
    table through `blocks()`, so a streamed table is computed while it is
    written and never held whole.  `data` is a read-only concatenated copy
    of the blocks, and `rows` the same rows with Python ints and floats;
    both are built on access.  Columns are read-only int64 or float64;
    bool and unsigned input up to 32 bits is cast to int64, and a table
    without rows reads float64 columns.  Dtypes, the column count and
    equal lengths are checked once per column of each block, never per
    cell.  `report` holds lines for stdout, never written into the output.
    """

    def __init__(self, columns, data=None, metadata=None, *, source=None, report=()):
        if (data is None) == (source is None):
            raise ValueError("a table takes either whole columns or a block source")
        self.columns = tuple(str(c) for c in columns)
        self.metadata = {} if metadata is None else metadata
        self.report = tuple(report)
        if data is not None:
            source = functools.partial(_column_blocks, *self._checked(data))
        self._source = source

    def _checked(self, data) -> tuple[np.ndarray, ...]:
        data = tuple(_as_column(c) for c in data)
        if len(data) != len(self.columns):
            raise ValueError(f"{len(data)} data columns for {len(self.columns)} names")
        if len({len(c) for c in data}) > 1:
            raise ValueError(f"ragged columns: lengths {[len(c) for c in data]}")
        return data

    def blocks(self):
        """Iterate the rows as non-empty column blocks of checked columns."""
        return (b for b in map(self._checked, self._source()) if b and len(b[0]))

    @property
    def data(self) -> tuple[np.ndarray, ...]:
        parts = list(zip(*self.blocks()))
        if not parts:
            return self._checked([np.empty(0)] * len(self.columns))
        return self._checked([np.concatenate(p) for p in parts])

    @property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(zip(*(c.tolist() for c in self.data)))


def _reused(col: np.ndarray, last, spell):
    """(bits, planes) of a column block, spelled once per distinct value
    where that gains.  last is what the same column gave in the previous
    block: a block with its bits takes its planes.  A block of runs of
    equal bits, two rows long on average, spells the run starts and repeats
    their planes.  Values are compared as bits, so 0.0 and -0.0 differ."""
    bits = col.view(np.int64)
    if last is not None and np.array_equal(bits, last[0]):
        return last
    last = None  # the caller hands last over, so its planes are freed here
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    if 2 * len(starts) > len(bits):  # runs shorter than two rows on average
        return bits, spell(col)
    return bits, np.repeat(spell(col[starts]), np.diff(starts, append=len(bits)), axis=1)


# rows read out of the character planes at a time: the transposed copy and
# its bytes stay small next to a block's planes, and so does the peak RSS
_TEXT_ROWS = 1024

# a row frame: row start, cell separator, row end, and what joins two rows
_CSV_FRAME = ("", ",", "\n", "")
_JSON_FRAME = ("    [\n      ", ",\n      ", "\n    ]", ",\n")


def _rows(blocks, spell_float, frame):
    """Yield the rows of each column block as text, _TEXT_ROWS rows at a
    time.  Each column block is spelled as character planes (see _cells),
    by spell_float for floats and int_planes for ints, once per distinct
    value where that gains (see _reused).  The planes are stacked with the
    frame's, transposed and read out with the empty slots deleted: every
    row is led by the frame's join and start, and the first row's join is
    cut off its text."""
    from ._cells import int_planes  # on the first write, not at import

    start, sep, end, join = (np.frombuffer(s.encode(), np.uint8)[:, None] for s in frame)
    lead, skip, last = np.concatenate([join, start]), len(join), {}
    for block in blocks:
        n = len(block[0])
        planes = [np.broadcast_to(lead, (len(lead), n))]
        for j, col in enumerate(block):
            spell = spell_float if col.dtype.kind == "f" else int_planes
            last[j] = _reused(col, last.pop(j, None), spell)
            planes += [last[j][1], np.broadcast_to(sep, (len(sep), n))]
        planes[-1] = np.broadcast_to(end, (len(end), n))
        for lo in range(0, n, _TEXT_ROWS):
            part = np.concatenate([p[:, lo : lo + _TEXT_ROWS] for p in planes])
            yield part.T.tobytes().translate(None, b"\0").decode("ascii")[skip:]
            skip = 0


def _csv_blocks(table: ResultTable):
    from ._cells import float_planes  # on the first write, not at import

    lines = [f"# {key} = {value}" for key, value in table.metadata.items()]
    lines.append(",".join(table.columns))
    yield "\n".join(lines) + "\n"
    yield from _rows(table.blocks(), float_planes, _CSV_FRAME)


def _json_blocks(table: ResultTable):
    from ._cells import repr_planes  # on the first write, not at import

    head = json.dumps(
        {"columns": list(table.columns), "metadata": table.metadata}, indent=2, sort_keys=True
    )
    blocks = table.blocks()
    first = next(blocks, None)
    if first is None:
        yield head[:-2] + ',\n  "rows": []\n}\n'
        return
    yield head[:-2] + ',\n  "rows": [\n'
    yield from _rows(itertools.chain([first], blocks), repr_planes, _JSON_FRAME)
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
    # the output path is deliberately not echoed: bytes must not depend on it
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
    cycles = p["cycles"]
    if cycles < 1:
        raise ConfigError("cycles must be a positive integer")

    # streamed: each block is computed as it is written; nothing in it can
    # fail once the drive and the cycle count are valid
    def source():
        start = 1
        for q, mean in pump_trace_blocks(lp, cycles, BLOCK_ROWS):
            yield np.arange(start, start + len(q)), q, mean
            start += len(q)

    return ResultTable(("cycle", "q", "p"), metadata=_metadata(cfg), source=source)


def _grid_blocks(thetas: np.ndarray, phis: np.ndarray, *grids: np.ndarray):
    """Yield column blocks of the product grid, rows along theta: theta,
    phi and each (n_theta, n_phi) array in grids flattened.  Each block
    holds whole theta rows, max(1, BLOCK_ROWS // n_phi) of them, and a
    theta row longer than BLOCK_ROWS comes in pieces."""
    per_block = max(1, BLOCK_ROWS // len(phis))
    for start in range(0, len(thetas), per_block):
        rows = slice(start, start + per_block)
        for lo in range(0, len(phis), BLOCK_ROWS):
            cols, n_rows = slice(lo, lo + BLOCK_ROWS), len(thetas[rows])
            theta, phi = np.repeat(thetas[rows], len(phis[cols])), np.tile(phis[cols], n_rows)
            yield (theta, phi, *(grid[rows, cols].ravel() for grid in grids))


def _require_rows(field: str, rows: int) -> None:
    if 8 * rows > sys.maxsize:  # numpy's message for the float64 column names no field
        raise ConfigError(f"{field} must be at most sys.maxsize // 8 rows, got {rows}")


def _run_asymptote(cfg: RunConfig) -> ResultTable:
    p = cfg.params
    if p["samples"] < 0:
        raise ConfigError("samples must be >= 0")
    if p["samples"] > 0:
        _require_rows("samples", p["samples"])
        draws = sample_loop_params(make_rng(cfg.seed), p["samples"])
        blocks = _column_blocks(*draws)
    elif p["theta_grid"] >= 2 and p["phi_grid"] >= 2:
        thetas, phis = _grid_axes(p["theta_grid"], p["phi_grid"], 0.5)
        blocks = ((theta, 0.0, phi) for theta, phi in _grid_blocks(thetas, phis))
    else:
        raise ConfigError("need samples > 0 or both grids >= 2")
    # every block is computed before anything is written: a +/-identity
    # draw has no axis, and a failed run writes nothing
    rows = [
        (th, ph, p_infinity(th, ph), p_infinity_axis_route(th, om, ph), p_geometric(th))
        for th, om, ph in blocks
    ]
    columns = ("theta", "phi", "p_inf", "p_inf_axis", "p_g")
    return ResultTable(columns, metadata=_metadata(cfg), source=lambda: iter(rows))


def _run_phase_diagram(cfg: RunConfig) -> ResultTable:
    p = cfg.params
    diagram = phase_diagram(
        p["theta_grid"], p["phi_grid"], p["n_max"], offset=p["offset"], tol=p["tol"]
    )
    grid = (diagram.theta_values, diagram.phi_values, diagram.orders > 0, diagram.orders)
    columns = ("theta", "phi", "stable", "order")
    return ResultTable(columns, metadata=_metadata(cfg), source=lambda: _grid_blocks(*grid))


def _run_band_scan(cfg: RunConfig) -> ResultTable:
    p = cfg.params
    _require_rows("k_grid", p["k_grid"])
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
    data = (
        np.arange(len(results)),
        [res.passed for res in results],
        [res.value for res in results],
    )
    report = [
        f"{'PASS' if res.passed else 'FAIL'} {res.name} "
        f"(value={res.value:.6g}, bound={res.bound:.6g})"
        for res in results
    ]
    return ResultTable(("check_id", "passed", "value"), data, meta, report=report)


_HANDLERS = {
    "simulate": _run_simulate,
    "asymptote": _run_asymptote,
    "phase-diagram": _run_phase_diagram,
    "band-scan": _run_band_scan,
    "verify": _run_verify,
}


def run(cfg: RunConfig) -> ResultTable:
    """Dispatch a config, checked when it was built, to its command handler."""
    try:
        return _HANDLERS[cfg.command](cfg)
    except ConfigError:
        raise
    except (GapClosedError, IdentityRotationError) as exc:
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
        for prm in params + _RUN_PARAMS:
            sp.add_argument(
                "--" + prm.name.replace("_", "-"),
                type=prm.kind,
                default=None,
                help=prm.help,
            )
        sp.add_argument("--config", default=None, help="JSON file with defaults")
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
    if isinstance(value, float) and not math.isfinite(value):  # JSON Infinity, NaN
        raise ConfigError(f"field {name!r} must be finite, got {value!r}")
    if kind is int and value != int(value):
        raise ConfigError(f"field {name!r} must be an integer")
    try:
        return kind(value)
    except OverflowError:  # an int too large for a float
        raise ConfigError(f"field {name!r} is too large for a float") from None


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over config-file values over declared defaults."""
    declared = _COMMANDS[args.command]
    file_values = _load_config_file(args.config) if args.config else {}

    known = {p.name for p in declared + _RUN_PARAMS} | {"command", "format", "out"}
    unknown = sorted(set(file_values) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "command" in file_values and file_values["command"] != args.command:
        raise ConfigError(
            f"config file is for {file_values['command']!r}, not {args.command!r}"
        )

    params = {}
    for prm in declared + _RUN_PARAMS:
        cli_value = getattr(args, prm.name)
        if cli_value is not None:
            params[prm.name] = cli_value
        elif prm.name in file_values:
            params[prm.name] = _coerce(prm.name, prm.kind, file_values[prm.name])
        elif prm.default is None:
            raise ConfigError(f"missing required flag --{prm.name.replace('_', '-')}")
        else:
            params[prm.name] = prm.default
    seed = params.pop("seed")
    if params.pop("threads") < 1:  # checked, then dropped: no kernel reads it
        raise ConfigError("threads must be >= 1")

    out = args.out if args.out is not None else file_values.get("out")
    fmt = args.format if args.format is not None else file_values.get("format", "csv")
    return RunConfig(args.command, params, seed, out, fmt)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise ConfigError("choose a command: " + ", ".join(_COMMANDS))
        cfg = build_config(args)
        table = run(cfg)
        for line in table.report:
            print(line)
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
