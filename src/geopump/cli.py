"""Command line front end: configured runs, tabular emission, self checks.

Every command produces a ResultTable and writes it as CSV or JSON.  Output
bytes are a pure function of the effective configuration: floats are
printed with 17 significant digits, metadata keys have a fixed order, and
line endings are LF.  --threads is accepted and validated but changes
neither the bytes nor the parallelism: every kernel runs single-threaded.

Exit codes: 0 success, 1 bad configuration, 2 runtime or I/O failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .asymptotics import p_geometric, p_infinity, p_infinity_axis_route
from .band import DriveCycle, GapClosedError, pump_profile
from .evolution import ZeroFieldError, pump_trace
from .sampling import make_rng, sample_loop_params
from .stability import EmptyCurveError, phase_diagram
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
        _Param("omega", float, 1.0, help="drive angular frequency"),
        _Param("w", float, 1.0, help="intercell hopping"),
        _Param("l", float, 1.0, help="lattice constant"),
        _Param("time_samples", int, 256, help="samples per drive period"),
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


def _as_number(x):
    if isinstance(x, (bool, np.bool_)):
        return int(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x)
    raise TypeError(f"table cells must be numbers, got {type(x).__name__}")


@dataclass(frozen=True)
class ResultTable:
    """Rectangular numeric table plus the metadata needed to re-run it."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        columns = tuple(str(c) for c in self.columns)
        rows = tuple(tuple(_as_number(x) for x in row) for row in self.rows)
        for row in rows:
            if len(row) != len(columns):
                raise ValueError("ragged row: {} cells for {} columns".format(len(row), len(columns)))
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_json(cls, text: str) -> "ResultTable":
        doc = json.loads(text)
        return cls(
            columns=tuple(doc["columns"]),
            rows=tuple(tuple(row) for row in doc["rows"]),
            metadata=dict(doc["metadata"]),
        )


def _format_cell(x) -> str:
    if isinstance(x, int):
        return str(x)
    return format(x, ".17g")


def to_csv(table: ResultTable) -> str:
    lines = [f"# {key} = {value}" for key, value in table.metadata.items()]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_format_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def to_json(table: ResultTable) -> str:
    doc = {
        "metadata": table.metadata,
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def emit(table: ResultTable, cfg: RunConfig) -> list[Path]:
    """Write the table per cfg; stdout when no output path is set."""
    text = to_csv(table) if cfg.format == "csv" else to_json(table)
    if cfg.output_path is None:
        sys.stdout.write(text)
        return []
    path = Path(cfg.output_path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
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
    rows = tuple(
        (j + 1, float(trace.q[j]), float(trace.p[j])) for j in range(p["cycles"])
    )
    return ResultTable(("cycle", "q", "p"), rows, _metadata(cfg))


def _run_asymptote(cfg: RunConfig) -> ResultTable:
    p = cfg.params
    rows = []
    if p["samples"] > 0:
        rng = make_rng(cfg.seed)
        draws = sample_loop_params(rng, p["samples"])
    elif p["theta_grid"] >= 2 and p["phi_grid"] >= 2:
        draws = [
            LoopParams(
                (i + 0.5) * math.pi / p["theta_grid"],
                0.0,
                -HALF_PI + (j + 0.5) * math.pi / p["phi_grid"],
            )
            for i in range(p["theta_grid"])
            for j in range(p["phi_grid"])
        ]
    else:
        raise ConfigError("need samples > 0 or both grids >= 2")
    for lp in draws:
        rows.append(
            (
                lp.theta,
                lp.phi,
                p_infinity(lp),
                p_infinity_axis_route(lp),
                p_geometric(lp.theta),
            )
        )
    return ResultTable(
        ("theta", "phi", "p_inf", "p_inf_axis", "p_g"), tuple(rows), _metadata(cfg)
    )


def _run_phase_diagram(cfg: RunConfig) -> ResultTable:
    p = cfg.params
    diagram = phase_diagram(
        p["theta_grid"],
        p["phi_grid"],
        p["n_max"],
        offset=p["offset"],
        tol=p["tol"],
        workers=cfg.threads,
    )
    rows = []
    for i, theta in enumerate(diagram.theta_values):
        for j, phi in enumerate(diagram.phi_values):
            verdict = diagram.verdicts[i][j]
            rows.append(
                (float(theta), float(phi), int(verdict.stable), verdict.order or 0)
            )
    return ResultTable(("theta", "phi", "stable", "order"), tuple(rows), _metadata(cfg))


def _run_band_scan(cfg: RunConfig) -> ResultTable:
    p = cfg.params
    dc = DriveCycle(
        a=p["a"],
        omega=p["omega"],
        time_samples=p["time_samples"],
        w=p["w"],
        l=p["l"],
    )
    profile = pump_profile(dc, p["k_grid"])
    rows = tuple(
        (float(k), float(theta), float(pg))
        for k, theta, pg in zip(
            profile.k_values, profile.theta_values, profile.p_g_values
        )
    )
    meta = _metadata(cfg)
    meta["tpt_count"] = profile.tpt_count
    return ResultTable(("k", "theta", "p_g"), rows, meta)


def _run_verify(cfg: RunConfig) -> ResultTable:
    from .checks import run_checks

    results = run_checks(cfg.seed)
    meta = _metadata(cfg)
    rows = []
    for i, res in enumerate(results):
        meta[f"check.{i}"] = res.name
        rows.append((i, int(res.passed), res.value))
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} (value={res.value:.6g}, bound={res.bound:.6g})")
    return ResultTable(("check_id", "passed", "value"), tuple(rows), meta)


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
    except (
        GapClosedError,
        EmptyCurveError,
        ZeroFieldError,
        IdentityRotationError,
        ChartBranchError,
    ) as exc:
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
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
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

    if cfg.command == "verify" and any(row[1] == 0 for row in table.rows):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
