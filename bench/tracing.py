"""Spans and counters for the traced run, recorded from outside the package.

Tracing wraps public functions of the geopump modules.  A module that did
`from .su2 import axis_angle_from_euler` holds its own binding of the same
function object, so every binding in every loaded geopump module is
replaced for one traced run and put back after it.  The span stack is a
plain list: the benchmark runs the CLI on one thread only.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, function): each becomes a span named "<module>.<function>"
WRAPPED = (
    ("cli", "main"),
    ("cli", "build_config"),
    ("cli", "run"),
    ("cli", "emit"),
    ("cli", "to_csv"),
    ("cli", "to_json"),
    ("evolution", "pump_trace"),
    ("evolution", "propagate_state"),
    ("evolution", "build_loop_operator"),
    ("stability", "phase_diagram"),
    ("stability", "classify"),
    ("asymptotics", "p_infinity"),
    ("asymptotics", "p_infinity_axis_route"),
    ("asymptotics", "phi_average"),
    ("su2", "axis_angle_from_euler"),
    ("su2", "euler_from_loop"),
    ("su2", "power"),
    ("band", "winding_number"),
    ("band", "pump_profile"),
    ("sampling", "sample_loop_params"),
    ("checks", "run_checks"),
)


def _count_cycles(counts, args, kwargs, result):
    counts["evolution.cycles"] += int(args[1] if len(args) > 1 else kwargs["cycles"])


def _count_verdict(counts, args, kwargs, verdict):
    counts["stability.recurrence_steps"] += verdict.order or verdict.n_max
    counts["stability.stable_points"] += int(verdict.stable)
    counts["stability.marginal_points"] += int(bool(verdict.marginal))


def _count_grid(counts, args, kwargs, diagram):
    counts["stability.grid_points"] += len(diagram.theta_values) * len(diagram.phi_values)
    counts["stability.grid_stable_points"] += sum(v.stable for row in diagram.verdicts for v in row)


def _count_emit(counts, args, kwargs, result):
    table, cfg = args[0], args[1]
    counts["cli.cells"] += len(table.rows) * len(table.columns)
    if cfg.output_path is not None:
        counts["cli.output_bytes"] += Path(cfg.output_path).stat().st_size


# counters derived from a call's arguments and result, applied after the run
_HOOKS = {
    "evolution.pump_trace": _count_cycles,
    "evolution.propagate_state": _count_cycles,
    "stability.classify": _count_verdict,
    "stability.phase_diagram": _count_grid,
    "cli.emit": _count_emit,
}


class Tracer:
    """Records one span per wrapped call: name, parent, start and end.

    Spans stay in memory, one list per traced run; `write` dumps them when
    the benchmark ends.  Counters are worked out after each run, so the
    wrapper itself only reads the clock and appends.
    """

    def __init__(self):
        self.runs: list[list[list]] = []  # per run: [name, parent, start, end] per span
        self.counts: list[Counter] = []  # per run: "<span>.calls" and hook counters
        self._stack = [-1]
        self._spans: list[list] = []
        self._hooked: list[tuple] = []

    @contextlib.contextmanager
    def traced_run(self):
        """Wrap every function in WRAPPED for the duration of one CLI run."""
        self._spans, self._hooked = [], []
        patches = self._install()
        try:
            yield
        finally:
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)
        self.runs.append(self._spans)
        counts = Counter(f"{span[0]}.calls" for span in self._spans)
        for hook, args, kwargs, result in self._hooked:
            hook(counts, args, kwargs, result)
        self.counts.append(counts)
        self._hooked = []

    def _install(self) -> list[tuple[object, str, object]]:
        patches = []
        for module, _ in WRAPPED:
            importlib.import_module(f"geopump.{module}")
        modules = [m for n, m in sys.modules.items() if n == "geopump" or n.startswith("geopump.")]
        for module, func in WRAPPED:
            original = getattr(sys.modules[f"geopump.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patches.append((mod, attr, original))
        return patches

    def _wrap(self, span_name, fn):
        stack = self._stack
        hook = _HOOKS.get(span_name)

        def traced(*args, **kwargs):
            spans = self._spans
            span = [span_name, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if hook is not None:
                self._hooked.append((hook, args, kwargs, result))
            return result

        return traced

    def self_times(self, run: int) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        spans = self.runs[run]
        own = [end - start for _, _, start, end in spans]
        for _, parent, start, end in spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, _, _, _), seconds in zip(spans, own):
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def write(self, path: Path) -> None:
        """All spans as CSV: run, span id, parent id (-1 for a root), name,
        start and end in seconds on the perf_counter clock."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run,span,parent,name,start_s,end_s\n")
            for run, spans in enumerate(self.runs):
                for index, (name, parent, start, end) in enumerate(spans):
                    fh.write(f"{run},{index},{parent},{name},{start!r},{end!r}\n")
