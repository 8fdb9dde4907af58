"""Fresh-interpreter probes started by run.py; not meant to be run by hand.

    python3 bench/child.py import MODULE...
        import geopump.cli, then each MODULE; print the import times as JSON
    python3 bench/child.py run OUT ARG...
        import geopump.cli, run `geopump ARG... --out OUT` once with stdout
        captured; print the exit code and the process's peak RSS as JSON

geopump is imported from the checkout's src/ directory, which run.py puts on
PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
from time import perf_counter


def peak_rss_kib() -> int:
    """This process's peak resident set, in KiB.

    VmHWM counts only memory mapped since this interpreter was exec'd.
    ru_maxrss would also count the parent's resident set at the time it
    spawned this process, which Linux folds in at exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    start = perf_counter()
    import geopump.cli as cli

    report = {"import_cli_s": perf_counter() - start, "geopump": cli.__file__}
    if mode == "import":
        start = perf_counter()
        for module in rest:
            importlib.import_module(module)
        report["import_lazy_s"] = perf_counter() - start
    elif mode == "run":
        out, cli_argv = rest[0], rest[1:]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                report["rc"] = cli.main([*cli_argv, "--out", out])
        except Exception as exc:  # a failed call, reported like an exit code
            report["rc"] = f"raised {exc!r}"
        report["maxrss_kib"] = peak_rss_kib()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
