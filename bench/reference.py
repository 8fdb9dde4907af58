"""Reference kernels that measure how fast the host runs at a given moment.

The benchmark shares a few cores of a busy machine, whose throughput drifts
by up to a factor of two over minutes.  A CLI call's wall time therefore
says as much about the neighbours as about geopump.  The benchmark reads
the reference kernels below between its timed calls; they are plain Python
written here, so no change to the package can speed them up or slow them
down.  A kernel's mean time over a run, divided by its nominal time, is how
much slower than nominal the host ran; wall times divided by that slow-down
are nominal seconds, the time on a host where the kernels take exactly
their nominal times.

Means, not medians: the kernels' times jump between a fast and a slow level
as neighbours come and go (by a factor of about 1.6), a call lasting
seconds sees the mix of the two, and only a mean measures that mix where a
median snaps to one level.

There are two kernels, each built like one kind of work the package does,
because a busy neighbour slows different work by different amounts:

- `arith`: a recurrence of 2x2 complex matrix products in interpreted code,
  like `stability.classify` and the evolution loops;
- `rows`: a table of float tuples formatted with repr and joined into CSV
  text, like `ResultTable` and the writers, which allocate heavily.  Its
  10-15 MB outgrow the private caches, as the workloads' tables do, so
  that it feels a neighbour's pressure on the shared cache as they do.

The slow-down is the geometric mean of the two kernels' slow-downs.  On
this benchmark's host it tracked all four workloads about as well as the
better single kernel for each, and better than the worse one.
"""

from __future__ import annotations

import gc
import math
import statistics
from time import perf_counter


def _arith() -> complex:
    u00, u01, u10, u11 = 0.6 + 0.3j, -0.5 + 0.4j, 0.5 + 0.4j, 0.6 - 0.3j
    a, b, c, d = 1 + 0j, 0j, 0j, 1 + 0j
    for _ in range(20_000):
        a, b, c, d = u00 * a + u01 * c, u00 * b + u01 * d, u10 * a + u11 * c, u10 * b + u11 * d
        scale = 1.0 / abs(a + d + 1.0)
        a, b, c, d = a * scale, b * scale, c * scale, d * scale
    return a


def _rows() -> int:
    rows = [(i, i * 0.3710993, (i * 0.3710993) ** 0.5) for i in range(1, 60_000)]
    text = "\n".join(",".join(map(repr, row)) for row in rows)
    return len(text)


# name -> (kernel, nominal seconds): about the kernel's time on an idle
# 2-vCPU Xeon VM, so that nominal seconds read close to that host's wall time
KERNELS = {
    "arith": (_arith, 0.040),
    "rows": (_rows, 0.120),
}

MIN_REPEATS = 1  # runs of each kernel in one reading, at the least
BUDGET_SHARE = 0.25  # a reading lasts about this share of the work it brackets
MIN_BUDGET_S = 0.1


class Reference:
    """Reads the kernels between pieces of work and gives the host's
    slow-down over a set of readings.

    A reading runs each kernel for about an eighth of the bracketed
    work's length, so that a long call is compared with more than a glimpse
    of the host.  The collector is off while the kernels run: a full
    collection costs in proportion to everything the process holds, which
    is not the host's speed.
    """

    def __init__(self):
        self.budget_s = MIN_BUDGET_S

    def fit(self, work_s: float) -> None:
        """Size later readings for work that takes about `work_s` seconds."""
        self.budget_s = max(MIN_BUDGET_S, BUDGET_SHARE * work_s)

    def read(self) -> dict[str, float]:
        """Time each kernel now: name -> mean seconds per run."""
        reading = {}
        gc.disable()
        try:
            for name, (kernel, _) in KERNELS.items():
                runs = 0
                start = perf_counter()
                while runs < MIN_REPEATS or perf_counter() - start < self.budget_s / len(KERNELS):
                    kernel()
                    runs += 1
                reading[name] = (perf_counter() - start) / runs
        finally:
            gc.enable()
        return reading

    @staticmethod
    def slowdown(readings: list[dict[str, float]]) -> float:
        """How many times slower than nominal the host ran over these
        readings: the geometric mean over kernels of mean time / nominal."""
        ratios = [statistics.fmean(r[name] for r in readings) / nominal for name, (_, nominal) in KERNELS.items()]
        return math.prod(ratios) ** (1.0 / len(ratios))
