"""Driven two-band chain: windings, gap-closing events, and pump profiles.

The chain's Bloch field traces a circle of radius |w| centered at (v, 0)
as the momentum crosses the Brillouin zone, so the winding is 1 exactly
when |v| < |w|.  Sweeping v(t) = a + cos(2 pi t) through one cycle
closes the gap only at the two high-symmetry momenta, where it reduces
to the 1D cycle offset + cos(2 pi t) with offset a - w at k = pi/l and
a + w at k = 0, which crosses zero at t = acos(-offset) / 2 pi and 1 - t,
transversally, when |offset| < 1, and touches it once at |offset| = 1.
A transversal crossing of |v| = |w| always flips the winding, so it
marks a band inversion: the inverted momentum pumps with opening angle
pi while every other momentum stays inert.  `_closings` holds that rule,
and `tpt_events`, `theta_of_k` and `DriveCycle.tpt_count` all read it;
`winding_number(v, w)`, beside `min_gap(v, w)`, is the sampled oracle on
the two hoppings alone.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .asymptotics import p_geometric
from .su2 import _BLOCK, TWO_PI, require_int

GAP_TOL = 1e-10

# winding integration: floor and ceiling on adaptive refinement
_MIN_SAMPLES = 64
_MAX_SAMPLES = 1 << 22
# momenta this close (in lattice phase) to a closing momentum count as it
_K_MATCH_TOL = 1e-9


class GapClosedError(ValueError):
    """The spectral gap is (numerically) closed; the winding is undefined."""


def _require_chain(**params) -> None:
    """Raise ValueError unless every chain parameter is finite."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def min_gap(v: float, w: float) -> float:
    """Minimum of |d(k)| over the zone; the circle's distance to the origin."""
    _require_chain(v=v, w=w)
    return abs(abs(v) - abs(w))


def winding_number(v: float, w: float) -> int:
    """Winding of the Bloch field around the origin over one zone traversal.

    Accumulates wrapped angle increments over a closed momentum path k in
    [-pi, pi] of at least 64 samples, refined until each increment stays
    well below pi, which the circle geometry bounds by the gap.  Raises
    GapClosedError when the gap is below GAP_TOL, or so small that no
    affordable sampling can resolve the winding.
    """
    gap = min_gap(v, w)
    if w == 0.0:
        raise ValueError("winding needs w != 0")
    if gap <= GAP_TOL:
        raise GapClosedError(f"gap {gap:.3e} at v={v}, w={w} is closed")
    needed = 8.0 * abs(w) / gap
    if needed > _MAX_SAMPLES:
        raise GapClosedError(
            f"gap {gap:.3e} at v={v}, w={w} is too small to resolve the winding"
        )
    n = max(_MIN_SAMPLES, int(needed) + 1)
    ks = np.linspace(-math.pi, math.pi, n + 1)
    angles = np.arctan2(w * np.sin(ks), v + w * np.cos(ks))
    increments = np.diff(angles)
    increments = (increments + math.pi) % TWO_PI - math.pi
    return int(round(increments.sum() / TWO_PI))


@dataclass(frozen=True)
class DriveCycle:
    """Periodic drive v(t) = a + cos(2 pi t) over one cycle t in [0, 1).

    w and l are the (static) inter-cell hopping and lattice constant; they
    are keyword-only.  The pump is geometric, so no drive rate enters.
    """

    a: float
    _: KW_ONLY
    w: float = 1.0
    l: float = 1.0

    def __post_init__(self):
        _require_chain(a=self.a, w=self.w, l=self.l)
        if not (self.l > 0.0 and math.isfinite(TWO_PI / self.l)):
            raise ValueError(f"lattice constant l needs l > 0 and finite 2*pi/l, got {self.l}")
        if self.w == 0.0:
            raise ValueError("the chain needs w != 0")

    def v_at(self, time_fraction: float) -> float:
        """Drive value at the given fraction of the cycle."""
        return self.a + math.cos(TWO_PI * time_fraction)

    @property
    def tpt_count(self) -> int:
        """Winding flips over one cycle: two per inverted closing momentum."""
        return 2 * len(_inverted_phases(self))


@dataclass(frozen=True)
class TptEvent:
    """A gap closing within one drive cycle at momentum k_star."""

    time_fraction: float
    k_star: float
    transversal: bool


def _closings(dc: DriveCycle):
    # (lattice phase k*l, crossing fractions, transversal) where the gap closes
    for phase, offset in ((math.pi, dc.a - dc.w), (0.0, dc.a + dc.w)):
        if abs(offset) <= 1.0:  # never for an offset that overflows to +/-inf
            x = math.acos(-offset) / TWO_PI  # 0.5 exactly at offset 1, 0.0 at -1
            transversal = abs(offset) < 1.0
            yield phase, ((x, 1.0 - x) if transversal else (x,)), transversal


def _inverted_phases(dc: DriveCycle) -> list[float]:
    # closing phases where the gap closes transversally, twice a cycle
    return [phase for phase, _, transversal in _closings(dc) if transversal]


def tpt_events(dc: DriveCycle) -> tuple[TptEvent, ...]:
    """All gap closings over one cycle, ordered by time.

    At each high-symmetry momentum the drive reduces to the scalar 1D
    cycle with a shifted offset, so the closings are its zero crossings.
    """
    events = (TptEvent(x, phase / dc.l, t) for phase, xs, t in _closings(dc) for x in xs)
    return tuple(sorted(events, key=lambda e: (e.time_fraction, e.k_star)))


def theta_of_k(dc: DriveCycle, k):
    """Pumping opening angle at momentum k, floats or arrays: pi where k*l
    mod 2*pi is within _K_MATCH_TOL of an inverted closing phase (pi for
    offset a - w, 0 for a + w), else 0, quietly also for non-finite k*l."""
    inverted = np.zeros(np.shape(k), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.remainder(np.multiply(k, dc.l), TWO_PI)
        for star in _inverted_phases(dc):
            gap = np.abs(phase - star)
            inverted |= np.minimum(gap, TWO_PI - gap) < _K_MATCH_TOL
    return np.where(inverted, math.pi, 0.0)[()]


@dataclass(frozen=True)
class PumpProfile:
    """Per-momentum pumping over one drive cycle, plus the inversion count."""

    k_values: np.ndarray
    theta_values: np.ndarray
    p_g_values: np.ndarray
    tpt_count: int


def pump_profile_blocks(dc: DriveCycle, k_grid: int):
    """An iterator of (k, theta, p_g) blocks of at most _BLOCK momenta
    that cover [-pi/l, pi/l) in `k_grid` uniform steps, each momentum bit for
    bit as on the whole grid; the arguments are checked on the call."""
    require_int("k_grid", k_grid, 16)

    def blocks():
        for start in range(0, k_grid, _BLOCK):
            index = np.arange(start, min(start + _BLOCK, k_grid))
            ks = -math.pi / dc.l + (TWO_PI / dc.l) * index / k_grid
            thetas = theta_of_k(dc, ks)
            yield ks, thetas, p_geometric(thetas)

    return blocks()


def pump_profile(dc: DriveCycle, k_grid: int) -> PumpProfile:
    """The blocks of pump_profile_blocks joined, and the drive's tpt_count."""
    ks, thetas, p_g = map(np.concatenate, zip(*pump_profile_blocks(dc, k_grid)))
    return PumpProfile(ks, thetas, p_g, dc.tpt_count)
