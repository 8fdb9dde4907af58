"""Driven two-band chain: windings, gap-closing events, and pump profiles.

The chain's Bloch field traces a circle of radius |w| centered at (v, 0)
as the momentum crosses the Brillouin zone, so the winding is 1 exactly
when |v| < |w|.  Sweeping v(t) = a + cos(2 pi t) through one cycle
closes the gap only at the two high-symmetry momenta; transversal
closings that flip the winding mark band inversions, and each inverted
momentum pumps with opening angle pi while every other momentum stays
inert.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .asymptotics import p_geometric
from .evolution import cosine_cycle_zeros
from .su2 import TWO_PI

GAP_TOL = 1e-10

# winding integration: floor and ceiling on adaptive refinement
_MIN_SAMPLES = 64
_MAX_SAMPLES = 1 << 22
# momenta this close (in lattice phase) to a closing momentum count as it
_K_MATCH_TOL = 1e-9


class GapClosedError(ValueError):
    """The spectral gap is (numerically) closed; the winding is undefined."""


@dataclass(frozen=True)
class ChainParams:
    """Static chain: intra-cell hopping v, inter-cell hopping w, lattice
    constant l."""

    v: float
    w: float
    l: float = 1.0

    def __post_init__(self):
        for name, value in (("v", self.v), ("w", self.w), ("l", self.l)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.l <= 0.0:
            raise ValueError(f"lattice constant must be positive, got {self.l}")


def bloch_vector(k: float, cp: ChainParams) -> tuple[float, float]:
    """In-plane Bloch field (d_x, d_y) at momentum k."""
    return (cp.v + cp.w * math.cos(k * cp.l), cp.w * math.sin(k * cp.l))


def min_gap(cp: ChainParams) -> float:
    """Minimum of |d(k)| over the zone; the circle's distance to the origin."""
    return abs(abs(cp.v) - abs(cp.w))


def winding_number(cp: ChainParams) -> int:
    """Winding of the Bloch field around the origin over one zone traversal.

    Accumulates wrapped angle increments over a closed momentum path of at
    least 64 samples, refined until each increment stays well below pi,
    which the circle geometry bounds by the gap.  Raises GapClosedError
    when the gap is below GAP_TOL, or so small that no affordable sampling
    can resolve the winding.
    """
    if cp.w == 0.0:
        raise ValueError("winding needs w != 0")
    gap = min_gap(cp)
    if gap <= GAP_TOL:
        raise GapClosedError(f"gap {gap:.3e} at v={cp.v}, w={cp.w} is closed")
    needed = 8.0 * abs(cp.w) / gap
    if needed > _MAX_SAMPLES:
        raise GapClosedError(
            f"gap {gap:.3e} at v={cp.v}, w={cp.w} is too small to resolve the winding"
        )
    n = max(_MIN_SAMPLES, int(needed) + 1)
    ks = np.linspace(-math.pi / cp.l, math.pi / cp.l, n + 1)
    angles = np.arctan2(cp.w * np.sin(ks * cp.l), cp.v + cp.w * np.cos(ks * cp.l))
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
        for name, value in (("a", self.a), ("w", self.w), ("l", self.l)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.w == 0.0:
            raise ValueError("the chain needs w != 0")
        if self.l <= 0.0:
            raise ValueError(f"lattice constant must be positive, got {self.l}")

    def v_at(self, time_fraction: float) -> float:
        """Drive value at the given fraction of the cycle."""
        return self.a + math.cos(TWO_PI * time_fraction)


@dataclass(frozen=True)
class TptEvent:
    """A gap closing within one drive cycle at momentum k_star."""

    time_fraction: float
    k_star: float
    transversal: bool


def _closing_momenta(dc: DriveCycle) -> tuple[tuple[float, float], ...]:
    # (momentum, effective 1D drive offset) pairs; the gap can close only
    # where the transverse field component vanishes
    return ((math.pi / dc.l, dc.a - dc.w), (0.0, dc.a + dc.w))


def tpt_events(dc: DriveCycle) -> tuple[TptEvent, ...]:
    """All gap closings over one cycle, ordered by time.

    At each high-symmetry momentum the drive reduces to the scalar 1D
    cycle with a shifted offset, so the closings are its zero crossings.
    """
    events = []
    for k_star, offset in _closing_momenta(dc):
        for ev in cosine_cycle_zeros(offset):
            events.append(TptEvent(ev.time_fraction, k_star, ev.transversal))
    return tuple(sorted(events, key=lambda e: (e.time_fraction, e.k_star)))


def _winding_on_interval(dc: DriveCycle, t0: float, t1: float) -> int:
    # sample strictly inside (t0, t1); retreat to other interior points if
    # a sample accidentally lands on a closed gap
    for shift in (0.5, 0.375, 0.625, 0.25, 0.75, 0.4375, 0.5625):
        t = t0 + shift * (t1 - t0)
        cp = ChainParams(dc.v_at(t % 1.0), dc.w, dc.l)
        try:
            return winding_number(cp)
        except GapClosedError:
            continue
    raise GapClosedError(
        f"no gapped instant found between fractions {t0} and {t1} for a={dc.a}"
    )


def _transversal_flips(dc: DriveCycle, events) -> dict[TptEvent, bool]:
    """Whether the winding differs across each transversal event.

    The winding is evaluated at interior times of the (cyclic) intervals
    between consecutive transversal events; tangential touches never
    change it and are ignored as boundaries.
    """
    m = len(events)
    if m == 0:
        return {}
    windings = []
    for i in range(m):
        t0 = events[i].time_fraction
        t1 = events[(i + 1) % m].time_fraction
        if i == m - 1:
            t1 += 1.0
        windings.append(_winding_on_interval(dc, t0, t1))
    # interval i follows event i; the one before event i is interval i-1
    return {events[i]: windings[i] != windings[i - 1] for i in range(m)}


def _classify_momentum(dc: DriveCycle, k: float) -> float | None:
    """Return the closing momentum k identifies with, or None."""
    phase = (k * dc.l) % TWO_PI
    if min(phase, TWO_PI - phase) < _K_MATCH_TOL:
        return 0.0
    if abs(phase - math.pi) < _K_MATCH_TOL:
        return math.pi / dc.l
    return None


def _inversion_angles(dc: DriveCycle) -> tuple[dict[float, float], int]:
    """Opening angle at each closing momentum, and the winding flip count.

    A closing momentum is inverted (angle pi) when it hosts a transversal
    gap closing across which the winding flips; a tangential touch, or no
    closing at all, leaves it at 0.
    """
    transversal = [e for e in tpt_events(dc) if e.transversal]
    flips = _transversal_flips(dc, transversal)
    angles = {k_star: 0.0 for k_star, _ in _closing_momenta(dc)}
    for event, flipped in flips.items():
        if flipped:
            angles[event.k_star] = math.pi
    return angles, sum(flips.values())


def theta_of_k(dc: DriveCycle, k: float) -> float:
    """Pumping opening angle at momentum k: pi for an inverted momentum,
    0 otherwise."""
    k_star = _classify_momentum(dc, k)
    if k_star is None:
        return 0.0
    return _inversion_angles(dc)[0][k_star]


@dataclass(frozen=True)
class PumpProfile:
    """Per-momentum pumping over one drive cycle, plus the inversion count."""

    k_values: np.ndarray
    theta_values: np.ndarray
    p_g_values: np.ndarray
    tpt_count: int


def pump_profile(dc: DriveCycle, k_grid: int) -> PumpProfile:
    """Opening angles and geometric pump rates over a Brillouin-zone grid.

    The grid covers [-pi/l, pi/l) uniformly.  tpt_count is the number of
    winding flips over the cycle, counted across all transversal
    closings.
    """
    if k_grid < 16:
        raise ValueError(f"k_grid must be >= 16, got {k_grid}")
    ks = -math.pi / dc.l + (TWO_PI / dc.l) * np.arange(k_grid) / k_grid
    angles, tpt_count = _inversion_angles(dc)
    thetas = np.array([angles.get(_classify_momentum(dc, k), 0.0) for k in ks.tolist()])
    return PumpProfile(ks, thetas, p_geometric(thetas), tpt_count)
