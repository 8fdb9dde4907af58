"""Driven two-band chain: windings, gap-closing events, and pump profiles.

The chain's Bloch field traces a circle of radius |w| centered at (v, 0)
as the momentum crosses the Brillouin zone, so the winding is 1 exactly
when |v| < |w|.  Sweeping v(t) = a + cos(2 pi t) through one cycle
closes the gap only at the two high-symmetry momenta, where it reduces
to the 1D cycle offset + cos(2 pi t) with offset a - w at k = pi/l and
a + w at k = 0.  That closing is transversal exactly when |offset| < 1,
and a transversal crossing of |v| = |w| always flips the winding, so it
marks a band inversion: the inverted momentum pumps with opening angle
pi while every other momentum stays inert.  The rule reads the offsets
in closed form; `winding_number` is the independent, sampled route.
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


def _require_chain(**params) -> None:
    """Raise ValueError unless every chain parameter is finite and the
    lattice constant l has l > 0 and a finite 2*pi/l."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    l = params["l"]
    if not (l > 0.0 and math.isfinite(TWO_PI / l)):
        raise ValueError(f"lattice constant l needs l > 0 and finite 2*pi/l, got {l}")


@dataclass(frozen=True)
class ChainParams:
    """Static chain: intra-cell hopping v, inter-cell hopping w, lattice
    constant l."""

    v: float
    w: float
    l: float = 1.0

    def __post_init__(self):
        _require_chain(v=self.v, w=self.w, l=self.l)


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
        _require_chain(a=self.a, w=self.w, l=self.l)
        if self.w == 0.0:
            raise ValueError("the chain needs w != 0")

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

    A closing momentum is inverted (angle pi) exactly when its offset
    satisfies |offset| < 1, so that the gap closes there transversally; a
    tangential touch (|offset| = 1), or no closing at all, leaves it at 0.
    Every transversal closing flips the winding, so the flip count is the
    number of transversal closings.
    """
    angles = {}
    flips = 0
    for k_star, offset in _closing_momenta(dc):
        crossings = sum(e.transversal for e in cosine_cycle_zeros(offset))
        angles[k_star] = math.pi if crossings else 0.0
        flips += crossings
    return angles, flips


def theta_of_k(dc: DriveCycle, k: float) -> float:
    """Pumping opening angle at momentum k: pi at a closing momentum whose
    offset (a - w at pi/l, a + w at 0) has modulus below 1, 0 otherwise."""
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

    The grid covers [-pi/l, pi/l) uniformly.  A grid momentum pumps (theta
    = pi) when it is a closing momentum whose offset has modulus below 1.
    tpt_count is the number of winding flips over the cycle: two per such
    momentum, one at each transversal closing.
    """
    if k_grid < 16:
        raise ValueError(f"k_grid must be >= 16, got {k_grid}")
    ks = -math.pi / dc.l + (TWO_PI / dc.l) * np.arange(k_grid) / k_grid
    angles, tpt_count = _inversion_angles(dc)
    thetas = np.array([angles.get(_classify_momentum(dc, k), 0.0) for k in ks.tolist()])
    return PumpProfile(ks, thetas, p_geometric(thetas), tpt_count)
