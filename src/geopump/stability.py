"""Finite-order return detection for iterated loop operators.

U^n = t_n U - t_{n-1} I, where t_n = sin(nh)/sin h is the Chebyshev sequence
of y = tr U = 2 cos h; one recurrence yields it for the closed forms, for
classify and, over a whole grid, for phase_diagram.  A point is stable of
order N when U^N is the first diagonal power: its off-diagonal magnitude
|t_N| sin(theta/2) vanishes.  The stable set organizes into curves of constant
rational turn angle, which this module samples, classifies and rasterizes.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .evolution import build_loop_operator
from .su2 import HALF_PI, LoopParams

# off-diagonal magnitudes in [tol, MARGINAL_BAND) are flagged but do not
# count as a detected return
MARGINAL_BAND = 1e-6


class EmptyCurveError(ValueError):
    """No point in the canonical parameter ranges satisfies the curve relation."""


def _trace(lp: LoopParams) -> float:
    return 2.0 * (math.cos(0.5 * lp.theta) * math.cos(lp.phi))


def trace_parameter(lp: LoopParams) -> complex:
    """-i times the trace of the loop operator; purely imaginary, |Im| <= 2."""
    return -1j * _trace(lp)


def _chebyshev(y):
    """Yield t_1, t_2, ... where t_0 = 0 and t_{n+1} = y t_n - t_{n-1}, for
    y a float, a complex number or a numpy array (one sequence per entry)."""
    prev, cur = 0.0, 1.0
    while True:
        yield cur
        nxt = y * cur
        nxt -= prev  # in place on arrays: one new array per step
        prev, cur = cur, nxt


def _chebyshev_pair(y, n: int):
    # (t_{n-1}, t_n) with t_{-1} = -1, holding two terms at a time
    if n < 0:
        raise ValueError(f"index must be a natural number, got {n}")
    terms = itertools.chain((-1.0, 0.0), itertools.islice(_chebyshev(y), n))
    return tuple(collections.deque(terms, maxlen=2))


def fibonacci_poly(n: int, x: complex) -> complex:
    """Fibonacci polynomial F_n(x): F_0 = 0, F_1 = 1, F_{n+2} = x F_{n+1} + F_n.

    F_n(x) = (-i)^(n-1) t_n for the Chebyshev sequence t of y = i x; at
    x = trace_parameter(lp), y = tr U and U^n = t_n U - t_{n-1} I.
    """
    _, t_n = _chebyshev_pair(1j * x, n)
    # times (-i)^(n-1); + 0j turns a rotated -0 into the +0 F_n's sums give
    return (1.0, -1j, -1.0, 1j)[(n - 1) % 4] * t_n + 0j


def matrix_power_closed_form(lp: LoopParams, n: int) -> np.ndarray:
    """n-th power of the loop operator, U^n = t_n U - t_{n-1} I, where t is
    the Chebyshev sequence of y = tr U.  Agrees with repeated multiplication
    to rounding; no products of matrices are performed."""
    t_prev, t_n = _chebyshev_pair(_trace(lp), n)
    return t_n * build_loop_operator(lp) - t_prev * np.eye(2)


def off_diagonal_magnitude(lp: LoopParams, n: int) -> float:
    """|entry (1, 2)| of the n-th power, |t_n| sin(theta/2)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _, t_n = _chebyshev_pair(_trace(lp), n)
    return abs(t_n) * math.sin(0.5 * lp.theta)


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of scanning powers 1..n_max for a diagonal return.

    order is the first diagonal power when stable.  marginal lists scan
    indices whose off-diagonal magnitude fell inside the guard band
    [tol, MARGINAL_BAND): suspicious but not counted as a return.
    """

    stable: bool
    n_max: int
    order: int | None = None
    marginal: tuple[int, ...] = field(default=())

    @property
    def kind(self) -> str:
        return "Stable" if self.stable else "NoStabilityFound"


def _check_scan(n_max: int, tol: float) -> None:
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not 0.0 < tol <= MARGINAL_BAND:
        raise ValueError(f"tol must lie in (0, {MARGINAL_BAND}], got {tol}")


def classify(lp: LoopParams, n_max: int, tol: float = 1e-9) -> StabilityVerdict:
    """Scan n = 1..n_max for the first power with vanishing off-diagonal.

    Never declares a point unstable: a miss only means no return was found
    within n_max.
    """
    _check_scan(n_max, tol)
    s = math.sin(0.5 * lp.theta)
    marginal = []
    for n, t_n in enumerate(itertools.islice(_chebyshev(_trace(lp)), n_max), 1):
        magnitude = abs(t_n) * s
        if magnitude < tol:
            return StabilityVerdict(True, n_max, n, tuple(marginal))
        if magnitude < MARGINAL_BAND:
            marginal.append(n)
    return StabilityVerdict(False, n_max, None, tuple(marginal))


def curve_order(p: int, q: int) -> int:
    """Smallest N with N * p divisible by 2 * q: the return order shared by
    every interior point of the (p, q) curve."""
    if q < 1 or p < 1:
        raise ValueError("p and q must be positive integers")
    return 2 * q // math.gcd(p, 2 * q)


@dataclass(frozen=True)
class StableCurve:
    """Sampled curve of constant turn angle delta = p*pi/q."""

    p: int
    q: int
    delta: float
    points: tuple[tuple[float, float], ...]

    @property
    def order(self) -> int:
        return curve_order(self.p, self.q)


def stable_curve(p: int, q: int, resolution: int) -> StableCurve:
    """Sample the constant-turn-angle curve for delta = p*pi/q.

    Points (theta, phi >= 0) satisfy cos(theta/2) * cos(phi) =
    cos(delta/2); the mirror points at -phi also lie on the curve.  theta
    is sampled over (0, delta], skipping the degenerate theta = 0 end.

    Raises EmptyCurveError when delta > pi, where the right-hand side is
    negative and no canonical (theta, phi) can reach it.
    """
    if q < 1 or p < 1:
        raise ValueError("p and q must be positive integers")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p/q must be in lowest terms, got {p}/{q}")
    if not p < 2 * q:
        raise ValueError(f"p/q must lie in (0, 2), got {p}/{q}")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    delta = p * math.pi / q
    target = math.cos(0.5 * delta)
    if target < 0.0:
        raise EmptyCurveError(
            f"turn angle {p}*pi/{q} exceeds pi; its curve misses the canonical ranges"
        )
    points = []
    for i in range(resolution):
        theta = delta * (i + 1) / resolution
        ratio = target / math.cos(0.5 * theta)
        phi = math.acos(min(1.0, ratio))
        points.append((theta, phi))
    return StableCurve(p, q, delta, tuple(points))


@dataclass(frozen=True)
class PhaseDiagram:
    """Rasterized stability verdicts over the (theta, phi) rectangle."""

    theta_values: np.ndarray
    phi_values: np.ndarray
    verdicts: tuple[tuple[StabilityVerdict, ...], ...]


def _axis(lo: float, hi: float, count: int, offset: float) -> np.ndarray:
    if offset == 0.0:
        return np.linspace(lo, hi, count)
    return lo + (np.arange(count) + offset) * (hi - lo) / count


def phase_diagram(
    theta_grid: int,
    phi_grid: int,
    n_max: int,
    offset: float = 0.5,
    tol: float = 1e-9,
) -> PhaseDiagram:
    """Classify a grid over theta in [0, pi], phi in [-pi/2, pi/2].

    offset = 0.5 (default) samples cell midpoints, staying off the
    boundary stable lines; offset = 0 uses an endpoint-inclusive grid.

    Every cell equals classify(LoopParams(theta, 0, phi), n_max, tol): the
    grid advances as one array through the Chebyshev sequence of
    U^n = t_n U - t_{n-1} I, with y = tr U = 2 cos(theta/2) cos(phi) per cell.
    """
    if theta_grid < 2 or phi_grid < 2:
        raise ValueError("grids need at least 2 points per axis")
    if not 0.0 <= offset < 1.0:
        raise ValueError(f"offset must lie in [0, 1), got {offset}")
    _check_scan(n_max, tol)
    thetas = _axis(0.0, math.pi, theta_grid, offset)
    phis = _axis(-HALF_PI, HALF_PI, phi_grid, offset)
    # cells in row-major order; scalar math.sin/cos per axis value, so each
    # cell sees exactly the floats classify computes
    s = np.repeat([math.sin(0.5 * t) for t in thetas], phi_grid)
    c = [math.cos(0.5 * t) for t in thetas]
    y = 2.0 * np.outer(c, [math.cos(p) for p in phis]).ravel()
    order = np.zeros(y.size, dtype=np.int64)
    marginal: dict[int, list[int]] = {}
    for n, t_n in enumerate(itertools.islice(_chebyshev(y), n_max), 1):
        magnitude = np.abs(t_n)
        magnitude *= s
        near = magnitude < MARGINAL_BAND
        if not near.any():
            continue
        near &= order == 0
        hit = near & (magnitude < tol)
        order[hit] = n
        for cell in np.flatnonzero(near & ~hit).tolist():
            marginal.setdefault(cell, []).append(n)

    verdicts = [StabilityVerdict(False, n_max)] * order.size
    for cell in set(marginal).union(np.flatnonzero(order).tolist()):
        first, marks = int(order[cell]), tuple(marginal.get(cell, ()))
        verdicts[cell] = StabilityVerdict(first > 0, n_max, first or None, marks)
    rows = tuple(
        tuple(verdicts[i * phi_grid : (i + 1) * phi_grid]) for i in range(theta_grid)
    )
    return PhaseDiagram(thetas, phis, rows)
