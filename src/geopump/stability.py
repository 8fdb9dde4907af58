"""Finite-order return detection for iterated loop operators.

The n-th power of a loop operator has a two-term closed form in Fibonacci
polynomials of a purely imaginary trace parameter; its off-diagonal
magnitude vanishes exactly when the n-cycle evolution is diagonal.  A
point is stable of order N when N is the first such power.  The stable
set organizes into curves of constant rational turn angle, which this
module samples, classifies, and rasterizes into phase diagrams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evolution import build_loop_operator
from .su2 import HALF_PI, LoopParams

# off-diagonal magnitudes in [tol, MARGINAL_BAND) are flagged but do not
# count as a detected return
MARGINAL_BAND = 1e-6

_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


class EmptyCurveError(ValueError):
    """No point in the canonical parameter ranges satisfies the curve relation."""


def trace_parameter(lp: LoopParams) -> complex:
    """-i times the trace of the loop operator; purely imaginary, |Im| <= 2."""
    return -2.0j * (math.cos(0.5 * lp.theta) * math.cos(lp.phi))


def fibonacci_poly(n: int, x: complex) -> complex:
    """Fibonacci polynomial F_n(x): F_0 = 0, F_1 = 1, F_{n+2} = x F_{n+1} + F_n.

    Evaluated by the forward recurrence, which is benign for the purely
    imaginary arguments with |Im| <= 2 that arise here.
    """
    f_n, _ = _fib_pair(n, x)
    return f_n


def _fib_pair(n: int, x: complex) -> tuple[complex, complex]:
    # returns (F_n, F_{n-1}) with the convention F_{-1} = 1
    if n < 0:
        raise ValueError(f"index must be a natural number, got {n}")
    prev, cur = 1.0 + 0.0j, 0.0j
    for _ in range(n):
        prev, cur = cur, x * cur + prev
    return cur, prev


def matrix_power_closed_form(lp: LoopParams, n: int) -> np.ndarray:
    """n-th power of the loop operator from the two-term recurrence solution.

    Agrees with repeated multiplication to rounding; no products of
    matrices are performed.
    """
    u = build_loop_operator(lp)
    f_n, f_prev = _fib_pair(n, trace_parameter(lp))
    phase = _I_POWERS[n % 4]
    return phase * (f_n * (-1j * u) + f_prev * np.eye(2))


def off_diagonal_magnitude(lp: LoopParams, n: int) -> float:
    """|entry (1, 2)| of the n-th power, straight from the closed form."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return abs(fibonacci_poly(n, trace_parameter(lp))) * math.sin(0.5 * lp.theta)


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
    x = trace_parameter(lp)
    marginal = []
    prev, cur = 1.0 + 0.0j, 0.0j
    for n in range(1, n_max + 1):
        prev, cur = cur, x * cur + prev
        magnitude = abs(cur) * s
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
    workers: int = 1,
) -> PhaseDiagram:
    """Classify a grid over theta in [0, pi], phi in [-pi/2, pi/2].

    offset = 0.5 (default) samples cell midpoints, staying off the
    boundary stable lines; offset = 0 uses an endpoint-inclusive grid.

    Every cell equals classify(LoopParams(theta, 0, phi), n_max, tol), but
    the whole grid advances through one real array recurrence,
    t_{n+1} = y t_n - t_{n-1} with y = 2 cos(theta/2) cos(phi).  classify's
    complex Fibonacci values are F_n = (-i)^(n-1) t_n, and every sign flip
    in that map is exact, so |t_n| sin(theta/2) is the same float as its
    off-diagonal magnitude.  `workers` is validated but changes nothing:
    the scan is single-threaded numpy.
    """
    if theta_grid < 2 or phi_grid < 2:
        raise ValueError("grids need at least 2 points per axis")
    if not 0.0 <= offset < 1.0:
        raise ValueError(f"offset must lie in [0, 1), got {offset}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _check_scan(n_max, tol)
    thetas = _axis(0.0, math.pi, theta_grid, offset)
    phis = _axis(-HALF_PI, HALF_PI, phi_grid, offset)
    # cells in row-major order; scalar math.sin/cos per axis value, so each
    # cell sees exactly the floats classify computes
    s = np.repeat([math.sin(0.5 * t) for t in thetas], phi_grid)
    c = [math.cos(0.5 * t) for t in thetas]
    y = 2.0 * np.outer(c, [math.cos(p) for p in phis]).ravel()
    prev, cur = np.full(y.size, -1.0), np.zeros(y.size)
    order = np.zeros(y.size, dtype=np.int64)
    marginal: dict[int, list[int]] = {}
    for n in range(1, n_max + 1):
        nxt = y * cur
        nxt -= prev
        prev, cur = cur, nxt
        magnitude = np.abs(cur)
        magnitude *= s
        near = magnitude < MARGINAL_BAND
        if not near.any():
            continue
        near &= order == 0
        hit = near & (magnitude < tol)
        order[hit] = n
        for cell in np.flatnonzero(near & ~hit).tolist():
            marginal.setdefault(cell, []).append(n)

    idle = StabilityVerdict(False, n_max)
    verdicts = [idle] * order.size
    for cell in set(marginal).union(np.flatnonzero(order).tolist()):
        first = int(order[cell])
        verdicts[cell] = StabilityVerdict(
            first > 0, n_max, first or None, tuple(marginal.get(cell, ()))
        )
    rows = tuple(
        tuple(verdicts[i * phi_grid : (i + 1) * phi_grid]) for i in range(theta_grid)
    )
    return PhaseDiagram(thetas, phis, rows)
