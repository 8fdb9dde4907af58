"""Finite-order return detection for iterated loop operators.

U^n = t_n U - t_{n-1} I, where t_n = sin(nh)/sin h is the Chebyshev sequence
of y = tr U = 2 cos h; one recurrence yields it for the closed forms, for
classify and, per block of theta rows, for phase_diagram.  A point is stable
of order N when U^N is the first diagonal power: its off-diagonal magnitude
|t_N| sin(theta/2) vanishes.  The stable set organizes into curves of constant
rational turn angle, which this module samples, classifies and rasterizes.
"""

from __future__ import annotations

import collections
import itertools
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .evolution import build_loop_operator
from .su2 import HALF_PI, LoopParams, half_turn, require_int

# off-diagonal magnitudes in [tol, MARGINAL_BAND) are flagged but do not
# count as a detected return
MARGINAL_BAND = 1e-6

# phase_diagram scans blocks of whole theta rows of about this many cells
_SCAN_CELLS = 16384


class EmptyCurveError(ValueError):
    """No point in the canonical parameter ranges satisfies the curve relation."""


def _trace_and_s(lp: LoopParams) -> tuple[float, float]:
    # the trace y = tr U = 2 cos h and s = sin(theta/2) of the loop, as floats
    ht = half_turn(lp.theta, lp.phi)
    return 2.0 * float(ht.c_cos), float(ht.s)


def _chebyshev(y):
    """Yield t_1, t_2, ... where t_0 = 0 and t_{n+1} = y t_n - t_{n-1}, for
    y a float, a complex number or a numpy array (one sequence per entry)."""
    prev, cur = 0.0, 1.0
    while True:
        yield cur
        nxt = y * cur
        nxt -= prev  # in place on arrays: one new array per step
        prev, cur = cur, nxt


def _chebyshev_pair(y, n, least: int = 0):
    # (t_{n-1}, t_n), t_{-1} = -1, for an integer n >= least, two terms held at
    # a time; for an int array n, arrays of both from one run up to max(n)
    ns = np.asarray(n)
    if ns.dtype.kind not in "iu":
        raise ValueError(f"n must be an int64 integer or integer array, got {n!r}")
    if (ns < least).any():
        raise ValueError(f"n must be >= {least}, got {ns[ns < least].flat[0]}")
    terms = itertools.chain((-1.0, 0.0), itertools.islice(_chebyshev(y), int(ns.max(initial=0))))
    if ns.ndim == 0:
        return tuple(collections.deque(terms, maxlen=2))
    t = np.fromiter(terms, float)
    return t[ns], t[ns + 1]


def fibonacci_poly(n: int, x: complex) -> complex:
    """Fibonacci polynomial F_n(x): F_0 = 0, F_1 = 1, F_{n+2} = x F_{n+1} + F_n.

    F_n(x) = (-i)^(n-1) t_n for the Chebyshev sequence t of y = i x; at
    x = -i tr U, y = tr U and U^n = t_n U - t_{n-1} I.
    """
    _, t_n = _chebyshev_pair(1j * x, n)
    # times (-i)^(n-1); + 0j turns a rotated -0 into the +0 F_n's sums give
    return (1.0, -1j, -1.0, 1j)[(n - 1) % 4] * t_n + 0j


def matrix_power_closed_form(lp: LoopParams, n) -> np.ndarray:
    """n-th power of the loop operator, U^n = t_n U - t_{n-1} I, where t is
    the Chebyshev sequence of y = tr U.  Agrees with repeated multiplication
    to rounding; no products of matrices are performed.  An int array n
    gives n.shape + (2, 2), each power as its own call gives it, from one
    run of the recurrence up to max(n).  ValueError unless each n is an int >= 0."""
    t_prev, t_n = _chebyshev_pair(_trace_and_s(lp)[0], n)
    u = build_loop_operator(lp.theta, lp.omega, lp.phi)
    return np.multiply.outer(t_n, u) - np.multiply.outer(t_prev, np.eye(2))


def off_diagonal_magnitude(lp: LoopParams, n):
    """|entry (1, 2)| of the n-th power, |t_n| sin(theta/2); an int array n
    gives an array from one run up to max(n).  ValueError unless each n is an int >= 1."""
    y, s = _trace_and_s(lp)
    _, t_n = _chebyshev_pair(y, n, least=1)
    return abs(t_n) * s


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


def _check_scan(n_max: int, tol: float) -> None:
    if not 1 <= require_int("n_max", n_max) <= sys.maxsize:  # islice takes no longer scan
        raise ValueError(f"n_max must lie in [1, sys.maxsize], got {n_max}")
    if not 0.0 < tol <= MARGINAL_BAND:
        raise ValueError(f"tol must lie in (0, {MARGINAL_BAND}], got {tol}")


def classify(lp: LoopParams, n_max: int, tol: float = 1e-9) -> StabilityVerdict:
    """Scan n = 1..n_max for the first power with vanishing off-diagonal.

    Never declares a point unstable: a miss only means no return was found
    within n_max.
    """
    _check_scan(n_max, tol)
    y, s = _trace_and_s(lp)
    marginal = []
    for n, t_n in enumerate(itertools.islice(_chebyshev(y), n_max), 1):
        magnitude = abs(t_n) * s
        if magnitude < tol:
            return StabilityVerdict(True, n_max, n, tuple(marginal))
        if magnitude < MARGINAL_BAND:
            marginal.append(n)
    return StabilityVerdict(False, n_max, None, tuple(marginal))


def curve_order(p: int, q: int) -> int:
    """Smallest N with N * p divisible by 2 * q: the return order shared by
    every interior point of the (p, q) curve."""
    if require_int("p", p) < 1 or require_int("q", q) < 1:
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
    if require_int("p", p) < 1 or require_int("q", q) < 1:
        raise ValueError("p and q must be positive integers")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p/q must be in lowest terms, got {p}/{q}")
    if not p < 2 * q:
        raise ValueError(f"p/q must lie in (0, 2), got {p}/{q}")
    if require_int("resolution", resolution) < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    delta = p * math.pi / q
    target = math.cos(delta / 2.0)  # cos h of the curve's half turn
    if target < 0.0:
        raise EmptyCurveError(
            f"turn angle {p}*pi/{q} exceeds pi; its curve misses the canonical ranges"
        )
    thetas = delta * np.arange(1, resolution + 1) / resolution
    ratios = target / half_turn(thetas, 0.0).c_cos
    phis = [math.acos(min(1.0, ratio)) for ratio in ratios.tolist()]
    points = tuple(zip(thetas.tolist(), phis))
    return StableCurve(p, q, delta, points)


@dataclass(frozen=True, eq=False)
class PhaseDiagram:
    """Rasterized stability verdicts over the (theta, phi) rectangle.

    orders[i, j] (read-only int64) is the first return order of the cell
    (theta_values[i], phi_values[j]), 0 when none was found within n_max.
    marginal maps the flat index i * len(phi_values) + j of each cell with
    marginal scan indices to them.  verdicts is built on first read.
    """

    theta_values: np.ndarray
    phi_values: np.ndarray
    n_max: int
    orders: np.ndarray
    marginal: dict[int, tuple[int, ...]]

    @cached_property
    def verdicts(self) -> tuple[tuple[StabilityVerdict, ...], ...]:
        flat, n_max = self.orders.ravel(), self.n_max
        verdicts = [StabilityVerdict(False, n_max)] * flat.size
        for cell in set(self.marginal).union(np.flatnonzero(flat).tolist()):
            first, marks = int(flat[cell]), self.marginal.get(cell, ())
            verdicts[cell] = StabilityVerdict(first > 0, n_max, first or None, marks)
        width = len(self.phi_values)
        return tuple(tuple(verdicts[i : i + width]) for i in range(0, flat.size, width))


def _check_grid(theta_grid: int, phi_grid: int) -> None:  # _grid_axes' sizes, without the axes
    theta_grid, phi_grid = require_int("theta_grid", theta_grid), require_int("phi_grid", phi_grid)
    if theta_grid < 2 or phi_grid < 2:
        raise ValueError("grids need at least 2 points per axis")
    if 8 * theta_grid * phi_grid > sys.maxsize:  # numpy's message names no field
        raise ValueError(
            f"theta_grid * phi_grid must be at most sys.maxsize // 8 cells, "
            f"got {theta_grid} * {phi_grid}"
        )


def _grid_axes(theta_grid: int, phi_grid: int, offset: float) -> tuple[np.ndarray, ...]:
    """The theta axis over [0, pi] and the phi axis over [-pi/2, pi/2] of a
    product grid, each point at `offset` of its cell (0: endpoints)."""
    _check_grid(theta_grid, phi_grid)
    if not 0.0 <= offset < 1.0:
        raise ValueError(f"offset must lie in [0, 1), got {offset}")
    return tuple(
        np.linspace(lo, hi, n) if offset == 0.0 else lo + (np.arange(n) + offset) * (hi - lo) / n
        for lo, hi, n in ((0.0, math.pi, theta_grid), (-HALF_PI, HALF_PI, phi_grid))
    )


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

    Every cell equals classify(LoopParams(theta, 0, phi), n_max, tol): each
    block of whole theta rows, about _SCAN_CELLS cells, advances as one
    array through the Chebyshev sequence of U^n = t_n U - t_{n-1} I, with
    y = tr U = 2 cos(theta/2) cos(phi) per cell; only the int64 orders grow.
    """
    _check_scan(n_max, tol)  # before the axes are allocated
    thetas, phis = _grid_axes(theta_grid, phi_grid, offset)
    orders = np.zeros((len(thetas), len(phis)), dtype=np.int64)
    marginal: dict[int, list[int]] = {}
    per_block = max(1, _SCAN_CELLS // len(phis))
    for start in range(0, len(thetas), per_block):
        # theta rows by phi columns: each cell sees the floats classify reads
        ht = half_turn(thetas[start : start + per_block, None], phis[None, :])
        y, s = 2.0 * ht.c_cos, np.broadcast_to(ht.s, ht.c_cos.shape)
        order, first = orders[start : start + per_block], start * len(phis)
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
                marginal.setdefault(first + cell, []).append(n)
    orders.flags.writeable = False
    return PhaseDiagram(thetas, phis, n_max, orders, {c: tuple(m) for c, m in marginal.items()})
