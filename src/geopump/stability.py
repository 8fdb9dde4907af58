"""Finite-order return detection for iterated loop operators.

Everything reads the half turn h of U (cos h = cos(theta/2) cos phi):
U^n = t_n U - t_{n-1} I with t_n = sin(nh)/sin h, and U^n's off-diagonal
magnitude is A |sin(nh)|, A = sin(theta/2)/sin h.  So return orders and
marginal near misses come from the continued fraction of x = h/pi, which
_returns walks in O(log n_max + marginals) a cell for classify,
phase_diagram (after a vectorised prefilter) and verify.  Stable curves
of constant rational turn angle are sampled and rasterized here too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .evolution import build_loop_operator
from .su2 import _BLOCK, HALF_PI, _libm, half_turn, require_angles, require_int

# off-diagonal magnitudes in [tol, MARGINAL_BAND) are flagged but do not
# count as a detected return
MARGINAL_BAND = 1e-6

_U = 2.0**-53  # unit roundoff of float64


class EmptyCurveError(ValueError):
    """No point in the canonical parameter ranges satisfies the curve relation."""


def _folded(ht):
    # the half turn folded into [0, pi/2] and the sign of cos h: t_n(pi - h)
    # = (-1)^(n-1) t_n(h), so n h keeps its relative precision near -I too
    return _libm(math.atan2, ht.sin_h, np.abs(ht.c_cos)), np.where(ht.c_cos < 0.0, -1.0, 1.0)


def _exponents(n, least: int, drives: tuple[int, ...]) -> np.ndarray:
    ns = np.asarray(n)
    if ns.dtype.kind not in "iu":
        raise ValueError(f"n must be an int64 integer or integer array, got {n!r}")
    if (ns < least).any():
        raise ValueError(f"n must be >= {least}, got {ns[ns < least].flat[0]}")
    np.broadcast_shapes(drives, ns.shape)  # numpy's "shape mismatch" message
    return ns


def _magnitude(amplitude, h, n):  # A |sin(n h)|, the value _returns judges each n by
    return amplitude * np.abs(np.sin(n * h))


def matrix_power_closed_form(theta, omega, phi, n) -> np.ndarray:
    """n-th powers U^n = t_n U - t_{n-1} I of loop operators, t_n =
    sin(nh)/sin h (n (+/-1)^(n-1) at U = +/-I): no matrix products, and
    equal to repeated multiplication to O(n u).  The drives (floats or
    equal-shape arrays, checked by build_loop_operator) broadcast against
    an int or int array n >= 0, giving that shape + (2, 2)."""
    u = build_loop_operator(theta, omega, phi)
    ns = _exponents(n, 0, u.shape[:-2])
    h, sign = _folded(half_turn(theta, phi))
    with np.errstate(divide="ignore", invalid="ignore"):  # sin h of h: t_-1, t_0, t_1 exact
        t = [sign ** (k - 1) * np.where(h, np.sin(k * h) / np.sin(h), k) for k in (ns - 1, ns)]
    return t[1][..., None, None] * u - t[0][..., None, None] * np.eye(2)


def off_diagonal_magnitude(theta, phi, n):
    """|entry (1, 2)| of the n-th powers, A |sin(nh)|, of the drives
    (theta, phi) broadcast against an int or int array n.  ValueError for
    a bad angle or unless each n is an int >= 1."""
    require_angles(theta, phi=phi)
    ht = half_turn(theta, phi)
    return _magnitude(ht.amplitude, _folded(ht)[0], _exponents(n, 1, np.shape(ht.c_cos)))


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
    if require_int("n_max", n_max, 1) > sys.maxsize:  # orders are int64
        raise ValueError(f"n_max must be <= sys.maxsize, got {n_max}")
    if not 0.0 < tol <= MARGINAL_BAND:
        raise ValueError(f"tol must lie in (0, {MARGINAL_BAND}], got {tol}")


def classify(theta: float, phi: float, n_max: int, tol: float = 1e-9) -> StabilityVerdict:
    """The first n <= n_max whose power of the drive (theta, phi), two
    floats checked as build_loop_operator checks them, has an off-diagonal
    magnitude below tol, and the marginal n before it: _returns of one cell.
    A miss only means no return within n_max.  fl(n h) errs by up to n h u,
    so a verdict at the tol edge is faithful only while pi n_max u << tol.
    """
    _check_scan(n_max, tol)
    require_angles(theta, phi=phi)
    order, marginal = _returns(float(theta), float(phi), n_max, tol)
    return StabilityVerdict(bool(order), n_max, int(order) or None, marginal.get(0, ()))


def _first(num: int, den: int, reach: int, side: int, n_max: int) -> int:
    """The least g in [1, n_max] with g num - p den in [0, reach] (side 1)
    or [-reach, 0] (side -1), else n_max + 1: the first convergent or
    semiconvergent of x = num/den on that side that near, solved for."""
    q0, r0, q1, r1, ours = 1, num, 0, den, side > 0  # 1 x - 0 >= 0 >= 0 x - 1
    while r1 and q1 <= n_max:
        a = r0 // r1
        if ours:  # q0 + j q1, j <= a, lie on the side, r0 - j r1 from it
            j = -((reach - r0) // r1)
            if j <= a:
                return min(q0 + j * q1, n_max + 1)
        q0, r0, q1, r1, ours = q1, r1, q0 + a * q1, r0 - a * r1, not ours
    return q1 if r1 == 0 and q1 <= n_max else n_max + 1  # an exact 0 is on both sides


def _near(x: float, width: float, n_max: int):
    """The n in [1, n_max] with ||n x|| <= width < 1/2, ascending, from the
    continued fraction of x in integers: O(log n_max) steps and one per n.
    By Slater's three-gap theorem each next n is a, b or a + b on, the
    first steps up and down by at most twice the window's reach."""
    num, den = x.as_integer_ratio()
    top, bottom = width.as_integer_ratio()
    reach = top * den // bottom  # ||n x|| <= width: (n num + reach) mod den <= 2 reach
    a, b = (_first(num, den, 2 * reach, side, n_max) for side in (1, -1))
    n, gaps = 0, sorted({a, b, a + b})  # n = 0 returns exactly
    while True:
        n = next((m for m in (n + g for g in gaps) if (m * num + reach) % den <= 2 * reach), 0)
        if not 0 < n <= n_max:
            return
        yield n


# _magnitude at n <= N = n_max is at least (1 - 3u) A |sin(n h)| - u N h A,
# u = 2**-53 (np.sin within an ulp, fl(n h) within u N h), so one below
# MARGINAL_BAND has sin(pi ||n h/pi||) < MARGINAL_BAND (1 + 4u)/A + u N h,
# and x = fl(h/pi) is within 1.4u x of h/pi: _returns' width, each term
# rounded up, keeps every such n; one of 1/2 or more is every n.


def _returns(theta, phi, n_max: int, tol: float):
    """classify of every cell of the angles' broadcast stack: the int64
    first return orders, 0 where none was found, and the marginal indices
    of each cell that has any, keyed by its flat index."""
    ht = half_turn(theta, phi)
    h = _folded(ht)[0]
    orders = np.zeros(np.shape(h), dtype=np.int64)
    marginal: dict[int, list[int]] = {}
    cells = zip(np.broadcast_to(ht.amplitude, orders.shape).ravel().tolist(), np.ravel(h).tolist())
    for cell, (amp, turn) in enumerate(cells):
        bound = MARGINAL_BAND / amp * (1 + 8 * _U) + 2 * _U * n_max * turn if amp else 1.0
        width = math.asin(min(1.0, bound)) / math.pi * (1 + 8 * _U) + 2 * _U * n_max * turn
        marks = marginal[cell] = []
        for n in range(1, n_max + 1) if width >= 0.5 else _near(turn / math.pi, width, n_max):
            magnitude = _magnitude(amp, turn, n)
            if magnitude < tol:
                orders.flat[cell] = n
                break
            if magnitude < MARGINAL_BAND:
                marks.append(n)
    return orders, {cell: tuple(marks) for cell, marks in marginal.items() if marks}


def _nearest_return(x, n_max: int):
    """min over 1 <= n <= n_max of ||n x|| for each float x in [0, 1] of an
    array: |q x - p| at the largest convergent denominator q <= n_max
    (Lagrange), O(log n_max) numpy steps.  Each error q x - p is recomputed
    from p and q, and a partial quotient one too large, the most rounding
    gives for n_max <= 2**25, shows in its sign and is mended, so each value
    is within n_max x 2**-53 of the exact minimum for the float x."""
    x = np.asarray(x, dtype=float)
    nearest = np.zeros(x.size)  # x = 0 returns at n = 1
    cells = np.flatnonzero(x)
    xs = x.ravel()[cells]
    # convergents p0/q0 and p1/q1 with errors d = q x - p of opposite signs,
    # from 1/0 (d = -1) and 0/1 (d = x)
    q0, p0, d0 = np.zeros(xs.size), np.ones(xs.size), np.full(xs.size, -1.0)
    q1, p1, d1 = np.ones(xs.size), np.zeros(xs.size), xs
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while cells.size:
            # the next convergent, into the older one's arrays: minus the
            # partial quotient is ceil(d0 / d1), as d0 and d1 differ in sign
            minus_a = np.ceil(d0 / d1)
            q0 -= minus_a * q1
            p0 -= minus_a * p1
            np.multiply(q0, xs, out=d0)
            d0 -= p0
            sides = d0 * d1  # > 0 where the quotient rounded up past the true one
            over = sides > 0.0
            if over.any():
                q0[over] -= q1[over]
                p0[over] -= p1[over]
                d0[over] = q0[over] * xs[over] - p0[over]
                sides[over] = d0[over] * d1[over]
            done = q0 > n_max
            ended = np.flatnonzero(done)  # integer indices: faster than masks here
            nearest[cells[ended]] = np.abs(d1[ended])
            # d0 = 0 is a return, and a quotient still too large leaves 0 as
            # well, which bounds it: only errors at the rounding level do that
            live = np.flatnonzero((sides < 0.0) & ~done)
            cells, xs = cells[live], xs[live]
            q0, p0, d0, q1, p1, d1 = q1[live], p1[live], d1[live], q0[live], p0[live], d0[live]
    return nearest.reshape(x.shape)


def curve_order(p: int, q: int) -> int:
    """Smallest N with N * p divisible by 2 * q: the return order shared by
    every interior point of the (p, q) curve."""
    p, q = require_int("p", p, 1), require_int("q", q, 1)
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
    curve_order(p, q)  # p and q are positive integers
    if math.gcd(p, q) != 1:
        raise ValueError(f"p/q must be in lowest terms, got {p}/{q}")
    if not p < 2 * q:
        raise ValueError(f"p/q must lie in (0, 2), got {p}/{q}")
    require_int("resolution", resolution, 2)
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
    theta_grid = require_int("theta_grid", theta_grid, 2)
    phi_grid = require_int("phi_grid", phi_grid, 2)
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


def _grid_cut(n_theta: int, n_phi: int):
    """(rows, cols) slices that cut an (n_theta, n_phi) grid into blocks of
    at most _BLOCK cells, row-major: max(1, _BLOCK // n_phi) whole theta
    rows, or pieces of a longer row, so each is a run of flat cells."""
    per_block = max(1, _BLOCK // n_phi)
    for start in range(0, n_theta, per_block):
        for lo in range(0, n_phi, _BLOCK):
            yield slice(start, start + per_block), slice(lo, lo + _BLOCK)


# Each magnitude at n <= N = n_max is at least (1 - 3u) A sin(pi m(h/pi)) -
# u N h A (the note above _returns; grid cells have cos h >= 0), m(x) the
# min over n <= N of ||n x||.  np.hypot and np.arctan2 (2 ulp) put x within
# 6u x of h/pi and A within 3u; _nearest_return is within u N x of m(x),
# capped by Dirichlet's m(x) <= 1/(N+1).  So the floor F is at most
# (1 + 9u) A sin(pi m(h/pi)) + 7.1u N h A, every magnitude is at least
# F - 12u A - 13u N A, and a cell goes when F >= MARGINAL_BAND + 64u N A.
# Past N = 2**25 quotients may round off by more than one, but past 2.1e7
# the capped floor, at most A pi/(N+1), is under 64u N A: no cell goes.


def _may_return(theta, phi, n_max: int) -> np.ndarray:
    """False for each cell of the angles' broadcast stack whose _returns
    to n_max is bound to find neither a return nor a marginal index (a NaN
    A, at sin h = 0, keeps its cell)."""
    ht = half_turn(theta, phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        sin_h = np.hypot(ht.s, ht.c_sin)
        amplitude = ht.s / sin_h
        nearest = _nearest_return(np.arctan2(sin_h, ht.c_cos) / math.pi, n_max)
        floor = amplitude * np.sin(math.pi * np.minimum(nearest, 1.0 / (n_max + 1)))
        return ~(floor >= MARGINAL_BAND + 64.0 * _U * n_max * amplitude)


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

    Every cell equals classify(theta, phi, n_max, tol), so a verdict at
    the tol edge is faithful only while pi n_max u << tol.  One walk over
    the _grid_cut blocks: _may_return drops the cells that cannot come
    within MARGINAL_BAND, and _returns scans the rest of the block.  Only
    the int64 orders grow with the grid.
    """
    _check_scan(n_max, tol)  # before the axes are allocated
    thetas, phis = _grid_axes(theta_grid, phi_grid, offset)
    orders = np.zeros((len(thetas), len(phis)), dtype=np.int64)
    marginal: dict[int, tuple[int, ...]] = {}
    for rows, cols in _grid_cut(len(thetas), len(phis)):
        kept = np.flatnonzero(_may_return(thetas[rows, None], phis[None, cols], n_max))
        if kept.size:
            cells = rows.start * len(phis) + cols.start + kept
            i, j = np.divmod(cells, len(phis))  # each cell sees the floats classify reads
            orders.flat[cells], marks = _returns(thetas[i], phis[j], n_max, tol)
            marginal.update((int(cells[cell]), m) for cell, m in marks.items())
    orders.flags.writeable = False
    return PhaseDiagram(thetas, phis, n_max, orders, marginal)
