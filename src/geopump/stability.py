"""Finite-order return detection for iterated loop operators.

U^n = t_n U - t_{n-1} I, where t_n = sin(nh)/sin h is the Chebyshev sequence
of y = tr U = 2 cos h; one recurrence yields it for the closed forms, for
classify and for _scan, the one array scan, which serves phase_diagram and
verify.  A point is stable of order N when U^N is the first diagonal power,
where |t_N| sin(theta/2) vanishes.  The stable set organizes into curves of
constant rational turn angle, sampled, classified and rasterized here.

phase_diagram scans only the cells that can come near a return: the
continued fraction of h/pi bounds each cell's nearest approach over
n <= n_max in O(log n_max) steps (_nearest_return), so a grid costs
O(cells log n_max + candidates n_max).
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
from .su2 import _BLOCK, HALF_PI, half_turn, require_angles, require_int

# off-diagonal magnitudes in [tol, MARGINAL_BAND) are flagged but do not
# count as a detected return
MARGINAL_BAND = 1e-6

_U = 2.0**-53  # unit roundoff of float64


class EmptyCurveError(ValueError):
    """No point in the canonical parameter ranges satisfies the curve relation."""


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
    # (t_{n-1}, t_n), t_{-1} = -1, for integers n >= least against the y they
    # broadcast with, from one run up to max(n) on y as given (numpy's
    # complex arrays round otherwise): one walk through the distinct n in
    # ascending order that holds two terms; the cells are ordered by n once,
    # so each step writes only its own group, at y's entries for them
    ns = np.asarray(n)
    if ns.dtype.kind not in "iu":
        raise ValueError(f"n must be an int64 integer or integer array, got {n!r}")
    if (ns < least).any():
        raise ValueError(f"n must be >= {least}, got {ns[ns < least].flat[0]}")
    shape = np.broadcast_shapes(np.shape(y), ns.shape)  # before the run
    want, dtype = np.broadcast_to(ns, shape).ravel(), np.result_type(y, 0.0)
    t_prev, t_n = np.empty(want.size, dtype), np.empty(want.size, dtype)
    cells = np.argsort(want, kind="stable")
    want = want[cells]
    ys = np.broadcast_to(np.arange(np.size(y)).reshape(np.shape(y)), shape).ravel()[cells]
    # the first cell of each distinct n, none when there are no cells (not
    # np.unique: it imports numpy.ma)
    firsts = [0, *(np.flatnonzero(want[1:] != want[:-1]) + 1).tolist()][: want.size]
    terms = itertools.chain((-1.0, 0.0), _chebyshev(y))  # term j is t_{j-1}
    pair, k = collections.deque(itertools.islice(terms, 2), 2), 0  # terms k, k + 1
    for step, start, stop in zip(want[firsts].tolist(), firsts, [*firsts[1:], want.size]):
        pair.extend(itertools.islice(terms, step - k))  # at C speed, keeping the last two
        k, here = step, cells[start:stop]
        for out, term in zip((t_prev, t_n), pair):  # t_{-1} to t_1 are scalars
            out[here] = term.ravel()[ys[start:stop]] if type(term) is np.ndarray else term
    return t_prev.reshape(shape)[()], t_n.reshape(shape)[()]


def fibonacci_poly(n: int, x: complex) -> complex:
    """Fibonacci polynomial F_n(x): F_0 = 0, F_1 = 1, F_{n+2} = x F_{n+1} + F_n.

    F_n(x) = (-i)^(n-1) t_n for the Chebyshev sequence t of y = i x; at
    x = -i tr U, y = tr U and U^n = t_n U - t_{n-1} I.
    """
    _, t_n = _chebyshev_pair(1j * x, n)
    # times (-i)^(n-1); + 0j turns a rotated -0 into the +0 F_n's sums give
    return (1.0, -1j, -1.0, 1j)[(n - 1) % 4] * t_n + 0j


def matrix_power_closed_form(theta, omega, phi, n) -> np.ndarray:
    """n-th powers U^n = t_n U - t_{n-1} I of loop operators, t the
    Chebyshev sequence of y = tr U: no matrix products, and equal to
    repeated multiplication to rounding.  The drives (floats or equal-shape
    arrays, checked by build_loop_operator) broadcast against an int or int
    array n, giving that shape + (2, 2) from one run up to max(n), each
    power as its own call gives it.  ValueError unless each n is an int >= 0."""
    u = build_loop_operator(theta, omega, phi)
    t_prev, t_n = _chebyshev_pair(2.0 * half_turn(theta, phi).c_cos, n)
    return t_n[..., None, None] * u - t_prev[..., None, None] * np.eye(2)


def off_diagonal_magnitude(theta, phi, n):
    """|entry (1, 2)| of the n-th powers, |t_n| sin(theta/2), of the drives
    (theta, phi) broadcast against an int or int array n, from one run up
    to max(n).  ValueError for a bad angle or unless each n is an int >= 1."""
    require_angles(theta, phi=phi)
    ht = half_turn(theta, phi)
    _, t_n = _chebyshev_pair(2.0 * ht.c_cos, n, least=1)
    return np.abs(t_n) * ht.s


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


def classify(theta: float, phi: float, n_max: int, tol: float = 1e-9) -> StabilityVerdict:
    """Scan n = 1..n_max for the first power with vanishing off-diagonal of
    the drive (theta, phi), two floats checked as build_loop_operator
    checks them.  Never declares a point unstable: a miss only means no
    return was found within n_max.
    """
    _check_scan(n_max, tol)
    require_angles(theta, phi=phi)
    ht = half_turn(float(theta), float(phi))
    y, s = 2.0 * float(ht.c_cos), float(ht.s)
    marginal = []
    for n, t_n in enumerate(itertools.islice(_chebyshev(y), n_max), 1):
        magnitude = abs(t_n) * s
        if magnitude < tol:
            return StabilityVerdict(True, n_max, n, tuple(marginal))
        if magnitude < MARGINAL_BAND:
            marginal.append(n)
    return StabilityVerdict(False, n_max, None, tuple(marginal))


def _scan(theta, phi, n_max: int, tol: float):
    """classify of every cell of the angles' broadcast stack at once, its
    traces advanced as one array: the int64 first return orders, 0 where
    none was found, and the marginal scan indices of each cell that has
    any, keyed by its flat index."""
    ht = half_turn(theta, phi)
    y = 2.0 * ht.c_cos
    order, s = np.zeros(y.shape, dtype=np.int64), np.broadcast_to(ht.s, y.shape)
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
    return order, {cell: tuple(marks) for cell, marks in marginal.items()}


def _nearest_return(x, n_max: int):
    """min over 1 <= n <= n_max of ||n x||, the distance from n x to the
    nearest integer, for each float x in [0, 1] of an array, from the
    continued fraction of x: by Lagrange's best-approximation theorem the
    minimum is |q x - p| at the largest convergent denominator q <= n_max.
    O(log n_max) steps a cell.  Each error q x - p is recomputed from the
    integers p and q, so rounding does not compound: for n_max <= 2**25,
    where a partial quotient comes out at most one too large and a sign
    check mends it, each value is within n_max * x * 2**-53 of the exact
    minimum for the float x as given."""
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
    curve_order(p, q)  # p and q are positive integers
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


# A cell is dropped when the recurrence _scan runs on it cannot come within
# MARGINAL_BAND at any n <= N = n_max.  With u = 2**-53, c = c_cos and
# y = 2c (exact), the exact recurrence gives t_n = sin(n h')/sin h' with
# cos h' = c: the h' of the float c, not HalfTurn.h, which differs from it
# near the corner.  Its magnitudes are A' |sin(n h')| = A' sin(pi ||n x'||)
# with A' = s/sin h' and x' = h'/pi, so their least value over n <= N is
# the floor A' sin(pi m(x')), m(x) = min over n <= N of ||n x||.
#
# Recurrence side (Higham ch. 2-3).  Each step t_{k+1} = fl(fl(y t_k) -
# t_{k-1}) adds an error of at most 2u|t_k| + u|t_{k+1}|/(1-u) <= 3u Mc/(1-u),
# Mc the largest computed |t_j| so far, and that error travels through the
# same linear recurrence: a unit error at step k adds t_{n-k+1} at n.  With
# M the largest exact |t_j| <= min(n, 1/sin h'), s |dt_n| <= 3u n s M Mc/(1-u),
# and Mc <= M / (1 - 3u n M/(1-u)).  So every error is below
#     drift = 4u N s M^2 / (1 - 4u N M),   M = min(N, 1/sin h'),
# where 4 for 3 covers sin h' computed as sqrt((1-c)(1+c)) (relative 3u) and
# this line's own roundings.  When s <= sin h', s M^2 <= N, so drift is
# 4u N^2 at most away from the corner; far from it, M is about 1/sin h'.
# The scan's fl(|t_n| s) loses one more u.
#
# Filter side.  x = atan2(sin h', c)/pi comes within 9u x' of x': 3u from
# sin h', 2 ulp of np.arctan2 (0.75 measured against mpmath), and pi and
# the division.  _nearest_return is within 2u N of m(x), and Dirichlet's
# theorem, m(x) <= 1/(N+1), caps it.  Together with 6u on np.sin (2 ulp),
# 5u on A and one product, the computed floor F exceeds the exact one by
# at most 13u F + 36u N A.  A cell is dropped when F >= MARGINAL_BAND +
# drift + 64u N A, which leaves room for 2u MARGINAL_BAND <= 2u A and the
# roundings of this sum.
#
# Range.  The kernel's partial quotients, from errors each within u q of
# their own, come out at most one too large while 6u N^2 < 1, so it holds
# for N <= 2**25.  Past N = 2.1e7 the capped floor, at most A pi/(N+1),
# stays under 64u N A, so no cell is dropped there whatever the kernel
# returns.  A NaN or infinite A, at sin h' = 0, keeps its cell as well.


def _may_return(theta, phi, n_max: int) -> np.ndarray:
    """False for each cell of the angles' broadcast stack whose _scan to
    n_max is bound to find neither a return nor a marginal index."""
    ht = half_turn(theta, phi)
    c = ht.c_cos  # y / 2 of the recurrence _scan runs
    with np.errstate(divide="ignore", invalid="ignore"):
        sin_h = np.sqrt((1.0 - c) * (1.0 + c))
        amplitude = ht.s / sin_h
        nearest = _nearest_return(np.arctan2(sin_h, c) / math.pi, n_max)
        floor = amplitude * np.sin(math.pi * np.minimum(nearest, 1.0 / (n_max + 1)))
        peak = np.minimum(n_max, 1.0 / sin_h)
        drift = 4.0 * _U * n_max * ht.s * peak**2 / np.maximum(1.0 - 4.0 * _U * n_max * peak, 0.0)
        return ~(floor >= MARGINAL_BAND + drift + 64.0 * _U * n_max * amplitude)


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

    Every cell equals classify(theta, phi, n_max, tol).  A prefilter
    bounds each cell's nearest approach from the continued fraction of its
    half turn, O(log n_max) a cell, one block of whole theta rows of about
    _BLOCK cells at a time, and drops the cells that cannot come within
    MARGINAL_BAND; the kept candidates go through _scan in blocks of at
    most _BLOCK, O(n_max) a cell.  So a grid costs
    O(cells log n_max + candidates n_max), and only the int64 orders, one
    keep flag a cell and the candidates' indices grow with it.
    """
    _check_scan(n_max, tol)  # before the axes are allocated
    thetas, phis = _grid_axes(theta_grid, phi_grid, offset)
    orders = np.zeros((len(thetas), len(phis)), dtype=np.int64)
    kept = np.empty(orders.shape, dtype=bool)
    per_block = max(1, _BLOCK // len(phis))
    for start in range(0, len(thetas), per_block):
        rows = thetas[start : start + per_block, None]
        kept[start : start + per_block] = _may_return(rows, phis[None, :], n_max)
    candidates = np.flatnonzero(kept)
    del kept
    marginal: dict[int, tuple[int, ...]] = {}
    for start in range(0, candidates.size, _BLOCK):
        cells = candidates[start : start + _BLOCK]
        i, j = np.divmod(cells, len(phis))
        # each cell sees the floats classify reads
        orders.flat[cells], marks = _scan(thetas[i], phis[j], n_max, tol)
        marginal.update((int(cells[cell]), m) for cell, m in marks.items())
    orders.flags.writeable = False
    return PhaseDiagram(thetas, phis, n_max, orders, marginal)
