"""Exact 2x2 special-unitary algebra and its angle charts.

Matrices are complex numpy arrays of shape (2, 2).  Three interchangeable
coordinate charts cover the group: axis-angle (axis polar angle, axis
azimuth, turn angle), z-x-z Euler angles, and the loop coordinates
(theta, omega, phi) used by the cycle simulator.  Conversions are exact
trigonometric maps.

Every closed form reads the rotation through one HalfTurn record: the
quaternion parts of half_turn(theta, phase), the half turn angle h with
cos h = cos(theta/2) cos(phase), and the amplitude A = s / sin h that sets
both the pump trace from the ground state and its long-run mean.  The
charts take arrays: half_turn, euler_from_loop, axis_angle_from_euler and
the matrix builders work elementwise on floats or equal-shape arrays of
angles (matrices then stack as (..., 2, 2)); require_angles, which
LoopParams calls too, checks their domain once per array.  Output bytes
rest only on numpy ufuncs that round alike at every SIMD dispatch level:
IEEE arithmetic, sqrt, abs, maximum, floor, remainder, sin and cos, and
the integer and bit operations that read a double's exponent.  hypot on
arrays is _hypot, a port of math.hypot built from those exact operations
alone; only atan2 goes through math (_atan2).  np.arctan2 feeds only
band.winding_number's integer and the keep/drop decision of
phase_diagram's prefilter, and matrix
products only verify's oracles (BLAS has its own dispatch).  The prefilter
cannot tie bytes to the dispatch level either: its margin covers an error of
2 ulp in np.arctan2, far above any wobble between levels, so no level drops
a cell that could come near a return, and a kept cell is scanned exactly.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

# half turn sines below this are +/-identity to rounding: no axis is defined
IDENTITY_SIN_TOL = 4.0 * sys.float_info.epsilon

_SPLIT = float(2**27 + 1)  # Veltkamp's splitter for 53-bit significands
_EXP = 0x7FF << 52  # a double's exponent bits
# _hypot's own range of the larger leg, [DBL_MIN, 2^1023), as int64 bits
_HYPOT_MIN, _HYPOT_SPAN = 1 << 52, (0x7FE << 52) - (1 << 52)

# the one block size, so memory does not grow with a run's length: rows of
# a table block (cli._column_blocks, cli._grid_blocks), cycles of
# pump_trace_blocks and propagate_state, momenta of pump_profile_blocks,
# phases of phi_average, cells of phase_diagram's filter and candidate scan
_BLOCK = 4096


class IdentityRotationError(ValueError):
    """The rotation is the identity up to global sign, so no axis exists."""


def _reject(name: str, values: np.ndarray, ok: np.ndarray, rule: str) -> None:
    if not ok.all():
        raise ValueError(f"{name} must {rule}, got {float(values[~ok].flat[0])!r}")


def require_angles(theta, **angles) -> None:
    """Raise ValueError unless every angle is finite and theta lies in
    [0, pi]; floats or arrays, one pass per array."""
    for name, values in {"theta": theta, **angles}.items():
        values = np.asarray(values)
        _reject(name, values, np.isfinite(values), "be a finite angle")
    theta = np.asarray(theta)
    _reject("theta", theta, (theta >= 0.0) & (theta <= math.pi), "lie in [0, pi]")


def require_int(name: str, value) -> int:
    """operator.index(value), so 2.5 or 2.0 is no size; ValueError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class LoopParams:
    """Coordinates of one driving loop.

    theta is the opening angle of the loop as seen from the degeneracy
    point and must lie in [0, pi].  omega is the azimuth of the loop
    plane (canonical range [0, 2*pi)) and phi the dynamic phase picked up
    per cycle (canonical range [-pi/2, pi/2]).  omega and phi are accepted
    outside their canonical windows because several symmetry checks need
    e.g. phi + pi, which flips the loop operator by a global sign.
    Each field is stored as float() of the value given, which require_angles
    then checks.
    """

    theta: float
    omega: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        for name in ("theta", "omega", "phi"):
            object.__setattr__(self, name, float(getattr(self, name)))
        require_angles(self.theta, omega=self.omega, phi=self.phi)


# --- group operations -----------------------------------------------------

def power(u: np.ndarray, n: int) -> np.ndarray:
    """n-th matrix power for natural n, by binary exponentiation."""
    if n < 0 or n != int(n):
        raise ValueError(f"exponent must be a natural number, got {n!r}")
    return np.linalg.matrix_power(u, int(n))


def su2_defect(u: np.ndarray):
    """Largest deviation from unitarity and from det = 1 of each matrix of
    a (..., 2, 2) stack; a float for one (2, 2) matrix."""
    unit = np.max(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(2)), axis=(-2, -1))
    # det in Python complex arithmetic, which rounds as numpy's complex
    # scalars do; numpy's array product rounds otherwise
    det = [abs(a * d - b * c - 1.0) for a, b, c, d in np.reshape(u, (-1, 4)).tolist()]
    return np.maximum(unit, np.reshape(det, unit.shape))[()]


# --- chart conversions ----------------------------------------------------

def _atan2(y, x):
    """math.atan2(y, x) elementwise, one Python call per element.

    On purpose: the written tables follow libm's atan2, which no sequence
    of IEEE operations rebuilds.  Over 1e6 draws of sample_loop_params
    (seed 1, numpy 2.4.6), np.arctan2 differs from math.atan2 on 5.4% of
    the h inputs and 7.0% of the alpha inputs under AVX512 (X86_V4)
    dispatch and on none with it disabled, so vectorising would tie output
    bytes to the host's SIMD level.
    """
    if np.ndim(y) == np.ndim(x) == 0:
        return math.atan2(y, x)
    y, x = np.broadcast_arrays(y, x)
    out = np.fromiter(map(math.atan2, y.ravel().tolist(), x.ravel().tolist()), float, y.size)
    return out.reshape(y.shape)[()]


def _split(a):
    # Veltkamp's halves of a double: a = hi + lo exactly, each half short
    # enough that a product of two is exact (Dekker, Numer. Math. 18, 1971)
    hi = a * _SPLIT
    lo = hi - a
    hi -= lo
    return hi, a - hi


def _square(v):
    # v * v as z + zz exactly: CPython's dl_mul(v, v), Dekker's mul12 on
    # Veltkamp halves, step for step (numpy fuses no multiply and add)
    hi, lo = _split(v)
    q = hi * lo
    q += q  # hi lo + lo hi
    hi *= hi
    z = hi + q
    hi -= z
    hi += q
    lo *= lo
    hi += lo
    return z, hi


def _hypot(x, y):
    """math.hypot(x, y) elementwise on arrays, bit for bit.

    The two-leg path of CPython's vector_norm (Modules/mathmodule.c,
    Python >= 3.10), each step an IEEE operation in the same order: both
    legs scaled by the power of two that takes the larger into [0.5, 1),
    their squares split exactly (_square), a running sum from 1.0 kept
    lossless by fast two-sums with the low parts added apart, sqrt, and
    one differential correction from the residual of h^2.  Cells whose
    larger leg is 0, subnormal, 2^1023 or more (the result could
    overflow), inf or NaN go to math.hypot itself.  np.hypot is no
    substitute: it differs from math.hypot on 0.67% of the sin_h inputs of
    1e6 seed-1 draws, at every dispatch level.
    """
    x, y = np.asarray(x, float), np.asarray(y, float)
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    shape, x, y = x.shape, np.abs(x).ravel(), np.abs(y).ravel()
    bits = np.maximum(x, y).view(np.int64)
    slow = np.flatnonzero((bits - _HYPOT_MIN).view(np.uint64) >= _HYPOT_SPAN)
    legs = list(zip(x[slow].tolist(), y[slow].tolist()))
    x[slow], y[slow], bits[slow] = 1.0, 1.0, 0x3FF << 52  # the bits of 1.0
    top = (bits & _EXP).view(np.float64)
    top += top  # 2^e, the larger leg in [2^(e - 1), 2^e)
    scale = 1.0 / top  # exact: at 2^-1023 a subnormal power of two
    x *= scale
    y *= scale
    # vector_norm's names: csum from 1.0 by fast two-sums, frac1 and frac2
    # their low parts; each frac starts at its first term, not 0.0 + it,
    # which only turns -0.0 into 0.0, and no zero's sign reaches h: csum - 1
    # is at least 0.25 under sqrt, and a zero correction adds nothing
    z, frac1 = _square(x)
    total = z + 1.0
    frac2 = 1.0 - total
    frac2 += z
    z, lo = _square(y)
    frac1 += lo
    csum = total + z
    z -= csum - total
    frac2 += z
    h = csum - 1.0
    h += frac1 + frac2
    np.sqrt(h, out=h)
    z, lo = _square(h)  # -h h squares to -(z + lo), bit for bit
    frac1 -= lo
    total = csum - z
    z += total - csum
    frac2 -= z
    x = total - 1.0  # the residual of h^2
    x += frac1 + frac2
    x /= 2.0 * h
    h += x
    h *= top  # h / scale, exactly
    h[slow] = [math.hypot(a, b) for a, b in legs]
    return h.reshape(shape)


def _cis(x, sign=1):
    # exp(sign * ix) bit for bit as cmath.exp(sign * 1j * x) gives it, signed
    # zeros too: cos and sin of that argument's imaginary part t, which is
    # x + 0.0 for sign 1 (-0.0 turns into 0.0) and -x for sign -1
    t = (sign * 1j * np.asarray(x)).imag
    out = np.empty(t.shape, dtype=complex)
    out.real, out.imag = np.cos(t), np.sin(t)
    return out


def _stack(u00, u01, u10, u11) -> np.ndarray:
    # entries of shape S -> matrices of shape S + (2, 2)
    out = np.empty(np.broadcast(u00, u01, u10, u11).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = u00
    out[..., 0, 1] = u01
    out[..., 1, 0] = u10
    out[..., 1, 1] = u11
    return out


@dataclass(frozen=True, eq=False)
class HalfTurn:
    """Quaternion parts of rotations with opening angle theta and a phase.

    s = sin(theta/2), c_sin = cos(theta/2) sin(phase) and c_cos =
    cos(theta/2) cos(phase) = cos h, where h is the half turn angle, so the
    trace is y = 2 c_cos.  sin_h = hypot(s, c_sin), h = atan2(sin_h,
    c_cos) and the amplitude A = s / sin_h are computed on first read:
    sin_h uses the exact identity 1 - cos^2 h = s^2 + c_sin^2, so it keeps
    full relative precision near the identity, where sqrt(1 - cos^2 h)
    cancels.  hypot is math.hypot on floats and its bit-exact port _hypot
    on arrays; it is faithful on Python >= 3.10, so sin_h >= s and the
    correctly rounded A lies in [0, 1].  atan2 is math.atan2 per element.
    Fields are floats or arrays, as the angles were.
    """

    s: np.ndarray
    c_sin: np.ndarray
    c_cos: np.ndarray

    @cached_property
    def sin_h(self):
        if np.ndim(self.s) == np.ndim(self.c_sin) == 0:
            return math.hypot(self.s, self.c_sin)
        return _hypot(self.s, self.c_sin)

    @cached_property
    def h(self):
        return _atan2(self.sin_h, self.c_cos)

    @cached_property
    def amplitude(self):
        # A = s / sin h; at the identity corner sin h = 0 forces s = 0, and A = 0
        return self.s / np.where(self.sin_h == 0.0, 1.0, self.sin_h)


def half_turn(theta, phase) -> HalfTurn:
    """The HalfTurn of opening angles theta and phases, elementwise."""
    c = np.cos(0.5 * theta)
    return HalfTurn(np.sin(0.5 * theta), c * np.sin(phase), c * np.cos(phase))


def axis_angle_matrices(alpha, beta, delta) -> np.ndarray:
    """Rotations by delta about the axes (alpha, beta), shape (..., 2, 2)."""
    ch = np.cos(0.5 * delta)
    sh = np.sin(0.5 * delta)
    ca = np.cos(alpha)
    sa = np.sin(alpha)
    off = -1j * sh * sa
    return _stack(ch - 1j * sh * ca, off * _cis(beta, -1), off * _cis(beta), ch + 1j * sh * ca)


def euler_matrices(phi, theta, psi) -> np.ndarray:
    """Matrices of z-x-z Euler triples (phi, theta, psi), shape (..., 2, 2)."""
    ch = np.cos(0.5 * theta)
    sh = np.sin(0.5 * theta)
    half_sum = 0.5 * (phi + psi)
    half_diff = 0.5 * (phi - psi)
    return _stack(
        ch * _cis(half_sum, -1),
        -1j * sh * _cis(half_diff, -1),
        -1j * sh * _cis(half_diff),
        ch * _cis(half_sum),
    )


def axis_angle_from_euler(phi, theta, psi):
    """Axis-angle chart (alpha, beta, delta) of z-x-z Euler triples.

    Floats or equal-shape arrays, elementwise.  The turn angle and the axis
    polar angle come from atan2 of the quaternion parts (see half_turn),
    which stays accurate near the identity; the azimuth comes from the
    off-diagonal phase.  Since cos(delta/2) = cos h and
    sin(delta/2) cos(alpha) = cos(theta/2) sin(phase), axis_angle_matrices
    of the chart equals euler_matrices entry for entry up to rounding.

    Raises ValueError for a non-finite angle or theta outside [0, pi], and
    IdentityRotationError when any matrix is the identity up to global
    sign and its axis is undefined.
    """
    phi, theta, psi = np.broadcast_arrays(phi, theta, psi)
    ht, alpha = _axis_alpha(phi, theta, psi)
    delta = 2.0 * ht.h
    # on the z axis the azimuth is arbitrary
    beta = np.where(np.sin(alpha) * ht.sin_h > 1e-15, (0.5 * (phi - psi)) % TWO_PI, 0.0)[()]
    return alpha, beta, delta


def _axis_alpha(phi, theta, psi):
    """(HalfTurn, alpha) of Euler triples: the checks and the axis polar
    angle of axis_angle_from_euler, without the turn angle and the azimuth."""
    require_angles(theta, phi=phi, psi=psi)
    ht = _require_axis(half_turn(theta, 0.5 * (phi + psi)))
    return ht, _atan2(ht.s, ht.c_sin)


def _require_axis(ht: HalfTurn) -> HalfTurn:
    """ht itself, or IdentityRotationError when any of its rotations is
    +/-identity to rounding and has no axis."""
    if np.any(ht.sin_h < IDENTITY_SIN_TOL):
        raise IdentityRotationError("rotation equals +/-identity; it has no axis")
    return ht


def euler_from_loop(theta, omega, phi):
    """Euler triple (phi, theta, psi) whose matrix equals the loop operator.

    Floats or arrays.  The half-sum of (phi, psi) carries the dynamic
    phase and the half-difference carries the loop azimuth; theta passes
    through unchanged.  Values are returned unreduced so the map stays an
    exact right inverse of euler_matrices.
    """
    return omega + HALF_PI, theta, 2.0 * phi - omega - HALF_PI
