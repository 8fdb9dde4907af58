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
rest only on numpy ufuncs that round as math and cmath do at every SIMD
dispatch level: IEEE arithmetic, sqrt, abs, maximum, floor, remainder,
sin, cos and complex exp.  Python takes one element at a time where numpy
2.4.6 was measured to round otherwise: math.hypot and math.atan2 (_libm;
over 1e6 sample_loop_params draws, seed 1, np.hypot differs on 0.67% of
sin_h inputs at every level, np.arctan2 on 5.4% of h and 7.0% of alpha
inputs under X86_V4), stable_curve's math.acos (np.arccos: 9% of ratios
under X86_V4), products in Python complex (su2_defect) or real arithmetic
(evolution._rotate), as numpy's complex multiply differs on 44% of normal
draws from X86_V3 up, and verify's complex abs (np.abs: 35% at any level).
np.arctan2 feeds only band.winding_number's integer and, with np.hypot,
phase_diagram's keep/drop prefilter, whose 2 ulp margin dwarfs any wobble.
Matrix products feed only verify's oracles (BLAS has its own dispatch).
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

# the one block size, so memory does not grow with a run's length: rows of
# a table block (cli._column_blocks, cli._grid_blocks), cycles of
# pump_trace_blocks and propagate_state (and its table of powers), momenta
# of pump_profile_blocks, phases of phi_average, cells of a grid block
# (stability._grid_cut), which phase_diagram scans and cli writes
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


def require_int(name: str, value, least: int) -> int:
    """operator.index(value) if it is at least `least`, else a ValueError
    naming `name`; 2.5, 2.0 or True is no size."""
    try:  # operator.index(None) raises the TypeError
        value = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


@dataclass(frozen=True)
class LoopParams:
    """Coordinates of one driving loop.

    theta is the opening angle of the loop as seen from the degeneracy
    point and must lie in [0, pi].  omega is the azimuth of the loop
    plane (canonical range [0, 2*pi)) and phi the dynamic phase picked up
    per cycle (canonical range [-pi/2, pi/2]).  Any finite omega and phi
    is accepted, as the loop operator is 2 pi periodic in both and phi + pi
    only flips its global sign: every finite pair names a loop.
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
    """n-th matrix power for an integer n >= 0, by binary exponentiation."""
    return np.linalg.matrix_power(u, require_int("n", n, 0))


def su2_defect(u: np.ndarray):
    """Largest deviation from unitarity and from det = 1 of each matrix of
    a (..., 2, 2) stack; a float for one (2, 2) matrix."""
    unit = np.max(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(2)), axis=(-2, -1))
    # det in Python complex arithmetic, which rounds as numpy's complex
    # scalars do; numpy's array product rounds otherwise
    det = [abs(a * d - b * c - 1.0) for a, b, c, d in np.reshape(u, (-1, 4)).tolist()]
    return np.maximum(unit, np.reshape(det, unit.shape))[()]


# --- chart conversions ----------------------------------------------------

def _libm(fn, y, x):
    """fn(y, x) elementwise for math.atan2 or math.hypot, one Python call
    per element: a float for floats, else an array of the broadcast shape;
    the module docstring says why numpy's own ufuncs are not used."""
    if np.ndim(y) == np.ndim(x) == 0:
        return fn(y, x)
    y, x = np.broadcast_arrays(y, x)
    out = np.fromiter(map(fn, y.ravel().tolist(), x.ravel().tolist()), float, y.size)
    return out.reshape(y.shape)[()]


def _stack(u00, u01, u10, u11) -> np.ndarray:
    # entries of shape S -> matrices of shape S + (2, 2)
    entries = np.broadcast_arrays(u00, u01, u10, u11)
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (2, 2))


@dataclass(frozen=True, eq=False)
class HalfTurn:
    """Quaternion parts of rotations with opening angle theta and a phase.

    s = sin(theta/2), c_sin = cos(theta/2) sin(phase) and c_cos =
    cos(theta/2) cos(phase) = cos h, where h is the half turn angle, so the
    trace is y = 2 c_cos.  sin_h = hypot(s, c_sin), h = atan2(sin_h,
    c_cos) and the amplitude A = s / sin_h are computed on first read:
    sin_h uses the exact identity 1 - cos^2 h = s^2 + c_sin^2, so it keeps
    full relative precision near the identity, where sqrt(1 - cos^2 h)
    cancels.  hypot and atan2 are math's, one call per element (_libm);
    math.hypot is faithful on Python >= 3.10, so sin_h >= max(|s|, |c_sin|)
    and the correctly rounded A lies in [0, 1].
    Fields are floats or arrays, as the angles were.
    """

    s: np.ndarray
    c_sin: np.ndarray
    c_cos: np.ndarray

    @cached_property
    def sin_h(self):
        return _libm(math.hypot, self.s, self.c_sin)

    @cached_property
    def h(self):
        return _libm(math.atan2, self.sin_h, self.c_cos)

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
    return _stack(
        ch - 1j * sh * ca, off * np.exp(-1j * beta), off * np.exp(1j * beta), ch + 1j * sh * ca
    )


def euler_matrices(phi, theta, psi) -> np.ndarray:
    """Matrices of z-x-z Euler triples (phi, theta, psi), shape (..., 2, 2)."""
    ch = np.cos(0.5 * theta)
    sh = np.sin(0.5 * theta)
    half_sum = 0.5 * (phi + psi)
    half_diff = 0.5 * (phi - psi)
    return _stack(
        ch * np.exp(-1j * half_sum),
        -1j * sh * np.exp(-1j * half_diff),
        -1j * sh * np.exp(1j * half_diff),
        ch * np.exp(1j * half_sum),
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
    return ht, _libm(math.atan2, ht.s, ht.c_sin)


def _require_axis(ht: HalfTurn) -> HalfTurn:
    """ht itself, or IdentityRotationError when any of its rotations is
    +/-identity to rounding (sin_h < IDENTITY_SIN_TOL) and has no axis;
    a faithful hypot is at least each leg, so only cells with both legs
    below the tolerance are measured, and ht.sin_h is left unread."""
    s, c_sin = np.broadcast_arrays(np.abs(ht.s), np.abs(ht.c_sin))
    near = (s < IDENTITY_SIN_TOL) & (c_sin < IDENTITY_SIN_TOL)
    if np.any(_libm(math.hypot, s[near], c_sin[near]) < IDENTITY_SIN_TOL):
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
