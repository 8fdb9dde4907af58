"""Exact 2x2 special-unitary algebra and its angle charts.

Matrices are plain complex numpy arrays of shape (2, 2); spin states are
complex arrays of shape (2,).  Three interchangeable coordinate charts
cover the group: axis-angle (axis polar angle, axis azimuth, turn angle),
z-x-z Euler angles, and the loop coordinates (theta, omega, phi) used by
the cycle simulator.  Conversions are exact trigonometric maps; the
axis-angle chart is checked by rebuilding its matrix and demanding entrywise
agreement with the source.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

# default tolerance for "is this still special-unitary" checks
UNITARITY_TOL = 1e-12

# half turn sines below this are +/-identity to rounding: no axis is defined
IDENTITY_SIN_TOL = 4.0 * sys.float_info.epsilon


class IdentityRotationError(ValueError):
    """The rotation is the identity up to global sign, so no axis exists."""


class ChartBranchError(ArithmeticError):
    """The axis-angle chart does not reproduce the source rotation."""


def _require_finite(**angles):
    for name, value in angles.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite angle, got {value!r}")


@dataclass(frozen=True)
class LoopParams:
    """Coordinates of one driving loop.

    theta is the opening angle of the loop as seen from the degeneracy
    point and must lie in [0, pi].  omega is the azimuth of the loop
    plane (canonical range [0, 2*pi)) and phi the dynamic phase picked up
    per cycle (canonical range [-pi/2, pi/2]).  omega and phi are accepted
    outside their canonical windows because several symmetry checks need
    e.g. phi + pi; use canonical() to fold them back.
    """

    theta: float
    omega: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        _require_finite(theta=self.theta, omega=self.omega, phi=self.phi)
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")

    def canonical(self) -> "LoopParams":
        """Fold omega into [0, 2*pi) and phi into [-pi/2, pi/2].

        Shifting phi by pi flips the loop operator by a global sign, so
        all pump observables are unchanged.
        """
        return LoopParams(
            self.theta,
            self.omega % TWO_PI,
            (self.phi + HALF_PI) % math.pi - HALF_PI,
        )

    @classmethod
    def folded(cls, theta: float, omega: float = 0.0, phi: float = 0.0) -> "LoopParams":
        """Build canonical params from arbitrary finite angles.

        theta is wrapped into [0, pi] using the exact matrix identity
        U(-theta, omega, phi) = U(theta, omega + pi, phi).
        """
        _require_finite(theta=theta)
        wrapped = (theta + math.pi) % TWO_PI - math.pi
        if wrapped < 0.0:
            wrapped = -wrapped
            omega = omega + math.pi
        return cls(wrapped, omega, phi).canonical()


@dataclass(frozen=True)
class AxisAngle:
    """Rotation by delta about the axis with polar angle alpha, azimuth beta."""

    alpha: float
    beta: float
    delta: float

    def __post_init__(self):
        _require_finite(alpha=self.alpha, beta=self.beta, delta=self.delta)
        if not 0.0 <= self.alpha <= math.pi:
            raise ValueError(f"alpha must lie in [0, pi], got {self.alpha}")
        if not 0.0 <= self.beta < TWO_PI:
            raise ValueError(f"beta must lie in [0, 2*pi), got {self.beta}")
        if not 0.0 <= self.delta < TWO_PI:
            raise ValueError(f"delta must lie in [0, 2*pi), got {self.delta}")


@dataclass(frozen=True)
class EulerAngles:
    """z-x-z Euler angles (phi, theta, psi) with theta restricted to [0, pi].

    phi and psi are unconstrained: reducing them modulo 2*pi would flip
    the matrix by a global sign, so callers keep the raw values.
    """

    phi: float
    theta: float
    psi: float

    def __post_init__(self):
        _require_finite(phi=self.phi, theta=self.theta, psi=self.psi)
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")


# --- states ---------------------------------------------------------------

def ground_state() -> np.ndarray:
    """Lower basis spinor (1, 0)."""
    return np.array([1.0 + 0.0j, 0.0j])


def excited_state() -> np.ndarray:
    """Upper basis spinor (0, 1)."""
    return np.array([0.0j, 1.0 + 0.0j])


# --- group operations -----------------------------------------------------

def power(u: np.ndarray, n: int) -> np.ndarray:
    """n-th matrix power for natural n, by binary exponentiation."""
    if n < 0 or n != int(n):
        raise ValueError(f"exponent must be a natural number, got {n!r}")
    return np.linalg.matrix_power(u, int(n))


def su2_defect(u: np.ndarray) -> float:
    """Largest deviation from unitarity and from det = 1."""
    gram = u.conj().T @ u
    unit = float(np.max(np.abs(gram - np.eye(2))))
    det = abs(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0] - 1.0)
    return max(unit, det)


def is_su2(u: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    return u.shape == (2, 2) and su2_defect(u) <= tol


# --- chart conversions ----------------------------------------------------

def half_turn(theta: float, phase: float) -> tuple[float, float, float, float]:
    """Quaternion parts of the rotation with opening angle theta and phase.

    Returns (s, c_sin, c_cos, sin_h) with s = sin(theta/2), c_sin =
    cos(theta/2) sin(phase), c_cos = cos(theta/2) cos(phase) = cos h, where
    h is the half turn angle, and sin_h = hypot(s, c_sin).  The last uses
    the exact identity 1 - cos^2 h = s^2 + c_sin^2, so it keeps full
    relative precision near the identity, where sqrt(1 - cos^2 h) cancels.
    """
    c = math.cos(0.5 * theta)
    s = math.sin(0.5 * theta)
    c_sin = c * math.sin(phase)
    return s, c_sin, c * math.cos(phase), math.hypot(s, c_sin)


def rotation_from_axis_angle(aa: AxisAngle) -> np.ndarray:
    """Special-unitary rotation by aa.delta about the axis (aa.alpha, aa.beta)."""
    ch = math.cos(0.5 * aa.delta)
    sh = math.sin(0.5 * aa.delta)
    ca = math.cos(aa.alpha)
    sa = math.sin(aa.alpha)
    off = -1j * sh * sa
    return np.array(
        [
            [ch - 1j * sh * ca, off * cmath.exp(-1j * aa.beta)],
            [off * cmath.exp(1j * aa.beta), ch + 1j * sh * ca],
        ]
    )


def su2_from_euler(e: EulerAngles) -> np.ndarray:
    """Matrix of the z-x-z Euler triple (phi, theta, psi)."""
    ch = math.cos(0.5 * e.theta)
    sh = math.sin(0.5 * e.theta)
    half_sum = 0.5 * (e.phi + e.psi)
    half_diff = 0.5 * (e.phi - e.psi)
    return np.array(
        [
            [ch * cmath.exp(-1j * half_sum), -1j * sh * cmath.exp(-1j * half_diff)],
            [-1j * sh * cmath.exp(1j * half_diff), ch * cmath.exp(1j * half_sum)],
        ]
    )


def axis_angle_from_euler(e: EulerAngles, match_tol: float = 1e-10) -> AxisAngle:
    """Axis-angle chart of an Euler triple.

    The turn angle and the axis polar angle come from atan2 of the
    quaternion parts (see half_turn), which stays accurate near the
    identity; the azimuth comes from the off-diagonal phase.  Since
    cos(delta/2) = cos h and sin(delta/2) cos(alpha) = cos(theta/2) sin(phase),
    the rebuilt matrix equals the Euler matrix entry for entry; it is
    compared once, within match_tol, as a guard.

    Raises IdentityRotationError when the matrix is the identity up to
    global sign and the axis is undefined, and ChartBranchError when the
    rebuilt matrix does not match.
    """
    s, c_sin, c_cos, sin_half_turn = half_turn(e.theta, 0.5 * (e.phi + e.psi))
    if sin_half_turn < IDENTITY_SIN_TOL:
        raise IdentityRotationError(
            "rotation equals +/-identity; axis angles are undefined"
        )
    delta = 2.0 * math.atan2(sin_half_turn, c_cos)
    alpha = math.atan2(s, c_sin)
    if math.sin(alpha) * sin_half_turn > 1e-15:
        beta = (0.5 * (e.phi - e.psi)) % TWO_PI
    else:
        beta = 0.0  # axis along z, azimuth is arbitrary
    aa = AxisAngle(alpha, beta, delta)
    if not np.max(np.abs(rotation_from_axis_angle(aa) - su2_from_euler(e))) < match_tol:
        raise ChartBranchError(
            f"the axis-angle chart does not reproduce the rotation {e} within {match_tol:g}"
        )
    return aa


def euler_from_loop(lp: LoopParams) -> EulerAngles:
    """Euler triple whose matrix equals the loop operator entrywise.

    The half-sum of (phi, psi) carries the dynamic phase and the
    half-difference carries the loop azimuth; theta passes through
    unchanged.  Values are returned unreduced so the map stays an exact
    right inverse of su2_from_euler.
    """
    return EulerAngles(
        phi=lp.omega + HALF_PI,
        theta=lp.theta,
        psi=2.0 * lp.phi - lp.omega - HALF_PI,
    )
