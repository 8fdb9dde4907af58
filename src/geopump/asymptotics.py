"""Long-run pump rates and their phase-averaged geometric ceiling.

The infinite-cycle mean of the excited-state weight has a closed form in
the loop coordinates; the same number falls out of the axis-angle chart,
which gives an independent route for cross-checking.  Averaging the
closed form over the dynamic phase collapses it to a purely geometric
value set by the loop opening angle alone.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .su2 import _BLOCK, HALF_PI, _axis_alpha, euler_from_loop, half_turn, require_angles
from .su2 import require_int


class RemovableSingularityWarning(UserWarning):
    """The closed form hit an exact 0/0 at theta = 0 with sin(phi) = 0.

    The singularity is not removable: near the corner p_infinity is about
    theta^2 / (2 * (theta^2 + 4 * phi^2)), so its limit depends on the
    direction of approach.  The value returned there, 0, is a convention
    (the limit along the theta = 0 line).
    """


def p_infinity(theta, phi):
    """Infinite-cycle mean excited-state weight; floats or arrays.

    Evaluated as A^2 / 2 with the half turn amplitude A = s / sin h (see
    HalfTurn), s = sin(theta/2) and sin h = hypot(s, cos(theta/2) sin(phi)):
    its square equals 1 - cos^2(theta/2) cos^2(phi) exactly but has no
    cancellation near the theta = 0, phi = 0 corner.  At an exact 0/0
    (theta = 0 with sin(phi) = 0) the value is 0, with a
    RemovableSingularityWarning.
    Raises ValueError for a non-finite angle or theta outside [0, pi].
    """
    require_angles(theta, phi=phi)
    ht = half_turn(theta, phi)
    if np.any(ht.sin_h == 0.0):
        warnings.warn(
            "pump rate is 0/0 at theta = 0 with zero dynamic phase; "
            "returning the limit along theta = 0, which is 0",
            RemovableSingularityWarning,
            stacklevel=2,
        )
    a = ht.amplitude
    return 0.5 * a * a


def p_infinity_axis_route(theta, omega, phi):
    """Same limit, computed from the rotation-axis polar angle instead;
    floats or arrays.

    The route reads the Euler triple of euler_from_loop, which stores the
    dynamic phase in psi = 2 phi - omega - pi/2, so near the theta = phi = 0
    corner phi is known only to about 2e-16 absolute: at theta =
    phi = 1e-9 the route is 4.5e-9 off p_infinity at omega = 0 and
    1.3e-8 off at omega = 2.  Rebuilding the operator from the chart cannot
    see this, since both matrices read the same rounded psi; verify
    samples the route on interior drives only.

    Raises IdentityRotationError when any loop operator is +/-identity and
    has no axis.
    """
    _, alpha = _axis_alpha(*euler_from_loop(theta, omega, phi))
    sa = np.sin(alpha)
    return 0.5 * sa * sa


def p_geometric(theta):
    """Phase-averaged pump rate: half the sine of the half opening angle.

    Floats or arrays, elementwise.
    """
    require_angles(theta)
    return 0.5 * np.sin(0.5 * theta)


def phi_average(theta, quadrature_points: int = 10_000):
    """Mean of p_infinity over the dynamic phase in [-pi/2, pi/2]; floats or
    arrays of theta, each checked before any quadrature work.

    Composite midpoint rule with the given number of cells; midpoints
    keep the sampling away from the interval endpoints.  The terms
    s^2 / (2 (s^2 + (c sin phi)^2)) are p_infinity without the 1 - (c cos
    phi)^2 cancellation.  Summation runs left to right so results are
    bit-reproducible: each block's sines are taken once for all theta,
    and each theta's row of terms takes its running total into its
    first term and is summed by np.add.accumulate, which is sequential.

    An even count M gives p_geometric tanh(M asinh(tan(theta/2))) to about
    M eps relative, so narrow loops are out of reach: at the default
    10 000 points the mean is 54% off p_geometric at theta = 1e-4, 99.5%
    at 1e-6.  An odd count n puts a midpoint at phi = 0, whose term is 1/2
    at any theta > 0, so the mean is about 2 / (n theta) times p_geometric
    (1176 at n = 17, theta = 1e-4; 200 at n = 10 001, theta = 1e-6).  Even
    counts stay at or below it.
    """
    require_angles(theta)
    require_int("quadrature_points", quadrature_points, 16)
    h = math.pi / quadrature_points
    halves = 0.5 * np.ravel(np.asarray(theta, dtype=float))
    rows = list(zip(np.cos(halves), np.sin(halves) ** 2))  # c, s^2
    totals = [0.0] * len(rows)
    for start in range(0, quadrature_points, _BLOCK):
        phi = -HALF_PI + (np.arange(start, min(start + _BLOCK, quadrature_points)) + 0.5) * h
        sines = np.sin(phi)
        for i, (c, s2) in enumerate(rows):
            core = c * sines
            denom = s2 + core * core
            terms = np.divide(0.5 * s2, denom, out=np.zeros_like(denom), where=denom > 0.0)
            terms[0] += totals[i]
            totals[i] = float(np.add.accumulate(terms)[-1])
    means = np.array(totals) * h / math.pi
    return float(means[0]) if np.ndim(theta) == 0 else means.reshape(np.shape(theta))
