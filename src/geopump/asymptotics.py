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
from dataclasses import dataclass

from .su2 import HALF_PI, LoopParams, axis_angle_from_euler, euler_from_loop, half_turn


class RemovableSingularityWarning(UserWarning):
    """The closed form hit an exact 0/0 at theta = 0 with sin(phi) = 0.

    The singularity is not removable: near the corner p_infinity is about
    theta^2 / (2 * (theta^2 + 4 * phi^2)), so its limit depends on the
    direction of approach.  The value returned there, 0, is a convention
    (the limit along the theta = 0 line).
    """


def p_infinity(lp: LoopParams) -> float:
    """Infinite-cycle mean excited-state weight of the loop.

    Evaluated as (s / sin h)^2 / 2 with s = sin(theta/2) and the half turn
    sine sin h = hypot(s, cos(theta/2) sin(phi)): its square equals
    1 - cos^2(theta/2) cos^2(phi) exactly but has no cancellation near the
    theta = 0, phi = 0 corner.  At the exact 0/0 (theta = 0 with
    sin(phi) = 0) it returns 0 with a RemovableSingularityWarning.
    """
    s, _, _, sin_h = half_turn(lp.theta, lp.phi)
    if sin_h == 0.0:
        warnings.warn(
            "pump rate is 0/0 at theta = 0 with zero dynamic phase; "
            "returning the limit along theta = 0, which is 0",
            RemovableSingularityWarning,
            stacklevel=2,
        )
        return 0.0
    ratio = s / sin_h
    return 0.5 * ratio * ratio


def p_infinity_axis_route(lp: LoopParams) -> float:
    """Same limit, computed from the rotation-axis polar angle instead.

    Raises IdentityRotationError when the loop operator is +/-identity and
    has no axis.
    """
    aa = axis_angle_from_euler(euler_from_loop(lp))
    sa = math.sin(aa.alpha)
    return 0.5 * sa * sa


def p_geometric(theta: float) -> float:
    """Phase-averaged pump rate: half the sine of the half opening angle."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    return 0.5 * math.sin(0.5 * theta)


def phi_average(theta: float, quadrature_points: int = 10_000) -> float:
    """Mean of p_infinity over the dynamic phase in [-pi/2, pi/2].

    Composite midpoint rule with the given number of cells; midpoints
    keep the sampling away from the interval endpoints.  Summation runs
    left to right so results are bit-reproducible.
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    if quadrature_points < 16:
        raise ValueError(f"need at least 16 quadrature points, got {quadrature_points}")
    h = math.pi / quadrature_points
    s = math.sin(0.5 * theta)
    c = math.cos(0.5 * theta)
    half_num = 0.5 * s * s
    total = 0.0
    for i in range(quadrature_points):
        phi = -HALF_PI + (i + 0.5) * h
        core = c * math.cos(phi)
        denom = 1.0 - core * core
        total += half_num / denom if denom > 0.0 else 0.0
    return total * h / math.pi


@dataclass(frozen=True)
class AsymptoteReport:
    """Both routes to the long-run rate plus their absolute discrepancy.

    stable_order and orbit_mean are populated only when the caller asked
    for a stability check and the loop closed into a periodic orbit; the
    orbit mean over one period is then the honest full-sequence limit.
    """

    p_inf_direct: float
    p_inf_axis: float
    discrepancy: float
    stable_order: int | None = None
    orbit_mean: float | None = None


def asymptote_report(lp: LoopParams, stability_n_max: int = 0) -> AsymptoteReport:
    """Compute the long-run rate by both routes and compare.

    With stability_n_max > 0 the loop is also classified; if a finite
    orbit of order N is found, the mean weight over one orbit is reported
    alongside the order.
    """
    direct = p_infinity(lp)
    axis = p_infinity_axis_route(lp)
    order = None
    orbit_mean = None
    if stability_n_max > 0:
        from .evolution import pump_trace
        from .stability import classify

        verdict = classify(lp, stability_n_max)
        if verdict.stable:
            order = verdict.order
            orbit_mean = float(pump_trace(lp, order).p[-1])
    return AsymptoteReport(
        p_inf_direct=direct,
        p_inf_axis=axis,
        discrepancy=abs(direct - axis),
        stable_order=order,
        orbit_mean=orbit_mean,
    )
