import math
import warnings

import numpy as np
import pytest

from geopump import (
    LoopParams,
    RemovableSingularityWarning,
    asymptote_report,
    p_geometric,
    p_infinity,
    p_infinity_axis_route,
    phi_average,
    pump_trace,
)

RNG = np.random.default_rng(4242)


def _interior_loop(rng):
    return LoopParams(
        rng.uniform(1e-3, math.pi - 1e-3),
        rng.uniform(0.0, 2.0 * math.pi),
        rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3),
    )


class TestPInfinity:
    def test_frozen_reference_value(self):
        assert p_infinity(LoopParams(math.pi / 2, 0.0, 0.3)) == pytest.approx(
            0.45984107104345956, abs=1e-15
        )

    @pytest.mark.parametrize("theta", [0.2, 1.0, math.pi / 2, 3.0])
    def test_half_without_phase_bias(self, theta):
        # no dynamical phase: every open loop pumps at the ceiling;
        # tolerance covers the 1-cos^2 cancellation at small theta
        assert abs(p_infinity(LoopParams(theta)) - 0.5) < 1e-13

    @pytest.mark.parametrize("phi", [-1.2, 0.0, 0.9])
    def test_half_turn_hits_ceiling(self, phi):
        assert p_infinity(LoopParams(math.pi, 0.0, phi)) == 0.5

    def test_closed_loop_with_bias_is_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert p_infinity(LoopParams(0.0, 0.0, 0.8)) == 0.0

    def test_degenerate_corner_warns(self):
        with pytest.warns(RemovableSingularityWarning):
            assert p_infinity(LoopParams(0.0, 0.0, 0.0)) == 0.0

    def test_ceiling_on_random_draws(self):
        for _ in range(2000):
            assert p_infinity(_interior_loop(RNG)) <= 0.5 + 1e-12

    def test_omega_never_matters(self):
        lp = _interior_loop(RNG)
        for omega in (0.0, 1.0, 4.0):
            assert p_infinity(LoopParams(lp.theta, omega, lp.phi)) == p_infinity(lp)


def test_route_equivalence():
    """Direct rate and the axis-chart route must agree to near machine level."""
    worst = 0.0
    for _ in range(500):
        lp = _interior_loop(RNG)
        worst = max(worst, abs(p_infinity(lp) - p_infinity_axis_route(lp)))
    assert worst < 1e-10


class TestPGeometric:
    def test_frozen_value(self):
        assert p_geometric(math.pi / 2) == pytest.approx(0.35355339059327373, abs=1e-16)

    def test_endpoints(self):
        assert p_geometric(0.0) == 0.0
        assert p_geometric(math.pi) == 0.5

    @pytest.mark.parametrize("theta", [-0.5, 3.5])
    def test_domain(self, theta):
        with pytest.raises(ValueError):
            p_geometric(theta)


class TestPhiAverage:
    def test_matches_geometric_rate(self):
        for theta in np.linspace(0.0, math.pi, 21):
            assert phi_average(float(theta)) == pytest.approx(
                p_geometric(float(theta)), abs=1e-6
            )

    def test_refines_with_quadrature(self):
        # narrow loops peak the integrand, so coarse grids visibly miss
        coarse = abs(phi_average(0.05, 32) - p_geometric(0.05))
        fine = abs(phi_average(0.05, 4096) - p_geometric(0.05))
        assert coarse > 1e-4
        assert fine < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            phi_average(1.0, 8)
        with pytest.raises(ValueError):
            phi_average(-0.2)


class TestAsymptoteReport:
    def test_generic_report(self):
        rep = asymptote_report(LoopParams(math.pi / 2, 0.0, 0.3))
        assert rep.p_inf_direct == pytest.approx(0.45984107104345956, abs=1e-15)
        assert rep.discrepancy < 1e-12
        assert rep.stable_order is None and rep.orbit_mean is None

    def test_stable_orbit_mean_matches_closed_form(self):
        # a full period of a stable orbit averages to the generic rate
        rep = asymptote_report(LoopParams(math.pi / 2), stability_n_max=16)
        assert rep.stable_order == 4
        assert rep.orbit_mean == pytest.approx(rep.p_inf_direct, abs=1e-12)

    def test_unstable_leaves_order_unset(self):
        rep = asymptote_report(LoopParams(math.pi / 2, 0.0, 0.3), stability_n_max=64)
        assert rep.stable_order is None

    def test_long_run_trace_approaches_report(self):
        lp = LoopParams(2.2, 0.5, -0.7)
        rep = asymptote_report(lp)
        trace = pump_trace(lp, 20_000)
        assert abs(trace.p[-1] - rep.p_inf_direct) < 5e-3


class TestDegenerateCorner:
    @pytest.mark.parametrize("theta", [1e-9, 1e-6])
    @pytest.mark.parametrize("phi", [1e-9, 1e-6])
    def test_matches_direction_dependent_limit(self, theta, phi):
        # p_inf ~ theta^2 / (2 (theta^2 + 4 phi^2)) near (0, 0), with a
        # relative correction of order theta^2 + phi^2
        limit = 0.5 * theta**2 / (theta**2 + 4.0 * phi**2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = p_infinity(LoopParams(theta, 0.0, phi))
        assert got == pytest.approx(limit, rel=1e-9)

    @pytest.mark.parametrize("lp", [LoopParams(1e-6, 0.0, 0.3), LoopParams(1e-6, 0.0, 1e-6)])
    def test_axis_route_near_corner(self, lp):
        assert abs(p_infinity_axis_route(lp) - p_infinity(lp)) < 1e-10
