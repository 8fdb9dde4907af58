import inspect
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geopump import (
    IdentityRotationError,
    LoopParams,
    RemovableSingularityWarning,
    classify,
    make_rng,
    p_geometric,
    p_infinity,
    p_infinity_axis_route,
    phi_average,
    pump_trace,
    sample_loop_params,
)
from geopump.su2 import _BLOCK, HALF_PI
from test_su2 import _U, _gamma

RNG = np.random.default_rng(4242)


def _interior_loop(rng):
    return LoopParams(
        rng.uniform(1e-3, math.pi - 1e-3),
        rng.uniform(0.0, 2.0 * math.pi),
        rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3),
    )


class TestPInfinity:
    def test_frozen_reference_value(self):
        assert p_infinity(math.pi / 2, 0.3) == pytest.approx(
            0.45984107104345956, abs=1e-15
        )

    @pytest.mark.parametrize("theta", [0.2, 1.0, math.pi / 2, 3.0])
    def test_half_without_phase_bias(self, theta):
        # no dynamical phase: every open loop pumps at the ceiling;
        # tolerance covers the 1-cos^2 cancellation at small theta
        assert abs(p_infinity(theta, 0.0) - 0.5) < 1e-13

    @pytest.mark.parametrize("phi", [-1.2, 0.0, 0.9])
    def test_half_turn_hits_ceiling(self, phi):
        assert p_infinity(math.pi, phi) == 0.5

    def test_closed_loop_with_bias_is_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert p_infinity(0.0, 0.8) == 0.0

    def test_degenerate_corner_warns(self):
        with pytest.warns(RemovableSingularityWarning):
            assert p_infinity(0.0, 0.0) == 0.0

    def test_ceiling_on_random_draws(self):
        for _ in range(2000):
            lp = _interior_loop(RNG)
            assert p_infinity(lp.theta, lp.phi) <= 0.5 + 1e-12

    def test_omega_never_matters(self):
        # p_infinity takes no azimuth; the axis route reads one and must
        # land on the same rate for every omega
        lp = _interior_loop(RNG)
        want = p_infinity(lp.theta, lp.phi)
        for omega in (0.0, 1.0, 4.0):
            assert abs(p_infinity_axis_route(lp.theta, omega, lp.phi) - want) < 1e-10


def test_route_equivalence():
    """Direct rate and the axis-chart route must agree to near machine level."""
    worst = 0.0
    for _ in range(500):
        lp = _interior_loop(RNG)
        gap = p_infinity(lp.theta, lp.phi) - p_infinity_axis_route(lp.theta, lp.omega, lp.phi)
        worst = max(worst, abs(gap))
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
        with pytest.raises(ValueError, match="quadrature_points must be an integer, got 100.0"):
            phi_average(1.0, 100.0)
        # every theta of an array is checked before any quadrature work
        for bad in ([0.5, math.nan, 1.0], [0.5, 4.0], [[1.0], [-0.1]]):
            with pytest.raises(ValueError, match="theta"):
                phi_average(np.array(bad))
        with pytest.raises(ValueError):
            phi_average(np.array([0.5, 1.0]), 8)
        with pytest.raises(ValueError, match="quadrature_points must be an integer"):
            phi_average(np.array([0.5, 1.0]), 100.0)

    @pytest.mark.parametrize("points", [16, 17, _BLOCK - 1, _BLOCK, _BLOCK + 1, 10_000])
    def test_is_the_scalar_midpoint_sum_bit_for_bit(self, points):
        thetas = [0.0, 1e-6, 1e-4, 0.05, math.pi, *np.linspace(0.0, math.pi, 25).tolist()]
        want = [_phi_average_point_by_point(theta, points) for theta in thetas]
        assert [phi_average(theta, points) for theta in thetas] == want
        # an array call gives each theta its own call's float, in the array's shape
        assert phi_average(np.array(thetas), points).tolist() == want
        grid = phi_average(np.reshape(thetas, (5, 6)), points)
        assert grid.tolist() == np.reshape(want, (5, 6)).tolist()

    def test_odd_grid_at_zero_opening_skips_the_zero_denominator(self):
        # the middle midpoint of an odd grid is phi = 0, where denom = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert phi_average(0.0, 17) == 0.0
            assert phi_average(0.0, 2 * _BLOCK + 1) == 0.0

    @pytest.mark.parametrize("theta", [1e-6, 1e-4, 1e-2])
    @pytest.mark.parametrize("points", [16, 1000, 10_000])
    def test_even_counts_are_the_tanh_identity(self, theta, points):
        want, bound = _midpoint_identity(theta, points)
        assert abs(phi_average(theta, points) - want) <= bound

    def test_memory_is_one_block(self):
        # a float and verify's 25-theta grid: one block of terms per theta at a time
        for theta in (1.0, np.linspace(0.0, math.pi, 25)):
            phi_average(theta, 16)  # allocations made once per process are not per point
            tracemalloc.start()
            try:
                phi_average(theta, 200_000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20, f"peak {peak} bytes at {np.size(theta)} theta"


# The midpoint rule's closed form.  With s, c = sin, cos(theta/2) and the
# integrand t(phi) = s^2 / (2 D(phi)), D = s^2 + c^2 sin^2 phi, the mean over
# an even number M of midpoints phi_k = -pi/2 + (k + 1/2) pi/M is exactly
# p_g tanh(M alpha), alpha = asinh(tan(theta/2)): t has its poles at
# phi = +-i alpha (Trefethen & Weideman, "The exponentially convergent
# trapezoidal rule", SIAM Review 56, 2014).  It is taken at 50 digits from
# the same float theta.  Errors are in units of u = eps/2 with gamma_n as in
# tests/test_su2.py, and each libm call is within one ulp, two factors.
#   Nodes.  h = fl(pi_f / M) and fl((k + 1/2) h) carry pi_f = pi (1 + t_1) and
#     two roundings, so they are within gamma_3 (k + 1/2) pi/M of (k + 1/2)
#     pi/M.  HALF_PI = pi_f / 2 is off pi/2 by pi u / 2 and the sum rounds
#     once, so the computed node is off phi_k by
#         e_k <= gamma_3 (k + 1/2) pi/M + pi u/2 + u |phi_k|.
#     Moving phi by e moves D by c^2 |sin(2 phi + e) sin e| <= c^2 e (2 |sin phi|
#     + e), so t moves by a relative k_k / (1 - k_k) at most, where
#         k_k = c^2 e_k (2 |sin phi_k| + e_k) / D(phi_k).
#   Terms.  At the computed node, s^2 / 2 carries gamma_5 (s twice, one
#     product), c sin(phi) gamma_5, its square gamma_11, the sum of two
#     positive parts gamma_12 and the quotient one more rounding: a relative
#     gamma_18 in all.
#   Sum.  The running total adds left to right, so each term takes at most
#     M - 1 roundings, and (total h) / pi_f = (total / M)(1 + t_3): pi_f cancels.
# So the computed mean is off the exact one by at most
#     (1/M) sum_k t(phi_k) [(1 + gamma_18)(1 + k_k / (1 - k_k))(1 + gamma_(M+2)) - 1].
# The bound is itself evaluated in float64 at float nodes, which moves it by
# far less than the factor 1 + 1e-6 that covers this.  Measured errors sit 9
# to 700 times below it; the denominator 1 - c^2 cos^2 phi, which cancels,
# overshot it at 6 of these 9 points, by 633 times at theta = 1e-6, M = 1e4.
def _midpoint_identity(theta, points):
    with mpmath.workdps(50):
        half = mpmath.mpf(theta) / 2
        alpha = mpmath.asinh(mpmath.tan(half))
        want = float(mpmath.sin(half) / 2 * mpmath.tanh(points * alpha))
    s, c = math.sin(0.5 * theta), math.cos(0.5 * theta)
    ends = (np.arange(points) + 0.5) * (math.pi / points)
    phi = ends - HALF_PI
    e = _gamma(3) * ends + math.pi * _U / 2 + _U * np.abs(phi)
    denom = s * s + (c * np.sin(phi)) ** 2
    kappa = c * c * e * (2.0 * np.abs(np.sin(phi)) + e) / denom
    grow = (1 + _gamma(18)) * (1 + kappa / (1 - kappa)) * (1 + _gamma(points + 2)) - 1
    bound = float(np.sum(0.5 * s * s / denom * grow)) / points
    return want, bound * (1 + 1e-6)


def _phi_average_point_by_point(theta, quadrature_points):
    # the midpoint sum in Python, one point at a time, left to right
    h = math.pi / quadrature_points
    s = math.sin(0.5 * theta)
    c = math.cos(0.5 * theta)
    s2 = s * s
    total = 0.0
    for i in range(quadrature_points):
        phi = -HALF_PI + (i + 0.5) * h
        core = c * math.sin(phi)
        denom = s2 + core * core
        total += 0.5 * s2 / denom if denom > 0.0 else 0.0
    return total * h / math.pi


def test_stable_orbit_mean_equals_the_closed_form_rate():
    # one full period of a stable orbit averages to the generic rate
    lp = LoopParams(math.pi / 2)
    order = classify(lp.theta, lp.phi, 16).order
    assert order == 4
    assert pump_trace(lp, order).p[-1] == pytest.approx(p_infinity(lp.theta, lp.phi), abs=1e-12)


class TestDegenerateCorner:
    @pytest.mark.parametrize("theta", [1e-9, 1e-6])
    @pytest.mark.parametrize("phi", [1e-9, 1e-6])
    def test_matches_direction_dependent_limit(self, theta, phi):
        # p_inf ~ theta^2 / (2 (theta^2 + 4 phi^2)) near (0, 0), with a
        # relative correction of order theta^2 + phi^2
        limit = 0.5 * theta**2 / (theta**2 + 4.0 * phi**2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = p_infinity(theta, phi)
        assert got == pytest.approx(limit, rel=1e-9)

    @pytest.mark.parametrize("lp", [LoopParams(1e-6, 0.0, 0.3), LoopParams(1e-6, 0.0, 1e-6)])
    def test_axis_route_near_corner(self, lp):
        gap = p_infinity_axis_route(lp.theta, lp.omega, lp.phi) - p_infinity(lp.theta, lp.phi)
        assert abs(gap) < 1e-10


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(lambda x: min(math.exp(x), hi))


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(
    theta=_log_uniform(1e-12, math.pi),
    abs_phi=_log_uniform(1e-12, math.pi / 2),
    phi_sign=st.sampled_from((1.0, -1.0)),
)
def test_p_infinity_matches_mpmath_oracle(theta, abs_phi, phi_sign):
    # s^2 / (2 (1 - c^2 cos^2 phi)) at 50 digits: the cancellation in the
    # denominator costs at most 24 of them at theta = phi = 1e-12
    phi = phi_sign * abs_phi
    with mpmath.workdps(50):
        half = mpmath.mpf(theta) / 2
        core = mpmath.cos(half) * mpmath.cos(mpmath.mpf(phi))
        want = mpmath.sin(half) ** 2 / (2 * (1 - core**2))
        rel = abs((p_infinity(theta, phi) - want) / want)
    assert rel <= 1e-14


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    theta=_log_uniform(1e-5, math.pi / 2),
    abs_phi=_log_uniform(1e-5, math.pi / 2),
    phi_sign=st.sampled_from((1.0, -1.0)),
)
def test_axis_route_matches_mpmath_oracle(theta, abs_phi, phi_sign):
    # the package's route bound; away from the corner, where storing phi
    # inside psi = 2 phi - omega - pi/2 costs about 0.16 eps / |(theta, phi)|
    phi = phi_sign * abs_phi
    with mpmath.workdps(50):
        half = mpmath.mpf(theta) / 2
        core = mpmath.cos(half) * mpmath.cos(mpmath.mpf(phi))
        want = mpmath.sin(half) ** 2 / (2 * (1 - core**2))
        err = abs(p_infinity_axis_route(theta, 0.0, phi) - want)
    assert err <= 1e-10


def _reference_rates(theta, omega, phi):
    # p_inf, p_inf_axis and p_g one loop at a time through math, the way
    # the written tables were first computed; the kernels must give these
    # bits on arrays and on floats alike
    s = math.sin(0.5 * theta)
    ratio = s / math.hypot(s, math.cos(0.5 * theta) * math.sin(phi))
    half_sum = 0.5 * ((omega + math.pi / 2) + (2.0 * phi - omega - math.pi / 2))
    sa = math.sin(math.atan2(s, math.cos(0.5 * theta) * math.sin(half_sum)))
    return 0.5 * ratio * ratio, 0.5 * sa * sa, 0.5 * math.sin(0.5 * theta)


def _assert_array_matches_scalar(theta, omega, phi, picks=None):
    theta, omega, phi = (np.asarray(v, dtype=float) for v in (theta, omega, phi))
    arrays = (
        p_infinity(theta, phi),
        p_infinity_axis_route(theta, omega, phi),
        p_geometric(theta),
    )
    for i in range(len(theta)) if picks is None else picks:
        t, o, f = float(theta[i]), float(omega[i]), float(phi[i])
        scalar = (p_infinity(t, f), p_infinity_axis_route(t, o, f), p_geometric(t))
        want = [x.hex() for x in _reference_rates(t, o, f)]
        assert [float(a[i]).hex() for a in arrays] == want, (t, o, f)
        assert [float(x).hex() for x in scalar] == want, (t, o, f)


_BULK = st.tuples(
    st.floats(1e-6, math.pi),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(-math.pi / 2, math.pi / 2),
)
_NEAR_CORNER = st.tuples(
    _log_uniform(1e-12, math.pi / 2),
    st.floats(0.0, 2.0 * math.pi),
    st.tuples(_log_uniform(1e-12, math.pi / 2), st.sampled_from((1.0, -1.0))).map(
        lambda v: v[0] * v[1]
    ),
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(draws=st.lists(st.one_of(_BULK, _NEAR_CORNER), min_size=1, max_size=40))
def test_array_kernels_match_scalar_api_bitwise(draws):
    _assert_array_matches_scalar(*zip(*draws))


@pytest.mark.parametrize("seed", [53, 87, 137, 143])
def test_array_kernels_match_on_asymptote_draws(seed):
    # these seeds draw theta ~ 1e-6, where the axis chart once failed
    theta, omega, phi = sample_loop_params(make_rng(seed), 40_000)
    narrow = np.flatnonzero(theta < 1e-5)
    assert len(narrow) >= 1
    picks = [*narrow.tolist(), *range(0, 40_000, 997)]
    _assert_array_matches_scalar(theta, omega, phi, picks)


@pytest.mark.parametrize("count", [2.5, "3"])
def test_sample_loop_params_rejects_a_non_integer_count(count):
    # numpy's own message would name no argument
    with pytest.raises(ValueError) as info:
        sample_loop_params(make_rng(0), count)
    assert str(info.value) == f"count must be an integer, got {count!r}"
    assert len(sample_loop_params(make_rng(0), np.int64(3))[0]) == 3


def test_sample_loop_params_rejects_a_negative_count():
    # numpy's "negative dimensions are not allowed" would name no argument
    with pytest.raises(ValueError) as info:
        sample_loop_params(make_rng(0), -1)
    assert str(info.value) == "count must be >= 0, got -1"
    assert all(draw.shape == (0,) for draw in sample_loop_params(make_rng(0), 0))


def test_array_kernels_reject_bad_input():
    theta = np.array([0.4, 1.0, 2.5])
    omega = np.array([0.1, 3.0, 5.0])
    phi = np.array([-0.3, 0.2, 1.1])
    with pytest.raises(ValueError, match="theta must lie in"):
        p_infinity(theta + 1.0, phi)
    with pytest.raises(ValueError, match="phi must be a finite angle, got nan"):
        p_infinity(theta, np.where(phi > 1.0, np.nan, phi))
    with pytest.raises(ValueError, match="theta must lie in"):
        p_geometric(-theta)
    theta[1] = phi[1] = 0.0
    with pytest.raises(IdentityRotationError):
        p_infinity_axis_route(theta, omega, phi)
    with pytest.warns(RemovableSingularityWarning):
        assert p_infinity(theta, phi)[1] == 0.0


@pytest.mark.parametrize("angle", [0.0, np.zeros(3)], ids=["float", "array"])
def test_corner_warning_names_the_caller(angle):
    # the warning points at the line that called p_infinity, not into it
    with pytest.warns(RemovableSingularityWarning) as record:
        line = inspect.currentframe().f_lineno + 1
        p_infinity(angle, angle)
    assert [(w.filename, w.lineno) for w in record] == [(__file__, line)]
