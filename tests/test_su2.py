import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geopump import (
    AxisAngle,
    ChartBranchError,
    EulerAngles,
    IdentityRotationError,
    LoopParams,
    axis_angle_from_euler,
    axis_angle_matrices,
    axis_angles,
    build_loop_operator,
    euler_from_loop,
    euler_matrices,
    half_turn,
    loop_euler_angles,
    power,
    su2_defect,
)
from geopump import su2
from geopump.su2 import require_angles

RNG = np.random.default_rng(20260819)

HALF_PI = math.pi / 2


def _random_loop(rng, margin=0.0):
    theta = rng.uniform(margin, math.pi - margin)
    omega = rng.uniform(0.0, 2.0 * math.pi)
    phi = rng.uniform(-HALF_PI + margin, HALF_PI - margin)
    return LoopParams(theta, omega, phi)


def _loop_matrix(lp):
    # written out longhand so the test does not lean on the library
    ch, sh = math.cos(lp.theta / 2.0), math.sin(lp.theta / 2.0)
    return np.array(
        [
            [ch * np.exp(-1j * lp.phi), -sh * np.exp(-1j * (lp.omega - lp.phi))],
            [sh * np.exp(1j * (lp.omega - lp.phi)), ch * np.exp(1j * lp.phi)],
        ]
    )


class TestLoopParams:
    def test_defaults(self):
        lp = LoopParams(1.0)
        assert lp.omega == 0.0 and lp.phi == 0.0

    @pytest.mark.parametrize("theta", [-0.1, math.pi + 0.1, math.inf, math.nan])
    def test_theta_out_of_range(self, theta):
        with pytest.raises(ValueError):
            LoopParams(theta)

    def test_azimuth_and_phase_are_free(self):
        # symmetry checks need values outside the canonical windows
        LoopParams(1.0, -7.0, 9.0)


def test_states_are_orthonormal():
    g, e = np.array([1.0 + 0.0j, 0.0j]), np.array([0.0j, 1.0 + 0.0j])
    assert abs(np.vdot(g, g) - 1.0) < 1e-15
    assert abs(np.vdot(e, e) - 1.0) < 1e-15
    assert abs(np.vdot(g, e)) < 1e-15


class TestPower:
    def test_zeroth_power(self):
        u = build_loop_operator(LoopParams(1.0, 2.0, 0.5))
        np.testing.assert_allclose(power(u, 0), np.eye(2))

    def test_half_turn_squares_to_minus_identity(self):
        u = build_loop_operator(LoopParams(math.pi))
        np.testing.assert_allclose(power(u, 2), -np.eye(2), atol=1e-15)

    def test_quarter_turn_fourth_power(self):
        u = build_loop_operator(LoopParams(HALF_PI))
        np.testing.assert_allclose(power(u, 4), -np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("n", [-1, 1.5])
    def test_rejects_bad_exponent(self, n):
        u = build_loop_operator(LoopParams(1.0))
        with pytest.raises((ValueError, TypeError)):
            power(u, n)

    def test_agrees_with_repeated_multiplication(self):
        u = build_loop_operator(_random_loop(RNG))
        m = np.eye(2, dtype=complex)
        for n in range(1, 40):
            m = u @ m
            np.testing.assert_allclose(power(u, n), m, atol=1e-12)


def test_su2_defect_and_membership():
    u = build_loop_operator(_random_loop(RNG))
    assert su2_defect(u) <= 1e-12
    assert not su2_defect(u + 1e-6) <= 1e-12
    assert not su2_defect(1.0001 * u) <= 1e-12  # unit determinant is part of the contract


class TestAngleCharts:
    def test_axis_angle_validation(self):
        with pytest.raises(ValueError):
            AxisAngle(-0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            AxisAngle(1.0, 7.0, 1.0)
        with pytest.raises(ValueError):
            AxisAngle(1.0, 0.0, -1.0)

    def test_euler_validation(self):
        with pytest.raises(ValueError):
            EulerAngles(0.0, math.pi + 0.2, 0.0)

    def test_z_axis_half_turn(self):
        u = axis_angle_matrices(0.0, 0.0, math.pi)
        np.testing.assert_allclose(u, np.diag([-1j, 1j]), atol=1e-15)

    def test_y_axis_quarter_turn(self):
        u = axis_angle_matrices(HALF_PI, HALF_PI, HALF_PI)
        r = math.sqrt(0.5)
        np.testing.assert_allclose(u, np.array([[r, -r], [r, r]]), atol=1e-15)

    def test_euler_pure_precession(self):
        u = euler_matrices(math.pi, 0.0, 0.0)
        np.testing.assert_allclose(u, np.diag([-1j, 1j]), atol=1e-15)

    def test_euler_matches_composed_z_x_z(self):
        e = EulerAngles(0.7, 1.1, -0.4)

        def rz(a):
            return np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])

        def rx(a):
            return np.array(
                [
                    [math.cos(a / 2), -1j * math.sin(a / 2)],
                    [-1j * math.sin(a / 2), math.cos(a / 2)],
                ]
            )

        np.testing.assert_allclose(
            euler_matrices(e.phi, e.theta, e.psi), rz(e.phi) @ rx(e.theta) @ rz(e.psi), atol=1e-15
        )

    def test_loop_chart_reproduces_operator(self):
        """The Euler chart of a loop drive must rebuild its matrix exactly."""
        for _ in range(300):
            lp = _random_loop(RNG)
            e = euler_from_loop(lp)
            rebuilt = euler_matrices(e.phi, e.theta, e.psi)
            assert np.max(np.abs(rebuilt - _loop_matrix(lp))) < 1e-12

    def test_axis_angle_chain(self):
        for _ in range(300):
            lp = _random_loop(RNG, margin=1e-3)
            e = euler_from_loop(lp)
            aa = axis_angle_from_euler(e)
            rebuilt = axis_angle_matrices(aa.alpha, aa.beta, aa.delta)
            assert np.max(np.abs(rebuilt - _loop_matrix(lp))) < 1e-10

    def test_half_turn_loop_axis(self):
        aa = axis_angle_from_euler(euler_from_loop(LoopParams(math.pi)))
        assert aa.delta == pytest.approx(math.pi, abs=1e-12)
        assert aa.alpha == pytest.approx(HALF_PI, abs=1e-12)
        assert aa.beta == pytest.approx(HALF_PI, abs=1e-12)

    def test_quarter_turn_loop_axis(self):
        aa = axis_angle_from_euler(euler_from_loop(LoopParams(HALF_PI)))
        assert aa.delta == pytest.approx(HALF_PI, abs=1e-12)
        assert aa.alpha == pytest.approx(HALF_PI, abs=1e-12)

    def test_phase_bias_tilts_axis(self):
        # frozen from the closed form 2*acos(cos(theta/2)*cos(phi))
        aa = axis_angle_from_euler(euler_from_loop(LoopParams(HALF_PI, 0.0, 0.3)))
        assert aa.delta == pytest.approx(1.6582399145750082, abs=1e-14)

    def test_equatorial_axis_azimuth_tracks_omega(self):
        for omega in (0.0, 0.9, 2.4, 5.5):
            aa = axis_angle_from_euler(euler_from_loop(LoopParams(1.3, omega, 0.0)))
            assert aa.alpha == pytest.approx(HALF_PI, abs=1e-12)
            expected = (omega + HALF_PI) % (2.0 * math.pi)
            diff = abs(aa.beta - expected)
            assert min(diff, 2.0 * math.pi - diff) < 1e-12

    @pytest.mark.parametrize("phi", [0.0, math.pi])
    def test_identity_rotation_rejected(self, phi):
        e = euler_from_loop(LoopParams(0.0, 0.0, phi))
        with pytest.raises(IdentityRotationError):
            axis_angle_from_euler(e)

    def test_z_rotation_has_polar_axis(self):
        # theta=0 with a phase bias precesses about the pole
        aa = axis_angle_from_euler(euler_from_loop(LoopParams(0.0, 0.0, 0.8)))
        assert math.sin(aa.alpha) == pytest.approx(0.0, abs=1e-12)
        assert aa.delta == pytest.approx(1.6, abs=1e-12)


class TestNearIdentityCharts:
    @pytest.mark.parametrize(
        "lp", [LoopParams(1e-6, 0.0, 0.3), LoopParams(1e-6, 0.0, 1e-6), LoopParams(1e-6, 2.1, -1e-6)]
    )
    def test_axis_angle_rebuilds_operator(self, lp):
        aa = axis_angle_from_euler(euler_from_loop(lp))
        rebuilt = axis_angle_matrices(aa.alpha, aa.beta, aa.delta)
        assert np.max(np.abs(rebuilt - build_loop_operator(lp))) < 1e-10

    def test_log_uniform_draws_never_fail(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            theta = 10.0 ** rng.uniform(-12.0, 0.0)
            phi = math.copysign(10.0 ** rng.uniform(-12.0, 0.0), rng.uniform(-1.0, 1.0))
            axis_angle_from_euler(euler_from_loop(LoopParams(theta, 0.0, phi)))

    def test_unmatched_branch_is_typed(self, monkeypatch):
        monkeypatch.setattr(su2, "CHART_MATCH_TOL", 0.0)
        e = euler_from_loop(LoopParams(1.0, 0.2, 0.3))
        with pytest.raises(ChartBranchError):
            axis_angle_from_euler(e)

    def test_half_turn_has_no_cancellation(self):
        ht = half_turn(2e-9, 1e-9)
        assert ht.sin_h == pytest.approx(math.sqrt(2.0) * 1e-9, rel=1e-15)
        assert ht.c_cos == pytest.approx(1.0, abs=1e-16)
        assert ht.h == pytest.approx(math.sqrt(2.0) * 1e-9, rel=1e-15)


def test_half_turn_reads_sin_h_and_h_once_through_math():
    rng = np.random.default_rng(5)
    theta, phase = rng.uniform(0.0, math.pi, 300), rng.uniform(-math.pi, math.pi, 300)
    ht = half_turn(theta, phase)
    assert "sin_h" not in vars(ht) and "h" not in vars(ht)  # computed on first read
    assert ht.h is ht.h and ht.sin_h is ht.sin_h
    fields = (ht.s, ht.c_sin, ht.c_cos, ht.sin_h, ht.h)
    for s, c_sin, c_cos, sin_h, h in zip(*(a.tolist() for a in fields)):
        assert sin_h == math.hypot(s, c_sin) and h == math.atan2(sin_h, c_cos)


class TestAmplitude:
    def _check(self, ht):
        a = np.asarray(ht.amplitude)
        assert np.all(a <= 1.0)
        assert a.tolist() == np.asarray(ht.s / ht.sin_h).tolist()

    def test_is_s_over_sin_h_and_at_most_one_on_random_draws(self):
        rng = np.random.default_rng(31)
        theta = rng.uniform(0.0, math.pi, 200_000)
        self._check(half_turn(theta, rng.uniform(-HALF_PI, HALF_PI, 200_000)))

    def test_is_s_over_sin_h_and_at_most_one_without_phase(self):
        theta = np.linspace(0.0, math.pi, 100_001)[1:]
        for phi in (0.0, math.pi):
            self._check(half_turn(theta, phi))
        # at phi = 0, c_sin = 0 and sin h = s exactly
        assert np.all(half_turn(theta, 0.0).amplitude == 1.0)

    @pytest.mark.parametrize("phi", [0.0, math.pi])
    def test_is_zero_at_the_identity_corner(self, phi):
        assert half_turn(0.0, phi).amplitude == 0.0
        assert half_turn(np.zeros(3), phi).amplitude.tolist() == [0.0] * 3


def _reference_chart(phi, theta, psi):
    # the axis-angle chart and both matrices of one Euler triple through
    # math and cmath, the way they were first computed point by point
    s, c = math.sin(0.5 * theta), math.cos(0.5 * theta)
    half_sum, half_diff = 0.5 * (phi + psi), 0.5 * (phi - psi)
    c_sin = c * math.sin(half_sum)
    sin_h = math.hypot(s, c_sin)
    delta = 2.0 * math.atan2(sin_h, c * math.cos(half_sum))
    alpha = math.atan2(s, c_sin)
    beta = half_diff % (2.0 * math.pi) if math.sin(alpha) * sin_h > 1e-15 else 0.0
    ch, sh = math.cos(0.5 * delta), math.sin(0.5 * delta)
    ca, sa = math.cos(alpha), math.sin(alpha)
    off = -1j * sh * sa
    rotation = np.array(
        [
            [ch - 1j * sh * ca, off * cmath.exp(-1j * beta)],
            [off * cmath.exp(1j * beta), ch + 1j * sh * ca],
        ]
    )
    euler = np.array(
        [
            [c * cmath.exp(-1j * half_sum), -1j * s * cmath.exp(-1j * half_diff)],
            [-1j * s * cmath.exp(1j * half_diff), c * cmath.exp(1j * half_sum)],
        ]
    )
    return (alpha, beta, delta), rotation, euler


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(lambda x: min(math.exp(x), hi))


_SIGNED_SMALL = st.tuples(_log_uniform(1e-12, HALF_PI), st.sampled_from((1.0, -1.0)))
_LOOPS = st.one_of(
    st.tuples(st.floats(1e-6, math.pi), st.floats(0.0, 2.0 * math.pi), st.floats(-HALF_PI, HALF_PI)),
    st.tuples(
        _log_uniform(1e-12, HALF_PI),
        st.floats(0.0, 2.0 * math.pi),
        _SIGNED_SMALL.map(lambda v: v[0] * v[1]),
    ),
)


class TestArrayCharts:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(loops=st.lists(_LOOPS, min_size=1, max_size=40))
    def test_arrays_match_scalar_api_bitwise(self, loops):
        phi, theta, psi = loop_euler_angles(*(np.array(v) for v in zip(*loops)))
        chart = axis_angles(phi, theta, psi)
        rotations = axis_angle_matrices(*chart)
        eulers = euler_matrices(phi, theta, psi)
        for i, lp in enumerate(LoopParams(*v) for v in loops):
            e = euler_from_loop(lp)
            assert (e.phi, e.theta, e.psi) == (phi[i], theta[i], psi[i])
            aa = axis_angle_from_euler(e)
            want, rotation, euler = _reference_chart(e.phi, e.theta, e.psi)
            assert [x.hex() for x in (aa.alpha, aa.beta, aa.delta)] == [x.hex() for x in want]
            assert [float(c[i]).hex() for c in chart] == [x.hex() for x in want]
            assert np.array_equal(axis_angle_matrices(aa.alpha, aa.beta, aa.delta), rotation)
            assert np.array_equal(rotations[i], rotation)
            assert np.array_equal(euler_matrices(e.phi, e.theta, e.psi), euler)
            assert np.array_equal(eulers[i], euler)

    def test_array_errors_are_typed(self, monkeypatch):
        phi, theta, psi = loop_euler_angles(
            np.array([0.4, 1.0, 2.5]), np.array([0.1, 3.0, 5.0]), np.array([-0.3, 0.2, 1.1])
        )
        assert all(a.shape == (3,) for a in axis_angles(phi, theta, psi))
        with monkeypatch.context() as strict:
            strict.setattr(su2, "CHART_MATCH_TOL", 0.0)
            with pytest.raises(ChartBranchError):
                axis_angles(phi, theta, psi)
        with pytest.raises(ValueError, match="theta must lie in"):
            axis_angles(phi, theta + 1.0, psi)
        with pytest.raises(ValueError, match="psi must be a finite angle, got inf"):
            axis_angles(phi, theta, np.where(theta > 2.0, np.inf, psi))
        # theta = 0 with no dynamic phase: the identity, which has no axis
        theta, psi = theta.copy(), psi.copy()
        theta[1], psi[1] = 0.0, -phi[1]
        with pytest.raises(IdentityRotationError):
            axis_angles(phi, theta, psi)


@pytest.mark.parametrize(
    "theta,phi,message",
    [
        (1.0, 0.2, None),
        (0.0, -0.0, None),
        (math.pi, 1e300, None),
        (math.nan, 0.2, "theta must be a finite angle, got nan"),
        (math.inf, 0.2, "theta must be a finite angle, got inf"),
        (1.0, -math.inf, "phi must be a finite angle, got -inf"),
        (1.0, math.nan, "phi must be a finite angle, got nan"),
        (4.0, math.nan, "phi must be a finite angle, got nan"),
        (4.0, 0.2, "theta must lie in [0, pi], got 4.0"),
        (-1e-300, 0.2, "theta must lie in [0, pi], got -1e-300"),
        (math.nextafter(math.pi, 4.0), 0.2, "theta must lie in [0, pi], got 3.1415926535897936"),
    ],
)
def test_require_angles_message_does_not_depend_on_input_shape(theta, phi, message):
    # one point as a float, a numpy scalar or a 0-d array reads as an array of it
    for wrap in (float, np.float64, np.array, lambda x: np.array([x]), lambda x: np.array([[x]])):
        if message is None:
            require_angles(wrap(theta), phi=wrap(phi))
        else:
            with pytest.raises(ValueError) as info:
                require_angles(wrap(theta), phi=wrap(phi))
            assert type(info.value) is ValueError and str(info.value) == message
