import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geopump as gp
from geopump import (
    IdentityRotationError,
    LoopParams,
    axis_angle_from_euler,
    axis_angle_matrices,
    build_loop_operator,
    euler_from_loop,
    euler_matrices,
    half_turn,
    make_rng,
    power,
    sample_loop_params,
    su2_defect,
)
from geopump.su2 import IDENTITY_SIN_TOL, HalfTurn, _require_axis, require_angles

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

    def test_numpy_scalar_message_reads_the_float(self):
        with pytest.raises(ValueError) as info:
            LoopParams(np.float64("nan"))
        assert str(info.value) == "theta must be a finite angle, got nan"

    def test_non_scalar_field_is_a_type_error(self):
        with pytest.raises(TypeError):
            LoopParams(np.array([1.0, 2.0]))

    def test_fields_hold_the_checked_floats(self):
        lp = LoopParams("1.0", 0, np.float64(0.5))
        assert (lp.theta, lp.omega, lp.phi) == (1.0, 0.0, 0.5)
        assert all(type(v) is float for v in (lp.theta, lp.omega, lp.phi))


def test_states_are_orthonormal():
    g, e = np.array([1.0 + 0.0j, 0.0j]), np.array([0.0j, 1.0 + 0.0j])
    assert abs(np.vdot(g, g) - 1.0) < 1e-15
    assert abs(np.vdot(e, e) - 1.0) < 1e-15
    assert abs(np.vdot(g, e)) < 1e-15


class TestPower:
    def test_zeroth_power(self):
        u = build_loop_operator(1.0, 2.0, 0.5)
        np.testing.assert_allclose(power(u, 0), np.eye(2))

    def test_half_turn_squares_to_minus_identity(self):
        u = build_loop_operator(math.pi, 0.0, 0.0)
        np.testing.assert_allclose(power(u, 2), -np.eye(2), atol=1e-15)

    def test_quarter_turn_fourth_power(self):
        u = build_loop_operator(HALF_PI, 0.0, 0.0)
        np.testing.assert_allclose(power(u, 4), -np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("n", [-1, 1.5])
    def test_rejects_bad_exponent(self, n):
        u = build_loop_operator(1.0, 0.0, 0.0)
        with pytest.raises(ValueError) as info:
            power(u, n)
        rule = "be >= 0" if n == -1 else "be an integer"
        assert str(info.value) == f"n must {rule}, got {n!r}"

    def test_agrees_with_repeated_multiplication(self):
        lp = _random_loop(RNG)
        u = build_loop_operator(lp.theta, lp.omega, lp.phi)
        m = np.eye(2, dtype=complex)
        for n in range(1, 40):
            m = u @ m
            np.testing.assert_allclose(power(u, n), m, atol=1e-12)


def test_su2_defect_and_membership():
    lp = _random_loop(RNG)
    u = build_loop_operator(lp.theta, lp.omega, lp.phi)
    assert su2_defect(u) <= 1e-12
    assert not su2_defect(u + 1e-6) <= 1e-12
    assert not su2_defect(1.0001 * u) <= 1e-12  # unit determinant is part of the contract


def _defect_of_one_matrix(u):
    # su2_defect as first written, for one matrix through numpy scalars
    unit = float(np.max(np.abs(u.conj().T @ u - np.eye(2))))
    return max(unit, abs(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0] - 1.0))


def test_su2_defect_of_a_stack_is_each_matrix_defect():
    theta, omega, phi = sample_loop_params(make_rng(5), 300)
    u = build_loop_operator(theta, omega, phi)
    u[100:200] += 1e-6
    u[200:] *= 1.0001
    stacked = su2_defect(u.reshape(3, 100, 2, 2))
    assert stacked.shape == (3, 100)
    want = [float(_defect_of_one_matrix(m)).hex() for m in u]
    assert [x.hex() for x in stacked.ravel().tolist()] == want
    assert [float(su2_defect(m)).hex() for m in u] == want
    assert isinstance(su2_defect(u[0]), float)


def _loop_chart(theta, omega=0.0, phi=0.0):
    # (alpha, beta, delta) of loop drives through the Euler chart
    return axis_angle_from_euler(*euler_from_loop(theta, omega, phi))


class TestAngleCharts:
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
        phi, theta, psi = 0.7, 1.1, -0.4

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
            euler_matrices(phi, theta, psi), rz(phi) @ rx(theta) @ rz(psi), atol=1e-15
        )

    def test_loop_chart_reproduces_operator(self):
        """The Euler chart of a loop drive must rebuild its matrix exactly."""
        for _ in range(300):
            lp = _random_loop(RNG)
            rebuilt = euler_matrices(*euler_from_loop(lp.theta, lp.omega, lp.phi))
            assert np.max(np.abs(rebuilt - _loop_matrix(lp))) < 1e-12

    def test_axis_angle_chain(self):
        for _ in range(300):
            lp = _random_loop(RNG, margin=1e-3)
            rebuilt = axis_angle_matrices(*_loop_chart(lp.theta, lp.omega, lp.phi))
            assert np.max(np.abs(rebuilt - _loop_matrix(lp))) < 1e-10

    def test_half_turn_loop_axis(self):
        alpha, beta, delta = _loop_chart(math.pi)
        assert delta == pytest.approx(math.pi, abs=1e-12)
        assert alpha == pytest.approx(HALF_PI, abs=1e-12)
        assert beta == pytest.approx(HALF_PI, abs=1e-12)

    def test_quarter_turn_loop_axis(self):
        alpha, _, delta = _loop_chart(HALF_PI)
        assert delta == pytest.approx(HALF_PI, abs=1e-12)
        assert alpha == pytest.approx(HALF_PI, abs=1e-12)

    def test_phase_bias_tilts_axis(self):
        # frozen from the closed form 2*acos(cos(theta/2)*cos(phi))
        _, _, delta = _loop_chart(HALF_PI, 0.0, 0.3)
        assert delta == pytest.approx(1.6582399145750082, abs=1e-14)

    def test_equatorial_axis_azimuth_tracks_omega(self):
        omega = np.array([0.0, 0.9, 2.4, 5.5])
        alpha, beta, _ = _loop_chart(1.3, omega, 0.0)
        np.testing.assert_allclose(alpha, HALF_PI, rtol=0.0, atol=1e-12)
        diff = np.abs(beta - (omega + HALF_PI) % (2.0 * math.pi))
        assert np.all(np.minimum(diff, 2.0 * math.pi - diff) < 1e-12)

    @pytest.mark.parametrize("phi", [0.0, math.pi])
    def test_identity_rotation_rejected(self, phi):
        e = euler_from_loop(0.0, 0.0, phi)
        with pytest.raises(IdentityRotationError):
            axis_angle_from_euler(*e)

    def test_z_rotation_has_polar_axis(self):
        # theta=0 with a phase bias precesses about the pole
        alpha, _, delta = _loop_chart(0.0, 0.0, 0.8)
        assert math.sin(alpha) == pytest.approx(0.0, abs=1e-12)
        assert delta == pytest.approx(1.6, abs=1e-12)


class TestNearIdentityCharts:
    @pytest.mark.parametrize(
        "lp", [LoopParams(1e-6, 0.0, 0.3), LoopParams(1e-6, 0.0, 1e-6), LoopParams(1e-6, 2.1, -1e-6)]
    )
    def test_axis_angle_rebuilds_operator(self, lp):
        rebuilt = axis_angle_matrices(*_loop_chart(lp.theta, lp.omega, lp.phi))
        assert np.max(np.abs(rebuilt - build_loop_operator(lp.theta, lp.omega, lp.phi))) < 1e-10

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


def test_sin_h_is_math_hypot_per_element():
    theta, phase = np.linspace(0.1, 3.0, 3)[:, None], np.linspace(-1.5, 1.5, 4)
    ht = half_turn(theta, phase)  # s is (3, 1), c_sin (3, 4)
    assert ht.sin_h.shape == (3, 4)
    s, c_sin = (a.tolist() for a in np.broadcast_arrays(ht.s, ht.c_sin))
    assert ht.sin_h.tolist() == [list(map(math.hypot, *row)) for row in zip(s, c_sin)]
    assert half_turn(np.zeros(0), 0.3).sin_h.shape == (0,)
    sin_h, c = half_turn(0.5, 0.3).sin_h, math.cos(0.25)
    assert type(sin_h) is float and sin_h == math.hypot(math.sin(0.25), c * math.sin(0.3))


def test_axis_guard_raises_on_exactly_the_hypots_below_the_tolerance():
    # records built directly, legs on both sides of the tolerance and of its
    # diagonal tol/sqrt(2), both signs; the guard never reads ht.sin_h
    tol = IDENTITY_SIN_TOL
    edges = [tol / math.sqrt(2.0), 0.5 * tol, tol]
    legs = [0.0, *edges, *np.nextafter(edges, 0.0), np.nextafter(tol, 1.0), 1.0]
    legs = np.array(legs + [-v for v in legs])
    s, c_sin = (a.ravel() for a in np.meshgrid(legs, legs))
    below = np.fromiter(map(math.hypot, s.tolist(), c_sin.tolist()), float, s.size) < tol
    assert below.any() and not below.all()

    def guarded(ht, raises):
        if raises:
            with pytest.raises(IdentityRotationError):
                _require_axis(ht)
        else:
            assert _require_axis(ht) is ht and "sin_h" not in vars(ht)

    for a, b, low in zip(s.tolist(), c_sin.tolist(), below.tolist()):
        guarded(HalfTurn(a, b, 1.0), low)
    guarded(HalfTurn(s, c_sin, np.ones(s.size)), True)
    guarded(HalfTurn(s[~below], c_sin[~below], np.ones(int((~below).sum()))), False)
    for a in legs.tolist():  # a float s against an array c_sin
        low = any(math.hypot(a, b) < tol for b in legs.tolist())
        guarded(HalfTurn(a, legs, np.ones(legs.size)), low)


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


def _hex_parts(u):
    return [(z.real.hex(), z.imag.hex()) for z in u.ravel().tolist()]


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
        # the same names on whole arrays and on one float triple at a time
        phi, theta, psi = euler_from_loop(*(np.array(v) for v in zip(*loops)))
        chart = axis_angle_from_euler(phi, theta, psi)
        rotations = axis_angle_matrices(*chart)
        eulers = euler_matrices(phi, theta, psi)
        for i, loop in enumerate(loops):
            e = euler_from_loop(*loop)
            assert e == (phi[i], theta[i], psi[i])
            aa = axis_angle_from_euler(*e)
            want, rotation, euler = _reference_chart(*e)
            assert [float(x).hex() for x in aa] == [x.hex() for x in want]
            assert [float(c[i]).hex() for c in chart] == [x.hex() for x in want]
            assert np.array_equal(axis_angle_matrices(*aa), rotation)
            assert np.array_equal(rotations[i], rotation)
            assert np.array_equal(euler_matrices(*e), euler)
            assert np.array_equal(eulers[i], euler)

    @pytest.mark.parametrize(
        "euler", [(0.3, 0.0, 0.3), (0.0, 0.0, 0.0), (-0.0, 0.0, 0.0), (0.2, 0.0, -0.2)]
    )
    def test_matrices_keep_the_reference_signs_of_zeros(self, euler):
        # theta = 0 and half-angles of +-0.0, where np.array_equal above
        # cannot see the sign of a zero part
        want, rotation, matrix = _reference_chart(*euler)
        got = (axis_angle_matrices(*want), euler_matrices(*euler))
        assert [_hex_parts(m) for m in got] == [_hex_parts(m) for m in (rotation, matrix)]

    def test_array_errors_are_typed(self):
        phi, theta, psi = euler_from_loop(
            np.array([0.4, 1.0, 2.5]), np.array([0.1, 3.0, 5.0]), np.array([-0.3, 0.2, 1.1])
        )
        assert all(a.shape == (3,) for a in axis_angle_from_euler(phi, theta, psi))
        with pytest.raises(ValueError, match="theta must lie in"):
            axis_angle_from_euler(phi, theta + 1.0, psi)
        with pytest.raises(ValueError, match="theta must lie in"):
            axis_angle_from_euler(phi, theta - 1.0, psi)
        with pytest.raises(ValueError, match="psi must be a finite angle, got inf"):
            axis_angle_from_euler(phi, theta, np.where(theta > 2.0, np.inf, psi))
        with pytest.raises(ValueError, match="phi must be a finite angle, got nan"):
            axis_angle_from_euler(np.where(theta < 0.5, np.nan, phi), theta, psi)
        # theta = 0 with a dynamic phase of 0 or pi: +/-identity, which has no axis
        theta = theta.copy()
        theta[1] = 0.0
        for half_sum in (0.0, math.pi):
            psi_at = psi.copy()
            psi_at[1] = 2.0 * half_sum - phi[1]
            with pytest.raises(IdentityRotationError):
                axis_angle_from_euler(phi, theta, psi_at)


# The chart gap: how far axis_angle_matrices(*axis_angle_from_euler(*e)) may
# lie from euler_matrices(*e), entry by entry.  Both read the same floats theta/2,
# sigma = (phi + psi)/2 and d = (phi - psi)/2, so both approximate one exact
# matrix M of those floats.  With s = sin(theta/2), c = cos(theta/2) and the
# identities cos h = c cos(sigma), sin h cos(alpha) = c sin(sigma) and
# sin h sin(alpha) = s,
#     M00 = cos h - i sin h cos(alpha) = c e^{-i sigma},
#     M01 = -i sin h sin(alpha) e^{-i beta} = -i s e^{-i d}   (beta = d mod 2 pi).
# Errors are in units of u = eps/2 (Higham, Accuracy and Stability of
# Numerical Algorithms, ch. 3): a product of n factors (1 + d_i)^(+-1) with
# |d_i| <= u is 1 + t_n, |t_n| <= gamma_n = n u / (1 - n u).  Each libm call
# (np.sin, np.cos, math.hypot, math.atan2) is taken to be within one ulp,
# a relative error of at most 2u: two such factors.  Products with -i, 1j
# or an exact zero part of a complex number round nothing.
#
# Euler side.  Each part of each entry is c or s (2) times a part of the
# complex exp (2), rounded once (1): |E - M| <= gamma_5 |M| <= gamma_5.
#
# Chart angles.  s-hat = s (1 + t_2), c_sin-hat = c sin(sigma) (1 + t_5)
# and c_cos-hat = c cos(sigma) (1 + t_5); hypot scales by at most its legs'
# larger relative error, so sin h-hat = sin h (1 + t_7).  Scaling the legs
# (x, y) of atan2 by 1 + a and 1 + b turns its angle by at most
# |x y| |a - b| / (x^2 + y^2) <= |a - b| / 2 to first order, and atan2
# itself adds 2u times its result, which is at most pi:
#     |dh| <= gamma_7 + pi gamma_2,   |dalpha| <= gamma_4 + pi gamma_2.
# beta = d % TWO_PI subtracts n TWO_PI, n = floor(d / TWO_PI), and
# |2 pi - TWO_PI| <= 2 pi u; a negative d adds one rounding of at most
# 2 pi u.  So as a phase |dbeta| <= (|n| + 1) 2 pi u.  On the z axis beta is
# set to 0 and |e^{-i beta} - e^{-i d}| <= 2 takes the place of |dbeta|.
# That branch needs the computed sin(alpha) sin h <= 1e-15, and that
# product is s (1 + t_10) + |dalpha| (1 + t_10) at most, so it holds only
# where s <= S_Z = (1e-15 + (gamma_4 + pi gamma_2)(1 + gamma_10)) / (1 - gamma_10).
#
# Chart side.  At its computed angles, a rebuilt diagonal entry carries
# gamma_5 (sin of delta/2, cos alpha, one product) and an off-diagonal one
# gamma_8 s (three libm values, two products).  The derivatives of M have
# modulus at most 1 in h, at most max(s, |c sin(sigma)|) <= 1 in alpha and
# s in beta, so to first order
#     diagonal:      |R - M| <= gamma_5 + |dh| + |dalpha|,
#     off-diagonal:  |R - M| <= gamma_8 s + |dh| + |dalpha| + s |dbeta|.
# With the Euler side's gamma_5 and s <= 1, every entry obeys
#     |R - E| <= G + s B,   G = gamma_5 + gamma_8 + gamma_7 + gamma_4 + 2 pi gamma_2
# (about 36.6 u), B = (|n| + 1) 2 pi u off the z axis and 2 on it.  The
# test's own np.sin for s and the rounded subtraction and modulus of the
# gap add a factor 1 + gamma_4.  The gap measured over a million corner
# draws stays below 5u.
_U = 2.0**-53


def _gamma(n):
    return n * _U / (1.0 - n * _U)


_CHART_G = _gamma(5) + _gamma(8) + _gamma(7) + _gamma(4) + 2.0 * math.pi * _gamma(2)
_Z_AXIS_S = (1e-15 + (_gamma(4) + math.pi * _gamma(2)) * (1.0 + _gamma(10))) / (1.0 - _gamma(10))


def _assert_chart_gap_within_bound(theta, omega, phi):
    # rebuild the chart's matrices, compare them with the Euler matrices and
    # hold the largest entrywise gap of each draw to the derived bound above
    phi_e, theta_e, psi = euler_from_loop(*np.broadcast_arrays(theta, omega, phi))
    alpha, beta, delta = axis_angle_from_euler(phi_e, theta_e, psi)
    rebuilt = axis_angle_matrices(alpha, beta, delta)
    gap = np.abs(rebuilt - euler_matrices(phi_e, theta_e, psi)).max(axis=(-2, -1))
    s = np.sin(0.5 * theta_e)
    n = np.abs(np.floor_divide(0.5 * (phi_e - psi), 2.0 * math.pi))
    b = np.where((beta == 0.0) & (s <= _Z_AXIS_S), 2.0, (n + 1.0) * 2.0 * math.pi * _U)
    bound = (_CHART_G + s * b) * (1.0 + _gamma(4))
    assert np.all(gap < bound), (gap.max(), bound[np.argmax(gap / bound)])


_OMEGA = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
_SIGN = st.sampled_from((1.0, -1.0))
_SMALL = _log_uniform(1e-12, HALF_PI)
_CORNER_LOOPS = st.one_of(
    # theta -> 0, phi -> 0
    st.tuples(_SMALL, _OMEGA, st.tuples(_SMALL, _SIGN).map(lambda v: v[0] * v[1])),
    # theta -> pi, phi -> +-pi/2
    st.tuples(
        _SMALL.map(lambda x: math.pi - x),
        _OMEGA,
        st.tuples(_SMALL, _SIGN).map(lambda v: (HALF_PI - v[0]) * v[1]),
    ),
    st.tuples(st.floats(1e-6, math.pi), _OMEGA, st.floats(-HALF_PI, HALF_PI)),
)


class TestChartGap:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(loops=st.lists(_CORNER_LOOPS, min_size=1, max_size=50))
    def test_draws_stay_within_the_derived_bound(self, loops):
        _assert_chart_gap_within_bound(*(np.array(v) for v in zip(*loops)))

    def test_corner_grid_stays_within_the_derived_bound(self):
        # theta = 1e-14 has s above S_Z: its beta must come off the z axis
        small = np.array([1e-14, 1e-12, 1e-9, 1e-6, 1e-3])
        theta, omega, phi = (
            a.ravel()
            for a in np.meshgrid(small, [0.0, 2.0, math.pi, 5.9], np.concatenate([small, -small]))
        )
        _assert_chart_gap_within_bound(theta, omega, phi)
        far_phi = np.copysign(HALF_PI - np.abs(phi), phi)
        _assert_chart_gap_within_bound(math.pi - theta, omega, far_phi)
        # theta = 0 (the z axis, where beta = 0) and theta = pi exactly
        _assert_chart_gap_within_bound(0.0, omega, np.where(phi > 0, 0.8, -1e-6))
        _assert_chart_gap_within_bound(math.pi, omega, far_phi)

    @pytest.mark.parametrize("seed", [53, 87, 137, 143])
    def test_rate_draws_stay_within_the_derived_bound(self, seed):
        # the 40000 draws of a rate-draws run; each of these seeds draws a
        # theta near 1e-6 (2.8e-7 at seed 53)
        theta, omega, phi = sample_loop_params(make_rng(seed), 40_000)
        assert theta.min() < 1.1e-6
        _assert_chart_gap_within_bound(theta, omega, phi)


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
    # one point as a float, a numpy scalar or a 0-d array reads as an array
    # of it; LoopParams, whose fields require_angles checks, reads the same
    wraps = (float, np.float64, np.array, lambda x: np.array([x]), lambda x: np.array([[x]]))
    calls = [lambda w=w: require_angles(w(theta), phi=w(phi)) for w in wraps]
    calls += [lambda w=w: LoopParams(w(theta), 0.0, w(phi)) for w in wraps[:3]]
    for call in calls:
        if message is None:
            call()
        else:
            with pytest.raises(ValueError) as info:
                call()
            assert type(info.value) is ValueError and str(info.value) == message


_LOOP = LoopParams(1.0, 0.0, 0.3)

# one call per public size argument, every other argument valid, each with
# the least value it takes
_SIZES = {
    "n_max": [(1, lambda v: gp.classify(1.0, 0.3, v)), (1, lambda v: gp.phase_diagram(4, 4, v))],
    "cycles": [
        (1, lambda v: next(gp.pump_trace_blocks(1.0, 0.3, v))),
        (1, lambda v: gp.pump_trace(_LOOP, v)),
        (1, lambda v: gp.propagate_state(_LOOP, v)),
    ],
    "k_grid": [
        (16, lambda v: next(gp.pump_profile_blocks(gp.DriveCycle(1.0), v))),
        (16, lambda v: gp.pump_profile(gp.DriveCycle(1.0), v)),
    ],
    "resolution": [(2, lambda v: gp.stable_curve(1, 3, v))],
    "quadrature_points": [(16, lambda v: gp.phi_average(1.0, v))],
    "count": [(0, lambda v: sample_loop_params(make_rng(0), v))],
    "theta_grid": [(2, lambda v: gp.phase_diagram(v, 4, 10))],
    "phi_grid": [(2, lambda v: gp.phase_diagram(4, v, 10))],
    "p": [(1, lambda v: gp.curve_order(v, 3)), (1, lambda v: gp.stable_curve(v, 3, 10))],
    "q": [(1, lambda v: gp.curve_order(1, v)), (1, lambda v: gp.stable_curve(1, v, 10))],
    "n": [(1, lambda v: gp.trajectory_angles(1.0, 0.3, v)), (0, lambda v: power(np.eye(2), v))],
    "seed": [(0, make_rng)],
}
_SIZE_CALLS = [
    pytest.param(name, floor, call, id=f"{name}{i}")
    for name, calls in _SIZES.items() for i, (floor, call) in enumerate(calls)
]


@pytest.mark.parametrize("flag", [True, False, 2.0])
@pytest.mark.parametrize("name,floor,call", _SIZE_CALLS)
def test_a_bool_is_no_size(name, floor, call, flag):
    # operator.index(True) is 1, so only an explicit check keeps a flag out;
    # operator.index(2.0) raises, so a whole float is no size either
    with pytest.raises(ValueError) as info:
        call(flag)
    assert str(info.value) == f"{name} must be an integer, got {flag!r}"


@pytest.mark.parametrize("name,floor,call", _SIZE_CALLS)
def test_a_size_below_its_floor_is_named(name, floor, call):
    # one message form for every floor; numpy's own would name no argument
    with pytest.raises(ValueError) as info:
        call(floor - 1)
    assert str(info.value) == f"{name} must be >= {floor}, got {floor - 1}"


def test_a_numpy_integer_seed_draws_as_the_int():
    assert make_rng(np.int64(3)).random() == make_rng(3).random()
