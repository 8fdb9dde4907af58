import math

import mpmath
import numpy as np
import pytest

from geopump import (
    IdentityRotationError,
    LoopParams,
    build_loop_operator,
    cosine_cycle_zeros,
    make_rng,
    off_diagonal_magnitude,
    power,
    propagate_state,
    pump_trace,
    pump_trace_blocks,
    sample_loop_params,
    su2_defect,
    trajectory_angles,
)
from geopump.checks import _INTERIOR

RNG = np.random.default_rng(77)


def _random_loop(rng):
    return LoopParams(
        rng.uniform(0.0, math.pi),
        rng.uniform(0.0, 2.0 * math.pi),
        rng.uniform(-math.pi / 2, math.pi / 2),
    )


def test_loop_operator_entries():
    lp = LoopParams(math.pi / 2, 0.7, 0.3)
    u = build_loop_operator(lp)
    ch, sh = math.cos(lp.theta / 2), math.sin(lp.theta / 2)
    assert u[0, 0] == pytest.approx(ch * np.exp(-1j * 0.3), abs=1e-15)
    assert u[0, 1] == pytest.approx(-sh * np.exp(-1j * 0.4), abs=1e-15)
    assert u[1, 0] == pytest.approx(sh * np.exp(1j * 0.4), abs=1e-15)
    assert u[1, 1] == pytest.approx(ch * np.exp(1j * 0.3), abs=1e-15)
    assert su2_defect(u) < 1e-15


def test_loop_operator_is_periodic_in_phase():
    base = build_loop_operator(LoopParams(1.1, 0.4, 0.2))
    shifted = build_loop_operator(LoopParams(1.1, 0.4, 0.2 + math.pi))
    np.testing.assert_allclose(shifted, -base, atol=1e-15)


class TestPumpTrace:
    def test_half_turn_alternates(self):
        trace = pump_trace(LoopParams(math.pi, 0.0, 0.4), 4)
        np.testing.assert_allclose(trace.q, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
        assert trace.p[-1] == pytest.approx(0.5, abs=1e-12)

    def test_closed_loop_never_pumps(self):
        trace = pump_trace(LoopParams(0.0, 0.0, 0.7), 50)
        assert np.all(trace.q == 0.0)
        assert np.all(trace.p == 0.0)

    def test_prefix_mean(self):
        trace = pump_trace(_random_loop(RNG), 200)
        means = np.cumsum(trace.q) / np.arange(1, 201)
        np.testing.assert_allclose(trace.p, means, atol=1e-15)

    def test_q_matches_matrix_powers(self):
        lp = _random_loop(RNG)
        u = build_loop_operator(lp)
        trace = pump_trace(lp, 64)
        for j in range(1, 65):
            assert trace.q[j - 1] == pytest.approx(
                abs(power(u, j)[1, 0]) ** 2, abs=1e-12
            )

    def test_q_matches_closed_form_far_out(self):
        # the renormalized product must track |U^n|_{off} for long runs
        lp = LoopParams(1.9, 0.3, 0.45)
        trace = pump_trace(lp, 2000)
        for j in (1, 17, 500, 1024, 1025, 1999, 2000):
            assert trace.q[j - 1] == pytest.approx(
                off_diagonal_magnitude(lp, j) ** 2, abs=1e-9
            )

    def test_probabilities_stay_in_unit_interval(self):
        trace = pump_trace(LoopParams(math.pi, 1.0, 0.0), 3000)
        assert np.all(trace.q >= 0.0) and np.all(trace.q <= 1.0)

    @pytest.mark.parametrize("cycles", [0, -3])
    def test_rejects_bad_cycle_count(self, cycles):
        with pytest.raises(ValueError):
            pump_trace(LoopParams(1.0), cycles)


def _hex(values):
    return [float.hex(x) for x in values.tolist()]


class TestPumpTraceBlocks:
    # at phi = 0, A = 1, and the half turn drive pumps the ground state
    # fully into the excited state on every odd cycle; theta = 0 with
    # phi = 0 or pi is the identity corner, sin h = 0 or nearly, where A = 0
    @pytest.mark.parametrize(
        "lp",
        [
            pytest.param(LoopParams(1.1, 0.3, 0.4), id="ground"),
            pytest.param(LoopParams(math.pi, 1.0, 0.0), id="excited"),
            pytest.param(LoopParams(0.0, 0.0, 0.0), id="sin-h-zero"),
            pytest.param(LoopParams(0.0, 0.0, math.pi), id="corner-phi-pi"),
        ],
    )
    @pytest.mark.parametrize(
        "cycles,block_rows",
        [(1, 1), (1, 64), (7, 1), (1023, 1024), (1024, 1024), (1025, 1024), (10_001, 4096)],
    )
    def test_blocks_concatenate_to_the_whole_trace(self, lp, cycles, block_rows):
        whole = pump_trace(lp, cycles)
        blocks = list(pump_trace_blocks(lp, cycles, block_rows))
        sizes = [min(block_rows, cycles - start) for start in range(0, cycles, block_rows)]
        assert [(len(q), len(p)) for q, p in blocks] == [(k, k) for k in sizes]
        assert _hex(np.concatenate([q for q, _ in blocks])) == _hex(whole.q)
        assert _hex(np.concatenate([p for _, p in blocks])) == _hex(whole.p)

    @pytest.mark.parametrize("cycles,block_rows", [(0, 8), (-3, 8), (8, 0)])
    def test_rejects_bad_sizes_on_the_call(self, cycles, block_rows):
        with pytest.raises(ValueError):
            pump_trace_blocks(LoopParams(1.0), cycles, block_rows)


class TestPropagateState:
    def test_norm_drift_is_tiny(self):
        _, drift = propagate_state(_random_loop(RNG), 100_000)
        assert drift < 1e-10

    def test_final_state_matches_power(self):
        lp = _random_loop(RNG)
        state, _ = propagate_state(lp, 500)
        expected = power(build_loop_operator(lp), 500)[:, 0]
        np.testing.assert_allclose(state, expected, atol=1e-11)

    def test_identity_drive_is_exact(self):
        state, drift = propagate_state(LoopParams(0.0), 1000)
        assert drift == 0.0
        assert abs(state[1]) == 0.0


class TestCosineCycle:
    def test_centered_cycle_two_transversal(self):
        events = cosine_cycle_zeros(0.0)
        assert [e.time_fraction for e in events] == [0.25, 0.75]
        assert all(e.transversal for e in events)

    def test_high_tangential(self):
        (event,) = cosine_cycle_zeros(1.0)
        assert event.time_fraction == 0.5 and not event.transversal

    def test_low_tangential(self):
        (event,) = cosine_cycle_zeros(-1.0)
        assert event.time_fraction == 0.0 and not event.transversal

    @pytest.mark.parametrize("offset", [1.5, -2.0, 100.0])
    def test_gapped_cycle_is_quiet(self, offset):
        assert cosine_cycle_zeros(offset) == ()

    def test_zero_locations_solve_the_cosine(self):
        for offset in RNG.uniform(-0.999, 0.999, size=20):
            for event in cosine_cycle_zeros(float(offset)):
                assert offset + math.cos(2.0 * math.pi * event.time_fraction) == pytest.approx(
                    0.0, abs=1e-12
                )


class TestTrajectoryAngles:
    def test_quarter_turn_walk(self):
        angles = trajectory_angles(LoopParams(math.pi / 2), 4)
        expected = [math.pi / 2, math.pi, 3 * math.pi / 2, 0.0]
        for got, want in zip(angles, expected):
            diff = abs(got - want) % (2.0 * math.pi)
            assert min(diff, 2.0 * math.pi - diff) < 1e-12

    def test_range_and_length(self):
        angles = trajectory_angles(_random_loop(RNG), 500)
        assert angles.shape == (500,)
        assert np.all(angles >= 0.0) and np.all(angles < 2.0 * math.pi)

    def test_uniformity_for_generic_drive(self):
        from scipy.stats import kstest

        angles = trajectory_angles(LoopParams(math.pi / 2, 0.0, 0.3), 20_000)
        assert kstest(angles / (2.0 * math.pi), "uniform").statistic < 0.02

    @pytest.mark.parametrize("phi", [0.0, math.pi])
    def test_identity_drive_has_no_turn_axis(self, phi):
        with pytest.raises(IdentityRotationError):
            trajectory_angles(LoopParams(0.0, 0.4, phi), 3)

    def test_turn_angle_matches_mpmath(self):
        # delta = 2h with cos h = cos(theta/2) cos(phi), at 50 digits; the
        # interior keeps delta below pi, so the first angle is delta itself
        worst = 0.0
        for seed in range(40):
            for lp in map(LoopParams, *sample_loop_params(make_rng(seed), 50, **_INTERIOR)):
                with mpmath.workdps(50):
                    half, phi = mpmath.mpf(lp.theta) / 2, mpmath.mpf(lp.phi)
                    c = mpmath.cos(half)
                    sin_h = mpmath.hypot(mpmath.sin(half), c * mpmath.sin(phi))
                    h = mpmath.atan2(sin_h, c * mpmath.cos(phi))
                    gap = abs(float(trajectory_angles(lp, 1)[0] - 2 * h))
                worst = max(worst, gap)
        assert worst <= 1e-15


class TestClosedFormTrace:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_matrix_power_up_to_a_million_cycles(self, seed):
        lp = _random_loop(np.random.default_rng(seed))
        u = build_loop_operator(lp)
        trace = pump_trace(lp, 1_000_000)
        for n in (1, 999, 123_457, 1_000_000):
            expected = abs(np.linalg.matrix_power(u, n)[1, 0]) ** 2
            assert abs(trace.q[n - 1] - expected) <= 1e-9

    @pytest.mark.parametrize(
        "lp",
        [
            LoopParams(math.pi / 2, 0.0, 0.3),
            LoopParams(1e-3, 0.0, 1e-3),
            LoopParams(1.0, 0.7, -0.4),
            LoopParams(2.9, 4.1, 1.2),
            LoopParams(0.4, 2.5, -1.5),
        ],
    )
    def test_matches_mpmath_oracle(self, lp):
        # U from the same doubles, raised to the n-th power at 40 digits;
        # the closed form's n*h rounding costs at most 0.64 n eps here
        trace = pump_trace(lp, 1_000_000)
        with mpmath.workdps(40):
            u = mpmath.matrix(
                [[mpmath.mpc(z.real, z.imag) for z in row] for row in build_loop_operator(lp)]
            )
            for n in (1, 999, 123_457, 1_000_000):
                want = abs((u**n)[1, 0]) ** 2
                assert abs(trace.q[n - 1] - want) <= 2 * n * np.finfo(float).eps

    @pytest.mark.parametrize(
        "lp",
        [
            LoopParams(math.pi / 2, 0.0, 0.3),
            LoopParams(1e-3, 0.0, 1e-3),
            LoopParams(1.0, 0.7, -0.4),
            LoopParams(2.9, 4.1, 1.2),
            LoopParams(0.4, 2.5, -1.5),
            LoopParams(1e-8, 0.0, 1e-8),
        ],
    )
    def test_running_mean_matches_mpmath_oracle(self, lp):
        # p_n = (A^2 / n) sum_j sin^2(jh)
        #     = (A^2 / n) (n/2 - sin(nh) cos((n+1)h) / (2 sin h)) at 50 digits
        trace = pump_trace(lp, 1_000_000)
        with mpmath.workdps(50):
            half, phi = mpmath.mpf(lp.theta) / 2, mpmath.mpf(lp.phi)
            s, c = mpmath.sin(half), mpmath.cos(half)
            sin_h = mpmath.hypot(s, c * mpmath.sin(phi))
            h = mpmath.atan2(sin_h, c * mpmath.cos(phi))
            a2 = (s / sin_h) ** 2
            for n in (1, 2, 10, 999, 123_457, 1_000_000):
                tail = mpmath.sin(n * h) * mpmath.cos((n + 1) * h) / (2 * sin_h)
                want = a2 / n * (mpmath.mpf(n) / 2 - tail)
                assert abs(trace.p[n - 1] - want) <= 2 * n * np.finfo(float).eps

    @pytest.mark.parametrize("theta", [math.pi, math.pi / 2])
    def test_unbiased_drive_stays_in_unit_interval(self, theta):
        # at phi = 0, A = 1 exactly; at theta = pi/2 these azimuths once
        # pushed q_2 = (|U_10| / sin h)^2 to 1 + 4e-16
        for omega in (0.0, 1.0, 1.4231439582217895, 6.2250326568190255):
            trace = pump_trace(LoopParams(theta, omega, 0.0), 10_000)
            assert np.all(trace.q >= 0.0) and np.all(trace.q <= 1.0)
            assert trace.q.max() == pytest.approx(1.0, abs=1e-12)

    def test_identity_drive_keeps_populations(self):
        ground = pump_trace(LoopParams(0.0, 1.3, 0.0), 20)
        assert np.all(ground.q == 0.0) and np.all(ground.p == 0.0)
