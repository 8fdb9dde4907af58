import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from geopump import (
    DriveCycle,
    IdentityRotationError,
    LoopParams,
    build_loop_operator,
    make_rng,
    off_diagonal_magnitude,
    power,
    propagate_state,
    pump_trace,
    pump_trace_blocks,
    sample_loop_params,
    su2_defect,
    tpt_events,
    trajectory_angles,
)
from geopump.checks import _INTERIOR
from geopump.su2 import _BLOCK
from test_su2 import _gamma

RNG = np.random.default_rng(77)


def _random_loop(rng):
    return LoopParams(
        rng.uniform(0.0, math.pi),
        rng.uniform(0.0, 2.0 * math.pi),
        rng.uniform(-math.pi / 2, math.pi / 2),
    )


def test_loop_operator_entries():
    lp = LoopParams(math.pi / 2, 0.7, 0.3)
    u = build_loop_operator(lp.theta, lp.omega, lp.phi)
    ch, sh = math.cos(lp.theta / 2), math.sin(lp.theta / 2)
    assert u[0, 0] == pytest.approx(ch * np.exp(-1j * 0.3), abs=1e-15)
    assert u[0, 1] == pytest.approx(-sh * np.exp(-1j * 0.4), abs=1e-15)
    assert u[1, 0] == pytest.approx(sh * np.exp(1j * 0.4), abs=1e-15)
    assert u[1, 1] == pytest.approx(ch * np.exp(1j * 0.3), abs=1e-15)
    assert su2_defect(u) < 1e-15


def test_loop_operator_is_periodic_in_phase():
    base = build_loop_operator(1.1, 0.4, 0.2)
    shifted = build_loop_operator(1.1, 0.4, 0.2 + math.pi)
    np.testing.assert_allclose(shifted, -base, atol=1e-15)


def _cmath_loop_operator(theta, omega, phi):
    # the one-loop builder as first written, through math and cmath
    c = math.cos(0.5 * theta)
    s = math.sin(0.5 * theta)
    return np.array(
        [
            [c * cmath.exp(-1j * phi), -s * cmath.exp(-1j * (omega - phi))],
            [s * cmath.exp(1j * (omega - phi)), c * cmath.exp(1j * phi)],
        ]
    )


def _parts(u):
    # both parts of every entry as float.hex, so the sign of a zero counts too
    return [(z.real.hex(), z.imag.hex()) for z in np.ravel(u).tolist()]


class TestLoopOperatorBuilder:
    @staticmethod
    def _draws():
        # seeded draws, the same with phi + pi, and a grid of edges: theta at
        # 0, -0.0, the smallest subnormal (s = 0) and pi, phi at signed zeros
        # and +-pi/2, omega across [0, 2 pi) and at phi itself
        theta, omega, phi = sample_loop_params(make_rng(3), 2000)
        edges = np.array(
            [
                (t, o, p)
                for t in (0.0, -0.0, 5e-324, 1.0, math.pi)
                for p in (0.0, -0.0, math.pi / 2, -math.pi / 2, 1.5 * math.pi, 0.3)
                for o in (0.0, -0.0, p, 1.0, math.pi, np.nextafter(2.0 * math.pi, 0.0))
            ]
        ).T
        return (np.concatenate([a, a, e]) for a, e in zip((theta, omega, phi), edges))

    def test_floats_and_arrays_match_the_cmath_builder_bitwise(self):
        theta, omega, phi = self._draws()
        phi[2000:4000] += math.pi
        stacked = build_loop_operator(theta, omega, phi)
        assert stacked.shape == (len(theta), 2, 2)
        for i, loop in enumerate(zip(theta.tolist(), omega.tolist(), phi.tolist())):
            want = _parts(_cmath_loop_operator(*loop))
            assert _parts(build_loop_operator(*loop)) == want, loop
            assert _parts(stacked[i]) == want, loop

    def test_arrays_stack_in_their_own_shape(self):
        flat = [x[:2000] for x in self._draws()]
        stacked = build_loop_operator(*(x.reshape(40, 50) for x in flat))
        assert stacked.shape == (40, 50, 2, 2)
        assert _parts(stacked) == _parts(build_loop_operator(*flat))

    @pytest.mark.parametrize(
        "theta,omega,phi,message",
        [
            (np.array([1.0, 4.0]), 0.0, 0.0, "theta must lie in [0, pi], got 4.0"),
            (1.0, np.array([0.0, np.inf]), 0.0, "omega must be a finite angle, got inf"),
            (1.0, 0.0, math.nan, "phi must be a finite angle, got nan"),
        ],
    )
    def test_validation(self, theta, omega, phi, message):
        # the checks and messages of LoopParams, once per array
        with pytest.raises(ValueError) as info:
            build_loop_operator(theta, omega, phi)
        assert str(info.value) == message


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
        u = build_loop_operator(lp.theta, lp.omega, lp.phi)
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
                off_diagonal_magnitude(lp.theta, lp.phi, j) ** 2, abs=1e-9
            )

    def test_probabilities_stay_in_unit_interval(self):
        trace = pump_trace(LoopParams(math.pi, 1.0, 0.0), 3000)
        assert np.all(trace.q >= 0.0) and np.all(trace.q <= 1.0)

    @pytest.mark.parametrize("cycles", [0, -3, 2.5])
    def test_rejects_bad_cycle_count(self, cycles):
        with pytest.raises(ValueError, match="cycles must be"):
            pump_trace(LoopParams(1.0), cycles)


def _hex(values):
    return [float.hex(x) for x in values.tolist()]


# at phi = 0, A = 1, and the half turn drive pumps the ground state fully
# into the excited state on every odd cycle; theta = 0 with phi = 0 or pi is
# the identity corner, sin h = 0 or nearly, where A = 0
_TRACE_DRIVES = {
    "ground": LoopParams(1.1, 0.3, 0.4),
    "excited": LoopParams(math.pi, 1.0, 0.0),
    "sin-h-zero": LoopParams(0.0, 0.0, 0.0),
    "corner-phi-pi": LoopParams(0.0, 0.0, math.pi),
}


class TestPumpTraceBlocks:
    @pytest.mark.parametrize(
        "lp", [pytest.param(lp, id=name) for name, lp in _TRACE_DRIVES.items()]
    )
    @pytest.mark.parametrize(
        "cycles,block",
        [(1, 1), (1, 64), (7, 1), (1023, 1024), (1024, 1024), (1025, 1024), (10_001, 4096)],
    )
    def test_blocks_concatenate_to_the_whole_trace(self, small_blocks, lp, cycles, block):
        small_blocks(cycles)
        ((whole_n, whole_q, whole_p),) = pump_trace_blocks(lp.theta, lp.phi, cycles)
        small_blocks(block)
        blocks = list(pump_trace_blocks(lp.theta, lp.phi, cycles))
        sizes = [min(block, cycles - start) for start in range(0, cycles, block)]
        assert [tuple(map(len, b)) for b in blocks] == [(k, k, k) for k in sizes]
        n = np.concatenate([n for n, _, _ in blocks])
        assert n.dtype == whole_n.dtype == np.int64
        assert n.tolist() == whole_n.tolist() == list(range(1, cycles + 1))
        trace = pump_trace(lp, cycles)
        for q in (np.concatenate([q for _, q, _ in blocks]), trace.q):
            assert _hex(q) == _hex(whole_q)
        for p in (np.concatenate([p for _, _, p in blocks]), trace.p):
            assert _hex(p) == _hex(whole_p)

    @pytest.mark.parametrize("cycles,block", [(1, 1), (7, 3), (1025, 1024), (10_001, 4096)])
    def test_stacked_drives_are_each_drives_blocks_bit_for_bit(self, small_blocks, cycles, block):
        # the four drives as one (2, 2) stack: each drive's rows carry its own
        # prefix sum across the block edges
        small_blocks(block)
        drives = list(_TRACE_DRIVES.values())
        theta = np.reshape([lp.theta for lp in drives], (2, 2))
        phi = np.reshape([lp.phi for lp in drives], (2, 2))
        stacked = list(pump_trace_blocks(theta, phi, cycles))
        for n, q, p in stacked:
            assert n.dtype == np.int64 and q.shape == p.shape == (2, 2, len(n))
        cycle = np.concatenate([n for n, _, _ in stacked])
        np.testing.assert_array_equal(cycle, np.arange(1, cycles + 1))
        for i, lp in enumerate(drives):
            alone = list(pump_trace_blocks(lp.theta, lp.phi, cycles))
            assert len(alone) == len(stacked)
            for (n, q, p), (n1, q1, p1) in zip(stacked, alone):
                assert n.tolist() == n1.tolist()
                assert _hex(q.reshape(4, -1)[i]) == _hex(q1)
                assert _hex(p.reshape(4, -1)[i]) == _hex(p1)

    @pytest.mark.parametrize("cycles", [0, -3, 2.5])
    def test_rejects_bad_sizes_on_the_call(self, cycles):
        with pytest.raises(ValueError):
            pump_trace_blocks(1.0, 0.0, cycles)

    @pytest.mark.parametrize(
        "theta,phi,message",
        [
            (np.array([1.0, 2.0]), np.array([0.0, math.nan]), "phi must be a finite angle, got nan"),
            (4.0, 0.0, "theta must lie in [0, pi], got 4.0"),
        ],
    )
    def test_rejects_bad_angles_on_the_call(self, theta, phi, message):
        # the checks and messages of LoopParams, before the first block
        with pytest.raises(ValueError) as info:
            pump_trace_blocks(theta, phi, 10)
        assert str(info.value) == message


class TestPropagateState:
    def test_norm_drift_is_tiny(self):
        _, drift = propagate_state(_random_loop(RNG), 100_000)
        assert drift < 1e-10

    def test_final_state_matches_power(self):
        lp = _random_loop(RNG)
        state, _ = propagate_state(lp, 500)
        expected = power(build_loop_operator(lp.theta, lp.omega, lp.phi), 500)[:, 0]
        np.testing.assert_allclose(state, expected, atol=1e-11)

    def test_identity_drive_is_exact(self):
        state, drift = propagate_state(LoopParams(0.0), 1000)
        assert drift == 0.0
        assert abs(state[1]) == 0.0

    @pytest.mark.parametrize(
        "cycles,message",
        [(0, "cycles must be >= 1, got 0"), (2.5, "cycles must be an integer, got 2.5")],
    )
    def test_validation(self, cycles, message):
        with pytest.raises(ValueError) as info:
            propagate_state(LoopParams(1.0), cycles)
        assert str(info.value) == message


_PIN_RNG = np.random.default_rng(2300)
_PIN_DRIVES = [
    *(_random_loop(_PIN_RNG) for _ in range(20)),
    LoopParams(1e-9, 0.0, 1e-9),
    LoopParams(math.pi, 1.0, 0.4),
    LoopParams(0.0),
]

# The probe's product tree against the exact U^n e_0 of the same float
# entries, at 50 digits.  Errors are in units of u = eps/2 with gamma_n as in
# tests/test_su2.py.  U = [[a, -conj b], [b, conj a]] bit for bit, so every
# computed power and every difference of two powers has that form too, with
# its spectral norm the norm of its first column.  Let R bound the norms of
# every computed column and state and of every exact U^j, j <= n.
#   One step.  Each real part of U v is two pairwise sums of two products
#     each, three roundings per term, so it is off by at most gamma_3 times
#     the sum of the |products|, which is at most |U| |v| by Cauchy-Schwarz:
#     the step errs by at most g = 2 gamma_3 R^2 in norm.
#   Doubling.  Column 1 is U e_0 itself, E_1 = 0, and column m + j is
#     U^j (U^m e_0) computed, so E_(m+j) <= g + R (E_j + E_m).  By induction
#     over the levels, E_j <= (j - 1) g R^L with L = ceil(log2 _BLOCK).
#   Blocks.  From the exact e_0, block b + 1 starts at U^(n_b) s_b computed,
#     so F_(b+1) <= g + R (E_(n_b) + F_b), and after K blocks of n cycles in
#     all, F_K <= n g R^(L + K).
# So |state - U^n e_0| <= 2 n gamma_3 R^(L + K + 2): 3 n eps to first order,
# the same linear growth as a product taken one cycle at a time.  The first
# block's states are the table's columns bit for bit, so the returned drift
# covers every computed norm: a drift of at most 1e-9 and an exact growth
# max(1, |a|^2 + |b|^2)^(n/2) <= 1 + 1e-9 make R = 1 + 2e-9 a bound, the
# extra 1e-9 covering the rounding of the drift itself.
_TREE_R = 1.0 + 2e-9


@pytest.mark.parametrize("lp", _PIN_DRIVES, ids=range(len(_PIN_DRIVES)))
def test_propagate_state_is_the_power_within_the_product_tree_bound(lp):
    # block edges on either side, a partial last block, and verify's length
    u = build_loop_operator(lp.theta, lp.omega, lp.phi)
    levels = (_BLOCK - 1).bit_length()
    with mpmath.workdps(50):
        m = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in u])
        rho = abs(m[0, 0]) ** 2 + abs(m[1, 0]) ** 2
        for cycles in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 100_000):
            state, drift = propagate_state(lp, cycles)
            got = [mpmath.mpc(z.real, z.imag) for z in state]
            gap = mpmath.sqrt(sum(abs(z - w) ** 2 for z, w in zip(got, (m**cycles)[:, 0])))
            growth = max(1, rho) ** (mpmath.mpf(cycles) / 2)
            assert drift <= 1e-9 and growth <= 1.0 + 1e-9, (cycles, drift)
            blocks = -(-cycles // _BLOCK)
            bound = 2 * cycles * _gamma(3) * _TREE_R ** (levels + blocks + 2)
            assert gap <= bound, (cycles, float(gap), bound)
            r0, i0, r1, i1 = state.view(float).tolist()
            assert drift >= abs(math.sqrt(r0 * r0 + i0 * i0 + r1 * r1 + i1 * i1) - 1.0)
            if lp.theta == 0.0:
                assert drift == 0.0


def _propagate_cycle_by_cycle(lp, cycles, start=(1.0 + 0.0j, 0.0j)):
    # the probe with its norm worked out in Python after every cycle
    s0, s1 = start
    u = build_loop_operator(lp.theta, lp.omega, lp.phi)
    ua, ub = complex(u[0, 0]), complex(u[0, 1])
    uc, ud = complex(u[1, 0]), complex(u[1, 1])
    worst = 0.0
    for _ in range(cycles):
        s0, s1 = ua * s0 + ub * s1, uc * s0 + ud * s1
        err = abs(
            math.sqrt(
                s0.real * s0.real
                + s0.imag * s0.imag
                + s1.real * s1.real
                + s1.imag * s1.imag
            )
            - 1.0
        )
        if err > worst:
            worst = err
    return np.array([s0, s1]), worst


@pytest.mark.parametrize("lp", _PIN_DRIVES, ids=range(len(_PIN_DRIVES)))
def test_propagate_state_is_the_cycle_by_cycle_loop_bit_for_bit(lp):
    # Wherever the product tree takes one cycle, it is the per-cycle loop bit
    # for bit: U^2 e_0 = U (U e_0) and U^3 e_0 = U (U^2 e_0) in the table's
    # doubling, and the first state of every block is U times the state the
    # last block carried forward.  U's real-part step (-(x + y) for -x - y)
    # rounds as Python's complex product does, since U = [[a, -conj b],
    # [b, conj a]] bit for bit; np.array_equal reads -0.0 as 0.0.
    for cycles in (1, 2, 3):
        state, drift = propagate_state(lp, cycles)
        ref_state, ref_drift = _propagate_cycle_by_cycle(lp, cycles)
        assert drift == ref_drift, (cycles, drift, ref_drift)
        assert np.array_equal(state, ref_state), cycles
    # block edges, and the last whole block of verify's 100 000 cycles
    for edge in (_BLOCK, 2 * _BLOCK, (100_000 // _BLOCK) * _BLOCK):
        carried, carried_drift = propagate_state(lp, edge)
        state, drift = propagate_state(lp, edge + 1)
        ref_state, step_drift = _propagate_cycle_by_cycle(lp, 1, carried.tolist())
        assert drift == max(carried_drift, step_drift), (edge, drift, carried_drift)
        assert np.array_equal(state, ref_state), edge
        if lp.theta == 0.0:
            assert drift == 0.0


def test_propagate_state_memory_is_one_block():
    lp = LoopParams(1.1, 0.3, 0.4)
    propagate_state(lp, 8)  # allocations made once per process are not per cycle
    tracemalloc.start()
    try:
        propagate_state(lp, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak} bytes"


class TestCosineCycle:
    # offset + cos(2 pi t) touches zero without crossing at offset +/-1;
    # acos gives exactly pi and 0 there, so the touch lands on t = 0.5 or 0
    def test_high_tangential(self):
        # a = 2, w = 1: only k = pi/l closes, at offset a - w = +1
        (event,) = tpt_events(DriveCycle(a=2.0))
        assert (event.time_fraction, event.k_star) == (0.5, math.pi)
        assert not event.transversal

    def test_low_tangential(self):
        # a = -2, w = 1: only k = 0 closes, at offset a + w = -1
        (event,) = tpt_events(DriveCycle(a=-2.0))
        assert (event.time_fraction, event.k_star) == (0.0, 0.0)
        assert not event.transversal


class TestTrajectoryAngles:
    def test_quarter_turn_walk(self):
        angles = trajectory_angles(math.pi / 2, 0.0, 4)
        expected = [math.pi / 2, math.pi, 3 * math.pi / 2, 0.0]
        for got, want in zip(angles, expected):
            diff = abs(got - want) % (2.0 * math.pi)
            assert min(diff, 2.0 * math.pi - diff) < 1e-12

    def test_range_and_length(self):
        lp = _random_loop(RNG)
        angles = trajectory_angles(lp.theta, lp.phi, 500)
        assert angles.shape == (500,)
        assert np.all(angles >= 0.0) and np.all(angles < 2.0 * math.pi)

    def test_uniformity_for_generic_drive(self):
        from scipy.stats import kstest

        angles = trajectory_angles(math.pi / 2, 0.3, 20_000)
        assert kstest(angles / (2.0 * math.pi), "uniform").statistic < 0.02

    @pytest.mark.parametrize("n,message", [(0, "n must be >= 1"), (2.5, "n must be an integer")])
    def test_validation(self, n, message):
        # n = 2.5 would return 3 angles
        with pytest.raises(ValueError, match=message):
            trajectory_angles(math.pi / 2, 0.0, n)

    @pytest.mark.parametrize("phi", [0.0, math.pi])
    def test_identity_drive_has_no_turn_axis(self, phi):
        with pytest.raises(IdentityRotationError):
            trajectory_angles(0.0, phi, 3)

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
                    gap = abs(float(trajectory_angles(lp.theta, lp.phi, 1)[0] - 2 * h))
                worst = max(worst, gap)
        assert worst <= 1e-15


class TestClosedFormTrace:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_matrix_power_up_to_a_million_cycles(self, seed):
        lp = _random_loop(np.random.default_rng(seed))
        u = build_loop_operator(lp.theta, lp.omega, lp.phi)
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
            u = build_loop_operator(lp.theta, lp.omega, lp.phi)
            u = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in u])
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
