import math
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geopump import (
    EmptyCurveError,
    LoopParams,
    build_loop_operator,
    classify,
    curve_order,
    half_turn,
    matrix_power_closed_form,
    off_diagonal_magnitude,
    phase_diagram,
    power,
    stable_curve,
)
from geopump import stability
from geopump.stability import MARGINAL_BAND
from geopump.su2 import _BLOCK

RNG = np.random.default_rng(98765)

HALF_PI = math.pi / 2


def _random_loop(rng):
    return LoopParams(
        rng.uniform(0.0, math.pi),
        rng.uniform(0.0, 2.0 * math.pi),
        rng.uniform(-HALF_PI, HALF_PI),
    )


def _is_diagonal(m, tol=1e-9):
    return max(abs(m[0, 1]), abs(m[1, 0])) < tol


def _trace(lp):
    # y = tr U = 2 cos h, the parameter of the Chebyshev recurrence
    return 2.0 * float(half_turn(lp.theta, lp.phi).c_cos)


class TestTraceParameter:
    def test_frozen_value(self):
        assert _trace(LoopParams(HALF_PI)) == 1.4142135623730951

    def test_purely_imaginary(self):
        # the Fibonacci argument x = -i tr U of the loop
        for _ in range(100):
            x = -1j * _trace(_random_loop(RNG))
            assert x.real == 0.0
            assert abs(x.imag) <= 2.0

    def test_matches_trace(self):
        lp = _random_loop(RNG)
        u = build_loop_operator(lp.theta, lp.omega, lp.phi)
        assert _trace(lp) == pytest.approx(u[0, 0] + u[1, 1], abs=1e-15)

    def test_bit_identical_to_math(self):
        # classify runs on these floats and phase_diagram on the arrays, so
        # both rest on np.cos and np.sin rounding as math.cos and math.sin do
        rng = np.random.default_rng(2024)
        draws = rng.uniform(0.0, math.pi, 200_000), rng.uniform(-HALF_PI, HALF_PI, 200_000)
        grid = phase_diagram(200, 200, 1)
        mesh = np.meshgrid(grid.theta_values, grid.phi_values, indexing="ij")
        for theta, phi in (draws, tuple(a.ravel() for a in mesh)):
            ht = half_turn(theta, phi)
            pairs = zip(theta.tolist(), phi.tolist())
            want = [(2.0 * (math.cos(0.5 * t) * math.cos(p)), math.sin(0.5 * t)) for t, p in pairs]
            assert (2.0 * ht.c_cos).tolist() == [y for y, _ in want]
            assert ht.s.tolist() == [s for _, s in want]


class TestClosedFormPowers:
    def test_matches_matrix_power(self):
        for _ in range(50):
            lp = _random_loop(RNG)
            u = build_loop_operator(lp.theta, lp.omega, lp.phi)
            n = int(RNG.integers(0, 200))
            np.testing.assert_allclose(
                matrix_power_closed_form(lp.theta, lp.omega, lp.phi, n), power(u, n), atol=1e-11
            )

    def test_first_power_is_operator(self):
        lp = _random_loop(RNG)
        u = build_loop_operator(lp.theta, lp.omega, lp.phi)
        got = matrix_power_closed_form(lp.theta, lp.omega, lp.phi, 1)
        np.testing.assert_allclose(got, u, atol=1e-15)


class TestOffDiagonal:
    def test_matches_matrix_entry(self):
        for _ in range(50):
            lp = _random_loop(RNG)
            n = int(RNG.integers(1, 300))
            direct = abs(power(build_loop_operator(lp.theta, lp.omega, lp.phi), n)[0, 1])
            assert off_diagonal_magnitude(lp.theta, lp.phi, n) == pytest.approx(direct, abs=1e-11)

    def test_quarter_bias_vanishes_at_two(self):
        assert off_diagonal_magnitude(HALF_PI, HALF_PI, 2) < 1e-12

    def test_quarter_turn_cubed(self):
        got = off_diagonal_magnitude(HALF_PI, 0.0, 3)
        assert got == pytest.approx(math.sin(math.pi / 4), abs=1e-15)

    def test_azimuth_has_no_effect(self):
        # the closed form takes no omega: each azimuth's product agrees with it
        lp = _random_loop(RNG)
        n = 37
        for omega in (0.0, 1.0, 5.0):
            direct = abs(power(build_loop_operator(lp.theta, omega, lp.phi), n)[0, 1])
            assert off_diagonal_magnitude(lp.theta, lp.phi, n) == pytest.approx(direct, abs=1e-11)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            off_diagonal_magnitude(1.0, 0.0, 0)


# unsorted, repeated, both base cases and past one 4096-step block
_EXPONENTS = np.array([7, 0, 4097, 1, 1, 5000, 0, 300, 7, 4096])


class TestArrayExponents:
    """An int array n is one call, each entry the float its own call gives."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matrix_power_is_the_per_n_calls(self, seed):
        lp = _random_loop(np.random.default_rng(seed))
        drive = (lp.theta, lp.omega, lp.phi)
        got = matrix_power_closed_form(*drive, _EXPONENTS)
        assert got.shape == (len(_EXPONENTS), 2, 2)
        assert np.array_equal(got, [matrix_power_closed_form(*drive, int(n)) for n in _EXPONENTS])
        grid = matrix_power_closed_form(*drive, _EXPONENTS.reshape(2, 5))
        assert np.array_equal(grid.reshape(-1, 2, 2), got)

    @pytest.mark.parametrize("seed", range(5))
    def test_off_diagonal_is_the_per_n_calls(self, seed):
        lp = _random_loop(np.random.default_rng(seed))
        ns = _EXPONENTS + 1
        got = off_diagonal_magnitude(lp.theta, lp.phi, ns)
        assert np.array_equal(got, [off_diagonal_magnitude(lp.theta, lp.phi, int(n)) for n in ns])
        grid = off_diagonal_magnitude(lp.theta, lp.phi, ns.reshape(5, 2))
        assert np.array_equal(grid.ravel(), got)

    def test_scalar_n_keeps_its_types(self):
        # float angles and an int n give one matrix and a numpy float scalar
        assert matrix_power_closed_form(1.0, 0.5, 0.25, np.int64(3)).shape == (2, 2)
        got = off_diagonal_magnitude(1.0, 0.25, 3)
        assert type(got) is np.float64 and isinstance(got, float)

    def test_empty_array(self):
        assert matrix_power_closed_form(1.0, 0.0, 0.0, np.array([], dtype=int)).shape == (0, 2, 2)
        assert off_diagonal_magnitude(1.0, 0.0, np.array([], dtype=int)).shape == (0,)

    def test_empty_drive_stack(self):
        empty = np.zeros(0)
        assert off_diagonal_magnitude(empty, empty, 3).shape == (0,)
        assert matrix_power_closed_form(empty, empty, empty, 3).shape == (0, 2, 2)
        column, ns = np.zeros((0, 1)), np.ones((0, 5), dtype=int)
        assert off_diagonal_magnitude(column, column, ns).shape == (0, 5)
        assert matrix_power_closed_form(column, column, column, ns).shape == (0, 5, 2, 2)

    def test_many_exponents_are_the_separate_calls(self):
        # more distinct exponents than drives: each step writes only its own
        # cells, and every value is that of its own call, bit for bit
        rng = np.random.default_rng(7)
        ns = rng.integers(1, 1500, 5000)  # unsorted, repeated, ~1450 distinct
        got = off_diagonal_magnitude(1.0, 0.25, ns)
        alone = {n: off_diagonal_magnitude(1.0, 0.25, n) for n in set(ns.tolist())}
        assert got.tobytes() == np.array([alone[n] for n in ns.tolist()]).tobytes()
        box = ((0.0, math.pi), (0.0, 2.0 * math.pi), (-HALF_PI, HALF_PI))
        theta, omega, phi = (rng.uniform(lo, hi, (3, 4)) for lo, hi in box)
        ns = rng.integers(0, 60, (3, 4))
        cells = list(np.ndindex(3, 4))
        stack = matrix_power_closed_form(theta, omega, phi, ns)
        each = [matrix_power_closed_form(theta[c], omega[c], phi[c], int(ns[c])) for c in cells]
        assert stack.tobytes() == np.array(each).tobytes()
        stack = off_diagonal_magnitude(theta, phi, ns + 1)
        each = [off_diagonal_magnitude(theta[c], phi[c], int(ns[c]) + 1) for c in cells]
        assert stack.tobytes() == np.array(each).tobytes()

    def test_a_long_run_keeps_only_the_terms_asked_for(self):
        # one n = 10**6 once held every term up to it, 8 MB
        off_diagonal_magnitude(1.0, 0.25, 10)  # allocations made once per process
        tracemalloc.start()
        try:
            off_diagonal_magnitude(1.0, 0.25, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak} bytes"

    @pytest.mark.parametrize(
        "closed_form, ns, first",
        [
            (matrix_power_closed_form, [3, -2, 5, -7], "-2"),
            (matrix_power_closed_form, -1, "-1"),
            (off_diagonal_magnitude, [3, 0, -1], "0"),
            (off_diagonal_magnitude, 0, "0"),
        ],
    )
    def test_rejects_the_first_bad_entry(self, closed_form, ns, first):
        with pytest.raises(ValueError, match=f"got {first}$"):
            closed_form(*_ANGLES[closed_form], np.array(ns))

    @pytest.mark.parametrize("closed_form", [matrix_power_closed_form, off_diagonal_magnitude])
    @pytest.mark.parametrize("ns", [2.5, 3.0, np.array([1.0, 2.0]), np.array([1, 2]) + 0.5])
    def test_rejects_non_integer_exponents(self, closed_form, ns):
        with pytest.raises(ValueError, match="n must be an int64 integer"):
            closed_form(*_ANGLES[closed_form], ns)


# one drive's angles for each closed form's signature
_ANGLES = {matrix_power_closed_form: (1.0, 0.0, 0.0), off_diagonal_magnitude: (1.0, 0.0)}


class TestDriveStacks:
    """A stack of drives broadcasts against n: each entry is the value of
    its own one-drive call, bit for bit."""

    @pytest.mark.parametrize("seed", range(5))
    def test_each_drive_gets_its_own_exponents(self, seed):
        rng = np.random.default_rng(seed)
        theta, omega, phi = (rng.uniform(lo, hi, (7, 1)) for lo, hi in _WINDOWS)
        ns = rng.integers(1, 300, size=(7, 4))
        powers = matrix_power_closed_form(theta, omega, phi, ns)
        off = off_diagonal_magnitude(theta, phi, ns)
        assert powers.shape == (7, 4, 2, 2) and off.shape == (7, 4)
        for i, j in np.ndindex(ns.shape):
            drive, n = (theta[i, 0], omega[i, 0], phi[i, 0]), int(ns[i, j])
            assert np.array_equal(powers[i, j], matrix_power_closed_form(*drive, n))
            assert off[i, j] == off_diagonal_magnitude(theta[i, 0], phi[i, 0], n)

    def test_one_n_for_every_drive(self):
        theta, phi = np.linspace(0.0, math.pi, 5), np.linspace(-HALF_PI, HALF_PI, 5)
        powers = matrix_power_closed_form(theta, 0.3, phi, 17)
        assert powers.shape == (5, 2, 2)
        for got, t, p in zip(powers, theta, phi):
            assert np.array_equal(got, matrix_power_closed_form(float(t), 0.3, float(p), 17))

    def test_shapes_that_do_not_broadcast_are_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            off_diagonal_magnitude(np.ones(3), np.zeros(3), np.arange(1, 5))

    @pytest.mark.parametrize(
        "closed_form, angles, message",
        [
            (matrix_power_closed_form, (np.array([1.0, 4.0]), 0.0, 0.0), "theta must lie in"),
            (matrix_power_closed_form, (1.0, math.inf, 0.0), "omega must be a finite angle"),
            (off_diagonal_magnitude, (-0.5, 0.0), "theta must lie in"),
            (off_diagonal_magnitude, (1.0, np.array([0.0, math.nan])), "phi must be a finite"),
        ],
    )
    def test_angles_are_checked(self, closed_form, angles, message):
        with pytest.raises(ValueError, match=message):
            closed_form(*angles, 3)


_WINDOWS = ((0.0, math.pi), (0.0, 2.0 * math.pi), (-HALF_PI, HALF_PI))


class TestClassify:
    def test_quarter_turn_order_four(self):
        verdict = classify(HALF_PI, 0.0, 10)
        assert verdict.stable and verdict.order == 4

    def test_quarter_bias_order_two(self):
        verdict = classify(math.pi / 3, HALF_PI, 10)
        assert verdict.stable and verdict.order == 2

    def test_closed_loop_order_one(self):
        assert classify(0.0, 0.0, 5).order == 1

    def test_half_turn_order_two(self):
        assert classify(math.pi, 0.0, 5).order == 2

    def test_generic_drive_never_returns(self):
        verdict = classify(HALF_PI, 0.3, 1000)
        assert not verdict.stable
        assert verdict.order is None

    def test_marginal_band_is_not_stable(self):
        # delta just off a quarter turn: the best off-diagonal lands in
        # the guard band and must be flagged rather than accepted
        verdict = classify(HALF_PI + 2e-7, 0.0, 10)
        assert not verdict.stable
        assert 4 in verdict.marginal

    def test_verdict_matches_matrix_oracle(self):
        for _ in range(20):
            lp = _random_loop(RNG)
            n_max = 60
            verdict = classify(lp.theta, lp.phi, n_max)
            u = build_loop_operator(lp.theta, lp.omega, lp.phi)
            orders = [
                n for n in range(1, n_max + 1) if _is_diagonal(power(u, n))
            ]
            if verdict.stable:
                assert orders and orders[0] == verdict.order
            else:
                assert not orders

    def test_validation(self):
        with pytest.raises(ValueError):
            classify(1.0, 0.0, 0)
        with pytest.raises(ValueError):
            classify(1.0, 0.0, 10, tol=1e-3)
        with pytest.raises(ValueError, match="n_max must be an integer, got 2.5"):
            classify(1.0, 0.0, 2.5)
        with pytest.raises(ValueError, match="theta must lie in"):
            classify(3.5, 0.0, 10)
        with pytest.raises(ValueError, match="phi must be a finite angle"):
            classify(1.0, math.nan, 10)


class TestCurveOrder:
    @pytest.mark.parametrize(
        "p,q,expected",
        [(1, 1, 2), (1, 2, 4), (2, 3, 3), (1, 3, 6), (3, 4, 8), (5, 6, 12)],
    )
    def test_known_orders(self, p, q, expected):
        assert curve_order(p, q) == expected

    def test_smallest_vanishing_multiple(self):
        for q in range(1, 13):
            for p in range(1, 2 * q):
                if math.gcd(p, q) != 1:
                    continue
                order = curve_order(p, q)
                assert (order * p) % (2 * q) == 0
                for n in range(1, order):
                    assert (n * p) % (2 * q) != 0

    def test_validation(self):
        with pytest.raises(ValueError, match="p must be >= 1, got 0"):
            curve_order(0, 2)
        with pytest.raises(ValueError, match="p must be an integer, got 1.5"):
            curve_order(1.5, 2)


class TestStableCurve:
    def test_half_turn_curve_sits_on_boundary(self):
        curve = stable_curve(1, 1, 8)
        assert curve.order == 2
        # at theta=pi the curve degenerates (any phi is stable), so only
        # the interior points are pinned to the quarter-bias edge
        for _, phi in curve.points[:-1]:
            assert phi == pytest.approx(HALF_PI, abs=1e-12)

    def test_points_satisfy_defining_relation(self):
        curve = stable_curve(1, 2, 16)
        target = math.cos(curve.delta / 2.0)
        for theta, phi in curve.points:
            assert math.cos(theta / 2.0) * math.cos(phi) == pytest.approx(
                target, abs=1e-12
            )

    def test_curve_points_classify_at_curve_order(self):
        for p, q in ((1, 2), (2, 3), (3, 4), (1, 5)):
            curve = stable_curve(p, q, 5)
            for theta, phi in curve.points:
                verdict = classify(theta, phi, 2 * curve.order + 2)
                assert verdict.stable and verdict.order == curve.order

    def test_wide_turns_have_no_curve(self):
        with pytest.raises(EmptyCurveError):
            stable_curve(3, 2, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            stable_curve(2, 4, 8)  # not coprime
        with pytest.raises(ValueError):
            stable_curve(5, 2, 8)  # delta out of range
        with pytest.raises(ValueError):
            stable_curve(1, 2, 1)
        with pytest.raises(ValueError, match="resolution must be an integer, got 2.5"):
            stable_curve(1, 2, 2.5)  # would sample theta = 1.885, past delta = pi/2
        with pytest.raises(ValueError, match="q must be >= 1, got 0"):
            stable_curve(1, 0, 8)
        with pytest.raises(ValueError, match="p must be an integer, got 1.5"):
            stable_curve(1.5, 2, 4)


class TestPhaseDiagram:
    def test_shapes_and_midpoint_axes(self):
        diagram = phase_diagram(6, 4, 20)
        assert diagram.theta_values.shape == (6,)
        assert diagram.phi_values.shape == (4,)
        assert len(diagram.verdicts) == 6 and len(diagram.verdicts[0]) == 4
        # half-cell offsets keep the axes strictly inside the windows
        assert diagram.theta_values[0] > 0.0
        assert diagram.phi_values[-1] < HALF_PI

    def test_endpoint_axes_include_boundary(self):
        diagram = phase_diagram(5, 5, 20, offset=0.0)
        assert diagram.theta_values[0] == 0.0
        assert diagram.theta_values[-1] == pytest.approx(math.pi)
        assert diagram.phi_values[0] == pytest.approx(-HALF_PI)

    def test_boundary_rows_are_stable(self):
        diagram = phase_diagram(3, 3, 10, offset=0.0)
        for row, theta in zip(diagram.verdicts, diagram.theta_values):
            for verdict, phi in zip(row, diagram.phi_values):
                on_edge = (
                    theta in (0.0,)
                    or theta == pytest.approx(math.pi)
                    or abs(phi) == pytest.approx(HALF_PI)
                )
                if on_edge:
                    assert verdict.stable and verdict.order <= 2

    def test_interior_is_mostly_unstable(self):
        diagram = phase_diagram(10, 10, 100)
        stable = sum(v.stable for row in diagram.verdicts for v in row)
        assert stable / 100.0 < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            phase_diagram(1, 5, 10)
        with pytest.raises(ValueError):
            phase_diagram(5, 5, 10, offset=1.0)
        # numpy would reject this grid with a message that names no field
        with pytest.raises(ValueError, match=r"theta_grid \* phi_grid"):
            phase_diagram(2**62, 4, 10)
        # a 5-row grid at the cell midpoints, numpy's TypeError at offset 0
        for offset in (0.5, 0.0):
            with pytest.raises(ValueError, match="theta_grid must be an integer, got 4.5"):
                phase_diagram(4.5, 4, 10, offset=offset)
        with pytest.raises(ValueError, match="phi_grid must be an integer, got 4.0"):
            phase_diagram(4, 4.0, 10)
        # each axis is checked whole, type then floor, before the next
        with pytest.raises(ValueError, match="theta_grid must be >= 2, got 1"):
            phase_diagram(1, 2.5, 10)
        # orders are int64, so n_max has a ceiling as well as its floor
        with pytest.raises(ValueError, match=r"n_max must be <= sys\.maxsize, got "):
            phase_diagram(2, 2, sys.maxsize + 1)

    def test_scan_arguments_are_checked_before_the_axes(self):
        # the theta axis alone would take 15 MiB before n_max = 0 is read
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="n_max must be >= 1, got 0"):
                phase_diagram(2_000_000, 2, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak} bytes"


class TestPhaseDiagramMatchesClassify:
    @pytest.mark.parametrize(
        "grid,n_max,offset", [(60, 1000, 0.0), (41, 120, 0.5), (23, 300, 0.25)]
    )
    def test_every_cell_equals_scalar_verdict(self, grid, n_max, offset):
        diagram = phase_diagram(grid, grid, n_max, offset=offset)
        for row, theta in zip(diagram.verdicts, diagram.theta_values):
            for verdict, phi in zip(row, diagram.phi_values):
                expected = classify(float(theta), float(phi), n_max)
                assert verdict == expected  # stable, order and marginal

    def test_endpoint_grid_has_stable_and_marginal_cells(self):
        # guards the test above: it must see both kinds of special cell
        diagram = phase_diagram(60, 60, 1000, offset=0.0)
        cells = [v for row in diagram.verdicts for v in row]
        assert sum(v.stable for v in cells) > 100
        assert sum(bool(v.marginal) for v in cells) > 0

    def test_orders_and_marginal_build_the_verdicts(self):
        diagram = phase_diagram(60, 60, 1000, offset=0.0)
        assert "verdicts" not in vars(diagram)  # built on first read only
        assert diagram.orders.dtype == np.int64 and not diagram.orders.flags.writeable
        want = [[v.order or 0 for v in row] for row in diagram.verdicts]
        assert diagram.orders.tolist() == want
        marks = {
            i * 60 + j: v.marginal
            for i, row in enumerate(diagram.verdicts)
            for j, v in enumerate(row)
            if v.marginal
        }
        assert diagram.marginal == marks

    def test_scan_arguments_validated(self):
        with pytest.raises(ValueError):
            phase_diagram(5, 5, 0)
        with pytest.raises(ValueError):
            phase_diagram(5, 5, 10, tol=1e-3)
        # islice's message would name no field
        with pytest.raises(ValueError, match="n_max must be an integer, got 2.5"):
            phase_diagram(4, 4, 2.5)


class TestPhaseDiagramBlocks:
    """phase_diagram scans one block of whole theta rows at a time."""

    def test_small_blocks_change_no_verdict(self, small_blocks):
        # 60 x 60 = 3600 cells fit one scan block; three theta rows per block
        # put the 8 marginal cells (rows 4, 9, 29 and 42) into four blocks
        whole = phase_diagram(60, 60, 1000, offset=0.0)
        small_blocks(3 * 60)
        blocked = phase_diagram(60, 60, 1000, offset=0.0)
        np.testing.assert_array_equal(blocked.orders, whole.orders)
        assert blocked.marginal == whole.marginal
        assert np.count_nonzero(blocked.orders) == 236 and len(blocked.marginal) == 8
        for row, theta in zip(blocked.verdicts, blocked.theta_values):
            for verdict, phi in zip(row, blocked.phi_values):
                assert verdict == classify(float(theta), float(phi), 1000)

    def test_rows_longer_than_a_block(self, small_blocks):
        whole = phase_diagram(30, 47, 600, offset=0.0)
        small_blocks(7)  # one theta row per block
        blocked = phase_diagram(30, 47, 600, offset=0.0)
        np.testing.assert_array_equal(blocked.orders, whole.orders)
        assert np.count_nonzero(blocked.orders) == 178
        assert blocked.marginal == whole.marginal and sorted(blocked.marginal) == [55, 85]

    def test_a_wide_grid_holds_one_filter_block(self):
        # the keep/drop filter once took a whole theta row per block: about
        # 106 bytes a cell on 2 x 100 000; the int64 orders are 8
        phase_diagram(2, 8, 200)  # allocations made once per process
        tracemalloc.start()
        try:
            phase_diagram(2, 100_000, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 * 100_000, f"{peak / 2e5:.1f} bytes a cell"

    def test_benchmark_grid_marginal_is_pinned(self):
        # 26 cells with 52 hits; 200 phi columns make 20-row scan blocks,
        # so the last two cells, 30698 and 30701, lie past the first block
        marginal = phase_diagram(200, 200, 200).marginal
        assert marginal == {
            2: (80, 160), 7: (80, 160),
            12: (16, 32, 48, 64, 80, 96, 112, 128, 144, 160),
            17: (80,), 22: (80,), 37: (16, 32), 162: (16, 32), 177: (80,), 182: (80,),
            187: (16, 32, 48, 64, 80, 96, 112, 128, 144, 160),
            192: (80, 160), 197: (80, 160), 260: (81, 162), 269: (59,), 330: (59,),
            339: (81, 162), 2045: (128,), 2154: (128,), 5453: (187,), 5546: (187,),
            5816: (81,), 5983: (81,), 15421: (97,), 15578: (97,),
            30698: (185,), 30701: (185,),
        }
        assert sum(marginal) == 121787 and sum(map(len, marginal.values())) == 52
        assert min(30698, 30701) >= _BLOCK // 200 * 200

    def test_memory_is_the_orders_and_one_block(self):
        # the int64 orders take 8 bytes a cell; the prefilter and _returns
        # hold one block's arrays at a time
        phase_diagram(20, 20, 10)  # allocations made once per process are not per cell
        tracemalloc.start()
        try:
            phase_diagram(500, 500, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 500**2 < 20, f"{peak / 500**2:.1f} bytes per cell"

    def test_nothing_but_the_orders_and_axes_grows_with_the_grid(self):
        # a whole-grid keep flag, 1 byte a cell, would add 0.95 MiB here
        phase_diagram(20, 20, 10)  # allocations made once per process are not per cell
        tracemalloc.start()
        try:
            phase_diagram(1000, 1000, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rest = peak - 8 * 1000**2 - 8 * 2 * 1000  # the int64 orders and the two axes
        assert rest < 2**20, f"{rest / 2**20:.2f} MiB beside the orders"


_U = 2.0**-53


def _nearest_exact(x, n_max):
    # min over 1 <= n <= n_max of ||n x|| for the float x, as an exact
    # Fraction, by brute force over every n
    num, den = Fraction(x).as_integer_ratio()
    return Fraction(min(min(r, den - r) for r in (n * num % den for n in range(1, n_max + 1))), den)


_FRACTIONS = [p / q for q in range(1, 12) for p in range(q + 1)]
_NEAR_RATIONAL = st.builds(
    # one huge partial quotient: p/q off by far less than 1/q^2
    lambda x, e: min(1.0, max(0.0, x + e)),
    st.sampled_from(_FRACTIONS),
    st.sampled_from([0.0, 1e-15, -1e-15, 3e-12, -3e-12, 1e-9, -1e-9, 2.0**-40]),
)
_UNIT_X = st.one_of(
    st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0, 5e-324, 1e-300, 0.6180339887498949]),
    _NEAR_RATIONAL,
)


class TestNearestReturn:
    """stability._nearest_return against brute force in exact rationals."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(xs=st.lists(_UNIT_X, min_size=1, max_size=8), n_max=st.integers(1, 2000))
    def test_matches_fraction_brute_force(self, xs, n_max):
        got = stability._nearest_return(np.array(xs), n_max)
        for x, nearest in zip(xs, got.tolist()):
            gap = abs(Fraction(nearest) - _nearest_exact(x, n_max))
            assert gap <= Fraction(n_max) * Fraction(x) * Fraction(_U), (x, n_max, nearest)

    @pytest.mark.parametrize("n_max", [1, 2, 3, 6, 7, 200, 2000])
    def test_special_values(self, n_max):
        xs = [0.0, 0.5, 1.0, 1 / 3, 2 / 7, 0.25, 1 / 7 + 2.0**-40, 3 / 11 - 1e-9]
        got = stability._nearest_return(np.array(xs).reshape(2, 4), n_max)
        assert got.shape == (2, 4)
        for x, nearest in zip(xs, got.ravel().tolist()):
            gap = abs(Fraction(nearest) - _nearest_exact(x, n_max))
            assert gap <= Fraction(n_max) * Fraction(x) * Fraction(_U)
        # 0 and 1 return at n = 1, and 1/2 at n = 2
        assert got.ravel()[:3].tolist() == [0.0, 0.5 if n_max == 1 else 0.0, 0.0]


_DYADIC = st.builds(lambda p, k: p / 2**k, st.integers(0, 64), st.integers(0, 12)).filter(
    lambda x: x <= 1.0
)


class TestWalk:
    """The continued-fraction walk of _returns against brute force in exact
    rationals: _first and _near on floats x in [0, 1]."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        x=st.one_of(_UNIT_X, _DYADIC),
        share=st.floats(0.0, 0.5),
        side=st.sampled_from([1, -1]),
        n_max=st.integers(1, 1500),
    )
    def test_first_is_the_least_one_sided_approach(self, x, share, side, n_max):
        # an exact 0 counts on both sides
        num, den = x.as_integer_ratio()
        reach = int(Fraction(share) * den)
        want = (g for g in range(1, n_max + 1) if side * g * num % den <= reach)
        assert stability._first(num, den, reach, side, n_max) == next(want, n_max + 1)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        x=st.one_of(_UNIT_X, _DYADIC),
        width=st.one_of(st.floats(0.0, 0.4999), st.sampled_from([0.0, 1e-9, 1 / 4, 0.4999])),
        n_max=st.integers(1, 1500),
    )
    def test_near_is_every_close_n(self, x, width, n_max):
        exact = Fraction(x)
        near = [n for n in range(1, n_max + 1) if abs(n * exact - round(n * exact)) <= width]
        assert list(stability._near(x, width, n_max)) == near


def _plain_scan(theta_grid, phi_grid, n_max, offset):
    # _returns over every cell of phase_diagram's grid as one array, unpruned
    thetas, phis = stability._grid_axes(theta_grid, phi_grid, offset)
    return stability._returns(thetas[:, None], phis[None, :], n_max, 1e-9)


class TestPrefilter:
    """phase_diagram's pruned scan against a scan of every cell."""

    @pytest.mark.parametrize(
        "theta_grid,phi_grid,n_max,offset",
        [
            (200, 200, 200, 0.5),  # the benchmark grid
            (201, 201, 200, 0.0),  # theta = 0 and theta = pi rows
            (100, 100, 10_000, 0.5),
            (3, _BLOCK + 404, 200, 0.0),  # phi rows longer than a block
        ],
    )
    def test_pruned_orders_and_marginal_are_the_full_scan(self, theta_grid, phi_grid, n_max, offset):
        diagram = phase_diagram(theta_grid, phi_grid, n_max, offset=offset)
        orders, marginal = _plain_scan(theta_grid, phi_grid, n_max, offset)
        assert diagram.orders.tobytes() == orders.tobytes()
        assert diagram.marginal == marginal

    def test_benchmark_grid_scans_only_its_marginal_cells(self, monkeypatch):
        scanned = []
        returns = stability._returns

        def counting(theta, phi, n_max, tol):
            scanned.append(np.size(theta))
            return returns(theta, phi, n_max, tol)

        monkeypatch.setattr(stability, "_returns", counting)
        diagram = phase_diagram(200, 200, 200)
        # one call per 20-row block that keeps a cell, the 26 marginal ones
        assert scanned == [18, 4, 2, 2] and len(diagram.marginal) == 26

    def test_cells_at_the_identity_are_kept(self):
        # theta = 0 has s = 0; theta = 0, phi = 0 has sin h = 0 and a NaN amplitude
        keep = stability._may_return(np.zeros(3), np.array([0.0, 1e-9, 0.7]), 200)
        assert keep.all()

    def test_no_cell_is_dropped_past_the_kernels_range(self):
        thetas, phis = stability._grid_axes(40, 40, 0.5)
        assert not stability._may_return(thetas[:, None], phis[None, :], 10**4).all()
        assert stability._may_return(thetas[:, None], phis[None, :], 2**25 + 1).all()


def _brute_force(theta, phi, n_max, tol=1e-9):
    # classify's spec: the first n <= n_max whose magnitude, as
    # off_diagonal_magnitude computes it, is below tol (0 for none), and
    # the n before it whose magnitude is below MARGINAL_BAND
    magnitudes = off_diagonal_magnitude(theta, phi, np.arange(1, n_max + 1))
    hits = np.flatnonzero(magnitudes < tol)
    order = int(hits[0]) + 1 if hits.size else 0
    marks = np.flatnonzero(magnitudes[: order - 1 if order else n_max] < MARGINAL_BAND) + 1
    return order, tuple(marks.tolist())


def _scan_cells(theta, phi, n_max, tol=1e-9):
    # _returns of a stack of drives, and each cell checked against classify
    # and against the brute force over every n
    order, marginal = stability._returns(theta, phi, n_max, tol)
    assert order.shape == np.shape(theta) and order.dtype == np.int64
    assert set(marginal) <= set(range(order.size))
    for cell, (t, p) in enumerate(zip(np.ravel(theta).tolist(), np.ravel(phi).tolist())):
        verdict = classify(t, p, n_max, tol)
        got = (order.flat[cell], marginal.get(cell, ()))
        assert got == (verdict.order or 0, verdict.marginal) == _brute_force(t, p, n_max, tol)
    return order, marginal


# a quarter turn, two near misses of it (guard band) and a generic drive
_NEAR_QUARTER = np.array([HALF_PI, HALF_PI + 2e-7, HALF_PI - 3e-7, 1.0])


class TestScan:
    """stability._returns gives every cell of a stack the verdict classify
    and the brute force over every n give it."""

    @pytest.mark.parametrize("theta", _NEAR_QUARTER.tolist())
    def test_zero_d(self, theta):
        order, marginal = _scan_cells(theta, 0.0, 50)
        assert order.shape == ()

    def test_one_d(self):
        order, marginal = _scan_cells(_NEAR_QUARTER, np.zeros(4), 50)
        assert order.tolist() == [4, 0, 0, 0] and sorted(marginal) == [1, 2]

    def test_two_d(self):
        rng = np.random.default_rng(7)
        theta = np.concatenate([_NEAR_QUARTER, [0.0, math.pi], rng.uniform(0.0, math.pi, 6)])
        phi = np.concatenate([np.zeros(6), rng.uniform(-HALF_PI, HALF_PI, 6)])
        order, marginal = _scan_cells(theta.reshape(3, 4), phi.reshape(3, 4), 300)
        assert order.ravel()[:6].tolist() == [4, 0, 0, 0, 1, 2] and sorted(marginal) == [1, 2]

    def test_stable_curve_points(self):
        # verify's rational-order check scans these 88 points as one stack
        pairs = [(p, q) for q in range(1, 9) for p in range(1, q + 1) if math.gcd(p, q) == 1]
        curves = [stable_curve(p, q, 4) for p, q in pairs]
        theta, phi = np.array([point for curve in curves for point in curve.points]).T
        order, _ = _scan_cells(theta, phi, 34)
        assert order.tolist() == [curve.order for curve in curves for _ in curve.points]
        assert len(order) == 88


# Drives that trip a careless continued-fraction walk.  phi = +/-pi/2
# gives x = h/pi = 1/2 exactly, so the errors n x - p are exactly 0 at
# even n; theta = 0 gives A = 0 and U = +/-I (phi = 0 or pi), every
# magnitude 0; theta = pi/50, phi = 2.2e-16 gives x = 0.009999999999999998,
# whose next partial quotient is about 5e13; theta of 1e-7 or less gives
# an A below MARGINAL_BAND, where every n is marginal until the order.
_TRAPS = [
    (1.0, HALF_PI), (0.3, -HALF_PI), (0.0, 0.0), (0.0, math.pi), (0.0, 0.7), (math.pi, 0.0),
    (math.pi, HALF_PI), (math.pi / 50, 2.2e-16), (math.pi / 50, 0.0), (2e-6, 0.4),
    (1e-7, -1.0), (3e-9, 0.2), (1e-12, 1e-3), (HALF_PI, 0.0), (2.0, math.pi + 0.3),
]
_ANGLE = st.one_of(
    st.floats(0.0, math.pi),
    st.sampled_from([0.0, math.pi, HALF_PI, math.pi / 50, 1e-7, 2e-6, 1e-300, 5e-324]),
)
_PHASE = st.one_of(
    st.floats(-HALF_PI, HALF_PI),
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, HALF_PI, -HALF_PI, math.pi, 2.2e-16, -1e-9, 1e-3]),
)


class TestReturnsKernel:
    """stability._returns against the brute force over every n <= n_max."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        theta=_ANGLE,
        phi=_PHASE,
        n_max=st.integers(1, 3000),
        tol=st.sampled_from([1e-9, 1e-12, 3e-7, 1e-6]),
    )
    def test_matches_brute_force(self, theta, phi, n_max, tol):
        _scan_cells(theta, phi, n_max, tol)

    @pytest.mark.parametrize("theta, phi", _TRAPS)
    @pytest.mark.parametrize("n_max", [1, 2, 7, 10**5])
    def test_traps(self, theta, phi, n_max):
        order, marginal = _scan_cells(np.array([theta]), np.array([phi]), n_max)
        if theta == 0.0:  # A = 0: U itself is diagonal
            assert order[0] == 1
        elif abs(phi) == HALF_PI:  # x = 1/2: U^2 is +/-I to rounding
            assert order[0] == (2 if n_max >= 2 else 0)
        elif half_turn(theta, phi).amplitude < MARGINAL_BAND:  # every n up to the order
            assert marginal.get(0, ()) == tuple(range(1, order[0] or n_max + 1))

    def test_small_amplitudes_are_covered(self):
        # the traps above hold drives with A below tol, between tol and
        # MARGINAL_BAND, and one whose walk runs to an order past n = 1
        small = [float(half_turn(t, p).amplitude) for t, p in _TRAPS if t > 0.0]
        assert min(small) < 1e-9 and any(1e-9 < a < MARGINAL_BAND for a in small)
        assert classify(1e-7, -1.0, 10**5).order == 22

    def test_a_list_that_is_not_one_multiple(self):
        # cell 12 of phase_diagram(100, 100, 10**5): theta = pi/200, phi =
        # -3 pi/8, gaps 8, 30725 and 30733
        thetas, phis = stability._grid_axes(100, 100, 0.5)
        verdict = classify(float(thetas[0]), float(phis[12]), 10**5)
        assert verdict.marginal == (8, 30733, 30741, 61474, 61482, 92215, 92223)
        assert not verdict.stable
        assert phase_diagram(100, 100, 10**5).marginal[12] == verdict.marginal


_LOOPS = st.builds(
    LoopParams,
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(-HALF_PI, HALF_PI),
)


# The h route's error bound against U^n of the float entries of U (Higham,
# Accuracy and Stability of Numerical Algorithms, ch. 2-3), u = 2**-53.
# The built U is N V with V special-unitary exactly (U11 = conj U00 and
# U01 = -conj U10 bit for bit) and |N - 1| <= 2u, so U^n = N^n V^n, and
# V^n = tau_n V - tau_{n-1} I with tau_k = sin(k g)/sin g, g V's half
# turn.  The closed form's folded h (math.hypot, math.atan2, each within an
# ulp, on parts within 1.1u of V's) lies within 5u h of g, which moves
# tau_k by |d tau_k/dh| 5u h <= 10u k h/sin h, as |d tau_k/dh| <= 2k/sin h;
# fl(k h) errs by u k h, which moves sin(k h)/sin h by u k h/sin h; and
# the sines and the division add 6u |t_k| <= 6u k.  After the fold
# h <= pi/2, so h/sin h <= pi/2 and |t_k - tau_k| <= 24u k.  The two terms,
# the last product and sum (2u n) and the norm (|N^n - 1| + n |N - 1| <=
# 5u n) keep every entry within 55u n; the off-diagonal A |sin(n h)| is
# within 16u n by the same steps.
def _h_route_bound(n):
    return 64.0 * _U * (n + 1)


def _exact_power(u, n):
    # U^n of the float entries at 50 digits, by mpmath's repeated squaring
    with mpmath.workdps(50):
        return (mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in u]) ** n).tolist()


def _worst_gap(exact, got):
    return max(float(abs(e - mpmath.mpc(complex(g)))) for e, g in zip(exact, np.ravel(got)))


class TestChebyshevMatchesFibonacciForms:
    """The Chebyshev forms against the Fibonacci-polynomial formulas."""

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(lp=_LOOPS, n=st.integers(0, 400))
    def test_matrix_power_and_off_diagonal(self, lp, n):
        # U^n = N^n i^n (F_n(x) (-i V) + F_{n-1}(x) I), x = -i tr V, with
        # V = U/N and F the Fibonacci polynomials, at 50 digits
        u = build_loop_operator(lp.theta, lp.omega, lp.phi)
        with mpmath.workdps(50):
            m = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in u])
            norm = mpmath.sqrt(abs(m[0, 0]) ** 2 + abs(m[1, 0]) ** 2)
            x, prev, cur = -1j * (m[0, 0] + m[1, 1]) / norm, mpmath.mpc(1), mpmath.mpc(0)
            for _ in range(n):
                prev, cur = cur, x * cur + prev
            v = m / norm
            want = (norm**n * 1j**n * (cur * (-1j * v) + prev * mpmath.eye(2))).tolist()
        got = matrix_power_closed_form(lp.theta, lp.omega, lp.phi, n)
        assert _worst_gap(sum(want, []), got) <= _h_route_bound(n)
        if n >= 1:
            gap = abs(abs(want[0][1]) - off_diagonal_magnitude(lp.theta, lp.phi, n))
            assert gap <= _h_route_bound(n)


# +I, -I (theta = 0, phi = pi), near-corner drives, drives with cos h < 0
# and generic ones, as (theta, omega, phi)
_ORACLE_DRIVES = [
    (0.0, 0.0, 0.0), (0.0, 0.3, math.pi), (1e-8, 0.0, 1e-8), (1e-6, 2.0, -3e-7),
    (1e-4, 0.0, 1e-2), (1e-2, 1.0, 1e-8), (3e-3, 0.0, -2e-3), (1e-8, 0.0, HALF_PI),
    (0.3, 0.0, math.pi - 1e-7), (1.0, 0.5, 0.25), (2.5, 1.0, -1.2), (math.pi, 0.0, 0.0),
]


@pytest.mark.parametrize("theta, omega, phi", _ORACLE_DRIVES)
def test_closed_forms_against_mpmath_powers(theta, omega, phi):
    ns = np.array([0, 1, 2, 3, 17, 1000, 65_537, 10**6])
    got = matrix_power_closed_form(theta, omega, phi, ns)
    off = off_diagonal_magnitude(theta, phi, np.maximum(ns, 1))
    u = build_loop_operator(theta, omega, phi)
    for n, power_n, magnitude in zip(ns.tolist(), got, off.tolist()):
        exact = _exact_power(u, n)
        assert _worst_gap(sum(exact, []), power_n) <= _h_route_bound(n), n
        exact = _exact_power(u, max(n, 1))[0][1]
        assert float(abs(abs(exact) - magnitude)) <= _h_route_bound(n), n
    if theta == phi == 0.0:  # U = I: t_n = n, and U^n = I exactly
        assert np.array_equal(got, np.broadcast_to(np.eye(2), got.shape))


def test_phase_diagram_orders_match_iterated_products():
    # every cell's first n with max |off-diagonal of U^n| < tol, U^n = U @ U^(n-1)
    n_max, tol = 1000, 1e-9
    diagram = phase_diagram(60, 60, n_max, offset=0.0, tol=tol)
    u = np.array(
        [
            build_loop_operator(float(theta), 0.0, float(phi))
            for theta in diagram.theta_values
            for phi in diagram.phi_values
        ]
    )
    m = u.copy()
    want = np.zeros(len(u), dtype=np.int64)
    for n in range(1, n_max + 1):
        off = np.maximum(np.abs(m[:, 0, 1]), np.abs(m[:, 1, 0]))
        want[(want == 0) & (off < tol)] = n
        m = u @ m
    got = np.array([v.order or 0 for row in diagram.verdicts for v in row])
    assert np.count_nonzero(want) == 236
    np.testing.assert_array_equal(got, want)
