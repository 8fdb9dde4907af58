import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geopump import (
    EmptyCurveError,
    LoopParams,
    build_loop_operator,
    classify,
    curve_order,
    fibonacci_poly,
    half_turn,
    matrix_power_closed_form,
    off_diagonal_magnitude,
    phase_diagram,
    power,
    stable_curve,
)
from geopump import stability

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


class TestFibonacciPoly:
    def test_base_cases(self):
        assert fibonacci_poly(0, 0.7j) == 0.0
        assert fibonacci_poly(1, 0.7j) == 1.0

    def test_low_orders(self):
        x = -1.3j
        assert fibonacci_poly(2, x) == pytest.approx(x)
        assert fibonacci_poly(3, x) == pytest.approx(x * x + 1.0)
        assert fibonacci_poly(4, x) == pytest.approx(x**3 + 2.0 * x)

    def test_recurrence(self):
        x = complex(RNG.uniform(-1, 1), RNG.uniform(-1, 1))
        for n in range(30):
            lhs = fibonacci_poly(n + 2, x)
            rhs = x * fibonacci_poly(n + 1, x) + fibonacci_poly(n, x)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            fibonacci_poly(-1, 0.0)

    def test_roots_on_imaginary_axis(self):
        # zeros at 2i*cos(k*pi/n) make the n-th power diagonal
        for n in (5, 8, 13):
            for k in range(1, n):
                root = 2j * math.cos(k * math.pi / n)
                assert abs(fibonacci_poly(n, root)) < 1e-12


class TestClosedFormPowers:
    def test_matches_matrix_power(self):
        for _ in range(50):
            lp = _random_loop(RNG)
            u = build_loop_operator(lp.theta, lp.omega, lp.phi)
            n = int(RNG.integers(0, 200))
            np.testing.assert_allclose(
                matrix_power_closed_form(lp, n), power(u, n), atol=1e-11
            )

    def test_first_power_is_operator(self):
        lp = _random_loop(RNG)
        u = build_loop_operator(lp.theta, lp.omega, lp.phi)
        np.testing.assert_allclose(matrix_power_closed_form(lp, 1), u, atol=1e-15)


class TestOffDiagonal:
    def test_matches_matrix_entry(self):
        for _ in range(50):
            lp = _random_loop(RNG)
            n = int(RNG.integers(1, 300))
            direct = abs(power(build_loop_operator(lp.theta, lp.omega, lp.phi), n)[0, 1])
            assert off_diagonal_magnitude(lp, n) == pytest.approx(direct, abs=1e-11)

    def test_quarter_bias_vanishes_at_two(self):
        assert off_diagonal_magnitude(LoopParams(HALF_PI, 0.0, HALF_PI), 2) < 1e-12

    def test_quarter_turn_cubed(self):
        got = off_diagonal_magnitude(LoopParams(HALF_PI), 3)
        assert got == pytest.approx(math.sin(math.pi / 4), abs=1e-15)

    def test_azimuth_has_no_effect(self):
        lp = _random_loop(RNG)
        n = 37
        for omega in (0.0, 1.0, 5.0):
            shifted = LoopParams(lp.theta, omega, lp.phi)
            assert off_diagonal_magnitude(shifted, n) == off_diagonal_magnitude(lp, n)
            u = build_loop_operator(shifted.theta, shifted.omega, shifted.phi)
            direct = abs(power(u, n)[0, 1])
            assert off_diagonal_magnitude(shifted, n) == pytest.approx(direct, abs=1e-11)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            off_diagonal_magnitude(LoopParams(1.0), 0)


# unsorted, repeated, both base cases and past one 4096-step block
_EXPONENTS = np.array([7, 0, 4097, 1, 1, 5000, 0, 300, 7, 4096])


class TestArrayExponents:
    """An int array n is one call, each entry the float its own call gives."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matrix_power_is_the_per_n_calls(self, seed):
        lp = _random_loop(np.random.default_rng(seed))
        got = matrix_power_closed_form(lp, _EXPONENTS)
        assert got.shape == (len(_EXPONENTS), 2, 2)
        assert np.array_equal(got, [matrix_power_closed_form(lp, int(n)) for n in _EXPONENTS])
        grid = matrix_power_closed_form(lp, _EXPONENTS.reshape(2, 5))
        assert np.array_equal(grid.reshape(-1, 2, 2), got)

    @pytest.mark.parametrize("seed", range(5))
    def test_off_diagonal_is_the_per_n_calls(self, seed):
        lp = _random_loop(np.random.default_rng(seed))
        ns = _EXPONENTS + 1
        got = off_diagonal_magnitude(lp, ns)
        assert np.array_equal(got, [off_diagonal_magnitude(lp, int(n)) for n in ns])
        assert np.array_equal(off_diagonal_magnitude(lp, ns.reshape(5, 2)).ravel(), got)

    def test_scalar_n_keeps_its_types(self):
        lp = LoopParams(1.0, 0.5, 0.25)
        assert matrix_power_closed_form(lp, np.int64(3)).shape == (2, 2)
        assert type(off_diagonal_magnitude(lp, 3)) is float

    def test_empty_array(self):
        lp = LoopParams(1.0)
        assert matrix_power_closed_form(lp, np.array([], dtype=int)).shape == (0, 2, 2)
        assert off_diagonal_magnitude(lp, np.array([], dtype=int)).shape == (0,)

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
            closed_form(LoopParams(1.0), np.array(ns))

    @pytest.mark.parametrize("closed_form", [matrix_power_closed_form, off_diagonal_magnitude])
    @pytest.mark.parametrize("ns", [2.5, 3.0, np.array([1.0, 2.0]), np.array([1, 2]) + 0.5])
    def test_rejects_non_integer_exponents(self, closed_form, ns):
        with pytest.raises(ValueError, match="n must be an int64 integer"):
            closed_form(LoopParams(1.0), ns)


class TestClassify:
    def test_quarter_turn_order_four(self):
        verdict = classify(LoopParams(HALF_PI), 10)
        assert verdict.stable and verdict.order == 4

    def test_quarter_bias_order_two(self):
        verdict = classify(LoopParams(math.pi / 3, 0.0, HALF_PI), 10)
        assert verdict.stable and verdict.order == 2

    def test_closed_loop_order_one(self):
        assert classify(LoopParams(0.0), 5).order == 1

    def test_half_turn_order_two(self):
        assert classify(LoopParams(math.pi), 5).order == 2

    def test_generic_drive_never_returns(self):
        verdict = classify(LoopParams(HALF_PI, 0.0, 0.3), 1000)
        assert not verdict.stable
        assert verdict.order is None

    def test_marginal_band_is_not_stable(self):
        # delta just off a quarter turn: the best off-diagonal lands in
        # the guard band and must be flagged rather than accepted
        verdict = classify(LoopParams(HALF_PI + 2e-7), 10)
        assert not verdict.stable
        assert 4 in verdict.marginal

    def test_verdict_matches_matrix_oracle(self):
        for _ in range(20):
            lp = _random_loop(RNG)
            n_max = 60
            verdict = classify(lp, n_max)
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
            classify(LoopParams(1.0), 0)
        with pytest.raises(ValueError):
            classify(LoopParams(1.0), 10, tol=1e-3)
        with pytest.raises(ValueError, match="n_max must be an integer, got 2.5"):
            classify(LoopParams(1.0), 2.5)


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
        with pytest.raises(ValueError, match="p and q must be positive"):
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
                verdict = classify(LoopParams(theta, 0.0, phi), 2 * curve.order + 2)
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
        with pytest.raises(ValueError, match="p and q must be positive"):
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

    def test_scan_arguments_are_checked_before_the_axes(self):
        # the theta axis alone would take 15 MiB before n_max = 0 is read
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"n_max must lie in \[1, sys.maxsize\], got 0"):
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
                expected = classify(LoopParams(float(theta), 0.0, float(phi)), n_max)
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

    def test_small_blocks_change_no_verdict(self, monkeypatch):
        # 60 x 60 = 3600 cells fit one scan block; three theta rows per block
        # put the 8 marginal cells (rows 4, 9, 29 and 42) into four blocks
        whole = phase_diagram(60, 60, 1000, offset=0.0)
        monkeypatch.setattr(stability, "_SCAN_CELLS", 3 * 60)
        blocked = phase_diagram(60, 60, 1000, offset=0.0)
        np.testing.assert_array_equal(blocked.orders, whole.orders)
        assert blocked.marginal == whole.marginal
        assert np.count_nonzero(blocked.orders) == 236 and len(blocked.marginal) == 8
        for row, theta in zip(blocked.verdicts, blocked.theta_values):
            for verdict, phi in zip(row, blocked.phi_values):
                assert verdict == classify(LoopParams(float(theta), 0.0, float(phi)), 1000)

    def test_rows_longer_than_a_block(self, monkeypatch):
        whole = phase_diagram(30, 47, 600, offset=0.0)
        monkeypatch.setattr(stability, "_SCAN_CELLS", 7)  # one theta row per block
        blocked = phase_diagram(30, 47, 600, offset=0.0)
        np.testing.assert_array_equal(blocked.orders, whole.orders)
        assert np.count_nonzero(blocked.orders) == 178
        assert blocked.marginal == whole.marginal and sorted(blocked.marginal) == [55, 85]

    def test_benchmark_grid_marginal_is_pinned(self):
        # 26 cells with 52 hits; 200 phi columns make 81-row scan blocks, so
        # the last two cells, 30698 and 30701, lie in the second block
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
        assert min(30698, 30701) >= stability._SCAN_CELLS // 200 * 200

    def test_memory_is_the_orders_and_one_block(self):
        # the int64 orders take 8 bytes a cell; the recurrence's arrays are
        # one block's, where a whole-grid scan took about 66 bytes a cell
        phase_diagram(20, 20, 10)  # allocations made once per process are not per cell
        tracemalloc.start()
        try:
            phase_diagram(500, 500, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 500**2 < 20, f"{peak / 500**2:.1f} bytes per cell"


def _fibonacci_pair(n, x):
    # (F_n, F_{n-1}) by the direct recurrence F_{k+1} = x F_k + F_{k-1}, F_{-1} = 1
    prev, cur = 1.0 + 0.0j, 0.0j
    for _ in range(n):
        prev, cur = cur, x * cur + prev
    return cur, prev


def _signs(z):
    return math.copysign(1.0, z.real), math.copysign(1.0, z.imag)


_PART = st.floats(-3.0, 3.0)
_LOOPS = st.builds(
    LoopParams,
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(-HALF_PI, HALF_PI),
)


class TestChebyshevMatchesFibonacciForms:
    """The Chebyshev forms against the Fibonacci-polynomial formulas, bit for bit."""

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(x=st.builds(complex, _PART, _PART), n=st.integers(0, 400))
    def test_fibonacci_poly(self, x, n):
        want, _ = _fibonacci_pair(n, x)
        assume(math.isfinite(want.real) and math.isfinite(want.imag))
        got = fibonacci_poly(n, x)
        assert got == want
        assert _signs(got) == _signs(want)

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(lp=_LOOPS, n=st.integers(0, 400))
    def test_matrix_power_and_off_diagonal(self, lp, n):
        f_n, f_prev = _fibonacci_pair(n, -1j * _trace(lp))
        u = build_loop_operator(lp.theta, lp.omega, lp.phi)
        phase = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)[n % 4]  # i**n
        want = phase * (f_n * (-1j * u) + f_prev * np.eye(2))
        got = matrix_power_closed_form(lp, n)
        # == on both parts of every entry, which fixes the sign of each nonzero
        # part; an exactly zero part (e.g. off the diagonal at n = 0) may be
        # +0 on one side and -0 on the other
        assert np.array_equal(got, want)
        if n >= 1:
            assert off_diagonal_magnitude(lp, n) == abs(f_n) * math.sin(0.5 * lp.theta)


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
