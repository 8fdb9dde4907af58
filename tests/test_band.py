import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geopump import (
    DriveCycle,
    GapClosedError,
    min_gap,
    pump_profile,
    pump_profile_blocks,
    theta_of_k,
    tpt_events,
    winding_number,
)
from geopump.checks import _sampled_inversions
from geopump.cli import main

RNG = np.random.default_rng(31337)


def _field(k, v, w, l=1.0):
    # the in-plane Bloch field (d_x, d_y) at momentum k
    return v + w * math.cos(k * l), w * math.sin(k * l)


def _random_gapped(rng, floor=1e-3):
    while True:
        v, w = rng.uniform(-2.0, 2.0, size=2)
        if abs(abs(v) - abs(w)) > floor and abs(w) > floor:
            return float(v), float(w)


class TestChainParams:
    # the hoppings v and w, plain floats checked by each function that reads them
    def test_validation(self):
        for route in (winding_number, min_gap):
            with pytest.raises(ValueError, match=r"^v must be finite, got inf$"):
                route(math.inf, 1.0)
            with pytest.raises(ValueError, match=r"^w must be finite, got nan$"):
                route(0.5, math.nan)

    @pytest.mark.parametrize("l", [1e-320, 5e-324, math.nan, math.inf])
    def test_lattice_constant_needs_a_finite_zone(self, l):
        with pytest.raises(ValueError, match=r"\bl\b"):
            DriveCycle(a=1.0, l=l)

    def test_bloch_vector_special_points(self):
        # same-sign hoppings: the field's circle passes nearest the origin at k = pi
        v, w = 0.7, 1.3
        assert _field(0.0, v, w) == pytest.approx((2.0, 0.0))
        dx, dy = _field(math.pi, v, w)
        assert dx == pytest.approx(0.7 - 1.3)
        assert dy == pytest.approx(0.0, abs=1e-15)
        assert min_gap(v, w) == pytest.approx(math.hypot(dx, dy))

    def test_bloch_vector_formula(self):
        # opposite-sign hoppings with l = 2: nearest the origin at k = 0
        v, w = 0.4, -0.9
        ks = np.linspace(-math.pi / 2.0, math.pi / 2.0, 1001)
        gaps = [math.hypot(*_field(float(k), v, w, l=2.0)) for k in ks]
        assert math.hypot(*_field(0.0, v, w, l=2.0)) == pytest.approx(min_gap(v, w))
        assert min(gaps) == pytest.approx(min_gap(v, w))
        assert winding_number(v, w) == 1


class TestMinGap:
    @pytest.mark.parametrize(
        "v,w,expected", [(1.0, 2.0, 1.0), (2.0, 1.0, 1.0), (1.5, 1.5, 0.0), (-0.5, 2.0, 1.5)]
    )
    def test_values(self, v, w, expected):
        assert min_gap(v, w) == pytest.approx(expected)

    def test_is_a_lower_bound_on_sampled_gaps(self):
        v, w = _random_gapped(RNG)
        ks = np.linspace(-math.pi, math.pi, 501)
        gaps = [math.hypot(*_field(float(k), v, w)) for k in ks]
        assert min(gaps) >= min_gap(v, w) - 1e-12


class TestWinding:
    def test_topological_side(self):
        assert winding_number(0.5, 1.0) == 1
        assert winding_number(-0.5, -1.0) == 1

    def test_trivial_side(self):
        assert winding_number(1.5, 1.0) == 0
        assert winding_number(-1.5, 1.0) == 0

    def test_matches_modulus_criterion(self):
        for _ in range(200):
            v, w = _random_gapped(RNG)
            expected = 1 if abs(v) < abs(w) else 0
            assert winding_number(v, w) == expected

    def test_closed_gap_rejected(self):
        with pytest.raises(GapClosedError):
            winding_number(1.0, 1.0)

    def test_unresolvably_small_gap_rejected(self):
        with pytest.raises(GapClosedError):
            winding_number(1.0, 1.0 + 1e-9)

    def test_small_but_resolvable_gap(self):
        assert winding_number(1.0, 1.01) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^winding needs w != 0$"):
            winding_number(1.0, 0.0)


class TestDriveCycle:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriveCycle(a=0.0, w=0.0)
        with pytest.raises(TypeError):  # w and l are keyword-only
            DriveCycle(1.0, 2.0)

    def test_v_at(self):
        dc = DriveCycle(a=0.5)
        assert dc.v_at(0.0) == pytest.approx(1.5)
        assert dc.v_at(0.5) == pytest.approx(-0.5)


class TestTptEvents:
    def test_band_inverting_drive(self):
        events = tpt_events(DriveCycle(a=1.0))
        assert len(events) == 2
        for event in events:
            assert event.k_star == pytest.approx(math.pi)
            assert event.transversal
        assert [e.time_fraction for e in events] == [0.25, 0.75]

    def test_gapped_drive_is_silent(self):
        assert tpt_events(DriveCycle(a=3.0)) == ()

    def test_centered_drive_touches_tangentially(self):
        events = tpt_events(DriveCycle(a=0.0))
        assert len(events) == 2
        assert not any(e.transversal for e in events)
        k_stars = sorted(e.k_star for e in events)
        assert k_stars[0] == pytest.approx(0.0)
        assert k_stars[1] == pytest.approx(math.pi)

    def test_negative_offset_closes_at_zone_center(self):
        events = tpt_events(DriveCycle(a=-1.0))
        transversal = [e for e in events if e.transversal]
        assert len(transversal) == 2
        assert all(e.k_star == pytest.approx(0.0) for e in transversal)

    def test_event_times_solve_gap_closing(self):
        dc = DriveCycle(a=0.4)
        for event in tpt_events(dc):
            v = dc.v_at(event.time_fraction)
            sign = -1.0 if event.k_star > 1.0 else 1.0
            assert v + sign * dc.w == pytest.approx(0.0, abs=1e-12)

    def test_zero_locations_solve_the_cosine(self):
        # w = 1 puts the k = 0 offset a + 1 past 1, so only k = pi/l closes
        for a in RNG.uniform(0.001, 1.999, size=20):
            dc = DriveCycle(a=float(a))
            offset = dc.a - dc.w
            events = tpt_events(dc)
            assert len(events) == 2 and all(e.transversal for e in events)
            for event in events:
                assert offset + math.cos(2.0 * math.pi * event.time_fraction) == pytest.approx(
                    0.0, abs=1e-12
                )

    def test_transversal_count_against_sign_changes(self):
        # brute-force oracle: count sign flips of the gap coordinate over
        # a dense sampling of the cycle at each closing momentum
        for a in np.linspace(-2.5, 2.5, 11):
            dc = DriveCycle(a=float(a))
            vs = a + np.cos(2.0 * np.pi * np.arange(4096) / 4096)
            for k_star, sign in ((math.pi, -1.0), (0.0, 1.0)):
                coord = vs + sign * dc.w
                # drop exact zeros so a sample landing on the crossing
                # still registers a single sign change
                signs = np.sign(coord)
                signs = signs[signs != 0]
                flips = int(np.sum(np.diff(signs) != 0))
                got = sum(
                    1
                    for e in tpt_events(dc)
                    if e.transversal and abs(e.k_star - k_star) < 1e-9
                )
                assert got == flips


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(allow_nan=False, allow_infinity=False),
    w=st.floats(allow_nan=False, allow_infinity=False).filter(lambda w: w != 0.0),
    l=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
@example(a=1e308, w=-1e308, l=1.0)  # a - w overflows to inf: no closing at k = pi
def test_events_count_and_angles_read_one_rule(a, w, l):
    assume(math.isfinite(2.0 * math.pi / l))
    dc = DriveCycle(a, w=w, l=l)
    events = tpt_events(dc)
    transversal = [e for e in events if e.transversal]
    assert len(transversal) == dc.tpt_count
    for event in transversal:
        assert theta_of_k(dc, event.k_star) == math.pi
    for event in events:
        offset = dc.a + dc.w if event.k_star == 0.0 else dc.a - dc.w
        if math.isfinite(offset):
            assert abs(offset + math.cos(2.0 * math.pi * event.time_fraction)) <= 1e-12


class TestThetaOfK:
    def test_band_inversion_gives_half_turn(self):
        dc = DriveCycle(a=1.0)
        assert theta_of_k(dc, math.pi) == math.pi
        assert theta_of_k(dc, -math.pi) == math.pi
        assert theta_of_k(dc, 0.0) == 0.0
        assert theta_of_k(dc, 0.37) == 0.0

    def test_tangential_touch_stays_closed(self):
        dc = DriveCycle(a=0.0)
        assert theta_of_k(dc, math.pi) == 0.0
        assert theta_of_k(dc, 0.0) == 0.0

    def test_scaled_lattice(self):
        dc = DriveCycle(a=1.0, l=2.0)
        assert theta_of_k(dc, math.pi / 2.0) == math.pi

    @pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan, 1e308])
    def test_non_finite_phase_stays_quiet(self, k):
        # k = 1e308 overflows k*l to inf; pytest turns any warning into an error
        dc = DriveCycle(a=0.1, w=0.2, l=2.0)  # both closing momenta inverted
        assert theta_of_k(dc, k) == 0.0
        ks = np.array([k, math.pi / 2.0, k, 0.0])
        assert theta_of_k(dc, ks).tolist() == [0.0, math.pi, 0.0, math.pi]


class TestPumpProfile:
    def test_band_inverting_profile(self):
        profile = pump_profile(DriveCycle(a=1.0), 128)
        assert profile.tpt_count == 2
        at_edge = np.isclose(np.abs(profile.k_values), math.pi)
        assert np.all(profile.p_g_values[at_edge] == 0.5)
        assert np.all(profile.p_g_values[~at_edge] == 0.0)
        assert set(np.unique(profile.theta_values)) <= {0.0, math.pi}

    def test_gapped_profile_is_flat(self):
        profile = pump_profile(DriveCycle(a=3.0), 64)
        assert profile.tpt_count == 0
        assert np.all(profile.p_g_values == 0.0)
        assert np.all(profile.theta_values == 0.0)

    def test_tangential_profile_is_flat(self):
        profile = pump_profile(DriveCycle(a=0.0), 64)
        assert profile.tpt_count == 0
        assert np.all(profile.p_g_values == 0.0)

    def test_zone_center_inversion(self):
        profile = pump_profile(DriveCycle(a=-1.0), 64)
        assert profile.tpt_count == 2
        at_center = np.isclose(profile.k_values, 0.0)
        assert np.all(profile.p_g_values[at_center] == 0.5)
        assert np.all(profile.p_g_values[~at_center] == 0.0)

    def test_grid_spans_zone(self):
        profile = pump_profile(DriveCycle(a=1.0, l=2.0), 32)
        assert profile.k_values[0] == pytest.approx(-math.pi / 2.0)
        assert profile.k_values[-1] < math.pi / 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pump_profile(DriveCycle(a=1.0), 8)
        # would give 33 momenta ending at 3.045, unevenly spaced
        with pytest.raises(ValueError, match="k_grid must be an integer, got 32.5"):
            pump_profile(DriveCycle(a=1.0), 32.5)

    @pytest.mark.parametrize(
        "k_grid,block", [(16, 1), (16, 64), (127, 16), (128, 16), (129, 16), (10_001, 4096)]
    )
    def test_blocks_concatenate_to_the_whole_profile(self, small_blocks, k_grid, block):
        # k = 0 is on every even grid, where the zone-center inversion pumps
        dc = DriveCycle(a=-1.0, l=2.0)
        small_blocks(k_grid)
        (whole,) = pump_profile_blocks(dc, k_grid)
        small_blocks(block)
        blocks = list(pump_profile_blocks(dc, k_grid))
        sizes = [min(block, k_grid - start) for start in range(0, k_grid, block)]
        assert [len(k) for k, _, _ in blocks] == sizes
        profile = pump_profile(dc, k_grid)
        joined = (profile.k_values, profile.theta_values, profile.p_g_values)
        for got in (tuple(map(np.concatenate, zip(*blocks))), joined):
            assert [c.tobytes() for c in got] == [c.tobytes() for c in whole]

    def test_matches_theta_of_k_on_the_grid(self):
        for a in np.linspace(-3.0, 3.0, 25):
            for l in (1.0, 2.0):
                dc = DriveCycle(a=float(a), l=l)
                profile = pump_profile(dc, 64)
                for k, theta in zip(profile.k_values, profile.theta_values):
                    assert theta_of_k(dc, float(k)) == theta
                ks = np.concatenate([profile.k_values, profile.k_values + 2.0 * math.pi / l])
                scalar = [theta_of_k(dc, k) for k in ks.tolist()]
                assert theta_of_k(dc, ks).tolist() == scalar


class TestClosedFormInversion:
    # in each drive one offset, a - w or a + w, lies within 2e-8 of -1, where
    # the sampled winding cannot resolve the gap between its two closings
    @pytest.mark.parametrize(
        "a,w,pumped_k",
        [("-1.2999999999999998", "0.3", 0.0), ("1e-8", "0.99999999", -math.pi)],
    )
    def test_near_tangential_offsets_scan(self, tmp_path, a, w, pumped_k):
        out = tmp_path / "scan.json"
        argv = ["band-scan", "--a", a, "--w", w, "--k-grid", "64", "--format", "json"]
        assert main(argv + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["k", "theta", "p_g"]
        assert doc["metadata"]["tpt_count"] == 2
        k, theta, _ = np.array(doc["rows"]).T
        assert k[theta == math.pi].tolist() == [pumped_k]
        assert np.all(theta[theta != math.pi] == 0.0)

    def test_tiny_lattice_constant_is_config_error(self, capsys):
        assert main(["band-scan", "--a", "1.0", "--l", "1e-320"]) == 1
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert "lattice constant l" in captured.err
        assert captured.out == ""


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    a=st.floats(-3.5, 3.5),
    w=st.floats(-2.5, 2.5).filter(lambda w: w != 0.0),
    l=st.sampled_from((1.0, 0.3, 2.0, 3.7)),
)
@example(a=0.4, w=-1.3, l=2.0)
@example(a=0.1, w=0.2, l=1.0)  # both momenta inverted
def test_closed_form_matches_sampled_winding(a, w, l):
    dc = DriveCycle(a=a, w=w, l=l)
    try:
        flips = _sampled_inversions(dc)
    except GapClosedError:
        assume(False)  # the sampled route has no answer here
    profile = pump_profile(dc, 16)
    assert profile.tpt_count == len(flips)
    for k_star in (math.pi / l, 0.0):
        assert (theta_of_k(dc, k_star) == math.pi) == (k_star in flips)
