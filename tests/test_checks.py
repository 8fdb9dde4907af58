import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

import geopump
import geopump.checks as checks
import geopump.evolution as evolution
from geopump import (
    ChainParams,
    GapClosedError,
    LoopParams,
    axis_angle_from_euler,
    axis_angle_matrices,
    build_loop_operator,
    classify,
    curve_order,
    euler_from_loop,
    euler_matrices,
    make_rng,
    matrix_power_closed_form,
    off_diagonal_magnitude,
    p_geometric,
    phi_average,
    power,
    pump_profile,
    pump_trace,
    sample_loop_params,
    stable_curve,
    su2_defect,
    trajectory_angles,
    winding_number,
)
from geopump.checks import _INTERIOR, _ks_uniform
from geopump.su2 import TWO_PI
from test_evolution import _cmath_loop_operator

# short lists straight from hypothesis: n = 1, exact 0 and 1, ties, any order
_SHORT = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60)


@st.composite
def _long(draw):
    # seeded uniforms up to n = 20000, optionally floored to a grid of
    # `levels` values, which makes ties and exact zeros (levels = 1: all 0)
    n = draw(st.integers(1, 20_000))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n)
    levels = draw(st.sampled_from((None, 1, 2, 7, 1000)))
    return x if levels is None else np.floor(x * levels) / levels


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(sample=st.one_of(_SHORT, _long()))
@example(sample=[0.0])
@example(sample=[1.0])
@example(sample=[0.5, 0.5, 0.5])
@example(sample=[0.0, 0.0, 0.3, 0.0])
@example(sample=[0.9, 0.1, 0.5, 0.1])
def test_ks_uniform_matches_scipy_bitwise(sample):
    x = np.asarray(sample, dtype=float)
    want = float(kstest(x, "uniform").statistic)
    assert _ks_uniform(x).hex() == want.hex()


@pytest.mark.parametrize("n", [1, 2, 3, 10, 999, 20_000])
def test_ks_uniform_of_midpoints_is_half_a_bin(n):
    # x_i = (i - 1/2) / n sits half a bin from both staircase edges; each
    # edge distance rounds i/n and x_i, values up to 1, so it may miss by eps
    x = (np.arange(1, n + 1) - 0.5) / n
    np.random.default_rng(n).shuffle(x)
    assert abs(_ks_uniform(x) - 1.0 / (2 * n)) <= np.finfo(float).eps


def test_verify_imports_no_scipy():
    # a fresh interpreter: the verify path must not pull scipy in
    code = (
        "import contextlib, io, sys\n"
        "import geopump, geopump.cli, geopump.checks\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = geopump.cli.main(['verify', '--seed', '0'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(geopump.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "0 []"



class _ScriptedRng:
    """Hands out the scripted (v, w) pairs first, then a seeded stream."""

    def __init__(self, pairs, seed=0):
        self._pairs = list(pairs)
        self._rng = make_rng(seed)

    def uniform(self, low, high, size):
        if self._pairs:
            return np.array(self._pairs.pop(0))
        return self._rng.uniform(low, high, size=size)


def test_winding_criterion_redraws_an_unresolvable_gap(monkeypatch):
    # the gap 2.5e-6 passes the near-closed filter but is too small to
    # sample; a pair within 1e-6 of |v| = |w| never reaches the sampler
    pair, near = (1.999997, 1.9999995), (-0.75, 0.7500005)
    with pytest.raises(GapClosedError):
        winding_number(ChainParams(*pair))
    chains = []

    def counted(chain):
        chains.append(chain)
        return winding_number(chain)

    monkeypatch.setattr(checks, "winding_number", counted)
    value, bound = checks._check_winding_criterion(_ScriptedRng([near, pair]))
    assert value == 0.0 <= bound
    assert len(chains) == 201 and chains[0] == ChainParams(*pair)


def test_first_diagonal_power_is_none_without_a_return():
    # a stable-curve drive returns at its curve order; a drive off every
    # short curve has no diagonal power among the first 50
    (theta, phi), *_ = stable_curve(1, 2, 4).points
    assert checks._first_diagonal_power(build_loop_operator(theta, 0.0, phi), 10) == 4
    assert checks._first_diagonal_power(build_loop_operator(1.0, 0.0, 0.3), 50) is None


def _no_return(theta, phi, n_max, tol):
    return np.zeros(np.shape(theta), dtype=np.int64), {}


def _shifted_profile(dc, k_grid):
    # one winding flip too many and every rate a quarter too high
    profile = pump_profile(dc, k_grid)
    return replace(profile, p_g_values=profile.p_g_values + 0.25, tpt_count=profile.tpt_count + 1)


@pytest.mark.parametrize(
    "check,route,broken",
    [
        (checks._check_winding_criterion, "winding_number", lambda chain: 0),
        (checks._check_rational_orders, "_returns", _no_return),
        (checks._check_band_profiles, "pump_profile", _shifted_profile),
    ],
    ids=["winding", "rational-orders", "band-profiles"],
)
def test_check_fails_on_a_broken_route(monkeypatch, check, route, broken):
    value, bound = check(make_rng(0))
    assert value == 0.0
    monkeypatch.setattr(checks, route, broken)
    value, bound = check(make_rng(0))
    assert value > bound


def test_norm_probe_fails_on_a_scaled_operator(monkeypatch):
    # a relative fault f in U drifts the norm by about n f: 1e-13 over the
    # probe's 1e5 cycles reads 1e-8, ten times the row's bound
    build = evolution.build_loop_operator
    monkeypatch.setattr(evolution, "build_loop_operator", lambda *a: build(*a) * (1.0 + 1e-13))
    (row,) = [r for r in checks.run_checks(0) if r.name == "norm-preservation"]
    assert not row.passed
    assert row.value == pytest.approx(1e-8, rel=0.05)


def test_each_result_holds_a_bool_and_reads_as_json():
    # value <= bound of numpy floats is a numpy bool, which json.dumps refuses
    results = checks.run_checks(3)
    assert all(type(r.passed) is bool for r in results)
    assert json.loads(json.dumps([asdict(r) for r in results]))[0]["name"] == results[0].name


def test_one_d_consistency_compares_two_routes(monkeypatch):
    # with the closed form forced to "never inverted", the sampled-winding
    # oracle must disagree wherever an offset a -+ 1 lies inside (-1, 1)
    value, bound = checks._check_one_d_consistency(None)
    assert value == 0.0
    monkeypatch.setattr(checks, "theta_of_k", lambda dc, k: 0.0)
    value, bound = checks._check_one_d_consistency(None)
    assert value > bound


# The per-draw forms of the checks that now run on whole draw sets: the
# stacked forms must give each value bit for bit, from the same stream.
# The first four build each loop operator with the one-loop cmath builder.


def _cmath_operator(lp):
    return _cmath_loop_operator(lp.theta, lp.omega, lp.phi)


def _per_draw_special_unitary(rng):
    loops = map(LoopParams, *sample_loop_params(rng, 500))
    return max(su2_defect(_cmath_operator(lp)) for lp in loops), 1e-12


def _per_draw_euler_right_inverse(rng):
    worst = 0.0
    for lp in map(LoopParams, *sample_loop_params(rng, 500)):
        rebuilt = euler_matrices(*euler_from_loop(lp.theta, lp.omega, lp.phi))
        worst = max(worst, float(np.max(np.abs(rebuilt - _cmath_operator(lp)))))
    return worst, 1e-12


def _per_draw_axis_chain(rng):
    worst = 0.0
    for lp in map(LoopParams, *sample_loop_params(rng, 500, **_INTERIOR)):
        chart = axis_angle_from_euler(*euler_from_loop(lp.theta, lp.omega, lp.phi))
        worst = max(worst, float(np.max(np.abs(axis_angle_matrices(*chart) - _cmath_operator(lp)))))
    return worst, 1e-10


def _per_draw_power_semigroup(rng):
    worst = 0.0
    for lp in map(LoopParams, *sample_loop_params(rng, 20)):
        u = _cmath_operator(lp)
        n, m = (int(v) for v in rng.integers(0, 10_001, size=2))
        diff = power(u, n + m) - power(u, n) @ power(u, m)
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst, 1e-10


def _per_draw_characteristic_recurrence(rng):
    eye = np.eye(2)
    worst = 0.0
    for lp in map(LoopParams, *sample_loop_params(rng, 500)):
        u = build_loop_operator(lp.theta, lp.omega, lp.phi)
        residual = u @ u - (u[0, 0] + u[1, 1]) * u + eye
        worst = max(worst, float(np.max(np.abs(residual))))
    return worst, 1e-12


def _per_draw_closed_form_powers(rng):
    worst = 0.0
    for lp in map(LoopParams, *sample_loop_params(rng, 100)):
        u = build_loop_operator(lp.theta, lp.omega, lp.phi)
        for n in rng.integers(0, 101, size=10):
            closed = matrix_power_closed_form(lp.theta, lp.omega, lp.phi, int(n))
            diff = closed - power(u, int(n))
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst, 1e-10


def _per_draw_off_diagonal_closed_form(rng):
    worst = 0.0
    for lp in map(LoopParams, *sample_loop_params(rng, 100)):
        u = build_loop_operator(lp.theta, lp.omega, lp.phi)
        for n in rng.integers(1, 201, size=5):
            direct = abs(power(u, int(n))[0, 1])
            worst = max(worst, abs(direct - off_diagonal_magnitude(lp.theta, lp.phi, int(n))))
    return worst, 1e-10


def _per_draw_phase_average(rng):
    worst = 0.0
    for theta in np.linspace(0.0, math.pi, 25):
        worst = max(worst, abs(phi_average(float(theta), 10_000) - p_geometric(float(theta))))
    return worst, 1e-6


def _per_draw_trace_projection(rng):
    worst = 0.0
    for lp in map(LoopParams, *sample_loop_params(rng, 20)):
        u = build_loop_operator(lp.theta, lp.omega, lp.phi)
        trace = pump_trace(lp, 300)
        for j in (1, 2, 3, 7, 50, 299, 300):
            expected = abs(power(u, j)[1, 0]) ** 2
            worst = max(worst, abs(trace.q[j - 1] - expected))
    return worst, 1e-10


def _per_draw_phase_shift_symmetry(rng):
    worst = 0.0
    for lp in map(LoopParams, *sample_loop_params(rng, 50)):
        dq = pump_trace(lp, 300).q - pump_trace(replace(lp, phi=lp.phi + math.pi), 300).q
        worst = max(worst, float(np.max(np.abs(dq))))
    return worst, 1e-12


def _per_point_rational_orders(rng):
    # classify and the product oracle on each stable-curve point, each to
    # its own bound 2 * order + 2
    mismatches = 0
    for q in range(1, 9):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            expected = curve_order(p, q)
            for theta, phi in stable_curve(p, q, 4).points:
                verdict = classify(theta, phi, 2 * expected + 2)
                u = _cmath_loop_operator(theta, 0.0, phi)
                oracle = checks._first_diagonal_power(u, 2 * expected + 2)
                if not verdict.stable or verdict.order != expected or oracle != expected:
                    mismatches += 1
    return float(mismatches), 0.5


def _per_drive_equidistribution(rng):
    loops = map(LoopParams, *sample_loop_params(rng, 5, **_INTERIOR))
    angles = (trajectory_angles(lp.theta, lp.phi, 20_000) for lp in loops)
    return max(_ks_uniform(a / TWO_PI) for a in angles), 0.01


_PER_DRAW = [
    (checks._check_special_unitary, _per_draw_special_unitary),
    (checks._check_euler_right_inverse, _per_draw_euler_right_inverse),
    (checks._check_axis_chain, _per_draw_axis_chain),
    (checks._check_power_semigroup, _per_draw_power_semigroup),
    (checks._check_characteristic_recurrence, _per_draw_characteristic_recurrence),
    (checks._check_closed_form_powers, _per_draw_closed_form_powers),
    (checks._check_off_diagonal_closed_form, _per_draw_off_diagonal_closed_form),
    (checks._check_trace_projection, _per_draw_trace_projection),
    (checks._check_phase_shift_symmetry, _per_draw_phase_shift_symmetry),
    (checks._check_rational_orders, _per_point_rational_orders),
    (checks._check_equidistribution, _per_drive_equidistribution),
]


def _hexes(check, seed):
    rng = make_rng(seed)
    value, bound = check(rng)
    # the stream is left where the per-draw form leaves it too
    return float(value).hex(), float(bound).hex(), rng.integers(0, 2**62)


@pytest.mark.parametrize("stacked, per_draw", _PER_DRAW, ids=lambda f: f.__name__)
def test_stacked_checks_are_the_per_draw_values_bit_for_bit(stacked, per_draw):
    for seed in range(50):
        assert _hexes(stacked, seed) == _hexes(per_draw, seed), seed


def test_verify_builds_loop_records_only_for_the_norm_probe(monkeypatch):
    # the trace checks read stacked angles; only the norm probe's five drives
    # go through LoopParams, on their way to propagate_state
    built = []
    post_init = LoopParams.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(LoopParams, "__post_init__", counted)
    checks.run_checks(3)
    assert len(built) == 5


def test_phase_average_check_is_the_per_theta_value_bit_for_bit():
    # the phase average draws nothing, so one seed stands for all
    assert _hexes(checks._check_phase_average, 0) == _hexes(_per_draw_phase_average, 0)
