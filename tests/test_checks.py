import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

import geopump
from geopump.checks import _ks_uniform

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

