"""Seeded, platform-stable random sampling for sweeps and self-checks.

All randomized paths draw from a counter-based Philox generator keyed by
the run seed, so identical configs reproduce identical streams on any
machine and under any worker count.
"""

from __future__ import annotations

import math

import numpy as np

from .su2 import require_angles


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one run."""
    return np.random.Generator(np.random.Philox(seed))


def sample_loop_params(
    rng: np.random.Generator,
    count: int,
    theta_range: tuple[float, float] = (0.0, math.pi),
    phi_range: tuple[float, float] = (-0.5 * math.pi, 0.5 * math.pi),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw (theta, omega, phi) arrays uniformly: theta and phi from the
    given ranges, omega from [0, 2*pi).

    The angles are checked once per array, as LoopParams checks one loop.
    """
    thetas = rng.uniform(*theta_range, size=count)
    omegas = rng.uniform(0.0, 2.0 * math.pi, size=count)
    phis = rng.uniform(*phi_range, size=count)
    require_angles(thetas, omega=omegas, phi=phis)
    return thetas, omegas, phis
