"""Cycle-by-cycle evolution under a fixed driving loop.

One cycle acts as a single special-unitary matrix; n cycles are its n-th
power.  This module builds that operator from loop coordinates, records
inter-band pump statistics from the ground state over many cycles, each
weight A^2 sin^2(nh) read from the loop's half turn, reduces the 1D
field-reversal problem to its closed-form zero crossings, and exposes the
per-cycle jump angles of the Bloch-sphere trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .su2 import _BLOCK, TWO_PI, LoopParams, _require_axis, _stack, half_turn
from .su2 import require_angles, require_int


def build_loop_operator(theta, omega, phi) -> np.ndarray:
    """Special-unitary one-cycle operators of loops (theta, omega, phi):
    floats or equal-shape arrays, checked as LoopParams checks one loop,
    stacked as (..., 2, 2).  Entries c e^{-i phi}, -s e^{-i(omega - phi)},
    s e^{i(omega - phi)}, c e^{i phi} (c, s of theta/2), bit for bit as
    math and cmath compute them."""
    require_angles(theta, omega=omega, phi=phi)
    c, s, d = np.cos(0.5 * theta), np.sin(0.5 * theta), omega - phi
    return _stack(
        c * np.exp(-1j * phi), -s * np.exp(-1j * d), s * np.exp(1j * d), c * np.exp(1j * phi)
    )


@dataclass(frozen=True)
class PumpTrace:
    """Per-cycle pump record from the ground state: q[j-1] = A^2 sin^2(jh)
    is the excited-state weight after j cycles and p[j-1] the running
    (Cesaro) mean of q over the first j."""

    q: np.ndarray
    p: np.ndarray


def pump_trace_blocks(theta, phi, cycles: int):
    """Excited-state weights q_j of the drives (theta, phi) from the ground
    state and their running means, block by block.

    theta and phi are floats or equal-shape arrays, checked as LoopParams
    checks them, and cycles too, on the call, before the first block.
    Returns an iterator of (cycle, q, p) triples, at most _BLOCK cycles
    each, that together cover cycles 1..`cycles`: cycle holds the block's
    int64 cycle numbers, and q and p have the drives' shape + (len(cycle),),
    each drive's rows its one-drive blocks bit for bit.  pump_trace joins them.

    Closed form, with no matrix products.  With the half turn angle h of
    the loop operator U (cos h = cos(theta/2) cos(phi)),
    U^n = [sin(nh) U - sin((n-1)h) I] / sin h, so from the ground state
    q_n = (A sin(nh))^2 with the amplitude A = |U_10| / sin h = s / sin h
    that also gives p_infinity = A^2 / 2.  At sin h = 0 the operator is
    +/-I, A = 0 and q = 0.  The rounding of n*h grows like n * eps: about
    1e-10 in q at 1e6 cycles.

    Each drive's prefix sum enters each block by being added to its first
    weight before the block's cumsum, which adds left to right, so p is bit
    for bit np.cumsum(q) / n of the whole trace, however it is blocked.
    """
    require_int("cycles", cycles, 1)
    require_angles(theta, phi=phi)
    ht = half_turn(theta, phi)
    amplitude, h = np.asarray(ht.amplitude)[..., None], np.asarray(ht.h)[..., None]

    def blocks():
        total = 0.0
        for start in range(0, cycles, _BLOCK):
            n = np.arange(start + 1, min(start + _BLOCK, cycles) + 1, dtype=np.int64)
            # no clip: sin_h = math.hypot(s, c_sin) is faithful on Python >= 3.10,
            # so sin_h >= s, A <= 1 after a correctly rounded division, and q <= 1
            q = np.sin(h * n)
            q *= amplitude
            np.square(q, out=q)
            p = q.copy()
            p[..., 0] += total
            np.cumsum(p, axis=-1, out=p)
            total = p[..., -1].copy()  # a view would be divided by n below
            p /= n
            yield n, q, p

    return blocks()


def pump_trace(lp: LoopParams, cycles: int) -> PumpTrace:
    """Excited-state weights q_j and their running means over `cycles`
    cycles: the blocks of pump_trace_blocks joined."""
    _, q, p = map(np.concatenate, zip(*pump_trace_blocks(lp.theta, lp.phi, cycles)))
    return PumpTrace(q=q, p=p)


def _rotate(a, v, out):
    # U v into out for U = [[a0, -conj a1], [a1, conj a0]], with a and v the
    # real parts (Re a0, Im a0, Re a1, Im a1) of U's first column and of v
    ar, ai, br, bi = a
    xr, xi, yr, yi = v
    out[0] = (ar * xr - ai * xi) - (br * yr + bi * yi)
    out[1] = (ar * xi + ai * xr) - (br * yi - bi * yr)
    out[2] = (br * xr - bi * xi) + (ar * yr + ai * yi)
    out[3] = (br * xi + bi * xr) + (ar * yi - ai * yr)
    return out


def propagate_state(lp: LoopParams, cycles: int):
    """Apply the loop operator `cycles` times to the ground state (1, 0),
    with no rescaling.

    Returns (final_state, max_norm_error) where max_norm_error is the
    largest deviation of the state norm from 1 seen along the way.  This
    is the raw measure-preservation probe: an iterated product, blocked,
    and never renormalized.  U = [[a, -conj b], [b, conj a]] bit for bit,
    so powers are kept as first columns: U^j, j = 1.._BLOCK, by doubling
    (U^(m+j) = U^j U^m), then each block's states U^j s from its first
    state s in one numpy step of float64 products and sums.  A step errs
    by at most 2 gamma_3 (3 eps), so U^n e_0 and the drift stay within
    about 3 n eps, as one cycle at a time; a relative fault f in U drifts n f.
    """
    require_int("cycles", cycles, 1)
    u = build_loop_operator(lp.theta, lp.omega, lp.phi)
    size = min(cycles, _BLOCK)
    powers = np.empty((4, size))  # U^(j+1) e_0 as real parts, in column j
    powers[:, 0] = u[0, 0].real, u[0, 0].imag, u[1, 0].real, u[1, 0].imag
    m = 1
    while m < size:
        k = min(m, size - m)
        _rotate(powers[:, :k], powers[:, m - 1].tolist(), powers[:, m : m + k])
        m += k
    state, worst = [1.0, 0.0, 0.0, 0.0], 0.0
    for start in range(0, cycles, size):
        n = min(size, cycles - start)
        z = _rotate(powers[:, :n], state, np.empty((4, n)))
        state = z[:, -1].tolist()
        r0, i0, r1, i1 = np.square(z, out=z)
        worst = max(worst, float(np.abs(np.sqrt(((r0 + i0) + r1) + i1) - 1.0).max()))
    return np.array(state).view(complex), worst


@dataclass(frozen=True)
class PumpEvent1D:
    """A zero of the drive within one cycle, located by its phase fraction."""

    time_fraction: float
    transversal: bool


def cosine_cycle_zeros(offset: float) -> tuple[PumpEvent1D, ...]:
    """Zeros of offset + cos(2*pi*x) for x in [0, 1); ValueError unless offset is finite.

    Two transversal crossings for |offset| < 1, a single tangential touch
    at |offset| = 1, nothing otherwise.  Fractions come back ascending.
    """
    if not math.isfinite(offset):
        raise ValueError(f"offset must be finite, got {offset!r}")
    if abs(offset) > 1.0:
        return ()
    x = math.acos(-offset) / TWO_PI  # 0.5 exactly at offset 1, 0.0 at -1
    if abs(offset) == 1.0:
        return (PumpEvent1D(x, transversal=False),)
    return (
        PumpEvent1D(x, transversal=True),
        PumpEvent1D(1.0 - x, transversal=True),
    )


def trajectory_angles(theta, phi, n: int) -> np.ndarray:
    """Accumulated rotation angles (j * delta) mod 2*pi for j = 1..n of the
    drives (theta, phi), floats or equal-shape arrays: their shape + (n,).

    delta = 2h is the per-cycle turn angle of the loop operator about its
    fixed axis, read from its half turn.  Raises IdentityRotationError when
    an operator is +/-identity and has no axis.
    """
    require_int("n", n, 1)
    require_angles(theta, phi=phi)
    ht = _require_axis(half_turn(theta, phi))
    angles = np.multiply.outer(2.0 * ht.h, np.arange(1, n + 1))
    return np.remainder(angles, TWO_PI, out=angles)
