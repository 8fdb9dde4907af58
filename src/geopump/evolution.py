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

from .su2 import _BLOCK, TWO_PI, LoopParams, _cis, _require_axis, _stack, half_turn
from .su2 import require_angles, require_int


def build_loop_operator(theta, omega, phi) -> np.ndarray:
    """Special-unitary one-cycle operators of loops (theta, omega, phi):
    floats or equal-shape arrays, checked as LoopParams checks one loop,
    stacked as (..., 2, 2).  Entries c e^{-i phi}, -s e^{-i(omega - phi)},
    s e^{i(omega - phi)}, c e^{i phi} (c, s of theta/2), bit for bit as
    math and cmath compute them."""
    require_angles(theta, omega=omega, phi=phi)
    c, s, d = np.cos(0.5 * theta), np.sin(0.5 * theta), omega - phi
    return _stack(c * _cis(phi, -1), -s * _cis(d, -1), s * _cis(d), c * _cis(phi))


@dataclass(frozen=True)
class PumpTrace:
    """Per-cycle pump record from the ground state: q[j-1] = A^2 sin^2(jh)
    is the excited-state weight after j cycles and p[j-1] the running
    (Cesaro) mean of q over the first j."""

    q: np.ndarray
    p: np.ndarray


def pump_trace_blocks(lp: LoopParams, cycles: int):
    """Excited-state weights q_j from the ground state and their running
    means, block by block.

    Returns an iterator of (q, p) array pairs, at most _BLOCK cycles each,
    that together cover cycles 1..`cycles`; pump_trace joins them.  The
    arguments are checked on the call, before the first block.

    Closed form, with no matrix products.  With the half turn angle h of
    the loop operator U (cos h = cos(theta/2) cos(phi)),
    U^n = [sin(nh) U - sin((n-1)h) I] / sin h, so from the ground state
    q_n = (A sin(nh))^2 with the amplitude A = |U_10| / sin h = s / sin h
    that also gives p_infinity = A^2 / 2.  At sin h = 0 the operator is
    +/-I, A = 0 and q = 0.  The rounding of n*h grows like n * eps: about
    1e-10 in q at 1e6 cycles.

    The prefix sum enters each block by being added to its first weight
    before the block's cumsum, which adds left to right, so p is bit for
    bit np.cumsum(q) / n of the whole trace, however it is blocked.
    """
    if require_int("cycles", cycles) < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    ht = half_turn(lp.theta, lp.phi)
    amplitude, h = ht.amplitude, ht.h

    def blocks():
        total = 0.0
        for start in range(0, cycles, _BLOCK):
            n = np.arange(start + 1, min(start + _BLOCK, cycles) + 1, dtype=float)
            # no clip: sin_h is math.hypot of the legs (su2._hypot on arrays
            # is the same bits), faithful on Python >= 3.10, so sin_h >= s,
            # A <= 1 after a correctly rounded division, and q <= 1
            q = np.sin(h * n)
            q *= amplitude
            np.square(q, out=q)
            p = q.copy()
            p[0] += total
            np.cumsum(p, out=p)
            total = p[-1]
            p /= n
            yield q, p

    return blocks()


def pump_trace(lp: LoopParams, cycles: int) -> PumpTrace:
    """Excited-state weights q_j and their running means over `cycles`
    cycles: the blocks of pump_trace_blocks joined."""
    q, p = map(np.concatenate, zip(*pump_trace_blocks(lp, cycles)))
    return PumpTrace(q=q, p=p)


def propagate_state(lp: LoopParams, cycles: int):
    """Apply the loop operator `cycles` times to the ground state (1, 0),
    with no rescaling.

    Returns (final_state, max_norm_error) where max_norm_error is the
    largest deviation of the state norm from 1 seen along the way.  This
    is the raw measure-preservation probe: nothing is renormalized.  The
    update is the raw Python complex iteration; the norm deviation is
    evaluated per block of cycles in numpy in the same order, so the
    state and the drift are bit-identical to a one-cycle-at-a-time loop.
    """
    if require_int("cycles", cycles) < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    u = build_loop_operator(lp.theta, lp.omega, lp.phi)
    ua, ub = complex(u[0, 0]), complex(u[0, 1])
    uc, ud = complex(u[1, 0]), complex(u[1, 1])

    def orbit(s0, s1, n):
        for _ in range(n):
            s0, s1 = ua * s0 + ub * s1, uc * s0 + ud * s1
            yield s0
            yield s1

    state = np.array([1.0 + 0.0j, 0.0j])
    worst = 0.0
    for start in range(0, cycles, _BLOCK):
        n = min(_BLOCK, cycles - start)
        z = np.fromiter(orbit(*state.tolist(), n), complex, 2 * n)
        state = z[-2:].copy()
        r0, i0, r1, i1 = np.square(z.view(float).reshape(n, 4).T)
        worst = max(worst, float(np.abs(np.sqrt(((r0 + i0) + r1) + i1) - 1.0).max()))
    return state, worst


@dataclass(frozen=True)
class PumpEvent1D:
    """A zero of the drive within one cycle, located by its phase fraction."""

    time_fraction: float
    transversal: bool


def cosine_cycle_zeros(offset: float) -> tuple[PumpEvent1D, ...]:
    """Zeros of offset + cos(2*pi*x) for x in [0, 1).

    Two transversal crossings for |offset| < 1, a single tangential touch
    at |offset| = 1, nothing otherwise.  Fractions come back ascending.
    """
    if abs(offset) > 1.0:
        return ()
    if offset == 1.0:
        return (PumpEvent1D(0.5, transversal=False),)
    if offset == -1.0:
        return (PumpEvent1D(0.0, transversal=False),)
    x = math.acos(-offset) / TWO_PI
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
    if require_int("n", n) < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    require_angles(theta, phi=phi)
    ht = _require_axis(half_turn(theta, phi))
    angles = np.multiply.outer(2.0 * ht.h, np.arange(1, n + 1))
    return np.remainder(angles, TWO_PI, out=angles)
