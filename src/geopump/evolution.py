"""Cycle-by-cycle evolution under a fixed driving loop.

One cycle acts as a single special-unitary matrix; n cycles are its n-th
power.  This module builds that operator from loop coordinates, records
inter-band pump statistics over many cycles, reduces the 1D
field-reversal problem to its closed-form zero crossings, and exposes the
per-cycle jump angles of the Bloch-sphere trajectory.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .su2 import (
    TWO_PI,
    LoopParams,
    axis_angle_from_euler,
    euler_from_loop,
    ground_state,
    half_turn,
)


class ZeroFieldError(ValueError):
    """The field magnitude vanished, so the two-valued index is undefined."""


def build_loop_operator(lp: LoopParams) -> np.ndarray:
    """Special-unitary one-cycle operator of the loop (theta, omega, phi)."""
    c = math.cos(0.5 * lp.theta)
    s = math.sin(0.5 * lp.theta)
    return np.array(
        [
            [c * cmath.exp(-1j * lp.phi), -s * cmath.exp(-1j * (lp.omega - lp.phi))],
            [s * cmath.exp(1j * (lp.omega - lp.phi)), c * cmath.exp(1j * lp.phi)],
        ]
    )


@dataclass(frozen=True)
class PumpTrace:
    """Per-cycle pump record: q[j-1] is the excited-state weight after j
    cycles and p[j-1] the running (Cesaro) mean of q over the first j."""

    q: np.ndarray
    p: np.ndarray


def _checked_initial(initial) -> tuple[complex, complex]:
    if initial is None:
        initial = ground_state()
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (2,):
        raise ValueError(f"initial state must have shape (2,), got {initial.shape}")
    norm = abs(initial[0]) ** 2 + abs(initial[1]) ** 2
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"initial state must be normalized, |state|^2 = {norm}")
    return complex(initial[0]), complex(initial[1])


def pump_trace_blocks(lp: LoopParams, cycles: int, block_rows: int, initial=None):
    """Excited-state weights q_j and their running means, block by block.

    Returns an iterator of (q, p) array pairs, at most `block_rows` cycles
    each, that together cover cycles 1..`cycles`; pump_trace is the same
    trace as one block.  The arguments are checked on the call, before
    the first block.

    Closed form, with no matrix products.  With the half turn angle h of
    the loop operator U (cos h = cos(theta/2) cos(phi)),
    U^n = [sin(nh) U - sin((n-1)h) I] / sin h
        = cos(nh) I + sin(nh) (U - cos(h) I) / sin h,
    so the lower amplitude after n cycles is s1 cos(nh) + w sin(nh) with
    w = (U_10 s0 + i cos(theta/2) sin(phi) s1) / sin h, every term
    bounded by 1.  From the ground state q_n = (|U_10| / sin h)^2
    sin^2(nh).  At sin h = 0 the operator is +/-I and q stays |s1|^2.
    The rounding of n*h grows like n * eps: about 1e-10 in q at 1e6 cycles.

    The prefix sum enters each block by being added to its first weight
    before the block's cumsum, which adds left to right, so p is bit for
    bit np.cumsum(q) / n of the whole trace, however it is blocked.
    """
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    s0, s1 = _checked_initial(initial)
    _, c_sin, c_cos, sin_h = half_turn(lp.theta, lp.phi)
    if sin_h != 0.0:
        w = (complex(build_loop_operator(lp)[1, 0]) * s0 + 1j * c_sin * s1) / sin_h
        h = math.atan2(sin_h, c_cos)

    def weights(n: np.ndarray) -> np.ndarray:
        if sin_h == 0.0:
            q = np.full(len(n), abs(s1) ** 2)
        elif s1 == 0.0:
            q = np.sin(h * n)
            q *= abs(w)
            np.square(q, out=q)
        else:
            angle = h * n
            amp = s1 * np.cos(angle) + w * np.sin(angle)
            q = amp.real**2 + amp.imag**2
        # |U_10| / sin h may round to 1 + ulp, e.g. at phi = 0
        np.clip(q, 0.0, 1.0, out=q)
        return q

    def blocks():
        total = 0.0
        for start in range(0, cycles, block_rows):
            n = np.arange(start + 1, min(start + block_rows, cycles) + 1, dtype=float)
            q = weights(n)
            p = q.copy()
            p[0] += total
            np.cumsum(p, out=p)
            total = p[-1]
            p /= n
            yield q, p

    return blocks()


def pump_trace(lp: LoopParams, cycles: int, initial=None) -> PumpTrace:
    """Excited-state weights q_j and their running means over `cycles`
    cycles, as one block of pump_trace_blocks."""
    ((q, p),) = pump_trace_blocks(lp, cycles, cycles, initial)
    return PumpTrace(q=q, p=p)


def propagate_state(lp: LoopParams, cycles: int, initial=None):
    """Apply the loop operator `cycles` times to a state, with no rescaling.

    Returns (final_state, max_norm_error) where max_norm_error is the
    largest deviation of the state norm from 1 seen along the way.  This
    is the raw measure-preservation probe: nothing is renormalized.
    """
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    s0, s1 = _checked_initial(initial)
    u = build_loop_operator(lp)
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


def z2_index(field_sign: int, spin_sign: int) -> int:
    """Two-valued alignment index: 0 when the field and spin z-signs agree,
    1 when they oppose.

    Raises ZeroFieldError for a vanishing field sign (gap closed, index
    undefined).
    """
    if field_sign == 0:
        raise ZeroFieldError("field sign is zero; the index is undefined")
    if field_sign not in (-1, 1) or spin_sign not in (-1, 1):
        raise ValueError("signs must be -1 or +1")
    return 0 if field_sign * spin_sign > 0 else 1


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


def trajectory_angles(lp: LoopParams, n: int) -> np.ndarray:
    """Accumulated rotation angles (j * delta) mod 2*pi for j = 1..n.

    delta is the per-cycle turn angle of the loop operator about its fixed
    axis.  Raises IdentityRotationError when the operator has no axis.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    aa = axis_angle_from_euler(euler_from_loop(lp))
    return (aa.delta * np.arange(1, n + 1)) % TWO_PI
