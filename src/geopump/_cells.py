"""Cell spelling in numpy: the bytes of '%.17g' % x, repr(x) and '%d' % n.

A column block becomes a (W, N) uint8 array of character planes, one row
per character slot, one column per cell and zero for an empty slot.  Both
float spellings start from X = |x| 10^(16 - E), E = floor(log10|x|), a
double-double product exact to about 1e-14 (T. J. Dekker, Numer. Math.
18, 1971); E is estimated from the bits and redone by one where X leaves
[10^16, 10^17).  '%.17g' writes the 17 digits D = round_half_even(X).  repr
writes the shortest digits that read back as x (D. M. Gay, 1990): a
multiple of 10^m reads back as x when it lies in x's rounding interval,
half a spacing of x on each side in X's units (a quarter below a power of
two; closed when x's significand is even), and repr takes the nearer such
multiple at the largest m that has one.  That interval is at most 22.2
wide, so it holds at most one multiple of 100, which is then repr's digits
with trailing zeros: only m = 1 and m = 2 are tried (U. Adams, PLDI 2018,
decides the same rule without bignums).  Each 17-digit integer is held as
two doubles, so every digit comes from exact double arithmetic and few
numpy loops beyond the pump kernels' are touched, besides the integer and
bit operations that read a double's exponent.  Python's % or repr
(json.dumps for NaN and +/-inf) spells what the kernel cannot decide: an X
within 1e-6 of the tie that picks its digits (exact ties among them), a
distance within 1e-6 of an interval edge, zeros, NaN, +/-inf, |x| outside
[1e-270, 1e270], where a partial product could leave the normal range, and
ints outside (-2**53, 2**53).
"""

from __future__ import annotations

import json
import math
from functools import cache

import numpy as np

_K = range(-256, 289)  # 16 - E for every E the fast path meets
_TINY, _HUGE = np.array([1e-270, 1e270]).view(np.int64).tolist()
_SIGN = -(2**63)  # the bits of -x are those of x plus this
_LOG10_2 = math.log10(2.0)
_MINUS, _PLUS, _POINT, _E = map(np.uint8, b"-+.e")
_FRAC = 2**52 - 1  # a double's significand bits
_EXP = 0x7FF << 52  # a double's exponent bits
_SPLIT = float(2**27 + 1)  # Veltkamp's splitter for 53-bit significands
_EDGE = 1e-6  # a decision this near a tie or an interval edge goes to Python


def _split(a):
    # Veltkamp's halves of a double: a = hi + lo exactly, each half short
    # enough that a product of two is exact (Dekker, Numer. Math. 18, 1971)
    hi = a * _SPLIT
    hi -= hi - a
    return hi, a - hi


@cache
def _tables():
    """(texts, ends, tens): the 4-digit texts of 0..9999 as uint32; in row
    q - 1, the digits up to the last nonzero one of a 17-digit number that
    this quad ends as its q-th (digits 4q - 2 to 4q + 1); in row k - _K.start,
    hi, hi's Dekker halves and lo of 10^k = hi + lo, from Python ints, whose
    true division is correctly rounded."""
    pairs = [b"%02d" % n for n in range(100)]
    texts = b"".join(b"".join(a + b for b in pairs) for a in pairs)
    pair_zeros = [2] + [n % 10 == 0 for n in range(1, 100)]
    zeros = bytes(  # trailing zeros of each 4-digit text, 4 for 0000
        pair_zeros[b] + (b == 0) * pair_zeros[a] for a in range(100) for b in range(100)
    )
    tails = [bytes(max(0, 1 + 4 * q - z) for z in range(256)) for q in range(1, 5)]
    ends = np.frombuffer(b"".join(map(zeros.translate, tails)), np.uint8).reshape(4, -1)
    tens = []
    for k in _K:
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den
        hn, hd = hi.as_integer_ratio()
        tens.append((hi, *_split(hi), (num * hd - hn * den) / (den * hd)))
    return np.frombuffer(texts, "<u4"), ends, np.array(tens)


def _quads(hi, lo) -> list:
    """hi 10^8 + lo, for integer-valued doubles hi < 10^9 and 0 <= lo <
    10^8, as five int64 quads below 10^4, the first holding one digit.
    Each floor is exact: an integer below 2^53 over 10^4 or 10^8 rounds to
    no integer it is not."""
    top = np.floor(hi / 1e8)
    mid = hi - top * 1e8
    q1, q3 = np.floor(mid / 1e4), np.floor(lo / 1e4)
    return [q.astype(np.int64) for q in (top, q1, mid - q1 * 1e4, q3, lo - q3 * 1e4)]


def _put_digits(planes: np.ndarray, rows, quads: list) -> None:
    """Write the last len(rows) digits that quads hold into planes[rows]."""
    skip, texts = 4 * len(quads) - len(rows), _tables()[0]
    for c, quad in enumerate(quads):
        chars = texts[quad].view(np.uint8)
        for i in range(max(0, skip - 4 * c), 4):
            planes[rows[4 * c + i - skip]] = chars[i::4]


def _finish(planes: np.ndarray, spell, values: np.ndarray, fast) -> np.ndarray:
    """planes, widened as needed, with spell(value) in each cell not fast."""
    slow = np.flatnonzero(~fast)
    if not len(slow):
        return planes
    texts = [spell(v).encode() for v in values[slow].tolist()]
    width = max(len(planes), *map(len, texts))
    if width > len(planes):
        planes = np.concatenate([planes, np.zeros((width - len(planes), len(values)), np.uint8)])
    chars = b"".join(t.ljust(width, b"\0") for t in texts)
    planes[:, slow] = np.frombuffer(chars, np.uint8).reshape(len(slow), width).T
    return planes


def int_planes(v: np.ndarray) -> np.ndarray:
    """Planes of '%d' % n for an int64 column block."""
    fast = (v > -(2**53)) & (v < 2**53)
    f = np.abs(np.where(fast, v, 0).astype(np.float64))
    m, sign = len(str(int(f.max()))), int((v < 0).any())
    planes = np.zeros((sign + m, len(v)), np.uint8)
    if sign:
        np.multiply(v < 0, _MINUS, out=planes[0])
    hi = np.floor(f / 1e8)
    _put_digits(planes, range(sign, sign + m), _quads(hi, f - hi * 1e8))
    for i in range(1, m):  # a leading zero is an empty slot
        planes[sign + m - 1 - i] *= f >= 10.0**i
    return _finish(planes, "%d".__mod__, v, fast)


def _significand(a, e):
    """(p, w, f): p + w + f = a 10^(16 - e) within about 1e-14, with p the
    rounded product, w an integer and 0 <= f < 1."""
    # whole rows of the table, gathered in about half the time of its columns
    hi, hh, hl, lo = np.take(_tables()[2], (16 - _K.start - e).astype(np.int64), axis=0).T
    p = a * hi
    ah, al = _split(a)
    # p plus all but the last term is a hi exactly (Dekker); a lo adds the rest of 10^k
    t = ah * hh - p + ah * hl + al * hh + al * hl + a * lo
    w = np.floor(t)
    return p, w, t - w


def _below(x: np.ndarray) -> np.ndarray:
    return x.view(np.int64) < 0  # x < 0, read from the sign bit


def _hilo(p, w):
    """p + w as (hi, lo), hi 10^8 + lo exactly with 0 <= lo < 10^8, for p
    an integer past 2^53 and w a small integer."""
    hi = np.floor(p / 1e8)
    lo = (p - hi * 1e8) + w
    shift = np.where(_below(lo), -1.0, np.where(_below(lo - 1e8), 0.0, 1.0))
    return hi + shift, lo - shift * 1e8


def _scaled(x: np.ndarray):
    """(fast, a, e, p, w, f): for each fast cell a = |x|, e = E and
    p + w + f = X, with p the rounded product, w an integer and 0 <= f < 1;
    a = 1 elsewhere."""
    bits = x.view(np.int64)
    fast = (bits >= _TINY) & (bits <= _HUGE)
    fast |= (bits >= _TINY + _SIGN) & (bits <= _HUGE + _SIGN)  # the same, negative
    a = np.where(fast, np.abs(x), 1.0)
    # bits / 2^52 - 1023 is log2(a) to within 0.09, so E is this or one off
    e = np.floor((a.view(np.int64) * 2.0**-52 - 1022.957) * _LOG10_2)
    p, w, f = _significand(a, e)
    # p is an integer past 2^53, and near 10^16 and 10^17 the differences
    # are exact (Sterbenz)
    high = ~_below((p - 1e17) + w)
    redo = np.flatnonzero(_below((p - 1e16) + w) | high)
    if len(redo):
        e[redo] += np.where(high[redo], 1.0, -1.0)
        p[redo], w[redo], f[redo] = _significand(a[redo], e[redo])
    return fast, a, e, p, w, f


def _layout(x: np.ndarray, e, hi, lo, shortest: bool) -> np.ndarray:
    """Planes of the 17-digit integer hi 10^8 + lo as the digits of a float
    of exponent e, trailing zeros dropped: in the layout of '%.17g' or, if
    shortest, of repr, which turns scientific at 10^16 and ends an integral
    value in ".0" ("1e-05", "1.5e+16", "100.0")."""
    carry = np.flatnonzero(hi == 1e9)  # the digits round up to 10^17
    hi[carry], e[carry] = 1e8, e[carry] + 1.0
    quads, ends = _quads(hi, lo), _tables()[1]
    last = np.uint8(1)  # digits up to the last nonzero one
    for q in range(1, 5):
        last = np.where(quads[q] != 0, ends[q - 1][quads[q]], last)
    ei = e.astype(np.int64)
    sci = (ei < -4) | (ei > 16 - shortest)
    whole = np.where(sci, 1.0, np.maximum(e + 1.0, 0.0)).astype(np.uint8)  # digits before a point
    keep = np.maximum(whole, last)
    point = np.where(last > whole, whole, np.uint8(0))  # 0: no point after a digit
    if shortest:
        dot = ~sci & (ei >= 0) & (last <= whole)
        keep, point = np.where(dot, whole + 1, keep), np.where(dot, whole, point)

    # the slots this block uses: sign, "0." and up to three zeros, digits
    # with the points after them, "e", the exponent's sign and digits
    bits = x.view(np.int64)
    sign = int((bits < 0).any())
    lead = -int(np.maximum(ei, -4).min())  # cells below 1 in fixed notation have -4 <= E < 0
    lead = lead + 1 if lead > 0 else 0
    first = int(np.where(point > 0, point, np.uint8(17)).min())
    at = [j for j in range(first, int(point.max()) + 1) if (point == j).any()]
    exp = 0 if not sci.any() else 4 + int(np.abs(e).max() >= 100)
    rows = [sign + lead + j + sum(q <= j for q in at) for j in range(17)]
    planes = np.zeros((rows[-1] + 1 + exp, len(x)), np.uint8)
    # each slot below is written whole, a char times a mask, or cleared by
    # a mask: a masked copy costs about five times as much
    if sign:
        np.multiply(bits < 0, _MINUS, out=planes[0])
    for z, char in enumerate(b"0.000"[:lead]):
        np.multiply((ei <= -max(z, 1)) & (ei >= -4), np.uint8(char), out=planes[sign + z])
    for j in at:
        np.multiply(point == j, _POINT, out=planes[rows[j - 1] + 1])
    _put_digits(planes, rows, quads)
    for j in range(int(keep.min()), 17):  # a trailing zero of the fraction is empty
        planes[rows[j]] *= keep > j
    if exp:
        tail, mag = rows[-1] + 1, np.abs(e).astype(np.int64)
        np.multiply(sci, _E, out=planes[tail])
        np.multiply(sci, np.where(ei < 0, _MINUS, _PLUS), out=planes[tail + 1])
        _put_digits(planes, range(tail + 2, len(planes)), [mag])
        planes[tail + 2 :] *= sci
        if exp == 5:  # a two-digit exponent leaves the hundreds empty
            planes[tail + 2] *= mag >= 100
    return planes


def float_planes(x: np.ndarray) -> np.ndarray:
    """Planes of '%.17g' % x for a float64 column block."""
    fast, _, e, p, w, f = _scaled(x)
    half = ((f - 0.5) * 1e6).astype(np.int64)  # 0 within 1e-6 of a tie
    fast &= half != 0
    hi, lo = _hilo(p, np.where(half > 0, w + 1.0, w))  # D = hi 10^8 + lo, exactly
    return _finish(_layout(x, e, hi, lo, False), "%.17g".__mod__, x, fast)


def repr_planes(x: np.ndarray) -> np.ndarray:
    """Planes of repr(x) for a float64 column block, and of json.dumps(x)
    for NaN and +/-inf."""
    fast, a, e, p, w, f = _scaled(x)
    bits = a.view(np.int64)
    spacing = ((bits & _EXP) - (52 << 52)).view(np.float64)  # x's own, a power of two
    ten = np.take(_tables()[2][:, 0], (16 - _K.start - e).astype(np.int64))
    above = 0.5 * spacing * ten  # the rounding interval's half widths in X's units
    below = np.where(bits & _FRAC, above, 0.5 * above)
    tie = ((f - 0.5) * 1e6).astype(np.int64) == 0  # decides D at m = 0 only
    nl = _hilo(p, w)[1]  # floor(X) mod 10^8
    step = np.where(f > 0.5, 1.0, 0.0)  # m = 0: D = floor(X) + step
    for unit in 10.0, 100.0:  # m = 1, then m = 2, which overrides
        r = nl - np.floor(nl / unit) * unit  # floor(X) mod 10^m
        down, up = r + f, (unit - r) - f  # X's distances to the multiples next to it
        low, high = down < below, up < above
        fast &= np.minimum(np.abs(down - below), np.abs(up - above)) >= _EDGE
        fast &= ~(low & high & (np.abs(down - up) < _EDGE))
        high &= ~(low & (down < up))  # the nearer of two inside
        step = np.where(low | high, high * unit - r, step)
        tie &= ~(low | high)
    fast &= ~tie
    hi, lo = _hilo(p, w + step)
    return _finish(_layout(x, e, hi, lo, True), json.dumps, x, fast)
