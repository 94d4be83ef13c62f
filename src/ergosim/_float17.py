"""The CSV text of float64 tables, every value as ``"%.17g" % x``, from numpy.

``format_rows(block, newline)`` returns, encoded, what
``"".join(",".join("%.17g" % x for x in row) + newline for row in block)``
returns, without one Python conversion per value.

Digits.  With e = floor(log10|x|) and k = 16 - e, the 17 significant digits
are D = round-half-even(|x|·10^k).  10^k is held as a double-double hi + lo,
built exactly from integers, and |x|·hi is split into a double and its exact
error by Dekker's product without FMA (Dekker 1971, Numer. Math. 18), so
|x|·10^k is known to within 2^-46 while it is below 10^17.  Where lo is 0
(0 ≤ k ≤ 22) the product is exact and a tie goes to the even neighbour, as it
does in CPython's dtoa.  Elsewhere a fraction within 2^-36 of one half is not
certified.  |x| < 2^-900 is first scaled by 2^1000, exactly, against a table
of 10^k·2^-1000.  An uncertified value, inf, nan and |x| ≥ 2^996 (where the
split could overflow) are printed by Python's ``%`` (``_fallback``), one value
at a time.

Text.  Each value becomes a record of eight little-endian 8-byte words taken
from lookup tables and padded with NUL bytes: the sign with a "0.000" prefix;
six chunks of three digits, each digit followed by a slot for the decimal
point; and the exponent with the separator.  Deleting the NULs leaves the text.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

_SPLITTER = 2.0**27 + 1  # Veltkamp's split of a double into two 26-bit halves
_HUGE = 2.0**996  # |x|·_SPLITTER stays finite below this
_TINY = 2.0**-900
_TINY_SCALE = 2.0**1000
_UNCERTAIN = 2.0**-36  # a fraction this close to 1/2 is left to _fallback
# 10^k for the k that |x| in [_TINY, _HUGE) and in (0, _TINY) can need, with
# one step of slack for floor(log10) being one off.
_K_NORMAL = range(-290, 295)
_K_TINY = range(280, 345)
_NO_POINT = 17  # a point position after no printed digit
_EXPONENTS = range(-324, 309)


def _fallback(values: np.ndarray) -> list[str]:
    """The text of values the kernel does not certify, by Python's own ``%``."""
    return ["%.17g" % v for v in values.tolist()]


def _double_double(num: int, den: int) -> tuple[float, float]:
    """hi + lo = num/den to twice double precision; int arithmetic only
    (Python's int/int division rounds correctly)."""
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


def _words(texts: list[str]) -> np.ndarray:
    """One little-endian word per text of at most 8 bytes, NUL-padded."""
    return np.frombuffer(b"".join(t.encode().ljust(8, b"\0") for t in texts), "<u8")


@functools.cache
def _tables() -> SimpleNamespace:
    """The lookup tables, built once per process on first use."""
    powers = [_double_double(10**k, 1) if k >= 0 else _double_double(1, 10**-k)
              for k in _K_NORMAL]
    powers += [_double_double(10**k, 2**1000) for k in _K_TINY]
    hi, lo = np.array(powers).T.copy()
    c = _SPLITTER * hi
    hi_head = c - (c - hi)

    # chunk c of a value holds digits 3c, 3c+1, 3c+2; its word depends on how
    # many of them are printed (0-3) and which one a point follows (0-2, or 3
    # for none): 16 states of 1000 words each.
    v = np.arange(1000)
    digits = (np.stack([v // 100, v // 10 % 10, v % 10], axis=1) + ord("0")).astype(np.uint8)
    chunk = np.zeros((16, 1000, 8), np.uint8)
    for printed in range(4):
        for point in range(4):
            words = chunk[printed * 4 + point]
            words[:, 0 : 2 * printed : 2] = digits[:, :printed]
            if point < 3:
                words[:, 2 * point + 1] = ord(".")
    # offset[c, last * 18 + point]: the state of chunk c, times 1000, when
    # digits 0…last are printed and the point follows digit `point`.
    last, point = np.divmod(np.arange(17 * 18), 18)
    offset = np.empty((6, 17 * 18), np.int32)
    for c in range(6):
        printed = np.clip(last - 3 * c + 1, 0, 3)
        slot = np.where((point >= 3 * c) & (point < 3 * c + 3) & (point != _NO_POINT),
                        point - 3 * c, 3)
        offset[c] = (printed * 4 + slot) * 1000
    # last_nonzero[c, v]: index of the last nonzero digit of chunk c, or -1
    nonzero = digits != ord("0")
    last_in_chunk = np.where(nonzero.any(axis=1), 2 - np.argmax(nonzero[:, ::-1], axis=1), -1)
    last_nonzero = np.array([np.where(v > 0, 3 * c + last_in_chunk, -1) for c in range(6)],
                            np.int32)

    tables = SimpleNamespace(
        hi=hi, hi_head=hi_head, hi_tail=hi - hi_head, lo=lo,
        chunk=chunk.reshape(-1, 8).view("<u8").ravel(),
        offset=offset,
        last_nonzero=last_nonzero,
        # sign * 5 + (0, or -X for a fixed-point X in -4…-1)
        prefix=_words([sign + lead for sign in ("", "-")
                       for lead in ("", "0.", "0.0", "0.00", "0.000")]),
    )
    for value in vars(tables).values():
        value.flags.writeable = False
    return tables


def _scaled_floor(a: np.ndarray, j: np.ndarray, t: SimpleNamespace):
    """floor(y) and y - floor(y), y = a·(hi + lo)[j], and whether lo is 0."""
    hi, lo = t.hi[j], t.lo[j]
    p = a * hi
    c = _SPLITTER * a
    a_head = c - (c - a)
    a_tail = a - a_head
    head, tail = t.hi_head[j], t.hi_tail[j]
    err = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail
    rest = err + a * lo
    whole = np.floor(rest)
    return p.astype(np.int64) + whole.astype(np.int64), rest - whole, lo == 0


def _misscaled(whole: np.ndarray, frac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where e = floor(log10|x|) was one too high, and where one too low, from
    y = whole + frac = |x|·10^(16-e), which belongs in [10^16, 10^17).

    Decided before rounding: at e = -304, 1e-304 gives y = 10^16 - 0.29,
    which would round to 10^16, while its 17 digits at e = -305 are
    99999999999999997.  A y from 10^16 - 0.05 up, though, rounds to 10^16 at
    either exponent, so it may keep e; the cut at a fraction of 0.96 leaves
    room for the error of y.
    """
    return whole + (frac > 0.96) < 10**16, whole >= 10**17


def _thousands(n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three 3-digit chunks of integers below 10^9, most significant first."""
    high, mid = n // 10**6, n // 1000
    return high, mid - high * 1000, n - mid * 1000


@functools.cache
def _exponents(newline: str) -> np.ndarray:
    """The last word of a record: the exponent X at index X - _EXPONENTS.start,
    or none at len(_EXPONENTS), followed by ","; the same words followed by
    ``newline``, for the last value of a row, come after those."""
    exponents = [f"e{x:+03d}" for x in _EXPONENTS] + [""]
    words = _words([e + "," for e in exponents] + [e + newline for e in exponents])
    words.flags.writeable = False
    return words


def _digits(x: np.ndarray, t: SimpleNamespace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits of each x as an integer in [10^16, 10^17)
    (0 for ±0), its decimal exponent, and where neither is certified."""
    a = np.abs(x)
    fallback = ~(a < _HUGE)  # inf, nan and the huge
    zero = np.flatnonzero(a == 0)
    a[np.flatnonzero(fallback)] = 1.0
    a[zero] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    tiny = np.flatnonzero(a < _TINY)
    a[tiny] *= _TINY_SCALE
    j = (16 - _K_NORMAL.start) - e  # the index of 10^(16-e) in the tables
    j[tiny] += len(_K_NORMAL) + _K_NORMAL.start - _K_TINY.start
    whole, frac, exact = _scaled_floor(a, j, t)
    low, high = _misscaled(whole, frac)
    fix = np.flatnonzero(low | high)
    if fix.size:
        step = np.where(low[fix], 1, -1)
        e[fix] -= step
        j[fix] += step
        whole[fix], frac[fix], exact[fix] = _scaled_floor(a[fix], j[fix], t)
        fallback[fix] |= np.logical_or(*_misscaled(whole[fix], frac[fix]))
    half = frac - 0.5
    fallback |= ~exact & (np.abs(half) < _UNCERTAIN)
    digits = whole + (half > 0)
    tie = np.flatnonzero(half == 0)  # exact ties round to even
    digits[tie] += whole[tie] & 1
    carry = digits == 10**17
    digits[carry] = 10**16
    e += carry
    digits[zero] = 0  # prints as "0" with e = 0
    e[zero] = 0
    return digits, e, fallback


def format_rows(block: np.ndarray, newline: str) -> bytes:
    """The UTF-8 text of a 2-D float64 block, one CSV line per row."""
    t = _tables()
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    digits, e, fallback = _digits(x, t)

    upper = digits // 10**8  # digits 0-8; then digits 9-16 and a 0
    chunks = _thousands(upper) + _thousands((digits - upper * 10**8) * 10)
    last = t.last_nonzero[0][chunks[0]]  # the last digit to print but for zeros
    for c in range(1, 6):
        np.maximum(last, t.last_nonzero[c][chunks[c]], out=last)
    scientific = (e < -4) | (e > 16)  # as %g decides with 17 digits
    integral = ~scientific & (e >= 0)  # fixed point, digits before the point
    printed = np.where(integral, np.maximum(last, e), last)
    point = np.where(scientific, np.where(last > 0, 0, _NO_POINT),
                     np.where(integral & (last > e), e, _NO_POINT))
    state = printed * 18 + point

    record = np.empty((x.size, 8), np.uint64)
    record[:, 0] = t.prefix[np.signbit(x) * 5 + np.where(scientific | integral, 0, -e)]
    for c in range(6):
        record[:, 1 + c] = t.chunk[t.offset[c][state] + chunks[c]]
    exponent = np.where(scientific, e - _EXPONENTS.start, len(_EXPONENTS))
    exponent.reshape(rows, cols)[:, -1] += len(_EXPONENTS) + 1
    record[:, 7] = _exponents(newline)[exponent]
    fallback = np.flatnonzero(fallback)
    if fallback.size:
        chars = record.view(np.uint8)
        chars[fallback] = 0
        for i, text in zip(fallback.tolist(), _fallback(x[fallback])):
            end = newline if i % cols == cols - 1 else ","
            text = (text + end).encode()
            chars[i, : len(text)] = np.frombuffer(text, np.uint8)
    return record.tobytes().translate(None, b"\0")
