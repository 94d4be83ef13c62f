"""The vectorized ``%.17g`` kernel behind every float CSV table.

``_float17.format_rows`` must give the bytes of Python's ``f"{x:.17g}"`` for
every float64, joined by "," within a row and ended by the row's newline.  The
values it does not certify go, one at a time, through ``_float17._fallback``;
the tests below record that hook and require that only the classes the kernel
is documented to leave to it reach it (``_assert_fallback_classes``): inf,
nan, |x| ≥ 2^996, 0 < |x| < 2^-900, values next to a power of ten, and exact
and near ties in the 17th digit.  Common magnitudes reach it not at all.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ergosim import _float17
from ergosim._float17 import format_rows

NEWLINES = ("\r\n", "\n")


def _expected(table: np.ndarray, newline: str) -> bytes:
    return "".join(
        ",".join(f"{x:.17g}" for x in row) + newline for row in table.tolist()
    ).encode()


@pytest.fixture
def fallback_values(monkeypatch):
    """Every value the kernel hands to ``_fallback``, in one growing list."""
    seen: list[float] = []
    real = _float17._fallback

    def recording(values):
        seen.extend(values.tolist())
        return real(values)

    monkeypatch.setattr(_float17, "_fallback", recording)
    return seen


def _near_tie(x: float) -> bool:
    """Whether |x|·10^(16-e), e = floor(log10|x|), has a fraction within 2^-36
    of one half."""
    value = abs(Fraction(x))
    e = math.floor(math.log10(abs(x)))
    while value * Fraction(10) ** (16 - e) >= 10**17:
        e += 1
    while value * Fraction(10) ** (16 - e) < 10**16:
        e -= 1
    y = value * Fraction(10) ** (16 - e)
    return abs(y - math.floor(y) - Fraction(1, 2)) < Fraction(1, 2**36)


def _near_power_of_ten(x: float) -> bool:
    """Whether |x| is within 1e-12 of a power of ten, relatively: there
    floor(log10|x|) may be one off (1e-12, not an ulp, for log10's own error)."""
    power = Fraction(10) ** round(math.log10(abs(x)))
    return abs(Fraction(abs(x)) - power) <= power / 10**12


def _assert_fallback_classes(values: list[float]) -> None:
    """The contract: a value may reach ``_fallback`` only if it is not finite,
    |x| ≥ 2^996, 0 < |x| < 2^-900, |x| is next to a power of ten, or its
    fraction is within 2^-36 of one half."""
    for x in values:
        assert (not math.isfinite(x) or abs(x) >= 2.0**996 or 0 < abs(x) < 2.0**-900
                or _near_power_of_ten(x) or _near_tie(x)), repr(x)


def _assert_formats(values: np.ndarray, cols: int = 4) -> None:
    """format_rows on ``values`` in rows of ``cols``, 1024 rows a block, the
    blocks taking turns with the newlines."""
    table = values[: values.size // cols * cols].reshape(-1, cols)
    for block_number, start in enumerate(range(0, len(table), 1024)):
        block = table[start : start + 1024]
        newline = NEWLINES[block_number % 2]
        assert format_rows(block, newline) == _expected(block, newline)


def _ulps(values, count: int) -> np.ndarray:
    """``values`` and their ``count`` neighbours on each side, with both signs."""
    values = np.asarray(values, dtype=np.float64)
    out, up, down = [values], values, values
    for _ in range(count):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0)
        out += [up, down]
    out = np.concatenate(out)
    return np.concatenate([out, -out])


def test_random_bit_patterns(fallback_values):
    """A million doubles drawn uniformly over bit patterns: every exponent,
    subnormals, infinities and nans among them."""
    bits = np.random.default_rng(17).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    _assert_formats(bits.view(np.float64))
    _assert_fallback_classes(fallback_values)


def test_typical_magnitudes(fallback_values):
    rng = np.random.default_rng(18)
    values = rng.normal(size=200_000) * 10.0 ** rng.integers(-30, 30, 200_000)
    _assert_formats(np.concatenate([values, np.round(values), rng.integers(-999, 999, 1000)]))
    _assert_fallback_classes(fallback_values)  # exact ties from 1e10 up
    assert [x for x in fallback_values if abs(x) < 1e10] == []


@settings(max_examples=200, deadline=None)
@given(
    table=st.integers(1, 7).flatmap(
        lambda cols: arrays(np.float64, st.tuples(st.integers(1, 40), st.just(cols)),
                            elements=st.floats())
    ),
    newline=st.sampled_from(NEWLINES),
)
def test_any_table(table, newline):
    assert format_rows(table, newline) == _expected(table, newline)


def test_subnormals_and_zeros(fallback_values):
    rng = np.random.default_rng(19)
    subnormal = rng.integers(1, 2**52, 20_000).astype(np.uint64).view(np.float64)
    edges = [0.0, 5e-324, 2.0**-1022, np.nextafter(2.0**-1022, 0), 2.0**-900]
    _assert_formats(np.concatenate([subnormal, -subnormal, _ulps(edges, 50)]))
    assert format_rows(np.array([[0.0, -0.0]]), "\n") == b"0,-0\n"
    _assert_fallback_classes(fallback_values)


def test_powers_of_ten_and_their_neighbours(fallback_values):
    """floor(log10|x|) is one off next to a power of ten; the kernel must
    find the exponent from the unrounded product."""
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    _assert_formats(_ulps(powers, 3))
    _assert_fallback_classes(fallback_values)
    assert f"{1e-304:.17g}" == "9.9999999999999997e-305"
    assert format_rows(np.array([[1e-304]]), "\n") == b"9.9999999999999997e-305\n"


def test_exponent_one_too_low(monkeypatch, fallback_values):
    """numpy's log10 need not be correctly rounded.  Where it comes out below
    an integer that |x| reaches, floor(log10|x|) is one too low and
    |x|·10^(16-e) is at least 10^17; where |x| is a hair below a power of ten,
    its 17 digits carry into an 18th.  Both go to ``_fallback``."""
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), -np.inf))
    powers = [float(f"1e{k}") for k in range(-270, 300)]
    _assert_formats(_ulps(powers, 3))
    _assert_fallback_classes(fallback_values)


def test_switch_points_of_g(fallback_values):
    """%g prints 1e-5 in exponent form and 1e-4 in fixed point, 1e16 in fixed
    point and 1e17 in exponent form."""
    _assert_formats(_ulps([1e-5, 1e-4, 1e16, 1e17, 9.99995e-5, 99999999999999999.0], 200))
    assert format_rows(np.array([[1e-5, 1e-4, 1e16, 1e17]]), "\n") == (
        b"1.0000000000000001e-05,0.0001,10000000000000000,1e+17\n"
    )
    _assert_fallback_classes(fallback_values)


def test_exact_ties_round_to_even(fallback_values):
    """Where 10^k is a double (k ≤ 22), |x|·10^k can be an exact tie in the
    17th digit, which goes to the even neighbour, as in CPython's dtoa.  The
    kernel leaves every tie to ``_fallback``."""
    assert format_rows(np.array([[2091755750000000.25, 2091755750000000.75]]), "\n") == (
        b"2091755750000000.2,2091755750000000.8\n"
    )
    rng = np.random.default_rng(20)
    ties = []
    for k in range(1, 23):
        # x = q/2^(k+1) with q odd: x·10^k = q·5^k/2 is a half-integer
        for q in rng.integers(1, 2**53, 2000) | 1:
            x = int(q) / 2 ** (k + 1)
            if 10**16 <= x * 10**k < 10**17 and x * 2 ** (k + 1) == q:
                ties.append(x)
    assert len(ties) > 1000
    _assert_formats(np.array(ties), cols=1)
    assert len(fallback_values) == 2 + len(ties)
    _assert_fallback_classes(fallback_values)


def test_ties_where_ten_to_the_k_is_inexact_fall_back(fallback_values):
    """At k = 23, 10^k is not a double: a tie cannot be told from a near tie,
    so the value is left to ``_fallback``."""
    ties = [q / 2**24 for q in range(3, 17, 2)]  # x·10^23 = q·5^23/2
    for newline in NEWLINES:
        block = np.array(ties)[:, None]
        assert format_rows(block, newline) == _expected(block, newline)
    assert len(fallback_values) == 2 * len(ties)
    # Near ties, |x|·10^k within 2^-50 of a half-integer: closer than the
    # error of the double-double product, which rounds these four the wrong
    # way.  (Found by a modular search over x = M·2^-j, M < 2^53.)
    near_ties = [2.2134216087109993e-229, 7.862931575939347e-206, 4.421976605688792e-92,
                 5.9740001618840614e69]
    assert format_rows(np.array([near_ties]), "\n") == _expected(np.array([near_ties]), "\n")
    _assert_fallback_classes(fallback_values)


def test_large_values(fallback_values):
    rng = np.random.default_rng(21)
    large = rng.random(20_000) * 10.0 ** rng.integers(17, 309, 20_000)
    huge = [2.0**996, np.nextafter(2.0**996, 0), np.nextafter(np.finfo(float).max, 0)]
    _assert_formats(np.concatenate([large, -large, _ulps(huge, 1), [np.finfo(float).max]]))
    _assert_fallback_classes(fallback_values)


def test_inf_and_nan(fallback_values):
    table = np.array([[np.inf, -np.inf, np.nan, -np.nan], [1.5, np.nan, 0.0, -2.0]])
    assert format_rows(table, "\n") == b"inf,-inf,nan,nan\n1.5,nan,0,-2\n"
    assert format_rows(table, "\r\n") == _expected(table, "\r\n")
    assert len(fallback_values) == 2 * 5


SPECIALS = np.array(
    [[np.inf, -np.inf, np.nan, 0.0], [-0.0, 2.0**996, -1.7976931348623157e308, 5e-324],
     [1e-320, 1e17, 1e-5, 0.1]]
)


def test_no_floating_point_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert format_rows(SPECIALS, "\n") == _expected(SPECIALS, "\n")


def test_bytes_do_not_depend_on_the_callers_error_state():
    expected = format_rows(SPECIALS, "\r\n")
    with np.errstate(all="raise"):
        assert format_rows(SPECIALS, "\r\n") == expected
    assert expected == _expected(SPECIALS, "\r\n")


def test_importing_the_cli_builds_no_table():
    script = (
        "import ergosim.cli\n"
        "from ergosim import _float17\n"
        "assert _float17._tables.cache_info().currsize == 0\n"
        "assert _float17._exponents.cache_info().currsize == 0\n"
    )
    src = Path(_float17.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_tables_match_exact_powers_of_ten():
    """hi + lo is 10^k to within 2^-104 of it."""
    t = _float17._tables()
    exact = [Fraction(10) ** k for k in _float17._K]
    for hi, lo, value in zip(t.hi.tolist(), t.lo.tolist(), exact):
        assert hi == float(value)
        assert abs(Fraction(hi) + Fraction(lo) - value) <= value / 2**104
    assert (t.lo == 0).sum() == 23  # 10^0 … 10^22
