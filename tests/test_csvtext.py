"""The whole-array ``%.17g`` kernel against Python's own ``%``."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlab.csvtext import FAST_MAX, FAST_MIN, format_rows


def percent(block):
    """Reference: the CSV text of ``block`` with ``%.17g`` per value."""
    rows, cols = block.shape
    row = ",".join(["%.17g"] * cols) + "\n"
    return ((row * rows) % tuple(block.ravel().tolist())).encode()


def assert_same_text(values, cols=1):
    block = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    text, slow = format_rows(block)
    want = percent(block)
    if text != want:  # name the first value that differs
        for got, ref, row in zip(text.splitlines(), want.splitlines(), block.tolist()):
            assert got == ref, row
    assert text == want
    return slow


def dyadic_tie(s, m):
    """``m / 2**(s + 1)`` for odd ``m``: exactly halfway between two 17-digit
    decimals when ``m 5**s`` has 18 digits, the last a 5."""
    return math.ldexp(m, -(s + 1))


def is_tie(x):
    """Whether the exact decimal value of ``x`` has 18 significant digits,
    the last a 5: halfway between two 17-digit decimals."""
    digits = Decimal(x).normalize().as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def tie_mantissas(s):
    """The odd ``m`` of ``dyadic_tie(s, m)`` that are ties: ``m 5**s`` in
    ``[2e16, 2e17)`` and ``m`` below ``2**53``."""
    lo = -(-2 * 10 ** 16 // 5 ** s)
    hi = min(2 * 10 ** 17 // 5 ** s, 2 ** 53)
    return lo | 1, hi


def powers_of_ten_and_neighbours():
    out = []
    for k in range(-30, 31):
        x = float(f"1e{k}")
        out += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    return out


EDGE_CASES = {
    "zeros": [0.0, -0.0],
    "extremes": [np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny,
                 5e-324, -5e-324, 2.2250738585072009e-308],
    "non_finite": [np.nan, -np.nan, np.inf, -np.inf],
    "powers_of_ten": powers_of_ten_and_neighbours(),
    # the switch between fixed and scientific form at 1e-4 and 1e17, and the
    # carry of 99999999999999999.5 into the next power of ten
    "form_switch": [1e-4, np.nextafter(1e-4, 0.0), 9.99999999999999e-05, 1e-5,
                    1e16, 1e17, np.nextafter(1e17, 0.0), 99999999999999984.0,
                    123456789012345678.0, 0.00012345678901234567, 1.5, 100.0, 1234.5],
    "three_digit_exponents": [1e100, -1e-100, 1.2345e-150, 9.87e199, FAST_MAX,
                              FAST_MIN, np.nextafter(FAST_MAX, np.inf),
                              np.nextafter(FAST_MIN, 0.0), 1e300, 1e-300, 1.5e-310],
    # hi + lo just below 1e16 after the product rounds hi to 1e16 itself
    "lo_below_power": [9.9999999999999998e-20, 9.9999999999999995e-21,
                       9.9999999999999998e-31, 0.99999999999999989],
    "dyadic_ties": [-0.620433807373046875, 0.5, 2.5, 1e-4 + 2 ** -40]
    + [dyadic_tie(s, tie_mantissas(s)[0]) for s in range(2, 23)]
    + [-dyadic_tie(s, (tie_mantissas(s)[1] - 2) | 1) for s in range(2, 23)],
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_print_as_percent(name):
    values = EDGE_CASES[name]
    assert_same_text(values)
    assert_same_text(values[: len(values) // 2 * 2], cols=2)


def test_exact_ties_and_special_values_take_no_fallback():
    # 10**s is exact for 0 <= s <= 22, so a tie rounds to even in the fast path
    ties = EDGE_CASES["dyadic_ties"]
    assert sum(map(is_tie, ties)) == len(ties) - 3
    assert assert_same_text(ties) == 0
    # the all-NaN columns of a run that stopped before evaluating its field
    nan_table = np.full((500, 11), np.nan)
    assert format_rows(nan_table) == ((b"nan," * 10 + b"nan\n") * 500, 0)
    assert assert_same_text(EDGE_CASES["zeros"] + EDGE_CASES["non_finite"], 2) == 0


def test_fallback_is_only_outside_the_fast_range_or_near_a_tie():
    assert assert_same_text([5e-324, 1e-300, 1e300, np.finfo(float).max]) == 4
    # 3 / 2**24 ties at 17 digits, where the product by 10**23 is inexact
    assert assert_same_text([3.0 / 2 ** 24]) == 1
    assert assert_same_text(EDGE_CASES["powers_of_ten"]) == 0


@pytest.mark.parametrize("bias", [-1e-13, 1e-13], ids=["low", "high"])
def test_a_log10_that_misses_by_a_little_costs_no_digit(monkeypatch, bias):
    # floor(log10 |v|) only estimates the exponent: pushed low (high), it is
    # one too small (large) next to each power of ten, where a product hi of
    # exactly 1e17 (1e16) must be told apart by the sign of lo
    values = [x for j in range(-279, 280) for x in (np.nextafter(float(f"1e{j}"), 0.0),
                                                 float(f"1e{j}"),
                                                 np.nextafter(float(f"1e{j}"), np.inf))]
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + bias)
    assert assert_same_text(values) == 0


def as_doubles(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


SPECIAL = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-4, 1e17])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=3, max_size=60),
       extra=st.lists(SPECIAL, max_size=6), cols=st.integers(1, 3))
def test_raw_bit_patterns_print_as_percent(bits, extra, cols):
    # nan, the infinities and subnormals among them
    values = np.concatenate([as_doubles(bits), extra])
    assert_same_text(values[: len(values) // cols * cols], cols)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(exponents=st.lists(st.integers(-60, 60), min_size=1, max_size=40),
       mantissas=st.lists(st.integers(-2 ** 53, 2 ** 53), min_size=40, max_size=40))
def test_dyadic_values_print_as_percent(exponents, mantissas):
    # short binary fractions, whose decimal expansions end early and tie
    assert_same_text([math.ldexp(m, e) for m, e in zip(mantissas, exponents)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(s=st.integers(2, 22), pick=st.floats(0, 1), negative=st.booleans())
def test_dyadic_ties_round_to_even_without_fallback(s, pick, negative):
    lo, hi = tie_mantissas(s)
    m = lo + 2 * int(pick * (hi - lo - 1) / 2)
    value = dyadic_tie(s, m) * (-1 if negative else 1)
    assert assert_same_text([value]) == 0
