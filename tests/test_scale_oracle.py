"""Differential tests of a draw's integer scale rounding against Fraction.

uncertainty._limit_denominator must equal Fraction.limit_denominator at the
2^40 scale grid, and uncertainty._round_up must give float(Fraction) of the
bound, rounded up when it falls below it. hypothesis draws positive floats,
among them floats whose denominators are at most 2^40, which the rounding
returns unchanged. hypothesis is test-only; the module is skipped without it.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from realstab import uncertainty  # noqa: E402

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)

# Products of two of these stay finite, so every bound is a float.
positive = st.floats(min_value=0.0, max_value=1e150, exclude_min=True)
on_grid = st.builds(lambda n, e: n / 2 ** e, st.integers(1, 2 ** 53), st.integers(0, 40))
targets = positive | on_grid


def _reference_scale(target: float) -> Fraction:
    return Fraction(target).limit_denominator(uncertainty._SCALE_GRID)


@SETTINGS
@given(targets)
@example(0.0)
@example(1 / 3)
@example(math.pi)
@example(2.0 ** -1074)
@example(2.0 ** -41)  # a tie: 0 and 2^-40 are as near, and 0 is returned
def test_scale_is_limit_denominator(target):
    want = _reference_scale(target)
    got = uncertainty._limit_denominator(*target.as_integer_ratio())
    assert got == (want.numerator, want.denominator)


@SETTINGS
@given(targets, positive)
@example(0.0, 1.0)
@example(0.1, 3.0)
def test_norm_is_the_bound_rounded_up(target, g):
    bound = _reference_scale(target) * Fraction(g)
    want = float(bound)
    if want < bound:
        want = math.nextafter(want, math.inf)
    p, q = uncertainty._limit_denominator(*target.as_integer_ratio())
    gn, gd = g.as_integer_ratio()
    got = uncertainty._round_up(p * gn, q * gd)
    assert got.hex() == want.hex()
    assert Fraction(got) >= bound
