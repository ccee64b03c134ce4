"""Differential and property tests of the exact polynomial core.

sympy's Poly over QQ is the oracle for the arithmetic and hypothesis draws
the operands, including coefficients with wide power-of-two denominators
like the 2^24 taps and 2^40 scales the Monte-Carlo sampler produces. Both
tools are test-only; the module is skipped when either is missing.
"""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from realstab import poly  # noqa: E402
from realstab.poly import Polynomial, exquo, poly_gcd  # noqa: E402

Z = sympy.Symbol("z")
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

denominators = st.sampled_from([1, 2, 3, 7, 12, 2 ** 24, 2 ** 40, 3 * 2 ** 40])
rationals = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), denominators)
small_rationals = st.builds(Fraction, st.integers(-5, 5), denominators)
# Numerators past 2^53, where converting to float before dividing rounds twice.
wide_rationals = st.builds(Fraction, st.integers(2 ** 53, 2 ** 70) | st.integers(-2 ** 70, -2 ** 53),
                           denominators)
# Integers of 54 to 101 bits, where the gcd's evaluation point is just as wide.
wide_integers = st.integers(2 ** 53, 2 ** 100) | st.integers(-2 ** 100, -2 ** 53)


def polys(max_degree=5, elements=rationals):
    return st.lists(elements, min_size=0, max_size=max_degree + 1).map(Polynomial)


def nonzero_polys(max_degree=4, elements=rationals):
    return polys(max_degree, elements).filter(lambda p: not p.is_zero)


def to_sympy(p: Polynomial):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, Z, domain="QQ")


def from_sympy(poly) -> Polynomial:
    return Polynomial([Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])


def assert_canonical(p: Polynomial):
    n, d = p._n, p._d
    assert isinstance(n, list) and n and all(type(c) is int for c in n)
    assert type(d) is int and d > 0
    assert len(n) == 1 or n[-1] != 0
    assert gcd(d, *n) == 1
    if p.is_zero:
        assert n == [0] and d == 1
    # The Fraction view and the constructor agree with the stored form.
    assert Polynomial(p.coeffs)._n == n and Polynomial(p.coeffs)._d == d


@SETTINGS
@given(polys(), polys())
def test_mul_matches_sympy(a, b):
    prod = a * b
    assert_canonical(prod)
    assert prod == from_sympy(to_sympy(a) * to_sympy(b))


@SETTINGS
@given(polys(), polys())
def test_add_and_sub_match_sympy(a, b):
    total, diff = a + b, a - b
    assert_canonical(total)
    assert_canonical(diff)
    assert total == from_sympy(to_sympy(a) + to_sympy(b))
    assert diff == from_sympy(to_sympy(a) - to_sympy(b))


def assert_gcd_matches_sympy(a, b):
    g = poly_gcd(a, b)
    assert_canonical(g)
    assert g.leading == 1
    assert g == from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)).monic())
    for p in (a, b):
        q = exquo(p, g)
        assert_canonical(q)
        assert q * g == p
    return g


@SETTINGS
@given(nonzero_polys(3, small_rationals), nonzero_polys(3, small_rationals),
       nonzero_polys(2, small_rationals))
def test_gcd_matches_sympy(a, b, c):
    # A drawn common factor makes nontrivial gcds common.
    assert_gcd_matches_sympy(a * c, b * c)


@SETTINGS
@given(nonzero_polys(12, wide_integers), nonzero_polys(12, wide_integers),
       nonzero_polys(4, wide_integers | rationals))
def test_gcd_of_wide_polynomials_matches_sympy(a, b, c):
    assert_gcd_matches_sympy(a * c, b * c)


def test_gcd_retries_after_a_rejected_candidate(monkeypatch):
    # At the first point xi = 2^k the digits of gcd(a(xi), b(xi)) form a
    # nonconstant candidate that must be rejected. For 4z - 5 and z^2 + 1
    # (xi = 32, gcd(123, 1025) = 41) it is z + 9, which divides neither
    # operand; for z + 1 and z^2 + 32 (gcd(33, 1056) = 33) it is z + 1,
    # which divides only one.
    widths = []
    pack = poly._pack
    monkeypatch.setattr(poly, "_pack", lambda p, k: widths.append(k) or pack(p, k))
    for a, b, k in [(Polynomial([-5, 4]), Polynomial([1, 0, 1]), 5),
                    (Polynomial([1, 1]), Polynomial([32, 0, 1]), 5),
                    (Polynomial([32, 0, 1]), Polynomial([1, 1]), 5)]:
        widths.clear()
        assert assert_gcd_matches_sympy(a, b).is_one
        assert len(set(widths)) == 2 and min(widths) == k


def test_gcd_when_an_operand_vanishes_at_the_first_point(monkeypatch):
    # The first point is the least power of two above 2 |b|_inf + 29, here a
    # zero of a: gcd(a(xi), b(xi)) is b(xi), and its candidate b is rejected
    # unless b divides a.
    values = []
    pack = poly._pack
    monkeypatch.setattr(poly, "_pack", lambda p, k: values.append(pack(p, k)) or values[-1])
    cases = [(Polynomial([-64, 1]) * Polynomial([1, 1]), Polynomial([2, 3, 1]), Polynomial([1, 1])),
             (Polynomial([-32, 1]), Polynomial([1, 1, 1]), Polynomial([1]))]
    for a, b, expected in cases:
        values.clear()
        assert assert_gcd_matches_sympy(a, b) == expected
        assert values[0] == 0


def test_gcd_falls_back_to_prs_when_every_candidate_is_rejected(monkeypatch):
    fallbacks = []
    prs = poly._int_prs_gcd
    monkeypatch.setattr(poly, "_int_divides", lambda b, a: False)
    monkeypatch.setattr(poly, "_int_prs_gcd", lambda a, b: fallbacks.append(1) or prs(a, b))
    c = Polynomial([Fraction(1, 3), -2, 5])
    cases = [(Polynomial([1, 2, 3]) * c, Polynomial([-7, 0, 1, 4]) * c),
             (Polynomial([2 ** 60, -3, 1]) * c * c, Polynomial([5, 2 ** 70]) * c),
             (Polynomial([1, 1]) * Polynomial([-1, 1]), Polynomial([-1, 1]) * Polynomial([2, 1]))]
    for a, b in cases:
        assert assert_gcd_matches_sympy(a, b).degree > 0
    assert len(fallbacks) == len(cases)


@SETTINGS
@given(polys(), rationals)
def test_scale_monic_and_negation_are_canonical(p, factor):
    for q in (p.scale(factor), -p, p.monic(), p * factor, p + factor):
        assert_canonical(q)
    assert p.scale(factor) == from_sympy(to_sympy(p) * sympy.Rational(factor.numerator,
                                                                      factor.denominator))
    if not p.is_zero:
        assert p.monic().leading == 1
        assert p.monic() * p.leading == p


@SETTINGS
@given(polys(elements=rationals | wide_rationals))
def test_float_coeffs_are_bit_equal_to_fraction_floats(p):
    assert p.float_coeffs_desc() == [float(c) for c in reversed(p.coeffs)]


@SETTINGS
@given(polys(), rationals)
def test_exact_evaluation_matches_sympy(p, x):
    value = p(x)
    assert isinstance(value, Fraction)
    assert value == Fraction(str(to_sympy(p).eval(sympy.Rational(x.numerator, x.denominator))))


@SETTINGS
@given(st.lists(rationals, max_size=6))
def test_coeffs_view_round_trips(cs):
    p = Polynomial(cs)
    assert_canonical(p)
    trimmed = list(cs)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    assert p.coeffs == (tuple(trimmed) or (Fraction(0),))
    assert Polynomial(p.coeffs) == p
    assert hash(Polynomial(p.coeffs)) == hash(p)


# -- the integer zero count ---------------------------------------------------

# Coefficients of one size per draw (1 to 200 bits), so mpmath converges
# quickly; random polynomials keep many zeros near the circle. Leading zeros
# put zeros at z = 0.
same_size_coeffs = st.integers(1, 200).flatmap(
    lambda b: st.lists(st.integers(-2 ** b, 2 ** b), min_size=2, max_size=13))
zero_count_polys = st.tuples(st.integers(0, 2), same_size_coeffs).map(
    lambda t: [0] * t[0] + t[1]).filter(lambda a: a[-1])


@settings(SETTINGS, max_examples=60)
@given(zero_count_polys)
def test_zeros_outside_match_mpmath(a):
    mpmath = pytest.importorskip("mpmath")
    count = poly._int_zeros_outside(a)
    if count is None:
        return
    # Zeros at z = 0, which polyroots converges to slowly, are inside.
    nonzero = a[next(i for i, c in enumerate(a) if c):]
    with mpmath.workdps(50):
        moduli = [abs(r) for r in mpmath.polyroots(nonzero[::-1], maxsteps=100, extraprec=250)]
        # Near-reciprocal draws can put zeros within 1e-47 of the circle; 50
        # digits decide a modulus only beyond about 1e-40 from it.
        assume(all(abs(m - 1) > mpmath.mpf(10) ** -40 for m in moduli))
        assert count == sum(m > 1 for m in moduli)


# q z - p, often with |p| within 3 of q (a zero within 3 / q of the circle),
# and q z^2 + s z + r with s^2 < 4 q r, a complex pair of modulus sqrt(r / q).
linear_factors = st.integers(1, 2 ** 60).flatmap(
    lambda q: st.tuples(st.integers(-2 ** 60, 2 ** 60) | st.integers(q - 3, q + 3)
                        | st.integers(-q - 3, -q + 3), st.just(q)))
quadratic_factors = st.tuples(st.integers(1, 2 ** 40), st.integers(-2 ** 40, 2 ** 40),
                              st.integers(1, 2 ** 40)).filter(lambda t: t[1] ** 2 < 4 * t[0] * t[2])


@SETTINGS
@given(st.lists(linear_factors, max_size=6), st.lists(quadratic_factors, max_size=3))
def test_zeros_outside_of_factored_polynomials(linear, quadratic):
    a = [1]
    for p, q in linear:
        a = poly._int_mul(a, [-p, q])
    for q, s, r in quadratic:
        a = poly._int_mul(a, [r, s, q])
    count = poly._int_zeros_outside(a)
    if any(abs(p) == q for p, q in linear) or any(r == q for q, _, r in quadratic):
        assert count is None  # a zero on the circle
    elif count is not None:  # else a reciprocal pair
        outside = sum(abs(p) > q for p, q in linear) + sum(2 for q, _, r in quadratic if r > q)
        assert count == outside


def _power(p, k):
    out = [1]
    for _ in range(k):
        out = poly._int_mul(out, p)
    return out


@pytest.mark.parametrize("a, count", [
    # A cluster of six (or ten) zeros at 0.999 that float root finding splits.
    (_power([-999, 1000], 6), 0),
    (_power([-999, 1000], 10), 0),
    (_power([-1001, 1000], 6), 6),
    # Zeros at z = 0 lie inside.
    ([0, 0, -1, 2], 0),
    ([0, -3, 1], 1),
    ([5], 0),
    # T_n(0) = 0 with a zero inside and one outside: not singular.
    ([-2, 1, 2], 1),
    # Singular: a zero on the circle (z = 1, z = +-i, z = -1) or a reciprocal pair.
    (poly._int_mul([-1, 1], [-1, 2]), None),
    (poly._int_mul([-2, 1], [-1, 2]), None),
    (poly._int_mul([1, 0, 1], [-1, 2]), None),
    ([1, 1], None),
])
def test_zeros_outside_pinned(a, count):
    assert poly._int_zeros_outside(a) == count
    assert poly._int_zeros_outside([-c for c in a]) == count


# x - 1 and x + 1, and q x - p with p / q in or near [-1, 1], each to a power
# of 1 to 3, so zeros sit at the ends, inside, just outside and repeated.
unit_interval_factors = st.tuples(
    st.sampled_from([[-1, 1], [1, 1]])
    | st.integers(1, 60).flatmap(lambda q: st.integers(-q - 3, q + 3).map(lambda p: [-p, q])),
    st.integers(1, 3))


@SETTINGS
@given(st.lists(unit_interval_factors, max_size=4),
       st.lists(st.integers(-30, 30), min_size=1, max_size=5).filter(any))
def test_zeros_in_unit_interval_match_sympy(factors, rest):
    a = poly._int_strip(list(rest))
    for f, k in factors:
        a = poly._int_mul(a, _power(f, k))
    want = sympy.Poly(a[::-1], Z).count_roots(-1, 1)
    assert poly._int_zeros_in_unit_interval(a) == want
    assert poly._int_zeros_in_unit_interval([-c for c in a]) == want


@pytest.mark.parametrize("a, count", [
    ([7], 0),
    ([-1, 1], 1),                          # x = 1
    ([1, 2], 1),                           # x = -1/2
    ([3, 1], 0),                           # x = -3
    ([-1, 0, 1], 2),                       # x = -1 and x = 1
    (_power([-1, 1], 3), 1),               # a triple zero at 1
    (_power([1, 2], 2), 1),                # a double zero inside
    ([1, 0, 1], 0),                        # x^2 + 1
    ([-1, 0, 2], 2),                       # x^2 = 1/2
    ([-4, 0, 1], 0),                       # x = +-2
    (poly._int_mul(_power([-1, 3], 2), [10, 0, 0, 1]), 1),  # 1/3 twice, x^3 = -10
    (poly._int_mul([-1, 1], _power([1, 0, -2], 2)), 3),     # 1, and +-1/sqrt(2) twice
])
def test_zeros_in_unit_interval_pinned(a, count):
    assert poly._int_zeros_in_unit_interval(a) == count
