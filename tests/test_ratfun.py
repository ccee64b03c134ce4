import random
from fractions import Fraction

import pytest

from realstab.analysis import stability_verdict
from realstab.errors import ZeroDenominator
from realstab.poly import Polynomial, poly_gcd
from realstab.ratfun import RationalFunction, canonicalize

from conftest import HALF, Z, random_proper


def test_canonicalize_reduces_common_factor():
    assert canonicalize(Z - 1, Z * Z - 1) == RationalFunction(1, Z + 1)


def test_canonicalize_makes_denominator_monic():
    f = canonicalize(2 * Z, 4 * Z - 2)
    assert f.num == Polynomial([0, HALF])
    assert f.den == Z - HALF


def test_canonicalize_zero():
    f = canonicalize(Polynomial([0]), Z + 3)
    assert f.num.is_zero and f.den.is_one


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        canonicalize(Z, Polynomial([0]))
    with pytest.raises(ZeroDenominator):
        RationalFunction(1).inverse() * RationalFunction(0).inverse()


def test_canonicalize_idempotent_random():
    rng = random.Random(3)
    for _ in range(200):
        f = random_proper(rng)
        again = canonicalize(f.num, f.den)
        assert again.num == f.num and again.den == f.den


def test_addition_oracle():
    a, b = HALF, Fraction(1, 3)
    f = RationalFunction(1, Z - a) + RationalFunction(1, Z - b)
    assert f == RationalFunction(2 * Z - a - b, (Z - a) * (Z - b))


def test_multiplication_inverse_pair():
    assert RationalFunction(1, Z) * RationalFunction(Z) == RationalFunction(1)


def test_constant_factor_matches_full_reduction():
    rng = random.Random(7)
    for _ in range(200):
        f = random_proper(rng, 3)
        c = RationalFunction(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
        want = canonicalize(f.num * c.num, f.den)
        for got in (f * c, c * f):
            assert (got.num, got.den) == (want.num, want.den)


def test_division_and_inverse():
    f = RationalFunction(Z - 1, Z + 2)
    assert f / f == RationalFunction(1)
    assert f.inverse() == RationalFunction(Z + 2, Z - 1)


def test_results_always_canonical_random():
    rng = random.Random(9)
    for _ in range(200):
        f = random_proper(rng)
        g = random_proper(rng)
        for h in (f + g, f * g, f - g):
            if h.is_zero:
                assert h.den.is_one
                continue
            assert h.den.leading == 1
            assert poly_gcd(h.num, h.den).is_constant


def test_properness_predicates():
    assert RationalFunction(1, Z).is_proper
    assert RationalFunction(1, Z).is_strictly_proper
    assert RationalFunction(Z, Z - 1).is_proper
    assert not RationalFunction(Z, Z - 1).is_strictly_proper
    assert not RationalFunction(Z * Z, Z - 1).is_proper
    zero = RationalFunction(0)
    assert zero.is_proper and zero.is_strictly_proper


def test_stable_class_closed_under_ring_operations():
    rng = random.Random(21)
    found = 0
    while found < 60:
        f = random_proper(rng)
        g = random_proper(rng)
        if not (stability_verdict(f).is_stable and stability_verdict(g).is_stable):
            continue
        found += 1
        assert stability_verdict(f + g).is_stable
        assert stability_verdict(f * g).is_stable


def test_constant_helpers():
    c = RationalFunction(Fraction(3, 4))
    assert c.is_constant and c.constant_value() == Fraction(3, 4)
    with pytest.raises(ValueError):
        RationalFunction(1, Z).constant_value()



@pytest.mark.parametrize("c", [0, 1, -1, 7, -2 ** 70, Fraction(0), Fraction(-3, 4),
                               Fraction(5, 2 ** 40), Fraction(-(2 ** 70), 3)])
def test_constants_are_built_as_their_polynomials(c):
    f = RationalFunction(c)
    g = RationalFunction(Polynomial((c,)))
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert (f.num._n, f.num._d, f.den._n, f.den._d) == (g.num._n, g.num._d, g.den._n, g.den._d)
    assert f.constant_value() == c and f.is_zero == (c == 0)


def test_boolean_constants_keep_their_values():
    for b in (True, False):
        f = RationalFunction(b)
        assert f == RationalFunction(int(b)) and f.num._n == [int(b)] and f.den.is_one
        assert type(f.num._n[0]) is int and f.constant_value() == b

def test_numeric_evaluation():
    f = RationalFunction(Z, 2 * Z - 1)
    assert abs(f(1.0) - 1.0) < 1e-15
    assert abs(f(-1.0) - 1.0 / 3.0) < 1e-15
