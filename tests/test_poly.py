import random
from fractions import Fraction

import pytest

from realstab.poly import Polynomial, exquo, poly_gcd

from conftest import random_poly


def test_trailing_zeros_stripped():
    p = Polynomial([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1


def test_zero_polynomial_is_single_zero():
    assert Polynomial([0, 0, 0]).coeffs == (Fraction(0),)
    assert Polynomial([0]).is_zero
    assert Polynomial([]).is_zero


def test_rejects_inexact_coefficients():
    with pytest.raises(TypeError):
        Polynomial([0.5])


def test_arithmetic_basics():
    z = Polynomial.z()
    assert (z + 1) * (z - 1) == z * z - 1
    assert (z * z - 1) - z * z == Polynomial([-1])
    assert -(z - 1) == Polynomial([1, -1])
    assert 2 * z == Polynomial([0, 2])
    assert z.scale(Fraction(1, 2)) == Polynomial([0, Fraction(1, 2)])


def test_gcd_common_factor():
    z = Polynomial.z()
    g = poly_gcd((z - 1) * (z + 2), (z - 1) * (z - 3))
    assert g == z - 1


def test_gcd_coprime_is_one():
    z = Polynomial.z()
    assert poly_gcd(z - 1, z + 1) == Polynomial([1])
    assert poly_gcd(z, Polynomial([3])) == Polynomial([1])


def test_gcd_monomials():
    z = Polynomial.z()
    assert poly_gcd(z * z * z, z * z * (z + 1)) == z * z
    assert poly_gcd(z * z, Polynomial([1, 1])) == Polynomial([1])


def test_gcd_divides_both_random():
    rng = random.Random(7)
    for _ in range(300):
        c = random_poly(rng, rng.randint(0, 2))
        a = random_poly(rng, rng.randint(0, 3)) * c
        b = random_poly(rng, rng.randint(0, 3)) * c
        if a.is_zero and b.is_zero:
            continue
        g = poly_gcd(a, b)
        assert g.leading == 1
        assert exquo(a, g) * g == a and exquo(b, g) * g == b
        c = c.monic()  # monic with primitive numerators, as exquo needs
        assert exquo(g, c) * c == g  # the drawn common factor divides the gcd


def test_monic():
    p = Polynomial([2, 4])
    assert p.monic() == Polynomial([Fraction(1, 2), 1])
    assert Polynomial([0]).monic().is_zero


def test_evaluation():
    p = Polynomial([1, 0, 1])  # 1 + z^2
    assert p(Fraction(2)) == 5
    assert p(1j) == 0j
    assert p.float_coeffs_desc() == [1.0, 0.0, 1.0]


def test_float_coeffs_outside_the_float_range():
    with pytest.raises(ValueError, match=r"z\^1, about -1\.00000e\+400"):
        Polynomial([1, -10 ** 400, 3]).float_coeffs_desc()
    assert Polynomial([Fraction(1, 10 ** 400)]).float_coeffs_desc() == [0.0]


def test_arithmetic_leaves_operands_unchanged():
    # Results may share an operand's numerator list, so no operation may
    # change a stored list; the shared zero that scaling by 0 returns included.
    one = Polynomial([1])
    for z in (Polynomial([0]), one * 0):
        z * 1
        z.scale(Fraction(1, 3))
        z * one
        one * z
        assert z.is_zero and z.degree == 0 and z.coeffs == (0,)
    assert (one * 0).is_zero
    p = Polynomial([Fraction(1, 2), 0, 3])
    p * 1, p * one, p.scale(Fraction(2, 3)), p + 0, p - p, p.monic()
    assert p.coeffs == (Fraction(1, 2), 0, 3)
