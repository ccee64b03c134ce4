"""Canonical rational functions in z.

Every value is kept fully reduced (numerator and denominator share no
nonconstant factor) with a monic denominator, so structural equality is
mathematical equality. The zero function is 0/1.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ZeroDenominator
from .poly import _ONE, _ZERO, Polynomial, _raw, exquo, monic_pair, poly_gcd


def _as_poly(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial((value,))
    raise TypeError(f"cannot build a polynomial from {type(value).__name__}")


class RationalFunction:
    """Reduced ratio of two polynomials with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=_ONE):
        if den is _ONE and type(num) in (int, Fraction):  # not bool, nor other subclasses
            self.num = _raw([num.numerator], num.denominator) if num else _ZERO
            self.den = _ONE
            return
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise ZeroDenominator("denominator is identically zero")
        if num.is_zero or den.is_one:
            # 0 is 0 / 1, and num / 1 is reduced over a monic denominator.
            self.num = _ZERO if num.is_zero else num
            self.den = _ONE
            return
        g = poly_gcd(num, den)
        self.num, self.den = monic_pair(exquo(num, g), exquo(den, g))

    @classmethod
    def _reduced(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        # Trusted constructor: num/den already coprime, only monic scaling left.
        obj = object.__new__(cls)
        if num.is_zero:
            obj.num = _ZERO
            obj.den = _ONE
            return obj
        obj.num, obj.den = monic_pair(num, den)
        return obj

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.num.is_one and self.den.is_one

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self!r} is not constant")
        return self.num.coeffs[0]

    @property
    def is_proper(self) -> bool:
        """deg(num) <= deg(den); the zero function counts as proper."""
        return self.num.is_zero or self.num.degree <= self.den.degree

    @property
    def is_strictly_proper(self) -> bool:
        """Structural test: z * self must still be proper."""
        return self.num.is_zero or self.num.degree < self.den.degree

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, Polynomial)):
            return self.den.is_one and self.num == _as_poly(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.den.is_one:
            return repr(self.num)
        num = repr(self.num)
        den = repr(self.den)
        if not self.num.is_constant:
            num = f"({num})"
        if not self.den.is_constant:
            den = f"({den})"
        return f"{num}/{den}"

    def __add__(self, other) -> "RationalFunction":
        other = as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        g = poly_gcd(self.den, other.den)
        if g.degree == 0:
            num = self.num * other.den + other.num * self.den
            return RationalFunction._reduced(num, self.den * other.den)
        da = exquo(self.den, g)
        db = exquo(other.den, g)
        num = self.num * db + other.num * da
        return RationalFunction(num, da * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._reduced(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        other = as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        return (-self) + other

    def __mul__(self, other) -> "RationalFunction":
        other = as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RationalFunction(0)
        if self.den.is_one and other.den.is_one:
            return RationalFunction._reduced(self.num * other.num, self.den)
        # A nonzero constant factor keeps a canonical value canonical.
        if self.is_constant:
            return RationalFunction._reduced(self.num * other.num, other.den)
        if other.is_constant:
            return RationalFunction._reduced(self.num * other.num, self.den)
        # Cross-reduce so the product of two canonical values is canonical
        # without a final full-degree gcd.
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1, d2 = exquo(self.num, g1), exquo(other.den, g1)
        n2, d1 = exquo(other.num, g2), exquo(self.den, g2)
        return RationalFunction._reduced(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDenominator("cannot invert the zero function")
        return RationalFunction._reduced(self.den, self.num)

    def __truediv__(self, other) -> "RationalFunction":
        other = as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "RationalFunction":
        return as_ratfun(other) * self.inverse()

    def __call__(self, x):
        """Numeric evaluation at a point (float or complex)."""
        return self.num(x) / self.den(x)


def as_ratfun(value):
    """Coerce ints, Fractions, and Polynomials to RationalFunction."""
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (int, Fraction, Polynomial)):
        return RationalFunction(value)
    return NotImplemented


def canonicalize(num, den) -> RationalFunction:
    """Fully reduced, monic-denominator form of num/den (exact)."""
    return RationalFunction(num, den)
