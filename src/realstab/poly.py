"""Dense univariate polynomials in z with exact rational coefficients.

A polynomial (n0 + n1*z + ... + nk*z^k) / d is stored as a private list
of integer numerators [n0, ..., nk], ascending powers, over one positive
integer denominator d. The form is canonical: the leading numerator is
nonzero, gcd(n0, ..., nk, d) == 1, and the zero polynomial is [0] over 1.
Equality is therefore structural. ``coeffs`` is a read-only view of the
same value as a tuple of Fractions.

All arithmetic is exact and runs on the integers; a Fraction is built only
when a caller asks for ``coeffs`` or ``leading``. ``poly_gcd`` reduces a
polynomial gcd to one integer gcd (the certified heuristic gcd of Char,
Geddes & Gonnet), keeping the primitive pseudo-remainder sequence as the
fallback, and ``exquo`` divides by the gcd it returns without a remainder.
``_int_zeros_outside`` counts the zeros of an integer polynomial outside
the unit circle exactly (the integer Bistritz recursion), which decides a
Monte-Carlo sample without root finding. Floating point enters only
through ``float_coeffs_desc`` and numeric evaluation, the bridge to the
numeric analysis layer (root finding, frequency sweeps).
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from math import gcd


def _coerce(value) -> Fraction | int:
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"expected an exact rational scalar, got {type(value).__name__}")


def _raw(n: list[int], d: int) -> "Polynomial":
    # Internal: n/d is already canonical.
    obj = object.__new__(Polynomial)
    obj._n = n
    obj._d = d
    return obj


def _canon(n: list[int], d: int) -> "Polynomial":
    """Canonical n/d from any integer list (stripped in place) and d > 0."""
    n = _int_strip(n)
    if d != 1:
        g = gcd(d, *n)
        if g != 1:
            n = [c // g for c in n]
            d //= g
    return _raw(n, d)


class Polynomial:
    """Immutable dense polynomial over the rationals."""

    __slots__ = ("_n", "_d")

    def __init__(self, coeffs=(0,)):
        cs = [_coerce(c) for c in coeffs]
        d = 1
        for c in cs:
            cd = c.denominator
            if cd != 1:
                d = d * cd // gcd(d, cd)
        # With reduced Fractions and d their lcm, gcd(numerators, d) is 1.
        n = _int_strip([c.numerator * (d // c.denominator) for c in cs])
        self._n = n
        self._d = d if n[-1] else 1

    @classmethod
    def z(cls) -> "Polynomial":
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Ascending coefficients as Fractions (a view built on each access)."""
        d = self._d
        return tuple(Fraction(c, d) for c in self._n)

    @property
    def degree(self) -> int:
        """Length-based degree; the zero polynomial reports 0 (see is_zero)."""
        return len(self._n) - 1

    @property
    def is_zero(self) -> bool:
        return not self._n[-1]

    @property
    def is_one(self) -> bool:
        n = self._n
        return len(n) == 1 and n[0] == 1 and self._d == 1

    @property
    def is_constant(self) -> bool:
        return len(self._n) == 1

    @property
    def is_monomial(self) -> bool:
        """True for c*z^k (constants included): every lower coefficient is 0."""
        return not any(self._n[:-1])

    @property
    def leading(self) -> Fraction:
        return Fraction(self._n[-1], self._d)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._d == other._d and self._n == other._n
        if isinstance(other, (int, Fraction)):
            n = self._n
            return len(n) == 1 and n[0] == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        return hash((self._d, *self._n))

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                zi = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    parts.append(zi)
                elif c == -1:
                    parts.append(f"-{zi}")
                else:
                    parts.append(f"{c}*{zi}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def _add(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other."""
        a, b = self._n, other._n
        da, db = self._d, other._d
        if da == db:
            d = da
        else:
            g = gcd(da, db)
            ma, mb = db // g, da // g
            d = da * ma
            a = [c * ma for c in a]
            b = [c * mb for c in b]
        if sign < 0:
            b = [-c for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _canon(out, d)

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _raw([-c for c in self._n], self._d)

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._add(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._n, other._n
        if len(b) == 1:
            return self._scaled(b[0], other._d)
        if len(a) == 1:
            return other._scaled(a[0], self._d)
        return _canon(_int_mul(a, b), self._d * other._d)

    __rmul__ = __mul__

    def scale(self, factor) -> "Polynomial":
        factor = _coerce(factor)
        return self._scaled(factor.numerator, factor.denominator)

    def _scaled(self, p: int, q: int) -> "Polynomial":
        """self * p / q for integers p and q != 0."""
        if not p:
            return _ZERO
        if q < 0:
            p, q = -p, -q
        if p == 1:
            n = self._n
        elif p == -1:
            n = [-c for c in self._n]
        else:
            n = [c * p for c in self._n]
        return _canon(n, self._d * q)

    def monic(self) -> "Polynomial":
        n = self._n
        lead = n[-1]
        if lead == self._d or not lead:
            return self
        # n/d divided by lead/d is n/lead; the content divides lead.
        g = gcd(*n)
        if lead < 0:
            g = -g
        return _raw([c // g for c in n], lead // g)

    def __call__(self, x):
        """Horner evaluation; x may be a Fraction, float, or complex."""
        if isinstance(x, Fraction):
            acc = 0
            for c in reversed(self._n):
                acc = acc * x + c
            return Fraction(acc) / self._d
        cs = self.float_coeffs_desc()
        acc = complex(cs[0]) if isinstance(x, complex) else cs[0]
        for c in cs[1:]:
            acc = acc * x + c
        return acc

    def float_coeffs_desc(self) -> list[float]:
        """Descending-power float coefficients for numpy consumption.

        Integer true division is correctly rounded, so each value equals
        float() of the corresponding Fraction coefficient. A coefficient
        beyond the float range raises ValueError.
        """
        d = self._d
        try:
            return [c / d for c in reversed(self._n)]
        except OverflowError:
            pass
        k, c = max(enumerate(self._n), key=lambda kc: abs(kc[1]))
        raise ValueError(f"coefficient of z^{k}, about {Decimal(c) / d:.6g}, "
                         "is outside the float range")


_ZERO = _raw([0], 1)
_ONE = _raw([1], 1)


def monic_pair(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(num / lc(den), den / lc(den)): the same ratio over a monic den (nonzero)."""
    lead = den._n[-1]
    if lead == den._d:
        return num, den
    return num._scaled(den._d, lead), den.monic()


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer polynomials (a zero operand gives [0]).

    A factor [1] returns the other operand itself, so callers treat every
    int list as immutable.
    """
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        if c == 1:
            return b
        return [c * x for x in b] if c else [0]
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return out


def _int_exact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials when b divides a exactly in Z[z].

    b == [1] returns a itself.
    """
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else [x // c for x in a]
    if not a[-1]:
        return a
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    q = [0] * (len(a) - db)
    # Only r[db:] decides the quotient; the remainder r[:db] is zero.
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] // lb
        q[k] = c
        if c:
            for j in range(max(0, db - k), db):
                r[k + j] -= c * b[j]
    return q


def _valuation(p: Polynomial) -> int:
    """Index of the lowest nonzero coefficient (order of the root at z = 0)."""
    for k, c in enumerate(p._n):
        if c:
            return k
    return 0


def _int_primitive(v: list[int]) -> list[int]:
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _int_strip(v: list[int]) -> list[int]:
    """v without trailing zeros (in place); keeps the last element, so a
    canonical list, [0] included, is never changed."""
    while len(v) > 1 and not v[-1]:
        v.pop()
    return v or [0]


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b (result differs from a mod b by lc(b)^k)."""
    db = len(b) - 1
    lb = b[-1]
    r = a
    while len(r) > db and r[-1]:
        lr = r[-1]
        shift = len(r) - 1 - db
        r = _int_strip([lb * c for c in r[:shift]]
                       + [lb * x - lr * y for x, y in zip(r[shift:-1], b)])
    return r


def _int_divides(b: list[int], a: list[int]) -> list[int] | None:
    """a / b when b divides a exactly in Z[z], else None (both nonzero and stripped)."""
    db = len(b) - 1
    if len(a) <= db:
        return None
    lb = b[-1]
    r = list(a)
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, m = divmod(r[k + db], lb)
        if m:
            return None
        q[k] = c
        if c:
            for j in range(db):
                r[k + j] -= c * b[j]
    return None if any(r[:db]) else q


def _pack(p: list[int], k: int) -> int:
    """p(2^k): an integer polynomial as one integer (Kronecker substitution)."""
    v = 0
    for c in reversed(p):
        v = (v << k) + c
    return v


def _unpack(v: int, k: int) -> list[int]:
    """The integer polynomial p with p(2^k) == v and every coefficient in
    (-2^(k-1), 2^(k-1)]: the balanced base-2^k digits of v, ascending."""
    mask = (1 << k) - 1
    half = 1 << (k - 1)
    out = []
    while v:
        d = v & mask
        if d > half:
            d -= mask + 1
        out.append(d)
        v = (v - d) >> k
    return out or [0]


def _candidate(g: int, k: int) -> list[int]:
    """The heuristic gcd's candidate from g = gcd(a(2^k), b(2^k)): the
    primitive part of g's balanced base-2^k digits, leading term positive."""
    h = _int_primitive(_unpack(g, k))
    return h if h[-1] > 0 else [-c for c in h]


def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two nonconstant stripped integer polynomials.

    Heuristic gcd (Char, Geddes & Gonnet 1989): with a, b primitive and
    xi >= 2 min(|a|_inf, |b|_inf) + 2, the primitive part h of the
    balanced base-xi digits of gcd(a(xi), b(xi)) is gcd(a, b) whenever h
    divides both a and b. xi = 2^k, so evaluation and digits are _pack and
    _unpack. Each try is one integer gcd plus that exact division check;
    after six values of xi the primitive PRS decides.
    """
    a = _int_primitive(a)
    b = _int_primitive(b)
    k = (2 * min(max(map(abs, a)), max(map(abs, b))) + 29).bit_length()
    for _ in range(6):
        # 2^k exceeds every root of the operand of smaller norm, so at most
        # one of a(2^k), b(2^k) is zero and the gcd is never 0.
        h = _candidate(gcd(_pack(a, k), _pack(b, k)), k)
        if len(h) == 1 or (_int_divides(h, a) and _int_divides(h, b)):
            return h  # [1] divides both
        k += k // 4 + 2
    return _int_prs_gcd(a, b)


def _int_prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two primitive, nonzero, stripped integer polynomials
    by primitive pseudo-remainder Euclid."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _int_primitive(_int_prem(a, b))
    return a if not b[0] else [1]


def _int_zeros_outside(a: list[int]) -> int | None:
    """How many zeros of the nonzero integer polynomial a lie strictly outside
    the unit circle, or None in a singular case.

    Integer Bistritz test (Bistritz 1984). Zeros at z = 0 lie inside and are
    stripped; D, of degree n, is what remains, and D#(z) = z^n D(1/z). With
    T_n = D + D#, T_{n-1} = (D - D#) / (z - 1) and, for k = n-1, ..., 1,
    z T_{k-1} = sgn(T_k(0)) T_{k+1}(0) (1 + z) T_k - |T_k(0)| T_{k+1},
    every T_k is symmetric with k + 1 coefficients, and the number of zeros
    outside is the number of sign changes in T_n(1), ..., T_0(1) (Bistritz's
    normal case). Scaling T_k by c > 0
    scales the later T by positive factors only, so each T is made
    primitive and every sign is kept. A zero T_k(0), 0 < k < n, or T_k(1)
    is singular and returns None; that covers every zero on the circle and
    every reciprocal pair of zeros, so a count of 0 proves every zero of a
    strictly inside.
    """
    a = a[next(i for i, c in enumerate(a) if c):]
    n = len(a) - 1
    if not n:
        return 0
    hi = _int_primitive([x + y for x, y in zip(a, reversed(a))])
    # (D - D#) / (z - 1): the quotient's z^i coefficient is -(d_0 + ... + d_i).
    lo = _int_primitive([-c for c in accumulate(x - y for x, y in zip(a[:-1], reversed(a)))])
    values = [sum(hi), sum(lo)]
    for k in range(n - 1, 0, -1):  # hi, lo = T_{k+1}, T_k
        c0, p0 = lo[0], hi[0]
        if not c0:
            return None
        f, g = (p0, c0) if c0 > 0 else (-p0, -c0)
        # Coefficients 1..k of f (1 + z) T_k - g T_{k+1}; the two outer ones are 0.
        hi, lo = lo, _int_primitive([f * (x + y) - g * p for x, y, p in zip(lo, lo[1:], hi[1:])])
        values.append(sum(lo))
    # A zero T_k has T_k(1) = 0 too.
    if not all(values):
        return None
    return sum((u < 0) != (v < 0) for u, v in zip(values, values[1:]))


def _int_at_unit(a: list[int], t: int) -> int:
    """a(t) for t = 1 or -1."""
    return sum(a[0::2]) + t * sum(a[1::2])


def _int_zeros_in_unit_interval(a: list[int]) -> int:
    """How many distinct real zeros of the nonzero stripped integer polynomial
    a lie in the closed interval [-1, 1].

    A zero at 1 or -1 is counted once and divided out with its multiplicity,
    so what remains is nonzero at both ends. Degree 1 then has a zero
    inside exactly when the end signs differ. Degree 2 with equal end signs
    has zeros inside only when it curves away from that sign (leading
    coefficient of the same sign) with its vertex inside, |a_1| < 2 |a_2|,
    and then as many distinct ones as the discriminant says, in about a
    sixth of a Sturm count's time. Higher degrees take the Sturm sequence
    p, p', ..., each term the negated remainder of the two before, found
    as the pseudo-remainder by a divisor with positive leading coefficient
    (a positive multiple of the remainder) and made primitive; the
    distinct zeros in (-1, 1) number V(-1) - V(1), the sign variations at
    the ends (Sturm 1829; a repeated zero leaves the gcd at the end of the
    sequence, which changes no variation where p is nonzero).
    """
    count = 0
    for t in (1, -1):
        if not _int_at_unit(a, t):
            count += 1
            while not _int_at_unit(a, t):  # divide by x - t (synthetic division)
                q, acc = [0] * (len(a) - 1), 0
                for i in range(len(a) - 1, 0, -1):
                    acc = a[i] + t * acc
                    q[i - 1] = acc
                a = q
    n = len(a) - 1
    lo, hi = _int_at_unit(a, -1), _int_at_unit(a, 1)
    if n == 0:
        return count
    if (lo < 0) != (hi < 0) and n <= 2:
        return count + 1
    if n == 1:
        return count
    if n == 2:
        c, b, lead = a
        if (lead < 0) != (hi < 0) or abs(b) >= 2 * abs(lead):
            return count
        disc = b * b - 4 * lead * c
        return count + (disc > 0) + (disc >= 0)
    seq = [a, _int_primitive([i * c for i, c in enumerate(a)][1:])]
    while len(seq[-1]) > 1:
        div = seq[-1] if seq[-1][-1] > 0 else [-c for c in seq[-1]]
        r = _int_prem(seq[-2], div)
        if not r[-1]:
            break
        seq.append(_int_primitive([-c for c in r]))

    def variations(t: int) -> int:
        signs = [v < 0 for v in (_int_at_unit(s, t) for s in seq) if v]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    return count + variations(-1) - variations(1)


def exquo(a: Polynomial, g: Polynomial) -> Polynomial:
    """a / g for a poly_gcd result g that divides a.

    g is monic with primitive numerators, so by Gauss's lemma they divide
    a's numerators exactly in Z[z]: a / g = (a_n / g_n) g_d / a_d.
    """
    gn = g._n
    if len(gn) == 1:
        return a
    q = _int_exact_div(a._n, gn)
    gd = g._d
    return _canon([c * gd for c in q] if gd != 1 else q, a._d)


def _monomial(k: int) -> Polynomial:
    return _raw([0] * k + [1], 1)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd of two polynomials.

    Constants and monomials short-circuit (the FIR denominators z^k this
    package produces fall here). The general case takes the gcd of the
    integer numerators, which differs from the rational one only by a
    constant factor, by the heuristic gcd of Char, Geddes & Gonnet (1989):
    one big-integer gcd of the primitive operands' values at xi = 2^k, the
    least power of two above 2 min(|a|_inf, |b|_inf) + 29, whose balanced
    base-xi digits give a candidate. By their theorem (xi >= 2 min + 2
    suffices) a candidate that divides both operands exactly is the gcd; a
    rejected one grows k by k // 4 + 2, and after six tries the primitive
    pseudo-remainder sequence decides.
    """
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.is_constant or b.is_constant:
        return _ONE
    if a.is_monomial:
        return _monomial(min(a.degree, _valuation(b)))
    if b.is_monomial:
        return _monomial(min(b.degree, _valuation(a)))
    g = _int_poly_gcd(a._n, b._n)
    # g is primitive, so g / lc(g) is already reduced.
    if g[-1] < 0:
        g = [-c for c in g]
    return _raw(g, g[-1])
