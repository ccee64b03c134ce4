"""Differential tests of the exact matrix kernel against sympy.

sympy's DomainMatrix over the field QQ(z) is the oracle for the product,
the inverse, the determinant, the resolvent and the identity-product
check, and the
determinant is in turn the oracle for the loop determinant; hypothesis
draws the matrices, with the 2^24 and 2^40 denominators the Monte-Carlo
sampler produces and improper entries like those of zI - A. Both tools
are test-only; the module is skipped when either is missing.
"""

import copy
from fractions import Fraction
from math import prod
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.polys.fields import field  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from realstab import matrix  # noqa: E402
from realstab.errors import DimensionMismatch, SingularMatrix  # noqa: E402
from realstab.matrix import (  # noqa: E402
    StateSpace,
    TransferMatrix,
    _bareiss,
    _cleared,
    _norm,
    _over_determinant,
    _pack,
    _unpack,
    _width,
    loop_determinant,
    product_is_identity,
)
from realstab.poly import Polynomial, _canon, _int_mul, _int_strip  # noqa: E402
from realstab.ratfun import RationalFunction  # noqa: E402

K = field("z", sympy.QQ)[0]
QZ = K.to_domain()
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
Z = Polynomial.z()

denominators = st.sampled_from([1, 2, 3, 7, 2 ** 24, 2 ** 40, 3 * 2 ** 40])
rationals = st.builds(Fraction, st.integers(-9, 9), denominators)


def polys(max_degree):
    return st.lists(rationals, min_size=1, max_size=max_degree + 1).map(Polynomial)


ratfuns = st.one_of(
    st.just(RationalFunction(0)),
    rationals.map(RationalFunction),
    st.builds(RationalFunction, polys(2), polys(2).filter(lambda p: not p.is_zero)),
    # Improper: a numerator of higher degree than its denominator.
    st.builds(RationalFunction, polys(3), polys(1).filter(lambda p: not p.is_zero)),
)


@st.composite
def matrices(draw, max_n=4, zero_corner=False):
    n = draw(st.integers(1, max_n))
    entries = draw(st.lists(ratfuns, min_size=n * n, max_size=n * n))
    if zero_corner:
        entries[0] = RationalFunction(0)
    return TransferMatrix(n, n, entries)


def fraction_grids(rows, cols):
    return st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def state_loops(draw):
    """I - R of a state-feedback loop, [[zI - A, -B], [-K, I]]."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    A = draw(fraction_grids(n, n))
    B = draw(fraction_grids(n, m))
    K_ = draw(st.lists(ratfuns, min_size=m * n, max_size=m * n))
    ss = StateSpace(A, B, [[0] * n], [[0] * m])
    top = [list(ss.z_minus_a().row(i)) + [RationalFunction(-b) for b in B[i]]
           for i in range(n)]
    bottom = [[-e for e in K_[i * n:(i + 1) * n]]
              + [RationalFunction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    return TransferMatrix.from_rows(top + bottom)


@st.composite
def singular_matrices(draw):
    """One row a rational-function combination of the others."""
    n = draw(st.integers(1, 4))
    rows = [draw(st.lists(ratfuns, min_size=n, max_size=n)) for _ in range(n - 1)]
    weights = draw(st.lists(ratfuns, min_size=n - 1, max_size=n - 1))
    dependent = [sum((w * row[j] for w, row in zip(weights, rows)), RationalFunction(0))
                 for j in range(n)]
    rows.insert(draw(st.integers(0, n - 1)), dependent)
    return TransferMatrix.from_rows(rows)


def to_k(e: RationalFunction):
    def poly(p):
        coeffs = reversed(p.coeffs)
        return K.ring.from_list([sympy.QQ(c.numerator, c.denominator) for c in coeffs])
    return K.new(poly(e.num), poly(e.den))


def oracle(M: TransferMatrix) -> DomainMatrix:
    return DomainMatrix([[to_k(M[i, j]) for j in range(M.cols)] for i in range(M.rows)],
                        M.shape, QZ)


def partitions(size, prefix):
    """None, or labelled blocks of a size-long axis cut where the flags say."""
    def blocks(cuts):
        bounds = [0] + [k for k, cut in enumerate(cuts, 1) if cut] + [size]
        spans = zip(bounds, bounds[1:])
        return tuple((f"{prefix}{b}", hi - lo) for b, (lo, hi) in enumerate(spans))
    return st.none() | st.lists(st.booleans(), min_size=size - 1, max_size=size - 1).map(blocks)


@st.composite
def products(draw):
    """X (k x m) and Y (m x n), sizes up to 4, with zero rows of X, zero
    columns of Y and partitions on every axis."""
    k, m, n = (draw(st.integers(1, 4)) for _ in range(3))
    X = draw(st.lists(ratfuns, min_size=k * m, max_size=k * m))
    Y = draw(st.lists(ratfuns, min_size=m * n, max_size=m * n))
    for i in draw(st.sets(st.integers(0, k - 1), max_size=k)):
        X[i * m:(i + 1) * m] = [RationalFunction(0)] * m
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        Y[j::n] = [RationalFunction(0)] * m
    return (TransferMatrix(k, m, X, draw(partitions(k, "a")), draw(partitions(m, "b"))),
            TransferMatrix(m, n, Y, draw(partitions(m, "c")), draw(partitions(n, "d"))))


def assert_product_matches(X: TransferMatrix, Y: TransferMatrix):
    XY = X * Y
    assert XY.shape == (X.rows, Y.cols)
    assert XY.row_blocks == X.row_blocks and XY.col_blocks == Y.col_blocks
    expected = (oracle(X) * oracle(Y)).to_list()
    for i in range(X.rows):
        for j in range(Y.cols):
            e = XY[i, j]
            assert e == RationalFunction(e.num, e.den)  # canonical
            assert to_k(e) == expected[i][j]
    with pytest.raises(DimensionMismatch):
        X * TransferMatrix.zeros(X.cols + 1, Y.cols)


@SETTINGS
@given(products())
def test_product_matches_sympy(pair):
    assert_product_matches(*pair)


def test_product_examples():
    a, b = RationalFunction(Z, Z - Fraction(1, 2)), RationalFunction(3, Z * Z + 1)
    c = RationalFunction(Fraction(-2, 3))
    rows, cols = (("y", 1), ("u", 1)), (("w", 2),)
    # Entries over different denominators whose terms cancel: a zero product.
    X = TransferMatrix.from_rows([[a, b], [c * a, c * b]], rows)
    Y = TransferMatrix.from_rows([[b, c * b], [-a, -c * a]], None, cols)
    assert_product_matches(X, Y)
    assert (X * Y).is_zero() and (X * Y).row_blocks == rows and (X * Y).col_blocks == cols
    # Constant entries only, and a column of Y that is zero.
    X = TransferMatrix.constant([[1, Fraction(1, 2)], [3, -4]])
    Y = TransferMatrix.constant([[Fraction(2, 7), 0], [5, 0]])
    assert_product_matches(X, Y)
    assert X * Y == TransferMatrix.constant([[Fraction(2, 7) + Fraction(5, 2), 0],
                                             [Fraction(6, 7) - 20, 0]])
    with pytest.raises(DimensionMismatch):
        Y * TransferMatrix.zeros(3, 1)


def assert_inverse_matches(M: TransferMatrix):
    dm = oracle(M)
    det = dm.det()
    assert to_k(M.determinant()) == det
    if det == 0:
        with pytest.raises(SingularMatrix, match="^matrix is singular as a rational matrix$"):
            M.inverse()
        return
    inv = M.inverse()
    expected = dm.inv().to_list()
    for i in range(M.rows):
        for j in range(M.cols):
            e = inv[i, j]
            assert e == RationalFunction(e.num, e.den)  # canonical
            assert to_k(e) == expected[i][j]


@SETTINGS
@given(matrices())
def test_inverse_and_determinant_match_sympy(M):
    assert_inverse_matches(M)


@SETTINGS
@given(state_loops())
def test_improper_loops_match_sympy(M):
    assert_inverse_matches(M)


@SETTINGS
@given(matrices(zero_corner=True))
def test_zero_corner_forces_row_swap(M):
    assert_inverse_matches(M)


def test_row_swap_examples():
    a, b = RationalFunction(Z, Z - Fraction(1, 2)), RationalFunction(3, Z * Z + 1)
    zero = RationalFunction(0)
    for M in (TransferMatrix.from_rows([[zero, a], [b, zero]]),
              TransferMatrix.from_rows([[zero, a, b], [zero, b, a], [a, zero, b]]),
              TransferMatrix.from_rows([[zero, zero, a], [zero, b, zero], [a, zero, zero]])):
        assert_inverse_matches(M)
    # A single exchange flips the sign of the determinant.
    M = TransferMatrix.from_rows([[zero, a], [b, zero]])
    assert M.determinant() == -(a * b)


@SETTINGS
@given(singular_matrices())
def test_singular_matrices(M):
    assert oracle(M).det() == 0
    assert M.determinant() == RationalFunction(0)
    with pytest.raises(SingularMatrix) as info:
        M.inverse()
    assert str(info.value) == "matrix is singular as a rational matrix"


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(lambda n: fraction_grids(n, n)))
def test_resolvent_matches_sympy(A):
    n = len(A)
    ss = StateSpace(A, [[1]] * n, [[1] * n], [[0]])
    res = ss.resolvent()
    expected = oracle(ss.z_minus_a()).inv().to_list()
    assert all(to_k(res[i, j]) == expected[i][j] for i in range(n) for j in range(n))


# Rows that take _cleared's shortcuts: entries sharing one denominator object
# (as a column of an inverse does), a copy of the running lcm, constant
# denominators over non-unit coefficient denominators, and zero entries.
SHARED = Polynomial((Fraction(-1, 2), Fraction(1, 3), 1))
COPY = Polynomial((Fraction(-1, 2), Fraction(1, 3), 1))
SHARES_A_FACTOR = (Z + 1) * SHARED


@SETTINGS
@given(st.lists(ratfuns, min_size=1, max_size=6))
@example([RationalFunction._reduced(Polynomial((3,)), SHARED),
          RationalFunction(0),
          RationalFunction._reduced(Polynomial((1, Fraction(2, 7))), SHARED),
          RationalFunction._reduced(Polynomial((Fraction(5, 2 ** 40),)), SHARED)])
@example([RationalFunction(Fraction(3, 2 ** 40)), RationalFunction(0),
          RationalFunction(Polynomial((Fraction(1, 3), Fraction(2, 7)))),
          RationalFunction(-1)])
@example([RationalFunction(0), RationalFunction(0)])
@example([RationalFunction(1, SHARED), RationalFunction(Fraction(1, 2), COPY),
          RationalFunction(Z, SHARES_A_FACTOR), RationalFunction(Fraction(2, 3) * Z * Z),
          RationalFunction._reduced(Polynomial((7,)), SHARED)])
def test_row_clearing_round_trip(row):
    P, l = _cleared(row)
    assert len(P) == len(row)
    assert all(type(c) is int for p in P + [l] for c in p) and l[-1] != 0
    scale = Polynomial(l)
    for p, e in zip(P, row):
        assert RationalFunction(Polynomial(p), scale) == e
    # l is the lcm of the denominators times an integer.
    dens = [to_k(RationalFunction(e.den)).numer for e in row if not e.is_zero]
    lcm = K.ring.one
    for d in dens:
        lcm = lcm.lcm(d)
    assert to_k(RationalFunction(scale)).numer.degree() == lcm.degree()


# A width k and a stripped integer polynomial whose coefficients are below 2^(k-1).
packable = st.integers(2, 80).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.integers(1 - 2 ** (k - 1), 2 ** (k - 1) - 1), max_size=8).map(_int_strip)))


@SETTINGS
@given(packable)
@example((2, [0]))
@example((2, [1]))
@example((3, [-3]))
@example((8, [5, 0, -127]))
@example((64, [0, 0, -(2 ** 63 - 1)]))
def test_pack_round_trip(case):
    k, p = case
    assert _unpack(_pack(p, k), k) == p


# Rows whose l1 norms are carried by one large entry each: the minors come
# within a factor of 2 of the packing bound (the product of the row norms),
# and for a diagonal of monomials the determinant's coefficient is that bound.
BIG = 1000
DENSE = TransferMatrix.from_rows([[BIG * Z, 1, -1], [-1, BIG * Z, 1], [1, -1, BIG * Z]])
DIAGONAL = TransferMatrix.from_rows([[5 * Z, 0, 0], [0, -7 * Z * Z, 0], [0, 0, 9]])


def test_minors_reach_the_packing_bound():
    det = DIAGONAL.determinant()
    assert det == RationalFunction(-315 * Z * Z * Z) and -det.num.leading == 5 * 7 * 9
    assert_inverse_matches(DIAGONAL)
    # det(DENSE) = (BIG z)^3 + 3 BIG z. Its lead BIG^3 has the bit length of
    # the bounds (BIG + 2)^3 of the determinant and (BIG + 3)^3 of the
    # inverse (the diag(l) block adds |l_i| = 1 to each row norm); that of
    # loop_determinant(I - DENSE, I) is (BIG + 4)^3.
    assert DENSE.determinant() == RationalFunction(BIG ** 3 * Z * Z * Z + 3 * BIG * Z)
    assert all((BIG ** 3).bit_length() == ((BIG + e) ** 3).bit_length() for e in (2, 3, 4))
    assert_inverse_matches(DENSE)
    eye = TransferMatrix.identity(3)
    assert loop_determinant(eye - DENSE, eye) == DENSE.determinant()
    # The product's (0, 0) entry BIG^2 z^2 - 2 against its bound (BIG + 3)(BIG + 1).
    assert (BIG ** 2).bit_length() == ((BIG + 3) * (BIG + 1)).bit_length()
    assert_product_matches(DENSE, DENSE)


def dense_eliminated(k):
    """(d, N) from eliminating DENSE's cleared [P | diag(l)] packed at width k, or None."""
    work = [[_pack(p, k) for p in P] + [_pack(l, k) if i == j else 0 for j in range(3)]
            for i, (P, l) in enumerate(matrix._lines(DENSE, 0))]
    d = _bareiss(work, 3, jordan=True)[0]
    return None if d is None else (_unpack(d, k), [_unpack(v, k) for r in work for v in r[3:]])


def test_one_bit_narrower_packing_breaks_the_results(monkeypatch):
    # The inverse packs at _width(2 max r prod r), log2(2 max r) bits more
    # than its minors need, so that the identity product can reuse its
    # rows and columns. Pin both: one bit below the minors' own width breaks
    # the elimination, and the hand-off carries exactly the wider width.
    norms = [_norm(l) + sum(map(_norm, P)) for P, l in matrix._lines(DENSE, 0)]
    exact = dense_eliminated(_width(prod(norms)))
    assert exact[0] == [0, 3 * BIG, 0, BIG ** 3]
    assert dense_eliminated(_width(prod(norms)) - 1) != exact
    fresh = TransferMatrix(3, 3, DENSE.entries)
    handed = fresh.inverse()._memo[3]
    assert handed[1] == fresh._memo[2][1] == _width(2 * max(norms) * prod(norms))
    eye = TransferMatrix.identity(3)
    cases = [
        (DIAGONAL.determinant, RationalFunction(-315 * Z * Z * Z)),
        (DENSE.determinant, DENSE.determinant()),
        (lambda: loop_determinant(eye - DENSE, eye), DENSE.determinant()),
        (lambda: DENSE * DENSE, DENSE * DENSE),
    ]
    width = matrix._width
    monkeypatch.setattr(matrix, "_width", lambda bound: width(bound) - 1)
    for compute, right in cases:
        try:
            assert compute() != right
        except SingularMatrix:
            pass  # a pivot packed to zero: wrong as well


@SETTINGS
@given(matrices(max_n=3), st.integers(0, 8), rationals.filter(bool))
def test_product_is_identity_matches_sympy(M, index, bump):
    try:
        inv = M.inverse()
    except SingularMatrix:
        return
    assert product_is_identity(M, inv) and product_is_identity(inv, M)
    ents = list(inv.entries)
    ents[index % len(ents)] += bump
    Y = TransferMatrix(M.rows, M.cols, ents)
    eye = DomainMatrix.eye(M.rows, QZ).to_dense()  # oracle products are dense
    assert product_is_identity(M, Y) == (oracle(M) * oracle(Y) == eye)
    assert product_is_identity(Y, M) == (oracle(Y) * oracle(M) == eye)
    assert not product_is_identity(M, Y)


@SETTINGS
@given(matrices(max_n=3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 8),
       rationals.filter(bool))
def test_rectangular_product_is_identity_matches_sympy(M, r, c, index, bump):
    # Leading rows of M times leading columns of M^-1: eye(r, c), i.e. I, [I O] or [I; O].
    try:
        inv = M.inverse()
    except SingularMatrix:
        return
    n = M.rows
    r, c = min(r, n), min(c, n)
    X = M.submatrix((0, r), (0, n))
    Y = inv.submatrix((0, n), (0, c))
    eye = DomainMatrix.eye((r, c), QZ).to_dense()
    assert oracle(X) * oracle(Y) == eye
    assert product_is_identity(X, Y)
    # Bump Y[k, j] where column k of X is nonzero: column j of X Y moves off eye(r, c).
    k = next(k for k in range(n) if any(not X[i, k].is_zero for i in range(r)))
    ents = list(Y.entries)
    ents[k * c + index % c] += bump
    bumped = TransferMatrix(n, c, ents)
    assert product_is_identity(X, bumped) == (oracle(X) * oracle(bumped) == eye)
    assert not product_is_identity(X, bumped)
    if n > 1:
        # Rows 1..n-1 of M against M^-1 put the ones below the main diagonal.
        shifted = M.submatrix((1, n), (0, n))
        assert not product_is_identity(shifted, inv)
        assert oracle(shifted) * oracle(inv) != DomainMatrix.eye((n - 1, n), QZ).to_dense()


@SETTINGS
@given(matrices(max_n=3), st.integers(1, 3), st.data())
def test_inverse_hands_back_exact_columns(M, r, data):
    # The inverse memoizes S's columns as (Q, m) over the uncancelled
    # determinant. Each must be exact, a product must not tell them from
    # columns cleared afresh, and no reader may change the memo's lists
    # (S's entries can share them).
    try:
        inv = M.inverse()
    except SingularMatrix:
        return
    assert inv._memo[0] is None
    columns = copy.deepcopy(matrix._lines(inv, 1))
    n = M.rows
    assert len(columns) == n
    for j, (Q, m) in enumerate(matrix._lines(inv, 1)):
        assert [RationalFunction(Polynomial(q), Polynomial(m)) for q in Q] == \
            [inv[i, j] for i in range(n)]
    X = TransferMatrix(r, n, data.draw(st.lists(ratfuns, min_size=r * n, max_size=r * n)))
    assert X * inv == X * TransferMatrix(n, n, inv.entries)
    assert product_is_identity(M, inv) and product_is_identity(inv, M)
    assert matrix._lines(inv, 1) == columns


def test_hand_offs_of_one_width_are_reused_only_when_it_holds_their_product():
    # Both inverses pack at k = 23: A's rows have bound 1002 and 2 * 1002 *
    # prod r = 4016016, and S's columns have bound 2 * 126^2 with 2 * 126^3
    # = 4000752. Their product needs 26 bits: (l_0 m_0)(z) = 15625 (z - 1000)
    # does not fit 23, so A * S packs afresh.
    A = TransferMatrix.from_rows([[RationalFunction(1, Z - 1000), 0], [0, 1]])
    B = TransferMatrix.constant([[125, 0], [0, 125]])
    A.inverse()
    S = B.inverse()
    assert A._memo[2][1] == S._memo[3][1] == 23
    assert _width(A._memo[2][2] * S._memo[3][2]) == 26
    plain = TransferMatrix(2, 2, S.entries)
    assert A * S == A * plain == TransferMatrix.from_rows(
        [[RationalFunction(Fraction(1, 125), Z - 1000), 0], [0, Fraction(1, 125)]])
    assert not product_is_identity(A, S)
    assert product_is_identity(A, A.inverse()) and product_is_identity(B, S)


@st.composite
def loops(draw):
    """D (n x k) and X (k x n): zero rows of D, columns of X over their own
    denominators, and a row j of D with D_j . X_j = 1, which zeroes the
    pivot (j, j) of I - D X, or with every other row zero makes it singular."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    D = draw(st.lists(ratfuns, min_size=n * k, max_size=n * k))
    X = draw(st.lists(ratfuns, min_size=k * n, max_size=k * n))
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        D[i * k:(i + 1) * k] = [RationalFunction(0)] * k
    if draw(st.booleans()):
        dens = draw(st.lists(polys(2).filter(lambda p: not p.is_zero), min_size=n, max_size=n))
        nums = draw(st.lists(polys(2), min_size=k * n, max_size=k * n))
        X = [RationalFunction(num, dens[e % n]) for e, num in enumerate(nums)]
    j = draw(st.integers(0, n - 1))
    column = X[j::n]
    p = next((p for p, e in enumerate(column) if not e.is_zero), None)
    if p is not None and draw(st.booleans()):
        if draw(st.booleans()):
            # Only row j of D X is nonzero and its diagonal entry is 1.
            D = [RationalFunction(0)] * (n * k)
        row = draw(st.lists(ratfuns, min_size=k, max_size=k))
        rest = sum((row[q] * column[q] for q in range(k) if q != p), RationalFunction(0))
        row[p] = (1 - rest) / column[p]
        D[j * k:(j + 1) * k] = row
    return TransferMatrix(n, k, D), TransferMatrix(k, n, X)


@SETTINGS
@given(loops())
def test_loop_determinant_matches_determinant(loop):
    D, X = loop
    det = loop_determinant(D, X)
    assert det == (TransferMatrix.identity(D.rows) - D * X).determinant()
    assert det == RationalFunction(det.num, det.den)  # canonical


def test_loop_determinant_examples_and_shape_errors():
    D = TransferMatrix(1, 2, [RationalFunction(1), RationalFunction(Z)])
    X = TransferMatrix(2, 1, [RationalFunction(1 - Z), RationalFunction(1)])
    assert loop_determinant(D, X).is_zero  # D X = 1
    # I - X = [[0, -1], [-1, 1]] needs a row exchange: det = -1.
    X = TransferMatrix.constant([[1, 1], [1, 0]])
    assert loop_determinant(TransferMatrix.identity(2), X) == RationalFunction(-1)
    with pytest.raises(DimensionMismatch):
        loop_determinant(D, D)
    with pytest.raises(DimensionMismatch):
        loop_determinant(D, TransferMatrix.zeros(2, 2))


@st.composite
def square_pairs(draw):
    """X and Y of one size; Y is sometimes X^-1, or X^-1 with one entry bumped."""
    n = draw(st.integers(1, 3))
    X = TransferMatrix(n, n, draw(st.lists(ratfuns, min_size=n * n, max_size=n * n)))
    Y = TransferMatrix(n, n, draw(st.lists(ratfuns, min_size=n * n, max_size=n * n)))
    if draw(st.booleans()):
        try:
            Y = X.inverse()
        except SingularMatrix:
            return X, Y
        if draw(st.booleans()):
            ents = list(Y.entries)
            ents[draw(st.integers(0, n * n - 1))] += draw(rationals.filter(bool))
            Y = TransferMatrix(n, n, ents)
    return X, Y


@SETTINGS
@given(square_pairs())
def test_square_product_is_identity_is_symmetric(pair):
    # Over the field Q(z) a one-sided inverse of a square matrix is two-sided.
    X, Y = pair
    assert product_is_identity(X, Y) == product_is_identity(Y, X)


# Integer polynomials for the shared-denominator pass: small factors, z, and
# contents and signs on the determinant.
int_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=3).map(_int_strip)
factors = int_polys.filter(lambda p: len(p) > 1)


@st.composite
def over_determinant_cases(draw):
    """d = sign * content * (a product of drawn factors, possibly z and none),
    and entries N that are zero, or carry a factor of d, a power of z or neither."""
    shared = draw(st.lists(factors | st.just([0, 1]), max_size=3))
    d = [draw(st.sampled_from([1, -1, 2, -6, 2 ** 24, -3 * 2 ** 40]))]
    for f in shared:
        d = _int_mul(d, f)
    nums = []
    for _ in range(draw(st.integers(1, 8))):
        N = draw(int_polys)
        for f in draw(st.lists(st.sampled_from(shared + [[0, 1], [0, 0, 1]]), max_size=2)
                      if shared else st.just([])):
            N = _int_mul(N, f)
        nums.append(N)
    return nums, d


def reference_entries(nums, d):
    return [RationalFunction(_canon(list(N), 1), _canon(list(d), 1)) for N in nums]


def over_determinant(nums, d):
    """_over_determinant's entries for nums and d packed at the least width
    that holds them, which is also one that makes its certificate valid."""
    k = _width(max(map(_norm, nums + [d])))
    return _over_determinant([_pack(N, k) for N in nums], d, k)[0]


# z^8 - 1 over 3 (z + 1) at k = 4: the quotient's digits at 2^4 are not
# those of z^7 - z^6 + ... - 1, whose |p|_1 |h|_inf = 8 is not below 2^3.
NORM_FALLBACK = [-1, 0, 0, 0, 0, 0, 0, 0, 1]


@SETTINGS
@given(over_determinant_cases())
@example(([[0], [3], [0, 5]], [7]))  # zero entries over a constant d
@example(([[1, 1], [-2, 0, 2], [4, 4]], [-6, -12, -6]))  # (z + 1)^2 with content and sign
@example(([NORM_FALLBACK], [3, 3]))
@example(([[0, 3, 3], [2, 0, -2], [5, 1], [0]], [-2, -2]))  # -2 (z + 1): negative content
def test_shared_denominator_pass_matches_the_constructor(case):
    nums, d = case
    divided = []
    divides = matrix._int_divides
    with mock.patch.object(matrix, "_int_divides", lambda b, a: divided.append(a) or divides(b, a)):
        assert over_determinant(nums, d) == reference_entries(nums, d)
    if nums == [NORM_FALLBACK]:
        assert NORM_FALLBACK in divided


def test_rejected_candidate_takes_the_full_constructor(monkeypatch):
    # With every division check failing, each entry that shares a factor
    # with d goes through RationalFunction(N, d), and the results stay equal.
    checks = []
    monkeypatch.setattr(matrix, "_int_divides", lambda b, a: checks.append(b) and None)
    d = _int_mul([-4, 1], _int_mul([1, 1], [3]))  # 3 (z - 4)(z + 1)
    nums = [[1, 1], [2, -6, -8], [0, 5, 5], [0], [7, 0, 1]]
    assert over_determinant(nums, d) == reference_entries(nums, d)
    assert checks
