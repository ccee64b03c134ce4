"""Transfer matrices over exact rational functions, plus state-space records.

A TransferMatrix is a dense rows x cols grid of RationalFunction entries,
optionally carrying named block partitions on its rows and columns. It is
the one exact matrix type: state-space data and gains are constant
TransferMatrixes. All algebra is exact; equality is structural equality of
the canonical entries (partitions are metadata, not compared).

Inverse, determinant, resolvent and products share one packed kernel.
Each row (or column) is cleared to integer polynomials over one scale, and
each of those is packed once into one integer, its value at z = 2^k
(Kronecker substitution). The fraction-free elimination (Bareiss 1968) and
the dot products P_i . Q_j run on those integers, and each result is
unpacked once, as balanced base-2^k digits, and canonicalized once.
Evaluation is a ring map, so each exact division stays exact. k holds an
l1 bound on every value unpacked or compared, so unpacking and the zero
and equality tests are exact too: in an elimination every such value is
a minor of the input, and a minor's l1 norm is at most the product of
its rows' (expand it over permutations).

The inverse eliminates [P | diag(l)], the rows cleared to M = diag(l)^-1 P,
to [d I | d P^-1 diag(l)]: the right half is the numerators N of
M^-1 = N / d. It reduces the n^2 entries over the one d in one pass
(_over_determinant): one integer gcd per entry finds its common factor
with d, or proves there is none. On a 2-core Xeon VM (Python 3.11),
I - M/4 with dense random proper entries of degree up to 2 (seeds 0-4,
best of 5 on fresh copies, two runs) inverts in 4-11 ms at 6 x 6,
12-36 ms at 7 x 7 and 40-100 ms at 8 x 8. At 8 x 8 (seed 0) the
elimination takes 41 ms of 61 ms; reducing the 64 entries over the
degree-58 determinant takes most of the rest.

Each matrix clears its rows, and its columns as the right operand of a
product, at most once (_lines). An inverse arrives with its columns
already memoized as (N's column, d), so no product clears them. Internal
results are built from their canonical entries without coercing them
again (TransferMatrix._trusted).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod
from operator import mul

import numpy as np

from .errors import DimensionMismatch, SingularMatrix
from .poly import (
    _ONE,
    Polynomial,
    _candidate,
    _canon,
    _int_divides,
    _int_exact_div,
    _int_mul,
    _pack,
    _raw,
    _unpack,
    poly_gcd,
)
from .ratfun import RationalFunction, as_ratfun

Blocks = tuple[tuple[str, int], ...]

# Shared entries; a RationalFunction is immutable once constructed.
_ZERO_ENTRY = RationalFunction(0)
_ONE_ENTRY = RationalFunction(1)


def _as_entry(value) -> RationalFunction:
    rf = as_ratfun(value)
    if rf is NotImplemented:
        raise TypeError(f"cannot use {type(value).__name__} as a matrix entry")
    return rf


def _check_blocks(blocks, total: int, axis: str) -> Blocks | None:
    if blocks is None:
        return None
    out = tuple((str(label), int(size)) for label, size in blocks)
    if any(size <= 0 for _, size in out):
        raise DimensionMismatch(f"{axis} block sizes must be positive: {out}")
    if sum(size for _, size in out) != total:
        raise DimensionMismatch(f"{axis} blocks {out} do not sum to {total}")
    labels = [label for label, _ in out]
    if len(set(labels)) != len(labels):
        raise DimensionMismatch(f"duplicate {axis} block labels: {labels}")
    return out


def _partitions(rows: int, cols: int, row_blocks, col_blocks):
    """The checked (row, col) partitions of a rows x cols matrix, with rows and cols positive."""
    if rows <= 0 or cols <= 0:
        raise DimensionMismatch("matrix dimensions must be positive")
    return _check_blocks(row_blocks, rows, "row"), _check_blocks(col_blocks, cols, "col")


def _block_span(blocks: Blocks, label: str) -> tuple[int, int]:
    start = 0
    for name, size in blocks:
        if name == label:
            return start, start + size
        start += size
    raise KeyError(f"no block labelled {label!r}")


# -- fraction-free elimination on packed integers -----------------------------


def _cleared(line) -> tuple[list[list[int]], list[int]]:
    """A line of entries as (P, l), integer polynomials with line[k] == P[k] / l.

    l is an integer times the lcm of the line's denominators. A canonical
    denominator is monic, so its numerators are primitive with a positive
    leading term, and every division below is exact in Z[z]. A constant
    denominator, one equal to the running lcm and a scalar factor of 1 take
    no polynomial product.
    """
    den_lcm = _ONE
    s = 1
    for e in line:
        num = e.num
        if not num._n[-1]:  # is_zero, without the property call
            continue
        s = lcm(s, num._d)
        den = e.den
        if den is den_lcm or den.is_one:
            continue
        if den_lcm is _ONE:
            den_lcm = den
        elif den != den_lcm:
            g = poly_gcd(den_lcm, den)
            grow = den._n if g.is_one else _int_exact_div(den._n, g._n)
            grown = _int_mul(den_lcm._n, grow)
            den_lcm = _raw(grown, grown[-1])
    L = den_lcm._n
    P = []
    for e in line:
        num, den = e.num, e.den
        if not num._n[-1]:
            P.append([0])
            continue
        # num / den = (n / d) / (dn / dd) = n dd / (d dn), times s L / (s L).
        c = den._d * s // num._d
        p = num._n if c == 1 else [c * x for x in num._n]
        if den._n is L or den._n == L:
            P.append(p)
        else:
            P.append(_int_mul(p, L if den.is_one else _int_exact_div(L, den._n)))
    return P, L if s == 1 else [s * x for x in L]


def _norm(p: list[int]) -> int:
    """The l1 norm of an integer polynomial, a bound on each coefficient."""
    return sum(map(abs, p))


def _width(bound: int) -> int:
    """Least k whose balanced base-2^k digits hold every integer of size <= bound."""
    return bound.bit_length() + 1


def _lines(M: TransferMatrix, axis: int) -> list[tuple[list[list[int]], list[int]]]:
    """M's rows (axis 0) or columns (axis 1) as (P, l) with M's line k equal
    to P[k] / l, found once and memoized on M. A row keeps _cleared's
    contract: l is an integer times the lcm of the row's denominators. A
    column may be any exact (Q, m); inverse fills S's columns over the
    uncancelled determinant. with_blocks shares the memo; callers never
    mutate it."""
    memo = M._memo
    if memo is None:
        memo = M._memo = [None, None]
    if memo[axis] is None:
        memo[axis] = ([_cleared(M.row(i)) for i in range(M.rows)] if axis == 0 else
                      [_cleared(M.entries[j::M.cols]) for j in range(M.cols)])
    return memo[axis]


def _packed_rows(M: TransferMatrix):
    """The rows of M cleared to (P_i, l_i), as (packed P_i, l_i, k), with k
    for their minors."""
    cleared = _lines(M, 0)
    k = _width(prod(max(1, sum(map(_norm, P))) for P, _ in cleared))
    return [[_pack(p, k) for p in P] for P, _ in cleared], [l for _, l in cleared], k


def _bareiss(work, n: int, jordan: bool) -> tuple[int | None, int]:
    """Fraction-free elimination of the first n columns of work, in place.

    work is n rows of integer polynomials packed at a width that holds
    prod max(1, r) over their l1 norms r, a bound on every minor. Each
    update (p a_ij - a_ik a_kj) / prev divides exactly and leaves a minor.
    The forward pass updates the rows below each pivot; with jordan, every
    other row, so that the first n columns end at d I (only their entries
    right of the pivot column are written). Returns (d, swaps): d is the
    last pivot, +-det of the first n columns, or None when they are
    singular; swaps counts row exchanges.
    """
    prev = 1
    swaps = 0
    for c in range(n):
        piv = next((r for r in range(c, n) if work[r][c]), None)
        if piv is None:
            return None, swaps
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            swaps += 1
        prow = work[c]
        p = prow[c]
        tail = prow[c + 1:]
        for i in range(n) if jordan else range(c + 1, n):
            row = work[i]
            f = row[c]
            if i == c or (not f and p == prev):
                continue
            row[c + 1:] = [(p * a - f * b) // prev for a, b in zip(row[c + 1:], tail)]
        prev = p
    return prev, swaps


def _eliminated(work, k: int) -> list[int]:
    """det(work) for n packed rows of width k, unpacked; [0] when singular."""
    det, swaps = _bareiss(work, len(work), jordan=False)
    if det is None:
        return [0]
    return _unpack(-det if swaps & 1 else det, k)


def _determinant(work, scales, k: int) -> RationalFunction:
    """det(work) / prod(scales), canonicalized, for n packed rows of width k."""
    N = _eliminated(work, k)
    if not N[-1]:
        return _ZERO_ENTRY
    return RationalFunction(_canon(N, 1), _canon(reduce(_int_mul, scales), 1))


def _over_determinant(nums: list[list[int]], d: list[int]) -> list[RationalFunction]:
    """The canonical N / d for every integer polynomial N of nums, d nonzero.

    pp(d), its value at xi = 2^k >= 2 |pp(d)|_inf + 29 and the monic d are
    found once. A nonconstant G dividing pp(d) has every root below
    1 + |pp(d)|_inf (Cauchy), so |G(xi)| > xi / 2; when G also divides N,
    G(xi) divides gcd(N(xi), pp(d)(xi)). So a gcd <= xi / 2 certifies N
    coprime to d (Char, Geddes & Gonnet 1989), and N / d is N / lc(d) over
    the monic d. Otherwise the balanced base-xi digits of the gcd give a
    candidate h that, by their theorem, is the gcd once it divides both N
    and pp(d) exactly; pp(d) / h is found once per distinct h, and an
    entry whose candidate fails takes the full constructor.
    """
    content = gcd(*d) if d[-1] > 0 else -gcd(*d)
    pd = [c // content for c in d]
    monic = _raw(pd, pd[-1])
    k = (2 * max(map(abs, pd)) + 29).bit_length()
    half = 1 << (k - 1)
    at = _pack(pd, k)
    quotients = {}
    out = []
    for N in nums:
        if not N[-1]:
            out.append(_ZERO_ENTRY)
            continue
        g = gcd(_pack(N, k), at)
        if g <= half:
            p, q, den = N, pd, monic
        else:
            h = _candidate(g, k)
            key = tuple(h)
            if key not in quotients:
                quotients[key] = _int_divides(h, pd)
            q = quotients[key]
            p = None if q is None else _int_divides(h, N)
            if p is None:
                out.append(RationalFunction(_canon(N, 1), _canon(d, 1)))
                continue
            den = _raw(q, q[-1])
        if content < 0:
            p = [-c for c in p]
        # N / d = p / (content q) = p / (content lc(q)) over the monic q / lc(q).
        out.append(RationalFunction._reduced(_canon(p, abs(content) * q[-1]), den))
    return out


class TransferMatrix:
    """Dense matrix of canonical rational functions with optional partitions."""

    # _memo holds what _lines has found; it is not part of the value.
    __slots__ = ("rows", "cols", "entries", "row_blocks", "col_blocks", "_memo")

    def __init__(self, rows, cols, entries, row_blocks=None, col_blocks=None):
        rows = int(rows)
        cols = int(cols)
        blocks = _partitions(rows, cols, row_blocks, col_blocks)
        ents = tuple(_as_entry(e) for e in entries)
        if len(ents) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(ents)}"
            )
        self.rows, self.cols, self.entries = rows, cols, ents
        self.row_blocks, self.col_blocks, self._memo = *blocks, None

    @classmethod
    def _trusted(cls, rows, cols, entries, row_blocks=None, col_blocks=None, memo=None):
        # Trusted constructor: rows * cols RationalFunction entries, checked partitions.
        obj = object.__new__(cls)
        obj.rows, obj.cols, obj.entries = rows, cols, tuple(entries)
        obj.row_blocks, obj.col_blocks, obj._memo = row_blocks, col_blocks, memo
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows_of_entries, row_blocks=None, col_blocks=None) -> "TransferMatrix":
        rows = len(rows_of_entries)
        if rows == 0:
            raise DimensionMismatch("matrix needs at least one row")
        cols = len(rows_of_entries[0])
        if any(len(r) != cols for r in rows_of_entries):
            raise DimensionMismatch("ragged rows")
        flat = [e for row in rows_of_entries for e in row]
        return cls(rows, cols, flat, row_blocks, col_blocks)

    @classmethod
    def identity(cls, n, row_blocks=None, col_blocks=None) -> "TransferMatrix":
        blocks = _partitions(n, n, row_blocks, col_blocks)
        ents = [_ONE_ENTRY if i == j else _ZERO_ENTRY for i in range(n) for j in range(n)]
        return cls._trusted(n, n, ents, *blocks)

    @classmethod
    def zeros(cls, rows, cols, row_blocks=None, col_blocks=None) -> "TransferMatrix":
        blocks = _partitions(rows, cols, row_blocks, col_blocks)
        return cls._trusted(rows, cols, [_ZERO_ENTRY] * (rows * cols), *blocks)

    @classmethod
    def constant(cls, grid) -> "TransferMatrix":
        """Matrix of constants from nested rationals, or a constant TransferMatrix as is."""
        if isinstance(grid, TransferMatrix):
            if not all(e.is_constant for e in grid.entries):
                raise DimensionMismatch(f"expected a matrix of constants, got {grid!r}")
            return grid
        return cls.from_rows([[RationalFunction(Fraction(v)) for v in row] for row in grid])

    # -- access ------------------------------------------------------------

    def __getitem__(self, key) -> RationalFunction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i) -> tuple[RationalFunction, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_proper(self) -> bool:
        return all(e.is_proper for e in self.entries)

    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    def submatrix(self, row_range, col_range) -> "TransferMatrix":
        r0, r1 = row_range
        c0, c1 = col_range
        _partitions(r1 - r0, c1 - c0, None, None)
        ents = [self[i, j] for i in range(r0, r1) for j in range(c0, c1)]
        return TransferMatrix._trusted(r1 - r0, c1 - c0, ents)

    def block(self, row_label: str, col_label: str) -> "TransferMatrix":
        if self.row_blocks is None or self.col_blocks is None:
            raise DimensionMismatch("matrix carries no block partition")
        return self.submatrix(_block_span(self.row_blocks, row_label),
                              _block_span(self.col_blocks, col_label))

    def with_blocks(self, row_blocks, col_blocks) -> "TransferMatrix":
        blocks = _partitions(self.rows, self.cols, row_blocks, col_blocks)
        return TransferMatrix._trusted(self.rows, self.cols, self.entries, *blocks, self._memo)

    # -- algebra -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransferMatrix):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(repr(e) for e in self.row(i)) for i in range(self.rows))
        return f"[{body}]"

    def __add__(self, other) -> "TransferMatrix":
        if not isinstance(other, TransferMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        ents = [a + b for a, b in zip(self.entries, other.entries)]
        return TransferMatrix._trusted(self.rows, self.cols, ents,
                                       self.row_blocks or other.row_blocks,
                                       self.col_blocks or other.col_blocks)

    def __sub__(self, other) -> "TransferMatrix":
        if not isinstance(other, TransferMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TransferMatrix":
        return TransferMatrix._trusted(self.rows, self.cols, [-e for e in self.entries],
                                       self.row_blocks, self.col_blocks)

    def scale(self, factor) -> "TransferMatrix":
        f = _as_entry(factor)
        return TransferMatrix._trusted(self.rows, self.cols, [f * e for e in self.entries],
                                       self.row_blocks, self.col_blocks)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial, RationalFunction)):
            return self.scale(other)
        if not isinstance(other, TransferMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        # (X Y)_ij = P_i . Q_j / (l_i m_j), canonicalized once.
        rows, cols, k = _packed_lines(self, other)
        out = [RationalFunction(_canon(_unpack(sum(map(mul, P, Q)), k), 1),
                                _canon(_unpack(l * m, k), 1))
               for P, l in rows for Q, m in cols]
        return TransferMatrix._trusted(self.rows, other.cols, out,
                                       self.row_blocks, other.col_blocks)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial, RationalFunction)):
            return self.scale(other)
        return NotImplemented

    def transpose(self) -> "TransferMatrix":
        ents = [self[j, i] for i in range(self.cols) for j in range(self.rows)]
        return TransferMatrix._trusted(self.cols, self.rows, ents,
                                       self.col_blocks, self.row_blocks)

    def inverse(self) -> "TransferMatrix":
        """Exact inverse by fraction-free Gauss-Jordan elimination.

        With M = diag(l)^-1 P (rows cleared), M^-1 = P^-1 diag(l), and the
        elimination of [P | diag(l)] ends at [d I | d P^-1 diag(l)] with
        d = +-det P: its right half is the numerators N of M^-1 = N / d. The
        result's column memo holds column j as (N[j::n], d), uncancelled.
        """
        if not self.is_square:
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.rows
        cleared = _lines(self, 0)
        k = _width(prod(_norm(l) + sum(map(_norm, P)) for P, l in cleared))
        work = [[_pack(p, k) for p in P] + [_pack(l, k) if i == j else 0 for j in range(n)]
                for i, (P, l) in enumerate(cleared)]
        d = _bareiss(work, n, jordan=True)[0]
        if d is None:
            raise SingularMatrix("matrix is singular as a rational matrix")
        N = [_unpack(v, k) for row in work for v in row[n:]]
        d = _unpack(d, k)
        return TransferMatrix._trusted(n, n, _over_determinant(N, d), self.col_blocks,
                                       self.row_blocks, [None, [(N[j::n], d) for j in range(n)]])

    def determinant(self) -> RationalFunction:
        """Exact determinant, det P / prod(l_i), from the forward elimination."""
        if not self.is_square:
            raise DimensionMismatch("determinant needs a square matrix")
        return _determinant(*_packed_rows(self))

    def evaluate(self, point: complex) -> np.ndarray:
        """Numeric value at a complex point, as a complex numpy array."""
        out = np.empty((self.rows, self.cols), dtype=complex)
        for i in range(self.rows):
            for j in range(self.cols):
                out[i, j] = self[i, j](complex(point))
        return out


def _packed_lines(X: TransferMatrix, Y: TransferMatrix):
    """The rows (P_i, l_i) of X and the columns (Q_j, m_j) of Y, cleared and
    packed, and their width k. In l1 norms, delta_ij l_i m_j - P_i . Q_j is
    at most |l_i| |m_j| + sum_k |P_ik| |Q_kj|, so at most
    (|l_i| + sum_k |P_ik|) (|m_j| + max_k |Q_kj|), which k holds."""
    rows = _lines(X, 0)
    cols = _lines(Y, 1)
    k = _width(max(_norm(l) + sum(map(_norm, P)) for P, l in rows)
               * max(_norm(m) + max(map(_norm, Q)) for Q, m in cols))
    return ([([_pack(p, k) for p in P], _pack(l, k)) for P, l in rows],
            [([_pack(q, k) for q in Q], _pack(m, k)) for Q, m in cols], k)


def product_is_identity(X: TransferMatrix, Y: TransferMatrix) -> bool:
    """True iff X Y has ones on its main diagonal and zeros everywhere else.

    For a square product that is I; a wide one must be [I O] and a tall
    one [I; O]. Decided without canonicalizing any entry: with the rows of
    X cleared to (P_i, l_i) and the columns of Y to (Q_j, m_j),
    (X Y)_ij = P_i . Q_j / (l_i m_j), so the packed test
    P_i . Q_j == delta_ij l_i m_j is exact. Stops at the first mismatch.
    """
    if X.cols != Y.rows:
        raise DimensionMismatch(f"cannot multiply {X.shape} by {Y.shape}")
    rows, cols, _ = _packed_lines(X, Y)
    return all(sum(map(mul, P, Q)) == (l * m if i == j else 0)
               for i, (P, l) in enumerate(rows) for j, (Q, m) in enumerate(cols))


def _cleared_loop(D: TransferMatrix, X: TransferMatrix):
    """(rows, (Q, m)) for _loop_rows: the rows of D cleared to (P_i, l_i) and
    X cleared over one denominator, Q its entries in row-major order."""
    if D.cols != X.rows or X.cols != D.rows:
        raise DimensionMismatch(f"{D.shape} and {X.shape} do not close a loop")
    return _lines(D, 0), _cleared(X.entries)


def _loop_rows(rows, cleared_X):
    """The rows of (I - D X) l_i m, packed, with the scales l_i and m and their width.

    rows are those of D as integer polynomials (P_i, l_i), D_ij = P_ij / l_i,
    with l_i any multiple of the row's denominators, and cleared_X is
    X = Q / m over one denominator. Row i of (I - D X) l_i m is
    delta_ij l_i m - P_i . Q_j, of l1 norm at most |l_i| |m| + sum_k |P_ik| |Q_k|
    (|Q_k| that of row k of Q), so det(I - D X) = det(rows) / (prod(l_i) m^n).
    """
    Q, m = cleared_X
    n = len(rows)
    q_norms = [sum(map(_norm, Q[r * n:(r + 1) * n])) for r in range(len(Q) // n)]
    k = _width(prod(max(1, _norm(l) * _norm(m) + sum(map(mul, map(_norm, P), q_norms)))
                    for P, l in rows))
    cols = [[_pack(q, k) for q in Q[j::n]] for j in range(n)]
    mk = _pack(m, k)
    work = []
    for i, (P, l) in enumerate(rows):
        P = [_pack(p, k) for p in P]
        work.append([(_pack(l, k) * mk if i == j else 0) - sum(map(mul, P, col))
                     for j, col in enumerate(cols)])
    return work, [l for _, l in rows] + [m] * n, k


def loop_determinant(D: TransferMatrix, X: TransferMatrix) -> RationalFunction:
    """det(I - D X), exact, without forming D X: the rows of (I - D X) l_i m
    are formed packed and eliminated once, and the ratio is canonicalized once."""
    return _determinant(*_loop_rows(*_cleared_loop(D, X)))


def _loop_numerator(rows, cleared_X) -> tuple[list[int], int]:
    """(N, s) with det(I - D X) = N / scale, uncancelled, for _loop_rows' rows
    of D and cleared X: N the eliminated integer polynomial ([0] when singular)
    and s the degree of the scale prod(l_i) m^n. Every zero of an l_i is 0 or
    a pole of row i of D, and every zero of m a pole of X, as for _cleared's."""
    work, scales, k = _loop_rows(rows, cleared_X)
    return _eliminated(work, k), sum(len(l) - 1 for l in scales)


def hstack(blocks: list[TransferMatrix]) -> TransferMatrix:
    if not blocks:
        raise DimensionMismatch("hstack needs at least one block, got an empty list")
    rows = blocks[0].rows
    if any(b.rows != rows for b in blocks):
        raise DimensionMismatch("hstack row mismatch")
    ents = []
    for i in range(rows):
        for b in blocks:
            ents.extend(b.row(i))
    return TransferMatrix._trusted(rows, sum(b.cols for b in blocks), ents)


def vstack(blocks: list[TransferMatrix]) -> TransferMatrix:
    if not blocks:
        raise DimensionMismatch("vstack needs at least one block, got an empty list")
    cols = blocks[0].cols
    if any(b.cols != cols for b in blocks):
        raise DimensionMismatch("vstack column mismatch")
    ents = []
    for b in blocks:
        ents.extend(b.entries)
    return TransferMatrix._trusted(sum(b.rows for b in blocks), cols, ents)


def block_matrix(grid, row_blocks=None, col_blocks=None) -> TransferMatrix:
    """Assemble a matrix from a 2-D grid of conforming TransferMatrix blocks."""
    stacked = vstack([hstack(list(row)) for row in grid])
    return stacked.with_blocks(row_blocks, col_blocks)


class StateSpace:
    """Exact discrete-time state-space data: A, B, C and D as constant TransferMatrixes."""

    __slots__ = ("A", "B", "C", "D")

    def __init__(self, A, B, C, D):
        self.A, self.B, self.C, self.D = (TransferMatrix.constant(X) for X in (A, B, C, D))
        if self.A.cols != self.n:
            raise DimensionMismatch("A must be square")
        if self.B.rows != self.n:
            raise DimensionMismatch("B must have as many rows as A")
        if self.C.cols != self.n:
            raise DimensionMismatch("C must have as many columns as A")
        if self.D.shape != (self.p, self.m):
            raise DimensionMismatch("D must be p x m")

    @property
    def n(self) -> int:
        return self.A.rows

    @property
    def m(self) -> int:
        return self.B.cols

    @property
    def p(self) -> int:
        return self.C.rows

    def __eq__(self, other):
        if not isinstance(other, StateSpace):
            return NotImplemented
        return (self.A, self.B, self.C, self.D) == (other.A, other.B, other.C, other.D)

    def __repr__(self):
        return f"StateSpace(n={self.n}, m={self.m}, p={self.p})"

    def z_minus_a(self) -> TransferMatrix:
        """The polynomial matrix zI - A."""
        z = Polynomial.z()
        n = self.n
        ents = [RationalFunction(z - e.num) if k % (n + 1) == 0 else -e
                for k, e in enumerate(self.A.entries)]
        return TransferMatrix._trusted(n, n, ents)

    def resolvent(self) -> TransferMatrix:
        """(zI - A)^-1, exact."""
        return self.z_minus_a().inverse()

    def transfer(self) -> TransferMatrix:
        """The plant map C (zI - A)^-1 B + D."""
        return self.C * self.resolvent() * self.B + self.D
