import pickle
import random
from fractions import Fraction

import pytest

from realstab import matrix
from realstab.errors import DimensionMismatch, SingularMatrix
from realstab.matrix import (StateSpace, TransferMatrix, block_matrix, hstack, loop_determinant,
                             product_is_identity, vstack)
from realstab.ratfun import RationalFunction

from conftest import HALF, Z, random_proper_tm, rf


def test_identity_is_neutral(rng):
    X = random_proper_tm(rng, 3, 3)
    assert TransferMatrix.identity(3) * X == X
    assert X * TransferMatrix.identity(3) == X


def test_inverse_pair_product():
    assert TransferMatrix(1, 1, [rf(1, Z)]) * TransferMatrix(1, 1, [rf(Z)]) \
        == TransferMatrix.identity(1)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        TransferMatrix.zeros(2, 2) * TransferMatrix.zeros(3, 3)
    with pytest.raises(DimensionMismatch):
        TransferMatrix.zeros(2, 2) + TransferMatrix.zeros(2, 3)
    with pytest.raises(DimensionMismatch):
        TransferMatrix(2, 2, [rf(0)] * 3)


def test_inverse_of_identity():
    eye = TransferMatrix.identity(3)
    assert eye.inverse() == eye


def test_inverse_closed_loop_oracle():
    # [[1, -1/z], [-1/2, 1]]^-1 scaled by 2z/(2z-1)
    M = TransferMatrix.from_rows([[rf(1), rf(-1, Z)], [rf(-HALF), rf(1)]])
    expected = TransferMatrix.from_rows([
        [rf(2 * Z, 2 * Z - 1), rf(2, 2 * Z - 1)],
        [rf(Z, 2 * Z - 1), rf(2 * Z, 2 * Z - 1)],
    ])
    assert M.inverse() == expected


def test_inverse_unipotent():
    M = TransferMatrix.from_rows([[rf(1), rf(Z)], [rf(0), rf(1)]])
    assert M.inverse() == TransferMatrix.from_rows([[rf(1), rf(-Z)], [rf(0), rf(1)]])


def test_singular_matrix_raises():
    M = TransferMatrix.from_rows([[rf(1), rf(1)], [rf(1), rf(1)]])
    with pytest.raises(SingularMatrix):
        M.inverse()


def test_random_inverse_roundtrip(rng):
    eye = TransferMatrix.identity(3)
    done = 0
    while done < 15:
        X = random_proper_tm(rng, 3, 3)
        try:
            Xi = X.inverse()
        except SingularMatrix:
            continue
        assert X * Xi == eye
        assert Xi * X == eye
        done += 1


def test_dense_inverse_at_size():
    # Dense I - M/4 at 8 x 8: 64 result entries are reduced against a
    # degree-58 determinant, each by one gcd.
    A = TransferMatrix.identity(8) - random_proper_tm(random.Random(0), 8, 8) * Fraction(1, 4)
    S = A.inverse()
    assert product_is_identity(A, S)
    assert product_is_identity(S, A)


def test_determinant_2x2_cofactor(rng):
    for _ in range(20):
        X = random_proper_tm(rng, 2, 2)
        det = X.determinant()
        assert det == X[0, 0] * X[1, 1] - X[0, 1] * X[1, 0]


def test_determinant_multiplicative(rng):
    X = random_proper_tm(rng, 3, 3)
    Y = random_proper_tm(rng, 3, 3)
    assert (X * Y).determinant() == X.determinant() * Y.determinant()


def test_blocks_and_submatrices():
    blocks = (("x", 1), ("u", 2))
    M = TransferMatrix(3, 3, [rf(k) for k in range(9)], blocks, blocks)
    assert M.block("x", "u") == TransferMatrix(1, 2, [rf(1), rf(2)])
    assert M.block("u", "x") == TransferMatrix(2, 1, [rf(3), rf(6)])
    with pytest.raises(KeyError):
        M.block("x", "nope")


def test_block_sizes_validated():
    with pytest.raises(DimensionMismatch):
        TransferMatrix.zeros(3, 3, row_blocks=(("a", 1), ("b", 1)))
    with pytest.raises(DimensionMismatch):
        TransferMatrix.zeros(2, 2, row_blocks=(("a", 1), ("a", 1)))


def test_block_matrix_assembly():
    A = TransferMatrix.identity(2)
    B = TransferMatrix.zeros(2, 1)
    C = TransferMatrix.zeros(1, 2)
    D = TransferMatrix.identity(1)
    M = block_matrix([[A, B], [C, D]])
    assert M == TransferMatrix.identity(3)
    with pytest.raises(DimensionMismatch):
        hstack([A, TransferMatrix.zeros(3, 1)])
    with pytest.raises(DimensionMismatch):
        vstack([A, TransferMatrix.zeros(1, 3)])


def test_transpose():
    M = TransferMatrix(1, 2, [rf(1), rf(2)])
    assert M.transpose() == TransferMatrix(2, 1, [rf(1), rf(2)])


def test_scalar_scaling():
    M = TransferMatrix.identity(2)
    assert M.scale(Fraction(1, 2))[0, 0] == RationalFunction(HALF)
    assert (2 * M)[1, 1] == RationalFunction(2)


def test_statespace_validation():
    with pytest.raises(DimensionMismatch):
        StateSpace([[0, 1]], [[1]], [[1]], [[0]])
    with pytest.raises(DimensionMismatch):
        StateSpace([[0]], [[1], [1]], [[1]], [[0]])
    with pytest.raises(DimensionMismatch):
        StateSpace([[0]], [[1]], [[1]], [[0, 0]])
    with pytest.raises(DimensionMismatch):
        StateSpace(TransferMatrix(1, 1, [rf(Z)]), [[1]], [[1]], [[0]])


def test_statespace_data_are_constant_transfer_matrices():
    grids = ([[HALF, 0], [-1, Fraction(1, 3)]], [[1], [0]], [[0, 2]], [[Fraction(-1, 4)]])
    constants = [TransferMatrix.constant(g) for g in grids]
    from_grids = StateSpace(*grids)
    assert from_grids == StateSpace(*constants)
    assert [from_grids.A, from_grids.B, from_grids.C, from_grids.D] == constants
    assert all(TransferMatrix.constant(X) is X for X in constants)


def test_statespace_transfer_integrator():
    ss = StateSpace([[0]], [[1]], [[1]], [[0]])
    assert ss.transfer() == TransferMatrix(1, 1, [rf(1, Z)])
    assert ss.z_minus_a() == TransferMatrix(1, 1, [rf(Z)])


def test_statespace_transfer_with_feedthrough():
    ss = StateSpace([[HALF]], [[1]], [[2]], [[1]])
    # 2/(z - 1/2) + 1 = (z + 3/2)/(z - 1/2)
    assert ss.transfer() == TransferMatrix(1, 1, [rf(Z + Fraction(3, 2), Z - HALF)])


def test_pickle_round_trip(rng):
    # Exact values survive pickling: equal, equally hashed, same partition.
    X = random_proper_tm(rng, 2, 3)
    X = X.with_blocks((("a", 1), ("b", 1)), (("c", 2), ("d", 1)))
    wide = rf(Z * Fraction(1, 2 ** 40) - Fraction(3, 2 ** 24), Z * Z - HALF)
    for value in (wide.num, wide.den, wide, X):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and hash(back) == hash(value)
    back = pickle.loads(pickle.dumps(X))
    assert back.row_blocks == X.row_blocks and back.col_blocks == X.col_blocks
    assert back * back.transpose() == X * X.transpose()
    # With its memo of cleared rows and columns filled, a matrix pickles to the same value.
    M = random_proper_tm(rng, 3, 3) + TransferMatrix.identity(3)
    product = M * M
    inverse = M.inverse()
    back = pickle.loads(pickle.dumps(M))
    assert back == M and hash(back) == hash(M)
    assert back.inverse() == inverse and back * back == product


def test_empty_block_lists_raise():
    for build in (lambda: block_matrix([]), lambda: block_matrix([[]]),
                  lambda: hstack([]), lambda: vstack([])):
        with pytest.raises(DimensionMismatch, match="empty list"):
            build()


def _fresh(M):
    return TransferMatrix(M.rows, M.cols, M.entries)


def test_repeated_operations_match_fresh_copies(rng):
    # Each operation reads the operands' memo of cleared lines; a consumer
    # that mutated those lists would change the second result.
    X = random_proper_tm(rng, 3, 3) + TransferMatrix.identity(3)
    integers = TransferMatrix.from_rows([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
    for A, B in ((X, integers), (integers, X), (X, X),
                 (TransferMatrix(1, 1, [rf(Z)]), TransferMatrix(1, 1, [rf(1, Z - HALF)]))):
        inverse = _fresh(A).inverse()
        for _ in range(2):
            assert A.inverse() == inverse
            assert A.determinant() == _fresh(A).determinant()
            assert A * B == _fresh(A) * _fresh(B)
            assert product_is_identity(A, inverse) and product_is_identity(inverse, A)
            assert not product_is_identity(A, B + TransferMatrix.identity(B.rows))
            assert loop_determinant(A, B) == loop_determinant(_fresh(A), _fresh(B))
            assert A == _fresh(A) and hash(A) == hash(_fresh(A))


def test_with_blocks_shares_the_cleared_lines(monkeypatch, rng):
    X = random_proper_tm(rng, 2, 3)
    right = X.transpose()
    product = X * right  # clears the rows of X and the columns of right
    calls = []
    cleared = matrix._cleared
    monkeypatch.setattr(matrix, "_cleared", lambda line: calls.append(1) or cleared(line))
    Y = X.with_blocks((("a", 1), ("b", 1)), (("c", 3),))
    assert Y == X and Y * right == product and product_is_identity(Y, right) is False
    assert calls == []
    with pytest.raises(DimensionMismatch):
        X.with_blocks((("a", 1),), None)
