import cmath
from fractions import Fraction

import numpy as np
import pytest

from realstab.analysis import roots_of
from realstab.errors import DimensionMismatch, NotStable
from realstab.matrix import TransferMatrix
from realstab.mu import mu_destab_test, mu_m_matrix
from realstab.realization import Transformation, build_plant_controller, stability_matrix

from conftest import HALF, Z, random_stable_fir, random_stable_fir_tm, rf


def scalar_S():
    G = TransferMatrix(1, 1, [rf(1, Z)])
    K = TransferMatrix(1, 1, [rf(HALF)])
    return stability_matrix(build_plant_controller(G, K))


def test_identity_wrapping_returns_stability_matrix():
    S = scalar_S()
    T = Transformation(TransferMatrix.identity(2))
    assert mu_m_matrix(S, T, TransferMatrix.identity(2)) == S


def test_row_selection():
    S = scalar_S()
    T = Transformation(TransferMatrix.identity(2))
    F = TransferMatrix(1, 2, [rf(1), rf(0)])
    M = mu_m_matrix(S, T, F)
    assert M == TransferMatrix(1, 2, [rf(2 * Z, 2 * Z - 1), rf(2, 2 * Z - 1)])


def test_scaling_transformation_doubles():
    S = scalar_S()
    T = Transformation(2 * TransferMatrix.identity(2))
    M = mu_m_matrix(S, T, TransferMatrix.identity(2))
    assert M == 2 * S


def test_requires_stable_nominal():
    bad = TransferMatrix(1, 1, [rf(1, Z - 2)])
    T = Transformation(TransferMatrix.identity(1))
    with pytest.raises(NotStable):
        mu_m_matrix(bad, T, TransferMatrix.identity(1))


def test_shape_mismatch():
    S = scalar_S()
    T = Transformation(TransferMatrix.identity(3))
    with pytest.raises(DimensionMismatch):
        mu_m_matrix(S, T, TransferMatrix.identity(2))


def test_destab_zero_perturbation():
    M = TransferMatrix(1, 1, [rf(Z, 2 * Z - 1)])
    det_fn, verdict = mu_destab_test(M, TransferMatrix.zeros(1, 1))
    assert det_fn == rf(1)
    assert verdict.is_stable


def test_destab_boundary_witness():
    M = TransferMatrix(1, 1, [rf(Z, 2 * Z - 1)])
    det_fn, verdict = mu_destab_test(M, TransferMatrix.identity(1))
    assert det_fn == rf(Z - 1, 2 * Z - 1)
    assert verdict.status == "unstable"  # boundary roots count as destabilizing
    assert any(abs(root - 1.0) < 1e-9 for root, _ in verdict.witnesses)


def test_destab_identically_singular():
    M = TransferMatrix.identity(1)
    det_fn, verdict = mu_destab_test(M, TransferMatrix.identity(1))
    assert det_fn.is_zero
    assert verdict.status == "unstable"


def test_destab_interior_perturbation_stays_stable():
    M = TransferMatrix(1, 1, [rf(Z, 2 * Z - 1)])
    det_fn, verdict = mu_destab_test(M, TransferMatrix(1, 1, [rf(HALF)]))
    assert verdict.is_stable
    assert det_fn == rf(Fraction(3, 2) * Z - 1, 2 * Z - 1)


def test_destab_rectangular_analysis_matrix():
    M = TransferMatrix(1, 2, [rf(Z, 2 * Z - 1), rf(1, 2 * Z - 1)])
    delta = TransferMatrix(2, 1, [rf(HALF), rf(0)])
    det_fn, verdict = mu_destab_test(M, delta)
    # det(I - M delta) = 1 - z/(4z - 2) = (3z - 2)/(4z - 2)
    assert det_fn == rf(Fraction(3, 4) * Z - HALF, Z - HALF)
    assert verdict.is_stable
    destab = TransferMatrix(2, 1, [rf(1), rf(0)])
    _, verdict2 = mu_destab_test(M, destab)
    assert verdict2.status == "unstable"


def test_destab_square_uses_closed_loop_map():
    # (I - M D)^-1 M = [[0, 0], [0, 1/(z - 3/2)]] has one pole at 3/2;
    # M (I - M D)^-1 would list it twice.
    M = TransferMatrix.from_rows([[rf(0), rf(0)], [rf(0), rf(1, Z - HALF)]])
    delta = TransferMatrix.from_rows([[rf(0), rf(0)], [rf(HALF), rf(1)]])
    det_fn, verdict = mu_destab_test(M, delta)
    assert det_fn == rf(Z - Fraction(3, 2), Z - HALF)
    assert verdict.status == "unstable"
    assert len(verdict.witnesses) == 1
    assert abs(verdict.witnesses[0][0] - 1.5) < 1e-9


def test_determinant_matches_pointwise_evaluation(rng):
    M = TransferMatrix.from_rows([
        [rf(Z, 2 * Z - 1), rf(1, 2 * Z - 1)],
        [rf(HALF), rf(Z, 4 * Z - 1)],
    ])
    delta = random_stable_fir_tm(rng, 2, 2, order=1)
    det_fn, _ = mu_destab_test(M, delta)
    for k in range(16):
        omega = rng.uniform(0.0, 3.14159)
        point = cmath.exp(1j * omega)
        direct = np.linalg.det(np.eye(2) - M.evaluate(point) @ delta.evaluate(point))
        assert abs(det_fn(point) - direct) < 1e-8


def det_zeros_off_the_open_disc(det_fn):
    return sorted((r for r in roots_of(det_fn) if abs(r) >= 1 - 1e-9),
                  key=lambda r: (r.real, r.imag))


def assert_same_points(got, want):
    assert len(got) == len(want)
    got = sorted(got, key=lambda r: (r.real, r.imag))
    assert all(abs(a - b) < 1e-9 for a, b in zip(got, want))


def test_destab_witnesses_are_det_zeros_in_verdict_order():
    # 1 - M = (z - 1)(z + 1)(z - 1/2) / z^3: the closed-loop map is only marginal,
    # so the two boundary zeros of the determinant force the unstable verdict.
    M = TransferMatrix(1, 1, [rf(HALF * Z * Z + Z - HALF, Z * Z * Z)])
    det_fn, verdict = mu_destab_test(M, TransferMatrix.identity(1))
    assert verdict.status == "unstable"
    assert_same_points([w for w, _ in verdict.witnesses], det_zeros_off_the_open_disc(det_fn))
    moduli = [(-mod, w.real, w.imag) for w, mod in verdict.witnesses]
    assert moduli == sorted(moduli)


def test_destab_witnesses_match_det_zeros_on_random_loops(rng):
    for _ in range(30):
        M = TransferMatrix(1, 1, [random_stable_fir(rng, 2, Fraction(1))])
        delta = TransferMatrix(1, 1, [random_stable_fir(rng, 1, Fraction(2))])
        det_fn, verdict = mu_destab_test(M, delta)
        want = det_zeros_off_the_open_disc(det_fn)
        if verdict.status == "improper":  # 1 - M delta vanishes at infinity
            assert not want
            continue
        assert verdict.is_stable == (not want)
        assert_same_points([w for w, _ in verdict.witnesses], want)
