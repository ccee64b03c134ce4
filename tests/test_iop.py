import math
from fractions import Fraction

import pytest

from realstab.analysis import stability_verdict
from realstab.errors import DimensionMismatch, NotStable, SingularMatrix, SingularPerturbedLoop
from realstab.iop import (
    IopQuadruple,
    iop_controller,
    iop_from_loop,
    iop_margin,
    iop_robust_check,
    iop_verify,
)
from realstab.matrix import TransferMatrix, block_matrix
from realstab.realization import build_plant_controller, stability_matrix

from conftest import HALF, Z, random_proper_tm, rf


def scalar_quad():
    G = TransferMatrix(1, 1, [rf(1, Z)])
    K = TransferMatrix(1, 1, [rf(HALF)])
    return iop_from_loop(G, K)


def test_scalar_loop_quadruple_values():
    quad = scalar_quad()
    assert quad.Y == TransferMatrix(1, 1, [rf(2 * Z, 2 * Z - 1)])
    assert quad.W == TransferMatrix(1, 1, [rf(2, 2 * Z - 1)])
    assert quad.U == TransferMatrix(1, 1, [rf(Z, 2 * Z - 1)])
    assert quad.Z == TransferMatrix(1, 1, [rf(2 * Z, 2 * Z - 1)])
    assert iop_verify(quad.G, quad)


def test_open_loop_quadruple_verifies():
    G = TransferMatrix(1, 1, [rf(1, Z)])
    quad = IopQuadruple(G=G, Y=TransferMatrix.identity(1), W=G,
                        U=TransferMatrix.zeros(1, 1), Z=TransferMatrix.identity(1))
    assert iop_verify(G, quad)


def test_perturbed_quadruple_fails():
    quad = scalar_quad()
    bumped = IopQuadruple(G=quad.G, Y=quad.Y + TransferMatrix.identity(1),
                          W=quad.W, U=quad.U, Z=quad.Z)
    assert not iop_verify(quad.G, bumped)


def test_unstable_blocks_fail_verification():
    G = TransferMatrix(1, 1, [rf(1, Z - 2)])
    K = TransferMatrix.zeros(1, 1)
    S = stability_matrix(build_plant_controller(G, K))
    quad = IopQuadruple(G=G, Y=S.block("y", "y"), W=S.block("y", "u"),
                        U=S.block("u", "y"), Z=S.block("u", "u"))
    assert not iop_verify(G, quad)


def test_each_identity_fails_on_its_own():
    quad = scalar_quad()
    G, one, zero = quad.G, TransferMatrix.identity(1), TransferMatrix.zeros(1, 1)
    # Phi + [G; I] [O, I] keeps [I, -G] Phi = [I, O] and breaks Phi [-G; I] = [O; I];
    # Phi + [I; O] [I, G] keeps the second and breaks the first.
    right_broken = IopQuadruple(G=G, Y=quad.Y, W=quad.W + G, U=quad.U, Z=quad.Z + one)
    left_broken = IopQuadruple(G=G, Y=quad.Y + one, W=quad.W + G, U=quad.U, Z=quad.Z)
    for bad in (right_broken, left_broken):
        left = block_matrix([[one, -G]]) * bad.block() == block_matrix([[one, zero]])
        right = bad.block() * block_matrix([[-G], [one]]) == block_matrix([[zero], [one]])
        assert (left, right) == ((True, False) if bad is right_broken else (False, True))
        assert stability_verdict(bad.block()).is_stable
        assert not iop_verify(G, bad)


def test_controller_recovery():
    quad = scalar_quad()
    assert iop_controller(quad) == TransferMatrix(1, 1, [rf(HALF)])


def test_zero_input_map_gives_zero_controller():
    G = TransferMatrix(1, 1, [rf(1, Z)])
    quad = IopQuadruple(G=G, Y=TransferMatrix.identity(1), W=G,
                        U=TransferMatrix.zeros(1, 1), Z=TransferMatrix.identity(1))
    assert iop_controller(quad).is_zero()


def test_controller_singular_y():
    G = TransferMatrix(1, 1, [rf(1, Z)])
    quad = IopQuadruple(G=G, Y=TransferMatrix.zeros(1, 1), W=G,
                        U=TransferMatrix.identity(1), Z=TransferMatrix.identity(1))
    with pytest.raises(SingularMatrix):
        iop_controller(quad)


def test_controller_shape_mismatch():
    G = TransferMatrix(1, 1, [rf(1, Z)])
    quad = IopQuadruple(G=G, Y=TransferMatrix.identity(2), W=G,
                        U=TransferMatrix.zeros(1, 1), Z=TransferMatrix.identity(1))
    with pytest.raises(DimensionMismatch):
        iop_controller(quad)


def test_margin_scalar():
    assert abs(iop_margin(scalar_quad()) - 1.0) < 1e-6


def test_margin_zero_input_map_is_infinite():
    G = TransferMatrix(1, 1, [rf(1, Z)])
    quad = IopQuadruple(G=G, Y=TransferMatrix.identity(1), W=G,
                        U=TransferMatrix.zeros(1, 1), Z=TransferMatrix.identity(1))
    assert math.isinf(iop_margin(quad))


def test_margin_constant_input_map():
    G = TransferMatrix(1, 1, [rf(1, Z)])
    quad = IopQuadruple(G=G, Y=TransferMatrix.identity(1), W=G,
                        U=TransferMatrix(1, 1, [rf(HALF)]), Z=TransferMatrix.identity(1))
    assert abs(iop_margin(quad) - 2.0) < 1e-9


def test_robust_check_zero_perturbation():
    quad = scalar_quad()
    assert iop_robust_check(quad.U, TransferMatrix.zeros(1, 1)).is_stable


def test_robust_check_boundary_witness():
    quad = scalar_quad()
    v = iop_robust_check(quad.U, TransferMatrix.identity(1))
    assert v.status == "marginal"
    (pole, _), = v.witnesses
    assert abs(pole - 1.0) < 1e-9


def test_robust_check_singular_loop():
    eye = TransferMatrix.identity(2)
    with pytest.raises(SingularPerturbedLoop):
        iop_robust_check(eye, eye)


def test_robust_check_interior():
    quad = scalar_quad()
    v = iop_robust_check(quad.U, TransferMatrix(1, 1, [rf(Fraction(-9, 10))]))
    assert v.status == "stable"


def test_robust_check_requires_stable_perturbation():
    quad = scalar_quad()
    with pytest.raises(NotStable):
        iop_robust_check(quad.U, TransferMatrix(1, 1, [rf(1, Z - 2)]))


def test_stable_loops_always_give_valid_quadruples(rng):
    done = 0
    while done < 8:
        G = random_proper_tm(rng, rng.randint(1, 2), rng.randint(1, 2))
        K = random_proper_tm(rng, G.cols, G.rows)
        try:
            S = stability_matrix(build_plant_controller(G, K))
        except Exception:
            continue
        if not stability_verdict(S).is_stable:
            continue
        quad = iop_from_loop(G, K)
        assert iop_verify(G, quad)
        assert iop_controller(quad) == K
        done += 1
