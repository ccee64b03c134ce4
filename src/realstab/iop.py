"""Input-output parameterization of stabilizing controllers.

A quadruple (Y, W, U, Z) of stable maps parameterizes the controller
K = U Y^-1 for a plant G when it satisfies the two affine identities
[I  -G] [[Y, W], [U, Z]] = [I  O] and [[Y, W], [U, Z]] [-G; I] = [O; I].
For an internally stable loop these are exactly the four blocks of the
loop's stability matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import StabilityVerdict, small_gain_margin, stability_verdict
from .errors import DimensionMismatch
from .matrix import TransferMatrix, block_matrix, product_is_identity
from .realization import build_plant_controller, robust_loop, stability_matrix


@dataclass(frozen=True)
class IopQuadruple:
    """The four closed-loop maps together with the plant they certify."""

    G: TransferMatrix
    Y: TransferMatrix
    W: TransferMatrix
    U: TransferMatrix
    Z: TransferMatrix

    def block(self) -> TransferMatrix:
        return block_matrix([[self.Y, self.W], [self.U, self.Z]])


def iop_from_loop(G: TransferMatrix, K: TransferMatrix) -> IopQuadruple:
    """Read the quadruple off the stability matrix of the (G, K) loop."""
    S = stability_matrix(build_plant_controller(G, K))
    return IopQuadruple(G=G,
                        Y=S.block("y", "y"), W=S.block("y", "u"),
                        U=S.block("u", "y"), Z=S.block("u", "u"))


def iop_verify(G: TransferMatrix, quad: IopQuadruple) -> bool:
    """True iff both affine identities hold exactly and all four maps are stable."""
    p, m = G.shape
    if quad.Y.shape != (p, p) or quad.W.shape != (p, m) \
            or quad.U.shape != (m, p) or quad.Z.shape != (m, m):
        raise DimensionMismatch("quadruple shapes do not match the plant")
    blk = quad.block()
    if not product_is_identity(block_matrix([[TransferMatrix.identity(p), -G]]), blk):
        return False
    # [[Y, W], [U, Z]] [-G; I] = [O; I] is, rows swapped, [[U, Z], [Y, W]] [-G; I] = [I; O].
    if not product_is_identity(block_matrix([[quad.U, quad.Z], [quad.Y, quad.W]]),
                               block_matrix([[-G], [TransferMatrix.identity(m)]])):
        return False
    return stability_verdict(blk).is_stable


def iop_controller(quad: IopQuadruple) -> TransferMatrix:
    """Recover the controller K = U Y^-1; raises SingularMatrix when Y is singular."""
    if quad.U.cols != quad.Y.rows:
        raise DimensionMismatch("U and Y do not conform")
    return quad.U * quad.Y.inverse()


def iop_margin(quad: IopQuadruple) -> float:
    """Small-gain robustness margin, the reciprocal peak gain of U.

    Additive plant perturbations of peak gain strictly below the returned
    value cannot destabilize the loop; U identically zero gives an
    infinite margin.
    """
    return small_gain_margin(quad.U)


def iop_robust_check(U_hat: TransferMatrix, delta_G: TransferMatrix) -> StabilityVerdict:
    """Verdict of (I - Delta_G U)^-1, the perturbed-plant stability test.

    The perturbation must be stable (the margin statement quantifies over
    bounded stable perturbations only). Raises SingularPerturbedLoop when
    I - Delta_G U is singular.
    """
    return robust_loop(U_hat, delta_G, "I - Delta_G*U", "plant perturbation")[1]
