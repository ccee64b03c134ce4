"""Wrapped-loop matrix construction and the structured destabilization test.

The analysis matrix M is the nominal stability matrix wrapped by an input
transformation T and an output selection F_z, so M = F_z * S * T. A
structured perturbation Delta destabilizes the wrapped loop exactly when
det(I - M Delta) acquires a zero on or outside the unit circle (boundary
zeros count as destabilizing witnesses: robustness must hold on the whole
uncertainty set, so a marginal loop already falls outside it).
"""

from __future__ import annotations

from .analysis import UNSTABLE, StabilityVerdict, require_stable, stability_verdict
from .errors import DimensionMismatch
from .matrix import TransferMatrix
from .ratfun import RationalFunction
from .realization import Transformation


def mu_m_matrix(S_hat: TransferMatrix, T: Transformation,
                F_z: TransferMatrix) -> TransferMatrix:
    """M = F_z * S_hat * T; S_hat must be stable for M to be an analysis matrix."""
    require_stable(S_hat, "nominal stability matrix")
    Tm = T.T
    if F_z.cols != S_hat.rows or S_hat.cols != Tm.rows:
        raise DimensionMismatch("output map, stability matrix, and transformation do not chain")
    return F_z * S_hat * Tm


def mu_destab_test(M: TransferMatrix, delta: TransferMatrix
                   ) -> tuple[RationalFunction, StabilityVerdict]:
    """Destabilization witness test for a candidate perturbation.

    Returns (det(I - M Delta), verdict of the closed-loop map
    (I - M Delta)^-1 M = M (I - Delta M)^-1). Zeros of the
    determinant that the verdict of 1/det does not call stable (modulus at
    least 1 - 1e-9) are destabilizing witnesses, in that verdict's order,
    and force an unstable verdict; an identically zero determinant is
    reported as unstable with an unbounded witness rather than raised.
    """
    if M.cols != delta.rows or delta.cols != M.rows:
        raise DimensionMismatch("perturbation shape does not close the loop")
    loop = TransferMatrix.identity(M.rows) - M * delta
    det_fn = loop.determinant()
    if det_fn.is_zero:
        witness = (complex(float("inf"), 0.0), float("inf"))
        return det_fn, StabilityVerdict(UNSTABLE, (witness,))
    verdict = stability_verdict(loop.inverse() * M)
    zeros = stability_verdict(RationalFunction(1, det_fn.num))
    if not zeros.is_stable and verdict.status != UNSTABLE:
        verdict = StabilityVerdict(UNSTABLE, zeros.witnesses)
    return det_fn, verdict
