"""System-level response maps for state and output feedback.

The state-feedback pair (phi_x, phi_u) and the output-feedback quadruple
(phi_xx, phi_xy, phi_ux, phi_uy) are the closed-loop maps from injected
disturbances to state and control. Each record also carries its defect,
the exact residual of the affine constraint the maps are supposed to
satisfy, so approximately synthesized maps can be analyzed as-is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import StabilityVerdict, small_gain_margin, stability_verdict
from .errors import DimensionMismatch, NotStabilizing
from .matrix import StateSpace, TransferMatrix, block_matrix, product_is_identity
from .realization import (
    AdditivePerturbation,
    build_output_feedback,
    build_state_feedback,
    perturbed_loop,
    robust_loop,
    stability_matrix,
)


@dataclass(frozen=True)
class SlsStateFeedback:
    """State-feedback response maps plus the defect of their defining constraint."""

    ss: StateSpace
    phi_x: TransferMatrix
    phi_u: TransferMatrix
    defect: TransferMatrix

    def stacked(self) -> TransferMatrix:
        return block_matrix([[self.phi_x], [self.phi_u]])


@dataclass(frozen=True)
class SlsOutputFeedback:
    """Output-feedback response maps plus the two defects of the row constraint."""

    ss: StateSpace
    phi_xx: TransferMatrix
    phi_xy: TransferMatrix
    phi_ux: TransferMatrix
    phi_uy: TransferMatrix
    defect1: TransferMatrix
    defect2: TransferMatrix

    def block(self) -> TransferMatrix:
        return block_matrix([[self.phi_xx, self.phi_xy], [self.phi_ux, self.phi_uy]])


def _zia_minus_b(ss: StateSpace) -> TransferMatrix:
    return block_matrix([[ss.z_minus_a(), -ss.B]])


def _zia_over_minus_c(ss: StateSpace) -> TransferMatrix:
    return block_matrix([[ss.z_minus_a()], [-ss.C]])


def sls_sf_defect(ss: StateSpace, phi_x: TransferMatrix,
                  phi_u: TransferMatrix) -> TransferMatrix:
    """Exact residual [zI-A, -B] [phi_x; phi_u] - I."""
    if phi_x.shape != (ss.n, ss.n) or phi_u.shape != (ss.m, ss.n):
        raise DimensionMismatch("response map shapes do not match the system")
    prod = _zia_minus_b(ss) * block_matrix([[phi_x], [phi_u]])
    return prod - TransferMatrix.identity(ss.n)


def sls_sf_from_gain(ss: StateSpace, K) -> SlsStateFeedback:
    """Response maps of the static state feedback u = K x, read off its loop.

    phi_x = S_xx = (zI - A - BK)^-1 and phi_u = S_ux = K phi_x are blocks
    of the state-feedback loop's stability matrix S. The gain stabilizes
    when stability_verdict(S) is stable; every eigenvalue of A + BK is a
    pole of S_xx. The returned defect is identically zero.
    """
    K = TransferMatrix.constant(K)
    if K.shape != (ss.m, ss.n):
        raise DimensionMismatch(f"gain must be {ss.m}x{ss.n}")
    S = stability_matrix(build_state_feedback(ss, K))
    if not stability_verdict(S).is_stable:
        raise NotStabilizing("A + B*K leaves an eigenvalue on or outside the unit circle")
    phi_x = S.block("x", "x")
    phi_u = S.block("u", "x")
    defect = sls_sf_defect(ss, phi_x, phi_u)
    return SlsStateFeedback(ss=ss, phi_x=phi_x, phi_u=phi_u, defect=defect)


def sls_sf_robust(ss_true: StateSpace, phi_x: TransferMatrix, phi_u: TransferMatrix
                  ) -> tuple[TransferMatrix, StabilityVerdict, TransferMatrix]:
    """Responses actually achieved when nominal maps run on a different plant.

    Returns (defect, verdict, responses) where defect is the residual of
    the constraint against the true plant, responses is
    [phi_x; phi_u] (I + defect)^-1, and the verdict classifies the
    responses.
    """
    defect = sls_sf_defect(ss_true, phi_x, phi_u)
    correction = perturbed_loop(-defect, "I + defect")
    responses = block_matrix([[phi_x], [phi_u]]) * correction
    return defect, stability_verdict(responses), responses


# -- output feedback ---------------------------------------------------------


def sls_of_from_blocks(ss: StateSpace, phi_xx, phi_xy, phi_ux, phi_uy) -> SlsOutputFeedback:
    """Package response maps, computing both defects from the row constraint.

    Defects are always derived from the defining identity
    Phi [zI-A; -C] = [I + defect1; defect2] rather than from closed-form
    shortcuts; for example, a measurement-matrix drift C -> C + dC on maps
    that were exact for C yields defect1 = -phi_xy dC and
    defect2 = -phi_uy dC, which this computation reproduces.
    """
    n, m, p = ss.n, ss.m, ss.p
    if phi_xx.shape != (n, n) or phi_xy.shape != (n, p) \
            or phi_ux.shape != (m, n) or phi_uy.shape != (m, p):
        raise DimensionMismatch("response map shapes do not match the system")
    blk = block_matrix([[phi_xx, phi_xy], [phi_ux, phi_uy]])
    prod = blk * _zia_over_minus_c(ss)
    defect1 = prod.submatrix((0, n), (0, n)) - TransferMatrix.identity(n)
    defect2 = prod.submatrix((n, n + m), (0, n))
    return SlsOutputFeedback(ss=ss, phi_xx=phi_xx, phi_xy=phi_xy,
                             phi_ux=phi_ux, phi_uy=phi_uy,
                             defect1=defect1, defect2=defect2)


def sls_of_from_controller(ss: StateSpace, K: TransferMatrix) -> SlsOutputFeedback:
    """Exact response maps of an internally stabilizing output-feedback loop."""
    S = stability_matrix(build_output_feedback(ss, K))
    if not stability_verdict(S).is_stable:
        raise NotStabilizing("controller does not internally stabilize the plant")
    return sls_of_from_blocks(ss,
                              S.block("x", "x"), S.block("x", "y"),
                              S.block("u", "x"), S.block("u", "y"))


def sls_of_verify(ss: StateSpace, maps: SlsOutputFeedback) -> bool:
    """True iff both affine identities and the class memberships hold.

    Identities: [zI-A, -B] Phi = [I, O] and Phi [zI-A; -C] = [I; O].
    Memberships: phi_xx, phi_xy, phi_ux strictly proper, and the whole
    block Phi proper and stable.
    """
    blk = maps.block()
    if not (product_is_identity(_zia_minus_b(ss), blk)
            and product_is_identity(blk, _zia_over_minus_c(ss))):
        return False
    strict = (maps.phi_xx, maps.phi_xy, maps.phi_ux)
    if not all(e.is_strictly_proper for X in strict for e in X.entries):
        return False
    return stability_verdict(blk).is_stable


def sls_of_controller(maps: SlsOutputFeedback, D=None) -> TransferMatrix:
    """Controller realized by the response maps.

    The direct-feedthrough-free form is phi_uy - phi_ux phi_xx^-1 phi_xy;
    a nonzero D wraps it as K0 (I + D K0)^-1.
    """
    k0 = maps.phi_uy - maps.phi_ux * maps.phi_xx.inverse() * maps.phi_xy
    if D is None:
        return k0
    D = TransferMatrix.constant(D)
    if D.is_zero():
        return k0
    return k0 * (TransferMatrix.identity(D.rows) + D * k0).inverse()


def sls_of_perturbed_response(maps: SlsOutputFeedback) -> TransferMatrix:
    """Responses achieved under the stored defects.

    Returns [[ (I+D1)^-1, O ], [ -D2 (I+D1)^-1, I ]] times the response
    block; when (I+D1)^-1 and D2 are stable, the result satisfies the
    nominal identities for the stored plant.
    """
    n, m = maps.ss.n, maps.ss.m
    inv1 = perturbed_loop(-maps.defect1, "I + defect1")
    transform = block_matrix(
        [[inv1, TransferMatrix.zeros(n, m)],
         [-(maps.defect2 * inv1), TransferMatrix.identity(m)]])
    return transform * maps.block()


def cor7_realization_delta(ss: StateSpace, dA, dB, dC, dD) -> AdditivePerturbation:
    """Place structured plant perturbations on the output-feedback realization.

    The additive perturbation is [[dA, dB, O], [O, O, O], [dC, dD, O]] over
    the (x, u, y) partition, the placement under which the feedback-form
    test below and the direct perturbed-stability test agree.
    """
    n, m, p = ss.n, ss.m, ss.p
    blocks = (("x", n), ("u", m), ("y", p))
    delta = block_matrix(
        [[dA, dB, TransferMatrix.zeros(n, p)],
         [TransferMatrix.zeros(m, n), TransferMatrix.zeros(m, m), TransferMatrix.zeros(m, p)],
         [dC, dD, TransferMatrix.zeros(p, p)]],
        blocks, blocks)
    return AdditivePerturbation(delta, frozenset({("x", "x"), ("x", "u"),
                                                  ("y", "x"), ("y", "u")}))


def sls_of_robust_check(ss: StateSpace, maps: SlsOutputFeedback,
                        dA: TransferMatrix, dB: TransferMatrix,
                        dC: TransferMatrix, dD: TransferMatrix
                        ) -> tuple[TransferMatrix, StabilityVerdict]:
    """Feedback-form robustness test for structured plant perturbations.

    Returns (Psi, verdict) with Psi = (I - [[dA, dB], [dC, dD]] Phi)^-1;
    the nominal controller keeps the perturbed loop internally stable
    exactly when Psi is stable. The perturbation Delta = [[dA, dB], [dC, dD]]
    must be stable.
    """
    n, m, p = ss.n, ss.m, ss.p
    shapes = {"dA": (dA, (n, n)), "dB": (dB, (n, m)),
              "dC": (dC, (p, n)), "dD": (dD, (p, m))}
    for name, (X, want) in shapes.items():
        if X.shape != want:
            raise DimensionMismatch(f"{name} must be {want[0]}x{want[1]}")
    delta = block_matrix([[dA, dB], [dC, dD]])
    return robust_loop(maps.block(), delta, "I - Delta*Phi", "Delta")


def sls_of_margin(maps: SlsOutputFeedback) -> float:
    """Small-gain margin: reciprocal peak gain of the stacked response block.

    Uses the whole-matrix peak gain of the 2x2 response block; structured
    per-block norms are deliberately not implemented.
    """
    return small_gain_margin(maps.block())
