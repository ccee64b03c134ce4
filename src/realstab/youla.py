"""Doubly coprime factorizations and the primal/dual controller-plant maps.

The eight factors are built from stabilizing constant gains F (state
feedback) and L (observer), TransferMatrixes like the state-space data,
by the standard observer-based construction: the right block pair lives
over A + BF and its exact inverse over A + LC. The defining 2x2-block
identity is re-verified exactly before any factorization leaves this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import StabilityVerdict, require_stable, stability_verdict
from .errors import (
    DimensionMismatch,
    IdentityCheckFailed,
    NotStabilizing,
    SingularFactor,
    SingularMatrix,
)
from .matrix import (
    StateSpace,
    TransferMatrix,
    block_matrix,
    hstack,
    product_is_identity,
)
from .realization import perturbed_loop, robust_loop


@dataclass(frozen=True)
class CoprimeFactorization:
    """Eight stable maps tied together by the 2x2-block Bezout identity.

    The plant factors as Nr * Mr^-1 = Ml^-1 * Nl and the nominal
    observer-based controller as Vr * Ur^-1 = Ul^-1 * Vl.
    """

    Ml: TransferMatrix
    Nl: TransferMatrix
    Vl: TransferMatrix
    Ul: TransferMatrix
    Ur: TransferMatrix
    Nr: TransferMatrix
    Vr: TransferMatrix
    Mr: TransferMatrix

    def left_block(self) -> TransferMatrix:
        return block_matrix([[self.Ml, -self.Nl], [-self.Vl, self.Ul]])

    def right_block(self) -> TransferMatrix:
        return block_matrix([[self.Ur, self.Nr], [self.Vr, self.Mr]])

    def identity_holds(self) -> bool:
        return product_is_identity(self.left_block(), self.right_block())

    def all_stable(self) -> bool:
        return (stability_verdict(self.left_block()).is_stable
                and stability_verdict(self.right_block()).is_stable)

    def nominal_plant(self) -> TransferMatrix:
        return self.Nr * self.Mr.inverse()


@dataclass(frozen=True)
class YoulaPair:
    """Dual parameter P (ranges over plants) and primal parameter Q (controllers)."""

    P: TransferMatrix
    Q: TransferMatrix


def coprime_from_gains(ss: StateSpace, F, L) -> CoprimeFactorization:
    """Doubly coprime factorization from stabilizing gains.

    F (m x n) must stabilize A + BF and L (n x p) must stabilize A + LC:
    each is decided by the stability_verdict of its resolvent, which has
    every eigenvalue as a pole. The returned factors are all stable by
    construction and the Bezout identity is verified exactly
    (IdentityCheckFailed would indicate an internal bug).
    """
    F = TransferMatrix.constant(F)
    L = TransferMatrix.constant(L)
    n, m, p = ss.n, ss.m, ss.p
    if F.shape != (m, n):
        raise DimensionMismatch(f"state gain must be {m}x{n}")
    if L.shape != (n, p):
        raise DimensionMismatch(f"observer gain must be {n}x{p}")
    z_minus_a = ss.z_minus_a()
    res_f = (z_minus_a - ss.B * F).inverse()
    if not stability_verdict(res_f).is_stable:
        raise NotStabilizing("A + B*F leaves an eigenvalue on or outside the unit circle")
    res_l = (z_minus_a - L * ss.C).inverse()
    if not stability_verdict(res_l).is_stable:
        raise NotStabilizing("A + L*C leaves an eigenvalue on or outside the unit circle")
    CDF = ss.C + ss.D * F
    BLD = ss.B + L * ss.D
    eye_m = TransferMatrix.identity(m)
    eye_p = TransferMatrix.identity(p)

    cf = CoprimeFactorization(
        Ml=eye_p + ss.C * res_l * L,
        Nl=ss.D + ss.C * res_l * BLD,
        Vl=-(F * res_l * L),
        Ul=eye_m - F * res_l * BLD,
        Ur=eye_p - CDF * res_f * L,
        Nr=ss.D + CDF * res_f * ss.B,
        Vr=-(F * res_f * L),
        Mr=eye_m + F * res_f * ss.B,
    )
    if not cf.identity_holds():
        raise IdentityCheckFailed("coprime factorization identity failed")
    return cf


def youla_plant(cf: CoprimeFactorization, P: TransferMatrix) -> TransferMatrix:
    """Plant parameterized by the dual parameter: (Nr - Ur P)(Mr - Vr P)^-1."""
    try:
        return (cf.Nr - cf.Ur * P) * (cf.Mr - cf.Vr * P).inverse()
    except SingularMatrix as exc:
        raise SingularFactor("Mr - Vr*P is singular") from exc


def youla_controller(cf: CoprimeFactorization, Q: TransferMatrix) -> TransferMatrix:
    """Controller parameterized by the primal parameter: (Vr - Mr Q)(Ur - Nr Q)^-1."""
    try:
        return (cf.Vr - cf.Mr * Q) * (cf.Ur - cf.Nr * Q).inverse()
    except SingularMatrix as exc:
        raise SingularFactor("Ur - Nr*Q is singular") from exc


def youla_pq_stability(pair: YoulaPair) -> StabilityVerdict:
    """Verdict of [[I, P], [Q, I]]^-1, the parameter-side internal loop.

    Raises SingularPerturbedLoop when [[I, P], [Q, I]] is singular.
    """
    P, Q = pair.P, pair.Q
    if P.cols != Q.rows or Q.cols != P.rows:
        raise DimensionMismatch("parameter shapes do not close a loop")
    M = block_matrix([[TransferMatrix.zeros(P.rows, P.rows), -P],
                      [-Q, TransferMatrix.zeros(Q.rows, Q.rows)]])
    return stability_verdict(perturbed_loop(M, "[[I, P], [Q, I]]"))


def youla_robust_check(Q: TransferMatrix, P_delta: TransferMatrix) -> StabilityVerdict:
    """Verdict of (I - Q P)^-1 for a perturbed dual parameter.

    Both operands must themselves be stable (P is checked first); the check
    is only meaningful on the stable parameter class. Raises
    SingularPerturbedLoop when I - Q P is singular.
    """
    require_stable(P_delta, "P")
    return robust_loop(P_delta, Q, "I - Q*P", "Q")[1]


# -- deadbeat gain helpers (single input / single measurement) --------------


def _ackermann(A: TransferMatrix, B: TransferMatrix, uncontrollable: str) -> TransferMatrix:
    """Ackermann's gain K = -e_n' [B, AB, ..., A^(n-1) B]^-1 A^n for a single
    input: every eigenvalue of A + BK is zero. Raises
    NotStabilizing(uncontrollable) when the pair (A, B) is not controllable.
    """
    n = A.rows
    cols = [B]
    power = A
    for _ in range(n - 1):
        cols.append(A * cols[-1])
        power = power * A
    try:
        ctrb_inv = hstack(cols).inverse()
    except SingularMatrix as exc:
        raise NotStabilizing(uncontrollable) from exc
    return -(ctrb_inv.submatrix((n - 1, n), (0, n)) * power)


def deadbeat_state_gain(ss: StateSpace) -> TransferMatrix:
    """Ackermann gain F (constant, 1 x n) placing every eigenvalue of A + BF at zero.

    Single-input systems only; raises NotStabilizing when the pair is not
    controllable.
    """
    if ss.m != 1:
        raise NotStabilizing("deadbeat state gain helper needs a single-input system")
    return _ackermann(ss.A, ss.B, "pair (A, B) is not controllable")


def deadbeat_observer_gain(ss: StateSpace) -> TransferMatrix:
    """Dual Ackermann gain L (constant, n x 1) placing every eigenvalue of A + LC
    at zero: the transpose of the state gain of the pair (A', C').

    Single-measurement systems only; raises NotStabilizing when the pair is
    not observable.
    """
    if ss.p != 1:
        raise NotStabilizing("deadbeat observer gain helper needs a single output")
    return _ackermann(ss.A.transpose(), ss.C.transpose(),
                      "pair (A, C) is not observable").transpose()


def observer_controller(ss: StateSpace, F, L) -> TransferMatrix:
    """Nominal observer-based controller -F (zI - A - BF - LC - LDF)^-1 L."""
    F = TransferMatrix.constant(F)
    L = TransferMatrix.constant(L)
    res = (ss.z_minus_a() - ss.B * F - L * (ss.C + ss.D * F)).inverse()
    return -(F * res * L)
