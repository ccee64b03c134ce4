"""Doubly coprime factorizations and the primal/dual controller-plant maps.

The eight factors are built from a stabilizing state-feedback gain F and a
stabilizing observer gain L by the standard observer-based construction:
the right block pair lives over A + BF and its exact inverse over A + LC.
The defining 2x2-block identity is re-verified exactly before any
factorization leaves this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    fm,
    fm_add,
    fm_eye,
    fm_mul,
    fm_shape,
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
    F = fm(F)
    L = fm(L)
    n, m, p = ss.n, ss.m, ss.p
    if fm_shape(F) != (m, n):
        raise DimensionMismatch(f"state gain must be {m}x{n}")
    if fm_shape(L) != (n, p):
        raise DimensionMismatch(f"observer gain must be {n}x{p}")
    a_f = fm_add(ss.A, fm_mul(ss.B, F))
    a_l = fm_add(ss.A, fm_mul(L, ss.C))
    res_f = StateSpace(a_f, ss.B, ss.C, ss.D).resolvent()
    if not stability_verdict(res_f).is_stable:
        raise NotStabilizing("A + B*F leaves an eigenvalue on or outside the unit circle")
    res_l = StateSpace(a_l, ss.B, ss.C, ss.D).resolvent()
    if not stability_verdict(res_l).is_stable:
        raise NotStabilizing("A + L*C leaves an eigenvalue on or outside the unit circle")
    Bm = TransferMatrix.constant(ss.B)
    Cm = TransferMatrix.constant(ss.C)
    Dm = TransferMatrix.constant(ss.D)
    Fm = TransferMatrix.constant(F)
    Lm = TransferMatrix.constant(L)
    CDF = Cm + Dm * Fm
    BLD = Bm + Lm * Dm
    eye_m = TransferMatrix.identity(m)
    eye_p = TransferMatrix.identity(p)

    cf = CoprimeFactorization(
        Ml=eye_p + Cm * res_l * Lm,
        Nl=Dm + Cm * res_l * BLD,
        Vl=-(Fm * res_l * Lm),
        Ul=eye_m - Fm * res_l * BLD,
        Ur=eye_p - CDF * res_f * Lm,
        Nr=Dm + CDF * res_f * Bm,
        Vr=-(Fm * res_f * Lm),
        Mr=eye_m + Fm * res_f * Bm,
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


def pq_loop_matrix(pair: YoulaPair) -> TransferMatrix:
    if pair.P.cols != pair.Q.rows or pair.Q.cols != pair.P.rows:
        raise DimensionMismatch("parameter shapes do not close a loop")
    return block_matrix([[TransferMatrix.identity(pair.P.rows), pair.P],
                         [pair.Q, TransferMatrix.identity(pair.Q.rows)]])


def youla_pq_stability(pair: YoulaPair) -> StabilityVerdict:
    """Verdict of [[I, P], [Q, I]]^-1, the parameter-side internal loop.

    Raises SingularPerturbedLoop when [[I, P], [Q, I]] is singular.
    """
    loop = pq_loop_matrix(pair)
    eye = TransferMatrix.identity(loop.rows)
    return stability_verdict(perturbed_loop(eye - loop, "[[I, P], [Q, I]]"))


def youla_robust_check(Q: TransferMatrix, P_delta: TransferMatrix) -> StabilityVerdict:
    """Verdict of (I - Q P)^-1 for a perturbed dual parameter.

    Both operands must themselves be stable (P is checked first); the check
    is only meaningful on the stable parameter class. Raises
    SingularPerturbedLoop when I - Q P is singular.
    """
    require_stable(P_delta, "P")
    return robust_loop(P_delta, Q, "I - Q*P", "Q")[1]


# -- deadbeat gain helpers (single input / single measurement) --------------


def _fm_inverse(X) -> tuple[tuple[Fraction, ...], ...]:
    inv = TransferMatrix.constant(X).inverse()
    return tuple(tuple(inv[i, j].constant_value() for j in range(inv.cols))
                 for i in range(inv.rows))


def _fm_power(X, k: int):
    n = len(X)
    out = fm_eye(n)
    for _ in range(k):
        out = fm_mul(out, X)
    return out


def deadbeat_state_gain(ss: StateSpace):
    """Ackermann gain F placing every eigenvalue of A + BF at zero.

    Single-input systems only; raises NotStabilizing when the pair is not
    controllable.
    """
    if ss.m != 1:
        raise NotStabilizing("deadbeat state gain helper needs a single-input system")
    n = ss.n
    cols = []
    col = ss.B
    for _ in range(n):
        cols.append([row[0] for row in col])
        col = fm_mul(ss.A, col)
    ctrb = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    try:
        ctrb_inv = _fm_inverse(ctrb)
    except SingularMatrix as exc:
        raise NotStabilizing("pair (A, B) is not controllable") from exc
    last = tuple(tuple(Fraction(1 if j == n - 1 else 0) for j in range(n)) for _ in range(1))
    k_row = fm_mul(fm_mul(last, ctrb_inv), _fm_power(ss.A, n))
    return tuple(tuple(-v for v in row) for row in k_row)


def deadbeat_observer_gain(ss: StateSpace):
    """Dual Ackermann gain L placing every eigenvalue of A + LC at zero.

    Single-measurement systems only; raises NotStabilizing when the pair is
    not observable.
    """
    if ss.p != 1:
        raise NotStabilizing("deadbeat observer gain helper needs a single output")
    n = ss.n
    rows = []
    row = ss.C
    for _ in range(n):
        rows.append(row[0])
        row = fm_mul(row, ss.A)
    obsv = tuple(tuple(rows[i][j] for j in range(n)) for i in range(n))
    try:
        obsv_inv = _fm_inverse(obsv)
    except SingularMatrix as exc:
        raise NotStabilizing("pair (A, C) is not observable") from exc
    last_col = tuple((Fraction(1 if i == n - 1 else 0),) for i in range(n))
    l_col = fm_mul(_fm_power(ss.A, n), fm_mul(obsv_inv, last_col))
    return tuple(tuple(-v for v in row) for row in l_col)


def observer_controller(ss: StateSpace, F, L) -> TransferMatrix:
    """Nominal observer-based controller -F (zI - A - BF - LC - LDF)^-1 L."""
    F = fm(F)
    L = fm(L)
    a_fl = fm_add(fm_add(ss.A, fm_mul(ss.B, F)),
                  fm_mul(L, fm_add(ss.C, fm_mul(ss.D, F))))
    res = StateSpace(a_fl, ss.B, ss.C, ss.D).resolvent()
    return -(TransferMatrix.constant(F) * res * TransferMatrix.constant(L))
