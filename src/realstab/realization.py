"""Closed-loop realizations and their internal stability matrices.

A realization matrix R collects the linear maps among all internal signals
of a closed loop, eta = R eta + d. The internal stability matrix S maps the
external disturbance to the internal state, eta = S d, and when both exist
they satisfy (I - R) S = S (I - R) = I. Additive perturbations of R induce
a feedback path around S: S(Delta) = S (I - Delta S)^-1 = (I - S Delta)^-1 S.

A RealizationSystem holds the loop matrix I - R, which the builders write
directly; a user's R enters through raw_realization, and R itself is
formed only on request.

Properness of R is a block-level notion: blocks coupling distinct signals
must be proper, while diagonal blocks may be improper (state dynamics
contribute zI - A terms on the diagonal). Off the diagonal, the blocks of
I - R are those of -R, so the check runs on I - R.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import STABLE, StabilityVerdict, require_stable, stability_verdict
from .errors import (
    DimensionMismatch,
    IdentityCheckFailed,
    ImproperBlock,
    MaskViolation,
    NoStabilityMatrix,
    NotStrictlyProper,
    SingularMatrix,
    SingularPerturbedLoop,
)
from .matrix import (
    StateSpace,
    TransferMatrix,
    _loop_numerator,
    block_matrix,
    product_is_identity,
)
from .poly import Polynomial, _int_zeros_outside
from .ratfun import RationalFunction


def _blocks_holding(M: TransferMatrix, test) -> list[tuple[str, str]]:
    """The blocks (row label, col label) holding an entry that passes test, in partition order."""
    rows = [a for a, size in M.row_blocks for _ in range(size)]
    cols = [b for b, size in M.col_blocks for _ in range(size)]
    labels = ((a, b) for a in rows for b in cols)
    hit = {ab for ab, e in zip(labels, M.entries) if test(e)}
    return [(a, b) for a, _ in M.row_blocks for b, _ in M.col_blocks if (a, b) in hit]


def _offdiagonal_improper_blocks(M: TransferMatrix) -> list[tuple[str, str]]:
    return [(a, b) for a, b in _blocks_holding(M, lambda e: not e.is_proper) if a != b]


@dataclass(frozen=True, kw_only=True)
class RealizationSystem:
    """A square, block-partitioned realization, held as its loop matrix I - R."""

    loop: TransferMatrix

    def __post_init__(self):
        loop = self.loop
        if loop.row_blocks is None or loop.col_blocks is None:
            raise DimensionMismatch("realization matrix needs a signal partition")
        if loop.row_blocks != loop.col_blocks:
            raise DimensionMismatch("row and column partitions must agree")
        bad = _offdiagonal_improper_blocks(loop)
        if bad:
            raise ImproperBlock(f"improper off-diagonal blocks: {bad}")

    @property
    def signals(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.loop.row_blocks)

    @property
    def partition(self):
        return self.loop.row_blocks

    @property
    def R(self) -> TransferMatrix:
        """The realization matrix I - loop, formed anew on each access."""
        return TransferMatrix.identity(self.loop.rows, self.partition, self.partition) - self.loop

    def loop_matrix(self) -> TransferMatrix:
        """I - R, the matrix whose inverse is the stability matrix."""
        return self.loop


@dataclass(frozen=True)
class Transformation:
    """An invertible change of basis for the external disturbance."""

    T: TransferMatrix

    def __post_init__(self):
        if not self.T.is_square:
            raise DimensionMismatch("transformation must be square")
        if self.T.determinant().is_zero:
            raise SingularMatrix("transformation is singular")


def normalize_mask(pairs) -> frozenset:
    """A block mask as a frozenset of (row label, col label) string pairs."""
    return frozenset((str(a), str(b)) for a, b in pairs)


def check_mask_labels(block_mask: frozenset, row_blocks, col_blocks) -> None:
    """Raise DimensionMismatch at the first masked block, in sorted order, outside the partition."""
    rows, cols = dict(row_blocks), dict(col_blocks)
    for a, b in sorted(block_mask):
        if a not in rows or b not in cols:
            raise DimensionMismatch(f"mask block ({a}, {b}) not in the partition")


@dataclass(frozen=True)
class AdditivePerturbation:
    """Structured additive perturbation of a realization matrix.

    block_mask lists the (row signal, col signal) blocks of the partition
    allowed to be nonzero; everything outside the mask must be identically zero.
    """

    delta: TransferMatrix
    block_mask: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        d = self.delta
        if d.row_blocks is None or d.col_blocks is None:
            raise DimensionMismatch("perturbation needs the host signal partition")
        object.__setattr__(self, "block_mask", normalize_mask(self.block_mask))
        check_mask_labels(self.block_mask, d.row_blocks, d.col_blocks)
        for ra, cb in _blocks_holding(d, lambda e: not e.is_zero):
            if (ra, cb) not in self.block_mask:
                raise MaskViolation(f"nonzero entries in unmasked block ({ra}, {cb})")


def _delta_matrix(delta, host: TransferMatrix) -> TransferMatrix:
    """Delta's matrix, which must have host's signal partition when both have one."""
    D = delta.delta if isinstance(delta, AdditivePerturbation) else delta
    if not isinstance(D, TransferMatrix):
        raise TypeError("expected an AdditivePerturbation or TransferMatrix")
    own, want = (D.row_blocks, D.col_blocks), (host.row_blocks, host.col_blocks)
    if None not in own + want and own != want:
        raise DimensionMismatch("perturbation partition {} x {} does not match the system's "
                                "{} x {}".format(*own, *want))
    return D


# -- builders for the four supported loop families --------------------------


def build_plant_controller(G: TransferMatrix, K: TransferMatrix) -> RealizationSystem:
    """Two-signal loop y = G u + d_y, u = K y + d_u, so I - R = [[I, -G], [-K, I]]."""
    if G.rows != K.cols or G.cols != K.rows:
        raise DimensionMismatch(
            f"plant {G.shape} and controller {K.shape} do not close a loop")
    if not G.is_proper():
        raise ImproperBlock("plant is improper")
    if not K.is_proper():
        raise ImproperBlock("controller is improper")
    p, m = G.shape
    blocks = (("y", p), ("u", m))
    return RealizationSystem(loop=block_matrix(
        [[TransferMatrix.identity(p), -G],
         [-K, TransferMatrix.identity(m)]],
        blocks, blocks))


def build_state_feedback(ss: StateSpace, K: TransferMatrix) -> RealizationSystem:
    """State-feedback loop with I - R = [[zI-A, -B], [-K, I]] over signals (x, u)."""
    n, m = ss.n, ss.m
    if K.shape != (m, n):
        raise DimensionMismatch(f"gain map must be {m}x{n}, got {K.shape}")
    blocks = (("x", n), ("u", m))
    return RealizationSystem(loop=block_matrix(
        [[ss.z_minus_a(), -ss.B],
         [-K, TransferMatrix.identity(m)]],
        blocks, blocks))


def build_sf_sls(ss: StateSpace, phi_x: TransferMatrix,
                 phi_u: TransferMatrix) -> RealizationSystem:
    """Controller realization driven by the estimated disturbance.

    I - R = [[zI-A, -B, O], [O, I, -z*phi_u], [-I, O, z*phi_x]] over
    signals (x, u, delta); both response maps must be strictly proper so
    that the z-shifted blocks stay proper.
    """
    n, m = ss.n, ss.m
    if phi_x.shape != (n, n) or phi_u.shape != (m, n):
        raise DimensionMismatch(
            f"response maps must be {n}x{n} and {m}x{n}, got {phi_x.shape}, {phi_u.shape}")
    z = RationalFunction(Polynomial.z())
    z_phi_x = phi_x * z
    z_phi_u = phi_u * z
    if not (z_phi_x.is_proper() and z_phi_u.is_proper()):
        raise NotStrictlyProper("response maps must be strictly proper")
    blocks = (("x", n), ("u", m), ("delta", n))
    return RealizationSystem(loop=block_matrix(
        [[ss.z_minus_a(), -ss.B, TransferMatrix.zeros(n, n)],
         [TransferMatrix.zeros(m, n), TransferMatrix.identity(m), -z_phi_u],
         [-TransferMatrix.identity(n), TransferMatrix.zeros(n, m), z_phi_x]],
        blocks, blocks))


def build_output_feedback(ss: StateSpace, K: TransferMatrix) -> RealizationSystem:
    """Output-feedback loop, I - R = [[zI-A, -B, O], [O, I, -K], [-C, -D, I]]."""
    n, m, p = ss.n, ss.m, ss.p
    if K.shape != (m, p):
        raise DimensionMismatch(f"controller must be {m}x{p}, got {K.shape}")
    blocks = (("x", n), ("u", m), ("y", p))
    return RealizationSystem(loop=block_matrix(
        [[ss.z_minus_a(), -ss.B, TransferMatrix.zeros(n, p)],
         [TransferMatrix.zeros(m, n), TransferMatrix.identity(m), -K],
         [-ss.C, -ss.D, TransferMatrix.identity(p)]],
        blocks, blocks))


def raw_realization(R: TransferMatrix) -> RealizationSystem:
    """The system of a user's partitioned realization matrix R: the one entry for R."""
    if not R.is_square:
        raise DimensionMismatch("realization matrix must be square")
    return RealizationSystem(loop=TransferMatrix.identity(R.rows, R.row_blocks, R.col_blocks) - R)


# -- the identity, transformations, perturbed stability ---------------------


def stability_matrix(sys: RealizationSystem) -> TransferMatrix:
    """S = (I - R)^-1; raises NoStabilityMatrix when I - R is singular."""
    try:
        return sys.loop.inverse()
    except SingularMatrix as exc:
        raise NoStabilityMatrix("I - R is singular; no stability matrix exists") from exc


def verify_rs_identity(sys: RealizationSystem, S: TransferMatrix) -> bool:
    """True iff (I - R) S and S (I - R) both equal the identity exactly.

    One product decides both. I - R and S are square of one size over the
    field Q(z), and there a one-sided inverse is two-sided: (I - R) S = I
    gives det(I - R) det S = 1, so I - R is invertible, S = (I - R)^-1 and
    S (I - R) = I as well.
    """
    loop = sys.loop
    if loop.shape != S.shape:
        raise DimensionMismatch("stability matrix shape does not match the realization")
    return product_is_identity(loop, S)


def apply_transformation(sys: RealizationSystem, S: TransferMatrix,
                         T: Transformation) -> tuple[RealizationSystem, TransferMatrix]:
    """Re-express the disturbance over a new basis.

    Returns the equivalent system with R_eq = I - T^-1 (I - R) and its
    stability matrix S_eq = S T; the pair satisfies the identity by
    construction, which is re-checked exactly.
    """
    Tm = T.T
    if Tm.rows != sys.loop.rows:
        raise DimensionMismatch("transformation size does not match the realization")
    blocks = sys.partition
    sys_eq = RealizationSystem(loop=(Tm.inverse() * sys.loop).with_blocks(blocks, blocks))
    s_eq = S * Tm
    if not verify_rs_identity(sys_eq, s_eq):
        raise IdentityCheckFailed("transformed pair lost the realization identity")
    return sys_eq, s_eq


def perturbed_loop(M: TransferMatrix, name: str) -> TransferMatrix:
    """(I - M)^-1, the loop closed around M.

    Raises SingularPerturbedLoop(f"{name} is singular") when I - M is
    singular as a rational matrix.
    """
    try:
        return (TransferMatrix.identity(M.rows) - M).inverse()
    except SingularMatrix as exc:
        raise SingularPerturbedLoop(f"{name} is singular") from exc


def robust_loop(X: TransferMatrix, delta: TransferMatrix, name: str,
                what: str) -> tuple[TransferMatrix, StabilityVerdict]:
    """(Psi, verdict) with Psi = (I - Delta X)^-1, the loop of every robust corollary.

    X = S_{gamma,rho} is the block of S that Delta, on rows rho and columns
    gamma, closes around. Raises NotStable(f"{what} is ...") unless Delta is
    stable, and perturbed_loop's SingularPerturbedLoop(f"{name} is singular").
    """
    require_stable(delta, what)
    psi = perturbed_loop(delta * X, name)
    return psi, stability_verdict(psi)


def robust_verdict(X: TransferMatrix, delta: TransferMatrix, name: str,
                   what: str) -> StabilityVerdict:
    """robust_loop's verdict, decided from det(I - Delta X) where it can be.

    With Delta and X stable and proper, det(I - Delta X) = n/d is proper and
    Psi = adj(I - Delta X) / det has no poles but the zeros of n and the
    poles of Delta X; so Psi is stable iff deg n == deg d and every zero of
    n lies strictly inside the unit circle (the generalized Nyquist /
    small-gain argument: MacFarlane & Postlethwaite 1977; Zhou, Doyle &
    Glover 1996, ch. 5 and 9).

    The determinant is read uncancelled, as N / scale from the packed
    elimination, with scale = prod(l_i) m^n built from denominators of
    Delta and X. Every zero of the scale is a pole of Delta or of X, so it
    lies strictly inside the circle, and cancelling a common factor takes
    the same degree from N and the scale. So deg N == deg scale exactly
    when deg n == deg d, and N has every zero strictly inside exactly when
    n has. When both hold, the second by an exact integer zero count
    (poly._int_zeros_outside returns 0), this returns stable without
    forming Psi. Every other sample, a singular count included, forms Psi
    once and returns robust_loop's verdict, status and witnesses alike. X
    must be stable and proper, as the block of a stable S is; Delta is
    checked once, as in robust_loop, and a zero determinant raises the same
    SingularPerturbedLoop.

    Psi's own verdict still roots its poles in floating point, so the two
    routes can part only when such a pole lies within rounding of the
    1 - 1e-9 boundary; there the count is the exact one.
    """
    require_stable(delta, what)
    return _robust_verdict(X, delta, name)


def _robust_verdict(X: TransferMatrix, delta: TransferMatrix, name: str) -> StabilityVerdict:
    """robust_verdict for a Delta already known to be stable."""
    N, scale_degree = _loop_numerator(delta, X)
    if not N[-1]:
        raise SingularPerturbedLoop(f"{name} is singular")
    if len(N) - 1 == scale_degree and _int_zeros_outside(N) == 0:
        return StabilityVerdict(STABLE)
    return stability_verdict(perturbed_loop(delta * X, name))


def perturbed_stability(S_hat: TransferMatrix, delta,
                        nominal_realization: TransferMatrix | None = None) -> TransferMatrix:
    """Stability matrix after an additive perturbation of the realization.

    Computes both closed forms, S_hat (I - Delta S_hat)^-1 and
    (I - S_hat Delta)^-1 S_hat, checks they agree exactly, and optionally
    cross-checks against the direct inverse (I - R_hat - Delta)^-1 when the
    nominal realization matrix is supplied.
    """
    D = _delta_matrix(delta, S_hat)
    if not S_hat.is_square or D.shape != S_hat.shape:
        raise DimensionMismatch(
            f"perturbation {D.shape} does not match the stability matrix {S_hat.shape}")
    right = S_hat * perturbed_loop(D * S_hat, "I - Delta*S")
    left = perturbed_loop(S_hat * D, "I - S*Delta") * S_hat
    if right != left:
        raise IdentityCheckFailed("the two perturbed-stability closed forms disagree")
    if nominal_realization is not None:
        direct = perturbed_loop(nominal_realization + D, "I - R - Delta")
        if direct != right:
            raise IdentityCheckFailed("closed form disagrees with the direct inverse")
    return right.with_blocks(S_hat.row_blocks, S_hat.col_blocks)


def check_offdiagonal_properness(sys: RealizationSystem, delta) -> bool:
    """True iff every off-diagonal signal block of R + Delta, so of I - R - Delta, is proper."""
    D = _delta_matrix(delta, sys.loop)
    if D.shape != sys.loop.shape:
        raise DimensionMismatch("perturbation shape does not match the realization")
    return not _offdiagonal_improper_blocks(sys.loop - D)
