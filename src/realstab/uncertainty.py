"""Uncertainty sets, Monte-Carlo certification, and tightness probes.

The implemented uncertainty family is the ball of block-structured FIR
perturbations: each masked block gets entries with finitely many impulse
response taps, so every sample stays inside exact rational arithmetic.
Samples are deterministic functions of the seed, sample i of a run is
drawn from seed + i, and sample 0 is always the zero perturbation (the
certified conditions quantify over sets containing zero).

A sample is its integer taps and an integer scale p / q (_Draw). Its norm
is a certified upper bound on its peak gain, not a grid estimate: an exact
integer level-set test (_DrawGram) on the taps proves a float g above their
peak, the scale is fill * radius / g on a 2^40 denominator grid, and the
norm is scale * g rounded up, all in integer arithmetic. A sample whose
norm is below a margin therefore has a peak gain below it too.

A corollary's check runs on the taps as well: the exact zero count of
det(I - Delta X) takes Delta's rows straight from them, with X cleared
once per run. A sample's TransferMatrix is formed only for lemma2-direct,
for a sample the count does not prove stable, and for sample_delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from operator import mul

import numpy as np

from .analysis import (
    MARGINAL,
    STABLE,
    STABLE_VERDICT,
    UNSTABLE,
    StabilityVerdict,
    hinf_peak,
    require_stable,
    roots_of,
    small_gain_margin,
    stability_verdict,
)
from .errors import (
    DimensionMismatch,
    EmptyMask,
    InfiniteMargin,
    SingularPerturbedLoop,
    SoundnessViolation,
)
from .iop import IopQuadruple
from .matrix import TransferMatrix, _cleared, loop_determinant
from .poly import (
    _canon,
    _int_at_unit,
    _int_mul,
    _int_strip,
    _int_zeros_in_unit_interval,
    _monomial,
)
from .ratfun import RationalFunction
from .realization import (
    RealizationSystem,
    _count_proves_stable,
    check_mask_labels,
    normalize_mask,
    perturbed_loop,
    perturbed_stability,
    stability_matrix,
)
from .sls import SlsOutputFeedback

CHECKERS = ("lemma2-direct", "cor3", "cor7", "cor9")
_LOOP = "I - Delta*X"

_COEFF_GRID = 1 << 24  # dyadic quantization keeps exact arithmetic fast
_SCALE_GRID = 1 << 40
_BOUND_SLACK = 1 + 2.0 ** -40  # headroom of a tried peak bound


@dataclass(frozen=True, slots=True)
class UncertaintySpec:
    """Structured FIR norm ball: which blocks, how big, how long, which seed."""

    block_mask: frozenset
    radius: float
    sample_order: int = 1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "block_mask", normalize_mask(self.block_mask))
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be finite and positive, got {self.radius}")
        if self.sample_order < 0:
            raise ValueError("sample order must be nonnegative")


@dataclass(frozen=True, slots=True)
class SampleStats:
    n_samples: int
    n_stable: int
    n_marginal: int
    n_unstable: int
    worst_sample_norm: float
    constraint_violations: int | None = None  # set when a constraint hook ran

    def __post_init__(self):
        if self.n_samples != self.n_stable + self.n_marginal + self.n_unstable:
            raise ValueError("sample counts do not add up")


@dataclass(frozen=True, slots=True)
class Certificate:
    """Outcome record of a stability analysis or certification run."""

    kind: str  # small-gain-IOP | small-gain-SLS-OF | pointwise | monte-carlo
    margin: float | None
    verdict: StabilityVerdict
    condition_ref: str
    sample_stats: SampleStats | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind == "monte-carlo" and self.sample_stats is None:
            raise ValueError("monte-carlo certificates need sample statistics")


def _partition_of(shape):
    if isinstance(shape, RealizationSystem):
        return shape.partition, shape.partition
    if isinstance(shape, TransferMatrix):
        if shape.row_blocks is None or shape.col_blocks is None:
            raise DimensionMismatch("host matrix carries no partition")
        return shape.row_blocks, shape.col_blocks
    row_blocks, col_blocks = shape
    return tuple(row_blocks), tuple(col_blocks)


def _fir_taps(rng, order: int, count: int = 1) -> list[int]:
    """The taps of count entries, entry after entry, uniform on [-1, 1] as
    integers on the dyadic grid; tap j of an entry multiplies z^-j."""
    return [round(c) for c in (rng.uniform(-1.0, 1.0, count * (order + 1))
                               * _COEFF_GRID).tolist()]


def _fir_of(taps: list[int], scale=1) -> RationalFunction:
    """scale * sum_j taps[j] z^-j / 2^24 as a reduced rational function over z^order."""
    order, p = len(taps) - 1, scale.numerator
    num = _canon([t * p for t in reversed(taps)], _COEFF_GRID * scale.denominator)
    if taps[-1] or not order:  # z does not divide num, so num / z^order is reduced
        return RationalFunction._reduced(num, _monomial(order))
    return RationalFunction(num, _monomial(order))


# -- a certified bound on a draw's peak gain ----------------------------------


def _cos_poly(c: list[int]) -> list[int]:
    """The cosine series c_0 + 2 sum_s c_s cos(s w) as an integer polynomial
    in x = cos w: c_0 + 2 sum_s c_s T_s(x) with Chebyshev's T_s."""
    out = [0] * len(c)
    out[0] = c[0]
    prev, cur = [1], [0, 1]  # T_{s-1}, T_s
    for cs in c[1:]:
        for i, t in enumerate(cur):
            out[i] += 2 * cs * t
        nxt = [0] + [2 * t for t in cur]
        for i, t in enumerate(prev):
            nxt[i] -= t
        prev, cur = cur, nxt
    return _int_strip(out)


def _positive_definite(a: list[list[int]]) -> bool:
    """Whether the symmetric integer matrix a is positive definite: every
    leading principal minor, the pivots of fraction-free elimination, is positive."""
    a = [row[:] for row in a]
    prev = 1
    for k in range(len(a)):
        pivot = a[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = pivot
    return True


class _DrawGram:
    """The Gram matrix M(w) of the narrow side of an FIR draw on the unit circle.

    With integer taps G_j (the draw times 2^24) the draw is
    G(w) = sum_j G_j e^{-ijw}, and M(w) = sum_{|d| <= m} C_d e^{idw} with
    C_d = sum_l G_{l+d}^T G_l and C_{-d} = C_d^T: the columns' Gram matrix,
    or the rows' when they are fewer (conjugating w, which no cosine sees).
    Its largest eigenvalue is the squared gain. Level-set test (Boyd and
    Balakrishnan 1990, Bruinsma and Steinbuch 1990): Gamma exceeds
    it at every w iff Gamma I - M is positive definite at w = 0 and
    f(x) = det(Gamma I - M), a polynomial in x = cos w, has no zero on
    [-1, 1]; by continuity an eigenvalue that reached Gamma anywhere would
    equal it somewhere. Everything is integer, so the test is exact.
    """

    def __init__(self, lines: list[list[int]], order: int):
        """lines[p] is narrow line p (column p, or row p when rows are the
        narrow side) of G_0, G_1, ..., G_m laid end to end, so C_d[p][q] is
        the dot product of lines[p] shifted by d blocks with lines[q]."""
        k, wide = len(lines), len(lines[0]) // (order + 1)
        self.k = k
        self.C = [[[sum(map(mul, a[d * wide:], b)) for b in lines] for a in lines]
                  for d in range(order + 1)]
        # To two wide, a closed form (M's diagonal and |M_01|^2 as polynomials
        # in x), several times cheaper per test than the determinant route.
        if k <= 2:
            self.diag = [_cos_poly([C[p][p] for C in self.C]) for p in range(k)]
        if k == 2:
            beta = [C[1][0] for C in reversed(self.C[1:])] + [C[0][1] for C in self.C]
            self.cross = _cos_poly([sum(map(mul, beta[s:], beta)) for s in range(len(beta))])

    def _edge(self, t: int) -> list[list[int]]:
        """M at w = 0 (t = 1) or w = pi (t = -1), a real symmetric integer matrix."""
        out = [row[:] for row in self.C[0]]
        for d, C in enumerate(self.C[1:], 1):
            for p in range(self.k):
                for q in range(self.k):
                    out[p][q] += t ** d * (C[p][q] + C[q][p])
        return out

    def edge_gain(self) -> float:
        """The larger gain at w = 0 and w = pi, in floating point and undone
        from tap scale; the gain of a real matrix, in closed form to two wide."""
        lam = []
        for t in (1, -1):
            if self.k == 1:
                lam.append(_int_at_unit(self.diag[0], t))
            elif self.k == 2:
                a, e, b2 = (_int_at_unit(v, t) for v in (*self.diag, self.cross))
                half = 0.5 * (a - e)
                lam.append(0.5 * (a + e) + math.sqrt(half * half + b2))
            else:
                lam.append(np.linalg.eigvalsh(np.array(self._edge(t), dtype=float))[-1])
        return math.sqrt(max(max(lam), 0.0)) / _COEFF_GRID

    def bounds(self, g: float) -> bool:
        """Whether the draw's peak gain is strictly below g: the level-set test
        at Gamma = (g 2^24)^2 = P / Q, run on P I - Q M."""
        p, q = (g * _COEFF_GRID).as_integer_ratio()
        P, Q = p * p, q * q
        if self.k > 2:
            if not _positive_definite([[P * (i == j) - Q * c for j, c in enumerate(row)]
                                       for i, row in enumerate(self._edge(1))]):
                return False
            f = self._level_set(P, Q)
        else:
            shifted = [[P - Q * d[0]] + [-Q * c for c in d[1:]] for d in self.diag]
            f = shifted[0]
            if self.k == 2:
                cross = [Q * Q * c for c in self.cross]
                f = _int_strip([x - y for x, y in zip_longest(
                    _int_mul(f, shifted[1]), cross, fillvalue=0)])
            if _int_at_unit(shifted[0], 1) <= 0 or _int_at_unit(f, 1) <= 0:
                return False
        return _int_zeros_in_unit_interval(f) == 0

    def _level_set(self, P: int, Q: int) -> list[int]:
        """det(P I - Q M) in x, from the determinant of z^m (P I - Q M(z)):
        a polynomial of degree 2mk whose z^{mk + s} coefficient is the cosine
        series' c_s, by the symmetry M(1/z) = M(z)^T."""
        m, k = len(self.C) - 1, self.k
        entries = []
        for i in range(k):
            for j in range(k):
                coeffs = ([-Q * C[j][i] for C in reversed(self.C[1:])]
                          + [-Q * C[i][j] for C in self.C])
                coeffs[m] += P * (i == j)
                entries.append(RationalFunction(_canon(coeffs, 1)))
        det = TransferMatrix(k, k, entries).determinant().num._n
        det = det + [0] * (2 * m * k + 1 - len(det))
        return _cos_poly(det[m * k:])

    def triangle_bound(self) -> float:
        """sqrt((m + 1) trace C_0) >= sum_j ||G_j||_F (Cauchy-Schwarz), rounded
        up to an integer and undone from tap scale: strictly above the peak
        gain by the triangle inequality, and exact in floating point."""
        trace = sum(self.C[0][p][p] for p in range(self.k))
        return (math.isqrt(len(self.C) * trace) + 1) / _COEFF_GRID


def _peak_bound(gram: _DrawGram, unscaled) -> float:
    """A float g that the level-set test proves strictly above the peak gain of gram's taps.

    The first try is the larger edge gain times 1 + 2^-40, which holds
    whenever the peak sits at w = 0 or pi. Otherwise hinf_peak's grid value
    on unscaled(), the taps' matrix at scale 1 (built only here), a lower bound,
    times 1 + 2^-40; if that fails too, bisection between it and the
    triangle bound, keeping the upper end proved.
    """
    g = gram.edge_gain() * _BOUND_SLACK
    if gram.bounds(g):
        return g
    lo = hinf_peak(unscaled())[0]
    g = lo * _BOUND_SLACK
    if gram.bounds(g):
        return g
    hi = gram.triangle_bound()
    while hi > lo * _BOUND_SLACK:
        mid = 0.5 * (lo + hi)
        if gram.bounds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _check_mask(block_mask: frozenset, shape) -> None:
    """Raise EmptyMask or DimensionMismatch unless the mask selects blocks of shape."""
    row_blocks, col_blocks = _partition_of(shape)
    if not block_mask:
        raise EmptyMask("uncertainty mask selects no blocks")
    check_mask_labels(block_mask, row_blocks, col_blocks)


def _limit_denominator(n: int, d: int) -> tuple[int, int]:
    """Fraction(n, d).limit_denominator(_SCALE_GRID) as (p, q), for n / d in
    lowest terms with n >= 0 and d > 0: the nearer of the last convergent of
    n / d and the last semiconvergent below the bound, the former on a tie."""
    if d <= _SCALE_GRID:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    a, b = n, d
    while True:
        t = a // b
        q2 = q0 + t * q1
        if q2 > _SCALE_GRID:
            break
        p0, q0, p1, q1 = p1, q1, p0 + t * p1, q2
        a, b = b, a - t * b
    k = (_SCALE_GRID - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    # |p1/q1 - n/d| <= |p2/q2 - n/d|, times d q1 q2.
    if abs(p1 * d - n * q1) * q2 <= abs(p2 * d - n * q2) * q1:
        return p1, q1
    return p2, q2


def _round_up(num: int, den: int) -> float:
    """The least float at least num / den, for num >= 0 and den > 0."""
    out = num / den  # correctly rounded
    n, d = out.as_integer_ratio()
    return math.nextafter(out, math.inf) if n * den < num * d else out


class _Draw:
    """A sample as its integer taps: the structured FIR matrix
    p / (2^24 q) sum_j G_j z^-j, with the taps G_j laid out in lines as
    _DrawGram reads them. A draw without lines is the zero perturbation."""

    __slots__ = ("row_blocks", "col_blocks", "shape", "lines", "p", "q")

    def __init__(self, row_blocks, col_blocks):
        self.row_blocks, self.col_blocks = row_blocks, col_blocks
        self.shape = tuple(sum(s for _, s in blocks) for blocks in (row_blocks, col_blocks))
        self.lines = None
        self.p = self.q = 1

    def _entry_taps(self):
        """Each entry's taps, rows in turn; lines[p][l * wide + w] is tap l of
        the entry at narrow index p and wide index w."""
        (rows, cols), lines = self.shape, self.lines
        if cols <= rows:
            return [lines[j][i::rows] for i in range(rows) for j in range(cols)]
        return [lines[i][j::cols] for i in range(rows) for j in range(cols)]

    def rows(self) -> list[tuple[list[list[int]], list[int]]]:
        """Delta's rows as matrix._loop_rows takes them: P_ij is p times entry
        (i, j)'s taps reversed, over l_i = 2^24 q z^order, a multiple of the
        denominators of row i (z^order, or less where the last taps are zero)."""
        rows, cols = self.shape
        if self.lines is None:
            return [([[0]] * cols, [1])] * rows
        taps = self._entry_taps()
        p = self.p
        l = [0] * (len(taps[0]) - 1) + [_COEFF_GRID * self.q]
        P = [_int_strip([p * t for t in reversed(entry)]) for entry in taps]
        return [(P[i:i + cols], l) for i in range(0, len(P), cols)]

    def matrix(self) -> TransferMatrix:
        """Delta as a TransferMatrix, each entry through _fir_of at the scale p / q."""
        if self.lines is None:
            return TransferMatrix.zeros(*self.shape, self.row_blocks, self.col_blocks)
        scale = Fraction(self.p, self.q)
        # Unmasked entries have zero taps, which _fir_of makes the zero entry.
        return TransferMatrix(*self.shape,
                              [_fir_of(taps, scale) for taps in self._entry_taps()],
                              self.row_blocks, self.col_blocks)


def _sample_with_norm(spec: UncertaintySpec, shape, seed: int) -> tuple[_Draw, float]:
    """A draw from seed and an upper bound on its peak gain.

    The draw's scale is fill * radius / g, rounded to a denominator of at
    most 2^40, for a float g proved above the taps' peak gain (_peak_bound);
    the bound is scale * g rounded up.
    """
    row_blocks, col_blocks = _partition_of(shape)
    draw = _Draw(row_blocks, col_blocks)
    rows, cols = draw.shape
    narrow_cols, wide = cols <= rows, max(rows, cols)
    cells = []  # (narrow index, wide index) of each masked entry, in draw order
    r0 = 0
    for ra, rsize in row_blocks:
        c0 = 0
        for cb, csize in col_blocks:
            if (ra, cb) in spec.block_mask:
                cells += [(j, i) if narrow_cols else (i, j)
                          for i in range(r0, r0 + rsize) for j in range(c0, c0 + csize)]
            c0 += csize
        r0 += rsize
    rng = np.random.default_rng(seed)
    step = spec.sample_order + 1
    taps = _fir_taps(rng, spec.sample_order, len(cells))
    fill = rng.uniform(0.0, 1.0)
    if not any(taps):
        return draw, 0.0
    draw.lines = [[0] * (wide * step) for _ in range(min(rows, cols))]
    for e, (p, w) in enumerate(cells):
        draw.lines[p][w::wide] = taps[e * step:(e + 1) * step]

    # Until p / q is set, draw.matrix() is the taps' matrix at scale 1.
    g = _peak_bound(_DrawGram(draw.lines, spec.sample_order), draw.matrix)
    target = fill * spec.radius / g
    if not math.isfinite(target):
        raise ValueError(f"radius {spec.radius} overflows when a draw is rescaled")
    draw.p, draw.q = _limit_denominator(*target.as_integer_ratio())
    gn, gd = g.as_integer_ratio()
    return draw, _round_up(draw.p * gn, draw.q * gd)


def sample_delta(spec: UncertaintySpec, shape) -> TransferMatrix:
    """Draw one structured FIR perturbation with peak gain below spec.radius.

    Taps are uniform on [-1, 1] (dyadically quantized so they stay exact),
    and the matrix is scaled so that its peak gain is at most a certified bound
    of about u * radius, u uniform on (0, 1). Deterministic given (spec, shape).
    """
    _check_mask(spec.block_mask, shape)
    return _sample_with_norm(spec, shape, spec.seed)[0].matrix()


# -- the corollary conditions and Monte-Carlo certification -----------------


def robust_condition(nominal, condition: str) -> tuple[tuple, tuple, TransferMatrix]:
    """(Delta row blocks, Delta column blocks, X) of a corollary condition.

    Every corollary is robust_loop's (I - Delta X)^-1 with margin 1 / ||X||:
    cor3 and cor9 put Delta on (y; u) of an IopQuadruple around X = U, cor7
    and cor8 on (x, y; x, u) of an SlsOutputFeedback around X = Phi.
    """
    if condition in ("cor3", "cor9"):
        if not isinstance(nominal, IopQuadruple):
            raise TypeError(f"{condition} expects an IopQuadruple")
        p, m = nominal.G.shape
        return (("y", p),), (("u", m),), nominal.U
    if condition in ("cor7", "cor8"):
        if not isinstance(nominal, SlsOutputFeedback):
            raise TypeError(f"{condition} expects an SlsOutputFeedback")
        ss = nominal.ss
        return (("x", ss.n), ("y", ss.p)), (("x", ss.n), ("u", ss.m)), nominal.block()
    raise ValueError(f"unknown condition {condition!r}")


def _evaluate_sample(payload, draw: _Draw, hook=None) -> tuple[StabilityVerdict, bool]:
    """Verdict of one sample and its hook violation. payload is (X, X cleared
    by matrix._cleared) for a corollary, or lemma2's (S_hat, R).

    draw is sample 0, the zero perturbation, or an FIR draw, whose
    denominators are powers of z by construction; so Delta is stable and
    robust_verdict's stability check is skipped. Around X, its exact zero
    count runs on the draw's integer rows; Delta's matrix and Psi are formed
    only when the count does not prove the sample stable. A singular loop is
    decided by that count too. lemma2 forms Delta's matrix for every sample.
    """
    try:
        if isinstance(payload[1], tuple):
            X, cleared_X = payload
            if _count_proves_stable(draw.rows(), cleared_X, _LOOP):
                return STABLE_VERDICT, False
            return stability_verdict(perturbed_loop(draw.matrix() * X, _LOOP)), False
        S_hat, R = payload
        delta = draw.matrix()
        S_delta = perturbed_stability(S_hat, delta)
        verdict = stability_verdict(S_delta)
    except SingularPerturbedLoop:
        unstable = StabilityVerdict(UNSTABLE, ((complex(float("inf"), 0.0), float("inf")),))
        return unstable, hook is not None
    return verdict, hook is not None and not hook(R + delta, S_delta)


def monte_carlo_certify(nominal, spec: UncertaintySpec, n: int, checker: str,
                        constraint=None) -> Certificate:
    """Empirically check a robustness condition over n sampled perturbations.

    nominal is a RealizationSystem (lemma2-direct), an IopQuadruple (cor3,
    cor9), or an SlsOutputFeedback (cor7). The mask is checked against the
    condition's Delta shape before any sample (EmptyMask, DimensionMismatch).
    Sample i is drawn from seed + i; sample 0 is the zero perturbation.
    Samples are evaluated one at a time, in index order, in this process.
    Per-sample singularities are recorded as unstable, not raised. When the
    checker has an analytic margin, the first non-stable sample strictly
    below it raises SoundnessViolation before any later sample is drawn;
    that would indicate a bug in this package.

    constraint (lemma2-direct only) is any callable, called once per sample
    as constraint(R + Delta, S(Delta)); the samples it rejects, plus the
    singular ones, are counted in sample_stats.constraint_violations.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if checker not in CHECKERS:
        raise ValueError(f"unknown checker {checker!r}; expected one of {CHECKERS}")
    if constraint is not None and checker != "lemma2-direct":
        raise ValueError("a constraint hook needs the lemma2-direct checker")
    if checker == "lemma2-direct":
        if not isinstance(nominal, RealizationSystem):
            raise TypeError("lemma2-direct expects a RealizationSystem")
        shape, margin = (nominal.partition, nominal.partition), None
        payload = (stability_matrix(nominal), nominal.R)
    else:
        rows, cols, X = robust_condition(nominal, checker)
        shape, margin = (rows, cols), small_gain_margin(X)
        payload = (X, _cleared(X.entries))
    _check_mask(spec.block_mask, shape)

    counts = {STABLE: 0, MARGINAL: 0, UNSTABLE: 0}
    worst: dict[str, tuple[float, tuple]] = {}  # first minimum-norm sample per bucket
    max_norm = 0.0
    violations = 0
    for index in range(n):
        if index == 0:
            draw, norm = _Draw(*shape), 0.0
        else:
            draw, norm = _sample_with_norm(spec, shape, spec.seed + index)
        verdict, violated = _evaluate_sample(payload, draw, constraint)
        violations += violated
        bucket = verdict.status if verdict.status in counts else UNSTABLE
        counts[bucket] += 1
        max_norm = max(max_norm, norm)
        if bucket != STABLE:
            if margin is not None and norm < margin:
                raise SoundnessViolation(f"sample {index} with norm {norm} below "
                                         f"margin {margin} was {verdict.status}")
            if bucket not in worst or norm < worst[bucket][0]:
                worst[bucket] = (norm, verdict.witnesses)

    if not worst:
        verdict = STABLE_VERDICT
        worst_norm = max_norm
    else:
        status = UNSTABLE if counts[UNSTABLE] else MARGINAL
        worst_norm, witnesses = worst[status]
        verdict = StabilityVerdict(status, witnesses)
    stats = SampleStats(n_samples=n, n_stable=counts[STABLE],
                        n_marginal=counts[MARGINAL], n_unstable=counts[UNSTABLE],
                        worst_sample_norm=worst_norm,
                        constraint_violations=None if constraint is None else violations)
    return Certificate(kind="monte-carlo", margin=margin, verdict=verdict,
                       condition_ref=checker, sample_stats=stats, seed=spec.seed)


# -- worst-case probe at the gain peak ---------------------------------------


@dataclass(frozen=True)
class TightnessProbe:
    """Constant perturbation aligned with the gain peak, plus what it proved."""

    delta: TransferMatrix
    peak_gain: float
    peak_omega: float
    witness_root: complex | None
    boundary_distance: float | None
    conclusive: bool
    note: str


def worst_case_delta(U_hat: TransferMatrix, epsilon: float,
                     peak: tuple[float, float]) -> TightnessProbe:
    """Constant perturbation of norm epsilon aligned with the peak of U_hat.

    peak is hinf_peak(U_hat), the (gain, omega) pair the margin came from.

    When the peak sits at omega = 0 or pi the singular vectors are real and
    the probe drives det(I - Delta U_hat) to a root on the unit circle
    (checked and reported); an interior peak has intrinsically complex
    alignment, so the real projection is returned with an inconclusive
    note.
    """
    require_stable(U_hat, "operand")
    if U_hat.is_zero():
        raise InfiniteMargin("zero map has an infinite margin; nothing to probe")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise InfiniteMargin("probe needs a finite positive margin")
    gain, omega = peak
    real_peak = omega < 1e-6 or math.pi - omega < 1e-6
    z0 = 1.0 if omega < math.pi / 2 else -1.0
    point = complex(z0, 0.0) if real_peak else complex(math.cos(omega), math.sin(omega))
    value = U_hat.evaluate(point)
    u_mat, _, vh_mat = np.linalg.svd(value)
    align = np.outer(np.conj(vh_mat[0, :]), np.conj(u_mat[:, 0]))
    if not real_peak:
        real_part = align.real
        norm = np.linalg.norm(real_part, 2)
        align = real_part / norm if norm > 0 else real_part
    else:
        align = align.real
    delta = TransferMatrix.constant(epsilon * align)
    det_fn = loop_determinant(delta, U_hat)
    witness = None
    distance = None
    if det_fn.is_zero:
        # Singular at every z, the strongest destabilization a probe can find.
        distance = 0.0
    else:
        roots = roots_of(det_fn)
        if roots:
            witness = min(roots, key=lambda r: abs(abs(r) - 1.0))
            distance = abs(abs(witness) - 1.0)
    if real_peak and distance is not None and distance <= 1e-6:
        note = "boundary root found: margin is tight at a real-frequency peak"
        conclusive = True
    elif real_peak:
        note = "real-frequency peak but no boundary root within 1e-6"
        conclusive = False
    else:
        note = "complex-peak: tightness probe inconclusive"
        conclusive = False
    return TightnessProbe(delta=delta, peak_gain=gain, peak_omega=omega,
                          witness_root=witness, boundary_distance=distance,
                          conclusive=conclusive, note=note)
