"""Numeric pole, stability, and gain analysis of exact transfer matrices.

This layer leaves exact arithmetic: denominators are imaged to floating
point for companion-matrix root finding, and gains are measured by
singular values on the unit circle. (A Monte-Carlo sample's own check is
exact: realization.robust_verdict counts the zeros of its determinant
with poly._int_zeros_outside.)

Conventions: a matrix is stable when every entry is proper and every pole
has modulus below 1 (tolerance STABILITY_TOL, with an explicit "marginal"
verdict for poles in the boundary band instead of a coin flip).
stability_verdict roots each distinct denominator once, and a pole is a
witness once per entry over its denominator. The peak
gain is the supremum over z = exp(i*omega), omega in [0, pi], estimated on
a 4096-point grid and sharpened by zooming: the bracket around the maximum
is re-gridded with ZOOM_POINTS points until both neighbours of the level's
maximum lie within FLAT_ULPS ulps of it, or the bracket is narrower than
1e-13. Near a quadratic peak with its vertex between those neighbours, the
peak exceeds the level's maximum by at most an eighth of the gap to the
lower neighbour, so further levels could add at most one ulp. One
evaluator per matrix serves the grid, the zoom and freq_response. Beyond
two wide, the SVD runs only at points whose Frobenius norm (an upper bound
on the largest singular value) reaches the exact value at the point of
largest bound; a dropped point lies below that value, which the maximum
is at least, so the pruned grid returns the full grid's first maximum and
its frequency exactly. The grid value is a lower bound that refinement
only increases; relative accuracy 1e-6 is the documented target, not a
guarantee for pathological peaks. (A Monte-Carlo draw's norm is an upper
bound instead: uncertainty._DrawGram proves it with an exact level-set
test, and this grid runs for a draw only when the first bound tried, just
above the larger gain at omega = 0 or pi, fails.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotStable, PoleOnGrid
from .matrix import TransferMatrix
from .ratfun import RationalFunction

STABILITY_TOL = 1e-9
HINF_GRID = 4096
ZOOM_POINTS = 65
FLAT_ULPS = 8
POLE_GRID_TOL = 1e-12

STABLE = "stable"
MARGINAL = "marginal"
UNSTABLE = "unstable"
IMPROPER = "improper"


@dataclass(frozen=True, slots=True)
class StabilityVerdict:
    """Outcome of a membership test in the stable proper class.

    witnesses holds (pole, modulus) pairs for pole-based verdicts, or
    (row, col) entry indices for the improper verdict; it is empty exactly
    when the status is "stable".
    """

    status: str
    witnesses: tuple = ()

    def __post_init__(self):
        if self.status not in (STABLE, MARGINAL, UNSTABLE, IMPROPER):
            raise ValueError(f"unknown verdict status {self.status!r}")
        if (self.status == STABLE) != (len(self.witnesses) == 0):
            raise ValueError("stable verdicts carry no witnesses; others need some")

    @property
    def is_stable(self) -> bool:
        return self.status == STABLE

    def __str__(self) -> str:
        if self.is_stable:
            return STABLE
        return f"{self.status} ({len(self.witnesses)} witness(es))"


# The one stable verdict: it is frozen and has no witnesses, so every caller shares it.
STABLE_VERDICT = StabilityVerdict(STABLE)


def _as_matrix(x) -> TransferMatrix:
    if isinstance(x, TransferMatrix):
        return x
    if isinstance(x, RationalFunction):
        return TransferMatrix(1, 1, [x])
    raise TypeError(f"expected a transfer matrix or rational function, got {type(x).__name__}")


def roots_of(poly_like) -> list[complex]:
    """Roots of a Polynomial (or numerator of a RationalFunction), with multiplicity."""
    if isinstance(poly_like, RationalFunction):
        poly_like = poly_like.num
    if poly_like.is_constant:
        return []
    if poly_like.is_monomial:
        return [0j] * poly_like.degree  # c*z^k, exact
    # complex first: np.roots of a degree-1 polynomial is a real array.
    roots = np.roots(poly_like.float_coeffs_desc()).astype(complex)
    return np.sort(roots, kind="stable").tolist()  # by real part, then imaginary


def poles(f: RationalFunction) -> list[complex]:
    """Denominator roots via companion-matrix eigenvalues, with multiplicity."""
    return roots_of(f.den)


def matrix_poles(Xm) -> list[complex]:
    """Entrywise pole list of a transfer matrix (duplicates across entries kept)."""
    Xm = _as_matrix(Xm)
    out: list[complex] = []
    roots: dict = {}  # entries often share a denominator; root each one once
    for e in Xm.entries:
        if e.den not in roots:
            roots[e.den] = poles(e)
        out.extend(roots[e.den])
    return sorted(out, key=lambda c: (c.real, c.imag))


def stability_verdict(Xm) -> StabilityVerdict:
    """Classify a transfer matrix as stable/marginal/unstable/improper."""
    Xm = _as_matrix(Xm)
    improper = tuple(divmod(k, Xm.cols) for k, e in enumerate(Xm.entries) if not e.is_proper)
    if improper:
        return StabilityVerdict(IMPROPER, improper)
    groups: dict = {}  # denominator -> [its first entry, how many entries share it]
    for e in Xm.entries:
        group = groups.get(e.den)
        if group is None:
            groups[e.den] = [e, 1]
        else:
            group[1] += 1
    # Each pole is a witness once per entry over its denominator. Sorting
    # the distinct ones and then repeating each gives the order a stable
    # sort of the repeated list would.
    distinct = []
    unstable = False
    for e, count in groups.values():
        for p in poles(e):
            modulus = abs(p)
            if modulus >= 1 - STABILITY_TOL:
                distinct.append((p, modulus, count))
                unstable = unstable or modulus > 1 + STABILITY_TOL
    if not distinct:
        return STABLE_VERDICT
    distinct.sort(key=lambda w: (-w[1], w[0].real, w[0].imag))
    witnesses = []
    for p, modulus, count in distinct:
        witnesses += [(p, modulus)] * count
    return StabilityVerdict(UNSTABLE if unstable else MARGINAL, tuple(witnesses))


def require_stable(Xm, what: str) -> None:
    """Raise NotStable(f"{what} is {status}") unless Xm is stable."""
    verdict = stability_verdict(Xm)
    if not verdict.is_stable:
        raise NotStable(f"{what} is {verdict.status}")


# -- gain evaluation on the unit circle -------------------------------------

_GRID = np.linspace(0.0, math.pi, HINF_GRID)
_GRID_Z = np.exp(1j * _GRID)
_ZOOM_STEPS = np.linspace(0.0, 1.0, ZOOM_POINTS)
_EPS = float(np.finfo(float).eps)


def _on_circle(coeffs_desc: list[float], zs: np.ndarray) -> np.ndarray:
    """Horner's rule on an array of points, in np.polyval's operation order."""
    acc = np.full(zs.shape, coeffs_desc[0], dtype=complex)
    for c in coeffs_desc[1:]:
        acc *= zs
        acc += c
    return acc


def _sigma_max(v: list[np.ndarray], r: int, c: int) -> np.ndarray:
    """Largest singular value per point of r x c matrices with r or c at most
    2, in closed form from one array of values per entry in row-major order."""
    if r == 1 or c == 1:
        return np.sqrt(sum(np.abs(x) ** 2 for x in v))
    # Gram matrix [[a, b], [b*, d]] of the two columns (or rows) x and y.
    pairs = list(zip(v[0::2], v[1::2]) if c == 2 else zip(v[:c], v[c:]))
    a = sum(x.real ** 2 + x.imag ** 2 for x, _ in pairs)
    d = sum(y.real ** 2 + y.imag ** 2 for _, y in pairs)
    b = sum(np.conj(x) * y for x, y in pairs)
    half = 0.5 * (a - d)
    lam = 0.5 * (a + d) + np.sqrt(half * half + np.abs(b) ** 2)
    return np.sqrt(np.maximum(lam, 0.0))


class _GainEvaluator:
    """Entry values and largest singular value of one matrix at an array of
    points on the unit circle; the float coefficients are converted once."""

    def __init__(self, Xm: TransferMatrix):
        self.rows, self.cols = Xm.rows, Xm.cols
        self.coeffs = [(e.num.float_coeffs_desc(), tuple(e.den.float_coeffs_desc()))
                       for e in Xm.entries]

    def values(self, zs: np.ndarray):
        """Entry values at the points zs, one array per entry in row-major order.

        Each distinct denominator is evaluated once; numerators are streamed.
        """
        dens: dict = {}
        for num, den in self.coeffs:
            if den not in dens:
                dens[den] = _on_circle(den, zs)
            yield _on_circle(num, zs) / dens[den]

    def matrices(self, zs: np.ndarray) -> np.ndarray:
        """The values at the points zs as one (points, rows, cols) array."""
        out = np.empty((len(zs), self.rows * self.cols), dtype=complex)
        for k, x in enumerate(self.values(zs)):
            out[:, k] = x
        return out.reshape(len(zs), self.rows, self.cols)

    def peak(self, zs: np.ndarray) -> tuple[int, float, bool]:
        """Index and value of the first maximum over the points zs of the
        largest singular value, the same pair as argmax over every point,
        and whether both neighbours of that maximum lie within FLAT_ULPS
        ulps of it.

        Beyond two wide, the stacked SVD runs only where the Frobenius norm,
        an upper bound on the largest singular value, reaches the exact
        value at the point of largest bound (the floor). A dropped point lies
        below the floor, which is at most the maximum, so it cannot be the
        first maximum, and as a neighbour it is more than 1e-9 below the
        maximum, never flat. The 1e-9 slack covers rounding in the bound; a
        non-finite bound or floor keeps the point.
        """
        if min(self.rows, self.cols) <= 2:
            sig = _sigma_max(list(self.values(zs)), self.rows, self.cols)
        else:
            m = self.matrices(zs)
            re, im = m.real, m.imag
            bound = np.sqrt(np.einsum("pij,pij->p", re, re) + np.einsum("pij,pij->p", im, im))
            top = int(np.argmax(bound))
            floor = np.linalg.svd(m[top:top + 1], compute_uv=False)[0, 0]
            idx = np.flatnonzero(~(bound < floor * (1 - 1e-9)))
            sig = np.full(len(zs), -np.inf)
            sig[idx] = np.linalg.svd(m[idx], compute_uv=False)[:, 0]
        k = int(np.argmax(sig))
        low = min(sig[max(k - 1, 0)], sig[min(k + 1, len(sig) - 1)])
        return k, float(sig[k]), bool(sig[k] - low <= FLAT_ULPS * _EPS * sig[k])


def hinf_peak(Xm) -> tuple[float, float]:
    """(peak gain, peak frequency) of a stable transfer matrix.

    Raises NotStable when the stability precondition fails; the peak gain
    is undefined off the stable class. Raises ValueError when a nonzero
    matrix's peak underflows to 0.0.
    """
    Xm = _as_matrix(Xm)
    require_stable(Xm, "peak gain undefined: matrix")
    gain = _GainEvaluator(Xm)
    omegas = _GRID
    k, best_val, flat = gain.peak(_GRID_Z)
    best_om = float(omegas[k])
    # Re-grid the neighbours of each maximum until the level is flat or the
    # bracket vanishes; only strict improvements move the estimate, so the
    # grid value stays a lower bound.
    while True:
        lo = float(omegas[max(k - 1, 0)])
        hi = float(omegas[min(k + 1, len(omegas) - 1)])
        if flat or hi - lo < 1e-13:
            if best_val == 0.0 and not Xm.is_zero():
                raise ValueError("peak gain of a nonzero matrix underflows to 0.0")
            return best_val, best_om
        omegas = lo + (hi - lo) * _ZOOM_STEPS
        k, val, flat = gain.peak(np.exp(1j * omegas))
        if val > best_val:
            best_val, best_om = val, float(omegas[k])


def hinf_norm(Xm) -> float:
    """Peak gain over the unit circle (largest singular value)."""
    return hinf_peak(Xm)[0]


def small_gain_margin(Xm) -> float:
    """Small-gain margin 1 / ||Xm||, infinite for the zero map.

    Stable perturbations Delta of peak gain strictly below it keep
    (I - Delta Xm)^-1 stable.
    """
    Xm = _as_matrix(Xm)
    if Xm.is_zero():
        return math.inf
    return 1.0 / hinf_norm(Xm)


def freq_response(Xm, n_points: int) -> list[tuple[float, list[float]]]:
    """Singular values at n_points frequencies uniform in [0, pi].

    Raises PoleOnGrid if any entry pole sits within 1e-12 of a sample point.
    """
    Xm = _as_matrix(Xm)
    if n_points < 2:
        raise ValueError("need at least two frequency points")
    omegas = np.linspace(0.0, math.pi, n_points)
    zs = np.exp(1j * omegas)
    for p in matrix_poles(Xm):
        dists = np.abs(zs - p)
        k = int(np.argmin(dists))
        if dists[k] < POLE_GRID_TOL:
            raise PoleOnGrid(float(omegas[k]))
    svals = np.linalg.svd(_GainEvaluator(Xm).matrices(zs), compute_uv=False)
    return [(float(om), [float(s) for s in row]) for om, row in zip(omegas, svals)]
