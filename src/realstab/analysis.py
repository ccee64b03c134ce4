"""Numeric pole, stability, and gain analysis of exact transfer matrices.

This is the only layer that leaves exact arithmetic: denominators are
imaged to floating point for companion-matrix root finding, and gains are
measured by singular values on the unit circle.

Conventions: a matrix is stable when every entry is proper and every pole
has modulus below 1 (tolerance STABILITY_TOL, with an explicit "marginal"
verdict for poles in the boundary band instead of a coin flip). The peak
gain is the supremum over z = exp(i*omega), omega in [0, pi], estimated on
a 4096-point grid and sharpened by golden-section refinement around the
grid maximum. The grid value is a lower bound that refinement only
increases; relative accuracy 1e-6 is the documented target, not a
guarantee for pathological peaks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotStable, PoleOnGrid
from .matrix import TransferMatrix
from .ratfun import RationalFunction

STABILITY_TOL = 1e-9
HINF_GRID = 4096
POLE_GRID_TOL = 1e-12

STABLE = "stable"
MARGINAL = "marginal"
UNSTABLE = "unstable"
IMPROPER = "improper"


@dataclass(frozen=True)
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


def _as_matrix(x) -> TransferMatrix:
    if isinstance(x, TransferMatrix):
        return x
    if isinstance(x, RationalFunction):
        return TransferMatrix(1, 1, [x])
    raise TypeError(f"expected a transfer matrix or rational function, got {type(x).__name__}")


def poles(f: RationalFunction) -> list[complex]:
    """Denominator roots via companion-matrix eigenvalues, with multiplicity."""
    den = f.den
    if den.is_constant:
        return []
    if den.is_monomial:
        return [0j] * den.degree  # monic monomial z^k, exact
    roots = np.roots(den.float_coeffs_desc())
    return sorted((complex(r) for r in roots), key=lambda c: (c.real, c.imag))


def matrix_poles(Xm) -> list[complex]:
    """Entrywise pole list of a transfer matrix (duplicates across entries kept)."""
    Xm = _as_matrix(Xm)
    out: list[complex] = []
    for e in Xm.entries:
        out.extend(poles(e))
    return sorted(out, key=lambda c: (c.real, c.imag))


def stability_verdict(Xm, tol: float = STABILITY_TOL) -> StabilityVerdict:
    """Classify a transfer matrix as stable/marginal/unstable/improper."""
    Xm = _as_matrix(Xm)
    improper = tuple(
        (i, j) for i in range(Xm.rows) for j in range(Xm.cols)
        if not Xm[i, j].is_proper
    )
    if improper:
        return StabilityVerdict(IMPROPER, improper)
    all_poles = matrix_poles(Xm)
    outside = [(p, abs(p)) for p in all_poles if abs(p) > 1 + tol]
    if outside:
        boundary = [(p, abs(p)) for p in all_poles if 1 - tol <= abs(p) <= 1 + tol]
        witnesses = sorted(outside + boundary, key=lambda w: (-w[1], w[0].real, w[0].imag))
        return StabilityVerdict(UNSTABLE, tuple(witnesses))
    boundary = [(p, abs(p)) for p in all_poles if abs(p) >= 1 - tol]
    if boundary:
        witnesses = sorted(boundary, key=lambda w: (-w[1], w[0].real, w[0].imag))
        return StabilityVerdict(MARGINAL, tuple(witnesses))
    return StabilityVerdict(STABLE)


# -- gain evaluation on the unit circle -------------------------------------


def _entry_coeffs(Xm: TransferMatrix):
    return [(e.num.float_coeffs_desc(), e.den.float_coeffs_desc()) for e in Xm.entries]


def _values_on_circle(Xm: TransferMatrix, omegas: np.ndarray) -> np.ndarray:
    """Array of shape (len(omegas), rows, cols) of entry values at exp(i*omega)."""
    zs = np.exp(1j * omegas)
    vals = np.empty((len(omegas), Xm.rows, Xm.cols), dtype=complex)
    coeffs = _entry_coeffs(Xm)
    for idx, (num, den) in enumerate(coeffs):
        i, j = divmod(idx, Xm.cols)
        vals[:, i, j] = np.polyval(num, zs) / np.polyval(den, zs)
    return vals


def _sigma_max(vals: np.ndarray) -> np.ndarray:
    """Largest singular value per stacked matrix, with closed forms for tiny shapes."""
    _, r, c = vals.shape
    if r == 1 or c == 1:
        return np.sqrt(np.sum(np.abs(vals) ** 2, axis=(1, 2)))
    if min(r, c) == 2:
        if c <= r:
            gram = np.conj(np.swapaxes(vals, 1, 2)) @ vals
        else:
            gram = vals @ np.conj(np.swapaxes(vals, 1, 2))
        a = gram[:, 0, 0].real
        d = gram[:, 1, 1].real
        b = gram[:, 0, 1]
        half = 0.5 * (a - d)
        lam = 0.5 * (a + d) + np.sqrt(half * half + np.abs(b) ** 2)
        return np.sqrt(np.maximum(lam, 0.0))
    return np.linalg.svd(vals, compute_uv=False)[:, 0]


def _horner(coeffs_desc: list[float], x: complex) -> complex:
    acc = 0.0 + 0.0j
    for c in coeffs_desc:
        acc = acc * x + c
    return acc


class _PointGain:
    """Scalar-frequency gain evaluator; plain-Python Horner keeps the
    golden-section refinement cheap enough for sampling loops."""

    def __init__(self, Xm: TransferMatrix):
        self.rows = Xm.rows
        self.cols = Xm.cols
        self.coeffs = _entry_coeffs(Xm)

    def __call__(self, omega: float) -> float:
        x = cmath.exp(1j * omega)
        vals = [_horner(num, x) / _horner(den, x) for num, den in self.coeffs]
        r, c = self.rows, self.cols
        if r == 1 or c == 1:
            return math.sqrt(sum(abs(v) ** 2 for v in vals))
        if min(r, c) == 2:
            m = [[vals[i * c + j] for j in range(c)] for i in range(r)]
            if c <= r:
                a = sum(abs(m[k][0]) ** 2 for k in range(r))
                d = sum(abs(m[k][1]) ** 2 for k in range(r))
                b = sum(m[k][0].conjugate() * m[k][1] for k in range(r))
            else:
                a = sum(abs(m[0][k]) ** 2 for k in range(c))
                d = sum(abs(m[1][k]) ** 2 for k in range(c))
                b = sum(m[0][k] * m[1][k].conjugate() for k in range(c))
            half = 0.5 * (a - d)
            lam = 0.5 * (a + d) + math.sqrt(half * half + abs(b) ** 2)
            return math.sqrt(max(lam, 0.0))
        arr = np.array(vals, dtype=complex).reshape(r, c)
        return float(np.linalg.svd(arr, compute_uv=False)[0])


def hinf_peak(Xm, grid: int = HINF_GRID) -> tuple[float, float]:
    """(peak gain, peak frequency) of a stable transfer matrix.

    Raises NotStable when the stability precondition fails; the peak gain
    is undefined off the stable class.
    """
    Xm = _as_matrix(Xm)
    verdict = stability_verdict(Xm)
    if not verdict.is_stable:
        raise NotStable(f"peak gain undefined: matrix is {verdict.status}")
    omegas = np.linspace(0.0, math.pi, grid)
    sig = _sigma_max(_values_on_circle(Xm, omegas))
    k = int(np.argmax(sig))
    best_val = float(sig[k])
    best_om = float(omegas[k])
    lo = float(omegas[k - 1]) if k > 0 else float(omegas[0])
    hi = float(omegas[k + 1]) if k < grid - 1 else float(omegas[-1])
    # Golden-section refinement; only strict improvements move the estimate,
    # so the grid value stays a lower bound.
    gain_at = _PointGain(Xm)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = gain_at(x1)
    f2 = gain_at(x2)
    for _ in range(64):
        if b - a < 1e-13:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = gain_at(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = gain_at(x1)
    for om, val in ((x1, f1), (x2, f2)):
        if val > best_val:
            best_val, best_om = val, om
    return best_val, best_om


def hinf_norm(Xm, grid: int = HINF_GRID) -> float:
    """Peak gain over the unit circle (largest singular value)."""
    return hinf_peak(Xm, grid)[0]


def freq_response(Xm, n_points: int) -> list[tuple[float, list[float]]]:
    """Singular values at n_points frequencies uniform in [0, pi].

    Raises PoleOnGrid if any entry pole sits within 1e-12 of a sample point.
    """
    Xm = _as_matrix(Xm)
    if n_points < 2:
        raise ValueError("need at least two frequency points")
    omegas = np.linspace(0.0, math.pi, n_points)
    zs = np.exp(1j * omegas)
    all_poles = matrix_poles(Xm)
    for p in all_poles:
        dists = np.abs(zs - p)
        k = int(np.argmin(dists))
        if dists[k] < POLE_GRID_TOL:
            raise PoleOnGrid(float(omegas[k]))
    vals = _values_on_circle(Xm, omegas)
    svals = np.linalg.svd(vals, compute_uv=False)
    return [(float(om), [float(s) for s in row]) for om, row in zip(omegas, svals)]


def roots_of(poly_like) -> list[complex]:
    """Roots of a Polynomial (or numerator of a RationalFunction)."""
    if isinstance(poly_like, RationalFunction):
        poly_like = poly_like.num
    if poly_like.is_constant:
        return []
    roots = np.roots(poly_like.float_coeffs_desc())
    return sorted((complex(r) for r in roots), key=lambda c: (c.real, c.imag))
