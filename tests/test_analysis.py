import math
from fractions import Fraction

import numpy as np
import pytest

from realstab.analysis import (
    FLAT_ULPS,
    HINF_GRID,
    ZOOM_POINTS,
    _GainEvaluator,
    _on_circle,
    _sigma_max,
    freq_response,
    hinf_norm,
    hinf_peak,
    matrix_poles,
    poles,
    roots_of,
    small_gain_margin,
    stability_verdict,
)
from realstab.errors import NotStable, PoleOnGrid
from realstab.matrix import TransferMatrix
from realstab.uncertainty import _fir_entry

from conftest import HALF, Z, random_proper, rf

EPS = float(np.finfo(float).eps)


def _stable_entry(rng):
    while True:
        f = random_proper(rng)
        if stability_verdict(f).is_stable:
            return f


def test_poles_linear_factor():
    assert poles(rf(1, Z - HALF)) == [complex(0.5, 0.0)]


def test_poles_double_root():
    got = poles(rf(1, Z * Z - Z + Fraction(1, 4)))
    assert len(got) == 2
    for p in got:
        assert abs(p - 0.5) < 1e-8


def test_poles_constant_denominator_empty():
    assert poles(rf(3)) == []


def test_poles_count_matches_degree(rng):
    for _ in range(100):
        f = random_proper(rng)
        assert len(poles(f)) == f.den.degree


def test_verdict_stable():
    v = stability_verdict(TransferMatrix(1, 1, [rf(Z, Z - HALF)]))
    assert v.status == "stable" and v.witnesses == ()


def test_verdict_marginal_boundary_pole():
    v = stability_verdict(TransferMatrix(1, 1, [rf(2 * Z - 1, Z - 1)]))
    assert v.status == "marginal"
    (pole, modulus), = v.witnesses
    assert abs(pole - 1.0) < 1e-9 and abs(modulus - 1.0) < 1e-9


def test_verdict_unstable():
    v = stability_verdict(TransferMatrix(1, 1, [rf(1, Z - 2)]))
    assert v.status == "unstable"
    assert v.witnesses[0][1] > 1.5


def test_verdict_improper():
    v = stability_verdict(TransferMatrix(1, 1, [rf(Z * Z, Z - HALF)]))
    assert v.status == "improper"
    assert v.witnesses == ((0, 0),)


def test_verdict_repeats_the_witnesses_of_a_shared_denominator():
    # Three entries over (z - 2)(z + 3), one over z + 2, two over (z - 1)(z - 1/2).
    d = (Z - 2) * (Z + 3)
    e = (Z - 1) * (Z - HALF)
    X = TransferMatrix(2, 3, [rf(1, d), rf(Z, d), rf(1, Z + 2),
                              rf(7, d), rf(1, e), rf(Z, e)])
    v = stability_verdict(X)
    assert v.status == "unstable"
    assert [round(p.real, 9) for p, _ in v.witnesses] == [-3, -3, -3, -2, 2, 2, 2, 1, 1]
    assert all(p.imag == 0 and m == abs(p) for p, m in v.witnesses)
    # The entrywise pole list, filtered and sorted, gives the same tuple.
    want = sorted(((p, abs(p)) for p in matrix_poles(X) if abs(p) >= 1 - 1e-9),
                  key=lambda w: (-w[1], w[0].real, w[0].imag))
    assert v.witnesses == tuple(want)


def test_hinf_peak_at_dc():
    assert abs(hinf_norm(TransferMatrix(1, 1, [rf(Z, 2 * Z - 1)])) - 1.0) < 1e-6


def test_hinf_constant():
    assert abs(hinf_norm(TransferMatrix(1, 1, [rf(Fraction(-7, 2))])) - 3.5) < 1e-12


def test_peak_gain_underflow_is_an_error():
    tiny = TransferMatrix(1, 1, [rf(Fraction(1, 10 ** 400), Z)])
    with pytest.raises(ValueError, match="underflows"):
        hinf_peak(tiny)
    with pytest.raises(ValueError, match="underflows"):
        small_gain_margin(tiny)
    assert hinf_peak(TransferMatrix.zeros(1, 1)) == (0.0, 0.0)


def test_hinf_first_order():
    assert abs(hinf_norm(TransferMatrix(1, 1, [rf(1, Z - HALF)])) - 2.0) < 1e-6


def test_hinf_requires_stability():
    with pytest.raises(NotStable):
        hinf_norm(TransferMatrix(1, 1, [rf(1, Z - 1)]))


def test_hinf_interior_peak_found():
    # 1/(z^2 + 81/100) peaks near omega = pi/2 with value 1/(1 - 0.81)
    f = TransferMatrix(1, 1, [rf(1, Z * Z + Fraction(81, 100))])
    value, omega = hinf_peak(f)
    assert abs(value - 1.0 / 0.19) < 1e-5
    assert abs(omega - math.pi / 2) < 1e-3


def test_hinf_upper_bounds_grid(rng):
    for _ in range(10):
        f = random_proper(rng)
        X = TransferMatrix(1, 1, [f])
        if not stability_verdict(X).is_stable:
            continue
        norm = hinf_norm(X)
        sweep = freq_response(X, 257)
        assert norm >= max(s[0] for _, s in sweep) - 1e-12
    for rows, cols in ((2, 2), (2, 3), (3, 3)):
        for _ in range(5):
            X = TransferMatrix(rows, cols, [_stable_entry(rng) for _ in range(rows * cols)])
            norm = hinf_norm(X)
            sweep = freq_response(X, 257)
            assert norm >= max(s[0] for _, s in sweep) * (1 - 1e-12)


@pytest.mark.parametrize("rows, cols", sorted({(w, n) for n in range(1, 5) for w in (1, 2)}
                                              | {(n, w) for n in range(1, 5) for w in (1, 2)}))
def test_sigma_max_closed_forms_match_svd(rows, cols):
    gen = np.random.default_rng(100 * rows + cols)
    vals = gen.normal(size=(64, rows, cols)) + 1j * gen.normal(size=(64, rows, cols))
    vals[0] = 0.0
    want = np.linalg.svd(vals, compute_uv=False)[:, 0]
    got = _sigma_max([vals[:, i, j] for i in range(rows) for j in range(cols)], rows, cols)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(want, 1e-300))


def _reference_hinf_peak(X):
    """hinf_peak with the stacked SVD at every point of the grid and of each zoom."""
    coeffs = [(e.num.float_coeffs_desc(), e.den.float_coeffs_desc()) for e in X.entries]

    def sigma(omegas):
        zs = np.exp(1j * omegas)
        vals = np.stack([_on_circle(n, zs) / _on_circle(d, zs) for n, d in coeffs], axis=1)
        return np.linalg.svd(vals.reshape(len(zs), X.rows, X.cols), compute_uv=False)[:, 0]

    omegas = np.linspace(0.0, math.pi, HINF_GRID)
    sig = sigma(omegas)
    k = int(np.argmax(sig))
    best_val, best_om = float(sig[k]), float(omegas[k])
    while True:
        lo = float(omegas[max(k - 1, 0)])
        hi = float(omegas[min(k + 1, len(omegas) - 1)])
        low = min(sig[max(k - 1, 0)], sig[min(k + 1, len(sig) - 1)])
        if sig[k] - low <= FLAT_ULPS * EPS * sig[k] or hi - lo < 1e-13:
            return best_val, best_om
        omegas = lo + (hi - lo) * np.linspace(0.0, 1.0, ZOOM_POINTS)
        sig = sigma(omegas)
        k = int(np.argmax(sig))
        if sig[k] > best_val:
            best_val, best_om = float(sig[k]), float(omegas[k])


def _shared_denominator_matrix(rng, rows, cols):
    """Entries c f + d g over two stable f, g: at most three distinct denominators."""
    f, g = _stable_entry(rng), _stable_entry(rng)
    return TransferMatrix(rows, cols, [rng.randint(-2, 2) * f + rng.randint(-2, 2) * g
                                       for _ in range(rows * cols)])


def test_pruned_peak_equals_full_grid_reference(rng):
    for n in range(3, 7):
        for rows, cols in ((n, n), (n, 3), (3, n)):
            own = TransferMatrix(rows, cols, [_stable_entry(rng) for _ in range(rows * cols)])
            for X in (own, _shared_denominator_matrix(rng, rows, cols)):
                assert hinf_peak(X) == _reference_hinf_peak(X)
                assert matrix_poles(X) == sorted(
                    (p for e in X.entries for p in roots_of(e.den)),
                    key=lambda c: (c.real, c.imag))


def test_pruned_peak_constant_matrix_takes_first_index():
    # Every point ties, so every bound ties and the first grid point wins.
    X = TransferMatrix.from_rows([[rf(Fraction(i - 2 * j, 3)) for j in range(4)]
                                  for i in range(3)])
    assert _GainEvaluator(X).peak(np.exp(1j * np.linspace(0.0, math.pi, HINF_GRID)))[0] == 0
    assert hinf_peak(X) == _reference_hinf_peak(X)
    assert hinf_peak(X)[1] == 0.0


@pytest.mark.parametrize("den", [Z - Fraction(9, 10), Z * Z - Z + Fraction(9801, 10000),
                                 Z * Z + Fraction(81, 100)])
def test_pruned_peak_rank_one_bound_is_tight(den):
    # u v^T f has sigma_max = ||u|| ||v|| |f| = Frobenius norm at every point,
    # so the bound meets the floor up to rounding and the slack must keep it.
    f = rf(1, den)
    u, v = (1, -2, 3, Fraction(1, 3)), (Fraction(2, 5), 1, -1, Fraction(7, 3))
    X = TransferMatrix.from_rows([[ui * vj * f for vj in v] for ui in u])
    assert hinf_peak(X) == _reference_hinf_peak(X)


def test_pruned_peak_when_frobenius_and_sigma_maxima_differ():
    # diag(a, b, b): |a| is 2 at omega = 0 and 1.5 at pi, |b| is 0.1 at 0 and
    # 1.5 at pi. The Frobenius norm peaks at pi (sqrt(6.75)), sigma_max at 0 (2).
    a = rf(Fraction(7, 4) * Z + Fraction(1, 4), Z)
    b = rf(Fraction(4, 5) * Z - Fraction(7, 10), Z)
    X = TransferMatrix.from_rows([[a, rf(0), rf(0)], [rf(0), b, rf(0)], [rf(0), rf(0), b]])
    zs = np.exp(1j * np.linspace(0.0, math.pi, HINF_GRID))
    frob = np.linalg.norm(_GainEvaluator(X).matrices(zs), axis=(1, 2))
    assert int(np.argmax(frob)) == HINF_GRID - 1
    assert _GainEvaluator(X).peak(zs)[0] == 0
    value, omega = hinf_peak(X)
    assert (value, omega) == _reference_hinf_peak(X)
    assert abs(value - 2.0) < 1e-12 and omega == 0.0


def test_hinf_peak_of_rotated_resonance():
    # Q diag(1/(z^2 + 81/100), 1/2) Q^T with Q a rotation keeps the singular
    # values, so the peak is 1/0.19 at omega = pi/2, between grid points.
    q = TransferMatrix.from_rows([[rf(Fraction(3, 5)), rf(Fraction(4, 5))],
                                  [rf(Fraction(-4, 5)), rf(Fraction(3, 5))]])
    qt = TransferMatrix.from_rows([[q[0, 0], q[1, 0]], [q[0, 1], q[1, 1]]])
    d = TransferMatrix.from_rows([[rf(1, Z * Z + Fraction(81, 100)), rf(0)],
                                  [rf(0), rf(HALF)]])
    value, omega = hinf_peak(q * d * qt)
    assert abs(value - 1.0 / 0.19) < 1e-9
    assert abs(omega - math.pi / 2) < 1e-6


def test_hinf_peak_refines_sharp_resonance():
    # Poles at modulus 0.99 make a peak about 0.01 wide at an angle off the
    # grid; the reference maximizes np.polyval values on a 1e-8 grid.
    den = Z * Z - Z + Fraction(9801, 10000)
    value, omega = hinf_peak(TransferMatrix(1, 1, [rf(1, den)]))
    coeffs = den.float_coeffs_desc()
    near = np.linspace(omega - 1e-3, omega + 1e-3, 200001)
    ref = np.max(1.0 / np.abs(np.polyval(coeffs, np.exp(1j * near))))
    assert abs(value - ref) <= 1e-9 * ref


def _exhaustive_hinf_peak(X):
    """The zoom without the flatness stop, on hinf_peak's own evaluator:
    re-grid until the bracket is narrower than 1e-13."""
    gain = _GainEvaluator(X)
    omegas = np.linspace(0.0, math.pi, HINF_GRID)
    k, best_val, _ = gain.peak(np.exp(1j * omegas))
    best_om = float(omegas[k])
    while True:
        lo = float(omegas[max(k - 1, 0)])
        hi = float(omegas[min(k + 1, len(omegas) - 1)])
        if hi - lo < 1e-13:
            return best_val, best_om
        omegas = lo + (hi - lo) * np.linspace(0.0, 1.0, ZOOM_POINTS)
        k, val, _ = gain.peak(np.exp(1j * omegas))
        if val > best_val:
            best_val, best_om = val, float(omegas[k])


def _assert_within_flat_tolerance(X):
    # The flat stop ends a prefix of the exhaustive zoom, so it never exceeds
    # the exhaustive value and, by the gap / 8 bound, trails it by at most
    # FLAT_ULPS ulps.
    value, omega = hinf_peak(X)
    ref, ref_omega = _exhaustive_hinf_peak(X)
    assert ref * (1 - FLAT_ULPS * EPS) <= value <= ref
    return value, omega, ref_omega


def _fir_matrix(seed, rows, cols, order):
    gen = np.random.default_rng(seed)
    return TransferMatrix(rows, cols, [_fir_entry(gen, order) for _ in range(rows * cols)])


def test_flat_stop_on_fir_draws():
    for rows in range(1, 4):
        for cols in range(1, 4):
            for order in range(1, 5):
                for seed in range(3):
                    _assert_within_flat_tolerance(_fir_matrix(seed, rows, cols, order))


def test_flat_stop_on_stable_matrices(rng):
    for n in range(1, 5):
        for rows, cols in ((n, n), (n, 1), (1, n), (n, 2)):
            for _ in range(2):
                X = TransferMatrix(rows, cols, [_stable_entry(rng) for _ in range(rows * cols)])
                _assert_within_flat_tolerance(X)


@pytest.mark.parametrize("r2", [Fraction(9801, 10000), Fraction(998001, 1000000)])
def test_flat_stop_on_sharp_resonances(r2):
    # Poles at modulus 0.99 and 0.999, at angles off the grid.
    for a in (Fraction(1), Fraction(-3, 2), Fraction(1, 7)):
        f = rf(1, Z * Z - a * Z + r2)
        _assert_within_flat_tolerance(TransferMatrix(1, 1, [f]))
        _assert_within_flat_tolerance(TransferMatrix(2, 2, [f, rf(HALF), rf(0), f * f]))


def test_flat_stop_keeps_peaks_at_the_band_edges():
    at_dc = TransferMatrix(1, 1, [rf(1, Z - HALF)])
    value, omega, ref_omega = _assert_within_flat_tolerance(at_dc)
    assert omega == ref_omega == 0.0 and abs(value - 2.0) < 1e-12
    at_pi = TransferMatrix(2, 2, [rf(1, Z + HALF), rf(0), rf(0), rf(HALF, Z + Fraction(9, 10))])
    value, omega, ref_omega = _assert_within_flat_tolerance(at_pi)
    assert omega == ref_omega and abs(omega - math.pi) < 1e-12 and abs(value - 5.0) < 1e-12


def test_fir_draw_peak_takes_at_most_five_evaluations(monkeypatch):
    # The exhaustive zoom takes 8: the grid and 7 levels down to 1e-13.
    calls = []
    peak = _GainEvaluator.peak
    monkeypatch.setattr(_GainEvaluator, "peak", lambda self, zs: calls.append(1) or peak(self, zs))
    for seed in range(40):
        calls.clear()
        hinf_peak(_fir_matrix(seed, 2, 2, 1 + seed % 4))
        assert len(calls) <= 5


def test_freq_response_constant():
    rows = freq_response(TransferMatrix(1, 1, [rf(2)]), 5)
    assert len(rows) == 5
    assert all(abs(s[0] - 2.0) < 1e-12 for _, s in rows)


def test_freq_response_allpass():
    rows = freq_response(TransferMatrix(1, 1, [rf(1, Z)]), 9)
    assert all(abs(s[0] - 1.0) < 1e-12 for _, s in rows)


def test_freq_response_values():
    rows = freq_response(TransferMatrix(1, 1, [rf(Z, 2 * Z - 1)]), 3)
    omegas = [om for om, _ in rows]
    assert np.allclose(omegas, [0.0, math.pi / 2, math.pi])
    assert abs(rows[0][1][0] - 1.0) < 1e-12
    assert abs(rows[1][1][0] - 1.0 / math.sqrt(5.0)) < 1e-12
    assert abs(rows[2][1][0] - 1.0 / 3.0) < 1e-12


def test_freq_response_pole_on_grid():
    X = TransferMatrix(1, 1, [rf(2 * Z - 1, Z - 1)])
    with pytest.raises(PoleOnGrid) as err:
        freq_response(X, 3)
    assert err.value.omega == 0.0


def test_freq_response_needs_two_points():
    with pytest.raises(ValueError):
        freq_response(TransferMatrix.identity(1), 1)


def test_matrix_poles_collects_entries():
    X = TransferMatrix(1, 2, [rf(1, Z - HALF), rf(1, Z + HALF)])
    got = matrix_poles(X)
    assert len(got) == 2
    assert abs(got[0] + 0.5) < 1e-9 and abs(got[1] - 0.5) < 1e-9


def test_multivariate_gain_uses_singular_values():
    X = TransferMatrix.from_rows([[rf(1), rf(0)], [rf(0), rf(2)]])
    assert abs(hinf_norm(X) - 2.0) < 1e-12
    rows = freq_response(X, 3)
    assert np.allclose(rows[0][1], [2.0, 1.0])
