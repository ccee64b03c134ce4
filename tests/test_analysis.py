import math
from fractions import Fraction

import numpy as np
import pytest

from realstab.analysis import (
    _sigma_max,
    freq_response,
    hinf_norm,
    hinf_peak,
    matrix_poles,
    poles,
    stability_verdict,
)
from realstab.errors import NotStable, PoleOnGrid
from realstab.matrix import TransferMatrix

from conftest import HALF, Z, random_proper, rf


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


def test_hinf_peak_at_dc():
    assert abs(hinf_norm(TransferMatrix(1, 1, [rf(Z, 2 * Z - 1)])) - 1.0) < 1e-6


def test_hinf_constant():
    assert abs(hinf_norm(TransferMatrix(1, 1, [rf(Fraction(-7, 2))])) - 3.5) < 1e-12


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
