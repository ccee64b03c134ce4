import re
from fractions import Fraction

import numpy as np
import pytest

from realstab.analysis import freq_response, stability_verdict
from realstab.errors import NotStable, NotStabilizing, SingularMatrix, SingularPerturbedLoop
from realstab.matrix import StateSpace, TransferMatrix, block_matrix
from realstab.realization import (
    build_output_feedback,
    perturbed_stability,
    stability_matrix,
)
from realstab.sls import (
    cor7_realization_delta,
    sls_of_controller,
    sls_of_from_blocks,
    sls_of_from_controller,
    sls_of_margin,
    sls_of_perturbed_response,
    sls_of_robust_check,
    sls_of_verify,
    sls_sf_from_gain,
    sls_sf_robust,
)

from conftest import HALF, Z, random_fm, random_stable_fir_tm, rf


def deadbeat_maps():
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    return ss, sls_sf_from_gain(ss, [[-HALF]])


def scalar_of():
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    K = TransferMatrix(1, 1, [rf(-HALF)])
    return ss, K, sls_of_from_controller(ss, K)


def test_state_feedback_deadbeat_maps():
    _, maps = deadbeat_maps()
    assert maps.phi_x == TransferMatrix(1, 1, [rf(1, Z)])
    assert maps.phi_u == TransferMatrix(1, 1, [rf(-HALF, Z)])
    assert maps.defect.is_zero()


def test_state_feedback_zero_gain_open_loop():
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    maps = sls_sf_from_gain(ss, [[0]])
    assert maps.phi_x == ss.resolvent()
    assert maps.phi_u.is_zero()
    assert maps.defect.is_zero()


def test_state_feedback_rejects_non_stabilizing():
    ss = StateSpace([[2]], [[0]], [[1]], [[0]])
    with pytest.raises(NotStabilizing):
        sls_sf_from_gain(ss, [[0]])


@pytest.mark.parametrize("A, B, K", [
    ([[HALF]], [[1]], [[HALF]]),                # A + BK = 1
    ([[HALF]], [[1]], [[-3 * HALF]]),           # A + BK = -1
    ([[0, 0], [1, 0]], [[1], [0]], [[0, -1]]),  # A + BK = [[0, -1], [1, 0]], eigenvalues +-i
])
def test_state_feedback_rejects_gain_on_the_circle(A, B, K):
    ss = StateSpace(A, B, [[0] * len(A)], [[0]])
    message = "A + B*K leaves an eigenvalue on or outside the unit circle"
    with pytest.raises(NotStabilizing, match=re.escape(message)):
        sls_sf_from_gain(ss, K)


def test_state_feedback_maps_match_closed_forms(rng):
    # The maps read off the loop's stability matrix equal (zI - A - BK)^-1 and
    # K (zI - A - BK)^-1, and the loop's verdict decides what eigvals does.
    stable = unstable = 0
    for _ in range(30):
        n, m = rng.randint(2, 4), rng.randint(1, 2)
        A = [[x / 2 for x in row] for row in random_fm(rng, n, n, -1, 1)]
        B = random_fm(rng, n, m, -1, 1)
        ss = StateSpace(A, B, [[0] * n], [[0] * m])
        K = random_fm(rng, m, n, -1, 1)
        Aa, Ba, Ka = (np.array(X, dtype=float) for X in (A, B, K))
        if max(abs(np.linalg.eigvals(Aa + Ba @ Ka))) >= 1 - 1e-9:
            with pytest.raises(NotStabilizing):
                sls_sf_from_gain(ss, K)
            unstable += 1
            continue
        maps = sls_sf_from_gain(ss, K)
        Km = TransferMatrix.constant(K)
        phi_x = (ss.z_minus_a() - ss.B * Km).inverse()
        assert maps.phi_x == phi_x
        assert maps.phi_u == Km * phi_x
        assert maps.defect.is_zero()
        stable += 1
    assert stable >= 5 and unstable >= 5


def test_state_feedback_robust_drift():
    _, maps = deadbeat_maps()
    for delta, expect in ((Fraction(99, 100), "stable"), (Fraction(1), "marginal")):
        ss_true = StateSpace([[HALF + delta]], [[1]], [[1]], [[0]])
        defect, verdict, responses = sls_sf_robust(ss_true, maps.phi_x, maps.phi_u)
        assert defect == TransferMatrix(1, 1, [rf(-delta, Z)])
        assert responses.submatrix((0, 1), (0, 1)) == TransferMatrix(1, 1, [rf(1, Z - delta)])
        assert verdict.status == expect


def test_state_feedback_robust_nominal_is_exact():
    ss, maps = deadbeat_maps()
    defect, verdict, responses = sls_sf_robust(ss, maps.phi_x, maps.phi_u)
    assert defect.is_zero()
    assert verdict.is_stable
    assert responses == maps.stacked()


def test_output_feedback_blocks_verify():
    ss, K, maps = scalar_of()
    assert sls_of_verify(ss, maps)
    assert maps.defect1.is_zero() and maps.defect2.is_zero()


def test_output_feedback_improper_block_fails():
    ss, K, maps = scalar_of()
    bad = sls_of_from_blocks(ss, maps.phi_xx, maps.phi_xy, maps.phi_ux,
                             maps.phi_uy + TransferMatrix(1, 1, [rf(Z)]))
    assert not sls_of_verify(ss, bad)


def test_output_feedback_each_identity_fails_on_its_own():
    ss, _, maps = scalar_of()
    c = rf(Fraction(1, 4))
    res, one = ss.resolvent(), TransferMatrix.identity(1)
    # Phi + [res B; I] [O, c] keeps [zI-A, -B] Phi = [I, O] and breaks
    # Phi [zI-A; -C] = [I; O]; Phi + [O; c] [C res, I] keeps the second only.
    right_broken = sls_of_from_blocks(ss, maps.phi_xx, maps.phi_xy + res * c,
                                      maps.phi_ux, maps.phi_uy + one * c)
    left_broken = sls_of_from_blocks(ss, maps.phi_xx, maps.phi_xy,
                                     maps.phi_ux + res * c, maps.phi_uy + one * c)
    zia_minus_b = block_matrix([[ss.z_minus_a(), -ss.B]])
    zia_over_minus_c = block_matrix([[ss.z_minus_a()], [-ss.C]])
    zero = TransferMatrix.zeros(1, 1)
    for bad in (right_broken, left_broken):
        left = zia_minus_b * bad.block() == block_matrix([[one, zero]])
        right = bad.block() * zia_over_minus_c == block_matrix([[one], [zero]])
        assert (left, right) == ((True, False) if bad is right_broken else (False, True))
        assert all(e.is_strictly_proper for X in (bad.phi_xx, bad.phi_xy, bad.phi_ux)
                   for e in X.entries)
        assert stability_verdict(bad.block()).is_stable
        assert not sls_of_verify(ss, bad)


def test_output_feedback_open_loop_blocks():
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    maps = sls_of_from_controller(ss, TransferMatrix.zeros(1, 1))
    assert maps.phi_xx == ss.resolvent()
    assert maps.phi_ux.is_zero() and maps.phi_uy.is_zero()
    assert sls_of_verify(ss, maps)


def test_output_feedback_controller_recovery():
    ss, K, maps = scalar_of()
    assert sls_of_controller(maps) == K
    assert sls_of_controller(maps, [[0]]) == K


def test_output_feedback_controller_with_feedthrough():
    # K0 = -1/2 with D = 1: K = K0 (I + D K0)^-1 = -1
    ss, K, maps = scalar_of()
    wrapped = sls_of_controller(maps, [[1]])
    assert wrapped == TransferMatrix(1, 1, [rf(-1)])


def test_output_feedback_controller_singular_phi_xx():
    ss, K, maps = scalar_of()
    broken = sls_of_from_blocks(ss, TransferMatrix.zeros(1, 1), maps.phi_xy,
                                maps.phi_ux, maps.phi_uy)
    with pytest.raises(SingularMatrix):
        sls_of_controller(broken)


def test_perturbed_response_nominal():
    ss, K, maps = scalar_of()
    assert sls_of_perturbed_response(maps) == maps.block()


def test_perturbed_response_measurement_drift():
    ss, K, maps = scalar_of()
    dc = Fraction(1, 4)
    perturbed = StateSpace(ss.A, ss.B, [[1 + dc]], ss.D)
    drifted = sls_of_from_blocks(perturbed, maps.phi_xx, maps.phi_xy,
                                 maps.phi_ux, maps.phi_uy)
    dC = TransferMatrix(1, 1, [rf(dc)])
    assert drifted.defect1 == -(maps.phi_xy * dC)
    assert drifted.defect2 == -(maps.phi_uy * dC)
    response = sls_of_perturbed_response(drifted)
    blocks = sls_of_from_blocks(perturbed,
                                response.submatrix((0, 1), (0, 1)),
                                response.submatrix((0, 1), (1, 2)),
                                response.submatrix((1, 2), (0, 1)),
                                response.submatrix((1, 2), (1, 2)))
    assert sls_of_verify(perturbed, blocks)


def test_robust_check_zero_perturbation():
    ss, K, maps = scalar_of()
    zero = TransferMatrix.zeros(1, 1)
    psi, verdict = sls_of_robust_check(ss, maps, zero, zero, zero, zero)
    assert psi == TransferMatrix.identity(2)
    assert verdict.is_stable


def test_robust_check_requires_stable_blocks():
    ss, K, maps = scalar_of()
    zero = TransferMatrix.zeros(1, 1)
    bad = TransferMatrix(1, 1, [rf(1, Z - 2)])
    with pytest.raises(NotStable):
        sls_of_robust_check(ss, maps, bad, zero, zero, zero)


def test_robust_check_matches_direct_perturbation(rng):
    ss, K, maps = scalar_of()
    loop = build_output_feedback(ss, K)
    S_hat = stability_matrix(loop)
    zero = TransferMatrix.zeros(1, 1)
    for scale in (Fraction(1, 4), Fraction(3, 4), Fraction(3, 2), Fraction(5, 2)):
        dA = TransferMatrix(1, 1, [rf(scale)])
        dB = random_stable_fir_tm(rng, 1, 1, order=1, scale=Fraction(1, 4))
        psi, verdict = sls_of_robust_check(ss, maps, dA, dB, zero, zero)
        pert = cor7_realization_delta(ss, dA, dB, zero, zero)
        direct = stability_verdict(perturbed_stability(S_hat, pert,
                                                       nominal_loop=loop.loop))
        assert verdict.status == direct.status


def test_robust_check_boundary_case():
    # defect loop det: 1 - dA/(z - ...) picks up a unit-circle root for the
    # deadbeat fixture when dA = 1 (x-channel response is 1/z).
    ss, K, maps = scalar_of()
    zero = TransferMatrix.zeros(1, 1)
    dA = TransferMatrix.identity(1)
    psi, verdict = sls_of_robust_check(ss, maps, dA, zero, zero, zero)
    assert verdict.status != "stable"


def _singular_robust_check(ss, maps):
    zero = TransferMatrix.zeros(1, 1)
    dD = TransferMatrix(1, 1, [rf(-2 * Z, Z - HALF)])  # 1 - dD*phi_uy == 0
    return sls_of_robust_check(ss, maps, zero, zero, zero, dD)


def _zero_maps_sf_robust(ss, maps):
    zero = TransferMatrix.zeros(1, 1)
    return sls_sf_robust(ss, zero, zero)


def _zero_maps_response(ss, maps):
    zero = TransferMatrix.zeros(1, 1)
    return sls_of_perturbed_response(sls_of_from_blocks(ss, zero, zero, zero, zero))


@pytest.mark.parametrize("call, message", [
    (_singular_robust_check, "I - Delta*Phi is singular"),
    (_zero_maps_sf_robust, "I + defect is singular"),
    (_zero_maps_response, "I + defect1 is singular"),
])
def test_singular_perturbed_loops(call, message):
    ss, K, maps = scalar_of()
    with pytest.raises(SingularPerturbedLoop, match=f"^{re.escape(message)}$"):
        call(ss, maps)


def test_margin_homogeneity():
    ss, K, maps = scalar_of()
    eps = sls_of_margin(maps)
    doubled = sls_of_from_blocks(ss, 2 * maps.phi_xx, 2 * maps.phi_xy,
                                 2 * maps.phi_ux, 2 * maps.phi_uy)
    assert abs(sls_of_margin(doubled) - eps / 2) < 1e-9


def test_margin_against_frequency_sweep():
    ss, K, maps = scalar_of()
    eps = sls_of_margin(maps)
    sweep = freq_response(maps.block(), 513)
    grid_peak = max(s[0] for _, s in sweep)
    assert 0 < 1.0 / eps - grid_peak < 1e-5 or abs(1.0 / eps - grid_peak) < 1e-9
