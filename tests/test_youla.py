import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from realstab.analysis import stability_verdict
from realstab.errors import NotStable, NotStabilizing, SingularFactor, SingularPerturbedLoop
from realstab.matrix import StateSpace, TransferMatrix
from realstab.realization import build_plant_controller, stability_matrix
from realstab.youla import (
    YoulaPair,
    coprime_from_gains,
    deadbeat_observer_gain,
    deadbeat_state_gain,
    observer_controller,
    youla_controller,
    youla_plant,
    youla_pq_stability,
    youla_robust_check,
)

from conftest import HALF, Z, random_fm, rf


def trivial_cf():
    ss = StateSpace([[0]], [[1]], [[1]], [[0]])
    return coprime_from_gains(ss, [[0]], [[0]])


def test_trivial_factorization_values():
    cf = trivial_cf()
    one = TransferMatrix.identity(1)
    zero = TransferMatrix.zeros(1, 1)
    inv_z = TransferMatrix(1, 1, [rf(1, Z)])
    assert cf.Mr == one and cf.Ml == one and cf.Ur == one and cf.Ul == one
    assert cf.Nr == inv_z and cf.Nl == inv_z
    assert cf.Vr == zero and cf.Vl == zero
    assert cf.identity_holds() and cf.all_stable()


def test_deadbeat_factorization_is_fir():
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    cf = coprime_from_gains(ss, [[-HALF]], [[-HALF]])
    for X in (cf.Ml, cf.Nl, cf.Vl, cf.Ul, cf.Ur, cf.Nr, cf.Vr, cf.Mr):
        for e in X.entries:
            assert e.den.is_one or all(c == 0 for c in e.den.coeffs[:-1])
    assert cf.Mr == TransferMatrix(1, 1, [rf(Z - HALF, Z)])
    assert cf.Nr == TransferMatrix(1, 1, [rf(1, Z)])
    assert cf.identity_holds()


def test_identity_verified_for_random_gains(rng):
    done = 0
    while done < 10:
        n = rng.randint(1, 3)
        A = random_fm(rng, n, n)
        B = [[Fraction(1 if i == 0 else 0)] for i in range(n)]
        C = [[Fraction(1 if j == n - 1 else 0) for j in range(n)]]
        ss = StateSpace(A, B, C, [[0]])
        try:
            F = deadbeat_state_gain(ss)
            L = deadbeat_observer_gain(ss)
            cf = coprime_from_gains(ss, F, L)
        except NotStabilizing:
            continue
        assert cf.identity_holds()
        assert cf.all_stable()
        assert cf.nominal_plant() == ss.transfer()
        done += 1


def test_rejects_destabilizing_gains():
    ss = StateSpace([[2]], [[0]], [[1]], [[0]])
    with pytest.raises(NotStabilizing):
        coprime_from_gains(ss, [[0]], [[-2]])


@pytest.mark.parametrize("F, L, which", [
    ([[HALF]], [[-HALF]], "A + B*F"),  # A + BF = 1
    ([[-HALF]], [[-3 * HALF]], "A + L*C"),  # A + LC = -1
])
def test_rejects_gains_on_the_circle(F, L, which):
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    with pytest.raises(NotStabilizing, match=re.escape(
            f"{which} leaves an eigenvalue on or outside the unit circle")):
        coprime_from_gains(ss, F, L)


def test_gain_verdicts_match_eigenvalues(rng):
    # Each gain is decided by the verdict of its resolvent; eigvals is the reference.
    def schur(X):
        return max(abs(np.linalg.eigvals(X))) < 1 - 1e-9

    accepted = rejected = 0
    for _ in range(30):
        n = rng.randint(2, 4)
        A = [[x / 2 for x in row] for row in random_fm(rng, n, n, -1, 1)]
        B = random_fm(rng, n, 1, -1, 1)
        C = random_fm(rng, 1, n, -1, 1)
        ss = StateSpace(A, B, C, [[0]])
        F = random_fm(rng, 1, n, -1, 1)
        L = random_fm(rng, n, 1, -1, 1)
        Aa, Ba, Ca, Fa, La = (np.array(X, dtype=float) for X in (A, B, C, F, L))
        if schur(Aa + Ba @ Fa) and schur(Aa + La @ Ca):
            cf = coprime_from_gains(ss, F, L)
            assert cf.identity_holds() and cf.all_stable()
            accepted += 1
        else:
            with pytest.raises(NotStabilizing):
                coprime_from_gains(ss, F, L)
            rejected += 1
    assert accepted >= 5 and rejected >= 5


def test_plant_and_controller_at_zero_parameters():
    cf = trivial_cf()
    zero = TransferMatrix.zeros(1, 1)
    assert youla_plant(cf, zero) == cf.Nr * cf.Mr.inverse()
    assert youla_controller(cf, zero) == cf.Vr * cf.Ur.inverse()


def test_controller_for_constant_parameter():
    cf = trivial_cf()
    q = Fraction(1, 3)
    K = youla_controller(cf, TransferMatrix(1, 1, [rf(q)]))
    # (0 - q) / (1 - q/z) = -q z / (z - q)
    from realstab.poly import Polynomial
    assert K == TransferMatrix(1, 1, [rf(Polynomial((0, -q)), Z - q)])


def test_singular_factor_detected():
    cf = trivial_cf()
    with pytest.raises(SingularFactor):
        youla_controller(cf, TransferMatrix(1, 1, [rf(Z)]))  # Ur - Nr*Q = 1 - 1 = 0


def test_pq_stability_trivial_cases():
    zero = TransferMatrix.zeros(1, 1)
    f = TransferMatrix(1, 1, [rf(1, Z - HALF)])
    assert youla_pq_stability(YoulaPair(zero, f)).is_stable
    assert youla_pq_stability(YoulaPair(f, zero)).is_stable


def test_pq_stability_scalar_examples():
    small = TransferMatrix(1, 1, [rf(HALF, Z)])
    big = TransferMatrix(1, 1, [rf(Fraction(3, 2), Z)])
    assert youla_pq_stability(YoulaPair(small, small)).status == "stable"
    v = youla_pq_stability(YoulaPair(big, big))
    assert v.status == "unstable"
    assert any(abs(abs(p) - 1.5) < 1e-9 for p, _ in v.witnesses)


def test_robust_check_examples():
    zero = TransferMatrix.zeros(1, 1)
    inv_z = TransferMatrix(1, 1, [rf(1, Z)])
    assert youla_robust_check(zero, inv_z).is_stable
    one = TransferMatrix.identity(1)
    assert youla_robust_check(one, inv_z).status == "marginal"
    half = TransferMatrix(1, 1, [rf(HALF)])
    assert youla_robust_check(half, inv_z).status == "stable"


def test_robust_check_requires_stable_operands():
    unstable = TransferMatrix(1, 1, [rf(1, Z - 2)])
    stable = TransferMatrix(1, 1, [rf(1, Z)])
    with pytest.raises(NotStable):
        youla_robust_check(unstable, stable)
    with pytest.raises(NotStable):
        youla_robust_check(stable, unstable)


def test_pq_stability_singular_loop():
    # [[1, 1], [1, 1]] is singular; like every robust check this is a singular loop.
    eye = TransferMatrix.identity(1)
    with pytest.raises(SingularPerturbedLoop, match=r"\[\[I, P\], \[Q, I\]\] is singular"):
        youla_pq_stability(YoulaPair(P=eye, Q=eye))


def test_identity_rejects_perturbed_factors():
    ss = StateSpace([[HALF, 1], [0, Fraction(-1, 3)]], [[0], [1]], [[1, 1]], [[0]])
    cf = coprime_from_gains(ss, [[-HALF, 0]], [[0], [0]])
    other = coprime_from_gains(ss, deadbeat_state_gain(ss), deadbeat_observer_gain(ss))
    assert cf.identity_holds() and other.identity_holds()
    for name in ("Ml", "Nl", "Vl", "Ul", "Ur", "Nr", "Vr", "Mr"):
        X = getattr(cf, name)
        ents = list(X.entries)
        ents[-1] = ents[-1] + 1
        bumped = TransferMatrix(X.rows, X.cols, ents)
        assert not replace(cf, **{name: bumped}).identity_holds()
        shift = rf(Fraction(1, 2 ** 40), Z)  # far below the entries' own scale
        tiny = TransferMatrix(X.rows, X.cols, [e + shift for e in X.entries])
        assert not replace(cf, **{name: tiny}).identity_holds()
    # Factors of a different factorization of the same plant.
    for name in ("Nr", "Mr", "Ur", "Vr"):
        assert getattr(cf, name) != getattr(other, name)
        assert not replace(cf, **{name: getattr(other, name)}).identity_holds()


def test_robust_check_singular_loop():
    eye = TransferMatrix.identity(2)
    with pytest.raises(SingularPerturbedLoop):
        youla_robust_check(eye, eye)


def test_deadbeat_gain_helpers_scalar():
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    assert deadbeat_state_gain(ss) == TransferMatrix.constant([[Fraction(-1, 2)]])
    assert deadbeat_observer_gain(ss) == TransferMatrix.constant([[Fraction(-1, 2)]])


def test_deadbeat_gain_nilpotent(rng):
    # (A + BF)^n == 0 and (A + LC)^n == 0, exactly.
    placed = {"F": 0, "L": 0}
    for _ in range(10):
        n = rng.randint(2, 3)
        A = random_fm(rng, n, n)
        B = [[Fraction(1 if i == n - 1 else 0)] for i in range(n)]
        ss = StateSpace(A, B, [[1] + [0] * (n - 1)], [[0]])
        A, B, C = ss.A, ss.B, ss.C
        for name, helper, close in (("F", deadbeat_state_gain, lambda F: A + B * F),
                                    ("L", deadbeat_observer_gain, lambda L: A + L * C)):
            try:
                a_cl = close(helper(ss))
            except NotStabilizing:
                continue
            power = a_cl
            for _ in range(n - 1):
                power = power * a_cl
            assert power.is_zero()
            placed[name] += 1
    assert placed["F"] and placed["L"]


def test_deadbeat_gain_needs_single_input():
    ss = StateSpace([[0]], [[1, 1]], [[1]], [[0, 0]])
    with pytest.raises(NotStabilizing, match="needs a single-input system"):
        deadbeat_state_gain(ss)
    ss = StateSpace([[0]], [[1]], [[1], [1]], [[0], [0]])
    with pytest.raises(NotStabilizing, match="deadbeat observer gain helper needs a single output"):
        deadbeat_observer_gain(ss)


def test_deadbeat_gain_uncontrollable():
    ss = StateSpace([[1, 0], [0, 2]], [[1], [0]], [[1, 0]], [[0]])
    with pytest.raises(NotStabilizing, match=r"pair \(A, B\) is not controllable"):
        deadbeat_state_gain(ss)
    with pytest.raises(NotStabilizing, match=r"pair \(A, C\) is not observable"):
        deadbeat_observer_gain(ss)


def test_nominal_loop_is_internally_stable(rng):
    done = 0
    while done < 6:
        n = rng.randint(1, 2)
        A = random_fm(rng, n, n)
        B = [[Fraction(1 if i == 0 else 0)] for i in range(n)]
        C = [[Fraction(1 if j == n - 1 else 0) for j in range(n)]]
        ss = StateSpace(A, B, C, [[0]])
        try:
            F = deadbeat_state_gain(ss)
            L = deadbeat_observer_gain(ss)
            cf = coprime_from_gains(ss, F, L)
        except NotStabilizing:
            continue
        G = youla_plant(cf, TransferMatrix.zeros(1, 1))
        K = youla_controller(cf, TransferMatrix.zeros(1, 1))
        S = stability_matrix(build_plant_controller(G, K))
        assert stability_verdict(S).is_stable
        assert K == observer_controller(ss, F, L)
        done += 1


def test_loop_verdict_matches_parameter_verdict():
    cf = trivial_cf()
    for value, expect_stable in ((Fraction(1, 2), True), (Fraction(3, 2), False)):
        P = TransferMatrix(1, 1, [rf(value, Z)])
        Q = TransferMatrix(1, 1, [rf(value, Z)])
        G = youla_plant(cf, P)
        K = youla_controller(cf, Q)
        loop_ok = stability_verdict(stability_matrix(build_plant_controller(G, K))).is_stable
        pq_ok = youla_pq_stability(YoulaPair(P, Q)).is_stable
        assert loop_ok == pq_ok == expect_stable
