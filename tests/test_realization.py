import hashlib
import random
from fractions import Fraction

import pytest

from realstab import matrix
from realstab.errors import (
    DimensionMismatch,
    ImproperBlock,
    MaskViolation,
    NoStabilityMatrix,
    NotStable,
    NotStrictlyProper,
    SingularPerturbedLoop,
)
from realstab.matrix import StateSpace, TransferMatrix
from realstab.realization import (
    AdditivePerturbation,
    RealizationSystem,
    Transformation,
    apply_transformation,
    build_output_feedback,
    build_plant_controller,
    build_sf_sls,
    build_state_feedback,
    check_offdiagonal_properness,
    perturbed_stability,
    raw_realization,
    robust_loop,
    robust_verdict,
    stability_matrix,
    verify_rs_identity,
)
from realstab.analysis import stability_verdict

from conftest import HALF, Z, random_proper_tm, random_strictly_proper_tm, rf, tm


def scalar_loop():
    G = TransferMatrix(1, 1, [rf(1, Z)])
    K = TransferMatrix(1, 1, [rf(HALF)])
    return build_plant_controller(G, K)


def test_plant_controller_layout():
    sys = scalar_loop()
    assert sys.signals == ("y", "u")
    assert sys.R.block("y", "u") == TransferMatrix(1, 1, [rf(1, Z)])
    assert sys.R.block("u", "y") == TransferMatrix(1, 1, [rf(HALF)])
    assert sys.R.block("y", "y").is_zero() and sys.R.block("u", "u").is_zero()


def test_plant_controller_open_loop_forms():
    G = TransferMatrix(1, 1, [rf(1, Z)])
    K0 = TransferMatrix.zeros(1, 1)
    S = stability_matrix(build_plant_controller(G, K0))
    assert S == tm([[1, rf(1, Z)], [0, 1]])
    S2 = stability_matrix(build_plant_controller(TransferMatrix.zeros(1, 1),
                                                 TransferMatrix(1, 1, [rf(HALF)])))
    assert S2 == tm([[1, 0], [HALF, 1]])


def test_plant_controller_rejects_improper():
    improper = TransferMatrix(1, 1, [rf(Z * Z, Z - 1)])
    with pytest.raises(ImproperBlock):
        build_plant_controller(improper, TransferMatrix.zeros(1, 1))
    with pytest.raises(DimensionMismatch):
        build_plant_controller(TransferMatrix.zeros(2, 1), TransferMatrix.zeros(2, 1))


def test_state_feedback_loop_matrix():
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    K = TransferMatrix(1, 1, [rf(-HALF)])
    sys = build_state_feedback(ss, K)
    assert sys.signals == ("x", "u")
    assert sys.loop_matrix() == tm([[rf(Z - HALF), -1], [HALF, 1]])


def test_state_feedback_open_loop_block_triangular():
    ss = StateSpace([[0]], [[1]], [[1]], [[0]])
    S = stability_matrix(build_state_feedback(ss, TransferMatrix.zeros(1, 1)))
    assert S == tm([[rf(1, Z), rf(1, Z)], [0, 1]])


def test_sf_sls_loop_matrix():
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    phi_x = TransferMatrix(1, 1, [rf(1, Z)])
    phi_u = TransferMatrix(1, 1, [rf(-HALF, Z)])
    sys = build_sf_sls(ss, phi_x, phi_u)
    assert sys.signals == ("x", "u", "delta")
    assert sys.loop_matrix() == tm([
        [rf(Z - HALF), -1, 0],
        [0, 1, HALF],
        [-1, 0, 1],
    ])
    S = stability_matrix(sys)
    assert verify_rs_identity(sys, S)


def test_sf_sls_decoupled_trivial():
    ss = StateSpace([[HALF]], [[0]], [[1]], [[0]])
    phi_x = TransferMatrix(1, 1, [rf(1, Z)])
    phi_u = TransferMatrix.zeros(1, 1)
    sys = build_sf_sls(ss, phi_x, phi_u)
    S = stability_matrix(sys)
    assert verify_rs_identity(sys, S)


def test_sf_sls_requires_strict_properness():
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    proper_not_strict = TransferMatrix(1, 1, [rf(Z, Z - HALF)])
    with pytest.raises(NotStrictlyProper):
        build_sf_sls(ss, proper_not_strict, TransferMatrix(1, 1, [rf(1, Z)]))


def test_output_feedback_scalar():
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    K = TransferMatrix(1, 1, [rf(-HALF)])
    sys = build_output_feedback(ss, K)
    assert sys.signals == ("x", "u", "y")
    assert sys.loop_matrix() == tm([
        [rf(Z - HALF), -1, 0],
        [0, 1, HALF],
        [-1, 0, 1],
    ])
    S = stability_matrix(sys)
    assert verify_rs_identity(sys, S)
    assert stability_verdict(S).is_stable


def test_output_feedback_open_loop_stability_follows_plant():
    stable = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    unstable = StateSpace([[2]], [[1]], [[1]], [[0]])
    K0 = TransferMatrix.zeros(1, 1)
    assert stability_verdict(stability_matrix(build_output_feedback(stable, K0))).is_stable
    v = stability_verdict(stability_matrix(build_output_feedback(unstable, K0)))
    assert v.status == "unstable"


def test_output_feedback_identity_measurement_duplicates_state():
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    K = TransferMatrix(1, 1, [rf(Fraction(-1, 4))])
    S = stability_matrix(build_output_feedback(ss, K))
    assert S.block("y", "x") == S.block("x", "x")


def test_stability_matrix_trivial_and_singular():
    blocks = (("s", 2),)
    zero = raw_realization(TransferMatrix.zeros(2, 2, blocks, blocks))
    assert stability_matrix(zero) == TransferMatrix.identity(2)
    loop = raw_realization(TransferMatrix(2, 2, [rf(0), rf(1), rf(1), rf(0)],
                                          blocks, blocks))
    with pytest.raises(NoStabilityMatrix):
        stability_matrix(loop)


def test_verify_rs_identity_detects_mismatch():
    sys = scalar_loop()
    S = stability_matrix(sys)
    assert verify_rs_identity(sys, S)
    assert not verify_rs_identity(sys, S + TransferMatrix.identity(2))


def _bump(M, index, amount=1):
    ents = list(M.entries)
    ents[index] = ents[index] + amount
    return TransferMatrix(M.rows, M.cols, ents, M.row_blocks, M.col_blocks)


def _random_loops(rng):
    """One loop of every family, with improper zI - A diagonals and shared dens."""
    ss = StateSpace([[HALF, 1], [0, Fraction(-1, 3)]], [[1], [2]], [[1, 0]], [[0]])
    yield build_plant_controller(random_proper_tm(rng, 2, 1), random_proper_tm(rng, 1, 2))
    yield build_state_feedback(ss, random_proper_tm(rng, 1, 2))
    yield build_output_feedback(ss, random_proper_tm(rng, 1, 1))
    yield build_sf_sls(ss, random_strictly_proper_tm(rng, 2, 2),
                       random_strictly_proper_tm(rng, 1, 2))


def test_verify_rs_identity_rejects_one_changed_entry(rng):
    for sys in _random_loops(rng):
        S = stability_matrix(sys)
        assert verify_rs_identity(sys, S)
        for index in (0, len(S.entries) // 2, len(S.entries) - 1):
            assert not verify_rs_identity(sys, _bump(S, index))
        # A change far below the entry's own scale is caught as well.
        assert not verify_rs_identity(sys, _bump(S, 1, Fraction(1, 2 ** 40)))


def test_verify_rs_identity_rejects_another_loops_matrix(rng):
    loops = list(_random_loops(rng)) + list(_random_loops(rng))
    for k in range(4):
        sys, other = loops[k], loops[k + 4]
        assert sys.R != other.R
        assert not verify_rs_identity(sys, stability_matrix(other))
        assert verify_rs_identity(other, stability_matrix(other))


def test_stability_matrices_are_pinned():
    # sha256 of repr(S) for one loop of every family from seeds 0-199; any
    # change to the inverse's canonical entries moves it.
    digest = hashlib.sha256()
    for seed in range(200):
        for sys in _random_loops(random.Random(seed)):
            try:
                S = repr(stability_matrix(sys))
            except NoStabilityMatrix:
                S = "singular"
            digest.update(S.encode() + b";")
    assert digest.hexdigest() == ("7a626d32bed3cfb62b43486cbffa88fd"
                                  "1efe9e18be13f3632bb274579f452e65")


def test_offdiagonal_properness_enforced_at_construction():
    blocks = (("a", 1), ("b", 1))
    bad = TransferMatrix(2, 2, [rf(0), rf(Z * Z, Z - 1), rf(0), rf(0)], blocks, blocks)
    with pytest.raises(ImproperBlock):
        raw_realization(bad)
    # improper on the diagonal is allowed
    ok = TransferMatrix(2, 2, [rf(Z), rf(0), rf(0), rf(0)], blocks, blocks)
    assert raw_realization(ok).signals == ("a", "b")


def test_transformation_identity_is_noop():
    sys = scalar_loop()
    S = stability_matrix(sys)
    T = Transformation(TransferMatrix.identity(2))
    sys_eq, S_eq = apply_transformation(sys, S, T)
    assert sys_eq.R == sys.R and S_eq == S


def test_transformation_scales_stability():
    sys = scalar_loop()
    S = stability_matrix(sys)
    Tm = tm([[2, 0], [0, 1]])
    sys_eq, S_eq = apply_transformation(sys, S, Transformation(Tm))
    assert S_eq == S * Tm
    assert verify_rs_identity(sys_eq, S_eq)
    assert stability_matrix(sys_eq) == S_eq


def test_transformation_round_trip():
    sys = scalar_loop()
    S = stability_matrix(sys)
    Tm = tm([[2, 1], [0, rf(1, 2)]])
    sys_eq, S_eq = apply_transformation(sys, S, Transformation(Tm))
    back, S_back = apply_transformation(sys_eq, S_eq, Transformation(Tm.inverse()))
    assert back.R == sys.R and S_back == S


def test_singular_transformation_rejected():
    from realstab.errors import SingularMatrix
    with pytest.raises(SingularMatrix):
        Transformation(tm([[1, 1], [1, 1]]))


def test_perturbed_stability_scalar_oracle():
    a, b = Fraction(1, 3), Fraction(1, 5)
    blocks = (("s", 1),)
    R = TransferMatrix(1, 1, [rf(a, Z)], blocks, blocks)
    S_hat = stability_matrix(raw_realization(R))
    delta = TransferMatrix(1, 1, [rf(b, Z)], blocks, blocks)
    S_d = perturbed_stability(S_hat, delta, nominal_loop=TransferMatrix.identity(1) - R)
    assert S_d[0, 0] == rf(Z, Z - a - b)


def test_perturbed_stability_zero_delta():
    sys = scalar_loop()
    S = stability_matrix(sys)
    zero = TransferMatrix.zeros(2, 2)
    assert perturbed_stability(S, zero) == S


def test_perturbed_stability_singular_loop():
    S = TransferMatrix.identity(1)
    delta = TransferMatrix(1, 1, [rf(1)])
    with pytest.raises(SingularPerturbedLoop):
        perturbed_stability(S, delta)


def test_perturbed_stability_matches_direct_inverse_random(rng):
    eye = TransferMatrix.identity(2)
    blocks = (("s", 2),)
    done = 0
    while done < 25:
        R = random_proper_tm(rng, 2, 2).with_blocks(blocks, blocks)
        delta = random_proper_tm(rng, 2, 2)
        try:
            S_hat = (eye - R).inverse()
            direct = (eye - R - delta).inverse()
            S_d = perturbed_stability(S_hat, delta)
        except Exception:
            continue
        assert S_d == direct
        done += 1


def test_equal_realizations_share_stability(rng):
    blocks = (("s", 2),)
    R = random_proper_tm(rng, 2, 2).with_blocks(blocks, blocks)
    a = raw_realization(R)
    b = raw_realization(R)
    try:
        assert stability_matrix(a) == stability_matrix(b)
    except NoStabilityMatrix:
        pass


def test_additive_perturbation_mask():
    blocks = (("y", 1), ("u", 1))
    delta = TransferMatrix(2, 2, [rf(0), rf(HALF), rf(0), rf(0)], blocks, blocks)
    pert = AdditivePerturbation(delta, frozenset({("y", "u")}))
    assert pert.block_mask == frozenset({("y", "u")})
    with pytest.raises(MaskViolation):
        AdditivePerturbation(delta, frozenset({("u", "y")}))
    with pytest.raises(DimensionMismatch, match=r"^mask block \(bogus, u\) not in the partition$"):
        AdditivePerturbation(delta, frozenset({("y", "u"), ("zzz", "u"), ("bogus", "u")}))


def test_offdiagonal_properness_check():
    sys = scalar_loop()
    blocks = sys.partition
    good = TransferMatrix(2, 2, [rf(0), rf(HALF, Z), rf(0), rf(0)], blocks, blocks)
    assert check_offdiagonal_properness(sys, good)
    bad = TransferMatrix(2, 2, [rf(0), rf(Z * Z), rf(0), rf(0)], blocks, blocks)
    assert not check_offdiagonal_properness(sys, bad)


def test_offdiagonal_check_exempts_diagonal():
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    sys = build_state_feedback(ss, TransferMatrix(1, 1, [rf(-HALF)]))
    zero = TransferMatrix.zeros(2, 2)
    assert check_offdiagonal_properness(sys, zero)


_SS = StateSpace([[HALF]], [[1]], [[1]], [[0]])
_GAIN = TransferMatrix(1, 1, [rf(-HALF)])
_BUILD_ARGS = {
    build_plant_controller: (TransferMatrix(1, 1, [rf(1, Z)]), _GAIN),
    build_state_feedback: (_SS, _GAIN),
    build_sf_sls: (_SS, TransferMatrix(1, 1, [rf(1, Z)]), TransferMatrix(1, 1, [rf(-HALF, Z)])),
    build_output_feedback: (_SS, _GAIN),
}


@pytest.mark.parametrize("build", list(_BUILD_ARGS))
def test_builders_keep_their_loop_matrix(build):
    built = build(*_BUILD_ARGS[build])
    fresh = raw_realization(built.R)
    assert built == fresh and hash(built) == hash(fresh) and repr(built) == repr(fresh)
    loop = built.loop_matrix()
    assert loop is built.loop_matrix() and loop is built.loop
    assert fresh.loop_matrix() is fresh.loop_matrix()
    assert loop == fresh.loop_matrix()
    assert (loop.row_blocks, loop.col_blocks) == (built.partition, built.partition)
    assert stability_matrix(built) == stability_matrix(fresh)


@pytest.mark.parametrize("build", list(_BUILD_ARGS))
def test_hot_path_never_forms_r(monkeypatch, build):
    def no_r(self):
        raise AssertionError("formed R on a path that needs only I - R")

    monkeypatch.setattr(RealizationSystem, "R", property(no_r))
    sys = build(*_BUILD_ARGS[build])
    S = stability_matrix(sys)
    assert verify_rs_identity(sys, S)
    assert stability_verdict(S).is_stable
    n = sys.loop.rows
    twice = Transformation(TransferMatrix.identity(n).scale(2))
    sys_eq, S_eq = apply_transformation(sys, S, twice)
    assert S_eq == S.scale(2) and sys_eq.loop == sys.loop.scale(HALF)
    assert check_offdiagonal_properness(sys, TransferMatrix.zeros(n, n))



@pytest.mark.parametrize("build", list(_BUILD_ARGS))
def test_identity_check_clears_the_loop_rows_once(monkeypatch, build):
    # The inverse clears the n rows of I - R and hands S back with its
    # columns memoized, so the identity product reads both from the memos:
    # n clearings in all, and none for a second pair on the same system.
    calls = []
    cleared = matrix._cleared
    monkeypatch.setattr(matrix, "_cleared", lambda line: calls.append(1) or cleared(line))
    sys = build(*_BUILD_ARGS[build])
    assert verify_rs_identity(sys, stability_matrix(sys))
    assert len(calls) == sys.loop.rows
    assert verify_rs_identity(sys, stability_matrix(sys))
    assert len(calls) == sys.loop.rows

def test_identity_check_packs_nothing_after_the_inverse(monkeypatch, rng):
    # The inverse leaves I - R's packed rows on its memo and hands S its
    # packed columns at one width that holds their product, so the check
    # packs nothing; a changed S carries no hand-off and is packed afresh.
    for sys in _random_loops(rng):
        S = stability_matrix(sys)
        calls = []
        pack = matrix._pack
        monkeypatch.setattr(matrix, "_pack", lambda p, k: calls.append(1) or pack(p, k))
        assert verify_rs_identity(sys, S)
        assert calls == []
        assert not verify_rs_identity(sys, _bump(S, 0))
        assert calls
        monkeypatch.undo()


def test_constructor_takes_only_the_loop_matrix():
    blocks = (("a", 1), ("b", 1))
    R = TransferMatrix(2, 2, [rf(0), rf(1, Z), rf(HALF), rf(0)], blocks, blocks)
    with pytest.raises(TypeError):
        RealizationSystem(R)
    sys = raw_realization(R)
    assert sys == RealizationSystem(loop=TransferMatrix.identity(2, blocks, blocks) - R)
    assert sys.R == R and sys.R is not sys.R


def test_raw_realization_keeps_its_errors():
    blocks = (("a", 1), ("b", 1))
    with pytest.raises(DimensionMismatch, match="^realization matrix must be square$"):
        raw_realization(TransferMatrix.zeros(2, 1, blocks, (("a", 1),)))
    with pytest.raises(DimensionMismatch, match="^realization matrix needs a signal partition$"):
        raw_realization(TransferMatrix.zeros(2, 2))
    with pytest.raises(DimensionMismatch, match="^row and column partitions must agree$"):
        raw_realization(TransferMatrix.zeros(2, 2, blocks, (("b", 1), ("a", 1))))
    # Blocks are reported in partition order, not in the order their entries come.
    three = (("a", 2), ("b", 1), ("c", 1))
    entries = [rf(0)] * 16
    entries[3], entries[6] = rf(Z), rf(Z * Z)  # blocks (a, c) at row 0, (a, b) at row 1
    improper = TransferMatrix(4, 4, entries, three, three)
    with pytest.raises(ImproperBlock, match=r"^improper off-diagonal blocks: "
                                            r"\[\('a', 'b'\), \('a', 'c'\)\]$"):
        raw_realization(improper)


def test_robust_loop_closes_delta_around_x():
    X = TransferMatrix(1, 1, [rf(1, Z - HALF)])
    delta = TransferMatrix(1, 1, [rf(Fraction(1, 4))])
    psi, verdict = robust_loop(X, delta, "I - Delta*X", "Delta")
    assert psi == (TransferMatrix.identity(1) - delta * X).inverse()
    assert verdict == stability_verdict(psi) and verdict.is_stable
    # Delta = 1/2 moves the pole of Psi = (z - 1/2)/(z - 1) onto the unit circle.
    assert robust_loop(X, delta * 2, "L", "Delta")[1].status == "marginal"


def test_robust_loop_errors_name_delta_and_loop():
    eye = TransferMatrix.identity(1)
    with pytest.raises(NotStable, match="^Delta is unstable$"):
        robust_loop(eye, TransferMatrix(1, 1, [rf(1, Z - 2)]), "I - Delta*X", "Delta")
    with pytest.raises(SingularPerturbedLoop, match=r"^I - Delta\*X is singular$"):
        robust_loop(eye, eye, "I - Delta*X", "Delta")


_X = TransferMatrix(1, 1, [rf(1, Z - HALF)])
_QUARTER = TransferMatrix(1, 1, [rf(Fraction(1, 4))])
_B = Fraction(3, 7)


@pytest.mark.parametrize("X, delta, status", [
    (_X, _QUARTER, "stable"),
    (_X, TransferMatrix.zeros(1, 1), "stable"),
    # det = (z - 1)/(z - 1/2): a zero exactly on the circle, so Psi decides.
    (_X, _QUARTER * 2, "marginal"),
    (_X, _QUARTER * 4, "unstable"),
    # det = -b/z is not biproper: Psi = -z/b is improper.
    (TransferMatrix.identity(1), TransferMatrix(1, 1, [rf(Z + _B, Z)]), "improper"),
])
def test_robust_verdict_is_robust_loops_verdict(X, delta, status):
    verdict = robust_verdict(X, delta, "I - Delta*X", "Delta")
    assert verdict == robust_loop(X, delta, "I - Delta*X", "Delta")[1]
    assert verdict.status == status


def test_robust_verdict_forms_no_psi_when_the_determinant_is_stable(monkeypatch):
    def no_inverse(self):
        raise AssertionError("formed Psi for a sample the determinant proves stable")

    monkeypatch.setattr(TransferMatrix, "inverse", no_inverse)
    assert robust_verdict(_X, _QUARTER, "I - Delta*X", "Delta").is_stable


def test_robust_verdict_decides_clustered_determinant_zeros_exactly(monkeypatch):
    # With X = 1 - (z - 999/1000)^k / z^k and Delta = 1, det(I - Delta X) is
    # (z - 999/1000)^k / z^k: k zeros at 0.999, which float root finding
    # splits across the circle. Psi = z^k / (z - 999/1000)^k is stable.
    def no_inverse(self):
        raise AssertionError("formed Psi for a sample the determinant proves stable")

    monkeypatch.setattr(TransferMatrix, "inverse", no_inverse)
    eye = TransferMatrix.identity(1)
    for k in (6, 10):
        zk, cluster = Z, Z - Fraction(999, 1000)
        for _ in range(k - 1):
            zk, cluster = zk * Z, cluster * (Z - Fraction(999, 1000))
        X = TransferMatrix(1, 1, [rf(zk - cluster, zk)])
        assert robust_verdict(X, eye, "I - Delta*X", "Delta").is_stable


def test_robust_verdict_errors_match_robust_loop():
    eye = TransferMatrix.identity(1)
    with pytest.raises(NotStable, match="^Delta is unstable$"):
        robust_verdict(eye, TransferMatrix(1, 1, [rf(1, Z - 2)]), "I - Delta*X", "Delta")
    with pytest.raises(SingularPerturbedLoop, match=r"^I - Delta\*X is singular$"):
        robust_verdict(eye, eye, "I - Delta*X", "Delta")
