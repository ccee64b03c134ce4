import hashlib
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from realstab import realization, uncertainty
from realstab.analysis import StabilityVerdict, hinf_norm, hinf_peak, stability_verdict
from realstab.errors import (
    DimensionMismatch,
    EmptyMask,
    InfiniteMargin,
    NotStable,
    SingularPerturbedLoop,
    SoundnessViolation,
)
from realstab.iop import iop_from_loop, iop_margin, iop_robust_check
from realstab.matrix import StateSpace, TransferMatrix
from realstab.realization import build_plant_controller, raw_realization, robust_loop
from realstab.sls import sls_of_from_controller, sls_of_margin, sls_of_robust_check
from realstab.youla import deadbeat_observer_gain, deadbeat_state_gain, observer_controller
from realstab.uncertainty import (
    Certificate,
    SampleStats,
    UncertaintySpec,
    monte_carlo_certify,
    robust_condition,
    sample_delta,
    worst_case_delta,
)

from conftest import HALF, Z, rf

G_SHAPE = ((("y", 1),), (("u", 1),))


def scalar_quad():
    G = TransferMatrix(1, 1, [rf(1, Z)])
    K = TransferMatrix(1, 1, [rf(HALF)])
    return iop_from_loop(G, K)


def scalar_of_maps():
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    return sls_of_from_controller(ss, TransferMatrix(1, 1, [rf(-HALF)]))


def test_sampling_is_deterministic():
    spec = UncertaintySpec(block_mask={("y", "u")}, radius=0.5, sample_order=2, seed=42)
    assert sample_delta(spec, G_SHAPE) == sample_delta(spec, G_SHAPE)


def test_sample_norm_below_radius():
    for seed in range(12):
        spec = UncertaintySpec(block_mask={("y", "u")}, radius=0.7,
                               sample_order=1, seed=seed)
        delta = sample_delta(spec, G_SHAPE)
        assert hinf_norm(delta) < 0.7
        assert stability_verdict(delta).is_stable


def test_order_zero_gives_constants():
    spec = UncertaintySpec(block_mask={("y", "u")}, radius=1.0, sample_order=0, seed=1)
    delta = sample_delta(spec, G_SHAPE)
    assert all(e.is_constant for e in delta.entries)


def test_raw_fir_draws_are_pinned():
    # sha256 of the raw draws of seeds 0-499, orders 0-4 in turn; any change
    # to the taps, their rounding or their canonical form moves it.
    digest = hashlib.sha256()
    for seed in range(500):
        gen = np.random.default_rng(seed)
        for order in range(5):
            taps = uncertainty._fir_taps(gen, order)
            digest.update(repr(uncertainty._fir_of(taps)).encode() + b";")
    assert digest.hexdigest() == ("a343420b63ab6b2c5883be620b2f0d52"
                                  "0ba08bb9aee42501d32213c410309198")


def test_fir_draw_with_zero_constant_tap_is_reduced():
    class Taps:
        def uniform(self, lo, hi, size):
            return np.array([0.5, 0.25, 0.0])
    taps = uncertainty._fir_taps(Taps(), 2)
    assert uncertainty._fir_of(taps) == rf(HALF * Z + Fraction(1, 4), Z)
    scaled = uncertainty._fir_of(taps, Fraction(3, 7))
    assert scaled == rf(Fraction(3, 7) * (HALF * Z + Fraction(1, 4)), Z)
    assert scaled.den == Z  # z cancelled at a non-unit scale too


def test_empty_mask_rejected():
    with pytest.raises(EmptyMask):
        sample_delta(UncertaintySpec(block_mask=frozenset(), radius=1.0), G_SHAPE)


def test_mask_must_match_partition():
    spec = UncertaintySpec(block_mask={("nope", "u")}, radius=1.0)
    with pytest.raises(DimensionMismatch):
        sample_delta(spec, G_SHAPE)


def test_masked_blocks_only():
    shape = ((("a", 1), ("b", 1)), (("a", 1), ("b", 1)))
    spec = UncertaintySpec(block_mask={("a", "b")}, radius=1.0, sample_order=0, seed=5)
    delta = sample_delta(spec, shape)
    assert delta.block("a", "a").is_zero()
    assert delta.block("b", "a").is_zero()
    assert delta.block("b", "b").is_zero()
    assert not delta.block("a", "b").is_zero()


def test_spec_validation():
    for radius in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            UncertaintySpec(block_mask={("y", "u")}, radius=radius)
    with pytest.raises(ValueError):
        UncertaintySpec(block_mask={("y", "u")}, radius=1.0, sample_order=-1)


def test_single_sample_is_the_zero_perturbation():
    quad = scalar_quad()
    spec = UncertaintySpec(block_mask={("y", "u")}, radius=1e-9, seed=0)
    cert = monte_carlo_certify(quad, spec, 1, "cor3")
    assert cert.sample_stats.n_samples == 1
    assert cert.sample_stats.n_stable == 1
    assert cert.sample_stats.worst_sample_norm == 0.0
    assert cert.verdict.is_stable
    assert cert.seed == 0 and cert.condition_ref == "cor3"


def test_unknown_checker_rejected():
    quad = scalar_quad()
    spec = UncertaintySpec(block_mask={("y", "u")}, radius=0.5)
    with pytest.raises(ValueError):
        monte_carlo_certify(quad, spec, 2, "cor99")
    with pytest.raises(ValueError):
        monte_carlo_certify(quad, spec, 0, "cor3")
    with pytest.raises(ValueError):  # constraint hooks are lemma2-direct only
        monte_carlo_certify(quad, spec, 2, "cor3", constraint=dc_gain_at_most_2)


@pytest.mark.parametrize("mask, error", [(frozenset(), EmptyMask),
                                         ({("nope", "u")}, DimensionMismatch)])
@pytest.mark.parametrize("n", [1, 5])
def test_mask_checked_before_any_sample(monkeypatch, mask, error, n):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a sample before checking the mask")

    monkeypatch.setattr(uncertainty, "_sample_with_norm", no_draw)
    spec = UncertaintySpec(block_mask=mask, radius=0.5)
    with pytest.raises(error):
        monte_carlo_certify(scalar_quad(), spec, n, "cor3")


def test_robust_condition_table():
    quad, maps = scalar_quad(), scalar_of_maps()
    for condition in ("cor3", "cor9"):
        assert robust_condition(quad, condition) == (*G_SHAPE, quad.U)
    for condition in ("cor7", "cor8"):
        assert robust_condition(maps, condition) == (
            (("x", 1), ("y", 1)), (("x", 1), ("u", 1)), maps.block())
    with pytest.raises(TypeError):
        robust_condition(maps, "cor3")
    with pytest.raises(TypeError):
        robust_condition(quad, "cor7")
    with pytest.raises(ValueError):
        robust_condition(quad, "lemma2-direct")


def _reference_certificate(nominal, spec, n, condition):
    """monte_carlo_certify rebuilt from sample_delta and the named checkers."""
    if condition == "cor7":
        ss = nominal.ss
        shape = ((("x", ss.n), ("y", ss.p)), (("x", ss.n), ("u", ss.m)))
        margin = sls_of_margin(nominal)

        def check(delta):
            blocks = [delta.block(a, b) for a, b in (("x", "x"), ("x", "u"),
                                                     ("y", "x"), ("y", "u"))]
            return sls_of_robust_check(ss, nominal, *blocks)[1]
    else:
        shape = G_SHAPE
        margin = iop_margin(nominal)

        def check(delta):
            return iop_robust_check(nominal.U, delta)
    counts = {"stable": 0, "marginal": 0, "unstable": 0}
    worst = {}  # status -> (norm, witnesses) of its smallest-norm sample
    max_norm = 0.0
    rows, cols = (sum(size for _, size in blocks) for blocks in shape)
    for i in range(n):
        if i == 0:
            delta, norm = TransferMatrix.zeros(rows, cols, *shape), 0.0
        else:
            sample_spec = replace(spec, seed=spec.seed + i)
            delta = sample_delta(sample_spec, shape)
            norm = uncertainty._sample_with_norm(sample_spec, shape, sample_spec.seed)[1]
        try:
            verdict = check(delta)
        except SingularPerturbedLoop:
            verdict = StabilityVerdict("unstable", ((complex(math.inf, 0.0), math.inf),))
        counts[verdict.status] += 1
        max_norm = max(max_norm, norm)
        if not verdict.is_stable and (verdict.status not in worst
                                      or norm < worst[verdict.status][0]):
            worst[verdict.status] = (norm, verdict.witnesses)
    status = "unstable" if counts["unstable"] else "marginal" if counts["marginal"] else None
    worst_norm, witnesses = worst[status] if status else (max_norm, ())
    stats = SampleStats(n_samples=n, n_stable=counts["stable"], n_marginal=counts["marginal"],
                        n_unstable=counts["unstable"], worst_sample_norm=worst_norm)
    return Certificate(kind="monte-carlo", margin=margin,
                       verdict=StabilityVerdict(status or "stable", witnesses),
                       condition_ref=condition, sample_stats=stats, seed=spec.seed)


def observer_of_maps(A):
    """cor7 maps of the SISO plant (A, e_1, e_n, 0) under its deadbeat
    observer-based controller; X and Delta are (n + 1) x (n + 1)."""
    n = len(A)
    ss = StateSpace(A, [[int(i == 0)] for i in range(n)], [[int(j == n - 1) for j in range(n)]],
                    [[0]])
    K = observer_controller(ss, deadbeat_state_gain(ss), deadbeat_observer_gain(ss))
    return sls_of_from_controller(ss, K)


FULL = {("x", "x"), ("x", "u"), ("y", "x"), ("y", "u")}


def _assert_sampler_matches(nominal, condition, mask, radius_share, order, seed, n):
    margin = sls_of_margin(nominal) if condition == "cor7" else iop_margin(nominal)
    spec = UncertaintySpec(block_mask=mask, radius=radius_share * margin,
                           sample_order=order, seed=seed)
    want = _reference_certificate(nominal, spec, n, condition)
    # Below the margin every sample is stable; above it witnesses and the
    # worst norm are compared too.
    assert want.verdict.is_stable == (radius_share < 1)
    assert monte_carlo_certify(nominal, spec, n, condition) == want


@pytest.mark.parametrize("condition, mask, radius_share, order, seed", [
    ("cor3", {("y", "u")}, 2.0, 0, 0),
    ("cor9", {("y", "u")}, 3.0, 2, 5),
    ("cor7", FULL, 3.0, 1, 3),
    ("cor7", {("x", "x")}, 4.0, 1, 2),
    ("cor3", {("y", "u")}, 0.99, 1, 0),
    ("cor9", {("y", "u")}, 0.99, 2, 7),
    ("cor7", FULL, 0.99, 1, 0),
    ("cor7", FULL, 0.99, 2, 7),
    ("cor3", {("y", "u")}, 8.0, 1, 7),
    ("cor9", {("y", "u")}, 8.0, 2, 0),
    ("cor7", FULL, 8.0, 1, 7),
    ("cor7", FULL, 8.0, 2, 0),
])
def test_sampler_matches_named_checkers(condition, mask, radius_share, order, seed):
    nominal = scalar_of_maps() if condition == "cor7" else scalar_quad()
    _assert_sampler_matches(nominal, condition, mask, radius_share, order, seed, 60)


@pytest.mark.parametrize("A", [[[0, 1], [1, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, -1]]],
                         ids=["observer-2", "observer-3"])
@pytest.mark.parametrize("radius_share, seed", [(0.99, 0), (8.0, 7)])
def test_sampler_matches_named_checkers_on_observer_plants(A, radius_share, seed):
    _assert_sampler_matches(observer_of_maps(A), "cor7", FULL, radius_share, 1, seed, 30)


@pytest.mark.parametrize("condition", ["cor7", "cor3"])
@pytest.mark.parametrize("share", [0.5, 1.0, 3.0])
def test_check_matches_robust_loop_on_seeded_draws(condition, share):
    nominal = scalar_of_maps() if condition == "cor7" else scalar_quad()
    rows, cols, X = robust_condition(nominal, condition)
    margin = sls_of_margin(nominal) if condition == "cor7" else iop_margin(nominal)
    mask = FULL if condition == "cor7" else {("y", "u")}
    statuses = set()
    for seed in range(30):
        spec = UncertaintySpec(block_mask=mask, radius=share * margin,
                               sample_order=1 + seed % 3, seed=seed)
        delta = sample_delta(spec, (rows, cols))
        verdict = realization._robust_verdict(X, delta, "I - Delta*X")
        assert verdict == robust_loop(X, delta, "I - Delta*X", "Delta")[1]
        statuses.add(verdict.status)
    # Above the margin some draws take the Psi route.
    assert statuses == ({"stable"} if share <= 1 else {"stable", "unstable"})


def test_soundness_cor3_below_margin():
    quad = scalar_quad()
    margin = iop_margin(quad)
    for seed in range(10):
        spec = UncertaintySpec(block_mask={("y", "u")}, radius=0.99 * margin,
                               sample_order=1, seed=seed)
        cert = monte_carlo_certify(quad, spec, 1000, "cor3")
        assert cert.sample_stats.n_stable == 1000
        assert cert.verdict.is_stable
        assert cert.margin == pytest.approx(margin)


def test_soundness_cor9_below_margin():
    quad = scalar_quad()
    margin = iop_margin(quad)
    for seed in range(10):
        spec = UncertaintySpec(block_mask={("y", "u")}, radius=0.99 * margin,
                               sample_order=2, seed=seed)
        cert = monte_carlo_certify(quad, spec, 1000, "cor9")
        assert cert.sample_stats.n_stable == 1000


def test_soundness_cor7_below_margin():
    maps = scalar_of_maps()
    margin = sls_of_margin(maps)
    mask = {("x", "x"), ("x", "u"), ("y", "x"), ("y", "u")}
    for seed in range(10):
        spec = UncertaintySpec(block_mask=mask, radius=0.99 * margin,
                               sample_order=1, seed=seed)
        cert = monte_carlo_certify(maps, spec, 1000, "cor7")
        assert cert.sample_stats.n_stable == 1000


def test_oversized_radius_reports_failures():
    quad = scalar_quad()
    spec = UncertaintySpec(block_mask={("y", "u")}, radius=2.0 * iop_margin(quad),
                           sample_order=0, seed=0)
    cert = monte_carlo_certify(quad, spec, 1000, "cor3")
    st = cert.sample_stats
    assert st.n_samples == 1000
    assert st.n_stable + st.n_marginal + st.n_unstable == 1000
    # Destabilizing constants exist at norm 1 < 2, so failures are expected;
    # this is reported rather than asserted as a hard count.
    print(f"radius 2x margin: {st.n_unstable} unstable, {st.n_marginal} marginal, "
          f"worst norm {st.worst_sample_norm}")
    if st.n_unstable:
        assert not cert.verdict.is_stable
        assert st.worst_sample_norm >= cert.margin


def test_lemma2_direct_checker():
    blocks = (("s", 1),)
    R = TransferMatrix(1, 1, [rf(Fraction(1, 4), Z)], blocks, blocks)
    sys = raw_realization(R)
    spec = UncertaintySpec(block_mask={("s", "s")}, radius=0.2, sample_order=1, seed=0)
    cert = monte_carlo_certify(sys, spec, 200, "lemma2-direct")
    assert cert.margin is None
    assert cert.sample_stats.n_samples == 200
    assert cert.condition_ref == "lemma2-direct"


def dc_gain_at_most_2(R_delta, S_delta):
    """Constraint hook: reject a sample whose |S(Delta)[0, 0]| at z = 1 exceeds 2."""
    return abs(S_delta.evaluate(1.0)[0, 0]) <= 2.0


def test_lemma2_direct_constraint_hook_counts_violations():
    loop = build_plant_controller(TransferMatrix(1, 1, [rf(1, Z)]),
                                  TransferMatrix(1, 1, [rf(HALF)]))
    spec = UncertaintySpec(block_mask={(a, b) for a, _ in loop.partition
                                       for b, _ in loop.partition},
                           radius=0.2, sample_order=1, seed=7)
    cert = monte_carlo_certify(loop, spec, 40, "lemma2-direct",
                               constraint=dc_gain_at_most_2)
    assert 0 < cert.sample_stats.constraint_violations < 40


def test_soundness_violation_stops_at_the_first_bad_sample(monkeypatch):
    quad = scalar_quad()
    margin = iop_margin(quad)
    calls = {"draw": 0, "evaluate": 0}

    def draw(spec, shape, seed):
        calls["draw"] += 1
        return TransferMatrix.zeros(1, 1, *shape), margin / 2

    def evaluate(payload, delta, hook=None):
        calls["evaluate"] += 1
        if calls["evaluate"] <= 3:  # samples 0, 1 and 2
            return StabilityVerdict("stable"), False
        return StabilityVerdict("unstable", ((complex(2.0, 0.0), 2.0),)), False

    monkeypatch.setattr(uncertainty, "_sample_with_norm", draw)
    monkeypatch.setattr(uncertainty, "_evaluate_sample", evaluate)
    spec = UncertaintySpec(block_mask={("y", "u")}, radius=margin, sample_order=1, seed=0)
    with pytest.raises(SoundnessViolation, match="sample 3 "):
        monte_carlo_certify(quad, spec, 10, "cor3")
    assert calls == {"draw": 3, "evaluate": 4}


def test_worst_case_scalar_fixture():
    quad = scalar_quad()
    probe = worst_case_delta(quad.U, iop_margin(quad), hinf_peak(quad.U))
    assert probe.delta == TransferMatrix.identity(1)
    assert probe.conclusive
    assert probe.boundary_distance <= 1e-6
    assert abs(probe.witness_root - 1.0) < 1e-6


def test_worst_case_constant_map():
    U = TransferMatrix(1, 1, [rf(Fraction(-1, 2))])
    probe = worst_case_delta(U, 2.0, hinf_peak(U))
    assert abs(abs(probe.delta[0, 0].constant_value()) - 2) == 0
    assert probe.boundary_distance <= 1e-6


def test_worst_case_peak_at_pi():
    # 1/(z + 1/2) peaks at omega = pi with value 2
    U = TransferMatrix(1, 1, [rf(1, Z + HALF)])
    probe = worst_case_delta(U, 1.0 / hinf_norm(U), hinf_peak(U))
    assert abs(probe.peak_omega - math.pi) < 1e-6
    assert probe.conclusive
    assert probe.boundary_distance <= 1e-6
    assert abs(probe.witness_root + 1.0) < 1e-6


def test_worst_case_complex_peak_inconclusive():
    U = TransferMatrix(1, 1, [rf(1, Z * Z + Fraction(81, 100))])
    probe = worst_case_delta(U, 1.0 / hinf_norm(U), hinf_peak(U))
    assert not probe.conclusive
    assert "complex-peak" in probe.note


def test_worst_case_preconditions():
    # The checks run before the peak is read, so any pair will do.
    with pytest.raises(NotStable):
        worst_case_delta(TransferMatrix(1, 1, [rf(1, Z - 2)]), 1.0, (1.0, 0.0))
    with pytest.raises(InfiniteMargin):
        worst_case_delta(TransferMatrix.zeros(1, 1), 1.0, (0.0, 0.0))
    with pytest.raises(InfiniteMargin):
        worst_case_delta(TransferMatrix.identity(1), math.inf, (1.0, 0.0))


# -- the certified peak bound of a draw ------------------------------------------

COR7_SHAPE = ((("x", 1), ("y", 1)), (("x", 1), ("u", 1)))
COR7_MASK = frozenset({("x", "x"), ("x", "u"), ("y", "x"), ("y", "u")})


def _block_shape(rows, cols):
    return ((("a", rows),), (("b", cols),))


def test_edge_peak_draws_skip_the_grid(monkeypatch):
    from realstab import analysis

    def no_grid(self, zs):
        raise AssertionError("ran the peak-gain grid")

    monkeypatch.setattr(analysis._GainEvaluator, "peak", no_grid)
    # |t0 + t1 e^{-iw}|^2 is linear in cos w, so a 1 x 1 order-1 peak is at an edge.
    for seed in range(20):
        spec = UncertaintySpec(block_mask={("y", "u")}, radius=0.7, sample_order=1, seed=seed)
        assert uncertainty._sample_with_norm(spec, G_SHAPE, spec.seed)[1] > 0
    spec = UncertaintySpec(block_mask=COR7_MASK, radius=0.7, sample_order=1, seed=1)
    delta, norm = uncertainty._sample_with_norm(spec, COR7_SHAPE, spec.seed)
    monkeypatch.undo()
    peak, omega = hinf_peak(delta)
    assert min(omega, math.pi - omega) < 1e-6  # an edge-peak 2 x 2 draw
    assert peak <= norm <= peak * (1 + 1e-9)


@pytest.mark.parametrize("lines, order, edge", [
    # (3 + z^-1) / 16: gain 4/16 at w = 0.
    ([[3, 1]], 1, 0.25),
    # diag(3, 5) / 16, constant.
    ([[3, 0], [0, 5]], 0, 5 / 16),
    # diag(3 + z^-1, 2, 1 - 2 z^-1) / 16: gain 4/16 at w = 0 and 3/16 at w = pi.
    ([[3, 0, 0, 1, 0, 0], [0, 2, 0, 0, 0, 0], [0, 0, 1, 0, 0, -2]], 1, 0.25),
])
def test_edge_gain_is_not_a_strict_bound(lines, order, edge):
    gram = uncertainty._DrawGram([[t << 20 for t in line] for line in lines], order)
    assert gram.edge_gain() == edge
    assert not gram.bounds(edge)
    assert gram.bounds(math.nextafter(edge, math.inf))


def test_a_singular_level_set_is_zero():
    from realstab import matrix

    # diag(3, 2, 1) / 16 with zero second taps: Gamma = 9 (2^20)^2 makes
    # Gamma I - M singular at every w, so the determinant is the zero entry.
    lines = [[3 << 20, 0, 0, 0, 0, 0], [0, 2 << 20, 0, 0, 0, 0], [0, 0, 1 << 20, 0, 0, 0]]
    gram = uncertainty._DrawGram(lines, 1)
    assert gram._level_set(9 << 40, 1) == [0]
    assert matrix._ZERO_ENTRY.num._n == [0]  # the shared zero is left as it was


@pytest.mark.parametrize("rows, cols", [(3, 3), (3, 4), (4, 3)])
def test_wide_draws_are_bounded_tightly(rows, cols):
    # Three or more wide: the level set comes from the determinant.
    for seed in range(3):
        spec = UncertaintySpec(block_mask={("a", "b")}, radius=1.0, sample_order=1, seed=seed)
        delta, norm = uncertainty._sample_with_norm(spec, _block_shape(rows, cols), spec.seed)
        peak = hinf_peak(delta)[0]
        assert peak <= norm <= peak * (1 + 1e-9)


def test_a_poor_grid_value_falls_back_to_bisection(monkeypatch):
    true_peak = uncertainty.hinf_peak
    monkeypatch.setattr(uncertainty, "hinf_peak", lambda X: (0.5 * true_peak(X)[0], 0.0))
    for seed in range(1, 30):
        spec = UncertaintySpec(block_mask=COR7_MASK, radius=1.0, sample_order=2, seed=seed)
        delta, norm = uncertainty._sample_with_norm(spec, COR7_SHAPE, spec.seed)
        peak = true_peak(delta)[0]
        assert peak <= norm <= peak * (1 + 1e-9)


# (shape, mask, order): 1 x 1, cor7's 2 x 2, a 3 x 2 partition whose size-2
# row block sits under a partial mask, and a 3 x 3 draw (the determinant route).
SAMPLED_SHAPES = (
    [(G_SHAPE, {("y", "u")}, order) for order in (0, 1, 2)]
    + [(COR7_SHAPE, COR7_MASK, order) for order in (1, 2)]
    + [(((("a", 1), ("b", 2)), (("c", 1), ("d", 1))), {("a", "d"), ("b", "c")}, 1),
       (_block_shape(3, 3), {("a", "b")}, 1)])


def test_scaled_draws_are_pinned():
    # sha256 of the scaled draws and their norms, seeds 0-49 of each shape;
    # any change to the taps, the peak bound, the scale or the canonical
    # form of the scaled entries moves it.
    digest = hashlib.sha256()
    for shape, mask, order in SAMPLED_SHAPES:
        for seed in range(50):
            spec = UncertaintySpec(block_mask=mask, radius=0.9, sample_order=order, seed=seed)
            delta, norm = uncertainty._sample_with_norm(spec, shape, seed)
            digest.update(repr(delta).encode() + norm.hex().encode() + b";")
    assert digest.hexdigest() == ("a7a87c9bf850fb5ab0c7b9a7756d1f9a"
                                  "ca1f8f1848e7db71f679ca122d1834d9")


def test_draws_are_built_once_at_their_scale(monkeypatch):
    from realstab.ratfun import RationalFunction

    def forbidden(*args):
        raise AssertionError("a draw went through generic rescaling")

    monkeypatch.setattr(TransferMatrix, "scale", forbidden)
    monkeypatch.setattr(RationalFunction, "__mul__", forbidden)
    for shape, mask, order in SAMPLED_SHAPES:
        for seed in range(1, 6):
            spec = UncertaintySpec(block_mask=mask, radius=0.9, sample_order=order, seed=seed)
            assert uncertainty._sample_with_norm(spec, shape, seed)[1] > 0


def test_only_the_grid_fallback_builds_the_unscaled_draw(monkeypatch):
    true_peak = uncertainty.hinf_peak
    seen = []

    def spy(X):
        seen.append(X)
        return true_peak(X)

    monkeypatch.setattr(uncertainty, "hinf_peak", spy)
    fallbacks = 0
    for seed in range(1, 601):
        spec = UncertaintySpec(block_mask=COR7_MASK, radius=1.0, sample_order=1, seed=seed)
        uncertainty._sample_with_norm(spec, COR7_SHAPE, seed)
        if len(seen) > fallbacks:
            gen = np.random.default_rng(seed)
            taps = [uncertainty._fir_taps(gen, 1) for _ in range(4)]
            assert seen[fallbacks] == TransferMatrix(2, 2, [uncertainty._fir_of(t) for t in taps])
            fallbacks += 1
        assert len(seen) == fallbacks
    assert fallbacks == 41


def test_a_draw_of_zero_taps_is_the_zero_matrix(monkeypatch):
    def no_gram(lines, order):
        raise AssertionError("built a Gram matrix for a zero draw")

    monkeypatch.setattr(uncertainty, "_fir_taps", lambda rng, order: [0] * (order + 1))
    monkeypatch.setattr(uncertainty, "_DrawGram", no_gram)
    spec = UncertaintySpec(block_mask=COR7_MASK, radius=1.0, sample_order=2, seed=3)
    delta, norm = uncertainty._sample_with_norm(spec, COR7_SHAPE, spec.seed)
    assert delta == TransferMatrix.zeros(2, 2)
    assert (delta.row_blocks, delta.col_blocks) == COR7_SHAPE
    assert norm == 0.0


def _mp_peak(mpmath, delta):
    """(peak gain of delta at 50 digits, whether it sits at w = 0 or pi).

    A 4001-point float grid brackets each local maximum of the largest
    eigenvalue of the narrow side's Gram matrix; findroot sets its
    derivative to zero inside the bracket, and the edges are evaluated.
    """
    r, c = delta.shape
    polys = [([mpmath.mpf(x.numerator) / x.denominator for x in reversed(e.num.coeffs)],
              [mpmath.mpf(x.numerator) / x.denominator for x in reversed(e.den.coeffs)])
             for e in delta.entries]

    def lam(w):
        z = mpmath.expj(w)
        G = mpmath.matrix(r, c)
        for k, (num, den) in enumerate(polys):
            G[k // c, k % c] = mpmath.polyval(num, z) / mpmath.polyval(den, z)
        H = G.H * G if c <= r else G * G.H
        if H.rows == 1:
            return mpmath.re(H[0, 0])
        a, d = mpmath.re(H[0, 0]), mpmath.re(H[1, 1])
        return (a + d) / 2 + mpmath.sqrt(((a - d) / 2) ** 2 + abs(H[0, 1]) ** 2)

    omegas = np.linspace(0.0, math.pi, 4001)
    values = np.stack([np.polyval([float(x) for x in num], np.exp(1j * omegas))
                       / np.polyval([float(x) for x in den], np.exp(1j * omegas))
                       for num, den in polys], axis=1).reshape(-1, r, c)
    sig = np.linalg.svd(values, compute_uv=False)[:, 0]
    with mpmath.workdps(50):
        edges = max(lam(mpmath.mpf(0)), lam(mpmath.pi))
        inner = mpmath.mpf(0)
        for k in range(1, len(omegas) - 1):
            if sig[k] >= sig[k - 1] and sig[k] >= sig[k + 1]:
                lo, hi = mpmath.mpf(omegas[k - 1]), mpmath.mpf(omegas[k + 1])
                slope = lambda w: mpmath.diff(lam, w)  # noqa: E731
                w = mpmath.findroot(slope, (lo, hi), solver="anderson") \
                    if slope(lo) > 0 > slope(hi) else mpmath.mpf(omegas[k])
                inner = max(inner, lam(w))
        return mpmath.sqrt(max(edges, inner)), edges >= inner


def test_draw_norms_bound_the_true_peak():
    mpmath = pytest.importorskip("mpmath")
    kinds = set()
    for rows, cols in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for order in (1, 2, 3, 4):
            for seed in range(3):
                spec = UncertaintySpec(block_mask={("a", "b")}, radius=0.9,
                                       sample_order=order, seed=seed)
                shape = _block_shape(rows, cols)
                delta, norm = uncertainty._sample_with_norm(spec, shape, spec.seed)
                peak, at_edge = _mp_peak(mpmath, delta)
                kinds.add(at_edge)
                assert mpmath.mpf(norm) >= peak, (rows, cols, order, seed)
                assert norm <= peak * (1 + 1e-9), (rows, cols, order, seed)
    assert kinds == {True, False}  # peaks at the edges and inside
