"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion lines
and timing notes (output pass-through is the project default).
"""

import contextlib
import random
import time
from fractions import Fraction

import pytest

from realstab.analysis import hinf_norm, stability_verdict
from realstab.cli import main
from realstab.errors import NoStabilityMatrix, NotStabilizing, SingularMatrix, \
    SingularPerturbedLoop
from realstab.fileio import (
    SystemDocument,
    load_report,
    load_system,
    save_system,
)
from realstab.iop import iop_from_loop, iop_margin, iop_robust_check
from realstab.matrix import StateSpace, TransferMatrix
from realstab.realization import (
    build_output_feedback,
    build_plant_controller,
    build_sf_sls,
    build_state_feedback,
    perturbed_stability,
    stability_matrix,
    verify_rs_identity,
)
from realstab.sls import (
    cor7_realization_delta,
    sls_of_from_controller,
    sls_of_robust_check,
    sls_sf_robust,
)
from realstab.uncertainty import UncertaintySpec, monte_carlo_certify
from realstab.youla import (
    YoulaPair,
    coprime_from_gains,
    deadbeat_observer_gain,
    deadbeat_state_gain,
    youla_controller,
    youla_plant,
    youla_pq_stability,
)

from conftest import (
    HALF,
    Z,
    random_fm,
    random_proper_tm,
    random_stable_fir_tm,
    random_strictly_proper_tm,
    rf,
)


def _gate_line(text):
    print(text, flush=True)


@contextlib.contextmanager
def criterion(number, label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        _gate_line(f"[criterion {number}] FAIL  {label}")
        raise
    elapsed = time.perf_counter() - started
    _gate_line(f"[criterion {number}] PASS  {label} ({elapsed:.1f}s)")


def scalar_quad():
    G = TransferMatrix(1, 1, [rf(1, Z)])
    K = TransferMatrix(1, 1, [rf(HALF)])
    return iop_from_loop(G, K)


def test_criterion_1_rs_identity_suite():
    rng = random.Random(2024)
    with criterion(1, "realization-stability identity on 200 random systems"):
        built = 0
        while built < 200:
            kind = built % 4
            try:
                if kind == 0:
                    p, m = rng.randint(1, 2), rng.randint(1, 2)
                    sys_r = build_plant_controller(random_proper_tm(rng, p, m),
                                                   random_proper_tm(rng, m, p))
                elif kind == 1:
                    n, m = rng.randint(1, 4), rng.randint(1, 2)
                    ss = StateSpace(random_fm(rng, n, n), random_fm(rng, n, m),
                                    random_fm(rng, 1, n), random_fm(rng, 1, m))
                    sys_r = build_state_feedback(ss, random_proper_tm(rng, m, n))
                elif kind == 2:
                    n, m = rng.randint(1, 4), rng.randint(1, 2)
                    ss = StateSpace(random_fm(rng, n, n), random_fm(rng, n, m),
                                    random_fm(rng, 1, n), random_fm(rng, 1, m))
                    sys_r = build_sf_sls(ss, random_strictly_proper_tm(rng, n, n),
                                         random_strictly_proper_tm(rng, m, n))
                else:
                    n, m, p = rng.randint(1, 4), rng.randint(1, 2), rng.randint(1, 2)
                    ss = StateSpace(random_fm(rng, n, n), random_fm(rng, n, m),
                                    random_fm(rng, p, n), random_fm(rng, p, m))
                    sys_r = build_output_feedback(ss, random_proper_tm(rng, m, p))
                S = stability_matrix(sys_r)
            except NoStabilityMatrix:
                continue
            assert verify_rs_identity(sys_r, S)
            built += 1


def test_criterion_2_perturbed_stability_equals_direct_inverse():
    rng = random.Random(7)
    blocks = (("s", 2),)
    eye = TransferMatrix.identity(2)
    with criterion(2, "both perturbed-stability closed forms match the direct inverse"):
        done = 0
        while done < 100:
            R = random_proper_tm(rng, 2, 2).with_blocks(blocks, blocks)
            delta = random_proper_tm(rng, 2, 2)
            try:
                S_hat = (eye - R).inverse()
                direct = (eye - R - delta).inverse()
                # perturbed_stability itself cross-checks the two closed forms
                # and the supplied nominal loop matrix, all exactly.
                S_d = perturbed_stability(S_hat, delta, nominal_loop=eye - R)
            except (SingularMatrix, SingularPerturbedLoop):
                continue
            assert S_d == direct
            done += 1


def test_criterion_3_scalar_small_gain_tightness():
    quad = scalar_quad()
    with criterion(3, "scalar loop: margin 1.0, boundary witness, 10x1000 samples stable"):
        margin = iop_margin(quad)
        assert abs(margin - 1.0) <= 1e-6

        verdict = iop_robust_check(quad.U, TransferMatrix.identity(1))
        assert not verdict.is_stable
        assert any(abs(pole - 1.0) <= 1e-6 for pole, _ in verdict.witnesses)

        for seed in range(10):
            spec = UncertaintySpec(block_mask={("y", "u")}, radius=0.99,
                                   sample_order=1, seed=seed)
            cert = monte_carlo_certify(quad, spec, 1000, "cor3")
            assert cert.sample_stats.n_stable == 1000


def test_criterion_4_state_feedback_robustness_flip():
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    phi_x = TransferMatrix(1, 1, [rf(1, Z)])
    phi_u = TransferMatrix(1, 1, [rf(-HALF, Z)])
    with criterion(4, "deadbeat maps on a drifted plant: exact defect, verdict flip"):
        for delta, expect_stable in ((Fraction(99, 100), True), (Fraction(1), False)):
            ss_true = StateSpace([[HALF + delta]], [[1]], [[1]], [[0]])
            defect, verdict, responses = sls_sf_robust(ss_true, phi_x, phi_u)
            assert defect == TransferMatrix(1, 1, [rf(-delta, Z)])
            assert responses.submatrix((0, 1), (0, 1)) == \
                TransferMatrix(1, 1, [rf(1, Z - delta)])
            assert verdict.is_stable == expect_stable


def test_criterion_5_structured_check_agrees_with_direct_perturbation():
    rng = random.Random(11)
    with criterion(5, "feedback-form test matches direct perturbed stability (20+ cases)"):
        checked = 0
        outcomes = set()
        while checked < 20:
            n = rng.randint(1, 2)
            A = random_fm(rng, n, n, lo=-1, hi=1)
            B = [[Fraction(1 if i == 0 else 0)] for i in range(n)]
            C = [[Fraction(1 if j == n - 1 else 0) for j in range(n)]]
            ss = StateSpace(A, B, C, [[0]])
            try:
                F = deadbeat_state_gain(ss)
                L = deadbeat_observer_gain(ss)
            except NotStabilizing:
                continue
            from realstab.youla import observer_controller
            K = observer_controller(ss, F, L)
            loop = build_output_feedback(ss, K)
            S_hat = stability_matrix(loop)
            if not stability_verdict(S_hat).is_stable:
                continue
            maps = sls_of_from_controller(ss, K)
            scale = rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(2), Fraction(4)))
            dA = random_stable_fir_tm(rng, n, n, order=1, scale=scale)
            dB = random_stable_fir_tm(rng, n, 1, order=1, scale=scale)
            dC = random_stable_fir_tm(rng, 1, n, order=1, scale=scale)
            dD = random_stable_fir_tm(rng, 1, 1, order=1, scale=scale)
            try:
                _, verdict = sls_of_robust_check(ss, maps, dA, dB, dC, dD)
                pert = cor7_realization_delta(ss, dA, dB, dC, dD)
                direct = stability_verdict(
                    perturbed_stability(S_hat, pert, nominal_loop=loop.loop))
            except SingularPerturbedLoop:
                continue
            assert verdict.status == direct.status
            outcomes.add(verdict.is_stable)
            checked += 1
        assert outcomes == {True, False}, "fixture set should exercise both outcomes"


def test_criterion_6_coprime_identity_and_parameter_equivalence():
    rng = random.Random(13)
    with criterion(6, "coprime identity on 50 fixtures; loop vs parameter verdicts agree"):
        built = 0
        while built < 50:
            n = rng.randint(1, 3)
            if built % 5 == 4:
                # square MIMO fixture: B = C = I, gains shift the spectrum
                eye = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
                A = random_fm(rng, n, n)
                ss = StateSpace(A, eye, eye, [[0] * n for _ in range(n)])
                F = [[Fraction(1, 4) if i == j else Fraction(0) for j in range(n)]
                     for i in range(n)]
                F = [[F[i][j] - A[i][j] for j in range(n)] for i in range(n)]
                L = [[-A[i][j] for j in range(n)] for i in range(n)]
            else:
                A = random_fm(rng, n, n)
                B = [[Fraction(1 if i == 0 else 0)] for i in range(n)]
                C = [[Fraction(1 if j == n - 1 else 0) for j in range(n)]]
                ss = StateSpace(A, B, C, [[0]])
                try:
                    F = deadbeat_state_gain(ss)
                    L = deadbeat_observer_gain(ss)
                except NotStabilizing:
                    continue
            cf = coprime_from_gains(ss, F, L)
            assert cf.identity_holds()
            built += 1

        # parameter-vs-loop equivalence on the integrator factorization
        ss0 = StateSpace([[0]], [[1]], [[1]], [[0]])
        cf0 = coprime_from_gains(ss0, [[0]], [[0]])
        cases = [Fraction(1, 2), Fraction(1, 4), Fraction(-2, 3),
                 Fraction(3, 2), Fraction(2), Fraction(-5, 4)]
        stable_seen = unstable_seen = 0
        for c in cases:
            P = TransferMatrix(1, 1, [rf(c, Z)])
            Q = TransferMatrix(1, 1, [rf(c, Z)])
            G = youla_plant(cf0, P)
            K = youla_controller(cf0, Q)
            loop_ok = stability_verdict(
                stability_matrix(build_plant_controller(G, K))).is_stable
            pq_ok = youla_pq_stability(YoulaPair(P, Q)).is_stable
            assert loop_ok == pq_ok == (abs(c) < 1)
            stable_seen += loop_ok
            unstable_seen += not loop_ok
        assert stable_seen >= 3 and unstable_seen >= 3


def test_criterion_7_peak_gain_accuracy():
    with criterion(7, "peak gains of the two scalar references within 1e-6"):
        assert abs(hinf_norm(TransferMatrix(1, 1, [rf(Z, 2 * Z - 1)])) - 1.0) <= 1e-6
        assert abs(hinf_norm(TransferMatrix(1, 1, [rf(1, Z - HALF)])) - 2.0) <= 1e-6


def test_criterion_8_cli_pipeline(tmp_path):
    with criterion(8, "synthesize -> margin -> sample pipeline through files"):
        started = time.perf_counter()

        # scalar loop fixture file
        loop_doc = SystemDocument(kind="plant-controller",
                                  plant=TransferMatrix(1, 1, [rf(1, Z)]),
                                  controller=TransferMatrix(1, 1, [rf(HALF)]))
        loop_path = tmp_path / "loop.json"
        save_system(loop_doc, loop_path)

        iop_path = tmp_path / "loop_iop.json"
        assert main(["synthesize", str(loop_path), "--family", "iop",
                     "--out", str(iop_path)]) == 0
        # the emitted file re-verifies on load
        from realstab.fileio import doc_iop
        from realstab.iop import iop_verify
        loaded = doc_iop(load_system(iop_path))
        assert iop_verify(loaded.G, loaded)

        # margin through files, twice, byte-identical, epsilon = 1.0
        m1, m2 = tmp_path / "margin1.json", tmp_path / "margin2.json"
        assert main(["margin", str(iop_path), "--condition", "cor3", "--probe",
                     "--report", str(m1)]) == 0
        assert main(["margin", str(iop_path), "--condition", "cor3", "--probe",
                     "--report", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()
        data = load_report(m1)
        assert abs(data["result"]["epsilon"] - 1.0) <= 1e-6
        assert data["result"]["probe"]["boundary_distance"] <= 1e-6

        # the boundary perturbation through files: plant block bumped by 1.0
        from realstab.fileio import dumps_canonical, perturbation_to_json
        from realstab.realization import AdditivePerturbation
        blocks = (("y", 1), ("u", 1))
        delta = TransferMatrix(2, 2, [rf(0), rf(1), rf(0), rf(0)], blocks, blocks)
        delta_path = tmp_path / "boundary.json"
        delta_path.write_text(dumps_canonical(perturbation_to_json(
            AdditivePerturbation(delta, frozenset({("y", "u")})))))
        assert main(["perturb", str(loop_path), str(delta_path)]) == 2  # marginal

        # sampling below the margin: ten seeds, all samples stable, exit 0
        sample_reports = []
        for seed in range(10):
            rep = tmp_path / f"sample{seed}.json"
            assert main(["sample", str(iop_path), "--radius", "0.99", "--n", "1000",
                         "--seed", str(seed), "--condition", "cor3",
                         "--report", str(rep)]) == 0
            sample_reports.append(rep)
        again = tmp_path / "sample0_again.json"
        assert main(["sample", str(iop_path), "--radius", "0.99", "--n", "1000",
                     "--seed", "0", "--condition", "cor3",
                     "--report", str(again)]) == 0
        assert sample_reports[0].read_bytes() == again.read_bytes()

        # the state-feedback drift flip through files
        sf_doc = SystemDocument(kind="state-feedback",
                                state_space=StateSpace([[HALF]], [[1]], [[1]], [[0]]),
                                controller=TransferMatrix(1, 1, [rf(-HALF)]),
                                gains={"K": ((Fraction(-1, 2),),)})
        sf_path = tmp_path / "sf.json"
        save_system(sf_doc, sf_path)
        sls_path = tmp_path / "sf_sls.json"
        assert main(["synthesize", str(sf_path), "--family", "sls-sf",
                     "--out", str(sls_path)]) == 0
        synthesized = load_system(sls_path)
        assert synthesized.phi_x == TransferMatrix(1, 1, [rf(1, Z)])
        assert synthesized.phi_u == TransferMatrix(1, 1, [rf(-HALF, Z)])

        for delta, expected_exit in ((Fraction(99, 100), 0), (Fraction(1), 2)):
            drifted = load_system(sls_path)
            drifted.state_space = StateSpace([[HALF + delta]], [[1]], [[1]], [[0]])
            drift_path = tmp_path / f"drift_{delta.numerator}_{delta.denominator}.json"
            save_system(drifted, drift_path)
            assert main(["analyze", str(drift_path)]) == expected_exit

        elapsed = time.perf_counter() - started
        _gate_line(f"  pipeline wall clock: {elapsed:.1f}s (budget 60s)")
        assert elapsed < 60.0
