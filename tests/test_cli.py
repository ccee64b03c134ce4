import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from realstab import analysis, cli, uncertainty
from realstab.analysis import hinf_peak, small_gain_margin
from realstab.cli import main
from realstab.errors import IdentityCheckFailed, SingularPerturbedLoop
from realstab.fileio import (
    SystemDocument,
    build_realization,
    doc_iop,
    doc_sls_of,
    doc_youla,
    dumps_canonical,
    load_report,
    load_system,
    perturbation_to_json,
    save_system,
    tm_to_json,
)
from realstab.iop import iop_margin, iop_verify
from realstab.matrix import StateSpace, TransferMatrix
from realstab.realization import AdditivePerturbation, perturbed_stability, stability_matrix
from realstab.sls import sls_of_margin, sls_of_verify
from realstab.uncertainty import UncertaintySpec, robust_condition, sample_delta, worst_case_delta

from conftest import HALF, Z, rf


def write_fig4(tmp_path, name="loop.json"):
    doc = SystemDocument(kind="plant-controller",
                         plant=TransferMatrix(1, 1, [rf(1, Z)]),
                         controller=TransferMatrix(1, 1, [rf(HALF)]))
    path = tmp_path / name
    save_system(doc, path)
    return path


def write_raw_scalar(tmp_path, value, name="raw.json"):
    doc = SystemDocument(
        kind="raw-realization",
        realization_matrix=TransferMatrix(1, 1, [value], (("s", 1),), (("s", 1),)))
    path = tmp_path / name
    save_system(doc, path)
    return path


def test_analyze_stable_loop(tmp_path, capsys):
    system = write_fig4(tmp_path)
    report = tmp_path / "report.json"
    assert main(["analyze", str(system), "--report", str(report)]) == 0
    data = load_report(report)
    assert data["certificate"]["verdict"]["status"] == "stable"
    assert any(abs(p[0] - 0.5) < 1e-9 for p in data["result"]["poles"])
    assert "stable" in capsys.readouterr().out


def test_analyze_marginal_exit_code(tmp_path):
    system = write_raw_scalar(tmp_path, rf(1, Z))  # S = z/(z-1), pole at 1
    assert main(["analyze", str(system)]) == 2


def test_analyze_unstable_exit_code(tmp_path):
    system = write_raw_scalar(tmp_path, rf(2, Z))  # S = z/(z-2)
    assert main(["analyze", str(system)]) == 3


def test_analyze_algebraic_loop_exit_4(tmp_path):
    blocks = (("a", 1), ("b", 1))
    doc = SystemDocument(
        kind="raw-realization",
        realization_matrix=TransferMatrix(2, 2, [rf(0), rf(1), rf(1), rf(0)],
                                          blocks, blocks))
    path = tmp_path / "loop.json"
    save_system(doc, path)
    assert main(["analyze", str(path)]) == 4


def test_parse_error_exit_64(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": "realstab/1", "kind": "raw-realization", '
                    '"realization": {"entries": [["1/0"]], '
                    '"row_blocks": [["s", 1]], "col_blocks": [["s", 1]]}}')
    assert main(["analyze", str(path)]) == 64
    missing = tmp_path / "nope.json"
    assert main(["analyze", str(missing)]) == 64


def test_dimension_error_exit_65(tmp_path):
    doc = SystemDocument(kind="plant-controller",
                         plant=TransferMatrix.zeros(2, 1),
                         controller=TransferMatrix.zeros(2, 1))
    path = tmp_path / "dims.json"
    save_system(doc, path)
    assert main(["analyze", str(path)]) == 65


SCALAR_SS = StateSpace([[HALF]], [[1]], [[1]], [[0]])


@pytest.mark.parametrize("doc, message", [
    (SystemDocument(kind="plant-controller", plant=TransferMatrix(1, 1, [rf(Z)]),
                    controller=TransferMatrix(1, 1, [rf(HALF)])),
     "plant is improper"),
    (SystemDocument(kind="sf-sls", state_space=SCALAR_SS,
                    phi_x=TransferMatrix(1, 1, [rf(1)]),
                    phi_u=TransferMatrix(1, 1, [rf(-HALF, Z)])),
     "response maps must be strictly proper"),
    (SystemDocument(kind="raw-realization",
                    realization_matrix=TransferMatrix(2, 2, [rf(0), rf(Z), rf(0), rf(0)],
                                                      (("a", 1), ("b", 1)),
                                                      (("a", 1), ("b", 1)))),
     "improper off-diagonal blocks: [('a', 'b')]"),
    (SystemDocument(kind="state-feedback", state_space=SCALAR_SS,
                    controller=TransferMatrix(1, 1, [rf(Z)])),
     "improper off-diagonal blocks: [('u', 'x')]"),
])
def test_improper_input_exit_64(tmp_path, capsys, doc, message):
    # Bad input, not a failed exactness cross-check (exit 70).
    path = tmp_path / "improper.json"
    save_system(doc, path)
    assert main(["analyze", str(path)]) == 64
    assert capsys.readouterr().err == f"error: {message}\n"


def write_scalar_of(tmp_path, name="of.json"):
    doc = SystemDocument(kind="output-feedback",
                         state_space=StateSpace([[HALF]], [[1]], [[1]], [[0]]),
                         controller=TransferMatrix(1, 1, [rf(-HALF)]))
    path = tmp_path / name
    save_system(doc, path)
    return path


@pytest.mark.parametrize("A", [[["1/2", "0"], ["1"]], [[]]])
def test_ragged_state_space_matrix_exit_64(tmp_path, A):
    path = write_scalar_of(tmp_path)
    data = json.loads(path.read_text())
    data["state_space"]["A"] = A
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == 64


def test_ragged_gain_matrix_exit_64(tmp_path):
    system = write_scalar_of(tmp_path)
    assert main(["synthesize", str(system), "--family", "youla",
                 "--out", str(tmp_path / "out.json"), "--gains",
                 '{"F": [[1], [2, 3]], "L": [[0]]}']) == 64


def test_usage_error_exit_64():
    assert main(["margin"]) == 64
    assert main(["no-such-command"]) == 64


def test_main_builds_one_parser_and_looks_up_commands_per_call(tmp_path, capsys,
                                                                monkeypatch):
    system = write_fig4(tmp_path)
    assert main(["analyze", str(system)]) == 0
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    # A wrapper installed after the parser exists still sees the command.
    seen = []
    original = cli.cmd_analyze
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args) or original(args))
    assert main(["analyze", str(system)]) == 0
    assert [a.system for a in seen] == [str(system)]
    capsys.readouterr()

    def guard_fails(args):
        raise IdentityCheckFailed("closed forms disagree")
    monkeypatch.setattr(cli, "cmd_analyze", guard_fails)
    assert main(["analyze", str(system)]) == 70
    assert capsys.readouterr().err == "internal error: closed forms disagree\n"


def write_delta(tmp_path, entry, name="delta.json"):
    blocks = (("s", 1),)
    delta = TransferMatrix(1, 1, [entry], blocks, blocks)
    pert = AdditivePerturbation(delta, frozenset({("s", "s")}))
    path = tmp_path / name
    path.write_text(dumps_canonical(perturbation_to_json(pert)))
    return path


@pytest.mark.parametrize("field, value", [("entries", [[{"num": "12", "den": "31"}]]),
                                          ("rows", [1])])
def test_malformed_matrix_exit_64(tmp_path, capsys, field, value):
    system = write_fig4(tmp_path)
    data = json.loads(system.read_text())
    data["plant"][field] = value
    system.write_text(json.dumps(data))
    assert main(["analyze", str(system)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("field, value", [("rows", 1.7), ("cols", True),
                                          ("row_blocks", [["s", 1.9]]),
                                          ("col_blocks", [["s", "1"]]),
                                          ("row_blocks", [[3, 1]])])
def test_malformed_counts_exit_64(tmp_path, capsys, field, value):
    system = write_raw_scalar(tmp_path, rf(Fraction(1, 3), Z))
    data = json.loads(system.read_text())
    data["realization"][field] = value
    system.write_text(json.dumps(data))
    assert main(["analyze", str(system)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_malformed_block_mask_exit_64(tmp_path, capsys):
    system = write_raw_scalar(tmp_path, rf(Fraction(1, 3), Z))
    delta = write_delta(tmp_path, rf(0))
    data = json.loads(delta.read_text())
    data["block_mask"] = [1]
    delta.write_text(json.dumps(data))
    assert main(["perturb", str(system), str(delta)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: 'block_mask'") and "Traceback" not in err


def test_perturb_scalar_pole_shift(tmp_path):
    a, b = Fraction(1, 3), Fraction(1, 4)
    system = write_raw_scalar(tmp_path, rf(a, Z))
    delta = write_delta(tmp_path, rf(b, Z))
    report = tmp_path / "report.json"
    assert main(["perturb", str(system), str(delta), "--report", str(report)]) == 0
    data = load_report(report)
    assert data["result"]["forms_agree"] is True
    (pole,), = [p for p in data["result"]["poles"]],
    assert abs(data["result"]["poles"][0][0] - float(a + b)) < 1e-9


def test_perturb_zero_delta_matches_analyze(tmp_path):
    system = write_raw_scalar(tmp_path, rf(Fraction(1, 3), Z))
    delta = write_delta(tmp_path, rf(0))
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["perturb", str(system), str(delta), "--report", str(r1)]) == 0
    assert main(["analyze", str(system), "--report", str(r2)]) == 0
    assert load_report(r1)["certificate"]["verdict"] == \
        load_report(r2)["certificate"]["verdict"]


def test_perturb_singular_exit_5(tmp_path):
    system = write_raw_scalar(tmp_path, rf(0))  # S = 1
    delta = write_delta(tmp_path, rf(1))  # 1 - 1 = 0
    assert main(["perturb", str(system), str(delta)]) == 5


def write_zero_delta(tmp_path, blocks, mask=None, name="zero_delta.json"):
    size = sum(s for _, s in blocks)
    data = perturbation_to_json(AdditivePerturbation(TransferMatrix.zeros(size, size,
                                                                          blocks, blocks)))
    if mask is not None:
        data["block_mask"] = mask
    path = tmp_path / name
    path.write_text(dumps_canonical(data))
    return path


def write_two_state_feedback(tmp_path, name="sf.json"):
    """A stable state-feedback loop over signals (x: 2, u: 1)."""
    doc = SystemDocument(kind="state-feedback",
                         state_space=StateSpace([[HALF, 0], [0, 0]], [[1], [0]],
                                                [[1, 0]], [[0]]),
                         controller=TransferMatrix(1, 2, [rf(0), rf(0)]))
    path = tmp_path / name
    save_system(doc, path)
    return path


@pytest.mark.parametrize("write_system, blocks, system_blocks", [
    (write_fig4, (("a", 1), ("b", 1)), (("y", 1), ("u", 1))),
    (write_two_state_feedback, (("x", 1), ("u", 2)), (("x", 2), ("u", 1))),
], ids=["plant-controller", "state-feedback"])
def test_perturb_rejects_a_delta_written_for_another_system(tmp_path, capsys, write_system,
                                                            blocks, system_blocks):
    # Same size, other signal blocks: the Delta file belongs to another system.
    system = write_system(tmp_path)
    delta = write_zero_delta(tmp_path, blocks)
    assert main(["perturb", str(system), str(delta)]) == 65
    assert capsys.readouterr().err == (
        f"error: perturbation partition {blocks} x {blocks} does not match the system's "
        f"{system_blocks} x {system_blocks}\n")


def test_perturb_mask_labels_checked_like_sample_blocks(tmp_path, capsys):
    system = write_fig4(tmp_path)
    delta = write_zero_delta(tmp_path, (("y", 1), ("u", 1)),
                             mask=[["y", "u"], ["bogus", "u"]])
    assert main(["perturb", str(system), str(delta)]) == 65
    perturb_err = capsys.readouterr().err
    out = synthesized(tmp_path, "iop")
    capsys.readouterr()
    assert main(["sample", str(out), "--radius", "0.5", "--n", "1", "--condition", "cor3",
                 "--blocks", "y:u,bogus:u"]) == 65
    assert capsys.readouterr().err == perturb_err == \
        "error: mask block (bogus, u) not in the partition\n"


def test_margin_missing_blocks_exit_66(tmp_path):
    system = write_fig4(tmp_path)
    assert main(["margin", str(system), "--condition", "cor3"]) == 66


def test_synthesize_iop_then_margin(tmp_path, capsys):
    system = write_fig4(tmp_path)
    out = tmp_path / "with_iop.json"
    assert main(["synthesize", str(system), "--family", "iop", "--out", str(out)]) == 0
    loaded = load_system(out)
    quad = doc_iop(loaded)
    assert iop_verify(quad.G, quad)

    report = tmp_path / "margin.json"
    assert main(["margin", str(out), "--condition", "cor3",
                 "--report", str(report)]) == 0
    data = load_report(report)
    assert abs(data["result"]["epsilon"] - 1.0) < 1e-6
    assert data["certificate"]["kind"] == "small-gain-IOP"


def test_margin_probe_reports_witness(tmp_path):
    system = write_fig4(tmp_path)
    out = tmp_path / "with_iop.json"
    main(["synthesize", str(system), "--family", "iop", "--out", str(out)])
    report = tmp_path / "margin.json"
    assert main(["margin", str(out), "--condition", "cor3", "--probe",
                 "--report", str(report)]) == 0
    probe = load_report(report)["result"]["probe"]
    assert probe["conclusive"] is True
    assert probe["boundary_distance"] <= 1e-6


def test_margin_infinite_for_zero_input_map(tmp_path):
    doc = SystemDocument(kind="plant-controller",
                         plant=TransferMatrix(1, 1, [rf(1, Z)]),
                         controller=TransferMatrix.zeros(1, 1))
    system = tmp_path / "open.json"
    save_system(doc, system)
    out = tmp_path / "open_iop.json"
    assert main(["synthesize", str(system), "--family", "iop", "--out", str(out)]) == 0
    report = tmp_path / "margin.json"
    assert main(["margin", str(out), "--condition", "cor3",
                 "--report", str(report)]) == 0
    result = load_report(report)["result"]
    assert result["epsilon"] == "inf" and result["peak_gain"] == 0.0


def test_margin_reports_the_peak_gain_itself(tmp_path, capsys):
    # G = 0, K = 9/5: U = 9/5 peaks at 1.8, and 1.0 / (1.0 / 1.8) is 1.7999999999999998.
    doc = SystemDocument(kind="plant-controller", plant=TransferMatrix.zeros(1, 1),
                         controller=TransferMatrix(1, 1, [rf(Fraction(9, 5))]))
    system = tmp_path / "static.json"
    save_system(doc, system)
    out = tmp_path / "static_iop.json"
    assert main(["synthesize", str(system), "--family", "iop", "--out", str(out)]) == 0
    report = tmp_path / "margin.json"
    capsys.readouterr()
    assert main(["margin", str(out), "--condition", "cor3", "--report", str(report)]) == 0
    peak = hinf_peak(doc_iop(load_system(out)).U)[0]
    assert peak == 1.8
    assert load_report(report)["result"]["peak_gain"] == peak
    assert f"(reciprocal of peak gain {peak})" in capsys.readouterr().out


def test_synthesize_sls_sf_writes_deadbeat_maps(tmp_path):
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    doc = SystemDocument(kind="state-feedback", state_space=ss,
                         controller=TransferMatrix(1, 1, [rf(-HALF)]),
                         gains={"K": ((Fraction(-1, 2),),)})
    system = tmp_path / "sf.json"
    save_system(doc, system)
    out = tmp_path / "sf_sls.json"
    assert main(["synthesize", str(system), "--family", "sls-sf",
                 "--out", str(out)]) == 0
    loaded = load_system(out)
    assert loaded.kind == "sf-sls"
    assert loaded.phi_x == TransferMatrix(1, 1, [rf(1, Z)])
    assert loaded.phi_u == TransferMatrix(1, 1, [rf(-HALF, Z)])


def test_synthesize_iop_rejects_unstable_loop(tmp_path):
    doc = SystemDocument(kind="plant-controller",
                         plant=TransferMatrix(1, 1, [rf(1, Z - 2)]),
                         controller=TransferMatrix.zeros(1, 1))
    system = tmp_path / "unstable.json"
    save_system(doc, system)
    out = tmp_path / "out.json"
    assert main(["synthesize", str(system), "--family", "iop",
                 "--out", str(out)]) == 7


def test_synthesize_rejects_non_stabilizing_gain(tmp_path):
    ss = StateSpace([[2]], [[0]], [[1]], [[0]])
    doc = SystemDocument(kind="state-feedback", state_space=ss,
                         controller=TransferMatrix.zeros(1, 1))
    system = tmp_path / "sf.json"
    save_system(doc, system)
    out = tmp_path / "out.json"
    assert main(["synthesize", str(system), "--family", "sls-sf",
                 "--out", str(out), "--gains", '{"K": [["0"]]}']) == 7


def test_synthesize_youla_and_sls_of(tmp_path):
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    doc = SystemDocument(kind="output-feedback", state_space=ss,
                         controller=TransferMatrix(1, 1, [rf(-HALF)]))
    system = tmp_path / "of.json"
    save_system(doc, system)

    youla_out = tmp_path / "youla.json"
    assert main(["synthesize", str(system), "--family", "youla", "--out",
                 str(youla_out), "--gains",
                 '{"F": [["-1/2"]], "L": [["-1/2"]]}']) == 0
    cf = doc_youla(load_system(youla_out))
    assert cf.identity_holds()

    of_out = tmp_path / "of_sls.json"
    assert main(["synthesize", str(system), "--family", "sls-of",
                 "--out", str(of_out)]) == 0
    loaded = load_system(of_out)
    maps = doc_sls_of(loaded)
    assert sls_of_verify(ss, maps)


def test_margin_cor8_after_sls_of_synthesis(tmp_path):
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    doc = SystemDocument(kind="output-feedback", state_space=ss,
                         controller=TransferMatrix(1, 1, [rf(-HALF)]))
    system = tmp_path / "of.json"
    save_system(doc, system)
    out = tmp_path / "of_sls.json"
    assert main(["synthesize", str(system), "--family", "sls-of",
                 "--out", str(out)]) == 0
    report = tmp_path / "margin.json"
    assert main(["margin", str(out), "--condition", "cor8", "--probe",
                 "--report", str(report)]) == 0
    data = load_report(report)
    from realstab.sls import sls_of_margin
    maps = doc_sls_of(load_system(out))
    assert abs(data["result"]["epsilon"] - sls_of_margin(maps)) < 1e-9
    assert data["certificate"]["kind"] == "small-gain-SLS-OF"
    assert main(["margin", str(system), "--condition", "cor8"]) == 66


def test_margin_cor8_probe_takes_one_peak(tmp_path, monkeypatch):
    # Order 2 makes the SLS block 3 x 3, so the peak runs through the stacked SVD.
    ss = StateSpace([[HALF, 0], [1, Fraction(1, 4)]], [[1], [0]], [[0, 1]], [[0]])
    doc = SystemDocument(kind="output-feedback", state_space=ss,
                         controller=TransferMatrix(1, 1, [rf(Fraction(-1, 4))]))
    system = tmp_path / "of2.json"
    save_system(doc, system)
    out = tmp_path / "of2_sls.json"
    assert main(["synthesize", str(system), "--family", "sls-of", "--out", str(out)]) == 0
    operand = robust_condition(doc_sls_of(load_system(out)), "cor8")[2]
    assert min(operand.rows, operand.cols) == 3
    epsilon = small_gain_margin(operand)
    want = worst_case_delta(operand, epsilon, hinf_peak(operand))

    calls = []

    def counted(X):
        calls.append(X)
        return hinf_peak(X)
    for module in (analysis, cli, uncertainty):
        monkeypatch.setattr(module, "hinf_peak", counted)
    report = tmp_path / "margin.json"
    assert main(["margin", str(out), "--condition", "cor8", "--probe",
                 "--report", str(report)]) == 0
    assert len(calls) == 1
    result = load_report(report)["result"]
    assert result["epsilon"] == epsilon and result["peak_gain"] == 1.0 / epsilon
    assert result["probe"] == {
        "note": want.note, "conclusive": want.conclusive, "peak_omega": want.peak_omega,
        "witness_root": None if want.witness_root is None else
            [want.witness_root.real, want.witness_root.imag],
        "boundary_distance": want.boundary_distance,
        "delta": tm_to_json(want.delta),
    }


def synthesized(tmp_path, family):
    """The fig. 4 loop with its 'iop' section, or the scalar output-feedback
    loop with its 'sls_of' section."""
    system = write_fig4(tmp_path) if family == "iop" else write_scalar_of(tmp_path)
    out = tmp_path / f"{family}.json"
    assert main(["synthesize", str(system), "--family", family, "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("condition", ["cor3", "cor8"])
def test_margin_reports_the_condition_margin(tmp_path, condition):
    out = synthesized(tmp_path, "iop" if condition == "cor3" else "sls-of")
    report = tmp_path / "margin.json"
    assert main(["margin", str(out), "--condition", condition,
                 "--report", str(report)]) == 0
    doc = load_system(out)
    want = iop_margin(doc_iop(doc)) if condition == "cor3" else sls_of_margin(doc_sls_of(doc))
    assert load_report(report)["result"]["epsilon"] == want


@pytest.mark.parametrize("condition, blocks", [
    ("cor3", [["y", "u"]]),
    ("cor9", [["y", "u"]]),
    ("cor7", [["x", "u"], ["x", "x"], ["y", "u"], ["y", "x"]]),
    ("lemma2-direct", sorted([a, b] for a in "uxy" for b in "uxy")),
])
def test_sample_default_blocks_are_the_delta_shape(tmp_path, condition, blocks):
    if condition == "lemma2-direct":
        system = write_scalar_of(tmp_path)  # signals x, u, y
    else:
        system = synthesized(tmp_path, "sls-of" if condition == "cor7" else "iop")
    report = tmp_path / "sample.json"
    main(["sample", str(system), "--radius", "0.01", "--n", "2", "--condition", condition,
          "--report", str(report)])
    assert load_report(report)["result"]["blocks"] == blocks


@pytest.mark.parametrize("n", ["1", "2"])
def test_sample_blocks_checked_before_sampling(tmp_path, n):
    out = synthesized(tmp_path, "iop")
    assert main(["sample", str(out), "--radius", "0.5", "--n", n, "--condition", "cor3",
                 "--blocks", "bogus:pair"]) == 65
    assert main(["sample", str(out), "--radius", "0.5", "--n", n, "--condition", "cor3",
                 "--blocks", "u:y"]) == 65


def test_sample_cor7_through_files(tmp_path):
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    doc = SystemDocument(kind="output-feedback", state_space=ss,
                         controller=TransferMatrix(1, 1, [rf(-HALF)]))
    system = tmp_path / "of.json"
    save_system(doc, system)
    out = tmp_path / "of_sls.json"
    main(["synthesize", str(system), "--family", "sls-of", "--out", str(out)])
    assert main(["sample", str(out), "--radius", "0.7", "--n", "40",
                 "--seed", "3", "--condition", "cor7"]) == 0


def test_sample_exit_codes(tmp_path):
    system = write_fig4(tmp_path)
    out = tmp_path / "with_iop.json"
    main(["synthesize", str(system), "--family", "iop", "--out", str(out)])
    report = tmp_path / "sample.json"
    assert main(["sample", str(out), "--radius", "0.9", "--n", "50",
                 "--seed", "0", "--condition", "cor3",
                 "--report", str(report)]) == 0
    data = load_report(report)
    assert data["certificate"]["sample_stats"]["n_stable"] == 50
    assert main(["sample", str(out), "--radius", "0.9", "--n", "0",
                 "--condition", "cor3"]) == 64
    assert main(["sample", str(out), "--radius", "-1", "--n", "5",
                 "--condition", "cor3"]) == 64


def test_sample_oversized_radius_reports_exit_1(tmp_path):
    system = write_fig4(tmp_path)
    out = tmp_path / "with_iop.json"
    main(["synthesize", str(system), "--family", "iop", "--out", str(out)])
    # Radius 4 with constant blocks finds destabilizing samples quickly.
    code = main(["sample", str(out), "--radius", "4.0", "--n", "100",
                 "--seed", "1", "--order", "0", "--condition", "cor3"])
    assert code == 1


@pytest.mark.parametrize("radius, n", [("inf", 3), ("nan", 3), ("1.7e308", 10)])
def test_sample_radius_beyond_float_range_exit_64(tmp_path, capsys, radius, n):
    out = synthesized(tmp_path, "iop")
    assert main(["sample", str(out), "--radius", radius, "--n", str(n), "--seed", "0",
                 "--condition", "cor3"]) == 64
    assert "radius" in capsys.readouterr().err


def test_sample_lemma2_direct_with_constraint_hook(tmp_path):
    system = write_raw_scalar(tmp_path, rf(Fraction(1, 4), Z))
    report = tmp_path / "sample.json"
    code = main(["sample", str(system), "--radius", "0.2", "--n", "20",
                 "--seed", "0", "--condition", "lemma2-direct",
                 "--constraint", "realstab.matrix:_missing"])
    assert code == 64  # bad hook spec is a usage problem

    hook_mod = tmp_path / "hookmod.py"
    hook_mod.write_text("def always_true(r, s):\n    return True\n")
    sys.path.insert(0, str(tmp_path))
    try:
        code = main(["sample", str(system), "--radius", "0.2", "--n", "20",
                     "--seed", "0", "--condition", "lemma2-direct",
                     "--constraint", "hookmod:always_true",
                     "--report", str(report)])
    finally:
        sys.path.remove(str(tmp_path))
    assert code == 0
    assert load_report(report)["result"]["constraint_violations"] == 0


DC_HOOK = "dc_gain_hook:dc_gain_at_most_2"


def write_dc_gain_hook(tmp_path, monkeypatch):
    """Importable hook that rejects a sample when |S(Delta)[0, 0]| at z = 1 exceeds 2."""
    (tmp_path / "dc_gain_hook.py").write_text(
        "def dc_gain_at_most_2(r, s):\n"
        "    return abs(s.evaluate(1.0)[0, 0]) <= 2.0\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import dc_gain_hook
    return dc_gain_hook.dc_gain_at_most_2


def lemma2_sample_argv(system, n, *extra):
    return ["sample", str(system), "--radius", "0.2", "--n", str(n), "--seed", "0",
            "--condition", "lemma2-direct", "--constraint", DC_HOOK, *extra]


def test_sample_constraint_draws_and_solves_each_sample_once(tmp_path, monkeypatch):
    write_dc_gain_hook(tmp_path, monkeypatch)
    system = write_fig4(tmp_path)
    calls = {"draw": 0, "solve": 0}
    draw, solve = uncertainty._sample_with_norm, uncertainty.perturbed_stability

    def counted_draw(*args, **kwargs):
        calls["draw"] += 1
        return draw(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        calls["solve"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(uncertainty, "_sample_with_norm", counted_draw)
    # The CLI's own binding too, so S(Delta) solved outside the certifier is counted.
    monkeypatch.setattr(uncertainty, "perturbed_stability", counted_solve)
    monkeypatch.setattr(cli, "perturbed_stability", counted_solve)
    n = 6
    assert main(lemma2_sample_argv(system, n)) == 0
    assert calls == {"draw": n - 1, "solve": n}  # sample 0 is the zero perturbation


def test_sample_constraint_count_matches_two_pass_reference(tmp_path, monkeypatch):
    hook = write_dc_gain_hook(tmp_path, monkeypatch)
    system = write_fig4(tmp_path)
    report = tmp_path / "sample.json"
    n = 30
    assert main(lemma2_sample_argv(system, n, "--report", str(report))) == 0
    reported = load_report(report)["result"]["constraint_violations"]

    # Reference: draw every sample again and solve S(Delta) on its own.
    realization = build_realization(load_system(system))
    S_hat = stability_matrix(realization)
    part = realization.partition
    spec = UncertaintySpec(block_mask={(a, b) for a, _ in part for b, _ in part},
                           radius=0.2, sample_order=1, seed=0)
    expected = 0
    for i in range(n):
        if i == 0:
            delta = TransferMatrix.zeros(2, 2, part, part)
        else:
            delta = sample_delta(replace(spec, seed=i), (part, part))
        try:
            s_d = perturbed_stability(S_hat, delta)
        except SingularPerturbedLoop:
            expected += 1
            continue
        expected += not hook(realization.R + delta, s_d)
    assert 0 < expected < n  # the hook tells samples apart
    assert reported == expected


@pytest.mark.parametrize("condition, constraint", [
    ("cor3", DC_HOOK),
    ("lemma2-direct", "realstab.matrix:_missing"),
])
def test_sample_constraint_usage_checked_before_sampling(tmp_path, monkeypatch,
                                                         condition, constraint):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the usage checks")

    monkeypatch.setattr(cli, "monte_carlo_certify", no_sampling)
    system = write_fig4(tmp_path)
    out = tmp_path / "with_iop.json"
    assert main(["synthesize", str(system), "--family", "iop", "--out", str(out)]) == 0
    assert main(["sample", str(out), "--radius", "0.2", "--n", "5",
                 "--condition", condition, "--constraint", constraint]) == 64


def test_freqresp_csv(tmp_path):
    system = write_fig4(tmp_path)
    out = tmp_path / "resp.csv"
    assert main(["freqresp", str(system), "--points", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "omega,sigma_1,sigma_2"
    assert len(lines) == 4
    assert main(["freqresp", str(system), "--points", "1", "--out", str(out)]) == 64


def test_freqresp_deterministic_bytes(tmp_path):
    system = write_fig4(tmp_path)
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    main(["freqresp", str(system), "--points", "33", "--out", str(out1)])
    main(["freqresp", str(system), "--points", "33", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_coefficient_beyond_float_range_exit_64(tmp_path, capsys):
    doc = SystemDocument(kind="plant-controller",
                         plant=TransferMatrix(1, 1, [rf(1, Z + 10 ** 400)]),
                         controller=TransferMatrix(1, 1, [rf(HALF)]))
    system = tmp_path / "wide.json"
    save_system(doc, system)
    assert main(["analyze", str(system)]) == 64
    assert "outside the float range" in capsys.readouterr().err
    assert main(["freqresp", str(system), "--points", "3",
                 "--out", str(tmp_path / "resp.csv")]) == 64
    assert "outside the float range" in capsys.readouterr().err


def test_margin_of_underflowing_map_exit_64(tmp_path, capsys):
    doc = SystemDocument(kind="plant-controller",
                         plant=TransferMatrix(1, 1, [rf(1, Z)]),
                         controller=TransferMatrix(1, 1, [rf(Fraction(1, 10 ** 400))]))
    system = tmp_path / "tiny.json"
    save_system(doc, system)
    out = tmp_path / "tiny_iop.json"
    assert main(["synthesize", str(system), "--family", "iop", "--out", str(out)]) == 0
    quad = doc_iop(load_system(out))
    assert iop_verify(quad.G, quad)
    assert main(["margin", str(out), "--condition", "cor3"]) == 64
    assert "underflows" in capsys.readouterr().err


def test_cli_import_loads_no_process_pool(tmp_path):
    code = ("import sys, realstab.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_freqresp_pole_on_grid_exit_6(tmp_path):
    system = write_raw_scalar(tmp_path, rf(1, Z))  # S has a pole at z = 1
    out = tmp_path / "resp.csv"
    assert main(["freqresp", str(system), "--points", "5", "--out", str(out)]) == 6


def test_reports_omit_timing_by_default(tmp_path):
    system = write_fig4(tmp_path)
    report = tmp_path / "report.json"
    main(["analyze", str(system), "--report", str(report)])
    assert "elapsed_seconds" not in load_report(report)
    main(["analyze", str(system), "--report", str(report), "--timing"])
    assert "elapsed_seconds" in load_report(report)
