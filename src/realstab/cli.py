"""File-driven command line front-end.

Subcommands load realstab/1 JSON system files, run an analysis, print a
short human-readable summary, and optionally write a canonical JSON
report (byte-identical across runs for identical inputs and flags; pass
--timing to embed wall-clock time, which deliberately breaks that
reproducibility).

Exit codes: 0 stable / all samples stable, 1 non-stable samples present,
2 marginal, 3 unstable or improper, 4 no stability matrix, 5 singular
perturbed loop, 6 pole on the frequency grid, 7 gain not stabilizing,
64 parse or usage error or improper input, 65 dimension error,
66 missing parameterization blocks, 70 internal error.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .analysis import (STABLE_VERDICT, freq_response, hinf_peak, matrix_poles,
                       stability_verdict)
from .errors import (
    DimensionMismatch,
    EmptyMask,
    ImproperBlock,
    InfiniteMargin,
    MaskViolation,
    MissingBlocks,
    NoStabilityMatrix,
    NotStabilizing,
    NotStrictlyProper,
    PoleOnGrid,
    RealstabError,
    SchemaError,
    SingularPerturbedLoop,
)
from .fileio import (
    SystemDocument,
    build_realization,
    certificate_to_json,
    content_hash,
    doc_iop,
    doc_sls_of,
    load_perturbation,
    load_system,
    parse_fm,
    save_report,
    save_system,
    tm_to_json,
    verdict_to_json,
    num_to_json,
)
from .iop import iop_from_loop, iop_verify
from .realization import perturbed_stability, stability_matrix
from .sls import sls_of_from_controller, sls_of_verify, sls_sf_from_gain
from .uncertainty import (
    CHECKERS,
    Certificate,
    UncertaintySpec,
    monte_carlo_certify,
    robust_condition,
    worst_case_delta,
)
from .youla import coprime_from_gains, observer_controller

_VERDICT_EXIT = {"stable": 0, "marginal": 2, "unstable": 3, "improper": 3}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(64)


def _report_skeleton(command: str, inputs: dict) -> dict:
    return {
        "version": "realstab/1",
        "kind": "report",
        "tool": {"name": "realstab", "version": __version__},
        "command": command,
        "inputs": {name: {"path": str(path), "sha256": content_hash(path)}
                   for name, path in inputs.items()},
    }


def _finish_report(report: dict, args, started: float) -> None:
    if getattr(args, "timing", False):
        report["elapsed_seconds"] = time.perf_counter() - started
    if getattr(args, "report", None):
        save_report(report, args.report)


def _poles_json(S) -> list:
    return [[num_to_json(p.real), num_to_json(p.imag)] for p in matrix_poles(S)]


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    doc = load_system(args.system)
    system = build_realization(doc)
    S = stability_matrix(system)
    verdict = stability_verdict(S)
    cert = Certificate(kind="pointwise", margin=None, verdict=verdict,
                       condition_ref="internal-stability")
    print(f"signals: {', '.join(system.signals)}")
    print(f"verdict: {verdict}")
    report = _report_skeleton("analyze", {"system": args.system})
    report["certificate"] = certificate_to_json(cert)
    report["result"] = {"verdict": verdict_to_json(verdict), "poles": _poles_json(S),
                        "signals": list(system.signals)}
    _finish_report(report, args, started)
    return _VERDICT_EXIT[verdict.status]


def cmd_perturb(args) -> int:
    started = time.perf_counter()
    doc = load_system(args.system)
    system = build_realization(doc)
    pert = load_perturbation(args.delta)
    S_hat = stability_matrix(system)
    S_delta = perturbed_stability(S_hat, pert, nominal_loop=system.loop)
    verdict = stability_verdict(S_delta)
    cert = Certificate(kind="pointwise", margin=None, verdict=verdict,
                       condition_ref="lemma2-direct")
    print(f"perturbed verdict: {verdict} (both closed forms and direct inverse agree)")
    report = _report_skeleton("perturb", {"system": args.system, "delta": args.delta})
    report["certificate"] = certificate_to_json(cert)
    report["result"] = {"verdict": verdict_to_json(verdict), "poles": _poles_json(S_delta),
                        "forms_agree": True}
    _finish_report(report, args, started)
    return _VERDICT_EXIT[verdict.status]


def _verified_section(doc: SystemDocument, condition: str):
    """The file's 'iop' quadruple (cor3, cor9) or 'sls_of' maps (cor7, cor8), verified."""
    if condition in ("cor3", "cor9"):
        quad = doc_iop(doc)
        if not iop_verify(quad.G, quad):
            raise MissingBlocks("the 'iop' section does not verify against the plant")
        return quad
    maps = doc_sls_of(doc)
    if not sls_of_verify(doc.state_space, maps):
        raise MissingBlocks("the 'sls_of' section does not verify against the plant")
    return maps


def cmd_margin(args) -> int:
    started = time.perf_counter()
    doc = load_system(args.system)
    operand = robust_condition(_verified_section(doc, args.condition), args.condition)[2]
    peak = hinf_peak(operand)
    norm = peak[0]  # 0.0 for the zero map
    epsilon = math.inf if operand.is_zero() else 1.0 / norm
    kind = "small-gain-IOP" if args.condition == "cor3" else "small-gain-SLS-OF"
    # hinf_peak has already required the operand to be stable.
    cert = Certificate(kind=kind, margin=epsilon, verdict=STABLE_VERDICT,
                       condition_ref=args.condition)
    print(f"condition {args.condition}: margin epsilon = {epsilon} "
          f"(reciprocal of peak gain {norm})")
    report = _report_skeleton("margin", {"system": args.system})
    report["certificate"] = certificate_to_json(cert)
    result = {"condition": args.condition, "epsilon": num_to_json(epsilon),
              "peak_gain": num_to_json(norm)}
    if args.probe:
        if math.isinf(epsilon):
            result["probe"] = {"note": "infinite margin: nothing to probe"}
            print("probe: infinite margin, nothing to probe")
        else:
            probe = worst_case_delta(operand, epsilon, peak)
            result["probe"] = {
                "note": probe.note,
                "conclusive": probe.conclusive,
                "peak_omega": num_to_json(probe.peak_omega),
                "witness_root": None if probe.witness_root is None else
                    [num_to_json(probe.witness_root.real),
                     num_to_json(probe.witness_root.imag)],
                "boundary_distance": num_to_json(probe.boundary_distance)
                    if probe.boundary_distance is not None else None,
                "delta": tm_to_json(probe.delta),
            }
            print(f"probe: {probe.note}")
    report["result"] = result
    _finish_report(report, args, started)
    return 0


def _load_constraint(spec_str: str):
    mod_name, _, fn_name = spec_str.partition(":")
    if not mod_name or not fn_name:
        raise SchemaError("constraint hook must look like 'module:function'")
    try:
        module = importlib.import_module(mod_name)
        return getattr(module, fn_name)
    except (ImportError, AttributeError) as exc:
        raise SchemaError(f"cannot load constraint hook {spec_str!r}: {exc}") from exc


def cmd_sample(args) -> int:
    started = time.perf_counter()
    if args.n < 1:
        print("sample: --n must be at least 1", file=sys.stderr)
        return 64
    if args.radius <= 0:
        print("sample: --radius must be positive", file=sys.stderr)
        return 64
    hook = None
    if args.constraint:
        if args.condition != "lemma2-direct":
            print("sample: --constraint is only available with lemma2-direct",
                  file=sys.stderr)
            return 64
        hook = _load_constraint(args.constraint)
    doc = load_system(args.system)
    mask = set()
    for pair in args.blocks.split(",") if args.blocks else ():
        a, _, b = pair.partition(":")
        if not a or not b:
            print(f"sample: bad --blocks entry {pair!r}", file=sys.stderr)
            return 64
        mask.add((a.strip(), b.strip()))
    if args.condition == "lemma2-direct":
        nominal = build_realization(doc)
        rows = cols = nominal.partition
    else:
        nominal = _verified_section(doc, args.condition)
        rows, cols, _ = robust_condition(nominal, args.condition)
    mask = mask or {(a, b) for a, _ in rows for b, _ in cols}
    spec = UncertaintySpec(block_mask=frozenset(mask), radius=args.radius,
                           sample_order=args.order, seed=args.seed)
    cert = monte_carlo_certify(nominal, spec, args.n, args.condition, constraint=hook)
    st = cert.sample_stats
    print(f"samples: {st.n_samples} stable: {st.n_stable} marginal: {st.n_marginal} "
          f"unstable: {st.n_unstable} worst-norm: {st.worst_sample_norm}")
    report = _report_skeleton("sample", {"system": args.system})
    report["certificate"] = certificate_to_json(cert)
    result = {"radius": num_to_json(args.radius), "n": args.n, "seed": args.seed,
              "order": args.order, "condition": args.condition,
              "blocks": sorted([a, b] for a, b in mask)}
    if hook is not None:
        result["constraint_violations"] = st.constraint_violations
    report["result"] = result
    _finish_report(report, args, started)
    return 0 if st.n_stable == st.n_samples else 1


def cmd_freqresp(args) -> int:
    if args.points < 2:
        print("freqresp: --points must be at least 2", file=sys.stderr)
        return 64
    doc = load_system(args.system)
    S = stability_matrix(build_realization(doc))
    rows = freq_response(S, args.points)
    k = len(rows[0][1])
    header = "omega," + ",".join(f"sigma_{i + 1}" for i in range(k))
    lines = [header]
    for omega, sigmas in rows:
        lines.append(",".join([repr(omega)] + [repr(s) for s in sigmas]))
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {len(rows)} rows x {k} singular values to {args.out}")
    return 0


def _gains_from(args, doc: SystemDocument) -> dict:
    gains = dict(doc.gains)
    if args.gains:
        text = args.gains
        if not text.lstrip().startswith("{"):
            text = Path(text).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"bad --gains payload: {exc}") from exc
        if not isinstance(data, dict):
            raise SchemaError("--gains payload must be an object of real matrices")
        for name, value in data.items():
            gains[name] = parse_fm(value)
    return gains


def _need_gain(gains: dict, name: str):
    if name not in gains:
        raise MissingBlocks(f"this family needs gain {name!r} (in the file or --gains)")
    return gains[name]


def cmd_synthesize(args) -> int:
    doc = load_system(args.system)
    gains = _gains_from(args, doc)
    if args.family == "iop":
        if doc.kind != "plant-controller":
            raise MissingBlocks("family 'iop' needs a plant-controller system file")
        quad = iop_from_loop(doc.plant, doc.controller)
        if not iop_verify(doc.plant, quad):
            raise NotStabilizing("the (plant, controller) loop is not internally stable")
        out = SystemDocument(kind=doc.kind, plant=doc.plant, controller=doc.controller,
                             gains=doc.gains,
                             iop={"Y": quad.Y, "W": quad.W, "U": quad.U, "Z": quad.Z})
    elif args.family == "sls-sf":
        if doc.state_space is None:
            raise MissingBlocks("family 'sls-sf' needs a state_space")
        K = _need_gain(gains, "K")
        maps = sls_sf_from_gain(doc.state_space, K)
        if not maps.defect.is_zero():
            raise RealstabError("internal: closed-form response maps have nonzero defect")
        out = SystemDocument(kind="sf-sls", state_space=doc.state_space,
                             phi_x=maps.phi_x, phi_u=maps.phi_u, gains={"K": K})
    elif args.family == "sls-of":
        if doc.state_space is None:
            raise MissingBlocks("family 'sls-of' needs a state_space")
        if doc.controller is not None:
            controller = doc.controller
            kept = dict(doc.gains)
        else:
            F = _need_gain(gains, "F")
            L = _need_gain(gains, "L")
            controller = observer_controller(doc.state_space, F, L)
            kept = {"F": F, "L": L}
        maps = sls_of_from_controller(doc.state_space, controller)
        if not sls_of_verify(doc.state_space, maps):
            raise RealstabError("internal: synthesized response maps do not verify")
        out = SystemDocument(kind="output-feedback", state_space=doc.state_space,
                             controller=controller, gains=kept,
                             sls_of={"phi_xx": maps.phi_xx, "phi_xy": maps.phi_xy,
                                     "phi_ux": maps.phi_ux, "phi_uy": maps.phi_uy})
    else:
        if doc.state_space is None:
            raise MissingBlocks("family 'youla' needs a state_space")
        F = _need_gain(gains, "F")
        L = _need_gain(gains, "L")
        cf = coprime_from_gains(doc.state_space, F, L)
        # coprime_from_gains has verified the Bezout identity exactly.
        if not cf.all_stable():
            raise RealstabError("internal: coprime factorization failed its self-check")
        out = SystemDocument(kind=doc.kind, plant=doc.plant, controller=doc.controller,
                             state_space=doc.state_space, phi_x=doc.phi_x,
                             phi_u=doc.phi_u,
                             realization_matrix=doc.realization_matrix,
                             gains={"F": F, "L": L},
                             youla={"ml": cf.Ml, "nl": cf.Nl, "vl": cf.Vl, "ul": cf.Ul,
                                    "ur": cf.Ur, "nr": cf.Nr, "vr": cf.Vr, "mr": cf.Mr})
    save_system(out, args.out)
    print(f"wrote {args.family} blocks to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="realstab",
                     description="Realization-based stability analysis and "
                                 "robustness certification for discrete-time loops")
    parser.add_argument("--version", action="version", version=f"realstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="stability matrix, verdict, and poles")
    p.add_argument("system")
    p.add_argument("--report")
    p.add_argument("--timing", action="store_true")

    p = sub.add_parser("perturb", help="stability under an explicit additive perturbation")
    p.add_argument("system")
    p.add_argument("delta")
    p.add_argument("--report")
    p.add_argument("--timing", action="store_true")

    p = sub.add_parser("margin", help="small-gain robustness margin")
    p.add_argument("system")
    p.add_argument("--condition", choices=("cor3", "cor8"), required=True)
    p.add_argument("--probe", action="store_true",
                   help="construct the aligned worst-case perturbation at the gain peak")
    p.add_argument("--report")
    p.add_argument("--timing", action="store_true")

    p = sub.add_parser("sample", help="Monte-Carlo certification over an uncertainty ball")
    p.add_argument("system")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", type=int, default=1, help="FIR order of sampled blocks")
    p.add_argument("--condition", choices=CHECKERS, required=True)
    p.add_argument("--blocks", help="comma list row:col of blocks to perturb")
    p.add_argument("--constraint",
                   help="module:function predicate on (R_delta, S_delta); "
                        "lemma2-direct only")
    p.add_argument("--report")
    p.add_argument("--timing", action="store_true")

    p = sub.add_parser("freqresp", help="CSV of singular values over [0, pi]")
    p.add_argument("system")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synthesize", help="closed-form parameterization blocks from gains")
    p.add_argument("system")
    p.add_argument("--family", choices=("youla", "iop", "sls-sf", "sls-of"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gains", help="JSON object or path with F, L, K real matrices")
    return parser


# Ordered like README's "Exit codes" table; the first matching row wins, so
# MissingBlocks (a SchemaError) comes before SchemaError.
_EXIT_CODES = (
    ((MissingBlocks,), 66),
    ((SchemaError, EmptyMask, MaskViolation, ImproperBlock, NotStrictlyProper,
      OSError, ValueError), 64),
    ((DimensionMismatch,), 65),
    ((NoStabilityMatrix,), 4),
    ((SingularPerturbedLoop,), 5),
    ((PoleOnGrid,), 6),
    ((NotStabilizing, InfiniteMargin), 7),
    # internal guards (exactness cross-checks); not part of the taxonomy
    ((RealstabError,), 70),
)
_HANDLED = tuple(t for types, _ in _EXIT_CODES for t in types)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 64
    try:
        # Looked up per call, so wrappers installed on cmd_* after the parser
        # is built still see every command.
        return globals()[f"cmd_{args.command}"](args)
    except _HANDLED as exc:
        code = next(code for types, code in _EXIT_CODES if isinstance(exc, types))
        print(f"{'internal error' if code == 70 else 'error'}: {exc}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
