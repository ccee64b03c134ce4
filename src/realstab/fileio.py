"""The realstab/1 JSON schema: system files, perturbation files, reports.

Exact rationals are written as strings ("3/4", "-2") so coefficients
round-trip without float loss; polynomials are ascending coefficient
lists in z. Report serialization is canonical (sorted keys, fixed
indentation, trailing newline) so identical analyses produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .analysis import StabilityVerdict
from .errors import MissingBlocks, SchemaError
from .iop import IopQuadruple
from .matrix import StateSpace, TransferMatrix
from .poly import Polynomial
from .ratfun import RationalFunction
from .realization import (
    AdditivePerturbation,
    RealizationSystem,
    build_output_feedback,
    build_plant_controller,
    build_sf_sls,
    build_state_feedback,
    raw_realization,
)
from .sls import SlsOutputFeedback, sls_of_from_blocks
from .uncertainty import Certificate, SampleStats
from .youla import CoprimeFactorization

SCHEMA_VERSION = "realstab/1"
SYSTEM_KINDS = ("plant-controller", "state-feedback", "sf-sls",
                "output-feedback", "raw-realization")

_YOULA_FIELDS = ("ml", "nl", "vl", "ul", "ur", "nr", "vr", "mr")
_IOP_FIELDS = ("Y", "W", "U", "Z")
_SLS_OF_FIELDS = ("phi_xx", "phi_xy", "phi_ux", "phi_uy")
# The system file's matrix fields: (JSON key, SystemDocument attribute, blocks required).
_MATRIX_FIELDS = (("plant", "plant", False), ("controller", "controller", False),
                  ("phi_x", "phi_x", False), ("phi_u", "phi_u", False),
                  ("realization", "realization_matrix", True))


# -- scalars and matrices ----------------------------------------------------


def parse_rational(obj) -> Fraction:
    if isinstance(obj, bool):
        raise SchemaError(f"expected a rational scalar, got {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational coefficient {obj!r}: {exc}") from exc
    raise SchemaError(f"expected int or 'p/q' string, got {type(obj).__name__}")


def rational_to_json(value: Fraction) -> str:
    return str(value)


def parse_ratfun(obj) -> RationalFunction:
    if isinstance(obj, (int, str)):
        return RationalFunction(parse_rational(obj))
    if isinstance(obj, dict):
        if not (isinstance(obj.get("num"), list) and isinstance(obj.get("den"), list)):
            raise SchemaError("rational function needs 'num' and 'den' coefficient lists")
        num = Polynomial([parse_rational(c) for c in obj["num"]])
        den = Polynomial([parse_rational(c) for c in obj["den"]])
        if den.is_zero:
            raise SchemaError("rational function denominator is identically zero")
        return RationalFunction(num, den)
    raise SchemaError(f"cannot parse a rational function from {type(obj).__name__}")


def ratfun_to_json(rf: RationalFunction):
    if rf.is_constant:
        return rational_to_json(rf.num.coeffs[0])
    return {"num": [rational_to_json(c) for c in rf.num.coeffs],
            "den": [rational_to_json(c) for c in rf.den.coeffs]}


def _pairs(obj, what: str) -> list:
    """obj as a list of two-element lists, else SchemaError naming what."""
    if not isinstance(obj, list) or not all(isinstance(p, list) and len(p) == 2 for p in obj):
        raise SchemaError(f"{what} must be a list of two-element lists, got {obj!r}")
    return obj


def _count(obj, what: str) -> int:
    """obj as a count: a JSON integer, not a bool, float or string."""
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(f"{what} must be an integer, got {obj!r}")
    return obj


def _label(obj, what: str) -> str:
    if not isinstance(obj, str):
        raise SchemaError(f"{what} label must be a string, got {obj!r}")
    return obj


def _parse_blocks(obj, axis: str):
    if obj is None:
        return None
    return tuple((_label(label, f"{axis} block"), _count(size, f"{axis} block size"))
                 for label, size in _pairs(obj, f"{axis} blocks"))


def parse_tm(obj, require_blocks: bool = False) -> TransferMatrix:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise SchemaError("transfer matrix needs an 'entries' grid")
    grid = obj["entries"]
    if not isinstance(grid, list) or not grid or not all(isinstance(r, list) for r in grid):
        raise SchemaError("'entries' must be a non-empty list of rows")
    rows = len(grid)
    cols = len(grid[0])
    if not cols or any(len(r) != cols for r in grid):
        raise SchemaError("'entries' rows are empty or ragged")
    for key, count in (("rows", rows), ("cols", cols)):
        if key in obj and _count(obj[key], repr(key)) != count:
            raise SchemaError(f"{key!r} does not match the entry grid")
    entries = [parse_ratfun(e) for row in grid for e in row]
    row_blocks = _parse_blocks(obj.get("row_blocks"), "row")
    col_blocks = _parse_blocks(obj.get("col_blocks"), "col")
    if require_blocks and (row_blocks is None or col_blocks is None):
        raise SchemaError("this matrix needs row_blocks and col_blocks")
    return TransferMatrix(rows, cols, entries, row_blocks, col_blocks)


def tm_to_json(tm: TransferMatrix) -> dict:
    out = {
        "rows": tm.rows,
        "cols": tm.cols,
        "entries": [[ratfun_to_json(tm[i, j]) for j in range(tm.cols)]
                    for i in range(tm.rows)],
    }
    if tm.row_blocks is not None:
        out["row_blocks"] = [[label, size] for label, size in tm.row_blocks]
    if tm.col_blocks is not None:
        out["col_blocks"] = [[label, size] for label, size in tm.col_blocks]
    return out


def parse_fm(obj) -> TransferMatrix:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SchemaError("real matrix must be a non-empty nested list")
    if not obj[0] or any(len(r) != len(obj[0]) for r in obj):
        raise SchemaError("real matrix rows are empty or ragged")
    return TransferMatrix.from_rows([[RationalFunction(parse_rational(v)) for v in row]
                                     for row in obj])


def fm_to_json(x) -> list:
    x = TransferMatrix.constant(x)
    return [[rational_to_json(e.constant_value()) for e in x.row(i)] for i in range(x.rows)]


def parse_statespace(obj) -> StateSpace:
    if not isinstance(obj, dict):
        raise SchemaError("state_space must be an object with A, B, C, D")
    missing = [k for k in ("A", "B", "C", "D") if k not in obj]
    if missing:
        raise SchemaError(f"state_space is missing {missing}")
    return StateSpace(parse_fm(obj["A"]), parse_fm(obj["B"]),
                      parse_fm(obj["C"]), parse_fm(obj["D"]))


def ss_to_json(ss: StateSpace) -> dict:
    return {"A": fm_to_json(ss.A), "B": fm_to_json(ss.B),
            "C": fm_to_json(ss.C), "D": fm_to_json(ss.D)}


# -- system documents --------------------------------------------------------


@dataclass
class SystemDocument:
    """Parsed realstab/1 system file."""

    kind: str
    plant: TransferMatrix | None = None
    controller: TransferMatrix | None = None
    state_space: StateSpace | None = None
    phi_x: TransferMatrix | None = None
    phi_u: TransferMatrix | None = None
    realization_matrix: TransferMatrix | None = None
    gains: dict = field(default_factory=dict)
    iop: dict | None = None
    sls_of: dict | None = None
    youla: dict | None = None


def _check_version(data: dict) -> None:
    if not isinstance(data, dict):
        raise SchemaError("top level must be a JSON object")
    version = data.get("version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unrecognized version {version!r}; expected {SCHEMA_VERSION!r}")


def parse_system(data: dict) -> SystemDocument:
    _check_version(data)
    kind = data.get("kind")
    if kind not in SYSTEM_KINDS:
        raise SchemaError(f"unknown system kind {kind!r}; expected one of {SYSTEM_KINDS}")
    doc = SystemDocument(kind=kind)
    need = {
        "plant-controller": ("plant", "controller"),
        "state-feedback": ("state_space", "controller"),
        "sf-sls": ("state_space", "phi_x", "phi_u"),
        "output-feedback": ("state_space", "controller"),
        "raw-realization": ("realization",),
    }[kind]
    for name in need:
        if name not in data:
            raise SchemaError(f"system kind {kind!r} needs field {name!r}")
    for key, attr, require_blocks in _MATRIX_FIELDS:
        if key in data:
            setattr(doc, attr, parse_tm(data[key], require_blocks))
    if "state_space" in data:
        doc.state_space = parse_statespace(data["state_space"])
    if "gains" in data:
        if not isinstance(data["gains"], dict):
            raise SchemaError("'gains' must be an object of real matrices")
        doc.gains = {name: parse_fm(value) for name, value in data["gains"].items()}
    for section, fields in (("iop", _IOP_FIELDS), ("sls_of", _SLS_OF_FIELDS),
                            ("youla", _YOULA_FIELDS)):
        if section in data:
            raw = data[section]
            if not isinstance(raw, dict):
                raise SchemaError(f"'{section}' must be an object")
            missing = [f for f in fields if f not in raw]
            if missing:
                raise SchemaError(f"'{section}' is missing {missing}")
            setattr(doc, section, {f: parse_tm(raw[f]) for f in fields})
    return doc


def system_to_json(doc: SystemDocument) -> dict:
    out: dict = {"version": SCHEMA_VERSION, "kind": doc.kind}
    for key, attr, _ in _MATRIX_FIELDS:
        if getattr(doc, attr) is not None:
            out[key] = tm_to_json(getattr(doc, attr))
    if doc.state_space is not None:
        out["state_space"] = ss_to_json(doc.state_space)
    if doc.gains:
        out["gains"] = {name: fm_to_json(value) for name, value in doc.gains.items()}
    for section in ("iop", "sls_of", "youla"):
        value = getattr(doc, section)
        if value is not None:
            out[section] = {name: tm_to_json(tm) for name, tm in value.items()}
    return out


def load_system(path) -> SystemDocument:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return parse_system(data)


def save_system(doc: SystemDocument, path) -> None:
    Path(path).write_text(dumps_canonical(system_to_json(doc)))


def build_realization(doc: SystemDocument) -> RealizationSystem:
    """Instantiate the closed-loop realization a system file describes."""
    if doc.kind == "plant-controller":
        return build_plant_controller(doc.plant, doc.controller)
    if doc.kind == "state-feedback":
        return build_state_feedback(doc.state_space, doc.controller)
    if doc.kind == "sf-sls":
        return build_sf_sls(doc.state_space, doc.phi_x, doc.phi_u)
    if doc.kind == "output-feedback":
        return build_output_feedback(doc.state_space, doc.controller)
    return raw_realization(doc.realization_matrix)


def doc_plant(doc: SystemDocument) -> TransferMatrix:
    if doc.plant is not None:
        return doc.plant
    if doc.state_space is not None:
        return doc.state_space.transfer()
    raise MissingBlocks("system file carries no plant description")


def doc_iop(doc: SystemDocument) -> IopQuadruple:
    if doc.iop is None:
        raise MissingBlocks("system file carries no 'iop' section")
    return IopQuadruple(G=doc_plant(doc), Y=doc.iop["Y"], W=doc.iop["W"],
                        U=doc.iop["U"], Z=doc.iop["Z"])


def doc_sls_of(doc: SystemDocument) -> SlsOutputFeedback:
    if doc.sls_of is None:
        raise MissingBlocks("system file carries no 'sls_of' section")
    if doc.state_space is None:
        raise MissingBlocks("the 'sls_of' section needs a state_space")
    return sls_of_from_blocks(doc.state_space, doc.sls_of["phi_xx"], doc.sls_of["phi_xy"],
                              doc.sls_of["phi_ux"], doc.sls_of["phi_uy"])


def doc_youla(doc: SystemDocument) -> CoprimeFactorization:
    if doc.youla is None:
        raise MissingBlocks("system file carries no 'youla' section")
    return CoprimeFactorization(Ml=doc.youla["ml"], Nl=doc.youla["nl"],
                                Vl=doc.youla["vl"], Ul=doc.youla["ul"],
                                Ur=doc.youla["ur"], Nr=doc.youla["nr"],
                                Vr=doc.youla["vr"], Mr=doc.youla["mr"])


# -- perturbation files ------------------------------------------------------


def load_perturbation(path) -> AdditivePerturbation:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    _check_version(data)
    if data.get("kind") != "perturbation":
        raise SchemaError("perturbation file must have kind 'perturbation'")
    if "delta" not in data:
        raise SchemaError("perturbation file needs a 'delta' matrix")
    delta = parse_tm(data["delta"], require_blocks=True)
    if "block_mask" in data:
        mask = frozenset((_label(a, "'block_mask'"), _label(b, "'block_mask'"))
                         for a, b in _pairs(data["block_mask"], "'block_mask'"))
    else:
        mask = frozenset((ra, cb) for ra, _ in delta.row_blocks
                         for cb, _ in delta.col_blocks)
    return AdditivePerturbation(delta, mask)


def perturbation_to_json(pert: AdditivePerturbation) -> dict:
    return {"version": SCHEMA_VERSION, "kind": "perturbation",
            "delta": tm_to_json(pert.delta),
            "block_mask": sorted([a, b] for a, b in pert.block_mask)}


# -- reports -----------------------------------------------------------------


def num_to_json(x: float):
    if x is None:
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return float(x)


def _num_from_json(obj):
    if obj is None:
        return None
    return float(obj)


def verdict_to_json(verdict: StabilityVerdict) -> dict:
    witnesses = []
    for w in verdict.witnesses:
        if isinstance(w[0], complex):
            pole, modulus = w
            witnesses.append({"pole": [num_to_json(pole.real), num_to_json(pole.imag)],
                              "modulus": num_to_json(modulus)})
        else:
            witnesses.append({"entry": [int(w[0]), int(w[1])]})
    return {"status": verdict.status, "witnesses": witnesses}


def verdict_from_json(obj) -> StabilityVerdict:
    witnesses = []
    for w in obj.get("witnesses", []):
        if "pole" in w:
            re, im = (_num_from_json(v) for v in w["pole"])
            witnesses.append((complex(re, im), _num_from_json(w["modulus"])))
        else:
            witnesses.append(tuple(int(v) for v in w["entry"]))
    return StabilityVerdict(obj["status"], tuple(witnesses))


def certificate_to_json(cert: Certificate) -> dict:
    out = {
        "kind": cert.kind,
        "margin": num_to_json(cert.margin) if cert.margin is not None else None,
        "verdict": verdict_to_json(cert.verdict),
        "condition_ref": cert.condition_ref,
        "seed": cert.seed,
        "sample_stats": None,
    }
    if cert.sample_stats is not None:
        st = cert.sample_stats
        out["sample_stats"] = {
            "n_samples": st.n_samples,
            "n_stable": st.n_stable,
            "n_marginal": st.n_marginal,
            "n_unstable": st.n_unstable,
            "worst_sample_norm": num_to_json(st.worst_sample_norm),
        }
    return out


def certificate_from_json(obj) -> Certificate:
    stats = None
    if obj.get("sample_stats") is not None:
        st = obj["sample_stats"]
        stats = SampleStats(n_samples=int(st["n_samples"]), n_stable=int(st["n_stable"]),
                            n_marginal=int(st["n_marginal"]),
                            n_unstable=int(st["n_unstable"]),
                            worst_sample_norm=_num_from_json(st["worst_sample_norm"]))
    margin = obj.get("margin")
    return Certificate(kind=obj["kind"],
                       margin=_num_from_json(margin) if margin is not None else None,
                       verdict=verdict_from_json(obj["verdict"]),
                       condition_ref=obj["condition_ref"],
                       sample_stats=stats, seed=obj.get("seed"))


def dumps_canonical(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def content_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def save_report(report: dict, path) -> None:
    Path(path).write_text(dumps_canonical(report))


def load_report(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
