import json
import math
from fractions import Fraction

import pytest

from realstab.analysis import StabilityVerdict
from realstab.errors import MissingBlocks, SchemaError
from realstab.fileio import (
    SystemDocument,
    build_realization,
    certificate_from_json,
    certificate_to_json,
    doc_iop,
    doc_sls_of,
    doc_youla,
    dumps_canonical,
    load_perturbation,
    load_report,
    load_system,
    parse_rational,
    parse_ratfun,
    parse_system,
    parse_tm,
    perturbation_to_json,
    ratfun_to_json,
    save_report,
    save_system,
    system_to_json,
    tm_to_json,
    verdict_from_json,
    verdict_to_json,
)
from realstab.iop import iop_from_loop, iop_verify
from realstab.matrix import StateSpace, TransferMatrix
from realstab.poly import Polynomial
from realstab.sls import sls_of_from_controller, sls_of_verify
from realstab.uncertainty import Certificate, SampleStats
from realstab.youla import coprime_from_gains

from conftest import HALF, Z, random_proper_tm, rf


def test_parse_rational_forms():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("-5/2") == Fraction(-5, 2)
    with pytest.raises(SchemaError):
        parse_rational("1/0")
    with pytest.raises(SchemaError):
        parse_rational(True)
    with pytest.raises(SchemaError):
        parse_rational(0.5)


def test_ratfun_round_trip(rng):
    for _ in range(40):
        f = random_proper_tm(rng, 1, 1)[0, 0]
        assert parse_ratfun(ratfun_to_json(f)) == f
    assert parse_ratfun("1/2") == rf(HALF)
    assert parse_ratfun(4) == rf(4)


def test_tm_round_trip(rng):
    X = random_proper_tm(rng, 2, 3).with_blocks((("a", 2),), (("b", 1), ("c", 2)))
    back = parse_tm(tm_to_json(X))
    assert back == X
    assert back.row_blocks == X.row_blocks and back.col_blocks == X.col_blocks


def test_tm_shape_validation():
    with pytest.raises(SchemaError):
        parse_tm({"entries": [["1"], ["2", "3"]]})
    with pytest.raises(SchemaError):
        parse_tm({"rows": 2, "cols": 1, "entries": [["1"]]})
    with pytest.raises(SchemaError):
        parse_tm({"entries": []})
    with pytest.raises(SchemaError):
        parse_tm({"entries": [[]]})


@pytest.mark.parametrize("entry", [{"num": "12", "den": "31"}, {"num": ["1"], "den": "31"},
                                   {"num": ["1"], "den": 3}])
def test_coefficients_must_be_lists(entry):
    # A string would be read one character at a time: "12" / "31" as (1 + 2z)/(3 + z).
    with pytest.raises(SchemaError, match="coefficient lists"):
        parse_ratfun(entry)


@pytest.mark.parametrize("key, value", [("rows", [1]), ("cols", {"n": 1}), ("rows", "one"),
                                        ("rows", 1.7), ("rows", 1.0), ("cols", True),
                                        ("rows", "1")])
def test_tm_counts_must_be_integers(key, value):
    with pytest.raises(SchemaError, match=f"'{key}' must be an integer"):
        parse_tm({key: value, "entries": [["1"]]})


@pytest.mark.parametrize("blocks", [[1], ["s1"], [["s", 1, 2]], "s1"])
def test_tm_blocks_must_be_pairs(blocks):
    with pytest.raises(SchemaError):
        parse_tm({"entries": [["1"]], "row_blocks": blocks, "col_blocks": [["s", 1]]})


@pytest.mark.parametrize("blocks, message", [
    ([["y", 1.9]], "row block size must be an integer"),
    ([["y", 1.0]], "row block size must be an integer"),
    ([["u", True]], "row block size must be an integer"),
    ([["u", "1"]], "row block size must be an integer"),
    ([[3, 1]], "row block label must be a string"),
    ([[None, 1]], "row block label must be a string"),
])
def test_tm_block_sizes_and_labels_are_typed(blocks, message):
    # int() and str() would read each of these as the block ("y", 1), ("u", 1) or ("3", 1).
    with pytest.raises(SchemaError, match=message):
        parse_tm({"entries": [["1"]], "row_blocks": blocks, "col_blocks": [["s", 1]]})


def _raw_2x2_json() -> dict:
    blocks = (("y", 1), ("u", 1))
    doc = SystemDocument(kind="raw-realization",
                         realization_matrix=TransferMatrix(
                             2, 2, [rf(0), rf(HALF, Z), rf(1), rf(0)], blocks, blocks))
    return system_to_json(doc)


@pytest.mark.parametrize("field, value", [
    ("rows", 2.0), ("cols", 2.9), ("cols", "2"),
    ("row_blocks", [["y", 1.9], ["u", True]]),
    ("col_blocks", [["y", 1], ["u", "1"]]),
    ("col_blocks", [["y", 1], [3, 1]]),
])
def test_malformed_counts_do_not_load(tmp_path, field, value):
    data = _raw_2x2_json()
    data["realization"][field] = value
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError):
        load_system(path)


def _plant_controller_doc():
    return SystemDocument(kind="plant-controller",
                          plant=TransferMatrix(1, 1, [rf(1, Z)]),
                          controller=TransferMatrix(1, 1, [rf(HALF)]))


def test_system_round_trip_all_kinds(tmp_path):
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    docs = [
        _plant_controller_doc(),
        SystemDocument(kind="state-feedback", state_space=ss,
                       controller=TransferMatrix(1, 1, [rf(-HALF)])),
        SystemDocument(kind="sf-sls", state_space=ss,
                       phi_x=TransferMatrix(1, 1, [rf(1, Z)]),
                       phi_u=TransferMatrix(1, 1, [rf(-HALF, Z)])),
        SystemDocument(kind="output-feedback", state_space=ss,
                       controller=TransferMatrix(1, 1, [rf(-HALF)]),
                       gains={"F": ((Fraction(-1, 2),),)}),
        SystemDocument(
            kind="raw-realization",
            realization_matrix=TransferMatrix(1, 1, [rf(HALF, Z)],
                                              (("s", 1),), (("s", 1),))),
    ]
    for i, doc in enumerate(docs):
        path = tmp_path / f"sys{i}.json"
        save_system(doc, path)
        back = load_system(path)
        assert system_to_json(back) == system_to_json(doc)
        sys_r = build_realization(back)
        assert sys_r.R.is_square


def test_version_and_kind_checks():
    with pytest.raises(SchemaError):
        parse_system({"version": "realstab/2", "kind": "plant-controller"})
    with pytest.raises(SchemaError):
        parse_system({"version": "realstab/1", "kind": "mystery"})
    with pytest.raises(SchemaError):
        parse_system({"version": "realstab/1", "kind": "plant-controller"})


def test_malformed_json_raises_schema_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_system(path)


def test_iop_section_round_trip(tmp_path):
    doc = _plant_controller_doc()
    quad = iop_from_loop(doc.plant, doc.controller)
    doc.iop = {"Y": quad.Y, "W": quad.W, "U": quad.U, "Z": quad.Z}
    path = tmp_path / "iop.json"
    save_system(doc, path)
    loaded = doc_iop(load_system(path))
    assert iop_verify(loaded.G, loaded)


def test_missing_sections_raise(tmp_path):
    doc = _plant_controller_doc()
    path = tmp_path / "plain.json"
    save_system(doc, path)
    loaded = load_system(path)
    with pytest.raises(MissingBlocks):
        doc_iop(loaded)
    with pytest.raises(MissingBlocks):
        doc_sls_of(loaded)
    with pytest.raises(MissingBlocks):
        doc_youla(loaded)


def test_sls_of_section_round_trip(tmp_path):
    ss = StateSpace([[HALF]], [[1]], [[1]], [[0]])
    maps = sls_of_from_controller(ss, TransferMatrix(1, 1, [rf(-HALF)]))
    doc = SystemDocument(kind="output-feedback", state_space=ss,
                         controller=TransferMatrix(1, 1, [rf(-HALF)]),
                         sls_of={"phi_xx": maps.phi_xx, "phi_xy": maps.phi_xy,
                                 "phi_ux": maps.phi_ux, "phi_uy": maps.phi_uy})
    path = tmp_path / "of.json"
    save_system(doc, path)
    loaded = doc_sls_of(load_system(path))
    assert sls_of_verify(ss, loaded)
    assert loaded.defect1.is_zero() and loaded.defect2.is_zero()


def test_youla_section_round_trip(tmp_path):
    ss = StateSpace([[0]], [[1]], [[1]], [[0]])
    cf = coprime_from_gains(ss, [[0]], [[0]])
    doc = SystemDocument(kind="state-feedback", state_space=ss,
                         controller=TransferMatrix.zeros(1, 1),
                         youla={"ml": cf.Ml, "nl": cf.Nl, "vl": cf.Vl, "ul": cf.Ul,
                                "ur": cf.Ur, "nr": cf.Nr, "vr": cf.Vr, "mr": cf.Mr})
    path = tmp_path / "youla.json"
    save_system(doc, path)
    loaded = doc_youla(load_system(path))
    assert loaded.identity_holds()


def test_perturbation_round_trip(tmp_path):
    blocks = (("y", 1), ("u", 1))
    delta = TransferMatrix(2, 2, [rf(0), rf(HALF, Z), rf(0), rf(0)], blocks, blocks)
    from realstab.realization import AdditivePerturbation
    pert = AdditivePerturbation(delta, frozenset({("y", "u")}))
    path = tmp_path / "delta.json"
    path.write_text(dumps_canonical(perturbation_to_json(pert)))
    back = load_perturbation(path)
    assert back.delta == delta
    assert back.block_mask == pert.block_mask


@pytest.mark.parametrize("mask", [[1], ["yu"], [["y", "u", "x"]], {"y": "u"}])
def test_perturbation_mask_must_be_label_pairs(tmp_path, mask):
    # ["yu"] would otherwise unpack to the pair ("y", "u").
    blocks = (("y", 1), ("u", 1))
    delta = TransferMatrix(2, 2, [rf(0), rf(HALF, Z), rf(0), rf(0)], blocks, blocks)
    payload = {"version": "realstab/1", "kind": "perturbation", "delta": tm_to_json(delta),
               "block_mask": mask}
    path = tmp_path / "delta.json"
    path.write_text(dumps_canonical(payload))
    with pytest.raises(SchemaError, match="'block_mask' must be a list of two-element lists"):
        load_perturbation(path)


@pytest.mark.parametrize("field, value", [("entries", [[{"num": "12", "den": "31"}]]),
                                          ("rows", [1])])
def test_malformed_plant_raises_schema_error(tmp_path, field, value):
    path = tmp_path / "loop.json"
    save_system(_plant_controller_doc(), path)
    data = json.loads(path.read_text())
    data["plant"][field] = value
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError):
        load_system(path)


@pytest.mark.parametrize("mask", [[["y", 1]], [[True, "u"]]])
def test_perturbation_mask_labels_must_be_strings(tmp_path, mask):
    blocks = (("y", 1), ("u", 1))
    delta = TransferMatrix(2, 2, [rf(0), rf(HALF, Z), rf(0), rf(0)], blocks, blocks)
    payload = {"version": "realstab/1", "kind": "perturbation", "delta": tm_to_json(delta),
               "block_mask": mask}
    path = tmp_path / "delta.json"
    path.write_text(dumps_canonical(payload))
    with pytest.raises(SchemaError, match="'block_mask' label must be a string"):
        load_perturbation(path)


def test_perturbation_default_mask(tmp_path):
    blocks = (("y", 1), ("u", 1))
    delta = TransferMatrix(2, 2, [rf(0), rf(HALF, Z), rf(0), rf(0)], blocks, blocks)
    payload = {"version": "realstab/1", "kind": "perturbation", "delta": tm_to_json(delta)}
    path = tmp_path / "delta.json"
    path.write_text(dumps_canonical(payload))
    back = load_perturbation(path)
    assert ("u", "y") in back.block_mask and ("y", "u") in back.block_mask


def test_verdict_serialization_round_trip():
    v = StabilityVerdict("unstable", ((complex(1.5, -0.25), 1.5206906325745548),))
    assert verdict_from_json(verdict_to_json(v)) == v
    improper = StabilityVerdict("improper", ((0, 1),))
    assert verdict_from_json(verdict_to_json(improper)) == improper


def test_certificate_round_trip_with_infinite_margin():
    cert = Certificate(kind="monte-carlo", margin=math.inf,
                       verdict=StabilityVerdict("stable"),
                       condition_ref="cor3",
                       sample_stats=SampleStats(3, 3, 0, 0, 0.25), seed=5)
    encoded = certificate_to_json(cert)
    assert encoded["margin"] == "inf"
    assert certificate_from_json(json.loads(json.dumps(encoded))) == cert


def test_report_canonical_bytes(tmp_path):
    report = {"version": "realstab/1", "kind": "report", "b": 2, "a": [1.5, "x"]}
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    save_report(report, p1)
    save_report(dict(reversed(list(report.items()))), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert load_report(p1) == report


# -- outputs pinned across changes of the polynomial storage -------------------
# Any internal representation of polynomials must serialize these values to
# exactly these strings: system files and reports are compared byte for byte.

W24, W40 = Fraction(1, 2 ** 24), Fraction(1, 2 ** 40)


def _pinned_system():
    P = Polynomial
    # Non-monic, negative leading denominator coefficient, common factor 2z - 3.
    p11 = rf(P([3, -2]), P([6, 2, -4]))
    p12 = rf(P([W40, W24]), P([W24, -W40, 1]))
    p21 = rf(P([Fraction(-5, 7), 0, Fraction(3, 2)]), P([W40, 0, Fraction(-7, 3), 2]))
    plant = TransferMatrix.from_rows([[p11, p12], [p21, rf(Fraction(-9, 4))]])
    controller = TransferMatrix.from_rows(
        [[rf(Fraction(-7, 3)), rf(P([5 * W40]), P([W24, 3]))],
         [rf(P([0, W24]), P([Fraction(1, 3), 0, -6])), rf(0)]])
    return SystemDocument(kind="plant-controller", plant=plant, controller=controller)


PINNED_PLANT_ENTRIES = [{'den': ['1', '1'], 'num': ['1/2']},
 {'den': ['1/16777216', '-1/1099511627776', '1'],
  'num': ['1/1099511627776', '1/16777216']},
 {'den': ['1/2199023255552', '0', '-7/6', '1'], 'num': ['-5/14', '0', '3/4']}, '-9/4']

PINNED_LOOP_ENTRIES = [{'den': ['-1/301989888', '-21845/6597069766656', '-366503482709/6597069766656',
          '-549755224073/9895604649984', '1099511627775/1099511627776', '1'],
  'num': ['7/603979776', '7696405233655/996124179980315787264',
          '193690604966134611959/996124179980315787264',
          '1970322723093751/15199648742375424', '-11544872091641/3298534883328',
          '-7/3']},
 {'den': ['1/50331648', '50331649/50331648', '1'],
  'num': ['5/2199023255552', '5/3298534883328']},
 {'den': ['-1/39582418599936', '0', '3848290697243/59373627899904', '-1/18', '-7/6',
          '1'],
  'num': ['-5/108', '5/885443715538058477568', '67/72', '-35/2415919104',
          '-704643067/402653184']},
 {'den': ['1/110680464442257309696', '1/2199023255552', '-7/301989888',
          '-58720255/50331648', '1'],
  'num': ['-25/46179488366592', '0', '5/4398046511104']}]

PINNED_SYSTEM_TEXT = """\
{
  "controller": {
    "cols": 2,
    "entries": [
      [
        "-7/3",
        {
          "den": [
            "1/50331648",
            "1"
          ],
          "num": [
            "5/3298534883328"
          ]
        }
      ],
      [
        {
          "den": [
            "-1/18",
            "0",
            "1"
          ],
          "num": [
            "0",
            "-1/100663296"
          ]
        },
        "0"
      ]
    ],
    "rows": 2
  },
  "kind": "plant-controller",
  "plant": {
    "cols": 2,
    "entries": [
      [
        {
          "den": [
            "1",
            "1"
          ],
          "num": [
            "1/2"
          ]
        },
        {
          "den": [
            "1/16777216",
            "-1/1099511627776",
            "1"
          ],
          "num": [
            "1/1099511627776",
            "1/16777216"
          ]
        }
      ],
      [
        {
          "den": [
            "1/2199023255552",
            "0",
            "-7/6",
            "1"
          ],
          "num": [
            "-5/14",
            "0",
            "3/4"
          ]
        },
        "-9/4"
      ]
    ],
    "rows": 2
  },
  "version": "realstab/1"
}
"""


def test_ratfun_json_pinned():
    doc = _pinned_system()
    assert [ratfun_to_json(e) for e in doc.plant.entries] == PINNED_PLANT_ENTRIES
    loop = doc.plant * doc.controller + doc.controller
    assert [ratfun_to_json(e) for e in loop.entries] == PINNED_LOOP_ENTRIES


def test_system_dumps_pinned():
    doc = _pinned_system()
    text = dumps_canonical(system_to_json(doc))
    assert text == PINNED_SYSTEM_TEXT
    assert dumps_canonical(system_to_json(parse_system(json.loads(text)))) == text


def _pinned_output_feedback():
    # State-space data and gains as grids with dyadic, negative and zero entries.
    P = Polynomial
    ss = StateSpace([[W24, -W40, 0], [Fraction(-3, 2), 0, 1], [0, W40 - 1, Fraction(5, 7)]],
                    [[1, 0], [0, -W24], [W40, 0]],
                    [[0, 1, -W24]],
                    [[0, Fraction(-1, 3)]])
    controller = TransferMatrix.from_rows([[rf(-HALF)], [rf(P([W40]), P([-W24, 1]))]])
    gains = {"F": [[-W40, 0, Fraction(7, 3)], [0, W24, -1]],
             "L": [[-HALF], [0], [W40 - W24]],
             "K": [[0, 0, 0], [-W24, W40, 0]]}
    return SystemDocument(kind="output-feedback", state_space=ss, controller=controller,
                          gains=gains)


PINNED_OUTPUT_FEEDBACK_TEXT = """\
{
  "controller": {
    "cols": 1,
    "entries": [
      [
        "-1/2"
      ],
      [
        {
          "den": [
            "-1/16777216",
            "1"
          ],
          "num": [
            "1/1099511627776"
          ]
        }
      ]
    ],
    "rows": 2
  },
  "gains": {
    "F": [
      [
        "-1/1099511627776",
        "0",
        "7/3"
      ],
      [
        "0",
        "1/16777216",
        "-1"
      ]
    ],
    "K": [
      [
        "0",
        "0",
        "0"
      ],
      [
        "-1/16777216",
        "1/1099511627776",
        "0"
      ]
    ],
    "L": [
      [
        "-1/2"
      ],
      [
        "0"
      ],
      [
        "-65535/1099511627776"
      ]
    ]
  },
  "kind": "output-feedback",
  "state_space": {
    "A": [
      [
        "1/16777216",
        "-1/1099511627776",
        "0"
      ],
      [
        "-3/2",
        "0",
        "1"
      ],
      [
        "0",
        "-1099511627775/1099511627776",
        "5/7"
      ]
    ],
    "B": [
      [
        "1",
        "0"
      ],
      [
        "0",
        "-1/16777216"
      ],
      [
        "1/1099511627776",
        "0"
      ]
    ],
    "C": [
      [
        "0",
        "1",
        "-1/16777216"
      ]
    ],
    "D": [
      [
        "0",
        "-1/3"
      ]
    ]
  },
  "version": "realstab/1"
}
"""


def test_output_feedback_dumps_pinned():
    text = dumps_canonical(system_to_json(_pinned_output_feedback()))
    assert text == PINNED_OUTPUT_FEEDBACK_TEXT
    assert dumps_canonical(system_to_json(parse_system(json.loads(text)))) == text
