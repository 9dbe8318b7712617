"""The JSON schemas under docs/ and the spec loader describe the same files."""
import json
from pathlib import Path

import pytest

from folner_lab.specio import SpecValidationError, load_spec_file

jsonschema = pytest.importorskip("jsonschema")

HERE = Path(__file__).parent
SCHEMAS = {p.name: json.loads(p.read_text()) for p in sorted((HERE.parent / "docs").glob("*.schema.json"))}
VALID = sorted((HERE / "corpus" / "valid").glob("*.json"))


def test_schemas_are_well_formed():
    assert SCHEMAS
    for schema in SCHEMAS.values():
        jsonschema.Draft7Validator.check_schema(schema)


@pytest.mark.parametrize("path", VALID, ids=lambda p: p.name)
def test_valid_corpus_matches_exactly_its_schema(path):
    doc = json.loads(path.read_text())
    matches = [name for name, schema in SCHEMAS.items()
               if jsonschema.Draft7Validator(schema).is_valid(doc)]
    kind, _ = load_spec_file(path)
    assert matches == [f"{kind}_spec.schema.json"]


BAND = {"kind": "band", "bandwidth": 1, "diagonals": [{"offset": 0, "fn": 1.0}]}
TOEPLITZ = {"kind": "toeplitz", "coeffs": {"0": 1.0}}
COS = {"type": "cos", "amp": 1.0, "freq": 0.3, "phase": 0.1}
SHIFT = {"kind": "shift"}


def _with(doc, **fields):
    return {**doc, **fields}


# (id, document): each number field as a JSON number, an integral float, a
# fraction, a string and a boolean; the boolean field as a boolean, a
# string, an integer and null; Toeplitz offset keys in and out of their
# one spelling; and polynomial sums and products of no term and of one
NUMBER_CASES = [
    ("coupling-int", {"kind": "almost_mathieu", "coupling": 1, "freq": 0.3}),
    ("coupling-string", {"kind": "almost_mathieu", "coupling": "nan", "freq": 0.3}),
    ("coupling-bool", {"kind": "almost_mathieu", "coupling": True, "freq": 0.3}),
    ("phase-string", {"kind": "almost_mathieu", "coupling": 1.0, "freq": 0.3, "phase": "0"}),
    ("bandwidth-integral-float", _with(BAND, bandwidth=1.0)),
    ("bandwidth-fraction", _with(BAND, bandwidth=1.9)),
    ("bandwidth-string", _with(BAND, bandwidth="1")),
    ("bandwidth-bool", _with(BAND, bandwidth=True)),
    ("offset-fraction", _with(BAND, diagonals=[{"offset": 0.5, "fn": 1.0}])),
    ("offset-integral-float", _with(BAND, diagonals=[{"offset": -1.0, "fn": 1.0}])),
    ("cos-amp-string", _with(BAND, diagonals=[{"offset": 0, "fn": _with(COS, amp="1")}])),
    ("exp-freq-bool", _with(BAND, diagonals=[{"offset": 0, "fn": {"type": "exp", "freq": False}}])),
    ("const-bool", _with(BAND, diagonals=[{"offset": 0, "fn": True}])),
    ("samples-bandwidth-fraction",
     {"kind": "toeplitz", "samples": [1.0, 2.0, 3.0, 4.0], "bandwidth": 1.5}),
    ("dense-bool-entry", {"kind": "dense", "matrix": [[1.0, [0.0, True]], [0.0, 1.0]]}),
    ("shift-string-weight", {"kind": "shift", "weight": "2"}),
    ("window-integral-floats", {"kind": "window", "lattice": "z", "lo": -3.0, "hi": 5}),
    ("window-string-and-fraction", {"kind": "window", "lattice": "z", "lo": "3", "hi": 5.7}),
    ("indices-integral-float", {"kind": "index_set", "lattice": "n0", "indices": [0, 2.0, 5]}),
    ("indices-fraction", {"kind": "index_set", "lattice": "n0", "indices": [0, 1.5]}),
    ("ncpoly-m-fraction", {"kind": "ncpoly", "alpha": 0.3, "terms": [{"m": 1.5, "k": 0, "coeff": 1.0}]}),
    ("ncpoly-k-string", {"kind": "ncpoly", "alpha": 0.3, "terms": [{"m": 1, "k": "0", "coeff": 1.0}]}),
    ("ncpoly-m-integral-float", {"kind": "ncpoly", "alpha": 0.3, "terms": [{"m": 1.0, "k": 0, "coeff": 1.0}]}),
    ("ncpoly-alpha-bool", {"kind": "ncpoly", "alpha": True, "terms": []}),
    ("selfadjoint-bool", _with(TOEPLITZ, selfadjoint=True)),
    ("selfadjoint-string", _with(TOEPLITZ, selfadjoint="false")),
    ("selfadjoint-int", _with(TOEPLITZ, selfadjoint=0)),
    ("selfadjoint-null", _with(TOEPLITZ, selfadjoint=None)),
    ("coeffs-keys-signed", _with(TOEPLITZ, coeffs={"-12": 1.0, "0": 2.0, "3": 1.0})),
    ("coeffs-key-underscore", _with(TOEPLITZ, coeffs={"1_0": 1.0})),
    ("coeffs-key-space", _with(TOEPLITZ, coeffs={" 1": 1.0})),
    ("coeffs-key-plus", _with(TOEPLITZ, coeffs={"+1": 1.0})),
    ("coeffs-key-leading-zero", _with(TOEPLITZ, coeffs={"1": 1.0, "01": 5.0})),
    ("coeffs-key-negative-zero", _with(TOEPLITZ, coeffs={"-0": 1.0})),
    ("coeffs-key-float", _with(TOEPLITZ, coeffs={"1.0": 1.0})),
    ("coeffs-key-newline", _with(TOEPLITZ, coeffs={"1\n": 1.0})),
    ("poly-sum-empty", {"kind": "poly", "expr": {"sum": []}}),
    ("poly-prod-empty", {"kind": "poly", "expr": {"sum": [{"op": SHIFT}, {"prod": []}]}}),
    ("poly-sum-one", {"kind": "poly", "expr": {"sum": [{"op": SHIFT}]}}),
    ("poly-prod-one", {"kind": "poly", "expr": {"prod": [{"op": SHIFT}]}}),
]


ACCEPTED = {"coupling-int", "bandwidth-integral-float", "offset-integral-float",
            "window-integral-floats", "indices-integral-float", "ncpoly-m-integral-float",
            "selfadjoint-bool", "coeffs-keys-signed", "poly-sum-one", "poly-prod-one"}


@pytest.mark.parametrize("name,doc", NUMBER_CASES, ids=[name for name, _ in NUMBER_CASES])
def test_loader_types_numbers_as_the_schemas_do(tmp_path, name, doc):
    # a number field accepts a JSON number and nothing else; an integer field
    # accepts an integral float too, as JSON Schema draft 7 does
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    schema_ok = any(jsonschema.Draft7Validator(s).is_valid(doc) for s in SCHEMAS.values())
    try:
        load_spec_file(path)
        loader_ok = True
    except SpecValidationError:
        loader_ok = False
    assert loader_ok == schema_ok == (name in ACCEPTED)


@pytest.mark.parametrize("name", ["string_number.json", "fractional_bandwidth.json"])
def test_invalid_number_files_fail_their_schema(name):
    doc = json.loads((HERE / "corpus" / "invalid" / name).read_text())
    assert not any(jsonschema.Draft7Validator(s).is_valid(doc) for s in SCHEMAS.values())
