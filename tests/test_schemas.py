"""The JSON schemas under docs/ and the spec loader describe the same files."""
import json
from pathlib import Path

import pytest

from folner_lab.specio import load_spec_file

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
