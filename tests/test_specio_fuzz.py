"""Fuzzing the spec loader: whatever a file holds, `load_spec_file` either
returns a spec or raises SpecValidationError, never anything else."""
import json

import pytest

from folner_lab.specio import SpecValidationError, load_spec_file

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

KINDS = ("dense", "toeplitz", "shift", "band", "almost_mathieu", "identity", "kron", "poly",
         "window", "index_set", "ncpoly")
FIELDS = ("kind", "lattice", "matrix", "coeffs", "samples", "bandwidth", "selfadjoint",
          "weight", "diagonals", "offset", "fn", "type", "value", "amp", "freq", "phase",
          "coupling", "expr", "op", "sum", "prod", "adj", "scale", "of", "lo", "hi",
          "indices", "alpha", "terms", "m", "k", "coeff", "left", "right", "0", "1", "-1")
WORDS = KINDS + ("n0", "z", "const", "cos", "exp", "1", "-1", "1e400", "nan")

scalars = (st.none() | st.booleans() | st.integers() | st.sampled_from(WORDS) | st.text(max_size=4)
           | st.floats(allow_nan=False, allow_infinity=False))
trees = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS), children, max_size=5),
    max_leaves=30,
)
specs = st.builds(lambda kind, rest: {**rest, "kind": kind},
                  st.sampled_from(KINDS), st.dictionaries(st.sampled_from(FIELDS), trees, max_size=5))

FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])


def _load(path, data: bytes):
    path.write_bytes(data)
    try:
        load_spec_file(path)
    except SpecValidationError:
        pass


@FUZZ
@given(data=st.binary(max_size=64))
@example(data=b"\x80")
@example(data=b'{"kind": "poly", "expr": ' + b'{"adj": ' * 3000 + b'{"op": {"kind": "shift"}}'
         + b"}" * 3001)
def test_arbitrary_bytes(tmp_path, data):
    _load(tmp_path / "spec.json", data)


@FUZZ
@given(doc=specs)
@example(doc={"kind": "toeplitz", "coeffs": None})
@example(doc={"kind": "ncpoly", "alpha": 0.5, "terms": 0})
@example(doc={"kind": "ncpoly", "alpha": 10**400, "terms": []})
@example(doc={"kind": "shift", "weight": 10**400})
def test_arbitrary_json_trees(tmp_path, doc):
    _load(tmp_path / "spec.json", json.dumps(doc).encode())
