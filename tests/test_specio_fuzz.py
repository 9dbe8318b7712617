"""Fuzzing the spec loader: whatever a file holds, `load_spec_file` either
returns a spec or raises SpecValidationError, never anything else; and a
`dense` matrix loads as it would entry by entry."""
import gc
import json

import numpy as np
import pytest

from folner_lab import specio
from folner_lab.operators import Dense
from folner_lab.specio import SpecValidationError, _as_complex, _spec_errors, load_spec_file
from folner_lab.specio import operator_from_json

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


numbers = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-2**1100, 2**1100)
entries = (numbers | st.lists(numbers, min_size=2, max_size=2) | st.booleans()
           | st.sampled_from(["1", None, [1.0, True], [0.0, 1.0, 2.0]]))


def _square(cell):
    return st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))


def _entry_by_entry(rows):
    """The matrix of a dense spec's rows, or the message naming its first
    bad entry, as the loader built it one entry at a time."""
    try:
        with _spec_errors("m"):
            return Dense(np.array([[_as_complex(x, "m") for x in row] for row in rows])).matrix
    except SpecValidationError as exc:
        return str(exc)


def _loaded(rows):
    try:
        return operator_from_json({"kind": "dense", "matrix": rows}, "m").matrix
    except SpecValidationError as exc:
        return str(exc)


@FUZZ
@given(rows=_square(numbers) | _square(st.lists(numbers, min_size=2, max_size=2))
       | _square(entries) | st.lists(st.lists(entries, max_size=3), max_size=3))
@example(rows=[[0.5, -0.0], [1, [-0.0, -0.0]]])
@example(rows=[[[1.0, 2.0]], [[3.0, 4.0]]])
@example(rows=[[[-0.0, 1.0]]])
@example(rows=[[True]])
@example(rows=[[2**1100]])
def test_dense_matrix_loads_as_entry_by_entry(rows):
    # rows of numbers or of [re, im] pairs take one walk in C; whatever
    # they hold, the matrix is the one built entry by entry, bit for bit,
    # and a bad entry gets the same message
    want, got = _entry_by_entry(rows), _loaded(rows)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_the_collector_is_paused_and_restored(tmp_path, monkeypatch, enabled):
    # off while the file is decoded, on or off after as the caller had it,
    # after a spec and after a SpecValidationError alike
    seen, decode = [], specio._decode
    monkeypatch.setattr(specio, "_decode", lambda text: (seen.append(gc.isenabled()),
                                                         decode(text))[1])
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"kind": "dense", "matrix": [[[1.0, 2.0]] * 3] * 3}))
    bad.write_text(json.dumps({"kind": "band", "bandwidth": 0.5, "diagonals": []}))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert load_spec_file(good)[0] == "operator"
        assert gc.isenabled() == enabled
        with pytest.raises(SpecValidationError):
            load_spec_file(bad)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]
