"""JSON serialization and validation for operator, projection, and
rotation-algebra polynomial specs.  Schemas are documented under docs/."""
from __future__ import annotations

import gc
import json
import math
import re
from contextlib import contextmanager
from itertools import chain, compress, repeat
from operator import is_

from . import operators as ops
from . import projections as prj
from ._util import SpecError, lazy_numpy
from .operators import (
    AlmostMathieu,
    Band,
    Dense,
    OperatorSpec,
    Poly,
    Shift,
    Toeplitz,
    Wave,
    toeplitz_from_samples,
)
from .traces import NCPolynomial

np = lazy_numpy()

# Deepest JSON nesting a spec file may have: a polynomial nested this deep
# is evaluated well inside the interpreter's recursion limit.
MAX_NESTING = 100

# The one spelling of a Toeplitz offset key, as the schema's propertyNames
# give it: no sign but a minus, no leading zero, no space or underscore.
_OFFSET_KEY = re.compile("0|-?[1-9][0-9]*")


class SpecValidationError(SpecError):
    """A spec file or document failed structural validation."""


@contextmanager
def _spec_errors(where: str):
    """Re-raise what building a spec from a malformed document raises as a
    SpecValidationError naming `where`."""
    try:
        yield
    except SpecValidationError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise SpecValidationError(f"{where}: {exc}") from exc


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise SpecValidationError(f"{where}: missing field {key!r}")
    return doc[key]


def _is_number(x) -> bool:
    """Whether x decodes a JSON number: a bool or a string is not one."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number(x, where: str, name: str) -> float:
    """A field the schemas type `number`."""
    if not _is_number(x):
        raise SpecValidationError(f"{where}: {name} must be a number, got {x!r}")
    return float(x)


def _integer(x, where: str, name: str) -> int:
    """A field the schemas type `integer`: an int, or a float with an
    integral value, as JSON Schema draft 7 accepts."""
    if not _is_number(x) or (isinstance(x, float) and not x.is_integer()):
        raise SpecValidationError(f"{where}: {name} must be an integer, got {x!r}")
    return int(x)


def _offset_key(key: str, where: str) -> int:
    """A Toeplitz coeffs key, in the one spelling of `_OFFSET_KEY`."""
    if not _OFFSET_KEY.fullmatch(key):
        raise SpecValidationError(f"{where}: coeffs key {key!r} is not an integer offset")
    return int(key)


def _as_complex(pair, where: str) -> complex:
    if _is_number(pair):
        return complex(pair)
    if isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(_is_number, pair)):
        return complex(pair[0], pair[1])
    raise SpecValidationError(f"{where}: expected a number or [re, im] pair, got {pair!r}")


def _lattice(doc: dict, where: str, default=None) -> str:
    lat = doc.get("lattice", default)
    if lat not in (ops.N0, ops.Z):
        raise SpecValidationError(f"{where}: lattice must be 'n0' or 'z', got {lat!r}")
    return lat


def _band_fn(doc, where: str):
    if isinstance(doc, (int, float, list)):
        return _as_complex(doc, where)
    if not isinstance(doc, dict):
        raise SpecValidationError(f"{where}: bad diagonal function {doc!r}")
    kind = _need(doc, "type", where)
    if kind == "const":
        return _as_complex(_need(doc, "value", where), where)
    if kind == "cos":
        amp = _number(_need(doc, "amp", where), where, "amp")
        freq = _number(_need(doc, "freq", where), where, "freq")
        phase = _number(doc.get("phase", 0.0), where, "phase")
        return Wave.of(freq, phase, amp, cos=True)
    if kind == "exp":
        freq = _number(_need(doc, "freq", where), where, "freq")
        phase = _number(doc.get("phase", 0.0), where, "phase")
        return Wave.of(freq, phase)
    raise SpecValidationError(f"{where}: unknown diagonal function type {kind!r}")


def operator_from_json(doc, where: str = "operator") -> OperatorSpec:
    if not isinstance(doc, dict):
        raise SpecValidationError(f"{where}: expected an object, got {type(doc).__name__}")
    kind = _need(doc, "kind", where)
    with _spec_errors(where):
        if kind == "dense":
            return Dense.of_entries(*_dense_matrix(_need(doc, "matrix", where), where))
        if kind == "toeplitz":
            sa = doc.get("selfadjoint", False)
            if not isinstance(sa, bool):  # the schemas type it `boolean`
                raise SpecValidationError(f"{where}: selfadjoint must be a boolean, got {sa!r}")
            if "coeffs" in doc:
                if not isinstance(doc["coeffs"], dict):
                    raise SpecValidationError(f"{where}: coeffs must map offsets to values")
                coeffs = {_offset_key(k, where): _as_complex(v, where)
                          for k, v in doc["coeffs"].items()}
                return Toeplitz(coeffs, selfadjoint=sa)
            if "samples" in doc:
                vals = [_as_complex(x, where) for x in doc["samples"]]
                bw = _integer(_need(doc, "bandwidth", where), where, "bandwidth")
                return toeplitz_from_samples(vals, bw, selfadjoint=sa)
            raise SpecValidationError(f"{where}: toeplitz needs 'coeffs' or 'samples'")
        if kind == "shift":
            return Shift(weight=_as_complex(doc.get("weight", 1.0), where))
        if kind == "band":
            bw = _integer(_need(doc, "bandwidth", where), where, "bandwidth")
            diags = []
            for item in _need(doc, "diagonals", where):
                off = _integer(_need(item, "offset", where), where, "offset")
                diags.append((off, _band_fn(_need(item, "fn", where), where)))
            return Band(bw, tuple(diags))
        if kind == "almost_mathieu":
            return AlmostMathieu(
                coupling=_number(_need(doc, "coupling", where), where, "coupling"),
                freq=_number(_need(doc, "freq", where), where, "freq"),
                phase=_number(doc.get("phase", 0.0), where, "phase"),
            )
        if kind == "identity":
            return ops.identity(_lattice(doc, where, default=ops.N0))
        if kind == "kron":
            raise SpecValidationError(
                f"{where}: tensor products are not operator specs; run "
                "'tensor --op-a A --op-b B' on the two factor files"
            )
        if kind == "poly":
            return Poly(_poly_node(_need(doc, "expr", where), where + ".expr"))
    raise SpecValidationError(f"{where}: unknown operator kind {kind!r}")


def _dense_matrix(rows, where: str) -> tuple:
    """(entries, shape, pairs) of a `dense` spec's rows of numbers or
    [re, im] pairs, for `Dense.of_entries`, checked with builtins alone:
    numpy forms the matrix on its first read.  Rows of one length holding
    only numbers, or only pairs of numbers, are checked by type in C, with
    no Python call per entry (a bool or a string is no number), and their
    numbers stored as doubles in an `array`, which refuses an integer past
    the float range.  Anything else is read entry by entry into complex
    numbers, which names the first bad entry; rows of differing lengths
    then get numpy's own message."""
    if (type(rows) is list and set(map(type, rows)) == {list}
            and len(set(map(len, rows))) == 1):
        cells = list(chain.from_iterable(rows))
        kinds = set(map(type, cells))
        pairs = kinds == {list} and set(map(len, cells)) == {2}
        if pairs:
            cells = list(chain.from_iterable(cells))
            kinds = set(map(type, cells))
        if kinds and kinds <= {int, float}:
            from array import array  # an extension module: loaded for dense specs only
            try:
                return array("d", cells), (len(rows), len(rows[0])), pairs
            except OverflowError:  # an integer past the float range
                pass
    walked = [[_as_complex(x, where) for x in row] for row in rows]
    widths = set(map(len, walked))
    if len(widths) > 1:
        np.array(walked)  # raises numpy's message for ragged rows
    return list(chain.from_iterable(walked)), (len(walked), *widths), False


def _poly_node(doc, where: str):
    if not isinstance(doc, dict):
        raise SpecValidationError(f"{where}: expected an object")
    if "op" in doc:
        spec = operator_from_json(doc["op"], where + ".op")
        return ops._as_node(spec)
    if "sum" in doc:
        return ops.SumE(tuple(_poly_node(p, where) for p in doc["sum"]))
    if "prod" in doc:
        return ops.ProdE(tuple(_poly_node(p, where) for p in doc["prod"]))
    if "adj" in doc:
        return ops.AdjE(_poly_node(doc["adj"], where + ".adj"))
    if "scale" in doc:
        return ops.ScaleE(
            _as_complex(doc["scale"], where), _poly_node(_need(doc, "of", where), where + ".of")
        )
    raise SpecValidationError(f"{where}: polynomial node needs op/sum/prod/adj/scale")


def projection_from_json(doc, where: str = "projection"):
    if not isinstance(doc, dict):
        raise SpecValidationError(f"{where}: expected an object")
    kind = _need(doc, "kind", where)
    with _spec_errors(where):
        if kind == "window":
            return prj.Window(
                _lattice(doc, where),
                _integer(_need(doc, "lo", where), where, "lo"),
                _integer(_need(doc, "hi", where), where, "hi"),
            )
        if kind == "index_set":
            indices = _need(doc, "indices", where)
            return prj.IndexSet(_lattice(doc, where),
                                tuple(_integer(i, where, "an index") for i in indices))
    raise SpecValidationError(f"{where}: unknown projection kind {kind!r}")


def ncpoly_from_json(doc, where: str = "ncpoly") -> NCPolynomial:
    if not isinstance(doc, dict):
        raise SpecValidationError(f"{where}: expected an object")
    terms = {}
    with _spec_errors(where):
        alpha = _number(_need(doc, "alpha", where), where, "alpha")
        for item in _need(doc, "terms", where):
            m = _integer(_need(item, "m", where), where, "m")
            k = _integer(_need(item, "k", where), where, "k")
            c = _as_complex(_need(item, "coeff", where), where)
            terms[(m, k)] = {0: terms.get((m, k), {}).get(0, 0j) + c}
        return NCPolynomial(alpha, terms)


def _reject_constant(name: str):
    raise SpecValidationError(f"non-finite number {name} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        _reject_constant(text)
    return value


def _of_type(level: list, kinds: set, t: type):
    """The nodes of type t in level, whose types are kinds."""
    return level if len(kinds) == 1 else compress(level, map(is_, map(type, level), repeat(t)))


def _depth(doc):
    """The depth of a JSON tree, counted level by level without recursion,
    or None where a float in it is not finite.  JSON decodes to exact
    builtin types, so a level is split by type in C, with no Python call
    per node."""
    depth, level = 0, [doc]
    while level:
        depth += 1
        kinds = set(map(type, level))
        if float in kinds and not all(map(math.isfinite, _of_type(level, kinds, float))):
            return None
        children = []
        if list in kinds:
            children += chain.from_iterable(_of_type(level, kinds, list))
        if dict in kinds:
            children += chain.from_iterable(map(dict.values, _of_type(level, kinds, dict)))
        level = children
    return depth


def _decode(text: str):
    """The JSON document of text, every number in it finite, and its depth.
    Decoded at the json module's own speed, then walked; a text that fails
    either is decoded again with the finiteness hooks, which raise at its
    first bad literal, naming it, as they would have from the start."""
    try:
        doc = json.loads(text)
        depth = _depth(doc)
        if depth is not None:
            return doc, depth
    except (ValueError, RecursionError):
        pass
    doc = json.loads(text, parse_float=_finite_float, parse_constant=_reject_constant)
    return doc, _depth(doc)


def load_spec_file(path):
    """Load a spec file; returns ('operator'|'projection'|'ncpoly', value).

    NaN, +-Infinity and literals that overflow a float are rejected: every
    number in a spec must be finite.  So are files that cannot be read or
    decoded, and documents nested deeper than MAX_NESTING.  The cyclic
    collector is paused: a large spec's many new lists form no cycle.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc, depth = _decode(fh.read())
        except (OSError, ValueError, RecursionError) as exc:
            raise SpecValidationError(f"{path}: {exc}") from exc
        if depth > MAX_NESTING:
            raise SpecValidationError(f"{path}: nested deeper than {MAX_NESTING} levels")
        if not isinstance(doc, dict) or "kind" not in doc:
            raise SpecValidationError(f"{path}: spec document needs a 'kind' field")
        kind = doc["kind"]
        if kind == "ncpoly":
            return "ncpoly", ncpoly_from_json(doc, str(path))
        if kind in ("window", "index_set"):
            return "projection", projection_from_json(doc, str(path))
        return "operator", operator_from_json(doc, str(path))
    finally:
        if enabled:
            gc.enable()
