"""CLI outputs on the valid corpus against recorded goldens.

The goldens under tests/golden/ are the program's reports at small n.  Any
change to the order of arithmetic may move the last digits, so numeric
cells compare within RTOL/ATOL and every other cell exactly.  Running

    PYTHONPATH=src python tests/test_golden.py

records only the goldens whose file is missing; delete a file to record
it again.
"""
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from folner_lab.cli import main

HERE = Path(__file__).parent
CORPUS = HERE / "corpus" / "valid"
GOLDEN = HERE / "golden"
RTOL, ATOL = 1e-12, 1e-14

# every operator spec in the corpus
OPERATORS = ("almost_mathieu", "dense_pauli", "harper", "hopping", "modulated_band",
             "normal_poly", "shift", "symbol_sampled")
N_LIST = "1,2,3,5,8,13"
SZEGO = {
    "hopping": "poly:4,hat:4:-2:2",
    "symbol_sampled": "poly:4,hat:4:-2:2",
    "harper": "poly:4",
}
TENSOR = (("shift", "shift"), ("shift", "hopping"), ("dense_pauli", "hopping"),
          ("almost_mathieu", "modulated_band"), ("harper", "symbol_sampled"),
          ("modulated_band", "dense_pauli"))


def cases():
    """golden file name -> argv, with spec paths relative to the corpus."""
    out = {}
    for name in OPERATORS:
        out[f"folner_{name}.csv"] = ["folner", "--op", f"{name}.json", "--n", N_LIST,
                                     "--p", "1,2"]
        out[f"trace_{name}.csv"] = ["trace", "--op", f"{name}.json", "--n", N_LIST]
    for name, fam in SZEGO.items():
        out[f"szego_{name}.json"] = ["szego", "--op", f"{name}.json", "--n", "2,4,8,16",
                                     "--f", fam, "--format", "json"]
    for a, b in TENSOR:
        out[f"tensor_{a}_{b}.csv"] = ["tensor", "--op-a", f"{a}.json", "--op-b", f"{b}.json",
                                      "--n", N_LIST]
    return out


def run_cli(argv) -> str:
    argv = [str(CORPUS / a) if a.endswith(".json") else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"exit {code} for {argv}"
    return buf.getvalue()


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _close(got, want, where):
    assert math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL), f"{where}: {got!r} != {want!r}"


def _compare_csv(got: str, want: str, where: str):
    gl, wl = got.splitlines(), want.splitlines()
    assert len(gl) == len(wl), f"{where}: {len(gl)} lines, golden has {len(wl)}"
    for i, (g, w) in enumerate(zip(gl, wl)):
        gc, wc = g.split(","), w.split(",")
        assert len(gc) == len(wc), f"{where} line {i + 1}: {g!r} vs {w!r}"
        for a, b in zip(gc, wc):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                assert a == b, f"{where} line {i + 1}: {a!r} != {b!r}"
            else:
                _close(x, y, f"{where} line {i + 1}")


def _compare_json(got, want, where: str):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for k in want:
            _compare_json(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), f"{where}: {got!r} is not a number"
        _close(got, want, where)
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(cases()))
def test_cli_matches_golden(name):
    got = run_cli(cases()[name])
    want = (GOLDEN / name).read_text(encoding="utf-8")
    if name.endswith(".json"):
        _compare_json(json.loads(got), json.loads(want), name)
    else:
        _compare_csv(got, want, name)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    missing = {f: argv for f, argv in cases().items() if not (GOLDEN / f).exists()}
    for fname, argv in missing.items():
        (GOLDEN / fname).write_text(run_cli(argv), encoding="utf-8")
    print(f"recorded {len(missing)} missing goldens in {GOLDEN}", file=sys.stderr)
