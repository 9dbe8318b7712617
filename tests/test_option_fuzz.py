"""Fuzzing the option parsers and the CLI: whatever text `--f` or `--n`
holds, `parse_f_family` and `parse_n_list` either return or raise
ConfigError, never anything else, with overflow and invalid operations
raising as they do under the CLI; and whatever argv `main` is given, it
exits 0, 1, 2 or 3 with at most one stderr line and no traceback."""
from pathlib import Path

import numpy as np
import pytest

import folner_lab as fl
from folner_lab.cli import ConfigError, main, parse_f_family, parse_n_list

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

numbers = (st.integers().map(str)
           | st.floats().map(repr)
           | st.sampled_from(["inf", "-inf", "nan", "1e308", "-1e308", "5e-324", "", " 3 ", "x"]))
# any COUNT: under the patched 1 MiB of memory, a COUNT past 3382 hats is
# refused by the memory check before any hat is built
f_items = (st.builds("poly:{}".format, numbers)
           | st.builds("hat:{}:{}:{}".format, st.integers() | numbers, numbers, numbers)
           | st.builds("hat:{}".format, numbers)
           | st.text(max_size=12))
f_texts = st.text() | st.lists(f_items, max_size=4).map(",".join)
n_texts = (st.text()
           | st.lists(numbers, max_size=5).map(",".join)
           | st.builds("dyadic:{}:{}".format, numbers, numbers)
           | st.builds("dyadic:{}".format, st.text(max_size=8)))


def _returns_or_refuses(parse, text):
    try:
        with np.errstate(over="raise", invalid="raise"):
            parse(text)
    except ConfigError:
        pass


@FUZZ
@given(text=f_texts)
@example(text="hat:2:-inf:inf")
@example(text="hat:3:1:-1")
@example(text="hat:2:-1e308:1e308")
@example(text="hat:2:nan:1")
@example(text="poly:100000000000000000000")
@example(text="hat:100000000000:0:1")
@example(text="hat:3382:0:1,hat:3383:0:1")
def test_f_family(monkeypatch, text):
    # the memory reading is patched small, so that a large poly:K or
    # hat:COUNT is refused by its check and never built
    monkeypatch.setattr(fl._util, "_physical_memory", lambda: 1 << 20)
    _returns_or_refuses(parse_f_family, text)


@FUZZ
@given(text=n_texts)
@example(text="dyadic:0:63")
@example(text="dyadic:-1:2")
@example(text="1," + "9" * 5000)
def test_n_list(text):
    _returns_or_refuses(parse_n_list, text)


CORPUS = Path(__file__).parent / "corpus"
SPECS = st.sampled_from(sorted(str(p) for p in CORPUS.glob("valid/*.json"))) | st.sampled_from(
    sorted(str(p) for p in CORPUS.glob("*/*.json")))
# option values stay small: every run either finishes in milliseconds or is
# refused by a check before anything of its size is built
VALUES = {
    "--op": SPECS,
    "--op-a": SPECS,
    "--op-b": SPECS,
    "--n": st.sampled_from(["1", "2,4", "1,3,7", "dyadic:0:3", "dyadic:62:62", "0", "3,2",
                            "dyadic:0:63", "x", ""]),
    "--p": st.sampled_from(["1", "2", "1,2", "2,2", "3", "x"]),
    "--f": st.sampled_from(["poly:2", "hat:3:-2:2", "poly:1,hat:2:-1:1", "hat:2:1:-1",
                            "poly:-1", "x", ""]),
    "--nodes": st.sampled_from(["1", "64", "0", "-5", "x"]),
    "--phi": st.sampled_from(["0", "0.25", "nan", "inf", "x"]),
    "--herm-tol": st.sampled_from(["1e-10", "0", "-1", "inf", "x"]),
    "--format": st.sampled_from(["csv", "json", "xml"]),
    "--out": st.sampled_from(["-", "/nonexistent/dir/out.csv"]),
    "--plot-out": st.sampled_from(["-", "/nonexistent/dir/out.csv"]),
}
# each command's required options, then its optional ones
OPTIONS = {
    "folner": (("--op", "--n"), ("--op", "--p", "--format", "--out")),
    "szego": (("--op", "--n"), ("--op", "--f", "--nodes", "--phi", "--herm-tol", "--plot-out",
                                "--format", "--out")),
    "trace": (("--op", "--n"), ("--op", "--phi", "--format", "--out")),
    "tensor": (("--op-a", "--op-b", "--n"), ("--format", "--out")),
    "demo-shift": ((), ("--n", "--out")),
    "validate": ((), ()),
}
HOPPING = str(CORPUS / "valid" / "hopping.json")
PREFIX = {1: "numerical failure: ", 2: "config error: ", 3: "spec error: "}


@st.composite
def argvs(draw):
    """Mostly well-formed command lines: a command with its required options
    three times in four and some of its own options; now and then an option
    of another command, a stray word or an unknown command."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    required, optional = OPTIONS[command]
    opts = list(required) if draw(st.integers(0, 3)) else []
    if optional:
        opts += draw(st.lists(st.sampled_from(optional), max_size=3))
    if not draw(st.integers(0, 7)):
        opts.append(draw(st.sampled_from(sorted(VALUES))))
    argv = [command]
    for opt in opts:
        argv += [opt, draw(VALUES[opt])]
    if command == "validate":
        argv += draw(st.lists(SPECS, min_size=1, max_size=3))
    if not draw(st.integers(0, 7)):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.text(max_size=4) | st.sampled_from(["-h", "--version", "bogus"])))
    return argv


@FUZZ
@given(argv=argvs())
@example(argv=["folner", "--op", HOPPING, "--op", HOPPING, "--n", "2"])
@example(argv=["tensor", "--op-a", HOPPING, "--op-b", HOPPING, "--n", "2"])
def test_main(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        # argparse: --help and --version exit 0, a usage error exits 2 after
        # its usage text
        err = capsys.readouterr().err
        assert exc.code == 0 or (exc.code == 2 and ": error: " in err)
        return
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3) and "Traceback" not in err
    if argv[0] == "validate":
        # a line for each invalid file, so stderr only on exit 3
        assert code in (0, 3) and (code == 3) == bool(err)
    else:
        assert err.count("\n") == (code != 0)
        assert code == 0 or err.startswith(PREFIX[code])
