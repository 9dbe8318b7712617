"""Every module of the package uses each name it imports, and each of its
module-level functions, classes and assigned names, and each name assigned
in one of its class bodies, is used or exported.  The package exports
lazily, from the table `_EXPORTS` of its __init__; every entry of that
table names a definition, and every name the package exported when its
__init__ imported them eagerly still resolves.  A subcommand loads only
the modules it runs, `--help`, argument errors and `validate` on spec kinds
that compute nothing never run numpy's import, and a tridiagonal solve
loads scipy's compiled LAPACK wrapper without the scipy.linalg package."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import folner_lab as fl
from folner_lab.specio import load_spec_file

SRC = Path(__file__).parent.parent / "src" / "folner_lab"
# the package's __init__ exports names; it imports none of them to do so
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names a module imports (at any depth) and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    source = "import json\nimport math\nfrom .x import a, b as c\n\nprint(math.pi, c)\n"
    assert unused_imports(source) == [(1, "json"), (3, "a")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _assigned(body) -> list:
    """The names a module or class body binds by plain assignment, dunders
    aside; an annotated assignment, such as a dataclass field, is not one."""
    return [name.id for node in body if isinstance(node, ast.Assign)
            for target in node.targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and not name.id.startswith("__")]


def lazy_exports(source: str) -> dict:
    """The lazy export table of a package __init__: the dict literal it
    assigns to `_EXPORTS`, submodule -> the names exported from it."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "_EXPORTS"
                for target in node.targets):
            return ast.literal_eval(node.value)
    return {}


def _bound(source: str) -> set:
    """The names a module binds at its top level: by definition, plain or
    annotated assignment, or import."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)}
    return names


def dangling_exports(sources: dict) -> list:
    """(module, "") of each submodule of the __init__'s lazy export table
    that `sources` lacks, and (module, name) of each entry that its module
    does not bind at top level."""
    table = lazy_exports(sources.get("__init__", ""))
    missing = [(module, "") for module in table if module not in sources]
    return sorted(missing + [(module, name) for module, names in table.items()
                             if module in sources
                             for name in set(names) - _bound(sources[module])])


def dead_definitions(sources: dict) -> list:
    """(module, name) of each module-level function, class or assigned name,
    and (module, "Class.NAME") of each name assigned in a class body, that
    no module of `sources` (module name -> source) reads, by name or as an
    attribute, or imports.  A name in the lazy export table of the
    package's __init__ is exported, and so read; a module-level dunder
    function, such as PEP 562's `__getattr__`, is read by the interpreter."""
    table = lazy_exports(sources.get("__init__", ""))
    defined, used = [], {name for names in table.values() for name in names}
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                defined.append((module, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(module, f"{node.name}.{name}", name)
                            for name in _assigned(node.body)]
        defined += [(module, name, name) for name in _assigned(tree.body)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted((module, where) for module, where, name in defined if name not in used)


def test_detects_a_dead_definition():
    sources = {
        "a": "def read():\n    pass\n\n\nclass Kept:\n    pass\n\n\ndef dead():\n    read()\n",
        "b": "from . import a\nfrom .a import Kept\n\nprint(a.read)\n",
    }
    assert dead_definitions(sources) == [("a", "dead")]


def test_detects_an_unread_constant():
    source = ("__all__ = ['Report']\nLIMIT = 4\nUNREAD = LIMIT\n\n\n@dataclass\n"
              "class Report:\n    rows: list = field(default_factory=list)\n"
              "    COLUMNS = ('n',)\n    SPARE = ('d_n',)\n\n"
              "    def to_csv(self):\n        self.rows = self.COLUMNS\n\n\nprint(Report().to_csv())\n")
    assert dead_definitions({"a": source}) == [("a", "Report.SPARE"), ("a", "UNREAD")]


def test_every_definition_is_used_or_exported():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert dead_definitions(sources) == []


def test_lazy_exports_count_as_exported():
    sources = {
        "__init__": ('_EXPORTS = {"a": ("Kept", "kept")}\n\n\n'
                     "def __getattr__(name):\n    return _EXPORTS[name]\n"),
        "a": "class Kept:\n    pass\n\n\ndef kept():\n    pass\n\n\ndef dead():\n    pass\n",
    }
    assert lazy_exports(sources["__init__"]) == {"a": ("Kept", "kept")}
    assert dead_definitions(sources) == [("a", "dead")]
    assert dangling_exports(sources) == []


def test_detects_a_dangling_export():
    sources = {
        "__init__": '_EXPORTS = {"a": ("read", "gone", "VALUE", "imported"), "b": ()}\n',
        "a": "from json import loads as imported\nVALUE = 1\n\n\ndef read():\n    pass\n",
    }
    assert dangling_exports(sources) == [("a", "gone"), ("b", "")]


def test_every_export_names_a_definition():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert lazy_exports(sources["__init__"]) and dangling_exports(sources) == []


# What the package's __init__ exported while it imported every module:
# each still resolves, as an attribute and by `from folner_lab import`,
# but `Term`, whose trigonometric terms a `Wave` now holds as its own.
EAGER_EXPORTS = (
    "AlmostMathieu", "Band", "Dense", "EmpiricalMeasure", "FolnerReport", "IndexSet",
    "LatticeMismatchError", "MissingReferenceError", "N0", "NCPolynomial", "NonHermitianError",
    "NotSelfAdjointError", "NyquistError", "OperatorSpec", "Poly", "ProjectionSequence",
    "RankZeroError", "ReferenceMeasure", "ResidualError", "Shift", "SzegoReport",
    "TensorBoundRecord", "TestFunction", "Toeplitz", "TraceReport", "Wave", "Window",
    "Z", "almost_mathieu_element", "canonical_trace", "compression_eigenvalues",
    "compression_moments", "default_f_family", "diagnostics", "empirical_measure",
    "finite_section", "finite_section_sequence", "folner_profile", "folner_ratio", "hat",
    "hat_family", "identity", "integrate", "kolmogorov_distance", "moments_reference",
    "monomial", "nc_adjoint", "nc_monomial", "nc_multiply", "nc_one", "nc_u", "nc_v",
    "op_prod", "op_scale", "op_sum", "operators", "projections", "qd_gap",
    "reference_pushforward", "represent_nc", "schatten_norm", "spectral", "szego",
    "szego_pair_test", "tensor", "tensor_bound_check", "toeplitz_from_samples",
    "trace_convergence_report", "trace_estimate", "traces", "__version__",
)


@pytest.mark.parametrize("name", EAGER_EXPORTS)
def test_eager_exports_still_resolve(name):
    value, namespace = getattr(fl, name), {}
    exec(f"from folner_lab import {name}", namespace)
    assert namespace[name] is value and name in dir(fl)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        fl.nonexistent  # noqa: B018


CORPUS = Path(__file__).parent / "corpus" / "valid"
# what every run loads: the command line, and the loader with what it builds
LOADER = {"folner_lab", "folner_lab._util", "folner_lab.cli", "folner_lab.operators",
          "folner_lab.projections", "folner_lab.specio", "folner_lab.traces"}


@pytest.mark.parametrize("argv, loaded", [
    pytest.param(["validate", *map(str, sorted(CORPUS.glob("*.json")))], LOADER, id="validate"),
    pytest.param(["trace", "--op", str(CORPUS / "harper.json"), "--n", "1,2"], LOADER,
                 id="trace"),
    pytest.param(["folner", "--op", str(CORPUS / "normal_poly.json"), "--n", "1,2"],
                 LOADER | {"folner_lab.diagnostics"}, id="folner"),
])
def test_a_subcommand_loads_only_what_it_runs(argv, loaded):
    # in a fresh process: the modules of the package that one run imports;
    # `validate`, the set-up of every benchmark workload, and `trace` load
    # none of the solver modules
    script = (
        "import sys\n"
        "from folner_lab.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'folner_lab'),"
        " file=sys.stderr)\n"
    )
    src = str(SRC.parent)
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"0 {sorted(loaded)}"


# The corpus files whose validation computes with arrays, and so runs
# numpy's import: a samples spec's Fourier sum.  Every other file validates
# without numpy, whose import is most of a fresh `validate`'s time; a dense
# matrix is checked with builtins and an index set split into runs in
# Python, and a samples spec with too few samples is refused before its sum.
NUMPY_AT_VALIDATE = {"valid/symbol_sampled.json"}
# the corpus files that hold arrays: dense matrices, index sets, samples
ARRAY_SPECS = NUMPY_AT_VALIDATE | {"valid/dense_pauli.json", "valid/scatter.json",
                                   "invalid/bad_complex.json", "invalid/undersampled_symbol.json"}
SPECS = sorted(CORPUS.parent.glob("*/*.json"))
# numpy's compiled core, which its import loads first: a numpy installed
# for its first use and never used leaves it out
NUMPY_RAN = "any(m in sys.modules for m in ('numpy._core.multiarray', 'numpy.core.multiarray'))"


def _steps_after_import(argvs, first=""):
    """Runs `first`, imports folner_lab.cli and runs each argv through its
    `main`, in one fresh process; returns (exit code, stdout, whether numpy
    ran) after each, and whether numpy ran after the import, as a first
    entry (None, "", ran)."""
    script = (
        "import contextlib, io, json, sys\n"
        f"{first}\n"
        "import folner_lab.cli\n"
        f"steps = [[None, '', {NUMPY_RAN}]]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        "        try:\n"
        "            code = folner_lab.cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        f"    steps.append([code, out.getvalue(), {NUMPY_RAN}])\n"
        "print(json.dumps(steps))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_help_argument_errors_and_validate_run_without_numpy():
    # in a fresh process: importing the command line, --help, --version, an
    # argument error (exit 2) and `validate` on every corpus file whose
    # validation computes nothing, valid (exit 0) or not (exit 3), leave
    # numpy's import unrun
    free = [p for p in SPECS if p.relative_to(CORPUS.parent).as_posix() not in NUMPY_AT_VALIDATE]
    assert {p.parent.name for p in free} == {"valid", "invalid"}
    argvs = [["--help"], ["--version"], ["folner", "--n", "1"],
             ["trace", "--op", str(CORPUS / "shift.json"), "--n", "1", "--format", "xml"],
             *(["validate", str(p)] for p in free)]
    codes = [0, 0, 2, 2, *(0 if p.parent.name == "valid" else 3 for p in free)]
    steps = _steps_after_import(argvs)
    assert [ran for _, _, ran in steps] == [False] * (len(argvs) + 1)
    assert [code for code, _, _ in steps[1:]] == codes


@pytest.mark.parametrize("name", sorted(ARRAY_SPECS))
def test_validate_runs_numpy_only_where_a_spec_computes(name):
    # each corpus file holding an array, in a fresh process: the pinned ones
    # run numpy's import while they validate, the others do not; a new
    # numpy use on the validate path of any other file fails the test above
    path = CORPUS.parent / name
    steps = _steps_after_import([["validate", str(path)]])
    assert steps == [[None, "", False], [0 if path.parent.name == "valid" else 3, steps[1][1],
                                         name in NUMPY_AT_VALIDATE]]


def _dense_spec(rng, cell, size=64, rows=None):
    """A dense spec document of `rows` (default `size`) rows of `size`
    cells, each drawn by cell(rng)."""
    return {"kind": "dense",
            "matrix": [[cell(rng) for _ in range(size)] for _ in range(rows or size)]}


def _number(rng):
    return float(rng.standard_normal()) if rng.random() < 0.5 else int(rng.integers(-9, 10))


DENSE_SPECS = {
    # name: (spec document of a seeded generator, exit code of `validate`)
    "ints": (lambda rng: _dense_spec(rng, lambda r: int(r.integers(-2**40, 2**40))), 0),
    "floats": (lambda rng: _dense_spec(rng, lambda r: float(r.standard_normal())), 0),
    "numbers": (lambda rng: _dense_spec(rng, _number), 0),
    "pairs": (lambda rng: _dense_spec(rng, lambda r: [_number(r), _number(r)]), 0),
    "mixed": (lambda rng: _dense_spec(
        rng, lambda r: _number(r) if r.random() < 0.5 else [_number(r), _number(r)]), 0),
    "non-square": (lambda rng: _dense_spec(rng, _number, size=5, rows=4), 3),
    "pairs-non-square": (lambda rng: _dense_spec(rng, lambda r: [1.0, 2.0], size=3, rows=2), 3),
    "int-past-float": (lambda rng: {"kind": "dense", "matrix": [[1, 2.0], [10**400, 3]]}, 3),
}


def test_dense_specs_validate_without_numpy(tmp_path):
    # in one fresh process, `validate` on generated dense specs, valid and
    # not, leaves numpy's import unrun, with each one's exit code
    rng = np.random.default_rng(32)
    paths = []
    for name, (make, _) in DENSE_SPECS.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(make(rng)))
    steps = _steps_after_import([["validate", str(p)] for p in paths])
    assert [ran for _, _, ran in steps] == [False] * (len(paths) + 1)
    assert [code for code, _, _ in steps[1:]] == [code for _, code in DENSE_SPECS.values()]


@pytest.mark.parametrize("name", [n for n, (_, code) in DENSE_SPECS.items() if code == 0])
def test_a_loaded_dense_forms_its_matrix_on_first_read(tmp_path, name):
    # a loaded Dense holds no array until `matrix` is read, and then the
    # one of Dense(np.array(...)) of the same entries, byte for byte
    doc = DENSE_SPECS[name][0](np.random.default_rng(7))
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(doc))
    kind, op = load_spec_file(path)
    assert kind == "operator" and op.support == 64 and op.offsets == tuple(range(-63, 64))
    assert "matrix" not in vars(op)
    want = fl.Dense(np.array([[complex(*x) if isinstance(x, list) else x for x in row]
                              for row in doc["matrix"]]))
    got = op.matrix
    assert "matrix" in vars(op) and op.matrix is got
    assert got.dtype == want.matrix.dtype and got.shape == want.matrix.shape
    assert got.tobytes() == want.matrix.tobytes()
    assert "matrix" in vars(want)  # a library call holds its matrix at once


def test_runs_after_a_numpy_free_validate_print_the_same_bytes():
    # `folner` and `szego` after a `validate` that left numpy unrun, in the
    # same process, print what they print where numpy was imported first
    hopping, shift, harper = (str(CORPUS / f"{name}.json") for name in ("hopping", "shift", "harper"))
    argvs = [["validate", hopping, shift, harper],
             ["folner", "--op", hopping, "--op", shift, "--n", "1,2,5,8", "--format", "json"],
             ["szego", "--op", harper, "--n", "2,8,32", "--format", "json"],
             ["szego", "--op", hopping, "--n", "2,8,32"]]
    lazy = _steps_after_import(argvs)
    eager = _steps_after_import(argvs, first="import numpy")
    assert [ran for _, _, ran in lazy] == [False, False, True, True, True]
    assert [ran for _, _, ran in eager] == [True] * 5
    assert [code for code, _, _ in lazy[1:]] == [0] * 4
    assert [step[:2] for step in lazy] == [step[:2] for step in eager]
    assert '"slopes"' in lazy[2][1] and '"folner"' in lazy[3][1] and ",x^" in lazy[4][1]



def test_sterf_loads_no_scipy_linalg_package():
    # almost-Mathieu at n = 1024, d = 2049, is tridiagonal but not
    # Toeplitz: solved by sterf in two halves and certified, in a fresh
    # process through the wrapper loaded on its own, which leaves neither
    # scipy.linalg nor the wrapper in sys.modules, nor scipy itself but on
    # Windows, where scipy's start-up sets up the wrapper's DLLs, so that a
    # later `import scipy.linalg` binds its `_flapack`, with the same
    # dsterf; and after `import scipy.linalg` through the package's; the
    # eigenvalues agree byte for byte
    script = (
        "import hashlib, math, sys\n"
        "import numpy as np\n"
        "if sys.argv[1] == 'scipy.linalg first':\n"
        "    import scipy.linalg\n"
        "import folner_lab as fl\n"
        "from folner_lab import spectral\n"
        "op = fl.AlmostMathieu(1.5, (math.sqrt(5.0) - 1.0) / 2.0)\n"
        "vals = fl.compression_eigenvalues(op, fl.finite_section(fl.Z, 1024), check_residual=True)\n"
        "loaded = ('scipy' in sys.modules, 'scipy.linalg' in sys.modules,"
        " 'scipy.linalg._flapack' in sys.modules)\n"
        "import scipy.linalg\n"
        "small, info = scipy.linalg._flapack.dsterf(np.array([1.0, 1.0]), np.array([1.0]))\n"
        "print(vals.size, hashlib.sha256(vals.tobytes()).hexdigest())\n"
        "print(*loaded, scipy.linalg.lapack.dsterf is spectral._flapack().dsterf,"
        " small.tolist(), info, file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    alone, package = (subprocess.run([sys.executable, "-c", script, first], env=env,
                                     capture_output=True, timeout=120)
                      for first in ("wrapper alone", "scipy.linalg first"))
    scipy_alone = os.name == "nt"
    assert alone.stderr.decode().splitlines()[-1] == \
        f"{scipy_alone} False False True [0.0, 2.0] 0", alone.stderr
    assert package.stderr.decode().splitlines()[-1] == "True True True True [0.0, 2.0] 0", \
        package.stderr
    assert alone.stdout.startswith(b"2049 ") and alone.stdout == package.stdout


def test_closed_form_loads_no_scipy():
    # hopping's windows are bandwidth-1 Toeplitz sections, solved in closed
    # form: a certified szego at n = 1024, 4096 (d up to 8193) loads no
    # LAPACK wrapper and no scipy module at all
    script = (
        "import sys\n"
        "from folner_lab.cli import main\n"
        "from folner_lab import spectral\n"
        "code = main(sys.argv[1:])\n"
        "print(code, spectral._flapack.cache_info().currsize,"
        " sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)\n"
    )
    argv = ["szego", "--op", str(CORPUS / "hopping.json"), "--n", "1024,4096"]
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                          capture_output=True, timeout=120)
    assert proc.stderr.decode().splitlines()[-1] == "0 0 []", proc.stderr
    assert proc.stdout.count(b",x^") == 14


def test_wrapper_without_scipy_is_module_not_found(monkeypatch):
    # where no scipy is found, loading the wrapper raises ModuleNotFoundError
    # naming scipy, and caches nothing
    import importlib.util

    from folner_lab import spectral

    if os.name == "nt":
        pytest.skip("on Windows the wrapper is found through `import scipy`")
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *args: None if name == "scipy" else find_spec(name, *args))
    spectral._flapack.cache_clear()
    try:
        with pytest.raises(ModuleNotFoundError, match="scipy") as exc:
            spectral._flapack()
        assert exc.value.name == "scipy"
        assert spectral._flapack.cache_info().currsize == 0
    finally:
        spectral._flapack.cache_clear()


def test_sterf_failure_is_numerical_failure(monkeypatch, capsys, valley):
    # a LAPACK sterf that reports info > 0, no convergence, exits 1 with one
    # numerical failure line (hopping's windows with a palindromic diagonal
    # added, which are not Toeplitz and so reach sterf); a non-finite entry
    # for it is a LinAlgError too
    from folner_lab import spectral
    from folner_lab.cli import main

    def dsterf(a, e):
        return np.sort(a), 3

    monkeypatch.setattr(spectral, "TRIDIAGONAL_MIN_DIM", 5)
    monkeypatch.setattr(spectral, "_flapack", lambda: SimpleNamespace(dsterf=dsterf))
    code = main(["szego", "--op", str(CORPUS / "hopping.json"), "--n", "16"])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err.splitlines() == ["numerical failure: sterf did not converge (LAPACK info=3)"]
    for a, e in (([0.0, np.nan, 0.0], [1.0, 1.0]), ([0.0, 0.0, 0.0], [1.0, np.inf])):
        with pytest.raises(np.linalg.LinAlgError, match="^non-finite entry"):
            spectral._sterf(np.array(a), np.array(e))
