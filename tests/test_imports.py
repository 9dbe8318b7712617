"""Every module of the package uses each name it imports, and each of its
module-level functions and classes is used or exported."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "folner_lab"
# the package's __init__ imports names to export them
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


def dead_definitions(sources: dict) -> list:
    """(module, name) of each module-level function or class that no module
    of `sources` (module name -> source) reads, by name or as an attribute,
    or imports; the package's __init__ exports what it imports."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(d for d in defined if d[1] not in used)


def test_detects_a_dead_definition():
    sources = {
        "a": "def read():\n    pass\n\n\nclass Kept:\n    pass\n\n\ndef dead():\n    read()\n",
        "b": "from . import a\nfrom .a import Kept\n\nprint(a.read)\n",
    }
    assert dead_definitions(sources) == [("a", "dead")]


def test_every_definition_is_used_or_exported():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert dead_definitions(sources) == []
