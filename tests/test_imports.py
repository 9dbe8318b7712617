"""Every module of the package uses each name it imports, and each of its
module-level functions, classes and assigned names, and each name assigned
in one of its class bodies, is used or exported."""
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


def _assigned(body) -> list:
    """The names a module or class body binds by plain assignment, dunders
    aside; an annotated assignment, such as a dataclass field, is not one."""
    return [name.id for node in body if isinstance(node, ast.Assign)
            for target in node.targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and not name.id.startswith("__")]


def dead_definitions(sources: dict) -> list:
    """(module, name) of each module-level function, class or assigned name,
    and (module, "Class.NAME") of each name assigned in a class body, that
    no module of `sources` (module name -> source) reads, by name or as an
    attribute, or imports; the package's __init__ exports what it imports."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
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
