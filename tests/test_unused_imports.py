"""No `src/mqed` module imports a name it never uses, and no module defines
a private top-level name that the package never reads.

No linter ships with the package, so these are the checks a linter's
unused-import and unused-name rules would make: every name bound by an
import statement is read somewhere in its module (exempt are the re-exports
of `__init__.py` and import lines marked `# noqa: F401`), and every
top-level function, class or assignment whose name starts with one
underscore is loaded, as a name or an attribute, somewhere in the package.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mqed"


def _unused_imports(path: Path) -> list:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}  # name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_every_imported_name(path):
    assert _unused_imports(path) == []


def test_unused_import_is_reported(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n"
                      "print(tau)\n", encoding="utf-8")
    assert _unused_imports(source) == ["os (line 1)", "pi (line 3)"]


def _unused_private_names(paths) -> list:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{path.name}: {name} (line {node.lineno})" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return sorted(unused)


def test_package_reads_every_private_top_level_name():
    assert _unused_private_names(sorted(SRC.glob("*.py"))) == []


def test_unused_private_name_is_reported(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("_LIMIT = 1e8\n_SCALE: float = 2.0\n_used = 1\n__all__ = []\n"
                 "def _helper():\n    return _used\nclass _Box:\n    pass\n", encoding="utf-8")
    b.write_text("from . import a\nprint(a._SCALE)\n", encoding="utf-8")
    assert _unused_private_names([a, b]) == ["a.py: _Box (line 7)", "a.py: _LIMIT (line 1)",
                                             "a.py: _helper (line 5)"]
