"""No `src/mqed` module imports a name it never uses.

No linter ships with the package, so this is the check a linter's unused-
import rule would make: every name bound by an import statement is read
somewhere in its module. Exempt are the re-exports of `__init__.py` and
import lines marked `# noqa: F401`.
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
