"""One table budget: `src/mqed` reads `response._TABLE_ELEMENTS` only inside
`response._chunks`, so every chunked table takes its rows from that one
helper. Tests may still patch the constant."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mqed"
BUDGET = "_TABLE_ELEMENTS"


def _budget_readers(paths) -> list:
    """'module.scope' of every read of the budget: a load of the name or of
    an attribute of that name, or an import of it, in the function, class
    or module body that holds it."""
    readers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            loads = isinstance(getattr(child, "ctx", None), ast.Load)
            if (loads and (getattr(child, "id", None) == BUDGET
                           or getattr(child, "attr", None) == BUDGET)) or (
                    isinstance(child, ast.ImportFrom)
                    and any(alias.name == BUDGET for alias in child.names)):
                readers.append(scope)
            visit(child, inner)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sorted(readers)


def test_budget_is_read_only_by_chunks():
    assert _budget_readers(sorted(SRC.glob("*.py"))) == ["response._chunks"]


def test_budget_reader_is_reported(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(f"{BUDGET} = 1 << 19\nROWS = {BUDGET} // 9\n"
                 f"def _chunks(n):\n    return {BUDGET} // n\n"
                 f"class Table:\n    def size(self):\n        return 2 * {BUDGET}\n",
                 encoding="utf-8")
    b.write_text(f"from . import a\nfrom .a import {BUDGET}\n"
                 f"def rows(n):\n    return a.{BUDGET} // n\n", encoding="utf-8")
    assert _budget_readers([a, b]) == ["a", "a.Table.size", "a._chunks", "b", "b.rows"]
