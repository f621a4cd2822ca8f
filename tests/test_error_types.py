"""Every exception type in `errors.py` is used: it is the base of another
type there, or some `raise` statement in `src/mqed` raises it.

A type that nothing raises names a failure the package can no longer
report, and its exit-code mapping is dead weight. The check reads the
source with `ast`, as the unused-name checks of `test_unused_imports.py` do.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mqed"


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def _unused_error_types(errors: Path, paths) -> list:
    classes = [node for node in ast.parse(errors.read_text(encoding="utf-8")).body
               if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    raised = {_raised_name(node) for path in paths
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Raise) and node.exc is not None}
    return sorted(f"{node.name} (line {node.lineno})" for node in classes
                  if node.name not in bases and node.name not in raised)


def test_every_error_type_is_a_base_or_raised():
    assert _unused_error_types(SRC / "errors.py", sorted(SRC.glob("*.py"))) == []


def test_unraised_error_type_is_reported(tmp_path):
    errors, user = tmp_path / "errors.py", tmp_path / "user.py"
    errors.write_text("class Base(Exception):\n    pass\n\n\nclass Raised(Base):\n    pass\n\n\n"
                      "class Caught(Base):\n    pass\n\n\nclass Idle(Base):\n    pass\n",
                      encoding="utf-8")
    user.write_text("import errors\n\ntry:\n    raise errors.Raised('x') from None\n"
                    "except errors.Caught:\n    raise\n", encoding="utf-8")
    assert _unused_error_types(errors, [errors, user]) == ["Caught (line 9)", "Idle (line 13)"]
