"""Guards that read the source and the check table.

- Polynomial arithmetic lives in `rational.py` alone: no other `src/mqed`
  module imports `numpy.polynomial` or reads it as an attribute.
- In `scenario._CHECKS`, no check that reads its stage's product follows a
  `reads=False` check of the same stage: `run_scenario` frees the product
  (sets it to None) at a stage's first check that does not read it, so a
  reading check after it would be passed None.
"""

import ast
from collections import namedtuple
from pathlib import Path

from mqed import scenario

SRC = Path(__file__).resolve().parent.parent / "src" / "mqed"
_POLYNOMIAL_OWNER = "rational.py"


def _polynomial_uses(text: str) -> list:
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            found += [f"import {a.name} (line {node.lineno})" for a in node.names
                      if a.name.startswith("numpy.polynomial")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("numpy.polynomial") or (
                    node.module == "numpy" and any(a.name == "polynomial" for a in node.names)):
                found.append(f"from {node.module} import (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr == "polynomial" \
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            found.append(f"{node.value.id}.polynomial (line {node.lineno})")
    return found


def test_only_the_rational_module_does_polynomial_arithmetic():
    found = {path.name: _polynomial_uses(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != _POLYNOMIAL_OWNER}
    assert {name: hits for name, hits in found.items() if hits} == {}
    assert _polynomial_uses((SRC / _POLYNOMIAL_OWNER).read_text(encoding="utf-8"))


def test_polynomial_uses_are_reported():
    probe = ("import numpy.polynomial.polynomial as P\n"
             "from numpy.polynomial import legendre\n"
             "from numpy import polynomial\n"
             "x = np.polynomial.polynomial.polyval(1.0, [1.0])\n")
    assert sorted(_polynomial_uses(probe)) == [
        "from numpy import (line 3)", "from numpy.polynomial import (line 2)",
        "import numpy.polynomial.polynomial (line 1)", "np.polynomial (line 4)"]


def _freed_then_read(checks) -> list:
    """The checks that read their stage's product after a check of that
    stage that does not."""
    freed, found = set(), []
    for check in checks:
        if check.reads and check.stage in freed:
            found.append(check.name)
        if not check.reads:
            freed.add(check.stage)
    return found


def test_no_check_reads_a_product_its_stage_has_freed():
    assert _freed_then_read(scenario._CHECKS) == []


def test_a_check_after_a_freed_product_is_reported():
    row = namedtuple("row", "name stage reads")
    checks = [row("a", "modes", True), row("b", "modes", False), row("c", "chi", True),
              row("d", "modes", True)]
    assert _freed_then_read(checks) == ["d"]
