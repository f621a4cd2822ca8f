"""No `src/mqed` call passes `out=` to an `np.fft` function.

The `out` argument of the `numpy.fft` functions arrived in numpy 2.0, and
the package declares numpy>=1.24, so a transform takes its input and
returns a new array; a kernel that wants to bound its tables rebinds the
result instead. This is the check a linter would make for that floor."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mqed"


def _fft_out_calls(paths) -> list:
    """'file:line' of every call of a numpy.fft function with an `out`
    keyword: np.fft.f(...), numpy.fft.f(...), f(...) for a name imported
    from numpy.fft, or m.f(...) for `from numpy import fft as m`."""
    calls = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        functions = {a.asname or a.name for node in imports if node.module == "numpy.fft"
                     for a in node.names}
        modules = {a.asname or a.name for node in imports if node.module == "numpy"
                   for a in node.names if a.name == "fft"}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not any(kw.arg == "out" for kw in node.keywords):
                continue
            func, owner = node.func, getattr(node.func, "value", None)
            if (isinstance(func, ast.Name) and func.id in functions) or (
                    isinstance(owner, ast.Attribute) and owner.attr == "fft") or (
                    isinstance(owner, ast.Name) and owner.id in modules):
                calls.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(calls)]


def test_no_fft_call_passes_out():
    assert _fft_out_calls(sorted(SRC.glob("*.py"))) == []


def test_fft_out_call_is_reported(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("import numpy as np\nfrom numpy import fft as transforms\n"
                      "from numpy.fft import ifft as inverse\n"
                      "x = np.zeros(8, dtype=complex)\n"
                      "np.fft.fft(x, out=x)\nnp.fft.fft(x)\nnp.multiply(x, 2, out=x)\n"
                      "inverse(x, axis=0, out=x)\nnumpy.fft.rfft(x, out=x)\n"
                      "transforms.irfft(x, out=x)\n", encoding="utf-8")
    assert _fft_out_calls([source]) == ["probe.py:5", "probe.py:8", "probe.py:9", "probe.py:10"]
