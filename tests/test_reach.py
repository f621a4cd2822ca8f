"""Every function in `src/mqed` is reached by a CLI run on a bundled config,
or is on `_UNREACHED` with the reason no run reaches it.

The runs are every subcommand on every bundled config, and one more with the
flags those leave out. They run in one fresh interpreter under
`sys.setprofile`, which records the code objects called. The functions are
the package's module-level functions and methods: a nested function counts
with its owner, and a lambda is not counted. Calls made when the package is
imported are not seen.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from mqed.cli import _STAGES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mqed"
CONFIGS = ROOT / "configs"
# the flags the subcommand runs leave out: SI constants and one output format
_FLAG_RUN = ("invert-chi", str(CONFIGS / "lorentz.cfg"), "--si", "--format", "json")

_GAUGE = "a gauge helper: only tests apply a gauge until a manifest check does (ROADMAP item 4)"
_TABULATED = "the tabulated kind: no bundled config has a tabulated part (ROADMAP item 3)"
_ERROR = "an error path: no bundled config fails there"
_UNREACHED = {
    "cli._Parser.error": "a usage error: every run's arguments are valid",
    "conductor.q_kernel_consistency": "tests only; the benchmark traces it (ROADMAP item 5)",
    "couplings.GaugeTransform.__call__": _GAUGE,
    "couplings.apply_gauge": _GAUGE,
    "couplings.random_orthogonal_gauge": _GAUGE,
    "couplings.rotation_gauge": _GAUGE,
    "couplings.TabulatedTable.__post_init__": _TABULATED,
    "couplings.TabulatedTable._contents": _TABULATED,
    "couplings.TabulatedTable.__eq__": _TABULATED,
    "couplings.TabulatedTable._hash": _TABULATED,
    "couplings.TabulatedTable.__hash__": _TABULATED,
    "couplings.TabulatedTable.interpolate": _TABULATED,
    "couplings.tabulated": _TABULATED,
    "couplings.tabulated_from_csv": _TABULATED,
    "couplings._table_top": _TABULATED,
    "errors.ParseError.__init__": _ERROR,
    "errors.ValidationError.__init__": _ERROR,
    "errors.NotPSD.__init__": _ERROR,
    "modes.line_mode_coefficients": "tests only: the Bromwich line's reference route on a "
                                    "rational medium (ROADMAP item 10)",
    "observables.vacuum_eh_coefficient": "tests only, until a free-space check (ROADMAP item 4)",
    "rational.Rational.at_infinity": "tests only (ROADMAP item 9)",
}


def _functions() -> dict:
    """(file name, first line) -> `module.qualname` of every module-level
    function and method; a decorated function starts at its decorator."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            owner, defs = ("", [node]) if not isinstance(node, ast.ClassDef) \
                else (f"{node.name}.", node.body)
            for fn in defs:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([fn.lineno, *(d.lineno for d in fn.decorator_list)])
                    found[path.name, first] = f"{path.stem}.{owner}{fn.name}"
    return found


# run in a fresh interpreter, so no cache or rebinding left by another test
# hides a call: prints the (file, first line) of every code object called
_DRIVER = """
import json, sys
from pathlib import Path
from mqed.cli import main
codes = set()
def record(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)
for i, (command, config, *flags) in enumerate(json.loads(sys.argv[1])):
    sys.setprofile(record)
    code = main([command, "--config", config, "--out", f"{sys.argv[2]}/{i}", *flags])
    sys.setprofile(None)
    assert code in (0, 2), (command, config, flags)
print(json.dumps(sorted({(Path(c.co_filename).name, c.co_firstlineno) for c in codes
                         if Path(c.co_filename).parent == Path(sys.argv[3])})))
"""


def _reached(out: Path) -> set:
    """(file name, first line) of every package function the runs call."""
    runs = [(command, str(config)) for config in sorted(CONFIGS.glob("*.cfg"))
            for command in (*_STAGES, "invert-chi")] + [_FLAG_RUN]
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", _DRIVER, json.dumps(runs), str(out), str(SRC)],
                          env=env, capture_output=True, text=True, check=True)
    return {tuple(key) for key in json.loads(done.stdout.splitlines()[-1])}


def test_every_function_is_reached_by_a_cli_run_or_listed(tmp_path):
    reached, functions = _reached(tmp_path), _functions()
    unreached = {name for key, name in functions.items() if key not in reached}
    assert sorted(unreached - set(_UNREACHED)) == []
    # an entry a run reaches, or that names no function, is stale
    assert sorted(set(_UNREACHED) - unreached) == []
