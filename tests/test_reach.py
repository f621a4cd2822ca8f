"""Every function in `src/mqed` is reached by a CLI run, or is on
`_UNREACHED` with the reason no run reaches it and the ROADMAP item that
retires it.

The runs are every subcommand on every bundled config, one more with the
flags those leave out, and runs on files the test writes: configs a user can
write that no bundled config is (a tabulated medium, a target table), and
configs and arguments that fail. Each run states the exit codes it may end
with. They run in one fresh interpreter under `sys.setprofile`, which
records the code objects called. The functions are the package's
module-level functions and methods: a nested function counts with its owner,
and a lambda is not counted. Calls made when the package is imported are not
seen.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from helpers import write_table_csv
from mqed.cli import _STAGES
from mqed.couplings import eval_coupling_batch, gaussian_anisotropic

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mqed"
CONFIGS = ROOT / "configs"
# the flags the subcommand runs leave out: SI constants and one output format
_FLAG_RUN = ("invert-chi", "--config", str(CONFIGS / "lorentz.cfg"), "--si", "--format", "json")

_GAUGE = "the gauge API: only tests apply a gauge until the gauge check does (ROADMAP item 4)"
_UNREACHED = {
    "conductor.q_kernel_consistency": "tests only; the benchmark traces it (ROADMAP item 5)",
    "couplings.GaugeTransform.__call__": _GAUGE,
    "couplings.apply_gauge": _GAUGE,
    "modes.line_mode_coefficients": "tests only: the Bromwich line's reference route on a "
                                    "rational medium (ROADMAP item 10)",
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
for argv, expected in json.loads(sys.argv[1]):
    sys.setprofile(record)
    try:
        code = main(argv)
    except SystemExit as exc:  # a usage error: the parser exits
        code = exc.code
    sys.setprofile(None)
    assert code in expected, (argv, code, expected)
print(json.dumps(sorted({(Path(c.co_filename).name, c.co_firstlineno) for c in codes
                         if Path(c.co_filename).parent == Path(sys.argv[2])})))
"""


def _written_runs(tmp: Path) -> list:
    """(command, config text, the exit codes it may end with) of the runs on
    configs the test writes under tmp: a tabulated medium whose table stops
    at omega = 6, below the reservoir rule's top (its chi stage may stop at
    a numerical check), a k list of two sign flips of one k, whose second k
    maps the first one's modes-grid and Maxwell-grid representations,
    invert-chi on a target table and on a non-PSD one, and two config
    errors."""
    omegas = np.linspace(0.0, 6.0, 61)
    f = eval_coupling_batch(gaussian_anisotropic((1.0, 0.7, 0.4), 1.0), omegas, (0.0, 0.0, 1.0))
    table = write_table_csv(tmp / "table.csv", omegas, (0.0, 10.0), f[:, None])
    tabulated = f"[medium]\nelectric.kind = tabulated\nelectric.table = {table}\n" \
                "[grids]\nk = 0,0,1.3\nt_max = 2\ncommutator_t = 0,1\nreservoir_order = 16\n" \
                "[numerics]\nquad_rtol = 1e-5\n"
    flips = "[medium]\nelectric.kind = lorentz_isotropic\nelectric.strength = 1.3\n" \
            "electric.resonance = 1.0\nelectric.width = 0.5\n" \
            "[grids]\nk = 0.3,-0.4,1.2; 0.3,0.4,-1.2\nn_t = 401\nn_omega = 20\n" \
            "reservoir_order = 16\n"
    target = "[medium]\nelectric.target_table = {}\n[grids]\nn_omega = 5\n"
    psd, not_psd = (write_table_csv(tmp / f"{name}.csv", (0.0, 1.0, 2.0, 6.0), (0.0, 2.0),
                                    value * np.eye(3))
                    for name, value in (("psd", 0.5), ("not_psd", -0.5)))
    return [("chi", tabulated, (0, 2)), ("modes", tabulated, (0, 2)),
            ("commutators", flips, (0, 2)),
            ("invert-chi", target.format(psd), (0,)),
            ("invert-chi", target.format(not_psd), (2,)),
            ("verify", "[grids\n", (1,)), ("verify", "[grids]\nn_t = 1\n", (1,))]


def _reached(out: Path) -> set:
    """(file name, first line) of every package function the runs call."""
    runs = [([command, "--config", str(config)], (0, 2))
            for config in sorted(CONFIGS.glob("*.cfg")) for command in (*_STAGES, "invert-chi")]
    runs.append((list(_FLAG_RUN), (0,)))
    for i, (command, text, expected) in enumerate(_written_runs(out)):
        config = out / f"written_{i}.cfg"
        config.write_text(text)
        runs.append(([command, "--config", str(config)], expected))
    runs = [([*argv, "--out", str(out / str(i))], expected)
            for i, (argv, expected) in enumerate(runs)]
    runs.append((["verify"], (1,)))  # a usage error: no --config
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", _DRIVER, json.dumps(runs), str(SRC)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
    return {tuple(key) for key in json.loads(done.stdout.splitlines()[-1])}


def test_every_function_is_reached_by_a_cli_run_or_listed(tmp_path):
    reached, functions = _reached(tmp_path), _functions()
    unreached = {name for key, name in functions.items() if key not in reached}
    assert sorted(unreached - set(_UNREACHED)) == []
    # an entry a run reaches, or that names no function, is stale
    assert sorted(set(_UNREACHED) - unreached) == []
    assert all("ROADMAP item" in reason for reason in _UNREACHED.values())
