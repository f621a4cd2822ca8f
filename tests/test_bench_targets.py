"""The traced benchmark (`perfbench/tracer.py`) binds package functions by
name; every name it wraps must still exist, or a traced run breaks."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import mqed.response

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _tracer_targets() -> dict:
    # executed from its source text, so nothing is written beside it
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["TARGETS"]


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    missing = []
    for layer, names in targets.items():
        home = importlib.import_module(f"mqed.{layer}")
        for qualname in names:
            owner = home
            for part in qualname.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"mqed.{layer}.{qualname}")
    assert not missing


def test_adaptive_nodes_is_a_response_global():
    # the bench's own tests call it there, and build counters patch it there
    assert callable(mqed.response.adaptive_nodes)


def test_tracer_installs_after_a_bare_import():
    # a fresh interpreter that only ran `import mqed` has every traced layer
    code = (
        "import mqed\n"
        "namespace = {'__name__': 'perfbench_tracer'}\n"
        f"exec(compile(open({str(TRACER)!r}).read(), {str(TRACER)!r}, 'exec'), namespace)\n"
        "print(namespace['Tracer']().install())\n"
    )
    src = str(Path(mqed.response.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 0


def test_perfbench_install_check_passes():
    # perfbench's own check that installing the tracer wraps every binding
    # of a traced function (it pins, among others, `noise.chi_kernel`), run
    # from perfbench/ in a fresh interpreter that writes no bytecode there
    src = str(Path(mqed.response.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(PERFBENCH)]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [sys.executable, "-c", "import test_perfbench; test_perfbench._check_install()"],
        cwd=PERFBENCH, capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
