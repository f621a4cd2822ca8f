"""The traced benchmark (`perfbench/tracer.py`) binds package functions by
name; every name it wraps must still exist, or a traced run breaks. Each
benchmark workload passes the benchmark's correctness gate
(`perfbench/gate.py`) against the committed reference."""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mqed.cli
import mqed.response

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _perfbench_module(name: str) -> types.ModuleType:
    # executed from its source text, so nothing is written beside it; the
    # module is registered while it runs, for its dataclasses
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def _tracer_targets() -> dict:
    return _perfbench_module("tracer").TARGETS


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


def test_a_run_calls_each_traced_function_through_the_scenario_globals(tmp_path, monkeypatch):
    # the tracer rebinds module globals such as
    # `mqed.scenario.noise_current_coefficient`: a check table that held the
    # function objects themselves would drop their counts without a sound
    from test_memory import ALL_PARTS_CFG

    import mqed.scenario as scenario

    calls = {}
    for layer, names in _tracer_targets().items():
        home = importlib.import_module(f"mqed.{layer}")
        for name in names:
            original = getattr(home, name, None)  # a method's one binding is its class
            if "." in name or getattr(scenario, name, None) is not original:
                continue
            calls[name] = 0

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(scenario, name, counted)
    assert {"noise_current_coefficient", "conductor_modes", "write_json"} <= set(calls)
    scenario.run_scenario(scenario.parse_scenario(ALL_PARTS_CFG), out_dir=str(tmp_path))
    assert [name for name, count in calls.items() if count == 0] == []


WORKLOADS = _perfbench_module("workloads")


@pytest.mark.parametrize("name", list(WORKLOADS.WORKLOADS))
def test_workload_passes_the_benchmark_gate(tmp_path, capsys, name):
    # the seed-0 config of each workload, run as the benchmark runs it:
    # exit code, check names and order, and the exported tensors' digests
    # within quad_rtol of the committed reference
    gate = _perfbench_module("gate")
    reference = json.loads(gate.REFERENCE.read_text(encoding="utf-8"))[name]
    workload = WORKLOADS.WORKLOADS[name]
    config = tmp_path / "config.cfg"
    config.write_text(WORKLOADS.config_text(workload, 0), encoding="utf-8")
    out = tmp_path / "out"
    code = mqed.cli.main([workload.command, "--config", str(config), "--out", str(out)])
    problems, _ = gate.check_run(reference, code, capsys.readouterr().out, out)
    assert problems == []
