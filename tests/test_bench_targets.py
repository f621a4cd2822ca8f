"""The traced benchmark (`perfbench/tracer.py`) binds package functions by
name; every name it wraps must still exist, or a traced run breaks."""

import importlib
from pathlib import Path

import mqed.response

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
