"""A slice of the mutation matrix: one defect at a time, injected by
monkeypatch into a run of a bundled config, and the checks it fails.

Each (mutant, config) cell pins the set of failing checks. A mutant that no
check catches on a config pins the empty set and names, in `_UNCAUGHT`, the
open item that will catch it, so the test fails, and the list is put
right, once a check starts catching it. The matrix read here:

    no reservoir factor  lorentz.cfg    equal_time_commutator (0.803), maxwell_residual (1.0)
    no reservoir factor  conductor.cfg  equal_time_commutator (0.805), maxwell_residual (1.0)
    no free carriers     conductor.cfg  none (item 5)
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mqed import modes, scenario
from mqed.scenario import parse_scenario, run_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _no_reservoir_factor(monkeypatch):
    # L^-1[rat] for every reservoir frequency, where the exact path takes
    # L^-1[rho / (rho + i w_q) rat]
    def transform(rat, poles, residues, omega_q, t):
        return np.broadcast_to(np.exp(np.outer(t, poles)) @ residues, (omega_q.size, t.size))

    monkeypatch.setattr(modes, "_ilt_with_reservoir", transform)


def _no_free_carriers(monkeypatch):
    # the conductor stage solves its medium less the free-carrier part, the
    # second of (bound, free, magnetic)
    solve = scenario.conductor_modes
    monkeypatch.setattr(scenario, "conductor_modes", lambda response, *args: solve(
        replace(response, medium=response.medium[:1] + response.medium[2:]), *args))


# mutant -> (its patch, the stages it reaches, config -> the checks it fails)
_MATRIX = {
    "no reservoir factor": (_no_reservoir_factor, ("commutators",), {
        "lorentz.cfg": {"equal_time_commutator_k0", "maxwell_residual_k0"},
        "conductor.cfg": {"equal_time_commutator_k0", "maxwell_residual_k0"}}),
    "no free carriers": (_no_free_carriers, ("conductor",), {"conductor.cfg": set()}),
}
# (mutant, config) that no check catches, with the ROADMAP item that will:
# item 5 checks the conductor end to end, its modes against sigma_hat
_UNCAUGHT = {("no free carriers", "conductor.cfg"): 5}


@pytest.mark.parametrize("mutant, name", [(mutant, name) for mutant, (_, _, cells)
                                          in _MATRIX.items() for name in cells])
def test_mutant_fails_its_checks(monkeypatch, tmp_path, mutant, name):
    patch, stages, cells = _MATRIX[mutant]
    patch(monkeypatch)
    config = parse_scenario((CONFIGS / name).read_text(encoding="utf-8"))
    checks = run_scenario(config, out_dir=str(tmp_path), stages=stages).checks
    failed = {check["name"] for check in checks if not check["passed"]}
    print(f"{mutant} x {name}: " + (", ".join(
        f"{c['name']} ({c['max_error']:.2g})" for c in checks if not c["passed"]) or "none"))
    assert checks and failed == cells[name]
    assert (not failed) == ((mutant, name) in _UNCAUGHT)
