"""The error estimates of the adaptive rules and of the Richardson checks,
audited against their errors.

Every level that a rule records in its `tried` list is evaluated again,
beside a reference of four times the points. Its estimate must then be at
least half its error. The factor 2 allows an estimate of the error's own
size: the gaussian medium's trapezoid rule reads 1.49e-11 against an error
of 1.50e-11. The cases are every `chi_*` record of the bundled configs, and
the commutators' nested rule on the lorentz and conductor media, at their
bundled k and along z at |k| = 1e-3, 3 and 30.

The Richardson estimates |r_h - r_2h| / (2^p - 1) of maxwell_residual,
constitutive_roundtrip, pdot_continuity and q_decomposition are audited the
same way on lorentz.cfg and conductor.cfg: each check's plain value r_h is
taken again at a quarter of its step, and 2 x h_estimate must be at least
the move of r_h."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mqed import response, scenario
from mqed.noise import pdot_continuity
from mqed.observables import (constitutive_roundtrip, equal_time_commutators,
                              field_representation, maxwell_residual)
from mqed.quadrature import tan_clenshaw_curtis
from mqed.response import _relative_deviation, conductor_Q
from mqed.scenario import parse_scenario, run_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# (config, |k|, points) of each nested-rule level whose estimate reads less
# than half its error. At |k| = 30 the first levels do not yet resolve the
# commutator's phase at that rate: lorentz's 65-point level reads 1.67e-4
# against an error of 6.5e-3, conductor's 65- and 129-point levels 3.9e-4
# and 2.4e-4 against 2.1e-3 and 1.8e-3. Each is above the rule's tolerance
# of 2.5e-5, so no run stops on it. An estimate that reads them right
# fails this test until they are taken off the list.
_UNDER_READS = {("lorentz.cfg", 30.0, 65), ("conductor.cfg", 30.0, 65),
                ("conductor.cfg", 30.0, 129)}


def _config(name, k=None):
    config = parse_scenario((CONFIGS / name).read_text(encoding="utf-8"))
    return config if k is None else replace(config, grids={**config.grids, "k": [k]})


def _relative_error(value, reference) -> float:
    return float(np.max(np.abs(value - reference))) / float(np.max(np.abs(reference)))


def test_chi_estimates_bound_their_errors(monkeypatch, pin_order, tmp_path):
    converged, calls = response._converged_rep, []

    def recorded(*args):
        out = converged(*args)
        calls.append((args, out[2]))
        return out

    monkeypatch.setattr(response, "_converged_rep", recorded)
    for name in ("lorentz.cfg", "gaussian.cfg", "conductor.cfg"):
        run_scenario(_config(name), out_dir=str(tmp_path / name), stages=("chi",))
    # every nonzero part's record: lorentz's two, gaussian's and conductor's electric
    assert [(result.rule, result.order) for _, result in calls] == [
        ("gauss_legendre", 1024), ("gauss_legendre", 1024), ("trapezoid", 4880),
        ("gauss_legendre", 1024)]
    for args, result in calls:
        model, k, quad, pref, functional = args[:5]
        if result.rule == "trapezoid":
            values = {result.order: converged(*args)[1]}
            reference = converged(model, k, replace(quad, max_order=32768), pref, functional,
                                  4.0 * result.alias_time)[1]
        else:
            values = {}
            for order, _ in result.tried:
                pin_order(order)
                values[order] = converged(*args)[1]
            pin_order(4 * result.order)
            reference = converged(*args)[1]
        for points, estimate in result.tried:
            error = _relative_error(values[points], reference)
            assert 2.0 * estimate >= error, (model.parameters(), points, estimate, error)


@pytest.mark.parametrize("name", ["lorentz.cfg", "conductor.cfg"])
def test_nested_rule_estimates_bound_their_errors_but_the_known_ones(monkeypatch, tmp_path, name):
    nested, runs = scenario._nested_rule, []

    def recorded(run):
        rep, record = nested(run)
        runs.append((run.response, run.k, run.t_set, run.scale, record))
        return rep, record

    monkeypatch.setattr(scenario, "_nested_rule", recorded)
    bundled = tuple(_config(name).k_list()[0])
    for i, k in enumerate((bundled, (0.0, 0.0, 1e-3), (0.0, 0.0, 3.0), (0.0, 0.0, 30.0))):
        run_scenario(_config(name, k), out_dir=str(tmp_path / f"k{i}"), stages=("commutators",))
    under = set()
    for medium, k, t_set, scale, record in runs:
        t = np.array(sorted({0.0, *t_set}))

        def value(n):
            nodes, weights, _ = tan_clenshaw_curtis(n, record["cutoff"], scale)
            rep = field_representation(medium, k, t, nodes, weights)
            return equal_time_commutators(rep, t_set).lhs

        reference = value(4 * (record["order"] - 1) + 1)
        for points, estimate in record["tried"]:
            if 2.0 * estimate < _relative_deviation(value(points), reference):
                under.add((name, float(np.linalg.norm(k)), points))
    assert len(runs) == 4
    assert under == {case for case in _UNDER_READS if case[0] == name}


# (config, check) whose Richardson h_estimate reads less than half the move
# of its plain value from step h to h / 4; none is known. Each estimate
# reads 1.03 to 1.07 times that move: on lorentz.cfg and conductor.cfg
# maxwell_residual 1.5e-5 and 1.9e-5, constitutive_roundtrip 3.2e-6 and
# 3.1e-6, pdot_continuity 1.2e-8 and 9.3e-9, and conductor.cfg's
# q_decomposition 4.5e-6. An estimate found to under-read is listed here
# until its fix takes it off.
_RICHARDSON_UNDER_READS = set()


def _quarter(t):
    """t's uniform grid at a quarter of its step."""
    return np.linspace(t[0], t[-1], 4 * (t.size - 1) + 1)


def _jump(report):
    """pdot_continuity's plain value: the one-sided rate's jump over the
    pulse's peak rate."""
    return report.jump / report.peak_rate


# check -> (the scenario function it reads, and from that call's arguments
# and result: (plain, h_estimate) at the run's step and plain at a quarter
# of it)
_RICHARDSON = {
    "maxwell_residual": ("maxwell_residual", lambda args, got: (
        got.plain, got.h_estimate, maxwell_residual(field_representation(
            args[0].response, args[0].k, _quarter(args[0].t_grid), args[0].omega_q_grid,
            args[0].omega_q_weights)).plain)),
    "constitutive_roundtrip": ("constitutive_roundtrip", lambda args, got: (
        got.plain, got.h_estimate, constitutive_roundtrip(*args[:2], _quarter(args[2])).plain)),
    "pdot_continuity": ("pdot_continuity", lambda args, got: (
        _jump(got), got.h_estimate, _jump(pdot_continuity(*args, dt=got.dt / 4.0)))),
    "q_decomposition": ("conductor_Q", lambda args, got: (
        *got.sigma_richardson()[1:], conductor_Q(args[0], args[1], _quarter(args[2]),
                                                 args[3]).sigma_richardson()[1])),
}


@pytest.mark.parametrize("name", ["lorentz.cfg", "conductor.cfg"])
def test_richardson_estimates_bound_their_errors(monkeypatch, tmp_path, name):
    calls = {}
    for check, (function, _) in _RICHARDSON.items():
        def recorded(*args, _check=check, _function=getattr(scenario, function)):
            got = _function(*args)
            calls.setdefault(_check, []).append((args, got))
            return got

        monkeypatch.setattr(scenario, function, recorded)
    run_scenario(_config(name), out_dir=str(tmp_path))
    monkeypatch.undo()
    # lorentz.cfg has no free carriers, so no conductor stage
    assert set(calls) == set(_RICHARDSON) - ({"q_decomposition"} if name == "lorentz.cfg"
                                             else set())
    under = set()
    for check, records in calls.items():
        assert len(records) == 1
        plain, estimate, fine = _RICHARDSON[check][1](*records[0])
        if 2.0 * estimate < abs(plain - fine):
            under.add((name, check))
    assert under == {case for case in _RICHARDSON_UNDER_READS if case[0] == name}
