"""The commutators' reservoir rule: Clenshaw-Curtis in u mapped by omega =
s tan u to the medium's frequency scale s, doubled from 65 points until its
every-other-node estimate is at most a quarter of the commutator's
tolerance (`scenario._nested_rule`).

Covers the rule itself, the |k| reach of the modes and commutators stages on
the bundled media, two defects of the rule that the commutator check must
catch, narrow lines, and the typed error at the rule's node cap."""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mqed import scenario
from mqed.cli import main
from mqed.errors import BudgetExceeded, QuadratureNotConverged, ValidationError
from mqed.quadrature import _clenshaw_curtis, tan_clenshaw_curtis
from mqed.scenario import parse_scenario, run_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _bundled(name: str, k=None, **medium):
    """The bundled config `name`, at the wave vector k and with the [medium]
    keys `medium` set, when given."""
    config = parse_scenario((CONFIGS / name).read_text(encoding="utf-8"))
    grids = config.grids if k is None else {**config.grids, "k": [tuple(k)]}
    return replace(config, grids=grids, medium={**config.medium, **medium})


def _checks(manifest) -> dict:
    return {c["name"]: c for c in manifest["checks"]}


@pytest.mark.parametrize("n", [5, 9, 33, 65, 1025])
def test_clenshaw_curtis_is_exact_to_degree_n_minus_1_and_nested(n):
    x, w = _clenshaw_curtis(n)
    for m in range(0, n, 2):  # odd powers vanish by the nodes' symmetry
        assert abs(w @ x**m - 2.0 / (m + 1)) <= 1e-14, m
    assert np.array_equal(x[::2], _clenshaw_curtis((n + 1) // 2)[0])


@pytest.mark.parametrize("n", [65, 129])
def test_the_mapped_rule_and_its_subrule(n):
    # omega^2 / (s^2 + omega^2)^2 is sin(u)^2 / s in u: its integral over
    # [0, arctan(W / s)] is (u - sin u cos u) / (2 s) at the top
    s, cutoff = 1.4, 50.0
    nodes, weights, sub = tan_clenshaw_curtis(n, cutoff, s)
    assert nodes.size == n - 1 and nodes[0] > 0.0 and nodes[-1] == cutoff
    assert np.all(np.diff(nodes) > 0.0)
    top = np.arctan(cutoff / s)
    exact = (top - np.sin(top) * np.cos(top)) / (2.0 * s)
    f = nodes**2 / (s**2 + nodes**2) ** 2
    assert abs(weights @ f - exact) <= 1e-14
    # the subrule is the (n + 1) / 2-point rule on every other node
    coarse, coarse_weights, _ = tan_clenshaw_curtis((n + 1) // 2, cutoff, s)
    assert np.array_equal(sub[0::2], np.zeros((n - 1) // 2))
    assert np.allclose(nodes[1::2], coarse, rtol=1e-15, atol=0.0)
    assert np.allclose(sub[1::2], coarse_weights, rtol=1e-14, atol=0.0)
    # covariant under the scale: frequencies x Omega, weights x Omega
    big = tan_clenshaw_curtis(n, 1e3 * cutoff, 1e3 * s)
    for got, want in zip(big, (nodes, weights, sub)):
        assert np.allclose(got, 1e3 * want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("n", [1, 3, 64, 66, 100])
def test_the_mapped_rule_takes_only_nested_sizes(n):
    with pytest.raises(ValidationError):
        tan_clenshaw_curtis(n, 50.0, 1.0)


# (medium, |k|) -> the budget a verify run of the modes and commutators
# stages spends, ROADMAP item 25: the Bromwich line of gaussian.cfg's
# continuum past |k| = 30, and the Maxwell grid of the rational media past
# |k| = 1e3, whose step follows c|k|
_REACH_BUDGETS = {
    ("gaussian.cfg", 30.0): "bromwich line", ("gaussian.cfg", 1e3): "bromwich line",
    ("gaussian.cfg", 1e6): "bromwich line",
    ("lorentz.cfg", 1e3): "Maxwell grid", ("lorentz.cfg", 1e6): "Maxwell grid",
    ("conductor.cfg", 1e3): "Maxwell grid", ("conductor.cfg", 1e6): "Maxwell grid",
}


@pytest.mark.parametrize("name", ["lorentz.cfg", "conductor.cfg", "gaussian.cfg"])
def test_commutator_reach_over_k(tmp_path, name):
    # the bundled medium at |k| from 1e-6 to 1e6 along z: the commutator
    # passes wherever the run reaches it, read from the manifest written
    # before any error; conductor.cfg's 64-node grid read 1.95e-2 at 1e-6
    for kmag in (1e-6, 1e-3, 30.0, 1e3, 1e6):
        out = tmp_path / f"k{kmag:g}"
        budget = _REACH_BUDGETS.get((name, kmag))
        try:
            run_scenario(_bundled(name, k=(0.0, 0.0, kmag)), out_dir=str(out),
                         stages=("commutators",))
        except BudgetExceeded as exc:
            assert budget is not None and budget in str(exc), (kmag, exc)
        else:
            assert budget is None, kmag
        manifest = json.loads((out / "manifest.json").read_text())
        checks = _checks(manifest)
        if budget == "bromwich line":  # the modes stage stops before any check
            assert manifest["error"]["type"] == "BudgetExceeded" and not checks
            continue
        check = checks["equal_time_commutator_k0"]
        assert check["passed"], (kmag, check)
        assert check["details"]["est_rel_error"] <= check["details"]["rtol"]
        if budget is None:
            assert all(c["passed"] for c in checks.values()), kmag


def _commutator_with_rule(monkeypatch, tmp_path, rule):
    """conductor.cfg's equal_time_commutator check with the reservoir rule
    replaced by rule(n, cutoff, scale)."""
    monkeypatch.setattr(scenario, "tan_clenshaw_curtis", rule)
    manifest = run_scenario(_bundled("conductor.cfg"), out_dir=str(tmp_path),
                            stages=("commutators",))
    return next(c for c in manifest.checks if c["name"] == "equal_time_commutator_k0")


def test_conductor_commutator_passes_on_the_rule_beside_the_exported_grid(tmp_path):
    manifest = run_scenario(_bundled("conductor.cfg"), out_dir=str(tmp_path),
                            stages=("commutators",))
    checks = {c["name"]: c for c in manifest.checks}
    check = checks["equal_time_commutator_k0"]
    details = check["details"]
    assert check["passed"] and check["max_error"] < 1e-5
    assert (details["rule"], details["scale"], details["cutoff"]) == \
        ("clenshaw_curtis_tan", 1.0, 50.0)
    assert details["order"] == 129 and [n for n, _ in details["tried"]] == [65, 129]
    assert details["est_rel_error"] <= details["rtol"] == 0.25 * check["tolerance"]
    # the exported 64-node Gauss-Legendre grid keeps its own value
    assert details["exported_grid"]["rule"] == "gauss_legendre"
    assert details["exported_grid"]["nodes"] == 64
    assert details["exported_grid"]["value"] == pytest.approx(1.709e-2, rel=1e-3)
    psd = checks["vacuum_spectrum_psd_k0"]["details"]
    assert psd["order"] == 129 and psd["exported_grid"]["nodes"] == 64


def test_commutator_fails_reservoir_weights_off_by_one_part_per_thousand(monkeypatch, tmp_path):
    def scaled(n, cutoff, scale):
        nodes, weights, sub = tan_clenshaw_curtis(n, cutoff, scale)
        return nodes, (1.0 + 1e-3) * weights, (1.0 + 1e-3) * sub

    check = _commutator_with_rule(monkeypatch, tmp_path, scaled)
    assert not check["passed"], check["max_error"]


def test_commutator_fails_a_rule_without_the_tan_maps_jacobian(monkeypatch, tmp_path):
    def no_jacobian(n, cutoff, scale):
        nodes, weights, sub = tan_clenshaw_curtis(n, cutoff, scale)
        jacobian = scale + nodes**2 / scale
        return nodes, weights / jacobian, sub / jacobian

    check = _commutator_with_rule(monkeypatch, tmp_path, no_jacobian)
    assert not check["passed"], check["max_error"]


@pytest.mark.parametrize("width", [0.2, 0.1])
def test_narrow_lines_pass_the_commutator(tmp_path, width):
    # lorentz.cfg's electric line narrowed: its 256-node grid read 5.65e-4
    # at width 0.2 and 2.31e-2 at width 0.1
    manifest = run_scenario(_bundled("lorentz.cfg", **{"electric.width": width}),
                            out_dir=str(tmp_path), stages=("commutators",))
    check = next(c for c in manifest.checks if c["name"] == "equal_time_commutator_k0")
    assert check["passed"], check
    assert check["details"]["exported_grid"]["value"] > check["tolerance"]


def test_rule_at_its_cap_is_a_typed_error(monkeypatch, tmp_path, capsys):
    # the width-0.1 line takes 513 points; at a cap of 129 the run stops
    # with exit 2, and its manifest records the error
    monkeypatch.setattr(scenario, "_RULE_POINTS", (65, 129))
    text = (CONFIGS / "lorentz.cfg").read_text(encoding="utf-8")
    config = tmp_path / "narrow.cfg"
    config.write_text(re.sub(r"^electric\.width = .*$", "electric.width = 0.1", text,
                             count=1, flags=re.MULTILINE))
    out = tmp_path / "out"
    code = main(["commutators", "--config", str(config), "--out", str(out)])
    assert code == 2
    assert "QuadratureNotConverged" in capsys.readouterr().err
    error = json.loads((out / "manifest.json").read_text())["error"]
    assert error["type"] == QuadratureNotConverged.__name__
    message = error["message"]
    assert "clenshaw_curtis_tan" in message
    last = re.search(r"(\d+) points: (\S+)$", message)
    assert last.group(1) == "129" and float(last.group(2)) > 0.25e-4
