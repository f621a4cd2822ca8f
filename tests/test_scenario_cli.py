import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from helpers import TENSOR_HEADER, write_table_csv
from mqed import scenario
from mqed.cli import _STAGES, build_parser, main
from mqed.couplings import (_KINDS, MAGNETIC, drude, eval_coupling_batch, gaussian_anisotropic,
                            lorentz_isotropic)
from mqed.errors import ParseError, ValidationError
from mqed.scenario import _SCHEMA, parse_scenario, run_scenario, serialize_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


VACUUM_CFG = """
[grids]
k = 0,0,1
n_omega = 40
n_t = 801
t_max = 4.0
commutator_t = 0,1,4
reservoir_order = 16
"""

LORENTZ_CFG = """
[medium]
electric.kind = lorentz_isotropic
electric.strength = 1.3
electric.resonance = 1.0
electric.width = 0.5

[grids]
k = 0,0,1.3
n_omega = 60
n_t = 1201
t_max = 6.0
reservoir_order = 160

[output]
directory = PLACEHOLDER
"""


def test_parse_minimal_vacuum_defaults():
    config = parse_scenario("")
    assert config.grids["k"] == [(0.0, 0.0, 1.0)]
    assert "laplace" not in config.numerics
    assert config.model("electric").is_zero


def test_parse_rejects_negative_tolerance():
    with pytest.raises(ValidationError) as err:
        parse_scenario("[numerics]\nquad_rtol = -1e-7\n")
    assert "quad_rtol" in str(err.value)


def test_parse_rejects_unknown_key():
    with pytest.raises(ValidationError) as err:
        parse_scenario("[grids]\nbogus_key = 3\n")
    assert "bogus_key" in str(err.value)
    # condition_guard was never read and is now an unknown key
    with pytest.raises(ValidationError) as err:
        parse_scenario("[numerics]\ncondition_guard = 1e-12\n")
    assert "condition_guard" in str(err.value)


def test_csv_row_bytes_match_repr_format(tmp_path):
    from mqed.io import write_deviation_csv, write_tensor_grid_csv, write_tensor_series_csv

    # '%.17g' of x + 0.0: a -0 is written 0
    values = [-0.0, 5e-324, 1e300]
    tensor = np.zeros((1, 3, 3), dtype=complex)
    tensor[0, 0, 0] = complex(-0.0, 5e-324)
    tensor[0, 2, 2] = complex(1e300, -0.0)
    entries = ["0"] * 18
    entries[0:2] = [format(-0.0 + 0.0, ".17g"), format(5e-324, ".17g")]
    entries[16:18] = [format(1e300, ".17g"), format(-0.0 + 0.0, ".17g")]
    grid = ",".join(format(x + 0.0, ".17g") for x in values)
    assert grid == "0,4.9406564584124654e-324,1.0000000000000001e+300"

    write_tensor_series_csv(tmp_path / "s.csv", "t", np.array([-0.0]), tensor)
    assert (tmp_path / "s.csv").read_bytes().split(b"\n")[1] == ",".join(["0"] + entries).encode()
    write_tensor_grid_csv(tmp_path / "g.csv", ("a", "b"), (np.array([5e-324]), np.array([1e300])),
                          tensor[None])
    row = ",".join([format(5e-324, ".17g"), format(1e300, ".17g")] + entries)
    assert (tmp_path / "g.csv").read_bytes() == ("a,b," + ",".join(TENSOR_HEADER) + "\n"
                                                 + row + "\n").encode()
    write_deviation_csv(tmp_path / "d.csv", "w", np.array([1e300]), np.array([-0.0]))
    assert (tmp_path / "d.csv").read_bytes() == b"w,deviation\n1.0000000000000001e+300,0\n"


@pytest.mark.parametrize("value", ["xml", "csv,xml", "csv,", ""])
def test_parse_rejects_unknown_output_format(value):
    # the config key follows the rule of the --format flag
    with pytest.raises(ValidationError) as err:
        parse_scenario(f"[output]\nformats = {value}\n")
    assert "formats" in str(err.value)
    assert parse_scenario("[output]\nformats = json , csv\n").output["formats"] == "json , csv"


def test_cli_unknown_config_format_exit_code(tmp_path):
    cfg = tmp_path / "xml.cfg"
    cfg.write_text(VACUUM_CFG + f"[output]\ndirectory = {tmp_path / 'out'}\nformats = xml\n")
    assert main(["chi", "--config", str(cfg)]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, lines", [
    ("[grids]\nn_t = 11\nn_t = 801\n", (2, 3)),
    ("[grids]\nn_t = 11\n\n[numerics]\nseed = 1\n[grids]\nn_t = 801\n", (2, 7)),
    ("[numerics]\nseed = 1\n\n[grids]\nn_t = 11\n[numerics]\nquad_rtol = 1e-3\n", None),
], ids=["same_header", "second_header", "distinct_keys"])
def test_parse_key_set_twice_in_a_section(text, lines):
    # a repeated key is an error naming both lines, even under a second
    # header of its section; a repeated header with new keys stays legal
    if lines is None:
        config = parse_scenario(text)
        assert (config.numerics["seed"], config.numerics["quad_rtol"]) == (1, 1e-3)
        assert config.grids["n_t"] == 11
        return
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert str(err.value) == f"key 'n_t': set twice in [grids] (lines {lines[0]} and {lines[1]})"


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_scenario("[grids]\nk 0,0,1\n")
    assert err.value.line == 2


def test_parse_rejects_key_outside_section():
    with pytest.raises(ParseError):
        parse_scenario("n_t = 100\n")


@pytest.mark.parametrize("name", ["lorentz.cfg", "gaussian.cfg", "conductor.cfg"])
def test_serialize_round_trip(name):
    config = parse_scenario((CONFIGS / name).read_text(encoding="utf-8"))
    text = serialize_scenario(config)
    again = parse_scenario(text)
    assert again == config
    assert serialize_scenario(again) == text


def _readme_rows(pattern: str) -> list:
    readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
    return re.findall(pattern, readme, re.MULTILINE)


def test_readme_config_table_matches_schema():
    # README's key table lists every key with the schema's default, and its
    # kind table every kind with the schema's parameters
    rows = _readme_rows(r"^\| `\[(\w+)\]` \| `(\w+)` \| `([^`]*)` \|")
    assert len(rows) == len(set(rows))
    assert set(rows) == {(section, key, spec.default) for section, keys in _SCHEMA.items()
                         for key, spec in keys.items()}
    kinds = {kind: (re.findall(r"`(\w+)`", required), re.findall(r"`(\w+)`", optional))
             for kind, required, optional in _readme_rows(r"^\| `(\w+)` \|([^|]*)\|([^|]*)\|$")}
    assert kinds == {name: (list(kind.required), list(kind.optional))
                     for name, kind in _KINDS.items()}


def test_check_table_tolerances_are_constants():
    # each check's tolerance is a number in its row, and no config key sets one
    for check in scenario._CHECKS:
        assert type(check.tol) is float and np.isfinite(check.tol) and check.tol > 0.0
    assert not [key for key in _SCHEMA["numerics"] if key.endswith("_tol")]


def test_readme_cli_example_config_parses():
    # the example config under README's CLI heading sets only keys the schema has
    cli = (CONFIGS.parent / "README.md").read_text(encoding="utf-8").split("\n## CLI\n")[1]
    example = re.search(r"^```ini\n(.*?)^```$", cli, re.MULTILINE | re.DOTALL).group(1)
    config = parse_scenario(example)
    assert config.grids["k"] == [(0.0, 0.0, 1.3), (0.4, -0.3, 1.1)]
    assert config.model("magnetic").kind == "lorentz_isotropic"


def test_readme_claims_match_the_check_table():
    # README's bold claims are the north-star list; every check serves one,
    # and every claim has a check except the two only acceptance criteria
    # 6 and 4 test so far
    claims = _readme_rows(r"^- \*\*(.+?)\*\*:")
    served = {check.claim for check in scenario._CHECKS}
    assert len(claims) == len(set(claims)) == 8
    assert served <= set(claims)
    assert set(claims) - served == {"gauge freedom", "free-space limit"}


def test_model_builds_each_kind_from_its_parameters():
    config = parse_scenario(
        "[medium]\nelectric.kind = gaussian_anisotropic\nelectric.axis_strengths = 1,0.7,0.4\n"
        "electric.center = 1.0\nmagnetic.kind = lorentz_isotropic\nmagnetic.strength = 0.8\n"
        "magnetic.resonance = 1.4\nmagnetic.width = 0.6\nmagnetic.omega_max = 9\n"
        "conductor.kind = drude\nconductor.strength = 1.1\nconductor.width = 0.5\n"
    )
    assert config.model("electric") == gaussian_anisotropic((1.0, 0.7, 0.4), 1.0)
    assert config.model("magnetic") == lorentz_isotropic(
        0.8, 1.4, 0.6, which=MAGNETIC, omega_max=9.0)
    assert config.model("conductor") == drude(1.1, 0.5)


@pytest.mark.parametrize("medium, key", [
    ("electric.kind = drude\nelectric.strength = 1\nelectric.width = 1\nelectric.resonance = 1",
     "electric.resonance"),
    ("magnetic.table = chi.csv", "magnetic.table"),
    ("conductor.kind = lorentz_isotropic", "conductor.kind"),
    ("electric.kind = bogus", "electric.kind"),
    ("conductor.kind = drude\nconductor.strength = 1\nconductor.width = 1\n"
     "conductor.omega_max = 3", "conductor.omega_max"),
    ("electric.kind = gaussian_anisotropic\nelectric.axis_strengths = 1,1\n"
     "electric.center = 1", "electric.axis_strengths"),
    ("electric.kind = lorentz_isotropic\nelectric.strength = 1\nelectric.resonance = 0\n"
     "electric.width = 1", "electric.resonance"),
])
def test_parse_rejects_medium_key_its_kind_does_not_take(medium, key):
    # a parameter the part's kind does not take, a kind the part does not
    # take and a parameter outside its range each name their key
    with pytest.raises(ValidationError) as err:
        parse_scenario(f"[medium]\n{medium}\n")
    assert err.value.key == key


def test_run_vacuum_scenario(tmp_path):
    config = parse_scenario(VACUUM_CFG)
    manifest = run_scenario(config, out_dir=str(tmp_path))
    assert manifest.all_passed
    # the chi exports of a vacuum scenario are all-zero
    chi = (tmp_path / "chi_electric_k0.csv").read_text().splitlines()
    values = np.array([[float(x) for x in row.split(",")[1:]] for row in chi[1:]])
    assert np.allclose(values, 0.0)
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["schema"] == 1
    names = [c["name"] for c in payload["checks"]]
    assert len(names) == len(set(names))


def test_run_scenario_determinism(tmp_path):
    config = parse_scenario(VACUUM_CFG)
    run_scenario(config, out_dir=str(tmp_path / "a"))
    run_scenario(config, out_dir=str(tmp_path / "b"))
    for name in sorted(os.listdir(tmp_path / "a")):
        if name.endswith(".csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_verify_lorentz(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(LORENTZ_CFG.replace("PLACEHOLDER", str(tmp_path / "out")))
    code = main(["verify", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] fdt_P_k0" in out
    assert "[PASS] equal_time_commutator_k0" in out
    payload = json.loads((tmp_path / "out" / "manifest.json").read_text())
    fdt = [c for c in payload["checks"] if c["name"] == "fdt_P_k0"][0]
    assert fdt["max_error"] < 1e-5
    kk = [c for c in payload["checks"] if c["name"] == "kk_electric_k0"][0]
    assert kk["max_error"] < 1e-3


def test_cli_verify_at_critical_damping(tmp_path):
    # resonance = width / 2: chi_hat has a double pole, which the partial
    # fractions refuse; the Maxwell residual reads the closed form's chi(t)
    # as the chi stage does, so every check runs
    cfg = tmp_path / "critical.cfg"
    cfg.write_text(LORENTZ_CFG.replace("PLACEHOLDER", str(tmp_path / "out"))
                   .replace("electric.width = 0.5", "electric.width = 2.0"))
    assert main(["verify", "--config", str(cfg)]) == 0
    checks = json.loads((tmp_path / "out" / "manifest.json").read_text())["checks"]
    assert "maxwell_residual_k0" in [c["name"] for c in checks]
    assert all(c["passed"] for c in checks)


def test_cli_verify_on_a_short_horizon_runs_the_maxwell_residual(tmp_path):
    # lorentz.cfg on t_max = 1e-3: the Maxwell grid's step bound asks for
    # 2 steps over it, whose every-other-point subsample has no difference
    # stencil; the grid takes 4, so this is a run, not a config error
    text = (CONFIGS / "lorentz.cfg").read_text(encoding="utf-8")
    edits = [("t_max = 10.0", "t_max = 0.001"),
             ("n_t = 2001", "n_t = 11\ncommutator_t = 0,0.0005")]
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "short.cfg"
    cfg.write_text(text)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) in (0, 2)
    checks = json.loads((tmp_path / "out" / "manifest.json").read_text())["checks"]
    maxwell = [c for c in checks if c["name"] == "maxwell_residual_k0"]
    assert len(maxwell) == 1 and maxwell[0]["details"]["n_t"] == 5


def test_cli_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[numerics]\nquad_rtol = -1\n")
    assert main(["verify", "--config", str(cfg)]) == 1


def test_cli_missing_config_exit_code(tmp_path):
    assert main(["verify", "--config", str(tmp_path / "missing.cfg")]) == 3


def _target_config(tmp_path, tensor, k="0,0,1", name="out"):
    """An invert-chi config whose target table holds `tensor` at every
    (omega, |k|) of a 3 x 2 grid, writing to tmp_path / name."""
    table = write_table_csv(tmp_path / "target.csv", (0.5, 1.0, 2.0), (0.5, 2.0), tensor)
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(
        f"[medium]\nelectric.target_table = {table}\n"
        f"[grids]\nk = {k}\nomega_min = 0.6\nomega_max = 1.8\nn_omega = 5\n"
        f"[output]\ndirectory = {tmp_path / name}\n"
    )
    return str(cfg)


@pytest.mark.parametrize("axis, pairs", [("omega", ((0.0, 0.5), (0.0, 1.5))),
                                         ("|k|", ((0.0, 1.0), (10.0, 1.0)))])
def test_cli_verify_single_point_table_axis_is_a_config_error(tmp_path, capsys, axis, pairs):
    # a tabulated part needs two points on each axis: with one (the run's
    # |k|, or omega = 0) verify died with an IndexError or a
    # ZeroDivisionError and wrote no manifest
    cells = ",".join(["0.5", "0.0"] * 9)
    table = tmp_path / "table.csv"
    table.write_text("\n".join(["omega,kmag," + ",".join(TENSOR_HEADER),
                                *(f"{w},{km},{cells}" for w, km in pairs)]) + "\n")
    cfg = tmp_path / "tabulated.cfg"
    cfg.write_text(f"[medium]\nelectric.kind = tabulated\nelectric.table = {table}\n"
                   f"[output]\ndirectory = {tmp_path / 'out'}\n")
    assert main(["verify", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"config error: table {axis} grid needs at least two points" in err
    assert not (tmp_path / "out").exists()


def test_cli_modes_on_a_table_that_stops_below_the_reservoir_cutoff(tmp_path):
    # the part couples nothing above its table's top (omega = 6), where the
    # reservoir rule (to reservoir_cutoff = 50) still has nodes: the table
    # is not read there, and the mode CSVs are written
    omegas = np.linspace(0.0, 6.0, 61)
    f = eval_coupling_batch(gaussian_anisotropic((1.0, 0.7, 0.4), 1.0), omegas, (0.0, 0.0, 1.0))
    table = write_table_csv(tmp_path / "table.csv", omegas, (0.0, 10.0), f[:, None])
    cfg = tmp_path / "tabulated.cfg"
    cfg.write_text(f"[medium]\nelectric.kind = tabulated\nelectric.table = {table}\n"
                   "[grids]\nk = 0,0,1.3\nt_max = 2\ncommutator_t = 0,1\nreservoir_order = 16\n"
                   f"[output]\ndirectory = {tmp_path / 'out'}\n")
    assert main(["modes", "--config", str(cfg)]) == 0
    for name in ("gamma", "xi", "zeta", "eta"):
        assert (tmp_path / "out" / f"modes_{name}_k0.csv").exists()



def test_cli_modes_on_a_table_whose_k_axis_ends_near_k(tmp_path, capsys):
    # a table over |k| in [0, 2] at |k| = 1.3: lambda_reality's draws are
    # sign flips of k, all inside the table (draws from N(0, 1)^3 reached
    # |k| = 3.3 and raised OutOfTableRange)
    omegas, kmags = np.linspace(0.0, 6.0, 61), np.linspace(0.0, 2.0, 5)
    f = np.stack([eval_coupling_batch(gaussian_anisotropic((1.0, 0.7, 0.4), 1.0), omegas,
                                      (0.0, 0.0, km)) for km in kmags], axis=1)
    table = write_table_csv(tmp_path / "table.csv", omegas, kmags, f)
    cfg = tmp_path / "tabulated.cfg"
    cfg.write_text(f"[medium]\nelectric.kind = tabulated\nelectric.table = {table}\n"
                   "[grids]\nk = 0,0,1.3\nt_max = 2\ncommutator_t = 0,1\nreservoir_order = 16\n"
                   f"[output]\ndirectory = {tmp_path / 'out'}\n")
    assert main(["modes", "--config", str(cfg)]) == 0
    assert "[PASS] lambda_reality_k0: 0.000e+00" in capsys.readouterr().out

def test_cli_invert_chi_not_psd_exit_code(tmp_path):
    # a PSD-violating dissipation target must exit 2 with provenance
    cfg = _target_config(tmp_path, -0.5 * np.eye(3))  # negative-definite target
    assert main(["invert-chi", "--config", cfg]) == 2
    payload = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert payload["error"]["type"] == "NotPSD"


def test_invert_chi_reads_the_target_table_once(tmp_path, monkeypatch):
    # two k interpolate one loaded table, and each recovers what a run at
    # that k alone recovers
    loads = []
    load = scenario.tabulated_from_csv
    monkeypatch.setattr(scenario, "tabulated_from_csv",
                        lambda *args, **kwargs: loads.append(args) or load(*args, **kwargs))
    target = np.diag([0.5, 0.3, 0.2])
    ks = ("0,0,1", "0,0.9,0.9")
    assert main(["invert-chi", "--config", _target_config(tmp_path, target, "; ".join(ks))]) == 0
    assert len(loads) == 1
    for ik, k in enumerate(ks):
        assert main(["invert-chi", "--config", _target_config(tmp_path, target, k, f"k{ik}")]) == 0
        assert ((tmp_path / "out" / f"recovered_coupling_k{ik}.csv").read_bytes()
                == (tmp_path / f"k{ik}" / "recovered_coupling_k0.csv").read_bytes())
    assert len(loads) == 3


def _invert_lorentz_config(tmp_path):
    cfg = tmp_path / "invert.cfg"
    cfg.write_text(
        "[medium]\nelectric.kind = lorentz_isotropic\nelectric.strength = 1.3\n"
        "electric.resonance = 1.0\nelectric.width = 0.5\n"
        "[grids]\nk = 0,0,1\nn_omega = 40\n"
        f"[output]\ndirectory = {tmp_path / 'out'}\n"
    )
    return str(cfg)


def test_cli_invert_chi_roundtrip(tmp_path):
    assert main(["invert-chi", "--config", _invert_lorentz_config(tmp_path)]) == 0
    payload = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert payload["constants"] == "natural"
    check = [c for c in payload["checks"] if c["name"].startswith("roundtrip")][0]
    assert check["passed"]


def test_cli_invert_chi_si_records_constants(tmp_path):
    assert main(["invert-chi", "--config", _invert_lorentz_config(tmp_path), "--si"]) == 0
    payload = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert payload["constants"] == "si"


@pytest.mark.parametrize("formats", ["csv,json", "json,csv"])
def test_cli_format_accepts_either_order(formats):
    args = build_parser().parse_args(["verify", "--config", "x.cfg", "--format", formats])
    assert args.format == formats


@pytest.mark.parametrize("argv", [
    ["verify", "--config", "x.cfg", "--format", "csv,xml"],
    ["verify"],
])
def test_cli_usage_error_exit_code(argv, capsys):
    # a bad --format value and a missing --config are configuration errors
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage: mqed verify" in capsys.readouterr().err


def test_cli_help_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--format FORMATS" in capsys.readouterr().out


def test_run_builds_one_kernel_per_medium_and_k(tmp_path, monkeypatch):
    # the chi stage converges one representation per nonzero (medium, k) on
    # its long horizon, and the noise checks take that kernel and spectrum
    import mqed.response

    calls = []
    original = mqed.response.adaptive_nodes

    def counting(spec, cutoff, evaluate):
        calls.append(cutoff)
        return original(spec, cutoff, evaluate)

    monkeypatch.setattr(mqed.response, "adaptive_nodes", counting)
    text = LORENTZ_CFG.replace("PLACEHOLDER", str(tmp_path)).replace(
        "[grids]",
        "magnetic.kind = lorentz_isotropic\nmagnetic.strength = 0.8\n"
        "magnetic.resonance = 1.4\nmagnetic.width = 0.6\n\n[grids]",
    ).replace("k = 0,0,1.3", "k = 0,0,1.3; 0.6,0.8,0")
    manifest = run_scenario(parse_scenario(text), out_dir=str(tmp_path), stages=("chi", "noise"))
    names = [c["name"] for c in manifest.checks]
    assert {"fdt_P_k1", "fdt_M_k1", "pdot_continuity_k1", "constitutive_roundtrip_k1"} <= set(names)
    assert manifest.all_passed
    assert len(calls) == 2 * 2


def _perfbench_module(name: str) -> dict:
    """The namespace of a perfbench module executed from its source text,
    so nothing is written beside it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    # registered while it runs: dataclasses look their module up
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    finally:
        del sys.modules[module.__name__]
    return vars(module)


def _bench_gate_problems(workload: str, code: int, out: str, out_dir) -> list:
    """The benchmark's correctness gate on one run, against its recorded
    reference."""
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    check_run = _perfbench_module("gate")["check_run"]
    problems, _ = check_run(reference[workload], code, out, Path(out_dir))
    return problems


def test_cli_verify_bundled_gaussian_config(tmp_path, capsys):
    # the Bromwich-line path end to end (continuum-absorption medium). The
    # electric kernel keeps the nodes that carry weight; the zero magnetic
    # part builds no rule, and its kernel is +0
    code = main(["verify", "--config", str(CONFIGS / "gaussian.cfg"), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 10
    assert "[FAIL]" not in out
    assert _bench_gate_problems("gaussian-verify", code, out, tmp_path) == []
    records = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))["quadrature"]
    electric, magnetic = (records[f"chi_{part}_k0"]["quadrature"]
                          for part in ("electric", "magnetic"))
    assert electric["order"] == 4880 and electric["kept"] <= 700
    assert magnetic["order"] == magnetic["kept"] == 0 and "rule" not in magnetic
    chi_m = np.loadtxt(tmp_path / "chi_magnetic_k0.csv", delimiter=",", skiprows=1)
    assert not np.any(chi_m[:, 1:]) and not np.any(np.signbit(chi_m[:, 1:]))


def test_gaussian_run_builds_no_legendre_rule_above_512(tmp_path, monkeypatch):
    # the gaussian kernel takes one trapezoid rule of N = 4880 nodes; every
    # Gauss-Legendre rule the run still asks for (the Laplace
    # representation, the reservoir, the noise convolutions) stays small,
    # where the kernel's order doubling used to reach 8192
    import mqed.quadrature

    orders = []
    build = mqed.quadrature._legendre_cache

    def recorded(order):
        orders.append(order)
        return build(order)

    monkeypatch.setattr(mqed.quadrature, "_legendre_cache", recorded)
    config = parse_scenario((CONFIGS / "gaussian.cfg").read_text(encoding="utf-8"))
    manifest = run_scenario(config, out_dir=str(tmp_path))
    assert orders and max(orders) <= 512, sorted(set(orders))
    rule = manifest.quadrature["chi_electric_k0"]["quadrature"]
    assert (rule["rule"], rule["order"]) == ("trapezoid", 4880)
    assert rule["alias_time"] >= 2.0 * manifest.quadrature["chi_electric_k0"]["t_max"]
    assert rule["est_rel_error"] <= 1e-10


def test_gaussian_modes_run_sums_the_reservoir_by_panels(tmp_path):
    # `mqed modes` on the gaussian config, the benchmark sweep's seed-0 config
    # at its first k: the 81 modes times are uniform from 0, so the line's
    # reservoir sums take panels, of an order well below the 96 nodes
    config = parse_scenario((CONFIGS / "gaussian.cfg").read_text(encoding="utf-8"))
    manifest = run_scenario(config, out_dir=str(tmp_path), stages=_STAGES["modes"])
    record = manifest.quadrature["modes_k0"]
    assert record["reservoir_sums"] == "panels"
    assert record["panel_order"] <= 24


def test_lorentz_run_builds_no_legendre_rule_above_1024(tmp_path, monkeypatch):
    # a rational part's kernel and spectrum come from its closed form, and
    # its coupling quadrature is converged on the checks' horizon alone, at
    # order 1024, where the kernel's 1e-11 horizon took the doubling to 4096
    import mqed.quadrature

    orders = []
    build = mqed.quadrature._legendre_cache

    def recorded(order):
        orders.append(order)
        return build(order)

    monkeypatch.setattr(mqed.quadrature, "_legendre_cache", recorded)
    config = parse_scenario((CONFIGS / "lorentz.cfg").read_text(encoding="utf-8"))
    manifest = run_scenario(config, out_dir=str(tmp_path))
    assert orders and max(orders) <= 1024, sorted(set(orders))
    for part in ("electric", "magnetic"):
        record = manifest.quadrature[f"chi_{part}_k0"]
        assert record["kernel"] == "closed_form"
        assert record["quadrature"]["order"] == 1024
        assert 1e-5 < record["couplings_gap"] < 1e-4


def test_rational_representation_reaches_both_checks_grids(tmp_path, monkeypatch):
    # the continuity probe and the constitutive round trip (at steps h and
    # 2h) integrate the kernel's coupling quadrature in time, each to the
    # checks' horizon, where a rational part's representation was converged
    import mqed.noise
    import mqed.observables

    kernels, ends = [], []
    build = scenario.part_kernel
    monkeypatch.setattr(scenario, "part_kernel",
                        lambda *args: kernels.append(build(*args)) or kernels[-1])
    responses = mqed.noise._oscillator_responses

    def recorded(omega, drive, t, block):
        ends.append(float(t[-1]))
        return responses(omega, drive, t, block)

    for module in (mqed.noise, mqed.observables):
        monkeypatch.setattr(module, "_oscillator_responses", recorded)
    config = parse_scenario((CONFIGS / "lorentz.cfg").read_text(encoding="utf-8"))
    run_scenario(config, out_dir=str(tmp_path), stages=("noise",))
    electric = kernels[0]
    assert electric.closed_form is not None
    assert ends == [electric.rep_horizon] * 3


def test_narrow_lorentz_lines_in_the_chi_and_noise_stages(tmp_path):
    # width 0.1 at resonance 1: the coupling quadrature converges on the
    # checks' horizon at order 4096, where the kernel's 1e-11 horizon was
    # still moving at 8192; KK passes on a grid whose step follows the line
    # (a fixed 4,096-point grid on [0, 50] read 2.06e-2). Width 0.05 at
    # resonance 2.5 still needs more than 8192 nodes on the checks' horizon.
    from mqed.errors import QuadratureNotConverged

    def config(width, resonance):
        return parse_scenario(
            "[medium]\nelectric.kind = lorentz_isotropic\nelectric.strength = 1\n"
            f"electric.resonance = {resonance}\nelectric.width = {width}\n\n"
            "[grids]\nk = 0,0,1.3\n")

    manifest = run_scenario(config(0.1, 1.0), out_dir=str(tmp_path), stages=("noise",))
    assert manifest.quadrature["chi_electric_k0"]["quadrature"]["order"] == 4096
    assert manifest.all_passed
    kk = next(c for c in manifest.checks if c["name"] == "kk_electric_k0")
    assert kk["max_error"] <= 1e-6 and kk["details"]["n_omega"] == 8064
    with pytest.raises(QuadratureNotConverged, match=r"^gauss_legendre on .*, 8192 points: [^,]*$"):
        run_scenario(config(0.05, 2.5), out_dir=str(tmp_path), stages=("chi",))


def test_cli_modes_bundled_gaussian_line_budget(tmp_path, capsys):
    # with its tail taken in closed form, the gaussian config's Bromwich line
    # stays short and both of its error estimates stay small
    code = main(["modes", "--config", str(CONFIGS / "gaussian.cfg"), "--out", str(tmp_path)])
    assert code == 0
    line = json.loads((tmp_path / "manifest.json").read_text())["quadrature"]["modes_k0"]
    assert line["method"] == "bromwich_line"
    assert line["line_points"] <= 2400
    assert line["est_rel_error"] <= 1e-7
    assert line["est_truncation"] <= 1e-7


def test_python_dash_m_mqed_runs_the_cli(tmp_path):
    # the package runs as a module: a subcommand exits 0 and writes its
    # outputs, and a usage error exits 1
    env = {**os.environ, "PYTHONPATH": str(Path(scenario.__file__).resolve().parent.parent)}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "mqed", *args], capture_output=True,
                              text=True, env=env, timeout=300)

    done = run("chi", "--config", str(CONFIGS / "lorentz.cfg"), "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "chi_electric_k0.csv").is_file()
    done = run("chi")
    assert done.returncode == 1 and "usage: mqed chi" in done.stderr


def test_cli_verify_gaussian_builds_one_line_per_k(tmp_path, capsys, monkeypatch):
    # chi_hat is evaluated on a Bromwich line once, for +k (the modes grid
    # and the Maxwell grid); the commutators map the -k channels from +k by
    # parity, so no -k line is built or recorded
    from mqed.response import LaplaceResponse

    sizes = []
    chi = LaplaceResponse.chi

    def counted(self, which, k, rho):
        if self.sector(which) and np.size(rho) > 100:
            sizes.append(np.size(rho))
        return chi(self, which, k, rho)

    monkeypatch.setattr(LaplaceResponse, "chi", counted)
    code = main(["verify", "--config", str(CONFIGS / "gaussian.cfg"), "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    line = manifest["quadrature"]["modes_k0"]
    assert sizes == [line["line_points"]]
    assert not [name for name in manifest["quadrature"] if name.startswith("modes_minus")]
    check = next(c for c in manifest["checks"] if c["name"] == "equal_time_commutator_k0")
    assert check["details"]["minus_k"] == "parity"
    # the commutators' reservoir rule is solved on the same line
    assert (check["details"]["rule"], check["details"]["order"]) == ("clenshaw_curtis_tan", 65)
    # the geometry comes from the run: horizon t_max and
    # the top reservoir frequency reservoir_cutoff
    assert line["method"] == "bromwich_line"
    assert (line["line_horizon"], line["line_omega_top"]) == (8.0, 50.0)
    assert line["est_rel_error"] <= 1e-7 and line["est_truncation"] <= 1e-7


def test_cli_verify_medium_below_unit_frequency_scale(tmp_path, capsys):
    # a Lorentz medium at resonance 0.86: its kernel's rule stops at the
    # cutoff 50 x 0.86 = 43, and its KK grid stops there too, not at 50,
    # where Im chi_hat is only the truncated rule's ripple (an eigenvalue of
    # -1.1e-6 there raised NotPSD before any check)
    cfg = tmp_path / "lorentz086.cfg"
    cfg.write_text("[medium]\nelectric.kind = lorentz_isotropic\nelectric.strength = 1.5\n"
                   "electric.resonance = 0.86\nelectric.width = 0.5\n\n[grids]\nk = 0,0,1.3\n")
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 10
    assert "[FAIL]" not in out


def test_chi_stage_overdamped_lorentz_medium(tmp_path):
    # width 2.5 > 2 x resonance: the slow pole decays at 0.5, not at
    # width / 2 = 1.25, so a horizon from the width alone ends while the
    # kernel still moves by 3e-5 of its peak (TailNotDecayed)
    text = ("[medium]\nelectric.kind = lorentz_isotropic\nelectric.strength = 1\n"
            "electric.resonance = 1\nelectric.width = 2.5\n\n[grids]\nk = 0,0,1.3\n"
            "n_omega = 120\n")
    manifest = run_scenario(parse_scenario(text), out_dir=str(tmp_path), stages=("chi",))
    assert [c["name"] for c in manifest.checks] == ["kk_electric_k0", "roundtrip_electric_k0"]
    assert manifest.all_passed


def _calls_by_binding(monkeypatch, name: str) -> list:
    """Records every call of `mqed.response.<name>` as the name of the
    module whose binding made it."""
    import mqed.response

    original = getattr(mqed.response, name)
    calls = []
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "mqed"]:
        if getattr(module, name, None) is original:
            def counted(*args, _home=module.__name__, **kwargs):
                calls.append(_home)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


def test_cli_verify_bundled_lorentz_config(tmp_path, capsys, monkeypatch):
    kernels = _calls_by_binding(monkeypatch, "chi_kernel")
    spectra = _calls_by_binding(monkeypatch, "chi_spectrum")
    code = main(["verify", "--config", str(CONFIGS / "lorentz.cfg"), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 13
    assert "[FAIL]" not in out
    assert _bench_gate_problems("lorentz-verify", code, out, tmp_path) == []
    # one kernel per (part, k); each part's spectrum and KK spectrum come
    # from the chi stage, and the noise checks take what it built
    assert kernels == ["mqed.scenario"] * 2
    assert spectra == ["mqed.scenario"] * 4
    # the process's peak RSS as each stage ends, beside its wall time (the
    # manifest leaves the key out where `resource` cannot be imported)
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert list(payload["timings"]) == ["chi_k0", "noise_k0", "modes_k0", "commutators_k0"]
    # each check names the claim it serves, and its margin is error over tolerance
    claims = {check.claim for check in scenario._CHECKS}
    assert all(c["claim"] in claims and c["margin"] == c["max_error"] / c["tolerance"]
               for c in payload["checks"])
    if scenario.resource is not None:
        peaks = payload["peak_rss_mb"]
        assert list(peaks) == list(payload["timings"])
        assert all(mb > 0.0 for mb in peaks.values())
        assert list(peaks.values()) == sorted(peaks.values())


MAGNETIC_LORENTZ = ("magnetic.kind = lorentz_isotropic\nmagnetic.strength = 0.6\n"
                    "magnetic.resonance = 1.5\nmagnetic.width = 0.3\n")


def test_cli_verify_drude_with_magnetic_part_is_finite(tmp_path, capsys):
    # the exact path's reservoir transforms met a removable double root at
    # rho = 0 here and exported all-NaN modes_zeta_tilde, which made the
    # commutator NaN
    cfg = tmp_path / "drude_magnetic.cfg"
    cfg.write_text("[medium]\nelectric.kind = drude\nelectric.strength = 1.1\n"
                   f"electric.width = 0.5\n{MAGNETIC_LORENTZ}\n[grids]\nk = 0,0,1.3\n")
    out_dir = tmp_path / "out"
    main(["verify", "--config", str(cfg), "--out", str(out_dir)])
    capsys.readouterr()
    checks = json.loads((out_dir / "manifest.json").read_text())["checks"]
    assert all(np.isfinite(c["max_error"]) for c in checks)
    assert [c["passed"] for c in checks if c["name"] == "equal_time_commutator_k0"] == [True]
    for path in out_dir.glob("*.csv"):
        assert "nan" not in path.read_text().lower(), path.name


def test_conductor_stage_keeps_the_magnetic_part(tmp_path, monkeypatch):
    import mqed.scenario

    media = []
    original = mqed.scenario.conductor_modes

    def recorded(response, *args, **kwargs):
        media.append(response)
        return original(response, *args, **kwargs)

    monkeypatch.setattr(mqed.scenario, "conductor_modes", recorded)
    text = (CONFIGS / "conductor.cfg").read_text().replace("[grids]",
                                                          f"{MAGNETIC_LORENTZ}\n[grids]")
    config = parse_scenario(text)
    manifest = run_scenario(config, out_dir=str(tmp_path), stages=("conductor",))
    assert manifest.all_passed
    assert len(media) == 1
    assert media[0].sector("magnetic") == (config.model("magnetic"),)
    assert media[0].sector("magnetic")[0].kind == "lorentz_isotropic"
    assert "nan" not in (tmp_path / "conductor_gamma_k0.csv").read_text().lower()


def test_cli_verify_bundled_conductor_config(tmp_path, capsys):
    # every check passes: the commutator sums its reservoir on the nested
    # rule (129 points), where the exported 64-node grid reads 1.7e-2
    code = main(["verify", "--config", str(CONFIGS / "conductor.cfg"), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[FAIL]" not in out and out.count("[PASS]") == 12
    assert _bench_gate_problems("conductor-verify", code, out, tmp_path) == []


def test_cli_modes_bench_sweep_config(tmp_path, capsys, monkeypatch):
    # the benchmark's four-k modes sweep at seed 0, its config generated by
    # perfbench's own workload code. Its k are sign flips of one k, and so
    # are the ten k of each lambda_reality draw: every k . k is the
    # configured one bit for bit, so the run builds one Laplace
    # representation, for its one |k|
    from mqed import response

    builds, draws = [], []
    build, scan = response._converged_rep, scenario.lambda_reality_scan
    monkeypatch.setattr(response, "_converged_rep",
                        lambda *args, **kw: builds.append(1) or build(*args, **kw))
    monkeypatch.setattr(scenario, "lambda_reality_scan",
                        lambda resp, ks, rhos: draws.append(ks) or scan(resp, ks, rhos))
    workloads = _perfbench_module("workloads")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(workloads["config_text"](workloads["WORKLOADS"]["gaussian-modes-sweep"], 0))
    out_dir = tmp_path / "out"
    code = main(["modes", "--config", str(cfg), "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert len(list(out_dir.glob("modes_*_k3.csv"))) == 8
    assert _bench_gate_problems("gaussian-modes-sweep", code, out, out_dir) == []
    ks = parse_scenario(cfg.read_text(encoding="utf-8")).k_list()
    assert len(ks) == len(draws) == 4
    for k, drawn in zip(ks, draws):
        assert drawn.shape == (10, 3) and np.all(np.abs(drawn) == np.abs(k))
        assert all(q @ q == k @ k for q in drawn)
    assert len({float(k @ k) for k in ks}) == len(builds) == 1


def test_cli_conductor_bundled_config(tmp_path, capsys):
    # the free-carrier pathway end to end: one response carries the bound
    # and the Drude part
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "conductor.cfg")
    code = main(["conductor", "--config", config, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] conductor_poles_k0" in out
    assert "[PASS] q_decomposition_k0" in out
    assert (tmp_path / "conductor_gamma_k0.csv").is_file()


def test_q_decomposition_reads_its_richardson_value(tmp_path):
    # conductor.cfg's medium with a bound part of width 0.5 on the default
    # n_t = 2001: Q - dchi/dt is the differences' h^2 error, 1.4e-4 of Q's
    # peak and above the tolerance, which the Richardson value takes out
    text = (CONFIGS / "conductor.cfg").read_text(encoding="utf-8")
    for old, new in (("electric.width = 0.4", "electric.width = 0.5"), ("n_t = 10001\n", "")):
        assert old in text
        text = text.replace(old, new)
    manifest = run_scenario(parse_scenario(text), out_dir=str(tmp_path), stages=("conductor",))
    check = [c for c in manifest.checks if c["name"] == "q_decomposition_k0"][0]
    assert check["passed"] and check["max_error"] < 5e-6
    assert 1.3e-4 < check["details"]["plain"] < 1.5e-4
    assert check["details"]["h_estimate"] > check["max_error"]


LORENTZ_ELECTRIC = ("electric.kind = lorentz_isotropic\nelectric.strength = 1.3\n"
                    "electric.resonance = 1.0\nelectric.width = 0.5\n")
GAUSSIAN_ELECTRIC = ("electric.kind = gaussian_anisotropic\nelectric.axis_strengths = 1.0,0.7,0.4\n"
                     "electric.center = 1.0\n")


def _append(section, line):
    return [(None, f"[{section}]\n{line}")]


@pytest.mark.parametrize("key, edits", [
    pytest.param("commutator_t", _append("grids", "commutator_t = 0,x"),
                 id="grids-commutator_t = 0,x"),
    pytest.param("seed", _append("numerics", "seed = -3"), id="numerics-seed = -3"),
    pytest.param("quad_max_order", _append("numerics", "quad_max_order = 100"),
                 id="numerics-quad_max_order = 100"),
    # set a second time
    pytest.param("n_t", _append("grids", "n_t = 11"), id="grids-n_t = 11"),
    pytest.param("n_t", [("n_t = 1201", "n_t = 2")], id="n_t = 2"),
    pytest.param("omega_max", _append("grids", "omega_max = inf"), id="omega_max = inf"),
    # the spectrum grid runs from omega_min up to omega_max
    pytest.param("omega_min", _append("grids", "omega_min = 6"), id="omega_min = 6"),
    pytest.param("omega_min", _append("grids", "omega_min = 5.0"), id="omega_min = omega_max"),
    pytest.param("k", [("k = 0,0,1.3", "k = 0,0,0")], id="k = 0,0,0"),
    pytest.param("electric.table", [(LORENTZ_ELECTRIC, "electric.kind = tabulated\n")],
                 id="tabulated without table"),
])
def test_cli_bad_config_value_exits_before_any_stage(tmp_path, capsys, key, edits):
    # each edit replaces a line of the config, or appends one (old is None)
    out_dir = tmp_path / "out"
    text = LORENTZ_CFG.replace("PLACEHOLDER", str(out_dir))
    for old, new in edits:
        assert old is None or old in text
        text = text + f"\n{new}\n" if old is None else text.replace(old, new)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["verify", "--config", str(cfg)]) == 1
    assert f"config error: key '{key}'" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("name, line", [
    ("lorentz.cfg", "electric.strength = 1.3"),
    ("lorentz.cfg", "magnetic.resonance = 1.4"),
    ("gaussian.cfg", "electric.axis_strengths = 1.0,0.7,0.4"),
    ("conductor.cfg", "conductor.strength = 1.1"),
    ("conductor.cfg", "conductor.width = 0.5"),
])
def test_cli_missing_medium_parameter_exits_before_any_stage(tmp_path, capsys, name, line):
    # a bundled config with one required parameter of its medium deleted
    text = (CONFIGS / name).read_text(encoding="utf-8")
    assert line + "\n" in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(line + "\n", ""))
    out_dir = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out_dir)]) == 1
    assert f"config error: key '{line.split(' = ')[0]}'" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("value", ["0,100,-7", "0,4.5", "-0.5", "nan"])
def test_cli_commutator_time_outside_grid_exits_before_any_stage(tmp_path, capsys, value):
    # commutator times lie on the modes grid on [0, t_max]: nothing is snapped
    out_dir = tmp_path / "out"
    cfg = tmp_path / "bad.cfg"
    text = VACUUM_CFG.replace("commutator_t = 0,1,4", f"commutator_t = {value}")
    cfg.write_text(text + f"[output]\ndirectory = {out_dir}\n")
    assert main(["verify", "--config", str(cfg)]) == 1
    assert "config error: key 'commutator_t'" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_verify_removed_laplace_method_is_a_config_error(tmp_path, capsys):
    # the medium picks its inverse-Laplace route: naming the laplace key, with
    # any value, is a config error of that key, raised before any stage
    # writes output
    text = (CONFIGS / "lorentz.cfg").read_text(encoding="utf-8")
    cfg = tmp_path / "bad.cfg"
    out_dir = tmp_path / "out"
    for value in ("auto", "bromwich_line", "talbot"):
        cfg.write_text(text + f"\n[numerics]\nlaplace = {value}\n", encoding="utf-8")
        assert main(["verify", "--config", str(cfg), "--out", str(out_dir)]) == 1
        assert "config error: key 'laplace'" in capsys.readouterr().err
        assert not out_dir.exists()


@pytest.mark.parametrize("bound, method", [(LORENTZ_ELECTRIC, "rational_exact"),
                                           (GAUSSIAN_ELECTRIC, "bromwich_line")])
def test_each_mode_solve_of_a_run_follows_its_medium(tmp_path, bound, method):
    # with free carriers: the +k solve of the bound medium and the conductor
    # stage's solve of bound and free carriers together take the one route
    # their medium allows
    text = (CONFIGS / "conductor.cfg").read_text(encoding="utf-8")
    text = re.sub(r"electric\.kind = [^\n]*\n(electric\.[^\n]*\n)*", bound, text)
    config = parse_scenario(text)
    assert config.model("electric").is_rational == (method == "rational_exact")
    manifest = run_scenario(config, out_dir=str(tmp_path), stages=("commutators", "conductor"))
    solves = ("modes_k0", "conductor_k0")
    assert [manifest.quadrature[name]["method"] for name in solves] == [method] * 2


def test_conductor_poles_fail_past_the_unstable_pole_margin(tmp_path, monkeypatch):
    # a pole at Re p = 5e-11 counts as unstable in the modes metadata (past
    # MARGINAL_POLE_TOL = 1e-12), so the check on max Re p fails it too
    from dataclasses import replace

    from mqed.modes import MARGINAL_POLE_TOL

    original = scenario.conductor_modes

    def shifted(*args):
        mc = original(*args)
        return replace(mc, metadata={**mc.metadata, "max_re_pole": 5e-11})

    monkeypatch.setattr(scenario, "conductor_modes", shifted)
    config = parse_scenario((CONFIGS / "conductor.cfg").read_text(encoding="utf-8"))
    manifest = run_scenario(config, out_dir=str(tmp_path), stages=("conductor",))
    check = next(c for c in manifest.checks if c["name"] == "conductor_poles_k0")
    assert check["max_error"] == 5e-11 > MARGINAL_POLE_TOL == check["tolerance"]
    assert not check["passed"]


def test_cli_line_not_converged_exit_code(tmp_path, capsys, monkeypatch):
    # a Bromwich line whose error estimate misses its tolerance is a
    # numerical violation (exit 2) that names LineNotConverged
    from mqed import modes

    monkeypatch.setattr(modes, "_LINE_RTOL", 1e-12)
    code = main(["modes", "--config", str(CONFIGS / "gaussian.cfg"), "--out", str(tmp_path)])
    assert code == 2
    assert "LineNotConverged: bromwich line grid-halving estimate" in capsys.readouterr().err


# a removed key -> the section it was set in
_REMOVED_KEYS = {
    **dict.fromkeys(("kk_omega_max", "kk_n_omega", "maxwell_t_max", "maxwell_n_t"), "grids"),
    **dict.fromkeys(("continuity_dt", "fdt_tol", "kk_tol", "commutator_tol", "maxwell_tol",
                     "roundtrip_tol", "continuity_tol", "constitutive_tol", "reality_tol"),
                    "numerics"),
}


@pytest.mark.parametrize("key", _REMOVED_KEYS)
def test_cli_removed_grid_key_exits_before_any_stage(tmp_path, capsys, key):
    # the engine sizes the Maxwell and Kramers-Kronig grids and the
    # continuity probe's step, and each check's tolerance is a constant of
    # its row, so a config that still sets one of their keys is a config
    # error naming it
    section = _REMOVED_KEYS[key]
    out_dir = tmp_path / "out"
    cfg = tmp_path / "removed.cfg"
    cfg.write_text(LORENTZ_CFG.replace("PLACEHOLDER", str(out_dir)) + f"\n[{section}]\n{key} = 1\n")
    assert key not in _SCHEMA[section]
    assert main(["verify", "--config", str(cfg)]) == 1
    assert f"config error: key '{key}': unknown key in [{section}]" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("name", ["lorentz", "gaussian", "conductor"])
def test_check_grids_follow_the_medium(tmp_path, capsys, name):
    # every KK and Maxwell check of a bundled config measures the physics,
    # not its grid, and reports the grid the engine sized: KK up to the
    # part's rule cutoff at a step of at most pi / T (T the kernel's
    # horizon), Maxwell on [0, t_max] at an even number of steps
    main(["verify", "--config", str(CONFIGS / f"{name}.cfg"), "--out", str(tmp_path)])
    capsys.readouterr()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    checks = {c["name"]: c for c in manifest["checks"]}
    kks = [c for n, c in checks.items() if n.startswith("kk_")]
    assert kks and all(c["passed"] and c["max_error"] <= 2e-5 for c in kks)
    for c in kks:
        part = c["name"].split("_")[1]
        horizon = manifest["quadrature"][f"chi_{part}_k0"]["t_max"]
        details = c["details"]
        assert details["step"] <= np.pi / horizon
        assert details["n_omega"] * details["step"] == pytest.approx(details["omega_max"])
    maxwell = checks["maxwell_residual_k0"]
    details = maxwell["details"]
    assert maxwell["passed"] and maxwell["max_error"] <= 1e-6
    assert details["n_t"] == {"lorentz": 4351, "gaussian": 2605, "conductor": 3303}[name]
    assert details["t_max"] == parse_scenario(manifest["config"]).grids["t_max"]
    # the plain residual is its own O(h^2) grid error
    assert details["plain"] == pytest.approx(details["h_estimate"], rel=0.05)
    assert maxwell["max_error"] <= 0.1 * details["plain"]


def test_found_medium_passes_kk_on_the_parts_grids(tmp_path):
    # a Drude electric part with a Lorentz magnetic part of width 0.3: the
    # magnetic residual read 2.18e-3 on the fixed 4,096-point grid over
    # [0, 50], all of it the midpoint interpolation of its reference; the
    # Drude part's pole at omega = 0 drops out of the sum's w' Im(w')
    text = ("[medium]\nelectric.kind = drude\nelectric.strength = 1.1\nelectric.width = 0.5\n"
            "magnetic.kind = lorentz_isotropic\nmagnetic.strength = 0.6\n"
            "magnetic.resonance = 1.5\nmagnetic.width = 0.3\n")
    manifest = run_scenario(parse_scenario(text), out_dir=str(tmp_path), stages=("chi",))
    kk = {c["name"]: c for c in manifest.checks if c["name"].startswith("kk_")}
    assert sorted(kk) == ["kk_electric_k0", "kk_magnetic_k0"]
    assert all(c["passed"] and c["max_error"] <= 2e-5 for c in kk.values())


def test_lorentz_medium_passes_maxwell_at_large_k(tmp_path):
    # the Maxwell step follows c |k|: at k = 0,0,8 a fixed 8,001-point grid
    # over [0, 6] read 1.22e-5 and failed
    text = (CONFIGS / "lorentz.cfg").read_text().replace("k = 0,0,1.3", "k = 0,0,8; 0.3,0.4,12")
    manifest = run_scenario(parse_scenario(text), out_dir=str(tmp_path), stages=("commutators",))
    maxwell = [c for c in manifest.checks if c["name"].startswith("maxwell_residual")]
    assert [c["name"] for c in maxwell] == ["maxwell_residual_k0", "maxwell_residual_k1"]
    assert all(c["passed"] and c["max_error"] <= 1e-6 for c in maxwell)


def test_maxwell_residual_fails_a_scaled_memory_kernel(tmp_path, monkeypatch):
    # the extrapolation removes grid error, not a defect: a memory kernel
    # off by 1e-4 of itself fails the check on the engine's grid
    import mqed.observables

    kernel = mqed.observables._memory_kernel
    monkeypatch.setattr(mqed.observables, "_memory_kernel",
                        lambda which, rep: (1.0 + 1e-4) * kernel(which, rep))
    config = parse_scenario((CONFIGS / "lorentz.cfg").read_text())
    manifest = run_scenario(config, out_dir=str(tmp_path), stages=("commutators",))
    maxwell = next(c for c in manifest.checks if c["name"] == "maxwell_residual_k0")
    assert not maxwell["passed"]


def test_cli_verify_si_gaussian_exits_2_on_the_line_budget(tmp_path, capsys):
    # in SI units c |k| is 3.6e8 rad/s, so gaussian.cfg's Bromwich line would
    # take 4.6e11 points (3.37 TiB); the line's point budget stops the run
    # with a numerical error the manifest records, not a MemoryError
    code = main(["verify", "--si", "--config", str(CONFIGS / "gaussian.cfg"),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "BudgetExceeded" in capsys.readouterr().err
    error = json.loads((tmp_path / "manifest.json").read_text())["error"]
    assert error["type"] == "BudgetExceeded" and "_LINE_POINTS" in error["message"]


def test_check_grid_budget_names_its_grid():
    with pytest.raises(scenario.BudgetExceeded,
                       match="the Maxwell grid needs .* steps, .*_CHECK_POINTS"):
        scenario._steps("Maxwell", 1.0, 1.0 / scenario._CHECK_POINTS)
    assert scenario._steps("Maxwell", 1.0, 1.0 / (scenario._CHECK_POINTS - 2)) \
        == scenario._CHECK_POINTS - 2


@pytest.mark.parametrize("name", ["gaussian.cfg", "lorentz.cfg"])
def test_equal_time_commutator_fails_an_assembly_defect_of_one_part_per_thousand(
        tmp_path, monkeypatch, name):
    # the medium's [E, H^dag] assembly scaled by 1 + 1e-3: its free-space
    # value hbar c^2 O(k) shares no factor with that assembly, so the check
    # reads the defect
    from mqed import observables

    original = observables._eh_coefficient
    monkeypatch.setattr(observables, "_eh_coefficient",
                        lambda *args: (1.0 + 1e-3) * original(*args))
    config = parse_scenario((CONFIGS / name).read_text(encoding="utf-8"))
    manifest = run_scenario(config, out_dir=str(tmp_path), stages=("commutators",))
    check = next(c for c in manifest.checks if c["name"] == "equal_time_commutator_k0")
    assert check["max_error"] == pytest.approx(1e-3, rel=0.01)
    assert not check["passed"]
