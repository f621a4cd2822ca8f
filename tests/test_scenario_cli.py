import json
import os

import numpy as np
import pytest

from mqed.cli import build_parser, main
from mqed.errors import ParseError, ValidationError
from mqed.scenario import parse_scenario, run_scenario, serialize_scenario

TENSOR_HEADER = [f"{p}_{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3) for p in ("re", "im")]

VACUUM_CFG = """
[grids]
k = 0,0,1
n_omega = 40
n_t = 801
t_max = 4.0
maxwell_n_t = 2001
maxwell_t_max = 2.0
reservoir_order = 16
kk_n_omega = 128
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
maxwell_n_t = 6001
maxwell_t_max = 4.0
reservoir_order = 160
kk_n_omega = 4096

[output]
directory = PLACEHOLDER
"""


def test_parse_minimal_vacuum_defaults():
    config = parse_scenario("")
    assert config.grids["k"] == [(0.0, 0.0, 1.0)]
    assert config.numerics["laplace"] == "auto"
    assert config.model("electric", __import__("mqed").NATURAL).is_zero


def test_parse_rejects_negative_tolerance():
    with pytest.raises(ValidationError) as err:
        parse_scenario("[numerics]\nquad_rtol = -1e-7\n")
    assert "quad_rtol" in str(err.value)


def test_parse_rejects_unknown_key():
    with pytest.raises(ValidationError) as err:
        parse_scenario("[grids]\nbogus_key = 3\n")
    assert "bogus_key" in str(err.value)
    # condition_guard was never read (the Lambda guard is invert_lambda's
    # rcond_min) and is now an unknown key
    with pytest.raises(ValidationError) as err:
        parse_scenario("[numerics]\ncondition_guard = 1e-12\n")
    assert "condition_guard" in str(err.value)


def test_csv_row_bytes_match_repr_format(tmp_path):
    from mqed.io import write_deviation_csv, write_tensor_grid_csv, write_tensor_series_csv

    values = [-0.0, 5e-324, 1e300]
    tensor = np.zeros((1, 3, 3), dtype=complex)
    tensor[0, 0, 0] = complex(-0.0, 5e-324)
    tensor[0, 2, 2] = complex(1e300, -0.0)
    entries = ["0"] * 18
    entries[0:2] = [format(-0.0, ".17g"), format(5e-324, ".17g")]
    entries[16:18] = [format(1e300, ".17g"), format(-0.0, ".17g")]
    grid = ",".join(format(x, ".17g") for x in values)
    assert grid == "-0,4.9406564584124654e-324,1.0000000000000001e+300"

    write_tensor_series_csv(tmp_path / "s.csv", "t", np.array([-0.0]), tensor)
    assert (tmp_path / "s.csv").read_bytes().split(b"\n")[1] == ",".join(["-0"] + entries).encode()
    write_tensor_grid_csv(tmp_path / "g.csv", ("a", "b"), (np.array([5e-324]), np.array([1e300])),
                          tensor[None])
    row = ",".join([format(5e-324, ".17g"), format(1e300, ".17g")] + entries)
    assert (tmp_path / "g.csv").read_bytes() == ("a,b," + ",".join(TENSOR_HEADER) + "\n"
                                                 + row + "\n").encode()
    write_deviation_csv(tmp_path / "d.csv", "w", np.array([1e300]), np.array([-0.0]))
    assert (tmp_path / "d.csv").read_bytes() == b"w,deviation\n1.0000000000000001e+300,-0\n"


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


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_scenario("[grids]\nk 0,0,1\n")
    assert err.value.line == 2


def test_parse_rejects_key_outside_section():
    with pytest.raises(ParseError):
        parse_scenario("n_t = 100\n")


def test_serialize_round_trip():
    config = parse_scenario(LORENTZ_CFG.replace("PLACEHOLDER", "out"))
    text = serialize_scenario(config)
    again = parse_scenario(text)
    assert serialize_scenario(again) == text


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


def test_cli_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[numerics]\nquad_rtol = -1\n")
    assert main(["verify", "--config", str(cfg)]) == 1


def test_cli_missing_config_exit_code(tmp_path):
    assert main(["verify", "--config", str(tmp_path / "missing.cfg")]) == 3


def test_cli_invert_chi_not_psd_exit_code(tmp_path):
    # a PSD-violating dissipation target must exit 2 with provenance
    rows = ["omega,kmag," + ",".join(
        f"{p}_{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3) for p in ("re", "im")
    )]
    for w in (0.5, 1.0, 2.0):
        for km in (0.5, 2.0):
            tensor = -0.5 * np.eye(3)  # negative-definite target
            cells = [str(w), str(km)]
            for i in range(3):
                for j in range(3):
                    cells += [str(float(tensor[i, j])), "0.0"]
            rows.append(",".join(cells))
    table = tmp_path / "target.csv"
    table.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "invert.cfg"
    cfg.write_text(
        f"[medium]\nelectric.target_table = {table}\n"
        "[grids]\nk = 0,0,1\nomega_min = 0.6\nomega_max = 1.8\nn_omega = 5\n"
        f"[output]\ndirectory = {tmp_path / 'out'}\n"
    )
    assert main(["invert-chi", "--config", str(cfg)]) == 2
    payload = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert payload["error"]["type"] == "NotPSD"


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
    # its long horizon; the noise consumers evaluate it on their own grids
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


def test_cli_verify_bundled_gaussian_config(tmp_path, capsys):
    # the Bromwich-line path end to end (continuum-absorption medium)
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "gaussian.cfg")
    code = main(["verify", "--config", config, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 10
    assert "[FAIL]" not in out


def test_cli_verify_bundled_lorentz_config(tmp_path, capsys):
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "lorentz.cfg")
    code = main(["verify", "--config", config, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 13
    assert "[FAIL]" not in out


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


@pytest.mark.parametrize("section, line", [
    ("grids", "commutator_t = 0,x"),
    ("numerics", "seed = -3"),
    ("numerics", "quad_max_order = 100"),
])
def test_cli_bad_config_value_exits_before_any_stage(tmp_path, capsys, section, line):
    out_dir = tmp_path / "out"
    text = LORENTZ_CFG.replace("PLACEHOLDER", str(out_dir)) + f"\n[{section}]\n{line}\n"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["verify", "--config", str(cfg)]) == 1
    key = line.split(" = ")[0]
    assert f"config error: key '{key}'" in capsys.readouterr().err
    assert not out_dir.exists()
