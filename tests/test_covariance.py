"""Dimensional covariance of a whole run. Every check value is
dimensionless, so it must not move when every frequency of a config is
scaled by Omega and every time by 1 / Omega (k by Omega, a length by
1 / Omega), nor when the config is read in SI at an optical Omega (k by
Omega / c, a length by c / Omega). The run at Omega = 1 is the reference.

Each CSV must equal the reference's after the known power of Omega of its
grid columns and of its tensor columns, and in SI after the power of hbar,
c, eps0 and mu0 that `_FAMILIES` states for its family. That table is
written here, apart from the program's, so the SI outputs check the map
from natural units against an independent statement of it.

The numerical modules run in natural units only: none of them names the
constants of a unit system, so the map stays at the config/output boundary
(`scenario`)."""

import ast
import functools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import write_table_csv
from mqed import PhysicalConstants
from mqed.couplings import eval_coupling_batch, gaussian_anisotropic
from mqed.errors import NumericalError
from mqed.scenario import parse_scenario, run_scenario

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
_NUMERICAL = ("response", "modes", "noise", "observables", "couplings", "conductor")
SI = PhysicalConstants.si()
# the medium parameters that are frequencies, and the one that is a length
_FREQUENCIES = ("strength", "resonance", "width", "center", "omega_max")
_LENGTH = "correlation_length"
# file prefix -> (Omega power of each grid column, Omega power of the tensor
# columns, SI powers of hbar, c, eps0, mu0 of the tensor columns); the
# longer of two matching prefixes is listed first
_FAMILIES = {
    "chi_": ((-1,), 1, (0, 0, 0, 0)),
    "spectrum_": ((1,), 0, (0, 0, 0, 0)),
    "noise_P": ((1,), 0, (1, 0, 1, 0)),
    "noise_M": ((1,), 0, (1, 0, 0, -1)),
    "modes_gamma_tilde": ((-1,), 0, (0, 1, 0, 0)),
    "modes_gamma": ((-1,), 0, (0, 0, -1, 0)),
    "modes_xi_tilde": ((-1,), 0, (0, 0, 0, -1)),
    "modes_xi": ((-1,), 0, (0, 1, 0, 0)),
    "modes_zeta_tilde": ((1, -1), -1, (0.5, 1.5, 0, -0.5)),
    "modes_zeta": ((1, -1), -1, (0.5, 2.5, 0, 0.5)),
    "modes_eta_tilde": ((1, -1), -1, (0.5, 2.5, 0.5, 0)),
    "modes_eta": ((1, -1), -1, (0.5, 1.5, -0.5, 0)),
    "commutator_equal_time": ((-1,), 1, (1, 1, 0, 0)),
    "conductor_gamma": ((-1,), 0, (0, 0, -1, 0)),
}
# a check value is an error measure: it must agree with the reference to
# _CHECK_RTOL of itself, plus _CHECK_FLOOR of its tolerance for the part of
# it that is rounding (fdt and roundtrip read 1e-16 on rational parts)
_CHECK_RTOL, _CHECK_FLOOR = 1e-4, 1e-7
# a CSV's columns agree to this fraction of their largest entry: rounding,
# times the conditioning of the solves (1.6e-13 measured)
_CSV_RTOL = 1e-11
# the free-space run's config, whose one scale is |k|
_VACUUM = "[grids]\nk = 0,0,1.3\n"
# scale -> (Omega, SI constants or None)
_SCALES = {"1e-3": (1e-3, None), "1e3": (1e3, None), "si": (1e15, SI)}


def _scaled(config, omega: float, constants):
    """The config with every frequency times omega and every time over it;
    k times omega and a length over it in natural units, k times omega / c
    and a length times c / omega in SI."""
    c = 1.0 if constants is None else constants.c
    medium = {}
    for key, value in config.medium.items():
        param = key.partition(".")[2]
        if param in _FREQUENCIES:
            value = value * omega
        elif param == _LENGTH:
            value = value * c / omega
        medium[key] = value
    grids = dict(config.grids)
    for key in ("omega_min", "omega_max", "reservoir_cutoff"):
        grids[key] = grids[key] * omega
    grids["t_max"] = grids["t_max"] / omega
    grids["commutator_t"] = tuple(t / omega for t in grids["commutator_t"])
    grids["k"] = [tuple(x * omega / c for x in k) for k in grids["k"]]
    return replace(config, medium=medium, grids=grids)


def _config(name: str):
    return parse_scenario(_VACUUM if name == "vacuum" else (CONFIGS / f"{name}.cfg").read_text())


@functools.cache
def _run(name: str, scale: str, out: Path):
    """The verify run of configs/<name>.cfg, or of the vacuum, at `scale`
    ("1" for the reference): its checks by name and its output directory,
    or the NumericalError that ended it."""
    config = _config(name)
    constants = None
    if scale != "1":
        omega, constants = _SCALES[scale]
        config = _scaled(config, omega, constants)
    directory = out / f"{name}_{scale}"
    try:
        manifest = run_scenario(config, out_dir=directory,
                                **({} if constants is None else {"constants": constants}))
    except NumericalError as exc:
        return exc, directory
    return {check["name"]: check for check in manifest.checks}, directory


def _family(name: str):
    return next(row for prefix, row in _FAMILIES.items() if name.startswith(prefix))


def _csv_gap(ref: Path, got: Path, omega: float, constants) -> float:
    """The worst disagreement of the scaled reference CSV with `got`, each
    column group relative to its largest entry; a deviation column (noise,
    commutators), an error measure, is compared absolutely."""
    grid_powers, power, si_powers = _family(ref.name)
    a = np.loadtxt(ref, delimiter=",", skiprows=1, ndmin=2)
    b = np.loadtxt(got, delimiter=",", skiprows=1, ndmin=2)
    assert a.shape == b.shape
    factor = omega**power
    if constants is not None:
        units = (constants.hbar, constants.c, constants.eps0, constants.mu0)
        factor *= float(np.prod([u**p for u, p in zip(units, si_powers)]))
    n = len(grid_powers)
    deviation = ref.name.startswith(("noise_", "commutator_"))
    groups = [(a[:, j] * omega**p, b[:, j], None) for j, p in enumerate(grid_powers)]
    groups.append((a[:, n + deviation:] * factor, b[:, n + deviation:], None))
    if deviation:
        groups.append((a[:, n], b[:, n], 1.0))
    return max(float(np.max(np.abs(y - x))) / (scale or float(np.max(np.abs(x))) or 1.0)
               for x, y, scale in groups)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("covariance")


@pytest.mark.parametrize("scale", list(_SCALES))
@pytest.mark.parametrize("name", ["lorentz", "gaussian", "conductor", "vacuum"])
def test_verify_is_covariant(name, scale, out):
    """Every check value of the scaled run agrees with the reference's and
    every CSV maps onto the reference's."""
    reference, ref_dir = _run(name, "1", out)
    got, got_dir = _run(name, scale, out)
    assert not isinstance(got, NumericalError), f"{type(got).__name__}: {got}"
    assert list(got) == list(reference)
    disagree = {}
    for check, ref in reference.items():
        value, want = got[check]["max_error"], ref["max_error"]
        if not abs(value - want) <= _CHECK_RTOL * abs(want) + _CHECK_FLOOR * ref["tolerance"]:
            disagree[check] = (want, value)
    assert not disagree
    # a value above rounding at Omega = 1 never reads exactly 0 here
    assert not [check for check, ref in reference.items()
                if ref["max_error"] != 0.0 and got[check]["max_error"] == 0.0]
    omega, constants = _SCALES[scale]
    csvs = sorted(ref_dir.glob("*.csv"))
    assert [p.name for p in csvs] == sorted(p.name for p in got_dir.glob("*.csv"))
    gaps = {p.name: _csv_gap(p, got_dir / p.name, omega, constants) for p in csvs}
    assert max(gaps.values()) <= _CSV_RTOL, {n: g for n, g in gaps.items() if g > _CSV_RTOL}
    # a JSON report's k is the config's
    c = 1.0 if constants is None else constants.c
    want = np.array(_config(name).grids["k"][0])
    got_k = json.loads((got_dir / "commutator_equal_time_k0.json").read_text())["k"]
    assert np.max(np.abs(np.array(got_k) - want * omega / c)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("module", _NUMERICAL)
def test_numerical_module_names_no_unit_system(module):
    """No PhysicalConstants, no NATURAL, and no `constants` parameter or
    attribute in a numerical module."""
    tree = ast.parse((ROOT / "src" / "mqed" / f"{module}.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        names = {getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "name", None) if isinstance(node, ast.alias) else None}
        if names & {"PhysicalConstants", "NATURAL"}:
            found.append(f"line {node.lineno}: {names - {None}}")
        if isinstance(node, ast.arg) and node.arg == "constants" or \
                isinstance(node, ast.Attribute) and node.attr == "constants":
            found.append(f"line {node.lineno}: constants")
    assert not found


def test_si_reads_a_tabulated_part_in_si_units(tmp_path):
    """A tabulated part's |k| axis is read in 1/m and its couplings in the
    SI unit of f (g): the tables of a natural config, mapped to SI with the
    config's k, give the same mode coefficients after their factors, and
    the same checks."""
    omegas = np.linspace(0.0, 6.0, 61)
    f = eval_coupling_batch(gaussian_anisotropic((1.0, 0.7, 0.4), 1.0), omegas, (0.0, 0.0, 1.0))
    units = (SI.hbar, SI.c, SI.eps0, SI.mu0)
    texts = {}
    for label, c, scale in (("natural", 1.0, {"electric": 1.0, "magnetic": 1.0}),
                            ("si", SI.c, {part: float(np.prod([u**p for u, p in zip(
                                units, powers)])) for part, powers in
                                (("electric", (0.5, 1.5, 0.5, 0)),
                                 ("magnetic", (0.5, 1.5, 0, -0.5)))})):
        lines = ["[medium]"]
        for part in ("electric", "magnetic"):
            table = write_table_csv(tmp_path / f"{label}_{part}.csv", omegas,
                                    (0.0, 10.0 / c), scale[part] * f[:, None])
            lines += [f"{part}.kind = tabulated", f"{part}.table = {table}"]
        lines += ["[grids]", f"k = 0,0,{1.3 / c!r}", "t_max = 2", "commutator_t = 0,1",
                  "reservoir_order = 16", "[numerics]", "quad_rtol = 1e-5"]
        texts[label] = "\n".join(lines) + "\n"
    runs = {label: run_scenario(parse_scenario(text), out_dir=tmp_path / label, stages=("modes",),
                                **({"constants": SI} if label == "si" else {}))
            for label, text in texts.items()}
    for check, want in zip(runs["si"].checks, runs["natural"].checks):
        assert check["name"] == want["name"]
        assert abs(check["max_error"] - want["max_error"]) <= \
            _CHECK_RTOL * want["max_error"] + _CHECK_FLOOR * want["tolerance"], check["name"]
    csvs = sorted((tmp_path / "natural").glob("*.csv"))
    assert len(csvs) == 8
    for path in csvs:
        assert _csv_gap(path, tmp_path / "si" / path.name, 1.0, SI) <= _CSV_RTOL, path.name
