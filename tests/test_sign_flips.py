"""The sign-flip map: on a medium whose parts all declare the eight flips R
= diag(+-1, +-1, +-1) their symmetry, the representation at R k mapped
from the one at k (`observables.sign_flipped`) is the solve at R k bit for
bit, and a run solves each orbit of its k list once."""

import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import gaussian_response, random_orthogonal_gauge, write_table_csv
from mqed import io, modes, observables
from mqed.couplings import (_KINDS, apply_gauge, eval_coupling_batch, gaussian_anisotropic,
                            lorentz_isotropic, tabulated_from_csv, zero_coupling)
from mqed.observables import field_representation, sign_flipped
from mqed.quadrature import gauss_legendre
from mqed.response import LaplaceResponse, laplace_response
from mqed.scenario import parse_scenario, run_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FLIPS = [np.array(flip) for flip in itertools.product((1.0, -1.0), repeat=3)]


def _config(name: str, **grids):
    """The bundled config `name` with the [grids] keys it sets to `grids`."""
    text = (CONFIGS / name).read_text(encoding="utf-8")
    for key, value in grids.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.MULTILINE)
    return text


def _bundled_response(name, parts):
    config = parse_scenario(_config(name))
    return laplace_response(*(config.model(part) for part in parts),
                            horizon=config.grids["t_max"], omega_top=50.0)


def _assert_same(got, want):
    assert np.array_equal(got.k, want.k) and np.array_equal(got.t_grid, want.t_grid)
    for name in (*observables._PARITY, "f_q", "g_q"):
        assert np.array_equal(getattr(got.coeffs, name), getattr(want.coeffs, name)), name
    for name in ("photon_E", "photon_H"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# (medium, k, t grid, reservoir rule): lorentz.cfg's medium on the rational
# route at a k with no zero component; gaussian.cfg's part in the magnetic
# sector (zeta and zeta-tilde nonzero) on the line's panel sums; the same
# part in its own sector on a Maxwell-like grid (one chirp-z line sum, the
# direct sums over two nodes); conductor.cfg's combined medium
_CASES = {
    "lorentz": (lambda: _bundled_response("lorentz.cfg", ("electric", "magnetic")),
                (0.3, -0.4, 1.2), np.linspace(0.0, 10.0, 81), gauss_legendre(64, 0.0, 50.0)),
    "gaussian_magnetic": (lambda: gaussian_response("magnetic"), (0.4, -0.3, 1.1),
                          np.linspace(0.0, 8.0, 81), gauss_legendre(96, 0.0, 50.0)),
    "gaussian_maxwell": (lambda: gaussian_response("electric"), (0.4, -0.3, 1.1),
                         np.linspace(0.0, 8.0, 1201), (np.array([0.8, 4.2]), np.array([0.3, 0.2]))),
    "conductor": (lambda: _bundled_response("conductor.cfg", ("electric", "conductor", "magnetic")),
                  (0.3, -0.4, 1.2), np.linspace(0.0, 10.0, 81), gauss_legendre(64, 0.0, 50.0)),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_mapped_representation_is_the_solve_at_every_flip(case):
    build, k, t, (nodes, weights) = _CASES[case]
    response = build()
    assert response.sign_flip_symmetric
    k = np.array(k)
    rep = field_representation(response, k, t, nodes, weights)
    if case == "gaussian_magnetic":
        assert np.any(rep.coeffs.zeta) and np.any(rep.coeffs.zeta_tilde)
    for flip in FLIPS:
        got = sign_flipped(rep, flip)
        want = field_representation(response, flip * k, t, nodes, weights)
        _assert_same(got, want)
        if case == "gaussian_maxwell":  # the kernels the Maxwell residual reads
            assert np.array_equal(got.chi_e, want.chi_e)
            assert np.array_equal(got.chi_m, want.chi_m)


def test_each_kind_declares_whether_the_flips_are_its_symmetry():
    assert {name for name, kind in _KINDS.items() if kind.sign_flips} == {
        "zero", "lorentz_isotropic", "drude", "gaussian_anisotropic"}


def test_a_gauged_or_tabulated_medium_never_maps(tmp_path):
    part = gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.8)
    gauge = random_orthogonal_gauge(np.random.default_rng(3))
    omegas = np.linspace(0.0, 6.0, 61)
    f = eval_coupling_batch(part, omegas, (0.0, 0.0, 1.0))
    table = write_table_csv(tmp_path / "table.csv", omegas, (0.0, 10.0), f[:, None])
    for medium in ((apply_gauge(part, gauge),), (tabulated_from_csv(table),),
                   (lorentz_isotropic(1.0, 1.0, 0.5), apply_gauge(zero_coupling("magnetic"), gauge))):
        assert not laplace_response(*medium).sign_flip_symmetric
    assert laplace_response(part, lorentz_isotropic(0.8, 1.4, 0.6, "magnetic")).sign_flip_symmetric
    # a run on the table at two flips of one k solves at each
    text = f"[medium]\nelectric.kind = tabulated\nelectric.table = {table}\n" \
           "[grids]\nk = 0.3,-0.4,1.2; -0.3,-0.4,1.2\nt_max = 2\ncommutator_t = 0,1\n" \
           "reservoir_order = 16\n"
    manifest = run_scenario(parse_scenario(text), out_dir=str(tmp_path / "out"), stages=("modes",))
    assert all("reused" not in manifest.quadrature[f"modes_k{i}"] for i in (0, 1))


def _counted_run(monkeypatch, text, out, stages):
    """The manifest of a run of the config `text` and the k of each mode solve."""
    solved = []
    solve = modes._solve
    monkeypatch.setattr(modes, "_solve", lambda *args: solved.append(list(args[1])) or solve(*args))
    manifest = run_scenario(parse_scenario(text), out_dir=str(out), stages=stages)
    monkeypatch.setattr(modes, "_solve", solve)
    return manifest, solved


def _defeat_the_map(monkeypatch):
    monkeypatch.setattr(LaplaceResponse, "sign_flip_symmetric", property(lambda self: False))


def _formatted_run(monkeypatch, text, out, stages):
    """_counted_run, and the number of values the CSV writer formatted."""
    formatted = []
    cells = io._nonzero_cells
    monkeypatch.setattr(io, "_nonzero_cells", lambda x: formatted.append(x.size) or cells(x))
    manifest, solved = _counted_run(monkeypatch, text, out, stages)
    monkeypatch.setattr(io, "_nonzero_cells", cells)
    return manifest, solved, sum(formatted)


def _assert_same_outputs(mapped, unmapped, tmp_path):
    """Both runs wrote the same files, byte for byte, and each manifest
    lists the files of its run, each once."""
    names = sorted(path.name for path in (tmp_path / "solved").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "mapped").iterdir())
    for manifest in (mapped, unmapped):
        assert sorted(manifest.outputs) == names
    for name in names:
        if name != "manifest.json":
            assert (tmp_path / "mapped" / name).read_bytes() == \
                (tmp_path / "solved" / name).read_bytes(), name


def test_a_four_flip_modes_run_solves_once(monkeypatch, tmp_path):
    # gaussian-modes-sweep's k list: four sign flips of gaussian.cfg's k
    text = _config("gaussian.cfg", k="0.4,-0.3,1.1; 0.4,-0.3,-1.1; 0.4,0.3,1.1; 0.4,0.3,-1.1")
    manifest, solved, formatted = _formatted_run(monkeypatch, text, tmp_path / "mapped",
                                                 ("modes",))
    assert solved == [[0.4, -0.3, 1.1]]
    records = manifest.quadrature
    assert "reused" not in records["modes_k0"]
    assert records["modes_k1"]["reused"] == {"from": "k0", "sign_flip": [1, 1, -1]}
    assert records["modes_k3"]["reused"] == {"from": "k0", "sign_flip": [1, -1, -1]}
    assert {key: value for key, value in records["modes_k2"].items() if key != "reused"} \
        == records["modes_k0"]
    # the same run with the map defeated solves at each k, to the same
    # bytes, and formats each family's values at each k: the mapped run
    # formats them once, at k0, and writes the other k from its cells
    _defeat_the_map(monkeypatch)
    unmapped, solved, solved_formatted = _formatted_run(monkeypatch, text, tmp_path / "solved",
                                                        ("modes",))
    assert len(solved) == 4
    assert formatted > 0 and solved_formatted == 4 * formatted
    assert len(manifest.outputs) == 33  # 8 families at 4 k, and the manifest
    _assert_same_outputs(manifest, unmapped, tmp_path)


def test_interleaved_orbits_write_the_bytes_of_their_solves(monkeypatch, tmp_path):
    # lorentz.cfg's medium at two orbits in turn, one k repeated (the flip
    # I) and one with a zero component, which maps with R_ii = +1; the k
    # with -0 in its place is an orbit of its own
    text = _config("lorentz.cfg", reservoir_order="32",
                   k="0.3,-0.4,1.2; 0,0.5,0.9; -0.3,-0.4,-1.2; 0.3,-0.4,1.2; 0,-0.5,0.9; "
                     "-0,0.5,0.9")
    mapped, solved = _counted_run(monkeypatch, text, tmp_path / "mapped", ("modes",))
    assert solved == [[0.3, -0.4, 1.2], [0.0, 0.5, 0.9], [-0.0, 0.5, 0.9]]
    assert {key: record.get("reused") for key, record in mapped.quadrature.items()} == {
        "modes_k0": None, "modes_k1": None,
        "modes_k2": {"from": "k0", "sign_flip": [-1, 1, -1]},
        "modes_k3": {"from": "k0", "sign_flip": [1, 1, 1]},
        "modes_k4": {"from": "k1", "sign_flip": [1, -1, 1]}, "modes_k5": None}
    _defeat_the_map(monkeypatch)
    unmapped, solved = _counted_run(monkeypatch, text, tmp_path / "solved", ("modes",))
    assert len(solved) == 6 and len(mapped.outputs) == 49
    _assert_same_outputs(mapped, unmapped, tmp_path)


def test_a_run_keeps_an_orbit_only_while_a_later_k_is_in_it(monkeypatch, tmp_path):
    # lorentz.cfg's medium through the commutators: k0 and k2 are one orbit
    # (det R = -1), and k1, a permutation of k0, is its own; the modes grid
    # and the Maxwell grid each solve once per orbit, and every check reads
    # as with the map defeated
    text = _config("lorentz.cfg", reservoir_order="32",
                   k="0.3,-0.4,1.2; 0.4,0.3,1.2; -0.3,-0.4,1.2")
    mapped, solved = _counted_run(monkeypatch, text, tmp_path / "mapped", ("commutators",))
    assert solved == [[0.3, -0.4, 1.2]] * 2 + [[0.4, 0.3, 1.2]] * 2
    reused = {"from": "k0", "sign_flip": [-1, 1, 1]}
    assert mapped.quadrature["modes_k2"]["reused"] == reused
    details = {c["name"]: c.get("details", {}) for c in mapped.checks}
    assert details["maxwell_residual_k2"]["reused"] == reused
    assert "reused" not in details["maxwell_residual_k1"]
    _defeat_the_map(monkeypatch)
    unmapped, solved = _counted_run(monkeypatch, text, tmp_path / "solved", ("commutators",))
    assert len(solved) == 6
    assert [(c["name"], c["max_error"]) for c in mapped.checks] == \
        [(c["name"], c["max_error"]) for c in unmapped.checks]
    for name in ("commutator_equal_time_k2.csv", "modes_eta_k2.csv"):
        assert (tmp_path / "mapped" / name).read_bytes() == (tmp_path / "solved" / name).read_bytes()
    report = json.loads((tmp_path / "mapped" / "commutator_equal_time_k2.json").read_text())
    assert report["k"] == [-0.3, -0.4, 1.2]
