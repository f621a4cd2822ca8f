"""The working set of a run stays bounded: a kernel on a long grid holds at
most two tables of the element budget (`response._TABLE_ELEMENTS` complex
values) beside its outputs, and `run_scenario` frees each stage's products
after the last check that reads them. The peaks are what numpy and Python
allocate, traced by tracemalloc, so they depend neither on the allocator nor
on the machine."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mqed.response
import mqed.scenario
from mqed.cli import _STAGES
from mqed.couplings import gaussian_anisotropic, zero_coupling
from mqed.io import write_tensor_grid_csv
from mqed.modes import _chirp_z, _line_mode_path, bromwich_line
from mqed.observables import (constitutive_roundtrip, field_representation, maxwell_residual,
                              reservoir_picks)
from mqed.quadrature import gauss_legendre
from mqed.response import _angle_table, _fft_size, check_grid, laplace_response
from mqed.scenario import _MAXWELL_KAPPA, _steps, parse_scenario, part_kernel, run_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# every part, so each stage has something to build and check, at two k
ALL_PARTS_CFG = """
[medium]
electric.kind = lorentz_isotropic
electric.strength = 1.0
electric.resonance = 1.0
electric.width = 0.5
magnetic.kind = lorentz_isotropic
magnetic.strength = 0.5
magnetic.resonance = 1.4
magnetic.width = 0.6
conductor.kind = drude
conductor.strength = 0.5
conductor.width = 0.5

[grids]
k = 0,0,1; 0.6,0.8,0
n_omega = 40
n_t = 401
t_max = 4.0
commutator_t = 0,1,4
reservoir_order = 16
"""


def _traced_peak_mb(call) -> float:
    """The most memory allocated at once while call() runs, above what was
    allocated before it, in MB."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        if not tracing:
            tracemalloc.stop()


def _nbytes(value) -> int:
    """The bytes of the arrays in value (an array, or a tuple or dict of
    them), each counted by the array that owns its memory."""
    if isinstance(value, np.ndarray):
        return (value if value.base is None else value.base).nbytes
    if isinstance(value, dict):
        value = list(value.values())
    return sum(map(_nbytes, value)) if isinstance(value, (tuple, list)) else 0


def _tables_beside_outputs(call) -> float:
    """The traced peak of call() less the arrays it returns, in tables of
    `_TABLE_ELEMENTS` complex values."""
    results = []
    peak = _traced_peak_mb(lambda: results.append(call()))
    return (peak * 1e6 - _nbytes(results[0])) / (16 * mqed.response._TABLE_ELEMENTS)


def test_chirp_z_line_sum_holds_two_tables(monkeypatch):
    # 36 columns in chunks of 8, each chunk's buffer 0.94 of a table: the
    # padded columns and their transform, the one beside the other (2.8 when
    # the transform, its inverse and the folded rows were held at once)
    t = np.linspace(0.0, 4.0, 3001)
    rho = 0.4 + 1j * np.linspace(-40.0, 40.0, 1201)
    size = _fft_size(t.size + rho.size - 1)
    monkeypatch.setattr(mqed.response, "_TABLE_ELEMENTS", 8 * size + size // 2)
    cols = np.exp(-np.abs(rho.imag))[:, None] * np.linspace(1.0, 2.0, 36)
    out = np.empty((t.size, 36), dtype=complex)
    line_sum = _chirp_z(t, t[1], rho)
    assert _tables_beside_outputs(lambda: line_sum(cols, out)) <= 2.0


def test_angle_table_holds_two_tables_beside_its_outputs(monkeypatch):
    # the oscillator ladder's form (sine and cosine blocks) on the round
    # trip's 3,001 points: two node chunks of 2,383, their (R, n) sine and
    # cosine tables one table together, and one bracket of 0.49 of a table
    # at a time (4.3 with the whole node axis in one chunk, all its angle
    # shifts and both brackets beside each other)
    monkeypatch.setattr(mqed.response, "_TABLE_ELEMENTS", 1 << 17)
    t = np.linspace(0.0, 20.0, 3001)
    x, w = gauss_legendre(4096, 0.0, 30.0)
    rng = np.random.default_rng(4)
    sin_block, cos_block = (w[:, None] * rng.normal(size=(x.size, 6)) for _ in range(2))
    assert _tables_beside_outputs(lambda: _angle_table(t, x, sin_block, cos_block)) <= 2.0


@pytest.mark.parametrize("form", ["sin", "cos"])
@pytest.mark.parametrize("budget, order", [(None, 8192), (1 << 16, 2048)])
def test_one_column_angle_table_holds_two_tables(monkeypatch, form, budget, order):
    # an isotropic kernel's (or Q's) one-column block on 3,001 points, its
    # node chunk and group chunk each filling a table: each bracket's angle
    # shift is built for it alone, and in place into it (2.16 and 2.59 tables
    # with both shifts beside each bracket)
    if budget is not None:
        monkeypatch.setattr(mqed.response, "_TABLE_ELEMENTS", budget)
    t = np.linspace(0.0, 20.0, 3001)
    x, w = gauss_legendre(order, 0.0, 30.0)
    block = (w * x**2 * np.exp(-(x**2)))[:, None]
    blocks = (block, None) if form == "sin" else (None, block)
    assert _tables_beside_outputs(lambda: _angle_table(t, x, *blocks)) <= 2.0


def test_line_mode_path_holds_two_tables_beside_its_outputs(monkeypatch):
    # a 1,501-point Maxwell-like grid of the gaussian medium on its line of
    # 594 points, with the 36 line columns in one table: 5.1 tables when
    # the line sums, the reservoir sums of every block and the vacuum
    # transforms were held beside each other. Beside them a block's
    # (n_q, n_t, 9) sums stay: on 96 nodes at the default budget that is 3.9
    # tables, 6.1 when the tail was added through an outer-product temporary
    # of the same size
    model = gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.8)
    response = laplace_response(model, zero_coupling("magnetic"), horizon=2.0)
    k = np.array([0.4, -0.3, 1.1])
    t = np.linspace(0.0, 2.0, 1501)
    n_y = bromwich_line(response, k).rho.size
    size = _fft_size(t.size + n_y - 1)
    monkeypatch.setattr(mqed.response, "_TABLE_ELEMENTS", 36 * size + size // 2)
    nodes, _ = gauss_legendre(16, 0.0, 5.0)
    omega_q = nodes[reservoir_picks(nodes.size, 2)]
    assert n_y == 594
    assert _tables_beside_outputs(
        lambda: _line_mode_path(response, ("eh", "hh"), k, t, omega_q)) <= 2.0
    monkeypatch.undo()
    nodes, _ = gauss_legendre(96, 0.0, 5.0)
    assert _tables_beside_outputs(
        lambda: _line_mode_path(response, ("eh", "hh"), k, t, nodes)) <= 4.0


def test_panel_reservoir_sums_hold_two_tables_beside_their_outputs():
    # gaussian.cfg's medium and k on its modes grid (81 times, 96 reservoir
    # nodes, panels of order 11) on its line of 2,374 points, at the default
    # budget: the panel columns of the eh and hh blocks (2,374 x 198, 0.9 of
    # a table together) are built one block at a time, in node groups of one
    # table, beside the 81-row phase table
    model = gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.8)
    response = laplace_response(model, zero_coupling("magnetic"), horizon=8.0, omega_top=50.0)
    k = np.array([0.4, -0.3, 1.1])
    t = np.linspace(0.0, 8.0, 81)
    assert bromwich_line(response, k).rho.size == 2374
    nodes, _ = gauss_legendre(96, 0.0, 50.0)
    assert _line_mode_path(response, ("eh", "hh"), k, t, nodes)[2]["reservoir_sums"] == "panels"
    assert _tables_beside_outputs(
        lambda: _line_mode_path(response, ("eh", "hh"), k, t, nodes)) <= 2.0


def test_field_representation_on_the_gaussian_modes_grid_stays_bounded():
    # gaussian.cfg's medium and k on its modes grid (81 times, 96 reservoir
    # nodes), its Bromwich line of 2,374 points built in the call: 80 MB
    # when each reservoir chunk of the line sums was a 32 MB table built
    # beside the last one, 16.7 MB when the Laplace representation kept all
    # 512 nodes and the panel order took the top frequency on every line
    # column (21 where the weighted columns need 11)
    model = gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.8)
    response = laplace_response(model, zero_coupling("magnetic"), horizon=8.0)
    nodes, weights = gauss_legendre(96, 0.0, 50.0)
    t = np.linspace(0.0, 8.0, 81)
    peak = _traced_peak_mb(lambda: field_representation(
        response, np.array([0.4, -0.3, 1.1]), t, nodes, weights))
    assert response.lines[(0.4, -0.3, 1.1)].metadata["line_points"] == 2374
    assert peak <= 14.5


def _lorentz_config():
    """lorentz.cfg, its medium (rational, so the mode solver takes the exact
    path) and its one k."""
    config = parse_scenario((CONFIGS / "lorentz.cfg").read_text(encoding="utf-8"))
    response = laplace_response(config.model("electric"),
                                config.model("magnetic"), quad=config.quadrature())
    return config, response, config.k_list()[0]


def _maxwell_grid(config, k, nodes) -> np.ndarray:
    """The Maxwell grid `run_scenario` sizes for k and the sampled nodes."""
    t_max = config.grids["t_max"]
    rate = float(np.linalg.norm(k)) + float(np.max(nodes))
    return np.linspace(0.0, t_max, _steps("Maxwell", t_max, _MAXWELL_KAPPA / rate) + 1)


def test_maxwell_representation_of_the_lorentz_config_stays_bounded():
    # lorentz.cfg's Maxwell grid (4,351 points) on the two sampled reservoir
    # nodes, as its commutators stage builds and checks it: 40.3 MB on the
    # 8,001 points it had when the representation held six (3, n_q, n_t, 3)
    # channel arrays beside the mode families they were formed from
    config, response, k = _lorentz_config()
    cutoff = 5.0 * max(part.frequency_scale for part in response.medium)
    nodes, weights = gauss_legendre(16, 0.0, cutoff)
    picks = reservoir_picks(nodes.size, 2)
    t = _maxwell_grid(config, k, nodes[picks])
    reports = []
    peak = _traced_peak_mb(lambda: reports.append(maxwell_residual(
        field_representation(response, k, t, nodes[picks], weights[picks]))))
    assert t.size == 4351 and reports[0].max_residual <= 1e-6
    assert peak <= 20.0


def test_modes_representation_of_the_lorentz_config_stays_bounded():
    # lorentz.cfg's modes grid (81 times, 256 reservoir nodes): 33.3 MB when
    # the whole transforms of the mode solver lived beside the families
    # copied out of them, and the channels beside both
    config, response, k = _lorentz_config()
    nodes, weights = gauss_legendre(int(config.grids["reservoir_order"]), 0.0,
                                    config.grids["reservoir_cutoff"])
    t = np.linspace(0.0, config.grids["t_max"], 81)
    peak = _traced_peak_mb(lambda: field_representation(response, k, t, nodes, weights))
    assert nodes.size == 256
    assert peak <= 20.0


def _gaussian_config():
    """gaussian.cfg, its medium bounded as `run_scenario` bounds it (the
    horizon and top reservoir frequency of its grids fix the line) and its
    one k."""
    config = parse_scenario((CONFIGS / "gaussian.cfg").read_text(encoding="utf-8"))
    grids = config.grids
    model = config.model("electric")
    response = laplace_response(model, config.model("magnetic"),
                                quad=config.quadrature(),
                                horizon=grids["t_max"],
                                omega_top=max(grids["reservoir_cutoff"],
                                              5.0 * model.frequency_scale))
    return config, response, config.k_list()[0]


def test_maxwell_representation_of_the_gaussian_config_stays_bounded():
    # gaussian.cfg's Maxwell grid (2,605 points) on the two sampled
    # reservoir nodes, its line of 2,374 points built in the call: 33.0 MB
    # on the 6,001 points it had when the line sums, the reservoir sums, the
    # vacuum transforms and three FFT tables of the chirp-z sums were alive
    # at once
    config, response, k = _gaussian_config()
    nodes, weights = gauss_legendre(16, 0.0, 5.0 * response.medium[0].frequency_scale)
    picks = reservoir_picks(nodes.size, 2)
    t = _maxwell_grid(config, k, nodes[picks])
    reports = []
    peak = _traced_peak_mb(lambda: reports.append(maxwell_residual(
        field_representation(response, k, t, nodes[picks], weights[picks]))))
    assert t.size == 2605 and reports[0].max_residual <= 1e-6
    assert response.lines[tuple(k)].metadata["line_points"] == 2374
    assert peak <= 16.0


def test_constitutive_roundtrip_of_the_gaussian_config_stays_bounded():
    # gaussian.cfg's kernel on its run's horizon and the round trip on the
    # checks' grid (3,001 points): 15.8 MB when the representation kept all
    # 4,880 trapezoid nodes, 4,246 of which carry no weight, each driven as
    # an oscillator on the whole grid
    config, _, k = _gaussian_config()
    model = config.model("electric")
    kernel = part_kernel(model, k, None, config.quadrature())
    assert (kernel.quad.order, kernel.quad.kept) == (4880, kernel.rep.nodes.size)
    peak = _traced_peak_mb(lambda: constitutive_roundtrip(model, kernel, check_grid(model)))
    assert peak <= 6.0


def test_line_build_of_the_gaussian_config_holds_one_table_beside_its_outputs():
    # gaussian.cfg's line at -k (2,374 points, 379 estimate times), built
    # as the line of any k is: 1.32 tables when the two estimates'
    # 81 chirp-z columns were summed at once, beside their two transforms;
    # each column group of one estimate (36 columns) now leaves its peak
    # alone. The stack itself is an output
    _, response, k = _gaussian_config()
    assert _tables_beside_outputs(
        lambda: (lambda line: (line.rho, line.stack))(bromwich_line(response, -k))) <= 1.2
    assert response.lines[tuple(-k)].metadata["line_points"] == 2374


def test_minus_k_solve_at_the_commutator_times_holds_a_fraction_of_a_table():
    # a solve at gaussian.cfg's three commutator times on its line at -k
    # (96 reservoir nodes, direct sums on the built line), the solve the
    # commutators made before they took -k from +k by parity: 1.55 tables
    # when the (n_y, 96) factor table and 24-node scaled columns of 8.2 MB
    # were built for 41 KB of sums per block; a node group now holds no
    # more values than those sums
    config, response, k = _gaussian_config()
    grids = config.grids
    nodes, _ = gauss_legendre(int(grids["reservoir_order"]), 0.0, grids["reservoir_cutoff"])
    t_modes = np.linspace(0.0, grids["t_max"], 81)
    t_set = np.array([t_modes[np.argmin(np.abs(t_modes - ti))] for ti in grids["commutator_t"]])
    bromwich_line(response, -k)
    assert t_set.size == 3 and nodes.size == 96
    assert _tables_beside_outputs(
        lambda: _line_mode_path(response, ("eh", "hh"), -k, t_set, nodes)) <= 0.25


def test_grid_csv_writer_formats_block_by_block(tmp_path):
    # a 144 x 144 grid of tensors (20,736 rows, 3 MB of complex values): 9.0
    # MB when the 18 tensor columns were copied twice, into a Re/Im stack
    # and into one float table of every column, before the first row was
    # formatted
    n = 144
    rng = np.random.default_rng(5)
    tensors = rng.normal(size=(n * n, 3, 3)) + 1j * rng.normal(size=(n * n, 3, 3))
    grid = np.linspace(0.0, 1.0, n)
    path = tmp_path / "grid.csv"
    peak = _traced_peak_mb(lambda: write_tensor_grid_csv(path, ("q", "t"), (grid, grid), tensors))
    assert path.read_bytes().count(b"\n") == n * n + 1
    assert peak <= 4.0


def test_verify_gaussian_config_stays_bounded(tmp_path):
    # 35.0 MB when the Maxwell stage's line path held its line sums,
    # reservoir sums and vacuum transforms at once, and the angle tables
    # of the kernels and the round trip held every bracket and angle shift,
    # 20.8 MB when the -k line build and solve held their 81-column
    # estimates and their factor and scaled tables, 15.8 MB while the
    # commutators still solved -k on a second line
    config = parse_scenario((CONFIGS / "gaussian.cfg").read_text(encoding="utf-8"))
    manifests = []
    peak = _traced_peak_mb(lambda: manifests.append(run_scenario(config, out_dir=str(tmp_path))))
    assert manifests[0].all_passed
    assert peak <= 15.0


def test_verify_lorentz_config_stays_bounded(tmp_path):
    # 75 MB when each stage's products lived into the next stage (the
    # modes-grid representation beside the Maxwell one), 41.4 MB when a
    # field representation held its reservoir channels beside its families,
    # 28.8 MB on a fixed 8,001-point Maxwell grid (21.0 on its sized one),
    # 20.1 MB when the CSV writer copied each tensor array twice
    config = parse_scenario((CONFIGS / "lorentz.cfg").read_text(encoding="utf-8"))
    manifests = []
    peak = _traced_peak_mb(lambda: manifests.append(run_scenario(config, out_dir=str(tmp_path))))
    assert manifests[0].all_passed
    assert peak <= 18.5


@pytest.mark.parametrize("stages", [*_STAGES.values(), ("modes", "commutators")],
                         ids=lambda stages: "+".join(stages))
def test_every_stage_subset_runs_each_k(tmp_path, stages):
    # each stage frees what it built whichever stages ran before it
    manifest = run_scenario(parse_scenario(ALL_PARTS_CFG), out_dir=str(tmp_path), stages=stages)
    ran = [s for s in ("chi", "noise", "modes", "commutators", "conductor") if s in stages]
    assert list(manifest.timings) == [f"{s}_k{ik}" for ik in range(2) for s in ran]
    if mqed.scenario.resource is not None:
        assert list(manifest.peak_rss_mb) == list(manifest.timings)


@pytest.mark.parametrize("name", ["lorentz", "gaussian", "conductor"])
def test_verify_never_loads_numpy_ma(tmp_path, name):
    # numpy.ma (1.7 MB, imported by the first np.unique call) would sit under
    # every later peak of the run; a fresh interpreter shows whether a
    # bundled verify loads it
    code = ("import sys\nfrom mqed.cli import main\n"
            f"main(['verify', '--config', {str(CONFIGS / f'{name}.cfg')!r}, "
            f"'--out', {str(tmp_path)!r}])\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(mqed.response.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=300)
    assert result.stdout.splitlines()[-1] == "False", result.stderr
