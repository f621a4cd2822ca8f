"""The working set of a run stays bounded: a chunk loop holds at most a few
tables of the element budget (`response._TABLE_ELEMENTS`) at a time, and
`run_scenario` frees each stage's products after the last check that reads
them. The peaks are what numpy and Python allocate, traced by tracemalloc,
so they depend neither on the allocator nor on the machine."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mqed.scenario
from mqed.cli import _STAGES
from mqed.couplings import gaussian_anisotropic, zero_coupling
from mqed.observables import field_representation, maxwell_residual, reservoir_picks
from mqed.quadrature import gauss_legendre
from mqed.response import laplace_response
from mqed.scenario import parse_scenario, run_scenario
from mqed.tensors import NATURAL

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
maxwell_n_t = 801
maxwell_t_max = 2.0
reservoir_order = 16
kk_n_omega = 128
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


def test_field_representation_on_the_gaussian_modes_grid_stays_bounded():
    # gaussian.cfg's medium and k on its modes grid (81 times, 96 reservoir
    # nodes), its Bromwich line of 2,374 points built in the call: 80 MB
    # when each reservoir chunk of the line sums was a 32 MB table built
    # beside the last one
    model = gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.8)
    response = laplace_response(model, zero_coupling("magnetic"), horizon=8.0)
    nodes, weights = gauss_legendre(96, 0.0, 50.0)
    t = np.linspace(0.0, 8.0, 81)
    peak = _traced_peak_mb(lambda: field_representation(
        response, np.array([0.4, -0.3, 1.1]), t, nodes, weights))
    assert response.lines[(0.4, -0.3, 1.1)].metadata["line_points"] == 2374
    assert peak <= 40.0


def _lorentz_config():
    """lorentz.cfg, its medium (rational, so the mode solver takes the exact
    path) and its one k."""
    config = parse_scenario((CONFIGS / "lorentz.cfg").read_text(encoding="utf-8"))
    response = laplace_response(config.model("electric", NATURAL),
                                config.model("magnetic", NATURAL), quad=config.quadrature())
    return config, response, config.k_list()[0]


def test_maxwell_representation_of_the_lorentz_config_stays_bounded():
    # lorentz.cfg's Maxwell grid (8,001 points) on the two sampled reservoir
    # nodes, as its commutators stage builds and checks it: 40.3 MB when the
    # representation held six (3, n_q, n_t, 3) channel arrays beside the
    # mode families they were formed from
    config, response, k = _lorentz_config()
    grids = config.grids
    t = np.linspace(0.0, grids["maxwell_t_max"], int(grids["maxwell_n_t"]))
    cutoff = 5.0 * max(response.model_e.frequency_scale, response.model_m.frequency_scale)
    nodes, weights = gauss_legendre(16, 0.0, cutoff)
    picks = reservoir_picks(nodes.size, 2)
    reports = []
    peak = _traced_peak_mb(lambda: reports.append(maxwell_residual(
        field_representation(response, k, t, nodes[picks], weights[picks]))))
    assert t.size == 8001 and reports[0].max_residual <= 1e-5
    assert peak <= 32.0


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


def test_verify_lorentz_config_stays_bounded(tmp_path):
    # 75 MB when each stage's products lived into the next stage (the
    # modes-grid representation beside the Maxwell one), 41.4 MB when a
    # field representation held its reservoir channels beside its families
    config = parse_scenario((CONFIGS / "lorentz.cfg").read_text(encoding="utf-8"))
    manifests = []
    peak = _traced_peak_mb(lambda: manifests.append(run_scenario(config, out_dir=str(tmp_path))))
    assert manifests[0].all_passed
    assert peak <= 36.0


@pytest.mark.parametrize("stages", [*_STAGES.values(), ("modes", "commutators")],
                         ids=lambda stages: "+".join(stages))
def test_every_stage_subset_runs_each_k(tmp_path, stages):
    # each stage frees what it built whichever stages ran before it
    manifest = run_scenario(parse_scenario(ALL_PARTS_CFG), out_dir=str(tmp_path), stages=stages)
    ran = [s for s in ("chi", "noise", "modes", "commutators", "conductor") if s in stages]
    assert list(manifest.timings) == [f"{s}_k{ik}" for ik in range(2) for s in ran]
    if mqed.scenario.resource is not None:
        assert list(manifest.peak_rss_mb) == list(manifest.timings)
