"""Tests of the benchmark's own parts: config generation, the tracer and the
correctness gate. Run with `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gate
from run import END_TO_END, PER_LAYER
from tracer import TARGETS, Tracer
from workloads import REPO, WORKLOADS, bundled_k, config_text

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(REPO / "src"))

from mqed.scenario import parse_scenario  # noqa: E402


@pytest.mark.parametrize("name", [n for n, w in WORKLOADS.items() if w.n_k == 1])
def test_seed_zero_is_the_bundled_config(name):
    workload = WORKLOADS[name]
    bundled = (REPO / "configs" / workload.config).read_bytes()
    assert config_text(workload, 0).encode("utf-8") == bundled


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 7, 123456])
def test_same_seed_gives_identical_config(name, seed):
    workload = WORKLOADS[name]
    assert config_text(workload, seed).encode() == config_text(workload, seed).encode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_moves_only_k_and_numerics_seed(name):
    workload = WORKLOADS[name]
    k0 = bundled_k((REPO / "configs" / workload.config).read_text())
    base = parse_scenario((REPO / "configs" / workload.config).read_text())
    seen = set()
    for seed in (0, 1, 2, 3):
        config = parse_scenario(config_text(workload, seed))
        assert config.medium == base.medium
        assert {k: v for k, v in config.grids.items() if k != "k"} == \
            {k: v for k, v in base.grids.items() if k != "k"}
        assert {k: v for k, v in config.numerics.items() if k != "seed"} == \
            {k: v for k, v in base.numerics.items() if k != "seed"}
        ks = config.k_list()
        assert len(ks) == workload.n_k
        assert len({tuple(k) for k in ks}) == workload.n_k
        for k in ks:
            assert np.linalg.norm(k) == pytest.approx(np.linalg.norm(k0), rel=1e-14)
            if workload.symmetry == "orthorhombic":
                assert np.array_equal(np.abs(k), np.abs(k0))
        seen.add(config_text(workload, seed))
        assert (config.numerics["seed"] != base.numerics["seed"]) == (seed != 0)
    assert len(seen) == 4


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    def outer():
        return tracer.span("inner", inner) + tracer.span("inner", inner)

    tracer.span("outer", outer)
    assert tracer.calls["outer"] == 1 and tracer.calls["inner"] == 2
    assert tracer.self_s["outer"] + tracer.total_s["inner"] == \
        pytest.approx(tracer.total_s["outer"], rel=1e-9)
    assert tracer.self_s["inner"] == pytest.approx(tracer.total_s["inner"], rel=1e-12)


def _check_install():
    """Runs in a fresh interpreter: installing patches global module state."""
    import mqed
    import mqed.noise
    import mqed.response
    import mqed.scenario

    originals = {}
    for layer, names in TARGETS.items():
        home = sys.modules[f"mqed.{layer}"]
        for qualname in names:
            owner, _, attr = qualname.rpartition(".")
            originals[f"{layer}.{qualname}"] = getattr(getattr(home, owner) if owner else home,
                                                       attr)
    tracer = Tracer()
    assert tracer.install() > len(originals)
    assert mqed.scenario.chi_kernel is mqed.noise.chi_kernel is mqed.response.chi_kernel
    assert mqed.scenario.chi_kernel.__wrapped__ is originals["response.chi_kernel"]
    assert mqed.chi_kernel is mqed.noise.chi_kernel
    assert mqed.response.LaplaceResponse.chi.__wrapped__ is \
        originals["response.LaplaceResponse.chi"]
    leftover = [f"{name}.{key}" for name, module in sys.modules.items()
                if name == "mqed" or name.startswith("mqed.")
                for key, value in vars(module).items()
                if any(value is fn for fn in originals.values())]
    assert not leftover, leftover

    # a call through another module's binding is counted, with its callbacks
    spec = mqed.QuadratureSpec(rtol=1e-12, start_order=8, max_order=64)
    mqed.response.adaptive_nodes(spec, 1.0, lambda x, w: np.array([w @ np.cos(x)]))
    metrics = tracer.metrics()
    assert metrics["quadrature.adaptive_nodes.calls"] == 1
    assert metrics["quadrature.adaptive_nodes.evaluations"] >= 2
    assert metrics["quadrature.adaptive_nodes.nodes_evaluated"] >= 8 + 16
    assert metrics["quadrature.gauss_legendre.calls"] == \
        metrics["quadrature.adaptive_nodes.evaluations"]


def test_install_wraps_every_binding():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(HERE)]))
    subprocess.run([sys.executable, "-c", "import test_perfbench; test_perfbench._check_install()"],
                   cwd=HERE, env=env, check=True, timeout=120)


def _write_tensor_csv(path, grid, tensors):
    cols = []
    for i in range(3):
        for j in range(3):
            cols += [tensors[:, i, j].real, tensors[:, i, j].imag]
    header = "t," + ",".join(f"c{n}" for n in range(18))
    np.savetxt(path, np.column_stack([grid] + cols), delimiter=",", header=header,
               comments="", fmt="%.17g")


def _fake_run(out_dir, tensors, checks, error=None):
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_tensor_csv(out_dir / "modes_gamma_k0.csv", np.linspace(0, 1, len(tensors)), tensors)
    _write_tensor_csv(out_dir / "noise_P_k0.csv", np.linspace(0, 1, 3),
                      np.full((3, 3, 3), np.nan + 0j))
    manifest = {"config": "[numerics]\nquad_rtol = 1e-07\n", "checks": checks, "error": error}
    (out_dir / "manifest.json").write_text(json.dumps(manifest))


def test_gate_digest_is_rotation_invariant_and_catches_drift(tmp_path):
    rng = np.random.default_rng(0)
    tensors = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    checks = [{"name": "fdt_P_k0", "passed": True, "max_error": 1e-9, "tolerance": 1e-5},
              {"name": "kk_electric_k0", "passed": False, "max_error": 2e-3, "tolerance": 1e-3}]
    _fake_run(tmp_path / "ref", tensors, checks)
    reference = gate.record(json.loads((tmp_path / "ref" / "manifest.json").read_text()),
                            tmp_path / "ref")
    assert list(reference["digests"]) == ["modes_gamma_k0.csv"]
    stdout = "[PASS] fdt_P_k0: 1e-9\n[FAIL] kk_electric_k0: 2e-3\n"

    _fake_run(tmp_path / "rot", q @ tensors @ q.T, checks)
    assert gate.check_run(reference, 2, stdout, tmp_path / "rot")[0] == []

    _fake_run(tmp_path / "drift", tensors * (1 + 1e-6), checks)
    assert gate.check_run(reference, 2, stdout, tmp_path / "drift")[0]
    assert gate.check_run(reference, 0, stdout, tmp_path / "rot")[0]
    assert gate.check_run(reference, 2, "", tmp_path / "rot")[0]
    assert gate.check_run(reference, 1, stdout, tmp_path / "rot")[0]

    renamed = [dict(checks[0], name="fdt_Q_k0"), checks[1]]
    _fake_run(tmp_path / "renamed", tensors, renamed)
    assert gate.check_run(reference, 2, stdout, tmp_path / "renamed")[0]

    inf = [checks[0], dict(checks[1], max_error=float("inf"))]
    _fake_run(tmp_path / "inf", tensors, inf)
    assert gate.check_run(reference, 2, stdout, tmp_path / "inf")[0]

    _fake_run(tmp_path / "aborted", tensors, checks, error={"type": "TalbotNotConverged"})
    assert gate.check_run(reference, 2, stdout, tmp_path / "aborted")[0]
    assert gate.check_run(reference, 0, "", tmp_path / "missing")[0]
