"""Benchmark workloads and the seeded config generator.

Each workload runs one `mqed` subcommand on a bundled medium. The seed only
chooses the wave-vector directions (at the bundled |k|) and the config's
`numerics.seed`; medium parameters and grids stay at their bundled values.
Directions are drawn from the symmetry group of the medium, so every seed
has the same rotation-invariant reference answer (see gate.py):

- isotropic media (lorentz, conductor): any direction on the sphere;
- the orthorhombic gaussian medium (diagonal axis strengths, spatial factor
  depending on |k| only): the eight sign flips of the bundled k.

Seed 0 gives the bundled configs byte for byte on the verify workloads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent

_K_LINE = re.compile(r"^k\s*=\s*(.+)$", re.MULTILINE)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # mqed subcommand
    config: str  # bundled config under configs/
    symmetry: str  # "isotropic" or "orthorhombic"
    n_k: int  # number of wave vectors in the generated config


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("lorentz-verify", "verify", "lorentz.cfg", "isotropic", 1),
        Workload("gaussian-verify", "verify", "gaussian.cfg", "orthorhombic", 1),
        Workload("conductor-verify", "verify", "conductor.cfg", "isotropic", 1),
        Workload("gaussian-modes-sweep", "modes", "gaussian.cfg", "orthorhombic", 4),
    )
}


def bundled_k(text: str) -> np.ndarray:
    """The single wave vector of a bundled config."""
    return np.array([float(x) for x in _K_LINE.search(text).group(1).split(",")])


def draw_directions(workload: Workload, k0: np.ndarray, seed: int) -> list:
    """`workload.n_k` wave vectors with |k| = |k0|, drawn from the medium's
    symmetry group. On the orthorhombic medium seed 0 takes the sign flips
    in a fixed order, starting from k0 itself."""
    rng = np.random.default_rng(seed)
    if workload.symmetry == "isotropic":
        v = rng.normal(size=(workload.n_k, 3))
        return list(np.linalg.norm(k0) * v / np.linalg.norm(v, axis=1, keepdims=True))
    flips = [np.array([sx, sy, sz]) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    order = range(len(flips)) if seed == 0 else rng.permutation(len(flips))
    return [flips[i] * k0 for i in list(order)[: workload.n_k]]


def config_text(workload: Workload, seed: int) -> str:
    """The config the workload runs for `seed`; deterministic in both."""
    text = (REPO / "configs" / workload.config).read_text(encoding="utf-8")
    if seed == 0 and workload.n_k == 1:
        return text
    ks = draw_directions(workload, bundled_k(text), seed)
    k_value = "; ".join(",".join(repr(float(c)) for c in k) for k in ks)
    text = _K_LINE.sub(lambda _: f"k = {k_value}", text, count=1)
    if seed != 0:
        numerics_seed = int(np.random.default_rng([seed, 1]).integers(1, 2**31))
        text += f"\n[numerics]\nseed = {numerics_seed}\n"
    return text
