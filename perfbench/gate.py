"""Correctness gate applied to every mqed run of the benchmark.

A run passes when:
- it exits 0 with every check passed, or 2 with each failed check listed
  on its output as `[FAIL] name`;
- its manifest records no error, lists the reference check names in the
  reference order, and every `max_error` is finite;
- each exported kernel, spectrum and mode-coefficient tensor file matches
  the reference digest within the run's `quad_rtol`, relative to the
  file's tensor norm. Deviation-curve CSVs are error measures and are not
  compared.

The digest of a tensor file is its row count, the norm of its grid
columns, the Frobenius norm of all its 3x3 tensors and the norm of their
traces. The last two are invariant under T -> R T R^T, so they hold for
every wave-vector direction the workloads draw from the medium's symmetry
group. The reference was recorded with seed 0 at the commit that added the
benchmark; `run.py --record-reference` rewrites it.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"

_DIGESTED = re.compile(r"^(chi|spectrum|modes|conductor_gamma)_.*\.csv$")


def tensor_digest(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        n_cols = len(fh.readline().split(","))
        data = np.loadtxt(fh, delimiter=",", ndmin=2).reshape(-1, n_cols)
    n_grid = n_cols - 18
    tensors = (data[:, n_grid::2] + 1j * data[:, n_grid + 1::2]).reshape(-1, 3, 3)
    return [
        int(data.shape[0]),
        float(np.linalg.norm(data[:, :n_grid])),
        float(np.linalg.norm(tensors)),
        float(np.linalg.norm(np.trace(tensors, axis1=1, axis2=2))),
    ]


def digests(out_dir: Path) -> dict:
    return {p.name: tensor_digest(p) for p in sorted(out_dir.iterdir())
            if _DIGESTED.match(p.name)}


def _quad_rtol(manifest: dict) -> float:
    match = re.search(r"^quad_rtol = (\S+)$", manifest["config"], re.MULTILINE)
    return float(match.group(1))


def load_manifest(out_dir: Path):
    try:
        return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def record(manifest: dict, out_dir: Path) -> dict:
    """The reference entry of one workload."""
    return {"checks": [c["name"] for c in manifest["checks"]], "digests": digests(out_dir)}


def check_run(reference: dict, exit_code: int, stdout: str, out_dir: Path):
    """Returns (problems, manifest) for one run: the list of reasons it
    fails the gate (empty when it passes) and its manifest, or None."""
    manifest = load_manifest(out_dir)
    if manifest is None:
        return [f"exit {exit_code} without a readable manifest"], None
    checks = manifest["checks"]
    problems = []
    failed = [c["name"] for c in checks if not c["passed"]]
    if manifest.get("error"):
        problems.append(f"run aborted: {manifest['error']['type']}")
    if exit_code not in (0, 2):
        problems.append(f"exit code {exit_code}")
    elif (exit_code == 0) != (not failed):
        problems.append(f"exit code {exit_code} with {len(failed)} failed checks")
    listed = set(re.findall(r"^\[FAIL\] (\S+):", stdout, re.MULTILINE))
    if set(failed) != listed:
        problems.append(f"failed checks {failed} but output lists {sorted(listed)}")
    names = [c["name"] for c in checks]
    if names != reference["checks"]:
        problems.append(f"check names {names} differ from the reference")
    problems += [f"{c['name']}: max_error {c['max_error']} is not finite"
                 for c in checks if not math.isfinite(c["max_error"])]
    rtol = _quad_rtol(manifest)
    for name, ref in reference["digests"].items():
        path = out_dir / name
        if not path.exists():
            problems.append(f"{name} missing")
            continue
        got = tensor_digest(path)
        if got[0] != ref[0]:
            problems.append(f"{name}: {got[0]} rows, reference {ref[0]}")
        for label, g, r, scale in (("grid", got[1], ref[1], ref[1]),
                                   ("tensor norm", got[2], ref[2], ref[2]),
                                   ("trace norm", got[3], ref[3], ref[2])):
            if abs(g - r) > rtol * scale:
                problems.append(f"{name}: {label} {g!r}, reference {r!r} (rtol {rtol:g})")
    return problems, manifest
