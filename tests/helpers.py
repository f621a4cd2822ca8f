"""Test fixtures built on the package's API: frequency-dependent orthogonal
gauges for the gauge-invariance tests, the CSV of a tabulated coupling, the
'%.17g' join the CSV writer must match, and gaussian.cfg's continuum part in
either sector.

`mqed.couplings` holds the gauge API (`GaugeTransform`, `apply_gauge`);
these build particular gauges from it.
"""

from typing import Callable

import numpy as np

from mqed.couplings import GaugeTransform, gaussian_anisotropic, zero_coupling
from mqed.response import laplace_response
from mqed.tensors import IDENTITY3

TENSOR_HEADER = [f"{p}_{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3) for p in ("re", "im")]


def rotation_gauge(axis, angle_fn: Callable[[float], float]) -> GaugeTransform:
    """Gauge built from rotations about a fixed axis by an angle angle_fn(omega)."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    kx = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])

    def evaluator(omega: float) -> np.ndarray:
        th = float(angle_fn(omega))
        return IDENTITY3 + np.sin(th) * kx + (1.0 - np.cos(th)) * (kx @ kx)

    return GaugeTransform(evaluator=evaluator)


def random_orthogonal_gauge(rng: np.random.Generator) -> GaugeTransform:
    """Reproducible frequency-dependent orthogonal gauge."""
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    axis = rng.standard_normal(3)
    th0, th1 = rng.uniform(0.0, np.pi, size=2)
    base = rotation_gauge(axis, lambda w: th0 + th1 * np.tanh(w))

    def evaluator(omega: float) -> np.ndarray:
        return q @ base.evaluator(omega)

    return GaugeTransform(evaluator=evaluator)


def write_table_csv(path, omegas, kmags, values):
    """Write the CSV `couplings.tabulated_from_csv` reads: the tensor
    values[i, j] (broadcast to (n_omega, n_k, 3, 3)) at (omegas[i], kmags[j])."""
    values = np.broadcast_to(values, (len(omegas), len(kmags), 3, 3))
    rows = ["omega,kmag," + ",".join(TENSOR_HEADER)]
    for i, w in enumerate(omegas):
        for j, km in enumerate(kmags):
            cells = [float(w), float(km)]
            for v in values[i, j].ravel():
                cells += [float(v.real), float(v.imag)]
            rows.append(",".join(repr(c) for c in cells))
    path.write_text("\n".join(rows) + "\n")
    return path


def percent_g_csv(header, table) -> bytes:
    """A float table's CSV as Python's own '%.17g' join writes it, of x + 0.0
    for each value x (a zero as 0, whatever its sign): the header line, then
    one row per row of the 2-d table."""
    template = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with np.errstate(invalid="ignore"):  # a signalling nan
        table = np.asarray(table) + 0.0
    rows = "".join(template % tuple(row) for row in table.tolist())
    return (",".join(header) + "\n" + rows).encode()


def gaussian_response(which: str):
    """gaussian.cfg's part in the sector `which`, the other sector empty,
    bounded as gaussian.cfg's run bounds it."""
    part = gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.8, which=which)
    other = zero_coupling("magnetic" if which == "electric" else "electric")
    return laplace_response(part, other, horizon=8.0, omega_top=50.0)
