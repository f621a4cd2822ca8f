"""CSV/JSON export helpers.

All floats are written with repr-faithful formatting ('%.17g') so identical
configurations produce byte-identical CSV files.
"""

from __future__ import annotations

import json
import os

import numpy as np

# row-major tensor entries: re_11, im_11, re_12, im_12, ..., im_33
TENSOR_COLUMNS = []
for i in (1, 2, 3):
    for j in (1, 2, 3):
        TENSOR_COLUMNS.append(f"re_{i}{j}")
        TENSOR_COLUMNS.append(f"im_{i}{j}")


# rows turned into Python floats at a time: converting a whole table at once
# leaves the Python heap fragmented, which raised the later peak RSS of a
# four-k modes run by about 6 MB
_CHUNK_ROWS = 256


def _create(path):
    """Open a text file for writing, making its directory first."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", encoding="utf-8")


def _tensor_columns(tensors: np.ndarray) -> np.ndarray:
    """(n, 3, 3) complex -> the (n, 18) Re/Im columns of TENSOR_COLUMNS."""
    flat = np.asarray(tensors, dtype=complex).reshape(-1, 9)
    return np.stack([flat.real, flat.imag], axis=-1).reshape(-1, 18)


def _write_table(path, header: list, columns: list):
    """Header line, then one '%.17g' row per row of the float matrix made
    of `columns` (1-d grid columns and 2-d column blocks), written in
    chunks of rows."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    template = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, table.shape[0], _CHUNK_ROWS):
            rows = table[start:start + _CHUNK_ROWS].tolist()
            fh.writelines(template % tuple(row) for row in rows)


def write_tensor_series_csv(path, label: str, grid: np.ndarray, tensors: np.ndarray):
    """One row per grid point: label column then 18 Re/Im tensor entries."""
    _write_table(path, [label] + TENSOR_COLUMNS, [grid, _tensor_columns(tensors)])


def write_tensor_grid_csv(path, labels: tuple, grids: tuple, tensors: np.ndarray):
    """Two index columns (e.g. omega_q, t) then 18 Re/Im entries; the first
    grid varies slowest."""
    a, b = (np.asarray(g, dtype=float) for g in grids)
    _write_table(path, list(labels) + TENSOR_COLUMNS,
                 [np.repeat(a, b.size), np.tile(b, a.size), _tensor_columns(tensors)])


def write_deviation_csv(path, label: str, grid: np.ndarray, deviation: np.ndarray, tensors=None):
    header = [label, "deviation"]
    columns = [grid, deviation]
    if tensors is not None:
        header += TENSOR_COLUMNS
        columns.append(_tensor_columns(tensors))
    _write_table(path, header, columns)


def _encode(obj):
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": obj.real.tolist(), "im": obj.imag.tolist()}
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_json(path, payload: dict):
    text = json.dumps(payload, indent=2, default=_encode, sort_keys=False) + "\n"
    with _create(path) as fh:
        fh.write(text)
