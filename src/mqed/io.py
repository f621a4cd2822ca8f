"""CSV/JSON export helpers.

Every CSV value x is written exactly as Python's '%.17g' writes x + 0.0,
which is x with a zero written 0 whatever its sign. So identical
configurations produce byte-identical CSV files, and the bytes depend on the
values alone, not on how a computation signed its zeros. Python needs
about 0.7 us for one 17-digit value, so the tables are formatted by a numpy
kernel instead, one block of rows at a time, in three steps:

1. Digits. For a finite nonzero x with decimal exponent X, the 17 digits are
   the integer D = round(|x| 10**(16 - X)). The product is taken as an
   error-free double-double (Dekker's split product against 10**s held as
   hi + lo), which puts the fraction of the scaled value within about 1e-14
   of the exact one. Subnormal and tiny values are first scaled by an exact
   power of two. X comes from log10, and log10 can be off by one next to a
   power of ten, so a value is kept only when D has exactly 17 digits and
   the unrounded scaled value is at least 1e16.
2. Layout. Each value fills a zero-padded byte cell: sign, the "0." and
   zeros of the fixed notation below 1, the 17 digits with a slot for the
   dot, the exponent ("e+XX", at least two digits) and the separator.
   Trailing fractional zeros and a bare dot are left as zero bytes. A column
   whose values in the block are all +0 or -0 takes 2-byte cells ("0",
   separator) and is not formatted, and a grid column of the grid writer is
   formatted once, each block gathering its cells. The block's cells are
   joined in one concatenation, and its zero bytes dropped in one
   `bytes.translate`.
3. Fallback. Three kinds of value go to Python's own '%.17g': non-finite
   values, values whose scaled fraction lies within 1e-9 of one half (a
   tie, or too close to one to decide), and values beyond the power table
   (|x| >= 1e300).
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np

# row-major tensor entries: re_11, im_11, re_12, im_12, ..., im_33
TENSOR_COLUMNS = [f"{p}_{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3) for p in ("re", "im")]


# values formatted per block, about 2 MB of temporaries; larger blocks gain
# little, as their temporaries fall out of cache
_BLOCK_VALUES = 1 << 13

# decimal exponents X the power table covers: 10**(16 - X) for every finite
# |x| < 1e300, with one to spare for a log10 that is off by one
_X_MIN, _X_MAX = -325, 300
# below this exponent values are scaled by 2**_TINY_SHIFT before the product
_X_TINY = -234
_TINY_SHIFT = 600
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter

# byte positions in one cell: sign, "0." and up to three zeros (X < 0), the
# 17 digits with one dot slot, "e", exponent sign and three digits, separator
_SIGN, _LEAD, _BODY, _EXP, _SEP, _CELL = 0, 1, 6, 24, 29, 30
_POS = np.arange(18, dtype=np.uint8)[:, None]


@functools.cache
def _powers() -> np.ndarray:
    """Rows hi, hi split high, hi split low, lo, prescale; one column per X.

    hi + lo is 10**(16 - X) (times 2**-_TINY_SHIFT for tiny X) to about
    2**-106, computed from exact Python integers."""
    table = np.empty((5, _X_MAX - _X_MIN + 1))
    for k, x in enumerate(range(_X_MIN, _X_MAX + 1)):
        s, shift = 16 - x, _TINY_SHIFT if x < _X_TINY else 0
        num, den = (10 ** s, 2 ** shift) if s >= 0 else (1, 10 ** -s)
        hi = num / den  # correctly rounded
        m, e = hi.as_integer_ratio()
        table[0, k], table[3, k], table[4, k] = hi, (num * e - m * den) / (den * e), 2.0 ** shift
    c = table[0] * _SPLIT
    table[1] = c - (c - table[0])
    table[2] = table[0] - table[1]
    return table


@functools.cache
def _layout_tables():
    """ASCII of 0000..9999 (4, 10000); per X: the lead and exponent bytes
    (10, nx) and the number of integer digits (1 in exponent notation)."""
    digit = np.arange(48, 58, dtype=np.uint8)
    four = np.stack([np.tile(np.repeat(digit, 10 ** (3 - k)), 10 ** k) for k in range(4)])
    affix = np.zeros((10, _X_MAX - _X_MIN + 1), dtype=np.uint8)
    int_digits = np.ones(affix.shape[1], dtype=np.uint8)
    for k, x in enumerate(range(_X_MIN, _X_MAX + 1)):
        if 0 <= x < 17:
            int_digits[k] = x + 1
        elif -4 <= x < 0:
            lead = b"0." + b"0" * (-x - 1)
            affix[:len(lead), k] = np.frombuffer(lead, dtype=np.uint8)
            int_digits[k] = 0
        else:
            text = b"e%+03d" % x
            affix[5:5 + len(text), k] = np.frombuffer(text, dtype=np.uint8)
    return four, affix, int_digits


def _digits(x: np.ndarray):
    """Decimal exponent index X - _X_MIN of nonzero values x, their 17 digits
    D as top * 1e8 + low (two exact doubles), and the mask of values whose D
    is right (the rest fall back)."""
    a = np.abs(x)
    ok = a < 1e300  # False for inf and nan too
    a[~ok] = 1.0
    ix = np.floor(np.log10(a)).astype(np.intp) - _X_MIN
    hi, hh, hl, lo_p, scale = np.take(_powers(), ix, axis=1, mode="clip")
    a *= scale
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    p = a * hi  # an integer: the scaled value is above 2**53
    lo = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo_p
    whole = np.floor(lo)
    frac = lo - whole
    up = frac > 0.5
    # D = p + whole + up, as top * 1e8 + low with both parts exact doubles
    top = np.floor(p / 1e8)
    low = (p - top * 1e8) + whole + up
    carry = np.floor(low / 1e8)
    top += carry
    low -= carry * 1e8
    # 17 digits, and not a value just below 1e16 that rounded up to it
    good = ok & (np.abs(frac - 0.5) > 1e-9) & (top >= 1e8) & (top < 1e9) \
        & ~((top == 1e8) & (low == 0.0) & up)
    return ix, top, low, good


def _nonzero_cells(x: np.ndarray):
    """Cell bytes _LEAD.._SEP of nonzero values x, one row per byte position,
    and the mask of values they are right for (the rest fall back)."""
    ix, top, low, good = _digits(x)
    four, affix, int_digits = _layout_tables()
    digits = np.empty((17, x.size), dtype=np.uint8)
    lead = np.floor(top / 1e8)
    digits[0] = lead + 48
    for row, part in ((1, top - lead * 1e8), (9, low)):
        high = np.floor(part / 1e4)
        for at, chunk in ((row, high), (row + 4, part - high * 1e4)):
            chunk = chunk.astype(np.intp)
            for k in range(4):
                np.take(four[k], chunk, out=digits[at + k], mode="clip")
    # significant digits, then strip the trailing zeros after the dot
    count = np.max(_POS[1:] * (digits != 48).view(np.uint8), axis=0)
    before = np.take(int_digits, ix, mode="clip")
    digits *= (_POS[:17] < np.maximum(count, before)).view(np.uint8)
    dot = np.where((count > before) & (before > 0), before, 18).astype(np.uint8)

    cells = np.empty((_SEP - _LEAD, x.size), dtype=np.uint8)
    affixes = np.take(affix, ix, axis=1, mode="clip")
    cells[:_BODY - _LEAD] = affixes[:5]
    cells[_EXP - _LEAD:] = affixes[5:]
    # body slot q: digit q before the dot, the dot, digit q - 1 after it
    body = cells[_BODY - _LEAD:_EXP - _LEAD]
    body[0] = digits[0]
    body[1:17] = digits[1:] * (_POS[1:17] < dot).view(np.uint8)
    body[17] = 0
    body[1:] += digits * (_POS[1:] > dot).view(np.uint8)
    body += 46 * (_POS == dot).view(np.uint8)
    return cells, good


def _cells(x: np.ndarray) -> np.ndarray:
    """The '%.17g' cells of 1-d values x, as (x.size, _CELL) uint8 rows
    padded with zero bytes, each ending in a comma."""
    out = np.zeros((x.size, _CELL), dtype=np.uint8)
    out[:, _SIGN] = 45 * (x < 0.0)
    out[:, _BODY] = 48  # zeros stay "0", -0 too
    out[:, _SEP] = ord(",")
    nonzero = np.flatnonzero(x)
    if not nonzero.size:
        return out
    cells, good = _nonzero_cells(x[nonzero])
    out[nonzero, _LEAD:_SEP] = cells.T
    for k in nonzero[~good]:
        text = b"%.17g" % x[k]
        out[k, :_SEP] = 0
        out[k, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


def _format_rows(block: np.ndarray, lead: list) -> bytes:
    """The '%.17g' CSV rows of the (nrows, _CELL) cells `lead` of leading
    columns, then of a 2-d float block: a column of the block whose values
    are all +0 or -0 takes the 2-byte cells "0,", the others are formatted
    in one call."""
    nrows = block.shape[0]
    live = (block != 0.0).any(axis=0)  # nan is nonzero
    dense = _cells(block[:, live].ravel()).reshape(nrows, -1, _CELL)
    zero = np.empty((nrows, live.size - dense.shape[1], 2), dtype=np.uint8)
    zero[...] = (48, ord(","))
    cells = iter(zero.swapaxes(0, 1)), iter(dense.swapaxes(0, 1))
    rows = np.concatenate([*lead, *(next(cells[on]) for on in live.tolist())], axis=1)
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0")


def _create(path):
    """Open a binary file for writing, making its directory first."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "wb")


def _tensor_columns(tensors: np.ndarray) -> np.ndarray:
    """(n, 3, 3) complex -> the (n, 18) Re/Im columns of TENSOR_COLUMNS, a
    float view of the contiguous complex values (a copy only when the
    tensors are not already contiguous complex)."""
    return np.ascontiguousarray(tensors, dtype=complex).reshape(-1, 9).view(float)


def _write_table(path, header: list, columns: list, grids=()):
    """Header line, then one '%.17g' row per row of the float matrix made
    of the `grids` columns, then of `columns` (1-d columns and 2-d column
    blocks), formatted in blocks of about _BLOCK_VALUES values; each
    block's matrix is built only when it is formatted, so no copy of the
    whole table is made. A grid column, given as (values, index), is
    values[index], and each of its values is formatted once."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    grids = [(_cells(np.asarray(values, dtype=float)), index) for values, index in grids]
    width = len(grids) + sum(c.shape[1] if c.ndim == 2 else 1 for c in columns)
    rows = max(1, _BLOCK_VALUES // width)
    with _create(path) as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, columns[0].shape[0], rows):
            stop = start + rows
            fh.write(_format_rows(np.column_stack([c[start:stop] for c in columns]),
                                  [cells[index[start:stop]] for cells, index in grids]))


def write_tensor_series_csv(path, label: str, grid: np.ndarray, tensors: np.ndarray):
    """One row per grid point: label column then 18 Re/Im tensor entries."""
    _write_table(path, [label] + TENSOR_COLUMNS, [grid, _tensor_columns(tensors)])


def write_tensor_grid_csv(path, labels: tuple, grids: tuple, tensors: np.ndarray):
    """Two index columns (e.g. omega_q, t) then 18 Re/Im entries; the first
    grid varies slowest."""
    a, b = (np.asarray(g, dtype=float) for g in grids)
    ia, ib = np.divmod(np.arange(a.size * b.size), b.size)
    _write_table(path, list(labels) + TENSOR_COLUMNS, [_tensor_columns(tensors)],
                 [(a, ia), (b, ib)])


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


def write_json(path, payload: dict, indent: int | None = 2):
    """The payload as JSON, numpy values as lists; with indent=None on one
    line, through json's C encoder, which an indent leaves out."""
    text = json.dumps(payload, indent=indent, default=_encode, sort_keys=False) + "\n"
    with _create(path) as fh:
        fh.write(text.encode("utf-8"))
