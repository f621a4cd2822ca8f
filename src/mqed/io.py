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

The tensor writers also write sign-flipped copies of a table in the same
pass: each copy is the table with each tensor entry's Re and Im times a
sign +-1. '%.17g' of -x is "-" followed by '%.17g' of x, and a zero is "0"
whatever its sign, so a copy takes the block's cells with each sign byte set
anew and joins its own rows; its fallback cells are written again from their
flipped values. A copy whose live columns all keep their sign is the block's
bytes.
"""

from __future__ import annotations

import contextlib
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


def _cells(x: np.ndarray):
    """The '%.17g' cells of 1-d values x, as (x.size, _CELL) uint8 rows
    padded with zero bytes, each ending in a comma, and the indices of the
    fallback cells, the ones Python's own '%.17g' wrote."""
    out = np.zeros((x.size, _CELL), dtype=np.uint8)
    out[:, _SIGN] = 45 * (x < 0.0)
    out[:, _BODY] = 48  # zeros stay "0", -0 too
    out[:, _SEP] = ord(",")
    nonzero = np.flatnonzero(x)
    if not nonzero.size:
        return out, nonzero
    cells, good = _nonzero_cells(x[nonzero])
    out[nonzero, _LEAD:_SEP] = cells.T
    fallback = nonzero[~good]
    for k in fallback:
        text = b"%.17g" % x[k]
        out[k, :_SEP] = 0
        out[k, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out, fallback


def _format_rows(block: np.ndarray, lead: list, flips=()) -> list:
    """The '%.17g' CSV rows of the (nrows, _CELL) cells `lead` of leading
    columns, then of a 2-d float block: a column of the block whose values
    are all +0 or -0 takes the 2-byte cells "0,", the others are formatted
    in one call. Then the rows of each copy of the block with its columns
    times `flips`, one +-1 per column, from the same cells (module
    docstring)."""
    nrows = block.shape[0]
    live = (block != 0.0).any(axis=0)  # nan is nonzero
    values = block[:, live]
    dense, fallback = _cells(values.ravel())
    zero = np.empty((nrows, live.size - values.shape[1], 2), dtype=np.uint8)
    zero[...] = (48, ord(","))

    def join():
        cells = iter(zero.swapaxes(0, 1)), iter(dense.reshape(nrows, -1, _CELL).swapaxes(0, 1))
        rows = np.concatenate([*lead, *(next(cells[on]) for on in live.tolist())], axis=1)
        rows[:, -1] = ord("\n")
        return rows.tobytes().translate(None, b"\0")

    texts = [join()]
    for signs in flips:
        signs = np.asarray(signs, dtype=float)[live]
        if (signs > 0.0).all():
            texts.append(texts[0])
            continue
        flipped = (values * signs).ravel()
        dense[:, _SIGN] = 45 * (flipped < 0.0)
        if fallback.size:
            dense[fallback] = _cells(flipped[fallback])[0]
        texts.append(join())
    return texts


def _create(path):
    """Open a binary file for writing, making its directory first."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "wb")


def _tensor_columns(tensors: np.ndarray) -> np.ndarray:
    """(n, 3, 3) complex -> the (n, 18) Re/Im columns of TENSOR_COLUMNS, a
    float view of the contiguous complex values (a copy only when the
    tensors are not already contiguous complex)."""
    return np.ascontiguousarray(tensors, dtype=complex).reshape(-1, 9).view(float)


def _write_table(path, header: list, columns: list, grids=(), copies=()):
    """Header line, then one '%.17g' row per row of the float matrix made
    of the `grids` columns, then of `columns` (1-d columns and 2-d column
    blocks), formatted in blocks of about _BLOCK_VALUES values; each
    block's matrix is built only when it is formatted, so no copy of the
    whole table is made. A grid column, given as (values, index), is
    values[index], and each of its values is formatted once. Each of
    `copies`, (path, signs), is the table with the `columns` part's
    columns times signs, one +-1 per column, written from the same cells
    (`_format_rows`)."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    grids = [(_cells(np.asarray(values, dtype=float))[0], index) for values, index in grids]
    width = len(grids) + sum(c.shape[1] if c.ndim == 2 else 1 for c in columns)
    rows = max(1, _BLOCK_VALUES // width)
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(_create(p)) for p in (path, *(p for p, _ in copies))]
        for fh in files:
            fh.write((",".join(header) + "\n").encode())
        for start in range(0, columns[0].shape[0], rows):
            stop = start + rows
            texts = _format_rows(np.column_stack([c[start:stop] for c in columns]),
                                 [cells[index[start:stop]] for cells, index in grids],
                                 [signs for _, signs in copies])
            for fh, text in zip(files, texts):
                fh.write(text)


def _entry_signs(signs) -> np.ndarray:
    """(3, 3) entries +-1 -> the signs of the 18 columns of TENSOR_COLUMNS."""
    return np.repeat(np.ravel(signs), 2)


def write_tensor_series_csv(path, label: str, grid: np.ndarray, tensors: np.ndarray, copies=()):
    """One row per grid point: label column then 18 Re/Im tensor entries.
    Each of `copies`, (path, signs), is the table of the tensors times the
    (3, 3) entries +-1 signs, written in the same pass."""
    _write_table(path, [label] + TENSOR_COLUMNS, [grid, _tensor_columns(tensors)],
                 copies=[(p, np.r_[1.0, _entry_signs(s)]) for p, s in copies])


def write_tensor_grid_csv(path, labels: tuple, grids: tuple, tensors: np.ndarray, copies=()):
    """Two index columns (e.g. omega_q, t) then 18 Re/Im entries; the first
    grid varies slowest. `copies` as in write_tensor_series_csv."""
    a, b = (np.asarray(g, dtype=float) for g in grids)
    ia, ib = np.divmod(np.arange(a.size * b.size), b.size)
    _write_table(path, list(labels) + TENSOR_COLUMNS, [_tensor_columns(tensors)],
                 [(a, ia), (b, ib)], [(p, _entry_signs(s)) for p, s in copies])


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
