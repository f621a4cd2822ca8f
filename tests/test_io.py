"""The vectorised CSV writer against Python's own '%.17g' rows of x + 0.0
(a zero as 0, whatever its sign), byte for byte."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from helpers import percent_g_csv
from mqed import io, scenario
from mqed.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _assert_same_bytes(tmp_path, table):
    table = np.asarray(table, dtype=float)
    header = [f"c{j}" for j in range(table.shape[1])]
    path = tmp_path / "table.csv"
    io._write_table(path, header, [table])
    got, want = path.read_bytes(), percent_g_csv(header, table)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(bad)} rows differ, first: {bad[:1]}")


def test_random_bit_patterns(tmp_path):
    rng = np.random.default_rng(20261018)
    values = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64).view(np.float64)
    # subnormals of both signs, signed zeros and the non-finite values
    values[:20000] = rng.integers(1, 2**52, size=20000, dtype=np.uint64).view(np.float64)
    values[:10000] *= -1.0
    values[20000:20008] = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324]
    rng.shuffle(values)
    _assert_same_bytes(tmp_path, values.reshape(-1, 20))


def test_powers_of_ten_and_neighbours(tmp_path):
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    probes = [powers, 5.0 * powers[:-1], 9.5 * powers[:-1]]
    up = down = powers
    for _ in range(2):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        probes += [up, down]
    values = np.concatenate(probes)
    values = values[np.isfinite(values)]
    _assert_same_bytes(tmp_path, np.concatenate([values, -values]).reshape(-1, 1))


def test_exact_ties_and_large_integers(tmp_path):
    rng = np.random.default_rng(7)
    ties = []
    # x = m 2**(X - 17), m odd: x 10**(16 - X) is a half-integer
    for x in range(-7, 16):
        lo = int(np.ceil(10.0**x * 2.0 ** (17 - x)))
        hi = min(int(10.0 ** (x + 1) * 2.0 ** (17 - x)), 2**53)
        m = rng.integers(lo // 2, hi // 2, size=40) * 2 + 1
        ties.append(np.ldexp(m.astype(float), x - 17))
    ties = np.concatenate(ties)
    assert not io._nonzero_cells(ties)[1].any()  # every tie goes to Python
    ints = rng.integers(2**53, 2**63, size=4000).astype(float)
    even = 2.0**53 + 2.0 * np.arange(100)
    values = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf),
                             ints, even, [1.0, 10.0, 0.5, 1e16, 1e17, 1e22, 1e23]])
    _assert_same_bytes(tmp_path, np.concatenate([values, -values]).reshape(-1, 2))


def test_every_notation_width(tmp_path):
    # short and full-length digit strings at every fixed-notation exponent
    # and both exponent widths
    rng = np.random.default_rng(11)
    x = np.arange(-12, 26)
    mantissa = np.concatenate([[1.0, 2.5, 1.25], rng.uniform(1.0, 10.0, size=5)])
    values = (mantissa[:, None] * 10.0 ** x[None, :]).ravel()
    values = np.concatenate([values, values * 1e-100, values * 1e100])
    _assert_same_bytes(tmp_path, values.reshape(-1, 8))


@pytest.mark.parametrize("block", [10, 2])
def test_ragged_last_block(tmp_path, monkeypatch, block):
    # 11 rows of 3 in blocks of 3 rows (the last one short), or of 1 row
    # when a block holds fewer values than a row; the first block is all zeros
    monkeypatch.setattr(io, "_BLOCK_VALUES", block)
    rng = np.random.default_rng(3)
    table = rng.normal(size=(11, 3)) * 10.0 ** rng.integers(-30, 30, size=(11, 3))
    table[:3] = [[0.0, -0.0, 0.0]]
    table[4, 1] = 0.0
    table[7, 2] = np.nan
    _assert_same_bytes(tmp_path, table)


def test_tiny_values_take_the_vectorised_path():
    # subnormals and the < 1e-270 entries of the mode tensors need no
    # Python formatting; only non-finite values, ties and |x| >= 1e300 do
    rng = np.random.default_rng(5)
    tiny = np.concatenate([
        rng.integers(1, 2**52, size=5000, dtype=np.uint64).view(np.float64),
        rng.uniform(1.0, 10.0, size=5000) * 10.0 ** rng.integers(-307, -270, size=5000),
    ])
    _, good = io._nonzero_cells(tiny)
    assert good.all()
    _, good = io._nonzero_cells(np.array([np.inf, -np.nan, 1e300, 1.00000762939453125]))
    assert not good.any()


def test_streamed_tensor_rows_match_the_percent_g_join(tmp_path):
    # a 30 x 31 grid of tensors (930 rows: two blocks of 409 rows and a
    # short one) holding signed zeros, subnormals and the values that take
    # the fallback; the grid writer gets the tensors as a strided view, the
    # deviation writer as contiguous complex values
    rng = np.random.default_rng(8)
    a, b = np.linspace(0.0, 3.0, 30), np.linspace(-1.0, 1.0, 31)
    values = rng.normal(size=(930, 3, 3, 2)) * 10.0 ** rng.integers(-300, 300, size=(930, 3, 3, 2))
    flat = values.reshape(-1)
    flat[:8] = [0.0, -0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan, 1e300]
    rng.shuffle(flat)
    tensors = values.view(complex)[..., 0]
    rows = io._BLOCK_VALUES // 20
    assert 930 % rows and 930 > 2 * rows
    strided = np.zeros((930, 3, 3, 2), dtype=complex)
    strided[..., 1] = tensors
    path = tmp_path / "grid.csv"
    io.write_tensor_grid_csv(path, ("q", "t"), (a, b), strided[..., 1])
    header = ["q", "t"] + io.TENSOR_COLUMNS
    table = np.column_stack([np.repeat(a, b.size), np.tile(b, a.size), values.reshape(930, 18)])
    assert path.read_bytes() == percent_g_csv(header, table)
    dev = rng.normal(size=930)
    io.write_deviation_csv(path, "t", table[:, 0], dev, tensors)
    want = np.column_stack([table[:, 0], dev, values.reshape(930, 18)])
    assert path.read_bytes() == percent_g_csv(["t", "deviation"] + io.TENSOR_COLUMNS, want)


def test_column_of_mixed_signed_zeros(tmp_path):
    # a column of +0 and -0 only takes the cells "0,", and a -0 beside
    # nonzero values is written 0 too
    rng = np.random.default_rng(12)
    table = rng.normal(size=(50, 3))
    table[:, 1] = np.where(rng.random(50) < 0.5, -0.0, 0.0)
    table[::7, 2] = -0.0
    _assert_same_bytes(tmp_path, table)
    text = (tmp_path / "table.csv").read_bytes()
    assert b"-0," not in text and b",0," in text


def test_column_zero_in_one_block_only(tmp_path, monkeypatch):
    # blocks of 4 rows: each column is all zero in one block and not in
    # the others, so each block formats a different set of columns
    monkeypatch.setattr(io, "_BLOCK_VALUES", 12)
    table = np.random.default_rng(13).normal(size=(12, 3))
    table[:4, 0] = -0.0
    table[4:8, 2] = 0.0
    table[8:, 1] = [0.0, -0.0, 0.0, -0.0]
    _assert_same_bytes(tmp_path, table)


def test_fallback_values_beside_zero_columns(tmp_path):
    # nan, inf, |x| >= 1e300 and a tie in a full column between zero ones
    table = np.zeros((30, 6))
    table[:, 3] = -0.0
    table[:, 2] = np.random.default_rng(14).normal(size=30)
    table[[0, 7, 11, 20, 29], 2] = [np.nan, np.inf, -1e300, 1.00000762939453125, -np.nan]
    _assert_same_bytes(tmp_path, table)


def _grid_table(rng):
    """Grids with repeated, signed-zero, subnormal, negative and fallback
    values, and tensors with all-zero (one of them -0) and full columns."""
    a = np.array([-2.5, -2.5, 5e-324, -0.0, 1e300, -1.5e-310, 3.0])
    b = np.array([0.0, -1e-320, -7.25, -7.25, np.nan, 2.0])
    values = rng.normal(size=(a.size * b.size, 9, 2))
    values[:, [1, 2, 3, 5, 6, 7]] = 0.0
    values[:, 4, 1] = -0.0
    tensors = values.view(complex)[..., 0].reshape(-1, 3, 3)
    return a, b, tensors, values.reshape(-1, 18)


def test_grid_columns_with_repeated_subnormal_and_negative_values(tmp_path):
    a, b, tensors, columns = _grid_table(np.random.default_rng(15))
    path = tmp_path / "grid.csv"
    io.write_tensor_grid_csv(path, ("q", "t"), (a, b), tensors)
    table = np.column_stack([np.repeat(a, b.size), np.tile(b, a.size), columns])
    assert path.read_bytes() == percent_g_csv(["q", "t"] + io.TENSOR_COLUMNS, table)


def test_grid_writer_formats_no_zero_column_and_each_grid_value_once(tmp_path, monkeypatch):
    # in blocks of 5 rows: the values formatted are each grid value once,
    # then the full tensor columns of every block, never an all-zero one
    monkeypatch.setattr(io, "_BLOCK_VALUES", 100)
    a, b, tensors, columns = _grid_table(np.random.default_rng(16))
    formatted, digits = [], []
    cells, nonzero_cells = io._cells, io._nonzero_cells
    monkeypatch.setattr(io, "_cells", lambda x: formatted.append(x.copy()) or cells(x))
    monkeypatch.setattr(io, "_nonzero_cells", lambda x: digits.append(x.copy()) or nonzero_cells(x))
    io.write_tensor_grid_csv(tmp_path / "grid.csv", ("q", "t"), (a, b), tensors)
    live = columns[:, np.any(columns, axis=0)]
    assert live.shape[1] == 5
    np.testing.assert_array_equal(formatted[0], a)
    np.testing.assert_array_equal(formatted[1], b)
    np.testing.assert_array_equal(np.concatenate(formatted[2:]), live.ravel())
    assert len(formatted) == 2 + -(-a.size * b.size // 5)
    seen = np.concatenate(digits)
    want = np.concatenate([x[x != 0.0] for x in (a, b, live.ravel())])
    np.testing.assert_array_equal(seen, want)


def _flip_tensors(rng, n):
    """(n, 3, 3) tensors in blocks of 10 rows: entry 12 all zero, entry 13
    +-0 in Re and Im, entry 22 zero in the first block only, entry 23's Im
    -0 in the second block only, and the fallback values (nan, +-inf,
    |x| >= 1e300 and ties), subnormals and signed zeros among the rest."""
    values = rng.normal(size=(n, 9, 2)) * 10.0 ** rng.integers(-30, 30, size=(n, 9, 2))
    values[:, 1] = 0.0
    values[:, 2] = [0.0, -0.0]
    values[:10, 4] = 0.0
    values[10:20, 5, 1] = -0.0
    specials = [np.nan, -np.nan, np.inf, -np.inf, 1e300, -1.5e305, 1.00000762939453125,
                -1.00000762939453125, 5e-324, -2.5e-310, 0.0, -0.0]
    live = [(i, j, p) for i in range(n) for j in (0, 3, 6, 7, 8) for p in (0, 1)]
    for at, x in zip(rng.choice(len(live), size=3 * len(specials), replace=False),
                     specials * 3):
        values[live[at]] = x
    return values.view(complex)[..., 0].reshape(n, 3, 3)


# every flip R = diag(+-1, +-1, +-1) of a family of either parity sign
_FLIP_SIGNS = [s * np.multiply.outer(r, r) for r in itertools.product((1.0, -1.0), repeat=3)
               for s in (1.0, -1.0)]


@pytest.mark.parametrize("writer", ["series", "grid"])
def test_flipped_copies_are_the_direct_write_of_the_flipped_tensors(tmp_path, monkeypatch,
                                                                     writer):
    # 30 rows in blocks of 10; each copy is written from the table's own
    # cells, and its bytes are those of writing signs * tensors directly,
    # which are Python's '%.17g' join
    monkeypatch.setattr(io, "_BLOCK_VALUES", 200)
    tensors = _flip_tensors(np.random.default_rng(17), 30)
    a, b = np.array([0.0, 0.5, -1.5, 1e-310, 3.0]), np.linspace(0.0, 2.0, 6)
    # the leading columns, and the values of them the writer formats
    if writer == "series":
        t = b[:5].repeat(6)
        write, args, header, lead, once = io.write_tensor_series_csv, ("t", t), ["t"], [t], [t]
    else:
        write, args, header, lead, once = io.write_tensor_grid_csv, (("q", "t"), (a, b)), \
            ["q", "t"], [np.repeat(a, b.size), np.tile(b, a.size)], [a, b]
    copies = [(tmp_path / f"copy{i}.csv", signs) for i, signs in enumerate(_FLIP_SIGNS)]
    # the kernel formats each value of the table once; only the fallback
    # cells of a copy are written again
    kernel = []
    nonzero_cells = io._nonzero_cells

    def counted(x):
        cells, good = nonzero_cells(x)
        kernel.append(int(good.sum()))
        return cells, good

    monkeypatch.setattr(io, "_nonzero_cells", counted)
    write(tmp_path / "table.csv", *args, tensors, copies)
    values = np.concatenate([*once, tensors.view(float).ravel()])
    assert sum(kernel) == nonzero_cells(values[values != 0.0])[1].sum()
    monkeypatch.setattr(io, "_nonzero_cells", nonzero_cells)
    for path, signs in [(tmp_path / "table.csv", np.ones((3, 3))), *copies]:
        # Re and Im times the sign, which a complex product would not keep
        # for inf (0 * inf is nan)
        columns = tensors.reshape(-1, 9).view(float) * np.repeat(signs.ravel(), 2)
        write(tmp_path / "direct.csv", *args, columns.view(complex).reshape(-1, 3, 3))
        direct = (tmp_path / "direct.csv").read_bytes()
        assert path.read_bytes() == direct, signs
        table = np.column_stack([*lead, columns])
        assert direct == percent_g_csv(header + io.TENSOR_COLUMNS, table)


def test_a_copy_with_no_live_column_flipped_is_the_tables_bytes(tmp_path, monkeypatch):
    # a sign on the all-zero entries 12 and 13 changes nothing, so the copy
    # joins no row of its own
    tensors = _flip_tensors(np.random.default_rng(18), 30)
    signs = np.ones((3, 3))
    signs[0, [1, 2]] = -1.0
    joins = []
    format_rows = io._format_rows

    def counted(block, lead, flips=()):
        texts = format_rows(block, lead, flips)
        joins.append(len({id(text) for text in texts}))
        return texts

    monkeypatch.setattr(io, "_format_rows", counted)
    io.write_tensor_series_csv(tmp_path / "table.csv", "t", np.arange(30.0), tensors,
                               [(tmp_path / "copy.csv", signs)])
    assert joins == [1]
    assert (tmp_path / "copy.csv").read_bytes() == (tmp_path / "table.csv").read_bytes()


def test_conductor_verify_writes_the_percent_g_join(tmp_path, monkeypatch):
    # every CSV of a conductor.cfg run (the most all-zero columns of the
    # bundled runs, a zero magnetic part and -0 values, written 0) against
    # the '%.17g' join of the very table the writer was handed
    joined, handed = {}, []
    write = io._write_table

    def write_and_join(path, header, columns, grids=(), copies=()):
        assert not copies  # one k: no table is a flipped copy
        write(path, header, columns, grids)
        table = np.column_stack([np.asarray(values, dtype=float)[index] for values, index in grids]
                                + [np.asarray(c, dtype=float) for c in columns])
        joined[Path(path).name] = percent_g_csv(header, table)
        handed.append(table)

    monkeypatch.setattr(io, "_write_table", write_and_join)
    assert main(["verify", "--config", str(CONFIGS / "conductor.cfg"), "--out", str(tmp_path)]) == 2
    written = {path.name: path.read_bytes() for path in tmp_path.glob("*.csv")}
    assert set(written) == set(joined) and len(written) == 15
    assert not any(b",-0," in text for text in written.values())
    assert any(np.any(np.signbit(table) & (table == 0.0)) for table in handed)
    for name, text in written.items():
        assert text == joined[name], name


def test_reports_are_one_line_json_with_the_payload_of_the_indented_form(tmp_path, monkeypatch):
    # the noise and commutator reports of a lorentz.cfg run go through json's
    # C encoder (no indent) and read back as the indented text did; the
    # manifest keeps its indent
    payloads = {}
    write = scenario.write_json

    def recorded(path, payload, indent=2):
        payloads[Path(path).name] = payload, indent
        write(path, payload, indent)

    monkeypatch.setattr(scenario, "write_json", recorded)
    assert main(["commutators", "--config", str(CONFIGS / "lorentz.cfg"),
                 "--out", str(tmp_path)]) == 0
    reports = {"noise_P_k0.json", "noise_M_k0.json", "commutator_equal_time_k0.json"}
    assert set(payloads) == reports | {"manifest.json"}
    for name, (_, indent) in payloads.items():
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert indent == (None if name in reports else 2)
        assert (text.count("\n") == 1) == (name in reports)
    for name in reports:
        indented = json.dumps(payloads[name][0], indent=2, default=io._encode)
        assert json.loads((tmp_path / name).read_text(encoding="utf-8")) == json.loads(indented)
