import csv
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import semiq
from semiq import _fmt17, cli, tableio
from semiq.svgplot import LinePlot
from semiq.tableio import (
    Indexed,
    ResultTable,
    fmt_value,
    read_csv,
    read_manifest,
    write_csv,
    write_manifest,
)


def test_fmt_value_roundtrips_floats():
    for x in (1.0 / 3.0, math.pi, 1e-300, 6.02e23, -0.0, 1.1761980531389124e-2):
        assert float(fmt_value(x)) == x


def test_fmt_value_special():
    assert fmt_value(True) == "1"
    assert fmt_value(False) == "0"
    assert fmt_value(float("nan")) == "nan"
    assert fmt_value(-1) == "-1"
    assert fmt_value("abc") == "abc"


@pytest.mark.parametrize("value, text", [
    (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"), (np.float64(-math.inf), "-inf"),
    (np.float32(0.1), "0.10000000149011612")])
def test_fmt_value_pins_float_edges(value, text):
    # the spec of float columns, which "{:.17g}" must agree with here
    assert fmt_value(value) == text == "{:.17g}".format(value)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(-2**63, 2**63 - 1), st.integers(-2**70, 2**70))
@example(np.array(-0.0).view(np.int64).item(), 2**63)
@example(np.array(math.nan).view(np.int64).item(), -2**64 - 1)
@example(np.array(math.inf).view(np.int64).item(), 2**64)
@example(np.array(-math.inf).view(np.int64).item(), 0)
@example(1, 2**63 - 1)                          # the least subnormal
@example(np.array(-2.2250738585072009e-308).view(np.int64).item(), 1)
def test_fmt_value_is_the_percent_rule(bits, n):
    # any float64 bit pattern (subnormals, infinities, nans), as a Python
    # float, a numpy float64 and a numpy float32, and any integer, as a
    # Python int and as the numpy integer that holds it
    x = np.array(bits, np.int64).view(np.float64).item()
    with np.errstate(over="ignore"):
        floats = [x, np.float64(x), np.float32(x)]
    for v in floats:
        assert fmt_value(v) == "%.17g" % v
    ints = [n, *(t(n) for t in (np.int64, np.uint64)
                 if np.iinfo(t).min <= n <= np.iinfo(t).max)]
    for v in ints:
        assert fmt_value(v) == "%d" % n
    assert fmt_value(np.bool_(n % 2)) == fmt_value(bool(n % 2)) == "%d" % (n % 2)


def test_table_rejects_unequal_column_lengths():
    ResultTable({"a": [1.0], "b": [2.0]})
    with pytest.raises(ValueError):
        ResultTable({"a": [1.0, 2.0], "b": [1.0]})


def test_table_column_lookup():
    t = ResultTable({"x": [1, 2], "y": ["p", "q"]})
    assert t.columns == ["x", "y"]
    assert t.rows[1] == (2, "q")
    assert list(t.rows) == [(1, "p"), (2, "q")]
    assert t.column("y") == ["p", "q"]
    with pytest.raises(KeyError):
        t.column("z")


def test_csv_crlf_and_roundtrip(tmp_path):
    t = ResultTable({"name": ["alpha", "beta"],
                     "value": [0.1 + 0.2, float("nan")]})
    p = tmp_path / "t.csv"
    write_csv(t, p)
    raw = p.read_bytes()
    assert raw.count(b"\r\n") == 3
    assert b"\n" not in raw.replace(b"\r\n", b"")
    back = read_csv(p)
    assert back.columns == ["name", "value"]
    assert float(back.rows[0][1]) == pytest.approx(0.30000000000000004, abs=0)
    assert back.rows[1][1] == "nan"


def test_csv_numpy_columns(tmp_path):
    t = ResultTable({"flag": np.array([True, False]),
                     "count": np.array([3, -1], dtype=np.int64),
                     "x": np.array([0.1, np.nan])})
    p = tmp_path / "t.csv"
    write_csv(t, p)
    assert p.read_bytes() == b"flag,count,x\r\n1,3,0.10000000000000001\r\n0,-1,nan\r\n"
    assert fmt_value(np.True_) == "1"
    assert fmt_value(np.float64(0.1)) == "0.10000000000000001"


def test_csv_spans_several_row_blocks(tmp_path):
    # write_csv converts and writes a block of rows at a time; every row of
    # every block must come out, formatted like a single value
    n = 2 * tableio._BLOCK_ROWS + 3
    x = np.random.default_rng(0).normal(size=n)
    t = ResultTable({"i": np.arange(n), "x": x, "flag": x > 0,
                     "tag": [f"r{k}" for k in range(n)]})
    write_csv(t, tmp_path / "t.csv")
    back = read_csv(tmp_path / "t.csv")
    assert list(back.rows) == [tuple(map(fmt_value, row)) for row in t.rows]


def _reference_write_csv(table, path):
    """The csv.writer table writer that the row template replaced: every value
    formatted on its own, quoting left to csv.QUOTE_MINIMAL."""
    def formatter(kind):
        return {"b": lambda v: "1" if v else "0", "f": "{:.17g}".format}.get(kind, str)

    cols = list(map(table.column, table.columns))
    fmts = [formatter(np.asarray(col).dtype.kind) for col in cols]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(table.columns)
        for lo in range(0, len(table.rows), tableio._BLOCK_ROWS):
            block = [col[lo:lo + tableio._BLOCK_ROWS] for col in cols]
            block = [b.tolist() if isinstance(b, np.ndarray) else b for b in block]
            w.writerows(zip(*(map(f, b) for f, b in zip(fmts, block))))


def _written(writer, table) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.csv")
        writer(table, path)
        with open(path, "rb") as fh:
            return fh.read()


TWO_BLOCKS = 2 * tableio._BLOCK_ROWS
FLOAT_EDGES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1]
F32 = np.finfo(np.float32)
FLOAT32_EDGES = np.array([math.nan, math.inf, -math.inf, -0.0,
                          F32.smallest_subnormal, F32.max, 0.1], dtype=np.float32)
TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "Z", "0",
                                "é", "-", "'"]), max_size=4)

#: (strategy of one value, how a list of them becomes a column)
COLUMN_KINDS = [
    (st.one_of(st.floats(), st.sampled_from(FLOAT_EDGES)), np.array),
    (st.floats(width=32), lambda v: np.array(v, dtype=np.float32)),
    (st.floats(width=32).map(np.float32), list),           # np.float32 scalars
    (st.one_of(st.floats(), st.integers(-3, 3)), list),    # Python floats and ints
    (st.booleans(), np.array),
    (st.booleans(), list),
    (st.booleans().map(np.bool_), list),
    (st.integers(-2**63, 2**63 - 1), lambda v: np.array(v, dtype=np.int64)),
    (st.integers(0, 2**70), list),                         # kind u or O
    (st.one_of(st.booleans(), st.integers(-3, 3)), list),  # kind i: True stays True
    (TEXT, list),
    (TEXT, np.array),
]


@st.composite
def tables(draw):
    """Tables of 1-4 columns, each of one of COLUMN_KINDS.  A column is one
    fill value with up to three others at drawn rows, so a value that needs
    quotes can sit in one row block and not in the next.  Any column may
    come as ``Indexed``: its values, the fill value first and then up to
    two that no row refers to, and the index of each row's value, which
    repeats the fill value across both row blocks."""
    rows = draw(st.one_of(st.integers(0, 5),
                          st.sampled_from([TWO_BLOCKS - 1, TWO_BLOCKS + 1])))
    names = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    data = {}
    for name in names:
        value, make = draw(st.sampled_from(COLUMN_KINDS))
        values, index = [draw(value)], np.zeros(rows, np.intp)
        for _ in range(draw(st.integers(0, 3)) if rows else 0):
            index[draw(st.integers(0, rows - 1))] = len(values)
            values.append(draw(value))
        if draw(st.booleans()):
            skipped = draw(st.lists(value, max_size=2))
            at = draw(st.integers(0, len(values)))
            index[index >= at] += len(skipped)
            data[name] = Indexed(make(values[:at] + skipped + values[at:]), index)
        else:
            data[name] = make([values[i] for i in index])
    return ResultTable(data)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(tables())
@example(ResultTable({"x": np.array(FLOAT_EDGES),
                      "x32": FLOAT32_EDGES, "s32": list(FLOAT32_EDGES)}))
@example(ResultTable({"flag": np.array([True, False]), "py": [False, True],
                      "np": [np.True_, np.False_], "mixed": [True, 2],
                      "big": [2**63, 2**64 + 1]}))
@example(ResultTable({"a,b": ["x,y", 'say "hi"', "l\r\nf", " lead", ""],
                      '"q"': ["cr\r", "lf\n", "", '""', "plain"]}))
@example(ResultTable({"": ["", "a", ""]}))
@example(ResultTable({"only": []}))
@example(ResultTable({"": []}))
@example(ResultTable({"x": np.arange(TWO_BLOCKS + 1) * 0.5,
                      "s": ["p"] * TWO_BLOCKS + ["p,q"]}))
# integers whose span equals their count, and one whose span is one more
@example(ResultTable({"i": np.array([3, 8, 5, 5, 5, 5])}))
@example(ResultTable({"i": np.array([3, 9, 5, 5, 5, 5])}))
# offsets that wrap when formed in the column's own dtype
@example(ResultTable({"i8": np.resize(np.arange(-128, 51, dtype=np.int8), 200)}))
@example(ResultTable({"i8": np.resize(np.arange(-128, 128, dtype=np.int8), 300)}))
@example(ResultTable({"i64": np.array([-2**63, -2**63 + 1] * 3, np.int64),
                      "u64": np.array([2**64 - 2, 2**64 - 1] * 3, np.uint64)}))
@example(ResultTable({"i64": np.array([2**63 - 2, 2**63 - 1] * 3, np.int64),
                      "u64": np.array([0, 1] * 3, np.uint64)}))
# floats that leave byte columns all PAD, and floats that use all 24 bytes
@example(ResultTable({"x": np.array([0.5, 1.25] * 3)}))
@example(ResultTable({"x": np.array([-1 / 3e3, 1 / 3e-300] * 3)}))
# Indexed columns: indices that skip values, indices that repeat values
# across both row blocks, and empty indices
@example(ResultTable({"i": Indexed(np.array([7, -3, 12]), [2, 0, 2, 2]),
                      "s": Indexed(["a,b", "c", 'd"'], [1, 1, 0, 1]),
                      "f": Indexed([True, 2.5, False], [0, 0, 2, 0])}))
@example(ResultTable({"x": Indexed(np.array([0.1, -0.0, math.nan]),
                                   np.arange(TWO_BLOCKS + 1) % 3),
                      "p": Indexed(["p", "q", "r,s"], np.arange(TWO_BLOCKS + 1) % 2),
                      "n": np.arange(TWO_BLOCKS + 1)}))
@example(ResultTable({"e": Indexed(np.array([1.5]), np.array([], np.intp)),
                      "t": Indexed(["x"], [])}))
@example(ResultTable({"": Indexed(["", "a"], [0, 1, 0])}))
def test_write_csv_bytes_match_csv_writer(table):
    assert _written(write_csv, table) == _written(_reference_write_csv, table)


def test_write_csv_gathers_rows_from_c_ordered_tables(tmp_path, monkeypatch):
    # a row of a column-major table of cells spans one cache line per byte
    # column; timing on a small shared host cannot tell that layout apart
    layouts = []
    take = np.take

    def spy(table, indices, *args, **kwargs):
        layouts.append(table.flags.c_contiguous)
        return take(table, indices, *args, **kwargs)

    monkeypatch.setattr(np, "take", spy)
    n = tableio._BLOCK_ROWS + 3
    x = np.random.default_rng(1).normal(size=n)
    t = Indexed(x[:5], np.arange(n) % 5)
    write_csv(ResultTable({"i": np.arange(n) % 7, "x": x, "t": t}), tmp_path / "t.csv")
    # two blocks of two plain columns, and the Indexed column's values
    # once and its rows per block
    assert len(layouts) == 7 and all(layouts)


@pytest.mark.parametrize("argv, tables", [
    (["clock", "--energies", ",".join(map(str, range(30))), "--steps", "400"], 2),
    # no two level spacings alike, so hardly two coherences are
    (["clock", "--energies", ",".join(map(repr, np.sort(
        np.random.default_rng(7).uniform(0.0, 29.0, 30)).tolist())), "--steps", "60"], 2),
    # Monte Carlo: event counts that differ from step to step, over 3 blocks
    (["clock", "--energies", ",".join(map(str, range(12))), "--steps", "300",
      "--samples", "40", "--seed", "5"], 2),
    (["sweep", "--axis", "hbar=0.2:2:40", "--axis", "h0=0.5:2:40"], 1),
    (["cosmo", "--potential", "quadratic:4", "--hbar-list", "0.1,0.05,0.025",
      "--t-max", "0.3", "--t-points", "20001", "--matter", "twolevel:5"], 2),
], ids=["clock_30level_400step", "clock_random_energies", "clock_monte_carlo",
        "sweep_2axis", "cosmo_matter"])
def test_cli_tables_match_csv_writer_bytes(tmp_path, monkeypatch, argv, tables):
    # the golden tests compare cells after read_csv, which a changed line
    # terminator or quoting would pass
    kept = {}

    def keep(table, path):
        kept[os.path.basename(path)] = table
        write_csv(table, path)

    monkeypatch.setattr(cli, "write_csv", keep)
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == cli.EXIT_OK
    assert len(kept) == tables
    for name, table in kept.items():
        assert (tmp_path / name).read_bytes() == _written(_reference_write_csv, table), name


def test_cli_clock_formats_each_repeated_value_once_per_table(tmp_path, monkeypatch):
    # the benchmark's shape: 401 steps, times and event counts and 435 pair
    # labels repeated over 174 435 rows
    calls, derived, kept = [], [], {}
    text_cells, int_cells, write = _fmt17.text_cells, _fmt17.int_cells, cli.write_csv

    def spy(builder, kind):
        def wrapper(values):
            calls.append((kind, list(kept)[-1], values))
            return builder(values)
        return wrapper

    def keep(table, path):
        kept[os.path.basename(path)] = table
        write(table, path)

    class Tracked(np.ndarray):
        def __array_finalize__(self, obj):
            derived.append(len(self) if self.ndim else 1)

    class Spied(Indexed):
        # values whose every derived array is counted, to find an expansion
        def __init__(self, values, index):
            super().__init__(values, index)
            self.values = self.values.view(Tracked)

    monkeypatch.setattr(_fmt17, "text_cells", spy(text_cells, "text"))
    monkeypatch.setattr(_fmt17, "int_cells", spy(int_cells, "int"))
    monkeypatch.setattr(cli, "write_csv", keep)
    monkeypatch.setattr(cli, "Indexed", Spied)
    argv = ["clock", "--energies", ",".join(map(str, range(30))), "--steps", "400"]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == cli.EXIT_OK
    table = kept["clock_trajectory.csv"]
    assert len(table.rows) == 401 * 435
    # neither ResultTable(...) nor write_csv expanded an Indexed column
    assert max(derived, default=0) < len(table.rows)
    labels = [f"{i}-{j}" for i in range(30) for j in range(i + 1, 30)]
    mine = [(kind, values) for kind, name, values in calls if name == "clock_trajectory.csv"]
    assert [v for kind, v in mine if kind == "text" and set(v) & set(labels)] == [labels]
    ints = [v for kind, v in mine if kind == "int"]
    assert len(ints) == 1
    np.testing.assert_array_equal(ints[0], np.union1d(
        table.column("step"), table.column("events_so_far")))
    # the spy sees an expansion: column() builds one on demand
    assert max(derived) == len(table.rows)


def _float_text(values) -> list[str]:
    """The array formatter's text of each value."""
    cells = np.ascontiguousarray(_fmt17.float_cells(np.asarray(values, np.float64)))
    return [row.tobytes().translate(None, b"\xff").decode() for row in cells.view(np.uint8)]


FORMAT_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
                1e16, 1e17, 1e23, 9.9999999999999991e-5, 1e-4, 1e-5, 99999999999999999.0,
                0.1, -1.5, 123456789012345678.0, 1e22, 1e-300, 1e300]
#: 18 significant digits ending in 5: the correctly rounded 17 digits are
#: a tie, broken to even
ROUNDING_TIES = [1 + 2.0**-17, -(3 + 2.0**-17), 0.5 + 2.0**-18, 1024 + 2.0**-14,
                 26215 * 2.0**-19]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=64))
@example(np.array(FORMAT_EDGES).view(np.int64).tolist())
@example(np.array(ROUNDING_TIES).view(np.int64).tolist())
def test_float_formatter_matches_percent_17g(bits):
    # arbitrary bit patterns: subnormals, infinities and nans with any payload
    x = np.array(bits, np.int64).view(np.float64)
    assert _float_text(x) == ["%.17g" % v for v in x.tolist()]


def test_float_formatter_matches_percent_17g_on_wide_samples():
    rng = np.random.default_rng(3)
    x = np.concatenate([
        rng.integers(-2**63, 2**63 - 1, 40000, dtype=np.int64).view(np.float64),
        np.exp(rng.uniform(-700.0, 700.0, 40000)),
        rng.normal(size=40000) * 10.0 ** rng.integers(-25, 25, 40000),
        # short decimals times powers of ten, among them many ties
        np.round(rng.normal(size=40000), 3) * 10.0 ** rng.integers(0, 18, 40000),
        [10.0 ** k for k in range(-323, 309)],
        [np.nextafter(10.0 ** k, d) for k in range(-300, 308) for d in (0.0, math.inf)],
    ])
    want = ["%.17g" % v for v in x.tolist()]
    got = _float_text(x)
    assert [(v, g) for v, g, w in zip(x.tolist(), got, want) if g != w] == []


def test_float_formatter_leaves_rounding_ties_to_python():
    # the double-double product cannot tell a tie from a near tie
    _, _, sure = _fmt17._digits17(np.abs(np.array(ROUNDING_TIES)))
    assert not sure.any()
    assert _float_text(ROUNDING_TIES) == ["%.17g" % v for v in ROUNDING_TIES]


def test_text_cell_keeps_nul(tmp_path):
    t = ResultTable({"s": ["a\x00b", "c"], "u": np.array(["a\x00b", "c"]),
                     "x": [1.0, 2.0]})
    write_csv(t, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == (
        b"s,u,x\r\na\x00b,a\x00b,1\r\nc,c,2\r\n")


def test_block_of_zeros_and_nan(tmp_path):
    # distinct values are found by bit pattern, so 0.0 and -0.0 stay apart
    write_csv(ResultTable({"x": np.array([0.0, -0.0, math.nan, 0.0, -0.0])}),
              tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == b"x\r\n0\r\n-0\r\nnan\r\n0\r\n-0\r\n"


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # in the C locale without UTF-8 mode, open() defaults to ASCII
    code = ("from semiq.tableio import *; "
            "write_csv(ResultTable({'name': ['caf\\u00e9']}), 't.csv'); "
            "write_manifest('m.txt', {'note': 'caf\\u00e9'}, ['t.csv']); "
            "assert read_csv('t.csv').column('name') == ['caf\\u00e9']; "
            "assert read_manifest('m.txt')['note'] == 'caf\\u00e9'")
    src = os.path.dirname(os.path.dirname(semiq.__file__))
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONUTF8": "0", "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                   check=True, capture_output=True)
    assert (tmp_path / "t.csv").read_bytes() == b"name\r\ncaf\xc3\xa9\r\n"
    assert b"note = caf\xc3\xa9\n" in (tmp_path / "m.txt").read_bytes()


def test_read_csv_rejects_ragged_rows(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError):
        read_csv(p)
    p.write_text("a,a\n1,2\n")
    with pytest.raises(ValueError):
        read_csv(p)


def test_manifest_roundtrip(tmp_path):
    p = tmp_path / "run.manifest.txt"
    entries = {"subcommand": "tunnel", "hbar": 1.0, "sweep": False, "points": 20000}
    write_manifest(p, entries, outputs=["tunnel.csv", "tunnel_sweep.csv"])
    back = read_manifest(p)
    assert back["subcommand"] == "tunnel"
    assert back["hbar"] == "1"
    assert back["sweep"] == "0"
    assert back["outputs"] == "tunnel.csv,tunnel_sweep.csv"


def test_manifest_value_with_equals(tmp_path):
    p = tmp_path / "m.txt"
    write_manifest(p, {"note": "a=b=c"}, outputs=[])
    assert read_manifest(p)["note"] == "a=b=c"


def test_svg_render_deterministic():
    def make():
        pl = LinePlot(title="demo", xlabel="x", ylabel="y")
        pl.add("rise", [1.0, 2.0, 3.0], [1.0, 4.0, 9.0])
        return pl.render()

    a, b = make(), make()
    assert a == b
    assert a.startswith("<svg")
    assert "demo" in a


def test_svg_loglog_slope_annotation():
    pl = LinePlot(title="scaling", xlabel="h", ylabel="err", xlog=True, ylog=True)
    h = [0.1, 0.05, 0.025, 0.0125]
    pl.add("err", h, [hi**2 for hi in h])
    slope = pl.annotate_slope("err", h, [hi**2 for hi in h])
    assert slope == pytest.approx(2.0, abs=1e-9)
    assert "slope 2.000" in pl.render()


def test_svg_log_scale_drops_nonpositive():
    pl = LinePlot(title="t", xlabel="x", ylabel="y", ylog=True)
    pl.add("s", [1.0, 2.0, 3.0], [1.0, -1.0, 4.0])
    assert pl.series[0][1] == [1.0, 3.0]
    assert pl.series[0][2] == [1.0, 4.0]


def test_svg_empty_series_rejected():
    pl = LinePlot(title="t", xlabel="x", ylabel="y", ylog=True)
    with pytest.raises(ValueError):
        pl.add("s", [1.0, 2.0], [-1.0, np.nan])


def test_svg_write(tmp_path):
    pl = LinePlot(title="t", xlabel="x", ylabel="y")
    pl.add("s", [0.0, 1.0], [0.0, 1.0])
    out = tmp_path / "p.svg"
    pl.write(out)
    assert out.read_text(encoding="utf-8").endswith("</svg>\n")
