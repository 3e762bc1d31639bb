import math

import numpy as np
import pytest

from semiq import tableio
from semiq.svgplot import LinePlot
from semiq.tableio import (
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
