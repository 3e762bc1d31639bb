"""Tests of the benchmark itself: failures are counted, seeds keep work sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import io
import os
import sys

import pytest

import run
import workloads
from workloads import WORKLOADS, ClockTables, NetworkEk, Sweep

sys.path.insert(0, run.SRC)
import semiq.cli  # noqa: E402


def _run_cli(argv, out_dir):
    with contextlib.redirect_stdout(io.StringIO()):
        return semiq.cli.main(argv + ["--output-dir", str(out_dir)])


def _corrupt(path, column, factor, row=1):
    """Scale one cell of a CSV file (integers: add one)."""
    with open(path, newline="") as fh:
        lines = fh.read().split("\r\n")
    i = lines[0].split(",").index(column)
    cells = lines[1 + row].split(",")
    v = cells[i]
    cells[i] = str(int(v) + 1) if v.isdigit() else repr(float(v) * factor)
    lines[1 + row] = ",".join(cells)
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))


def _small_sweep():
    return Sweep("small", "", [("h0", 0.5, 2.0, 3), ("mu", 0.5, 2.0, 2)],
                 oracle=True, kemble_rtol=0.15)


def _small_clock():
    w = ClockTables()
    w.levels, w.steps = 4, 60
    return w


def _small_ek():
    w = NetworkEk()
    w.n, w.N, w.draws, w.samples = 3, 4, 2, 50
    return w


@pytest.mark.parametrize("make, name, column, factor", [
    (_small_sweep, "sweep.csv", "T_numeric", 1.2),
    (_small_sweep, "sweep.csv", "T_quadrature", 1 + 1e-8),
    (_small_sweep, "sweep.csv", "h0", 1 + 1e-15),
    (_small_sweep, "sweep.csv", "n", None),
    (_small_clock, "clock_trajectory.csv", "coherence", 1 + 1e-10),
    (_small_clock, "clock_trajectory.csv", "events_so_far", None),
    (_small_ek, "network_ek.csv", "discrepancy", 1 + 1e-7),
])
def test_corrupted_value_fails_the_check(tmp_path, make, name, column, factor):
    w = make()
    inp = w.inputs(3)
    assert _run_cli(inp.argv, tmp_path) == 0
    good = w.check(str(tmp_path), inp)
    assert good.ok, good.failures
    _corrupt(tmp_path / name, column, factor)
    bad = w.check(str(tmp_path), inp)
    assert not bad.ok and bad.failures[0].startswith(column)


def test_missing_output_fails_the_check(tmp_path):
    w = _small_sweep()
    c = w.check(str(tmp_path), w.inputs(0))
    assert not c.ok and "unreadable output" in c.failures[0]


class _Fixed(workloads.Workload):
    name = "fixed"

    def __init__(self, argv):
        self.argv = argv

    def inputs(self, seed):
        return workloads.Inputs(list(self.argv), 1)

    def _check(self, c, out_dir, inp):
        pass


def test_nonzero_exit_counts_as_failed(tmp_path):
    # a known defect: the finite-difference current is too coarse at hbar 0.01
    w = _Fixed(["tunnel", "--hbar", "0.01"])
    rec = run.run_child(w, w.inputs(0), False, str(tmp_path), 0)
    assert any("semiq exited 3" in f for f in rec["failures"])
    good = _Fixed(["tunnel"])
    ok = run.run_child(good, good.inputs(0), False, str(tmp_path), 1)
    metrics = run.end_to_end([rec, ok], items=1)
    assert metrics["ok_frac"][0] == 0.5


def test_traced_child_self_times_add_up(tmp_path):
    w = _Fixed(["sweep", "--axis", "h0=0.5:2:3"])
    rec = run.run_child(w, w.inputs(0), True, str(tmp_path), 0)
    assert not rec["failures"]
    m = run.layer_metrics(rec)
    root = [s for s in rec["spans"] if s[1] == "cli.main"]
    assert len(root) == 1 and root[0][5] is None
    total = sum(m[f"{layer}.self_s"] for layer in run.MODULES)
    assert total == pytest.approx(root[0][4] - root[0][3], rel=1e-9)
    assert m["oracle.calls"] == 0 and m["wkb.calls.current_ratio"] == 3
    assert m["cli.rows"] == 3 and m["tableio.bytes"] > 0


def _work_size(argv):
    """Every count in an argv: flag values that are integers, axis sizes,
    and the number of energies."""
    out = []
    for flag, val in zip(argv, argv[1:]):
        if flag == "--axis":
            out.append((flag, val.split("=")[0], val.rsplit(":", 1)[1]))
        elif flag == "--energies":
            out.append((flag, len(val.split(","))))
        elif flag.startswith("--") and val.isdigit() and flag != "--seed":
            out.append((flag, val))
    return [argv[0]] + out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs_not_work_size(name):
    w = WORKLOADS[name]
    a, b = w.inputs(1), w.inputs(2)
    assert a.argv != b.argv
    assert w.inputs(1).argv == a.argv
    assert a.items == b.items
    assert _work_size(a.argv) == _work_size(b.argv)


def test_bench_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "sweep_wkb", "--seed", "0",
                     "--seconds", "1"]) == 2
    assert not os.listdir(tmp_path)
