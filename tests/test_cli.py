"""End-to-end checks driven through semiq.cli.main (same code path as the
console script, minus the process boundary, so failures keep tracebacks)."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import semiq
from semiq.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from semiq.tableio import read_csv, read_manifest


def run_cli(args, tmp_path, capsys=None):
    code = main([*args, "--output-dir", str(tmp_path)])
    return code


def test_clock_outputs(tmp_path):
    assert run_cli(["clock", "--energies", "0,1", "--sigma", "0.1",
                    "--mu0", "1.0", "--steps", "250"], tmp_path) == EXIT_OK
    summary = read_csv(tmp_path / "clock_summary.csv")
    row = summary.rows[0]
    cols = dict(zip(summary.columns, row))
    assert cols["pair"] == "0-1"
    assert cols["retention_steps"] == "200"
    assert cols["reached"] == "1"
    traj = read_csv(tmp_path / "clock_trajectory.csv")
    assert traj.columns == ["step", "time", "pair", "coherence", "events_so_far"]
    assert len(traj.rows) == 251
    assert (tmp_path / "clock.manifest.txt").exists()


def test_clock_not_reached_sentinels(tmp_path):
    assert run_cli(["clock", "--energies", "0,1", "--sigma", "0.1",
                    "--mu0", "1.0", "--steps", "50"], tmp_path) == EXIT_OK
    cols = read_csv(tmp_path / "clock_summary.csv")
    row = dict(zip(cols.columns, cols.rows[0]))
    assert row["retention_steps"] == "-1"
    assert row["retention_time"] == "nan"
    assert row["reached"] == "0"


def test_tunnel_reference_values(tmp_path):
    assert run_cli(["tunnel", "--hbar", "1", "--mu", "1", "--j0", "1",
                    "--h0", "1", "--oracle"], tmp_path) == EXIT_OK
    t = read_csv(tmp_path / "tunnel.csv")
    row = dict(zip(t.columns, t.rows[0]))
    assert float(row["T_closed"]) == pytest.approx(1.1762e-2, rel=1e-4)
    assert float(row["T_numeric"]) == pytest.approx(1.1624e-2, rel=0.10)
    assert float(row["T_current_ratio"]) == pytest.approx(float(row["T_closed"]),
                                                          rel=1e-3)
    assert float(row["richardson_error"]) < 1e-6


def test_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    args = ["clock", "--energies", "0,0.5,1.3", "--sigma", "0.2",
            "--samples", "200", "--seed", "7", "--steps", "80"]
    assert run_cli(args, a) == EXIT_OK
    assert run_cli(args, b) == EXIT_OK
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_manifest_reproduces_run(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert run_cli(["network", "--mode", "ek", "--n", "3", "--N", "4",
                    "--beta", "1.0", "--draws", "4", "--samples", "100",
                    "--seed", "3"], a) == EXIT_OK
    from semiq.cli import RunConfig, run

    cfg = RunConfig.from_manifest(a / "network.manifest.txt")
    cfg.output_dir = str(b)
    run(cfg)
    for name in os.listdir(a):
        if name.endswith(".csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_validation_failure_leaves_no_files(tmp_path, capsys):
    code = run_cli(["tunnel", "--hbar", "-1"], tmp_path)
    assert code == EXIT_VALIDATION
    assert os.listdir(tmp_path) == []
    assert "hbar" in capsys.readouterr().err


def test_malformed_number_exits_2(tmp_path):
    assert run_cli(["clock", "--energies", "0,banana"], tmp_path) == EXIT_VALIDATION
    assert os.listdir(tmp_path) == []


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("hbar = 1\nwibble = 2\n")
    assert main(["tunnel", "--config", str(cfg),
                 "--output-dir", str(tmp_path / "out")]) == EXIT_VALIDATION


def test_config_file_flag_precedence(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("h0 = 2.0\nmu = 1.0\n")
    out = tmp_path / "out"
    assert main(["tunnel", "--config", str(cfg), "--h0", "1.0",
                 "--output-dir", str(out)]) == EXIT_OK
    man = read_manifest(out / "tunnel.manifest.txt")
    assert man["h0"] == "1"          # flag wins over config file
    assert man["mu"] == "1"


def test_output_dir_env(tmp_path, monkeypatch):
    target = tmp_path / "envdir"
    target.mkdir()
    monkeypatch.setenv("SEMIQ_OUTPUT_DIR", str(target))
    assert main(["tunnel"]) == EXIT_OK
    assert (target / "tunnel.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failure_exit_3(tmp_path):
    # cosmo horizon too long for the integrator at this potential
    assert run_cli(["cosmo", "--t-max", "200"], tmp_path) == EXIT_NUMERICAL


def test_io_failure_exit_4(tmp_path):
    blocker = tmp_path / "tunnel.csv"
    blocker.write_text("x")
    code = run_cli(["tunnel"], tmp_path / "tunnel.csv" / "sub")
    assert code == EXIT_IO


@pytest.mark.parametrize("blocked", ["clock_summary.csv", "clock.manifest.txt"])
def test_io_failure_after_first_file_leaves_no_files(tmp_path, blocked):
    (tmp_path / blocked).mkdir()
    assert run_cli(["clock"], tmp_path) == EXIT_IO
    assert os.listdir(tmp_path) == [blocked]


def test_sweep_single_axis_monotone(tmp_path):
    assert run_cli(["sweep", "--axis", "h0=0.8:2.0:7", "--oracle"],
                   tmp_path) == EXIT_OK
    t = read_csv(tmp_path / "sweep.csv")
    h0s = [float(v) for v in t.column("h0")]
    ts = [float(v) for v in t.column("T_closed")]
    assert h0s == sorted(h0s)
    assert ts == sorted(ts, reverse=True)    # taller barrier, less tunnelling
    tn = [float(v) for v in t.column("T_numeric")]
    for a, b in zip(ts, tn):
        assert abs(a - b) / a < 0.10


def test_sweep_two_axes_lexicographic(tmp_path):
    assert run_cli(["sweep", "--axis", "h0=1:2:3", "--axis", "mu=1:4:2"],
                   tmp_path) == EXIT_OK
    t = read_csv(tmp_path / "sweep.csv")
    pairs = [(float(r[t.columns.index("h0")]), float(r[t.columns.index("mu")]))
             for r in t.rows]
    assert len(pairs) == 6
    assert pairs == sorted(pairs)


def test_sweep_axis_validation(tmp_path):
    assert run_cli(["sweep", "--axis", "h0=1:2:500"], tmp_path) == EXIT_VALIDATION
    assert run_cli(["sweep", "--axis", "banana=1:2:3"], tmp_path) == EXIT_VALIDATION
    assert run_cli(["sweep", "--axis", "h0=1:2:3", "--axis", "mu=1:2:3",
                    "--axis", "j0=1:2:3"], tmp_path) == EXIT_VALIDATION
    assert os.listdir(tmp_path) == []


def test_plot_flag_writes_svg(tmp_path):
    assert run_cli(["sweep", "--axis", "h0=0.8:2.0:5", "--plot"],
                   tmp_path) == EXIT_OK
    svgs = [n for n in os.listdir(tmp_path) if n.endswith(".svg")]
    assert svgs
    body = (tmp_path / svgs[0]).read_text(encoding="utf-8")
    assert body.startswith("<svg")


def test_plot_single_row_rejected(tmp_path):
    assert run_cli(["tunnel", "--plot"], tmp_path) == EXIT_VALIDATION
    assert os.listdir(tmp_path) == []


def test_cosmo_outputs_and_slope(tmp_path):
    assert run_cli(["cosmo", "--hbar-list", "0.1,0.05,0.025",
                    "--t-max", "0.3"], tmp_path) == EXIT_OK
    res = read_csv(tmp_path / "cosmo_residual.csv")
    slopes = {float(v) for v in res.column("slope")}
    assert len(slopes) == 1
    assert abs(slopes.pop() - 2.0) < 0.2
    vals = [float(v) for v in res.column("residual")]
    assert vals == sorted(vals, reverse=True)
    traj = read_csv(tmp_path / "cosmo_trajectory.csv")
    assert traj.columns[:2] == ["t", "a"]


def test_cosmo_matter_columns(tmp_path):
    assert run_cli(["cosmo", "--matter", "twolevel:1.3", "--t-max", "0.2",
                    "--t-points", "51"], tmp_path) == EXIT_OK
    traj = read_csv(tmp_path / "cosmo_trajectory.csv")
    assert "norm" in traj.columns
    norms = [float(v) for v in traj.column("norm")]
    for n in norms:
        assert abs(n - 1.0) < 1e-9


def test_cosmo_reads_potential_and_matter_tables(tmp_path):
    grid = [0.5 + 0.25 * k for k in range(21)]
    pot, mat, bad = tmp_path / "u.csv", tmp_path / "h.csv", tmp_path / "bad.csv"
    pot.write_text("a,u\n" + "".join(f"{a!r},4\n" for a in grid))
    mat.write_text("a,h00,h01re,h01im,h11\n"
                   + "".join(f"{a!r},0.5,{0.5 / a!r},0,-0.5\n" for a in grid))
    bad.write_text("a,u\n1,4\n2\n")
    assert main(["cosmo", "--potential", f"table:{pot}", "--matter",
                 f"file:{mat}", "--output-dir", str(tmp_path / "ok")]) == EXIT_OK
    traj = read_csv(tmp_path / "ok" / "cosmo_trajectory.csv")
    assert float(traj.column("a")[-1]) > 1.0
    assert all(abs(float(v) - 1.0) < 1e-9 for v in traj.column("norm"))
    assert main(["cosmo", "--potential", f"table:{bad}",
                 "--output-dir", str(tmp_path / "no")]) == EXIT_VALIDATION
    assert not (tmp_path / "no").exists()


def residual_rows(out_dir):
    res = read_csv(out_dir / "cosmo_residual.csv")
    return [(float(h), float(r), float(s)) for h, r, s in res.rows]


def test_cosmo_residual_in_deep_regime(tmp_path):
    # a grows to e^4: S = a^2 - 1 winds far faster than any grid resolves,
    # and the residual is hbar^2 ||A''|| / ||U A|| with A = a^(-1/2)
    from semiq.minisuperspace import RESIDUAL_POINTS

    assert run_cli(["cosmo", "--t-max", "1.0"], tmp_path) == EXIT_OK
    a_end = float(read_csv(tmp_path / "cosmo_trajectory.csv").column("a")[-1])
    a = np.linspace(1.0, a_end, RESIDUAL_POINTS)
    ratio = np.linalg.norm(0.75 * a**-2.5) / np.linalg.norm(4.0 * a**1.5)
    for hbar, residual, slope in residual_rows(tmp_path):
        assert residual == pytest.approx(hbar**2 * ratio, rel=1e-10)
        assert abs(slope - 2.0) < 0.2


@pytest.mark.parametrize("plot", [False, True])
def test_cosmo_constant_potential_has_no_residual(tmp_path, plot):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["cosmo", "--potential", "constant:4",
                        *(["--plot"] if plot else [])], tmp_path) == EXIT_OK
    assert caught == []
    for _, residual, slope in residual_rows(tmp_path):
        assert residual == 0.0 and math.isnan(slope)
    if plot:
        assert (tmp_path / "cosmo_trajectory.svg").exists()
        assert (tmp_path / "cosmo_residual.svg").exists()


def test_cosmo_table_potential_is_splined(tmp_path):
    grid = [0.5 + 0.1 * k for k in range(26)]
    quad, flat = tmp_path / "quad.csv", tmp_path / "flat.csv"
    quad.write_text("a,u\n" + "".join(f"{a!r},{4 * a * a!r}\n" for a in grid))
    flat.write_text("a,u\n" + "".join(f"{a!r},4\n" for a in grid))
    # both quadratic potentials reach a = 3 before t_max; the flat one does not
    with pytest.warns(UserWarning, match="clock map truncated") as record:
        for name, spec in (("table", f"table:{quad}"), ("closed", "quadratic:4"),
                           ("flat", f"table:{flat}")):
            assert main(["cosmo", "--potential", spec, "--a-max", "3.0",
                         "--output-dir", str(tmp_path / name)]) == EXIT_OK
    assert len(record) == 2
    # a cubic spline reproduces u = 4 a^2 exactly, so U'' is 8, not a sum
    # of delta functions at the knots
    for got, want in zip(residual_rows(tmp_path / "table"),
                         residual_rows(tmp_path / "closed")):
        assert got == pytest.approx(want, rel=1e-9)
    for _, residual, slope in residual_rows(tmp_path / "flat"):
        assert residual == 0.0 and math.isnan(slope)


def test_cosmo_rejects_non_finite_matter_table(tmp_path):
    grid = [0.5 + 0.25 * k for k in range(21)]
    mat = tmp_path / "h.csv"
    mat.write_text("a,h00,h01re,h01im,h11\n" + "".join(
        f"{a!r},0.5,{'nan' if a == 2.0 else repr(0.5 / a)},0,-0.5\n"
        for a in grid))
    out = tmp_path / "out"
    assert main(["cosmo", "--matter", f"file:{mat}", "--t-max", "0.2",
                 "--t-points", "21", "--output-dir", str(out)]) == EXIT_NUMERICAL
    assert not out.exists()


def test_network_gauge_mode(tmp_path):
    assert run_cli(["network", "--mode", "gauge-check", "--n", "4", "--N", "4",
                    "--samples", "10", "--seed", "0"], tmp_path) == EXIT_OK
    t = read_csv(tmp_path / "network_gauge_check.csv")
    diffs = [float(v) for v in t.column("abs_difference")]
    assert diffs and max(diffs) < 1e-10


def test_network_ek_has_no_size_ceiling(tmp_path):
    # nN = 8192: twice the largest dense operator gauge-check assembles
    assert run_cli(["network", "--mode", "ek", "--n", "64", "--N", "128",
                    "--draws", "1", "--samples", "50"], tmp_path) == EXIT_OK
    t = read_csv(tmp_path / "network_ek.csv")
    assert math.isfinite(float(t.column("discrepancy")[0]))


def test_network_rolldown_mode(tmp_path):
    assert run_cli(["network", "--mode", "rolldown", "--n", "16",
                    "--patterns", "3", "--flips", "1", "--seed", "5"],
                   tmp_path) == EXIT_OK
    summary = read_csv(tmp_path / "network_rolldown_summary.csv")
    row = dict(zip(summary.columns, summary.rows[0]))
    assert row["recovered"] == "1"
    steps = read_csv(tmp_path / "network_rolldown.csv")
    energies = [float(v) for v in steps.column("energy")]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_network_entropy_mode(tmp_path):
    assert run_cli(["network", "--mode", "entropy", "--n", "6",
                    "--steps", "400", "--flip-prob", "0.3", "--window", "2",
                    "--seed", "1"], tmp_path) == EXIT_OK
    t = read_csv(tmp_path / "network_entropy.csv")
    row = dict(zip(t.columns, t.rows[0]))
    assert 0.0 <= float(row["entropy_bits_per_step"]) <= 6.0


def test_network_entropy_flags_undersampling_without_warnings(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["network", "--mode", "entropy", "--n", "3",
                        "--steps", "300", "--window", "4", "--seed", "5"],
                       tmp_path) == EXIT_OK
    t = read_csv(tmp_path / "network_entropy.csv")
    assert t.column("undersampled")[-1] == "1"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["tunnel", "--help"]) == 0
    capsys.readouterr()


def test_unknown_flag_exits_2(tmp_path):
    assert main(["tunnel", "--frobnicate", "--output-dir",
                 str(tmp_path)]) == EXIT_VALIDATION
    assert os.listdir(tmp_path) == []


def test_paths_printed_on_success(tmp_path, capsys):
    assert run_cli(["tunnel"], tmp_path) == EXIT_OK
    out = capsys.readouterr().out
    assert "tunnel.csv" in out


def test_tunnel_is_a_one_point_sweep(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["tunnel", "--h0", "1.7", "--mu", "0.8", "--oracle"],
                   a) == EXIT_OK
    assert run_cli(["sweep", "--axis", "h0=1.7:1.7:1", "--mu", "0.8",
                    "--oracle"], b) == EXIT_OK
    assert (a / "tunnel.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_tunnel_sweep_flag_removed(tmp_path):
    assert run_cli(["tunnel", "--sweep", "hbar=1:2:3"],
                   tmp_path) == EXIT_VALIDATION
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args", [
    ["tunnel"], ["sweep", "--axis", "h0=1:2:2"], ["cosmo"]])
def test_seed_only_where_random_numbers_are_drawn(tmp_path, args):
    assert run_cli([*args, "--seed", "1"], tmp_path) == EXIT_VALIDATION
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args", [
    ["tunnel", "--hbar", "0.01"],
    ["sweep", "--axis", "hbar=0.02:0.2:10", "--axis", "mu=0.5:2:3"],
])
def test_deep_semiclassical_current_ratio(tmp_path, args):
    # the finite-difference step follows the local wavelength hbar/p
    assert run_cli(args, tmp_path) == EXIT_OK
    t = read_csv(tmp_path / f"{args[0]}.csv")
    for ratio, closed in zip(t.column("T_current_ratio"), t.column("T_closed")):
        assert float(ratio) == pytest.approx(float(closed), rel=1e-4)


def test_manifest_with_unknown_key_rejected(tmp_path):
    from semiq.cli import RunConfig, ValidationError

    assert run_cli(["tunnel"], tmp_path) == EXIT_OK
    path = tmp_path / "tunnel.manifest.txt"
    assert RunConfig.from_manifest(path).parameters["hbar"] == 1.0
    text = path.read_text()
    # what a manifest of an older tunnel --sweep run carried
    for extra in ("seed = 0\n", "sweep = hbar=1:2:3\n"):
        path.write_text(text + extra)
        with pytest.raises(ValidationError, match="unknown key"):
            RunConfig.from_manifest(path)


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs about half a second of import time and nothing uses
    # it; scipy.interpolate costs about 50 ms and only table: potentials do
    code = ("import sys, semiq.cli; print([m for m in "
            "('scipy.stats', 'scipy.interpolate') if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(semiq.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
