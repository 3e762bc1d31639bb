"""End-to-end checks driven through semiq.cli.main (same code path as the
console script, minus the process boundary, so failures keep tracebacks)."""

import builtins
import errno
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import CubicSpline

import semiq
from semiq import MiniSuperspaceModel, clock_map, evolve_matter
from semiq import cli
from semiq.cli import (EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION,
                       _parse_matter, _spline, main)
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


MANIFEST_RUNS = {
    "gauge-check": ["network", "--mode", "gauge-check", "--n", "3", "--N", "2",
                    "--draws", "3", "--g-scale", "0.5", "--seed", "4"],
    "ek": ["network", "--mode", "ek", "--n", "3", "--N", "4", "--beta", "1.0",
           "--draws", "4", "--samples", "100", "--seed", "3"],
    "rolldown": ["network", "--mode", "rolldown", "--n", "12", "--patterns", "2",
                 "--flips", "2", "--seed", "5"],
    "entropy": ["network", "--mode", "entropy", "--n", "3", "--steps", "60",
                "--flip-prob", "0.2", "--window", "3", "--seed", "1"],
    "tunnel": ["tunnel", "--h0", "1.3", "--oracle", "--points", "2000"],
    "sweep": ["sweep", "--axis", "h0=0.5:2:3", "--axis", "mu=1:3:2", "--oracle",
              "--points", "1000"],
    "clock": ["clock", "--energies", "0,0.7,1.9", "--samples", "50", "--seed", "1",
              "--steps", "40"],
    "cosmo": ["cosmo", "--matter", "twolevel:5", "--t-points", "41"],
}


@pytest.mark.parametrize("name", MANIFEST_RUNS)
def test_manifest_reproduces_run(tmp_path, name):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    args = MANIFEST_RUNS[name]
    assert run_cli(args, a) == EXIT_OK
    from semiq.cli import RunConfig, run

    sub = args[0]
    manifest = read_manifest(a / f"{sub}.manifest.txt")
    params = [k for k in manifest if k not in cli._MANIFEST_HEADER]
    assert params == list(cli._schema(sub, manifest.get("mode")))
    if sub == "sweep":
        # the one repeated key, written ;-joined
        assert [k for k in params if cli._SCHEMAS[sub][k].repeat] == ["axis"]
        assert manifest["axis"] == "h0=0.5:2:3;mu=1:3:2"
    cfg = RunConfig.from_manifest(a / f"{sub}.manifest.txt")
    cfg.output_dir = str(b)
    run(cfg)
    csvs = [name for name in os.listdir(a) if name.endswith(".csv")]
    assert csvs
    for name in csvs:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# (mode, key) for every key of the network table that the mode does not read
FOREIGN_KEYS = [(mode, key) for mode, (_, names) in cli._NETWORK_MODES.items()
                for key in cli._SCHEMAS["network"] if key not in ("mode", *names)]


@pytest.mark.parametrize("mode,key", FOREIGN_KEYS)
@pytest.mark.parametrize("via", ["flag", "config"])
def test_network_mode_refuses_other_modes_keys(tmp_path, capsys, mode, key, via):
    value = str(cli._SCHEMAS["network"][key].default)
    if via == "flag":
        args = ["network", "--mode", mode, cli._flag(key), value]
    else:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"mode = {mode}\n{key} = {value}\n")
        args = ["network", "--config", str(cfg)]
    out = tmp_path / "out"
    assert main([*args, "--output-dir", str(out)]) == EXIT_VALIDATION
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"--mode {mode} reads only" in err
    assert cli._flag(key) in err.split("drop")[1]


def test_manifest_of_another_mode_rejected(tmp_path):
    from semiq.cli import RunConfig, ValidationError

    assert run_cli(["network", "--mode", "rolldown", "--n", "8"],
                   tmp_path) == EXIT_OK
    path = tmp_path / "network.manifest.txt"
    text = path.read_text()
    # what a network manifest carried when every mode recorded every key
    path.write_text(text.replace("seed = 0\n", "seed = 0\nsamples = 2000\n"))
    with pytest.raises(ValidationError, match="unknown key 'samples'"):
        RunConfig.from_manifest(path)
    path.write_text(text.replace("mode = rolldown", "mode = bogus"))
    with pytest.raises(ValidationError, match="unknown mode 'bogus'"):
        RunConfig.from_manifest(path)


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


#: (an earlier run, a rerun in the same directory) per subcommand and mode,
#: with --plot wherever it is accepted, so the plots are written too
RERUNS = [
    (["clock", "--steps", "5", "--plot"], ["clock", "--steps", "6", "--plot"]),
    (["tunnel", "--h0", "1"], ["tunnel", "--h0", "2"]),
    (["sweep", "--axis", "h0=1:2:3", "--plot"],
     ["sweep", "--axis", "h0=1:2:4", "--plot"]),
    *[(["network", "--mode", mode, *flags, "--seed", "1"],
       ["network", "--mode", mode, *flags, "--seed", "2"])
      for mode, flags in [
          ("gauge-check", ["--n", "2", "--N", "2", "--draws", "2"]),
          ("ek", ["--n", "2", "--N", "2", "--draws", "2", "--samples", "50"]),
          ("rolldown", ["--n", "8", "--plot"]),
          ("entropy", ["--n", "3", "--steps", "50", "--plot"])]],
    (["cosmo", "--t-points", "20", "--plot"],
     ["cosmo", "--t-points", "21", "--plot"]),
]


def snapshot(path):
    """Every name in path, with the bytes of the files."""
    return {name: (path / name).read_bytes() if (path / name).is_file() else None
            for name in os.listdir(path)}


def fail_at(k, real, counts):
    """real, raising ENOSPC at its k-th call that counts (none for k = 0);
    returns the wrapper and the list of the calls that counted."""
    calls = []

    def wrapper(*args, **kwargs):
        if counts(args, kwargs):
            calls.append(args)
            if len(calls) == k:
                raise OSError(errno.ENOSPC, "injected", args[0])
        return real(*args, **kwargs)

    return wrapper, calls


def writing(args, kwargs):
    return "w" in (args[1] if len(args) > 1 else kwargs.get("mode", "r"))


@pytest.mark.filterwarnings("ignore:EK comparison undersampled")
@pytest.mark.parametrize("earlier, argv", RERUNS,
                         ids=[" ".join(r[1][:3]) for r in RERUNS])
def test_failed_run_leaves_the_directory_as_it_found_it(tmp_path, monkeypatch,
                                                       earlier, argv):
    # an OSError at each write of a staged file and at each rename, over an
    # empty directory and over an earlier run's files
    def prepared(out, ahead):
        out.mkdir()
        if ahead:
            assert run_cli(ahead, out) == EXIT_OK
        return snapshot(out)

    def run_with(out, target, name, k, counts):
        with monkeypatch.context() as m:
            wrapper, calls = fail_at(k, getattr(target, name), counts)
            m.setattr(target, name, wrapper)
            code = run_cli(argv, out)
        return code, calls

    for ahead in ([], earlier):
        for target, name, counts in [(builtins, "open", writing),
                                     (os, "replace", lambda *_: True)]:
            out = tmp_path / f"{name}_{bool(ahead)}"
            prepared(out, ahead)
            code, calls = run_with(out, target, name, 0, counts)
            assert code == EXIT_OK and len(calls) >= 2
            for k in range(1, len(calls) + 1):
                out = tmp_path / f"{name}_{bool(ahead)}_{k}"
                before = prepared(out, ahead)
                assert run_with(out, target, name, k, counts)[0] == EXIT_IO
                assert snapshot(out) == before, (name, k)


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


def test_resolve_refuses_tunnel_plot(tmp_path):
    # the API applies the CLI's rule: tunnel has no --plot
    from semiq.cli import RunConfig, ValidationError, run

    with pytest.raises(ValidationError, match="nothing to plot"):
        run(RunConfig.resolve("tunnel", {}, None, str(tmp_path), plot=True))
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


@pytest.mark.parametrize("hbars", ["1e-200,1e-210", "0.1,1.49e-154", "0.1,1e155",
                                   "0.1,0.05,0.0"])
def test_cosmo_refuses_hbar_whose_square_is_not_normal(tmp_path, capsys, hbars):
    # hbar**2 that underflows would write residual 0 and slope nan, which
    # only a constant potential may give
    out = tmp_path / "out"
    assert main(["cosmo", "--hbar-list", hbars, "--output-dir", str(out)]) == EXIT_VALIDATION
    assert not out.exists()
    assert "--hbar-list: must be" in capsys.readouterr().err


def residual_rows(out_dir):
    res = read_csv(out_dir / "cosmo_residual.csv")
    return [(float(h), float(r), float(s)) for h, r, s in res.rows]


def assert_quadratic_residuals(out_dir, c, a0, rel):
    """The residuals of U = c a^2 on the written span: A ~ a^(-1/2) and
    A''/A = 0.75 / a^2, so each is hbar^2 ||0.75 a^(-5/2)|| / (c ||a^(3/2)||)
    on wdw_residual's grid; hypot keeps the norms in the float range."""
    from semiq.minisuperspace import RESIDUAL_POINTS

    a_end = float(read_csv(out_dir / "cosmo_trajectory.csv").column("a")[-1])
    a = np.linspace(a0, a_end, RESIDUAL_POINTS)
    ratio = math.hypot(*0.75 * a**-2.5) / (c * math.hypot(*a**1.5))
    for hbar, residual, slope in residual_rows(out_dir):
        assert residual == pytest.approx(hbar**2 * ratio, rel=rel)
        assert abs(slope - 2.0) < 0.2


@pytest.mark.parametrize("args, c, a0", [
    (["--potential", "quadratic:1.4444534486892788e-05",
      "--hbar-list", "3.716686886034444e-09,2.206770671254327e-105",
      "--a0", "4.490630820763953e-11", "--t-max", "6.587264248730766e-13",
      "--t-points", "188"], 1.4444534486892788e-05, 4.490630820763953e-11),
    (["--potential", "quadratic:1.368307824923521e-12",
      "--hbar-list", "1533093271.4900444,8.497252017384294e+142",
      "--a0", "8515.052231063642", "--t-max", "8.487096331521277e-09",
      "--t-points", "203", "--matter", "twolevel:0.19943017752417364"],
     1.368307824923521e-12, 8515.052231063642),
    (["--t-max", "1e-9"], 4.0, 1.0),
], ids=["35-ulps", "93-ulps", "4e-9"])
def test_cosmo_residual_on_a_span_of_a_few_ulps(tmp_path, args, c, a0):
    # a(t) grows by 35 and 93 float spacings, and at --t-max 1e-9 by 4e-9.
    # Second differences of U repeated points there or drowned A''/A in
    # roundoff (the residual once read 31420 at hbar 0.1), and the span was
    # refused; U' and U'' of the potential itself need no spacing at all.
    # Measured within 5.6e-16 of the closed form
    assert run_cli(["cosmo", *args], tmp_path) == EXIT_OK
    assert_quadratic_residuals(tmp_path, c, a0, 1e-12)


@pytest.mark.parametrize("args, c, a0", [
    # U reaches 1e200: U**2 and ||U A|| overflowed to nan residuals
    (["--potential", "quadratic:1e200", "--t-max", "1e-101"], 1e200, 1.0),
    # U is 1e-250: U**2 underflowed to 0, and 0/0 gave nan residuals
    (["--potential", "quadratic:1e-250", "--t-max", "1e124"], 1e-250, 1.0),
    # U grows by 1e208 over the span: U**2 underflowed at a0, and U A
    # relative to U(a0) would overflow ||U A|| to a residual of 0
    (["--a0", "1e-100", "--t-max", "60"], 4.0, 1e-100),
    # A''/A reaches 7.5e159 at a0, whose square overflows a plain norm,
    # while the residual is 5e297
    (["--potential", "quadratic:1e20", "--a0", "1e-80", "--t-max", "1e-11"],
     1e20, 1e-80),
], ids=["huge-U", "tiny-U", "wide-U", "tiny-a0"])
def test_cosmo_residual_at_the_edges_of_the_float_range(tmp_path, args, c, a0):
    # warnings are errors here, so a raw RuntimeWarning fails the run;
    # measured within 2.2e-16 of the closed form, slopes within 7.6e-14 of 2
    assert run_cli(["cosmo", *args], tmp_path) == EXIT_OK
    assert_quadratic_residuals(tmp_path, c, a0, 1e-12)


@pytest.mark.parametrize("args, span", [
    # a grows by 3.5e-72 from 7.3e-69, where ||A''|| / ||U A|| is about
    # 5e438; U**2 underflowed there and the run wrote nan residuals
    (["--potential", "quadratic:5.149202901108389e-167",
      "--hbar-list", "7.343958023505904e-39,2.4900187032525734e+43",
      "--a0", "7.253479008024359e-69", "--t-max", "3.3984173274803886e+79",
      "--t-points", "244"], "[7.253479008024359e-69, "),
    # the ratio is 1.4e-302, and hbar**2 = 1e-10 takes it below the normal
    # floats, where a log-log fit has nothing left to fit
    (["--potential", "quadratic:1e300", "--t-max", "1e-150",
      "--hbar-list", "0.1,1e-5"], "[1.0, "),
], ids=["overflow", "underflow"])
def test_cosmo_names_a_residual_outside_the_float_range(tmp_path, capsys,
                                                        args, span):
    out = tmp_path / "out"
    assert main(["cosmo", *args, "--output-dir", str(out)]) == EXIT_NUMERICAL
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"the residual on {span}" in err and "overflows or underflows" in err


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


def test_cosmo_residual_in_deep_regime(tmp_path):
    # a grows to e^4: S = a^2 - 1 winds far faster than any grid resolves,
    # and the residual is hbar^2 ||A''|| / ||U A|| with A = a^(-1/2)
    # (measured within 1.1e-16)
    assert run_cli(["cosmo", "--t-max", "1.0"], tmp_path) == EXIT_OK
    assert_quadratic_residuals(tmp_path, 4.0, 1.0, 1e-14)


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


@pytest.mark.parametrize("args", [
    # u**2 and ||U A|| underflow to 0, and the G table's panels grow past
    # 1e100 wide
    ["--potential", "constant:1.7717624996016865e-266",
     "--hbar-list", "7.493632731735561e-05,8.672624915662086e-34",
     "--a0", "1814417.6991403832", "--t-max", "7.209080056826315e+233",
     "--t-points", "240"],
    # u**2 and ||U A|| overflow
    ["--potential", "constant:1.164752469259125e+219",
     "--hbar-list", "2.894535222828425e+86,3.243377750444577e+39",
     "--a0", "2.8165556273894845", "--t-max", "0.00012512344667736696",
     "--t-points", "193", "--matter", "twolevel:89152.56590591482"],
], ids=["tiny", "huge"])
def test_cosmo_extreme_constant_potential_has_no_residual(tmp_path, args):
    # warnings are errors here, so a raw RuntimeWarning fails the run
    assert run_cli(["cosmo", *args], tmp_path) == EXIT_OK
    for _, residual, slope in residual_rows(tmp_path):
        assert residual == 0.0 and math.isnan(slope)


def test_cosmo_huge_a0_names_the_overflow_without_a_warning(tmp_path, capsys):
    # U(a0) = c*a0**2 overflows; the check of U(a0) > 0 once warned of it
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["cosmo", "--potential", "quadratic:1149.841885969033",
                        "--a0", "2.587965004472719e+199"], out) == EXIT_NUMERICAL
    assert not out.exists()
    assert ("U is not finite at a = 2.58797e+199, which a(t) reaches before "
            "t=0.3") in capsys.readouterr().err


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
    # of delta functions at the knots (measured within 8.9e-16)
    for got, want in zip(residual_rows(tmp_path / "table"),
                         residual_rows(tmp_path / "closed")):
        assert got == pytest.approx(want, rel=1e-13)
    for _, residual, slope in residual_rows(tmp_path / "flat"):
        assert residual == 0.0 and math.isnan(slope)


def write_matter_table(path, rows):
    path.write_text("a,h00,h01re,h01im,h11\n"
                    + "".join(",".join(map(repr, r)) + "\n" for r in rows))


def per_point_twolevel(a, w):
    return 0.5 * w * np.array([[1.0, 1.0 / a], [1.0 / a, -1.0]], dtype=complex)


def per_point_file(a, rows):
    grid, h00, re, im, h11 = (np.array(c) for c in zip(*rows))
    off = np.interp(a, grid, re) + 1j * np.interp(a, grid, im)
    return np.array([[np.interp(a, grid, h00), off],
                     [np.conj(off), np.interp(a, grid, h11)]], dtype=complex)


entries = st.floats(-10.0, 10.0, allow_subnormal=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(w=st.floats(-10.0, 10.0).filter(lambda w: w != 0.0),
       scale=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=40),
       table=st.lists(st.tuples(entries, entries, entries, entries),
                      min_size=2, max_size=8))
@example(w=1.3, scale=[1.0, 1.5], table=[(0.5, 0.25, 0.0, -0.5)] * 2)
def test_batched_matter_hamiltonians_equal_per_point_matrices(
        tmp_path_factory, w, scale, table):
    # the CLI's H_q take the array of step midpoints and return the
    # (steps, 2, 2) stack; each matrix must be the one a float call gave,
    # bit for bit, also at 2 steps, where (2, 2, n) would pass for it
    a = np.array(scale)
    twolevel = _parse_matter(f"twolevel:{w!r}")(a)
    want = np.array([per_point_twolevel(v, w) for v in a.tolist()])
    assert twolevel.shape == want.shape and twolevel.tobytes() == want.tobytes()

    rows = [(0.1 + 0.7 * k, *r) for k, r in enumerate(table)]
    path = tmp_path_factory.mktemp("matter") / "h.csv"
    write_matter_table(path, rows)
    stack = _parse_matter(f"file:{path}")(a)
    want = np.array([per_point_file(v, rows) for v in a.tolist()])
    assert stack.shape == want.shape and stack.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", ["twolevel:1.3", "file"])
def test_evolve_matter_calls_cli_hamiltonian_once(tmp_path, spec):
    if spec == "file":
        path = tmp_path / "h.csv"
        write_matter_table(path, [(0.5 + 0.25 * k, 0.5, 0.5 / (0.5 + 0.25 * k),
                                   0.1, -0.5) for k in range(21)])
        spec = f"file:{path}"
    h_of = _parse_matter(spec)
    shapes = []

    def counted(a):
        shapes.append(np.shape(a))
        return h_of(a)

    m = MiniSuperspaceModel(potential_u=lambda a: 4.0 * a * a, hbar=1.0,
                            matter_hamiltonian=counted)
    evolve_matter(m, clock_map(m, 1.0, (0.0, 0.3)),
                  np.array([1.0, 0.0], dtype=complex), np.linspace(0.0, 0.3, 1001))
    assert shapes == [(1000,)]


def test_cosmo_rejects_non_finite_matter_table(tmp_path):
    grid = [0.5 + 0.25 * k for k in range(21)]
    mat = tmp_path / "h.csv"
    mat.write_text("a,h00,h01re,h01im,h11\n" + "".join(
        f"{a!r},0.5,{'nan' if a == 2.0 else repr(0.5 / a)},0,-0.5\n"
        for a in grid))
    out = tmp_path / "out"
    assert main(["cosmo", "--matter", f"file:{mat}", "--t-max", "0.2",
                 "--t-points", "21", "--output-dir", str(out)]) == EXIT_VALIDATION
    assert not out.exists()


#: one valid row per kind of input table, by column
INPUT_ROWS = {"table": {"a": None, "u": "4"},
              "file": {"a": None, "h00": "0.5", "h01re": "0.1", "h01im": "0",
                       "h11": "-0.5"}}


@pytest.mark.parametrize("kind, column", [("table", "a"), ("table", "u"),
                                          ("file", "a"), ("file", "h00")])
def test_cosmo_input_tables_refuse_non_finite_cells(tmp_path, capsys, kind,
                                                    column):
    # one cell of the named column is nan: a <= comparison is False for
    # nan, so only an explicit finiteness check refuses it
    cells = INPUT_ROWS[kind]
    rows = [{**cells, "a": repr(0.5 + 0.25 * k)} for k in range(21)]
    rows[6][column] = "nan"
    path = tmp_path / "in.csv"
    path.write_text(",".join(cells) + "\n"
                    + "".join(",".join(r.values()) + "\n" for r in rows))
    spec = (["--potential", f"table:{path}"] if kind == "table"
            else ["--matter", f"file:{path}"])
    out = tmp_path / "out"
    assert main(["cosmo", *spec, "--t-max", "0.2", "--t-points", "21",
                 "--output-dir", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert str(path) in err and f"column {column} is not finite" in err
    assert not out.exists()


CLOCK_OVERFLOW = ["clock", "--energies", "0.0186905846232307,-124226.66785073421,"
                  "0.03418267716298257,-10.329787929538064",
                  "--hbar", "9.119875255135033e-160", "--mu0", "3740844.6628812877",
                  "--sigma", "7.085248594635016e+167", "--steps", "151"]


def test_clock_coherence_underflow_prints_no_warning(tmp_path):
    # the dominant coherence underflows to 0 after one tick; the step
    # factors past it once divided 0 by 0 and took the log of 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["clock", "--sigma", "100", "--steps", "10"],
                       tmp_path) == EXIT_OK
    assert (tmp_path / "clock_summary.csv").read_text() == (
        "pair,retention_steps,retention_time,threshold,horizon_steps,"
        "reached,mean_increment,sigma\n"
        "0-1,1,1,0.36787944117144233,10,1,1,100\n")
    assert (tmp_path / "clock_trajectory.csv").read_text() == (
        "step,time,pair,coherence,events_so_far\n"
        "0,0,0-1,0.49999999999999989,0\n"
        + "".join(f"{k},{k},0-1,0,{k}\n" for k in range(1, 11)))


@pytest.mark.parametrize("args, named", [
    # Monte Carlo: E_0*dt/hbar of a draw near sigma = 7e167 passes 1e308
    (CLOCK_OVERFLOW + ["--samples", "3", "--seed", "4"],
     "tick phase E_i*dt/hbar of level 0 is not finite at tick 1"),
    # closed form: sigma**2 past the float range
    (CLOCK_OVERFLOW, "damping exponent per tick (E_i - E_j)**2 sigma**2 / "
                     "(2 hbar**2) is not finite for levels 0-1"),
    # (1e300 - 0)/1e-10: this run once blamed "no nonzero initial coherence"
    (["clock", "--energies", "0,1e300", "--hbar", "1e-10", "--steps", "5"],
     "transition frequency (E_i - E_j)/hbar is not finite for levels 0-1"),
], ids=["monte_carlo", "closed_form", "frequency"])
def test_clock_overflow_exits_3_naming_it(tmp_path, capsys, args, named):
    out = tmp_path / "out"
    assert run_cli(args, out) == EXIT_NUMERICAL
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_network_gauge_mode(tmp_path):
    assert run_cli(["network", "--mode", "gauge-check", "--n", "4", "--N", "4",
                    "--seed", "0"], tmp_path) == EXIT_OK
    t = read_csv(tmp_path / "network_gauge_check.csv")
    diffs = [float(v) for v in t.column("abs_difference")]
    assert diffs and max(diffs) < 1e-10


def test_network_ek_has_no_size_ceiling(tmp_path):
    # nN = 8192 for ek, and 4608 for gauge-check, which assembled a dense
    # (nN) x (nN) operator up to nN = 4096 in earlier versions
    assert run_cli(["network", "--mode", "ek", "--n", "64", "--N", "128",
                    "--draws", "1", "--samples", "50"], tmp_path) == EXIT_OK
    t = read_csv(tmp_path / "network_ek.csv")
    assert math.isfinite(float(t.column("discrepancy")[0]))
    assert run_cli(["network", "--mode", "gauge-check", "--n", "64", "--N", "72",
                    "--draws", "1"], tmp_path) == EXIT_OK
    t = read_csv(tmp_path / "network_gauge_check.csv")
    assert float(t.column("abs_difference")[0]) < 1e-15


@pytest.mark.parametrize("n, g_scale", [(4, "1e4"), (1, "1e300")])
def test_network_gauge_out_of_range_exits_3(tmp_path, capsys, n, g_scale):
    # exp(D) phi past the float range, and one site whose Taylor steps
    # would grow with a norm of 1e300
    out = tmp_path / "out"
    assert run_cli(["network", "--mode", "gauge-check", "--n", str(n), "--N", "3",
                    "--g-scale", g_scale, "--draws", "1"], out) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [(1, ["--g-scale", "1000"]),
                                   (0, ["--g-scale", "1e300"]),
                                   (1, ["--g-scale", "30", "--beta", "1e300"])])
def test_network_ek_overflow_exits_3(tmp_path, capsys, flags):
    # exp(D), or exp(-beta*H), past the float range: in draw 1 alone, or
    # (g_scale 1e300) in both draws, where the lowest is named whichever
    # thread ran it
    draw, flags = flags
    out = tmp_path / "out"
    assert run_cli(["network", "--mode", "ek", "--n", "3", "--N", "4",
                    "--draws", "2", "--samples", "10", *flags], out) == EXIT_NUMERICAL
    assert f"draw {draw} overflows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc/self/status")
@pytest.mark.parametrize("samples", ["2000", "4000"])
def test_network_ek_large_run_peak_memory(tmp_path, samples):
    # the child's own high-water mark: ru_maxrss would carry this process's
    # across exec.  Each draw holds a fixed number of sample rows, so the
    # peak does not grow with --samples.
    args = ["network", "--mode", "ek", "--n", "64", "--N", "128", "--draws", "2",
            "--samples", samples, "--output-dir", str(tmp_path)]
    code = ("import semiq.cli\n"
            f"assert semiq.cli.main({args!r}) == 0\n"
            "print([l.split()[1] for l in open('/proc/self/status')\n"
            "       if l.startswith('VmHWM:')][0])")
    src = os.path.dirname(os.path.dirname(semiq.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert int(out.stdout.split()[-1]) * 1024 <= 120e6


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc/self/status")
def test_tunnel_oracle_peak_memory_does_not_grow_with_points(tmp_path):
    # the capped profile computes each chunk's samples as the walk reaches
    # them: about 37 MB at 4e6 cells, where whole grid and values arrays
    # (and their checks) took about 130 MB
    args = ["tunnel", "--hbar", "0.05", "--oracle", "--points", "4000000",
            "--output-dir", str(tmp_path)]
    code = ("import semiq.cli\n"
            f"assert semiq.cli.main({args!r}) == 0\n"
            "print([l.split()[1] for l in open('/proc/self/status')\n"
            "       if l.startswith('VmHWM:')][0])")
    src = os.path.dirname(os.path.dirname(semiq.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert int(out.stdout.split()[-1]) * 1024 <= 64e6


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


def _full_parser_outcome(argv, capsys):
    """Exit code, stdout and stderr of the parser with every subcommand's
    flags on argv, which it is expected to exit on."""
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(argv)
    out = capsys.readouterr()
    return int(exc.value.code or 0), out.out, out.err


@pytest.mark.parametrize("argv", [
    *([sub, "--help"] for sub in cli._SCHEMAS),
    ["--help"], ["--version"], [], ["bogus"], ["bogus", "--hbar", "1"],
    *([sub, "--bogus"] for sub in cli._SCHEMAS),
    ["tunnel", "--hbar"], ["sweep", "--axis"], ["clock", "--energies"],
    ["network", "--seed"], ["cosmo", "--matter"], ["tunnel", "--plot"],
    ["tunnel", "--version"], ["clock", "--steps", "3", "tunnel"],
], ids=repr)
def test_main_parses_like_the_full_parser(capsys, argv):
    # main adds only the named subcommand's flags; what it prints and
    # returns must not show it
    want = _full_parser_outcome(argv, capsys)
    code = main(argv)
    out = capsys.readouterr()
    assert (code, out.out, out.err) == want


def test_parser_for_one_subcommand_has_only_its_flags(capsys):
    assert cli._build_parser("tunnel").parse_args(["tunnel", "--hbar", "2"]).hbar == "2"
    with pytest.raises(SystemExit):
        cli._build_parser("tunnel").parse_args(["clock", "--steps", "3"])
    assert "unrecognized arguments: --steps 3" in capsys.readouterr().err


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
    ["tunnel"], ["sweep", "--axis", "h0=1:2:2"], ["cosmo"],
    ["clock"]])                     # the closed form, --samples 0
def test_seed_only_where_random_numbers_are_drawn(tmp_path, args):
    assert run_cli([*args, "--seed", "1"], tmp_path) == EXIT_VALIDATION
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args", [
    ["tunnel", "--cap", "3"], ["tunnel", "--points", "5000"],
    ["sweep", "--axis", "h0=1:2:2", "--cap", "3", "--points", "5000"]])
def test_oracle_grid_flags_need_oracle(tmp_path, args):
    assert run_cli(args, tmp_path / "a") == EXIT_VALIDATION
    assert not (tmp_path / "a").exists()
    assert run_cli([*args, "--oracle"], tmp_path / "b") == EXIT_OK
    man = read_manifest(tmp_path / "b" / f"{args[0]}.manifest.txt")
    assert {"oracle", "cap", "points"} <= set(man)


@pytest.mark.parametrize("axis", ["hbar", "mu", "j0", "h0"])
def test_swept_axis_takes_no_fixed_value(tmp_path, capsys, axis):
    assert run_cli(["sweep", "--axis", f"{axis}=0.5:1:2", f"--{axis}", "3"],
                   tmp_path) == EXIT_VALIDATION
    assert os.listdir(tmp_path) == []
    assert f"{axis} is swept" in capsys.readouterr().err


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


@pytest.mark.parametrize("args", [
    ["tunnel", "--hbar", "2", "--h0", "0.001953125"],
    ["tunnel", "--hbar", "1", "--j0", "4", "--h0", "0.001953125"],
])
def test_narrow_barrier_current_ratio(tmp_path, args):
    # the barrier is about 1/200 of a wavelength hbar/p wide, where a step of
    # 1e-4 wavelengths is 4 % of b; capped at 1 % of the width, the varying
    # amplitude 1/sqrt(p) costs the currents far less than the 1e-4 bound
    assert run_cli(args, tmp_path) == EXIT_OK
    t = read_csv(tmp_path / "tunnel.csv")
    row = dict(zip(t.columns, t.rows[0]))
    assert abs(float(row["T_current_ratio"]) - float(row["T_quadrature"])) <= 1e-4


@pytest.mark.parametrize("args", [
    ["tunnel", "--hbar", "0.005"],
    ["sweep", "--axis", "hbar=0.005:1:3"],
])
def test_deep_semiclassical_overflow_exits_3(tmp_path, capsys, args):
    # exp(2*Lambda) at hbar 0.005 (Lambda = 444) is past the float range; an
    # overflow to inf must fail the run, not write a current ratio of 0
    assert run_cli(args, tmp_path) == EXIT_NUMERICAL
    assert "overflow" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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


def test_cli_runs_load_no_scipy(tmp_path):
    # numpy is semiq's one run-time dependency: no subcommand or network
    # mode loads any scipy module, not even cosmo with a table: potential,
    # whose spline is semiq's own
    pot = tmp_path / "u.csv"
    pot.write_text("a,u\n" + "".join(f"{a!r},{4 * a * a + a**3!r}\n"
                                     for a in np.linspace(0.5, 3.0, 26).tolist()))
    runs = [*MANIFEST_RUNS.values(), ["cosmo", "--potential", f"table:{pot}"]]
    code = ("import sys, semiq.cli\n"
            f"for i, args in enumerate({runs!r}):\n"
            f"    out = {str(tmp_path)!r} + '/' + str(i)\n"
            "    assert semiq.cli.main([*args, '--output-dir', out]) == 0, args\n"
            # threads over the ek draws without concurrent.futures, whose
            # logging import would show in every run's set-up time
            "assert 'concurrent.futures' not in sys.modules\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = os.path.dirname(os.path.dirname(semiq.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert len(os.listdir(tmp_path)) == len(runs) + 1


def test_manifest_with_scipy_version_loads(tmp_path):
    # manifests of earlier versions carry scipy's version next to numpy's
    from semiq.cli import RunConfig

    assert run_cli(MANIFEST_RUNS["gauge-check"], tmp_path) == EXIT_OK
    path = tmp_path / "network.manifest.txt"
    text = path.read_text()
    assert "scipy" not in text
    want = RunConfig.from_manifest(path)
    path.write_text(text.replace("subcommand =", "scipy = 1.17.1\nsubcommand ="))
    assert read_manifest(path)["scipy"] == "1.17.1"
    assert RunConfig.from_manifest(path) == want


def test_phase_leaves_out_scipy_integrate():
    # the phase is the clock's qk21 table; scipy.integrate alone takes
    # about 0.6 s to import
    code = ("import sys, numpy as np, semiq; "
            "m = semiq.MiniSuperspaceModel(potential_u=lambda a: 4.0 * a * a, hbar=1.0); "
            "s = semiq.hamilton_jacobi_phase(m, np.linspace(1.0, 4.0, 2001)); "
            "assert abs(s[-1] - 15.0) < 1e-13; "
            "print('scipy.integrate' in sys.modules)")
    src = os.path.dirname(os.path.dirname(semiq.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip().splitlines()[-1] == "False"


def test_runs_without_plot_leave_out_svgplot(tmp_path):
    # the SVG writer is imported by --plot alone: every other run would
    # compile its source on a fresh checkout
    runs = list(MANIFEST_RUNS.values())
    code = ("import sys, semiq.cli\n"
            f"for i, args in enumerate({runs!r}):\n"
            f"    out = {str(tmp_path)!r} + '/' + str(i)\n"
            "    assert semiq.cli.main([*args, '--output-dir', out]) == 0, args\n"
            "loaded = ['semiq.svgplot' in sys.modules]\n"
            f"semiq.cli.main({runs[-1]!r} + ['--plot', '--output-dir', {str(tmp_path)!r}])\n"
            "print(loaded + ['semiq.svgplot' in sys.modules])")
    src = os.path.dirname(os.path.dirname(semiq.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip().splitlines()[-1] == "[False, True]"


def test_cli_tables_leave_out_numpy_ma_fractions_decimal(tmp_path):
    # the CSV writer's tables are built on first use from integers and
    # numpy: a plain np.unique would import numpy.ma, and a table of
    # Fractions would import fractions and decimal
    out = tmp_path / "out"
    run = ("assert semiq.cli.main(['sweep', '--axis', 'hbar=0.2:2:5', '--axis', "
           f"'h0=0.5:2:4', '--output-dir', '{out}']) == 0; "
           "assert semiq.cli.main(['clock', '--energies', '0,1,2.5', '--steps', '20', "
           f"'--output-dir', '{out}']) == 0; ")
    code = ("import sys, semiq.cli; " + run + "print([m for m in "
            "('numpy.ma', 'fractions', 'decimal') if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(semiq.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, env=env)
    assert result.stdout.strip().splitlines()[-1] == "[]"


@settings(max_examples=80, deadline=None, derandomize=True)
@given(knots=st.lists(st.tuples(st.floats(1e-6, 10.0), st.floats(0.1, 100.0)),
                      min_size=2, max_size=40),
       where=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=50))
@example(knots=[(1.0, 4.0), (0.5, 9.0)], where=[-1.0, 0.5, 1.0])
@example(knots=[(1.0, 4.0), (0.5, 9.0), (2.0, 1.0)], where=[0.0, 0.3])
# a short gap between long ones: the elimination needs a row interchange,
# and without one the spline is 1e-4 off
@example(knots=[(0.5, 7.88), (1.23759966, 81.55), (1.62e-06, 15.29),
                (5.12891682, 70.59)], where=[-0.3, 0.0, 0.2, 0.6])
def test_table_spline_matches_scipy_cubic_spline(knots, where):
    # knot gaps from 1e-6 to 10 and positive values, as in a table:
    # potential; the spline is compared inside and outside the table, where
    # both are held at their end values and U' and U'' are exactly 0.  Each
    # derivative is bounded relative to its largest value inside the table
    # (over 300 random tables with log-uniform gaps, U' was within 1.1e-15
    # and U'' within 1.6e-14)
    x = np.cumsum([g for g, _ in knots])
    y = np.array([u for _, u in knots])
    a = np.concatenate((x, x[0] + (np.array(where) * 1.2 + 0.5) * (x[-1] - x[0])))
    inside = (x[0] <= a) & (a <= x[-1])
    held = np.clip(a, x[0], x[-1])
    u, du, d2u = _spline(x, y)
    want = CubicSpline(x, y)(held)
    assert np.max(np.abs(u(a) - want)) <= 1e-13 * np.max(np.abs(want))
    for nu, got in ((1, du(a)), (2, d2u(a))):
        want = CubicSpline(x, y)(held, nu)
        assert np.all(got[~inside] == 0.0)
        assert (np.max(np.abs(got - want)[inside])
                <= 1e-13 * np.max(np.abs(want)[inside]))


# one run per subcommand and network mode with every switch on (--oracle,
# --samples), so that it reads every parameter of its table; a sweep reads
# no fixed value of its swept axis, so a second sweep covers --mu
GUARD_BASES = [
    ("clock", {"steps": "20", "samples": "8", "sigma": "0.5"}),
    ("tunnel", {"oracle": "1"}),
    ("sweep", {"axis": "mu=1:2:2", "oracle": "1"}),
    ("sweep", {"axis": "h0=1:2:2", "oracle": "1"}),
    ("network", {"mode": "gauge-check", "n": "2", "N": "2", "draws": "2"}),
    ("network", {"mode": "ek", "n": "2", "N": "2", "draws": "2",
                 "samples": "50"}),
    ("network", {"mode": "rolldown", "n": "16", "patterns": "2"}),
    ("network", {"mode": "entropy", "n": "2", "steps": "40"}),
    ("cosmo", {"t_points": "21"}),
]
# one valid value per parameter, other than its default and every base's
GUARD_VALUES = {
    "energies": "0,2", "hbar": "0.5", "mu0": "2", "sigma": "0.2",
    "steps": "30", "samples": "5", "seed": "1", "threshold": "0.9",
    "mu": "2", "j0": "2", "h0": "2", "oracle": "0", "cap": "3",
    "points": "1000", "axis": "mu=1:3:2", "n": "3", "N": "3", "beta": "2",
    "draws": "3", "g_scale": "2", "patterns": "3", "flips": "2",
    "flip_prob": "0.3", "window": "2", "potential": "quadratic:2",
    "hbar_list": "0.2,0.1", "a0": "1.5", "t_max": "0.2", "t_points": "11",
    "a_max": "1.5", "matter": "twolevel:2",
}
# the CSV column that echoes a parameter, where it is not named after it
ECHOES = {"points": "n", "hbar_list": "hbar"}


def csv_columns(sub, params, out):
    argv = [sub, *(a for k, v in params.items() for a in (cli._flag(k), v))]
    assert main([*argv, "--output-dir", str(out)]) == EXIT_OK, argv
    tables = {name: read_csv(out / name) for name in os.listdir(out)
              if name.endswith(".csv")}
    return {(name, col): t.column(col) for name, t in tables.items()
            for col in t.columns}


def test_every_parameter_is_read(tmp_path):
    # a parameter echoed in a column must still change some other column
    runs = {(sub, base.get("mode")) for sub, base in GUARD_BASES}
    assert runs == ({(sub, None) for sub in cli._SCHEMAS if sub != "network"}
                    | {("network", mode) for mode in cli._NETWORK_MODES})
    covered, unread = set(), []
    for i, (sub, base) in enumerate(GUARD_BASES):
        mode = base.get("mode")
        swept = base.get("axis", "").partition("=")[0]
        default = csv_columns(sub, base, tmp_path / str(i))
        for key in cli._schema(sub, mode):
            if key in ("mode", swept):
                continue
            covered.add((sub, mode, key))
            with (pytest.warns(UserWarning, match="clock map truncated")
                  if key == "a_max" else warnings.catch_warnings()):
                changed = csv_columns(sub, {**base, key: GUARD_VALUES[key]},
                                      tmp_path / f"{i}_{key}")
            echo = ECHOES.get(key, key)
            if ({k: v for k, v in changed.items() if k[1] != echo}
                    == {k: v for k, v in default.items() if k[1] != echo}):
                unread.append((sub, mode, key))
    assert not unread
    assert covered == {(sub, mode, key) for sub, mode in runs
                       for key in cli._schema(sub, mode) if key != "mode"}


@pytest.mark.parametrize("args", [
    ["tunnel", "--oracle", "--cap", "0.5"],
    ["tunnel", "--oracle", "--cap", "1.0"],            # b itself
    # b is 1.118 at the second point, after a first that would walk
    ["sweep", "--axis", "h0=0.5:2:3", "--oracle", "--cap", "1.0"],
])
def test_input_errors_exit_2_before_computing(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert run_cli(args, out) == EXIT_VALIDATION
    assert not out.exists()
    err = capsys.readouterr().err
    assert "--cap" in err and "turning point" in err
    if args[0] == "sweep":
        assert "h0=1.25" in err


@pytest.mark.parametrize("args, named", [
    # -j0*L^2 overflows; the walk once warned of it and then exited 3
    (["tunnel", "--hbar", "1", "--oracle", "--cap", "1e200"], "hbar=1 mu=1 j0=1 h0=1"),
    # L^2 = 1e308 is finite, and -j0*L^2 too at j0 = 1 but not at j0 = 2
    (["sweep", "--axis", "j0=1:2:2", "--oracle", "--cap", "1e154"], "j0=2 "),
])
def test_caps_past_the_float_range_exit_2_without_warnings(tmp_path, capsys, args,
                                                           named):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(args, out) == EXIT_VALIDATION
    assert not out.exists()
    err = capsys.readouterr().err
    assert "the level -j0*L^2 + h0 must be finite" in err and named in err


@pytest.mark.parametrize("args", [
    ["tunnel", "--oracle", "--cap", repr(float(np.nextafter(1.0, 2.0)))],
    ["sweep", "--axis", "h0=0.5:2:3", "--oracle", "--cap",
     repr(float(np.nextafter(math.sqrt(2.0), 3.0)))],
])
def test_cap_just_above_every_turning_point_runs(tmp_path, args):
    assert run_cli(args, tmp_path) == EXIT_OK
    t = read_csv(tmp_path / f"{args[0]}.csv")
    assert all(math.isfinite(float(v)) for v in t.column("T_numeric"))


def test_sweep_oracle_rows_walk_at_each_points_hbar_and_mu(tmp_path):
    # each row is the library's walk of that point's capped barrier, bit for
    # bit: the walk reads hbar and mu from the barrier, not from defaults
    assert run_cli(["sweep", "--axis", "hbar=0.5:2:3", "--axis", "mu=0.5:2:2",
                    "--oracle", "--points", "2000"], tmp_path) == EXIT_OK
    t = read_csv(tmp_path / "sweep.csv")
    assert len(t.rows) == 6
    for row in t.rows:
        row = dict(zip(t.columns, row))
        bp = semiq.BarrierProblem(*(float(row[k]) for k in ("hbar", "mu", "j0", "h0")))
        est = semiq.transfer_matrix_transmission(semiq.cap_barrier(bp, n=2000))
        assert float(row["T_numeric"]) == est.T_numeric
        assert float(row["richardson_error"]) == est.richardson_error
    # hbar = mu = 0.5: Kemble's 1/(1 + e^(2*pi)) = 1.86e-3 within the cap's
    # few percent, where a walk at hbar = mu = 1 gives 1.22e-2
    first = dict(zip(t.columns, t.rows[0]))
    assert float(first["T_numeric"]) == pytest.approx(
        1.0 / (1.0 + math.exp(2.0 * math.pi)), rel=0.05)


@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
def test_turning_point_past_the_float_range_exits_2(tmp_path, capsys, oracle):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["tunnel", "--h0", "1e300", "--j0", "1e-300", *oracle],
                       out) == EXIT_VALIDATION
    assert not out.exists()
    assert "h0/j0 must be finite" in capsys.readouterr().err


def test_odd_points_give_a_nan_richardson_error(tmp_path):
    # an odd cell count has no grid-halving pair: the walk runs, warns once
    # and writes nan as its error estimate
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["tunnel", "--oracle", "--points", "20001"],
                       tmp_path) == EXIT_OK
    assert [str(w.message) for w in caught
            if "odd cell count" in str(w.message)] == [
        "odd cell count: no Richardson pair, error estimate is NaN"]
    t = read_csv(tmp_path / "tunnel.csv")
    row = dict(zip(t.columns, t.rows[0]))
    assert row["richardson_error"] == "nan"
    assert math.isfinite(float(row["T_numeric"])) and row["n"] == "20001"


def outside_values(spec):
    """Values just outside spec's range, as the text a user would give:
    in each row of probes, those the coercer refuses next to one it
    accepts.  Integers are probed from -1 to past the default, floats
    and the last entry of a list around 0 and 1, and a list's length at
    one value and at the default's; a parameter without a range gives
    none."""
    default = spec.default
    if spec.coerce in (cli._as_bool, str):
        return []
    floats = [float(f(b)) for b in (0.0, 1.0)
              for f in (lambda b: np.nextafter(b, -1.0), float,
                        lambda b: np.nextafter(b, 2.0))]
    if isinstance(default, list):
        rows = [[default[:1], default], [default[:-1] + [v] for v in floats]]
        rows = [[",".join(map(repr, v)) for v in row] for row in rows]
    elif isinstance(default, int):
        rows = [[str(v) for v in range(-1, default + 2)]]
    else:
        rows = [[repr(v) for v in floats]]

    def accepted(text):
        try:
            spec.coerce(text)
        except cli.ValidationError:
            return False
        return True

    out = []
    for row in rows:
        ok = [accepted(t) for t in row]
        out += [t for i, t in enumerate(row) if not ok[i]
                and ((i > 0 and ok[i - 1]) or (i + 1 < len(ok) and ok[i + 1]))]
    return out


RANGE_CASES = [(sub, mode, key, value)
               for sub in cli._SCHEMAS
               for mode in (cli._NETWORK_MODES if sub == "network" else [None])
               for key, spec in cli._schema(sub, mode).items()
               for value in outside_values(spec)]


def test_range_cases_cover_the_table():
    keys = {(sub, key) for sub, _, key, _ in RANGE_CASES}
    # the ranges the runners used to check one by one, and seed and a_max
    assert {("clock", "seed"), ("network", "seed"), ("cosmo", "a_max"),
            ("clock", "energies"), ("cosmo", "hbar_list"), ("tunnel", "points"),
            ("network", "flip_prob"), ("clock", "threshold")} <= keys
    assert {key for sub, _, key, _ in RANGE_CASES if sub == "network"} >= {
        "n", "N", "beta", "draws", "samples", "patterns", "flips", "steps",
        "flip_prob", "window", "seed"}
    assert ("network", "g_scale") not in keys


@pytest.fixture(scope="module")
def base_manifests(tmp_path_factory):
    """One manifest per subcommand and network mode, from GUARD_BASES."""
    out = {}
    for sub, base in GUARD_BASES:
        key = (sub, base.get("mode"))
        if key not in out:
            d = tmp_path_factory.mktemp("base")
            argv = [sub, *(a for k, v in base.items() for a in (cli._flag(k), v))]
            assert main([*argv, "--output-dir", str(d)]) == EXIT_OK, argv
            out[key] = (d / f"{sub}.manifest.txt").read_text()
    return out


@pytest.mark.parametrize("sub,mode,key,value", RANGE_CASES)
def test_value_outside_range_exits_2_naming_the_flag(tmp_path, capsys,
                                                     base_manifests,
                                                     sub, mode, key, value):
    from semiq.cli import RunConfig, ValidationError

    flag = cli._flag(key)
    head = [sub] + (["--mode", mode] if mode else [])
    cfg = tmp_path / "c.cfg"
    cfg.write_text((f"mode = {mode}\n" if mode else "") + f"{key} = {value}\n")
    for i, args in enumerate(([*head, f"{flag}={value}"],
                              [sub, "--config", str(cfg)])):
        out = tmp_path / str(i)
        assert main([*args, "--output-dir", str(out)]) == EXIT_VALIDATION, args
        assert not out.exists()
        assert f"{flag}: must be" in capsys.readouterr().err

    lines = base_manifests[(sub, mode)].splitlines()
    path = tmp_path / "m" / f"{sub}.manifest.txt"
    path.parent.mkdir()
    path.write_text("".join((f"{key} = {value}" if ln.split(" = ")[0] == key
                             else ln) + "\n" for ln in lines))
    with pytest.raises(ValidationError, match=f"{flag}: must be"):
        RunConfig.from_manifest(path)
    assert os.listdir(path.parent) == [path.name]
