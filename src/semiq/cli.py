"""Experiment runner: config ingestion, seeds, sweeps, CSV/SVG emission.

Subcommands map one-to-one onto the physics modules:

  clock    dephasing trajectory and retention-time summary
  tunnel   barrier transmission (closed form, quadrature, current ratio,
           optional transfer-matrix cross-check) at one point
  network  gauge-check | ek | rolldown | entropy modes
  cosmo    semiclassical branch: trajectory plus residual report
  sweep    1-2 axis Cartesian sweep of the tunnel computation

tunnel is the sweep over no axes: both share one runner, the barrier flags
and the CSV columns, and a tunnel row equals the row of a one-point sweep.
Only clock and network draw random numbers, so only they take --seed.

Every run resolves its configuration from defaults, then an optional flat
key = value config file, then command-line flags (highest precedence),
and writes a manifest next to the CSVs from which the run can be repeated
exactly.  Identical configuration and seed give byte-identical CSVs.
Boolean columns are written as 1/0; a retention time that was not reached
within the horizon is written as -1 steps / nan time.

Exit codes: 0 success, 2 validation failure (no output files), 3 numerical
failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__, clock, minisuperspace, network, oracle, wkb
from .svgplot import LinePlot
from .tableio import ResultTable, read_csv, read_manifest, write_csv, write_manifest

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

OUTPUT_DIR_ENV = "SEMIQ_OUTPUT_DIR"

_SWEEP_AXES = ("hbar", "mu", "j0", "h0")
_MAX_AXIS_POINTS = 200
_MAX_SWEEP_POINTS = 40000


class ValidationError(Exception):
    pass


# --------------------------------------------------------------------------
# parameter schema: one table drives argparse, config files, and manifests

def _as_float(s):
    try:
        v = float(s)
    except (TypeError, ValueError):
        raise ValidationError(f"not a number: {s!r}") from None
    if not math.isfinite(v):
        raise ValidationError(f"not finite: {s!r}")
    return v


def _as_int(s):
    try:
        return int(str(s), 10)
    except (TypeError, ValueError):
        raise ValidationError(f"not an integer: {s!r}") from None


def _as_bool(s):
    t = str(s).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"not a boolean: {s!r}")


def _as_floats(s):
    if isinstance(s, list):
        return [_as_float(p) for p in s]
    parts = [p for p in str(s).split(",") if p.strip() != ""]
    if not parts:
        raise ValidationError(f"empty number list: {s!r}")
    return [_as_float(p) for p in parts]


def _as_str(s):
    return str(s)


@dataclass
class Param:
    coerce: object
    default: object
    help: str
    repeat: bool = False        # flag may be given multiple times


# tunnel and sweep evaluate one barrier per point with the same knobs
_BARRIER_PARAMS = {
    "hbar": Param(_as_float, 1.0, "hbar"),
    "mu": Param(_as_float, 1.0, "collective inertia"),
    "j0": Param(_as_float, 1.0, "quadratic coupling"),
    "h0": Param(_as_float, 1.0, "barrier height"),
    "oracle": Param(_as_bool, False, "add transfer-matrix columns"),
    "cap": Param(_as_float, 0.0, "capped half-width L (0 = 4b default)"),
    "points": Param(_as_int, 20000, "oracle grid cells"),
}

# name -> Param, per subcommand; insertion order is manifest order
_SCHEMAS: dict[str, dict[str, Param]] = {
    "clock": {
        "energies": Param(_as_floats, [0.0, 1.0], "comma-separated level energies"),
        "hbar": Param(_as_float, 1.0, "hbar"),
        "mu0": Param(_as_float, 1.0, "mean tick duration"),
        "sigma": Param(_as_float, 0.1, "tick duration std"),
        "steps": Param(_as_int, 400, "number of ticks"),
        "samples": Param(_as_int, 0, "Monte Carlo samples per tick (0 = closed form)"),
        "seed": Param(_as_int, 0, "RNG seed"),
        "threshold": Param(_as_float, math.exp(-1.0), "retention threshold"),
    },
    "tunnel": dict(_BARRIER_PARAMS),
    "network": {
        "mode": Param(_as_str, "gauge-check",
                      "gauge-check | ek | rolldown | entropy"),
        "n": Param(_as_int, 4, "number of sites / units"),
        "N": Param(_as_int, 4, "components per site"),
        "beta": Param(_as_float, 1.0, "inverse temperature (ek)"),
        "draws": Param(_as_int, 8, "quenched draws (ek) or trials (gauge-check)"),
        "samples": Param(_as_int, 2000, "states per partition estimate (ek)"),
        "g_scale": Param(_as_float, 1.0, "connection magnitude scale"),
        "patterns": Param(_as_int, 1, "stored patterns (rolldown)"),
        "flips": Param(_as_int, 1, "corrupted bits in the start state (rolldown)"),
        "steps": Param(_as_int, 400, "history length (entropy)"),
        "flip_prob": Param(_as_float, 0.1, "per-spin flip probability (entropy)"),
        "window": Param(_as_int, 4, "max window length (entropy)"),
        "seed": Param(_as_int, 0, "RNG seed"),
    },
    "cosmo": {
        "potential": Param(_as_str, "quadratic:4",
                           "quadratic:c | constant:c | table:FILE"),
        "hbar_list": Param(_as_floats, [0.1, 0.05, 0.025], "hbar values"),
        "a0": Param(_as_float, 1.0, "initial scale factor"),
        "t_max": Param(_as_float, 0.3, "clock-time horizon"),
        "t_points": Param(_as_int, 201, "trajectory samples"),
        "a_max": Param(_as_float, 0.0, "truncate growth at this a (0 = off)"),
        "matter": Param(_as_str, "none", "none | twolevel:omega | file:FILE"),
    },
    "sweep": {
        "axis": Param(_as_str, [], "axis=lo:hi:n (repeat for a second axis)",
                      repeat=True),
        **_BARRIER_PARAMS,
    },
}

#: manifest keys that are not parameters (tableio adds format and outputs)
_MANIFEST_HEADER = ("format", "tool", "version", "numpy", "scipy",
                    "subcommand", "outputs")


@dataclass
class RunConfig:
    """Fully resolved run: subcommand, coerced parameters, output dir."""

    subcommand: str
    parameters: dict = field(default_factory=dict)
    output_dir: str = "."
    plot: bool = False

    @classmethod
    def resolve(cls, subcommand: str, cli_values: dict,
                config_path: str | None, output_dir: str | None,
                plot: bool = False) -> "RunConfig":
        if subcommand not in _SCHEMAS:
            raise ValidationError(f"unknown subcommand {subcommand!r}")
        schema = _SCHEMAS[subcommand]
        raw: dict = {}
        if config_path is not None:
            raw.update(_read_config_file(config_path, schema))
        for key, val in cli_values.items():
            if key not in schema:
                raise ValidationError(f"unknown parameter {key!r}")
            if val is not None and val != []:
                raw[key] = val
        params = {}
        for name, spec in schema.items():
            if name not in raw:
                params[name] = spec.default
            elif spec.repeat and isinstance(raw[name], list):
                params[name] = [spec.coerce(v) for v in raw[name]]
            elif spec.repeat:
                params[name] = [spec.coerce(raw[name])]
            else:
                params[name] = spec.coerce(raw[name])
        out = output_dir or os.environ.get(OUTPUT_DIR_ENV) or "."
        return cls(subcommand=subcommand, parameters=params,
                   output_dir=out, plot=plot)

    @classmethod
    def from_manifest(cls, path) -> "RunConfig":
        """Rebuild the config that produced a manifest (reproducibility)."""
        entries = read_manifest(path)
        sub = entries.get("subcommand")
        if sub not in _SCHEMAS:
            raise ValidationError(f"{path}: unknown subcommand {sub!r}")
        schema = _SCHEMAS[sub]
        for name in entries:
            if name not in schema and name not in _MANIFEST_HEADER:
                raise ValidationError(f"{path}: unknown key {name!r}")
        params = {}
        for name, spec in schema.items():
            if name not in entries:
                raise ValidationError(f"{path}: missing key {name}")
            v = entries[name]
            if spec.repeat:
                params[name] = ([spec.coerce(p) for p in v.split(";") if p]
                                if v else [])
            else:
                params[name] = spec.coerce(v)
        return cls(subcommand=sub, parameters=params,
                   output_dir=os.path.dirname(os.path.abspath(path)) or ".")

    def manifest_entries(self) -> dict:
        out = {
            "tool": "semiq",
            "version": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "subcommand": self.subcommand,
        }
        for name, spec in _SCHEMAS[self.subcommand].items():
            v = self.parameters[name]
            if spec.repeat:
                out[name] = ";".join(str(p) for p in v)
            elif isinstance(v, list):
                out[name] = ",".join(repr(float(p)) for p in v)
            else:
                out[name] = v
        return out


def _read_config_file(path, schema) -> dict:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    out = {}
    for ln, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{ln}: expected key = value")
        key, val = (p.strip() for p in line.split("=", 1))
        if key not in schema:
            raise ValidationError(f"{path}:{ln}: unknown key {key!r}")
        if schema[key].repeat:
            out.setdefault(key, []).append(val)
        else:
            out[key] = val
    return out


# --------------------------------------------------------------------------
# generic plotting entry point

def render_plot(table: ResultTable, x: str, ys: list[str],
                logx: bool = False, logy: bool = False,
                title: str = "", annotate_loglog_slope: bool = False) -> str:
    """SVG string for named columns; rejects single-row or non-numeric data."""
    if len(table.rows) < 2:
        raise ValidationError("plotting needs at least two rows")
    try:
        xs = table.float_column(x)
        series = [(yname, table.float_column(yname)) for yname in ys]
    except (KeyError, ValueError) as exc:
        raise ValidationError(str(exc)) from None
    fig = LinePlot(title or "semiq", xlabel=x, ylabel=",".join(ys),
                   xlog=logx, ylog=logy)
    for yname, yvals in series:
        fig.add(yname, xs, yvals)
        if annotate_loglog_slope and logx and logy:
            fig.annotate_slope(yname, xs, yvals)
    return fig.render()


# --------------------------------------------------------------------------
# clock

def _run_clock(cfg: RunConfig):
    p = cfg.parameters
    energies = p["energies"]
    if len(energies) < 2:
        raise ValidationError("need at least two energies")
    if p["hbar"] <= 0 or p["mu0"] <= 0:
        raise ValidationError("hbar and mu0 must be positive")
    if p["sigma"] < 0:
        raise ValidationError("sigma must be >= 0")
    if p["steps"] < 1:
        raise ValidationError("steps must be >= 1")
    if p["samples"] < 0:
        raise ValidationError("samples must be >= 0")
    if not (0 < p["threshold"] < 1):
        raise ValidationError("threshold must be in (0, 1)")
    system = clock.QuantumSystem.uniform_superposition(energies, hbar=p["hbar"])
    model = clock.ClockModel(p["mu0"], p["sigma"])
    if p["samples"] > 0:
        traj = clock.evolve_monte_carlo(system, model, p["steps"],
                                        p["samples"], seed=p["seed"])
    else:
        traj = clock.evolve_analytic(system, model, p["steps"])

    mags = traj.coherence_magnitudes()
    t_traj = ResultTable(["step", "time", "pair", "coherence", "events_so_far"])
    events_at = np.zeros(traj.steps + 1, dtype=int)
    for step_idx, _t in traj.event_log:
        events_at[step_idx:] += 1
    for k in range(traj.steps + 1):
        for (i, j), series in sorted(mags.items()):
            t_traj.append(k, float(traj.times[k]), f"{i}-{j}",
                          float(series[k]), int(events_at[k]))

    record = clock.retention_time(traj, threshold=p["threshold"])
    i, j = traj.dominant_pair()
    t_sum = ResultTable(["pair", "retention_steps", "retention_time",
                         "threshold", "horizon_steps", "reached",
                         "mean_increment", "sigma"])
    t_sum.append(f"{i}-{j}",
                 -1 if record.retention_time_steps is None
                 else record.retention_time_steps,
                 math.nan if record.retention_time_physical is None
                 else record.retention_time_physical,
                 record.threshold, record.horizon_steps, record.reached,
                 record.mean_increment, p["sigma"])

    tables = {"clock_trajectory.csv": t_traj, "clock_summary.csv": t_sum}

    def plots():
        dom = f"{i}-{j}"
        times, cohs = [], []
        for row in t_traj.rows:
            if row[2] == dom:
                times.append(row[1])
                cohs.append(row[3])
        fig = LinePlot("coherence decay", xlabel="time", ylabel="coherence",
                       ylog=all(c > 0 for c in cohs))
        fig.add(dom, times, cohs)
        return [("clock.svg", fig.render())]

    return tables, plots


# --------------------------------------------------------------------------
# tunnel / sweep

def _parse_axis(spec: str):
    try:
        name, rng = spec.split("=", 1)
        lo_s, hi_s, n_s = rng.split(":")
    except ValueError:
        raise ValidationError(f"axis must be name=lo:hi:n, got {spec!r}") from None
    name = name.strip()
    if name not in _SWEEP_AXES:
        raise ValidationError(f"unknown sweep axis {name!r}; "
                              f"choose from {_SWEEP_AXES}")
    lo, hi, n = _as_float(lo_s), _as_float(hi_s), _as_int(n_s)
    if n < 1 or n > _MAX_AXIS_POINTS:
        raise ValidationError(f"axis points must be in [1, {_MAX_AXIS_POINTS}]")
    if n > 1 and not hi > lo:
        raise ValidationError("axis needs hi > lo")
    return name, np.linspace(lo, hi, n)


def _run_sweep(cfg: RunConfig):
    """tunnel and sweep: tunnel is the sweep over no axes, one point."""
    p = cfg.parameters
    specs = p.get("axis", [])
    if cfg.subcommand == "sweep" and not 1 <= len(specs) <= 2:
        raise ValidationError("sweep needs one or two --axis specs")
    axes = [_parse_axis(s) for s in specs]
    if len(axes) == 2 and axes[0][0] == axes[1][0]:
        raise ValidationError("the two sweep axes must differ")
    total = math.prod(len(vals) for _, vals in axes)
    if total > _MAX_SWEEP_POINTS:
        raise ValidationError(f"sweep of {total} points exceeds "
                              f"{_MAX_SWEEP_POINTS}")
    axis_names = [name for name, _ in axes]
    for key in ("hbar", "mu", "j0", "h0"):
        if key not in axis_names and p[key] <= 0:
            raise ValidationError(f"{key} must be positive")
    for _, vals in axes:
        if np.any(vals <= 0):
            raise ValidationError("swept barrier parameters must stay positive")
    if p["points"] < 100:
        raise ValidationError("points must be >= 100")
    if p["cap"] < 0:
        raise ValidationError("cap must be positive (or 0 for the default)")

    cols = ["hbar", "mu", "j0", "h0", "lambda",
            "T_closed", "T_quadrature", "T_current_ratio"]
    if p["oracle"]:
        cols += ["T_numeric", "richardson_error", "L", "n"]
    table = ResultTable(cols)
    # Cartesian product, first axis outermost: lexicographic in axis indices
    for idx in np.ndindex(*(len(vals) for _, vals in axes)):
        point = {k: p[k] for k in ("hbar", "mu", "j0", "h0")}
        for (name, vals), k in zip(axes, idx):
            point[name] = float(vals[k])
        bp = wkb.BarrierProblem(**point)
        lam = wkb.barrier_exponent_closed(bp)
        lam_q = wkb.barrier_exponent(bp)
        ratio = wkb.current_ratio(wkb.solve_barrier(bp))
        row = [point["hbar"], point["mu"], point["j0"], point["h0"],
               lam, math.exp(-2.0 * lam), math.exp(-2.0 * lam_q), ratio]
        if p["oracle"]:
            pot = oracle.cap_barrier(bp, L=p["cap"] or None, n=p["points"])
            est = oracle.transfer_matrix_transmission(
                pot, E=0.0, hbar=point["hbar"], mu=point["mu"])
            half = 0.5 * (pot.grid[-1] - pot.grid[0])
            row += [est.T_numeric, est.richardson_error, half, p["points"]]
        table.append(*row)

    def plots():
        if not axes:
            raise ValidationError("plotting needs at least two rows")
        ys = ["T_closed", "T_quadrature"] + (["T_numeric"] if p["oracle"] else [])
        svg = render_plot(table, axes[0][0], ys, logy=True, title="transmission")
        return [(f"{cfg.subcommand}.svg", svg)]

    return {f"{cfg.subcommand}.csv": table}, plots


# --------------------------------------------------------------------------
# network

def _run_network(cfg: RunConfig):
    p = cfg.parameters
    mode = p["mode"]
    handlers = {"gauge-check": _network_gauge, "ek": _network_ek,
                "rolldown": _network_rolldown, "entropy": _network_entropy}
    if mode not in handlers:
        raise ValidationError(f"unknown mode {mode!r}; "
                              f"choose from {sorted(handlers)}")
    if p["n"] < 1 or p["N"] < 1:
        raise ValidationError("n and N must be >= 1")
    return handlers[mode](p)


def _network_gauge(p):
    if p["draws"] < 1:
        raise ValidationError("draws must be >= 1")
    table = ResultTable(["trial", "hamiltonian", "transformed_hamiltonian",
                         "abs_difference"])
    seeds = np.random.SeedSequence(p["seed"]).spawn(p["draws"])
    for t, ss in enumerate(seeds):
        rng = np.random.default_rng(ss)
        state = network.NeuralState.random(p["n"], p["N"],
                                           seed=int(rng.integers(2**31)))
        g = network.GlialField.random(p["n"], p["N"],
                                      seed=int(rng.integers(2**31)),
                                      scale=p["g_scale"])
        o = network.GaugeTransformation.random(p["n"], p["N"],
                                               seed=int(rng.integers(2**31)))
        h_before = network.hamiltonian_full(state, g, 0.0)
        state2, g2 = network.gauge_transform(state, g, o)
        h_after = network.hamiltonian_full(state2, g2, 0.0)
        table.append(t, h_before, h_after, abs(h_after - h_before))

    def plots():
        svg = render_plot(table, "trial", ["abs_difference"],
                          title="gauge invariance defect")
        return [("network_gauge.svg", svg)]

    return {"network_gauge_check.csv": table}, plots


def _network_ek(p):
    if p["draws"] < 1 or p["samples"] < 2:
        raise ValidationError("ek needs draws >= 1 and samples >= 2")
    if p["beta"] <= 0:
        raise ValidationError("beta must be positive")
    comp = network.ek_comparison(n=p["n"], N=p["N"], beta=p["beta"],
                                 draws=p["draws"], samples=p["samples"],
                                 seed=p["seed"], g_scale=p["g_scale"])
    t_draws = ResultTable(["draw", "discrepancy", "std_error"])
    for k, (d, se) in enumerate(zip(comp.discrepancies, comp.std_errors)):
        t_draws.append(k, float(d), float(se))
    t_sum = ResultTable(["n", "N", "beta", "draws", "samples", "g_scale",
                         "median_abs_discrepancy", "se", "starved"])
    t_sum.append(p["n"], p["N"], p["beta"], p["draws"], p["samples"],
                 p["g_scale"], comp.median_abs_discrepancy, comp.se,
                 comp.starved)

    def plots():
        svg = render_plot(t_draws, "draw", ["discrepancy"],
                          title="site-reduction discrepancy")
        return [("network_ek.svg", svg)]

    return {"network_ek.csv": t_draws, "network_ek_summary.csv": t_sum}, plots


def _network_rolldown(p):
    if p["patterns"] < 1 or p["patterns"] >= p["n"]:
        raise ValidationError("patterns must be in [1, n)")
    if not 0 <= p["flips"] <= p["n"]:
        raise ValidationError("flips must be in [0, n]")
    rng = np.random.default_rng(p["seed"])
    pats = np.where(rng.random((p["patterns"], p["n"])) < 0.5, -1.0, 1.0)
    couplings = network.hebbian_couplings(pats, h0=0.0)
    start = pats[0].copy()
    flip_at = rng.choice(p["n"], size=p["flips"], replace=False)
    start[flip_at] = -start[flip_at]
    result = network.rolldown(start, couplings)

    t_traj = ResultTable(["step", "energy", "overlap"])
    for k, (st, en) in enumerate(zip(result.states, result.energies)):
        t_traj.append(k, float(en), float(st @ pats[0]) / p["n"])
    recovered = bool(np.array_equal(result.final_state, pats[0]))
    t_sum = ResultTable(["n", "patterns", "flips", "sweeps", "converged",
                         "recovered", "final_energy"])
    t_sum.append(p["n"], p["patterns"], p["flips"], result.sweeps,
                 result.converged, recovered, float(result.energies[-1]))

    def plots():
        svg = render_plot(t_traj, "step", ["energy", "overlap"],
                          title="rolldown")
        return [("network_rolldown.svg", svg)]

    return {"network_rolldown.csv": t_traj,
            "network_rolldown_summary.csv": t_sum}, plots


def _network_entropy(p):
    if p["steps"] < 2:
        raise ValidationError("steps must be >= 2")
    if not 0 <= p["flip_prob"] <= 1:
        raise ValidationError("flip_prob must be in [0, 1]")
    if p["window"] < 1 or p["window"] > p["steps"]:
        raise ValidationError("window must be in [1, steps]")
    rng = np.random.default_rng(p["seed"])
    # reference process with a known rate: each spin flips independently
    hist = np.empty((p["steps"], p["n"]))
    hist[0] = np.where(rng.random(p["n"]) < 0.5, -1.0, 1.0)
    for k in range(1, p["steps"]):
        flip = rng.random(p["n"]) < p["flip_prob"]
        hist[k] = np.where(flip, -hist[k - 1], hist[k - 1])

    table = ResultTable(["window", "windows_observed", "occupied_bins",
                         "entropy_bits_per_step", "undersampled"])
    for w in range(1, p["window"] + 1):
        counts = network.window_counts(hist, w)
        m = sum(counts.values())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rate = network.entropy_rate(hist, w)
        table.append(w, m, len(counts), rate, m / len(counts) < 5.0)

    def plots():
        svg = render_plot(table, "window", ["entropy_bits_per_step"],
                          title="entropy rate vs window")
        return [("network_entropy.svg", svg)]

    return {"network_entropy.csv": table}, plots


# --------------------------------------------------------------------------
# cosmo

def _parse_potential(spec: str):
    kind, _, arg = spec.partition(":")
    if kind == "quadratic":
        c = _as_float(arg or "4")
        if c <= 0:
            raise ValidationError("quadratic coefficient must be positive")
        return lambda a: c * np.asarray(a, dtype=float) ** 2, None
    if kind == "constant":
        c = _as_float(arg or "1")
        if c <= 0:
            raise ValidationError("constant potential must be positive")
        return lambda a: c + 0.0 * np.asarray(a, dtype=float), None
    if kind == "table":
        if not arg:
            raise ValidationError("table potential needs a file path")
        try:
            tab = read_csv(arg)
        except OSError as exc:
            raise ValidationError(f"cannot read potential table: {exc}") from None
        try:
            a_vals = np.array(tab.float_column("a"))
            u_vals = np.array(tab.float_column("u"))
        except (KeyError, ValueError):
            raise ValidationError(f"{arg}: potential table needs numeric "
                                  "columns a,u") from None
        if a_vals.size < 2 or np.any(np.diff(a_vals) <= 0):
            raise ValidationError(f"{arg}: column a must be strictly increasing")
        if np.any(u_vals <= 0):
            raise ValidationError(f"{arg}: potential values must be positive")

        # constant extension outside the tabulated range keeps the ODE
        # right-hand side defined while the solver brackets its events
        def u_of(a, _a=a_vals, _u=u_vals):
            return np.interp(np.asarray(a, dtype=float), _a, _u)

        return u_of, (float(a_vals[0]), float(a_vals[-1]))
    raise ValidationError(f"unknown potential {spec!r}")


def _parse_matter(spec: str):
    kind, _, arg = spec.partition(":")
    if kind in ("none", ""):
        return None
    if kind == "twolevel":
        omega = _as_float(arg or "1")

        def h_of(a, _w=omega):
            # fixed splitting, transverse drive fading as 1/a
            return 0.5 * _w * np.array([[1.0, 1.0 / a], [1.0 / a, -1.0]],
                                       dtype=complex)

        return h_of
    if kind == "file":
        if not arg:
            raise ValidationError("matter file needs a path")
        try:
            tab = read_csv(arg)
        except OSError as exc:
            raise ValidationError(f"cannot read matter table: {exc}") from None
        try:
            cols = {k: np.array(tab.float_column(k))
                    for k in ("a", "h00", "h01re", "h01im", "h11")}
        except (KeyError, ValueError):
            raise ValidationError(
                f"{arg}: matter table needs numeric columns "
                "a,h00,h01re,h01im,h11") from None
        a_vals = cols["a"]
        if a_vals.size < 2 or np.any(np.diff(a_vals) <= 0):
            raise ValidationError(f"{arg}: column a must be strictly increasing")

        def h_of(a, _c=cols, _a=a_vals):
            h00 = np.interp(a, _a, _c["h00"])
            h11 = np.interp(a, _a, _c["h11"])
            off = (np.interp(a, _a, _c["h01re"])
                   + 1j * np.interp(a, _a, _c["h01im"]))
            return np.array([[h00, off], [np.conj(off), h11]], dtype=complex)

        return h_of
    raise ValidationError(f"unknown matter spec {spec!r}")


def _run_cosmo(cfg: RunConfig):
    p = cfg.parameters
    if p["a0"] <= 0:
        raise ValidationError("a0 must be positive")
    if p["t_max"] <= 0:
        raise ValidationError("t_max must be positive")
    if p["t_points"] < 2:
        raise ValidationError("t_points must be >= 2")
    hbars = p["hbar_list"]
    if len(hbars) < 2 or any(h <= 0 for h in hbars):
        raise ValidationError("hbar_list needs >= 2 positive values")
    u_of, domain = _parse_potential(p["potential"])
    matter = _parse_matter(p["matter"])
    model = minisuperspace.MiniSuperspaceModel(
        potential_u=u_of, hbar=hbars[0], matter_hamiltonian=matter)

    a_cap = p["a_max"] if p["a_max"] > 0 else None
    if a_cap is None and domain is not None:
        a_cap = domain[1]
    cm = minisuperspace.clock_map(model, a0=p["a0"],
                                  t_span=(0.0, p["t_max"]), a_max=a_cap)
    t_grid = np.linspace(0.0, p["t_max"], p["t_points"])
    if cm.truncated_at is not None:
        t_grid = t_grid[t_grid <= cm.truncated_at]
        if t_grid.size < 2:
            raise ValidationError("a_max truncates the run immediately")

    cols = ["t", "a"]
    traj = None
    if matter is not None:
        chi0 = np.array([1.0, 0.0], dtype=complex)
        traj = minisuperspace.evolve_matter(model, cm, chi0, t_grid)
        d = chi0.size
        cols += [f"re_chi_{k}" for k in range(d)]
        cols += [f"im_chi_{k}" for k in range(d)]
        cols += ["norm"]
    t_traj = ResultTable(cols)
    a_vals = np.atleast_1d(cm(t_grid))
    for k, t in enumerate(t_grid):
        row = [float(t), float(a_vals[k])]
        if traj is not None:
            chi = traj.chis[k]
            row += [float(c.real) for c in chi]
            row += [float(c.imag) for c in chi]
            row += [float(np.linalg.norm(chi))]
        t_traj.append(*row)

    a_end = float(a_vals[-1])
    if not a_end > p["a0"]:
        raise ValidationError("trajectory does not grow; residual span empty")
    report = minisuperspace.wdw_residual(model, (p["a0"], a_end), hbars)
    t_res = ResultTable(["hbar", "residual", "slope"])
    for hb, r in zip(report.hbars, report.residuals):
        t_res.append(float(hb), float(r), report.slope)

    tables = {"cosmo_trajectory.csv": t_traj, "cosmo_residual.csv": t_res}

    def plots():
        svg1 = render_plot(t_traj, "t", ["a"], title="scale factor clock")
        svg2 = render_plot(t_res, "hbar", ["residual"],
                           logx=True, logy=True, title="constraint residual",
                           annotate_loglog_slope=True)
        return [("cosmo_trajectory.svg", svg1), ("cosmo_residual.svg", svg2)]

    return tables, plots


# --------------------------------------------------------------------------
# driver

_RUNNERS = {"clock": _run_clock, "tunnel": _run_sweep, "network": _run_network,
            "cosmo": _run_cosmo, "sweep": _run_sweep}


def run(cfg: RunConfig) -> dict[str, ResultTable]:
    """Execute a resolved config: compute, render, then write files.

    All computation and plot rendering happens before the first write, so
    a failing run leaves no partial output.  Raises ValidationError for
    bad inputs, module exceptions for numerical trouble, OSError for I/O.
    """
    tables, make_plots = _RUNNERS[cfg.subcommand](cfg)
    plot_files = make_plots() if cfg.plot else []

    manifest_name = f"{cfg.subcommand}.manifest.txt"
    outputs = list(tables.keys()) + [name for name, _ in plot_files]

    os.makedirs(cfg.output_dir, exist_ok=True)
    for name, table in tables.items():
        table.provenance = manifest_name
        write_csv(table, os.path.join(cfg.output_dir, name))
    for name, content in plot_files:
        with open(os.path.join(cfg.output_dir, name), "w") as fh:
            fh.write(content)
    write_manifest(os.path.join(cfg.output_dir, manifest_name),
                   cfg.manifest_entries(), outputs)
    return tables


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="semiq",
        description="semiclassical time, tunneling, and observer networks")
    ap.add_argument("--version", action="version", version=f"semiq {__version__}")
    subs = ap.add_subparsers(dest="subcommand", required=True)
    help_hdr = {
        "clock": "dephasing under a stochastic clock",
        "tunnel": "barrier transmission",
        "network": "gauge ring, reduction, memory, entropy",
        "cosmo": "semiclassical branch of the constrained model",
        "sweep": "Cartesian tunnel parameter sweep",
    }
    for sub, schema in _SCHEMAS.items():
        sp = subs.add_parser(sub, help=help_hdr[sub])
        for name, spec in schema.items():
            flag = "--" + name.replace("_", "-")
            if spec.coerce is _as_bool:
                sp.add_argument(flag, dest=name, nargs="?", const="1",
                                default=None, help=spec.help)
            elif spec.repeat:
                sp.add_argument(flag, dest=name, action="append",
                                default=None, help=spec.help)
            else:
                sp.add_argument(flag, dest=name, default=None, help=spec.help)
        sp.add_argument("--config", default=None,
                        help="flat key = value config file")
        sp.add_argument("--output-dir", default=None,
                        help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
        sp.add_argument("--plot", action="store_true", help="also write SVG plots")
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on malformed flags and 0 on --help/--version
        return int(exc.code or 0)

    cli_values = {name: getattr(ns, name) for name in _SCHEMAS[ns.subcommand]}
    try:
        cfg = RunConfig.resolve(ns.subcommand, cli_values, ns.config,
                                ns.output_dir, ns.plot)
        tables = run(cfg)
    except ValidationError as exc:
        print(f"semiq: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"semiq: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError, ArithmeticError,
            np.linalg.LinAlgError) as exc:
        print(f"semiq: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    for name in tables:
        print(os.path.join(cfg.output_dir, name))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
