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
A run accepts only the parameters it reads, a network run those of its mode.

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
import locale  # noqa: F401  (argparse's gettext imports it on every parse)
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__, clock, minisuperspace, network, oracle, wkb
from .tableio import Indexed, ResultTable, read_csv, read_manifest, write_csv, write_manifest

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

OUTPUT_DIR_ENV = "SEMIQ_OUTPUT_DIR"

_SWEEP_AXES = ("hbar", "mu", "j0", "h0")
_MAX_AXIS_POINTS = 200


class ValidationError(Exception):
    pass


# --------------------------------------------------------------------------
# parameter schema: one table drives argparse, config files, and manifests,
# and holds the range of each value, which all three are checked against

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


def _ranged(coerce, ok, wanted):
    """coerce, then refuse a value v for which ok(v) is false."""
    def checked(s):
        v = coerce(s)
        if not ok(v):
            raise ValidationError(f"must be {wanted}, got {s!r}")
        return v
    return checked


def _at_least(k, coerce=_as_int):
    return _ranged(coerce, lambda v: v >= k, f">= {k}")


_positive = _ranged(_as_float, lambda v: v > 0, "positive")
_non_negative = _at_least(0, _as_float)
_two_or_more = _ranged(_as_floats, lambda v: len(v) >= 2, "at least two values")


@dataclass
class Param:
    coerce: object
    default: object
    help: str
    repeat: bool = False        # flag may be given multiple times


# tunnel and sweep evaluate one barrier per point with the same knobs
_BARRIER_PARAMS = {
    "hbar": Param(_positive, 1.0, "hbar"),
    "mu": Param(_positive, 1.0, "collective inertia"),
    "j0": Param(_positive, 1.0, "quadratic coupling"),
    "h0": Param(_positive, 1.0, "barrier height"),
    "oracle": Param(_as_bool, False, "add transfer-matrix columns"),
    "cap": Param(_non_negative, 0.0, "capped half-width L (0 = 4b default)"),
    "points": Param(_at_least(100), 20000, "oracle grid cells"),
}

#: subcommands that write one row, so have nothing to plot and no --plot
_NO_PLOT = frozenset({"tunnel"})

# name -> Param, per subcommand; insertion order is manifest order
_SCHEMAS: dict[str, dict[str, Param]] = {
    "clock": {
        "energies": Param(_two_or_more, [0.0, 1.0], "comma-separated level energies"),
        "hbar": Param(_positive, 1.0, "hbar"),
        "mu0": Param(_positive, 1.0, "mean tick duration"),
        "sigma": Param(_non_negative, 0.1, "tick duration std"),
        "steps": Param(_at_least(1), 400, "number of ticks"),
        "samples": Param(_at_least(0), 0, "Monte Carlo samples per tick (0 = closed form)"),
        "seed": Param(_at_least(0), 0, "RNG seed"),
        "threshold": Param(_ranged(_as_float, lambda v: 0 < v < 1, "in (0, 1)"),
                           clock.DEFAULT_THRESHOLD, "retention threshold"),
    },
    "tunnel": dict(_BARRIER_PARAMS),
    # every mode's parameters; each mode reads the ones _NETWORK_MODES names
    "network": {
        "mode": Param(str, "gauge-check",
                      "gauge-check | ek | rolldown | entropy"),
        "n": Param(_at_least(1), 4, "number of sites / units"),
        "N": Param(_at_least(1), 4, "components per site"),
        "beta": Param(_positive, 1.0, "inverse temperature"),
        "draws": Param(_at_least(1), 8, "quenched draws or trials"),
        "samples": Param(_at_least(2), 2000, "states per partition estimate"),
        "g_scale": Param(_as_float, 1.0, "connection magnitude scale"),
        "patterns": Param(_at_least(1), 1, "stored patterns"),
        "flips": Param(_at_least(0), 1, "corrupted bits in the start state"),
        "steps": Param(_at_least(2), 400, "history length"),
        "flip_prob": Param(_ranged(_as_float, lambda v: 0 <= v <= 1, "in [0, 1]"),
                           0.1, "per-spin flip probability"),
        "window": Param(_at_least(1), 4, "max window length"),
        "seed": Param(_at_least(0), 0, "RNG seed"),
    },
    "cosmo": {
        "potential": Param(str, "quadratic:4",
                           "quadratic:c | constant:c | table:FILE"),
        # wdw_residual needs each hbar**2 to be a positive normal float
        "hbar_list": Param(_ranged(_two_or_more,
                                   lambda v: all(sys.float_info.min <= h * h < math.inf
                                                 for h in v),
                                   "positive, with hbar**2 a normal float "
                                   "(about 1.5e-154 to 1.3e154)"),
                           [0.1, 0.05, 0.025], "hbar values"),
        "a0": Param(_positive, 1.0, "initial scale factor"),
        "t_max": Param(_positive, 0.3, "clock-time horizon"),
        "t_points": Param(_at_least(2), 201, "trajectory samples"),
        "a_max": Param(_non_negative, 0.0, "truncate growth at this a (0 = off)"),
        "matter": Param(str, "none", "none | twolevel:omega | file:FILE"),
    },
    "sweep": {
        "axis": Param(str, [], "axis=lo:hi:n (repeat for a second axis)",
                      repeat=True),
        **_BARRIER_PARAMS,
    },
}

#: manifest keys that are not parameters (tableio adds format and outputs;
#: earlier versions wrote scipy)
_MANIFEST_HEADER = ("format", "tool", "version", "numpy", "scipy",
                    "subcommand", "outputs")


def _schema(subcommand, mode=None) -> dict[str, Param]:
    """The parameters a run reads, in manifest order: its subcommand's, or
    for network the mode (None: the default mode) and those it names in
    _NETWORK_MODES."""
    if subcommand not in _SCHEMAS:
        raise ValidationError(f"unknown subcommand {subcommand!r}")
    schema = _SCHEMAS[subcommand]
    if subcommand != "network":
        return schema
    mode = schema["mode"].default if mode is None else mode
    if mode not in _NETWORK_MODES:
        raise ValidationError(f"unknown mode {mode!r}; "
                              f"choose from {sorted(_NETWORK_MODES)}")
    return {k: schema[k] for k in ("mode", *_NETWORK_MODES[mode][1])}


def _flag(name):
    return "--" + name.replace("_", "-")


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
        if plot and subcommand in _NO_PLOT:
            raise ValidationError(f"{subcommand} writes one row: nothing to plot")
        raw: dict = {}
        if config_path is not None:
            raw.update(_read_config_file(config_path, _SCHEMAS[subcommand]))
        raw.update((key, val) for key, val in cli_values.items()
                   if val is not None and val != [])
        schema = _schema(subcommand, raw.get("mode"))
        params = {name: _coerce(name, spec, raw[name]) if name in raw
                  else spec.default for name, spec in schema.items()}
        unread = [_flag(key) for key in raw if key not in schema]
        if unread:
            run = (f"{subcommand} --mode {params['mode']}" if "mode" in params
                   else subcommand)
            raise ValidationError(f"{run} reads only {' '.join(map(_flag, schema))}"
                                  f"; drop {' '.join(unread)}")
        out = output_dir or os.environ.get(OUTPUT_DIR_ENV) or "."
        return cls(subcommand=subcommand, parameters=params,
                   output_dir=out, plot=plot)

    @classmethod
    def from_manifest(cls, path) -> "RunConfig":
        """Rebuild the config that produced a manifest (reproducibility)."""
        entries = read_manifest(path)
        sub = entries.get("subcommand")
        try:
            schema = _schema(sub, entries.get("mode"))
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        for name in entries:
            if name not in schema and name not in _MANIFEST_HEADER:
                raise ValidationError(f"{path}: unknown key {name!r}")
        params = {}
        for name, spec in schema.items():
            if name not in entries:
                raise ValidationError(f"{path}: missing key {name}")
            v = entries[name]
            params[name] = _coerce(name, spec, [p for p in v.split(";") if p]
                                   if spec.repeat else v, f"{path}: ")
        return cls(subcommand=sub, parameters=params,
                   output_dir=os.path.dirname(os.path.abspath(path)) or ".")

    def manifest_entries(self) -> dict:
        out = {
            "tool": "semiq",
            "version": __version__,
            "numpy": np.__version__,
            "subcommand": self.subcommand,
        }
        for name, spec in _schema(self.subcommand,
                                  self.parameters.get("mode")).items():
            v = self.parameters[name]
            if spec.repeat:
                out[name] = ";".join(str(p) for p in v)
            elif isinstance(v, list):
                out[name] = ",".join(repr(float(p)) for p in v)
            else:
                out[name] = v
        return out


def _coerce(name, spec, value, where=""):
    """value coerced and range-checked by spec, a list for a repeated
    parameter; an error names the flag."""
    try:
        if not spec.repeat:
            return spec.coerce(value)
        return [spec.coerce(v) for v in (value if isinstance(value, list) else [value])]
    except ValidationError as exc:
        raise ValidationError(f"{where}{_flag(name)}: {exc}") from None


def _read_config_file(path, schema) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
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
    from .svgplot import LinePlot     # only a --plot run reads it
    if len(table.rows) < 2:
        raise ValidationError("plotting needs at least two rows")
    try:
        xs = np.asarray(table.column(x), dtype=float)
        series = [(y, np.asarray(table.column(y), dtype=float)) for y in ys]
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
    if p["samples"] == 0 and p["seed"] != _SCHEMAS["clock"]["seed"].default:
        raise ValidationError("--seed needs --samples")
    system = clock.QuantumSystem.uniform_superposition(p["energies"], hbar=p["hbar"])
    model = clock.ClockModel(p["mu0"], p["sigma"])
    if p["samples"] > 0:
        traj = clock.evolve_monte_carlo(system, model, p["steps"],
                                        p["samples"], seed=p["seed"])
    else:
        traj = clock.evolve_analytic(system, model, p["steps"])

    # one row per (step, pair), pairs i < j in row-major order
    labels = [f"{i}-{j}" for i, j in traj.pairs]
    coherence = traj.coherences
    event_steps = np.array([k for k, _t in traj.event_log], dtype=int)
    events_at = np.cumsum(np.bincount(event_steps, minlength=traj.steps + 1))
    step = np.repeat(np.arange(traj.steps + 1), len(labels))
    pair = np.tile(np.arange(len(labels)), traj.steps + 1)
    t_traj = ResultTable({
        "step": Indexed(np.arange(traj.steps + 1), step),
        "time": Indexed(traj.times, step),
        "pair": Indexed(labels, pair),
        "coherence": coherence.ravel(),
        "events_so_far": Indexed(events_at, step),
    })

    record = clock.retention_time(traj, threshold=p["threshold"])
    dom = "-".join(map(str, traj.dominant_pair()))
    t_sum = ResultTable({k: [v] for k, v in dict(
        pair=dom,
        retention_steps=(-1 if record.retention_time_steps is None
                         else record.retention_time_steps),
        retention_time=(math.nan if record.retention_time_physical is None
                        else record.retention_time_physical),
        threshold=record.threshold, horizon_steps=record.horizon_steps,
        reached=record.reached, mean_increment=record.mean_increment,
        sigma=p["sigma"]).items()})

    tables = {"clock_trajectory.csv": t_traj, "clock_summary.csv": t_sum}

    def plots():
        from .svgplot import LinePlot
        cohs = coherence[:, labels.index(dom)]
        fig = LinePlot("coherence decay", xlabel="time", ylabel="coherence",
                       ylog=bool(np.all(cohs > 0)))
        fig.add(dom, traj.times, cohs)
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
    for key, vals in axes:
        if p[key] != _BARRIER_PARAMS[key].default:
            raise ValidationError(f"{key} is swept by --axis; drop {_flag(key)}")
        if np.any(vals <= 0):
            raise ValidationError("swept barrier parameters must stay positive")
    for key in ("cap", "points"):
        if not p["oracle"] and p[key] != _BARRIER_PARAMS[key].default:
            raise ValidationError(f"{_flag(key)} needs --oracle")

    # Cartesian product, first axis outermost: lexicographic in axis indices
    cols = {k: np.full(total, p[k]) for k in _SWEEP_AXES}
    for (name, _), grid in zip(axes, np.meshgrid(*(v for _, v in axes),
                                                 indexing="ij")):
        cols[name] = grid.ravel()
    try:
        bars = wkb.BarrierProblem(**cols)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    # every point's capped barrier, before any column is computed
    points = zip(*(cols[k].tolist() for k in _SWEEP_AXES)) if p["oracle"] else ()
    try:
        pots = [oracle.cap_barrier(wkb.BarrierProblem(*point),
                                   L=p["cap"] or None, n=p["points"])
                for point in points]
    except ValueError as exc:
        raise ValidationError(f"{_flag('cap')}: {exc}") from None
    sol = wkb.solve_barrier(bars)
    cols.update({"lambda": wkb.barrier_exponent_closed(bars),
                 "T_closed": wkb.activation_rate(bars),
                 "T_quadrature": sol.transmission,
                 "T_current_ratio": wkb.current_ratio(sol)})
    if p["oracle"]:
        ests = [oracle.transfer_matrix_transmission(pot) for pot in pots]
        cols.update(T_numeric=[e.T_numeric for e in ests],
                    richardson_error=[e.richardson_error for e in ests],
                    L=[pot.L for pot in pots], n=[p["points"]] * total)
    table = ResultTable(cols)

    def plots():
        ys = ["T_closed", "T_quadrature"] + (["T_numeric"] if p["oracle"] else [])
        svg = render_plot(table, axes[0][0], ys, logy=True, title="transmission")
        return [(f"{cfg.subcommand}.svg", svg)]

    return {f"{cfg.subcommand}.csv": table}, plots


# --------------------------------------------------------------------------
# network

def _network_gauge(p):
    before, after = [], []
    for ss in np.random.SeedSequence(p["seed"]).spawn(p["draws"]):
        rng = np.random.default_rng(ss)
        state = network.NeuralState.random(p["n"], p["N"],
                                           seed=int(rng.integers(2**31)))
        g = network.GlialField.random(p["n"], p["N"],
                                      seed=int(rng.integers(2**31)),
                                      scale=p["g_scale"])
        o = network.GaugeTransformation.random(p["n"], p["N"],
                                               seed=int(rng.integers(2**31)))
        before.append(network.hamiltonian_full(state, g, 0.0))
        state2, g2 = network.gauge_transform(state, g, o)
        after.append(network.hamiltonian_full(state2, g2, 0.0))
    table = ResultTable({"trial": np.arange(p["draws"]), "hamiltonian": before,
                         "transformed_hamiltonian": after,
                         "abs_difference": np.abs(np.subtract(after, before))})

    def plots():
        svg = render_plot(table, "trial", ["abs_difference"],
                          title="gauge invariance defect")
        return [("network_gauge.svg", svg)]

    return {"network_gauge_check.csv": table}, plots


def _network_ek(p):
    comp = network.ek_comparison(n=p["n"], N=p["N"], beta=p["beta"],
                                 draws=p["draws"], samples=p["samples"],
                                 seed=p["seed"], g_scale=p["g_scale"])
    t_draws = ResultTable({"draw": np.arange(comp.discrepancies.size),
                           "discrepancy": comp.discrepancies,
                           "std_error": comp.std_errors})
    t_sum = ResultTable({
        **{k: [v] for k, v in p.items() if k not in ("mode", "seed")},
        "median_abs_discrepancy": [comp.median_abs_discrepancy],
        "se": [comp.se], "starved": [comp.starved]})

    def plots():
        svg = render_plot(t_draws, "draw", ["discrepancy"],
                          title="site-reduction discrepancy")
        return [("network_ek.svg", svg)]

    return {"network_ek.csv": t_draws, "network_ek_summary.csv": t_sum}, plots


def _network_rolldown(p):
    if p["patterns"] >= p["n"]:
        raise ValidationError("patterns must be in [1, n)")
    if p["flips"] > p["n"]:
        raise ValidationError("flips must be in [0, n]")
    rng = np.random.default_rng(p["seed"])
    pats = np.where(rng.random((p["patterns"], p["n"])) < 0.5, -1.0, 1.0)
    couplings = network.hebbian_couplings(pats, h0=0.0)
    start = pats[0].copy()
    flip_at = rng.choice(p["n"], size=p["flips"], replace=False)
    start[flip_at] = -start[flip_at]
    result = network.rolldown(start, couplings)

    energies = np.asarray(result.energies, dtype=float)
    # overlaps are sums of +-1 products, exact in any summation order
    t_traj = ResultTable({"step": np.arange(energies.size), "energy": energies,
                          "overlap": np.array(result.states) @ pats[0] / p["n"]})
    recovered = bool(np.array_equal(result.final_state, pats[0]))
    t_sum = ResultTable({
        **{k: [v] for k, v in p.items() if k not in ("mode", "seed")},
        "sweeps": [result.sweeps], "converged": [result.converged],
        "recovered": [recovered], "final_energy": [energies[-1]]})

    def plots():
        svg = render_plot(t_traj, "step", ["energy", "overlap"],
                          title="rolldown")
        return [("network_rolldown.svg", svg)]

    return {"network_rolldown.csv": t_traj,
            "network_rolldown_summary.csv": t_sum}, plots


def _network_entropy(p):
    if p["window"] > p["steps"]:
        raise ValidationError("window must be in [1, steps]")
    rng = np.random.default_rng(p["seed"])
    # reference process with a known rate: each spin flips independently, so
    # its history is the running product of +-1 signs (row 0: a fair start)
    u = rng.random((p["steps"], p["n"]))
    signs = np.where(u < p["flip_prob"], -1.0, 1.0)
    signs[0] = np.where(u[0] < 0.5, -1.0, 1.0)
    hist = np.cumprod(signs, axis=0)

    windows = range(1, p["window"] + 1)
    counts = [network.window_counts(hist, w) for w in windows]
    seen = np.array([sum(c.values()) for c in counts])
    bins = np.array([len(c) for c in counts])
    rates = [network.plugin_entropy_rate(c, w) for c, w in zip(counts, windows)]
    table = ResultTable({"window": windows, "windows_observed": seen,
                         "occupied_bins": bins, "entropy_bits_per_step": rates,
                         "undersampled": seen / bins < 5.0})

    def plots():
        svg = render_plot(table, "window", ["entropy_bits_per_step"],
                          title="entropy rate vs window")
        return [("network_entropy.svg", svg)]

    return {"network_entropy.csv": table}, plots


#: mode -> (runner, the parameters it reads); the order is manifest order
_NETWORK_MODES = {
    "gauge-check": (_network_gauge, ("n", "N", "draws", "g_scale", "seed")),
    "ek": (_network_ek, ("n", "N", "beta", "draws", "samples", "g_scale", "seed")),
    "rolldown": (_network_rolldown, ("n", "patterns", "flips", "seed")),
    "entropy": (_network_entropy, ("n", "steps", "flip_prob", "window", "seed")),
}


# --------------------------------------------------------------------------
# cosmo

def _read_table(path: str, kind: str, columns: tuple) -> dict:
    """The named columns of a --potential or --matter CSV table as float
    arrays, in the order given; the first is a, which must strictly
    increase.  Every cell must be finite."""
    try:
        tab = read_csv(path)
        cols = {k: np.asarray(tab.column(k), dtype=float) for k in columns}
    except OSError as exc:
        raise ValidationError(f"cannot read {kind} table: {exc}") from None
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"{path}: {kind} table needs numeric columns "
                              f"{','.join(columns)} ({exc})") from None
    for k, v in cols.items():
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValidationError(f"{path}: column {k} is not finite in "
                                  f"data row {bad[0] + 1}")
    if cols["a"].size < 2 or np.any(np.diff(cols["a"]) <= 0):
        raise ValidationError(f"{path}: column a must be strictly increasing")
    return cols


def _parse_potential(spec: str):
    """(U, U', U'') as functions of an array of a, and a table's range."""
    kind, _, arg = spec.partition(":")
    if kind == "quadratic":
        c = _as_float(arg or "4")
        if c <= 0:
            raise ValidationError("quadratic coefficient must be positive")
        return (lambda a: c * np.asarray(a, dtype=float) ** 2,
                lambda a: 2.0 * c * np.asarray(a, dtype=float),
                lambda a: np.full(np.shape(a), 2.0 * c)), None
    if kind == "constant":
        c = _as_float(arg or "1")
        if c <= 0:
            raise ValidationError("constant potential must be positive")
        zero = lambda a: np.zeros(np.shape(a))
        return (lambda a: c + 0.0 * np.asarray(a, dtype=float), zero, zero), None
    if kind == "table":
        if not arg:
            raise ValidationError("table potential needs a file path")
        a_vals, u_vals = _read_table(arg, "potential", ("a", "u")).values()
        if np.any(u_vals <= 0):
            raise ValidationError(f"{arg}: potential values must be positive")

        # a spline, so U'' is a function and not a sum of delta functions
        return _spline(a_vals, u_vals), (float(a_vals[0]), float(a_vals[-1]))
    raise ValidationError(f"unknown potential {spec!r}")


def _spline(x, y):
    """The not-a-knot cubic spline through (x, y), as scipy's CubicSpline,
    and its first two derivatives.

    The slopes at the knots solve scipy's tridiagonal system, and each
    interval is the cubic Hermite piece between its knots; two knots give
    the line and three the parabola through them.  Outside [x[0], x[-1]]
    the spline is held constant (derivatives 0), so U stays positive on the
    clock's last G panel, which reaches past the table's end when a(t) is
    truncated there.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    if x.size == 2:
        s = np.full(2, slope[0])
    elif x.size == 3:
        mid = (dx[0] * slope[1] + dx[1] * slope[0]) / (dx[0] + dx[1])
        s = np.array([2.0 * slope[0] - mid, mid, 2.0 * slope[1] - mid])
    else:
        # not-a-knot end rows in scipy's form, which keeps the system
        # tridiagonal
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        s = _solve_tridiagonal(
            np.append(dx[1:], d1),
            np.concatenate(([dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]])),
            np.append(d0, dx[:-1]),
            np.concatenate((
                [((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d0],
                3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
                [(dx[-1]**2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1])
                 / d1])))
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    c3, c2, c1, c0 = t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]

    def derivative(a, nu):
        held = np.clip(np.asarray(a, dtype=float), x[0], x[-1])
        k = np.clip(np.searchsorted(x, held, side="right") - 1, 0, x.size - 2)
        h = held - x[k]
        h2 = h * h
        if nu == 0:
            # scipy's order of the terms, not Horner's, so both round alike
            return c0[k] + c1[k] * h + c2[k] * h2 + c3[k] * (h2 * h)
        d = (c1[k] + 2.0 * c2[k] * h + 3.0 * c3[k] * h2 if nu == 1
             else 2.0 * c2[k] + 6.0 * c3[k] * h)
        return np.where(held == a, d, 0.0)

    return (lambda a: derivative(a, 0), lambda a: derivative(a, 1),
            lambda a: derivative(a, 2))


def _solve_tridiagonal(lower, diag, upper, rhs):
    """x with A x = rhs for a tridiagonal A given by its three bands.

    Gaussian elimination with partial pivoting, step for step as LAPACK's
    gtsv, which scipy's banded solve calls for such a system.
    """
    dl, d, du, b = (v.tolist() for v in (lower, diag, upper, rhs))
    n = len(d)
    du2 = [0.0] * n                    # fill-in from row interchanges
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            f = dl[i] / d[i]
            d[i + 1] -= f * du[i]
            b[i + 1] -= f * b[i]
        else:                          # interchange rows i and i + 1
            f = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - f * d[i + 1], d[i + 1]
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -f * du2[i]
            b[i], b[i + 1] = b[i + 1], b[i] - f * b[i + 1]
    b[n - 1] /= d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / d[i]
    return np.array(b)


def _parse_matter(spec: str):
    """H_q for --matter: a function of an array of scale factors a that
    returns the a.shape + (2, 2) stack of Hamiltonians.  A file: table is
    interpolated linearly in a and, like a table: potential, held constant
    outside its range."""
    kind, _, arg = spec.partition(":")
    if kind in ("none", ""):
        return None
    if kind == "twolevel":
        omega = _as_float(arg or "1")

        def h_of(a, _w=omega):
            # fixed splitting, transverse drive fading as 1/a
            drive = 1.0 / np.asarray(a, dtype=float)
            h = np.empty(drive.shape + (2, 2), dtype=complex)
            h[..., 0, 0], h[..., 1, 1] = 1.0, -1.0
            h[..., 0, 1] = h[..., 1, 0] = drive
            h *= 0.5 * _w
            return h

        return h_of
    if kind == "file":
        if not arg:
            raise ValidationError("matter file needs a path")
        cols = _read_table(arg, "matter", ("a", "h00", "h01re", "h01im", "h11"))

        def h_of(a, _c=cols, _a=cols["a"]):
            h = np.empty(np.shape(a) + (2, 2), dtype=complex)
            h[..., 0, 0] = np.interp(a, _a, _c["h00"])
            h[..., 1, 1] = np.interp(a, _a, _c["h11"])
            h[..., 0, 1] = (np.interp(a, _a, _c["h01re"])
                            + 1j * np.interp(a, _a, _c["h01im"]))
            h[..., 1, 0] = np.conj(h[..., 0, 1])
            return h

        return h_of
    raise ValidationError(f"unknown matter spec {spec!r}")


def _run_cosmo(cfg: RunConfig):
    p = cfg.parameters
    hbars = p["hbar_list"]
    potential, domain = _parse_potential(p["potential"])
    matter = _parse_matter(p["matter"])
    model = minisuperspace.MiniSuperspaceModel(
        potential_u=potential[0], hbar=hbars[0], matter_hamiltonian=matter)

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

    traj = None
    if matter is not None:
        chi0 = np.array([1.0, 0.0], dtype=complex)
        traj = minisuperspace.evolve_matter(model, cm, chi0, t_grid)
    # evolve_matter has evaluated the clock on t_grid already
    a_vals = cm(t_grid) if traj is None else traj.a_values
    cols = {"t": t_grid, "a": a_vals}
    if traj is not None:
        re, im = traj.chis.real, traj.chis.imag
        cols.update({f"re_chi_{k}": re[:, k] for k in range(chi0.size)})
        cols.update({f"im_chi_{k}": im[:, k] for k in range(chi0.size)})
        cols["norm"] = traj.norms
    t_traj = ResultTable(cols)

    a_end = float(a_vals[-1])
    if not a_end > p["a0"]:
        raise ValidationError("trajectory does not grow; residual span empty")
    report = minisuperspace.wdw_residual(*potential, (p["a0"], a_end), hbars)
    t_res = ResultTable({"hbar": report.hbars, "residual": report.residuals,
                         "slope": [report.slope] * len(report.hbars)})

    tables = {"cosmo_trajectory.csv": t_traj, "cosmo_residual.csv": t_res}

    def plots():
        svg1 = render_plot(t_traj, "t", ["a"], title="scale factor clock")
        # a constant U has residual 0, which a log axis cannot show
        svg2 = render_plot(t_res, "hbar", ["residual"], logx=True,
                           logy=bool(np.all(report.residuals > 0)),
                           title="constraint residual",
                           annotate_loglog_slope=True)
        return [("cosmo_trajectory.svg", svg1), ("cosmo_residual.svg", svg2)]

    return tables, plots


# --------------------------------------------------------------------------
# driver

_RUNNERS = {"clock": _run_clock, "tunnel": _run_sweep, "sweep": _run_sweep,
            "cosmo": _run_cosmo,
            "network": lambda cfg: _NETWORK_MODES[cfg.parameters["mode"]][0](cfg.parameters)}


def run(cfg: RunConfig) -> dict[str, ResultTable]:
    """Execute a resolved config: compute, render, then write files.

    Everything is computed and rendered before the first write; files are
    staged, an earlier run's files of the same names are moved into the
    stage, and the new files are renamed into place (manifest last).  A
    failing write or rename removes the files already placed and moves the
    earlier ones back, so the directory is left as the run found it.
    Raises ValidationError for bad inputs, module exceptions for numerical
    trouble, OSError for I/O.
    """
    tables, make_plots = _RUNNERS[cfg.subcommand](cfg)
    plot_files = make_plots() if cfg.plot else []

    manifest_name = f"{cfg.subcommand}.manifest.txt"
    outputs = list(tables.keys()) + [name for name, _ in plot_files]

    os.makedirs(cfg.output_dir, exist_ok=True)
    placed, kept = [], []
    with tempfile.TemporaryDirectory(prefix=".semiq-", dir=cfg.output_dir) as stage:
        previous = os.path.join(stage, "previous")
        try:
            for name, table in tables.items():
                write_csv(table, os.path.join(stage, name))
            for name, content in plot_files:
                with open(os.path.join(stage, name), "w", encoding="utf-8") as fh:
                    fh.write(content)
            write_manifest(os.path.join(stage, manifest_name),
                           cfg.manifest_entries(), outputs)
            os.mkdir(previous)
            for name in outputs + [manifest_name]:
                dest = os.path.join(cfg.output_dir, name)
                # a directory in the way stays there and fails its rename
                if os.path.isfile(dest) or os.path.islink(dest):
                    os.replace(dest, os.path.join(previous, name))
                    kept.append(name)
            for name in outputs + [manifest_name]:
                dest = os.path.join(cfg.output_dir, name)
                os.replace(os.path.join(stage, name), dest)
                placed.append(dest)
        except OSError:
            for dest in placed:
                os.remove(dest)
            for name in kept:
                os.replace(os.path.join(previous, name),
                           os.path.join(cfg.output_dir, name))
            raise
    return tables


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """semiq's parser: every subcommand with its help, and the flags of
    ``only``, or of every subcommand when ``only`` is None.  The others
    stay in place so that usage and error messages name them all."""
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
        if only not in (None, sub):
            continue
        for name, spec in schema.items():
            flag = _flag(name)
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
        if sub not in _NO_PLOT:
            sp.add_argument("--plot", action="store_true", help="also write SVG plots")
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the named subcommand parses flags; anything else gets them all
    parser = _build_parser(argv[0] if argv and argv[0] in _SCHEMAS else None)
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on malformed flags and 0 on --help/--version
        return int(exc.code or 0)

    cli_values = {name: getattr(ns, name) for name in _SCHEMAS[ns.subcommand]}
    try:
        cfg = RunConfig.resolve(ns.subcommand, cli_values, ns.config,
                                ns.output_dir, getattr(ns, "plot", False))
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
