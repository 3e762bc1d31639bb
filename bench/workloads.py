"""The benchmark's six CLI workloads: inputs from a seed, work size, output checks.

Each workload turns a seed into one ``semiq`` command line.  The stochastic
workload (``network_ek``) passes the seed as ``--seed``; the deterministic ones
move the endpoints of their axes by at most ``JITTER`` (relative; less where
stated), so every seed does the same number of points, cells, rows, draws or
steps.

Each check compares the files the command wrote with an independent
reference and records the largest relative deviation from it.  Integer,
flag and grid-echo columns must match exactly.  A check that fails makes the
run count as failed.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

#: default relative half-width of the seed-driven endpoint jitter
JITTER = 0.01

#: cells per oracle walk in the sweeps (the CLI's default ``--points``)
SWEEP_ORACLE_POINTS = 20000


@dataclass
class Inputs:
    """One seeded instance of a workload."""

    argv: list[str]
    items: int                      # work units done by one invocation
    params: dict = field(default_factory=dict)


class Checker:
    """Collects failed comparisons and the largest deviation from a reference."""

    def __init__(self):
        self.failures: list[str] = []
        self.max_rel_err = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, msg: str):
        self.failures.append(msg)

    def exact(self, name, got, want):
        got, want = np.asarray(got), np.asarray(want)
        if got.shape != want.shape or not np.array_equal(got, want):
            self.fail(f"{name}: differs from its exact value")

    def close(self, name, got, want, rtol, floor=0.0, reference=True):
        """|got - want| <= rtol * |want|; below ``floor`` the test is absolute.

        ``reference`` marks a comparison against one of the workload's
        independent references, which feed ``max_rel_err``.
        """
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.fail(f"{name}: shape {got.shape} != {want.shape}")
            return
        if not np.all(np.isfinite(got)):
            self.fail(f"{name}: non-finite values")
            return
        diff = np.abs(got - want)
        big = np.abs(want) >= floor if floor > 0 else np.ones(want.shape, bool)
        rel = diff[big] / np.abs(want[big]) if np.any(big) else np.zeros(1)
        err = float(np.max(rel)) if rel.size else 0.0
        if err > rtol or np.any(diff[~big] > floor):
            self.fail(f"{name}: relative deviation {err:.3e} exceeds {rtol:.1e}")
        if reference:
            self.max_rel_err = max(self.max_rel_err, err)


def read_table(path) -> dict[str, list[str]]:
    """CSV file as column name -> list of raw cell strings."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    header, body = rows[0], rows[1:]
    return {name: [r[i] for r in body] for i, name in enumerate(header)}


def floats(col) -> np.ndarray:
    return np.array([float(v) for v in col])


def ints(col) -> np.ndarray:
    return np.array([int(v) for v in col])


def _jitter(rng, x: float, rel: float = JITTER) -> float:
    return float(x * (1.0 + rel * rng.uniform(-1.0, 1.0)))


# --------------------------------------------------------------------------
# tunnel / sweep: closed form, Kemble's exact parabolic barrier

def _lambda(hbar, mu, j0, h0):
    return (math.pi * h0 / (2.0 * hbar)) * np.sqrt(2.0 * mu / j0)


def check_tunnel_table(c: Checker, tab: dict, expect: np.ndarray,
                       oracle_points: int | None, kemble_rtol: float):
    """Columns of tunnel.csv / sweep.csv against closed forms.

    ``expect`` holds the (hbar, mu, j0, h0) grid echo row by row.
    """
    for k, name in enumerate(("hbar", "mu", "j0", "h0")):
        c.exact(name, floats(tab[name]), expect[:, k])
    lam = _lambda(*expect.T)
    wkb_t = np.exp(-2.0 * lam)
    c.close("lambda", floats(tab["lambda"]), lam, 1e-12, reference=False)
    c.close("T_closed", floats(tab["T_closed"]), wkb_t, 1e-12, reference=False)
    # quad reaches 1e-12 relative in Lambda, so T is good to 2*Lambda*1e-12
    c.close("T_quadrature", floats(tab["T_quadrature"]), wkb_t, 1e-9)
    # each finite-difference current is accepted by the program within 1e-4
    c.close("T_current_ratio", floats(tab["T_current_ratio"]), wkb_t, 3e-4)
    if oracle_points is None:
        if "T_numeric" in tab:
            c.fail("oracle columns present without --oracle")
        return
    kemble = 1.0 / (1.0 + np.exp(2.0 * lam))
    c.close("T_numeric", floats(tab["T_numeric"]), kemble, kemble_rtol)
    rich = floats(tab["richardson_error"])
    if not (np.all(np.isfinite(rich)) and np.all(rich >= 0.0)):
        c.fail("richardson_error: not a finite non-negative number")
    c.exact("L", floats(tab["L"]),
            4.0 * np.sqrt(expect[:, 3] / expect[:, 2]))
    c.exact("n", ints(tab["n"]), np.full(len(expect), oracle_points))


class Workload:
    """A named CLI invocation with a work unit and an output check."""

    name = ""
    why = ""
    unit = ""
    #: layers expected to hold the largest self-time share together
    dominant: tuple[str, ...] = ()
    #: one thread does the work, so each run can be held to one CPU
    pinned = True

    def inputs(self, seed: int) -> Inputs:
        raise NotImplementedError

    def check(self, out_dir: str, inp: Inputs) -> Checker:
        c = Checker()
        try:
            self._check(c, out_dir, inp)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            c.fail(f"unreadable output: {exc!r}")
        return c

    def _check(self, c: Checker, out_dir: str, inp: Inputs):
        raise NotImplementedError


class Sweep(Workload):
    unit = "sweep points"

    def __init__(self, name, why, axes, oracle, kemble_rtol=0.0, dominant=()):
        self.name, self.why = name, why
        self.axes = axes                  # [(axis, lo, hi, npts)]
        self.oracle = oracle
        self.kemble_rtol = kemble_rtol
        self.dominant = dominant

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        argv = ["sweep"]
        axes = []
        for axis, lo, hi, npts in self.axes:
            lo, hi = _jitter(rng, lo), _jitter(rng, hi)
            axes.append((axis, lo, hi, npts))
            argv += ["--axis", f"{axis}={lo!r}:{hi!r}:{npts}"]
        if self.oracle:
            argv += ["--oracle"]
        items = math.prod(n for *_, n in axes)
        return Inputs(argv, items, {"axes": axes})

    def _check(self, c, out_dir, inp):
        tab = read_table(os.path.join(out_dir, "sweep.csv"))
        grids = [np.linspace(lo, hi, n) for _, lo, hi, n in inp.params["axes"]]
        mesh = np.meshgrid(*grids, indexing="ij")
        expect = np.ones((mesh[0].size, 4))
        order = ("hbar", "mu", "j0", "h0")
        for (axis, *_), m in zip(inp.params["axes"], mesh):
            expect[:, order.index(axis)] = m.ravel()
        if len(tab["hbar"]) != len(expect):
            c.fail(f"sweep.csv: {len(tab['hbar'])} rows, expected {len(expect)}")
            return
        check_tunnel_table(c, tab, expect,
                           SWEEP_ORACLE_POINTS if self.oracle else None,
                           self.kemble_rtol)


class TunnelDeep(Workload):
    name = "tunnel_deep"
    why = ("one deep barrier (T ~ 3e-39), 1.5 M oracle cells in one walk: "
           "no per-point overhead, and per-cell arrays would show in peak RSS")
    unit = "oracle cells"
    dominant = ("oracle",)
    hbar = 0.05
    points = 1_000_000

    def inputs(self, seed):
        # T_numeric - Kemble oscillates in hbar with a period of about 1%
        # (reflection off the cap), so a wider jitter would make the
        # deviation, not the program, vary from seed to seed
        hbar = _jitter(np.random.default_rng(seed), self.hbar, 1e-4)
        argv = ["tunnel", "--hbar", repr(hbar), "--oracle",
                "--points", str(self.points)]
        # the fine walk plus the Richardson pass on the 2x-coarsened grid
        return Inputs(argv, self.points + self.points // 2, {"hbar": hbar})

    def _check(self, c, out_dir, inp):
        tab = read_table(os.path.join(out_dir, "tunnel.csv"))
        if len(tab["hbar"]) != 1:
            c.fail("tunnel.csv: expected one row")
            return
        expect = np.array([[inp.params["hbar"], 1.0, 1.0, 1.0]])
        check_tunnel_table(c, tab, expect, self.points, 1e-2)


class ClockTables(Workload):
    name = "clock_tables"
    why = ("30 levels x 401 steps, 174435 closed-form rows and a 6.9 MB CSV: "
           "row assembly and CSV formatting dominate")
    unit = "table rows"
    dominant = ("cli", "tableio")
    levels = 30
    steps = 400
    sigma = 0.1

    def inputs(self, seed):
        spacing = _jitter(np.random.default_rng(seed), 1.0)
        energies = [k * spacing for k in range(self.levels)]
        argv = ["clock", "--energies", ",".join(repr(e) for e in energies),
                "--steps", str(self.steps)]
        pairs = self.levels * (self.levels - 1) // 2
        return Inputs(argv, (self.steps + 1) * pairs, {"energies": energies})

    def _check(self, c, out_dir, inp):
        tab = read_table(os.path.join(out_dir, "clock_trajectory.csv"))
        e = np.array(inp.params["energies"])
        d = e.size
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        steps = np.repeat(np.arange(self.steps + 1), len(pairs))
        if len(tab["step"]) != steps.size:
            c.fail(f"clock_trajectory.csv: {len(tab['step'])} rows, "
                   f"expected {steps.size}")
            return
        c.exact("step", ints(tab["step"]), steps)
        # unit mean tick, so physical time is the step count exactly
        c.exact("time", floats(tab["time"]), steps.astype(float))
        c.exact("events_so_far", ints(tab["events_so_far"]), steps)
        c.exact("pair", np.array(tab["pair"]),
                np.tile([f"{i}-{j}" for i, j in pairs], self.steps + 1))
        # closed-form Gaussian dephasing of a uniform superposition
        w = np.array([e[i] - e[j] for i, j in pairs])
        ref = np.exp(-0.5 * np.outer(np.arange(self.steps + 1),
                                     w**2 * self.sigma**2)).ravel() / d
        # the program multiplies one factor per step, so its roundoff grows
        # with the step count; below 1e-290 the values are subnormal
        c.close("coherence", floats(tab["coherence"]), ref, 1e-11,
                floor=1e-290)

        summ = read_table(os.path.join(out_dir, "clock_summary.csv"))
        c.exact("horizon_steps", ints(summ["horizon_steps"]), [self.steps])
        c.exact("sigma", floats(summ["sigma"]), [self.sigma])
        c.exact("mean_increment", floats(summ["mean_increment"]), [1.0])
        # retention is the first step where the largest coherence ratio,
        # that of the closest-spaced pair, falls to 1/e: k w^2 sigma^2 / 2 >= 1
        w_min = e[1] - e[0]
        k_ret = math.ceil((1.0 - 1e-9) * 2.0 / (w_min**2 * self.sigma**2))
        reached = k_ret <= self.steps
        c.exact("retention_steps", ints(summ["retention_steps"]),
                [k_ret if reached else -1])
        c.exact("retention_time", floats(summ["retention_time"]).astype(str),
                [repr(float(k_ret)) if reached else "nan"])
        c.exact("reached", ints(summ["reached"]), [int(reached)])
        c.exact("threshold", floats(summ["threshold"]), [math.exp(-1.0)])


class NetworkEk(Workload):
    name = "network_ek"
    why = ("dense 512x512 expm per quenched draw; BLAS uses both cores, so "
           "CPU time exceeds wall time")
    unit = "quenched draws"
    dominant = ("network",)
    pinned = False                  # the BLAS pool uses every CPU
    n, N, draws, samples, beta = 8, 64, 8, 2000, 1.0

    def inputs(self, seed):
        argv = ["network", "--mode", "ek", "--n", str(self.n), "--N", str(self.N),
                "--draws", str(self.draws), "--samples", str(self.samples),
                "--seed", str(seed)]
        return Inputs(argv, self.draws, {"seed": seed})

    def reference(self, seed):
        """Discrepancies and SEs from the same random streams, with exp(D)
        built from its site-Fourier blocks instead of one dense expm.

        D = -I + S (x) (I + G) with S the cyclic site shift, so
        exp(D) = e^-1 (F (x) I) diag_k exp(w_k (I + G)) (F^H (x) I),
        w_k = exp(2 pi i k / n); each block comes from one
        eigendecomposition of the antisymmetric G.
        """
        n, N = self.n, self.N
        streams = np.random.SeedSequence(seed).spawn(self.draws)
        k = np.arange(n)
        f = np.exp(2j * np.pi * np.outer(k, k) / n) / math.sqrt(n)
        omega = np.exp(2j * np.pi * k / n)
        disc, ses = np.empty(self.draws), np.empty(self.draws)
        for d in range(self.draws):
            rng = np.random.default_rng(streams[d])
            r = rng.standard_normal((N, N))
            g = (r - r.T) / (2.0 * math.sqrt(N))
            # G antisymmetric: iG is Hermitian, G = V diag(i lam) V^H
            lam, v = np.linalg.eigh(1j * g)
            ev = -1j * lam                           # eigenvalues of G
            blocks = [(v * np.exp(om * (1.0 + ev))) @ v.conj().T
                      for om in omega]
            m_red = ((v * np.exp(ev)) @ v.conj().T).real
            # the shift acts as phi_i -> phi_{i+1}: S = F diag(omega) F^H
            big = np.zeros((n * N, n * N), dtype=complex)
            for a in range(n):
                for b in range(n):
                    big[a*N:(a+1)*N, b*N:(b+1)*N] = sum(
                        f[a, q] * blocks[q] * f[b, q].conj() for q in range(n))
            m_full = math.exp(-1.0) * big.real

            x = rng.standard_normal((self.samples, n * N))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            e_full = -np.einsum("sd,sd->s", x, x @ m_full.T) / (2.0 * N)
            y = rng.standard_normal((self.samples, N))
            y /= np.linalg.norm(y, axis=1, keepdims=True)
            e_red = -np.einsum("sd,sd->s", y, y @ m_red.T) / (2.0 * N)
            lz_full, se_full = _log_mean_exp(-self.beta * e_full)
            lz_red, se_red = _log_mean_exp(-self.beta * e_red)
            disc[d] = lz_full / n - lz_red
            ses[d] = math.hypot(se_full / n, se_red)
        return disc, ses

    def _check(self, c, out_dir, inp):
        tab = read_table(os.path.join(out_dir, "network_ek.csv"))
        disc, ses = self.reference(inp.params["seed"])
        c.exact("draw", ints(tab["draw"]), np.arange(self.draws))
        c.close("discrepancy", floats(tab["discrepancy"]), disc, 1e-8)
        c.close("std_error", floats(tab["std_error"]), ses, 1e-8)
        summ = read_table(os.path.join(out_dir, "network_ek_summary.csv"))
        for name, want in (("n", self.n), ("N", self.N), ("draws", self.draws),
                           ("samples", self.samples)):
            c.exact(name, ints(summ[name]), [want])
        c.exact("beta", floats(summ["beta"]), [self.beta])
        med = float(np.median(np.abs(disc)))
        c.close("median_abs_discrepancy", floats(summ["median_abs_discrepancy"]),
                [med], 1e-8)
        se = float(np.median(ses))
        c.exact("starved", ints(summ["starved"]), [int(se > 0.1 * med)])


def _log_mean_exp(x):
    m = np.max(x)
    z = np.exp(x - m)
    mean = float(np.mean(z))
    se_mean = float(np.std(z, ddof=1) / math.sqrt(z.size))
    return m + math.log(mean), se_mean / mean


class CosmoMatter(Workload):
    name = "cosmo_matter"
    why = ("20000 matter steps plus the wdw_residual refinement loop: the "
           "only workload that measures minisuperspace")
    unit = "matter steps"
    dominant = ("minisuperspace",)
    t_max = 0.3
    t_points = 20001
    hbars = (0.1, 0.05, 0.025)
    omega = 5.0

    def inputs(self, seed):
        # +-0.2% keeps the residual grid trail at 4096 -> 8192 per hbar;
        # t_max = 0.3027 already adds a refinement to 16384
        t_max = _jitter(np.random.default_rng(seed), self.t_max, 2e-3)
        argv = ["cosmo", "--potential", "quadratic:4",
                "--hbar-list", ",".join(repr(h) for h in self.hbars),
                "--t-max", repr(t_max), "--t-points", str(self.t_points),
                "--matter", f"twolevel:{self.omega!r}"]
        return Inputs(argv, self.t_points - 1, {"t_max": t_max})

    def _check(self, c, out_dir, inp):
        res = read_table(os.path.join(out_dir, "cosmo_residual.csv"))
        c.exact("hbar", floats(res["hbar"]), sorted(self.hbars, reverse=True))
        slope = floats(res["slope"])
        # the README promises a residual slope of 2 within 0.2
        c.close("slope", slope, np.full(slope.shape, 2.0), 0.1)
        if not np.all(floats(res["residual"]) > 0.0):
            c.fail("residual: not positive")

        traj = read_table(os.path.join(out_dir, "cosmo_trajectory.csv"))
        t = np.linspace(0.0, inp.params["t_max"], self.t_points)
        c.exact("t", floats(traj["t"]), t)
        # U = 4 a^2 and unit lapse: da/dt = 4a, so a = exp(4t) from a0 = 1
        c.close("a", floats(traj["a"]), np.exp(4.0 * t), 1e-8, reference=False)
        c.close("norm", floats(traj["norm"]), np.ones(t.size), 1e-10,
                reference=False)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Sweep("sweep_oracle",
          "36 sweep points x 20000 cells: the oracle's pure-Python cell walk "
          "is about 96% of the time, the mechanism for batching the walk",
          [("h0", 0.5, 2.0, 6), ("mu", 0.5, 2.0, 6)], oracle=True,
          kemble_rtol=0.15, dominant=("oracle",)),
    TunnelDeep(),
    Sweep("sweep_wkb",
          "1600 sweep points without the oracle: WKB quadrature and "
          "finite-difference currents, which oracle changes must not move",
          [("hbar", 0.2, 2.0, 40), ("h0", 0.5, 2.0, 40)], oracle=False,
          dominant=("wkb",)),
    ClockTables(),
    NetworkEk(),
    CosmoMatter(),
)}
