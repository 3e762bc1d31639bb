"""Acceptance gate: one test per shipped criterion, one PASS/FAIL line each.

The lines go to the real stderr so they survive pytest's capture; run
`pytest tests/test_acceptance.py -v` to see them interleaved with the
usual test report.  Every tolerance here is a contract, not a wish: the
suite fails if any criterion regresses.
"""

import itertools
import math
import os
import sys
import time

import numpy as np
import pytest

import semiq
from semiq import (
    BarrierProblem,
    ClockModel,
    GaugeTransformation,
    GlialField,
    MiniSuperspaceModel,
    NeuralState,
    QuantumSystem,
    QuenchedCouplings,
    Reparametrization,
    activation_rate,
    amplitude_transport,
    barrier_exponent,
    barrier_exponent_closed,
    cap_barrier,
    classify,
    clock_map,
    current_ratio,
    ek_comparison,
    evolve_analytic,
    evolve_matter,
    evolve_monte_carlo,
    gauge_transform,
    hamilton_jacobi_phase,
    hamiltonian_full,
    hamiltonian_quenched,
    hebbian_couplings,
    reparametrize_events,
    rescale_class,
    retention_time,
    rolldown,
    solve_barrier,
    transfer_matrix_transmission,
    wdw_residual,
)
from semiq.cli import EXIT_OK, main
from semiq.tableio import read_csv

SEED = 20260814

REPORT_LINES: list[str] = []     # echoed by conftest in the terminal summary


def report(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    REPORT_LINES.append(line)
    print(line, file=sys.__stderr__, flush=True)
    assert ok, line


def test_criterion_01_closed_vs_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for j0, h0, mu in itertools.product((0.5, 1.0, 2.0), repeat=3):
        bp = BarrierProblem(hbar=1.0, mu=mu, j0=j0, h0=h0)
        t_quad = math.exp(-2.0 * barrier_exponent(bp))
        t_closed = math.exp(-2.0 * barrier_exponent_closed(bp))
        worst = max(worst, abs(t_quad - t_closed) / t_closed)
    dt = time.perf_counter() - t0
    report(1, worst < 1e-8 and dt < 1.0,
           f"closed form vs quadrature on 27-point grid, worst rel diff "
           f"{worst:.3e} (< 1e-8), {dt:.2f}s")


def test_criterion_02_oracle_vs_wkb():
    t0 = time.perf_counter()
    h0s = np.linspace(1.36, 4.50, 10)      # spans 2*Lambda in [6, 20]
    worst_wkb = worst_formula = 0.0
    exponents = []
    for h0 in h0s:
        bp = BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=float(h0))
        two_lam = 2.0 * barrier_exponent_closed(bp)
        exponents.append(two_lam)
        t_wkb = activation_rate(bp)
        t_formula = 1.0 / (1.0 + math.exp(two_lam))
        est = transfer_matrix_transmission(cap_barrier(bp))
        worst_wkb = max(worst_wkb, abs(est.T_numeric - t_wkb) / t_wkb)
        worst_formula = max(worst_formula,
                            abs(est.T_numeric - t_formula) / t_formula)
    dt = time.perf_counter() - t0
    spans = 6.0 <= min(exponents) and max(exponents) <= 20.0
    ok = spans and worst_wkb <= 0.3 and worst_formula <= 0.10 and dt < 30.0
    report(2, ok,
           f"transfer-matrix oracle over 10 barriers (2L in "
           f"[{min(exponents):.1f}, {max(exponents):.1f}]): vs WKB "
           f"{worst_wkb:.3f} (<= 0.3), vs 1/(1+e^2L) {worst_formula:.3f} "
           f"(<= 0.10), {dt:.1f}s")


def test_criterion_03_current_ratio():
    t0 = time.perf_counter()
    bp = BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=1.0)
    sol = solve_barrier(bp)
    ratio = current_ratio(sol)
    target = activation_rate(bp)
    err = abs(ratio - target) / target
    dt = time.perf_counter() - t0
    report(3, err < 1e-4 and dt < 1.0,
           f"finite-difference current ratio vs exp(-2L) at unit "
           f"parameters, rel err {err:.3e} (< 1e-4), {dt:.2f}s")


def test_criterion_04_dephasing_oracle():
    t0 = time.perf_counter()
    system = QuantumSystem.uniform_superposition([0.0, 1.0], hbar=1.0)
    clock = ClockModel(1.0, 0.1)
    mc = evolve_monte_carlo(system, clock, steps=50, samples=100_000,
                            seed=SEED)
    got = mc.step_damping_exponents()
    want = 0.5 * 1.0**2 * 0.1**2
    worst = float(np.max(np.abs(got - want) / want))
    rec = retention_time(evolve_analytic(system, clock, 400))
    dt = time.perf_counter() - t0
    ok = worst < 0.02 and rec.retention_time_steps == 200 and dt < 10.0
    report(4, ok,
           f"Monte Carlo damping exponent within {worst:.2%} of "
           f"exp(-w^2 s^2/2) per step (< 2%), retention steps "
           f"{rec.retention_time_steps} (== 200), {dt:.1f}s")


def test_criterion_05_rescaling_invariance():
    t0 = time.perf_counter()
    system = QuantumSystem.uniform_superposition([0.0, 0.7, 1.9], hbar=1.0)
    clock = ClockModel(1.0, 0.15)
    base = evolve_analytic(system, clock, 60)
    records = [retention_time(base)]
    worst = 0.0
    for lam in (0.5, 2.0, 10.0):
        sys2, clk2 = rescale_class(system, clock, lam)
        traj2 = evolve_analytic(sys2, clk2, 60)
        worst = max(worst, float(np.max(np.abs(traj2.rhos - base.rhos))))
        records.append(retention_time(traj2))
    classes = classify(records)
    dt = time.perf_counter() - t0
    ok = worst < 1e-12 and len(classes) == 1 and dt < 1.0
    report(5, ok,
           f"damping/phase history invariant under energy-time rescaling "
           f"(lam = 0.5, 2, 10), worst drift {worst:.3e} (< 1e-12), "
           f"classify keeps one class, {dt:.2f}s")


def test_criterion_06_event_count_reparametrization():
    t0 = time.perf_counter()
    system = QuantumSystem.uniform_superposition([0.0, 1.0], hbar=1.0)
    clock = ClockModel(1.0, 0.1)
    traj = evolve_analytic(system, clock, 30)
    n_events = len(traj.event_log)
    rng = np.random.default_rng(SEED)
    ok = n_events == 30
    for k in range(20):
        if k % 2 == 0:
            a, c = rng.uniform(0.5, 2.0), rng.uniform(0.01, 0.05)
            f = Reparametrization(lambda t, a=a, c=c: a * t + c * t * t,
                                  domain=(-0.5, 40.0))
        else:
            b = rng.uniform(0.02, 0.08)
            f = Reparametrization(
                lambda t, b=b: (math.exp(b * t) - 1.0) / b,
                domain=(-0.5, 40.0))
        mapped = reparametrize_events(traj, f)
        ok = ok and len(mapped.event_log) == n_events
        ok = ok and [k for k, _ in mapped.event_log] == [k for k, _ in traj.event_log]
        ok = ok and bool(np.array_equal(np.abs(mapped.rhos), np.abs(traj.rhos)))
    dt = time.perf_counter() - t0
    report(6, ok and dt < 1.0,
           f"event count {n_events} exactly invariant under 20 random "
           f"monotone reparametrizations (polynomial and exponential), "
           f"{dt:.2f}s")


def test_criterion_07_gauge_invariance():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for n, N in ((4, 4), (8, 8)):
        for s in range(25):
            state = NeuralState.random(n, N, seed=s)
            g = GlialField.random(n, N, seed=s + 1000, scale=0.5)
            o = GaugeTransformation.random(n, N, seed=s + 2000)
            h1 = hamiltonian_full(state, g, h0=0.25)
            state2, g2 = gauge_transform(state, g, o)
            h2 = hamiltonian_full(state2, g2, h0=0.25)
            worst = max(worst, abs(h2 - h1) / abs(h1))
        ident = GaugeTransformation(
            np.broadcast_to(np.eye(N), (n, N, N)).copy())
        state = NeuralState.random(n, N, seed=99)
        g = GlialField.random(n, N, seed=98, scale=0.5)
        s3, g3 = gauge_transform(state, g, ident)
        ok = ok and hamiltonian_full(s3, g3) == hamiltonian_full(state, g)
    dt = time.perf_counter() - t0
    report(7, ok and worst < 1e-10 and dt < 30.0,
           f"interaction energy under 50 random site-wise orthogonal "
           f"transformations at (n,N) = (4,4) and (8,8): worst rel change "
           f"{worst:.3e} (< 1e-10), identity exact, {dt:.1f}s")


def test_criterion_08_ek_reduction_trend():
    t0 = time.perf_counter()
    meds, ses = {}, {}
    for N in (4, 8, 16, 32):
        cmp_ = ek_comparison(n=4, N=N, beta=1.0, draws=8, samples=2000,
                             seed=SEED)
        meds[N] = cmp_.median_abs_discrepancy
        ses[N] = cmp_.se
    dt = time.perf_counter() - t0
    trend = meds[32] <= meds[4]
    within = meds[32] <= 2.0 * ses[32]
    chain = " -> ".join(f"{meds[N]:.4f}" for N in (4, 8, 16, 32))
    report(8, (trend or within) and dt < 300.0,
           f"median full-vs-reduced discrepancy per site over 8 quenched "
           f"draws: {chain} (N = 4 -> 32, SE at 32 = {ses[32]:.1e}), "
           f"{dt:.1f}s")


def test_criterion_09_hopfield_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    ok = True
    pats = np.where(rng.random((3, 16)) < 0.5, -1.0, 1.0)
    couplings = hebbian_couplings(pats)
    for _ in range(100):
        start = np.where(rng.random(16) < 0.5, -1.0, 1.0)
        res = rolldown(start, couplings)
        e = res.energies
        ok = ok and all(b <= a + 1e-12 for a, b in zip(e, e[1:]))
    xi = pats[0]
    single = hebbian_couplings(xi[None, :])
    corrupt = xi.copy()
    corrupt[5] = -corrupt[5]
    rec = rolldown(corrupt, single)
    recovered = bool(np.array_equal(rec.final_state, xi))
    dyadic = QuenchedCouplings(np.outer(xi, xi) / 16.0, H0=0.0)
    stored = hamiltonian_quenched(xi / 4.0, dyadic)
    dt = time.perf_counter() - t0
    ok = ok and recovered and stored == -0.5 and rec.converged and dt < 5.0
    report(9, ok,
           f"100 rolldowns at n = 16 monotone, 1-bit corrupted pattern "
           f"recovered, stored-pattern energy {stored} (== -0.5 exactly), "
           f"{dt:.1f}s")


def test_criterion_10_minisuperspace_pipeline():
    t0 = time.perf_counter()
    model = MiniSuperspaceModel(potential_u=lambda a: 4.0 * a * a, hbar=1.0)
    a = np.linspace(1.0, 4.0, 2001)
    s = hamilton_jacobi_phase(model, a)
    ds = np.gradient(s, a, edge_order=2)
    u = 4.0 * a * a
    hj = float(np.max(np.abs(ds**2 - u)) / np.max(u))
    amp = amplitude_transport(a, s)
    flux = amp**2 * ds
    cons = float(np.max(np.abs(flux - flux[0])) / abs(flux[0]))

    two_level = lambda x: 0.5 * 1.3 * np.array(
        [[1.0, 1.0 / x], [1.0 / x, -1.0]], dtype=complex)
    m1 = MiniSuperspaceModel(potential_u=lambda x: 4.0 * x * x, hbar=1.0,
                             matter_hamiltonian=two_level)
    cm1 = clock_map(m1, a0=1.0, t_span=(0.0, 0.3))
    t_grid = np.linspace(0.0, 0.3, 301)
    chi0 = np.array([1.0, 0.0], dtype=complex)
    tr1 = evolve_matter(m1, cm1, chi0, t_grid)
    drift = tr1.max_norm_drift

    m2 = MiniSuperspaceModel(potential_u=lambda x: 4.0 * x * x, hbar=1.0,
                             lapse=lambda t: 2.0, matter_hamiltonian=two_level)
    cm2 = clock_map(m2, a0=1.0, t_span=(0.0, 0.15))
    tr2 = evolve_matter(m2, cm2, chi0, t_grid / 2.0)
    cov = max(float(np.max(np.abs(tr2.a_values - tr1.a_values))),
              float(np.max(np.abs(tr2.chis - tr1.chis))))

    rep = wdw_residual(model.potential_u, lambda a: 8.0 * a,
                       lambda a: np.full(np.shape(a), 8.0), (1.0, 4.0),
                       [0.1, 0.05, 0.025])
    dt = time.perf_counter() - t0
    ok = (hj < 1e-8 and cons < 1e-8 and drift < 1e-8 and cov < 1e-8
          and abs(rep.slope - 2.0) < 0.2 and dt < 30.0)
    report(10, ok,
           f"expanding-branch pipeline: HJ defect {hj:.1e}, flux "
           f"conservation {cons:.1e}, norm drift {drift:.1e}, lapse "
           f"covariance {cov:.1e} (all < 1e-8), residual slope "
           f"{rep.slope:.4f} (2 +- 0.2), {dt:.1f}s")


_RUN_COUNTER = itertools.count()


def _run_twice(args, base):
    outs = []
    stamp = next(_RUN_COUNTER)
    for tag in ("a", "b"):
        d = base / f"{args[0]}_{stamp}_{tag}"
        d.mkdir(parents=True)
        code = main([*args, "--output-dir", str(d)])
        assert code == EXIT_OK, args
        outs.append(d)
    a, b = outs
    for name in sorted(os.listdir(a)):
        if (a / name).read_bytes() != (b / name).read_bytes():
            return a, False
    return a, True


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    ok = True

    d, same = _run_twice(["tunnel", "--hbar", "1", "--mu", "1", "--j0", "1",
                          "--h0", "1", "--oracle"], tmp_path)
    row = dict(zip(*[read_csv(d / "tunnel.csv").columns,
                     read_csv(d / "tunnel.csv").rows[0]]))
    ok &= same and abs(float(row["T_closed"]) - 1.1762e-2) / 1.1762e-2 < 1e-3
    ok &= abs(float(row["T_numeric"]) - 1.1624e-2) / 1.1624e-2 < 0.10

    d, same = _run_twice(["clock", "--energies", "0,1", "--sigma", "0.1",
                          "--mu0", "1", "--steps", "400"], tmp_path)
    summary = read_csv(d / "clock_summary.csv")
    srow = dict(zip(summary.columns, summary.rows[0]))
    ok &= same and srow["retention_steps"] == "200"

    d, same = _run_twice(["sweep", "--axis", "h0=0.5:2:4"], tmp_path)
    t = read_csv(d / "sweep.csv")
    ts = [float(v) for v in t.column("T_closed")]
    ok &= same and len(t.rows) == 4 and ts == sorted(ts, reverse=True)

    d, same = _run_twice(["sweep", "--axis", "h0=1:2:3",
                          "--axis", "mu=1:4:3"], tmp_path)
    t = read_csv(d / "sweep.csv")
    pairs = [(float(r[t.columns.index("h0")]), float(r[t.columns.index("mu")]))
             for r in t.rows]
    ok &= same and len(pairs) == 9 and pairs == sorted(pairs)

    _, same = _run_twice(["network", "--mode", "ek", "--n", "3", "--N", "4",
                          "--beta", "1", "--draws", "4", "--samples", "200",
                          "--seed", "3"], tmp_path)
    ok &= same
    _, same = _run_twice(["network", "--mode", "gauge-check", "--n", "4",
                          "--N", "4", "--seed", "0"], tmp_path)
    ok &= same
    _, same = _run_twice(["cosmo", "--t-max", "0.2", "--t-points", "51"],
                         tmp_path)
    ok &= same

    dt = time.perf_counter() - t0
    report(11, bool(ok) and dt < 60.0,
           f"all named CLI invocations rerun byte-identically (tunnel, "
           f"clock, both sweeps, network ek + gauge-check, cosmo) and match "
           f"their quoted values, {dt:.1f}s")
