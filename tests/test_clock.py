import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiq import (
    ClockModel,
    QuantumSystem,
    Reparametrization,
    classify,
    evolve_analytic,
    evolve_monte_carlo,
    reparametrize_events,
    rescale_class,
    retention_time,
)
from semiq.clock import CoherenceTrajectory

SEED = 20260814

# frozen oracle: for Delta E = 1, hbar = 1, sigma = 0.1, mu0 = 1 the
# per-tick damping factor is exp(-omega^2 sigma^2 / 2) = exp(-0.005)
STEP_FACTOR = math.exp(-0.005)
RETENTION_STEPS = 200     # 0.005 * 200 = 1, hits 1/e exactly


def two_level(hbar=1.0, de=1.0):
    return QuantumSystem.uniform_superposition([0.0, de], hbar=hbar)


def test_clock_model_broken_vs_unbroken():
    broken = ClockModel(2.0, 0.1)
    assert broken.mean(0) == broken.mean(57) == 2.0
    unbroken = ClockModel(lambda k: 1.0 + 0.1 * k, 0.0)
    assert unbroken.mean(3) == pytest.approx(1.3)
    # a rescaling keeps a constant mean constant and a schedule a schedule
    for clock in (broken, unbroken):
        _, rescaled = rescale_class(two_level(), clock, 3.0)
        assert [rescaled.mean(k) for k in (0, 5)] == pytest.approx(
            [clock.mean(k) / 3.0 for k in (0, 5)])
    with pytest.raises(TypeError):
        ClockModel(2.0, 0.1, symmetry_broken=False)
    with pytest.raises(ValueError):
        ClockModel(-1.0, 0.1)
    with pytest.raises(ValueError):
        ClockModel(1.0, -0.5)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        QuantumSystem([0.0, 1.0], 1.0, np.array([[0.6, 0.0], [0.0, 0.6]]))
    with pytest.raises(ValueError):
        QuantumSystem([0.0, 1.0], 1.0, np.array([[1.0, 0.5], [0.4, 0.0]]))
    with pytest.raises(ValueError):
        QuantumSystem([0.0], 1.0, np.array([[1.0]]))


def test_populations_preserved_and_trace_one():
    traj = evolve_analytic(two_level(), ClockModel(1.0, 0.3), steps=100)
    pops = np.einsum("kii->ki", traj.rhos).real
    assert np.allclose(pops, pops[0], atol=1e-14)
    traces = np.einsum("kii->k", traj.rhos).real
    assert np.max(np.abs(traces - 1.0)) < 1e-12


def test_per_step_damping_matches_gaussian_characteristic_function():
    traj = evolve_analytic(two_level(), ClockModel(1.0, 0.1), steps=10)
    mags = traj.coherence_magnitudes()[(0, 1)]
    ratios = mags[1:] / mags[:-1]
    assert np.allclose(ratios, STEP_FACTOR, rtol=1e-13)


@pytest.mark.parametrize("energies, clock, steps", [
    ([1.3 * k for k in range(5)], ClockModel(1.0, 0.05), 2000),
    ([0.0, 0.7, 2.9], ClockModel(1.0, 0.01), 4000),
    ([0.0, 0.4, 1.5, 1.9], ClockModel(lambda k: 0.5 + 1e-3 * k, 0.03), 1500),
], ids=["5-level", "3-level", "schedule"])
def test_closed_form_error_is_bounded_by_the_exponent(energies, clock, steps):
    # |rho_ij(k)| = |rho_ij(0)| exp(-x), x = k w^2 sigma^2 / 2, against a
    # 40-digit reference from the exact binary w, sigma and rho(0): the
    # error may grow with x (exp's conditioning) but not with the step count
    system = QuantumSystem.uniform_superposition(energies)
    coherence = np.abs(evolve_analytic(system, clock, steps).rhos)
    w, rho0 = system.omegas(), system.initial_density
    eps = np.finfo(float).eps
    with localcontext() as ctx:
        ctx.prec = 40
        sig2 = Decimal(clock.fluctuation_std) ** 2
        for i, j in zip(*np.triu_indices(system.dim, k=1)):
            r0 = (Decimal(rho0[i, j].real) ** 2 + Decimal(rho0[i, j].imag) ** 2).sqrt()
            rate = Decimal(w[i, j]) ** 2 * sig2 / 2
            for k in range(steps + 1):
                x = k * rate
                if x > 600:
                    break
                err = abs(Decimal(coherence[k, i, j]) / (r0 * (-x).exp()) - 1)
                assert err <= 4 * eps * (1 + float(x)), (i, j, k, float(err / eps))


def test_monte_carlo_is_the_running_product_of_its_tick_factors():
    # the per-tick reference: each tick's own stream, redraws of the
    # non-positive durations, mean of exp(-i w dt), one product per tick
    system = QuantumSystem.uniform_superposition([0.0, 0.4, 1.1])
    mu, sigma, steps, samples = 0.7, 0.3, 60, 40
    traj = evolve_monte_carlo(system, ClockModel(mu, sigma), steps, samples, SEED)
    w = system.omegas()
    rho = system.initial_density
    redraws = 0
    for k, stream in enumerate(np.random.SeedSequence(SEED).spawn(steps), 1):
        rng = np.random.default_rng(stream)
        dt = rng.normal(mu, sigma, size=samples)
        while np.any(dt <= 0.0):
            redraws += 1
            dt[dt <= 0.0] = rng.normal(mu, sigma, size=int(np.sum(dt <= 0.0)))
        factor = np.mean(np.exp(-1j * w[..., None] * dt), axis=-1)
        np.fill_diagonal(factor, 1.0)
        rho = rho * factor
        np.testing.assert_allclose(traj.rhos[k], rho, rtol=1e-13, atol=0)
    assert redraws > 0


def test_trajectory_names_the_first_step_that_loses_the_trace():
    rhos = np.tile(np.diag([0.5, 0.5]).astype(complex), (5, 1, 1))
    rhos[2, 0, 0] = rhos[4, 1, 1] = 0.6
    with pytest.raises(ValueError, match="at step 2:"):
        CoherenceTrajectory(rhos, np.arange(5.0), np.ones(4), 0.1, [])


def test_sigma_zero_is_unitary():
    traj = evolve_analytic(two_level(), ClockModel(1.0, 0.0), steps=50)
    mags = traj.coherence_magnitudes()[(0, 1)]
    assert np.allclose(mags, mags[0], atol=1e-14)
    assert traj.event_log == []


def test_nonunitary_event_per_tick():
    traj = evolve_analytic(two_level(), ClockModel(1.0, 0.1), steps=7)
    assert len(traj.event_log) == 7
    steps = [k for k, _ in traj.event_log]
    assert steps == sorted(steps)


def test_retention_time_exact_200():
    traj = evolve_analytic(two_level(), ClockModel(1.0, 0.1), steps=400)
    rec = retention_time(traj)
    assert rec.retention_time_steps == RETENTION_STEPS
    assert rec.retention_time_physical == pytest.approx(200.0)
    assert rec.reached


def test_retention_not_reached_reported():
    traj = evolve_analytic(two_level(), ClockModel(1.0, 0.1), steps=100)
    rec = retention_time(traj)
    assert rec.retention_time_steps is None
    assert not rec.reached
    assert "not reached" in repr(rec)


def test_monte_carlo_matches_analytic_two_percent():
    clock = ClockModel(1.0, 0.1)
    an = evolve_analytic(two_level(), clock, steps=50)
    mc = evolve_monte_carlo(two_level(), clock, steps=50, samples=100000,
                            seed=SEED)
    m_an = an.coherence_magnitudes()[(0, 1)][1:]
    m_mc = mc.coherence_magnitudes()[(0, 1)][1:]
    assert np.max(np.abs(m_mc - m_an) / m_an) < 0.02


def test_monte_carlo_deterministic():
    clock = ClockModel(1.0, 0.2)
    a = evolve_monte_carlo(two_level(), clock, steps=20, samples=500, seed=3)
    b = evolve_monte_carlo(two_level(), clock, steps=20, samples=500, seed=3)
    assert np.array_equal(a.rhos, b.rhos)
    c = evolve_monte_carlo(two_level(), clock, steps=20, samples=500, seed=4)
    assert not np.array_equal(c.rhos, a.rhos)


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_rescaling_invariance(lam):
    system = two_level()
    clock = ClockModel(1.0, 0.1)
    base = evolve_analytic(system, clock, steps=250)
    s2, c2 = rescale_class(system, clock, lam)
    other = evolve_analytic(s2, c2, steps=250)
    assert np.max(np.abs(other.step_damping_exponents()
                         - base.step_damping_exponents())) < 1e-12
    assert np.max(np.abs(np.angle(other.step_factors())
                         - np.angle(base.step_factors()))) < 1e-12
    assert (retention_time(other).retention_time_steps
            == retention_time(base).retention_time_steps)


def test_classify_groups_rescaled_separates_sigmas():
    system = two_level()
    rec1 = retention_time(evolve_analytic(system, ClockModel(1.0, 0.1), 250))
    s2, c2 = rescale_class(system, ClockModel(1.0, 0.1), 2.0)
    rec2 = retention_time(evolve_analytic(s2, c2, 250))
    rec3 = retention_time(evolve_analytic(system, ClockModel(1.0, 0.2), 250))
    groups = classify([rec1, rec2, rec3])
    assert len(groups) == 2
    sizes = sorted(len(g) for g in groups)
    assert sizes == [1, 2]


def test_reparametrization_keeps_events_and_magnitudes():
    system = two_level()
    traj = evolve_analytic(system, ClockModel(1.0, 0.1), steps=30)
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        a = rng.uniform(0.2, 3.0)
        c = rng.uniform(0.0, 0.5)
        f = Reparametrization(lambda t, a=a, c=c: a * t + c * t**2,
                              domain=(0.0, 40.0))
        mapped = reparametrize_events(traj, f)
        assert len(mapped.event_log) == len(traj.event_log)
        assert [k for k, _ in mapped.event_log] == [k for k, _ in traj.event_log]
        ts = [t for _, t in mapped.event_log]
        assert ts == sorted(ts)
        assert np.array_equal(mapped.rhos, traj.rhos)


def test_reparametrization_rejects_decreasing():
    with pytest.raises(ValueError):
        Reparametrization(lambda t: -t, domain=(0.0, 1.0))


@pytest.mark.parametrize("evolve", [
    lambda system, clock: evolve_analytic(system, clock, steps=3),
    lambda system, clock: evolve_monte_carlo(system, clock, steps=3, samples=4,
                                             seed=0),
], ids=["analytic", "monte_carlo"])
def test_clock_time_past_the_float_range_is_named(evolve):
    with pytest.raises(ValueError, match="clock time T_k is not finite at tick 2"):
        evolve(two_level(), ClockModel(1e308, 0.0))


def test_phase_past_the_float_range_is_named():
    # w = 1e150 and T_2 = 2e160: w**2 is finite, w*T_k is not
    system = QuantumSystem.uniform_superposition([0.0, 1e150])
    with pytest.raises(ValueError, match=r"phase \(E_i - E_j\) T_k / hbar by "
                       "tick 2 is not finite for levels 0-1"):
        evolve_analytic(system, ClockModel(1e160, 0.0), steps=2)


def test_unbroken_clock_mean_profile():
    clock = ClockModel(lambda k: 1.0 / (k + 1), 0.0)
    traj = evolve_analytic(two_level(), clock, steps=4)
    # times are the running sum of the per-tick means
    assert traj.times[-1] == pytest.approx(1 + 1 / 2 + 1 / 3 + 1 / 4)


def test_dominant_pair_three_levels():
    amps = np.array([math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)],
                    dtype=complex)
    rho = np.outer(amps, amps.conj())
    system = QuantumSystem([0.0, 1.0, 2.5], 1.0, rho)
    traj = evolve_analytic(system, ClockModel(1.0, 0.1), steps=5)
    assert traj.dominant_pair() == (0, 1)


def test_pair_coherences_in_row_major_order():
    amps = np.sqrt([0.1, 0.3, 0.3, 0.3]).astype(complex)
    system = QuantumSystem([0.0, 1.0, 2.5, 4.0], 1.0, np.outer(amps, amps.conj()))
    traj = evolve_analytic(system, ClockModel(1.0, 0.1), steps=5)
    assert traj.pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert traj.coherences.shape == (6, 6)
    mags = traj.coherence_magnitudes()
    assert list(mags) == traj.pairs
    for p, (i, j) in enumerate(traj.pairs):
        assert np.array_equal(traj.coherences[:, p], np.abs(traj.rhos[:, i, j]))
        assert np.array_equal(mags[(i, j)], traj.coherences[:, p])
    # three pairs tie at the largest start; the first in row-major order wins
    assert traj.dominant_pair() == (1, 2)


def test_coherence_ratio_skips_pairs_without_coherence():
    # levels 0 and 1 in superposition, level 2 mixed in incoherently: the
    # pairs (0, 2) and (1, 2) start at zero and take no part in the ratio
    psi = np.array([math.sqrt(0.5), math.sqrt(0.5), 0.0], dtype=complex)
    rho = 0.6 * np.outer(psi, psi.conj()) + np.diag([0.0, 0.0, 0.4])
    traj = evolve_analytic(QuantumSystem([0.0, 1.0, 3.0], 1.0, rho),
                           ClockModel(1.0, 0.1), steps=20)
    series = np.abs(traj.rhos[:, 0, 1])
    assert np.array_equal(traj.max_coherence_ratio(), series / series[0])
    assert traj.dominant_pair() == (0, 1)
    mixed = evolve_analytic(QuantumSystem([0.0, 1.0], 1.0, np.diag([0.5, 0.5])),
                            ClockModel(1.0, 0.1), steps=3)
    for summary in (mixed.max_coherence_ratio, mixed.dominant_pair):
        with pytest.raises(ValueError, match="no nonzero initial coherence"):
            summary()


# --------------------------------------------------------------------------
# properties

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def systems(draw, max_levels=4):
    """Random distinct levels in a pure state with random nonzero weights."""
    d = draw(st.integers(2, max_levels))
    gaps = draw(st.lists(st.floats(0.5, 2.0), min_size=d - 1, max_size=d - 1))
    energies = np.concatenate(([0.0], np.cumsum(gaps))) - draw(st.floats(-2.0, 2.0))
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=d,
                                     max_size=d)))
    phases = np.array(draw(st.lists(st.floats(0.0, 2.0 * math.pi),
                                    min_size=d, max_size=d)))
    amps = np.sqrt(weights / weights.sum()) * np.exp(1j * phases)
    return QuantumSystem(energies, 1.0, np.outer(amps, amps.conj()))


@PROPERTY
@given(systems(), st.floats(0.5, 2.0), st.floats(0.1, 0.5),
       st.floats(0.1, 10.0), st.booleans())
def test_rescale_class_keeps_retention_and_profile(system, mu0, sigma, lam,
                                                   schedule):
    # (E, mu, sigma) -> (lam E, mu/lam, sigma/lam) keeps every w*mu and
    # w*sigma, so the retention step and the damping profile are unchanged
    if schedule:
        clock = ClockModel(lambda k: mu0 * (1.0 + 0.01 * k), sigma)
    else:
        clock = ClockModel(mu0, sigma)
    s2, c2 = rescale_class(system, clock, lam)
    base = retention_time(evolve_analytic(system, clock, steps=300))
    other = retention_time(evolve_analytic(s2, c2, steps=300))
    assert other.retention_time_steps == base.retention_time_steps
    np.testing.assert_allclose(other.damping_profile, base.damping_profile,
                               rtol=1e-12, atol=0)


@PROPERTY
@given(systems(), st.floats(0.5, 2.0), st.floats(0.0, 1.0),
       st.integers(1, 50), st.integers(0, 2**32 - 1))
def test_monte_carlo_keeps_populations_and_trace_exactly(system, mu0, sigma,
                                                        samples, seed):
    traj = evolve_monte_carlo(system, ClockModel(mu0, sigma), steps=20,
                              samples=samples, seed=seed)
    rho0 = system.initial_density
    pops = np.einsum("kii->ki", traj.rhos).real
    assert np.array_equal(pops, np.broadcast_to(np.diag(rho0).real, pops.shape))
    assert np.all(np.trace(traj.rhos, axis1=1, axis2=2) == np.trace(rho0))
