"""Closed-form anchors use U = 4 a^2: S = a^2 - 1 from a0 = 1, A ~ a^(-1/2),
and the clock runs a(t) = a0 exp(4t) at unit lapse."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from semiq import (
    MiniSuperspaceModel,
    amplitude_transport,
    clock_map,
    evolve_matter,
    hamilton_jacobi_phase,
    wdw_residual,
)
from semiq import minisuperspace
from semiq.cli import _parse_matter, _spline
from semiq.minisuperspace import _unit_lapse


def quad_model(**kw):
    return MiniSuperspaceModel(potential_u=lambda a: 4.0 * a * a, hbar=1.0, **kw)


#: U = 4 a^2 with its exact U' and U'', as wdw_residual takes them
QUAD = (lambda a: 4.0 * a * a, lambda a: 8.0 * a, lambda a: np.full(np.shape(a), 8.0))


def test_phase_closed_form():
    a = np.linspace(1.0, 4.0, 301)
    s = hamilton_jacobi_phase(quad_model(), a)
    assert np.max(np.abs(s - (a * a - 1.0))) < 1e-10


def test_phase_rejects_euclidean_region():
    m = MiniSuperspaceModel(potential_u=lambda a: a - 2.0, hbar=1.0)
    with pytest.raises(ValueError, match="Euclidean"):
        hamilton_jacobi_phase(m, np.linspace(1.0, 3.0, 11))


@pytest.mark.parametrize("points", [7, 50001])
@pytest.mark.parametrize("c,power", [(4.0, 2.0), (1.0, 0.0), (2.5, 3.0),
                                     (0.3, -1.0), (7.0, 0.5), (1.0, -3.0)])
def test_phase_matches_power_law_closed_form(c, power, points):
    # S = sqrt(c) (a^e - a0^e) / e with e = p/2 + 1, written with expm1 and
    # log1p so that the reference keeps its relative precision next to a0
    a = np.linspace(0.5, 3.0, points)
    m = MiniSuperspaceModel(potential_u=lambda x: c * x**power, hbar=1.0)
    s = hamilton_jacobi_phase(m, a)
    e = power / 2.0 + 1.0
    want = math.sqrt(c) * a[0]**e * np.expm1(e * np.log1p((a - a[0]) / a[0])) / e
    assert s[0] == 0.0
    assert np.max(np.abs(s[1:] - want[1:]) / want[1:]) < 1e-13


def test_phase_matches_quad_per_segment():
    # the adaptive quad per grid segment that the table replaced; on
    # segments this wide the table bisects, and S is read at the grid points
    u = lambda x: np.exp(3.0 * np.sin(5.0 * x)) + 0.01
    a = np.linspace(0.0, 3.0, 4)
    s = hamilton_jacobi_phase(MiniSuperspaceModel(potential_u=u, hbar=1.0), a)
    seg = [quad(lambda x: math.sqrt(u(x)), lo, hi, epsabs=0.0, epsrel=1e-13,
                limit=200)[0]
           for lo, hi in zip(a[:-1], a[1:])]
    want = np.concatenate(([0.0], np.cumsum(seg)))
    assert np.max(np.abs(s[1:] - want[1:]) / want[1:]) < 1e-13


def test_phase_bisects_on_a_grid_of_more_panels_than_it_may_add():
    # a kink of U between two of 50 000 grid panels, next to which the
    # table bisects; MAX_PANELS bounds the panels added, not the grid
    c = 2.00001234
    a = np.linspace(1.0, 3.0, 50001)
    s = hamilton_jacobi_phase(
        MiniSuperspaceModel(potential_u=lambda x: np.abs(x - c) + 1.0, hbar=1.0), a)
    prim = np.sign(a - c) * (2.0 / 3.0) * ((np.abs(a - c) + 1.0) ** 1.5 - 1.0)
    assert np.max(np.abs(s - (prim - prim[0]))) < 1e-13 * s[-1]


def test_phase_takes_a_potential_of_floats():
    a = np.linspace(1.0, 4.0, 31)
    per_point = MiniSuperspaceModel(potential_u=lambda x: 4.0 * float(x) ** 2,
                                    hbar=1.0)
    assert (hamilton_jacobi_phase(per_point, a).tobytes()
            == hamilton_jacobi_phase(quad_model(), a).tobytes())


@pytest.mark.parametrize("u", [
    lambda a: 4.0 * a * a - 4.0,            # 0 at the first grid point
    lambda a: 4.0 - a * a,                  # 0 at a = 2, then negative
    lambda a: 4.0 - float(a) ** 2,          # the same, one float at a time
])
def test_phase_stops_where_u_reaches_zero(u):
    a = np.linspace(1.0, 3.0, 11)
    with pytest.raises(ValueError, match="Euclidean region or turning point"):
        hamilton_jacobi_phase(MiniSuperspaceModel(potential_u=u, hbar=1.0), a)


def test_hamilton_jacobi_defect_small():
    a = np.linspace(1.0, 4.0, 2001)
    s = hamilton_jacobi_phase(quad_model(), a)
    ds = np.gradient(s, a, edge_order=2)
    assert np.max(np.abs(ds**2 - 4.0 * a * a)) < 1e-8


def test_amplitude_ratio_and_conservation():
    a = np.linspace(1.0, 4.0, 301)
    s = hamilton_jacobi_phase(quad_model(), a)
    amp = amplitude_transport(a, s)
    assert amp[0] == 1.0
    assert amp[-1] == pytest.approx(0.5, abs=1e-12)   # (a0/a)^(1/2) at a = 4
    ds = np.gradient(s, a, edge_order=2)
    flux = amp**2 * ds
    assert np.max(np.abs(flux - flux[0])) < 1e-8


def test_amplitude_caustic_raises():
    a = np.linspace(0.0, 1.0, 11)
    s = -(a - 0.5) ** 2          # dS/da changes sign
    with pytest.raises(ValueError, match="caustic"):
        amplitude_transport(a, s)


def test_clock_map_exponential():
    cm = clock_map(quad_model(), a0=1.0, t_span=(0.0, 0.5))
    ts = np.linspace(0.0, 0.5, 21)
    assert np.max(np.abs(cm(ts) - np.exp(4.0 * ts))) < 1e-9
    assert cm(0.25) == pytest.approx(math.e, rel=1e-10)


def test_clock_map_respects_lapse():
    # doubling the lapse halves the coordinate time to reach the same a
    m2 = MiniSuperspaceModel(potential_u=lambda a: 4.0 * a * a, hbar=1.0,
                             lapse=lambda t: 2.0)
    cm2 = clock_map(m2, a0=1.0, t_span=(0.0, 0.25))
    assert cm2(0.25) == pytest.approx(math.exp(2.0), rel=1e-9)


def test_clock_map_truncation_event():
    # a = a0 exp(4t) reaches a_max at t* = ln(a_max/a0)/4
    for a0 in (1.0, 0.5, 3.0):
        with pytest.warns(UserWarning, match="truncated"):
            cm = clock_map(quad_model(), a0=a0, t_span=(0.0, 2.0), a_max=10.0)
        assert cm.truncated_at == pytest.approx(math.log(10.0 / a0) / 4.0,
                                                rel=1e-12)
        assert cm(cm.truncated_at) == pytest.approx(10.0, rel=1e-12)


def test_clock_map_refuses_turning_points_and_bad_lapses():
    # U = 3 - a vanishes at a = 3, which a(t) = 3 - (sqrt(2) - t)^2 reaches
    # at t = sqrt(2); up to there the map holds, also within 1e-6 of it
    m = MiniSuperspaceModel(potential_u=lambda a: 3.0 - a, hbar=1.0)
    for t_max in (1.0, 1.4142):
        t = np.linspace(0.0, t_max, 33)
        got = clock_map(m, a0=1.0, t_span=(0.0, t_max))(t)
        assert np.max(np.abs(got / (3.0 - (math.sqrt(2.0) - t) ** 2) - 1.0)) < 1e-12
    with pytest.raises(ValueError, match="turning point"):
        clock_map(m, a0=1.0, t_span=(0.0, 2.0))
    with pytest.raises(ValueError, match="U\\(a0\\) <= 0"):
        clock_map(m, a0=3.0, t_span=(0.0, 1.0))
    for lapse in (lambda t: 1.0 - t, lambda t: math.nan):
        bad = MiniSuperspaceModel(potential_u=lambda a: 4.0 * a * a, hbar=1.0,
                                  lapse=lapse)
        with pytest.raises(ValueError, match="lapse"):
            clock_map(bad, a0=1.0, t_span=(0.0, 2.0))


@pytest.mark.parametrize("u", [lambda a: 4.0 * a * a, lambda a: a**4])
def test_clock_map_overflow_raises(u):
    # a = exp(4t) leaves the float range near t = 177; a^4 blows up at t = 1/2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="not finite"):
            clock_map(MiniSuperspaceModel(potential_u=u, hbar=1.0), a0=1.0,
                      t_span=(0.0, 200.0))


def sine_lapse(t):
    return 1.0 + 0.5 * math.sin(7.0 * t)


def power_law_clock(c, p, a0, tau):
    """a(tau) for U = c a^p: G(a) = (a^q - a0^q) / (2 sqrt(c) q), q = 1 - p/2."""
    q = 1.0 - 0.5 * p
    return (a0**q + 2.0 * math.sqrt(c) * q * tau) ** (1.0 / q)


#: float64 roundoff, amplified up to 1/q = 20-fold by the closed form itself
CLOCK_RTOL = 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.9), st.floats(0.5, 8.0), st.floats(0.5, 2.0),
       st.floats(0.05, 1.0), st.booleans())
def test_clock_map_inverts_power_law_primitive(p, c, a0, t_max, sine):
    # da/dt = 2 N sqrt(c a^p) separates into G(a) = tau(t); at the sine
    # lapse tau = t + (1 - cos 7t)/14, at unit lapse tau = t
    kw = {"lapse": sine_lapse} if sine else {}
    m = MiniSuperspaceModel(potential_u=lambda a: c * np.asarray(a) ** p,
                            hbar=1.0, **kw)
    cm = clock_map(m, a0=a0, t_span=(0.0, t_max))
    t = np.linspace(0.0, t_max, 65)
    tau = t + (1.0 - np.cos(7.0 * t)) / 14.0 if sine else t
    want = power_law_clock(c, p, a0, tau)
    assert np.max(np.abs(cm(t) / want - 1.0)) < CLOCK_RTOL


def test_clock_map_approaches_a_double_zero():
    # U = (a - 2)^2 vanishes to second order at a = 2, which
    # a(t) = 2 - exp(-2t) approaches and never reaches.  No sample of U
    # lands on a = 2: only the Kronrod-Gauss estimate sees the pole of
    # 1/(2 sqrt(U)) there
    m = MiniSuperspaceModel(potential_u=lambda a: (np.asarray(a) - 2.0) ** 2,
                            hbar=1.0)
    t = np.linspace(0.0, 3.0, 301)
    got = clock_map(m, a0=1.0, t_span=(0.0, 3.0))(t)
    assert np.max(np.abs(got - (2.0 - np.exp(-2.0 * t)))) < 1e-12
    assert np.all(got < 2.0)
    # by t = 30, 2 - a(t) = 1e-26 is far below the float grid near 2
    with pytest.raises(ValueError, match="turning point"):
        clock_map(m, a0=1.0, t_span=(0.0, 30.0))


@pytest.mark.parametrize("splined", [False, True])
def test_clock_map_finds_a_dip_below_zero_between_samples(splined):
    # U = (a - 2)^2 - 1e-8 is negative only within 1e-4 of a = 2.  a(t)
    # reaches its root 2 - 1e-4 at t = acosh(1e4)/2 = 4.95; before, it is
    # 2 - 1e-4 cosh(acosh(1e4) - 2t).  The not-a-knot spline through knots
    # where U > 0, as `cosmo --potential table:` builds it, is the same
    # quadratic
    eps = 1e-8
    knots = np.array([1.0, 1.5, 2.5, 3.0, 3.5])
    u = (CubicSpline(knots, (knots - 2.0) ** 2 - eps) if splined
         else lambda a: (np.asarray(a) - 2.0) ** 2 - eps)
    m = MiniSuperspaceModel(potential_u=u, hbar=1.0)
    t = np.linspace(0.0, 4.0, 41)
    want = 2.0 - math.sqrt(eps) * np.cosh(math.acosh(1.0 / math.sqrt(eps)) - 2.0 * t)
    assert np.max(np.abs(clock_map(m, a0=1.0, t_span=(0.0, 4.0))(t) - want)) < 1e-12
    with pytest.raises(ValueError, match="turning point"):
        clock_map(m, a0=1.0, t_span=(0.0, 6.0))


def test_clock_map_on_a_splined_table_matches_adaptive_quadrature():
    # a coarse spline of U = 4a^2 + a^3, whose U''' jumps at every knot;
    # the reference G is QUADPACK's adaptive quad, split at the knots, and
    # a G mismatch dG moves a by 2 sqrt(U) dG
    knots = np.linspace(1.0, 4.0, 13)
    spline = CubicSpline(knots, 4.0 * knots**2 + knots**3)

    def g_ref(a):
        inner = knots[(knots > 1.0) & (knots < a)]
        return quad(lambda x: 0.5 / math.sqrt(spline(x)), 1.0, a,
                    points=inner if inner.size else None,
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]

    t_max = 0.999 * g_ref(4.0)
    t = np.linspace(0.0, t_max, 31)
    m = MiniSuperspaceModel(potential_u=spline, hbar=1.0)
    a = clock_map(m, a0=1.0, t_span=(0.0, t_max))(t)
    da = (np.array([g_ref(x) for x in a]) - t) * 2.0 * np.sqrt(spline(a))
    assert np.max(np.abs(da / a)) < 1e-12


@pytest.mark.parametrize("omega", [7.0, 40.0])
def test_clock_map_sine_lapse_over_a_long_span(omega):
    # on [0, 50] the lapse 1 + 0.5 sin(omega t) runs 56 or 318 periods;
    # tau = t + (1 - cos(omega t))/(2 omega), and U = a gives a = (1 + tau)^2
    m = MiniSuperspaceModel(potential_u=lambda a: np.asarray(a, dtype=float),
                            hbar=1.0, lapse=lambda t: 1.0 + 0.5 * math.sin(omega * t))
    t = np.linspace(0.0, 50.0, 2001)
    tau = t + (1.0 - np.cos(omega * t)) / (2.0 * omega)
    got = clock_map(m, a0=1.0, t_span=(0.0, 50.0))(t)
    assert np.max(np.abs(got / (1.0 + tau) ** 2 - 1.0)) < CLOCK_RTOL


def test_clock_map_truncation_under_a_sine_lapse():
    # a = (1 + tau)^2 reaches a_max = 100 at tau = 9, so t* solves
    # t + (1 - cos 7t)/14 = 9
    m = MiniSuperspaceModel(potential_u=lambda a: np.asarray(a, dtype=float),
                            hbar=1.0, lapse=sine_lapse)
    with pytest.warns(UserWarning, match="truncated"):
        cm = clock_map(m, a0=1.0, t_span=(0.0, 50.0), a_max=100.0)
    ts = cm.truncated_at
    assert ts + (1.0 - math.cos(7.0 * ts)) / 14.0 == pytest.approx(9.0, abs=1e-13)
    assert cm(ts) == pytest.approx(100.0, rel=1e-13)


def test_clock_map_steps_over_a_jump_in_the_lapse():
    # N = 1, then 2 from t = 0.31, inside a panel: tau = t, then 2t - 0.31
    m = MiniSuperspaceModel(potential_u=lambda a: 4.0 * np.asarray(a) ** 2,
                            hbar=1.0, lapse=lambda t: 1.0 if t < 0.31 else 2.0)
    t = np.linspace(0.0, 0.6, 61)
    got = clock_map(m, a0=1.0, t_span=(0.0, 0.6))(t)
    tau = np.where(t < 0.31, t, 2.0 * t - 0.31)
    assert np.max(np.abs(got / np.exp(4.0 * tau) - 1.0)) < 1e-12


def test_clock_map_refuses_a_potential_too_rough_to_tabulate():
    # a relative wiggle of 1e-9 at wavelength 6e-9 keeps the Kronrod and
    # Gauss sums apart on every panel, however narrow
    def u(a):
        a = np.asarray(a)
        return 4.0 * a**2 * (1.0 + 1e-9 * np.sin(1e9 * a))

    m = MiniSuperspaceModel(potential_u=u, hbar=1.0)
    with pytest.raises(ValueError, match="too rough"):
        clock_map(m, a0=1.0, t_span=(0.0, 1.0))


def test_constant_potential_linear_growth():
    m = MiniSuperspaceModel(potential_u=lambda a: 9.0 + 0.0 * np.asarray(a),
                            hbar=1.0)
    cm = clock_map(m, a0=2.0, t_span=(0.0, 1.0))
    assert cm(1.0) == pytest.approx(2.0 + 2.0 * 3.0, rel=1e-10)


#: a fixed Hermitian 3 x 3 matrix, for the levels with no closed form
THREE_LEVEL = np.array([[0.4, 0.2 - 0.1j, 0.0],
                        [0.2 + 0.1j, -0.3, 0.5j],
                        [0.0, -0.5j, 0.1]])


def two_level(a, w=1.3):
    return 0.5 * w * np.array([[1.0, 1.0 / a], [1.0 / a, -1.0]], dtype=complex)


def test_matter_norm_preserved():
    m = quad_model(matter_hamiltonian=two_level)
    cm = clock_map(m, a0=1.0, t_span=(0.0, 0.3))
    t = np.linspace(0.0, 0.3, 400)
    traj = evolve_matter(m, cm, np.array([1.0, 0.0], dtype=complex), t)
    assert traj.max_norm_drift < 1e-12
    norms = np.linalg.norm(traj.chis, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1), st.integers(1, 300),
       st.floats(0.01, 0.5), st.floats(0.1, 3.0))
def test_matter_steps_are_unitary(dim, seed, steps, t_max, hbar):
    # a random Hermitian H0 scaled by a(t), over a random increasing grid
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h0 = 0.5 * (g + g.conj().T)
    m = MiniSuperspaceModel(potential_u=lambda a: 4.0 * a * a, hbar=hbar,
                            matter_hamiltonian=lambda a: a * h0)
    cm = clock_map(m, a0=1.0, t_span=(0.0, t_max))
    t = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 1.0, steps))))
    chi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    traj = evolve_matter(m, cm, chi / np.linalg.norm(chi), t * (t_max / t[-1]))
    assert np.max(np.abs(np.linalg.norm(traj.chis, axis=1) - 1.0)) < 1e-12
    assert traj.max_norm_drift < 1e-12
    # the per-row norms the cosmo trajectory writes, as one row's norm sums
    np.testing.assert_array_equal(traj.norms, [np.linalg.norm(c) for c in traj.chis])


def test_matter_lapse_covariance():
    # physical content is invariant: scaling the lapse while compressing
    # the coordinate grid reproduces the same a and chi histories
    chi0 = np.array([1.0, 0.0], dtype=complex)
    m1 = quad_model(matter_hamiltonian=two_level)
    cm1 = clock_map(m1, a0=1.0, t_span=(0.0, 0.3))
    t1 = np.linspace(0.0, 0.3, 301)
    tr1 = evolve_matter(m1, cm1, chi0, t1)
    m2 = MiniSuperspaceModel(potential_u=lambda a: 4.0 * a * a, hbar=1.0,
                             lapse=lambda t: 2.0, matter_hamiltonian=two_level)
    cm2 = clock_map(m2, a0=1.0, t_span=(0.0, 0.15))
    tr2 = evolve_matter(m2, cm2, chi0, t1 / 2.0)
    assert np.max(np.abs(tr2.a_values - tr1.a_values)) < 1e-8
    assert np.max(np.abs(tr2.chis - tr1.chis)) < 1e-8


def test_matter_phase_against_constant_hamiltonian():
    # constant H decouples from the clock: chi(t) = exp(-i H tau(t)) chi0
    # with tau the accumulated lapse time; at unit lapse tau = t
    h = np.array([[0.7, 0.0], [0.0, -0.7]], dtype=complex)
    m = quad_model(matter_hamiltonian=lambda a: h)
    cm = clock_map(m, a0=1.0, t_span=(0.0, 0.4))
    t = np.linspace(0.0, 0.4, 200)
    chi0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    traj = evolve_matter(m, cm, chi0, t)
    expected = np.exp(-1j * 0.7 * t[-1]) * chi0[0], np.exp(1j * 0.7 * t[-1]) * chi0[1]
    assert traj.chis[-1][0] == pytest.approx(expected[0], abs=1e-10)
    assert traj.chis[-1][1] == pytest.approx(expected[1], abs=1e-10)


def test_wdw_residual_slope_two():
    rep = wdw_residual(*QUAD, (1.0, 4.0), [0.1, 0.05, 0.025])
    assert abs(rep.slope - 2.0) < 0.2
    # each halving of hbar divides the relative residual by four
    assert rep.residuals[0] / rep.residuals[1] == pytest.approx(4.0, rel=0.02)


def test_wdw_residual_matches_amplitude_curvature():
    # for U = 4a^2 the defect is the second derivative of a^(-1/2) alone;
    # weighted-RMS closed form evaluated on the same points (measured within
    # 2.2e-16)
    rep = wdw_residual(*QUAD, (1.0, 4.0), [0.1, 0.05])
    hb = rep.hbars[0]
    a = np.linspace(1.0, 4.0, 4097)
    w = (4.0 * a * a) * a**-0.5
    rel = hb**2 * (0.75 / a**2) / (4.0 * a * a)
    expected = np.sqrt(np.mean((rel * w) ** 2) / np.mean(w**2))
    assert rep.residuals[0] == pytest.approx(expected, rel=1e-13)


def finite_difference_residual(model, a_lo, a_hi, hbar, n):
    """Reference: apply the constraint operator to Psi = A e^{iS/hbar} by
    finite differences on n cells, Richardson-extrapolated pointwise.

    The grid has to resolve the phase: the second difference's O(h^2)
    truncation error can dwarf the O(hbar^2) defect unless n is large.
    """
    grid = np.linspace(a_lo, a_hi, n + 1)
    u = model.potential_u(grid)
    nodes, wts = np.polynomial.legendre.leggauss(5)
    h = grid[1] - grid[0]
    x = grid[:-1, None] + 0.5 * h * (nodes[None, :] + 1.0)
    s = np.concatenate(([0.0], np.cumsum(0.5 * h * (np.sqrt(model.potential_u(x)) @ wts))))
    ds = np.sqrt(u)
    psi = np.sqrt(ds[0] / ds) * np.exp(1j * s / hbar)

    def residual_vec(stride):
        p = psi[::stride]
        lap = (p[2:] - 2.0 * p[1:-1] + p[:-2]) / (stride * h) ** 2
        return -hbar**2 * lap - u[stride:-stride:stride] * p[1:-1]

    # fine and double-step residuals share the even grid points
    res = (4.0 * residual_vec(1)[1::2] - residual_vec(2)) / 3.0
    scale = np.sqrt(np.mean(np.abs(u[2:-2:2] * psi[2:-2:2]) ** 2))
    return float(np.sqrt(np.mean(np.abs(res) ** 2)) / scale)


@pytest.mark.parametrize("a_span", [(1.0, math.exp(1.2)), (1.0, 4.0), (0.5, 2.0)])
def test_wdw_residual_matches_finite_difference_reference(a_span):
    hbars = [0.1, 0.05, 0.025]
    rep = wdw_residual(*QUAD, a_span, hbars)
    ref = [finite_difference_residual(quad_model(), *a_span, hb, 65536)
           for hb in rep.hbars]
    assert rep.residuals == pytest.approx(ref, rel=1e-3)


def test_wdw_residual_on_a_short_span():
    # exact U' and U'' have no roundoff to swamp A''/A = 0.75 / a^2, however
    # short the span: second differences refused [1, 1.0001] and [1, 1 + 4e-9].
    # With A ~ a^(-1/2) the residual is hbar^2 ||0.75 a^(-5/2)|| / ||4 a^(3/2)||
    for a_hi in (1.001, 1.0001, 1.0 + 4e-9):
        rep = wdw_residual(*QUAD, (1.0, a_hi), [0.1, 0.05])
        a = np.linspace(1.0, a_hi, minisuperspace.RESIDUAL_POINTS)
        ratio = np.linalg.norm(0.75 * a**-2.5) / np.linalg.norm(4.0 * a**1.5)
        assert rep.residuals == pytest.approx(rep.hbars**2 * ratio, rel=1e-12)


#: Fornberg's 6th-order central weights for d^2/da^2 (Math. Comp. 51,
#: 699 (1988)), in units of 1/h^2
FORNBERG_D2 = np.array([1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90])
SPLINE_KNOTS = np.linspace(0.9, 4.1, 17)


@pytest.mark.parametrize("potential", [
    QUAD,
    (lambda a: 1.0 + np.sin(3.0 * a) ** 2, lambda a: 3.0 * np.sin(6.0 * a),
     lambda a: 18.0 * np.cos(6.0 * a)),
    _spline(SPLINE_KNOTS, 2.0 + SPLINE_KNOTS + np.sin(2.0 * SPLINE_KNOTS)),
], ids=["4a^2", "1+sin^2(3a)", "table"])
def test_assembled_branch_defect_scales_as_hbar_squared(potential):
    # Psi = A e^{iS/hbar} from the library's own phase and amplitude; the
    # constraint operator is applied by finite differences on a grid six
    # times finer than wdw_residual's, whose points it then reads, so both
    # norms run over the same points.  hbar 0.0125 turns the phase by at
    # most 0.078 per cell.  Measured: slopes within 4.0e-6 of 2 and values
    # within 9.3e-6 of wdw_residual; S scaled by 1 + 1e-8 sin a moves the
    # table's values by 1.9e-3
    u, du, d2u = potential
    refine = 6
    cells = (minisuperspace.RESIDUAL_POINTS - 1) * refine
    h = 3.0 / cells
    a = np.linspace(1.0 - 3.0 * h, 4.0 + 3.0 * h, cells + 7)
    s = hamilton_jacobi_phase(MiniSuperspaceModel(potential_u=u, hbar=1.0), a)
    amp = amplitude_transport(a, s)
    hbars = np.array([0.1, 0.05, 0.025, 0.0125])
    got = []
    for hbar in hbars:
        psi = amp * np.exp(1j * s / hbar)
        lap = sum(w * psi[k:k + cells + 1] for k, w in enumerate(FORNBERG_D2)) / h**2
        u_psi = (u(a) * psi)[3:-3]
        defect = (-hbar**2 * lap - u_psi)[::refine]
        got.append(np.linalg.norm(defect) / np.linalg.norm(u_psi[::refine]))
    slope = np.polyfit(np.log(hbars), np.log(got), 1)[0]
    assert abs(slope - 2.0) < 1e-4
    rep = wdw_residual(u, du, d2u, (1.0, 4.0), hbars)
    assert got == pytest.approx(rep.residuals, rel=5e-5)


def test_wdw_residual_rejects_turning_point():
    with pytest.raises(ValueError, match="<= 0"):
        wdw_residual(lambda a: a - 2.0, np.ones_like, np.zeros_like,
                     (2.0, 3.0), [0.1, 0.05])


@pytest.mark.parametrize("hbars", [[1e-200, 1e-210], [0.1, 1.49e-154], [0.1, 1e155]],
                         ids=["underflow", "subnormal", "overflow"])
def test_wdw_residual_refuses_hbar_whose_square_is_not_normal(hbars):
    with pytest.raises(ValueError, match="not a normal float"):
        wdw_residual(*QUAD, (1.0, 4.0), hbars)


def test_wdw_residual_plane_wave_exact():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = wdw_residual(np.ones_like, np.zeros_like, np.zeros_like,
                           (1.0, 4.0), [0.1, 0.05])
    assert np.all(rep.residuals == 0.0)
    assert math.isnan(rep.slope)


def eigh_steps_minus_identity(h, tau):
    """exp(-1j * tau_k * H_k) - I per step from eigh, as the evolution of
    more than two levels builds it."""
    vals, vecs = np.linalg.eigh(h)
    u = np.matmul(vecs * np.exp(-1j * tau[:, None] * vals)[:, None, :],
                  vecs.conj().swapaxes(1, 2))
    return u - np.eye(h.shape[1])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["general", "scalar", "split"]),
       st.floats(-3.0, 200.0), st.floats(-300.0, 0.0), st.floats(-6.0, 3.0),
       st.booleans())
def test_two_level_steps_match_eigh(seed, kind, scale_exp, mix_exp, tau_exp,
                                    per_scale):
    # U_k - I in closed form against eigh's exp(-i tau H) - I on random
    # Hermitian stacks: a general H, H proportional to I (r = 0), and
    # |h01| down to 1e-300 |bz|, with entries up to 1e200 and tau up to 1e3
    # (or up to 1e3 over the entries' scale).  Each side is off by about
    # eps (1 + tau |H|), the rounding of the phases tau E
    rng = np.random.default_rng(seed)
    steps = 16
    scale = 10.0 ** scale_exp
    h = np.zeros((steps, 2, 2), dtype=complex)
    h[:, 0, 0], h[:, 1, 1] = scale * rng.normal(size=(2, steps))
    if kind == "scalar":
        h[:, 1, 1] = h[:, 0, 0]
    else:
        mix = scale * (10.0 ** mix_exp if kind == "split" else 1.0)
        h[:, 1, 0] = mix * (rng.normal(size=steps) + 1j * rng.normal(size=steps))
        h[:, 0, 1] = h[:, 1, 0].conj()
    tau = 10.0 ** rng.uniform(tau_exp - 1.0, tau_exp, steps)
    if per_scale:
        tau /= scale
    want = eigh_steps_minus_identity(h, tau)
    with np.errstate(all="raise"):
        got = minisuperspace._two_level_steps(h, tau)
    assert got.shape == (2, 2, steps)
    got = got[..., ::-1].transpose(2, 0, 1)
    norm_h = np.max(np.abs(np.linalg.eigvalsh(h)), axis=1)
    bound = 16 * np.finfo(float).eps * (1.0 + tau * norm_h)
    assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= bound)
    # unitary to roundoff whatever the phases: |U - I| <= 2
    assert np.all(np.abs(got) <= 2.0 + bound[:, None, None])


def test_matter_hermiticity_checked():
    bad = lambda a: np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    m = quad_model(matter_hamiltonian=bad)
    with pytest.raises(ValueError, match="Hermitian"):
        evolve_matter(m, clock_map(m, 1.0, (0.0, 0.1)),
                      np.array([1.0, 0.0], dtype=complex), np.linspace(0.0, 0.1, 5))


def test_matter_matches_per_step_reference():
    # non-uniform grid and a time-dependent lapse: every step has its own
    # midpoint, width and weight N(t_mid) * dt
    lapse = lambda t: 1.0 + 0.5 * math.sin(7.0 * t)
    m = MiniSuperspaceModel(potential_u=lambda a: 4.0 * a * a, hbar=0.3,
                            lapse=lapse, matter_hamiltonian=two_level)
    cm = clock_map(m, a0=1.0, t_span=(0.0, 0.3))
    t = 0.3 * np.linspace(0.0, 1.0, 241) ** 1.5
    chi = np.array([0.6, 0.8j], dtype=complex)
    traj = evolve_matter(m, cm, chi, t)
    ref = [chi]
    for k in range(t.size - 1):
        tm = 0.5 * (t[k] + t[k + 1])
        vals, vecs = np.linalg.eigh(two_level(cm(tm)))
        w = lapse(tm) * (t[k + 1] - t[k])
        u = (vecs * np.exp(-1j * w * vals / m.hbar)) @ vecs.conj().T
        ref.append(u @ ref[-1])
    assert np.max(np.abs(traj.chis - np.array(ref))) < 1e-14
    assert traj.max_norm_drift < 1e-14


#: grid points of the cosmo_matter benchmark workload: 20 000 steps
WORKLOAD_POINTS = 20001


def random_hermitian(dim, seed):
    re, im = np.random.default_rng(seed).normal(size=(2, dim, dim))
    g = re + 1j * im
    return 0.5 * (g + g.conj().T)


@pytest.mark.parametrize("h, bound", [
    (np.diag([0.7, -0.7]).astype(complex), 1e-12),
    # a constant H repeats each propagator's roundoff at every step.  The
    # closed form's U - I is 3.4e-16 off exp(-iHt) chi0 here after the
    # 20 000 steps, with a norm drift of 1.1e-16; propagators from eigh,
    # whose eigenvectors are orthonormal only to roundoff, were 1.3e-12
    # off, with a drift of 1.0e-12
    (np.array([[0.7, 0.3 - 0.2j], [0.3 + 0.2j, -0.5]]), 1e-14),
    # beyond two levels, eigh's U_k - I as V (e^{-i theta} - 1) V^H:
    # 8.1e-16 (d = 3) and 7.0e-16 (d = 5) off, with a drift of 2.2e-16;
    # forming V e^{-i theta} V^H and then subtracting I was 1.3e-11 and
    # 7.6e-12 off, with drifts of 1.3e-11 and 1.4e-12
    (random_hermitian(3, 3), 1e-14),
    (random_hermitian(5, 3), 1e-14),
])
def test_matter_constant_hamiltonian_at_workload_size(h, bound):
    # chi(t) = exp(-i H t) chi0 at every one of the 20 001 grid points
    m = quad_model(matter_hamiltonian=lambda a: h)
    cm = clock_map(m, a0=1.0, t_span=(0.0, 0.4))
    t = np.linspace(0.0, 0.4, WORKLOAD_POINTS)
    chi0 = np.ones(len(h), dtype=complex) / math.sqrt(len(h))
    traj = evolve_matter(m, cm, chi0, t)
    vals, vecs = np.linalg.eigh(h)
    exact = (np.exp(-1j * np.outer(t, vals)) * (vecs.conj().T @ chi0)) @ vecs.T
    assert np.max(np.abs(traj.chis - exact)) < bound
    assert traj.max_norm_drift < 1e-14


@pytest.mark.parametrize("hbar, w, lapse", [
    (0.1, 5.0, _unit_lapse),          # the cosmo_matter workload
    (1.0, 1.3, _unit_lapse),
    (0.3, 1.3, lambda t: 1.0 + 0.5 * np.sin(7.0 * t)),
])
def test_matter_scan_matches_sequential_product(hbar, w, lapse):
    # the suffix scan against chi <- U_k chi, one step at a time.  Near
    # the identity a scan of the U_k themselves rounds neighbouring,
    # nearly equal products alike, and was 4e-13 off at hbar 1; the scan
    # of U_k - I is within 1.2e-14 in all three cases
    m = MiniSuperspaceModel(potential_u=lambda a: 4.0 * a * a, hbar=hbar,
                            lapse=lapse, matter_hamiltonian=_parse_matter(f"twolevel:{w}"))
    cm = clock_map(m, a0=1.0, t_span=(0.0, 0.3))
    t = np.linspace(0.0, 0.3, WORKLOAD_POINTS)
    chi = np.array([1.0, 0.0], dtype=complex)
    traj = evolve_matter(m, cm, chi, t)
    t_mid = 0.5 * (t[:-1] + t[1:])
    weights = (lapse(t_mid) * np.diff(t)).tolist()
    ref = [chi]
    for a, weight in zip(cm(t_mid).tolist(), weights):
        vals, vecs = np.linalg.eigh(two_level(a, w))
        u = (vecs * np.exp(-1j * weight * vals / hbar)) @ vecs.conj().T
        ref.append(u @ ref[-1])
    assert np.max(np.abs(traj.chis - np.array(ref))) < 1e-13


def test_matter_rejects_hamiltonian_turning_non_hermitian():
    def h(a):
        out = two_level(a)
        if a > 1.5:
            out[0, 1] += 1e-6
        return out

    m = quad_model(matter_hamiltonian=h)
    cm = clock_map(m, a0=1.0, t_span=(0.0, 0.3))
    with pytest.raises(ValueError, match="Hermitian"):
        evolve_matter(m, cm, np.array([1.0, 0.0], dtype=complex),
                      np.linspace(0.0, 0.3, 301))


def test_matter_norm_drift_names_first_bad_step(monkeypatch):
    # two-level propagators that stretch chi by 1e-9 at steps 7 and 12: the
    # error names the first of them
    closed_form = minisuperspace._two_level_steps

    def leaky_steps(h, tau):
        chain = closed_form(h, tau)
        steps = chain.shape[-1]
        for k in (7, 12):
            u = chain[..., steps - 1 - k] + np.eye(2)
            chain[..., steps - 1 - k] = (1.0 + 1e-9) * u - np.eye(2)
        return chain

    m = quad_model(matter_hamiltonian=two_level)
    cm = clock_map(m, a0=1.0, t_span=(0.0, 0.3))
    monkeypatch.setattr(minisuperspace, "_two_level_steps", leaky_steps)
    with pytest.raises(RuntimeError, match="at step 7:"):
        evolve_matter(m, cm, np.array([1.0, 0.0], dtype=complex),
                      np.linspace(0.0, 0.3, 31))


def test_matter_norm_drift_names_first_bad_step_beyond_two_levels(monkeypatch):
    # eigenvectors stretched by 1e-6 at steps 7 and 12 of a three-level
    # evolution, which has no closed form and goes through eigh; U - I is
    # formed as V (e^{-i theta} - 1) V^H, so the stretch moves chi only by
    # its product with |e^{-i theta} - 1|, about 1e-3 here
    eigh = np.linalg.eigh

    def leaky_eigh(h):
        vals, vecs = eigh(h)
        vecs[[7, 12]] *= 1.0 + 1e-6
        return vals, vecs

    m = quad_model(matter_hamiltonian=lambda a: a * THREE_LEVEL)
    cm = clock_map(m, a0=1.0, t_span=(0.0, 0.3))
    monkeypatch.setattr(np.linalg, "eigh", leaky_eigh)
    with pytest.raises(RuntimeError, match="at step 7:"):
        evolve_matter(m, cm, np.array([1.0, 0.0, 0.0], dtype=complex),
                      np.linspace(0.0, 0.3, 31))


def test_matter_nan_propagator_fails_the_norm_check():
    # hbar 1e-310 takes weight * E / hbar past the float range, and the
    # eigh path's phases exp(-1j * inf) are nan from step 0 on
    m = MiniSuperspaceModel(potential_u=lambda a: 4.0 * a * a, hbar=1e-310,
                            matter_hamiltonian=lambda a: 10.0 * a * THREE_LEVEL)
    cm = clock_map(m, a0=1.0, t_span=(0.0, 0.3))
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(RuntimeError, match="norm drift nan at step 0:"):
            evolve_matter(m, cm, np.array([1.0, 0.0, 0.0], dtype=complex),
                          np.linspace(0.0, 0.3, 31))


def test_matter_nan_two_level_step_fails_the_norm_check(monkeypatch):
    # a closed-form propagator that is nan at step 5 only
    closed_form = minisuperspace._two_level_steps

    def nan_steps(h, tau):
        chain = closed_form(h, tau)
        chain[..., chain.shape[-1] - 1 - 5] = np.nan
        return chain

    m = quad_model(matter_hamiltonian=two_level)
    cm = clock_map(m, a0=1.0, t_span=(0.0, 0.3))
    monkeypatch.setattr(minisuperspace, "_two_level_steps", nan_steps)
    with pytest.raises(RuntimeError, match="norm drift nan at step 5:"):
        evolve_matter(m, cm, np.array([1.0, 0.0], dtype=complex),
                      np.linspace(0.0, 0.3, 31))


@pytest.mark.parametrize("chi0", [[math.nan, 0.0], [1.0, math.inf],
                                  [1.0, 0.0, complex(0.0, math.nan)],
                                  [-math.inf, 1.0, 0.0]],
                         ids=["nan-d2", "inf-d2", "nan-d3", "inf-d3"])
def test_matter_refuses_non_finite_chi0(chi0):
    # bad input is refused before the clock is evaluated, not blamed on
    # the propagator by the norm check
    def clock(t):
        raise AssertionError("clock evaluated")

    hamiltonian = two_level if len(chi0) == 2 else (lambda a: a * THREE_LEVEL)
    m = quad_model(matter_hamiltonian=hamiltonian)
    with pytest.raises(ValueError, match="chi0 must be finite"):
        evolve_matter(m, clock, np.array(chi0, dtype=complex), np.linspace(0.0, 0.3, 11))


def test_matter_leaves_the_hamiltonian_stack_alone():
    # a vectorised H_q may hand back an array it keeps; evolve_matter must
    # not write its propagators into it
    rng = np.random.default_rng(5)
    g = rng.normal(size=(30, 2, 2)) + 1j * rng.normal(size=(30, 2, 2))
    stack = 0.5 * (g + g.conj().swapaxes(1, 2))
    kept = stack.copy()
    m = quad_model(matter_hamiltonian=lambda a: stack)
    cm = clock_map(m, a0=1.0, t_span=(0.0, 0.3))
    evolve_matter(m, cm, np.array([1.0, 0.0], dtype=complex),
                  np.linspace(0.0, 0.3, 31))
    assert np.array_equal(stack, kept)


def test_matter_rejects_hamiltonian_of_wrong_size():
    m = quad_model(matter_hamiltonian=lambda a: np.eye(3, dtype=complex))
    cm = clock_map(m, a0=1.0, t_span=(0.0, 0.3))
    with pytest.raises(ValueError, match="square matrix"):
        evolve_matter(m, cm, np.array([1.0, 0.0], dtype=complex),
                      np.linspace(0.0, 0.3, 11))
