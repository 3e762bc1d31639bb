"""Inverted-parabola barrier: exponent, wavefunctions, current ratio."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from semiq import (
    BarrierProblem,
    activation_rate,
    barrier_exponent,
    barrier_exponent_closed,
    current_ratio,
    momenta,
    solve_barrier,
    turning_points,
    wkb_wavefunction,
)
from semiq.wkb import TURNING_POINT_EXCLUSION, _allowed_action, _forbidden_action

# frozen oracle at hbar = mu = j0 = h0 = 1:
# Lambda = (pi h0 / 2 hbar) sqrt(2 mu / j0) = pi / sqrt(2)
LAMBDA_UNIT = math.pi / math.sqrt(2.0)
T_UNIT = math.exp(-2.0 * LAMBDA_UNIT)          # 1.176198e-2

GRID = list(itertools.product([0.5, 1.0, 2.0], repeat=3))


def test_unit_exponent_value():
    bp = BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=1.0)
    assert barrier_exponent_closed(bp) == pytest.approx(LAMBDA_UNIT, rel=1e-15)
    assert activation_rate(bp) == pytest.approx(T_UNIT, rel=1e-14)
    assert activation_rate(bp) == pytest.approx(1.1761980531389124e-2, rel=1e-12)


@pytest.mark.parametrize("hbar,mu,j0", GRID)
def test_closed_form_matches_quadrature(hbar, mu, j0):
    bp = BarrierProblem(hbar=hbar, mu=mu, j0=j0, h0=1.0)
    lc = barrier_exponent_closed(bp)
    lq = barrier_exponent(bp)
    assert abs(lq - lc) / abs(lc) < 1e-10


def test_exponent_scalings():
    base = BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=1.0)
    l0 = barrier_exponent_closed(base)
    # linear in h0, inverse in hbar, sqrt in mu, inverse sqrt in j0
    assert barrier_exponent_closed(
        BarrierProblem(1.0, 1.0, 1.0, 3.0)) == pytest.approx(3 * l0)
    assert barrier_exponent_closed(
        BarrierProblem(2.0, 1.0, 1.0, 1.0)) == pytest.approx(l0 / 2)
    assert barrier_exponent_closed(
        BarrierProblem(1.0, 4.0, 1.0, 1.0)) == pytest.approx(2 * l0)
    assert barrier_exponent_closed(
        BarrierProblem(1.0, 1.0, 4.0, 1.0)) == pytest.approx(l0 / 2)


def test_turning_points_and_momenta():
    bp = BarrierProblem(hbar=1.0, mu=1.0, j0=4.0, h0=1.0)
    a, b = turning_points(bp)
    assert (a, b) == (-0.5, 0.5)
    outside = momenta(bp, 2.0)
    assert outside.rho is None
    assert outside.p == pytest.approx(math.sqrt(2 * (4 * 4.0 - 1.0)))
    inside = momenta(bp, 0.0)
    assert inside.p is None
    assert inside.rho == pytest.approx(math.sqrt(2.0))
    at_tp = momenta(bp, 0.5)
    assert (at_tp.p, at_tp.rho) == (0.0, 0.0)


def test_wavefunction_regions_and_exclusion_zone():
    sol = solve_barrier(BarrierProblem(1.0, 1.0, 1.0, 1.0))
    psi_in = wkb_wavefunction(sol, "incoming", -3.0)
    psi_out = wkb_wavefunction(sol, "outgoing", 3.0)
    psi_mid = wkb_wavefunction(sol, "under_barrier", 0.0)
    assert all(isinstance(v, complex) for v in (psi_in, psi_out, psi_mid))
    with pytest.raises(ValueError):
        wkb_wavefunction(sol, "incoming", 0.0)       # wrong region
    with pytest.raises(ValueError):
        wkb_wavefunction(sol, "outgoing", 1.0 + 1e-9)  # inside exclusion zone
    with pytest.raises(ValueError):
        wkb_wavefunction(sol, "everywhere", 2.0)


def test_under_barrier_growth_toward_incoming_side():
    # the under-barrier branch carries exp(+Lambda) weight on the incoming
    # side, so |psi(-0.5)| > |psi(+0.5)| at mirror points
    sol = solve_barrier(BarrierProblem(1.0, 1.0, 1.0, 1.0))
    left = abs(wkb_wavefunction(sol, "under_barrier", -0.5))
    right = abs(wkb_wavefunction(sol, "under_barrier", 0.5))
    assert left > right * 2.0


def test_outgoing_amplitude_sets_scale():
    bp = BarrierProblem(1.0, 1.0, 1.0, 1.0)
    s1 = solve_barrier(bp, c=1.0 + 0j)
    s2 = solve_barrier(bp, c=2.0 + 0j)
    r = (wkb_wavefunction(s2, "outgoing", 3.0)
         / wkb_wavefunction(s1, "outgoing", 3.0))
    assert r == pytest.approx(2.0)
    with pytest.raises(ValueError):
        solve_barrier(bp, c=0.0 + 0j)


# hbar = 0.01: the wavelength hbar/p is 1/200 of the barrier width, and the
# finite-difference step has to follow it
@pytest.mark.parametrize("hbar,mu,j0", GRID[::3] + [(0.01, 1.0, 1.0)])
def test_current_ratio_equals_activation_rate(hbar, mu, j0):
    bp = BarrierProblem(hbar=hbar, mu=mu, j0=j0, h0=1.0)
    sol = solve_barrier(bp)
    ratio = current_ratio(sol)
    expected = activation_rate(bp)
    assert abs(ratio - expected) / expected < 1e-4


def test_validation():
    with pytest.raises(ValueError):
        BarrierProblem(hbar=0.0, mu=1.0, j0=1.0, h0=1.0)
    with pytest.raises(ValueError):
        BarrierProblem(hbar=1.0, mu=-1.0, j0=1.0, h0=1.0)
    with pytest.raises(ValueError):
        BarrierProblem(hbar=1.0, mu=1.0, j0=0.0, h0=1.0)
    with pytest.raises(ValueError):
        BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=-0.1)


def test_interaction_energy_profile():
    bp = BarrierProblem(hbar=1.0, mu=2.0, j0=3.0, h0=1.5)
    phi = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(bp.interaction_energy(phi),
                               -3.0 * phi**2 + 1.5)


def test_flat_top_barrier_h0_zero():
    # b = 0: no barrier, no forbidden region, full transmission
    sol = solve_barrier(BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=0.0))
    for region, phi in (("incoming", -0.5), ("outgoing", 0.5)):
        psi = wkb_wavefunction(sol, region, phi)
        assert cmath.isfinite(psi) and psi != 0
    assert current_ratio(sol) == 1.0


# --------------------------------------------------------------------------
# closed-form actions against the quadrature they replaced


def quad_action(bp, region, phi):
    """integral_phi^a p, integral_phi^b rho or integral_b^phi p by quadrature."""
    a, b = turning_points(bp)

    def p(x):
        return math.sqrt(max(-2.0 * bp.mu * bp.interaction_energy(x), 0.0))

    def rho(x):
        return math.sqrt(max(2.0 * bp.mu * bp.interaction_energy(x), 0.0))

    f, lo, hi = {"incoming": (p, phi, a), "under_barrier": (rho, phi, b),
                 "outgoing": (p, b, phi)}[region]
    val, _ = quad(f, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)
    return val


def closed_action(bp, region, phi):
    if region == "incoming":
        return _allowed_action(bp, -phi)[0]
    if region == "under_barrier":
        return _forbidden_action(bp, phi)[0]
    return _allowed_action(bp, phi)[0]


#: just outside the exclusion zone, in units of the half-width b
EDGE = 2.0 * TURNING_POINT_EXCLUSION * 1.01


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hbar=st.floats(0.02, 2.0), mu=st.floats(0.1, 10.0),
       j0=st.floats(0.1, 10.0), h0=st.floats(0.05, 5.0),
       region=st.sampled_from(["incoming", "under_barrier", "outgoing"]),
       u=st.floats(0.0, 1.0))
def test_closed_form_actions_match_quadrature(hbar, mu, j0, h0, region, u):
    bp = BarrierProblem(hbar=hbar, mu=mu, j0=j0, h0=h0)
    _, b = turning_points(bp)
    if region == "under_barrier":
        phi = b * (1.0 - EDGE) * (2.0 * u - 1.0)
    else:
        phi = b * (1.0 + EDGE + 4.0 * u)
        phi = -phi if region == "incoming" else phi
    want = quad_action(bp, region, phi)
    assert closed_action(bp, region, phi) == pytest.approx(want, rel=1e-11,
                                                           abs=0.0)
