"""Inverted-parabola barrier: exponent, wavefunctions, current ratio."""

import ast
import cmath
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from semiq import (
    BarrierProblem,
    activation_rate,
    barrier_exponent,
    barrier_exponent_closed,
    current_ratio,
    solve_barrier,
    turning_points,
    wkb_wavefunction,
)
from semiq import wkb
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
    # the local momenta p outside and rho inside, sqrt(-+2*mu*H_int), come
    # with the actions; k = sqrt(2*mu*j0)
    k = math.sqrt(2.0 * 1.0 * 4.0)
    assert _allowed_action(2.0, b, k)[1] == pytest.approx(math.sqrt(2 * (4 * 4.0 - 1.0)))
    assert _forbidden_action(0.0, b, k)[1] == pytest.approx(math.sqrt(2.0))
    assert _allowed_action(b, b, k)[1] == 0.0
    assert _forbidden_action(b, b, k)[1] == 0.0


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


# hbar = 0.01: the wavelength hbar/p is 1/200 of the barrier width, and the
# finite-difference step has to follow it
@pytest.mark.parametrize("hbar,mu,j0", GRID[::3] + [(0.01, 1.0, 1.0)])
def test_current_ratio_equals_activation_rate(hbar, mu, j0):
    bp = BarrierProblem(hbar=hbar, mu=mu, j0=j0, h0=1.0)
    sol = solve_barrier(bp)
    ratio = current_ratio(sol)
    expected = activation_rate(bp)
    assert abs(ratio - expected) / expected < 1e-4


def test_current_ratio_at_long_wavelength():
    # the wavelength hbar/p is about 6 barrier widths; a step tied to the
    # barrier width lets phase rounding through at the 5e-12 level
    bp = BarrierProblem(hbar=2.0, mu=0.5, j0=1.0, h0=0.1)
    sol = solve_barrier(bp)
    assert current_ratio(sol) == pytest.approx(
        math.exp(-2.0 * barrier_exponent(bp)), rel=1e-12, abs=0.0)


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
    _, b = turning_points(bp)
    k = math.sqrt(2.0 * bp.mu * bp.j0)
    if region == "incoming":
        return float(_allowed_action(-phi, b, k)[0])
    if region == "under_barrier":
        return float(_forbidden_action(phi, b, k)[0])
    return float(_allowed_action(phi, b, k)[0])


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


# --------------------------------------------------------------------------
# many-point problems against scipy's QUADPACK and against one-point calls

#: barriers with Lambda < 180, whose exp(2*Lambda) stays in the float
#: range, flat tops, and barriers down to h0 = 1e-6, far narrower than a
#: wavelength, where the current step is capped at 1 % of the barrier width
POINTS = st.lists(st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 4.0),
                            st.floats(0.25, 10.0),
                            st.just(0.0) | st.floats(1e-6, 2.0)),
                  min_size=1, max_size=12)
J0 = st.floats(0.1, 10.0)


def quad_exponent(bp):
    """Lambda by scipy.integrate.quad of the angle-variable integrand that
    barrier_exponent handed to it before the fixed rule, and quad's count
    of integrand evaluations."""
    _, b = turning_points(bp)

    def integrand(theta):
        phi = b * math.sin(theta)
        h = bp.interaction_energy(phi)
        return math.sqrt(max(2.0 * bp.mu * h, 0.0)) * b * math.cos(theta)

    val, _, info = quad(integrand, -math.pi / 2.0, math.pi / 2.0,
                        epsabs=1e-14, epsrel=1e-12, full_output=1)
    return val / bp.hbar, info["neval"]


def many(points):
    """One BarrierProblem holding every point."""
    return BarrierProblem(*np.array(points, dtype=float).T)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(points=POINTS)
def test_quadrature_kernel_matches_quadpack(points):
    # QUADPACK stops after its first 21-point Gauss-Kronrod pass on this
    # integrand, so the fixed rule is the same sum
    lam = barrier_exponent(many(points))
    for got, point in zip(lam.tolist(), points):
        want, neval = quad_exponent(BarrierProblem(*point))
        assert neval == 21
        assert abs(got - want) <= 2.0 * math.ulp(want), (got, want)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(points=POINTS, u=st.floats(0.0, 1.0))
def test_many_point_values_equal_one_point_calls(points, u):
    bars = many(points)
    sols = solve_barrier(bars)
    lam_c = barrier_exponent_closed(bars)
    lam_q = barrier_exponent(bars)
    rate = activation_rate(bars)
    ratio = current_ratio(sols)
    _, b = turning_points(bars)
    # outside the barrier and clear of the exclusion zone, b = 0 included
    phi_out = b * (1.0 + 2.0 * TURNING_POINT_EXCLUSION) + 0.01 + 2.0 * u
    psi_in = wkb_wavefunction(sols, "incoming", -phi_out)
    psi_out = wkb_wavefunction(sols, "outgoing", phi_out)
    barrier = b > 0.0
    phi_mid = b[barrier] * (1.0 - 4.0 * TURNING_POINT_EXCLUSION) * (2.0 * u - 1.0)
    psi_mid = wkb_wavefunction(solve_barrier(many(np.array(points)[barrier])),
                               "under_barrier", phi_mid)
    mid = iter(zip(psi_mid.tolist(), phi_mid.tolist()))
    for i, point in enumerate(points):
        bp = BarrierProblem(*point)
        sol = solve_barrier(bp)
        assert lam_c[i] == barrier_exponent_closed(bp)
        assert lam_q[i] == sols.barrier_exponent[i] == barrier_exponent(bp)
        assert lam_q[i] == sol.barrier_exponent
        assert rate[i] == activation_rate(bp)
        assert sols.transmission[i] == sol.transmission
        assert ratio[i] == current_ratio(sol)
        assert psi_in[i] == wkb_wavefunction(sol, "incoming", -phi_out[i])
        assert psi_out[i] == wkb_wavefunction(sol, "outgoing", phi_out[i])
        if barrier[i]:
            psi, phi = next(mid)
            assert psi == wkb_wavefunction(sol, "under_barrier", phi)
    one = BarrierProblem(*points[0])
    sol = solve_barrier(one)
    for value in (barrier_exponent_closed(one), barrier_exponent(one),
                  activation_rate(one), sol.barrier_exponent,
                  sol.transmission, current_ratio(sol)):
        assert type(value) is float
    for value in (lam_c, lam_q, rate, sols.transmission, ratio, psi_in):
        assert isinstance(value, np.ndarray) and value.shape == (len(points),)


def test_flat_top_exponents_are_zero_without_warnings():
    bars = BarrierProblem(hbar=[0.05, 1.0, 2.0], mu=[0.5, 1.0, 3.0],
                          j0=[0.1, 1.0, 10.0], h0=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = barrier_exponent(bars)
        assert lam.tolist() == [0.0, 0.0, 0.0]
        assert barrier_exponent_closed(bars).tolist() == [0.0, 0.0, 0.0]
        np.testing.assert_allclose(current_ratio(solve_barrier(bars)), 1.0,
                                   rtol=1e-12)


def test_failing_current_names_its_point(monkeypatch):
    # a step of 0.026 wavelengths takes a current about 1e-4 off: just
    # inside the bound at hbar 2, just outside at hbar 0.05 and 0.3
    monkeypatch.setattr(wkb, "CURRENT_REL_STEP", 0.026)
    bars = BarrierProblem(hbar=[2.0, 0.05, 0.3], mu=1.0, j0=1.0, h0=1.0)
    with pytest.raises(RuntimeError, match=r"current off by .* at point 1 "
                                           r"\(hbar=0\.05, mu=1\.0, j0=1\.0, h0=1\.0\)$"):
        current_ratio(solve_barrier(bars))


def test_columns_are_validated():
    with pytest.raises(ValueError, match="hbar"):
        BarrierProblem(hbar=[1.0, 0.0], mu=1.0, j0=1.0, h0=1.0)
    with pytest.raises(ValueError, match="h0"):
        BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=[1.0, math.nan])
    with pytest.raises(ValueError, match="one-dimensional"):
        BarrierProblem(hbar=[[0.5, 1.0]], mu=1.0, j0=1.0, h0=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # b = sqrt(h0/j0) past the float range, refused without a warning
        with pytest.raises(ValueError, match="h0/j0 must be finite"):
            BarrierProblem(hbar=1.0, mu=1.0, j0=[1.0, 1e-10], h0=[1.0, 1e300])
        assert turning_points(BarrierProblem(1.0, 1.0, 1.0, 1.7e308))[1] > 1e154
    with pytest.raises(ValueError, match="under the barrier"):
        wkb_wavefunction(solve_barrier(BarrierProblem(1.0, 1.0, 1.0, [1.0, 1.0])),
                         "under_barrier", [0.0, 2.0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(phi=st.floats(-1e3, 1e3), j0=J0, h0=st.floats(0.0, 5.0))
@example(phi=-0.2044005530144144, j0=1.0, h0=0.0)   # where phi**2 != phi*phi
def test_interaction_energy_scalar_equals_array(phi, j0, h0):
    # a float's **2 goes through libm pow and an array's through a multiply
    # (as in cap_barrier, the oracle's input); phi*phi makes them agree
    bp = BarrierProblem(hbar=1.0, mu=1.0, j0=j0, h0=h0)
    scalar = bp.interaction_energy(phi)
    assert isinstance(scalar, float)
    assert scalar.hex() == float(bp.interaction_energy(np.array([phi]))[0]).hex()


def test_wkb_imports_no_scipy():
    with open(wkb.__file__) as fh:
        tree = ast.parse(fh.read())
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
             for a in n.names]
    names += [n.module for n in ast.walk(tree)
              if isinstance(n, ast.ImportFrom) and n.module]
    assert not [m for m in names if m.split(".")[0] == "scipy"]
