"""Closed-form anchors use U = 4 a^2: S = a^2 - 1 from a0 = 1, A ~ a^(-1/2),
and the clock runs a(t) = a0 exp(4t) at unit lapse."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiq import (
    MiniSuperspaceModel,
    amplitude_transport,
    build_branch,
    clock_map,
    evolve_matter,
    hamilton_jacobi_phase,
    wdw_residual,
)


def quad_model(**kw):
    return MiniSuperspaceModel(potential_u=lambda a: 4.0 * a * a, hbar=1.0, **kw)


def test_phase_closed_form():
    a = np.linspace(1.0, 4.0, 301)
    s = hamilton_jacobi_phase(quad_model(), a)
    assert np.max(np.abs(s - (a * a - 1.0))) < 1e-10


def test_phase_rejects_euclidean_region():
    m = MiniSuperspaceModel(potential_u=lambda a: a - 2.0, hbar=1.0)
    with pytest.raises(ValueError, match="Euclidean"):
        hamilton_jacobi_phase(m, np.linspace(1.0, 3.0, 11))


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
    with pytest.warns(UserWarning, match="truncated"):
        cm = clock_map(quad_model(), a0=1.0, t_span=(0.0, 2.0), a_max=10.0)
    assert cm.truncated_at == pytest.approx(math.log(10.0) / 4.0, rel=1e-8)


def test_constant_potential_linear_growth():
    m = MiniSuperspaceModel(potential_u=lambda a: 9.0 + 0.0 * np.asarray(a),
                            hbar=1.0)
    cm = clock_map(m, a0=2.0, t_span=(0.0, 1.0))
    assert cm(1.0) == pytest.approx(2.0 + 2.0 * 3.0, rel=1e-10)


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
    rep = wdw_residual(quad_model(), (1.0, 4.0), [0.1, 0.05, 0.025])
    assert abs(rep.slope - 2.0) < 0.2
    # each halving of hbar divides the relative residual by four
    assert rep.residuals[0] / rep.residuals[1] == pytest.approx(4.0, rel=0.02)


def test_wdw_residual_matches_amplitude_curvature():
    # for U = 4a^2 the defect is the second derivative of a^(-1/2) alone;
    # weighted-RMS closed form evaluated on the same interior points
    rep = wdw_residual(quad_model(), (1.0, 4.0), [0.1, 0.05])
    hb = rep.hbars[0]
    a = np.linspace(1.0, 4.0, 4097)[2:-2:2]
    w = (4.0 * a * a) * a**-0.5
    rel = hb**2 * (0.75 / a**2) / (4.0 * a * a)
    expected = np.sqrt(np.mean((rel * w) ** 2) / np.mean(w**2))
    assert abs(rep.residuals[0] - expected) < 1e-6


def finite_difference_residual(model, a_lo, a_hi, hbar, n):
    """Reference: apply the constraint operator to Psi = A e^{iS/hbar} by
    finite differences on n cells, Richardson-extrapolated pointwise.

    The grid has to resolve the phase: the second difference's O(h^2)
    truncation error can dwarf the O(hbar^2) defect unless n is large.
    """
    grid = np.linspace(a_lo, a_hi, n + 1)
    u = model.u(grid)
    nodes, wts = np.polynomial.legendre.leggauss(5)
    h = grid[1] - grid[0]
    x = grid[:-1, None] + 0.5 * h * (nodes[None, :] + 1.0)
    s = np.concatenate(([0.0], np.cumsum(0.5 * h * (np.sqrt(model.u(x)) @ wts))))
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
    rep = wdw_residual(quad_model(), a_span, hbars)
    ref = [finite_difference_residual(quad_model(), *a_span, hb, 65536)
           for hb in rep.hbars]
    assert rep.residuals == pytest.approx(ref, rel=1e-3)


def test_wdw_residual_rejects_turning_point():
    m = MiniSuperspaceModel(potential_u=lambda a: a - 2.0, hbar=1.0)
    with pytest.raises(ValueError, match="<= 0"):
        wdw_residual(m, (2.0, 3.0), [0.1, 0.05])


def test_wdw_residual_plane_wave_exact():
    m = MiniSuperspaceModel(potential_u=lambda a: 1.0 + 0.0 * np.asarray(a),
                            hbar=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = wdw_residual(m, (1.0, 4.0), [0.1, 0.05])
    assert np.all(rep.residuals == 0.0)
    assert math.isnan(rep.slope)


def test_build_branch_assembles():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # clock may truncate at a_grid end
        branch = build_branch(quad_model(matter_hamiltonian=two_level),
                              np.linspace(1.0, 4.0, 257),
                              t_span=(0.0, 0.5),
                              chi0=np.array([1.0, 0.0], dtype=complex))
    assert branch.s[0] == 0.0
    assert branch.amplitude[0] == 1.0
    assert branch.matter is not None
    assert branch.clock(0.0) == pytest.approx(1.0)


def test_matter_hermiticity_checked():
    bad = lambda a: np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    m = quad_model(matter_hamiltonian=bad)
    with pytest.raises(ValueError):
        m.matter_at(1.0)


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
    # propagators that stretch chi by 2e-9 at steps 7 and 12: the error
    # names the first of them
    eigh = np.linalg.eigh

    def leaky_eigh(h):
        vals, vecs = eigh(h)
        vecs[[7, 12]] *= 1.0 + 1e-9
        return vals, vecs

    m = quad_model(matter_hamiltonian=two_level)
    cm = clock_map(m, a0=1.0, t_span=(0.0, 0.3))
    monkeypatch.setattr(np.linalg, "eigh", leaky_eigh)
    with pytest.raises(RuntimeError, match="at step 7:"):
        evolve_matter(m, cm, np.array([1.0, 0.0], dtype=complex),
                      np.linspace(0.0, 0.3, 31))


def test_matter_rejects_hamiltonian_of_wrong_size():
    m = quad_model(matter_hamiltonian=lambda a: np.eye(3, dtype=complex))
    cm = clock_map(m, a0=1.0, t_span=(0.0, 0.3))
    with pytest.raises(ValueError, match="square matrix"):
        evolve_matter(m, cm, np.array([1.0, 0.0], dtype=complex),
                      np.linspace(0.0, 0.3, 11))
