import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiq import (
    BarrierProblem,
    PiecewisePotential,
    activation_rate,
    barrier_exponent_closed,
    cap_barrier,
    constraint_residual,
    scattering_wavefunction,
    transfer_matrix_transmission,
)
from semiq.oracle import _CHUNK

# exact reference for the full inverted parabola at E = 0
def parabola_T(bp):
    return 1.0 / (1.0 + math.exp(2.0 * barrier_exponent_closed(bp)))


def test_free_potential_transmits_fully():
    grid = np.linspace(-5.0, 5.0, 501)
    pot = PiecewisePotential(grid=grid, values=np.full(501, -1.0))
    est = transfer_matrix_transmission(pot, E=0.0, hbar=1.0, mu=1.0)
    assert est.T_numeric == pytest.approx(1.0, abs=1e-10)


def test_rectangular_barrier_closed_form():
    # height 2, width 1, E = 1, hbar = 1, mu = 1/2: k = kappa = 1 and
    # T = 1 / (1 + sinh(1)^2) = 0.41997...
    exact = 1.0 / (1.0 + math.sinh(1.0) ** 2)
    assert exact == pytest.approx(0.4199743, rel=1e-6)
    errs = []
    for n in (9000, 18000):
        grid = np.linspace(-4.0, 5.0, n + 1)
        vals = np.where((grid >= 0.0) & (grid <= 1.0), 2.0, 0.0)
        pot = PiecewisePotential(grid=grid, values=vals)
        est = transfer_matrix_transmission(pot, E=1.0, hbar=1.0, mu=0.5)
        errs.append(abs(est.T_numeric - exact) / exact)
    assert errs[0] < 2.5e-3
    # half-height edge cells make the step convergence first order
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.1)


def test_capped_parabola_unit_parameters():
    bp = BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=1.0)
    pot = cap_barrier(bp)                      # L = 4b, n = 20000 defaults
    est = transfer_matrix_transmission(pot, E=0.0, hbar=1.0, mu=1.0)
    # measured: 1.2191e-2, 4.9% above the infinite-parabola value (the cap
    # reflects); both the formula and the semiclassical rate sit within 10%
    assert abs(est.T_numeric - parabola_T(bp)) / parabola_T(bp) < 0.10
    assert abs(est.T_numeric - activation_rate(bp)) / activation_rate(bp) < 0.10
    assert est.richardson_error < 1e-7


@pytest.mark.parametrize("h0", np.linspace(6.0, 20.0, 8) / (math.pi * math.sqrt(2)))
def test_thick_barrier_row(h0):
    bp = BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=float(h0))
    est = transfer_matrix_transmission(cap_barrier(bp), E=0.0, hbar=1.0, mu=1.0)
    wkb = activation_rate(bp)
    assert abs(est.T_numeric - wkb) / wkb <= 0.3
    assert abs(est.T_numeric - parabola_T(bp)) / parabola_T(bp) <= 0.10


def test_log_domain_no_overflow():
    # 2*Lambda = 60: T ~ 1e-27, e^{Lambda} alone overflows float range
    # several times over if propagated linearly
    bp = BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=60.0 / (2 * math.pi / math.sqrt(2)))
    est = transfer_matrix_transmission(cap_barrier(bp), E=0.0, hbar=1.0, mu=1.0)
    assert math.isfinite(est.T_numeric)
    assert est.T_numeric == pytest.approx(parabola_T(bp), rel=0.1)


def test_richardson_error_tracks_grid():
    bp = BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=1.0)
    fine = transfer_matrix_transmission(cap_barrier(bp, n=20000), E=0.0,
                                        hbar=1.0, mu=1.0)
    coarse = transfer_matrix_transmission(cap_barrier(bp, n=2000), E=0.0,
                                          hbar=1.0, mu=1.0)
    assert fine.richardson_error < coarse.richardson_error
    # both estimates agree to far better than their physical deviation
    assert fine.T_numeric == pytest.approx(coarse.T_numeric, rel=1e-4)


def test_transmission_bounds_enforced():
    with pytest.raises(ValueError):
        from semiq.oracle import TransmissionEstimate
        TransmissionEstimate(T_numeric=1.5, grid_points=100,
                             richardson_error=0.0)


def test_cap_barrier_validation():
    bp = BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=1.0)
    with pytest.raises(ValueError):
        cap_barrier(bp, L=0.5)       # inside the turning points
    with pytest.raises(ValueError):
        cap_barrier(bp, n=10)
    pot = cap_barrier(bp, L=4.0, n=200)
    assert pot.cells == 200
    assert pot.grid[0] == -4.0 and pot.grid[-1] == 4.0


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewisePotential(grid=np.array([0.0, 0.0, 1.0]),
                           values=np.zeros(3))
    with pytest.raises(ValueError):
        PiecewisePotential(grid=np.array([0.0, 1.0]), values=np.zeros(3))


def test_coarsened_halves_cells():
    pot = cap_barrier(BarrierProblem(1.0, 1.0, 1.0, 1.0), n=400)
    half = pot.coarsened()
    assert half.cells == 200
    assert np.array_equal(half.grid, pot.grid[::2])


def test_scattering_wavefunction_and_residual():
    bp = BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=1.0)
    pot = cap_barrier(bp, n=10000)
    psi = scattering_wavefunction(pot, E=0.0, hbar=1.0, mu=1.0)
    assert psi.shape == pot.grid.shape
    assert np.max(np.abs(psi)) == pytest.approx(1.0)
    r = constraint_residual(psi, pot, hbar=1.0, mu=1.0)
    # measured 4.50e-6 at 10^4 points with the default L = 4b cap
    assert r < 5e-6
    # second-order operator: halving the step divides the residual by 4
    pot2 = cap_barrier(bp, n=20000)
    psi2 = scattering_wavefunction(pot2, E=0.0, hbar=1.0, mu=1.0)
    r2 = constraint_residual(psi2, pot2, hbar=1.0, mu=1.0)
    assert r / r2 == pytest.approx(4.0, rel=0.05)


def test_residual_zero_for_constant_zero_potential():
    grid = np.linspace(0.0, 1.0, 101)
    pot = PiecewisePotential(grid=grid, values=np.zeros(101))
    psi = np.ones(101, dtype=complex)
    assert constraint_residual(psi, pot, 1.0, 1.0) == 0.0


def test_residual_plane_wave_truncation_order():
    # psi = e^{ik phi} with 2 mu V = -k^2: exact continuum solution,
    # residual is pure finite-difference truncation, O(h^2)
    k = 3.0
    rs = []
    for n in (200, 400):
        grid = np.linspace(0.0, 2.0, n + 1)
        pot = PiecewisePotential(grid=grid,
                                 values=np.full(n + 1, -k * k / 2.0))
        psi = np.exp(1j * k * grid)
        rs.append(constraint_residual(psi, pot, 1.0, 1.0))
    assert rs[0] / rs[1] == pytest.approx(4.0, rel=0.02)


# --------------------------------------------------------------------------
# golden values: (name, hbar, mu, h0, cells, T_numeric, richardson_error) at
# j0 = 1, E = 0 on cap_barrier's default cap.  Generated with the per-cell
# Python loop (one math.cosh/sinh step per cell, rescaled past 1e120) that
# preceded the chunked scan, so they pin the walk's output, not its speed.
# The rows are the criterion-11 point, the corners of the h0 x mu benchmark
# sweep, two deep barriers (the second integrates kappa past one chunk's
# bound) and cell counts around the chunk length.
GOLDEN = [
    ("criterion_11", 1.0, 1.0, 1.0, 20000,
     0.01219146915978628, 1.923401121243599e-09),
    ("corner_h0_0.5_mu_0.5", 1.0, 0.5, 0.5, 20000,
     0.19177108551724847, 8.904052532325105e-09),
    ("corner_h0_0.5_mu_2", 1.0, 2.0, 0.5, 20000,
     0.04316056839608764, 5.506859019714187e-09),
    ("corner_h0_2_mu_0.5", 1.0, 0.5, 2.0, 20000,
     0.001852802616596708, 6.566802634797262e-10),
    ("corner_h0_2_mu_2", 1.0, 2.0, 2.0, 20000,
     3.4306786778774724e-06, 3.0192770273946236e-12),
    ("hbar_0.05_h0_2", 0.05, 1.0, 2.0, 20000,
     6.601565125552825e-78, 4.596904766108438e-83),
    ("hbar_0.007_h0_1", 0.007, 1.0, 1.0, 20000,
     2.261487168771805e-276, 7.138860270847472e-281),
    ("cells_4095", 1.0, 1.0, 1.0, 4095, 0.012191513116187264, math.nan),
    ("cells_4096", 1.0, 1.0, 1.0, 4096,
     0.012191513093787751, 4.585714107920025e-08),
    ("cells_4097", 1.0, 1.0, 1.0, 4097, 0.012191513071404786, math.nan),
    ("cells_8194", 1.0, 1.0, 1.0, 8194,
     0.012191478695151772, 1.145875100476886e-08),
    ("cells_12289", 1.0, 1.0, 1.0, 12289, 0.012191472330829177, math.nan),
    ("cells_999", 1.0, 1.0, 1.0, 999, 0.012192238119559952, math.nan),
]


def test_golden_rows_straddle_the_chunk():
    cells = {row[4] for row in GOLDEN}
    assert {_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 1} <= cells


@pytest.mark.filterwarnings("ignore:odd cell count")
@pytest.mark.parametrize("name,hbar,mu,h0,cells,T,rich", GOLDEN,
                         ids=[row[0] for row in GOLDEN])
def test_transmission_golden(name, hbar, mu, h0, cells, T, rich):
    bp = BarrierProblem(hbar=hbar, mu=mu, j0=1.0, h0=h0)
    est = transfer_matrix_transmission(cap_barrier(bp, n=cells), E=0.0,
                                       hbar=hbar, mu=mu)
    assert est.T_numeric == pytest.approx(T, rel=1e-12, abs=0.0)
    if math.isnan(rich):
        assert math.isnan(est.richardson_error)
    else:
        assert est.richardson_error == pytest.approx(rich, rel=0.0,
                                                     abs=1e-12 * T)


@pytest.mark.filterwarnings("ignore:odd cell count")
def test_flat_profile_never_exceeds_one():
    # identical cells round coherently: uncapped, this walk gave
    # T = 1 + 3.4e-13 (and the per-cell loop 1 + 2.9e-13)
    pot = PiecewisePotential(np.linspace(0.0, 1.0, 4094), np.full(4094, -1.0))
    assert _T(pot, 0.3125, 1.0) <= 1.0


def test_deep_barrier_underflows_without_fp_errors():
    # 2*Lambda ~ 2200: T underflows to exactly 0, as the per-cell loop gave.
    # Chunks of fixed length alone would overflow here; the bound on the
    # integrated kappa per chunk is what keeps every product finite.
    bp = BarrierProblem(hbar=0.002, mu=1.0, j0=1.0, h0=1.0)
    with np.errstate(all="raise"):
        est = transfer_matrix_transmission(cap_barrier(bp), E=0.0,
                                           hbar=0.002, mu=1.0)
    assert est.T_numeric == 0.0
    assert est.richardson_error == 0.0


def test_scattering_wavefunction_deep_barrier_is_finite():
    # psi grows ~e^{Lambda} with Lambda ~ 740 across the barrier, beyond the
    # float range before normalisation
    bp = BarrierProblem(hbar=0.003, mu=1.0, j0=1.0, h0=1.0)
    psi = scattering_wavefunction(cap_barrier(bp), E=0.0, hbar=0.003, mu=1.0)
    assert np.all(np.isfinite(psi))
    assert np.max(np.abs(psi)) == 1.0


# --------------------------------------------------------------------------
# properties on random piecewise potentials


def loop_transmission(grid, values, E, hbar, mu):
    """Per-cell reference walk without rescaling: small barriers only."""
    w = 2.0 * mu * (0.5 * (values[1:] + values[:-1]) - E) / hbar**2
    k_l, k_r = (math.sqrt(2.0 * mu * (E - v)) / hbar for v in values[[0, -1]])
    psi, dpsi = 1.0 + 0.0j, 1j * k_r
    for wi, h in zip(w[::-1], np.diff(grid)[::-1]):
        q = cmath.sqrt(wi)          # imaginary in allowed cells: cosh -> cos
        ch, sh = cmath.cosh(q * h), cmath.sinh(q * h)
        sh_q = sh / q if wi != 0.0 else h
        psi, dpsi = ch * psi - sh_q * dpsi, -q * sh * psi + ch * dpsi
    alpha = 0.5 * (psi + dpsi / (1j * k_l))
    return (k_r / k_l) / abs(alpha) ** 2


AROUND_CHUNK = st.one_of(st.integers(_CHUNK - 3, _CHUNK + 3),
                         st.integers(2 * _CHUNK - 2, 2 * _CHUNK + 2),
                         st.integers(100, 3 * _CHUNK + 2))


@st.composite
def potentials(draw, cells=AROUND_CHUNK, flat=False):
    """Piecewise-linear profile through random knots on a warped grid.

    Both ends sit below E = 0, so waves propagate on both sides; the
    integrated kappa stays below about 80, so T stays far from underflow.
    """
    n = draw(cells)
    width = draw(st.floats(0.5, 8.0))
    warp = draw(st.floats(1.0, 2.0))
    grid = width * np.linspace(0.0, 1.0, n + 1) ** warp
    ends = st.floats(-2.0, -0.1)
    if flat:
        values = np.full(n + 1, draw(ends))
    else:
        inner = draw(st.lists(st.floats(-2.0, 2.0), max_size=6))
        knots = [draw(ends)] + inner + [draw(ends)]
        values = np.interp(grid, np.linspace(0.0, width, len(knots)), knots)
    hbar = draw(st.floats(0.3, 2.0))
    mu = draw(st.floats(0.5, 2.0))
    return PiecewisePotential(grid, values), hbar, mu


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def rounding_slack(cells):
    """Bound on |T - 1| for a flat profile from float rounding alone.

    A uniform flat grid repeats one cell propagator, so its rounding (the
    determinant is 1 only to within eps) adds up coherently over the cells:
    the per-cell loop this walk replaced is off by 1.2e-12 at 12 000 cells.
    """
    return max(1e-12, 4 * cells * np.finfo(float).eps)


def _T(pot, hbar, mu):
    return transfer_matrix_transmission(pot, E=0.0, hbar=hbar, mu=mu).T_numeric


@pytest.mark.filterwarnings("ignore:odd cell count")
@PROPERTY
@given(potentials())
def test_reciprocity_and_bounds(case):
    pot, hbar, mu = case
    mirrored = PiecewisePotential(-pot.grid[::-1], pot.values[::-1])
    t = _T(pot, hbar, mu)
    assert 0.0 < t <= 1.0 + rounding_slack(pot.cells)
    assert _T(mirrored, hbar, mu) == pytest.approx(t, rel=1e-10, abs=0.0)


@pytest.mark.filterwarnings("ignore:odd cell count")
@PROPERTY
@given(potentials(flat=True))
def test_flat_potential_transmits_fully(case):
    pot, hbar, mu = case
    assert _T(pot, hbar, mu) == pytest.approx(
        1.0, rel=0.0, abs=rounding_slack(pot.cells))


@pytest.mark.filterwarnings("ignore:odd cell count")
@PROPERTY
@given(potentials(cells=st.integers(1, 300)))
def test_matches_per_cell_loop(case):
    pot, hbar, mu = case
    ref = loop_transmission(pot.grid, pot.values, 0.0, hbar, mu)
    assert _T(pot, hbar, mu) == pytest.approx(ref, rel=1e-12, abs=0.0)
