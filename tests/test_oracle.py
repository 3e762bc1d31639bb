import cmath
import math
import sys
import tracemalloc
import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from semiq import (
    BarrierProblem,
    activation_rate,
    barrier_exponent_closed,
    cap_barrier,
    transfer_matrix_transmission,
)
from semiq import oracle
from semiq.oracle import (_BATCH, _CHUNK, _GROWTH_BOUND, CappedBarrier,
                          _chunks, _log_transmission, _transmission_once,
                          _walk, _write_propagators)
from semiq.scan import products


@dataclass(frozen=True)
class PiecewisePotential:
    """Any sampled profile: values[i] at grid[i], flat continuation outside.

    The walk takes it as it takes a capped barrier, through cells and
    samples(); _transmission_once walks it at a given hbar and mu.
    """

    grid: np.ndarray
    values: np.ndarray

    @property
    def cells(self) -> int:
        return self.grid.size - 1

    def samples(self, lo, hi):
        return self.grid[lo:hi + 1], self.values[lo:hi + 1]


# exact reference for the full inverted parabola at E = 0
def parabola_T(bp):
    return 1.0 / (1.0 + math.exp(2.0 * barrier_exponent_closed(bp)))


def test_free_potential_transmits_fully():
    grid = np.linspace(-5.0, 5.0, 501)
    pot = PiecewisePotential(grid=grid, values=np.full(501, -1.0))
    assert _transmission_once(pot, 1.0, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_rectangular_barrier_closed_form():
    # a step of height 2 and width 1 on a plateau 1 below E = 0, hbar = 1,
    # mu = 1/2: k = kappa = 1 and T = 1 / (1 + sinh(1)^2) = 0.41997...
    exact = 1.0 / (1.0 + math.sinh(1.0) ** 2)
    assert exact == pytest.approx(0.4199743, rel=1e-6)
    errs = []
    for n in (9000, 18000):
        grid = np.linspace(-4.0, 5.0, n + 1)
        vals = np.where((grid >= 0.0) & (grid <= 1.0), 1.0, -1.0)
        pot = PiecewisePotential(grid=grid, values=vals)
        errs.append(abs(_transmission_once(pot, 1.0, 0.5) - exact) / exact)
    assert errs[0] < 2.5e-3
    # half-height edge cells make the step convergence first order
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.1)


def test_capped_parabola_unit_parameters():
    bp = BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=1.0)
    pot = cap_barrier(bp)                      # L = 4b, n = 20000 defaults
    est = transfer_matrix_transmission(pot)
    # measured: 1.2191e-2, 4.9% above the infinite-parabola value (the cap
    # reflects); both the formula and the semiclassical rate sit within 10%
    assert abs(est.T_numeric - parabola_T(bp)) / parabola_T(bp) < 0.10
    assert abs(est.T_numeric - activation_rate(bp)) / activation_rate(bp) < 0.10
    assert est.richardson_error < 1e-7


@pytest.mark.parametrize("h0", np.linspace(6.0, 20.0, 8) / (math.pi * math.sqrt(2)))
def test_thick_barrier_row(h0):
    bp = BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=float(h0))
    est = transfer_matrix_transmission(cap_barrier(bp))
    wkb = activation_rate(bp)
    assert abs(est.T_numeric - wkb) / wkb <= 0.3
    assert abs(est.T_numeric - parabola_T(bp)) / parabola_T(bp) <= 0.10


def test_log_domain_no_overflow():
    # 2*Lambda = 60: T ~ 1e-27, e^{Lambda} alone overflows float range
    # several times over if propagated linearly
    bp = BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=60.0 / (2 * math.pi / math.sqrt(2)))
    est = transfer_matrix_transmission(cap_barrier(bp))
    assert math.isfinite(est.T_numeric)
    assert est.T_numeric == pytest.approx(parabola_T(bp), rel=0.1)


def test_richardson_error_tracks_grid():
    bp = BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=1.0)
    fine = transfer_matrix_transmission(cap_barrier(bp, n=20000))
    coarse = transfer_matrix_transmission(cap_barrier(bp, n=2000))
    assert fine.richardson_error < coarse.richardson_error
    # both estimates agree to far better than their physical deviation
    assert fine.T_numeric == pytest.approx(coarse.T_numeric, rel=1e-4)


def test_transmission_bounds_enforced():
    with pytest.raises(ValueError):
        from semiq.oracle import TransmissionEstimate
        TransmissionEstimate(T_numeric=1.5, richardson_error=0.0)


def test_cap_barrier_validation():
    bp = BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=1.0)
    with pytest.raises(ValueError):
        cap_barrier(bp, L=0.5)       # inside the turning points
    with pytest.raises(ValueError):
        cap_barrier(bp, n=10)
    pot = cap_barrier(bp, L=4.0, n=200)
    assert pot.cells == 200
    grid, _ = pot.samples(0, pot.cells)
    assert grid[0] == -4.0 and grid[-1] == 4.0


def test_coarsened_halves_cells():
    pot = cap_barrier(BarrierProblem(1.0, 1.0, 1.0, 1.0), n=400)
    half = pot.coarsened()
    assert half.cells == 200
    assert np.array_equal(half.samples(0, half.cells)[0],
                          pot.samples(0, pot.cells)[0][::2])


# --------------------------------------------------------------------------
# golden values: (name, hbar, mu, h0, cells, T_numeric, richardson_error) at
# j0 = 1, E = 0 on cap_barrier's default cap.  Generated with the per-cell
# Python loop (one math.cosh/sinh step per cell, rescaled past 1e120) that
# preceded the chunked scan, so they pin the walk's output, not its speed;
# the two rows around _BATCH chunks came from that scan, before the batched
# chunk products.  The rows are the criterion-11 point, the corners of the
# h0 x mu benchmark sweep, two deep barriers (the second integrates kappa
# past one chunk's bound) and cell counts around the chunk length and
# around _BATCH chunks.
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
    ("cells_65535", 1.0, 1.0, 1.0, 65535, 0.012191467415520673, math.nan),
    ("cells_65537", 1.0, 1.0, 1.0, 65537, 0.012191467415510181, math.nan),
]


def test_golden_rows_straddle_the_chunk():
    cells = {row[4] for row in GOLDEN}
    assert {_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 1,
            _BATCH * _CHUNK - 1, _BATCH * _CHUNK + 1} <= cells


@pytest.mark.filterwarnings("ignore:odd cell count")
@pytest.mark.parametrize("name,hbar,mu,h0,cells,T,rich", GOLDEN,
                         ids=[row[0] for row in GOLDEN])
def test_transmission_golden(name, hbar, mu, h0, cells, T, rich):
    bp = BarrierProblem(hbar=hbar, mu=mu, j0=1.0, h0=h0)
    est = transfer_matrix_transmission(cap_barrier(bp, n=cells))
    assert est.T_numeric == pytest.approx(T, rel=1e-12, abs=0.0)
    if math.isnan(rich):
        assert math.isnan(est.richardson_error)
    else:
        assert est.richardson_error == pytest.approx(rich, rel=0.0,
                                                     abs=1e-12 * T)


def test_flat_profile_never_exceeds_one():
    # identical cells round coherently: uncapped, this walk gave
    # T = 1 + 3.4e-13 (and the per-cell loop 1 + 2.9e-13)
    pot = PiecewisePotential(np.linspace(0.0, 1.0, 4094), np.full(4094, -1.0))
    assert _transmission_once(pot, 0.3125, 1.0) <= 1.0


def test_deep_barrier_underflows_without_fp_errors():
    # 2*Lambda ~ 2200: T underflows to exactly 0, as the per-cell loop gave.
    # Chunks of fixed length alone would overflow here; the bound on the
    # integrated kappa per chunk is what keeps every product finite.
    bp = BarrierProblem(hbar=0.002, mu=1.0, j0=1.0, h0=1.0)
    with np.errstate(all="raise"):
        est = transfer_matrix_transmission(cap_barrier(bp))
    assert est.T_numeric == 0.0
    assert est.richardson_error == 0.0


def test_transmission_memory_stays_bounded():
    # the walk streams its chunks: 3.7 MiB at 10^6 cells, where a single
    # (2, 2, cells) array of propagators would take 32 MB and one more
    # per-cell array of floats 8 MB
    bp = BarrierProblem(hbar=0.05, mu=1.0, j0=1.0, h0=1.0)
    pot = cap_barrier(bp, n=1_000_000)
    tracemalloc.start()
    try:
        transfer_matrix_transmission(pot)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_capped_profile_and_walk_memory_stay_bounded():
    # cap_barrier keeps no per-cell array: the profile and both walks peak
    # at 3.7 MiB at 10^6 cells, where a grid and a values array of 8 MB each
    # took the peak to 23.8 MiB
    bp = BarrierProblem(hbar=0.05, mu=1.0, j0=1.0, h0=1.0)
    tracemalloc.start()
    try:
        pot = cap_barrier(bp, n=1_000_000)
        transfer_matrix_transmission(pot)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# --------------------------------------------------------------------------
# properties on random piecewise potentials


def loop_transmission(grid, values, hbar, mu):
    """Per-cell reference walk without rescaling: small barriers only."""
    w = 2.0 * mu * (0.5 * (values[1:] + values[:-1])) / hbar**2
    k_l, k_r = (math.sqrt(-2.0 * mu * v) / hbar for v in values[[0, -1]])
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


@PROPERTY
@given(potentials())
def test_reciprocity_and_bounds(case):
    pot, hbar, mu = case
    mirrored = PiecewisePotential(-pot.grid[::-1], pot.values[::-1])
    t = _transmission_once(pot, hbar, mu)
    assert 0.0 < t <= 1.0 + rounding_slack(pot.cells)
    assert _transmission_once(mirrored, hbar, mu) == pytest.approx(t, rel=1e-10, abs=0.0)


@PROPERTY
@given(potentials(flat=True))
def test_flat_potential_transmits_fully(case):
    pot, hbar, mu = case
    assert _transmission_once(pot, hbar, mu) == pytest.approx(
        1.0, rel=0.0, abs=rounding_slack(pot.cells))


@PROPERTY
@given(potentials(cells=st.integers(1, 300)))
def test_matches_per_cell_loop(case):
    pot, hbar, mu = case
    ref = loop_transmission(pot.grid, pot.values, hbar, mu)
    assert _transmission_once(pot, hbar, mu) == pytest.approx(ref, rel=1e-12, abs=0.0)


def one_chunk_at_a_time(chunks, cells):
    """_chunk_products without the batch: one scan of each chunk alone."""
    for _, _, h, q, x, under in chunks:
        p = np.empty((2, 2, h.size))
        _write_propagators(p, h, q, x, under)
        yield products(p)


def assert_walks_agree(pot, hbar, mu, lo=0):
    """The batched walk of cells lo .. n-1 and one chunk product at a time
    agree bit for bit."""
    args = (pot, hbar, mu, lo, pot.cells)
    with np.errstate(all="raise"):
        got = _walk(*args)
        with mock.patch.object(oracle, "_chunk_products", one_chunk_at_a_time):
            assert _walk(*args) == got


@PROPERTY
@given(potentials(cells=st.one_of(
    st.integers(1, 300), st.integers(_CHUNK - 3, _CHUNK + 3),
    st.integers(_BATCH * _CHUNK - 3, _BATCH * _CHUNK + 3))))
def test_chunk_products_match_the_scan(case):
    assert_walks_agree(*case)


@pytest.mark.parametrize("cells", [20000, _BATCH * _CHUNK + 1])
def test_chunk_products_match_the_scan_on_a_deep_barrier(cells):
    # Lambda ~ 1270: the growth bound ends chunks short of _CHUNK cells, so
    # their products are reduced together with identity padding
    bp = BarrierProblem(hbar=0.007, mu=1.0, j0=1.0, h0=4.0)
    pot = cap_barrier(bp, n=cells)
    sizes = [end - start for start, end, *_ in _chunks(pot, 0.007, 1.0, 0, cells)]
    assert min(sizes[:-1]) < _CHUNK
    assert_walks_agree(pot, 0.007, 1.0)
    # the half that the capped barrier's transmission walks
    assert_walks_agree(pot, 0.007, 1.0, lo=cells // 2)


# --------------------------------------------------------------------------
# the in-place propagator writer and the chunk bounds, bit for bit against
# the per-chunk builder and growth rule they replaced


def reference_cell_propagators(w, h):
    """Right-to-left propagators as the walk built them before the writer."""
    q = np.sqrt(np.abs(w))
    x = q * h
    under = w > 0.0
    diag = np.cos(x)
    s = np.sin(x)
    np.cosh(x, out=diag, where=under)
    np.sinh(x, out=s, where=under)
    s_over_q = np.divide(s, q, out=h.copy(), where=q > 0.0)
    return np.array([[diag, -s_over_q], [-np.sign(w) * q * s, diag]])


def reference_chunks(grid, values, hbar, mu):
    """Chunk bounds by the growth rule sqrt(max(w, 0))*h: (start, end, w, h)."""
    end = grid.size - 1
    while end > 0:
        lo = max(end - _CHUNK, 0)
        h = np.diff(grid[lo:end + 1])
        cell_v = 0.5 * (values[lo + 1:end + 1] + values[lo:end])
        w = 2.0 * mu * cell_v / hbar**2
        growth = np.cumsum((np.sqrt(np.maximum(w, 0.0)) * h)[::-1])
        cells = max(int(np.searchsorted(growth, _GROWTH_BOUND, side="right")), 1)
        yield end - cells, end, w[-cells:], h[-cells:]
        end = end - cells


@pytest.mark.parametrize("hbar, h0, cells", [(0.007, 4.0, 20000), (0.05, 1.0, 1_000_000)],
                         ids=["cut_chunks", "tunnel_deep"])
def test_chunk_bounds_match_the_cumsum_rule(hbar, h0, cells):
    # the walk runs the cumsum only for a chunk whose pairwise total of
    # kappa*h comes near the bound; the bounds must not move
    pot = cap_barrier(BarrierProblem(hbar=hbar, mu=1.0, j0=1.0, h0=h0), n=cells)
    args = (*pot.samples(0, pot.cells), hbar, 1.0)
    ours = _chunks(pot, hbar, 1.0, 0, cells)
    assert [c[:2] for c in ours] == [c[:2] for c in reference_chunks(*args)]


def writer_profile(kind, cells, rng):
    """(grid, values) of one kind of cell mix around the level V = 0 of
    the walk's energy."""
    n = cells + 1
    grid = np.cumsum(rng.uniform(0.5, 1.5, n)) * (1e-3 if cells > 2 else 0.1)
    if kind == "allowed":
        values = -rng.uniform(0.1, 2.0, n)
    elif kind == "forbidden":
        values = rng.uniform(0.1, 2.0, n)
    elif kind == "mixed":
        values = rng.uniform(-1.0, 1.0, n)
    elif kind == "plateau":
        # runs of V == 0 exactly, so cells with w == 0, between both kinds
        values = rng.choice([-1.0, 0.0, 0.0, 1.0], n)
    elif kind == "signed_zero":
        # V = -0.0: cell means -0.0 and w == -0.0
        values = rng.choice([-0.0, 0.0, -1.0, 1.0], n)
    elif kind == "subnormal":
        # |w| a few units of the smallest subnormal (even multiples keep the
        # cell means exact); wide cells keep q*s, about |w|*h, normal
        values = 5e-324 * rng.choice([-4.0, -2.0, 0.0, 2.0, 4.0], n)
        grid = np.cumsum(rng.uniform(0.5, 1.5, n)) * 1e20
    elif kind == "deep":
        # |w|*h^2 ~ 1 per cell on both sides of V = 0: the growth bound,
        # which counts only the cells under the barrier, ends chunks early
        values = rng.uniform(-2.0, 2.0, n)
        grid = np.cumsum(rng.uniform(0.5, 1.5, n))
    return grid, values


@pytest.mark.parametrize("cells", [1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1])
@pytest.mark.parametrize("kind", ["allowed", "forbidden", "mixed", "plateau",
                                  "signed_zero", "subnormal", "deep"])
def test_writer_matches_the_reference_bit_for_bit(kind, cells):
    rng = np.random.default_rng([cells, len(kind)])
    grid, values = writer_profile(kind, cells, rng)
    buf = np.full((2, 2, 2, _CHUNK), np.nan)
    with np.errstate(all="raise"):
        ours = list(_chunks(PiecewisePotential(grid, values), 1.0, 1.0, 0, cells))
        ref = list(reference_chunks(grid, values, 1.0, 1.0))
        assert [c[:2] for c in ours] == [c[:2] for c in ref]
        for (_, _, h, q, x, under), (_, _, w, h_ref) in zip(ours, ref):
            out = buf[:, :, 1, :h.size]      # a view, as in the batch buffer
            _write_propagators(out, h, q, x, under)
            expect = reference_cell_propagators(w, h_ref)
            assert out.tobytes() == expect.tobytes()
    if kind == "deep" and cells >= _CHUNK:
        assert len(ours) > 2             # the bound cut the chunks short


# --------------------------------------------------------------------------
# the capped profile computes the samples the walk asks for


CAPPED_CELLS = st.one_of(st.integers(100, 300),
                         st.integers(_CHUNK - 2, _CHUNK + 2),
                         st.integers(2 * _CHUNK - 3, 2 * _CHUNK + 3))


@PROPERTY
@given(j0=st.floats(0.1, 10.0), h0=st.floats(0.01, 10.0),
       over=st.floats(1.001, 8.0), cells=CAPPED_CELLS,
       stride=st.sampled_from([1, 2]),
       picks=st.tuples(st.integers(0, 7), st.integers(0, 7)))
# 100 * step + (-L) rounds to one ulp above L, and linspace's last point is L
@example(j0=1.0, h0=1.0, over=1.5682026013006503, cells=100, stride=1,
         picks=(0, 1))
def test_capped_samples_are_linspace_and_interaction_energy(j0, h0, over, cells,
                                                            stride, picks):
    bp = BarrierProblem(hbar=1.0, mu=1.0, j0=j0, h0=h0)
    L = over * math.sqrt(h0 / j0)
    cells += cells % stride
    pot = cap_barrier(bp, L=L, n=cells)
    grid = np.linspace(-L, L, cells + 1)[::stride]
    if stride == 2:
        pot = pot.coarsened()
    values = bp.interaction_energy(grid)
    n = pot.cells
    # the walk's windows end at n, and its chunk edges lie _CHUNK apart
    edges = sorted({0, n} | {e for k in (1, 2) for d in (-1, 0, 1)
                             if 0 <= (e := n - k * _CHUNK + d) <= n})
    lo, hi = sorted(edges[k % len(edges)] for k in picks)
    got_grid, got_values = pot.samples(lo, hi)
    assert got_grid.tobytes() == grid[lo:hi + 1].tobytes()
    assert got_values.tobytes() == values[lo:hi + 1].tobytes()
    assert pot.samples(n, n)[0].tolist() == [L]


@pytest.mark.parametrize("L, n, why", [
    (1e200, 20000, "level"),           # -j0*L^2 overflows
    (1.5e154, 100, "level"),           # L^2 overflows, 2L does not
    (4.0, 10**16, "step"),             # 2L/n is under one ulp of L
    (4.0, 4 * 10**15, "step"),         # 2.25 ulps: within the rounding
])
def test_cap_barrier_refuses_caps_it_cannot_walk(L, n, why):
    bp = BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite and the step"):
            cap_barrier(bp, L=L, n=n)


@pytest.mark.parametrize("L, n, why", [
    (0.3, 20000, "must exceed the turning point"),     # b = 0.39
    (1e200, 20000, "the level -j0\\*L\\^2 \\+ h0 must be finite"),
    (4.0, 10**16, "the step 2L/n above 3 ulps"),
])
def test_cap_barrier_refusals_name_the_point(L, n, why):
    params = dict(hbar=0.1, mu=0.7, j0=1.3, h0=0.2)
    point = " ".join(f"{k}={v:.17g}" for k, v in params.items())
    assert point.startswith("hbar=0.10000000000000001 mu=0.69999999999999996 ")
    with pytest.raises(ValueError, match=why) as exc:
        cap_barrier(BarrierProblem(**params), L=L, n=n)
    assert point in str(exc.value) and f"L={L:.17g}" in str(exc.value)


@pytest.mark.parametrize("L", [4.0, 1e-3, 3.0e153])
def test_steps_just_above_three_ulps_keep_the_grid_increasing(L):
    # the smallest accepted step: samples around each end and the middle
    # of the 10^15-cell grid strictly increase; the profile holds none of it
    bp = BarrierProblem(1.0, 1.0, 1.0, 0.0)
    n = int(2.0 * L / (3.0 * np.spacing(L)))
    while True:
        try:
            pot = cap_barrier(bp, L=L, n=n)
            break
        except ValueError:
            n -= 1
    for lo in (0, n // 2 - 2000, n // 4, n - 4000):
        grid, _ = pot.samples(lo, lo + 4000)
        assert np.all(np.diff(grid) > 0.0)
    assert pot.samples(n - 1, n)[0][1] == L


# --------------------------------------------------------------------------
# the capped barrier is even: its transmission walks the cells from the
# middle one to the right edge and takes the left half's product from parity


@dataclass(frozen=True)
class FullWalk:
    """A capped barrier under another type, so the walk crosses every cell."""

    barrier: CappedBarrier

    @property
    def cells(self) -> int:
        return self.barrier.cells

    def samples(self, lo, hi):
        return self.barrier.samples(lo, hi)


@PROPERTY
@given(hbar=st.floats(0.007, 2.0), mu=st.floats(0.5, 2.0),
       j0=st.floats(0.1, 10.0), h0=st.floats(0.01, 10.0),
       over=st.floats(1.001, 8.0),
       cells=st.one_of(st.integers(100, 300), CAPPED_CELLS))
# a deep barrier whose growth bound cuts the chunks short; T underflows
@example(hbar=0.007, mu=1.0, j0=1.0, h0=4.0, over=4.0, cells=20000)
@example(hbar=1.0, mu=1.0, j0=1.0, h0=1.0, over=4.0, cells=101)
@example(hbar=0.3, mu=1.0, j0=1.0, h0=1.0, over=4.0, cells=2 * _CHUNK - 1)
@example(hbar=0.3, mu=1.0, j0=1.0, h0=1.0, over=4.0, cells=2 * _CHUNK + 1)
def test_mirrored_walk_matches_the_full_walk(hbar, mu, j0, h0, over, cells):
    bp = BarrierProblem(hbar=hbar, mu=mu, j0=j0, h0=h0)
    pot = cap_barrier(bp, L=over * math.sqrt(h0 / j0), n=cells)
    full = _log_transmission(FullWalk(pot), hbar, mu)
    if math.exp(full) >= sys.float_info.min:
        assert _transmission_once(pot, hbar, mu) == pytest.approx(
            _transmission_once(FullWalk(pot), hbar, mu), rel=1e-12, abs=0.0)
    else:
        # T is subnormal or 0: compare its logarithm
        assert _log_transmission(pot, hbar, mu) == pytest.approx(
            full, rel=1e-12, abs=0.0)


def sampled_windows(profile_type, run):
    """The (cells, lo, hi) of every samples call run() makes on profile_type."""
    calls = []
    samples = profile_type.samples

    def spy(self, lo, hi):
        calls.append((self.cells, lo, hi))
        return samples(self, lo, hi)

    with mock.patch.object(profile_type, "samples", spy):
        run()
    return calls


@pytest.mark.filterwarnings("ignore:odd cell count")
@pytest.mark.parametrize("cells", [20000, 20001, 8194])
def test_capped_transmission_samples_only_the_right_half(cells):
    pot = cap_barrier(BarrierProblem(hbar=0.3, mu=1.0, j0=1.0, h0=1.0), n=cells)
    calls = sampled_windows(CappedBarrier,
                            lambda: transfer_matrix_transmission(pot))
    grids = {cells} if cells % 2 else {cells, cells // 2}
    assert {n for n, _, _ in calls} == grids
    for n in grids:
        windows = sorted((lo, hi) for m, lo, hi in calls if m == n)
        # from the middle cell to the right edge, and nothing left of it
        assert windows[0][0] == n // 2
        assert windows[-1][1] == n
        assert all(a[1] >= b[0] for a, b in zip(windows, windows[1:]))


def test_any_other_profile_is_walked_over_every_cell():
    grid = np.linspace(-3.0, 5.0, 3 * _CHUNK + 2)
    values = np.where(np.abs(grid - 1.0) < 1.0, 0.5, -1.0)
    pot = PiecewisePotential(grid, values)
    calls = sampled_windows(PiecewisePotential,
                            lambda: _transmission_once(pot, 1.0, 1.0))
    windows = sorted((lo, hi) for _, lo, hi in calls)
    assert windows[0][0] == 0 and windows[-1][1] == pot.cells
    cells = {c for lo, hi in windows for c in range(lo, hi)}
    assert cells == set(range(pot.cells))
