import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from semiq import (
    EkComparison,
    GaugeTransformation,
    GlialField,
    NeuralState,
    QuenchedCouplings,
    covariant_difference,
    ek_comparison,
    ek_reduced_hamiltonian,
    entropy_rate,
    gauge_transform,
    hamiltonian_full,
    hamiltonian_quenched,
    hebbian_couplings,
    observer_triple,
    retention_time,
    rolldown,
    window_counts,
)
from semiq import ClockModel, evolve_analytic
from semiq import QuantumSystem
from semiq import network
from semiq.network import _median, _uniform_ring_energies

SEED = 1123

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

gauge_cases = [(4, 4, s) for s in range(25)] + [(8, 8, s) for s in range(25)]


def dense_operator(g) -> np.ndarray:
    """The reference D: a dense (nN) x (nN) matrix acting on phi.ravel()."""
    gm = g.matrices if isinstance(g, GlialField) else np.asarray(g, dtype=float)
    n, N = gm.shape[0], gm.shape[1]
    op = -np.eye(n * N)
    for i in range(n):
        j = (i + 1) % n
        op[i * N:(i + 1) * N, j * N:(j + 1) * N] += np.eye(N) + gm[i]
    return op


def dense_energy(state, g) -> tuple[float, float]:
    """The reference H_int by dense expm, and ||expm(D) phi|| / 2N: the
    size of the terms that H_int's inner product sums, which bounds |H_int|
    (||phi|| = 1)."""
    v = state.phi.ravel()
    w = expm(dense_operator(g)) @ v
    return float(-(v @ w) / (2.0 * state.N)), float(np.linalg.norm(w) / (2.0 * state.N))


@pytest.mark.parametrize("n,N,seed", gauge_cases)
def test_gauge_invariance_of_hamiltonian(n, N, seed):
    state = NeuralState.random(n, N, seed=seed)
    g = GlialField.random(n, N, seed=seed + 1000, scale=0.5)
    o = GaugeTransformation.random(n, N, seed=seed + 2000)
    h1 = hamiltonian_full(state, g, h0=0.25)
    state2, g2 = gauge_transform(state, g, o)
    h2 = hamiltonian_full(state2, g2, h0=0.25)
    assert abs(h1 - h2) < 1e-10


@PROPERTY
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.floats(0.0, 2.0))
def test_gauge_invariance_property(n, N, seed, scale):
    state = NeuralState.random(n, N, seed=seed)
    g = GlialField.random(n, N, seed=seed + 1, scale=scale)
    o = GaugeTransformation.random(n, N, seed=seed + 2)
    state2, g2 = gauge_transform(state, g, o)
    h1 = hamiltonian_full(state, g)
    assert hamiltonian_full(state2, g2) == pytest.approx(h1, rel=1e-10, abs=1e-12)


@PROPERTY
@given(st.integers(1, 9), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.floats(0.0, 3.0))
@example(2, 5, 17, 1.5)
@example(8, 8, 23, 2.0)
def test_site_fourier_energy_matches_dense_expm(n, N, seed, scale):
    # the same connection at every site: the closed form against the dense
    # exp(D), three states at once; the explicit even n carry the unpaired
    # k = n/2 mode, n = 8 is the benchmark's ring
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((N, N))
    g = scale * (r - r.T) / 2.0
    x = rng.standard_normal((3, n, N))
    x /= np.linalg.norm(x, axis=(1, 2), keepdims=True)
    field = GlialField(np.broadcast_to(g, (n, N, N)).copy())
    dense = [dense_energy(NeuralState(phi), field)[0] for phi in x]
    lam, v = np.linalg.eigh(1j * g)
    assert _uniform_ring_energies(x, lam, v) == pytest.approx(dense, rel=1e-12)
    if n == 1:
        reduced = [ek_reduced_hamiltonian(phi[0], g) for phi in x]
        assert reduced == pytest.approx(dense, rel=1e-12)


@PROPERTY
@given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2**32 - 1),
       st.floats(0.0, 3.0))
@example(16, 16, 0, 3.0)
@example(15, 6, 3477905859, 2.6075811465740446)
def test_hamiltonian_full_matches_dense_expm(n, N, seed, scale):
    # block-shift Taylor steps against the dense expm, nN <= 256.  The bound
    # is relative to the terms' size, not to |H_int|: where they cancel
    # (the second example, |H_int| = 3e-4 of them), both methods are
    # about 3e-13 of |H_int| from the exact value
    state = NeuralState.random(n, N, seed=seed)
    g = GlialField.random(n, N, seed=seed + 1, scale=scale)
    want, size = dense_energy(state, g)
    assert abs(hamiltonian_full(state, g) - want) <= 1e-13 * size


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 2**32 - 1))
@example(1, 2, 0)
@example(2, 4, 2379560412)
def test_hamiltonian_full_at_large_norm(n, N, seed):
    # g_scale 30, where exp(S) grows to 1e24 of phi.  Dense expm itself is
    # off there by up to 2.4e-12 of the terms' size (1.4e-12 in the second
    # example), so it bounds the Taylor steps at 1e-11; the site-Fourier
    # closed form of a uniform connection bounds them at 1e-13
    state = NeuralState.random(n, N, seed=seed)
    g = GlialField.random(n, N, seed=seed + 1, scale=30.0)
    want, size = dense_energy(state, g)
    assert abs(hamiltonian_full(state, g) - want) <= 1e-11 * size
    uniform = GlialField(np.broadcast_to(g.matrices[0], (n, N, N)).copy())
    lam, v = np.linalg.eigh(1j * g.matrices[0])
    want = _uniform_ring_energies(state.phi[None], lam, v)[0]
    size = dense_energy(state, uniform)[1]
    assert abs(hamiltonian_full(state, uniform) - want) <= 1e-13 * size


def test_difference_operator_conjugates():
    # the gauge rule makes the reference D conjugate, D' = O D O^T, and
    # that D is the covariant difference
    n, N = 6, 3
    state = NeuralState.random(n, N, seed=5)
    g = GlialField.random(n, N, seed=6, scale=0.4)
    o = GaugeTransformation.random(n, N, seed=7)
    d1 = dense_operator(g)
    np.testing.assert_allclose(covariant_difference(state, g).ravel(),
                               d1 @ state.phi.ravel(), rtol=0, atol=1e-15)
    _, g2 = gauge_transform(state, g, o)
    d2 = dense_operator(g2)
    ohat = np.zeros((n * N, n * N))
    for i in range(n):
        ohat[i * N:(i + 1) * N, i * N:(i + 1) * N] = o.matrices[i]
    assert np.max(np.abs(d2 - ohat @ d1 @ ohat.T)) < 1e-12


def test_covariant_difference_vanishes_for_aligned_ring():
    # constant field, zero connection: neighbours cancel exactly
    n, N = 5, 3
    phi = np.tile(np.array([1.0, 0.0, 0.0]), (n, 1)) / np.sqrt(n)
    state = NeuralState(phi)
    d = covariant_difference(state, GlialField.zero(n, N))
    assert np.max(np.abs(d)) == 0.0


def test_single_site_reduction_is_exact():
    # on a one-site ring the covariant difference equals the connection
    # acting alone, so the reduced hamiltonian is not an approximation
    state = NeuralState.random(1, 4, seed=11)
    g = GlialField.random(1, 4, seed=12, scale=0.7)
    h_full = hamiltonian_full(state, g, h0=0.3)
    h_red = ek_reduced_hamiltonian(state.phi[0], g.matrices[0], h0=0.3)
    assert h_full == pytest.approx(h_red, abs=1e-14)


def test_transformed_connection_need_not_be_antisymmetric():
    state = NeuralState.random(3, 2, seed=21)
    g = GlialField.random(3, 2, seed=22, scale=0.5)
    o = GaugeTransformation.random(3, 2, seed=23)
    _, g2 = gauge_transform(state, g, o)
    assert isinstance(g2, np.ndarray)
    # generically the conjugated connection picks up a symmetric part
    asym = np.max(np.abs(g2 + np.swapaxes(g2, 1, 2)))
    assert asym > 1e-6


def test_ek_comparison_shrinks_with_components():
    meds = []
    for N in (4, 32):
        comp = ek_comparison(n=4, N=N, beta=1.0, draws=8, samples=2000,
                             seed=SEED)
        assert isinstance(comp, EkComparison)
        assert not comp.starved
        meds.append(comp.median_abs_discrepancy)
    assert meds[1] < meds[0]


def test_ek_trend_continues_to_large_N():
    # criterion 8 covers N = 4..32 with N * median ~ 0.35; the discrepancy
    # keeps falling like 1/N beyond it
    meds = []
    for N in (64, 128, 256):
        comp = ek_comparison(n=4, N=N, beta=1.0, draws=8, samples=2000,
                             seed=SEED)
        assert not comp.starved
        assert 0.3 < N * comp.median_abs_discrepancy < 0.4
        meds.append(comp.median_abs_discrepancy)
    assert meds[0] > meds[1] > meds[2]


def test_ek_comparison_one_eigh_per_draw(monkeypatch):
    # the ring and the one-site reduction share each draw's eigenpairs
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    ek_comparison(n=4, N=8, beta=1.0, draws=3, samples=50, seed=9)
    assert calls == [(8, 8)] * 3


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def _openblas_threads_or_skip():
    blas = network._openblas_threads()
    if blas is None:
        pytest.skip("numpy's OpenBLAS exports no thread-count setter")
    return blas


def test_ek_comparison_same_bytes_on_one_and_two_threads(monkeypatch):
    _openblas_threads_or_skip()
    workers = []
    each = network._each_draw

    def spy(draw, draws, count):
        workers.append(count)
        return each(draw, draws, count)

    monkeypatch.setattr(network, "_each_draw", spy)
    out = []
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        c = ek_comparison(n=3, N=8, beta=1.0, draws=5, samples=300, seed=4)
        out.append((c.discrepancies.tobytes(), c.std_errors.tobytes(),
                    c.median_abs_discrepancy, c.se))
    assert workers == [1, 2]
    assert out[0] == out[1]


@pytest.mark.parametrize("n", [3, 1])
@pytest.mark.parametrize("samples", [network._EK_ROWS + 1,
                                     2 * network._EK_ROWS - 1])
def test_sphere_energies_row_blocks_match_one_block(n, samples):
    # the row blocks across their edges against one evaluation of all the
    # samples; a block-edge slip would move an energy by O(1)
    N = 6
    r = np.random.default_rng(2).standard_normal((N, N))
    lam, v = np.linalg.eigh(1j * (r - r.T))
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    e = network._sphere_energies(rng, samples, n, N, lam, v)
    x = ref_rng.standard_normal((samples, n * N))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    np.testing.assert_allclose(
        e, _uniform_ring_energies(x.reshape(samples, n, N), lam, v),
        rtol=1e-14, atol=0)
    assert rng.random() == ref_rng.random()     # as many rows drawn


def test_ek_comparison_holds_and_restores_blas_threads(monkeypatch):
    get, put = _openblas_threads_or_skip()
    seen = []
    energies = network._sphere_energies

    def spy(*args):
        seen.append(get())
        return energies(*args)

    monkeypatch.setattr(network, "_sphere_energies", spy)
    _usable_cpus(monkeypatch, 2)
    old = get()
    put(2)
    try:
        ek_comparison(n=3, N=4, beta=1.0, draws=3, samples=20, seed=1)
        assert get() == 2
    finally:
        put(old)
    assert seen == [1] * 6


def test_ek_comparison_worker_error_reaches_caller(monkeypatch):
    # a warning promoted to an error (pytest runs with filterwarnings =
    # error) in the helper thread is raised by the call, and BLAS gets its
    # thread count back
    get, put = _openblas_threads_or_skip()
    threads = []
    energies = network._sphere_energies

    def spy(*args):
        threads.append(threading.current_thread())
        if threading.current_thread() is threading.main_thread():
            time.sleep(0.05)                # leave a draw to the helper
        else:
            warnings.warn("from a helper thread", RuntimeWarning)
        return energies(*args)

    monkeypatch.setattr(network, "_sphere_energies", spy)
    _usable_cpus(monkeypatch, 2)
    old = get()
    put(2)
    try:
        with pytest.raises(RuntimeWarning, match="from a helper thread"):
            ek_comparison(n=3, N=4, beta=1.0, draws=4, samples=20, seed=1)
        assert get() == 2
    finally:
        put(old)
    assert any(t is not threading.main_thread() for t in threads)


def test_each_draw_raises_the_lowest_failing_draw():
    # draw 1 fails first, on the helper thread; the serial loop would have
    # stopped at draw 0
    def draw(d):
        if d == 0:
            time.sleep(0.05)
        raise ValueError(str(d))

    for _ in range(3):
        with pytest.raises(ValueError, match="^0$"):
            network._each_draw(draw, 6, 2)


def test_each_draw_stress_hands_out_each_draw_once():
    done = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        network._each_draw(done.append, 3000, 4)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(done) == list(range(3000))


def test_ek_reduced_rejects_symmetric_connection():
    with pytest.raises(ValueError):
        ek_reduced_hamiltonian(np.array([0.6, 0.8]), np.ones((2, 2)))


def test_ek_comparison_deterministic():
    a = ek_comparison(n=4, N=8, beta=1.0, draws=3, samples=500, seed=9)
    b = ek_comparison(n=4, N=8, beta=1.0, draws=3, samples=500, seed=9)
    assert np.array_equal(a.discrepancies, b.discrepancies)


def test_ek_starvation_flag():
    # strong couplings at low temperature make exp(-beta H) heavy-tailed,
    # so two samples per estimate cannot resolve the reduction gap
    with pytest.warns(UserWarning):
        comp = ek_comparison(n=4, N=8, beta=8.0, draws=3, samples=2,
                             seed=SEED, g_scale=4.0)
    assert comp.starved


def test_hebbian_couplings_shape_and_diagonal():
    rng = np.random.default_rng(SEED)
    pats = np.where(rng.random((3, 12)) < 0.5, -1.0, 1.0)
    c = hebbian_couplings(pats, h0=0.1)
    assert c.J.shape == (12, 12)
    assert np.max(np.abs(np.diag(c.J))) == 0.0
    assert np.max(np.abs(c.J - c.J.T)) == 0.0
    with pytest.raises(ValueError):
        hebbian_couplings(np.array([[0.5, 1.0]]), 0.0)


def test_stored_pattern_energy_exact_minus_half():
    # with the self-coupling retained, J = xi xi^T / n puts the stored
    # pattern at energy exactly -1/2 (all entries dyadic at n = 16)
    rng = np.random.default_rng(4)
    xi = np.where(rng.random(16) < 0.5, -1.0, 1.0)
    couplings = QuenchedCouplings(np.outer(xi, xi) / 16.0, H0=0.0)
    e = hamiltonian_quenched(xi / 4.0, couplings)
    assert e == -0.5


def test_hamiltonian_quenched_offset():
    xi = np.ones(4)
    couplings = QuenchedCouplings(np.outer(xi, xi) / 4.0, H0=2.0)
    assert hamiltonian_quenched(xi / 2.0, couplings) == pytest.approx(-0.5 + 2.0)


def test_rolldown_stored_pattern_is_fixed_point():
    rng = np.random.default_rng(8)
    pats = np.where(rng.random((2, 16)) < 0.5, -1.0, 1.0)
    couplings = hebbian_couplings(pats, h0=0.0)
    res = rolldown(pats[0], couplings)
    assert res.converged
    assert res.sweeps <= 1
    assert np.array_equal(res.final_state, pats[0])


def test_rolldown_recovers_one_flipped_bit():
    rng = np.random.default_rng(16)
    xi = np.where(rng.random(16) < 0.5, -1.0, 1.0)
    couplings = hebbian_couplings(xi[None, :], h0=0.0)
    for k in range(16):
        start = xi.copy()
        start[k] = -start[k]
        res = rolldown(start, couplings)
        assert np.array_equal(res.final_state, xi)


@pytest.mark.parametrize("seed", range(100))
def test_rolldown_energy_never_increases(seed):
    rng = np.random.default_rng(seed)
    pats = np.where(rng.random((2, 16)) < 0.5, -1.0, 1.0)
    couplings = hebbian_couplings(pats, h0=0.0)
    start = np.where(rng.random(16) < 0.5, -1.0, 1.0)
    res = rolldown(start, couplings)
    diffs = np.diff(res.energies)
    assert np.all(diffs <= 1e-12)


def test_rolldown_tie_promotes_plus_one():
    # zero couplings: every field is zero, ties everywhere resolve to +1
    couplings = QuenchedCouplings(np.zeros((4, 4)), H0=0.0)
    res = rolldown(np.array([-1.0, -1.0, 1.0, -1.0]), couplings)
    assert np.array_equal(res.final_state, np.ones(4))


def test_entropy_rate_alternating_pattern():
    hist = np.tile(np.array([[1.0, -1.0], [-1.0, 1.0]]), (20, 1))
    assert entropy_rate(hist, 1) == pytest.approx(1.0)
    # two distinct windows of length 2, nearly equal weights
    assert entropy_rate(hist, 2) == pytest.approx(0.5, abs=0.01)


def test_entropy_rate_constant_history_zero():
    hist = np.ones((50, 4))
    assert entropy_rate(hist, 1) == 0.0


def test_entropy_undersampled_warning():
    rng = np.random.default_rng(2)
    hist = np.where(rng.random((40, 10)) < 0.5, -1.0, 1.0)
    with pytest.warns(UserWarning):
        entropy_rate(hist, 2)


def test_window_counts_total():
    hist = np.where(np.random.default_rng(3).random((30, 4)) < 0.5, -1.0, 1.0)
    counts = window_counts(hist, 5)
    assert sum(counts.values()) == 30 - 5 + 1


def test_observer_triple_roundtrip():
    system = QuantumSystem.uniform_superposition([0.0, 1.0])
    traj = evolve_analytic(system, ClockModel(1.0, 0.1), steps=300)
    record = retention_time(traj)
    rng = np.random.default_rng(31)
    pats = np.where(rng.random((1, 8)) < 0.5, -1.0, 1.0)
    couplings = hebbian_couplings(pats, h0=0.0)
    hist = np.tile(pats[0], (40, 1))
    trip = observer_triple(record, hist, couplings)
    assert trip.tau == pytest.approx(200.0)
    assert not trip.is_trivial
    with pytest.raises(ValueError):
        observer_triple(None, hist, couplings)


def test_neural_state_validation():
    with pytest.raises(ValueError):
        NeuralState(np.ones((3, 2)))          # not unit norm
    st = NeuralState.random(3, 2, seed=0)
    assert np.linalg.norm(st.phi) == pytest.approx(1.0)


def test_glial_field_antisymmetry_enforced():
    bad = np.ones((2, 3, 3))
    with pytest.raises(ValueError):
        GlialField(bad)
    g = GlialField.random(2, 3, seed=1)
    assert np.max(np.abs(g.matrices + np.swapaxes(g.matrices, 1, 2))) < 1e-12


def test_gauge_transformation_orthogonality():
    o = GaugeTransformation.random(5, 4, seed=2)
    for m in o.matrices:
        assert np.max(np.abs(m @ m.T - np.eye(4))) < 1e-12
    o1 = GaugeTransformation.random(4, 1, seed=3)
    assert set(np.unique(o1.matrices)) <= {-1.0, 1.0}


def test_gauge_transformation_names_first_bad_site():
    o = GaugeTransformation.random(5, 3, seed=2).matrices.copy()
    o[4, 0, 0] = 2.0
    o[2] *= 1.0 + 1e-11
    with pytest.raises(ValueError, match="site 2 is not orthogonal"):
        GaugeTransformation(o)
    o[2] = np.nan
    with pytest.raises(ValueError, match="site 2 is not orthogonal"):
        GaugeTransformation(o)


def test_hamiltonian_full_refusals():
    state = NeuralState.random(3, 2, seed=0)
    for g in (GlialField.random(3, 3, seed=1), np.zeros((2, 2, 2)), np.zeros((3, 2))):
        for f in (hamiltonian_full, covariant_difference):
            with pytest.raises(ValueError, match="does not match the state"):
                f(state, g)
    with pytest.raises(ValueError, match="finite"):
        hamiltonian_full(state, np.full((3, 2, 2), np.inf))
    # exp(S) phi past the float range at norm 4917
    with pytest.raises(FloatingPointError, match="overflows"):
        hamiltonian_full(state, GlialField.random(3, 2, seed=1, scale=1e4))
    # one site never overflows, and its steps grow with the norm
    with pytest.raises(ValueError, match="more than 10000 Taylor steps"):
        hamiltonian_full(NeuralState.random(1, 2, seed=0),
                         GlialField.random(1, 2, seed=1, scale=1e6))


def test_gauge_transformation_is_scipy_haar_draw():
    # the same QR-and-sign algorithm on the same stream as ortho_group
    from scipy.stats import ortho_group
    rng = np.random.default_rng(5)
    ref = np.stack([ortho_group.rvs(3, random_state=rng) for _ in range(4)])
    assert np.array_equal(GaugeTransformation.random(4, 3, seed=5).matrices, ref)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40))
def test_median_equals_numpy_median(values):
    # ek_comparison's median, which avoids np.median's import of numpy.ma
    x = np.array(values)
    assert _median(x) == float(np.median(x))
