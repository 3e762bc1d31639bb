"""Gauge-invariant network Hamiltonian for coupled neuron-glia degrees of freedom.

The state phi is an n x N real matrix: site index i for the neurons, a
temporal index k of length N carrying an O(N) gauge redundancy that is
local in i.  The antisymmetric connection G_i enters through a covariant
forward difference (periodic in the site index)

    (D phi)_i = (1 + G_i) phi_{i+1} - phi_i,

which as an (nN) x (nN) operator transforms by exact conjugation,
D' = O D O^T, under

    phi_i' = O_i phi_i,
    G_i'   = O_i G_i O_{i+1}^T - (O_{i+1} - O_i) O_{i+1}^T,

the lattice form of the continuum rule G' = O G O^-1 - (dO) O^-1.  The
interaction Hamiltonian

    H_int = -(1/2N) <<phi, exp(D) phi>> + H0

is therefore exactly invariant.  hamiltonian_full evaluates it for any
connection by block shifts, with no (nN) x (nN) matrix.  One site drops
the difference part, exp(D) -> exp(G): the quenched single-site reduction.

The large-N comparison (ek_comparison) puts the same G at every site.
Then D = -I + S (x) (1 + G), with S the cyclic site shift, is block-
circulant and exp(D) is diagonal in site-Fourier modes times the
eigenvectors of the Hermitian iG.  One N x N eigendecomposition per draw
gives the ring energies and, as the n = 1 case, the reduced ones.  The
samples are real, so site modes k and n - k contribute complex-conjugate
terms and only the n//2 + 1 modes k <= n/2 are evaluated, by real matrix
products: about samples (n//2 + 1) (2nN + 4N^2) multiply-adds plus the
O(N^3) eigendecomposition, with no (nN) x (nN) matrix.  Each draw samples
its spheres a fixed number of rows at a time, so memory does not grow with
the samples, and the independent draws run on up to two threads with
numpy's OpenBLAS held at one thread; the results do not depend on the
number of threads.

The quenched Hopfield limit keeps an n x n coupling matrix J and the
energy -(1/2) <phi, J phi> + H0 on unit n-vectors.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NeuralState",
    "GlialField",
    "GaugeTransformation",
    "QuenchedCouplings",
    "ObserverTriple",
    "RolldownResult",
    "EkComparison",
    "covariant_difference",
    "hamiltonian_full",
    "gauge_transform",
    "ek_reduced_hamiltonian",
    "ek_comparison",
    "hamiltonian_quenched",
    "hebbian_couplings",
    "rolldown",
    "plugin_entropy_rate",
    "entropy_rate",
    "window_counts",
    "observer_triple",
]

#: hamiltonian_full's largest norm of S/s per Taylor step, and most steps:
#: an exp(S) phi that never overflows (one site) takes time in proportion to b
_TAYLOR_THETA = 4.0
_MAX_TAYLOR_STEPS = 10_000

#: rows of sphere samples that ek_comparison draws and evaluates at a time.
#: A product's last bits depend on how BLAS splits its rows, so this is a
#: constant.  A multiple of 4, it puts each row in the same kernel of
#: OpenBLAS's four-rows-at-a-time matrix-vector product as one product of all
#: the samples does, which keeps the bytes of the golden and benchmark runs.
_EK_ROWS = 128


class NeuralState:
    """Unit-Frobenius-norm n x N state matrix."""

    def __init__(self, phi: np.ndarray):
        phi = np.asarray(phi, dtype=float)
        if phi.ndim != 2:
            raise ValueError("phi must be an n x N matrix")
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi must be finite")
        norm = np.linalg.norm(phi)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"phi must have unit Frobenius norm, got {norm}")
        self.phi = phi

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def N(self) -> int:
        return self.phi.shape[1]

    @staticmethod
    def random(n: int, N: int, seed: int) -> "NeuralState":
        rng = np.random.default_rng(seed)
        phi = rng.standard_normal((n, N))
        return NeuralState(phi / np.linalg.norm(phi))


class GlialField:
    """Per-site antisymmetric N x N connection matrices, shape (n, N, N)."""

    def __init__(self, matrices: np.ndarray):
        g = np.asarray(matrices, dtype=float)
        if g.ndim != 3 or g.shape[1] != g.shape[2]:
            raise ValueError("expected shape (n, N, N)")
        if not (np.max(np.abs(g + np.transpose(g, (0, 2, 1)))) <= 1e-12):
            raise ValueError("connection matrices must be antisymmetric")
        self.matrices = g

    @property
    def n(self) -> int:
        return self.matrices.shape[0]

    @property
    def N(self) -> int:
        return self.matrices.shape[1]

    @staticmethod
    def zero(n: int, N: int) -> "GlialField":
        return GlialField(np.zeros((n, N, N)))

    @staticmethod
    def random(n: int, N: int, seed: int, scale: float = 1.0) -> "GlialField":
        rng = np.random.default_rng(seed)
        r = rng.standard_normal((n, N, N))
        return GlialField(scale * 0.5 * (r - np.transpose(r, (0, 2, 1))))


class GaugeTransformation:
    """Per-site orthogonal N x N matrices, shape (n, N, N)."""

    def __init__(self, matrices: np.ndarray):
        o = np.asarray(matrices, dtype=float)
        if o.ndim != 3 or o.shape[1] != o.shape[2]:
            raise ValueError("expected shape (n, N, N)")
        dev = np.abs(o @ np.swapaxes(o, 1, 2) - np.eye(o.shape[1]))
        bad = np.flatnonzero(~(np.max(dev, axis=(1, 2)) <= 1e-12))
        if bad.size:
            raise ValueError(f"matrix at site {bad[0]} is not orthogonal")
        self.matrices = o

    @property
    def n(self) -> int:
        return self.matrices.shape[0]

    @staticmethod
    def random(n: int, N: int, seed: int) -> "GaugeTransformation":
        # Haar measure on O(N): QR of a Gaussian draw, columns signed by
        # diag(R) (Mezzadri, Notices AMS 54, 592, 2007)
        q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, N, N)))
        return GaugeTransformation(q * np.sign(r.diagonal(axis1=1, axis2=2))[:, None, :])


def _connection(g, state: NeuralState) -> np.ndarray:
    """G from a GlialField or a raw (possibly non-antisymmetric) array,
    checked to be (n, N, N) for the state's n and N."""
    gm = g.matrices if isinstance(g, GlialField) else np.asarray(g, dtype=float)
    if gm.shape != (state.n, state.N, state.N):
        raise ValueError("connection shape does not match the state")
    return gm


def _shift(x: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """(S x)_i = (1 + G_i) x_{i+1}, periodic in the site index."""
    return np.matmul(blocks, np.roll(x, -1, axis=0)[..., None])[..., 0]


def covariant_difference(state: NeuralState, g) -> np.ndarray:
    """(D phi)_i = (1 + G_i) phi_{i+1} - phi_i, periodic in the site index.

    Linear in phi and identically zero for a constant state with G = 0.
    """
    return _shift(state.phi, np.eye(state.N) + _connection(g, state)) - state.phi


def hamiltonian_full(state: NeuralState, g, h0: float = 0.0) -> float:
    """H_int = -(1/2N) <<phi, exp(D) phi>> + H0, exp(D) phi = e^-1 exp(S) phi
    by s steps of the degree-m Taylor polynomial of S/s (Al-Mohy and Higham,
    SIAM J. Sci. Comput. 33, 488 (2011)).  b = max_i ||1 + G_i||_2 >= ||S||
    is gauge-invariant; s = ceil(b / 4), and m is the least degree with
    x^(m+1)/(m+1)! < 2^-54 at x = b/s, so each step's Taylor tail is below
    2^-53.  Overflow raises FloatingPointError.
    """
    blocks = np.eye(state.N) + _connection(g, state)
    if not np.all(np.isfinite(blocks)):
        raise ValueError("connection must be finite")
    b = float(np.max(np.linalg.norm(blocks, 2, axis=(1, 2))))
    steps = max(1, math.ceil(b / _TAYLOR_THETA))
    if steps > _MAX_TAYLOR_STEPS:
        raise ValueError(f"connection norm {b:.6g} needs more than "
                         f"{_MAX_TAYLOR_STEPS} Taylor steps")
    x = b / steps
    degree, tail = 0, x
    while tail >= 2.0**-54:
        degree += 1
        tail *= x / (degree + 1)
    v = state.phi
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            term = v
            for k in range(1, degree + 1):
                term = _shift(term, blocks) / (k * steps)
                v = v + term
            if not np.all(np.isfinite(v)):
                raise FloatingPointError(f"exp(D) phi overflows at norm {b:.6g}")
    return float(-math.exp(-1.0) * np.vdot(state.phi, v) / (2.0 * state.N) + h0)


def gauge_transform(state: NeuralState, g, o: GaugeTransformation):
    """Apply the site-local O(N) transformation to (phi, G).

    Returns (NeuralState, ndarray): the transformed connection is in
    general not antisymmetric (the inhomogeneous term moves it off the
    algebra), so it comes back as a plain array that every operation here
    accepts.
    """
    gm = _connection(g, state)
    om = o.matrices
    if om.shape != gm.shape:
        raise ValueError("transformation shape does not match the connection")
    phi2 = np.einsum("ik,imk->im", state.phi, om)
    eye = np.eye(state.N)
    g2 = om @ (eye + gm) @ np.swapaxes(np.roll(om, -1, axis=0), 1, 2) - eye
    return NeuralState(phi2), g2


def _uniform_ring_energies(x: np.ndarray, lam: np.ndarray,
                           v: np.ndarray) -> np.ndarray:
    """-(1/2N) <x, exp(D) x> per sample, x shaped (samples, n, N), for a
    ring that carries the same antisymmetric connection G at every site;
    lam and v are the eigenvalues and eigenvectors of the Hermitian iG, as
    np.linalg.eigh(1j * G) returns them.

    D = -I + S (x) (1 + G) with (S x)_i = x_{i+1} is block-circulant: site
    mode k (x_i ~ w_k^i, w_k = exp(2 pi i k / n)) and eigenvector v_j of G
    (G v_j = mu_j v_j, mu_j = -i lam_j) give exp(D) the eigenvalue
    exp(-1 + w_k (1 + mu_j)).  With z_kj = <v_j, x_hat_k> and
    x_hat_k = sum_i w_k^-i x_i / sqrt(n),
    <x, exp(D) x> = sum_kj |z_kj|^2 Re exp(-1 + w_k (1 + mu_j)).  At n = 1,
    D = G.

    x and G are real, so x_hat_{n-k} = conj(x_hat_k) and the k and n - k
    terms of <x, exp(D) x> are complex conjugates: only k = 0 .. n//2 are
    evaluated, each 0 < k < n/2 counted twice.  With x_hat_k = a + ib,
    z_k = [a, b] @ [[Re V, -Im V], [Im V, Re V]] as [Re z_k, Im z_k].
    """
    samples, n, N = x.shape
    m = n // 2 + 1
    k = np.arange(m)
    theta = 2.0 * math.pi * (np.outer(k, np.arange(n)) % n) / n
    # rows cos_k, -sin_k interleaved, so that one matmul leaves [a_k, b_k]
    # side by side: sqrt(n) x_hat_k without a complex copy of the samples
    table = np.empty((2 * m, n))
    table[0::2] = np.cos(theta)
    table[1::2] = -np.sin(theta)
    ab = np.matmul(table, x).reshape(samples, m, 2 * N)
    vblock = np.block([[v.real, -v.imag], [v.imag, v.real]])
    omega = np.exp(2j * math.pi * k / n)
    weight = np.exp(-1.0 + omega[:, None] * (1.0 - 1j * lam)).real
    weight *= np.where((k == 0) | (2 * k == n), 1.0, 2.0)[:, None]
    weight = np.concatenate([weight, weight], axis=1)
    energy = np.zeros(samples)
    # one mode at a time: z for every mode at once would be another array
    # the size of the samples
    for q in range(m):
        z = ab[:, q] @ vblock
        z *= z
        energy += z @ weight[q]
    return -energy / (2.0 * n * N)


def ek_reduced_hamiltonian(phi: np.ndarray, g: np.ndarray, h0: float = 0.0) -> float:
    """Single-site reduction: H_red = -(1/2N) <phi, exp(G) phi> + H0.

    For one periodic site the covariant difference loses its shift part and
    D = G exactly, so this is the n = 1 case of hamiltonian_full.
    """
    phi = np.asarray(phi, dtype=float)
    g = np.asarray(g, dtype=float)
    if phi.ndim != 1 or g.shape != (phi.size, phi.size):
        raise ValueError("expected a length-N vector and an N x N matrix")
    if not (np.max(np.abs(g + g.T)) <= 1e-12):
        raise ValueError("connection matrix must be antisymmetric")
    if not (abs(np.linalg.norm(phi) - 1.0) <= 1e-9):
        raise ValueError("phi must be a unit vector")
    lam, v = np.linalg.eigh(1j * g)
    return float(_uniform_ring_energies(phi[None, None, :], lam, v)[0] + h0)


@dataclass
class EkComparison:
    """Quenched free-energy comparison between the full and reduced models."""

    n: int
    N: int
    beta: float
    discrepancies: np.ndarray          # signed, one per quenched draw
    std_errors: np.ndarray             # Monte Carlo SE per draw
    median_abs_discrepancy: float
    se: float                          # SE accompanying the median (median of SEs)
    starved: bool                      # SE exceeds 10% of the discrepancy


def _log_mean_exp(x: np.ndarray) -> tuple[float, float]:
    """log(mean(exp(x))) and the delta-method standard error of the log."""
    m = np.max(x)
    z = np.exp(x - m)
    mean = float(np.mean(z))
    se_mean = float(np.std(z, ddof=1) / math.sqrt(z.size))
    return m + math.log(mean), se_mean / mean


def _median(x: np.ndarray) -> float:
    """np.median of finite values, without np.median's first-call import of
    numpy.ma (about 16 ms)."""
    s = np.sort(x)
    mid = s.size // 2
    return float(s[mid] if s.size % 2 else 0.5 * (s[mid - 1] + s[mid]))


def _sphere_energies(rng: np.random.Generator, samples: int, n: int, N: int,
                     lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """_uniform_ring_energies of `samples` uniform unit vectors of R^(nN)
    from rng, taken as (n, N) ring states.  The vectors are drawn,
    normalised and evaluated _EK_ROWS rows at a time, so that only the
    energies are held whole."""
    energy = np.empty(samples)
    for start in range(0, samples, _EK_ROWS):
        rows = min(_EK_ROWS, samples - start)
        x = rng.standard_normal((rows, n * N))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        energy[start:start + rows] = _uniform_ring_energies(
            x.reshape(rows, n, N), lam, v)
    return energy


def _openblas_threads():
    """The getter and setter of the thread count of the OpenBLAS that numpy
    loads (the getter bench/run.py reads), or None where that library does
    not export them."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def _each_draw(draw, draws: int, workers: int) -> None:
    """draw(d) for d = 0 .. draws - 1 on `workers` threads, the caller's
    among them; then the exception of the lowest failing draw is raised.

    Draws are handed out in increasing order and none after a failure, so
    every draw below a failed one has been handed out and runs to its end:
    the failure raised is the one the serial loop would raise first.
    """
    lock = threading.Lock()
    todo = iter(range(draws))
    errors: dict[int, Exception] = {}

    def take():
        with lock:
            return None if errors else next(todo, None)

    def work():
        while (d := take()) is not None:
            try:
                draw(d)
            except Exception as exc:        # raised in the caller below
                with lock:
                    errors[d] = exc

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        with lock:
            for _ in todo:                  # an interrupt hands out no more
                pass
        for t in helpers:
            t.join()
    if errors:
        raise errors[min(errors)]


def ek_comparison(n: int, N: int, beta: float, draws: int, samples: int,
                  seed: int, g_scale: float = 1.0) -> EkComparison:
    """Compare log Z_full / n against log Z_red over quenched connections.

    Each draw picks one antisymmetric G (entries ~ g_scale/sqrt(N)),
    replicated over all n sites in the full model and used alone in the
    reduced one.  Partition functions are means of exp(-beta*H) over
    uniform samples of the relevant unit spheres, so beta = 0 gives
    log Z = 0 on both sides identically.  H0 is omitted: it would add
    -beta*H0 to one side and -beta*H0/n to the other and obscure the
    comparison.  A draw whose energies or log Z are not finite (exp(D) or
    exp(-beta*H) past the float range) raises FloatingPointError; where
    several do, the lowest draw is named.

    Each draw has its own SeedSequence stream and samples the spheres
    _EK_ROWS rows at a time, all ring samples before the reduced ones, so
    memory does not grow with `samples`.  Draws run on up to two threads
    (no more than the usable CPUs or the draws), with numpy's OpenBLAS held
    at one thread for the whole call and its count restored on return; the
    results do not depend on the number of threads.  Where that OpenBLAS
    exports no thread-count setter, the draws run in turn.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if n < 1 or N < 1 or draws < 1 or samples < 2:
        raise ValueError("n, N, draws must be >= 1 and samples >= 2")
    streams = np.random.SeedSequence(seed).spawn(draws)
    disc = np.empty(draws)
    ses = np.empty(draws)

    def draw(d):
        rng = np.random.default_rng(streams[d])
        r = rng.standard_normal((N, N))
        g = g_scale * (r - r.T) / (2.0 * math.sqrt(N))
        lam, v = np.linalg.eigh(1j * g)     # shared by ring and reduction
        with np.errstate(over="ignore", invalid="ignore"):
            e_full = _sphere_energies(rng, samples, n, N, lam, v)
            e_red = _sphere_energies(rng, samples, 1, N, lam, v)
            lz_full, se_full = _log_mean_exp(-beta * e_full)
            lz_red, se_red = _log_mean_exp(-beta * e_red)
        disc[d] = lz_full / n - lz_red
        ses[d] = math.hypot(se_full / n, se_red)
        if not (np.all(np.isfinite(e_full)) and np.all(np.isfinite(e_red))
                and math.isfinite(disc[d] + ses[d])):
            raise FloatingPointError(
                f"draw {d} overflows: exp(D) at g_scale {g_scale:.6g} or "
                f"exp(-beta*H) at beta {beta:.6g}")

    # bench/spans.py wraps every __all__ name of this module with one span
    # stack for all threads, so `draw` calls only private helpers
    blas = _openblas_threads()
    if blas is None:
        _each_draw(draw, draws, 1)
    else:
        get, put = blas
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else 1)
        old = get()
        put(1)
        try:
            _each_draw(draw, draws, min(2, cpus, draws))
        finally:
            put(old)

    med = _median(np.abs(disc))
    se = _median(ses)
    starved = se > 0.1 * med
    if starved:
        warnings.warn(f"EK comparison undersampled: SE {se:.2e} exceeds 10% "
                      f"of the median discrepancy {med:.2e}")
    return EkComparison(n=n, N=N, beta=beta, discrepancies=disc,
                        std_errors=ses, median_abs_discrepancy=med, se=se,
                        starved=starved)


@dataclass(frozen=True, eq=False)
class QuenchedCouplings:
    """Symmetric n x n couplings and the energy offset H0."""

    J: np.ndarray
    H0: float = 0.0

    def __post_init__(self):
        j = np.asarray(self.J, dtype=float)
        object.__setattr__(self, "J", j)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ValueError("J must be square")
        if np.max(np.abs(j - j.T)) > 1e-12:
            raise ValueError("J must be symmetric")
        if not np.all(np.isfinite(j)):
            raise ValueError("J must be finite")

    @property
    def n(self) -> int:
        return self.J.shape[0]


def hamiltonian_quenched(phi: np.ndarray, couplings: QuenchedCouplings) -> float:
    """Energy -(1/2) <phi, J phi> + H0 on a unit n-vector."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (couplings.n,):
        raise ValueError("phi must be a length-n vector")
    if not (abs(np.linalg.norm(phi) - 1.0) <= 1e-9):
        raise ValueError("phi must be a unit vector")
    return float(-0.5 * (phi @ couplings.J @ phi) + couplings.H0)


def hebbian_couplings(patterns: np.ndarray, h0: float = 0.0) -> QuenchedCouplings:
    """J = (1/n) sum_mu xi^mu (xi^mu)^T with the diagonal zeroed."""
    pats = np.atleast_2d(np.asarray(patterns, dtype=float))
    if not np.all(np.isin(pats, (-1.0, 1.0))):
        raise ValueError("patterns must be +-1 vectors")
    n = pats.shape[1]
    j = pats.T @ pats / n
    np.fill_diagonal(j, 0.0)
    return QuenchedCouplings(j, h0)


@dataclass
class RolldownResult:
    """Asynchronous descent record: one energy per accepted update."""

    states: list[np.ndarray]           # snapshot after every flip (and start)
    energies: list[float]              # matching energies, non-increasing
    converged: bool
    sweeps: int

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def rolldown(start: np.ndarray, couplings: QuenchedCouplings,
             max_sweeps: int = 100) -> RolldownResult:
    """Asynchronous sign updates in fixed index order until a fixed point.

    s_i <- sign(sum_j J_ij s_j), ties resolved to +1.  Each flip lowers (or
    keeps, on a tie) the energy -(1/2n) s^T J s + H0 of the sqrt(n)-
    normalised state, so the recorded energy sequence is non-increasing
    whenever diag(J) >= 0.  Non-convergence within max_sweeps is reported
    in the result, not raised.
    """
    s = np.asarray(start)
    if s.ndim != 1 or not np.all(np.isin(s, (-1, 1))):
        raise ValueError("start must be a +-1 vector")
    if s.size != couplings.n:
        raise ValueError("start length must match the couplings")
    s = s.astype(float)
    n = s.size
    root = math.sqrt(n)

    def energy(state):
        return hamiltonian_quenched(state / root, couplings)

    states = [s.copy()]
    energies = [energy(s)]
    converged = False
    sweeps = 0
    for sweep in range(max_sweeps):
        sweeps = sweep + 1
        changed = False
        for i in range(n):
            h = float(couplings.J[i] @ s)
            new = 1.0 if h >= 0.0 else -1.0
            if new != s[i]:
                s[i] = new
                changed = True
                states.append(s.copy())
                energies.append(energy(s))
        if not changed:
            converged = True
            break
    return RolldownResult(states=states, energies=energies,
                          converged=converged, sweeps=sweeps)


def window_counts(spike_history: np.ndarray, window: int) -> Counter:
    """Histogram of sliding length-window spike patterns.

    The history is (steps, n) with entries +-1; each window of shape
    (window, n) is hashed by its byte representation.
    """
    hist = np.atleast_2d(np.ascontiguousarray(spike_history, dtype=np.int8))
    if hist.ndim != 2:
        raise ValueError("spike_history must be (steps, n)")
    if not np.all(np.isin(hist, (-1, 1))):
        raise ValueError("spike_history entries must be +-1")
    steps = hist.shape[0]
    if window < 1 or window > steps:
        raise ValueError("window must be in [1, steps]")
    return Counter(hist[k:k + window].tobytes()
                   for k in range(steps - window + 1))


def plugin_entropy_rate(counts: Counter, window: int) -> float:
    """Plug-in Shannon entropy of a window-pattern histogram, bits per step."""
    m = sum(counts.values())
    p = np.array(list(counts.values()), dtype=float) / m
    return float(-np.sum(p * np.log2(p))) / window


def entropy_rate(spike_history: np.ndarray, window: int) -> float:
    """Plug-in Shannon entropy of length-window spike patterns, bits per step.

    Sliding windows are counted and H(window patterns)/window is returned.
    A histogram with fewer than 5 counts per occupied bin on average is
    flagged with a warning (the plug-in estimate is then biased low).
    """
    counts = window_counts(spike_history, window)
    m = sum(counts.values())
    if m / len(counts) < 5.0:
        warnings.warn(f"entropy histogram undersampled: {m} windows over "
                      f"{len(counts)} occupied bins")
    return plugin_entropy_rate(counts, window)


@dataclass(frozen=True, eq=False)
class ObserverTriple:
    """The (retention time, entropy rate, couplings) summary of one run."""

    tau: float | None                  # physical retention time
    retention_steps: int | None
    entropy_bits_per_step: float
    couplings: QuenchedCouplings
    order_parameter: np.ndarray        # mean spike vector over the run

    @property
    def is_trivial(self) -> bool:
        """Retention at or below one step: effectively classical."""
        return self.retention_steps is not None and self.retention_steps <= 1


def observer_triple(record, spike_history: np.ndarray,
                    couplings: QuenchedCouplings, window: int = 1) -> ObserverTriple:
    """Bundle a retention record, a spike history and couplings; no physics.

    ``record`` is a QuantumClassRecord; the entropy rate and the mean spike
    vector are computed from the history.
    """
    if record is None or spike_history is None or couplings is None:
        raise ValueError("all three components are required")
    hist = np.atleast_2d(np.asarray(spike_history))
    return ObserverTriple(
        tau=record.retention_time_physical,
        retention_steps=record.retention_time_steps,
        entropy_bits_per_step=entropy_rate(hist, window),
        couplings=couplings,
        order_parameter=hist.mean(axis=0),
    )
