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

is therefore exactly invariant.  Collapsing all sites to one removes the
difference part, exp(D) -> exp(G): the quenched single-site reduction.
The quenched Hopfield limit keeps an n x n coupling matrix J and the
energy -(1/2) <phi, J phi> + H0 on unit n-vectors.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.stats import ortho_group

__all__ = [
    "NeuralState",
    "GlialField",
    "GaugeTransformation",
    "QuenchedCouplings",
    "ObserverTriple",
    "RolldownResult",
    "EkComparison",
    "covariant_difference",
    "difference_operator",
    "hamiltonian_full",
    "gauge_transform",
    "ek_reduced_hamiltonian",
    "ek_comparison",
    "hamiltonian_quenched",
    "hebbian_couplings",
    "rolldown",
    "entropy_rate",
    "observer_triple",
]

#: refuse to assemble operators larger than this (dense expm cost)
MAX_OPERATOR_DIM = 4096


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

    @property
    def spikes(self) -> np.ndarray:
        """+1 where phi > 0 (a spike), -1 elsewhere."""
        return np.where(self.phi > 0.0, 1, -1)

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
        if np.max(np.abs(g + np.transpose(g, (0, 2, 1)))) > 1e-12:
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

    @staticmethod
    def uniform(g: np.ndarray, n: int) -> "GlialField":
        """The same single-site matrix replicated at every site."""
        g = np.asarray(g, dtype=float)
        return GlialField(np.broadcast_to(g, (n,) + g.shape).copy())


class GaugeTransformation:
    """Per-site orthogonal N x N matrices, shape (n, N, N)."""

    def __init__(self, matrices: np.ndarray):
        o = np.asarray(matrices, dtype=float)
        if o.ndim != 3 or o.shape[1] != o.shape[2]:
            raise ValueError("expected shape (n, N, N)")
        eye = np.eye(o.shape[1])
        for i in range(o.shape[0]):
            if np.max(np.abs(o[i] @ o[i].T - eye)) > 1e-12:
                raise ValueError(f"matrix at site {i} is not orthogonal")
        self.matrices = o

    @property
    def n(self) -> int:
        return self.matrices.shape[0]

    @staticmethod
    def random(n: int, N: int, seed: int) -> "GaugeTransformation":
        rng = np.random.default_rng(seed)
        if N == 1:
            o = rng.choice([-1.0, 1.0], size=(n, 1, 1))
        else:
            o = np.stack([ortho_group.rvs(N, random_state=rng) for _ in range(n)])
        return GaugeTransformation(o)


def _connection(g) -> np.ndarray:
    """Accept a GlialField or a raw (possibly non-antisymmetric) array."""
    if isinstance(g, GlialField):
        return g.matrices
    g = np.asarray(g, dtype=float)
    if g.ndim != 3 or g.shape[1] != g.shape[2]:
        raise ValueError("connection must have shape (n, N, N)")
    return g


def covariant_difference(state: NeuralState, g) -> np.ndarray:
    """(D phi)_i = (1 + G_i) phi_{i+1} - phi_i, periodic in the site index.

    Linear in phi and identically zero for a constant state with G = 0.
    """
    gm = _connection(g)
    phi = state.phi
    if gm.shape[0] != state.n or gm.shape[1] != state.N:
        raise ValueError("connection shape does not match the state")
    nxt = np.roll(phi, -1, axis=0)
    # row-vector form of (1 + G_i) phi_{i+1}
    return nxt + np.einsum("ik,imk->im", nxt, gm) - phi


def difference_operator(g) -> np.ndarray:
    """Assemble D as a dense (nN) x (nN) matrix acting on phi.ravel()."""
    gm = _connection(g)
    n, N = gm.shape[0], gm.shape[1]
    dim = n * N
    if dim > MAX_OPERATOR_DIM:
        raise ValueError(f"operator dimension {dim} exceeds {MAX_OPERATOR_DIM}")
    op = -np.eye(dim)
    eye = np.eye(N)
    for i in range(n):
        j = (i + 1) % n
        op[i * N:(i + 1) * N, j * N:(j + 1) * N] += eye + gm[i]
    return op


def hamiltonian_full(state: NeuralState, g, h0: float = 0.0) -> float:
    """H_int = -(1/2N) <<phi, exp(D) phi>> + H0 via dense expm."""
    op = difference_operator(g)
    if state.n * state.N != op.shape[0]:
        raise ValueError("state and connection dimensions disagree")
    v = state.phi.ravel()
    return float(-(v @ expm(op) @ v) / (2.0 * state.N) + h0)


def gauge_transform(state: NeuralState, g, o: GaugeTransformation):
    """Apply the site-local O(N) transformation to (phi, G).

    Returns (NeuralState, ndarray): the transformed connection is in
    general not antisymmetric (the inhomogeneous term moves it off the
    algebra), so it comes back as a plain array that every operation here
    accepts.
    """
    gm = _connection(g)
    om = o.matrices
    if om.shape != gm.shape:
        raise ValueError("transformation shape does not match the connection")
    if om.shape[0] != state.n or om.shape[1] != state.N:
        raise ValueError("transformation shape does not match the state")
    phi2 = np.einsum("ik,imk->im", state.phi, om)
    o_next = np.roll(om, -1, axis=0)
    eye = np.eye(state.N)
    g2 = np.einsum("iab,ibc,idc->iad", om, eye + gm, o_next) - eye
    return NeuralState(phi2), g2


def ek_reduced_hamiltonian(phi: np.ndarray, g: np.ndarray, h0: float = 0.0) -> float:
    """Single-site reduction: H_red = -(1/2N) <phi, exp(G) phi> + H0.

    For one periodic site the covariant difference loses its shift part and
    D = G exactly, so this is the n = 1 case of hamiltonian_full.
    """
    phi = np.asarray(phi, dtype=float)
    g = np.asarray(g, dtype=float)
    if phi.ndim != 1 or g.shape != (phi.size, phi.size):
        raise ValueError("expected a length-N vector and an N x N matrix")
    if abs(np.linalg.norm(phi) - 1.0) > 1e-9:
        raise ValueError("phi must be a unit vector")
    N = phi.size
    return float(-(phi @ expm(g) @ phi) / (2.0 * N) + h0)


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


def ek_comparison(n: int, N: int, beta: float, draws: int, samples: int,
                  seed: int, g_scale: float = 1.0) -> EkComparison:
    """Compare log Z_full / n against log Z_red over quenched connections.

    Each draw picks one antisymmetric G (entries ~ g_scale/sqrt(N)),
    replicated over all n sites in the full model and used alone in the
    reduced one.  Partition functions are means of exp(-beta*H) over
    uniform samples of the relevant unit spheres, so beta = 0 gives
    log Z = 0 on both sides identically.  H0 is omitted: it would add
    -beta*H0 to one side and -beta*H0/n to the other and obscure the
    comparison.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if n < 1 or N < 1 or draws < 1 or samples < 2:
        raise ValueError("n, N, draws must be >= 1 and samples >= 2")
    streams = np.random.SeedSequence(seed).spawn(draws)
    disc = np.empty(draws)
    ses = np.empty(draws)
    for d in range(draws):
        rng = np.random.default_rng(streams[d])
        r = rng.standard_normal((N, N))
        g = g_scale * (r - r.T) / (2.0 * math.sqrt(N))
        m_red = expm(g)
        m_full = expm(difference_operator(GlialField.uniform(g, n)))

        x = rng.standard_normal((samples, n * N))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        e_full = -np.einsum("sd,sd->s", x, x @ m_full.T) / (2.0 * N)
        y = rng.standard_normal((samples, N))
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        e_red = -np.einsum("sd,sd->s", y, y @ m_red.T) / (2.0 * N)

        lz_full, se_full = _log_mean_exp(-beta * e_full)
        lz_red, se_red = _log_mean_exp(-beta * e_red)
        disc[d] = lz_full / n - lz_red
        ses[d] = math.hypot(se_full / n, se_red)

    med = float(np.median(np.abs(disc)))
    se = float(np.median(ses))
    starved = se > 0.1 * med
    if starved:
        warnings.warn(f"EK comparison undersampled: SE {se:.2e} exceeds 10% "
                      f"of the median discrepancy {med:.2e}")
    return EkComparison(n=n, N=N, beta=beta, discrepancies=disc,
                        std_errors=ses, median_abs_discrepancy=med, se=se,
                        starved=starved)


@dataclass(frozen=True)
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
    if abs(np.linalg.norm(phi) - 1.0) > 1e-9:
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
    p = np.array(list(counts.values()), dtype=float) / m
    h_window = float(-np.sum(p * np.log2(p)))
    return h_window / window


@dataclass(frozen=True)
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

    def to_rows(self) -> tuple[list[str], list[tuple]]:
        """Flat (columns, rows) form that round-trips through 17-digit CSV."""
        n = self.couplings.n
        cols = ["field", "index", "value"]
        rows: list[tuple] = [
            ("tau", 0, math.nan if self.tau is None else self.tau),
            ("retention_steps", 0,
             -1 if self.retention_steps is None else self.retention_steps),
            ("entropy_bits_per_step", 0, self.entropy_bits_per_step),
            ("h0", 0, self.couplings.H0),
            ("n", 0, n),
        ]
        rows += [("order_parameter", i, float(v))
                 for i, v in enumerate(self.order_parameter)]
        rows += [("J", i * n + j, float(self.couplings.J[i, j]))
                 for i in range(n) for j in range(n)]
        return cols, rows

    @staticmethod
    def from_rows(rows) -> "ObserverTriple":
        by_field: dict[str, dict[int, float]] = {}
        for name, idx, val in rows:
            by_field.setdefault(name, {})[int(idx)] = float(val)
        n = int(by_field["n"][0])
        j = np.empty((n, n))
        for flat, v in by_field["J"].items():
            j[flat // n, flat % n] = v
        order = np.array([by_field["order_parameter"][i] for i in range(n)])
        tau = by_field["tau"][0]
        steps = int(by_field["retention_steps"][0])
        return ObserverTriple(
            tau=None if math.isnan(tau) else tau,
            retention_steps=None if steps < 0 else steps,
            entropy_bits_per_step=by_field["entropy_bits_per_step"][0],
            couplings=QuenchedCouplings(j, by_field["h0"][0]),
            order_parameter=order,
        )


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
