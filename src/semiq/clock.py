"""Dephasing of quantum superpositions driven by a stochastic clock.

Physical time advances in discrete ticks delta_t = mu_k + (Gaussian noise of
width sigma).  Averaging the unitary evolution over the noise multiplies
each density-matrix element by the characteristic function of every tick,
so after k ticks, with w_ij = (E_i - E_j)/hbar and T_k = mu_1 + ... + mu_k,

    rho_ij(k) = rho_ij(0) * exp(-1j*w_ij*T_k - k * w_ij**2 * sigma**2 / 2).

The Monte Carlo ensemble replaces each tick's factor by its sample mean c(k)
and takes rho(k) = rho(0) * c(1) * ... * c(k) elementwise.  Populations are
untouched; superpositions decay at a rate set only by the dimensionless
products w*mu and w*sigma, which is what groups systems into equivalence
classes under the rescaling
(energies, mu, sigma) -> (lam*energies, mu/lam, sigma/lam).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ClockModel",
    "QuantumSystem",
    "CoherenceTrajectory",
    "QuantumClassRecord",
    "Reparametrization",
    "evolve_analytic",
    "evolve_monte_carlo",
    "retention_time",
    "rescale_class",
    "reparametrize_events",
    "classify",
]

DEFAULT_THRESHOLD = math.exp(-1.0)

#: relative slack when comparing a coherence ratio against the threshold, so
#: that a ratio landing exactly on the threshold counts as crossed
_CROSSING_SLACK = 1e-9

#: classify links records whose damping profiles agree to within this
_PROFILE_TOL = 1e-9


class ClockModel:
    """Tick statistics of the clock.

    ``mean_increment`` is either a constant mu0 (the broken-symmetry case,
    where every tick has the same mean) or a function of the step index.
    ``fluctuation_std`` is the width sigma of the Gaussian tick noise.
    """

    def __init__(self, mean_increment: float | Callable[[int], float],
                 fluctuation_std: float):
        if not (fluctuation_std >= 0 and math.isfinite(fluctuation_std)):
            raise ValueError("fluctuation_std must be finite and >= 0")
        if callable(mean_increment):
            self._mu = mean_increment
        else:
            mu0 = float(mean_increment)
            if not (mu0 > 0 and math.isfinite(mu0)):
                raise ValueError("constant mean increment must be positive")
            self._mu = None
            self.mu0 = mu0
        self.fluctuation_std = float(fluctuation_std)

    def mean(self, k: int) -> float:
        """Mean increment of tick k."""
        if self._mu is None:
            return self.mu0
        mu = float(self._mu(k))
        if not (mu > 0 and math.isfinite(mu)):
            raise ValueError(f"mean increment at step {k} must be positive, got {mu}")
        return mu

    def means(self, steps: int) -> np.ndarray:
        if steps < 0:
            raise ValueError("steps must be non-negative")
        return np.array([self.mean(k) for k in range(steps)])


def _tick_times(mus: np.ndarray) -> np.ndarray:
    """T_k = mu_1 + ... + mu_k for k = 0 .. steps; ValueError past the
    float range."""
    with np.errstate(over="ignore"):
        times = np.concatenate(([0.0], np.cumsum(mus)))
    if not math.isfinite(times[-1]):
        raise ValueError(f"clock time T_k is not finite at tick "
                         f"{np.argmax(np.isinf(times))}")
    return times


def _refuse_pair(values: np.ndarray, what: str) -> None:
    """ValueError naming the first levels i < j, in row-major order, at
    which the (d, d) matrix values is not finite."""
    bad = np.argwhere(~np.isfinite(np.triu(values, 1)))
    if bad.size:
        raise ValueError(f"{what} is not finite for levels {bad[0, 0]}-{bad[0, 1]}")


def _ticks(rng: np.random.Generator, means: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian tick durations around ``means``; non-positive draws are redrawn."""
    draws = rng.normal(means, sigma)
    bad = draws <= 0.0
    while np.any(bad):
        draws[bad] = rng.normal(means[bad], sigma)
        bad = draws <= 0.0
    return draws


class QuantumSystem:
    """Finite-level system with fixed energies and an initial density matrix."""

    def __init__(self, energies: Sequence[float], hbar: float,
                 initial_density: np.ndarray):
        energies = np.asarray(energies, dtype=float)
        if energies.ndim != 1 or energies.size < 2:
            raise ValueError("need at least two energy levels")
        if not np.all(np.isfinite(energies)):
            raise ValueError("energies must be finite")
        if not (hbar > 0 and math.isfinite(hbar)):
            raise ValueError("hbar must be positive")
        rho = np.asarray(initial_density, dtype=complex)
        d = energies.size
        if rho.shape != (d, d):
            raise ValueError(f"density matrix must be {d}x{d}")
        # each check written as not (dev <= tol), so that NaN fails it
        if not (np.max(np.abs(rho - rho.conj().T)) <= 1e-12):
            raise ValueError("density matrix must be Hermitian")
        tr = np.trace(rho)
        if not (abs(tr.real - 1.0) <= 1e-12 and abs(tr.imag) <= 1e-12):
            raise ValueError("density matrix must have unit trace")
        if not (np.min(np.linalg.eigvalsh(rho)) >= -1e-12):
            raise ValueError("density matrix must be positive semidefinite")
        self.energies = energies
        self.hbar = float(hbar)
        self.initial_density = rho

    @property
    def dim(self) -> int:
        return self.energies.size

    def omegas(self) -> np.ndarray:
        """Transition frequencies w_ij = (E_i - E_j)/hbar; one past the
        float range raises ValueError naming its levels."""
        e = self.energies
        with np.errstate(over="ignore"):
            w = (e[:, None] - e[None, :]) / self.hbar
        _refuse_pair(w, "transition frequency (E_i - E_j)/hbar")
        return w

    @staticmethod
    def uniform_superposition(energies: Sequence[float], hbar: float = 1.0) -> "QuantumSystem":
        """Pure equal-weight superposition of all levels (maximal coherences)."""
        d = len(energies)
        amp = np.full(d, 1.0 / math.sqrt(d), dtype=complex)
        return QuantumSystem(energies, hbar, np.outer(amp, amp.conj()))


class CoherenceTrajectory:
    """Step-indexed history of the ensemble-averaged density matrix.

    ``times[k]`` is the expected physical time after k ticks and
    ``event_log`` lists every tick at which non-unitary damping acted
    (all of them when sigma > 0, none when sigma = 0).  ``pairs`` lists
    every (i, j) with i < j in row-major order, and ``coherences[k, p]``
    is |rho_ij(k)| of pairs[p], shape (steps+1, len(pairs)), read by every
    coherence summary.

    ``rhos`` is the (steps+1, d, d) stack of rho(k), trace-checked here, or
    a function that builds it on the first read of ``rhos`` (trace-checked
    then) when ``coherences`` is given.
    """

    def __init__(self, rhos, times: np.ndarray, mean_increments: np.ndarray,
                 sigma: float, event_log: list[tuple[int, float]],
                 coherences: np.ndarray | None = None):
        self._rhos = rhos if callable(rhos) else lambda: rhos
        self.times = np.asarray(times, dtype=float)
        self.mean_increments = np.asarray(mean_increments, dtype=float)
        self.sigma = float(sigma)
        self.event_log = list(event_log)
        if coherences is None:
            iu, ju = np.triu_indices(self.rhos.shape[1], k=1)
            coherences = np.abs(self.rhos[:, iu, ju])
        else:   # d levels have d(d-1)/2 pairs
            d = (1 + math.isqrt(1 + 8 * coherences.shape[1])) // 2
            iu, ju = np.triu_indices(d, k=1)
        self.pairs = list(zip(iu.tolist(), ju.tolist()))
        self.coherences = coherences

    @property
    def rhos(self) -> np.ndarray:
        """The stack, built on first read; ValueError at a step whose trace is not 1."""
        if callable(self._rhos):
            rhos = np.asarray(self._rhos(), dtype=complex)
            tr = np.trace(rhos, axis1=1, axis2=2)
            bad = np.flatnonzero(~((np.abs(tr.real - 1.0) <= 1e-12)
                                   & (np.abs(tr.imag) <= 1e-12)))
            if bad.size:
                raise ValueError(f"trace not preserved at step {bad[0]}: {tr[bad[0]]}")
            self._rhos = rhos
        return self._rhos

    @property
    def steps(self) -> int:
        return self.coherences.shape[0] - 1

    def coherence_magnitudes(self) -> dict[tuple[int, int], np.ndarray]:
        """Map (i, j), i < j, to the |rho_ij| history (a view of coherences)."""
        return dict(zip(self.pairs, self.coherences.T))

    def dominant_pair(self) -> tuple[int, int]:
        """Index pair with the largest initial coherence, the first in
        row-major order on a tie."""
        start = self.coherences[0]
        if not np.any(start > 0.0):
            raise ValueError("trajectory has no nonzero initial coherence")
        return self.pairs[int(np.argmax(start))]

    def step_factors(self) -> np.ndarray:
        """Complex per-step multipliers rho_ij(k+1)/rho_ij(k) of the
        dominant pair.  A step from a coherence that is exactly 0 (one
        that underflowed) has no multiplier: its factor is nan+nanj."""
        i, j = self.dominant_pair()
        series = self.rhos[:, i, j]
        prev = series[:-1]
        return np.divide(series[1:], prev, where=prev != 0.0,
                         out=np.full(prev.shape, complex(math.nan, math.nan)))

    def step_damping_exponents(self) -> np.ndarray:
        """Per-step damping exponents -log(c(k+1)/c(k)) of the dominant
        pair's coherence c: inf for the step in which c falls to exactly 0,
        and nan for every step after it."""
        c = self.coherences[:, self.pairs.index(self.dominant_pair())]
        with np.errstate(divide="ignore", invalid="ignore"):   # log(0), 0/0
            return -np.log(c[1:] / c[:-1])

    def max_coherence_ratio(self) -> np.ndarray:
        """max_ij |rho_ij(k)| / |rho_ij(0)| over pairs with nonzero start."""
        start = self.coherences[0]
        live = start > 0.0
        if not np.any(live):
            raise ValueError("trajectory has no nonzero initial coherence")
        return np.max(self.coherences[:, live] / start[live], axis=1)


def _trajectory(rhos, times: np.ndarray, mus: np.ndarray, sigma: float,
                coherences: np.ndarray | None = None) -> CoherenceTrajectory:
    """Trajectory of the stack rhos[k] after k ticks of mean increments mus,
    at times[k] = mus[0] + ... + mus[k-1]."""
    events = list(enumerate(times[1:].tolist(), 1)) if sigma > 0.0 else []
    return CoherenceTrajectory(rhos, times, mus, sigma, events, coherences)


def _closed_form_stack(times, w, damping, rho0) -> np.ndarray:
    """rho(k) = rho(0) * exp(-1j*w*T_k + k*damping) for every tick k."""
    with np.errstate(over="ignore"):
        # the phase -1j*w*T_k has a zero real part, which takes the damping
        expo = np.multiply.outer(times, -1j * w)
        expo.real = np.multiply.outer(np.arange(times.size), damping)
    rhos = np.exp(expo, out=expo)
    rhos *= rho0
    return rhos


def evolve_analytic(system: QuantumSystem, clock: ClockModel,
                    steps: int) -> CoherenceTrajectory:
    """Closed-form ensemble average after k = 0 .. steps ticks.

    rho_ij(k) = rho_ij(0) * exp(-1j*w_ij*T_k - k * w_ij**2 * sigma**2 / 2),
    with T_k the cumulative sum of the tick means.  Each coherence
    |rho_ij(0)| * exp(-k * w_ij**2 * sigma**2 / 2), i < j, is one real exp
    with no phase, so its rounding error stays a few ulps times (1 + the
    damping exponent) at any k; the complex stack is built on the first
    read of ``rhos``.  A frequency w_ij, a damping exponent per tick
    w_ij**2 sigma**2 / 2, a phase w_ij*T_k or a time T_k past the float
    range raises ValueError naming it.
    """
    mus = clock.means(steps)
    times = _tick_times(mus)
    w = system.omegas()
    with np.errstate(over="ignore", invalid="ignore"):
        # numpy's power gives inf where a float's raises OverflowError
        damping = -0.5 * w**2 * np.float64(clock.fluctuation_std)**2
        last_phase = w * times[-1]
    _refuse_pair(damping, "damping exponent per tick "
                 "(E_i - E_j)**2 sigma**2 / (2 hbar**2)")
    # |w*T_k| grows with k, so the last tick overflows first
    _refuse_pair(last_phase, f"phase (E_i - E_j) T_k / hbar by tick {steps}")
    rho0, (iu, ju) = system.initial_density, np.triu_indices(system.dim, k=1)
    with np.errstate(over="ignore"):
        coherences = np.abs(rho0[iu, ju]) * np.exp(
            np.multiply.outer(np.arange(steps + 1), damping[iu, ju]))
    return _trajectory(lambda: _closed_form_stack(times, w, damping, rho0),
                       times, mus, clock.fluctuation_std, coherences)


def evolve_monte_carlo(system: QuantumSystem, clock: ClockModel, steps: int,
                       samples: int, seed: int) -> CoherenceTrajectory:
    """Direct average of U(dt) rho U(dt)^dagger over sampled tick durations.

    Tick k's factor is c_ij = mean over samples of exp(-1j*w_ij*dt), with
    c_ii = 1 exactly, and rho(k) = rho(0) * c(1) * ... * c(k) elementwise:
    one cumulative product over the stacked factors.  Each tick draws its
    own batch of durations from an independent seeded stream, so the result
    is deterministic and independent of any batching of the work.  A time
    T_k or a tick's phase E_i*dt/hbar past the float range raises
    ValueError naming it.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    mus = clock.means(steps)
    times = _tick_times(mus)
    e = system.energies
    sigma = clock.fluctuation_std
    stack = np.empty((steps + 1, system.dim, system.dim), dtype=complex)
    stack[0] = system.initial_density
    streams = np.random.SeedSequence(seed).spawn(steps)
    for k, (mu, stream) in enumerate(zip(mus, streams), 1):
        draws = _ticks(np.random.default_rng(stream), np.full(samples, mu), sigma)
        with np.errstate(over="ignore", invalid="ignore"):
            phase = -1j * np.outer(e, draws) / system.hbar   # (d, samples)
        bad = np.flatnonzero(~np.isfinite(phase).all(axis=1))
        if bad.size:
            raise ValueError(f"tick phase E_i*dt/hbar of level {bad[0]} is "
                             f"not finite at tick {k}")
        f = np.exp(phase)
        stack[k] = (f @ f.conj().T) / samples
    diag = np.arange(system.dim)
    stack[1:, diag, diag] = 1.0    # populations are exactly preserved
    return _trajectory(np.cumprod(stack, axis=0, out=stack), times, mus, sigma)


@dataclass(frozen=True, eq=False)
class QuantumClassRecord:
    """Retention time plus the profile used for equivalence classing.

    ``damping_profile`` is the per-step damping exponent sequence of the
    dominant coherence.
    """

    retention_time_steps: int | None
    retention_time_physical: float | None
    horizon_steps: int
    mean_increments: np.ndarray
    threshold: float
    damping_profile: np.ndarray

    @property
    def reached(self) -> bool:
        return self.retention_time_steps is not None

    @property
    def mean_increment(self) -> float:
        """mu0 when the schedule is constant, else the schedule mean."""
        return float(np.mean(self.mean_increments))

    def __repr__(self):
        if self.reached:
            return (f"QuantumClassRecord(steps={self.retention_time_steps}, "
                    f"time={self.retention_time_physical!r})")
        return (f"QuantumClassRecord(threshold not reached within "
                f"{self.horizon_steps} steps)")


def retention_time(traj: CoherenceTrajectory,
                   threshold: float = DEFAULT_THRESHOLD) -> QuantumClassRecord:
    """First step at which the largest coherence ratio falls to the threshold.

    The ratio is traj.max_coherence_ratio(), read from the trajectory's
    ``coherences``; the damping profile is that of its dominant pair.

    The comparison allows a 1e-9 relative slack so that a ratio landing on
    the threshold exactly (up to roundoff) counts as crossed.  If the
    threshold is never crossed the record reports the horizon instead.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must be in (0, 1)")
    ratio = traj.max_coherence_ratio()
    crossed = np.nonzero(ratio <= threshold * (1.0 + _CROSSING_SLACK))[0]
    k = int(crossed[0]) if crossed.size else None
    return QuantumClassRecord(
        retention_time_steps=k,
        retention_time_physical=float(traj.times[k]) if k is not None else None,
        horizon_steps=traj.steps,
        mean_increments=traj.mean_increments.copy(),
        threshold=threshold,
        damping_profile=traj.step_damping_exponents(),
    )


def rescale_class(system: QuantumSystem, clock: ClockModel,
                  lam: float) -> tuple[QuantumSystem, ClockModel]:
    """Equivalent system with energies*lam, mu/lam, sigma/lam.

    The products w*mu and w*sigma are unchanged, so the damping and phase
    sequences (and hence the class) are invariant.
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError("lam must be positive and finite")
    sys2 = QuantumSystem(system.energies * lam, system.hbar,
                         system.initial_density)
    if clock._mu is None:
        clk2 = ClockModel(clock.mu0 / lam, clock.fluctuation_std / lam)
    else:
        mu = clock._mu
        clk2 = ClockModel(lambda k: mu(k) / lam, clock.fluctuation_std / lam)
    return sys2, clk2


class Reparametrization:
    """Strictly increasing, differentiable map of physical time."""

    def __init__(self, fn: Callable[[float], float],
                 domain: tuple[float, float]):
        lo, hi = domain
        if not lo < hi:
            raise ValueError("domain must be an increasing interval")
        self.fn = fn
        self.domain = (float(lo), float(hi))
        xs = np.linspace(lo, hi, 257)     # points where f must increase
        ys = np.array([fn(x) for x in xs])
        if not np.all(np.diff(ys) > 0):
            raise ValueError("map is not strictly increasing on its domain")

    def __call__(self, t):
        return self.fn(t)


def reparametrize_events(traj: CoherenceTrajectory,
                         f: Reparametrization) -> CoherenceTrajectory:
    """Relabel the trajectory's physical times through f.

    The event count, the event order and all coherence magnitudes are
    untouched: the damping record is a gauge invariant of the time axis.
    """
    lo, hi = f.domain
    if traj.times[0] < lo or traj.times[-1] > hi:
        raise ValueError("trajectory times fall outside the map's domain")
    new_times = np.array([f(t) for t in traj.times])
    if not np.all(np.diff(new_times) > 0):
        raise ValueError("map is not strictly increasing on the trajectory")
    new_events = [(k, float(f(t))) for k, t in traj.event_log]
    return CoherenceTrajectory(traj.rhos.copy(), new_times,
                               traj.mean_increments.copy(), traj.sigma,
                               new_events)


def classify(records: Sequence[QuantumClassRecord]) -> list[list[QuantumClassRecord]]:
    """Partition records into equivalence classes by damping profile.

    Two records are linked when their per-step damping exponent sequences
    agree elementwise within _PROFILE_TOL; classes are the connected
    components of that relation (union-find), which makes the partition an
    equivalence by construction.
    """
    n = len(records)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for i in range(n):
        for j in range(i + 1, n):
            pi = records[i].damping_profile
            pj = records[j].damping_profile
            if (pi.shape == pj.shape
                    and np.max(np.abs(pi - pj), initial=0.0) <= _PROFILE_TOL):
                union(i, j)

    groups: dict[int, list[QuantumClassRecord]] = {}
    for i, rec in enumerate(records):
        groups.setdefault(find(i), []).append(rec)
    return [groups[r] for r in sorted(groups, key=lambda r: r)]
