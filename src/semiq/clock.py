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
    "TimeDecomposition",
    "QuantumSystem",
    "CoherenceTrajectory",
    "QuantumClassRecord",
    "Reparametrization",
    "sample_increments",
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

    @property
    def symmetry_broken(self) -> bool:
        """True exactly when every tick has the same (constant) mean."""
        return self._mu is None

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


@dataclass(frozen=True)
class TimeDecomposition:
    """Split of an elapsed time into its expectation and the zero-mean rest."""

    expectation_part: float
    fluctuation_part: float

    @property
    def total(self) -> float:
        return self.expectation_part + self.fluctuation_part


def _ticks(rng: np.random.Generator, means: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian tick durations around ``means``; non-positive draws are redrawn."""
    draws = rng.normal(means, sigma)
    bad = draws <= 0.0
    while np.any(bad):
        draws[bad] = rng.normal(means[bad], sigma)
        bad = draws <= 0.0
    return draws


def sample_increments(clock: ClockModel, k: int, seed: int) -> tuple[np.ndarray, TimeDecomposition]:
    """Draw k tick durations and their decomposition, deterministically.

    Each tick is Gaussian around its mean; non-positive draws are resampled
    (the clock never runs backwards).  For sigma << mu the truncation bias
    is negligible.
    """
    mus = clock.means(k)
    draws = _ticks(np.random.default_rng(seed), mus, clock.fluctuation_std)
    expectation = float(np.sum(mus))
    fluctuation = float(np.sum(draws - mus))
    total = float(np.sum(draws))
    # the decomposition must reassemble the elapsed time
    assert abs(total - (expectation + fluctuation)) <= 1e-9 * max(1.0, abs(total))
    return draws, TimeDecomposition(expectation, fluctuation)


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
        """Transition frequencies w_ij = (E_i - E_j)/hbar."""
        e = self.energies
        return (e[:, None] - e[None, :]) / self.hbar

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
    is |rho_ij(k)| of pairs[p], shape (steps+1, len(pairs)): computed once
    here, and read by every coherence summary.
    """

    def __init__(self, rhos: np.ndarray, times: np.ndarray,
                 mean_increments: np.ndarray, sigma: float,
                 event_log: list[tuple[int, float]]):
        rhos = np.asarray(rhos, dtype=complex)
        tr = np.trace(rhos, axis1=1, axis2=2)
        bad = np.flatnonzero(~((np.abs(tr.real - 1.0) <= 1e-12)
                               & (np.abs(tr.imag) <= 1e-12)))
        if bad.size:
            raise ValueError(f"trace not preserved at step {bad[0]}: {tr[bad[0]]}")
        self.rhos = rhos
        self.times = np.asarray(times, dtype=float)
        self.mean_increments = np.asarray(mean_increments, dtype=float)
        self.sigma = float(sigma)
        self.event_log = list(event_log)
        iu, ju = np.triu_indices(rhos.shape[1], k=1)
        self.pairs = list(zip(iu.tolist(), ju.tolist()))
        self.coherences = np.abs(rhos[:, iu, ju])

    @property
    def steps(self) -> int:
        return self.rhos.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.rhos.shape[1]

    @property
    def populations(self) -> np.ndarray:
        """(steps+1, d) real diagonal history."""
        return np.real(np.einsum("kii->ki", self.rhos))

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

    def step_factors(self, pair: tuple[int, int] | None = None) -> np.ndarray:
        """Complex per-step multipliers rho_ij(k+1)/rho_ij(k) for one pair."""
        i, j = self.dominant_pair() if pair is None else pair
        series = self.rhos[:, i, j]
        if abs(series[0]) == 0.0:
            raise ValueError(f"pair {(i, j)} has zero initial coherence")
        return series[1:] / series[:-1]

    def step_damping_exponents(self, pair: tuple[int, int] | None = None) -> np.ndarray:
        """Per-step damping exponents -log|rho(k+1)/rho(k)|."""
        return -np.log(np.abs(self.step_factors(pair)))

    def step_phases(self, pair: tuple[int, int] | None = None) -> np.ndarray:
        """Per-step phase advances arg(rho(k+1)/rho(k))."""
        return np.angle(self.step_factors(pair))

    def max_coherence_ratio(self) -> np.ndarray:
        """max_ij |rho_ij(k)| / |rho_ij(0)| over pairs with nonzero start."""
        start = self.coherences[0]
        live = start > 0.0
        if not np.any(live):
            raise ValueError("trajectory has no nonzero initial coherence")
        return np.max(self.coherences[:, live] / start[live], axis=1)


def _trajectory(rhos: np.ndarray, times: np.ndarray, mus: np.ndarray,
                sigma: float) -> CoherenceTrajectory:
    """Trajectory of the stack rhos[k] after k ticks of mean increments mus,
    at times[k] = mus[0] + ... + mus[k-1]."""
    events = list(enumerate(times[1:].tolist(), 1)) if sigma > 0.0 else []
    return CoherenceTrajectory(rhos, times, mus, sigma, events)


def evolve_analytic(system: QuantumSystem, clock: ClockModel,
                    steps: int) -> CoherenceTrajectory:
    """Closed-form ensemble average after k = 0 .. steps ticks.

    rho_ij(k) = rho_ij(0) * exp(-1j*w_ij*T_k - k * w_ij**2 * sigma**2 / 2),
    with T_k the cumulative sum of the tick means, evaluated as one array
    expression.  Each entry is one exp of its exponent, so the rounding
    error stays a few ulps times (1 + the damping exponent) at any k.
    """
    mus = clock.means(steps)
    times = np.concatenate(([0.0], np.cumsum(mus)))
    w = system.omegas()
    # the phase -1j*w*T_k has a zero real part, which takes the damping
    expo = np.multiply.outer(times, -1j * w)
    expo.real = np.multiply.outer(np.arange(steps + 1),
                                  -0.5 * w**2 * clock.fluctuation_std**2)
    rhos = np.exp(expo, out=expo)
    rhos *= system.initial_density
    return _trajectory(rhos, times, mus, clock.fluctuation_std)


def evolve_monte_carlo(system: QuantumSystem, clock: ClockModel, steps: int,
                       samples: int, seed: int) -> CoherenceTrajectory:
    """Direct average of U(dt) rho U(dt)^dagger over sampled tick durations.

    Tick k's factor is c_ij = mean over samples of exp(-1j*w_ij*dt), with
    c_ii = 1 exactly, and rho(k) = rho(0) * c(1) * ... * c(k) elementwise:
    one cumulative product over the stacked factors.  Each tick draws its
    own batch of durations from an independent seeded stream, so the result
    is deterministic and independent of any batching of the work.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    mus = clock.means(steps)
    e = system.energies
    sigma = clock.fluctuation_std
    stack = np.empty((steps + 1, system.dim, system.dim), dtype=complex)
    stack[0] = system.initial_density
    streams = np.random.SeedSequence(seed).spawn(steps)
    for k, (mu, stream) in enumerate(zip(mus, streams), 1):
        draws = _ticks(np.random.default_rng(stream), np.full(samples, mu), sigma)
        f = np.exp(-1j * np.outer(e, draws) / system.hbar)   # (d, samples)
        stack[k] = (f @ f.conj().T) / samples
    diag = np.arange(system.dim)
    stack[1:, diag, diag] = 1.0    # populations are exactly preserved
    return _trajectory(np.cumprod(stack, axis=0, out=stack),
                       np.concatenate(([0.0], np.cumsum(mus))), mus, sigma)


@dataclass(frozen=True, eq=False)
class QuantumClassRecord:
    """Retention time plus the profile used for equivalence classing.

    ``damping_profile`` is the per-step damping exponent sequence of the
    dominant coherence; ``dimensionless_profile`` is the same sequence
    normalised by its first nonzero entry.  Records with retention at or
    below one step describe effectively classical systems (``is_trivial``).
    """

    retention_time_steps: int | None
    retention_time_physical: float | None
    horizon_steps: int
    mean_increments: np.ndarray
    threshold: float
    damping_profile: np.ndarray
    dimensionless_profile: np.ndarray

    @property
    def reached(self) -> bool:
        return self.retention_time_steps is not None

    @property
    def mean_increment(self) -> float:
        """mu0 when the schedule is constant, else the schedule mean."""
        return float(np.mean(self.mean_increments))

    @property
    def is_trivial(self) -> bool:
        return self.reached and self.retention_time_steps <= 1

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
    damping = traj.step_damping_exponents()
    nz = np.nonzero(damping != 0.0)[0]
    profile = damping / damping[nz[0]] if nz.size else damping.copy()
    k = int(crossed[0]) if crossed.size else None
    return QuantumClassRecord(
        retention_time_steps=k,
        retention_time_physical=float(traj.times[k]) if k is not None else None,
        horizon_steps=traj.steps,
        mean_increments=traj.mean_increments.copy(),
        threshold=threshold,
        damping_profile=damping,
        dimensionless_profile=profile,
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
                 domain: tuple[float, float], check_points: int = 257):
        lo, hi = domain
        if not lo < hi:
            raise ValueError("domain must be an increasing interval")
        self.fn = fn
        self.domain = (float(lo), float(hi))
        xs = np.linspace(lo, hi, check_points)
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


def classify(records: Sequence[QuantumClassRecord],
             tol: float = _PROFILE_TOL) -> list[list[QuantumClassRecord]]:
    """Partition records into equivalence classes by damping profile.

    Two records are linked when their per-step damping exponent sequences
    agree elementwise within tol; classes are the connected components of
    that relation (union-find), which makes the partition an equivalence by
    construction.
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
            if pi.shape == pj.shape and np.max(np.abs(pi - pj), initial=0.0) <= tol:
                union(i, j)

    groups: dict[int, list[QuantumClassRecord]] = {}
    for i, rec in enumerate(records):
        groups.setdefault(find(i), []).append(rec)
    return [groups[r] for r in sorted(groups, key=lambda r: r)]
