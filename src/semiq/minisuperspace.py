"""Semiclassical branch of a one-dimensional cosmological constraint.

For a wavefunction Psi(a, q) of a scale-like coordinate a coupled to a
small matter sector q, the constraint

    (-hbar**2 d^2/da^2 + U(a) + H_q(a)) Psi = 0

is solved order by order in hbar with the ansatz Psi = A(a) e^{iS/hbar} chi:

  *  (dS/da)^2 = U(a)                 (Hamilton-Jacobi phase; Lorentzian
                                       branch only, U >= 0)
  *  A = (dS/da)^(-1/2), A(a0) = 1    (amplitude transport, A^2 S' const)
  *  da/dt = 2 N(t) dS/da             (the emergent clock; N is the lapse)
  *  i hbar dchi/dt = N H_q(a(t)) chi (unitary matter evolution)

What the truncation discards is exactly -hbar**2 A'' e^{iS/hbar}, which
wdw_residual evaluates in closed form from U, U' and U'' and whose norm
scales as hbar**2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad, solve_ivp

__all__ = [
    "MiniSuperspaceModel",
    "SemiclassicalBranch",
    "ClockMap",
    "MatterTrajectory",
    "ResidualReport",
    "hamilton_jacobi_phase",
    "amplitude_transport",
    "clock_map",
    "evolve_matter",
    "build_branch",
    "wdw_residual",
]


def _unit_lapse(t):
    return 1.0


@dataclass(frozen=True)
class MiniSuperspaceModel:
    """Potential U(a), hbar, lapse N(t) and an optional matter sector."""

    potential_u: Callable[[float], float]
    hbar: float
    lapse: Callable[[float], float] = _unit_lapse
    matter_hamiltonian: Callable[[float], np.ndarray] | None = None

    def __post_init__(self):
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ValueError("hbar must be positive and finite")

    def u(self, a):
        return self.potential_u(a)

    def matter_at(self, a: float) -> np.ndarray:
        h = np.asarray(self.matter_hamiltonian(a), dtype=complex)
        return _check_hermitian(h[None])[0]


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    """Raise unless h is a (steps, d, d) stack of finite Hermitian matrices."""
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError("matter Hamiltonian must be a square matrix")
    if not np.all(np.isfinite(h)):
        raise ValueError("matter Hamiltonian must be finite")
    if np.max(np.abs(h - h.conj().swapaxes(1, 2))) > 1e-12:
        raise ValueError("matter Hamiltonian must be Hermitian")
    return h


def _u_values(model: MiniSuperspaceModel, x: np.ndarray) -> np.ndarray:
    """Evaluate U on an array, tolerating non-vectorized callables."""
    try:
        u = np.asarray(model.u(x), dtype=float)
        if u.shape != np.shape(x):
            raise TypeError
    except (TypeError, ValueError):
        u = np.vectorize(lambda a: float(model.u(a)))(x)
    return u


def hamilton_jacobi_phase(model: MiniSuperspaceModel, a_grid: np.ndarray) -> np.ndarray:
    """S(a) = integral_{a0}^{a} sqrt(U), adaptive quadrature per segment.

    Only the Lorentzian branch U >= 0 is supported; a negative U anywhere
    on the grid (or between points) raises.
    """
    a = np.asarray(a_grid, dtype=float)
    if a.ndim != 1 or a.size < 2 or not np.all(np.diff(a) > 0):
        raise ValueError("a_grid must be strictly increasing with >= 2 points")
    probe = np.unique(np.concatenate([a, 0.5 * (a[1:] + a[:-1])]))
    u = _u_values(model, probe)
    if np.any(u < 0.0):
        raise ValueError(f"U({probe[np.argmin(u)]}) < 0: Euclidean region, "
                         "no Lorentzian branch here")

    def integrand(x):
        return math.sqrt(max(model.u(x), 0.0))

    s = np.empty_like(a)
    s[0] = 0.0
    for i in range(1, a.size):
        seg, _ = quad(integrand, a[i - 1], a[i], epsabs=1e-13, epsrel=1e-12)
        s[i] = s[i - 1] + seg
    return s


def amplitude_transport(a_grid: np.ndarray, s: np.ndarray) -> np.ndarray:
    """A = (dS/da)^(-1/2) normalised to A(a0) = 1.

    dS/da comes from np.gradient on the grid; a non-positive slope anywhere
    is a caustic and raises.  By construction A**2 * dS/da is constant.
    """
    a = np.asarray(a_grid, dtype=float)
    s = np.asarray(s, dtype=float)
    ds = np.gradient(s, a, edge_order=2)
    if np.any(ds <= 0.0):
        raise ValueError("dS/da <= 0 on the grid: caustic, WKB amplitude blows up")
    return np.sqrt(ds[0] / ds)


class ClockMap:
    """Dense solution a(t) of da/dt = 2 N(t) sqrt(U(a))."""

    def __init__(self, ivp_solution, t_span: tuple[float, float],
                 truncated_at: float | None = None):
        self._sol = ivp_solution
        self.t_span = t_span
        self.truncated_at = truncated_at

    def __call__(self, t):
        out = self._sol.sol(np.asarray(t, dtype=float))[0]
        return float(out) if np.isscalar(t) else out


def clock_map(model: MiniSuperspaceModel, a0: float,
              t_span: tuple[float, float], a_max: float | None = None) -> ClockMap:
    """Integrate the emergent-clock equation da/dt = 2 N(t) sqrt(U(a)).

    Tight tolerances (rtol 1e-11) so downstream 1e-8 comparisons are not
    limited by the integrator.  If a(t) reaches a_max the map is truncated
    there with a warning.
    """
    if model.u(a0) < 0.0:
        raise ValueError("U(a0) < 0: Euclidean region")
    if model.lapse(t_span[0]) <= 0.0:
        raise ValueError("lapse must be positive")

    def rhs(t, y):
        u = model.u(y[0])
        if u < 0.0:
            raise ValueError(f"U({y[0]}) < 0 during clock integration")
        n = model.lapse(t)
        if n <= 0.0:
            raise ValueError(f"lapse N({t}) <= 0")
        return [2.0 * n * math.sqrt(u)]

    events = None
    if a_max is not None:
        def hit(t, y):
            return y[0] - a_max
        hit.terminal = True
        hit.direction = 1.0
        events = [hit]

    sol = solve_ivp(rhs, t_span, [a0], rtol=1e-11, atol=1e-13,
                    dense_output=True, events=events, method="RK45")
    if not sol.success:
        raise RuntimeError(f"clock integration failed: {sol.message}")
    truncated_at = None
    if events is not None and sol.t_events[0].size:
        truncated_at = float(sol.t_events[0][0])
        warnings.warn(f"clock map truncated at t={truncated_at}: a reached {a_max}")
    return ClockMap(sol, t_span, truncated_at)


@dataclass
class MatterTrajectory:
    t_grid: np.ndarray
    a_values: np.ndarray
    chis: np.ndarray                   # (len(t_grid), d) complex
    max_norm_drift: float


def evolve_matter(model: MiniSuperspaceModel, clock: ClockMap,
                  chi0: np.ndarray, t_grid: np.ndarray) -> MatterTrajectory:
    """Unitary matter evolution i hbar dchi/dt = N(t) H_q(a(t)) chi.

    One midpoint-sampled exponential per step of the supplied grid (which
    need not be uniform), all from one batched eigendecomposition.  Each
    propagator is unitary to roundoff; a per-step norm drift above 1e-12
    rejects the run at that step.
    """
    if model.matter_hamiltonian is None:
        raise ValueError("model has no matter sector")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or not np.all(np.diff(t) > 0):
        raise ValueError("t_grid must be strictly increasing")
    chi = np.asarray(chi0, dtype=complex)
    norm0 = np.linalg.norm(chi)
    if norm0 == 0.0:
        raise ValueError("chi0 must be nonzero")

    a_vals = clock(t)
    t_mid = 0.5 * (t[:-1] + t[1:])
    weights = np.array([model.lapse(tm) for tm in t_mid]) * np.diff(t)
    # one (steps, d, d) buffer: the Hamiltonians, then their propagators
    ops = np.empty((t_mid.size, chi.size, chi.size), dtype=complex)
    for k, a in enumerate(clock(t_mid).tolist()):
        h = model.matter_hamiltonian(a)
        if np.shape(h) != ops.shape[1:]:
            raise ValueError("matter Hamiltonian must be a square matrix "
                             f"of chi0's dimension {chi.size}")
        ops[k] = h
    vals, vecs = np.linalg.eigh(_check_hermitian(ops))
    # exp(-1j * weight * H / hbar) per step
    phases = np.exp(-1j * weights[:, None] * vals / model.hbar)
    np.matmul(vecs * phases[:, None, :], vecs.conj().swapaxes(1, 2), out=ops)

    chis = np.empty((t.size, chi.size), dtype=complex)
    chis[0] = chi
    for k in range(t_mid.size):
        chi = ops[k] @ chi
        chis[k + 1] = chi
    re, im = chis[1:].real, chis[1:].imag
    # vecdot sums like np.linalg.norm of one row; a norm along axis=1 does not
    norms = np.concatenate(([norm0], np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))))
    step_drift = np.abs(np.diff(norms))
    bad = np.flatnonzero(step_drift > 1e-12 * norm0)
    if bad.size:
        raise RuntimeError(f"norm drift {step_drift[bad[0]]:.2e} at step {bad[0]}: "
                           "propagator lost unitarity")
    return MatterTrajectory(t_grid=t, a_values=a_vals, chis=chis,
                            max_norm_drift=float(np.max(np.abs(norms - norm0))))


@dataclass
class SemiclassicalBranch:
    """Assembled (S, A, clock) data of one Lorentzian branch."""

    model: MiniSuperspaceModel
    a_grid: np.ndarray
    s: np.ndarray
    amplitude: np.ndarray
    clock: ClockMap | None = None
    matter: MatterTrajectory | None = None


def build_branch(model: MiniSuperspaceModel, a_grid: np.ndarray,
                 t_span: tuple[float, float] | None = None,
                 chi0: np.ndarray | None = None,
                 matter_steps: int = 2000) -> SemiclassicalBranch:
    """Convenience pipeline: phase, amplitude, and optionally clock+matter."""
    a = np.asarray(a_grid, dtype=float)
    s = hamilton_jacobi_phase(model, a)
    amp = amplitude_transport(a, s)
    clock = None
    matter = None
    if t_span is not None:
        clock = clock_map(model, float(a[0]), t_span, a_max=float(a[-1]))
        if chi0 is not None and model.matter_hamiltonian is not None:
            t_end = clock.truncated_at if clock.truncated_at is not None else t_span[1]
            t_grid = np.linspace(t_span[0], t_end, matter_steps + 1)
            matter = evolve_matter(model, clock, chi0, t_grid)
    return SemiclassicalBranch(model=model, a_grid=a, s=s, amplitude=amp,
                               clock=clock, matter=matter)


#: uniform points on which wdw_residual samples U and its derivatives
RESIDUAL_POINTS = 4097


@dataclass
class ResidualReport:
    hbars: np.ndarray
    residuals: np.ndarray              # RMS residual relative to ||U * Psi||
    slope: float                       # log-log fit of residual vs hbar


def wdw_residual(model: MiniSuperspaceModel, a_span: tuple[float, float],
                 hbar_list) -> ResidualReport:
    """Relative defect of the assembled branch under the full constraint.

    With S' = sqrt(U) and A = (U(a0)/U)^(1/4) the eikonal and transport
    equations cancel the hbar^0 and hbar^1 terms, so exactly

        (-hbar**2 d^2/da^2 - U) A e^{iS/hbar} = -hbar**2 A'' e^{iS/hbar},

    with A'' = A (5 U'^2 / (16 U^2) - U'' / (4 U)).  The residual relative
    to ||U Psi|| is hbar**2 ||A''|| / ||U A|| on RESIDUAL_POINTS uniform
    points; the grid never has to resolve the phase.  A constant U gives
    residual 0 and slope nan.  Matter is deliberately left out: chi
    contributes a kinetic term of order hbar^0 that the semiclassical
    factorisation discards, so the hbar**2 scaling is a property of the
    gravitational factor alone.
    """
    hbars = np.asarray(sorted(hbar_list, reverse=True), dtype=float)
    if hbars.size < 2 or np.any(hbars <= 0):
        raise ValueError("need at least two positive hbar values")
    a = np.linspace(a_span[0], a_span[1], RESIDUAL_POINTS)
    u = _u_values(model, a)
    if np.any(u <= 0.0):
        raise ValueError(f"U({a[np.argmin(u)]}) <= 0 on the residual span: "
                         "Euclidean region or turning point")
    h = a[1] - a[0]
    # the one-sided edge weights -1.5/h, 2/h, -0.5/h do not cancel in
    # floating point; differencing u - u[0] keeps a constant U's U' at 0
    du = np.gradient(u - u[0], h, edge_order=2)
    d2u = np.gradient(du, h, edge_order=2)
    amp = (u[0] / u) ** 0.25
    amp_dd = amp * (5.0 * du**2 / (16.0 * u**2) - d2u / (4.0 * u))
    ratio = np.linalg.norm(amp_dd) / np.linalg.norm(u * amp)
    residuals = hbars**2 * ratio
    slope = (float(np.polyfit(np.log(hbars), np.log(residuals), 1)[0])
             if ratio > 0.0 else math.nan)
    return ResidualReport(hbars=hbars, residuals=residuals, slope=slope)
