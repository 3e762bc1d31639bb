"""Exact-scattering cross-check for the semiclassical transmission.

The barrier of :mod:`semiq.wkb` is capped at |phi| = L (flat continuation
beyond), which turns the zero-energy constraint

    -hbar**2 psi'' + 2*mu*(H_int(phi) - E) psi = 0

into an ordinary scattering problem with propagating waves on both sides.
Transmission is then computed with no semiclassical input at all: the
potential is replaced by a piecewise-constant profile, each cell is crossed
with the exact constant-coefficient propagator, and the flux carries the
wavenumber ratio of the two asymptotic regions.  Richardson extrapolation
over a grid-halving pair supplies the truncation-error estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .wkb import BarrierProblem, turning_points

__all__ = [
    "PiecewisePotential",
    "TransmissionEstimate",
    "cap_barrier",
    "transfer_matrix_transmission",
    "scattering_wavefunction",
    "constraint_residual",
]

#: cells per chunk of the walk: bounds the scan's memory and its depth
_CHUNK = 4096
#: largest integral of kappa over the cells of one chunk, so that no product
#: inside a chunk exceeds about e^300 ~ 1e130 and none can overflow
_GROWTH_BOUND = 300.0


@dataclass(frozen=True)
class PiecewisePotential:
    """Sampled potential: values[i] at grid[i], flat continuation outside."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be a 1-D array with at least 2 points")
        if values.shape != grid.shape:
            raise ValueError("grid and values must have the same shape")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise ValueError("grid and values must be finite")

    @property
    def cells(self) -> int:
        return self.grid.size - 1

    def coarsened(self) -> "PiecewisePotential":
        """Every other sample; requires an even number of cells."""
        if self.cells % 2 != 0:
            raise ValueError("coarsening needs an even number of cells")
        return PiecewisePotential(self.grid[::2], self.values[::2])


@dataclass(frozen=True)
class TransmissionEstimate:
    T_numeric: float
    grid_points: int
    richardson_error: float

    def __post_init__(self):
        if not (-1e-9 <= self.T_numeric <= 1.0 + 1e-9):
            raise ValueError(f"transmission {self.T_numeric} outside [0, 1]")


def cap_barrier(bp: BarrierProblem, L: float | None = None, n: int = 20000) -> PiecewisePotential:
    """Sample -j0*phi^2 + h0 on n uniform cells over [-L, L].

    The default cap is L = 4*b (b the outer turning point).  The flat
    continuation level -j0*L^2 + h0 is negative for L > b, so a zero-energy
    wave propagates on both sides.
    """
    _, b = turning_points(bp)
    if L is None:
        L = 4.0 * b
    if not L > b:
        raise ValueError(f"cap L={L} must exceed the turning point b={b}")
    if n < 100:
        raise ValueError("need at least 100 cells")
    grid = np.linspace(-L, L, n + 1)
    return PiecewisePotential(grid, bp.interaction_energy(grid))


def _cell_propagators(w, h):
    """Right-to-left propagators of cells with constant W = w and width h.

    Returns shape (2, 2, n), acting on (psi, psi'): cosh/sinh for w > 0,
    cos/sin for w < 0 and the free cell [[1, -h], [0, 1]] for w == 0.
    """
    q = np.sqrt(np.abs(w))
    x = q * h
    under = w > 0.0
    diag = np.cos(x)
    s = np.sin(x)
    np.cosh(x, out=diag, where=under)
    np.sinh(x, out=s, where=under)
    # s/q -> h as q -> 0 (the free cell)
    s_over_q = np.divide(s, q, out=h.copy(), where=q > 0.0)
    return np.array([[diag, -s_over_q], [-np.sign(w) * q * s, diag]])


def _suffix_products(p):
    """Scan over the last axis: p[:, :, i] becomes p_i @ p_{i+1} @ ... @ p_last.

    Hillis-Steele doubling, so log2(n) array steps replace n matrix products.
    """
    step = 1
    while step < p.shape[-1]:
        p[..., :-step] = np.einsum("ijn,jkn->ikn", p[..., :-step], p[..., step:])
        step *= 2
    return p


def _propagate(grid, values, E, hbar, mu, keep_psi=False):
    """Propagate (psi, psi') from the right edge to the left edge.

    Starts from a pure outgoing wave psi = 1, psi' = i*k_R and walks left
    using the exact constant-potential propagator per cell (the cell value
    is the mean of its endpoint samples).  The cells are taken in chunks of
    at most _CHUNK cells and _GROWTH_BOUND of integrated kappa: one suffix
    scan gives every partial product of a chunk, its first element carries
    (psi, psi') across the chunk, and the carried pair is then renormalised
    into the returned log-scale.  With keep_psi the last item holds psi on
    the grid as mantissas and their log-scales, psi = m * exp(scale).
    """
    k_left_sq = 2.0 * mu * (E - values[0]) / hbar**2
    k_right_sq = 2.0 * mu * (E - values[-1]) / hbar**2
    if k_left_sq <= 0 or k_right_sq <= 0:
        raise ValueError("E must exceed both asymptotic levels so that "
                         "waves propagate on both sides")
    k_left = math.sqrt(k_left_sq)
    k_right = math.sqrt(k_right_sq)

    psi = 1.0 + 0.0j
    dpsi = 1j * k_right
    log_scale = 0.0
    if keep_psi:
        samples = np.empty(grid.size, dtype=complex)
        scales = np.empty(grid.size)
        samples[-1], scales[-1] = psi, log_scale

    # walk chunks of cells [start, end) right-to-left
    end = grid.size - 1
    while end > 0:
        lo = max(end - _CHUNK, 0)
        h = np.diff(grid[lo:end + 1])
        cell_v = 0.5 * (values[lo + 1:end + 1] + values[lo:end])
        w = 2.0 * mu * (cell_v - E) / hbar**2
        # end the chunk early where the integrated kappa passes the bound
        growth = np.cumsum((np.sqrt(np.maximum(w, 0.0)) * h)[::-1])
        cells = max(int(np.searchsorted(growth, _GROWTH_BOUND, side="right")), 1)
        start = end - cells
        p = _suffix_products(_cell_propagators(w[-cells:], h[-cells:]))
        if keep_psi:
            samples[start:end] = p[0, 0] * psi + p[0, 1] * dpsi
            scales[start:end] = log_scale
        psi, dpsi = (p[0, 0, 0] * psi + p[0, 1, 0] * dpsi,
                     p[1, 0, 0] * psi + p[1, 1, 0] * dpsi)
        m = max(abs(psi), abs(dpsi))
        psi /= m
        dpsi /= m
        log_scale += math.log(m)
        end = start

    history = (samples, scales) if keep_psi else None
    return psi, dpsi, log_scale, k_left, k_right, history


def _transmission_once(pot: PiecewisePotential, E, hbar, mu) -> float:
    psi, dpsi, log_scale, k_left, k_right, _ = _propagate(
        pot.grid, pot.values, E, hbar, mu)
    # decompose the left-edge solution into incident and reflected waves
    alpha = 0.5 * (psi + dpsi / (1j * k_left))
    log_T = (math.log(k_right / k_left)
             - 2.0 * math.log(abs(alpha)) - 2.0 * log_scale)
    # a near-transparent profile can round to just above T = 1
    return math.exp(min(log_T, 0.0))


def transfer_matrix_transmission(pot: PiecewisePotential, E: float = 0.0,
                                 hbar: float = 1.0, mu: float = 1.0) -> TransmissionEstimate:
    """Transmission probability through the sampled potential at energy E.

    T = (k_right/k_left) / |incident amplitude|^2.  The same computation on
    the 2x-coarsened grid feeds a Richardson error estimate (the scheme is
    second order in the cell width).
    """
    t_fine = _transmission_once(pot, E, hbar, mu)
    if pot.cells % 2 == 0:
        t_coarse = _transmission_once(pot.coarsened(), E, hbar, mu)
        rich = abs(t_fine - t_coarse) / 3.0
    else:
        warnings.warn("odd cell count: no Richardson pair, error estimate is NaN")
        rich = math.nan
    return TransmissionEstimate(T_numeric=t_fine, grid_points=pot.grid.size,
                                richardson_error=rich)


def scattering_wavefunction(pot: PiecewisePotential, E: float = 0.0,
                            hbar: float = 1.0, mu: float = 1.0) -> np.ndarray:
    """Scattering solution sampled on pot.grid, normalised to max |psi| = 1.

    The wave is purely outgoing at the right edge; the returned samples are
    suitable for residual checks against the second-order operator.
    """
    *_, (m, scale) = _propagate(pot.grid, pot.values, E, hbar, mu,
                                keep_psi=True)
    # shift to the largest log-magnitude first: psi itself can overflow deep
    # under a barrier
    log_mag = np.log(np.abs(m)) + scale
    psi = m * np.exp(scale - log_mag.max())
    return psi / np.max(np.abs(psi))


def constraint_residual(psi: np.ndarray, pot: PiecewisePotential,
                        hbar: float = 1.0, mu: float = 1.0) -> float:
    """RMS of (-hbar^2 D2 + 2*mu*V) psi over interior points.

    D2 is the standard second-order finite-difference Laplacian, so even an
    exact solution leaves an O(h^2) residual; the value is the quality
    measure of the sampled solution at the null constraint E = 0.
    """
    psi = np.asarray(psi)
    if psi.shape != pot.grid.shape:
        raise ValueError("psi must be sampled on pot.grid")
    h = np.diff(pot.grid)
    if not np.allclose(h, h[0], rtol=1e-9, atol=0.0):
        raise ValueError("constraint_residual needs a uniform grid")
    step = h[0]
    lap = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / step**2
    res = -hbar**2 * lap + 2.0 * mu * pot.values[1:-1] * psi[1:-1]
    return float(np.sqrt(np.mean(np.abs(res) ** 2)))
