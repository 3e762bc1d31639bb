"""Exact-scattering cross-check for the semiclassical transmission.

The barrier of :mod:`semiq.wkb` is capped at |phi| = L (flat continuation
beyond), which turns the zero-energy constraint

    -hbar**2 psi'' + 2*mu*H_int(phi) psi = 0

into an ordinary scattering problem with propagating waves on both sides.
Transmission is then computed with no semiclassical input at all: the
potential is replaced by a piecewise-constant profile, each cell is crossed
with the exact constant-coefficient propagator, and the flux carries the
wavenumber ratio of the two asymptotic regions.  Richardson extrapolation
over a grid-halving pair supplies the truncation-error estimate.

transfer_matrix_transmission(cap_barrier(bp)) walks at bp's hbar and mu.
The walk asks its profile for the samples of one chunk of cells at a time;
the capped barrier holds no per-cell array and computes each chunk's grid
points and samples as the walk reaches them, so the memory of a walk does
not grow with its number of cells.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .scan import products
from .wkb import BarrierProblem, turning_points

__all__ = [
    "TransmissionEstimate",
    "cap_barrier",
    "transfer_matrix_transmission",
]

#: cells per chunk of the walk: with _GROWTH_BOUND it keeps every product
#: inside a chunk finite, and it bounds the working memory
_CHUNK = 4096
#: largest integral of kappa over the cells of one chunk, so that no product
#: inside a chunk exceeds about e^300 ~ 1e130 and none can overflow
_GROWTH_BOUND = 300.0
#: chunks whose products one pairwise reduction computes together
_BATCH = 16
_IDENTITY = np.eye(2)[:, :, None]


@dataclass(frozen=True)
class CappedBarrier:
    """-j0*phi^2 + h0 on n uniform cells over [-L, L], sampled on demand.

    It holds no per-cell array: samples() computes the points the walk
    asks for, with the bits of np.linspace(-L, L, n + 1) (point i is
    i*step + (-L) with step = (L - (-L))/n, and the last point is L) and
    of bp.interaction_energy on them.
    """

    bp: BarrierProblem
    L: float
    n: int

    @property
    def cells(self) -> int:
        return self.n

    def samples(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Grid points and values lo .. hi, the edges of cells lo .. hi-1."""
        phi = np.arange(lo, hi + 1, dtype=float)
        phi *= (self.L - (-self.L)) / self.n
        phi += -self.L
        if hi == self.n:
            phi[-1] = self.L
        # -j0*(phi*phi) + h0 in place, as _interaction evaluates it
        v = phi * phi
        v *= -self.bp.j0
        v += self.bp.h0
        return phi, v

    def coarsened(self) -> "CappedBarrier":
        """The same barrier on half the cells: every other point."""
        if self.n % 2 != 0:
            raise ValueError("coarsening needs an even number of cells")
        return CappedBarrier(self.bp, self.L, self.n // 2)


@dataclass(frozen=True)
class TransmissionEstimate:
    T_numeric: float
    richardson_error: float

    def __post_init__(self):
        if not (-1e-9 <= self.T_numeric <= 1.0 + 1e-9):
            raise ValueError(f"transmission {self.T_numeric} outside [0, 1]")


def cap_barrier(bp: BarrierProblem, L: float | None = None, n: int = 20000) -> CappedBarrier:
    """-j0*phi^2 + h0 on n uniform cells over [-L, L], sampled as walked.

    The default cap is L = 4*b (b the outer turning point).  The flat
    continuation level -j0*L^2 + h0 is negative for L > b, so a zero-energy
    wave propagates on both sides.  The profile holds no per-cell array,
    so its memory does not grow with n.

    A cap that cannot be walked raises ValueError naming the point: one
    not beyond b, or one whose level is not finite, or whose step 2L/n is
    too small for the points i*step + (-L) to strictly increase (each is
    rounded twice, by at most an ulp of L in all, so a step above 3 ulps
    of L keeps them apart).  Where the level is finite, so is every sample
    inside the cap.
    """
    _, b = turning_points(bp)
    L = 4.0 * b if L is None else float(L)
    point = " ".join(f"{k}={getattr(bp, k):.17g}" for k in ("hbar", "mu", "j0", "h0"))
    if not L > b:
        raise ValueError(f"cap L={L:.17g} must exceed the turning point "
                         f"b={b:.17g} of {point}")
    if n < 100:
        raise ValueError("need at least 100 cells")
    with np.errstate(over="ignore", invalid="ignore"):
        level = -bp.j0 * (L * L) + bp.h0
    if not (math.isfinite(level) and (L - (-L)) / n > 3.0 * np.spacing(L)):
        raise ValueError(f"cap L={L:.17g} of {point} on {n} cells: the level "
                         "-j0*L^2 + h0 must be finite and the step 2L/n above "
                         "3 ulps of L")
    return CappedBarrier(bp, L, n)


def _chunks(pot, hbar, mu):
    """Yield (start, end, h, q, x, under) per chunk, walking right to left.

    A chunk [start, end) holds at most _CHUNK cells and ends early where its
    integrated kappa passes _GROWTH_BOUND.  Each chunk's geometry is computed
    from pot.samples of its window: w = 2*mu*V/hbar^2 from the mean of the
    cell's endpoint samples, the width h, q = sqrt(|w|), the phase x = q*h
    and the mask under = w > 0 of the cells under the barrier, where
    kappa = q.
    """
    end = pot.cells
    while end > 0:
        lo = max(end - _CHUNK, 0)
        grid, values = pot.samples(lo, end)
        h = grid[1:] - grid[:-1]
        # w in place, with the operations of 2*mu*V/hbar^2 in order
        w = np.add(values[1:], values[:-1])
        w *= 0.5
        w *= 2.0 * mu
        w /= hbar**2
        q = np.sqrt(np.abs(w))
        x = q * h
        under = w > 0.0
        cells = w.size
        # kappa is x under the barrier and 0 elsewhere.  Partial sums of
        # non-negative terms never pass their total, and any order of
        # summing n of them errs by less than n * 2**-52 of it: a pairwise
        # total of x, or of kappa, that far below the bound cannot cut the
        # chunk, and the sequential cumsum is needed only near it
        slack = 1.0 + cells * 2.0**-50
        if not x.sum() * slack <= _GROWTH_BOUND:
            kappa = np.where(under, x, 0.0)
            if not kappa.sum() * slack <= _GROWTH_BOUND:
                growth = np.cumsum(kappa[::-1])
                cells = max(int(np.searchsorted(growth, _GROWTH_BOUND,
                                                side="right")), 1)
        start = end - cells
        yield start, end, h[-cells:], q[-cells:], x[-cells:], under[-cells:]
        end = start


def _write_propagators(out, h, q, x, under):
    """Write the right-to-left propagators of one chunk's cells into out.

    out has shape (2, 2, cells) and the matrices act on (psi, psi'):
    [[c, -s/q], [-sign(w)*q*s, c]] with c, s = cosh, sinh(x) under the
    barrier (w > 0) and cos, sin(x) elsewhere, and the free cell
    [[1, -h], [-0.0, 1]] where w == 0 (s/q -> h as q -> 0).  A chunk on one
    side of the barrier evaluates one pair of functions over all its
    cells; only a chunk that holds both kinds, or a free cell, is masked.
    """
    diag, upper, lower = out[0, 0], out[0, 1], out[1, 0]
    cells = under.size
    forbidden = np.count_nonzero(under)
    free = None if forbidden == cells or q.all() else q == 0.0
    if forbidden == cells or (forbidden == 0 and free is None):
        cos, sin = (np.cosh, np.sinh) if forbidden else (np.cos, np.sin)
        cos(x, out=diag)
        sin(x, out=lower)
    else:
        allowed = ~under
        np.cos(x, out=diag, where=allowed)
        np.cosh(x, out=diag, where=under)
        np.sin(x, out=lower, where=allowed)
        np.sinh(x, out=lower, where=under)
    np.negative(lower, out=upper)
    np.multiply(q, lower, out=lower)
    # -sign(w)*q*s is -(q*s) under the barrier and q*s elsewhere
    if forbidden == cells:
        np.negative(lower, out=lower)
    elif forbidden:
        np.negative(lower, out=lower, where=under)
    if free is None:
        np.divide(upper, q, out=upper)
    else:
        np.divide(upper, q, out=upper, where=~free)
        upper[free] = -h[free]
        lower[free] = -0.0
    out[1, 1] = diag


def _chunk_products(chunks, cells):
    """The total propagator of each chunk, in walk order.

    Up to _BATCH chunks write their propagators straight into one
    identity-padded (2, 2, _BATCH, width) buffer, and one pairwise reduction
    multiplies them all; the exact identity padding leaves each product
    unchanged.  A shorter walk gets all _BATCH rows too: glibc trims the heap
    past twice the largest block it freed from mmap, so this buffer keeps
    the walk's memory from being trimmed and faulted in again per walk.
    """
    buf = np.empty((2, 2, _BATCH, min(_CHUNK, cells)))
    filled = 0
    for _, _, h, q, x, under in chunks:
        _write_propagators(buf[:, :, filled, :h.size], h, q, x, under)
        buf[:, :, filled, h.size:] = _IDENTITY
        filled += 1
        if filled == _BATCH:
            yield from np.moveaxis(products(buf), -1, 0)
            filled = 0
    if filled:
        yield from np.moveaxis(products(buf[:, :, :filled]), -1, 0)


def _carry(p, psi, dpsi, log_scale):
    """Carry (psi, psi') across one chunk and renormalise into the log-scale."""
    psi, dpsi = (p[0, 0] * psi + p[0, 1] * dpsi,
                 p[1, 0] * psi + p[1, 1] * dpsi)
    m = max(abs(psi), abs(dpsi))
    return psi / m, dpsi / m, log_scale + math.log(m)


def _propagate(pot, hbar, mu):
    """Propagate (psi, psi') from the right edge to the left edge.

    Starts from a pure outgoing wave psi = 1, psi' = i*k_R and walks left
    using the exact constant-potential propagator per cell (the cell value
    is the mean of its endpoint samples), in the chunks of _chunks.  Each
    chunk's total product, from the batched pairwise reductions of
    _chunk_products, carries (psi, psi') across it, and the carried pair
    is then renormalised into the returned log-scale.
    """
    k_left_sq = -2.0 * mu * pot.samples(0, 0)[1][0] / hbar**2
    k_right_sq = -2.0 * mu * pot.samples(pot.cells, pot.cells)[1][0] / hbar**2
    if k_left_sq <= 0 or k_right_sq <= 0:
        raise ValueError("both asymptotic levels must be negative so that "
                         "zero-energy waves propagate on both sides")
    k_left = math.sqrt(k_left_sq)
    k_right = math.sqrt(k_right_sq)

    psi = 1.0 + 0.0j
    dpsi = 1j * k_right
    log_scale = 0.0
    for p in _chunk_products(_chunks(pot, hbar, mu), pot.cells):
        psi, dpsi, log_scale = _carry(p, psi, dpsi, log_scale)
    return psi, dpsi, log_scale, k_left, k_right


def _transmission_once(pot, hbar, mu) -> float:
    """T through any profile with cells and samples(lo, hi), at hbar and mu."""
    psi, dpsi, log_scale, k_left, k_right = _propagate(pot, hbar, mu)
    # decompose the left-edge solution into incident and reflected waves
    alpha = 0.5 * (psi + dpsi / (1j * k_left))
    log_T = (math.log(k_right / k_left)
             - 2.0 * math.log(abs(alpha)) - 2.0 * log_scale)
    # a near-transparent profile can round to just above T = 1
    return math.exp(min(log_T, 0.0))


def transfer_matrix_transmission(pot: CappedBarrier) -> TransmissionEstimate:
    """Transmission probability through the capped barrier at zero energy.

    The walk uses the hbar and mu of pot.bp.  T = (k_right/k_left) /
    |incident amplitude|^2.  The same computation on the 2x-coarsened grid
    feeds a Richardson error estimate (the scheme is second order in the
    cell width); an odd cell count has no such pair, warns, and gives NaN.
    """
    hbar, mu = pot.bp.hbar, pot.bp.mu
    t_fine = _transmission_once(pot, hbar, mu)
    if pot.cells % 2 == 0:
        t_coarse = _transmission_once(pot.coarsened(), hbar, mu)
        rich = abs(t_fine - t_coarse) / 3.0
    else:
        warnings.warn("odd cell count: no Richardson pair, error estimate is NaN")
        rich = math.nan
    return TransmissionEstimate(T_numeric=t_fine, richardson_error=rich)
