"""Semiclassical branch of a one-dimensional cosmological constraint.

For a wavefunction Psi(a, q) of a scale-like coordinate a coupled to a
small matter sector q, the constraint

    (-hbar**2 d^2/da^2 + U(a) + H_q(a)) Psi = 0

is solved order by order in hbar with the ansatz Psi = A(a) e^{iS/hbar} chi:

  *  (dS/da)^2 = U(a)                 (Hamilton-Jacobi phase; Lorentzian
                                       branch only, U > 0)
  *  A = (dS/da)^(-1/2), A(a0) = 1    (amplitude transport, A^2 S' const)
  *  da/dt = 2 N(t) dS/da             (the emergent clock; N is the lapse)
                                       separable: G(a) = tau(t), with
                                       G = integral da/(2 sqrt(U)) and
                                       tau = integral N dt
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

from . import quadrature
from .scan import suffix_products

__all__ = [
    "MiniSuperspaceModel",
    "ClockMap",
    "MatterTrajectory",
    "ResidualReport",
    "hamilton_jacobi_phase",
    "amplitude_transport",
    "clock_map",
    "evolve_matter",
    "wdw_residual",
]


def _unit_lapse(t):
    return np.ones_like(t, dtype=float)


@dataclass(frozen=True)
class MiniSuperspaceModel:
    """Potential U(a), hbar, lapse N(t) and an optional matter sector.

    U, N and the matter Hamiltonian H_q are called on arrays: U and N
    return an array of the same shape, H_q on the (steps,) array of step
    midpoints a stack of shape (steps, d, d).  One that takes only floats
    is called point by point instead, H_q then returning one (d, d) matrix
    per call.
    """

    potential_u: Callable[[np.ndarray], np.ndarray]
    hbar: float
    lapse: Callable[[np.ndarray], np.ndarray] = _unit_lapse
    matter_hamiltonian: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ValueError("hbar must be positive and finite")

    def u(self, a):
        return self.potential_u(a)


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    """Raise unless h is a (steps, d, d) stack of finite Hermitian matrices."""
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError("matter Hamiltonian must be a square matrix")
    if not np.all(np.isfinite(h)):
        raise ValueError("matter Hamiltonian must be finite")
    if np.max(np.abs(h - h.conj().swapaxes(1, 2))) > 1e-12:
        raise ValueError("matter Hamiltonian must be Hermitian")
    return h


def _values(fn: Callable, x: np.ndarray, shape: tuple = (),
            dtype: type = float) -> np.ndarray:
    """fn on the array x, as an array of shape x.shape + shape.

    A callable that takes only floats, or that returns another shape for
    an array, is called point by point instead; its values are then
    stacked as they come, so the caller checks their trailing shape.
    """
    try:
        y = np.asarray(fn(x), dtype=dtype)
        if y.shape != np.shape(x) + shape:
            raise TypeError
    except (TypeError, ValueError):
        y = np.array([fn(v) for v in np.ravel(x).tolist()], dtype=dtype)
        y = y.reshape(np.shape(x) + y.shape[1:])
    return y


def hamilton_jacobi_phase(model: MiniSuperspaceModel, a_grid: np.ndarray) -> np.ndarray:
    """S(a) = integral_{a0}^{a} sqrt(U) at the grid points.

    The clock's qk21 table of sqrt(U) (see _Primitive), started from the
    grid as its panel edges.  Only the Lorentzian branch U > 0 is
    supported: where U reaches 0 or below, on the grid or between its
    points, the table stops and this raises.
    """
    a = np.asarray(a_grid, dtype=float)
    if a.ndim != 1 or a.size < 2 or not np.all(np.diff(a) > 0):
        raise ValueError("a_grid must be strictly increasing with >= 2 points")
    table = _Primitive(lambda x: np.sqrt(_values(model.u, x)), a)
    if table.gap is not None:
        raise ValueError(f"U is not positive near a = {table.gap[1]:.17g}: "
                         "Euclidean region or turning point")
    # bisection only adds edges, so every grid point is one of them
    return table.F[np.searchsorted(table.x, a)]


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


#: uniform panels the lapse-time table tau(t) starts from on t_span
LAPSE_PANELS = 64

#: ratio of neighbouring edges the G(a) table starts from.  On U = c a^p a
#: panel then spans ln(17/16) = 0.061 in ln a, where the cubic Hermite
#: guess for a(G) is good to about 4e-8 relative and one Newton step to
#: roundoff
SCALE_RATIO = 17.0 / 16.0

#: a panel is accepted once its Kronrod and Gauss sums agree to this,
#: relative; otherwise it is bisected
PANEL_RTOL = 1e-13

#: a panel no wider than this many units in the last place of its edges is
#: not bisected further
NARROW_ULPS = 1024.0

#: a panel on which f is monotone is also accepted once |Kronrod - Gauss|
#: moves F^-1 by at most this many units in the last place: the rounding of
#: the nodes themselves, near a zero of U, sets that floor
NOISE_ULPS = 8.0

#: most panels bisection may add to those a table starts from
MAX_PANELS = 1 << 15

#: Newton steps of the inverse continue while the next one is predicted
#: to move x by more than this, relative
NEWTON_RTOL = 1e-15


def _panel(edges: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Index k of the panel [edges[k], edges[k+1]] holding each v."""
    return np.clip(np.searchsorted(edges, v, side="right") - 1, 0, edges.size - 2)


def _positive(v: np.ndarray) -> np.ndarray:
    return (v > 0.0) & (v < math.inf)


def _qk21(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """qk21 on each panel [lo, hi]: the Kronrod sums, their distance from
    the 10-point Gauss sums, whether f is positive and finite at all 21
    nodes, and whether it is monotone across them."""
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    with np.errstate(all="ignore"):
        vals = f((quadrature.KRONROD_X[:, None] * half + mid).ravel())
    vals = vals.reshape(quadrature.KRONROD_X.size, lo.size)
    kron = (quadrature.KRONROD_W @ vals) * half
    gauss = (quadrature.GAUSS_W @ vals[1::2]) * half
    rise = np.diff(vals, axis=0)
    return (kron, np.abs(kron - gauss), np.all(_positive(vals), axis=0),
            np.all(rise >= 0.0, axis=0) | np.all(rise <= 0.0, axis=0))


class _Primitive:
    """F(x) = integral_{x_0}^{x} f of a positive f, tabulated at panel edges.

    The table starts from the given edges and bisects every panel whose
    qk21 Kronrod and Gauss sums differ by more than PANEL_RTOL, relative,
    until it reaches F = f_end or x = x_end.  Near a zero of U, where the
    nodes' own rounding limits that agreement, a monotone panel also passes
    once the difference moves F^-1 by NOISE_ULPS or less.  The table stops
    short at the first panel it cannot resolve before NARROW_ULPS wide:
    where f is not positive and finite or not integrable.  That panel is
    kept as ``gap``.

    Between edges F is the edge value plus qk21's 10-point Gauss rule on
    the partial panel.  The inverse takes a cubic Hermite guess between the
    edges, where dx/dF = 1/f is exact, and Newton steps.  f maps arrays to
    arrays.
    """

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray,
                 f_end: float = math.inf, x_end: float = math.inf):
        x = np.asarray(edges, dtype=float)
        lo, hi = x[:-1], x[1:]
        kron, err, ok, mono = _qk21(f, lo, hi)
        self.gap = None
        while True:
            width = hi - lo
            ulp = np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
            wide = width > NARROW_ULPS * ulp
            # A pole of f inside a panel breaks monotony, so only the first
            # test could accept it: a scan of pole positions found
            # |Kronrod - Gauss| nowhere below 1e-8 of the Kronrod sum.  A
            # jump of f is accepted once the panel holding it is narrow; a
            # narrow panel next to a pole still adds order 1 to F.
            good = ok & ((err <= PANEL_RTOL * kron)
                         | (mono & wide & (err * width <= NOISE_ULPS * ulp * kron))
                         | (~wide & (err <= PANEL_RTOL * np.cumsum(kron))))
            n = int(np.argmin(good)) if not good.all() else lo.size
            reached = np.flatnonzero((np.cumsum(kron[:n]) >= f_end) | (hi[:n] >= x_end))
            if reached.size:
                lo, hi, kron = (v[:reached[0] + 1] for v in (lo, hi, kron))
                break
            # panels past the first one where f is not positive and finite
            # wait until it is resolved; the table ends at the first panel
            # too narrow to bisect
            first = lo.size if ok.all() else int(np.argmin(ok)) + 1
            bad = ~good
            bad[first:] = False
            narrow = np.flatnonzero(bad & ~wide)
            if narrow.size:
                last = narrow[0]
                self.gap = (float(lo[last]), float(hi[last]))
                lo, hi, kron, err, ok, mono, bad = (
                    v[:last] for v in (lo, hi, kron, err, ok, mono, bad))
            if not bad.any():
                break
            if lo.size + bad.sum() > x.size - 1 + MAX_PANELS:
                raise ValueError(f"qk21 needs more than {MAX_PANELS} extra panels on "
                                 f"[{lo[0]:.6g}, {hi[-1]:.6g}]: the integrand "
                                 "is too rough")
            mid = 0.5 * (lo[bad] + hi[bad])
            halves = np.concatenate((lo[bad], mid)), np.concatenate((mid, hi[bad]))
            lo, hi, kron, err, ok, mono = (
                np.concatenate((v[~bad], w)) for v, w in
                zip((lo, hi, kron, err, ok, mono), halves + _qk21(f, *halves)))
            order = np.argsort(lo)
            lo, hi, kron, err, ok, mono = (v[order] for v in (lo, hi, kron, err, ok, mono))
        x = np.concatenate((x[:1], hi))
        with np.errstate(all="ignore"):
            fx = f(x)
        if not _positive(fx).all():
            cut = int(np.argmin(_positive(fx)))
            keep = max(cut, 1)
            self.gap = (float(x[keep - 1]), float(x[cut]))
            x, fx, kron = x[:keep], fx[:keep], kron[:keep - 1]
        self.f, self.x, self.fx = f, x, fx
        self.F = np.concatenate(([0.0], np.cumsum(kron)))
        # per panel: |f'/(2f)|, which scales the error a Newton step
        # leaves, and the error at which the steps stop
        self.kappa = np.abs(np.log(fx[1:] / fx[:-1])) / (2.0 * np.diff(x))
        self.newton_tol = NEWTON_RTOL * np.maximum(np.abs(x[1:]), np.abs(x[:-1]))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._from_edge(_panel(self.x, x), x)

    def _from_edge(self, k: np.ndarray, x: np.ndarray) -> np.ndarray:
        """F(x) for x in panel k: F at its left edge plus the partial panel."""
        half = 0.5 * (x - self.x[k])
        nodes = quadrature.GAUSS_X[:, None] * half + (self.x[k] + half)
        return self.F[k] + (quadrature.GAUSS_W @ self.f(nodes)) * half

    def inverse(self, y: np.ndarray) -> np.ndarray:
        """x with F(x) = y: the Hermite guess, then Newton steps until the
        next one is predicted below NEWTON_RTOL, at most eight."""
        k = _panel(self.F, y)
        x0, x1, f0, f1 = self.x[k], self.x[k + 1], self.fx[k], self.fx[k + 1]
        d = self.F[k + 1] - self.F[k]
        s = (y - self.F[k]) / d
        x = np.clip(x0 + s * s * (3.0 - 2.0 * s) * (x1 - x0)
                    + s * (1.0 - s) * d * ((1.0 - s) / f0 - s / f1), x0, x1)
        todo = None                    # every point, then those still moving
        for _ in range(8):
            kt, xt, yt = (k, x, y) if todo is None else (k[todo], x[todo], y[todo])
            step = (self._from_edge(kt, xt) - yt) / self.f(xt)
            if todo is None:
                x = xt - step
            else:
                x[todo] = xt - step
            # Newton's error after a step is about |f'/(2f)| * step**2
            more = self.kappa[kt] * (step * step) > self.newton_tol[kt]
            if not more.any():
                break
            todo = np.flatnonzero(more) if todo is None else todo[more]
        return x


class ClockMap:
    """a(t) = G^-1(tau(t)), the solution of da/dt = 2 N(t) sqrt(U(a)).

    G(a) = integral_{a0}^{a} da'/(2 sqrt(U)) and the lapse time
    tau(t) = integral_{t0}^{t} N are tabulated primitives; see clock_map.
    """

    def __init__(self, scale: _Primitive, lapse_time: _Primitive,
                 t_span: tuple[float, float], truncated_at: float | None = None):
        self._scale = scale
        self._lapse_time = lapse_time
        self.t_span = t_span
        self.truncated_at = truncated_at

    def __call__(self, t):
        tt = np.asarray(t, dtype=float)
        out = self._scale.inverse(self._lapse_time(tt.ravel())).reshape(tt.shape)
        return float(out) if np.isscalar(t) else out


def clock_map(model: MiniSuperspaceModel, a0: float,
              t_span: tuple[float, float], a_max: float | None = None) -> ClockMap:
    """The emergent clock: a(t) with da/dt = 2 N(t) sqrt(U(a)), a(t0) = a0.

    The equation separates into G(a) = tau(t), G(a) = integral_{a0}^{a}
    da'/(2 sqrt(U)) and tau(t) = integral_{t0}^{t} N, so a(t) = G^-1(tau(t))
    needs no ODE solver.  tau is tabulated from LAPSE_PANELS uniform panels
    of t_span.  G is tabulated from panels whose edges grow by SCALE_RATIO
    from a0, their number doubled until G reaches tau(t1) or a reaches
    a_max.  Both tables bisect their panels until qk21's Kronrod and Gauss
    sums agree to PANEL_RTOL, so a(t) may come as close to a zero of U as
    the floats near it allow, and a zero between the samples of U is found.
    If a(t) reaches a_max the map is truncated at t* = tau^-1(G(a_max))
    with a warning.

    A lapse that is not positive, or a U that a(t) would take to 0 or
    below before t1, raises ValueError; a U that overflows before t1
    raises OverflowError.
    """
    t0, t1 = (float(t) for t in t_span)
    if not t1 > t0:
        raise ValueError("t_span must be increasing")
    if not (a0 > 0.0 and math.isfinite(a0)):
        raise ValueError("a0 must be positive and finite")
    if not model.u(a0) > 0.0:
        raise ValueError("U(a0) <= 0: Euclidean region or turning point")

    def pace(a):
        """dG/da = 1/(2 sqrt(U))."""
        return 0.5 / np.sqrt(_values(model.u, a))

    tau = _Primitive(lambda t: _values(model.lapse, t),
                     np.linspace(t0, t1, LAPSE_PANELS + 1))
    if tau.gap is not None:
        raise ValueError(f"lapse N(t) must be positive and finite on [{t0}, {t1}]")
    tau_end = tau.F[-1]
    a_stop = a_max if a_max is not None and a_max > a0 else math.inf

    edges = a0 * SCALE_RATIO ** np.arange(65.0)
    while True:
        g = _Primitive(pace, edges, tau_end, a_stop)
        if g.F[-1] >= tau_end or g.x[-1] >= a_stop:
            break
        if g.gap is not None:
            _refuse(model, *g.gap, t1)
        with np.errstate(over="ignore"):
            edges = a0 * SCALE_RATIO ** np.arange(2.0 * edges.size - 1.0)

    truncated_at = None
    if g.x[-1] >= a_stop:
        g_stop = g(np.array([a_stop]))
        if g_stop[0] < tau_end:
            truncated_at = float(tau.inverse(g_stop)[0])
            warnings.warn(f"clock map truncated at t={truncated_at}: a reached {a_max}")
    return ClockMap(g, tau, (t0, t1), truncated_at)


def _refuse(model: MiniSuperspaceModel, lo: float, hi: float, t1: float) -> None:
    """Raise for the G panel [lo, hi] the table could not pass before t1.

    U is sampled at the panel's ends and qk21 nodes.  The first value that
    is not positive and finite decides: U <= 0 is a turning point or a
    Euclidean region (ValueError), an infinite or nan U an overflow
    (OverflowError).  If U is positive throughout, 1/sqrt(U) is not
    integrable across the panel: U vanishes there to second order or more,
    or has a root between the samples.
    """
    if not math.isfinite(hi):
        raise OverflowError(f"a is not finite beyond a = {lo:.6g}, which a(t) "
                            f"reaches before t={t1}")
    a = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.concatenate(
        ([-1.0], quadrature.KRONROD_X, [1.0]))
    with np.errstate(all="ignore"):
        u = _values(model.u, a)
    first = int(np.argmin(_positive(u)))
    if not (_positive(u[first]) or u[first] <= 0.0):
        raise OverflowError(f"U is not finite at a = {a[first]:.6g}, which a(t) "
                            f"reaches before t={t1}")
    if u[first] <= 0.0:
        raise ValueError(f"U <= 0 beyond a = {lo:.17g}, which a(t) reaches "
                         f"before t={t1}: turning point or Euclidean region")
    raise ValueError(f"U vanishes near a = {lo:.17g}, which a(t) reaches "
                     f"before t={t1}: turning point")


@dataclass
class MatterTrajectory:
    t_grid: np.ndarray
    a_values: np.ndarray
    chis: np.ndarray                   # (len(t_grid), d) complex
    norms: np.ndarray                  # (len(t_grid),) |chi| per row
    max_norm_drift: float


def evolve_matter(model: MiniSuperspaceModel, clock: ClockMap,
                  chi0: np.ndarray, t_grid: np.ndarray) -> MatterTrajectory:
    """Unitary matter evolution i hbar dchi/dt = N(t) H_q(a(t)) chi.

    One midpoint-sampled exponential per step of the supplied grid (which
    need not be uniform).  H_q is called once, on the (steps,) array of
    step midpoints a(t_mid), and returns the (steps, d, d) stack of their
    Hamiltonians; one that takes only floats is called point by point.  The
    propagators U_k come from one batched eigendecomposition, and one
    suffix scan of the reversed stack gives every product U_k ... U_0,
    which carries chi0 to chi at t[k + 1].  Each propagator is unitary to
    roundoff; a per-step norm drift above 1e-12 rejects the run at that
    step.
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
    weights = _values(model.lapse, t_mid) * np.diff(t)
    dim = (chi.size, chi.size)
    h = _values(model.matter_hamiltonian, clock(t_mid), dim, complex)
    if h.shape[1:] != dim:
        raise ValueError("matter Hamiltonian must be a square matrix "
                         f"of chi0's dimension {chi.size}")
    vals, vecs = np.linalg.eigh(_check_hermitian(h))
    # exp(-1j * weight * H / hbar) per step
    phases = np.exp(-1j * weights[:, None] * vals / model.hbar)
    ops = np.matmul(vecs * phases[:, None, :], vecs.conj().swapaxes(1, 2))

    # U_k - I in the scan's (d, d, steps) layout, last step first: its
    # element steps - 1 - k becomes U_k ... U_0 - I
    chain = np.ascontiguousarray(ops[::-1].transpose(1, 2, 0))
    diag = np.arange(chi.size)
    chain[diag, diag] -= 1.0
    suffix_products(chain, minus_identity=True)
    chis = np.empty((t.size, chi.size), dtype=complex)
    chis[0] = chi
    np.einsum("ijn,j->ni", chain[..., ::-1], chi, out=chis[1:])
    chis[1:] += chi
    re, im = chis[1:].real, chis[1:].imag
    # vecdot sums like np.linalg.norm of one row; a norm along axis=1 does not
    norms = np.concatenate(([norm0], np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))))
    step_drift = np.abs(np.diff(norms))
    bad = np.flatnonzero(step_drift > 1e-12 * norm0)
    if bad.size:
        raise RuntimeError(f"norm drift {step_drift[bad[0]]:.2e} at step {bad[0]}: "
                           "propagator lost unitarity")
    return MatterTrajectory(t_grid=t, a_values=a_vals, chis=chis, norms=norms,
                            max_norm_drift=float(np.max(np.abs(norms - norm0))))


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
    u = _values(model.u, a)
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
