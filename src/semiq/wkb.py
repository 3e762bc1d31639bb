"""Semiclassical transmission through an inverted-parabola barrier.

The interaction energy of the collective coordinate phi is modelled as

    H_int(phi) = -J0 * phi**2 + H0,

so the barrier (H_int >= 0) occupies |phi| <= b with b = sqrt(H0/J0).
A zero-energy wave obeys  -hbar**2 psi'' + 2*mu*H_int(phi)*psi = 0, and the
standard connection formulas give a transmission probability

    T = exp(-2*Lambda),   Lambda = (1/hbar) * integral_a^b sqrt(2*mu*H_int),

with the closed form Lambda = (pi*H0 / (2*hbar)) * sqrt(2*mu/J0).

A BarrierProblem is one point when hbar, mu, j0 and h0 are floats, and a
column of points when any of them is a 1-D array.  Every function below
evaluates all of a problem's points in one numpy pass, as one-element
columns for a one-point problem, and returns a Python scalar for a
one-point problem and an array otherwise; a point's value is therefore the
same bits alone and in a sweep.  The quadrature is the fixed 21-point
Gauss-Kronrod rule of QUADPACK's qk21, the one pass QUADPACK's adaptive
driver takes on this integrand.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature

__all__ = [
    "BarrierProblem", "WkbSolution", "turning_points",
    "barrier_exponent_closed", "barrier_exponent", "activation_rate",
    "solve_barrier", "wkb_wavefunction", "current_ratio",
]

#: fraction of the barrier width around each turning point where the
#: 1/sqrt(p) prefactors blow up and evaluation is refused
TURNING_POINT_EXCLUSION = 1e-3

#: current_ratio samples the currents CURRENT_OFFSET barrier widths outside
#: the turning points, with a step of CURRENT_REL_STEP wavelengths hbar/p
CURRENT_OFFSET = 0.5
CURRENT_REL_STEP = 1e-4

_REGIONS = ("incoming", "under_barrier", "outgoing")


def _strict(kernel):
    """Run ``kernel`` with numpy's overflow, invalid and divide errors
    raised: exp(2*Lambda) past the float range raises FloatingPointError
    instead of turning a current into inf or nan with only a warning."""
    @functools.wraps(kernel)
    def wrapper(*args, **kwargs):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return kernel(*args, **kwargs)
    return wrapper


def _interaction(phi, j0, h0):
    """-j0*phi^2 + h0, squared as phi*phi on floats and arrays alike (a
    Python float's **2 goes through libm pow, which may round differently)."""
    return -j0 * (phi * phi) + h0


def _validate(hbar, mu, j0, h0):
    """The checks of every barrier, on floats or on whole columns."""
    for name, v in (("hbar", hbar), ("mu", mu), ("j0", j0)):
        if not np.all((v > 0) & np.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite")
    if not np.all((h0 >= 0) & np.isfinite(h0)):
        raise ValueError("h0 must be non-negative and finite")


@dataclass(frozen=True, eq=False)
class BarrierProblem:
    """Inverted-parabola barrier -J0*phi^2 + H0 with effective mass mu.

    Each parameter is a float or a 1-D array with one entry per point; the
    floats broadcast against the arrays, which are stored as equal-length
    float arrays.  The same checks apply to every entry.
    """

    hbar: float | np.ndarray
    mu: float | np.ndarray
    j0: float | np.ndarray
    h0: float | np.ndarray

    def __post_init__(self):
        params = (self.hbar, self.mu, self.j0, self.h0)
        if all(np.ndim(v) == 0 for v in params):
            _validate(*params)
            return
        cols = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                     for v in params))
        if cols[0].ndim != 1:
            raise ValueError("barrier parameters must be floats or "
                             "one-dimensional arrays")
        _validate(*cols)
        for name, col in zip(("hbar", "mu", "j0", "h0"), cols):
            object.__setattr__(self, name, col)

    def interaction_energy(self, phi):
        """Barrier profile -j0*phi**2 + h0 (works on scalars and arrays)."""
        return _interaction(phi, self.j0, self.h0)


def _columns(bp: BarrierProblem):
    """(hbar, mu, j0, h0) as 1-D float arrays, one entry per point."""
    return [np.atleast_1d(np.asarray(v, dtype=float))
            for v in (bp.hbar, bp.mu, bp.j0, bp.h0)]


def _result(bp: BarrierProblem, values, kind=float):
    """values as a Python scalar for a one-point problem, else the array."""
    return kind(values[0]) if np.ndim(bp.hbar) == 0 else values


def turning_points(bp: BarrierProblem):
    """Return (a, b) with a = -sqrt(h0/j0), b = +sqrt(h0/j0)."""
    _, _, j0, h0 = _columns(bp)
    b = _result(bp, np.sqrt(h0 / j0))
    return -b, b


def _qk21_nodes():
    """QUADPACK's qk21 on [-pi/2, pi/2]: the centre as (sin, cos) and its
    Kronrod weight, the (Kronrod weight, (sin, cos) left, (sin, cos) right)
    of the node pairs in the order qk21 sums them, and the half-length.

    The nodes and weights are qk21's xgk and wgk; the Gauss-node pairs come
    first, then the Kronrod-only pairs.  sin and cos are libm's, as in a
    scalar integrand.
    """
    xgk, wgk = quadrature.XGK, quadrature.WGK
    lo, hi = -math.pi / 2.0, math.pi / 2.0
    centr, hlgth = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def node(theta):
        return math.sin(theta), math.cos(theta)

    pairs = [(wgk[j], node(centr - hlgth * xgk[j]), node(centr + hlgth * xgk[j]))
             for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)]   # qk21's jtw, then jtwm1
    return node(centr), wgk[10], pairs, hlgth


_QK21_CENTRE, _QK21_CENTRE_WEIGHT, _QK21_PAIRS, _QK21_HALF = _qk21_nodes()


def barrier_exponent_closed(bp: BarrierProblem):
    """Closed-form exponent Lambda = (pi*h0 / (2*hbar)) * sqrt(2*mu/j0)."""
    hbar, mu, j0, h0 = _columns(bp)
    return _result(bp, (math.pi * h0 / (2.0 * hbar)) * np.sqrt(2.0 * mu / j0))


@_strict
def barrier_exponent(bp: BarrierProblem):
    """Quadrature exponent Lambda = (1/hbar) * integral_a^b rho(phi) dphi.

    The integrand has square-root zeros at both endpoints, so it is taken
    in the angle variable phi = b*sin(theta), where it is smooth:
    rho(b*sin t)*b*cos t = b*sqrt(2*mu*h0)*cos^2 t on [-pi/2, pi/2].  The
    rule is QUADPACK's 21-point Gauss-Kronrod qk21, summed in qk21's order
    and scaled by the half-length, so each value equals the one pass that
    scipy's adaptive quad takes on this integrand; each node is evaluated
    for all points at once.  A flat top (h0 = 0, b = 0) gives 0.
    """
    hbar, mu, j0, h0 = _columns(bp)
    b = np.sqrt(h0 / j0)

    def f(node):
        """The integrand at one node, for every point."""
        sin, cos = node
        h = _interaction(b * sin, j0, h0)
        # clip tiny negatives from roundoff near the endpoints
        return np.sqrt(np.maximum(2.0 * mu * h, 0.0)) * b * cos

    resk = _QK21_CENTRE_WEIGHT * f(_QK21_CENTRE)
    for w, left, right in _QK21_PAIRS:
        resk = resk + w * (f(left) + f(right))
    return _result(bp, resk * _QK21_HALF / hbar)


def _transmission(bp: BarrierProblem, lam):
    """exp(-2*Lambda) for each exponent, by libm's exp.

    numpy's vectorised exp differs from libm's in the last bit on a few
    percent of arguments; libm keeps every T the same bits in a sweep and
    alone.
    """
    return _result(bp, np.array([math.exp(-2.0 * x)
                                 for x in np.atleast_1d(lam).tolist()]))


def activation_rate(bp: BarrierProblem):
    """Transmission probability T = exp(-2*Lambda), closed form."""
    return _transmission(bp, barrier_exponent_closed(bp))


@dataclass(frozen=True)
class WkbSolution:
    """Connection-formula solution of a BarrierProblem.

    The three-region wavefunction is normalised by the outgoing amplitude c;
    the incoming branch carries the exp(Lambda) enhancement that encodes the
    smallness of the transmitted flux.
    """

    problem: BarrierProblem
    barrier_exponent: float | np.ndarray
    transmission: float | np.ndarray
    c: complex = field(default=1.0 + 0.0j)

    def __post_init__(self):
        if self.c == 0:
            raise ValueError("normalization c must be nonzero")


def solve_barrier(bp: BarrierProblem, c: complex = 1.0 + 0.0j) -> WkbSolution:
    lam = barrier_exponent(bp)
    return WkbSolution(problem=bp, barrier_exponent=lam,
                       transmission=_transmission(bp, lam), c=c)


def _allowed_action(x, b, k):
    """(integral_b^x p, p(x)) for x > b, in closed form.

    With p = k*sqrt(x^2 - b^2) and k = sqrt(2*mu*j0) the antiderivative is
    (k/2)*(x*sqrt(x^2 - b^2) - b^2*arcosh(x/b)), the arcosh written as
    arsinh(sqrt(x^2 - b^2)/b) so that it stays accurate near the turning
    point; the term vanishes with b.
    """
    s = np.sqrt((x - b) * (x + b))
    arc = b * b * np.arcsinh(s / np.where(b > 0.0, b, 1.0))
    return 0.5 * k * (x * s - arc), k * s


def _forbidden_action(x, b, k):
    """(integral_x^b rho, rho(x)) for |x| < b, in closed form.

    With rho = k*sqrt(b^2 - x^2) the antiderivative is
    (k/2)*(b^2*arccos(x/b) - x*sqrt(b^2 - x^2)), the arccos written as
    atan2(sqrt(b^2 - x^2), x); at x = a it is hbar*Lambda.
    """
    s = np.sqrt((b - x) * (b + x))
    return 0.5 * k * (b * b * np.arctan2(s, x) - x * s), k * s


def _refuse(bad, message):
    """Raise ValueError naming the first point where ``bad`` holds."""
    if np.any(bad):
        raise ValueError(message(int(np.argmax(bad))))


@_strict
def wkb_wavefunction(sol: WkbSolution, region: str, phi):
    """Evaluate the three-region wavefunction at phi, one value per point.

    incoming  (phi < a): exp(L) * (-i c)/sqrt(p) * exp(i*(FI - pi/4)),
                         FI = (1/hbar) * integral_phi^a p
    under     (a<phi<b): (-i c)/sqrt(rho) * exp((1/hbar) * integral_phi^b rho)
    outgoing  (phi > b): c/sqrt(p) * exp(i*(FO - pi/4)),
                         FO = (1/hbar) * integral_b^phi p

    phi is a float or one value per point; a one-point problem at a float
    phi gives a complex.  The barrier is symmetric, so FI at phi is FO at
    -phi; all three integrals have closed forms (_allowed_action,
    _forbidden_action).  Evaluation within TURNING_POINT_EXCLUSION*(b - a)
    of a turning point is refused: the 1/sqrt prefactor is meaningless
    there.
    """
    if region not in _REGIONS:
        raise ValueError(f"region must be one of {_REGIONS}, got {region!r}")
    hbar, mu, j0, h0 = _columns(sol.problem)
    one = np.ndim(phi) == 0
    phi = np.broadcast_to(np.asarray(phi, dtype=float), hbar.shape)
    b = np.sqrt(h0 / j0)
    a = -b
    guard = TURNING_POINT_EXCLUSION * (b - a)
    _refuse(np.minimum(abs(phi - a), abs(phi - b)) <= guard, lambda i: (
        f"phi={phi[i]} is within the exclusion zone {guard[i]} of a turning point"))

    k = np.sqrt(2.0 * mu * j0)
    lam = sol.barrier_exponent
    c = np.asarray(sol.c, dtype=complex)
    if region == "incoming":
        _refuse(~(phi < a), lambda i: (
            f"phi={phi[i]} is not in the incoming region (phi < {a[i]})"))
        action, p = _allowed_action(-phi, b, k)
        psi = (np.exp(lam) * (-1j) * c / np.sqrt(p)
               * np.exp(1j * (action / hbar - math.pi / 4.0)))
    elif region == "under_barrier":
        _refuse(~((a < phi) & (phi < b)), lambda i: (
            f"phi={phi[i]} is not under the barrier ({a[i]}, {b[i]})"))
        # the amplitude grows towards the entrance face
        action, rho = _forbidden_action(phi, b, k)
        psi = (-1j) * c / np.sqrt(rho) * np.exp(action / hbar)
    else:
        _refuse(~(phi > b), lambda i: (
            f"phi={phi[i]} is not in the outgoing region (phi > {b[i]})"))
        action, p = _allowed_action(phi, b, k)
        psi = c / np.sqrt(p) * np.exp(1j * (action / hbar - math.pi / 4.0))
    return _result(sol.problem, psi, complex) if one else psi


def _fd_currents(sol, hbar_over_mu, region, phi, h):
    """Probability currents j = (hbar/mu)*Im(psi* dpsi/dphi), central differences."""
    psi = wkb_wavefunction(sol, region, phi)
    dpsi = (wkb_wavefunction(sol, region, phi + h)
            - wkb_wavefunction(sol, region, phi - h)) / (2.0 * h)
    return hbar_over_mu * (psi.conjugate() * dpsi).imag


@_strict
def current_ratio(sol: WkbSolution, bp: BarrierProblem | None = None):
    """|j_outgoing| / |j_incoming| from finite-difference currents, per point.

    bp, if given, must be the solution's problem.  Both currents are
    checked against their closed-form values (|c|^2/mu outgoing,
    exp(2*Lambda)*|c|^2/mu incoming); a deviation beyond 1e-4 (a coarse
    step, or the rounding of phi +- h at h0 < 1e-11) is an error naming
    the first such point.  exp(2*Lambda) past the float range
    (Lambda > 354) raises FloatingPointError.  The ratio is independent of c.
    """
    cols = _columns(sol.problem)
    if bp is not None and not all(map(np.array_equal, _columns(bp), cols)):
        raise ValueError("bp must be the problem the solution solves")
    hbar, mu, j0, h0 = cols
    b = np.sqrt(h0 / j0)
    a = -b
    scale = np.where(b > a, b - a, 1.0)
    phi_in = a - CURRENT_OFFSET * scale
    phi_out = b + CURRENT_OFFSET * scale
    # a fixed phase step k*h keeps the rounding that 1/(k*h) amplifies the
    # same at any wavelength; on a barrier narrower than about a hundredth
    # of a wavelength the step is capped at 1 % of its width, because the
    # amplitude 1/sqrt(p) varies on the scale of b and its second-order
    # error grows as (h/b)^2
    p_out = np.sqrt(-2.0 * mu * _interaction(phi_out, j0, h0))
    h = np.minimum(CURRENT_REL_STEP * hbar / p_out, 0.01 * scale)

    j_in = _fd_currents(sol, hbar / mu, "incoming", phi_in, h)
    j_out = _fd_currents(sol, hbar / mu, "outgoing", phi_out, h)

    c2 = abs(np.asarray(sol.c, dtype=complex)) ** 2
    j_out_exact = c2 / mu
    j_in_exact = np.exp(2.0 * np.asarray(sol.barrier_exponent, dtype=float)) * c2 / mu
    for name, got, want in (("outgoing", abs(j_out), j_out_exact),
                            ("incoming", abs(j_in), j_in_exact)):
        dev = abs(got - want) / want
        bad = ~(dev <= 1e-4)           # a nan deviation fails too
        if np.any(bad):
            i = int(np.argmax(bad))
            raise RuntimeError(
                f"finite-difference {name} current off by {dev[i]:.3e} at "
                f"point {i} (hbar={hbar[i]}, mu={mu[i]}, j0={j0[i]}, "
                f"h0={h0[i]})")
    return _result(sol.problem, abs(j_out) / abs(j_in))
