"""Semiclassical transmission through an inverted-parabola barrier.

The interaction energy of the collective coordinate phi is modelled as

    H_int(phi) = -J0 * phi**2 + H0,

so the barrier (H_int >= 0) occupies |phi| <= b with b = sqrt(H0/J0).
A zero-energy wave obeys  -hbar**2 psi'' + 2*mu*H_int(phi)*psi = 0, and the
standard connection formulas give a transmission probability

    T = exp(-2*Lambda),   Lambda = (1/hbar) * integral_a^b sqrt(2*mu*H_int),

with the closed form Lambda = (pi*H0 / (2*hbar)) * sqrt(2*mu/J0).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from scipy.integrate import quad

__all__ = [
    "BarrierProblem",
    "Momenta",
    "WkbSolution",
    "turning_points",
    "momenta",
    "barrier_exponent",
    "barrier_exponent_closed",
    "activation_rate",
    "solve_barrier",
    "wkb_wavefunction",
    "current_ratio",
]

#: fraction of the barrier width around each turning point where the
#: 1/sqrt(p) prefactors blow up and evaluation is refused
TURNING_POINT_EXCLUSION = 1e-3

#: current_ratio samples the currents CURRENT_OFFSET barrier widths outside
#: the turning points, with a step of CURRENT_REL_STEP wavelengths hbar/p
CURRENT_OFFSET = 0.5
CURRENT_REL_STEP = 1e-4

_REGIONS = ("incoming", "under_barrier", "outgoing")


@dataclass(frozen=True)
class BarrierProblem:
    """Inverted-parabola barrier -J0*phi^2 + H0 with effective mass mu."""

    hbar: float
    mu: float
    j0: float
    h0: float

    def __post_init__(self):
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ValueError("hbar must be positive and finite")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise ValueError("mu must be positive and finite")
        if not (self.j0 > 0 and math.isfinite(self.j0)):
            raise ValueError("j0 must be positive and finite")
        if not (self.h0 >= 0 and math.isfinite(self.h0)):
            raise ValueError("h0 must be non-negative and finite")

    def interaction_energy(self, phi):
        """Barrier profile -j0*phi**2 + h0 (works on scalars and arrays)."""
        return -self.j0 * phi**2 + self.h0


class Momenta(NamedTuple):
    """Local momenta; the one undefined in the region at hand is None."""

    p: float | None      # classically allowed, sqrt(-2*mu*H_int)
    rho: float | None    # under the barrier, sqrt(+2*mu*H_int)


def turning_points(bp: BarrierProblem) -> tuple[float, float]:
    """Return (a, b) with a = -sqrt(h0/j0), b = +sqrt(h0/j0)."""
    b = math.sqrt(bp.h0 / bp.j0)
    return -b, b


def momenta(bp: BarrierProblem, phi: float) -> Momenta:
    """Local momentum magnitudes at phi.

    Outside the barrier H_int < 0 and p = sqrt(-2*mu*H_int) is real while
    rho is undefined; under the barrier the roles swap.  At a turning point
    both vanish.
    """
    h = bp.interaction_energy(phi)
    if h == 0.0:
        return Momenta(0.0, 0.0)
    if h < 0.0:
        return Momenta(math.sqrt(-2.0 * bp.mu * h), None)
    return Momenta(None, math.sqrt(2.0 * bp.mu * h))


def barrier_exponent_closed(bp: BarrierProblem) -> float:
    """Closed-form exponent Lambda = (pi*h0 / (2*hbar)) * sqrt(2*mu/j0)."""
    return (math.pi * bp.h0 / (2.0 * bp.hbar)) * math.sqrt(2.0 * bp.mu / bp.j0)


def barrier_exponent(bp: BarrierProblem) -> float:
    """Quadrature value of Lambda = (1/hbar) * integral_a^b rho(phi) dphi.

    The integrand has square-root zeros at both endpoints, so integrate in
    the angle variable phi = b*sin(theta) where it is smooth:
    rho(b*sin t)*b*cos t = b*sqrt(2*mu*h0)*cos^2 t.
    """
    a, b = turning_points(bp)
    if b == 0.0:
        return 0.0

    def integrand(theta: float) -> float:
        phi = b * math.sin(theta)
        h = bp.interaction_energy(phi)
        # clip tiny negatives from roundoff at the endpoints
        return math.sqrt(max(2.0 * bp.mu * h, 0.0)) * b * math.cos(theta)

    val, _ = quad(integrand, -math.pi / 2.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-12)
    return val / bp.hbar


def activation_rate(bp: BarrierProblem) -> float:
    """Transmission probability T = exp(-2*Lambda), closed form."""
    return math.exp(-2.0 * barrier_exponent_closed(bp))


@dataclass(frozen=True)
class WkbSolution:
    """Connection-formula solution of a BarrierProblem.

    The three-region wavefunction is normalised by the outgoing amplitude c;
    the incoming branch carries the exp(Lambda) enhancement that encodes the
    smallness of the transmitted flux.
    """

    problem: BarrierProblem
    barrier_exponent: float
    transmission: float
    c: complex = field(default=1.0 + 0.0j)

    def __post_init__(self):
        if self.c == 0:
            raise ValueError("normalization c must be nonzero")


def solve_barrier(bp: BarrierProblem, c: complex = 1.0 + 0.0j) -> WkbSolution:
    lam = barrier_exponent(bp)
    return WkbSolution(problem=bp, barrier_exponent=lam,
                       transmission=math.exp(-2.0 * lam), c=c)


def _allowed_action(bp: BarrierProblem, x: float) -> tuple[float, float]:
    """(integral_b^x p, p(x)) for x > b, in closed form.

    With p = k*sqrt(x^2 - b^2) and k = sqrt(2*mu*j0) the antiderivative is
    (k/2)*(x*sqrt(x^2 - b^2) - b^2*arcosh(x/b)), the arcosh written as
    arsinh(sqrt(x^2 - b^2)/b) so that it stays accurate near the turning
    point; the term vanishes with b.
    """
    _, b = turning_points(bp)
    k = math.sqrt(2.0 * bp.mu * bp.j0)
    s = math.sqrt((x - b) * (x + b))
    arc = b * b * math.asinh(s / b) if b > 0.0 else 0.0
    return 0.5 * k * (x * s - arc), k * s


def _forbidden_action(bp: BarrierProblem, x: float) -> tuple[float, float]:
    """(integral_x^b rho, rho(x)) for |x| < b, in closed form.

    With rho = k*sqrt(b^2 - x^2) the antiderivative is
    (k/2)*(b^2*arccos(x/b) - x*sqrt(b^2 - x^2)), the arccos written as
    atan2(sqrt(b^2 - x^2), x); at x = a it is hbar*Lambda.
    """
    _, b = turning_points(bp)
    k = math.sqrt(2.0 * bp.mu * bp.j0)
    s = math.sqrt((b - x) * (b + x))
    return 0.5 * k * (b * b * math.atan2(s, x) - x * s), k * s


def wkb_wavefunction(sol: WkbSolution, region: str, phi: float) -> complex:
    """Evaluate the three-region wavefunction at phi.

    incoming  (phi < a): exp(L) * (-i c)/sqrt(p) * exp(i*(FI - pi/4)),
                         FI = (1/hbar) * integral_phi^a p
    under     (a<phi<b): (-i c)/sqrt(rho) * exp((1/hbar) * integral_phi^b rho)
    outgoing  (phi > b): c/sqrt(p) * exp(i*(FO - pi/4)),
                         FO = (1/hbar) * integral_b^phi p

    The barrier is symmetric, so FI at phi is FO at -phi; all three
    integrals have closed forms (_allowed_action, _forbidden_action).
    Evaluation within TURNING_POINT_EXCLUSION*(b - a) of a turning point is
    refused: the 1/sqrt prefactor is meaningless there.
    """
    if region not in _REGIONS:
        raise ValueError(f"region must be one of {_REGIONS}, got {region!r}")
    bp = sol.problem
    a, b = turning_points(bp)
    guard = TURNING_POINT_EXCLUSION * (b - a)
    if min(abs(phi - a), abs(phi - b)) <= guard:
        raise ValueError(
            f"phi={phi} is within the exclusion zone {guard} of a turning point")

    c = complex(sol.c)
    if region == "incoming":
        if not phi < a:
            raise ValueError(f"phi={phi} is not in the incoming region (phi < {a})")
        action, p = _allowed_action(bp, -phi)
        return (math.exp(sol.barrier_exponent) * (-1j) * c / math.sqrt(p)
                * cmath.exp(1j * (action / bp.hbar - math.pi / 4.0)))
    if region == "under_barrier":
        if not a < phi < b:
            raise ValueError(f"phi={phi} is not under the barrier ({a}, {b})")
        # the amplitude grows towards the entrance face
        action, rho = _forbidden_action(bp, phi)
        return (-1j) * c / math.sqrt(rho) * math.exp(action / bp.hbar)
    # outgoing
    if not phi > b:
        raise ValueError(f"phi={phi} is not in the outgoing region (phi > {b})")
    action, p = _allowed_action(bp, phi)
    return c / math.sqrt(p) * cmath.exp(1j * (action / bp.hbar - math.pi / 4.0))


def _fd_current(sol: WkbSolution, region: str, phi: float, h: float) -> float:
    """Probability current j = (hbar/mu)*Im(psi* dpsi/dphi), central differences."""
    bp = sol.problem
    psi = wkb_wavefunction(sol, region, phi)
    dpsi = (wkb_wavefunction(sol, region, phi + h)
            - wkb_wavefunction(sol, region, phi - h)) / (2.0 * h)
    return bp.hbar / bp.mu * (psi.conjugate() * dpsi).imag


def current_ratio(sol: WkbSolution, bp: BarrierProblem | None = None) -> float:
    """|j_outgoing| / |j_incoming| from finite-difference currents.

    Both currents are checked against their closed-form values
    (|c|^2/mu outgoing, exp(2*Lambda)*|c|^2/mu incoming); a deviation
    beyond 1e-4 means the finite-difference step is too coarse and is
    reported as an error.  The ratio is independent of c.
    """
    if bp is None:
        bp = sol.problem
    a, b = turning_points(bp)
    scale = (b - a) if b > a else 1.0
    phi_in = a - CURRENT_OFFSET * scale
    phi_out = b + CURRENT_OFFSET * scale
    # a fixed phase step k*h keeps the rounding that 1/(k*h) amplifies the
    # same at any wavelength; a quarter width stays clear of the exclusion zone
    h = min(CURRENT_REL_STEP * bp.hbar / momenta(bp, phi_out).p, 0.25 * scale)

    j_in = _fd_current(sol, "incoming", phi_in, h)
    j_out = _fd_current(sol, "outgoing", phi_out, h)

    c2 = abs(sol.c) ** 2
    j_out_exact = c2 / bp.mu
    j_in_exact = math.exp(2.0 * sol.barrier_exponent) * c2 / bp.mu
    for name, got, want in (("outgoing", abs(j_out), j_out_exact),
                            ("incoming", abs(j_in), j_in_exact)):
        if abs(got - want) > 1e-4 * want:
            raise RuntimeError(
                f"finite-difference {name} current off by "
                f"{abs(got - want) / want:.3e} (step too coarse?)")
    return abs(j_out) / abs(j_in)
