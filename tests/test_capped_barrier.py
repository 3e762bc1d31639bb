"""Exact transmission of the capped inverted parabola, as the oracle's reference.

cap_barrier flattens -j0*phi^2 + h0 at |phi| = L, so Kemble's formula for
the uncapped parabola is not the oracle's exact answer.  On [-L, L] the
zero-energy equation psi'' = (alpha - beta*phi^2) psi, alpha = 2*mu*h0/hbar^2
and beta = 2*mu*j0/hbar^2, has entire even and odd solutions whose Taylor
coefficients obey

    c_{n+2} (n+2)(n+1) = alpha c_n - beta c_{n-2}.

Both series are summed at phi = L in decimal arithmetic, parity gives them
at -L, and plane waves with k^2 = beta*L^2 - alpha are matched on both
sides.  With e, e' and o, o' the even and odd solutions and their slopes at
L (Wronskian e o' - e' o = 1),

    T = k^2 / ((k^2 e^2 + e'^2) (k^2 o^2 + o'^2)).
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from semiq import BarrierProblem, cap_barrier, transfer_matrix_transmission


def _solution_at(x, ax2, bx4, odd, tol):
    """(u(x), u'(x)) of the even or odd solution, from the scaled terms
    t_n = c_n x^n: t_{n+2} = (alpha x^2 t_n - beta x^4 t_{n-2}) / ((n+2)(n+1)).

    Past (n+1)(n+2) > 2(|alpha| x^2 + beta x^4) each term is at most half
    the larger of the two before it, so the sum stops once those are below
    tol."""
    prev, cur, n = Decimal(0), (x if odd else Decimal(1)), int(odd)
    u, xdu = cur, n * cur
    bound = abs(ax2) + bx4
    while (n + 1) * (n + 2) <= 2 * bound or (n + 1) * max(abs(cur), abs(prev)) >= tol:
        prev, cur = cur, (ax2 * cur - bx4 * prev) / ((n + 2) * (n + 1))
        n += 2
        u += cur
        xdu += n * cur
    return u, xdu / x


def capped_transmission(hbar, mu, j0, h0, L, digits=25):
    """Exact T at E = 0 of the barrier capped at |phi| = L, to `digits`.

    The terms reach about exp(sqrt(alpha) L + sqrt(beta) L^2 / 2) before
    they cancel, so the precision covers those digits on top.  The value is
    taken twice, 20 digits apart in precision and in the truncation, and
    the two must agree to `digits`.
    """
    alpha_f, beta_f = 2.0 * mu * h0 / hbar**2, 2.0 * mu * j0 / hbar**2
    lost = int((math.sqrt(alpha_f) * L + math.sqrt(beta_f) * L * L / 2.0)
               / math.log(10.0)) + 1

    def value(extra):
        with localcontext() as ctx:
            ctx.prec = lost + digits + extra
            hb2 = Decimal(hbar) ** 2
            alpha = 2 * Decimal(mu) * Decimal(h0) / hb2
            beta = 2 * Decimal(mu) * Decimal(j0) / hb2
            x = Decimal(L)
            x2 = x * x
            tol = Decimal(10) ** -(digits + extra)
            e, de = _solution_at(x, alpha * x2, beta * x2 * x2, False, tol)
            o, do = _solution_at(x, alpha * x2, beta * x2 * x2, True, tol)
            k2 = beta * x2 - alpha
            return k2 / ((k2 * e * e + de * de) * (k2 * o * o + do * do))

    coarse, fine = value(10), value(30)
    assert abs(coarse - fine) <= Decimal(10) ** -digits * fine
    return float(fine)


def _ode_transmission(hbar, mu, j0, h0, L):
    """T by integrating psi'' = (alpha - beta phi^2) psi from a pure
    outgoing wave at L back to -L with scipy's DOP853."""
    alpha, beta = 2.0 * mu * h0 / hbar**2, 2.0 * mu * j0 / hbar**2
    k = math.sqrt(beta * L * L - alpha)

    def rhs(phi, y):
        return [y[1], (alpha - beta * phi * phi) * y[0]]

    sol = solve_ivp(rhs, (L, -L), [1.0 + 0.0j, 1j * k], method="DOP853",
                    rtol=1e-13, atol=1e-300)
    psi, dpsi = sol.y[:, -1]
    # the left-moving part of psi at -L is the reflected wave; T = 1/|a_in|^2
    return 1.0 / abs(0.5 * (psi + dpsi / (1j * k))) ** 2


@pytest.mark.parametrize("hbar, mu, j0, h0", [(1.0, 1.0, 1.0, 1.0),
                                              (0.3, 1.0, 1.0, 1.0),
                                              (0.7, 2.0, 1.0, 0.5)])
def test_reference_matches_direct_integration(hbar, mu, j0, h0):
    L = 4.0 * math.sqrt(h0 / j0)
    assert capped_transmission(hbar, mu, j0, h0, L) == pytest.approx(
        _ode_transmission(hbar, mu, j0, h0, L), rel=1e-11)


#: (hbar, mu, j0, h0, cells): hbar from 0.05 to 2, cell counts even (so the
#: oracle has its Richardson pair) and around one chunk (4096) and sixteen
#: chunks (one batch of 16 * 4096)
BARRIERS = [
    (1.0, 1.0, 1.0, 1.0, 20000),
    (0.3, 1.0, 1.0, 1.0, 20000),
    (0.1, 1.0, 1.0, 1.0, 20000),
    (0.05, 1.0, 1.0, 1.0, 20000),
    (2.0, 1.0, 1.0, 1.0, 4094),
    (2.0, 1.0, 1.0, 1.0, 4096),
    (2.0, 1.0, 1.0, 1.0, 4098),
    (1.5, 0.5, 1.0, 2.0, 4096),
    (0.7, 2.0, 1.0, 0.5, 4098),
    (0.5, 1.0, 2.0, 1.0, 4094),
    (0.2, 1.0, 1.0, 0.3, 65534),
    (0.2, 1.0, 1.0, 0.3, 65538),
    (0.05, 1.0, 1.0, 1.0, 65534),
    (0.05, 1.0, 1.0, 1.0, 65538),
    (0.08, 0.7, 1.3, 0.6, 8192),
    (0.12, 3.0, 1.0, 0.25, 6000),
    (1.0, 0.2, 0.5, 4.0, 4096),
    (0.4, 1.5, 0.8, 1.2, 12000),
    (0.6, 1.0, 1.0, 2.5, 30000),
    (0.15, 0.4, 1.0, 1.5, 4098),
    (1.2, 1.0, 3.0, 0.7, 16384),
    (0.09, 1.1, 0.9, 0.9, 65536),
]


def test_barriers_cover_the_chunk_edges():
    cells = {row[4] for row in BARRIERS}
    assert {4094, 4096, 4098, 16 * 4096 - 2, 16 * 4096 + 2} <= cells
    hbars = [row[0] for row in BARRIERS]
    assert min(hbars) == 0.05 and max(hbars) == 2.0


@pytest.mark.parametrize("hbar, mu, j0, h0, cells", BARRIERS,
                         ids=[f"hbar{r[0]}-mu{r[1]}-j{r[2]}-h{r[3]}-n{r[4]}"
                              for r in BARRIERS])
def test_oracle_within_its_richardson_bound(hbar, mu, j0, h0, cells):
    pot = cap_barrier(BarrierProblem(hbar, mu, j0, h0), n=cells)
    est = transfer_matrix_transmission(pot)
    exact = capped_transmission(hbar, mu, j0, h0, pot.L)
    err = abs(est.T_numeric - exact)
    # an ulp of rounding per cell, on top of the O(h^2) error
    rounding = cells * np.finfo(float).eps * exact
    assert err <= 2.0 * est.richardson_error + rounding
    # the estimate is trustworthy both ways: within a factor of 2
    assert err >= 0.5 * est.richardson_error - rounding
