"""
Barrier activation rates three ways
===================================

Closed form, quadrature, and an exact transfer-matrix solve of the capped
barrier, side by side.  The inverted parabola -J0*phi^2 + H0 at zero
energy is soft enough that all three agree to a few percent once the
barrier is thick.
"""

import numpy as np

from semiq import (
    BarrierProblem,
    activation_rate,
    barrier_exponent_closed,
    cap_barrier,
    current_ratio,
    solve_barrier,
    transfer_matrix_transmission,
)
from semiq.svgplot import LinePlot

print(f"{'H0':>5} {'2*Lambda':>9} {'T_wkb':>12} {'T_exact':>12} {'rel':>7}")
h0s = np.linspace(1.5, 4.5, 7)
# the WKB column in one call on the whole scan; the oracle walks each barrier
scan = BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=h0s)
two_lams = 2.0 * barrier_exponent_closed(scan)
t_wkb = activation_rate(scan)
t_num = []
for h0, two_lam, tw in zip(h0s, two_lams, t_wkb):
    bp = BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=float(h0))
    est = transfer_matrix_transmission(cap_barrier(bp))
    t_num.append(est.T_numeric)
    print(f"{h0:5.2f} {two_lam:9.3f} {tw:12.4e} {est.T_numeric:12.4e} "
          f"{abs(est.T_numeric - tw) / tw:7.1%}")

# the WKB exponent is also a statement about probability currents:
# out/in flux of the connected wavefunction reproduces exp(-2*Lambda)
bp = BarrierProblem(hbar=1.0, mu=1.0, j0=1.0, h0=1.0)
sol = solve_barrier(bp)
print("\ncurrent ratio :", current_ratio(sol))
print("exp(-2Lambda) :", activation_rate(bp))

plot = LinePlot(title="activation rate vs barrier height",
                xlabel="H0", ylabel="T", ylog=True)
plot.add("WKB", h0s, t_wkb)
plot.add("transfer matrix", h0s, t_num)
plot.write("demo_tunneling.svg")
print("\nwrote demo_tunneling.svg (straight line on log-y: exponent "
      "linear in H0)")
