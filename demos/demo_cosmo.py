"""
An expanding scale factor as the clock
======================================

Minisuperspace branch for U(a) = 4a^2: Hamilton-Jacobi phase, transported
amplitude, the scale factor promoted to a clock, and a matter qubit riding
along.  The leftover of the semiclassical truncation shrinks like hbar^2.
"""

import numpy as np

from semiq import (
    MiniSuperspaceModel,
    amplitude_transport,
    clock_map,
    evolve_matter,
    hamilton_jacobi_phase,
    wdw_residual,
)
from semiq.svgplot import LinePlot

model = MiniSuperspaceModel(potential_u=lambda a: 4.0 * a * a, hbar=1.0)

a = np.linspace(1.0, 4.0, 601)
s = hamilton_jacobi_phase(model, a)
amp = amplitude_transport(a, s)
print("S(4) =", s[-1], " (closed form a^2 - 1 gives 15)")
print("A(4)/A(1) =", amp[-1], " (closed form 1/2)")

cm = clock_map(model, a0=1.0, t_span=(0.0, 0.3))
print("a(0.3) =", cm(0.3), " vs e^{1.2} =", np.exp(1.2))

qubit = lambda x: 0.5 * 1.3 * np.array([[1.0, 1.0 / x], [1.0 / x, -1.0]],
                                        dtype=complex)
m = MiniSuperspaceModel(potential_u=lambda x: 4.0 * x * x, hbar=1.0,
                        matter_hamiltonian=qubit)
traj = evolve_matter(m, clock_map(m, 1.0, (0.0, 0.3)),
                     np.array([1.0, 0.0], dtype=complex),
                     np.linspace(0.0, 0.3, 301))
print("matter norm drift over the branch:", traj.max_norm_drift)

hbars = [0.1, 0.05, 0.025]
# U, U' and U'' of the same potential, exactly
rep = wdw_residual(model.potential_u, lambda a: 8.0 * a,
                   lambda a: np.full(np.shape(a), 8.0), (1.0, 4.0), hbars)
print("constraint residuals:", [float(r) for r in rep.residuals])
print("log-log slope vs hbar:", rep.slope, " (semiclassical truncation: 2)")

plot = LinePlot(title="constraint residual vs hbar", xlabel="hbar",
                ylabel="relative residual", xlog=True, ylog=True)
plot.add("residual", hbars, rep.residuals)
plot.annotate_slope("residual", hbars, rep.residuals)
plot.write("demo_cosmo.svg")
print("wrote demo_cosmo.svg")
