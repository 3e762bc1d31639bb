"""
Dephasing from a stochastic clock
=================================

A two-level system read against a clock whose ticks fluctuate loses its
off-diagonal coherence while the populations stay put.  This script walks
through the closed-form ensemble average, checks it against a brute-force
Monte Carlo over tick histories, and shows that the retention time is a
label of a whole equivalence class of systems, not of one Hamiltonian.
"""

import numpy as np

from semiq import (
    ClockModel,
    QuantumSystem,
    classify,
    evolve_analytic,
    evolve_monte_carlo,
    rescale_class,
    retention_time,
)

# energy splitting 1, tick mean 1, tick spread 0.1
system = QuantumSystem.uniform_superposition([0.0, 1.0])
clock = ClockModel(1.0, 0.1)

traj = evolve_analytic(system, clock, steps=400)
rec = retention_time(traj)
print("per-step damping exponent:", traj.step_damping_exponents()[0])
print("retention time: %d steps (threshold %.4f)"
      % (rec.retention_time_steps, rec.threshold))
print("physical retention time:", rec.retention_time_physical)

# the same number out of a direct average over sampled tick durations
mc = evolve_monte_carlo(system, clock, steps=50, samples=20000, seed=11)
coh_mc = np.abs(mc.rhos[-1][0, 1])
coh_cf = traj.coherences[50, 0]    # pair (0, 1), from the closed form
print("coherence after 50 ticks: %.6f (Monte Carlo) vs %.6f (closed form)"
      % (coh_mc, coh_cf))

# rescaling energies by lam while shrinking the tick by 1/lam changes
# nothing observable: both runs land in the same class
records = [rec]
for lam in (0.5, 2.0, 10.0):
    sys2, clk2 = rescale_class(system, clock, lam)
    records.append(retention_time(evolve_analytic(sys2, clk2, 400)))
groups = classify(records)
print("classes among {original, lam=0.5, 2, 10}:", len(groups))

# a genuinely different spread is a different class
other = retention_time(evolve_analytic(system, ClockModel(1.0, 0.2), 400))
print("classes after adding sigma=0.2 run:", len(classify(records + [other])))
