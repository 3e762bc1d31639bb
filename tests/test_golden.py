"""Golden CLI outputs: every subcommand's tables pinned cell by cell.

The tunnel and sweep files under tests/golden/ were written by the
per-point quadrature WKB code, the others by the row-at-a-time table code
that the columnar tables replaced; the ek files at N = 4 and N = 32 by the
dense expm of the (nN) x (nN) ring operator that the site-Fourier closed
form replaced, and the benchmark's ek shape (n = 8, N = 64, three complex
site modes) by that closed form with a 2N x 2N product for every mode,
before the real modes became N x N quadratic forms (which are within
1.1e-14 relative of the ek discrepancies and 2.2e-15 of the standard errors
of all three); the deep tunnel at 10^6 cells and the 20 x 20 oracle sweep
by the chunked suffix-scan walk, before the transmission walk reduced each
chunk to its one product; the 30-level clock by the csv.writer table
writer, before each row came from one % template.  Every clock file was
written by a per-tick product, one factor per tick; the closed form that
replaced it is within 3.8e-15 of their coherence (3 levels) and 4.4e-16
(30 levels), and the Monte Carlo cumulative product within 4.4e-16.  The
two cosmo files come from the clock map as the tabulated inverse of
G(a) = integral da/(2 sqrt U), whose a column is exp(4t) to 8e-16 relative
(the adaptive ODE solve it replaced was off by 4.5e-12).  The chi and norm
columns of the cosmo trajectory come from the suffix scan of the matter
propagators; the step-by-step product it replaced wrote the same t and a
columns and chi and norm within 1.7e-15 of these (both are within 1e-15 of
the exact product of the same propagators).  The gauge check was written by
the dense expm of the (nN) x (nN) difference operator; the Taylor steps of
block shifts that replaced it are within 4.1e-15 relative of its
hamiltonian column and 6.1e-15 of transformed_hamiltonian, and write an
abs_difference of 0 to 1.4e-17 where the file has 6.9e-18 to 1.6e-17.
Every column must match its text exactly, except:

- T_current_ratio, a ratio of finite-difference currents whose last digits
  depend on how the WKB phases are evaluated: 1e-11 relative;
- the oracle's T_numeric, which every file got from a walk over all the
  cells; the capped barrier's walk now crosses half of them and takes the
  other half's product from parity, which rounds differently (within
  2.9e-14 relative of these files): 1e-12 relative;
- its richardson_error, the difference of two nearly equal walks, whose
  roundoff no relative bound can hold (within 3.8e-14 of T_numeric): 1e-12
  times the row's T_numeric, the bound of tests/test_oracle.py's goldens;
- the clock's coherence, which the closed form and the cumulative product
  round differently from the per-tick product that wrote it, and columns
  that pass through BLAS (the Monte Carlo clock's coherence, and the ek
  discrepancies and standard errors, which go through an eigh, real
  quadratic forms and real matrix products over the n//2 + 1 paired site
  modes), whose last bits may differ with the BLAS build and the
  evaluation order: 1e-12 relative;
- the gauge check's two energies, which round differently from the dense
  expm that wrote them: 1e-14 relative, and its abs_difference, a defect
  at the roundoff of those energies that no relative bound can hold: 1e-16
  absolute;
- the cosmo trajectory's chi and norm columns, which were written with
  propagators from eigh: the two-level closed form that replaced it keeps
  the t and a columns and is within 5.1e-15 (re_chi_0), 1.6e-15
  (re_chi_1), 5.0e-15 (im_chi_0), 3.4e-15 (im_chi_1) and 6.8e-15 (norm)
  of the file, whose norm column drifts from 1 by up to 6.4e-15 (the
  closed form's by 8.9e-16): 1e-14 absolute.
"""

import os

import pytest

from semiq.cli import EXIT_OK, main
from semiq.tableio import read_csv

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

#: column -> relative tolerance
TOLERANCE = {"T_current_ratio": 1e-11, "T_numeric": 1e-12, "coherence": 1e-12,
             "discrepancy": 1e-12, "std_error": 1e-12,
             "median_abs_discrepancy": 1e-12, "se": 1e-12,
             "hamiltonian": 1e-14, "transformed_hamiltonian": 1e-14}
#: column -> absolute tolerance; every other column is compared as text
ABS_TOLERANCE = {"abs_difference": 1e-16, "re_chi_0": 1e-14, "re_chi_1": 1e-14,
                 "im_chi_0": 1e-14, "im_chi_1": 1e-14, "norm": 1e-14}
#: column -> (column, tolerance): deviation in units of the golden row's
#: value of the other column
SCALED_TOLERANCE = {"richardson_error": ("T_numeric", 1e-12)}
BOUND = {**TOLERANCE, **ABS_TOLERANCE,
         **{name: tol for name, (_, tol) in SCALED_TOLERANCE.items()}}

CLOCK = ["clock", "--energies", "0,0.5,1.3", "--sigma", "0.5", "--steps", "40"]
CLOCK_MC = [*CLOCK, "--samples", "50", "--seed", "1"]
CLOCK30 = ["clock", "--energies", ",".join(map(str, range(30))), "--steps", "2"]
EK = ["network", "--mode", "ek", "--n", "3", "--N", "4", "--draws", "4",
      "--samples", "100", "--seed", "3"]
EK32 = ["network", "--mode", "ek", "--n", "4", "--N", "32", "--draws", "8",
        "--samples", "2000", "--seed", "1123"]
EK64 = ["network", "--mode", "ek", "--n", "8", "--N", "64", "--draws", "8",
        "--samples", "2000", "--seed", "91"]
ROLLDOWN = ["network", "--mode", "rolldown", "--n", "24", "--patterns", "2",
            "--flips", "5", "--seed", "4"]
COSMO = ["cosmo", "--matter", "twolevel:5"]

CASES = [
    ("tunnel_unit_oracle.csv", "tunnel.csv",
     ["tunnel", "--hbar", "1", "--mu", "1", "--j0", "1", "--h0", "1",
      "--oracle"]),
    ("tunnel_hbar0.05_oracle.csv", "tunnel.csv",
     ["tunnel", "--hbar", "0.05", "--oracle"]),
    ("tunnel_hbar0.05_oracle_1M.csv", "tunnel.csv",
     ["tunnel", "--hbar", "0.05", "--oracle", "--points", "1000000"]),
    ("sweep_h0_mu_oracle.csv", "sweep.csv",
     ["sweep", "--axis", "h0=0.5:2:4", "--axis", "mu=1:4:3", "--oracle"]),
    ("sweep_hbar_h0_oracle_20x20.csv", "sweep.csv",
     ["sweep", "--axis", "hbar=0.3:2.0:20", "--axis", "h0=0.5:2.0:20",
      "--oracle", "--points", "8194"]),
    ("sweep_hbar_h0_40x40.csv", "sweep.csv",
     ["sweep", "--axis", "hbar=0.2:2.0:40", "--axis", "h0=0.5:2.0:40"]),
    ("clock_3level_trajectory.csv", "clock_trajectory.csv", CLOCK),
    ("clock_3level_summary.csv", "clock_summary.csv", CLOCK),
    ("clock_3level_mc_trajectory.csv", "clock_trajectory.csv", CLOCK_MC),
    ("clock_3level_mc_summary.csv", "clock_summary.csv", CLOCK_MC),
    ("clock_30level_trajectory.csv", "clock_trajectory.csv", CLOCK30),
    ("clock_30level_summary.csv", "clock_summary.csv", CLOCK30),
    ("network_gauge_check.csv", "network_gauge_check.csv",
     ["network", "--mode", "gauge-check", "--n", "4", "--N", "3",
      "--draws", "5", "--seed", "2"]),
    ("network_ek.csv", "network_ek.csv", EK),
    ("network_ek_summary.csv", "network_ek_summary.csv", EK),
    ("network_ek_n4_N32.csv", "network_ek.csv", EK32),
    ("network_ek_n4_N32_summary.csv", "network_ek_summary.csv", EK32),
    ("network_ek_n8_N64.csv", "network_ek.csv", EK64),
    ("network_ek_n8_N64_summary.csv", "network_ek_summary.csv", EK64),
    ("network_rolldown.csv", "network_rolldown.csv", ROLLDOWN),
    ("network_rolldown_summary.csv", "network_rolldown_summary.csv", ROLLDOWN),
    ("network_entropy.csv", "network_entropy.csv",
     ["network", "--mode", "entropy", "--n", "3", "--steps", "300",
      "--window", "4", "--seed", "5"]),
    ("cosmo_twolevel_trajectory.csv", "cosmo_trajectory.csv", COSMO),
    ("cosmo_twolevel_residual.csv", "cosmo_residual.csv", COSMO),
]


def max_deviation(got, want):
    """Largest deviation per toleranced column, relative, absolute or
    scaled as its table says; asserts the rest.  A nan deviation stays the
    worst, so it fails its bound."""
    assert got.columns == want.columns
    assert len(got.rows) == len(want.rows)
    worst = dict.fromkeys(BOUND, 0.0)
    for g_row, w_row in zip(got.rows, want.rows):
        for name, g, w in zip(want.columns, g_row, w_row):
            if name in TOLERANCE:
                dev = abs(float(g) / float(w) - 1.0)
            elif name in ABS_TOLERANCE:
                dev = abs(float(g) - float(w))
            elif name in SCALED_TOLERANCE:
                scale = float(w_row[want.columns.index(SCALED_TOLERANCE[name][0])])
                dev = abs(float(g) - float(w)) / abs(scale)
            else:
                assert g == w, name
                continue
            worst[name] = max(dev, worst[name])
    return worst


@pytest.mark.parametrize("golden, produced, argv", CASES,
                         ids=[c[0] for c in CASES])
def test_matches_golden(tmp_path, golden, produced, argv):
    assert main([*argv, "--output-dir", str(tmp_path)]) == EXIT_OK
    worst = max_deviation(read_csv(tmp_path / produced),
                          read_csv(os.path.join(GOLDEN, golden)))
    for name, dev in worst.items():
        assert dev <= BOUND[name], (name, dev)
