"""Golden CLI outputs: every subcommand's tables pinned cell by cell.

The tunnel and sweep files under tests/golden/ were written by the
per-point quadrature WKB code, the others by the row-at-a-time table code
that the columnar tables replaced; the ek files (N = 4 and N = 32) by the
dense expm of the (nN) x (nN) ring operator that the site-Fourier closed
form replaced; the deep tunnel at 10^6 cells and the 20 x 20 oracle sweep
by the chunked suffix-scan walk, before the transmission walk reduced each
chunk to its one product; the 30-level clock by the csv.writer table
writer, before each row came from one % template.  Every column must match
its text exactly, except:

- T_current_ratio, a ratio of finite-difference currents whose last digits
  depend on how the WKB phases are evaluated: 1e-11 relative;
- columns that pass through BLAS (the Monte Carlo clock's coherence, and
  the ek discrepancies and standard errors, which go through an eigh and
  complex matrix products), whose last bits may differ with the BLAS build
  and the evaluation order: 1e-12 relative.
"""

import os

import pytest

from semiq.cli import EXIT_OK, main
from semiq.tableio import read_csv

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

#: column -> relative tolerance; every other column is compared as text
TOLERANCE = {"T_current_ratio": 1e-11, "coherence": 1e-12,
             "discrepancy": 1e-12, "std_error": 1e-12,
             "median_abs_discrepancy": 1e-12, "se": 1e-12}

CLOCK = ["clock", "--energies", "0,0.5,1.3", "--sigma", "0.5", "--steps", "40"]
CLOCK_MC = [*CLOCK, "--samples", "50", "--seed", "1"]
CLOCK30 = ["clock", "--energies", ",".join(map(str, range(30))), "--steps", "2"]
EK = ["network", "--mode", "ek", "--n", "3", "--N", "4", "--draws", "4",
      "--samples", "100", "--seed", "3"]
EK32 = ["network", "--mode", "ek", "--n", "4", "--N", "32", "--draws", "8",
        "--samples", "2000", "--seed", "1123"]
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
    ("network_rolldown.csv", "network_rolldown.csv", ROLLDOWN),
    ("network_rolldown_summary.csv", "network_rolldown_summary.csv", ROLLDOWN),
    ("network_entropy.csv", "network_entropy.csv",
     ["network", "--mode", "entropy", "--n", "3", "--steps", "300",
      "--window", "4", "--seed", "5"]),
    ("cosmo_twolevel_trajectory.csv", "cosmo_trajectory.csv", COSMO),
    ("cosmo_twolevel_residual.csv", "cosmo_residual.csv", COSMO),
]


def max_deviation(got, want):
    """Largest relative deviation per toleranced column; asserts the rest."""
    assert got.columns == want.columns
    assert len(got.rows) == len(want.rows)
    worst = dict.fromkeys(TOLERANCE, 0.0)
    for g_row, w_row in zip(got.rows, want.rows):
        for name, g, w in zip(want.columns, g_row, w_row):
            if name in TOLERANCE:
                worst[name] = max(worst[name], abs(float(g) / float(w) - 1.0))
            else:
                assert g == w, name
    return worst


@pytest.mark.parametrize("golden, produced, argv", CASES,
                         ids=[c[0] for c in CASES])
def test_matches_golden(tmp_path, golden, produced, argv):
    assert main([*argv, "--output-dir", str(tmp_path)]) == EXIT_OK
    worst = max_deviation(read_csv(tmp_path / produced),
                          read_csv(os.path.join(GOLDEN, golden)))
    for name, dev in worst.items():
        assert dev <= TOLERANCE[name], (name, dev)
