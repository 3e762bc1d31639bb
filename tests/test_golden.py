"""Golden CLI outputs: tunnel and sweep tables pinned cell by cell.

The files under tests/golden/ were written by the per-point quadrature WKB
code.  Every column must match its text exactly, except T_current_ratio,
a ratio of finite-difference currents whose last digits depend on how the
WKB phases are evaluated; it gets 1e-11 relative.
"""

import os

import pytest

from semiq.cli import EXIT_OK, main
from semiq.tableio import read_csv

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

#: column -> relative tolerance; every other column is compared as text
TOLERANCE = {"T_current_ratio": 1e-11}

CASES = [
    ("tunnel_unit_oracle.csv", "tunnel.csv",
     ["tunnel", "--hbar", "1", "--mu", "1", "--j0", "1", "--h0", "1",
      "--oracle"]),
    ("tunnel_hbar0.05_oracle.csv", "tunnel.csv",
     ["tunnel", "--hbar", "0.05", "--oracle"]),
    ("sweep_h0_mu_oracle.csv", "sweep.csv",
     ["sweep", "--axis", "h0=0.5:2:4", "--axis", "mu=1:4:3", "--oracle"]),
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
