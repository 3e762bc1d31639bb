"""Every script under demos/ runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import semiq

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(tmp_path, script):
    src = os.path.dirname(os.path.dirname(semiq.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    # -W error: a RuntimeWarning fails a demo as filterwarnings fails a test
    out = subprocess.run([sys.executable, "-W", "error", str(script)], cwd=tmp_path,
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
