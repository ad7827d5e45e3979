"""Every demo but the ledger walk-through (which reruns the whole ledger)
runs clean."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["coefficient_tables.py",
                                  "sign_conjecture_scan.py",
                                  "w_plane_regions.py",
                                  "expansion_accuracy.py"])
def test_demo_runs_clean(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout
    if demo == "sign_conjecture_scan.py":
        assert "all rows match" in proc.stdout
