"""Reference figures for the README, each in a fresh interpreter.

    python3 perfbench/figures.py

Prints the cold wall time of `ramasym verify all` (conjecture to r <= 100),
of each acceptance criterion run alone, and of the tier-1 test suite, plus
the line count of src/.  These are one-off figures, not benchmark metrics.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CRITERIA = {
    "1 frozen values": "checks.check_frozen_values()",
    "2 dual forms r<=25": "checks.check_dual_forms(max_r=25, max_r_u=15)",
    "3 combinatorial ledger": "checks.check_identities()",
    "4 sign conjecture r<=100": "checks.check_conjecture_range(100)",
    "5 convergence 200 digits": "checks.check_convergence(digits=200)",
    "6 saddle engine": "checks.check_saddle(max_s=8, max_r=5)",
    "7 regions and curve": "checks.check_regions(samples=1000, "
                           "seed=20260816, curve_points=200)",
}


def _timed(cmd, env=None) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _inside(stmt: str) -> float:
    """Seconds spent in ``stmt`` in a fresh interpreter (import excluded)."""
    code = ("import sys, time; sys.path.insert(0, 'src'); "
            "from ramasym import checks, cli; t = time.perf_counter(); "
            f"r = {stmt}; dt = time.perf_counter() - t; "
            "ok = r == 0 if isinstance(r, int) else all(x.ok for x in r); "
            "print(dt if ok else -dt, file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                         text=True).stderr.strip().splitlines()[-1]
    dt = float(out)
    if dt < 0:
        raise SystemExit(f"{stmt} did not pass")
    return dt


def main() -> int:
    lines = sum(len(p.read_text().splitlines())
                for p in (ROOT / "src" / "ramasym").glob("*.py"))
    print(f"src/ lines: {lines}")
    verify = _inside("cli.main(['verify', 'all'])")
    print(f"verify all, r <= 100, cold: {verify:.1f} s")
    for name, stmt in CRITERIA.items():
        print(f"criterion {name}, cold: {_inside(stmt):.2f} s")
    env = dict(os.environ, PYTHONPATH="src")
    tier1 = _timed([sys.executable, "-m", "pytest", "-q", "-p",
                    "no:cacheprovider", "--continue-on-collection-errors"],
                   env)
    print(f"tier-1 tests, wall: {tier1:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
