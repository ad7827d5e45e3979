"""Scan the sign relation psi_r(0) = (-1)^(r+1) rho_r(0) in exact arithmetic.

Both scalar sequences come from independent recurrences, so agreement
row by row is a nontrivial check.  The scan prints a table excerpt, the
running verdict, and total wall time.
"""

import time
from fractions import Fraction

from ramasym import check_conjecture, psi_zero, rho_zero


def main():
    max_r = 100
    start = time.perf_counter()
    report = check_conjecture(max_r)
    elapsed = time.perf_counter() - start

    print(f"checked r = 0 .. {max_r} in {elapsed:.2f}s: "
          f"{'all rows match' if report.all_equal else 'MISMATCH'}")
    print()
    print(f"{'r':>3}  {'psi_r(0)':<28} sign flip matches rho_r(0)?")
    for row in report.rows:
        if row.r <= 6 or row.r >= max_r - 2:
            mark = "yes" if row.equal else "NO"
            print(f"{row.r:>3}  {str(row.psi_value):<28} {mark}")
        elif row.r == 7:
            print("  ...")

    # The exact values involve rapidly growing denominators; show the
    # growth to make clear this is a genuinely exact computation.
    print()
    print("denominator growth of rho_r(0):")
    for r in range(5, max_r + 1, 5):
        val = rho_zero(r)
        print(f"  r = {r:>3}: denominator has "
              f"{len(str(abs(val.denominator)))} digits")

    # Direct spot check of the relation at a large index, bypassing
    # check_conjecture entirely.
    r = max_r
    lhs = psi_zero(r)
    rhs = -((-Fraction(1)) ** r) * rho_zero(r)
    assert lhs == rhs, (r, lhs, rhs)
    print()
    print(f"direct recomputation at r = {r}: psi_{r}(0) == "
          f"(-1)^{r + 1} rho_{r}(0) holds exactly")


if __name__ == "__main__":
    main()
