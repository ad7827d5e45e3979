"""Run the combinatorial identity ledger and unpack two entries by hand.

The ledger cross-derives every coefficient family at least twice: once
from its defining sum and once from restricted set partitions or cycle
counts, second-order Eulerian numbers, or the saddle engine.  A failure
in any route would flag a transcription or arithmetic error.
"""

from fractions import Fraction
from math import factorial

from ramasym import double_factorial, gamma_coeff, stirling_associated
from ramasym.checks import run_identity_suite


def main():
    print("full ledger")
    print("-----------")
    results = run_identity_suite()
    for r in results:
        print(" ", r.line())
    passed = sum(1 for r in results if r.ok)
    print(f"  {passed}/{len(results)} pass")

    print()
    print("worked example: gamma_1(0) from min-size-3 cycle classes")
    print("---------------------------------------------------------")
    # gamma_j(0) = sum_k (-1)^k / (2j+2k)!! * #{cycle splittings of
    # 2j+2k elements into k cycles, every cycle of length >= 3}
    j = 1
    total = Fraction(0)
    for k in range(2 * j + 1):
        count = stirling_associated("cycle", 2 * j + 2 * k, k, 3)
        weight = Fraction((-1) ** k, double_factorial(2 * j + 2 * k))
        term = weight * count
        total += term
        print(f"  k={k}: count={count:>3}  weight={weight}  term={term}")
    print(f"  sum = {total}, direct gamma_1(0) = {gamma_coeff(1)(Fraction(0))}")

    print()
    print("worked example: restricted subset counts vs brute force at n=6")
    print("--------------------------------------------------------------")
    # partitions of 6 elements into 2 blocks of size >= 3: choose the block
    # containing element 1 as one of C(5,2) size-3 sets, or the complement
    by_formula = stirling_associated("subset", 6, 2, 3)
    by_hand = 10           # C(5,2) = 10 splittings into two size-3 blocks
    print(f"  formula: {by_formula}, hand count: {by_hand}")

    print()
    print(f"factorial ladder: 9!! * 8!! = {double_factorial(9)} * "
          f"{double_factorial(8)} = {double_factorial(9) * double_factorial(8)}"
          f" = 9! = {factorial(9)}")


if __name__ == "__main__":
    main()
