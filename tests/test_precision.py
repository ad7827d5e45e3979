"""Released values do not depend on the ambient mpmath precision.

Each value is computed once at 53 bits and once at 300 digits of ambient
precision; the two must carry the same bits.
"""

from fractions import Fraction

import pytest
from mpmath import mp

from ramasym.asymptotics import (S_expansion, T_expansion, classify,
                                 gamma_expansion, psi_expansion, szego_curve,
                                 theta_expansion)
from ramasym.checks import convergence_probe
from ramasym.numcore import GaussianRational
from ramasym.oracle import oracle_Ei, oracle_S, oracle_psi, oracle_theta


def bits(x):
    """The exact mantissa and exponent of every number inside x."""
    if isinstance(x, mp.mpf):
        return x._mpf_
    if isinstance(x, mp.mpc):
        return x._mpc_
    if isinstance(x, (list, tuple)):
        return tuple(bits(y) for y in x)
    return x


def expansion(e):
    return bits((e.value, e.per_term))


CASES = {
    "theta": lambda: expansion(theta_expansion(300, 1, 6, 60)),
    "gamma": lambda: expansion(gamma_expansion(300, 2, 6, 60)),
    "psi": lambda: expansion(psi_expansion(300, 1, 6, 60)),
    "S-interior": lambda: expansion(S_expansion(300, Fraction(1, 2), 0, 6, 60)),
    "S-gaussian": lambda: expansion(S_expansion(
        300, GaussianRational(Fraction(1, 4), Fraction(1, 4)), 0, 6, 60)),
    "S-mixed": lambda: expansion(S_expansion(300, Fraction(1), 0, 6, 60)),
    "T-interior": lambda: expansion(T_expansion(300, Fraction(2), 0, 6, 60)),
    "T-dominant": lambda: expansion(T_expansion(300, Fraction(1, 2), 1, 6,
                                                60)),
    "szego": lambda: bits([(p.t, p.w, p.residual) for p in szego_curve(
        Fraction(-27, 100), Fraction(3, 2), Fraction(1, 4), 40)]),
    "classify": lambda: bits([
        (lab.kind, lab.boundary_margin) for lab in
        (classify(GaussianRational(Fraction(3, 2), Fraction(1, 4))),
         classify(Fraction(1, 2), digits=30))]),
    "oracle_theta": lambda: bits(oracle_theta(200, 0, 60)),
    "oracle_psi": lambda: bits(oracle_psi(200, 1, 60)),
    "oracle_S": lambda: bits(oracle_S(200, Fraction(1, 2), 0, 60)),
    "oracle_Ei": lambda: bits(oracle_Ei(200, 60)),
    "convergence_probe": lambda: bits([
        (r.error, r.ratio) for r in
        convergence_probe("theta", 4, (100, 200), digits=60)]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_same_bits_at_any_ambient_precision(name):
    with mp.workprec(53):
        low = CASES[name]()
    with mp.workdps(300):
        high = CASES[name]()
    assert low == high
