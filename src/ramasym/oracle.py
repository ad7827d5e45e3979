"""Ground-truth reference values for the expansions.

Every asymptotic claim in this package is tested against direct evaluation
of the defining finite sums: the head sum T is an exact rational (or
Gaussian rational) computation, and S, theta, Ei, and Psi are evaluated at
verified precision with explicit guard digits where catastrophic
cancellation occurs.  ``convergence_probe`` measures error-decay ratios of
the truncated expansions against these references.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, log10
from typing import Optional, Sequence

from mpmath import mp

from . import asymptotics
from .numcore import GaussianRational, to_mp, verified_eval

_LOG10_E = log10(2.718281828459045)


def _check_nv(n, v) -> None:
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be a positive integer")
    if not isinstance(v, int):
        raise ValueError("v must be an integer")


def oracle_T(n: int, w, v: int = 0):
    """Exact head sum T_n(w;v) = ((n+v)!/(nw)^(n+v)) sum_{j<n+v} (nw)^j/j!.

    Entirely rational arithmetic: w may be a Fraction, int, or
    GaussianRational, and the result has the same exactness.
    """
    _check_nv(n, v)
    if n + v < 0:
        raise ValueError("n + v must be nonnegative")
    if isinstance(w, int):
        w = Fraction(w)
    if not isinstance(w, (Fraction, GaussianRational)):
        raise TypeError("w must be exact (Fraction or GaussianRational)")
    if not w:
        raise ValueError("T is undefined at w = 0")
    nw = n * w
    acc = nw * 0  # zero of the right type
    term = acc + 1
    for j in range(n + v):
        acc = acc + term
        term = term * nw / (j + 1)
    if n + v == 0:
        return acc
    return acc * factorial(n + v) * (nw ** -(n + v))


def oracle_S(n: int, w, v: int = 0, digits: int = 50):
    """Tail sum S_n(w;v) via e^(nw) (n+v)!/(nw)^(n+v) - T_n(w;v).

    w = 0 returns exactly 0 by convention.  The exponential factor and the
    exact T value are combined at verified precision.
    """
    _check_nv(n, v)
    if n + v < 0:
        raise ValueError("n + v must be nonnegative")
    if isinstance(w, int):
        w = Fraction(w)
    if not w:
        return mp.mpf(0)
    T = oracle_T(n, w, v)
    # e^(nw) and T have similar size near the boundary curve; a modest
    # fixed cancellation allowance is enough at desk scale.
    cancel = int(n * abs(to_mp(w).real) * _LOG10_E) + 10

    def compute():
        nw = to_mp(w) * n
        return mp.exp(nw) * factorial(n + v) * nw ** (-(n + v)) - to_mp(T)

    return verified_eval(compute, digits, cancel_digits=cancel)


def oracle_theta(n: int, v: int = 0, digits: int = 50):
    """Correction term theta_n(v) = (e^n/2 - sum_{j<n+v} n^j/j!) (n+v)!/n^(n+v).

    The partial sum is exact; the subtraction cancels roughly n*log10(e)
    digits, which the working precision absorbs.
    """
    _check_nv(n, v)
    if n + v < 1:
        raise ValueError("n + v must be at least 1")
    partial = sum(Fraction(n) ** j / factorial(j) for j in range(n + v))
    scale = Fraction(factorial(n + v), n ** (n + v))
    cancel = int(n * _LOG10_E) + 10

    def compute():
        return (mp.exp(n) / 2 - to_mp(partial)) * to_mp(scale)

    return verified_eval(compute, digits, cancel_digits=cancel)


def oracle_factorial(n: int, v: int = 0) -> int:
    """Exact (n+v)!, the reference for the Gamma-function expansion."""
    _check_nv(n, v)
    if n + v < 0:
        raise ValueError("n + v must be nonnegative")
    return factorial(n + v)


def oracle_Ei(n: int, digits: int = 50):
    """Exponential integral Ei(n) by the convergent series.

    Ei(n) = gamma_E + ln n + sum_{k>=1} n^k/(k k!), with the
    Euler-Mascheroni constant at working precision.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be a positive integer")
    cancel = int(n * _LOG10_E) + 10

    def compute():
        total = +mp.euler + mp.log(n)
        term = mp.mpf(1)
        floor = mp.mpf(10) ** (-(mp.dps + 10))
        k = 1
        while True:
            term = term * n / k
            piece = term / k
            total += piece
            if k > n and piece < floor:
                break
            k += 1
        return total

    # terms grow to ~e^n before decaying; that growth costs n*log10(e)
    # digits of headroom past the final magnitude.
    return verified_eval(compute, digits, cancel_digits=cancel)


def oracle_psi(n: int, v: int = 0, digits: int = 50):
    """Companion correction Psi_n(v) built from the Ei series.

    Psi_n(v) = (n e^(-n) Ei(n) - sum_{j<n+v} j!/n^j) n^(n+v)/(n+v)!.
    The subtraction cancels about n*log10(e) digits.
    """
    _check_nv(n, v)
    if n + v < 1:
        raise ValueError("n + v must be at least 1")
    partial = sum(Fraction(factorial(j), n ** j) for j in range(n + v))
    scale = Fraction(n ** (n + v), factorial(n + v))
    cancel = int(n * _LOG10_E) + 10
    ei = oracle_Ei(n, digits + cancel)

    def compute():
        return (n * mp.exp(-n) * to_mp(ei) - to_mp(partial)) * to_mp(scale)

    return verified_eval(compute, digits, cancel_digits=cancel)


@dataclass(frozen=True)
class ProbeRow:
    """One measurement: truncation error at n, and the decay ratio
    error(n)/error(n/2) when the halved n is also in the probe list."""

    n: int
    error: object
    ratio: Optional[object]


def _expansion_error(target: str, n: int, v: int, w, R: int, digits: int):
    if target == "theta":
        approx = asymptotics.theta_expansion(n, v, R, digits).value
        exact = oracle_theta(n, v, digits)
    elif target == "gammaFactorial":
        approx = asymptotics.gamma_expansion(n, v, R, digits).value
        exact = oracle_factorial(n, v)
    elif target == "psi":
        approx = asymptotics.psi_expansion(n, v, R, digits).value
        exact = oracle_psi(n, v, digits)
    elif target == "S":
        approx = asymptotics.S_expansion(n, w, v, R, digits).value
        exact = oracle_S(n, w, v, digits)
    elif target == "T":
        approx = asymptotics.T_expansion(n, w, v, R, digits).value
        exact = oracle_T(n, w, v)
    else:
        raise ValueError(f"unknown probe target {target!r}")
    with mp.workprec(int(digits * 3.33) + 64):
        err = abs(approx - to_mp(exact))
        if target == "gammaFactorial":
            err = err / to_mp(exact)
        return err


def convergence_probe(target: str, R: int, n_list: Sequence[int],
                      v: int = 0, w=None, digits: int = 200) -> list:
    """Measure truncation-error decay across n_list.

    For each consecutive pair (n, 2n) in n_list, ratio = error(2n)/error(n);
    an order-R truncation has ratio near 2^(-R) (relative error for the
    factorial target, absolute otherwise).
    """
    if list(n_list) != sorted(set(n_list)):
        raise ValueError("n_list must be strictly increasing")
    errors = {}
    rows = []
    for n in n_list:
        err = _expansion_error(target, n, v, w, R, digits)
        errors[n] = err
        ratio = None
        if n % 2 == 0 and n // 2 in errors and errors[n // 2] != 0:
            ratio = err / errors[n // 2]
        rows.append(ProbeRow(n, err, ratio))
    return rows
