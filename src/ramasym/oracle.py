"""Ground-truth reference values for the expansions.

Every asymptotic claim in this package is tested against direct evaluation
of the defining finite sums.  The exact head sums (T, and the partial sums
inside theta and Psi) run as integer recurrences with a single reduction
at the end; the Ei series is summed in fixed point.  S, theta, Ei, and Psi
are evaluated at verified precision with explicit guard digits where
catastrophic cancellation occurs.  The module reaches nothing of the
package but ``numcore``: no coefficient, triangle or expansion code, so an
oracle shares no route with what it checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, lgamma, log, log10, pi

from mpmath import mp

from .numcore import GaussianRational, to_mp, verified_eval

_LOG10_E = log10(2.718281828459045)


def _check_nv(n, v) -> None:
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be a positive integer")
    if not isinstance(v, int):
        raise ValueError("v must be an integer")


def _head_numerator(a: int, q: int, m: int) -> int:
    """C with sum_{j<m} (a/q)^j/j! = C / (q^(m-1) (m-1)!), for m >= 1.

    C_0 = 1 and C_j = j q C_(j-1) + a^j: integers throughout, so the only
    gcd is the caller's final reduction.
    """
    c = power = 1
    for j in range(1, m):
        power *= a
        c = j * q * c + power
    return c


def _gaussian_head_numerator(x: int, y: int, q: int, m: int):
    """The same recurrence for a = x + iy on (real, imaginary) pairs,
    returned with the power a^m it has reached."""
    cr, ci, pr, pi = 1, 0, x, y
    for j in range(1, m):
        cr, ci = j * q * cr + pr, j * q * ci + pi
        pr, pi = pr * x - pi * y, pr * y + pi * x
    return cr, ci, pr, pi


def oracle_T(n: int, w, v: int = 0):
    """Exact head sum T_n(w;v) = ((n+v)!/(nw)^(n+v)) sum_{j<n+v} (nw)^j/j!.

    Entirely rational arithmetic: w may be a Fraction, int, or
    GaussianRational, and the result has the same exactness.  With
    nw = a/q and m = n+v, T = m q C / a^m for the head numerator C.
    """
    _check_nv(n, v)
    m = n + v
    if m < 0:
        raise ValueError("n + v must be nonnegative")
    if isinstance(w, int):
        w = Fraction(w)
    if not isinstance(w, (Fraction, GaussianRational)):
        raise TypeError("w must be exact (Fraction or GaussianRational)")
    if not w:
        raise ValueError("T is undefined at w = 0")
    # m = 0 is the empty sum, through the factor m
    if isinstance(w, Fraction):
        a, q = n * w.numerator, w.denominator
        return Fraction(_head_numerator(a, q, m) * m * q, a ** m)
    q = lcm(w.re.denominator, w.im.denominator)
    x = n * w.re.numerator * (q // w.re.denominator)
    y = n * w.im.numerator * (q // w.im.denominator)
    cr, ci, pr, pi = _gaussian_head_numerator(x, y, q, m)
    # divide by a^m = pr + i pi through its conjugate and norm
    norm = pr * pr + pi * pi
    return GaussianRational(Fraction(m * q * (cr * pr + ci * pi), norm),
                            Fraction(m * q * (ci * pr - cr * pi), norm))


def oracle_S(n: int, w, v: int = 0, digits: int = 50):
    """Tail sum S_n(w;v) via e^(nw) (n+v)!/(nw)^(n+v) - T_n(w;v).

    w = 0 returns exactly 0 by convention.  The exponential factor and the
    exact T value are combined at verified precision.
    """
    _check_nv(n, v)
    m = n + v
    if m < 0:
        raise ValueError("n + v must be nonnegative")
    if isinstance(w, int):
        w = Fraction(w)
    if not w:
        return mp.mpf(0)
    T = oracle_T(n, w, v)
    if isinstance(w, GaussianRational):
        re_w, abs2 = w.re, w.norm2()
    else:
        re_w, abs2 = w, w * w
    # the subtraction cancels the log10|F| digits of F = e^(nw) m!/(nw)^m,
    # which grows without bound as |w| shrinks
    log_abs_w = (log(abs2.numerator) - log(abs2.denominator)) / 2
    log10_F = (n * float(re_w) + lgamma(m + 1)
               - m * (log(n) + log_abs_w)) * _LOG10_E
    cancel = int(max(0.0, log10_F)) + 10

    def compute():
        nw = to_mp(w) * n
        return mp.exp(nw) * factorial(n + v) * nw ** (-(n + v)) - to_mp(T)

    return verified_eval(compute, digits, cancel_digits=cancel)


def oracle_theta(n: int, v: int = 0, digits: int = 50):
    """Correction term theta_n(v) = (e^n/2 - sum_{j<n+v} n^j/j!) (n+v)!/n^(n+v).

    The partial sum is exact; the scale is about sqrt(2 pi n) e^(-n), so
    the subtraction of two terms near e^n/2 cancels about
    log10(sqrt(2 pi n)) digits relative to the result.
    """
    _check_nv(n, v)
    if n + v < 1:
        raise ValueError("n + v must be at least 1")
    partial = Fraction(_head_numerator(n, 1, n + v), factorial(n + v - 1))
    scale = Fraction(factorial(n + v), n ** (n + v))
    cancel = int(log10(2 * pi * n) / 2) + 10

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
    Euler-Mascheroni constant at working precision.  The sum runs in fixed
    point: integers scaled by 2^bits, truncated at each step, with guard
    bits covering the truncations.  Every term is positive, so nothing
    cancels.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be a positive integer")

    def compute():
        bits = mp.prec + 2 * (n + mp.prec).bit_length() + 20
        term = 1 << bits
        total = k = 0
        while term:
            k += 1
            term = term * n // k
            total += term // k
        return +mp.euler + mp.log(n) + mp.ldexp(total, -bits)

    return verified_eval(compute, digits)


def oracle_psi(n: int, v: int = 0, digits: int = 50):
    """Companion correction Psi_n(v) built from the Ei series.

    Psi_n(v) = (n e^(-n) Ei(n) - sum_{j<n+v} j!/n^j) n^(n+v)/(n+v)!.
    The subtraction cancels about n*log10(e) digits.
    """
    _check_nv(n, v)
    if n + v < 1:
        raise ValueError("n + v must be at least 1")
    # Horner in 1/n: acc <- acc n + j! leaves the head over n^(n+v-1)
    acc = fact = 1
    for j in range(1, n + v):
        fact *= j
        acc = acc * n + fact
    partial = Fraction(acc, n ** (n + v - 1))
    scale = Fraction(n ** (n + v), factorial(n + v))
    cancel = int(n * _LOG10_E) + 10
    ei = oracle_Ei(n, digits + cancel)

    def compute():
        return (n * mp.exp(-n) * to_mp(ei) - to_mp(partial)) * to_mp(scale)

    return verified_eval(compute, digits, cancel_digits=cancel)
