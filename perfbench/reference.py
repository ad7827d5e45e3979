"""Reference values for the benchmark, computed without ramasym.

Nothing here imports the package under test.  The exact references come
from routes other than the De Moivre engine the package is built on:

* gamma_r(0): the Stirling series exp(sum B_2k / (2k(2k-1) x^(2k-1))),
  with Bernoulli numbers from their own recurrence; gamma_r(v) at integer
  v >= 0 then follows from (n+v)! = n! n^v prod_{i<=v} (1 + i/n).
* rho_r(0): Laplace's method on theta_n = n int_{-1}^0 e^(-n phi)/(1+x) dx
  - (n/2) int e^(-n phi) dx with phi = x - log(1+x) = t^2/2.  The inverse
  x(t) = t + t^2/3 + t^3/36 - ... satisfies x x' = t (1 + x), which gives
  its coefficients by a quadratic recurrence, and
  rho_r(0) = -2^r r! [t^(2r+1)] t/x(t).  The first five agree with the
  values printed in the paper (PAPER_RHO_ZERO).
* psi_r(0) = (-1)^(r+1) rho_r(0), the paper's sign relation.
* rho_r, psi_r and U_r at integer v from the exact one-step relations of
  the defining sums (theta_(v+1) = (theta_v - 1)(1 + (v+1)/n), and so on).
* tau from psi * gamma (psi is tau divided by the Stirling series).
* U_r(w; 0) Taylor sections at w = 0: (-1)^r S(r+j, j) w^j with Stirling
  subset numbers from their own recurrence.

Floating references use mpmath directly: the head sum
sum_{j<m} z^j/j! = e^z Q(m, z) through ``mpmath.gammainc(regularized=True)``,
``mpmath.ei`` for Ei(n), a direct float sum for the psi partial sum, and
``mpmath.factorial``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import factorial

import mpmath
from mpmath import mp

PAPER_RHO_ZERO = (Fraction(1, 3), Fraction(4, 135), Fraction(-8, 2835),
                  Fraction(-16, 8505), Fraction(8992, 12629925))


# ---------------------------------------------------------------------------
# exact series in x = 1/n (lists of Fractions, constant term first)
# ---------------------------------------------------------------------------

def bernoulli(m: int) -> list:
    """B_0..B_m with B_1 = -1/2, from sum_{k<=j} C(j+1, k) B_k = 0."""
    out = []
    for j in range(m + 1):
        if j == 0:
            out.append(Fraction(1))
            continue
        s = Fraction(0)
        c = 1
        for k in range(j):
            s += c * out[k]
            c = c * (j + 1 - k) // (k + 1)
        out.append(-s / (j + 1))
    return out


@lru_cache(maxsize=None)
def stirling_series(R: int) -> tuple:
    """gamma_r(0), r <= R: the series exp(sum_k B_2k x^(2k-1) / (2k(2k-1)))."""
    B = bernoulli(R + 2)
    L = [Fraction(0)] * (R + 1)
    for k in range(1, R // 2 + 2):
        if 2 * k - 1 <= R:
            L[2 * k - 1] = B[2 * k] / (2 * k * (2 * k - 1))
    E = [Fraction(1)] + [Fraction(0)] * R
    for n in range(1, R + 1):
        E[n] = sum(k * L[k] * E[n - k] for k in range(1, n + 1)) / n
    return tuple(E)


@lru_cache(maxsize=None)
def rho_zero_series(R: int) -> tuple:
    """rho_r(0) for r <= R from the inverse of x - log(1+x) = t^2/2."""
    K = 2 * R + 2
    a = [Fraction(0), Fraction(1)] + [Fraction(0)] * K
    for m in range(3, K + 2):
        s = sum(a[i] * a[m - i] for i in range(2, m - 1))
        a[m - 1] = (Fraction(2, m) * a[m - 2] - s) / 2
    y = a[1:K + 1]
    c = [Fraction(1)] + [Fraction(0)] * (K - 1)
    for k in range(1, K):
        c[k] = -sum(y[i] * c[k - i] for i in range(1, k + 1))
    return tuple(-(2 ** r) * factorial(r) * c[2 * r + 1] for r in range(R + 1))


def _times_linear(s, b):
    """s(x) * (1 + b x), truncated to len(s)."""
    return [s[i] + (b * s[i - 1] if i else 0) for i in range(len(s))]


def _div_linear(s, b):
    """s(x) / (1 + b x), truncated to len(s)."""
    out = []
    for i, x in enumerate(s):
        out.append(x - (b * out[i - 1] if i else 0))
    return out


def _minus_one(s):
    return [s[0] - 1] + list(s[1:])


def _plus_one(s):
    return [s[0] + 1] + list(s[1:])


# One-step relations of the defining sums in the offset v, as series in
# x = 1/n: ``up`` goes from v = i - 1 to v = i, ``down`` from v = i to i - 1.
#   (n+v)! = n! n^v prod (1 + i/n)           gamma
#   theta_(v+1) = (theta_v - 1)(1 + (v+1)/n)   rho
#   Psi_(v+1) = (Psi_v - 1)/(1 + (v+1)/n)      psi
_SHIFTS = {
    "gamma": (lambda s, i: _times_linear(s, i),
              lambda s, i: _div_linear(s, i)),
    "rho": (lambda s, i: _times_linear(_minus_one(s), i),
            lambda s, i: _plus_one(_div_linear(s, i))),
    "psi": (lambda s, i: _div_linear(_minus_one(s), i),
            lambda s, i: _plus_one(_times_linear(s, i))),
}


def _shift(s, v: int, up, down):
    for i in range(1, v + 1):
        s = up(s, i)
    for i in range(0, v, -1):
        s = down(s, i)
    return s


def series_at(family: str, R: int, v: int) -> list:
    """gamma_r(v), rho_r(v) or psi_r(v) for r <= R at an integer v."""
    if family == "gamma":
        s = list(stirling_series(R))
    elif family == "rho":
        s = list(rho_zero_series(R))
    else:
        s = [(-1) ** (r + 1) * x for r, x in enumerate(rho_zero_series(R))]
    return _shift(s, v, *_SHIFTS[family])


def gamma_at(R: int, v: int) -> list:
    return series_at("gamma", R, v)


def rho_at(R: int, v: int) -> list:
    return series_at("rho", R, v)


def psi_at(R: int, v: int) -> list:
    """psi_r(v) from psi_r(0) = (-1)^(r+1) rho_r(0)."""
    return series_at("psi", R, v)


def tau_at(R: int, v: int) -> list:
    """tau_r(v) = sum_m psi_(r-m)(v) gamma_m(v)."""
    p, g = psi_at(R, v), gamma_at(R, v)
    return [sum(p[r - m] * g[m] for m in range(r + 1)) for r in range(R + 1)]


def u_values(R: int, v: int, w) -> list:
    """U_r(w; v) for r <= R at any w != 1, as mpmath numbers.

    U_r(w; 0) = N_r(w)/(1-w)^(2r+1), with N_r read off the Taylor section
    (the numerator has degree <= 2r+1); the shift in v is
    U_(v+1) = (U_v - 1)(1 + (v+1)/n)/w.
    """
    wm = _mpw(w)
    vals = []
    for r, num in enumerate(_u_numerators(R)):
        e = 2 * r + 1
        top = mpmath.mpf(0)
        for c in reversed(num):
            top = top * wm + mpmath.mpf(c.numerator) / c.denominator
        vals.append(top / (1 - wm) ** e)
    inv_w = 1 / wm
    up = lambda s, i: [x * inv_w for x in _times_linear(_minus_one(s), i)]
    down = lambda s, i: _plus_one(_div_linear([x * wm for x in s], i))
    return _shift(vals, v, up, down)


@lru_cache(maxsize=None)
def _u_numerators(R: int) -> tuple:
    """N_r(w) = (1-w)^(2r+1) U_r(w; 0), r <= R, lowest degree first."""
    from math import comb
    sections = u_taylor_at(R, 0, 2 * R + 2)
    out = []
    for r in range(R + 1):
        e = 2 * r + 1
        one_minus = [(-1) ** k * comb(e, k) for k in range(e + 1)]
        out.append(tuple(sum(sections[r][i] * one_minus[j - i]
                             for i in range(j + 1)) for j in range(e + 1)))
    return tuple(out)


@lru_cache(maxsize=None)
def _stirling2_rows(n: int) -> tuple:
    rows = [[1]]
    for m in range(1, n + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [prev[k - 1] + k * prev[k] for k in range(1, m + 1)])
    return tuple(tuple(r) for r in rows)


def stirling2(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return _stirling2_rows(n)[n][k]


def u_taylor_at(R: int, v: int, terms: int) -> list:
    """Taylor sections at w = 0 of U_r(w; v), r <= R: list of lists in w.

    U_r(w; 0) = sum_j (-1)^r S(r+j, j) w^j for r >= 1, U_0 = 1/(1-w); the
    shift v -> v+1 is U_(v+1) = (U_v - 1)(1 + (v+1)/n)/w as series in 1/n.
    """
    width = terms + v
    cur = [[Fraction(1)] * width]
    for r in range(1, R + 1):
        cur.append([Fraction((-1) ** r * stirling2(r + j, j))
                    for j in range(width)])
    for i in range(1, v + 1):
        shifted = [row[:] for row in cur]
        shifted[0][0] -= 1
        nxt = []
        for r in range(R + 1):
            row = [shifted[r][j] + (i * shifted[r - 1][j] if r else 0)
                   for j in range(len(shifted[r]))]
            if row[0] != 0:
                raise ArithmeticError("U shift left a pole at w = 0")
            nxt.append(row[1:])
        cur = nxt
    return [row[:terms] for row in cur]


def taylor_of_rational(num, e: int, terms: int) -> list:
    """First terms of N(w)/(w-1)^e at w = 0, N given lowest degree first."""
    # 1/(w-1)^e = (-1)^e sum_k C(e-1+k, k) w^k
    from math import comb
    out = []
    for j in range(terms):
        acc = Fraction(0)
        for i in range(min(j, len(num) - 1) + 1):
            if num[i]:
                k = j - i
                c = comb(e - 1 + k, k) if e else int(k == 0)
                acc += num[i] * (-1) ** e * c
        out.append(acc)
    return out


def poly_at(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# floating references
# ---------------------------------------------------------------------------

def _mpw(w):
    if isinstance(w, tuple):
        return mpmath.mpc(mpmath.mpf(w[0].numerator) / w[0].denominator,
                          mpmath.mpf(w[1].numerator) / w[1].denominator)
    return mpmath.mpf(w.numerator) / w.denominator


def _ref_dps(digits: int) -> int:
    return digits + 15


def ref_theta(n: int, v: int, digits: int):
    """theta_n(v) = e^n (1/2 - Q(n+v, n)) (n+v)!/n^(n+v)."""
    with mp.workdps(_ref_dps(digits)):
        m = n + v
        q = mpmath.gammainc(m, n, mpmath.inf, regularized=True)
        return +(mpmath.exp(n) * (mpmath.mpf(1) / 2 - q)
                 * mpmath.factorial(m) / mpmath.power(n, m))


def _head_tail(n: int, w, v: int, digits: int, tail: bool):
    """F * Q (head) or F * (1 - Q) (tail), F = e^(nw) (n+v)!/(nw)^(n+v).

    Where |F| is large and the tail is not, 1 - Q cancels about log10 |F|
    digits, so the tail is computed with that many more.
    """
    m = n + v
    with mp.workdps(30):
        z = n * _mpw(w)
        log10_f = float((mpmath.re(z) + mpmath.loggamma(m + 1)
                         - m * mpmath.log(abs(z))) / mpmath.log(10))
    extra = max(0, int(log10_f)) if tail and mpmath.re(z) < n else 0
    with mp.workdps(_ref_dps(digits) + extra):
        z = n * _mpw(w)
        q = mpmath.gammainc(m, z, mpmath.inf, regularized=True)
        part = 1 - q if tail else q
        return +(mpmath.exp(z) * part * mpmath.factorial(m)
                 / mpmath.power(z, m))


def ref_S(n: int, w, v: int, digits: int):
    """Tail sum S_n(w;v) = ((n+v)!/(nw)^(n+v)) e^(nw) (1 - Q(n+v, nw))."""
    return _head_tail(n, w, v, digits, True)


def ref_T(n: int, w, v: int, digits: int):
    """Head sum T_n(w;v) = ((n+v)!/(nw)^(n+v)) e^(nw) Q(n+v, nw)."""
    return _head_tail(n, w, v, digits, False)


def ref_Ei(n: int, digits: int):
    with mp.workdps(_ref_dps(digits)):
        return +mpmath.ei(n)


def ref_psi(n: int, v: int, digits: int):
    """Psi_n(v) = (n e^-n Ei(n) - sum_{j<n+v} j!/n^j) n^(n+v)/(n+v)!.

    The difference cancels about n log10(e) digits, so the working
    precision carries that many more.
    """
    dps = _ref_dps(digits) + int(n * 0.4343) + 10
    m = n + v
    with mp.workdps(dps):
        a, heads = _psi_parts(n, dps)
        head = heads[min(m, len(heads) - 1)]
        for j in range(len(heads) - 1, m):
            head += mpmath.factorial(j) / mpmath.power(n, j)
        return +((a - head) * mpmath.power(n, m) / mpmath.factorial(m))


@lru_cache(maxsize=64)
def _psi_parts(n: int, dps: int):
    """n e^-n Ei(n) and the partial sums sum_{j<m} j!/n^j for m <= n + 8,
    shared by the inputs that differ only in v."""
    upto = n + 8
    with mp.workdps(dps):
        nn = mpmath.mpf(n)
        heads = [mpmath.mpf(0)]
        term = mpmath.mpf(1)
        for j in range(upto):
            heads.append(heads[-1] + term)
            term = term * (j + 1) / nn
        return +(nn * mpmath.exp(-nn) * mpmath.ei(nn)), heads


def ref_factorial(n: int, v: int, digits: int):
    with mp.workdps(_ref_dps(digits)):
        return +mpmath.factorial(n + v)


def modulus(w) -> float:
    """|w e^(1-w)| = |w| e^(1 - Re w) in double precision, for picking and
    labelling points."""
    re, im = w if isinstance(w, tuple) else (w, 0)
    return math.hypot(re, im) * math.exp(1 - re)


def rel_close(got, ref, digits: int) -> bool:
    """|got - ref| <= 10^-digits max(1, |ref|), evaluated at high precision."""
    with mp.workdps(digits + 30):
        return abs(got - ref) <= mpmath.mpf(10) ** (-digits) * max(1, abs(ref))


def parse_mp(text: str):
    """mpf or mpc from the worker's decimal strings ("re" or "re,im")."""
    with mp.workdps(len(text) + 10):
        if "," in text:
            a, b = text.split(",")
            return mpmath.mpc(mpmath.mpf(a), mpmath.mpf(b))
        return mpmath.mpf(text)
