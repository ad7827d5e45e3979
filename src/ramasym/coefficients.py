"""Exact coefficient families for the large-n expansions.

The package's central objects: for the partial sums of e^(nw) split at the
term of index n + v, the expansion coefficients in powers of 1/n are exact
polynomials in the offset v (families rho, gamma, tau, psi) or rational
functions of w with polynomial-in-v numerators (family U).  Each family has
a primary form ("plain", built on the sequence 1/(j+2) or 1/(j+1)) and an
exponential-weight companion ("tilde", built on 1/(j+2)! or 1/(j+1)!),
linked by one-step recurrences in v.

gamma_coeff gives the Stirling-series coefficients of the Gamma function
(gamma_0 = 1, gamma_1(0) = 1/12, gamma_2(0) = 1/288, ...), rho the
correction-term coefficients (rho_0(0) = 1/3), psi the coefficients of the
companion expansion built from the exponential-integral tail, and U the
w-plane interior coefficients U_0 = 1/(1-w).

``alpha_s`` is the generic saddle-point coefficient extractor the families
come from; it works over any coefficient ring (rationals, polynomials,
rational functions) and leaves the possibly fractional power of the leading
series coefficient symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import count, islice
from math import comb, factorial, lcm, perm
from operator import mul
from typing import Callable, Iterable, Optional

from .combinat import associated_row, binomial, double_factorial, \
    eulerian2, stirling
from .demoivre import CoeffSequence, harmonic, inv_factorial
from .polys import PolyV, PolyW, RationalFnW, Sqrt2Scaled, w_minus_1_pow

_POLY_MODES = ("plain", "tilde")


def _check_mode(mode: str) -> None:
    if mode not in _POLY_MODES:
        raise ValueError(f"mode must be one of {_POLY_MODES}")


def _double_sum(deg: int, seq: CoeffSequence, weights: list,
                outer: Callable[[int], object]):
    """sum_(m<=deg) outer(m) sum_k weights[k] A(m, k; seq) in the ring of
    the outer factors, for ``alpha_s``: ``weighted_row`` takes the rational
    weights as integers over their lcm d, and 1/d is applied once."""
    d = lcm(*(w.denominator for w in weights))
    weights = [w.numerator * (d // w.denominator) for w in weights]
    total = Fraction(0)
    for m in range(deg + 1):
        inner = seq.weighted_row(m, weights)
        if inner:
            total = total + outer(m) * inner
    return total if d == 1 else total * Fraction(1, d)


def _family_sums(mode: str, deg: int, vectors: list, lo: int, shift: int):
    """sum_(m=lo..deg) outer_m(v) sum_k w_k A(m, k) over 1/(j+shift)
    (plain, outer C(v, deg-m) (-1)^m) or 1/(j+shift)! (tilde, outer
    v^(deg-m)/(deg-m)!) for each rational weight vector w (zero past its
    end), from one walk over the integer rows: the v-numerators of each
    sum over one D = d (deg + s deg)!, d the lcm of the weights'
    denominators, which row m's (m + s m)! times (deg - m)! divides.  In
    plain mode v^j has the sign (-1)^(deg-j) for every m, applied last."""
    seq = harmonic(shift) if mode == "plain" else inv_factorial(shift)
    d = lcm(*(w.denominator for ws in vectors for w in ws))
    ints = [[w.numerator * (d // w.denominator) for w in ws] for ws in vectors]
    top = factorial(deg + shift * deg)
    sums = [[0] * (deg + 1) for _ in ints]
    for m in range(lo, deg + 1):
        row, den = seq.int_row(m)
        scale = top // (den * factorial(deg - m))
        for ws, out in zip(ints, sums):
            x = scale * sum(map(mul, ws, row))
            if mode == "tilde":
                out[deg - m] += x
            elif x:
                cycle = associated_row("cycle", 0, deg - m)
                out[:len(cycle)] = [o + x * c for o, c in zip(out, cycle)]
    return [[-x if (deg - j) % 2 else x for j, x in enumerate(out)]
            for out in sums] if mode == "plain" else sums, d * top


def _weighted_sum(mode: str, deg: int, weights: Iterable,
                  at_zero: bool = False) -> PolyV:
    """The family double sum (``_family_sums``) over 1/(j+2) or 1/(j+2)!
    with the first deg + 1 of the rational ``weights``, read after the
    checks.  Only the m = deg term survives at v = 0; ``at_zero`` keeps
    just that one, the family's value at v = 0."""
    _check_mode(mode)
    if deg < 0:
        raise ValueError("index must be nonnegative")
    (num,), D = _family_sums(mode, deg, [list(islice(weights, deg + 1))],
                             deg if at_zero else 0, 2)
    return PolyV._of(num, D)


def _double_factorial_weights(base: int):
    """(base + 2k)!! / ((-1)^k k!) for k = 0, 1, ..., each from the one
    before: w_(k+1) = w_k (base + 2k + 2) / -(k + 1)."""
    w = Fraction(double_factorial(base))
    for k in count(1):
        yield w
        w = Fraction(w.numerator * (base + 2 * k), w.denominator * -k)


# Memos keyed by value: always called positionally, with every argument.

@lru_cache(maxsize=None)
def _rho_sum(r: int, mode: str, at_zero: bool) -> PolyV:
    total = _weighted_sum(mode, 2 * r + 1, _double_factorial_weights(2 * r),
                          at_zero)
    return (1 if mode == "plain" and r == 0 else 0) - total


@lru_cache(maxsize=None)
def _gamma_sum(r: int, mode: str, at_zero: bool) -> PolyV:
    return _weighted_sum(mode, 2 * r, _double_factorial_weights(2 * r - 1),
                         at_zero)


@lru_cache(maxsize=None)
def _tau_sum(r: int, at_zero: bool) -> PolyV:
    return -_weighted_sum("plain", 2 * r + 1,
                          _double_factorial_weights(2 * r - 1), at_zero)


@lru_cache(maxsize=None)
def _beta(s: int, mode: str) -> Sqrt2Scaled:
    top = Fraction(-s - 1, 2)
    total = _weighted_sum(mode, s, (2 ** k * binomial(top, k)
                                    for k in count()))
    return Sqrt2Scaled(total, s - 1)


def beta(s: int, mode: str = "plain") -> Sqrt2Scaled:
    """Raw saddle coefficient of index s, an exact multiple of sqrt(2)^(s-1).

    beta(s) carries the half-integer power 2^((s-1)/2) explicitly; the
    polynomial part is rational.  beta(1).to_polyv() == 2/3.
    """
    return _beta(s, mode)


def rho(r: int, mode: str = "plain") -> PolyV:
    """Correction-term coefficient rho_r(v), a polynomial of degree 2r+1.

    rho(0) == 1/3 - v; at v = 0 the values run 1/3, 4/135, -8/2835, ...
    The tilde mode is the exponential-weight companion with
    rho_r = rho~_r + v * rho~_{r-1}.
    """
    return _rho_sum(r, mode, False)


def gamma_coeff(r: int, mode: str = "plain") -> PolyV:
    """Stirling-series coefficient gamma_r(v), a polynomial of degree 2r.

    gamma_coeff(0) == 1, gamma_coeff(1)(0) == 1/12,
    gamma_coeff(2)(0) == 1/288.  Same plain/tilde pairing as rho.
    """
    return _gamma_sum(r, mode, False)


def tau(r: int) -> PolyV:
    """Companion coefficient tau_r(v) driving the psi family; tau(0) = -1/3 - v."""
    return _tau_sum(r, False)


@lru_cache(maxsize=None)
def _psi_sum(r: int, at_zero: bool):
    """psi_r = tau_r - sum_(m<r) gamma_(r-m) psi_m: tau divided by the gamma
    series, exact since gamma_0 = 1.  m runs upward, so a cold call finds
    each psi_m memoized instead of recursing r deep."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    tau_, gamma = (tau_zero, gamma_zero) if at_zero else (tau, gamma_coeff)
    total = tau_(r)
    for m in range(r):
        total = total - gamma(r - m) * _psi_sum(m, at_zero)
    return total


def psi(r: int) -> PolyV:
    """Exponential-integral companion coefficient psi_r(v).

    The series quotient tau / (1 + gamma_1 x + gamma_2 x^2 + ...) over the
    polynomial ring in v, by the division psi_r = tau_r - sum_(m<r)
    gamma_(r-m) psi_m.  psi(0) == -1/3 - v and psi(1)(0) == 4/135.
    """
    return _psi_sum(r, False)


# ---------------------------------------------------------------------------
# v = 0 specializations: the m = deg term of each family's sum (also the
# conjecture fast path)
# ---------------------------------------------------------------------------

def rho_zero(r: int, mode: str = "plain") -> Fraction:
    """rho_r(0) by its single-sum form over 1/(j+2) (plain) or 1/(j+2)! (tilde)."""
    return _rho_sum(r, mode, True).coeff(0)


def gamma_zero(r: int, mode: str = "plain") -> Fraction:
    """gamma_r(0) by its single-sum form; both modes must agree."""
    return _gamma_sum(r, mode, True).coeff(0)


def tau_zero(r: int) -> Fraction:
    return _tau_sum(r, True).coeff(0)


def psi_zero(r: int) -> Fraction:
    """psi_r(0) by the same series division as psi, over the v = 0 values
    tau_r(0) and gamma_r(0)."""
    return _psi_sum(r, True)


@dataclass(frozen=True)
class ConjectureRow:
    r: int
    psi_value: Fraction
    expected: Fraction

    @property
    def equal(self) -> bool:
        return self.psi_value == self.expected


@dataclass(frozen=True)
class ConjectureReport:
    rows: tuple
    all_equal: bool


# the range ``ramasym verify`` checks the conjecture over by default
_CONJECTURE_MAX_R = 100


def check_conjecture(max_r: int) -> ConjectureReport:
    """Exact test of psi_r(0) = (-1)^(r+1) rho_r(0) for 0 <= r <= max_r."""
    if max_r < 0:
        raise ValueError("max_r must be nonnegative")
    rows = []
    for r in range(max_r + 1):
        rows.append(ConjectureRow(r, psi_zero(r),
                                  Fraction((-1) ** (r + 1)) * rho_zero(r)))
    return ConjectureReport(tuple(rows), all(row.equal for row in rows))


# ---------------------------------------------------------------------------
# the U family: rational functions of w
# ---------------------------------------------------------------------------

_U_MODES = ("plain", "tilde", "vzero_harmonic", "vzero_factorial",
            "eulerian", "taylor")


def U_coeff(r: int, mode: str = "plain",
            taylor_terms: Optional[int] = None) -> RationalFnW:
    """Interior expansion coefficient U_r(w; v) = N(w, v)/(w-1)^(2r+1).

    U_coeff(0) == 1/(1-w).  Modes:
      plain           polynomial-in-v form over the sequence 1/(j+1)
      tilde           exponential-weight companion over 1/(j+1)!
      vzero_harmonic  v = 0 single sum over 1/(j+1)
      vzero_factorial v = 0 single sum over 1/(j+1)!
      eulerian        v = 0 numerator read off second-order Eulerian numbers
      taylor          v = 0 Taylor section at w = 0 (needs taylor_terms >= 1);
                      agrees with the others only through that order
    taylor_terms is refused by every other mode.
    """
    return _U_coeff(r, mode, taylor_terms)


@lru_cache(maxsize=None)
def _U_coeff(r: int, mode: str, taylor_terms: Optional[int]) -> RationalFnW:
    if mode not in _U_MODES:
        raise ValueError(f"mode must be one of {_U_MODES}")
    if r < 0:
        raise ValueError("r must be nonnegative")
    if taylor_terms is not None and mode != "taylor":
        raise ValueError(f"taylor_terms does not apply to mode {mode}")

    if mode in ("plain", "tilde", "vzero_harmonic", "vzero_factorial"):
        # N = sum_k Q_k(v) w^(1 or k) (w-1)^(r-k) in integers over one
        # denominator, by the binomial rows of (w-1)^(r-k); Q_k is the family
        # sum over 1/(j+1) or 1/(j+1)! with the one weight c_k = -+(r+k)!/k!
        # at k, all from one walk over the rows (v = 0 modes: the m = r term)
        form = "plain" if mode in ("plain", "vzero_harmonic") else "tilde"
        qs, D = _family_sums(form, r, [[0] * k + [-perm(r + k, r) * (
            1 if form == "plain" else (-1) ** k)] for k in range(r + 1)],
            r if mode.startswith("vzero") else 0, 1)
        coeffs = [[0] * (r + 1) for _ in range(r + 2)]  # N's, by w-power
        for k, q in enumerate(qs):
            for i in range(r - k + 1):
                b = comb(r - k, i) * (-1) ** (r - k - i)
                j = i + (1 if form == "plain" else k)
                coeffs[j] = [a + b * x for a, x in zip(coeffs[j], q)]
        num = PolyW([PolyV._of(n, D) for n in coeffs])
        if r == 0 and form == "plain":
            num = num + w_minus_1_pow(1)
        return RationalFnW(num, 2 * r + 1)

    if mode == "eulerian":
        return RationalFnW(PolyW([-int(r == 0)] + [
            (-1) ** (r + 1) * eulerian2(r, j) for j in range(r)]), 2 * r + 1)

    # taylor
    if taylor_terms is None or taylor_terms < 1:
        raise ValueError("taylor mode needs taylor_terms >= 1")
    return RationalFnW(PolyW([int(r == 0)] + [
        (-1) ** r * stirling("subset", r + j, j)
        for j in range(1, taylor_terms)]), 0)


# ---------------------------------------------------------------------------
# the generic saddle-point coefficient engine
# ---------------------------------------------------------------------------

def _ring_inverse(x):
    if isinstance(x, (int, Fraction)):
        if x == 0:
            raise ZeroDivisionError("leading series coefficient is zero")
        return Fraction(1) / Fraction(x)
    inv = getattr(x, "inverse", None)
    if inv is None:
        raise TypeError(f"no inverse available for {type(x).__name__}")
    return inv()


@dataclass(frozen=True)
class SaddleData:
    """Inputs for the saddle coefficient alpha_s.

    mu is the vanishing order at the endpoint, a the power weight, p(j) the
    phase-series coefficients (p(0) invertible), q(j) the amplitude-series
    coefficients.  Each data object owns one ratio sequence p(j)/p(0), so
    every ``alpha_s`` on it shares one De Moivre triangle, freed with the
    object; a new data object starts a new triangle.
    """

    mu: int
    a: Fraction
    p: Callable[[int], object]
    q: Callable[[int], object]

    @cached_property
    def _ratio(self) -> CoeffSequence:
        inv_p0 = _ring_inverse(self.p(0))
        return CoeffSequence(lambda j: self.p(j) * inv_p0)


@dataclass(frozen=True)
class SaddleCoefficient:
    """alpha_s = p0**exponent * factor, with the p0 power left symbolic.

    The exponent -(s+a)/mu is generally fractional; ``assembled`` folds it
    in only when it is an integer, otherwise the caller must choose the
    branch."""

    p0: object
    exponent: Fraction
    factor: object

    def assembled(self):
        if self.exponent.denominator != 1:
            raise ValueError(
                "p0 power is fractional; pick a branch and assemble externally")
        return self.p0 ** int(self.exponent) * self.factor


def alpha_s(data: SaddleData, s: int) -> SaddleCoefficient:
    """Coefficient of index s in the endpoint saddle expansion.

    alpha_s = p0^(-(s+a)/mu) * (1/mu) * sum_{m<=s} q(s-m) *
              sum_j C(-(s+a)/mu, j) A(m, j; p_1/p_0, p_2/p_0, ...).
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if data.mu < 1:
        raise ValueError("mu must be a positive integer")
    expo = Fraction(-(s + Fraction(data.a)), data.mu)
    total = _double_sum(s, data._ratio,
                        [binomial(expo, j) for j in range(s + 1)],
                        lambda m: data.q(s - m))
    return SaddleCoefficient(data.p(0), expo, Fraction(1, data.mu) * total)
