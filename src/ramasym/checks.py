"""Runnable verification ledger.

Every structural claim the package makes about its coefficient families
(frozen reference values, dual-form identities, combinatorial closed
forms, the saddle-engine cross-checks, the psi/rho sign conjecture, the
convergence orders, and the w-plane region partition) is represented here
as a named check returning a CheckResult.  The CLI ``verify`` subcommand
and the acceptance test suite both run these; they are the single source
of truth for what "verified" means.

Each kind of check is written once, and its lines share that code:
  - a family against a frozen table (``check_frozen_values``);
  - the recurrence X_r = X~_r + v X~_(r-1) for rho, gamma and U;
  - the v = 0 sums via 1/j and via 1/j! for gamma and rho;
  - Stirling cycle and subset numbers from second-order Eulerian rows;
  - a route against a fresh convolution triangle (``_vs_convolution``);
  - gamma_j(0) and rho_j(0) from min-size-3 counts (``_min3_sum``).
Families (``cf.*``) and combinatorial routes are looked up when a check
runs, so a patched primitive reaches every line that reads it.

The routes only the ledger reads (closed forms, strips, fresh convolution
triangles, exhaustive counts) live here too, so the engine modules hold only
what ``coeff`` and ``eval`` reach; ``import ramasym`` does not load this.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from typing import Callable, Iterable, Optional, Sequence

from mpmath import mp

from . import coefficients as cf
from .asymptotics import (S_expansion, T_expansion, classify,
                          gamma_expansion, phi, psi_expansion, szego_curve,
                          theta_expansion)
from .combinat import (_KINDS, binomial, double_factorial, eulerian2,
                       stirling, stirling_associated)
from .demoivre import CoeffSequence, demoivre, harmonic, inv_factorial
from .numcore import GaussianRational, to_mp
from .oracle import (oracle_S, oracle_T, oracle_factorial, oracle_psi,
                     oracle_theta)
from .polys import PolyV, PolyW, RationalFnW, Sqrt2Scaled, binomial_poly


@dataclass(frozen=True)
class CheckResult:
    item: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.item}" + \
            (f": {self.detail}" if self.detail else "")


def _all_equal(item: str, pairs: Iterable, describe: str) -> CheckResult:
    count = 0
    for got, want, where in pairs:
        count += 1
        if got != want:
            return CheckResult(item, False,
                               f"{describe} mismatch at {where}: "
                               f"{got} != {want}")
    return CheckResult(item, count > 0, f"{describe}; {count} cases")


# ---------------------------------------------------------------------------
# frozen reference values
# ---------------------------------------------------------------------------

_RHO_ZERO_FROZEN = (Fraction(1, 3), Fraction(4, 135), Fraction(-8, 2835),
                    Fraction(-16, 8505), Fraction(8992, 12629925))
_PSI_ZERO_FROZEN = (Fraction(-1, 3), Fraction(4, 135), Fraction(8, 2835))

_V = PolyV.variable()


def _frozen_rho_polys():
    return (
        Fraction(1, 3) - _V,
        Fraction(4, 135) - _V ** 2 * (_V + 1) * Fraction(1, 3),
        Fraction(-8, 2835)
        - _V * (9 * _V ** 4 - 15 * _V ** 2 - 2 * _V + 4) * Fraction(1, 135),
    )


def _frozen_psi_polys():
    return (
        Fraction(-1, 3) - _V,
        Fraction(4, 135) + _V * (_V + 1) ** 2 * Fraction(1, 3),
        Fraction(8, 2835)
        - _V * (9 * _V ** 4 + 45 * _V ** 3 + 75 * _V ** 2 + 47 * _V + 8)
        * Fraction(1, 135),
    )


def _frozen_u():
    u0 = RationalFnW(PolyW([-1]), 1)  # 1/(1-w)
    u1 = RationalFnW(PolyW.w_monomial(1, 1), 3) \
        + RationalFnW(PolyW.w_monomial(1, PolyV.monomial(1, -1)), 2)
    u2 = RationalFnW(PolyW([0, -1, -2]), 5) \
        + RationalFnW(PolyW([PolyV(), PolyV.monomial(1, 2),
                             PolyV.monomial(1, 1)]), 4) \
        + RationalFnW(PolyW.w_monomial(1, PolyV.monomial(2, -1)), 3)
    return u0, u1, u2


def check_frozen_values() -> list:
    """Reference values of rho, psi, and U at small index, exactly."""
    return [_all_equal(
        item, ((family(r), want, f"r={r}") for r, want in enumerate(table)),
        text) for item, family, table, text in (
            ("frozen-rho-at-zero", cf.rho_zero, _RHO_ZERO_FROZEN,
             "rho_r(0) for r <= 4"),
            ("frozen-rho-polynomials", cf.rho, _frozen_rho_polys(),
             "rho_r(v) for r <= 2"),
            ("frozen-psi-at-zero", cf.psi_zero, _PSI_ZERO_FROZEN,
             "psi_r(0) for r <= 2"),
            ("frozen-psi-polynomials", cf.psi, _frozen_psi_polys(),
             "psi_r(v) for r <= 2"),
            ("frozen-u-rational-functions", cf.U_coeff, _frozen_u(),
             "U_r(w;v) for r <= 2"))]


# ---------------------------------------------------------------------------
# dual forms and recurrences
# ---------------------------------------------------------------------------

def check_dual_forms(max_r: int = 25, max_r_u: int = 15) -> list:
    """Plain/tilde recurrences and the equal-value dual sums."""
    out = [_all_equal(
        f"dual-{name.lower()}-recurrence",
        ((family(r),
          family(r, "tilde") + (family(r - 1, "tilde") * _V if r else 0),
          f"r={r}") for r in range(top + 1)),
        f"{name}_r = {name}~_r + v {name}~_(r-1) for r <= {top}")
        for name, family, top in (("rho", cf.rho, max_r),
                                  ("gamma", cf.gamma_coeff, max_r),
                                  ("U", cf.U_coeff, max_r_u))]
    out += [_all_equal(
        f"dual-{name}-scalar-sums",
        ((zero(r, "plain"), zero(r, "tilde"), f"r={r}")
         for r in range(max_r + 1)),
        f"{name}_r(0) via 1/j equals via 1/j! for r <= {max_r}")
        for name, zero in (("gamma", cf.gamma_zero), ("rho", cf.rho_zero))]

    def u_mode_pairs():
        for r in range(max_r_u + 1):
            ref = cf.U_coeff(r, "vzero_harmonic")
            yield cf.U_coeff(r, "vzero_factorial"), ref, f"r={r} factorial"
            yield cf.U_coeff(r, "eulerian"), ref, f"r={r} eulerian"

    out.append(_all_equal(
        "dual-u-closed-modes", u_mode_pairs(),
        f"v=0 closed forms of U_r agree for r <= {max_r_u}"))

    def taylor_pairs():
        terms = 16
        for r in range(max_r_u + 1):
            sections = cf.U_coeff(r, "eulerian").taylor_at_zero(terms)
            series = cf.U_coeff(r, "taylor", taylor_terms=terms)
            for j in range(terms):
                yield series.num.coeff(j), PolyV() + sections[j], \
                    f"r={r} j={j}"

    out.append(_all_equal(
        "dual-u-taylor-sections", taylor_pairs(),
        f"series mode matches Taylor sections for r <= {max_r_u}, 16 terms"))
    return out


# ---------------------------------------------------------------------------
# routes only the ledger reads
# ---------------------------------------------------------------------------

def convolution(seq: CoeffSequence) -> CoeffSequence:
    """The same terms as a new plain sequence, so its triangle is built
    afresh by the ring-generic convolution on every call: the independent
    side of the checks on the integer route."""
    return CoeffSequence(seq.term)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multinomial(k: int, js) -> int:
    out = factorial(k)
    for j in js:
        out //= factorial(j)
    return out


def strip_r(n: int, k: int, r: int, seq: CoeffSequence):
    """A(n, k) for the r-fold shifted sequence a_{r+1}, a_{r+2}, ...

    Multinomial sum over (j_1, ..., j_{r+1}) with sum k:
        multinom * prod_i (-a_i)^{j_i} * A(n + J + r j_{r+1}, j_{r+1}; a),
    J = (r-1) j_1 + (r-2) j_2 + ... + 1 * j_{r-1}.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    a = [None] + [seq(i) for i in range(1, r + 1)]
    total = Fraction(0)
    for js in _compositions(k, r + 1):
        jlast = js[-1]
        J = sum((r - 1 - i) * js[i] for i in range(r - 1))
        A = demoivre(n + J + r * jlast, jlast, seq)
        if not A:
            continue
        t = Fraction(_multinomial(k, js)) * A
        for i in range(r):
            if js[i]:
                t = t * (-a[i + 1]) ** js[i]
        total += t
    return total


# Closed forms for specific shifted harmonic / inverse-factorial sequences,
# keyed by mode, each with the sequence it must reproduce.
CLOSED_FORM_SEQUENCES = {
    "cycle": harmonic(0),
    "subset": inv_factorial(0),
    "cycle1": harmonic(1),
    "subset1": inv_factorial(1),
    "cycle1_eulerian": harmonic(1),
    "subset1_eulerian": inv_factorial(1),
    "cycle2": harmonic(2),
    "subset1_power": inv_factorial(1),
    "subset2_power": inv_factorial(2),
}


def special_closed_forms(n: int, k: int, which: str) -> Fraction:
    """Evaluate A(n, k) for a library sequence from combinatorial numbers.

    Modes (sequence -> formula source):
      cycle             1/j      from Stirling cycle numbers
      subset            1/j!     from Stirling subset numbers
      cycle1            1/(j+1)  alternating binomial-cycle sum
      subset1           1/(j+1)! alternating binomial-subset sum
      cycle1_eulerian   1/(j+1)  second-order Eulerian sum
      subset1_eulerian  1/(j+1)! second-order Eulerian sum
      cycle2            1/(j+2)  three-part multinomial cycle sum
      subset1_power     1/(j+1)! power sum
      subset2_power     1/(j+2)! power sum
    """
    if which not in CLOSED_FORM_SEQUENCES:
        raise ValueError(f"unknown closed form {which!r}")
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")

    if which in _KINDS:
        return Fraction(factorial(k), factorial(n)) * stirling(which, n, k)
    if which in ("cycle1", "subset1"):
        kind = "cycle" if which == "cycle1" else "subset"
        s = sum((-1) ** (k - j) * comb(n + k, n + j) * stirling(kind, n + j, j)
                for j in range(k + 1))
        return Fraction(factorial(k), factorial(n + k)) * s
    if which == "cycle1_eulerian":
        s = sum(eulerian2(n, j) * binomial(j, n - k)
                for j in range(n + 1))
        return Fraction(factorial(k), factorial(n + k)) * s
    if which == "subset1_eulerian":
        s = sum(eulerian2(n, j) * binomial(n - 1 - j, n - k)
                for j in range(n + 1))
        return Fraction(factorial(k), factorial(n + k)) * s
    if which == "cycle2":
        total = Fraction(0)
        for j1, j2, j3 in _compositions(k, 3):
            m = n + j2 + 2 * j3
            st = stirling("cycle", m, j3)
            if st:
                total += (Fraction((-1) ** (j1 + j2), 2 ** j1)
                          * Fraction(factorial(k),
                                     factorial(j1) * factorial(j2) * factorial(m))
                          * st)
        return total
    if which == "subset1_power":
        total = Fraction(0)
        for j1, j2, j3 in _compositions(k, 3):
            e = n + j1 + j3
            total += (Fraction(_multinomial(k, (j1, j2, j3)))
                      * (-1) ** (j1 + j2)
                      * Fraction(j3 ** e, factorial(e)))
        return total
    # subset2_power
    total = Fraction(0)
    for j1, j2, j3, j4 in _compositions(k, 4):
        e = n + 2 * j1 + j2 + 2 * j4
        total += (Fraction(_multinomial(k, (j1, j2, j3, j4)))
                  * Fraction((-1) ** (j1 + j2 + j3), 2 ** j3)
                  * Fraction(j4 ** e, factorial(e)))
    return total


_ENUM_CAP = 12


@lru_cache(maxsize=None)
def _partition_census(n: int):
    """Exhaustive walk over set partitions of {0..n-1}.

    Returns {(blocks, min_block_size): (partition_count, cycle_count)} where
    cycle_count weights each partition by prod (size-1)!, the number of ways
    to arrange each block into a cycle.
    """
    counts: dict[tuple[int, int], list[int]] = {}
    sizes: list[int] = []

    def rec(i: int) -> None:
        if i == n:
            key = (len(sizes), min(sizes))
            w = prod(factorial(s - 1) for s in sizes)
            c = counts.setdefault(key, [0, 0])
            c[0] += 1
            c[1] += w
            return
        for b in range(len(sizes)):
            sizes[b] += 1
            rec(i + 1)
            sizes[b] -= 1
        sizes.append(1)
        rec(i + 1)
        sizes.pop()

    rec(0)
    return {k: tuple(v) for k, v in counts.items()}


def enumerate_oracle(kind: str, n: int, k: int, r: int = 1) -> int:
    """Count partitions/permutations with k parts of size >= r by listing.

    Capped at n <= 12 (the walk is exponential in n); meant purely as an
    independent check of the closed-form routes.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}")
    if n < 0 or k < 0 or r < 1:
        raise ValueError("need n, k >= 0 and r >= 1")
    if n > _ENUM_CAP:
        raise ValueError(f"enumeration capped at n = {_ENUM_CAP}")
    if n == 0:
        return int(k == 0)
    idx = 0 if kind == "subset" else 1
    return sum(v[idx] for (nb, mn), v in _partition_census(n).items()
               if nb == k and mn >= r)


# ---------------------------------------------------------------------------
# combinatorial identity ledger
# ---------------------------------------------------------------------------

def _padded(seq: CoeffSequence, zeros: int) -> CoeffSequence:
    """The sequence with ``zeros`` extra leading zero terms."""
    return CoeffSequence(
        lambda j: Fraction(0) if j <= zeros else seq(j - zeros))


def _psi_by_demoivre(r: int, gammas: CoeffSequence) -> PolyV:
    """psi_r = sum_m tau_(r-m) I_m with the coefficients of
    1/(1 + gamma_1 x + ...) read off De Moivre powers of the gamma series
    ``gammas``: I_m = sum_k (-1)^k A(m, k; gamma_1, gamma_2, ...)."""
    return sum((cf.tau(r - m) * (-1) ** k * demoivre(m, k, gammas)
                for m in range(r + 1) for k in range(m + 1)), PolyV())


def _vs_convolution(seq: CoeffSequence, top: int, kmax: int, label: str,
                    route: Callable, *args) -> Iterable:
    """Yield (route(n, k, *args), A(n, k; seq) from a fresh convolution
    triangle, where) for n <= top and k <= min(n, kmax)."""
    conv = convolution(seq)
    for n in range(top + 1):
        for k in range(min(n, kmax) + 1):
            yield route(n, k, *args), demoivre(n, k, conv), \
                f"{label} n={n} k={k}"


def _min3_sum(kind: str, n: int) -> Fraction:
    """sum_k (-1)^k T(n+2k, k)/(n+2k)!! over the associated Stirling
    numbers T of ``kind`` with every block or cycle of size >= 3."""
    return sum(Fraction((-1) ** k, double_factorial(n + 2 * k))
               * stirling_associated(kind, n + 2 * k, k, 3)
               for k in range(n + 1))


def check_identities(max_n: int = 12) -> list:
    """The combinatorial ledger grounding the De Moivre machinery."""
    out = [_all_equal(
        f"eulerian2-to-stirling-{kind}",
        ((stirling(kind, r + j, j),
          sum(eulerian2(r, k) * binomial(top(r, j, k), 2 * r)
              for k in range(r + 1)), f"r={r} j={j}")
         for r in range(11) for j in range(11)),
        f"{kind} numbers from second-order Eulerian rows")
        for kind, top in (("cycle", lambda r, j, k: r + j + k),
                          ("subset", lambda r, j, k: 2 * r + j - 1 - k))]
    out.append(_all_equal(
        "eulerian2-row-sums",
        ((sum(eulerian2(n, k) for k in range(max(n, 1))),
          double_factorial(2 * n - 1), f"n={n}") for n in range(11)),
        "row sums equal odd double factorials"))

    out.append(_all_equal(
        "closed-forms-vs-convolution",
        (pair for mode, seq in CLOSED_FORM_SEQUENCES.items()
         for pair in _vs_convolution(seq, max_n, max_n, mode,
                                     special_closed_forms, mode)),
        f"all closed-form modes match the convolution for n <= {max_n}"))

    prev_factorial = inv_factorial(-1)
    out.append(_all_equal(
        "power-form",
        ((demoivre(m + k, k, prev_factorial),
          Fraction(k ** m, factorial(m)), f"m={m} k={k}")
         for m in range(11) for k in range(11)),
        "A(m+k, k; 1/0!, 1/1!, ...) = k^m/m!"))

    def shift_pairs():
        for r in (2, 3):
            pad_f = _padded(inv_factorial(r - 1), r - 1)
            pad_h = _padded(harmonic(r - 1), r - 1)
            for n in range(max_n + 1):
                for k in range(n + 1):
                    yield demoivre(n, k, pad_f), \
                        demoivre(n - (r - 1) * k, k, inv_factorial(r - 1)) \
                        if n - (r - 1) * k >= 0 else Fraction(0), \
                        f"subset r={r} n={n} k={k}"
                    yield demoivre(n, k, pad_h), \
                        demoivre(n - (r - 1) * k, k, harmonic(r - 1)) \
                        if n - (r - 1) * k >= 0 else Fraction(0), \
                        f"cycle r={r} n={n} k={k}"

    out.append(_all_equal(
        "leading-zeros-shift", shift_pairs(),
        "padding with leading zeros shifts the order index"))

    out.append(_all_equal(
        "strip-leading-terms",
        (pair for r in (1, 2, 3)
         for base, shifted, name in (
             (harmonic(0), harmonic(r), "cycle"),
             (inv_factorial(0), inv_factorial(r), "subset"))
         for pair in _vs_convolution(shifted, max_n, 6, f"{name} r={r}",
                                     strip_r, r, base)),
        "binomial/multinomial strips equal the shifted-sequence values"))

    def assoc_pairs():
        for kind in ("cycle", "subset"):
            for r in (1, 2, 3):
                for n in range(11):
                    for k in range(n + 1):
                        yield stirling_associated(kind, n, k, r), \
                            enumerate_oracle(kind, n, k, r), \
                            f"{kind} n={n} k={k} r={r}"

    out.append(_all_equal(
        "associated-stirling-vs-enumeration", assoc_pairs(),
        "associated-Stirling recurrence matches exhaustive counts "
        "for n <= 10"))

    out.append(_all_equal(
        "associated-recurrence-vs-convolution",
        (pair for s in range(4) for seq in (harmonic(s), inv_factorial(s))
         for pair in _vs_convolution(seq, 30, 30, f"{seq.kind} s={s}",
                                     demoivre, seq)),
        "integer-row triangles of 1/(j+s) and 1/(j+s)! equal the "
        "convolution for s <= 3, n <= 30"))

    out.append(_all_equal(
        "eulerian2-recovered-harmonic",
        ((eulerian2(r, j),
          sum(Fraction((-1) ** (r + j + k) * factorial(r + k), factorial(k))
              * binomial(r - k, j) * demoivre(r, k, harmonic(1))
              for k in range(r + 1)), f"r={r} j={j}")
         for r in range(11) for j in range(max(r, 1))),
        "second-order Eulerian numbers from the 1/(j+1) polynomials"))
    out.append(_all_equal(
        "eulerian2-recovered-factorial",
        ((eulerian2(r, j),
          sum(Fraction((-1) ** (j + k + 1) * factorial(r + k), factorial(k))
              * binomial(r - k, j + 1 - k)
              * demoivre(r, k, inv_factorial(1))
              for k in range(r + 1)), f"r={r} j={j}")
         for r in range(1, 11) for j in range(r)),
        "second-order Eulerian numbers from the 1/(j+1)! polynomials"))

    out += [_all_equal(
        f"gamma-from-associated-{kind}",
        ((_min3_sum(kind, 2 * j), cf.gamma_zero(j), f"{kind} j={j}")
         for j in range(11)),
        f"gamma_j(0) from min-size-3 {kind} counts for j <= 10")
        for kind in ("cycle", "subset")]
    # rho_j(0) = delta_j0 + (cycle sum) = -(subset sum)
    out += [_all_equal(
        f"rho-from-associated-{kind}",
        ((delta * (j == 0) + sign * _min3_sum(kind, 2 * j + 1),
          cf.rho_zero(j), f"j={j}") for j in range(11)),
        f"rho_j(0) from min-size-3 {kind} counts for j <= 10")
        for kind, delta, sign in (("cycle", 1, 1), ("subset", 0, -1))]

    gammas = CoeffSequence(cf.gamma_coeff)
    out.append(_all_equal(
        "psi-inversion-vs-demoivre",
        ((cf.psi(r), _psi_by_demoivre(r, gammas), f"r={r}")
         for r in range(9)),
        "psi_r by series division of tau by the gamma series equals the "
        "De Moivre inversion over polynomials in v for r <= 8"))

    # proof-relation anchors tying the beta family to rho and gamma
    out.append(_all_equal(
        "anchor-rho-from-beta",
        (((Fraction(1) if r == 0 else Fraction(0))
          - factorial(r) * cf.beta(2 * r + 1).to_polyv(),
          cf.rho(r), f"r={r}") for r in range(9)),
        "rho_r = delta - r! beta_(2r+1) for r <= 8"))
    out.append(_all_equal(
        "anchor-rho-tilde-from-beta",
        ((-factorial(r) * cf.beta(2 * r + 1, "tilde").to_polyv(),
          cf.rho(r, "tilde"), f"r={r}") for r in range(9)),
        "rho~_r = -r! beta~_(2r+1) for r <= 8"))
    out.append(_all_equal(
        "anchor-gamma-from-beta",
        (((cf.beta(2 * r) * Sqrt2Scaled(
            Fraction(factorial(2 * r), 4 ** r * factorial(r)), 1)
           ).to_polyv(),
          cf.gamma_coeff(r), f"r={r}") for r in range(9)),
        "gamma_r from beta_(2r) with the exact half-integer factor"))
    out.append(_all_equal(
        "anchor-halfinteger-binomial",
        ((Fraction(2) ** (r + k) * Fraction(factorial(2 * r),
                                            4 ** r * factorial(r))
          * binomial(Fraction(-2 * r - 1, 2), k),
          Fraction(double_factorial(2 * r + 2 * k - 1),
                   (-1) ** k * factorial(k)), f"r={r} k={k}")
         for r in range(21) for k in range(21)),
        "2^(r+k) (2r)!/(4^r r!) C(-r-1/2, k) = (2r+2k-1)!!/((-1)^k k!)"))
    return out


# ---------------------------------------------------------------------------
# the v = 0 values by series reversion, off the engine
# ---------------------------------------------------------------------------

def _laplace_dot(xs, ys) -> Fraction:
    """sum x y, reduced once over the lcm of the products' denominators."""
    dens = [x.denominator * y.denominator for x, y in zip(xs, ys)]
    d = lcm(*dens)
    return Fraction(sum(x.numerator * y.numerator * (d // e)
                        for x, y, e in zip(xs, ys, dens)), d)


def _laplace_at_zero(max_r: int):
    """Yield (rho_r, gamma_r, tau_r, psi_r) at v = 0 for r <= max_r, by the
    standard library alone, from the inverse series x(t) of x - log(1+x) =
    t^2/2: gamma_r = (2r-1)!! [t^2r] x', rho_r = -2^r r! [t^(2r+1)] t/x,
    tau_r = -(2r-1)!! [t^2r] x'/x, psi = tau / gamma by series division."""
    top = 2 * max_r + 2
    a = [Fraction(0), Fraction(1)]  # [t^n] x, from x x' = t (1 + x)
    da = a[:]  # n a_n = [t^(n-1)] x'
    for n in range(2, top + 1):
        a.append((a[n - 1] - _laplace_dot(a[2:n], da[n - 1:1:-1])) / (n + 1))
        da.append(n * a[n])
    b = [Fraction(1)]  # [t^n] t/x, the inverse of 1 + a_2 t + a_3 t^2 + ...
    for n in range(1, top):
        b.append(-_laplace_dot(a[2:n + 2], b[::-1]))
    gamma, psi = [], []
    for r in range(max_r + 1):
        odd = prod(range(1, 2 * r, 2))  # (2r-1)!!
        gamma.append(odd * da[2 * r + 1])
        tau = -odd * _laplace_dot(da[1:2 * r + 3], b[2 * r + 1::-1])
        psi.append(tau - _laplace_dot(gamma[r:0:-1], psi))
        yield -(2 ** r) * factorial(r) * b[2 * r + 1], gamma[r], tau, psi[r]


def check_laplace_at_zero(max_r: int = 30) -> list:
    """rho_r(0), gamma_r(0), tau_r(0) and psi_r(0) against the witness."""
    return [_all_equal("laplace-at-zero", (
        (zero(r), want, f"{name} r={r}") for r, row in
        enumerate(_laplace_at_zero(max_r)) for name, zero, want in zip(
            ("rho", "gamma", "tau", "psi"), (cf.rho_zero, cf.gamma_zero,
                                             cf.tau_zero, cf.psi_zero), row)),
        f"the v = 0 values by series reversion for r <= {max_r}")]


# ---------------------------------------------------------------------------
# the sign conjecture, the saddle engine, convergence, regions
# ---------------------------------------------------------------------------

def check_conjecture_range(max_r: Optional[int] = None) -> list:
    """The sign conjecture for r <= max_r (default
    ``coefficients._CONJECTURE_MAX_R``)."""
    if max_r is None:
        max_r = cf._CONJECTURE_MAX_R
    report = cf.check_conjecture(max_r)
    bad = [row for row in report.rows if not row.equal]
    detail = f"{sum(r.equal for r in report.rows)}/{len(report.rows)} equal"
    if bad:
        b = bad[0]
        detail += f"; first failure r={b.r}: {b.psi_value} vs {b.expected}"
    return [CheckResult(f"conjecture-psi-rho-sign-r{max_r}",
                        report.all_equal, detail)]


def check_saddle(max_s: int = 8, max_r: int = 5) -> list:
    out = []
    data_beta = cf.SaddleData(
        mu=2, a=Fraction(1),
        p=lambda j: Fraction((-1) ** j, j + 2),
        q=lambda j: binomial_poly(j))

    def beta_pairs():
        for s in range(max_s + 1):
            a = cf.alpha_s(data_beta, s)
            yield Sqrt2Scaled(a.factor, s + 1), cf.beta(s), f"s={s}"

    out.append(_all_equal(
        "saddle-reproduces-beta", beta_pairs(),
        f"order-2 saddle data gives beta_s for s <= {max_s}"))

    one = RationalFnW(PolyW([1]), 0)
    wfn = RationalFnW(PolyW.w_monomial(1, 1), 0)

    def pseq(j):
        if j == 0:
            return RationalFnW(PolyW([-1, 1]), 0)
        return RationalFnW(PolyW([Fraction((-1) ** (j + 1), j + 1)]), 0)

    data_u = cf.SaddleData(
        mu=1, a=Fraction(1), p=pseq,
        q=lambda j: RationalFnW(PolyW([binomial_poly(j)]), 0))

    def u_pairs():
        for r in range(max_r + 1):
            a = cf.alpha_s(data_u, r)
            got = (one if r == 0 else RationalFnW(PolyW(), 0)) \
                - wfn * factorial(r) * a.assembled()
            yield got, cf.U_coeff(r), f"r={r}"

    out.append(_all_equal(
        "saddle-reproduces-u", u_pairs(),
        f"order-1 saddle data gives U_r for r <= {max_r}"))
    return out


@dataclass(frozen=True)
class ProbeRow:
    """One measurement: truncation error at n, and the decay ratio
    error(n)/error(n/2) when the halved n is also in the probe list."""

    n: int
    error: object
    ratio: Optional[object]


def _expansion_error(target: str, n: int, v: int, w, R: int, digits: int):
    if target == "theta":
        approx = theta_expansion(n, v, R, digits).value
        exact = oracle_theta(n, v, digits)
    elif target == "gammaFactorial":
        approx = gamma_expansion(n, v, R, digits).value
        exact = oracle_factorial(n, v)
    elif target == "psi":
        approx = psi_expansion(n, v, R, digits).value
        exact = oracle_psi(n, v, digits)
    elif target == "S":
        approx = S_expansion(n, w, v, R, digits).value
        exact = oracle_S(n, w, v, digits)
    elif target == "T":
        approx = T_expansion(n, w, v, R, digits).value
        exact = oracle_T(n, w, v)
    else:
        raise ValueError(f"unknown probe target {target!r}")
    err = abs(approx - to_mp(exact))
    if target == "gammaFactorial":
        err = err / to_mp(exact)
    return err


def convergence_probe(target: str, R: int, n_list: Sequence[int],
                      v: int = 0, w=None, digits: int = 200) -> list:
    """Measure truncation-error decay across n_list.

    For each consecutive pair (n, 2n) in n_list, ratio = error(2n)/error(n);
    an order-R truncation has ratio near 2^(-R) (relative error for the
    factorial target, absolute otherwise), all at a precision set by digits.
    """
    if list(n_list) != sorted(set(n_list)):
        raise ValueError("n_list must be strictly increasing")
    errors = {}
    rows = []
    with mp.workprec(int(digits * 3.33) + 64):
        for n in n_list:
            err = _expansion_error(target, n, v, w, R, digits)
            errors[n] = err
            ratio = None
            if n % 2 == 0 and n // 2 in errors and errors[n // 2] != 0:
                ratio = err / errors[n // 2]
            rows.append(ProbeRow(n, err, ratio))
    return rows


# (target, R, n list, v, w, name suffix); psi's large n stops at 2000, as
# its oracle's Ei series at 4000 would nearly double the large-n lines' cost
_PROBES = (
    ("theta", 3, (25, 50, 100), 0, None, ""),
    ("gammaFactorial", 4, (20, 40), 0, None, ""),
    ("gammaFactorial", 4, (20, 40), 5, None, ""),
    ("psi", 3, (25, 50, 100), 0, None, ""),
    ("S", 3, (25, 50, 100), 0, Fraction(1, 2), ""),
    ("T", 3, (25, 50, 100), 0, Fraction(2), ""),
    ("theta", 8, (1000, 2000, 4000), 0, None, "-large-n"),
    ("gammaFactorial", 8, (1000, 2000, 4000), 0, None, "-large-n"),
    ("psi", 8, (1000, 2000), 0, None, "-large-n"),
    ("S", 8, (1000, 2000, 4000), 0, Fraction(1, 2), "-large-n"),
    ("T", 8, (1000, 2000, 4000), 0, Fraction(2), "-large-n"),
)


def check_convergence(digits: int = 200) -> list:
    """Error-decay ratios for all expansion targets, within 2x of 2^-R."""
    out = []
    for target, R, n_list, v, w, suffix in _PROBES:
        rows = convergence_probe(target, R, n_list, v=v, w=w, digits=digits)
        expected = mp.mpf(2) ** -R
        ok = True
        parts = []
        for row in rows:
            if row.ratio is None:
                continue
            parts.append(f"n={row.n}: {mp.nstr(row.ratio, 4)}")
            if not (expected / 2 <= row.ratio <= expected * 2):
                ok = False
        name = f"convergence-{target.lower()}-v{v}" \
            + (f"-w{w}".replace("/", "over") if w is not None else "") \
            + suffix
        out.append(CheckResult(
            name, ok,
            f"R={R}, target 2^-{R}={mp.nstr(expected, 4)}; "
            + ", ".join(parts)))
    return out


def _independent_label(re: Fraction, im: Fraction) -> str:
    """Region label via the logarithmic sign test, bypassing classify."""
    if im == 0 and re == 1:
        return "One"
    if im == 0 and re == 0:
        return "Zero"
    with mp.workprec(400):
        margin = mp.log(to_mp(re * re + im * im)) / 2 + 1 - to_mp(re)
        if abs(margin) < mp.mpf(10) ** -40:
            return "ScurveBoundary" if re < 1 else "TcurveBoundary"
        if margin > 0:
            return "X"
        return "Y" if re < 1 else "Z"


def check_regions(samples: int = 1000, seed: int = 20260816,
                  curve_points: int = 200, digits: int = 50) -> list:
    out = []
    rng = random.Random(seed)
    bad = None
    for _ in range(samples):
        re = Fraction(rng.randint(-2000, 3000), 1000)
        im = Fraction(rng.randint(-2000, 2000), 1000)
        got = classify(GaussianRational(re, im), digits=digits).kind
        want = _independent_label(re, im)
        if got != want:
            bad = (re, im, got, want)
            break
    out.append(CheckResult(
        "classify-vs-sign-test",
        bad is None,
        f"{samples} seeded points in [-2,3]x[-2,2]" if bad is None else
        f"mismatch at w={bad[0]}+{bad[1]}i: {bad[2]} != {bad[3]}"))

    step = Fraction(1, 100)
    t_min = Fraction(-27, 100)
    t_max = t_min + (curve_points - 1) * step
    points = szego_curve(t_min, t_max, step, digits=digits)
    worst = max(p.residual for p in points)
    prec = int(digits * 3.4) + 30
    with mp.workprec(prec):
        ok = len(points) == curve_points and worst < mp.mpf(10) ** -30
        at_one = [abs(p.w.real - 1) < mp.mpf(10) ** -20 for p in points]
    side_ok = True
    for p, one in zip(points, at_one):
        lab = classify(p.w, digits=digits).kind
        expect = "One" if one else (
            "ScurveBoundary" if p.w.real < 1 else "TcurveBoundary")
        if lab != expect:
            side_ok = False
            break
    out.append(CheckResult(
        "curve-residuals",
        ok and side_ok,
        f"{len(points)} points, worst | |w e^(1-w)| - 1 | = "
        f"{mp.nstr(worst, 3)}, boundary labels "
        f"{'consistent' if side_ok else 'inconsistent'}"))

    def phi_pairs():
        for p, one in list(zip(points, at_one))[::10]:
            if one:
                continue
            ph = phi(p.w, digits=digits)
            with mp.workprec(prec):
                recon = abs(p.w * mp.exp(1 - p.w) - mp.exp(-1j * ph))
                ok_here = recon < mp.mpf(10) ** -30
            yield ok_here, True, f"t={mp.nstr(p.t, 6)}"

    out.append(_all_equal(
        "phase-reconstruction", phi_pairs(),
        "e^(-i phi) rebuilds w e^(1-w) on sampled curve points"))
    return out


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

def run_identity_suite(max_r: Optional[int] = None) -> list:
    """Frozen values, dual forms, combinatorial ledger, saddle engine."""
    dual_kwargs = {}
    if max_r is not None:
        dual_kwargs = {"max_r": max_r, "max_r_u": min(max_r, 15)}
    results = []
    results += check_frozen_values()
    results += check_dual_forms(**dual_kwargs)
    results += check_identities()
    results += check_laplace_at_zero()
    results += check_saddle()
    return sorted(results, key=lambda r: r.item)


def run_all(max_r_conjecture: Optional[int] = None) -> list:
    results = run_identity_suite()
    results += check_conjecture_range(max_r_conjecture)
    results += check_convergence()
    results += check_regions()
    return sorted(results, key=lambda r: r.item)
