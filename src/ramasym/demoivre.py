"""Coefficients of powers of a formal power series.

For a sequence a_1, a_2, ... the quantity computed here is

    A(n, k; a) = [x^n] (a_1 x + a_2 x^2 + a_3 x^3 + ...)^k,

the n-th coefficient of the k-th power of the series.  A(n, k; a) vanishes
for n < k, A(n, 0; a) is 1 exactly when n = 0, and each value is a finite
sum of k-fold products of sequence entries.  Each ``CoeffSequence`` owns
its triangle of values and grows it as queries need it, so repeated
queries on one sequence are cheap.

The library sequences 1/(j+s) and 1/(j+s)! (s >= 0) made by ``harmonic``
and ``inv_factorial`` keep no triangle: each value is read off the integer
associated-Stirling rows (``combinat.associated_row``), the one store of
every sequence of one kind and shift.  Every other sequence takes
truncated series convolution, row by row in k; its entries may live in any
commutative ring that coerces ints and Fractions (exact rationals,
polynomials, rational functions), since convolution only ever adds and
multiplies.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, factorial
from typing import Callable

from .combinat import associated_row, binomial, eulerian2, stirling

_ZERO = Fraction(0)
_ONE = Fraction(1)


class CoeffSequence:
    """A deterministic 1-indexed coefficient sequence and its De Moivre
    triangle.

    ``term(j)`` must return the same value every call.  The sequence owns
    its triangle: rows[kk][m] holds A(m, kk), grown by truncated
    convolution as queries need it, and freed with the sequence.  A
    sequence is equal only to itself, so no other sequence reads its
    triangle; make it once and reuse it to reuse the triangle.
    """

    def __init__(self, term: Callable[[int], object]):
        self.term = term
        self.a = [None]
        self.rows = [[_ONE]]

    def __call__(self, j: int):
        return self.term(j)

    def _conv(self, prev, m: int, kk: int):
        acc = None
        for j in range(1, m - kk + 2):
            p = prev[m - j]
            if p:
                t = self.a[j] * p
                acc = t if acc is None else acc + t
        return acc if acc is not None else _ZERO

    def value(self, n: int, k: int):
        """A(n, k) for n >= k (``demoivre`` settles the other cases).

        Grows each row kk <= k to degree n from row kk - 1, keeping what it
        holds: the convolution at degree m reads lower degrees only.
        """
        while len(self.a) <= n:
            self.a.append(self.term(len(self.a)))
        rows = self.rows
        rows[0].extend([_ZERO] * (n + 1 - len(rows[0])))
        rows.extend([] for _ in range(k + 1 - len(rows)))
        for kk in range(1, k + 1):
            prev, row = rows[kk - 1], rows[kk]
            row.extend(self._conv(prev, m, kk) for m in range(len(row), n + 1))
        return rows[k][n]


class _Library(CoeffSequence):
    """1/(j + shift) (cycle) or 1/(j + shift)! (subset) with shift >= 0,
    as made by ``harmonic`` and ``inv_factorial``.  It has no triangle of
    its own: each query reads A(m, k) = k!/(m + s k)! T_s(m, k) off the
    integer rows ``combinat.associated_row(kind, s, m)``."""

    def __init__(self, term: Callable[[int], object], kind: str, shift: int):
        self.term, self.kind, self.shift = term, kind, shift

    def value(self, n: int, k: int):
        s = self.shift
        return Fraction(factorial(k) * associated_row(self.kind, s, n)[k],
                        factorial(n + s * k))


def harmonic(shift: int = 0) -> CoeffSequence:
    """The sequence 1/(j + shift) for j = 1, 2, ..."""
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    return _Library(lambda j: Fraction(1, j + shift), "cycle", shift)


def inv_factorial(shift: int = 0) -> CoeffSequence:
    """The sequence 1/(j + shift)! for j = 1, 2, ...; shift >= -1 allowed.

    shift = -1 is not a library sequence: each call makes a new sequence
    with a triangle of its own."""
    if shift < -1:
        raise ValueError("shift must be at least -1")
    if shift == -1:
        return CoeffSequence(lambda j: Fraction(1, factorial(j - 1)))
    return _Library(lambda j: Fraction(1, factorial(j + shift)),
                    "subset", shift)


def convolution(seq: CoeffSequence) -> CoeffSequence:
    """The same terms as a new plain sequence, so its triangle is built
    afresh by the ring-generic convolution on every call: the independent
    side of the checks on the integer route."""
    return CoeffSequence(seq.term)


def clear_caches() -> None:
    """Drop every memo in the package (mainly for benchmarks and tests):
    every memo is an ``lru_cache``, the Stirling, Eulerian and
    associated-Stirling rows among them, and this clears each one of every
    loaded ``ramasym`` module.  The library triangles are read off the
    associated rows and have no store of their own; the triangle of any
    other sequence lives on that sequence and is not touched."""
    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == __package__:
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def demoivre(n: int, k: int, seq: CoeffSequence):
    """A(n, k; a): the x^n coefficient of (a_1 x + a_2 x^2 + ...)^k."""
    if not isinstance(seq, CoeffSequence):
        raise TypeError(f"expected a CoeffSequence, not "
                        f"{type(seq).__name__}; wrap a term function "
                        f"as CoeffSequence(term)")
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if k == 0:
        return _ONE if n == 0 else _ZERO
    if n < k:
        return _ZERO
    return seq.value(n, k)


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
    total = None
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
        total = t if total is None else total + t
    return total if total is not None else _ZERO


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

    if which == "cycle":
        return Fraction(factorial(k), factorial(n)) * stirling("cycle", n, k)
    if which == "subset":
        return Fraction(factorial(k), factorial(n)) * stirling("subset", n, k)
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
