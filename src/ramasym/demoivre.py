"""Coefficients of powers of a formal power series.

For a sequence a_1, a_2, ... the quantity computed here is

    A(n, k; a) = [x^n] (a_1 x + a_2 x^2 + a_3 x^3 + ...)^k,

the n-th coefficient of the k-th power of the series.  A(n, k; a) vanishes
for n < k, A(n, 0; a) is 1 exactly when n = 0, and each value is a finite
sum of k-fold products of sequence entries.  A whole triangle of values
is built in one pass and cached, so individual queries are cheap after that.

The library sequences 1/(j+s) and 1/(j+s)! (s >= 0) made by ``harmonic``
and ``inv_factorial`` read their triangles off integer associated-Stirling
rows (``combinat.associated_row``).  Every other sequence takes truncated
series convolution, row by row in k; its entries may live in any
commutative ring that coerces ints and Fractions (exact rationals,
polynomials, rational functions), since convolution only ever adds and
multiplies.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Callable

from . import combinat
from .combinat import associated_row, binomial, eulerian2, stirling

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class CoeffSequence:
    """A deterministic 1-indexed coefficient sequence.

    ``term(j)`` must return the same value every call.  The sequence is its
    own memo key: it equals only a sequence over the same ``term`` object,
    so two sequences share a De Moivre triangle exactly when they are made
    from one term function.
    """

    term: Callable[[int], object]

    def __call__(self, j: int):
        return self.term(j)


@dataclass(frozen=True, kw_only=True)
class _Library(CoeffSequence):
    """1/(j + shift) (cycle) or 1/(j + shift)! (subset) with shift >= 0,
    as made by ``harmonic`` and ``inv_factorial``: its triangle is read off
    integer associated-Stirling rows instead of the convolution.  Equal,
    and so sharing that triangle, whenever kind and shift agree."""

    term: Callable[[int], object] = field(compare=False)
    kind: str
    shift: int


def harmonic(shift: int = 0) -> CoeffSequence:
    """The sequence 1/(j + shift) for j = 1, 2, ..."""
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    return _Library(term=lambda j: Fraction(1, j + shift),
                    kind="cycle", shift=shift)


def _inv_factorial_prev(j: int) -> Fraction:
    return Fraction(1, factorial(j - 1))


def inv_factorial(shift: int = 0) -> CoeffSequence:
    """The sequence 1/(j + shift)! for j = 1, 2, ...; shift >= -1 allowed."""
    if shift < -1:
        raise ValueError("shift must be at least -1")
    if shift == -1:
        return CoeffSequence(_inv_factorial_prev)
    return _Library(term=lambda j: Fraction(1, factorial(j + shift)),
                    kind="subset", shift=shift)


def convolution(seq: CoeffSequence) -> CoeffSequence:
    """The same terms as a new plain sequence, equal to no other, so its
    triangle is always built afresh by the ring-generic convolution: the
    independent side of the checks on the integer route."""
    return CoeffSequence(lambda j: seq(j))


class _PowerTable:
    """Triangle A(m, kk) for one sequence, grown incrementally.

    rows[kk][m] holds A(m, kk).  Extending the degree reuses previous rows:
    the truncated convolution at degree m only reads lower-degree entries.
    """

    __slots__ = ("seq", "a", "rows")

    def __init__(self, seq: CoeffSequence):
        self.seq = seq
        self.a = [None]
        self.rows = [[_ONE]]

    def _conv(self, prev, m: int, kk: int):
        acc = None
        for j in range(1, m - kk + 2):
            p = prev[m - j]
            if p:
                t = self.a[j] * p
                acc = t if acc is None else acc + t
        return acc if acc is not None else _ZERO

    def value(self, n: int, k: int):
        old_n = len(self.rows[0]) - 1
        if n > old_n:
            while len(self.a) <= n:
                self.a.append(self.seq(len(self.a)))
            self.rows[0].extend([_ZERO] * (n - old_n))
            for kk in range(1, len(self.rows)):
                prev, row = self.rows[kk - 1], self.rows[kk]
                for m in range(old_n + 1, n + 1):
                    row.append(self._conv(prev, m, kk))
        top = len(self.rows[0]) - 1
        while len(self.rows) <= k:
            kk = len(self.rows)
            prev = self.rows[kk - 1]
            self.rows.append([self._conv(prev, m, kk) for m in range(top + 1)])
        return self.rows[k][n]


class _AssociatedTable:
    """Triangle A(m, k) = k!/(m + s k)! T_s(m, k) of a library sequence.

    rows[m][k] holds A(m, k); each row is made from the integer row
    ``combinat.associated_row(kind, s, m)`` when first needed.
    """

    __slots__ = ("kind", "shift", "rows")

    def __init__(self, seq: _Library):
        self.kind, self.shift = seq.kind, seq.shift
        self.rows = []

    def value(self, n: int, k: int):
        rows, s = self.rows, self.shift
        while len(rows) <= n:
            m = len(rows)
            rows.append([Fraction(factorial(kk) * t, factorial(m + s * kk))
                         for kk, t in enumerate(
                             associated_row(self.kind, s, m))])
        return rows[n][k]


_TABLES: dict[CoeffSequence, object] = {}


def clear_caches() -> None:
    """Drop every memo in the package (mainly for benchmarks and tests):
    the triangles, every ``lru_cache`` of every loaded ``ramasym`` module,
    the Stirling and Eulerian rows past their seed rows, and the
    associated-Stirling rows."""
    _TABLES.clear()
    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == __package__:
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    for rows in combinat._STIRLING.values():
        del rows[1:]
    del combinat._EULERIAN2[1:]
    combinat._ASSOCIATED.clear()


def _table(seq: CoeffSequence):
    """The memoized triangle of ``seq``: ``.value(n, k)`` is A(n, k) for
    n >= k (``demoivre`` settles the other cases first)."""
    tab = _TABLES.get(seq)
    if tab is None:
        make = _AssociatedTable if isinstance(seq, _Library) else _PowerTable
        tab = _TABLES[seq] = make(seq)
    return tab


def demoivre(n: int, k: int, seq: CoeffSequence):
    """A(n, k; a): the x^n coefficient of (a_1 x + a_2 x^2 + ...)^k."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if k == 0:
        return _ONE if n == 0 else _ZERO
    if n < k:
        return _ZERO
    return _table(seq).value(n, k)


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


# Closed forms for specific shifted harmonic / inverse-factorial sequences.
# Keyed by what they compute; each has a matching entry in
# CLOSED_FORM_SEQUENCES giving the sequence it must reproduce.
_CLOSED_FORM_MODES = (
    "cycle", "subset",
    "cycle1", "subset1", "cycle1_eulerian", "subset1_eulerian",
    "cycle2", "subset1_power", "subset2_power",
)


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
    if which not in _CLOSED_FORM_MODES:
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
