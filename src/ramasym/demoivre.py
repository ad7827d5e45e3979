"""Coefficients of powers of a formal power series.

For a sequence a_1, a_2, ... the quantity computed here is

    A(n, k; a) = [x^n] (a_1 x + a_2 x^2 + a_3 x^3 + ...)^k,

the n-th coefficient of the k-th power of the series.  A(n, k; a) vanishes
for n < k, A(n, 0; a) is 1 exactly when n = 0, and each value is a finite
sum of k-fold products of sequence entries.  Each ``CoeffSequence`` owns
its triangle of values and grows it as queries need it, so repeated
queries on one sequence are cheap.

The library sequences 1/(j+s) and 1/(j+s)! (s >= 0) of ``harmonic`` and
``inv_factorial`` keep no triangle: they read the integer rows
``combinat.associated_row``, one store per kind and shift, and give row m
of A as integers over one denominator, (m + s m)!, for the family sums to
take one dot product per weight vector with.  Every other sequence takes
truncated series convolution, row by row in k; its entries may live in
any commutative ring that coerces ints and Fractions (exact rationals,
polynomials, rational functions), since convolution only ever adds and
multiplies.  The ledger's own routes are in ``checks``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import factorial, perm
from typing import Callable

from .combinat import associated_row

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

    def weighted_row(self, m: int, weights: list):
        """sum_(k<=m) weights[k] A(m, k), in the ring of the entries; the
        caller hands in integer weights (rationals over one denominator)."""
        acc = _ZERO
        for k in range(m + 1):
            A = self.value(m, k)
            if A:
                acc = acc + weights[k] * A
        return acc


class _Library(CoeffSequence):
    """1/(j + shift) (cycle) or 1/(j + shift)! (subset) with shift >= 0,
    as made by ``harmonic`` and ``inv_factorial``.  It has no triangle of
    its own: A(m, k) = k!/(m + s k)! T_s(m, k) is read off the integer rows
    ``combinat.associated_row(kind, s, m)``, one entry or a whole row."""

    def __init__(self, term: Callable[[int], object], kind: str, shift: int):
        self.term, self.kind, self.shift = term, kind, shift

    def value(self, n: int, k: int):
        s = self.shift
        return Fraction(factorial(k) * associated_row(self.kind, s, n)[k],
                        factorial(n + s * k))

    def int_row(self, m: int) -> tuple:
        """(N, D) with A(m, k) = N[k]/D for k = 0..m, over the one
        denominator D = (m + s m)!: the carry c = k! (m + s m)!/(m + s k)!
        runs down k once, and N[k] = c T_s(m, k)."""
        s = self.shift
        row = associated_row(self.kind, s, m)
        out, c = [0] * (m + 1), factorial(m)
        for k in range(m, -1, -1):
            out[k] = c * row[k]
            if k:
                c = c // k * perm(m + s * k, s)
        return out, factorial(m + s * m)


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
