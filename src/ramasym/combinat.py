"""Stirling numbers, their r-associated refinements, and related counts.

Every table is a row list held by an ``lru_cache``, grown by its recurrence.
The exhaustive enumeration these tables are checked against is not here: it
belongs to the ledger, ``checks``, its only reader.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm

_KINDS = ("cycle", "subset")


def binomial(top, k: int) -> Fraction:
    """Generalized binomial coefficient: top may be any rational.

    Zero for k < 0; for integer top in [0, k) this reduces to 0 as usual,
    and negative integer tops follow the polynomial extension, e.g.
    binomial(-1, 3) = -1.
    """
    if k < 0:
        return Fraction(0)
    num = Fraction(1)
    t = Fraction(top)
    for i in range(k):
        num *= t - i
    return num / factorial(k)


def double_factorial(n: int) -> int:
    """n!! with the empty-product convention 0!! = (-1)!! = 1."""
    if n < -1:
        raise ValueError("double factorial needs n >= -1")
    if n % 2 == 0:
        return factorial(n // 2) << (n // 2)  # (2h)!! = 2^h h!
    h = (n - 1) // 2  # (2h+1)!! = (2h+1)! / (2^h h!)
    return factorial(n) // (factorial(h) << h) if h > 0 else 1


def stirling(kind: str, n: int, k: int) -> int:
    """Stirling cycle or subset number.

    cycle:  permutations of n elements with k cycles,
    subset: partitions of an n-set into k blocks.
    Read off ``associated_row(kind, 0, n)``, whose recurrences at s = 0 are
    the classical  c(n, k) = c(n-1, k-1) + (n-1) c(n-1, k)  and
    S(n, k) = S(n-1, k-1) + k S(n-1, k).
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    return associated_row(kind, 0, n)[k]


@lru_cache(maxsize=None)
def _eulerian2_rows() -> list:
    """The rows of E2(n, k) built so far, grown by ``eulerian2``."""
    return [[1]]


def eulerian2(n: int, k: int) -> int:
    """Second-order Eulerian number.

    Recurrence E2(n, k) = (k+1) E2(n-1, k) + (2n-1-k) E2(n-1, k-1) with
    E2(n, 0) = 1 and E2(n, k) = 0 for k < 0 or k >= n when n >= 1.
    Row n sums to (2n-1)!!.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or (n >= 1 and k >= n) or (n == 0 and k > 0):
        return 0
    rows = _eulerian2_rows()
    while len(rows) <= n:
        nn = len(rows)
        prev = rows[-1]
        row = [0] * nn
        for kk in range(nn):
            a = prev[kk] if kk < len(prev) else 0
            b = prev[kk - 1] if 0 <= kk - 1 < len(prev) else 0
            row[kk] = (kk + 1) * a + (2 * nn - 1 - kk) * b
        rows.append(row)
    return rows[n][k]


@lru_cache(maxsize=16)
def _associated_rows(kind: str, s: int) -> list:
    """The rows T_s(m, 0..m) of one triangle built so far, grown by
    ``associated_row``."""
    return [[1]]


def associated_row(kind: str, s: int, m: int) -> list[int]:
    """Row m of T_s(m, k) = d_(s+1)(m+sk, k) (cycle) or S_(s+1)(m+sk, k)
    (subset), for k = 0..m.

    These carry the De Moivre triangles of the library sequences:
    A(m, k; 1/(j+s)) and A(m, k; 1/(j+s)!) equal k!/(m+sk)! T_s(m, k)
    (Comtet, Advanced Combinatorics, 1974).  Rows grow in m by
        cycle:  T(m, k) = (n-1) T(m-1, k) + (n-1)...(n-s) T(m-1, k-1),
        subset: T(m, k) = k T(m-1, k) + C(n-1, s) T(m-1, k-1),
    with n = m + s k; s = 0 gives the Stirling numbers.
    """
    rows = _associated_rows(kind, s)
    while len(rows) <= m:
        mm, row = len(rows), rows[-1]
        new = [0] * (mm + 1)
        for k in range(1, mm + 1):
            n = mm + s * k
            keep = row[k] if k < mm else 0
            if kind == "cycle":
                new[k] = (n - 1) * keep + perm(n - 1, s) * row[k - 1]
            else:
                new[k] = k * keep + comb(n - 1, s) * row[k - 1]
        rows.append(new)
    return rows[m]


def stirling_associated(kind: str, n: int, k: int, r: int) -> int:
    """Stirling numbers restricted to parts of size at least r.

    subset: partitions of an n-set into k blocks, every block >= r elements.
    cycle:  permutations with k cycles, every cycle >= r elements.
    Read off ``associated_row(kind, r - 1, n - (r-1) k)``.  r = 1 recovers
    the classical numbers; n = 0 gives 1 exactly at k = 0.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}")
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if r < 1:
        raise ValueError("r must be at least 1")
    m = n - (r - 1) * k
    if m < k:
        return 0
    return associated_row(kind, r - 1, m)[k]
