"""Counting numbers: binomials, Stirling tables, and restricted variants."""

from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ramasym.checks import enumerate_oracle
from ramasym.combinat import (binomial, double_factorial, eulerian2, stirling,
                              stirling_associated)


class TestBinomial:
    @given(st.integers(0, 40), st.integers(0, 12))
    def test_matches_comb(self, n, k):
        assert binomial(n, k) == comb(n, k)

    @given(st.fractions(min_value=Fraction(-10), max_value=Fraction(10),
                        max_denominator=8),
           st.integers(0, 6))
    def test_falling_factorial_definition(self, x, k):
        expected = Fraction(1)
        for i in range(k):
            expected *= (x - i)
        expected /= factorial(k)
        assert binomial(x, k) == expected

    def test_negative_k_is_zero(self):
        assert binomial(5, -2) == 0


class TestDoubleFactorial:
    def test_small_values(self):
        assert [double_factorial(n) for n in range(-1, 9)] \
            == [1, 1, 1, 2, 3, 8, 15, 48, 105, 384]

    @given(st.integers(1, 30))
    def test_pair_product_is_factorial(self, n):
        assert double_factorial(n) * double_factorial(n - 1) == factorial(n)


def cycle_type(perm):
    """Cycle lengths of a permutation given as a tuple image of range(n)."""
    n = len(perm)
    seen = [False] * n
    sizes = []
    for start in range(n):
        if seen[start]:
            continue
        size, cur = 0, start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur]
            size += 1
        sizes.append(size)
    return sizes


def partitions_into_blocks(items):
    """All set partitions of ``items`` (list of lists)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in partitions_into_blocks(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


class TestStirling:
    def test_known_tables(self):
        # cycle numbers, n = 4 row: 0, 6, 11, 6, 1
        assert [stirling("cycle", 4, k) for k in range(5)] == [0, 6, 11, 6, 1]
        # subset numbers, n = 4 row: 0, 1, 7, 6, 1
        assert [stirling("subset", 4, k) for k in range(5)] == [0, 1, 7, 6, 1]

    @given(st.integers(0, 9))
    def test_cycle_row_sums_to_factorial(self, n):
        assert sum(stirling("cycle", n, k) for k in range(n + 1)) \
            == factorial(n)

    @given(st.integers(0, 7))
    def test_against_permutation_census(self, n):
        counts = {}
        for perm in permutations(range(n)):
            k = len(cycle_type(perm))
            counts[k] = counts.get(k, 0) + 1
        for k in range(n + 1):
            assert stirling("cycle", n, k) == counts.get(k, 0)

    @given(st.integers(0, 8))
    def test_subset_against_partition_census(self, n):
        counts = {}
        for part in partitions_into_blocks(list(range(n))):
            counts[len(part)] = counts.get(len(part), 0) + 1
        for k in range(n + 1):
            assert stirling("subset", n, k) == counts.get(k, 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            stirling("middle", 3, 2)


class TestEulerian2:
    def test_known_rows(self):
        assert [eulerian2(2, j) for j in range(2)] == [1, 2]
        assert [eulerian2(3, j) for j in range(3)] == [1, 8, 6]
        assert [eulerian2(4, j) for j in range(4)] == [1, 22, 58, 24]

    @given(st.integers(1, 12))
    def test_row_sum_is_odd_double_factorial(self, n):
        assert sum(eulerian2(n, j) for j in range(n)) \
            == double_factorial(2 * n - 1)


class TestStirlingAssociated:
    def test_reduces_to_plain_at_r_one(self):
        # the classical recurrences, written out here: ``stirling`` reads
        # the same associated rows, so comparing with it would show nothing
        # c(n, k) = c(n-1, k-1) + (n-1) c(n-1, k)
        # S(n, k) = S(n-1, k-1) + k S(n-1, k)
        for kind, weight in (("cycle", lambda n, k: n - 1),
                             ("subset", lambda n, k: k)):
            row = [1]
            for n in range(41):
                for k in range(n + 1):
                    assert stirling_associated(kind, n, k, 1) == row[k], \
                        (kind, n, k)
                row = [(row[k - 1] if k else 0)
                       + (weight(n + 1, k) * row[k] if k <= n else 0)
                       for k in range(n + 2)]

    @given(st.integers(0, 7), st.integers(2, 3))
    def test_cycle_against_permutation_census(self, n, r):
        # permutations whose cycles all have length >= r
        counts = {}
        for perm in permutations(range(n)):
            sizes = cycle_type(perm)
            if all(s >= r for s in sizes):
                k = len(sizes)
                counts[k] = counts.get(k, 0) + 1
        for k in range(n + 1):
            assert stirling_associated("cycle", n, k, r) \
                == counts.get(k, 0), (n, k, r)

    @given(st.integers(0, 8), st.integers(2, 3))
    def test_subset_against_partition_census(self, n, r):
        # set partitions whose blocks all have size >= r
        counts = {}
        for part in partitions_into_blocks(list(range(n))):
            if all(len(b) >= r for b in part):
                counts[len(part)] = counts.get(len(part), 0) + 1
        for k in range(n + 1):
            assert stirling_associated("subset", n, k, r) \
                == counts.get(k, 0), (n, k, r)

    def test_agrees_with_enumerate_oracle(self):
        for kind in ("cycle", "subset"):
            for r in (1, 2, 3):
                for n in range(11):
                    for k in range(n + 1):
                        assert stirling_associated(kind, n, k, r) \
                            == enumerate_oracle(kind, n, k, r)

    def test_enumerate_oracle_refuses_large_n(self):
        with pytest.raises(ValueError):
            enumerate_oracle("cycle", 50, 3, 2)
