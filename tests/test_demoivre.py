"""Power-series composition coefficients and their closed-form shortcuts."""

import os
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramasym
from ramasym import combinat
from ramasym.coefficients import (U_coeff, _rho_sum, beta, gamma_coeff,
                                  gamma_zero, psi, psi_zero, rho, rho_zero,
                                  tau, tau_zero)
from ramasym.checks import (CLOSED_FORM_SEQUENCES, convolution,
                            enumerate_oracle, special_closed_forms, strip_r)
from ramasym.combinat import eulerian2, stirling, stirling_associated
from ramasym.demoivre import (CoeffSequence, _Library, clear_caches, demoivre,
                              harmonic, inv_factorial)
from ramasym.polys import PolyV, PolyW

fracs = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=12)


def brute_force(n, k, terms):
    """[x^n] (a_1 x + a_2 x^2 + ...)^k by repeated list convolution.

    ``terms`` lists a_1, a_2, ... ; anything beyond the list is zero.
    Completely independent of the cached implementation under test.
    """
    series = [Fraction(0)] + [Fraction(t) for t in terms]
    power = [Fraction(1)]
    for _ in range(k):
        out = [Fraction(0)] * (n + 1)
        for i, x in enumerate(power[:n + 1]):
            if not x:
                continue
            for j, y in enumerate(series):
                if i + j > n:
                    break
                out[i + j] += x * y
        power = out
    return power[n] if n < len(power) else Fraction(0)


def sequence_from(terms):
    vals = tuple(Fraction(t) for t in terms)

    def term(j):
        return vals[j - 1] if j <= len(vals) else Fraction(0)

    return CoeffSequence(term)


class TestDeMoivreBasics:
    def test_k_zero_is_delta(self):
        assert demoivre(0, 0, harmonic()) == 1
        assert demoivre(3, 0, harmonic()) == 0

    def test_below_diagonal_vanishes(self):
        assert demoivre(2, 5, harmonic()) == 0

    def test_k_one_reads_the_sequence(self):
        for j in range(1, 6):
            assert demoivre(j, 1, harmonic()) == Fraction(1, j)
            assert demoivre(j, 1, inv_factorial()) == Fraction(
                1, factorial(j))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            demoivre(-1, 0, harmonic())

    def test_bare_callable_rejected(self):
        # a term function has no triangle to grow: wrap it first
        with pytest.raises(TypeError, match="CoeffSequence"):
            demoivre(3, 2, lambda j: 1)
        with pytest.raises(TypeError, match="CoeffSequence"):
            strip_r(3, 2, 1, lambda j: 1)
        assert demoivre(3, 2, CoeffSequence(lambda j: 1)) == 2


class TestAgainstBruteForce:
    @given(st.lists(fracs, min_size=1, max_size=6),
           st.integers(0, 7), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_random_sequences(self, terms, n, k):
        seq = sequence_from(terms)
        assert demoivre(n, k, seq) == brute_force(n, k, terms)

    def test_named_sequences(self):
        h = [Fraction(1, j) for j in range(1, 11)]
        f = [Fraction(1, factorial(j)) for j in range(1, 11)]
        for n in range(9):
            for k in range(5):
                assert demoivre(n, k, harmonic()) == brute_force(n, k, h)
                assert demoivre(n, k, inv_factorial()) == brute_force(
                    n, k, f)


class TestIntegerRoute:
    """1/(j+s) and 1/(j+s)! read their triangles off integer
    associated-Stirling rows; everything else takes the convolution."""

    def test_routing(self):
        for s in range(3):
            assert isinstance(harmonic(s), _Library)
            assert isinstance(inv_factorial(s), _Library)
            assert not isinstance(convolution(harmonic(s)), _Library)
        assert not isinstance(inv_factorial(-1), _Library)
        # the integer route reads the associated rows and keeps no rows of
        # its own; the convolution fills the sequence's own rows
        clear_caches()
        lib = harmonic(1)
        demoivre(6, 2, lib)
        assert len(combinat._associated_rows("cycle", 1)) == 7
        assert not hasattr(lib, "rows")
        conv = convolution(harmonic(1))
        demoivre(6, 2, conv)
        assert len(conv.rows[0]) == 7
        assert len(combinat._associated_rows("cycle", 1)) == 7

    @given(st.sampled_from([harmonic, inv_factorial]), st.integers(0, 4),
           st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_matches_convolution_and_brute_force(self, factory, s, n, k):
        seq = factory(s)
        got = demoivre(n, k, seq)
        assert got == demoivre(n, k, convolution(seq))
        assert got == brute_force(n, k, [seq(j) for j in range(1, n + 1)])

    @pytest.mark.parametrize("factory", [harmonic, inv_factorial])
    @pytest.mark.parametrize("s", range(4))
    def test_weighted_row_matches_the_convolution(self, factory, s):
        """The integer row over (m + s m)!, entry by entry and weighted as
        the family sums weigh it, against the loop over the convolution
        triangle, with int weights (rational weights as the family sums
        pass them), Fraction and PolyW weights."""
        lib = factory(s)
        conv = CoeffSequence(lib.term)
        integer = [(-1) ** k * (k + 2) * 10 ** (2 * k) for k in range(26)]
        rational = [Fraction((-1) ** k * (k + 2), 3 ** k + 1)
                    for k in range(26)]
        ring = [PolyW([k, PolyV([Fraction(1, k + 1), -k])])
                for k in range(26)]
        for m in range(26):
            row, den = lib.int_row(m)
            assert den == factorial(m + s * m)
            assert all(type(x) is int for x in row)
            assert [Fraction(x, den) for x in row] == \
                [demoivre(m, k, conv) for k in range(m + 1)]
            for weights, kind in ((integer, Fraction), (rational, Fraction),
                                  (ring, PolyW)):
                got = sum(w * x for w, x in zip(weights, row)) \
                    * Fraction(1, den)
                assert got == conv.weighted_row(m, weights), (m, weights[0])
                assert type(got) is kind

    def test_stirling_associated_past_the_enumeration_cap(self):
        # n <= 40 against the convolution, rows visited in increasing m
        for factory, kind in ((harmonic, "cycle"), (inv_factorial, "subset")):
            for r in (1, 2, 3, 4):
                conv = convolution(factory(r - 1))
                for m in range(41):
                    for k in range(m + 1):
                        n = m + (r - 1) * k
                        if n > 40:
                            break
                        want = Fraction(factorial(n), factorial(k)) \
                            * demoivre(m, k, conv)
                        assert stirling_associated(kind, n, k, r) == want, \
                            (kind, n, k, r)


class TestAlgebraicProperties:
    @given(st.lists(fracs, min_size=1, max_size=5), fracs,
           st.integers(0, 6), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity_in_the_sequence(self, terms, c, n, k):
        # scaling every a_j by c scales A_{n,k} by c^k
        scaled = [c * t for t in terms]
        lhs = demoivre(n, k, sequence_from(scaled))
        rhs = c ** k * demoivre(n, k, sequence_from(terms))
        assert lhs == rhs

    @given(st.lists(fracs, min_size=1, max_size=5), fracs,
           st.integers(0, 6), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_grading(self, terms, c, n, k):
        # substituting x -> c x multiplies a_j by c^j and A_{n,k} by c^n
        graded = [c ** j * t for j, t in enumerate(terms, start=1)]
        lhs = demoivre(n, k, sequence_from(graded))
        rhs = c ** n * demoivre(n, k, sequence_from(terms))
        assert lhs == rhs

    @given(st.lists(fracs, min_size=2, max_size=6),
           st.integers(0, 6), st.integers(0, 4), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_strip_r(self, terms, n, k, r):
        # the multinomial sum equals A(n, k) of a_{r+1}, a_{r+2}, ...
        full = sequence_from(terms)
        slid = sequence_from(terms[r:])
        assert strip_r(n, k, r, full) == demoivre(n, k, slid)

    def test_strip_r_rejects_zero(self):
        with pytest.raises(ValueError):
            strip_r(5, 2, 0, harmonic())


class TestShiftedFactories:
    def test_harmonic_shift(self):
        for s in range(3):
            seq = harmonic(s)
            for j in range(1, 6):
                assert seq.term(j) == Fraction(1, j + s)

    def test_inv_factorial_shift(self):
        seq = inv_factorial(-1)
        for j in range(1, 6):
            assert seq.term(j) == Fraction(1, factorial(j - 1))


class TestSequenceKeys:
    """Each sequence owns its triangle: library sequences of one kind and
    shift read one store of integer rows, and every other sequence keeps
    its own."""

    def test_library_sequences_share_one_triangle(self):
        for factory, kind in ((harmonic, "cycle"), (inv_factorial, "subset")):
            for s in range(3):
                first, second = factory(s), factory(s)
                assert first != second
                demoivre(5, 2, first)
                rows = combinat._associated_rows(kind, s)
                assert len(rows) >= 6
                demoivre(9, 2, second)
                assert combinat._associated_rows(kind, s) is rows
                assert len(rows) >= 10
        rows = combinat._associated_rows
        assert rows("cycle", 1) is not rows("subset", 1)
        assert rows("cycle", 1) is not rows("cycle", 2)

    def test_convolution_is_a_sequence_of_its_own(self):
        seq = harmonic(2)
        conv, again = convolution(seq), convolution(seq)
        assert conv != seq and conv != again
        demoivre(6, 3, conv)
        assert len(conv.rows) == 4 and len(conv.rows[0]) == 7
        assert again.rows == [[1]]
        # so does a user sequence, and a fresh inv_factorial(-1)
        user = CoeffSequence(lambda j: Fraction(j))
        demoivre(4, 2, user)
        assert user.rows is not conv.rows and len(user.rows[0]) == 5
        prev = inv_factorial(-1)
        demoivre(3, 1, prev)
        assert inv_factorial(-1).rows == [[1]]

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_different_terms_keep_their_own_values(self, order):
        # A(3, 2) of c, c, c, ... is 2 c^2
        seqs = (CoeffSequence(lambda j: Fraction(1)),
                CoeffSequence(lambda j: Fraction(2)))
        got = {i: demoivre(3, 2, seqs[i]) for i in order}
        assert got == {0: 2, 1: 8}

    def test_no_user_sequence_changes_rho(self):
        user = CoeffSequence(lambda j: Fraction(j))
        assert demoivre(12, 6, user) == brute_force(12, 6, range(1, 13))
        assert str(_rho_sum.__wrapped__(1, "plain", False)) \
            == "4/135 - 1/3*v^2 - 1/3*v^3"


class TestClosedForms:
    @pytest.mark.parametrize("which", sorted(CLOSED_FORM_SEQUENCES))
    def test_matches_direct_convolution(self, which):
        seq = CLOSED_FORM_SEQUENCES[which]
        for n in range(9):
            for k in range(6):
                assert special_closed_forms(n, k, which) \
                    == demoivre(n, k, convolution(seq)), (which, n, k)

    def test_power_form_value(self):
        # A_{m+k,k} of 1/(j-1)! collapses to k^m / m! since the series
        # is (x e^x)^k = x^k e^{kx}
        for m in range(6):
            for k in range(6):
                assert demoivre(m + k, k, inv_factorial(-1)) \
                    == Fraction(k ** m, factorial(m))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            special_closed_forms(3, 2, "nonsense")


def _package_lru_caches():
    return [obj for name, mod in sys.modules.items()
            if name.startswith("ramasym")
            for obj in vars(mod).values() if hasattr(obj, "cache_info")]


def test_clear_caches_preserves_results():
    def compute():
        return (demoivre(7, 3, harmonic()), rho(6), rho_zero(6, "tilde"),
                psi(3), psi_zero(5), U_coeff(3), stirling("cycle", 9, 4),
                eulerian2(7, 3), enumerate_oracle("subset", 6, 2, 2),
                stirling_associated("cycle", 12, 3, 3))

    before = compute()
    caches = _package_lru_caches()
    assert any(c.cache_info().currsize for c in caches)
    stores = (combinat._associated_rows, combinat._eulerian2_rows)
    assert all(store.cache_info().currsize for store in stores)
    assert combinat._associated_rows("cycle", 0)[9][4] == before[6]
    clear_caches()
    for c in caches:
        assert c.cache_info().currsize == 0, c
    assert compute() == before


def _module_container_sizes():
    return {f"{name}.{key}": len(obj)
            for name, mod in list(sys.modules.items())
            if name.startswith("ramasym")
            for key, obj in vars(mod).items()
            if not key.startswith("__") and isinstance(obj, (list, dict, set))}


def test_every_memo_is_an_lru_cache():
    # a memo kept in a module-level list, dict or set would escape the
    # lru_cache loop of clear_caches; run every family and table, cold
    clear_caches()
    before = _module_container_sizes()
    for r in range(4):
        for mode in ("plain", "tilde"):
            rho(r, mode), rho_zero(r, mode), beta(r, mode)
            gamma_coeff(r, mode), gamma_zero(r, mode)
        tau(r), tau_zero(r), psi(r), psi_zero(r)
        for mode in ("plain", "tilde", "vzero_harmonic", "vzero_factorial",
                     "eulerian"):
            U_coeff(r, mode)
        U_coeff(r, "taylor", 5)
    for kind in ("cycle", "subset"):
        stirling(kind, 14, 5), stirling_associated(kind, 14, 3, 3)
    eulerian2(9, 4)
    assert _module_container_sizes() == before


def _memo_entries():
    return sum(c.cache_info().currsize for c in _package_lru_caches())


@pytest.mark.parametrize("first,spellings", [
    (lambda: U_coeff(14), (lambda: U_coeff(14, "plain"),
                           lambda: U_coeff(14, mode="plain"),
                           lambda: U_coeff(14, "plain", None))),
    (lambda: rho_zero(3), (lambda: rho_zero(3, "plain"),
                           lambda: rho_zero(3, mode="plain"))),
    (lambda: rho(3), (lambda: rho(3, "plain"),)),
], ids=["U_coeff", "rho_zero", "rho"])
def test_memos_are_keyed_by_value(first, spellings):
    # one coefficient is one memo entry, however the call is written
    clear_caches()
    value = first()
    entries = _memo_entries()
    for spelling in spellings:
        assert spelling() == value
    assert _memo_entries() == entries


def test_import_leaves_every_memo_empty():
    # a cold benchmark operation counts on this: importing the package,
    # the ledger and the CLI fills no lru_cache and no associated rows
    code = ("import sys, ramasym, ramasym.checks, ramasym.cli\n"
            "full = [f'{name}.{key}' for name, mod in sys.modules.items()\n"
            "        if name.startswith('ramasym')\n"
            "        for key, obj in vars(mod).items()\n"
            "        if hasattr(obj, 'cache_info') and obj.cache_info().currsize]\n"
            "rows = sys.modules['ramasym.combinat']._associated_rows\n"
            "print(full, rows.cache_info().currsize)\n")
    src = str(Path(ramasym.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] 0\n"


def test_submodule_is_not_shadowed():
    import ramasym.demoivre as dm
    assert dm is sys.modules["ramasym.demoivre"]
    assert "demoivre" not in ramasym.__all__
