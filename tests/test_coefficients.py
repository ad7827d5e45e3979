"""Coefficient families: frozen values, recurrences, duals, saddle engine."""

import gc
import inspect
import sys
import weakref
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from ramasym import checks
from ramasym import coefficients as cf
from ramasym.combinat import double_factorial
from ramasym.coefficients import (SaddleData, U_coeff, alpha_s, beta,
                                  check_conjecture, gamma_coeff, gamma_zero,
                                  psi, psi_zero, rho, rho_zero, tau, tau_zero)
from ramasym.demoivre import clear_caches, harmonic, inv_factorial
from ramasym.numcore import GaussianRational
from ramasym.polys import PolyV, PolyW, RationalFnW, Sqrt2Scaled, binomial_poly

fracs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=12)

V = PolyV.variable()


class TestFrozenRho:
    def test_values_at_zero(self):
        expected = [Fraction(1, 3), Fraction(4, 135), Fraction(-8, 2835),
                    Fraction(-16, 8505), Fraction(8992, 12629925)]
        for r, want in enumerate(expected):
            assert rho(r)(Fraction(0)) == want
            assert rho_zero(r) == want

    def test_polynomials(self):
        one = PolyV([1])
        assert rho(0) == Fraction(1, 3) * one - V
        assert rho(1) == Fraction(4, 135) * one \
            - Fraction(1, 3) * V * V * (V + one)
        inner = 9 * V ** 4 - 15 * V * V - 2 * V + 4 * one
        assert rho(2) == Fraction(-8, 2835) * one \
            - Fraction(1, 135) * V * inner


class TestFrozenPsi:
    def test_values_at_zero(self):
        assert psi(0)(Fraction(0)) == Fraction(-1, 3)
        assert psi(1)(Fraction(0)) == Fraction(4, 135)
        assert psi(2)(Fraction(0)) == Fraction(8, 2835)
        for r in range(3):
            assert psi_zero(r) == psi(r)(Fraction(0))

    def test_polynomials(self):
        one = PolyV([1])
        assert psi(0) == Fraction(-1, 3) * one - V
        assert psi(1) == Fraction(4, 135) * one \
            + Fraction(1, 3) * V * (V + one) ** 2
        inner = 9 * V ** 4 + 45 * V ** 3 + 75 * V * V + 47 * V + 8 * one
        assert psi(2) == Fraction(8, 2835) * one - Fraction(1, 135) * V * inner


class TestFrozenU:
    def test_symbolic_strings(self):
        assert str(U_coeff(0)) == "1/(1-w)"
        assert str(U_coeff(1)) == "-w/(1-w)^3 - v*w/(1-w)^2"
        assert str(U_coeff(2)) == ("(w + 2*w^2)/(1-w)^5"
                                   " + v*(2*w + w^2)/(1-w)^4"
                                   " + v^2*w/(1-w)^3")

    @given(fracs.filter(lambda w: w != 1), fracs)
    def test_u2_pointwise(self, w, v):
        got = U_coeff(2)(w, v)
        d = 1 - w
        want = w * (2 * w + 1) / d ** 5 + v * w * (w + 2) / d ** 4 \
            + v * v * w / d ** 3
        assert got == want


class TestRecurrences:
    @pytest.mark.parametrize("family", [rho, gamma_coeff])
    def test_polynomial_recurrence(self, family):
        assert family(0, "plain") == family(0, "tilde")
        for r in range(1, 7):
            assert family(r, "plain") \
                == family(r, "tilde") + V * family(r - 1, "tilde")

    @given(st.integers(1, 5), fracs.filter(lambda w: w != 1), fracs)
    @settings(max_examples=30, deadline=None)
    def test_u_recurrence_pointwise(self, r, w, v):
        lhs = U_coeff(r)(w, v)
        rhs = U_coeff(r, "tilde")(w, v) + v * U_coeff(r - 1, "tilde")(w, v)
        assert lhs == rhs


class TestScalarDuals:
    def test_rho_both_modes(self):
        for r in range(9):
            assert rho_zero(r, "plain") == rho(r, "plain")(Fraction(0))
            assert rho_zero(r, "tilde") == rho(r, "tilde")(Fraction(0))

    def test_gamma_mode_independent_at_zero(self):
        for r in range(9):
            val = gamma_coeff(r)(Fraction(0))
            assert gamma_zero(r, "plain") == val
            assert gamma_zero(r, "tilde") == val

    def test_tau_and_psi(self):
        for r in range(9):
            assert tau_zero(r) == tau(r)(Fraction(0))
            assert psi_zero(r) == psi(r)(Fraction(0))

    def test_gamma_known_values(self):
        assert gamma_zero(0) == 1
        assert gamma_zero(1) == Fraction(1, 12)
        assert gamma_zero(2) == Fraction(1, 288)
        assert gamma_zero(3) == Fraction(-139, 51840)


class TestStirlingSeriesFit:
    """Numeric cross-check of gamma_r(0) against factorial asymptotics.

    f(n) = n! / (sqrt(2 pi n) (n/e)^n) is computed at high precision for
    two large n, and Richardson extrapolation of n*(f(n)-1) pins the 1/n
    coefficient without using any library code under test.
    """

    @staticmethod
    def _f(n):
        return mp.factorial(n) / (mp.sqrt(2 * mp.pi * n)
                                  * mp.power(n, n) * mp.exp(-n))

    def test_first_two_coefficients(self):
        with mp.workprec(400):
            n = 4000
            g1 = [(self._f(m) - 1) * m for m in (n, 2 * n)]
            fit1 = 2 * g1[1] - g1[0]
            assert abs(fit1 - mp.mpf(1) / 12) < mp.mpf(10) ** -8
            c1 = Fraction(1, 12)
            g2 = [((self._f(m) - 1) - mp.mpf(c1.numerator)
                   / (c1.denominator * m)) * m * m for m in (n, 2 * n)]
            fit2 = 2 * g2[1] - g2[0]
            assert abs(fit2 - mp.mpf(1) / 288) < mp.mpf(10) ** -5
        assert gamma_coeff(1)(Fraction(0)) == Fraction(1, 12)
        assert gamma_coeff(2)(Fraction(0)) == Fraction(1, 288)


class TestBeta:
    def test_parity_of_sqrt2_power(self):
        for s in range(8):
            assert beta(s).half_pow == s - 1

    def test_gamma_anchor(self):
        # beta at even index 2r recovers gamma_r after the factorial rescale
        for r in range(5):
            scale = Sqrt2Scaled(
                PolyV.const(Fraction(factorial(2 * r),
                                     4 ** r * factorial(r))), 1)
            assert (beta(2 * r) * scale).to_polyv() == gamma_coeff(r)

    def test_rho_anchor(self):
        # rho_r = delta_{r,0} - r! * beta at odd index 2r+1 (even sqrt2 power)
        for r in range(6):
            delta = PolyV([1]) if r == 0 else PolyV()
            assert delta - factorial(r) * beta(2 * r + 1).to_polyv() == rho(r)


class TestUModes:
    @pytest.mark.parametrize("mode", ["tilde", "vzero_harmonic",
                                      "vzero_factorial", "eulerian"])
    def test_all_modes_agree_at_v_zero(self, mode):
        w = Fraction(2, 5)
        for r in range(6):
            assert U_coeff(r, mode)(w, Fraction(0)) \
                == U_coeff(r)(w, Fraction(0)), (mode, r)

    def test_vzero_modes_are_v_independent(self):
        u = U_coeff(3, "vzero_harmonic")
        assert u.max_v_degree() == 0

    def test_taylor_mode_sections(self):
        # the taylor mode reads only Stirling subset numbers, so this checks
        # every assembled numerator, past the golden range r <= 12, by a
        # route with no saddle-sum code
        for r in range(21):
            tay = U_coeff(r, "taylor", taylor_terms=16)
            for mode in ("plain", "tilde", "vzero_harmonic",
                         "vzero_factorial", "eulerian"):
                exact = U_coeff(r, mode).taylor_at_zero(16)
                for j in range(16):
                    assert tay.num.coeff(j)(Fraction(0)) \
                        == exact[j](Fraction(0)), (r, mode, j)

    def test_taylor_mode_needs_terms(self):
        # a section of fewer than one term is refused, not cut to one
        for r, terms in ((2, None), (0, 0), (2, -3)):
            with pytest.raises(ValueError, match="taylor_terms"):
                U_coeff(r, "taylor", taylor_terms=terms)

    def test_taylor_terms_only_in_taylor_mode(self):
        for mode in ("plain", "tilde", "vzero_harmonic", "vzero_factorial",
                     "eulerian"):
            with pytest.raises(ValueError, match="taylor_terms"):
                U_coeff(1, mode, taylor_terms=5)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            U_coeff(2, "fancy")

    def test_gaussian_evaluation(self):
        w = GaussianRational(Fraction(1, 2), Fraction(1, 2))
        got = U_coeff(1)(w, Fraction(1))
        d = 1 - w
        want = -w / d ** 3 - w / d ** 2
        assert got == want


class TestConjecture:
    def test_small_range(self):
        report = check_conjecture(10)
        assert report.all_equal
        assert len(report.rows) == 11
        for row in report.rows:
            assert row.psi_value == row.expected
            assert row.expected == -((-1) ** row.r) * rho_zero(row.r)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_conjecture(-1)


_INDEX = "index must be nonnegative"
_R = "r must be nonnegative"
_MODE = "mode must be one of ('plain', 'tilde')"


class TestErrorContract:
    """The exact messages for a negative index and an unknown mode: the
    argument checks run before any weight is built, so a negative index
    never reaches the double factorial, and the mode error wins over the
    index error."""

    @pytest.mark.parametrize("call,message", [
        (lambda: rho(-1), _INDEX), (lambda: rho(-1, "bogus"), _MODE),
        (lambda: rho(2, "bogus"), _MODE),
        (lambda: gamma_coeff(-1), _INDEX),
        (lambda: gamma_coeff(-1, "bogus"), _MODE),
        (lambda: gamma_coeff(1, "bogus"), _MODE),
        (lambda: tau(-1), _INDEX), (lambda: tau(-3), _INDEX),
        (lambda: psi(-1), _R),
        (lambda: rho_zero(-1), _INDEX), (lambda: rho_zero(-1, "bogus"), _MODE),
        (lambda: rho_zero(1, "bogus"), _MODE),
        (lambda: gamma_zero(-1), _INDEX),
        (lambda: gamma_zero(-2, "bogus"), _MODE),
        (lambda: tau_zero(-1), _INDEX), (lambda: tau_zero(-3), _INDEX),
        (lambda: beta(-1), _INDEX), (lambda: beta(-2, "bogus"), _MODE),
        (lambda: beta(1, "bogus"), _MODE),
        (lambda: U_coeff(-1), _R), (lambda: U_coeff(-1, "tilde"), _R),
        (lambda: U_coeff(-2, "vzero_harmonic"), _R),
        (lambda: U_coeff(-1, "bogus"), "mode must be one of ('plain', "
         "'tilde', 'vzero_harmonic', 'vzero_factorial', 'eulerian', "
         "'taylor')"),
    ])
    def test_message(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


class TestDoubleFactorialWeights:
    def test_one_step_weights_match_the_closed_form(self):
        for base in range(-1, 61):
            got = list(islice(cf._double_factorial_weights(base), 61))
            assert got == [Fraction(double_factorial(base + 2 * k),
                                    (-1) ** k * factorial(k))
                           for k in range(61)], base
            assert all(type(w) is Fraction for w in got)


class TestFamilySums:
    """The integer family sums, one walk over the library rows for every
    weight vector, against the ring-generic ``_double_sum`` over the
    convolution triangle with the outer weights built in PolyV."""

    @staticmethod
    def reference(mode, deg, shift, weights, lo):
        lib = harmonic(shift) if mode == "plain" else inv_factorial(shift)

        def outer(m):
            if m < lo:
                return 0
            if mode == "plain":
                return binomial_poly(deg - m) * (-1) ** m
            return PolyV.monomial(deg - m, Fraction(1, factorial(deg - m)))

        return cf._double_sum(deg, checks.convolution(lib), weights, outer)

    @given(st.sampled_from(["plain", "tilde"]), st.integers(0, 12),
           st.sampled_from([1, 2]), st.booleans(),
           st.lists(fracs, min_size=13, max_size=13))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_ring_generic_sum(self, mode, deg, shift, at_zero,
                                          weights):
        # a drawn vector and U's single weights c_k = -+(deg+k)!/k! at k
        vectors = [weights[:deg + 1]] + [
            [0] * k + [(-1) ** k * factorial(deg + k) // factorial(k)]
            + [0] * (deg - k) for k in range(deg + 1)]
        lo = deg if at_zero else 0
        sums, D = cf._family_sums(mode, deg, vectors, lo, shift)
        assert len(sums) == len(vectors)
        for num, ws in zip(sums, vectors):
            assert PolyV._of(num, D) == \
                self.reference(mode, deg, shift, ws, lo), ws


class TestPsiDivision:
    def test_cold_calls_recurse_one_index_at_a_time(self):
        # summing psi_m in increasing m finds every lower index memoized;
        # highest index first would recurse r deep and overflow this limit
        clear_caches()
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            psi_zero(60)
            psi(12)
        finally:
            sys.setrecursionlimit(old)

    def test_ledger_catches_a_wrong_recurrence(self, monkeypatch):
        @lru_cache(maxsize=None)
        def dropped_m0(r, at_zero):
            """The series division without its m = 0 term from r = 4 on."""
            tau_, gamma = ((cf.tau_zero, cf.gamma_zero) if at_zero
                           else (cf.tau, cf.gamma_coeff))
            total = tau_(r)
            for m in range(1 if r >= 4 else 0, r):
                total = total - gamma(r - m) * dropped_m0(m, at_zero)
            return total

        monkeypatch.setattr(cf, "_psi_sum", dropped_m0)
        clear_caches()
        try:
            ok = {c.item: c.ok for c in checks.check_identities()
                  + checks.check_conjecture_range(10)
                  + checks.check_frozen_values()}
        finally:
            monkeypatch.undo()
            clear_caches()
        assert not ok["psi-inversion-vs-demoivre"]
        assert not ok["conjecture-psi-rho-sign-r10"]
        assert ok["frozen-psi-at-zero"] and ok["frozen-psi-polynomials"]


class TestSaddle:
    @staticmethod
    def _beta_data():
        return SaddleData(
            mu=2, a=Fraction(1),
            p=lambda j: Fraction((-1) ** j, j + 2),
            q=lambda j: binomial_poly(j))

    def test_reproduces_beta(self):
        data = self._beta_data()
        for s in range(5):
            a = alpha_s(data, s)
            assert Sqrt2Scaled(a.factor, s + 1) == beta(s)

    def test_fractional_exponent_refuses_assembly(self):
        a = alpha_s(self._beta_data(), 1)    # exponent -(1+1)/2 = -1: ok
        assert a.exponent == -1
        b = alpha_s(self._beta_data(), 2)    # exponent -3/2: fractional
        with pytest.raises(ValueError):
            b.assembled()

    def test_reproduces_u(self):
        one = RationalFnW(PolyW([1]), 0)
        wfn = RationalFnW(PolyW.w_monomial(1, 1), 0)

        def p(j):
            if j == 0:
                return RationalFnW(PolyW([-1, 1]), 0)
            return Fraction((-1) ** (j + 1), j + 1) * one

        data = SaddleData(mu=1, a=Fraction(1), p=p,
                          q=lambda j: binomial_poly(j))
        for r in range(4):
            a = alpha_s(data, r)
            delta = one if r == 0 else RationalFnW(PolyW(), 0)
            got = delta - wfn * (factorial(r) * a.assembled())
            assert got == U_coeff(r), r

    def test_input_validation(self):
        data = self._beta_data()
        with pytest.raises(ValueError):
            alpha_s(data, -1)
        bad = SaddleData(mu=0, a=Fraction(1), p=data.p, q=data.q)
        with pytest.raises(ValueError):
            alpha_s(bad, 1)

    @staticmethod
    def _data(p):
        return SaddleData(mu=1, a=Fraction(1), p=p, q=lambda j: Fraction(1))

    def test_different_phases_keep_their_own_alpha(self):
        ones = self._data(lambda j: Fraction(1))
        rising = self._data(lambda j: Fraction(j + 1))
        assert alpha_s(ones, 3).factor == -1
        assert alpha_s(rising, 3).factor == -35
        assert ones._ratio.rows is not rising._ratio.rows

    def test_one_triangle_per_data_object(self):
        data = self._beta_data()
        ratio = data._ratio
        rows = ratio.rows
        for s in range(9):
            alpha_s(data, s)
            assert data._ratio is ratio and ratio.rows is rows
        assert len(rows) == 9 and len(rows[0]) == 9

    def test_ratio_sequence_is_freed_with_its_data(self):
        data = self._data(lambda j: Fraction(j + 1))
        alpha_s(data, 8)
        ratio = weakref.ref(data._ratio)
        del data
        gc.collect()
        assert ratio() is None
