"""Ground-truth reference values computed directly from the defining sums."""

import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from ramasym.numcore import GaussianRational, to_mp
from ramasym.checks import ProbeRow, convergence_probe
from ramasym.oracle import (oracle_Ei, oracle_S, oracle_T, oracle_factorial,
                            oracle_psi, oracle_theta)


def reference_T(n, w, v):
    """Head sum of e^{nw} through index n+v-1, rescaled; written from
    scratch so it shares nothing with the implementation under test."""
    total = Fraction(0) if not isinstance(w, GaussianRational) \
        else GaussianRational()
    term = 1
    for j in range(n + v):
        total = total + term * Fraction(1, math.factorial(j))
        term = term * (n * w)
    scale = (n * w) ** (n + v)
    if isinstance(scale, Fraction) and scale == 0:
        raise ZeroDivisionError
    return total * math.factorial(n + v) * scale ** -1 \
        if isinstance(scale, GaussianRational) \
        else total * Fraction(math.factorial(n + v)) / scale


class TestOracleT:
    @pytest.mark.parametrize("n,w,v", [
        (1, Fraction(1), 0),
        (5, Fraction(1, 2), 0),
        (7, Fraction(-3, 4), 2),
        (4, Fraction(2), 3),
    ])
    def test_rational_arguments(self, n, w, v):
        assert oracle_T(n, w, v) == reference_T(n, w, v)

    def test_gaussian_argument(self):
        w = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        got = oracle_T(6, w, 1)
        want = reference_T(6, w, 1)
        assert got == want

    @pytest.mark.parametrize("n,w,v", [
        (6, GaussianRational(Fraction(-1, 2), Fraction(2, 3)), 0),
        (9, GaussianRational(Fraction(-5, 4), Fraction(-1, 6)), 2),
        (7, GaussianRational(Fraction(3, 5), Fraction(0)), 1),
        (8, GaussianRational(Fraction(0), Fraction(-3, 2)), -2),
        (5, Fraction(-7, 3), -3),
        (4, Fraction(5, 2), -4),
        (4, GaussianRational(Fraction(1, 2), Fraction(1, 3)), -4),
        (300, Fraction(3, 4), 0),
        (300, GaussianRational(Fraction(-3, 4), Fraction(1, 4)), -2),
    ])
    def test_integer_recurrence_paths(self, n, w, v):
        # negative real parts, a zero imaginary part, v < 0, n + v = 0 and
        # a few hundred terms, each against the Fraction loop
        got = oracle_T(n, w, v)
        assert got == reference_T(n, w, v)
        assert type(got) is type(w)

    def test_integer_w_coerces(self):
        assert oracle_T(4, 2, 0) == reference_T(4, Fraction(2), 0)

    def test_zero_w_rejected(self):
        with pytest.raises((ValueError, ZeroDivisionError)):
            oracle_T(3, Fraction(0), 0)

    def test_negative_v_shortens_the_head(self):
        assert oracle_T(3, Fraction(1), -1) == reference_T(3, Fraction(1), -1)

    def test_validation(self):
        with pytest.raises(ValueError):
            oracle_T(0, Fraction(1), 0)
        with pytest.raises(ValueError):
            oracle_T(3, Fraction(1), Fraction(1, 2))


class TestOracleS:
    def test_against_forward_tail_series(self):
        # S equals sum_{i>=0} (nw)^i (n+v)! / (n+v+i)!, summed directly
        # at small |w|, F = e^(nw) (n+v)!/(nw)^(n+v) and T agree to about
        # log10|F| digits (611 at n = 1000, w = 1/10; 3140 at n = 2000,
        # w = 1/100), all of which the subtraction cancels
        for n, w, v in ((20, Fraction(1, 2), 1), (15, Fraction(-2, 3), 0),
                        (12, Fraction(1), 2), (1000, Fraction(1, 10), 0),
                        (2000, Fraction(1, 100), 0), (1000, Fraction(3, 4), 0),
                        (1000, Fraction(-3, 4), 0)):
            got = oracle_S(n, w, v, 40)
            with mp.workprec(400):
                nw = to_mp(Fraction(n) * w)
                total = mp.mpf(0)
                term = mp.mpf(1)
                i = 0
                while abs(term) > mp.mpf(10) ** -80 or i < 5:
                    total += term
                    i += 1
                    term = term * nw / (n + v + i)
                assert abs(got - total) < mp.mpf(10) ** -38, (n, w, v)

    def test_gaussian_argument(self):
        w = GaussianRational(Fraction(1, 3), Fraction(1, 5))
        got = oracle_S(10, w, 0, 35)
        with mp.workprec(380):
            nw = to_mp(w) * 10
            total = mp.mpc(0)
            term = mp.mpc(1)
            for i in range(200):
                total += term
                term = term * nw / (10 + i + 1)
            assert abs(got - total) < mp.mpf(10) ** -33

    def test_zero_w_is_zero(self):
        assert oracle_S(5, Fraction(0), 0, 30) == 0

    def test_splitting_identity(self):
        # S + T together rebuild e^{nw} (n+v)! / (nw)^{n+v}
        n, w, v = 18, Fraction(3, 5), 1
        s = oracle_S(n, w, v, 45)
        with mp.workprec(400):
            t = to_mp(oracle_T(n, w, v))
            nw = to_mp(w) * n
            whole = mp.exp(nw) * mp.factorial(n + v) / nw ** (n + v)
            assert abs((s + t) - whole) < mp.mpf(10) ** -40


class TestOracleTheta:
    def test_direct_recompute(self):
        for n, v in ((10, 0), (25, 1), (40, 3)):
            got = oracle_theta(n, v, 40)
            with mp.workprec(500):
                head = mp.mpf(0)
                for j in range(n + v):
                    head += mp.mpf(n) ** j / mp.factorial(j)
                val = (mp.exp(n) / 2 - head) * mp.factorial(n + v) \
                    / mp.mpf(n) ** (n + v)
                assert abs(got - val) < mp.mpf(10) ** -36, (n, v)

    def test_large_n_against_incomplete_gamma(self):
        # sum_{j<m} n^j/j! = e^n Q(m, n) with the regularized upper
        # incomplete gamma function Q, so theta = e^n (1/2 - Q) m!/n^m;
        # the oracle budgets only log10(sqrt(2 pi n)) cancelled digits
        for n in (50, 200, 500, 1000, 2000, 5000):
            for v in (-3, 0, 3):
                m = n + v
                for digits in (30, 100, 200):
                    got = oracle_theta(n, v, digits)
                    with mp.workprec(int((digits + 20) * 3.33)):
                        q = mpmath.gammainc(m, n, mpmath.inf,
                                            regularized=True)
                        val = mp.exp(n) * (mp.mpf(1) / 2 - q) \
                            * mp.factorial(m) / mp.mpf(n) ** m
                        assert abs(got - val) < mp.mpf(10) ** -digits, \
                            (n, v, digits)

    def test_median_limit(self):
        # theta_n(0) tends to 1/3, and sits near it already at n = 200
        val = oracle_theta(200, 0, 30)
        assert abs(val - mp.mpf(1) / 3) < mp.mpf("0.01")

    def test_validation(self):
        with pytest.raises(ValueError):
            oracle_theta(0, 0, 30)


class TestOracleFactorial:
    def test_matches_math(self):
        for n, v in ((1, 0), (6, 2), (30, 5)):
            assert oracle_factorial(n, v) == math.factorial(n + v)


class TestOracleEi:
    def test_against_mpmath(self):
        for n, digits in ((1, 45), (7, 45), (30, 45), (10, 2000),
                          (3000, 50)):
            got = oracle_Ei(n, digits)
            with mp.workprec(int(digits * 3.33) + 100):
                assert abs(got - mpmath.ei(n)) < mp.mpf(10) ** (2 - digits) \
                    * max(1, abs(mpmath.ei(n))), n

    def test_against_quadrature(self):
        # Ei(n) = euler + log n + integral_0^n (e^t - 1)/t dt with a smooth
        # integrand; an 1e-8 agreement pins the series summation branch
        for n in (1, 2, 5):
            got = oracle_Ei(n, 30)
            with mp.workprec(120):
                quad = mp.quad(lambda t: mp.expm1(t) / t if t != 0
                               else mp.mpf(1), [0, n])
                ref = mp.euler + mp.log(n) + quad
                assert abs(got - ref) < mp.mpf(10) ** -8, n

    def test_validation(self):
        with pytest.raises(ValueError):
            oracle_Ei(0, 30)


class TestOraclePsi:
    def test_direct_recompute(self):
        for n, v in ((8, 0), (15, 2), (1100, 0)):
            got = oracle_psi(n, v, 35)
            # the head sum cancels about n log10(e) digits
            with mp.workprec(500 + 2 * n):
                head = mp.mpf(0)
                for j in range(n + v):
                    head += mp.factorial(j) / mp.mpf(n) ** j
                val = (n * mp.exp(-n) * mpmath.ei(n) - head) \
                    * mp.mpf(n) ** (n + v) / mp.factorial(n + v)
                assert abs(got - val) < mp.mpf(10) ** -30, (n, v)

    def test_large_n_against_mpmath_ei(self):
        n, digits = 2500, 50
        got = oracle_psi(n, 0, digits)
        # the head sum cancels about n log10(e) digits
        with mp.workprec(int((digits + n * math.log10(math.e)) * 3.33) + 200):
            head = term = mp.mpf(1)
            for j in range(1, n):
                term = term * j / n
                head += term
            val = (n * mp.exp(-n) * mpmath.ei(n) - head) \
                * mp.mpf(n) ** n / mp.factorial(n)
            assert abs(got - val) < mp.mpf(10) ** -(digits - 2)

    def test_limit_value(self):
        # psi_n(0) tends to -1/3 as n grows
        val = oracle_psi(300, 0, 30)
        assert abs(val + mp.mpf(1) / 3) < mp.mpf("0.01")


class TestConvergenceProbe:
    def test_theta_ratio_band(self):
        rows = convergence_probe("theta", 3, (30, 60, 120), digits=60)
        assert [r.n for r in rows] == [30, 60, 120]
        assert rows[0].ratio is None
        for row in rows[1:]:
            assert row.ratio is not None
            assert mp.mpf(1) / 16 < row.ratio < mp.mpf(1) / 4   # around 2^-3

    def test_factorial_target_uses_relative_error(self):
        rows = convergence_probe("gammaFactorial", 2, (20, 40), digits=60)
        assert rows[0].error < 1          # relative, so small despite 20!
        assert isinstance(rows[0], ProbeRow)

    def test_s_target(self):
        rows = convergence_probe("S", 2, (20, 40), w=Fraction(1, 2),
                                 digits=60)
        assert rows[1].ratio < mp.mpf(1) / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            convergence_probe("theta", 3, (40, 20))
        with pytest.raises(ValueError):
            convergence_probe("nope", 3, (20, 40))
