"""Exact scalar layer: parsing, Gaussian rationals, verified evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from ramasym.numcore import (GaussianRational, PrecisionError,
                             format_bigfloat, format_rational,
                             mpf_from_fraction, parse_gaussian,
                             parse_rational, to_mp, verified_eval)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=97)
nonzero_rationals = rationals.filter(bool)


class TestParseRational:
    def test_fraction_form(self):
        assert parse_rational("-8/2835") == Fraction(-8, 2835)

    def test_integer_form(self):
        assert parse_rational("42") == Fraction(42)

    def test_decimal_is_exact(self):
        assert parse_rational("0.125") == Fraction(1, 8)
        assert parse_rational("-2.5") == Fraction(-5, 2)

    def test_rejects_garbage(self):
        for bad in ("", "one", "1/0", "2//3"):
            with pytest.raises((ValueError, ZeroDivisionError)):
                parse_rational(bad)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


gaussians = st.builds(GaussianRational, rationals, rationals)


class TestGaussianRational:
    @given(gaussians, gaussians)
    def test_ring_ops_componentwise(self, x, y):
        assert (x + y).re == x.re + y.re
        assert (x + y).im == x.im + y.im
        prod = x * y
        assert prod.re == x.re * y.re - x.im * y.im
        assert prod.im == x.re * y.im + x.im * y.re
        assert x - y == x + (-y)

    @given(gaussians.filter(bool))
    def test_inverse(self, x):
        one = GaussianRational(Fraction(1), Fraction(0))
        assert x * x.inverse() == one
        assert 1 / x == x.inverse()

    @given(gaussians.filter(bool), st.integers(-40, 40))
    def test_integer_powers(self, x, n):
        expected = GaussianRational(Fraction(1), Fraction(0))
        base = x if n >= 0 else x.inverse()
        for _ in range(abs(n)):
            expected = expected * base
        assert x ** n == expected

    @given(gaussians, gaussians)
    def test_conjugation_is_multiplicative(self, x, y):
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert x.norm2() == (x * x.conjugate()).re

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational().inverse()

    @given(rationals)
    def test_a_real_value_hashes_as_its_rational_part(self, q):
        g = GaussianRational(q)
        assert g == q and hash(g) == hash(q)
        assert len({g, q}) == 1
        assert len({GaussianRational(Fraction(1)), 1}) == 1

    def test_mixed_arith_with_rationals(self):
        w = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        assert (1 + w).re == Fraction(3, 2)
        assert (2 * w).im == Fraction(2, 3)
        assert (w / Fraction(1, 2)) == GaussianRational(
            Fraction(1), Fraction(2, 3))


class TestParseGaussian:
    @pytest.mark.parametrize("text,re_,im_", [
        ("2", 2, 0),
        ("-3/4", Fraction(-3, 4), 0),
        ("0.25", Fraction(1, 4), 0),
        ("i", 0, 1),
        ("-i", 0, -1),
        ("-3/4i", 0, Fraction(-3, 4)),
        ("1/2+1/4i", Fraction(1, 2), Fraction(1, 4)),
        ("1/2-1/3i", Fraction(1, 2), Fraction(-1, 3)),
        ("-1/2-1/3i", Fraction(-1, 2), Fraction(-1, 3)),
    ])
    def test_accepted_forms(self, text, re_, im_):
        g = parse_gaussian(text)
        assert g.re == Fraction(re_) and g.im == Fraction(im_)

    @given(gaussians)
    def test_round_trip(self, g):
        assert parse_gaussian(str(g)) == g

    def test_rejects_garbage(self):
        for bad in ("", "1+2", "i+1", "1/2+1/3j", "2i3", "ii",
                    "1/0", "1/0i", "1/2+1/0i"):
            with pytest.raises(ValueError):
                parse_gaussian(bad)

    def test_spaces_are_ignored(self):
        assert parse_gaussian("1/2 - 1/3 i") == GaussianRational(
            Fraction(1, 2), Fraction(-1, 3))


class TestConversion:
    def test_mpf_from_fraction_tracks_precision(self):
        with mp.workprec(200):
            x = mpf_from_fraction(Fraction(1, 3))
            err = abs(x - mp.mpf(1) / 3)
            assert err < mp.mpf(2) ** (-190)

    def test_to_mp_gaussian(self):
        with mp.workprec(80):
            z = to_mp(GaussianRational(Fraction(1, 2), Fraction(-1, 4)))
            assert z.real == mp.mpf("0.5") and z.imag == mp.mpf("-0.25")

    def test_to_mp_real_gaussian_stays_real(self):
        z = to_mp(GaussianRational(Fraction(3), Fraction(0)))
        assert isinstance(z, mp.mpf)


class TestVerifiedEval:
    def test_agrees_with_reference(self):
        val = verified_eval(lambda: mp.exp(mp.mpf(1)), 40)
        with mp.workprec(300):
            assert abs(val - mp.e) < mp.mpf(10) ** -40

    def test_cancel_digits_widen_start(self):
        # exp(30) - expm1(30) - 1 == 0 only when enough guard digits exist
        def compute():
            return (mp.exp(mp.mpf(30)) - mp.mpf(30) ** 0) - mp.expm1(30)
        val = verified_eval(compute, 30, cancel_digits=14)
        assert abs(val) < mp.mpf(10) ** -25

    def test_unstable_computation_raises(self):
        with pytest.raises(PrecisionError):
            verified_eval(lambda: mp.mpf(mp.prec), 10)

    def test_rejects_nonpositive_digits(self):
        with pytest.raises(ValueError):
            verified_eval(lambda: mp.mpf(1), 0)


def test_format_bigfloat_has_requested_digits():
    with mp.workprec(120):
        s = format_bigfloat(mp.mpf(1) / 3, 25)
    mantissa = s.replace("0.", "")
    assert len(mantissa) >= 25
    assert s.startswith("0.3333333333")
