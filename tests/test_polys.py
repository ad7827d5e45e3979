"""Polynomial rings in v and w and the (1-w)-denominator rational layer."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramasym.coefficients import U_coeff
from ramasym.numcore import GaussianRational
from ramasym.polys import (PolyV, PolyW, RationalFnW, Sqrt2Scaled,
                           binomial_poly, w_minus_1_pow)

fracs = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=24)
polyvs = st.lists(fracs, max_size=5).map(PolyV)
polyws = st.lists(polyvs, max_size=4).map(PolyW)
small_polyws = st.lists(st.lists(st.integers(-3, 3), max_size=2).map(PolyV),
                        max_size=3).map(PolyW)
rational_fns = st.builds(RationalFnW, small_polyws, st.integers(0, 3))
gaussians = st.builds(GaussianRational, fracs, fracs)
scalars = st.integers(-50, 50) | fracs


def repeated_product(x, n: int, one):
    """x**n by |n| multiplications, through x.inverse() when n < 0."""
    base = x if n >= 0 else x.inverse()
    out = one
    for _ in range(abs(n)):
        out = out * base
    return out


class TestPolyV:
    def test_trailing_zeros_normalized(self):
        assert PolyV([1, 2, 0, 0]) == PolyV([1, 2])
        assert PolyV([0, 0]).degree == float("-inf")

    def test_constructors(self):
        v = PolyV.variable()
        assert v.coeff(1) == 1 and v.degree == 1
        assert PolyV.monomial(3, Fraction(1, 2)).coeff(3) == Fraction(1, 2)
        assert PolyV.const(7)(Fraction(5)) == 7

    @given(polyvs, polyvs, fracs)
    def test_ring_homomorphism_at_points(self, p, q, x):
        assert (p + q)(x) == p(x) + q(x)
        assert (p * q)(x) == p(x) * q(x)
        assert (p - q)(x) == p(x) - q(x)

    @given(polyvs, st.integers(0, 12), fracs)
    @settings(deadline=None)
    def test_powers(self, p, n, x):
        assert p ** n == repeated_product(p, n, PolyV([1]))
        assert (p ** n)(x) == p(x) ** n

    def test_negative_power_raises(self):
        with pytest.raises(ValueError):
            PolyV([1, 1]) ** -1

    def test_horner_is_exact(self):
        p = PolyV([Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11)])
        x = Fraction(22, 7)
        direct = Fraction(1, 3) - Fraction(2, 7) * x + Fraction(5, 11) * x * x
        assert p(x) == direct

    def test_coeff_strings(self):
        assert PolyV([Fraction(1, 3), 0, Fraction(-2, 5)]).coeff_strings() \
            == ["1/3", "0", "-2/5"]


def _trim(cs):
    cs = [Fraction(x) for x in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _trim(x + y for x, y in zip(a, b))


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_eval(cs, x):
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _ref_compose(a, b):
    acc = ()
    for c in reversed(a):
        acc = _ref_add(_ref_mul(acc, b), [c])
    return acc


def _canonical(p):
    return (p.d > 0 and math.gcd(p.d, *p.n) == 1
            and (not p.n or p.n[-1] != 0) and (p.n or p.d == 1))


frac_lists = st.lists(fracs, max_size=6)
ints = st.integers(-10 ** 40, 10 ** 40) | st.sampled_from([0, -1, 1])


class TestIntegerStore:
    """PolyV's integer numerators over one denominator against a plain
    Fraction-list reference."""

    @given(frac_lists, frac_lists)
    def test_ring_operations_match_the_reference(self, a, b):
        p, q = PolyV(a), PolyV(b)
        for got, want in ((PolyV(a), _trim(a)), (p + q, _ref_add(a, b)),
                          (p - q, _ref_add(a, [-y for y in b])),
                          (p * q, _ref_mul(a, b)), (-p, _trim(-x for x in a))):
            assert _canonical(got)
            assert got.c == want
            assert all(type(x) is Fraction for x in got.c)

    @given(frac_lists, scalars)
    def test_scalar_product(self, a, c):
        want = _trim(x * c for x in a)
        for got in (PolyV(a) * c, c * PolyV(a), PolyV(a) + 0 * c):
            assert _canonical(got)
        assert (PolyV(a) * c).c == want and (c * PolyV(a)).c == want

    @given(frac_lists, ints)
    def test_int_product_matches_the_coerced_product(self, a, c):
        p = PolyV(a)
        for got in (p * c, c * p):
            assert _canonical(got)
            assert got == p * Fraction(c) and got.c == _trim(x * c for x in a)

    @given(polyws, ints)
    def test_polyw_int_product_matches_the_coerced_product(self, w, c):
        for got in (w * c, c * w):
            assert got == w * PolyW([Fraction(c)])
            assert all(_canonical(x) for x in got.c)
            assert not got.c or got.c[-1]

    @given(frac_lists, scalars | gaussians)
    def test_evaluation_at_rationals_and_gaussians(self, a, x):
        got, want = PolyV(a)(x), _ref_eval(_trim(a), x)
        assert got == want and type(got) is type(want)

    @given(frac_lists, frac_lists)
    def test_evaluation_at_a_polynomial(self, a, b):
        got = PolyV(a)(PolyV(b))
        if not _trim(a):  # the zero polynomial is Fraction(0) everywhere
            assert got == _ref_eval(a, PolyV(b)) == 0
        else:
            assert _canonical(got) and got.c == _ref_compose(a, b)

    def test_equal_polynomials_store_equal_integers(self):
        p = PolyV([Fraction(2, 6), Fraction(-4, 6), 0])
        assert (p.n, p.d) == ((1, -2), 3)
        assert (PolyV([0, 0]).n, PolyV([0, 0]).d) == ((), 1)
        assert (p - p).d == 1 and p * 0 == PolyV()


class TestBinomialPoly:
    @given(st.integers(0, 30), st.integers(0, 8))
    def test_matches_comb_at_naturals(self, n, m):
        assert binomial_poly(m)(Fraction(n)) == math.comb(n, m)

    @given(st.integers(-15, -1), st.integers(0, 6))
    def test_negative_arguments(self, n, m):
        # choose(n, m) = (-1)^m choose(m - n - 1, m) for negative n
        expected = (-1) ** m * math.comb(m - n - 1, m)
        assert binomial_poly(m)(Fraction(n)) == expected

    def test_every_order_to_sixty_without_stirling_numbers(self):
        # binomial_poly reads the Stirling cycle rows; this check uses
        # math.comb alone, so a bad cycle row cannot hide behind it
        for m in range(61):
            p = binomial_poly(m)
            assert p.degree == m
            for n in range(-3, m + 3):
                want = (math.comb(n, m) if n >= 0
                        else (-1) ** m * math.comb(m - n - 1, m))
                assert p(Fraction(n)) == want, (m, n)

    def test_half_integer(self):
        assert binomial_poly(2)(Fraction(1, 2)) == Fraction(-1, 8)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            binomial_poly(-1)


class TestPolyW:
    @given(polyws, polyws, fracs, fracs)
    def test_ring_ops_at_points(self, p, q, w, v):
        assert (p + q)(w, v) == p(w, v) + q(w, v)
        assert (p * q)(w, v) == p(w, v) * q(w, v)

    @given(small_polyws, st.integers(0, 8))
    @settings(deadline=None)
    def test_powers(self, p, n):
        assert p ** n == repeated_product(p, n, PolyW([1]))

    @given(polyws)
    def test_divmod_w_minus_1_reconstructs(self, p):
        q, rem = p.divmod_w_minus_1()
        back = q * PolyW([-1, 1]) + PolyW([rem])
        assert back == p

    @given(polyws)
    def test_remainder_is_value_at_one(self, p):
        _, rem = p.divmod_w_minus_1()
        x = Fraction(3, 7)
        assert rem(x) == p(Fraction(1), x)

    def test_repr_shows_the_polynomial(self):
        assert repr(PolyW([1, PolyV([0, 1])])) == "PolyW((1) + (v)*w^1)"
        assert repr(PolyV([1, 2])) == "PolyV(1 + 2*v)"

    def test_int_coefficients_coerce(self):
        p = PolyW([1, -2])
        assert p(Fraction(3), Fraction(0)) == -5

    def test_gaussian_evaluation(self):
        p = PolyW([0, 1])              # the polynomial w
        z = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        assert p(z, Fraction(0)) == z

    @given(st.integers(0, 6), fracs)
    def test_w_minus_1_pow(self, e, w):
        assert w_minus_1_pow(e)(w, Fraction(0)) == (w - 1) ** e


class TestRationalFnW:
    def test_common_factor_cancels(self):
        shared = PolyW([-1, 1]) * PolyW([2, 3])
        f = RationalFnW(shared, 2)
        assert f.e == 1 and f.num == PolyW([2, 3])

    def test_zero_numerator_clears_denominator(self):
        assert RationalFnW(PolyW(), 5).e == 0

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            RationalFnW(PolyW([1]), -1)

    @given(polyws, st.integers(0, 3), fracs, fracs)
    def test_evaluation_definition(self, num, e, w, v):
        f = RationalFnW(num, e)
        if w == 1 and e:
            return
        assert f(w, v) == num(w, v) / (w - 1) ** e

    @given(polyws, polyws, st.integers(0, 2), st.integers(0, 2),
           fracs, fracs)
    def test_field_ops_at_points(self, n1, n2, e1, e2, w, v):
        f, g = RationalFnW(n1, e1), RationalFnW(n2, e2)
        if w == 1:
            return
        assert (f + g)(w, v) == f(w, v) + g(w, v)
        assert (f * g)(w, v) == f(w, v) * g(w, v)
        assert (f - g)(w, v) == f(w, v) - g(w, v)

    def test_pole_evaluation_raises(self):
        f = RationalFnW(PolyW([1]), 1)
        with pytest.raises(ZeroDivisionError):
            f(Fraction(1))

    def test_inverse_of_monomial_numerator(self):
        f = RationalFnW(PolyW.w_monomial(0, Fraction(2)), 3)
        g = f.inverse()
        w, v = Fraction(1, 3), Fraction(2)
        assert f(w, v) * g(w, v) == 1

    @given(st.integers(0, 3), st.integers(0, 4), fracs.filter(bool),
           st.integers(-6, 8))
    @settings(deadline=None)
    def test_powers(self, d, e, c, n):
        # c (w-1)^d / (w-1)^e is invertible, so negative powers exist
        f = RationalFnW(w_minus_1_pow(d) * c, e)
        assert f ** n == repeated_product(f, n, RationalFnW(1))

    @given(small_polyws, st.integers(0, 3), st.integers(0, 8))
    @settings(deadline=None)
    def test_powers_of_general_numerators(self, num, e, n):
        f = RationalFnW(num, e)
        assert f ** n == repeated_product(f, n, RationalFnW(1))

    def test_inverse_of_general_numerator_unsupported(self):
        with pytest.raises((NotImplementedError, ValueError)):
            RationalFnW(PolyW([2, 3]), 1).inverse()

    def test_taylor_at_zero_geometric(self):
        # 1/(1-w) = sum of w^j
        f = RationalFnW(PolyW([-1]), 1)
        sections = f.taylor_at_zero(6)
        assert all(s == PolyV([1]) for s in sections)

    @given(st.integers(1, 4))
    def test_taylor_matches_evaluation(self, e):
        f = RationalFnW(PolyW([1, 2]), e)
        sections = f.taylor_at_zero(12)
        w, v = Fraction(1, 100), Fraction(1, 2)
        partial = sum((s(v) * w ** j for j, s in enumerate(sections)),
                      Fraction(0))
        err = abs(partial - f(w, v))
        assert err < Fraction(1, 10 ** 20)

    def test_max_v_degree(self):
        f = RationalFnW(PolyW([PolyV([0, 0, 1]), PolyV([1])]), 1)
        assert f.max_v_degree() == 2


gaussian_ws = st.builds(GaussianRational, fracs, fracs.filter(bool))
exact_ws = st.integers(-5, 5) | fracs | gaussian_ws | fracs.map(
    lambda x: GaussianRational(x, Fraction(0)))
exact_vs = scalars | gaussian_ws


def _ref_value(num: PolyW, e: int, w, v):
    """N(w, v)/(w - 1)^e by Horner over GaussianRational ring operators and
    one division: the reference for the integer evaluation, sharing none of
    its code.  Returns (re, im) as Fractions."""
    g, h = (GaussianRational(Fraction(z), Fraction(0))
            if isinstance(z, (int, Fraction)) else z for z in (w, v))
    acc = GaussianRational(Fraction(0), Fraction(0))
    for co in reversed(num.c):
        acc = acc * g + sum((c * h ** i for i, c in enumerate(co.c)),
                            Fraction(0))
    den = GaussianRational(Fraction(1), Fraction(0))
    for _ in range(e):
        den = den * (g - 1)
    out = acc * den.inverse()
    return out.re, out.im


class TestExactEvaluation:
    """PolyW and RationalFnW at an exact point, against ``_ref_value``; the
    result is a GaussianRational exactly when w or v is one."""

    @staticmethod
    def _check(got, w, v, want):
        if GaussianRational in (type(w), type(v)):
            assert type(got) is GaussianRational
            assert (got.re, got.im) == want
        else:
            assert type(got) is Fraction
            assert (got, Fraction(0)) == want

    @given(polyws, exact_ws, exact_vs)
    @settings(deadline=None)
    def test_polyw_matches_the_reference(self, p, w, v):
        self._check(p(w, v), w, v, _ref_value(p, 0, w, v))

    @given(polyws, st.integers(0, 5), exact_ws, exact_vs)
    @settings(deadline=None)
    def test_rational_fn_matches_the_reference(self, num, e, w, v):
        f = RationalFnW(num, e)
        if f.e and w == 1:
            return
        self._check(f(w, v), w, v, _ref_value(f.num, f.e, w, v))

    @pytest.mark.parametrize("r", range(6))
    @pytest.mark.parametrize("mode", ["plain", "tilde"])
    def test_u_coefficients_at_gaussian_points(self, r, mode):
        f = U_coeff(r, mode)
        for w in (GaussianRational(Fraction(1, 2), Fraction(1, 3)),
                  GaussianRational(Fraction(-7, 4), Fraction(0)),
                  Fraction(-2, 7), 3):
            for v in (0, -3, Fraction(5, 2),
                      GaussianRational(Fraction(1, 2), Fraction(-2, 3))):
                self._check(f(w, v), w, v, _ref_value(f.num, f.e, w, v))

    @pytest.mark.parametrize("w, kind", [
        (2, Fraction), (Fraction(1, 3), Fraction),
        (GaussianRational(Fraction(5, 3), Fraction(0)), GaussianRational),
        (GaussianRational(Fraction(1, 2), Fraction(1, 3)), GaussianRational)])
    def test_result_type_follows_w_and_v(self, w, kind):
        gv = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        for f in (PolyW([1, PolyV([0, 1])]), RationalFnW(PolyW([1]), 2),
                  PolyW(), RationalFnW(PolyW(), 3)):
            assert type(f(w, Fraction(1, 2))) is kind
            assert type(f(w, gv)) is GaussianRational

    def test_zero_keeps_the_gaussian_type(self):
        z = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        for f in (PolyW(), RationalFnW(PolyW(), 3)):
            got = f(z, 0)
            assert type(got) is GaussianRational
            assert (got.re, got.im) == (0, 0)

    @pytest.mark.parametrize("w", [0.5, 0.3 + 0.2j, 1.0, "1/2", None])
    def test_an_inexact_w_is_refused(self, w):
        for f in (PolyW([1, 2]), RationalFnW(PolyW([1]), 1), PolyW()):
            with pytest.raises(TypeError):
                f(w, 0)

    @pytest.mark.parametrize("v", [0.5, 0.5 + 1j, "1/2", None])
    def test_an_inexact_v_is_refused(self, v):
        for f in (PolyW([1, PolyV([0, 1])]), RationalFnW(PolyW([1]), 1),
                  PolyW()):
            with pytest.raises(TypeError):
                f(Fraction(1, 2), v)

    @pytest.mark.parametrize("w", [1, Fraction(1), GaussianRational(1, 0),
                                   GaussianRational(Fraction(1),
                                                    Fraction(0))])
    def test_the_pole_raises_for_every_exact_type(self, w):
        with pytest.raises(ZeroDivisionError):
            RationalFnW(PolyW([1]), 1)(w, 0)
        with pytest.raises(ZeroDivisionError):
            U_coeff(3)(w, Fraction(1, 2))


class TestRationalFnWStrings:
    def test_simple_pole(self):
        assert str(RationalFnW(PolyW([-1]), 1)) == "1/(1-w)"

    def test_mixed_v_chunks(self):
        f = RationalFnW(PolyW.w_monomial(1, 1), 3) \
            + RationalFnW(PolyW.w_monomial(1, PolyV.monomial(1, -1)), 2)
        assert str(f) == "-w/(1-w)^3 - v*w/(1-w)^2"

    def test_negative_polynomial_is_parenthesized(self):
        f = RationalFnW(PolyW([0, -1, -3]), 0)
        assert str(f) == "-(w + 3*w^2)"

    def test_zero(self):
        assert str(RationalFnW(PolyW(), 0)) == "0"

    # the first U coefficients exercise the per-v-chunk (1-w) cancellation
    U_STRINGS = {
        "plain": [
            "1/(1-w)",
            "-w/(1-w)^3 - v*w/(1-w)^2",
            "(w + 2*w^2)/(1-w)^5 + v*(2*w + w^2)/(1-w)^4 + v^2*w/(1-w)^3",
            "-(w + 8*w^2 + 6*w^3)/(1-w)^7 - v*(3*w + 10*w^2 + 2*w^3)/(1-w)^6"
            " - v^2*(3*w + 3*w^2)/(1-w)^5 - v^3*w/(1-w)^4",
            "(w + 22*w^2 + 58*w^3 + 24*w^4)/(1-w)^9"
            " + v*(4*w + 43*w^2 + 52*w^3 + 6*w^4)/(1-w)^8"
            " + v^2*(6*w + 28*w^2 + 11*w^3)/(1-w)^7"
            " + v^3*(4*w + 6*w^2)/(1-w)^6 + v^4*w/(1-w)^5",
        ],
        "tilde": [
            "1/(1-w)",
            "-w/(1-w)^3 - v/(1-w)^2",
            "(w + 2*w^2)/(1-w)^5 + v*3*w/(1-w)^4 + v^2/(1-w)^3",
            "-(w + 8*w^2 + 6*w^3)/(1-w)^7 - v*(4*w + 11*w^2)/(1-w)^6"
            " - v^2*6*w/(1-w)^5 - v^3/(1-w)^4",
            "(w + 22*w^2 + 58*w^3 + 24*w^4)/(1-w)^9"
            " + v*(5*w + 50*w^2 + 50*w^3)/(1-w)^8"
            " + v^2*(10*w + 35*w^2)/(1-w)^7 + v^3*10*w/(1-w)^6"
            " + v^4/(1-w)^5",
        ],
    }

    @pytest.mark.parametrize("mode", ["plain", "tilde"])
    def test_u_coefficients(self, mode):
        assert [str(U_coeff(r, mode)) for r in range(5)] \
            == self.U_STRINGS[mode]


RINGS = pytest.mark.parametrize(
    "elements", [gaussians, polyvs, small_polyws, rational_fns],
    ids=["GaussianRational", "PolyV", "PolyW", "RationalFnW"])


class TestSharedOperators:
    """Every binary operator comes from numcore.RingOps for all four ring
    types."""

    @RINGS
    @given(data=st.data())
    def test_subtraction(self, elements, data):
        a, b = data.draw(elements), data.draw(elements)
        x = data.draw(scalars)
        assert a - b == a + (-b)
        assert x - a == -(a - x)
        assert a - x == a + (-x)

    @RINGS
    @pytest.mark.parametrize("other", [None, "x", 1.5, object()],
                             ids=["None", "str", "float", "object"])
    @settings(max_examples=10)
    @given(data=st.data())
    def test_an_operand_it_cannot_hold(self, elements, other, data):
        a = data.draw(elements)
        for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__eq__"):
            assert getattr(a, name)(other) is NotImplemented, name
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(a, other)
            with pytest.raises(TypeError):
                op(other, a)
        assert not a == other and not other == a
        assert a != other and other != a

    @pytest.mark.parametrize("ring", [PolyV, PolyW, RationalFnW])
    def test_polynomial_rings_stay_unhashable(self, ring):
        with pytest.raises(TypeError):
            hash(ring([1]))

    @pytest.mark.parametrize("ring,lower", [
        (PolyW, scalars | polyvs),
        (RationalFnW, scalars | polyvs | small_polyws),
    ], ids=["PolyW", "RationalFnW"])
    @given(data=st.data())
    def test_lower_rings_coerce_from_either_side(self, ring, lower, data):
        a = data.draw(small_polyws if ring is PolyW else rational_fns)
        x = data.draw(lower)
        y = PolyW([x]) if ring is PolyW else RationalFnW(x, 0)
        for got, want in ((a + x, a + y), (x + a, y + a),
                          (a - x, a - y), (x - a, y - a),
                          (a * x, a * y), (x * a, y * a)):
            assert type(got) is ring and got == want
        assert (a == x) == (a == y) == (x == a)
        assert y == x and x == y


class TestSqrt2Scaled:
    def test_even_power_folds_to_polyv(self):
        s = Sqrt2Scaled(PolyV([1, 1]), 2)
        assert s.to_polyv() == PolyV([2, 2])

    def test_odd_power_does_not_fold(self):
        with pytest.raises(ValueError):
            Sqrt2Scaled(PolyV([1]), 1).to_polyv()

    def test_multiplication_adds_exponents(self):
        a = Sqrt2Scaled(PolyV([1]), 1)
        assert (a * a).to_polyv() == PolyV([2])

    def test_an_operand_it_cannot_hold_is_not_implemented(self):
        # as the ring types' ``_coerce``: no exception, no silent conversion
        a = Sqrt2Scaled(PolyV([1]), 1)
        for other in (None, "x", 1.5):
            assert a != other and not a == other
            assert a.__eq__(other) is NotImplemented
            assert a.__mul__(other) is NotImplemented
            assert a.__rmul__(other) is NotImplemented
            with pytest.raises(TypeError):
                a * other
            with pytest.raises(TypeError):
                other * a
        assert Sqrt2Scaled(PolyV([3]), 0) == 3
        assert Sqrt2Scaled(PolyV([2]), 2) == PolyV([4])
        assert (a * Fraction(1, 2)).poly == PolyV([Fraction(1, 2)])

    @pytest.mark.parametrize("other", [
        2, Fraction(1, 3), PolyV([2, 1]), Sqrt2Scaled(PolyV([3]), 1)],
        ids=["int", "Fraction", "PolyV", "Sqrt2Scaled"])
    def test_multiplication_commutes(self, other):
        a = Sqrt2Scaled(PolyV([1, 2]), 1)
        left, right = a * other, other * a
        assert type(right) is Sqrt2Scaled
        assert (left.poly, left.half_pow) == (right.poly, right.half_pow)

    def test_str_forms(self):
        assert str(Sqrt2Scaled(PolyV([1, 1]), 2)) == "2 + 2*v"
        assert str(Sqrt2Scaled(PolyV([1]), -1)) == "sqrt2^-1 * (1)"
