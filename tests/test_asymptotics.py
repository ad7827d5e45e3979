"""Region partition, boundary curve, and the truncated expansions."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from ramasym.asymptotics import (CurvePoint, S_expansion, T_expansion,
                                 classify, gamma_expansion,
                                 lambert_w_recip_e, phi, psi_expansion,
                                 szego_curve, theta_expansion)
from ramasym.numcore import GaussianRational, to_mp
from ramasym.oracle import (oracle_S, oracle_T, oracle_psi, oracle_theta)

fracs = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=40)
gaussians = st.builds(GaussianRational, fracs, fracs)


def curve_point_fraction(t, scale=10 ** 30):
    """A Gaussian rational hugging the boundary curve at abscissa t."""
    with mp.workprec(200):
        tm = to_mp(Fraction(t))
        im = mp.sqrt(mp.exp(2 * tm - 2) - tm * tm)
        num = int(mp.floor(im * scale))
    return GaussianRational(Fraction(t), Fraction(num, scale))


class TestClassify:
    @pytest.mark.parametrize("w,kind", [
        (Fraction(1), "One"),
        (Fraction(0), "Zero"),
        (Fraction(-1, 2), "X"),
        (Fraction(1, 2), "Y"),
        (Fraction(2), "Z"),
        (Fraction(11, 10), "Z"),
        (GaussianRational(Fraction(0), Fraction(3)), "X"),
        (GaussianRational(Fraction(1), Fraction(1, 4)), "X"),
        (GaussianRational(Fraction(3, 2), Fraction(1, 4)), "Z"),
    ])
    def test_representative_points(self, w, kind):
        assert classify(w).kind == kind

    def test_boundary_arcs(self):
        low = curve_point_fraction(Fraction(1, 2))
        high = curve_point_fraction(Fraction(3, 2))
        assert classify(low).kind == "ScurveBoundary"
        assert classify(high).kind == "TcurveBoundary"

    def test_epsilon_widens_special_points(self):
        w = Fraction(10 ** 10 + 1, 10 ** 10)         # 1 + 1e-10
        assert classify(w, epsilon=Fraction(1, 10 ** 6)).kind == "One"
        near0 = Fraction(1, 10 ** 8)
        assert classify(near0, epsilon=Fraction(1, 10 ** 6)).kind == "Zero"
        assert classify(near0).kind == "Y"

    def test_margin_sign(self):
        assert classify(Fraction(-1)).boundary_margin > 0
        assert classify(Fraction(3)).boundary_margin < 0
        assert abs(classify(Fraction(1)).boundary_margin) == 0

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            classify(Fraction(2), epsilon=Fraction(0))

    @given(gaussians)
    @settings(max_examples=60, deadline=None)
    def test_conjugation_invariance(self, w):
        assert classify(w.conjugate()).kind == classify(w).kind


class TestPhi:
    def test_at_one(self):
        assert abs(phi(Fraction(1))) < mp.mpf(10) ** -45

    def test_rejects_off_curve(self):
        with pytest.raises(ValueError):
            phi(Fraction(2))

    def test_on_curve_value(self):
        w = curve_point_fraction(Fraction(1, 2))
        val = phi(w, tol=Fraction(1, 10 ** 25))
        with mp.workprec(200):
            wm = to_mp(w)
            expected = wm.imag - mp.arg(wm)
            assert abs(val - expected) < mp.mpf(10) ** -40
            # the defining property w e^(1-w) = e^(-i phi)
            assert abs(wm * mp.exp(1 - wm) - mp.exp(-1j * val)) \
                < mp.mpf(10) ** -25

    def test_conjugate_negates(self):
        w = curve_point_fraction(Fraction(1, 2))
        a = phi(w, tol=Fraction(1, 10 ** 25))
        b = phi(w.conjugate(), tol=Fraction(1, 10 ** 25))
        assert abs(a + b) < mp.mpf(10) ** -40

    def test_range(self):
        for t in (Fraction(-1, 4), Fraction(1, 2), Fraction(3, 2),
                  Fraction(3)):
            w = curve_point_fraction(t)
            val = phi(w, tol=Fraction(1, 10 ** 20))
            assert -mp.pi < val <= mp.pi


class TestLambertConstant:
    def test_against_mpmath(self):
        val = lambert_w_recip_e(45)
        with mp.workprec(300):
            ref = mpmath.lambertw(mp.exp(-1))
            assert abs(val - ref) < mp.mpf(10) ** -45

    def test_defining_equation(self):
        val = lambert_w_recip_e(40)
        with mp.workprec(200):
            assert abs(val * mp.exp(val) - mp.exp(-1)) < mp.mpf(10) ** -40


class TestSzegoCurve:
    def test_grid_and_residuals(self):
        pts = szego_curve(Fraction(-27, 100), Fraction(3, 2),
                          Fraction(1, 4), digits=40)
        assert len(pts) == 8
        for p in pts:
            assert isinstance(p, CurvePoint)
            assert p.residual < mp.mpf(10) ** -30

    def test_at_one_the_curve_meets_the_axis(self):
        (p,) = szego_curve(Fraction(1), Fraction(1), Fraction(1))
        assert abs(p.w - 1) < mp.mpf(10) ** -45

    def test_below_domain_raises(self):
        with pytest.raises(ValueError):
            szego_curve(Fraction(-1, 2), Fraction(0), Fraction(1, 10))

    def test_step_validation(self):
        with pytest.raises(ValueError):
            szego_curve(Fraction(0), Fraction(1), Fraction(0))
        with pytest.raises(ValueError):
            szego_curve(Fraction(1), Fraction(0), Fraction(1, 2))


class TestScalarExpansions:
    def test_theta_accuracy_and_decay(self):
        errs = {}
        for n in (60, 120):
            e = theta_expansion(n, 0, 4, 40)
            errs[n] = abs(e.value - oracle_theta(n, 0, 40))
            assert e.error_order == "O(n^(-4))"
            assert e.terms_used == 4 and len(e.per_term) == 4
        assert errs[60] < mp.mpf(10) ** -9
        assert errs[60] / errs[120] > 10          # should be about 2^4

    def test_value_is_the_verified_sum(self):
        # a value rounded to the caller's 53 bits would be off by about
        # 2e-17; the verified sum matches the oracle to about 1e-30
        with mp.workprec(53):
            got = theta_expansion(1000, 0, 9, 200).value
            err = abs(got - oracle_theta(1000, 0, 200))
        assert err < mp.mpf(10) ** -25

    def test_theta_nonzero_v(self):
        e = theta_expansion(80, 3, 3, 40)
        err = abs(e.value - oracle_theta(80, 3, 40))
        assert err < mp.mpf(10) ** -4

    def test_psi_accuracy_and_decay(self):
        errs = {}
        for n in (60, 120):
            e = psi_expansion(n, 1, 3, 40)
            errs[n] = abs(e.value - oracle_psi(n, 1, 40))
        assert errs[60] < mp.mpf(10) ** -4
        assert errs[60] / errs[120] > 5           # should be about 2^3

    def test_psi_accepts_integral_fraction_only(self):
        psi_expansion(50, Fraction(2), 2, 30)
        with pytest.raises(ValueError):
            psi_expansion(50, Fraction(1, 2), 2, 30)

    def test_gamma_relative_accuracy(self):
        for n, bound in ((60, -7), (120, -8)):
            e = gamma_expansion(n, 0, 3, 40)
            with mp.workprec(300):
                ref = mp.factorial(n)
                rel = abs(e.value - ref) / ref
            assert rel < mp.mpf(10) ** bound
            assert e.error_order == "prefactor * O(n^(-3))"

    def test_gamma_shifted(self):
        e = gamma_expansion(90, 2, 3, 40)
        with mp.workprec(300):
            ref = mp.factorial(92)
            assert abs(e.value - ref) / ref < mp.mpf(10) ** -6

    @pytest.mark.parametrize("v", [0.3, 0.5 + 0.25j, mp.mpf("0.3")])
    def test_an_inexact_v_is_refused(self, v):
        # a float v once ran the coefficients in float64: theta at v = 0.3
        # asked for 40 verified digits read 1.6e-17 off the same binary
        # point held exactly as Fraction(0.3)
        for fn in (theta_expansion, gamma_expansion):
            with pytest.raises(TypeError):
                fn(70, v, 6, 40)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            theta_expansion(0, 0, 3)
        with pytest.raises(ValueError):
            theta_expansion(10, 0, -1)
        zero_terms = theta_expansion(10, 0, 0, 30)
        assert zero_terms.value == 0 and zero_terms.per_term == ()


class TestTailHeadExpansions:
    def test_s_zero_is_exact(self):
        e = S_expansion(25, Fraction(0), 0, 3, 30)
        assert e.value == 0 and e.regime.kind == "Zero"
        assert e.error_order == "exact"

    def test_t_undefined_at_zero(self):
        with pytest.raises(ValueError):
            T_expansion(25, Fraction(0), 0, 3, 30)

    @pytest.mark.parametrize("w", [0.3, 2.0, 0.5 + 0.25j, mp.mpf("0.3")])
    def test_an_inexact_w_is_refused(self, w):
        # a float w once ran the U-series in float64: 0.3 asked for 40
        # verified digits read 5.05e-17 off the same binary point held
        # exactly as Fraction(0.3)
        for fn in (S_expansion, T_expansion):
            with pytest.raises(TypeError):
                fn(70, w, 0, 6, 40)

    @pytest.mark.parametrize("w", [Fraction(1, 2), Fraction(3)])
    @pytest.mark.parametrize("v", [1.0, 0.5 + 0.25j, mp.mpf("0.5")])
    def test_an_inexact_v_is_refused(self, w, v):
        # refused alike where the U-series runs (S in Y, T in Z) and where
        # the gamma form does (S in Z, T in Y)
        for fn in (S_expansion, T_expansion):
            with pytest.raises(TypeError):
                fn(70, w, v, 6, 40)

    @pytest.mark.parametrize("w,v,regime,bound", [
        (Fraction(-1, 2), 1, "X", -5),
        (Fraction(1, 2), 0, "Y", -2),
    ])
    def test_s_interior(self, w, v, regime, bound):
        e = S_expansion(60, w, v, 3, 40)
        assert e.regime.kind == regime
        assert e.error_order == "O(n^(-3))"
        err = abs(e.value - oracle_S(60, w, v, 40))
        assert err < mp.mpf(10) ** bound

    def test_t_interior_and_dominant(self):
        for w, v, regime in ((Fraction(-1, 2), 0, "X"), (Fraction(2), 1, "Z")):
            e = T_expansion(60, w, v, 3, 40)
            assert e.regime.kind == regime
            with mp.workprec(280):
                err = abs(e.value - to_mp(oracle_T(60, w, v)))
            assert err < mp.mpf(10) ** -3
        dom = T_expansion(60, Fraction(1, 2), 0, 3, 40)
        assert dom.regime.kind == "Y"
        assert dom.error_order.startswith("O(sqrt(n)")
        with mp.workprec(280):
            ref = to_mp(oracle_T(60, Fraction(1, 2), 0))
            assert abs(dom.value - ref) / abs(ref) < mp.mpf(10) ** -5

    def test_s_dominant(self):
        e = S_expansion(60, Fraction(2), 0, 3, 40)
        assert e.regime.kind == "Z"
        ref = oracle_S(60, Fraction(2), 0, 40)
        assert abs(e.value - ref) / abs(ref) < mp.mpf(10) ** -6

    def test_mixed_at_one(self):
        for n in (60, 240):
            s = S_expansion(n, Fraction(1), 0, 3, 40)
            t = T_expansion(n, Fraction(1), 2, 3, 40)
            assert s.regime.kind == "One" and t.regime.kind == "One"
            assert s.error_order == "O(n^(-5/2))"
            s_err = abs(s.value - oracle_S(n, Fraction(1), 0, 40))
            with mp.workprec(280):
                t_err = abs(t.value - to_mp(oracle_T(n, Fraction(1), 2)))
            assert s_err < 40 * mp.mpf(n) ** mp.mpf("-2.5")
            assert t_err < 400 * mp.mpf(n) ** mp.mpf("-2.5")

    def test_boundary_branches(self):
        low = curve_point_fraction(Fraction(1, 2))
        high = curve_point_fraction(Fraction(3, 2))
        n = 80
        s_lo = S_expansion(n, low, 0, 3, 40)
        t_lo = T_expansion(n, low, 0, 3, 40)
        s_hi = S_expansion(n, high, 0, 3, 40)
        t_hi = T_expansion(n, high, 0, 3, 40)
        assert s_lo.regime.kind == "ScurveBoundary"
        assert s_lo.error_order == "O(n^(-3))"     # plain U-series side
        assert t_lo.error_order == "O(n^(-5/2))"   # oscillatory side
        assert s_hi.regime.kind == "TcurveBoundary"
        assert s_hi.error_order == "O(n^(-5/2))"
        assert t_hi.error_order == "O(n^(-3))"
        with mp.workprec(400):
            assert abs(s_lo.value - oracle_S(n, low, 0, 40)) < mp.mpf(10) ** -3
            assert abs(t_lo.value - to_mp(oracle_T(n, low, 0))) \
                < mp.mpf("5e-2")
            assert abs(s_hi.value - oracle_S(n, high, 0, 40)) \
                < mp.mpf("5e-2")
            assert abs(t_hi.value - to_mp(oracle_T(n, high, 0))) \
                < mp.mpf(10) ** -3

    def test_gaussian_interior_point(self):
        w = GaussianRational(Fraction(1, 4), Fraction(1, 4))
        e = S_expansion(70, w, 0, 3, 40)
        assert e.regime.kind == "Y"
        err = abs(e.value - oracle_S(70, w, 0, 40))
        assert err < mp.mpf(10) ** -3
