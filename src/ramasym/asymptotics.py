"""Region classification and truncated-expansion evaluators.

The scaled partial sums of e^(nw) behave differently depending on where w
sits relative to the curve |w e^(1-w)| = 1 and the line Re(w) = 1.  This
module classifies points of the w-plane into those regions, parametrizes
the boundary curve, and evaluates the truncated large-n expansions for the
correction term theta_n(v), the factorial Gamma(n+v+1), the tail and head
sums S_n(w;v) / T_n(w;v), and the exponential-integral companion Psi_n(v).

All evaluators take an explicit truncation order R; the series are
asymptotic, not convergent, so choosing R is the caller's concern.  Every
numeric result passes the two-precision agreement contract of
:mod:`ramasym.numcore` and comes back at the precision it was verified at;
no result or decision here depends on the ambient mpmath precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from mpmath import mp

from .coefficients import gamma_coeff, psi, rho, U_coeff
from .numcore import _LOG2_10, exact_parts, to_mp, verified_eval

@dataclass(frozen=True)
class RegionLabel:
    """Where a point w lies in the partition of the w-plane.

    kind is one of X (|w e^(1-w)| > 1), Y (modulus < 1, Re w < 1),
    Z (modulus < 1, Re w > 1), the two boundary arcs ScurveBoundary
    (Re w < 1) and TcurveBoundary (Re w > 1), or the distinguished points
    One and Zero.  boundary_margin records the signed distance
    |w e^(1-w)| - 1 at working precision.
    """

    kind: str
    boundary_margin: object

    def __str__(self):
        return self.kind


def _workprec(digits: int):
    """The context for decisions on values verified to ``digits``."""
    return mp.workprec(int(digits * _LOG2_10) + 20)


def _margin_raw(wm):
    return abs(wm * mp.exp(1 - wm)) - 1


def classify(w, epsilon=Fraction(1, 10 ** 20), digits: int = 50) -> RegionLabel:
    """Label the position of w relative to the curve |w e^(1-w)| = 1.

    Points within epsilon of the distinguished values 1 and 0 get the
    labels One and Zero; points whose modulus margin is within epsilon of
    zero get a boundary label split by the sign of Re(w) - 1.
    """
    with _workprec(digits):
        eps = to_mp(epsilon)
        if eps <= 0:
            raise ValueError("epsilon must be positive")
        margin = verified_eval(lambda: _margin_raw(to_mp(w)), digits)
        wm = to_mp(w)
        if abs(wm - 1) < eps:
            return RegionLabel("One", margin)
        if abs(wm) < eps:
            return RegionLabel("Zero", margin)
        re_less = wm.real < 1
        if abs(margin) < eps:
            return RegionLabel("ScurveBoundary" if re_less
                               else "TcurveBoundary", margin)
        if margin > 0:
            return RegionLabel("X", margin)
        return RegionLabel("Y" if re_less else "Z", margin)


def _phi_raw(wm):
    x = wm.imag - mp.arg(wm)
    y = x - 2 * mp.pi * mp.floor((x + mp.pi) / (2 * mp.pi))
    if y <= -mp.pi:
        y += 2 * mp.pi
    return y


def phi(w, digits: int = 50, tol=Fraction(1, 10 ** 20)):
    """Boundary phase: w e^(1-w) = e^(-i phi(w)) with phi in (-pi, pi].

    Only defined on the curve |w e^(1-w)| = 1; inputs whose modulus margin
    exceeds tol are rejected.
    """
    margin = verified_eval(lambda: _margin_raw(to_mp(w)), digits)
    with _workprec(digits):
        off = abs(margin) > to_mp(tol)
    if off:
        raise ValueError(
            f"w is off the unit-modulus curve by {mp.nstr(margin, 8)}")
    return verified_eval(lambda: _phi_raw(to_mp(w)), digits)


def lambert_w_recip_e(digits: int = 50):
    """The constant W(1/e): the solution of x e^x = 1/e, about 0.27846.

    Newton iteration from 0.25; the negative of this value is the left
    endpoint of the boundary-curve parametrization.
    """

    def compute():
        target = mp.exp(-1)
        x = mp.mpf("0.25")
        for _ in range(300):
            ex = mp.exp(x)
            dx = (x * ex - target) / (ex * (1 + x))
            x -= dx
            if abs(dx) <= mp.eps * (1 + abs(x)):
                break
        return x

    return verified_eval(compute, digits)


@dataclass(frozen=True)
class CurvePoint:
    t: object
    w: object
    residual: object


def szego_curve(t_min, t_max, step, digits: int = 50) -> list:
    """Sample the upper branch w = t + i sqrt(e^(2t-2) - t^2) of the curve.

    Valid for t >= -W(1/e); the arc with Re(w) < 1 bounds the S regions and
    the continuation with Re(w) > 1 bounds the T side.  Each returned point
    carries t = Re(w) at the precision w was verified at, and the verified
    residual | |w e^(1-w)| - 1 |.
    """
    t_min, t_max, step = Fraction(t_min), Fraction(t_max), Fraction(step)
    if step <= 0:
        raise ValueError("step must be positive")
    if t_max < t_min:
        raise ValueError("t_max must be at least t_min")
    floor_t = -lambert_w_recip_e(digits + 10)
    with _workprec(digits):
        below = to_mp(t_min) < floor_t - mp.mpf(10) ** -digits
    if below:
        raise ValueError(
            f"t = {t_min} is below the curve domain t >= {mp.nstr(floor_t, 10)}")
    points = []
    t = t_min
    while t <= t_max:
        def compute(tt=t):
            tmm = to_mp(tt)
            rad = mp.exp(2 * tmm - 2) - tmm * tmm
            if rad < 0:
                rad = mp.mpf(0)
            return mp.mpc(tmm, mp.sqrt(rad))

        w = verified_eval(compute, digits)
        residual = verified_eval(lambda ww=w: abs(_margin_raw(ww)), digits)
        points.append(CurvePoint(w.real, w, residual))
        t += step
    return points


@dataclass(frozen=True)
class ExpansionResult:
    """A truncated expansion value with its per-term breakdown.

    value is the verified sum of per_term, at its verified precision;
    terms_used is the truncation order R (terms r = 0..R-1); regime records
    which expansion branch fired; error_order describes the dropped
    remainder.
    """

    value: object
    terms_used: int
    per_term: tuple
    regime: RegionLabel
    error_order: str


def _expansion(build: Callable[[], Sequence], R: int, digits: int,
               regime: RegionLabel, order: str) -> ExpansionResult:
    """The verified sum of the built terms, with the terms of the build it
    came from (the higher-precision one)."""
    terms = []

    def compute():
        terms[:] = build()
        return mp.fsum(terms)

    value = verified_eval(compute, digits)
    return ExpansionResult(value, R, tuple(terms), regime, order)


def _check_order(n, R: int) -> None:
    if not (to_mp(n).real > 0):
        raise ValueError("n must be positive")
    if R < 0:
        raise ValueError("R must be nonnegative")


_ONE_LABEL = RegionLabel("One", 0)


def _plain_order(R: int) -> str:
    return f"O(n^(-{R}))"


def _power_expansion(family, n, v, R: int, digits: int, order: str,
                     prefactor=lambda nm: 1) -> ExpansionResult:
    """prefactor(n) * family(r)(v) / n^r summed over r < R, v exact."""
    exact_parts(v, "v")
    _check_order(n, R)
    coeffs = [family(r)(v) for r in range(R)]

    def build():
        nm = to_mp(n)
        pref = prefactor(nm)
        return [pref * to_mp(c) / nm ** r for r, c in enumerate(coeffs)]

    return _expansion(build, R, digits, _ONE_LABEL, order)


def theta_expansion(n, v=0, R: int = 3, digits: int = 50) -> ExpansionResult:
    """Truncated expansion of the correction term: sum of rho_r(v)/n^r."""
    return _power_expansion(rho, n, v, R, digits, _plain_order(R))


def psi_expansion(n, v=0, R: int = 3, digits: int = 50) -> ExpansionResult:
    """Truncated expansion of the exponential-integral companion.

    v must be an integer; the expansion is stated only there.
    """
    if not (isinstance(v, (int, Fraction)) and v == int(v)):
        raise ValueError("v must be an integer")
    return _power_expansion(psi, n, int(v), R, digits, _plain_order(R))


def gamma_expansion(n, v=0, R: int = 3, digits: int = 50) -> ExpansionResult:
    """Stirling-type expansion of Gamma(n+v+1).

    value = sqrt(2 pi n) * n^(n+v) / e^n * sum of gamma_r(v)/n^r, with the
    prefactor at verified precision; the remainder is relative to that
    prefactor.
    """
    return _power_expansion(
        gamma_coeff, n, v, R, digits, f"prefactor * O(n^(-{R}))",
        lambda nm: mp.sqrt(2 * mp.pi * nm) * mp.power(nm, nm + to_mp(v))
        / mp.exp(nm))


def _tail_head_expansion(kind: str, n, w, v, R: int,
                         digits: int) -> ExpansionResult:
    exact_parts(w, "w"), exact_parts(v, "v")
    _check_order(n, R)
    label = classify(w, digits=digits)
    k = label.kind

    if k == "Zero":
        if kind == "T":
            raise ValueError("T is undefined at w = 0")
        return ExpansionResult(mp.mpf(0), R, (), label, "exact")

    sign = 1 if kind == "S" else -1
    if k == "One":
        branch = "mixed"
    elif (kind == "S" and k == "Z") or (kind == "T" and k == "Y"):
        branch = "dominant"
    elif (kind == "S" and k == "TcurveBoundary") or \
            (kind == "T" and k == "ScurveBoundary"):
        branch = "oscillatory"
    else:
        branch = "interior"

    rho_c = [rho(r)(v) for r in range(R)] if branch == "mixed" else None
    gamma_c = [gamma_coeff(r)(v) for r in range(R)] \
        if branch != "interior" else None
    u_c = [U_coeff(r)(w, v) for r in range(R)] \
        if branch in ("interior", "oscillatory") else None

    def build():
        nm = to_mp(n)
        wm = to_mp(w)
        vm = to_mp(v)
        inv = [nm ** -r for r in range(R)]
        if branch == "mixed":
            half_osc = mp.sqrt(2 * mp.pi * nm) / 2
            return [(sign * to_mp(rho_c[r]) + to_mp(gamma_c[r]) * half_osc)
                    * inv[r] for r in range(R)]
        if branch == "dominant":
            pref = mp.sqrt(2 * mp.pi * nm) * mp.exp(
                -nm * (1 - wm + mp.log(wm)) - vm * mp.log(wm))
            return [pref * to_mp(gamma_c[r]) * inv[r] for r in range(R)]
        if branch == "oscillatory":
            osc = mp.exp(1j * nm * _phi_raw(wm)) * mp.sqrt(2 * mp.pi * nm) \
                / mp.power(wm, vm)
            return [(sign * to_mp(u_c[r]) + to_mp(gamma_c[r]) * osc) * inv[r]
                    for r in range(R)]
        return [sign * to_mp(u_c[r]) * inv[r] for r in range(R)]

    half = f"O(n^({Fraction(1, 2) - R}))"
    order = {"mixed": half, "oscillatory": half, "interior": _plain_order(R),
             "dominant": f"O(sqrt(n) * |w*e^(1-w)|^(-n) * n^(-{R}))"}[branch]
    return _expansion(build, R, digits, label, order)


def S_expansion(n, w, v=0, R: int = 3, digits: int = 50) -> ExpansionResult:
    """Truncated large-n expansion of the scaled tail sum S_n(w;v).

    Dispatches on classify(w): the U-series in X, Y, and on the S-side
    boundary; the mixed rho/gamma form at w = 1; the oscillatory boundary
    form on the T-side arc; the dominant sqrt(n)-scaled gamma form in Z;
    and the exact value 0 at w = 0.  An inexact w or v is a TypeError.
    """
    return _tail_head_expansion("S", n, w, v, R, digits)


def T_expansion(n, w, v=0, R: int = 3, digits: int = 50) -> ExpansionResult:
    """Truncated large-n expansion of the scaled head sum T_n(w;v).

    Mirror of S_expansion: the negated U-series in X, Z, and on the T-side
    boundary; the mixed form at w = 1; the oscillatory form on the S-side
    arc; the dominant form in Y.  w = 0 is undefined; w, v must be exact.
    """
    return _tail_head_expansion("T", n, w, v, R, digits)
