"""Golden exact values: the fingerprints in ``golden_exact.txt``.

Each line of the file reads ``family mode index digest``, where digest is
the first 16 hex digits of the SHA-256 of ``str(value)`` and ``-`` stands
for a family without modes.  The ``U_at`` lines hold U_r(w; v) at exact
points, digested as ``"<type name> <value>"`` so that the type of the result
is pinned with its value.  ``test_golden.py`` recomputes every line.

The file is written once, from a tree whose values are trusted, by

    PYTHONPATH=src python tests/golden_exact.py

and is rewritten only where a value changes on purpose.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from pathlib import Path

from ramasym import coefficients as cf
from ramasym.checks import convolution
from ramasym.combinat import (associated_row, eulerian2, stirling,
                              stirling_associated)
from ramasym.demoivre import demoivre, harmonic, inv_factorial
from ramasym.numcore import GaussianRational
from ramasym.polys import PolyW, RationalFnW, binomial_poly

GOLDEN = Path(__file__).with_name("golden_exact.txt")

_U_MODES = ("plain", "tilde", "vzero_harmonic", "vzero_factorial", "eulerian")
_TAYLOR_TERMS = 10
# U_r(w; v) at exact points: rational w as int and Fraction, Gaussian w, and
# a real w held as a GaussianRational, so the result type is pinned too
_U_AT_W = (Fraction(1, 2), 3, Fraction(-2, 7),
           GaussianRational(Fraction(1, 2), Fraction(1, 3)),
           GaussianRational(Fraction(-3, 4), Fraction(1, 4)),
           GaussianRational(Fraction(5, 3), Fraction(0)))
_U_AT_V = (0, 2, -3, Fraction(1, 2))


def digest(value) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()[:16]


def _saddle_data():
    """The ledger's two saddle data sets (``checks.check_saddle``)."""
    def u_phase(j):
        if j == 0:
            return RationalFnW(PolyW([-1, 1]), 0)
        return RationalFnW(PolyW([Fraction((-1) ** (j + 1), j + 1)]), 0)

    yield "beta", cf.SaddleData(
        mu=2, a=Fraction(1), p=lambda j: Fraction((-1) ** j, j + 2),
        q=binomial_poly)
    yield "u", cf.SaddleData(
        mu=1, a=Fraction(1), p=u_phase,
        q=lambda j: RationalFnW(PolyW([binomial_poly(j)]), 0))


def _triangle_row(seq, n: int) -> list:
    return [demoivre(n, k, seq) for k in range(n + 1)]


def golden_values():
    """Yield (family, mode, index, value) for every golden line."""
    for r in range(26):
        for mode in ("plain", "tilde"):
            yield "rho", mode, r, cf.rho(r, mode)
            yield "gamma", mode, r, cf.gamma_coeff(r, mode)
            yield "beta", mode, r, cf.beta(r, mode)
        yield "tau", "-", r, cf.tau(r)
    for r in range(13):
        yield "psi", "-", r, cf.psi(r)
        for mode in _U_MODES:
            yield "U", mode, r, cf.U_coeff(r, mode)
    for r in range(9):
        yield ("U", f"taylor{_TAYLOR_TERMS}", r,
               cf.U_coeff(r, "taylor", _TAYLOR_TERMS))
    for r in range(46):
        for mode in ("plain", "tilde"):
            yield "rho_zero", mode, r, cf.rho_zero(r, mode)
            yield "gamma_zero", mode, r, cf.gamma_zero(r, mode)
        yield "tau_zero", "-", r, cf.tau_zero(r)
        yield "psi_zero", "-", r, cf.psi_zero(r)
    for name, data in _saddle_data():
        for s in range(9):
            a = cf.alpha_s(data, s)
            yield "alpha_s", name, s, f"{a.p0} | {a.exponent} | {a.factor}"
    for s in range(4):
        for factory, kind in ((harmonic, "cycle"), (inv_factorial, "subset")):
            seq, conv = factory(s), convolution(factory(s))
            for n in range(31):
                yield f"library_{kind}", f"s{s}", n, _triangle_row(seq, n)
                yield f"convolution_{kind}", f"s{s}", n, _triangle_row(conv, n)
                yield f"associated_{kind}", f"s{s}", n, \
                    associated_row(kind, s, n)
    for m in range(80):
        yield "binomial_poly", "-", m, binomial_poly(m)
    for kind in ("cycle", "subset"):
        for n in range(40):
            yield "stirling", kind, n, [stirling(kind, n, k)
                                        for k in range(n + 1)]
            for r in range(2, 6):
                yield f"stirling_associated_r{r}", kind, n, [
                    stirling_associated(kind, n, k, r) for k in range(n + 1)]
    for n in range(30):
        yield "eulerian2", "-", n, [eulerian2(n, k) for k in range(n + 1)]
    for r in range(13):
        for mode in ("plain", "tilde"):
            for w in _U_AT_W:
                for v in _U_AT_V:
                    x = cf.U_coeff(r, mode)(w, v)
                    yield ("U_at", mode, f"{r}:{type(w).__name__}:{w}:{v}",
                           f"{type(x).__name__} {x}")
    # whole tables further out, where the integer double sums carry the
    # widest numerators
    for r in range(26, 61):
        for mode in ("plain", "tilde"):
            yield "rho", mode, r, cf.rho(r, mode)
            yield "gamma", mode, r, cf.gamma_coeff(r, mode)
        yield "tau", "-", r, cf.tau(r)
    for r in range(13, 23):
        for mode in _U_MODES[:4]:
            yield "U", mode, r, cf.U_coeff(r, mode)
    # the v = 0 sums and the psi series division further out
    for r in range(46, 101):
        for mode in ("plain", "tilde"):
            yield "rho_zero", mode, r, cf.rho_zero(r, mode)
            yield "gamma_zero", mode, r, cf.gamma_zero(r, mode)
        yield "tau_zero", "-", r, cf.tau_zero(r)
        yield "psi_zero", "-", r, cf.psi_zero(r)
    for r in range(13, 31):
        yield "psi", "-", r, cf.psi(r)


def golden_lines() -> list[str]:
    return [f"{family} {mode} {index} {digest(value)}"
            for family, mode, index, value in golden_values()]


if __name__ == "__main__":
    lines = golden_lines()
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} lines to {GOLDEN.name}")
