"""Exact rational scalars, the shared ring operators, and verified
arbitrary-precision floats.

Every exact quantity in this package is built on :class:`fractions.Fraction`
or on :class:`GaussianRational`, a complex number with rational real and
imaginary parts.  :class:`RingOps` writes every binary operator of the
exact ring types once, over each type's own coercion and arithmetic, with
integer powers by squaring.
Approximate quantities go through mpmath, but only via
:func:`verified_eval`, which evaluates each requested expression at two
working precisions (p and p + 64 bits) and only releases a result once the
two runs agree to the caller's tolerance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
from mpmath import mp


class PrecisionError(ArithmeticError):
    """Raised when two working precisions refuse to agree on a value."""


# ---------------------------------------------------------------------------
# rational helpers
# ---------------------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, an integer string, or a decimal string exactly.

    >>> parse_rational("-8/2835")
    Fraction(-8, 2835)
    >>> parse_rational("0.25")
    Fraction(1, 4)
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Serialize as ``"p/q"`` in lowest terms, or ``"p"`` for integers."""
    return str(Fraction(q))


# ---------------------------------------------------------------------------
# the shared ring operators
# ---------------------------------------------------------------------------

class RingOps:
    """Every binary operator of an exact ring type, written once over the
    type's ``_coerce``, ``_add``, ``__neg__``, ``_mul`` (commutative) and
    ``_eq``, and ``inverse`` for negative powers.

    ``_coerce`` maps an operand into the type, or gives ``NotImplemented``
    when the type cannot hold it; Python then raises ``TypeError`` for an
    arithmetic operator, and ``==`` is False.  ``_add``, ``_mul`` and
    ``_eq`` see an operand of the type.  No ``__hash__``: a ring type is
    unhashable unless it writes one.
    """

    __slots__ = ()

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._add(o)

    def __mul__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._mul(o)

    def __eq__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._eq(o)

    def __radd__(self, other):
        return self.__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._add(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o._add(-self)

    def __pow__(self, n: int):
        """Square and multiply (Knuth, TAOCP vol. 2, 4.6.3)."""
        if not isinstance(n, int):
            raise TypeError("only integer powers are exact")
        if n < 0 and not hasattr(self, "inverse"):
            raise ValueError(f"negative power of a {type(self).__name__}")
        base = self if n >= 0 else self.inverse()
        result = self._coerce(1)
        n = abs(n)
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GaussianRational(RingOps):
    """Exact complex number a + bi with rational a, b."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def _coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(Fraction(x), Fraction(0))
        return NotImplemented

    def _add(self, o):
        return GaussianRational(self.re + o.re, self.im + o.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def _mul(self, o):
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    def norm2(self) -> Fraction:
        """Squared modulus, an exact rational."""
        return self.re * self.re + self.im * self.im

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        n = self.norm2()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def _eq(self, o):
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        """Equal values hash equal: a real one as its rational part."""
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __str__(self):
        if self.im == 0:
            return format_rational(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{format_rational(self.im)}i"
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 else "-"
        mag = "i" if abs(self.im) == 1 else f"{format_rational(abs(self.im))}i"
        return f"{format_rational(self.re)}{sign}{mag}"


def exact_parts(z, name: str = "value") -> tuple:
    """(re, im) of an int, Fraction or GaussianRational z, else TypeError."""
    if isinstance(z, (int, Fraction)):
        return z, 0
    if isinstance(z, GaussianRational):
        return z.re, z.im
    raise TypeError(f"{name} must be exact, not {type(z).__name__}")


_URAT = r"(?:\d+(?:\.\d+)?(?:/\d+)?|\.\d+)"
_RAT = rf"[+-]?{_URAT}"


def parse_gaussian(text: str) -> GaussianRational:
    """Parse the exact complex syntax ``a/b+c/di`` (and its degenerate forms).

    Accepted shapes: ``"2"``, ``"1/2"``, ``"0.25"``, ``"i"``, ``"-3/4i"``,
    ``"1/2+1/4i"``, ``"1/2-1/3i"``.
    """
    s = text.strip().replace(" ", "")
    try:
        m = re.fullmatch(rf"(?P<re>{_RAT})(?P<sign>[+-])(?P<im>{_URAT})?i", s)
        if m:
            mag = Fraction(m.group("im")) if m.group("im") else Fraction(1)
            if m.group("sign") == "-":
                mag = -mag
            return GaussianRational(Fraction(m.group("re")), mag)
        m = re.fullmatch(rf"(?P<co>{_RAT}|[+-])?i", s)
        if m:
            co = m.group("co")
            if co is None or co == "+":
                mag = Fraction(1)
            elif co == "-":
                mag = Fraction(-1)
            else:
                mag = Fraction(co)
            return GaussianRational(Fraction(0), mag)
        m = re.fullmatch(_RAT, s)
        if m:
            return GaussianRational(Fraction(s), Fraction(0))
    except ZeroDivisionError as exc:
        raise ValueError(f"not a Gaussian rational literal: {text!r}") from exc
    raise ValueError(f"not a Gaussian rational literal: {text!r}")


# ---------------------------------------------------------------------------
# verified high-precision evaluation
# ---------------------------------------------------------------------------

_LOG2_10 = 3.321928094887362


def mpf_from_fraction(q: Fraction):
    """Round an exact rational into the ambient mpmath context."""
    return mp.mpf(q.numerator) / mp.mpf(q.denominator)


def to_mp(x):
    """Convert exact or float input to an ambient-precision mpf/mpc."""
    if isinstance(x, Fraction):
        return mpf_from_fraction(x)
    if isinstance(x, GaussianRational):
        if x.im == 0:
            return mpf_from_fraction(x.re)
        return mp.mpc(mpf_from_fraction(x.re), mpf_from_fraction(x.im))
    if isinstance(x, complex):
        return mp.mpc(x)
    return mp.mpf(x) if not isinstance(x, mp.mpc) else x


def _agree(a, b, digits: int) -> bool:
    diff = abs(a - b)
    if not mpmath.isfinite(diff):
        return False
    scale = max(mp.mpf(1), abs(a), abs(b))
    return diff <= mp.mpf(10) ** (-digits) * scale


# precision doublings verified_eval tries before it gives up
_ROUNDS = 6


def verified_eval(compute: Callable[[], object], digits: int,
                  cancel_digits: int = 0):
    """Evaluate ``compute`` until two precisions p and p + 64 bits agree,
    and return the p + 64 bit value.

    ``compute`` must rebuild its value from exact inputs using the ambient
    mpmath context, so that rerunning it at a higher precision actually
    produces a sharper answer.  ``cancel_digits`` announces expected digit
    cancellation (e.g. a difference of two nearly equal exponentially large
    terms), widening the starting precision.  Agreement means
    |a - b| <= 10^-digits * max(1, |a|, |b|); on persistent disagreement
    :class:`PrecisionError` is raised rather than releasing a shaky value.
    """
    if digits <= 0:
        raise ValueError("digits must be positive")
    prec = int((digits + cancel_digits + 10) * _LOG2_10) + 20
    for _ in range(_ROUNDS):
        with mp.workprec(prec):
            a = compute()
        with mp.workprec(prec + 64):
            b = compute()
        with mp.workprec(prec + 64):
            if _agree(a, b, digits):
                return b
        prec *= 2
    raise PrecisionError(
        f"no agreement to {digits} digits after {_ROUNDS} escalations")


def format_bigfloat(x, digits: int) -> str:
    """Decimal serialization carrying an explicit digit count."""
    return mpmath.nstr(x, digits, strip_zeros=False)
