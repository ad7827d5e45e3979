"""Exact polynomial rings used by the coefficient families.

``PolyV`` is a dense univariate polynomial over the rationals in the offset
variable v, held as integer numerators over one common denominator, so its
ring operations are integer arithmetic with one gcd per result.  ``PolyW``
stacks PolyV coefficients into a dense polynomial in a second variable w.
``RationalFnW`` is the fraction N(w, v)/(w-1)^e kept in lowest terms with
respect to the (w-1) factor.  ``Sqrt2Scaled`` tracks an exact multiple of an
integer power of sqrt(2) so that intermediate half-integer-power quantities
never leave exact arithmetic.  ``PolyW`` and ``RationalFnW`` evaluate at
an exact w and v on Gaussian integers, with one reduction per value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, factorial, gcd, lcm

from .combinat import stirling
from .numcore import GaussianRational, RingOps, exact_parts, format_rational


def _join_terms(parts) -> str:
    """Join rendered terms with " + ", turning a leading '-' into " - "."""
    out = parts[0]
    for t in parts[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def _poly_terms_str(coeffs, var: str) -> str:
    """Render a coefficient list ascending in ``var``; '0' when empty."""
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            term = format_rational(c)
        else:
            vp = var if i == 1 else f"{var}^{i}"
            if c == 1:
                term = vp
            elif c == -1:
                term = f"-{vp}"
            else:
                term = f"{format_rational(c)}*{vp}"
        parts.append(term)
    return _join_terms(parts) if parts else "0"


def _divide_w_minus_1(cs):
    """Synthetic division of a nonempty ascending coefficient list by
    (w - 1): returns (quotient list, remainder)."""
    q = list(cs[1:])
    for i in range(len(q) - 2, -1, -1):
        q[i] = q[i] + q[i + 1]
    return q, (cs[0] + q[0] if q else cs[0])


class PolyV(RingOps):
    """Polynomial in v with exact rational coefficients, lowest degree first.

    Integer numerators ``n`` over one denominator ``d``, as FLINT's
    ``fmpq_poly`` (Hart, ICMS 2010), kept canonical: trailing zeros trimmed,
    d > 0, gcd(d, *n) == 1, and d == 1 for the zero polynomial.  Operations
    work on the integers with one gcd per result; ``c``, the Fraction
    coefficients, is formed only when read.
    """

    __slots__ = ("n", "d")

    def __new__(cls, coeffs=()):
        fs = [Fraction(x) for x in coeffs]
        d = lcm(*(f.denominator for f in fs))
        return cls._of([f.numerator * (d // f.denominator) for f in fs], d)

    @classmethod
    def _of(cls, n: list, d: int) -> "PolyV":
        """The polynomial sum_i n[i] v^i / d, brought to canonical form."""
        while n and not n[-1]:
            n.pop()
        g = gcd(d, *n)
        p = object.__new__(cls)
        p.n = tuple(x // g for x in n) if g != 1 else tuple(n)
        p.d = d // g
        return p

    @classmethod
    def const(cls, x) -> "PolyV":
        return cls([x])

    @classmethod
    def variable(cls) -> "PolyV":
        return cls([0, 1])

    @classmethod
    def monomial(cls, k: int, coeff=1) -> "PolyV":
        return cls([0] * k + [coeff])

    @property
    def c(self) -> tuple:
        """The coefficients as Fractions, constant term first."""
        return tuple(Fraction(x, self.d) for x in self.n)

    @property
    def degree(self):
        """Degree as an int; -inf for the zero polynomial."""
        return len(self.n) - 1 if self.n else float("-inf")

    def coeff(self, i: int) -> Fraction:
        return Fraction(self.n[i], self.d) if 0 <= i < len(self.n) \
            else Fraction(0)

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, cls):
            return x
        if isinstance(x, (int, Fraction)):
            return cls._of([x.numerator], x.denominator)
        return NotImplemented

    def _add(self, o):
        d = lcm(self.d, o.d)
        a, b = d // self.d, d // o.d
        return self._of([x * a + y * b for x, y in
                         zip_longest(self.n, o.n, fillvalue=0)], d)

    def __neg__(self):
        return self._of([-x for x in self.n], self.d)

    def __mul__(self, other):
        """An int scales ``n``; anything else goes through RingOps."""
        if isinstance(other, int):
            return self._of([x * other for x in self.n], self.d)
        return RingOps.__mul__(self, other)

    def _mul(self, o):
        """Integer convolution of the numerators over the product of the
        denominators; a scalar p/q is one term."""
        out = [0] * (len(self.n) + len(o.n) - 1)
        for i, a in enumerate(self.n):
            if a:
                for j, b in enumerate(o.n, i):
                    out[j] += a * b
        return self._of(out, self.d * o.d)

    def _eq(self, o):
        return self.n == o.n and self.d == o.d

    def __bool__(self):
        return bool(self.n)

    def coeff_strings(self):
        """Coefficient list as "p/q" strings (constant term first)."""
        return [format_rational(x) for x in self.c]

    def __call__(self, x):
        """Horner evaluation at an exact x, or at another ring element.

        At a rational x = p/q the sum runs over integers, as
        sum_i n_i p^i q^(deg-i) / (q^deg d); anywhere else Horner runs over
        the integer numerators and the result is scaled by 1/d once."""
        if isinstance(x, (int, Fraction)) and self.n:
            p, q = x.numerator, x.denominator
            acc, qk = 0, 1
            for co in reversed(self.n):
                acc = acc * p + co * qk
                qk *= q
            return Fraction(acc, self.d * qk // q)
        acc = 0
        for co in reversed(self.n):
            acc = acc * x + co
        return acc * Fraction(1, self.d)

    def __str__(self):
        return _poly_terms_str(self.c, "v")

    def __repr__(self):
        return f"PolyV({self})"


@lru_cache(maxsize=None)
def binomial_poly(m: int) -> PolyV:
    """Binomial coefficient of v over m as a degree-m polynomial in v:
    C(v, m) = v(v-1)...(v-m+1)/m! = sum_k (-1)^(m-k) c(m, k) v^k / m!,
    with c the Stirling cycle numbers."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return PolyV._of([(-1) ** (m - k) * stirling("cycle", m, k)
                      for k in range(m + 1)], factorial(m))


class PolyW(RingOps):
    """Polynomial in w whose coefficients are PolyV elements, lowest degree
    first, trailing zeros trimmed."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        cs = [x if isinstance(x, PolyV) else PolyV([x]) for x in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.c = tuple(cs)

    @classmethod
    def w_monomial(cls, k: int, coeff=1) -> "PolyW":
        return cls([0] * k + [coeff])

    @property
    def degree(self):
        """Degree as an int; -inf for the zero polynomial."""
        return len(self.c) - 1 if self.c else float("-inf")

    def coeff(self, i: int) -> PolyV:
        return self.c[i] if 0 <= i < len(self.c) else PolyV()

    @staticmethod
    def _coerce(x):
        if isinstance(x, PolyW):
            return x
        if isinstance(x, (PolyV, int, Fraction)):
            return PolyW([x])
        return NotImplemented

    def _add(self, o):
        return PolyW([a + b for a, b in
                      zip_longest(self.c, o.c, fillvalue=PolyV())])

    def __neg__(self):
        return PolyW([-x for x in self.c])

    def _mul(self, o):
        out = [PolyV()] * (len(self.c) + len(o.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(o.c):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return PolyW(out)

    def _eq(self, o):
        return self.c == o.c

    def __bool__(self):
        return bool(self.c)

    def divmod_w_minus_1(self):
        """Synthetic division by (w - 1): returns (quotient, remainder PolyV)."""
        if not self.c:
            return PolyW(), PolyV()
        q, rem = _divide_w_minus_1(self.c)
        return PolyW(q), rem

    def __call__(self, w, v):
        """The value at an exact w and v, summed on Gaussian integers with
        one reduction (``_evaluate``)."""
        return _evaluate(self, 0, w, v)

    def __str__(self):
        if not self.c:
            return "0"
        if all(p.degree <= 0 for p in self.c):
            return _poly_terms_str([p.coeff(0) for p in self.c], "w")
        return " + ".join(
            f"({p})*w^{i}" if i else f"({p})"
            for i, p in enumerate(self.c) if p
        )

    def __repr__(self):
        return f"PolyW({self})"


def _evaluate(num: PolyW, e: int, w, v):
    """N(w, v)/(w - 1)^e at an exact w and v: with w = (a + bi)/q and the
    parts of the n values c_j(v) over one denominator D, Horner on a
    Gaussian integer pair gives N = (x + yi) q/(D q^n), and the quotient by
    (w - 1)^e = (s + ti)/q^e is divided once through s - ti and s^2 + t^2.
    A GaussianRational w or v gives a GaussianRational, else a Fraction."""
    (wr, wi), _ = exact_parts(w, "w"), exact_parts(v, "v")
    q = lcm(wr.denominator, wi.denominator)
    a, b = (p.numerator * (q // p.denominator) for p in (wr, wi))
    cs = [exact_parts(co(v)) for co in num.c]
    D = lcm(*(p.denominator for c in cs for p in c))
    x, y, qn = 0, 0, 1
    for cr, ci in reversed(cs):
        k = cr.numerator * (D // cr.denominator) * qn
        x, y = x * a - y * b + k, x * b + y * a
        if ci:
            y += ci.numerator * (D // ci.denominator) * qn
        qn *= q
    s, t = 1, 0
    for _ in range(e):
        s, t = s * (a - q) - t * b, s * b + t * (a - q)
    norm = s * s + t * t
    if not norm:
        raise ZeroDivisionError("pole at w = 1")
    scale, d = q ** (e + 1), D * qn * norm
    x, y = (x * s + y * t) * scale, (y * s - x * t) * scale
    if isinstance(w, GaussianRational) or isinstance(v, GaussianRational):
        return GaussianRational(Fraction(x, d), Fraction(y, d))
    return Fraction(x, d)


_W_MINUS_1 = PolyW([-1, 1])


@lru_cache(maxsize=None)
def w_minus_1_pow(e: int) -> PolyW:
    if e == 0:
        return PolyW([1])
    return w_minus_1_pow(e - 1) * _W_MINUS_1


class RationalFnW(RingOps):
    """Fraction N(w, v) / (w - 1)^e with the (w-1) content fully cancelled."""

    __slots__ = ("num", "e")

    def __init__(self, num, e: int = 0):
        if e < 0:
            raise ValueError("denominator exponent must be nonnegative")
        n = PolyW._coerce(num)
        if n is NotImplemented:
            raise TypeError(f"cannot build numerator from {num!r}")
        if not n:
            e = 0
        while e > 0:
            q, rem = n.divmod_w_minus_1()
            if rem:
                break
            n, e = q, e - 1
        self.num = n
        self.e = e

    @staticmethod
    def _coerce(x):
        if isinstance(x, RationalFnW):
            return x
        if isinstance(x, (PolyW, PolyV, int, Fraction)):
            return RationalFnW(x, 0)
        return NotImplemented

    def _add(self, o):
        e = max(self.e, o.e)
        n = (self.num * w_minus_1_pow(e - self.e)
             + o.num * w_minus_1_pow(e - o.e))
        return RationalFnW(n, e)

    def __neg__(self):
        return RationalFnW(-self.num, self.e)

    def _mul(self, o):
        return RationalFnW(self.num * o.num, self.e + o.e)

    def inverse(self) -> "RationalFnW":
        """Invert when the numerator is c*(w-1)^d; raises otherwise."""
        n, d = self.num, 0
        while True:
            q, rem = n.divmod_w_minus_1()
            if rem or not q:
                break
            n, d = q, d + 1
        if n.degree != 0 or n.coeff(0).degree != 0:
            raise ValueError("inverse exists only for c*(w-1)^d numerators")
        c = n.coeff(0).coeff(0)
        if c == 0:
            raise ZeroDivisionError("inverse of zero")
        inv_c = PolyW([1 / c])
        if self.e >= d:
            return RationalFnW(inv_c * w_minus_1_pow(self.e - d), 0)
        return RationalFnW(inv_c, d - self.e)

    def _eq(self, o):
        return self.e == o.e and self.num == o.num

    def __bool__(self):
        return bool(self.num)

    def __call__(self, w, v=Fraction(0)):
        """The value at an exact w (not 1 when e > 0) and v, summed on
        Gaussian integers with one reduction (``_evaluate``)."""
        return _evaluate(self.num, self.e, w, v)

    def taylor_at_zero(self, terms: int):
        """First ``terms`` coefficients of the w-power series (PolyV list)."""
        if self.e == 0:
            return [self.num.coeff(j) for j in range(terms)]
        # 1/(w-1)^e = (-1)^e * sum_j C(e-1+j, j) w^j
        sign = (-1) ** self.e
        return [sum((c * (sign * comb(self.e - 1 + j - i, j - i))
                     for i, c in enumerate(self.num.c[:j + 1]) if c), PolyV())
                for j in range(terms)]

    def max_v_degree(self) -> int:
        d = 0
        for p in self.num.c:
            if p and p.degree > d:
                d = p.degree
        return d

    def __str__(self):
        """Render grouped by v-power over (1-w) denominators."""
        if not self.num:
            return "0"
        chunks = []
        for i in range(self.max_v_degree() + 1):
            cw = [p.coeff(i) for p in self.num.c]
            if not any(cw):
                continue
            e = self.e
            while e > 0 and sum(cw) == 0:
                cw, e = _divide_w_minus_1(cw)[0], e - 1
            if e % 2:
                cw = [-x for x in cw]
            while cw and cw[-1] == 0:
                cw.pop()
            neg = False
            lead = next((x for x in cw if x), Fraction(0))
            if lead < 0:
                neg, cw = True, [-x for x in cw]
            num_str = _poly_terms_str(cw, "w")
            nontrivial = sum(1 for x in cw if x) > 1
            if e:
                den = "(1-w)" if e == 1 else f"(1-w)^{e}"
                body = f"({num_str})/{den}" if nontrivial else f"{num_str}/{den}"
            else:
                wrap = nontrivial and (i or neg)
                body = f"({num_str})" if wrap else num_str
            if i:
                vp = "v" if i == 1 else f"v^{i}"
                body = vp + body[1:] if num_str == "1" else f"{vp}*{body}"
            chunks.append("-" + body if neg else body)
        return _join_terms(chunks)

    def __repr__(self):
        return f"RationalFnW({self})"


class Sqrt2Scaled:
    """Exact value poly * sqrt(2)^half_pow with a PolyV polynomial part."""

    __slots__ = ("poly", "half_pow")

    def __init__(self, poly, half_pow: int = 0):
        self.poly = poly if isinstance(poly, PolyV) else PolyV.const(poly)
        self.half_pow = half_pow

    def __mul__(self, other):
        if isinstance(other, Sqrt2Scaled):
            return Sqrt2Scaled(self.poly * other.poly,
                               self.half_pow + other.half_pow)
        if not isinstance(other, (PolyV, int, Fraction)):
            return NotImplemented
        return Sqrt2Scaled(self.poly * other, self.half_pow)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (PolyV, int, Fraction)):
            other = Sqrt2Scaled(other, 0)
        if not isinstance(other, Sqrt2Scaled):
            return NotImplemented
        if not self.poly and not other.poly:
            return True
        if (self.half_pow - other.half_pow) % 2:
            return False
        if self.half_pow >= other.half_pow:
            return self.poly * Fraction(2) ** ((self.half_pow - other.half_pow) // 2) == other.poly
        return self.poly == other.poly * Fraction(2) ** ((other.half_pow - self.half_pow) // 2)

    def to_polyv(self) -> PolyV:
        """Collapse to a plain polynomial; requires an even sqrt(2) power."""
        if not self.poly:
            return PolyV()
        if self.half_pow % 2:
            raise ValueError("value is an odd power of sqrt(2); not rational")
        return self.poly * Fraction(2) ** (self.half_pow // 2)

    def __str__(self):
        if self.half_pow % 2 == 0:
            return str(self.to_polyv()) if self.poly else "0"
        return f"sqrt2^{self.half_pow} * ({self.poly})"

    def __repr__(self):
        return f"Sqrt2Scaled({self.poly!r}, {self.half_pow})"
