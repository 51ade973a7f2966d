"""Exact rational, Gaussian-rational and polynomial arithmetic.

Scalars are `fractions.Fraction` (canonical form is the stdlib's job) and
complex scalars are :class:`GaussianRational`, one Gaussian integer over
one positive denominator, three plain ints in lowest terms.  A
polynomial (:class:`Poly`) is a positive rational content times a
primitive integer coefficient tuple, so its arithmetic is integer
arithmetic plus one content operation.  Everything here is exact: there
is no floating point anywhere.  Every decision is made from signed
remainder sequences of primitive integer polynomials and rational
comparisons, and every sign of a polynomial at a rational point n/d is
taken in plain ints (homogeneous Horner, no Fraction arithmetic): root
counting evaluates an integer Sturm chain at the interval ends; root
isolation splits integer numerators over one denominator, evaluating
the chain only at splits inside an integer root radius (Fujiwara's
bound); refinement reaches bisection's dyadic cell by quadratic
interval refinement on the sign of the square-free factor alone; the
remainder sequence of (p, p') runs once per polynomial, as its Sturm
chain and, when p is not square-free, as the gcd behind Yun's loop; and
strict interlacing reads the Cauchy index off the leading coefficients
of one remainder sequence, with no evaluation at all.

Text formats:

* rational        ``"p/q"`` with optional sign on ``p``; plain ``"p"`` is
  accepted on input and means ``p/1``.
* Gaussian        ``"a/b+c/di"``, e.g. ``"0/1+1/1i"`` for the imaginary unit.
* polynomial      coefficient list lowest degree first,
  e.g. ``"[-2/1, 0/1, 1/1]"`` for ``z^2 - 2``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DivisionError, ParseError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_GAUSSIAN_RE = re.compile(
    r"^(?P<re>[+-]?\d+(?:/\d+)?)?(?:(?P<im>[+-]?\d+(?:/\d+)?)i)?$"
)


def _fraction(text: str, whole: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {whole!r}") from None


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` (or plain ``"p"``) into a Fraction."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ParseError(f"not a rational literal: {text!r}")
    return _fraction(text.strip(), text)


def format_rational(x: Fraction) -> str:
    """Canonical ``"p/q"`` form, denominator always explicit; past the
    digit limit of CPython's `str` on ints, `Decimal` writes them exactly."""
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


def parse_gaussian(text: str) -> "GaussianRational":
    """Parse ``"a/b+c/di"`` (either part may be absent, not both)."""
    m = isinstance(text, str) and _GAUSSIAN_RE.match(text.strip().replace(" ", ""))
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ParseError(f"not a Gaussian rational literal: {text!r}")
    re_part = _fraction(m.group("re"), text) if m.group("re") else Fraction(0)
    im_part = _fraction(m.group("im"), text) if m.group("im") else Fraction(0)
    return GaussianRational(re_part, im_part)


class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    One canonical form: (re_num + im_num i) / den in three plain ints,
    with den > 0 and gcd(re_num, im_num, den) = 1, so equal values have
    equal slots.  Arithmetic with another Gaussian, an int or a Fraction
    (on either side) reads the operand's numerator and denominator
    directly and reduces the result once, in `_lowest`."""

    __slots__ = ("re_num", "im_num", "den")

    def __new__(cls, re, im):
        re = re if isinstance(re, (int, Fraction)) else Fraction(re)
        im = im if isinstance(im, (int, Fraction)) else Fraction(im)
        p, q, r, s = re.numerator, re.denominator, im.numerator, im.denominator
        return _lowest(p * s, r * q, q * s)

    def __reduce__(self):
        # pickle and copy rebuild from parts: the default protocol would
        # call __new__ without them
        return GaussianRational, (self.re, self.im)

    @staticmethod
    def of(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return _gaussian(value.numerator, 0, value.denominator)

    @property
    def re(self) -> Fraction:
        return Fraction(self.re_num, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.im_num, self.den)

    def __bool__(self) -> bool:
        return bool(self.re_num) or bool(self.im_num)

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = self.re_num, self.im_num, self.den
        c, e, f = o
        return _lowest(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        return _gaussian(-self.re_num, -self.im_num, self.den)

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = self.re_num, self.im_num, self.den
        c, e, f = o
        return _lowest(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = self.re_num, self.im_num, self.den
        c, e, f = o
        return _lowest(c * d - a * f, e * d - b * f, d * f)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = self.re_num, self.im_num, self.den
        c, e, f = o
        return _lowest(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _quotient(self.re_num, self.im_num, self.den, *o)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _quotient(*o, self.re_num, self.im_num, self.den)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return (self.re_num == other.re_num and self.im_num == other.im_num
                    and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return (not self.im_num and self.re_num == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a real value hashes as the Fraction (or int) it equals
        return hash(self.re) if not self.im_num else hash((self.re, self.im))

    @staticmethod
    def product_difference(a, w, pairs) -> "GaussianRational":
        """a * w minus the sum of b * u over the pairs (b, u), each factor
        a Gaussian, an int or a Fraction: the residual of a linear
        equation.  The terms share one common denominator and the result
        is reduced once; a term whose denominator equals the running one
        joins it as it is."""
        p, q, s = _parts(a)
        c, e, den = _parts(w)
        re, im, den = p * c - q * e, p * e + q * c, s * den
        for b, u in pairs:
            p, q, s = _parts(b)
            c, e, f = _parts(u)
            t = s * f
            if t == den:
                re -= p * c - q * e
                im -= p * e + q * c
            else:
                re = re * t - (p * c - q * e) * den
                im = im * t - (p * e + q * c) * den
                den *= t
        return _lowest(re, im, den)

    def conjugate(self) -> "GaussianRational":
        return _gaussian(self.re_num, -self.im_num, self.den)

    def abs2(self) -> Fraction:
        """|w|^2 as an exact nonnegative rational."""
        a, b = self.re_num, self.im_num
        return Fraction(a * a + b * b, self.den * self.den)

    def __str__(self) -> str:
        re, im = self.re, self.im
        sign = "+" if im >= 0 else "-"
        return f"{format_rational(re)}{sign}{format_rational(abs(im))}i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _gaussian(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i) / d from a canonical triple, taken as it is."""
    w = object.__new__(GaussianRational)
    w.re_num, w.im_num, w.den = a, b, d
    return w


def _lowest(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i) / d in lowest terms, for d > 0: the one normalization.
    `math.gcd(d, a, b)` stops at the first 1, so a result whose real
    part is already coprime to d costs one two-way gcd."""
    g = math.gcd(d, a, b)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _gaussian(a, b, d)


def _parts(x) -> tuple[int, int, int] | None:
    """(re_num, im_num, den) of a Gaussian, an int or a Fraction operand,
    read without building a Gaussian; None for any other type."""
    if isinstance(x, GaussianRational):
        return x.re_num, x.im_num, x.den
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    return None


def _quotient(a: int, b: int, d: int, c: int, e: int, f: int) -> GaussianRational:
    """((a + b i)/d) / ((c + e i)/f), by the conjugate of the divisor:
    (a + b i)(c - e i) f / (d (c^2 + e^2)), reduced once."""
    n = c * c + e * e
    if not n:
        raise ZeroDivisionError("division by zero Gaussian rational")
    return _lowest((a * c + b * e) * f, (b * c - a * e) * f, d * n)


I = _gaussian(0, 1, 1)


class Poly:
    """Univariate polynomial over the rationals.

    One canonical form: ``content * prim``.  `prim` is a tuple of integer
    coefficients, lowest degree first, with gcd 1, no trailing zero and
    the sign of the polynomial; `content` is a positive Fraction.  The
    zero polynomial has content 0 and an empty tuple.  By Gauss's lemma a
    product of primitive polynomials is primitive, so a product is one
    integer convolution and one content multiply."""

    __slots__ = ("content", "prim")

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self.content, self.prim = _canonical(
            [c.numerator * (den // c.denominator) for c in cs], 1, den)

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients, lowest degree first."""
        return tuple([self.content * c for c in self.prim])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.prim) - 1

    @property
    def is_zero(self) -> bool:
        return not self.prim

    def coefficient_signs(self) -> tuple[int, ...]:
        """The sign (-1, 0 or 1) of each coefficient, lowest degree first:
        those of the integer tuple, as the content is positive."""
        return tuple([(c > 0) - (c < 0) for c in self.prim])

    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.content * self.prim[-1]

    def monic(self) -> "Poly":
        lc = self.leading()
        return self if lc == 1 else self * (1 / lc)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.prim == other.prim and self.content == other.content

    def __hash__(self):
        return hash((self.content, self.prim))

    def __bool__(self):
        return not self.is_zero

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        """Over the common content gcd(numerators) / lcm(denominators)."""
        if other.is_zero or self.is_zero:
            return other if self.is_zero else self
        ca, cb = self.content, other.content
        g = math.gcd(ca.numerator, cb.numerator)
        den = math.lcm(ca.denominator, cb.denominator)
        ka = ca.numerator // g * (den // ca.denominator)
        kb = cb.numerator // g * (den // cb.denominator)
        a, b = self.prim, other.prim
        if len(a) < len(b):
            a, b, ka, kb = b, a, kb, ka
        out = [ka * c for c in a]
        for i, c in enumerate(b):
            out[i] += kb * c
        return _poly(*_canonical(out, g, den))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        # tuples come from lists: from generators, CPython 3.11 holds more peak memory
        return _poly(self.content, tuple([-c for c in self.prim]))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = self.content * other
            prim = self.prim if s > 0 else tuple([-c for c in self.prim])
            return _poly(abs(s), prim) if s else Poly()
        a, b = self.prim, other.prim
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return _poly(self.content * other.content, tuple(out))

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly"):
        """(q, r) with self = q*other + r and deg r < deg other."""
        quot, rem, scale = _pseudo_divmod(self.prim, other.prim)
        ca, cb = self.content, other.content
        return (_poly(*_canonical(quot, ca.numerator * cb.denominator,
                                  ca.denominator * cb.numerator * scale)),
                _poly(*_canonical(rem, ca.numerator, ca.denominator * scale)))

    def __mod__(self, other: "Poly") -> "Poly":
        _, rem, scale = _pseudo_divmod(self.prim, other.prim)
        c = self.content
        return _poly(*_canonical(rem, c.numerator, c.denominator * scale))

    def exact_div(self, other: "Poly") -> "Poly":
        """Quotient of an exact division; DivisionError on nonzero remainder."""
        quot, rem, scale = _pseudo_divmod(self.prim, other.prim)
        if any(rem):
            degree = max(i for i, c in enumerate(rem) if c)
            raise DivisionError(f"inexact polynomial division: remainder degree {degree}")
        ca, cb = self.content, other.content
        return _poly(*_canonical(quot, ca.numerator * cb.denominator,
                                 ca.denominator * cb.numerator * scale))

    def derivative(self) -> "Poly":
        c = self.content
        return _poly(*_canonical([i * a for i, a in enumerate(self.prim) if i],
                                 c.numerator, c.denominator))

    def __call__(self, x):
        """Evaluate at a rational n/d, or a Gaussian rational (a+bi)/d,
        by homogeneous Horner in plain ints, reduced once at the end."""
        if isinstance(x, GaussianRational):
            # homogeneous Horner in Gaussian integers: sum c_i (a+bi)^i d^(deg-i)
            a, b, d = x.re_num, x.im_num, x.den
            re = im = 0
            dk = 1
            for c in reversed(self.prim):
                re, im = re * a - im * b + c * dk, re * b + im * a
                dk *= d
            k = self.content
            return _lowest(k.numerator * re, k.numerator * im,
                           k.denominator * d ** max(self.degree, 0))
        x, c = Fraction(x), self.content
        return Fraction(c.numerator * _homogeneous(self.prim, x.numerator, x.denominator),
                        c.denominator * x.denominator ** max(self.degree, 0))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


def _canonical(ints: list[int], num: int, den: int) -> tuple[Fraction, tuple[int, ...]]:
    """(content, prim) of (num/den) * sum ints[i] z^i, for num, den > 0."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return Fraction(0), ()
    g = math.gcd(*ints)
    if g > 1:
        ints = [c // g for c in ints]
    return Fraction(num * g, den), tuple(ints)


def _poly(content: Fraction, prim: tuple[int, ...]) -> Poly:
    """A Poly from a canonical (content, prim) pair, taken as it is."""
    p = object.__new__(Poly)
    p.content, p.prim = content, prim
    return p


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """The one polynomial division, on integer coefficient lists (lowest
    degree first, b nonzero with no trailing zero): (quot, rem, scale)
    with scale * a = quot * b + rem and len(rem) = deg b.  A step whose
    head the leading integer of b does not divide first scales remainder
    and quotient by |lead| (a pseudo-division step); by Gauss's lemma an
    exact division of primitive polynomials never scales.  The caller
    reduces only the parts it reads."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    rem = list(a)
    lb = b[-1]
    m = abs(lb)
    quot = [0] * max(len(rem) - db, 0)
    scale = 1
    for i in range(len(rem) - 1, db - 1, -1):
        head = rem[i]
        if not head:
            continue
        f, r = divmod(head, lb)
        if r:
            scale *= m
            rem = [m * c for c in rem]
            quot = [m * c for c in quot]
            f = head if lb > 0 else -head
        off = i - db
        quot[off] = f
        for j, c in enumerate(b):
            rem[off + j] -= f * c
    return quot, rem[:db], scale


def _homogeneous(prim: Sequence[int], n: int, d: int) -> int:
    """d^deg * p(n/d) for the integer coefficients `prim` of p and d > 0:
    the sum of c_i n^i d^(deg - i), by homogeneous Horner in plain ints."""
    acc = 0
    dk = 1
    for c in reversed(prim):
        acc = acc * n + c * dk
        dk *= d
    return acc


X = Poly([0, 1])
ONE = Poly([1])


def format_poly(p: Poly) -> str:
    return "[" + ", ".join(format_rational(c) for c in p.coeffs) + "]"


# ---------------------------------------------------------------------
# gcd / lcm
# ---------------------------------------------------------------------


def _primitive(p: Poly) -> Poly:
    """The primitive part of p, content dropped (a positive multiple)."""
    return _poly(Fraction(1), p.prim) if p.prim else p


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor: the last member of the remainder
    sequence of (a, b), the higher degree first, made monic."""
    if a.is_zero or b.is_zero:
        raise ValueError("gcd of a zero polynomial is undefined here")
    if a == b:
        return a.monic()
    if a.degree < b.degree:
        a, b = b, a
    return _remainder_sequence(a, b)[-1].monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    """Monic least common multiple, satisfying gcd*lcm = monic(a*b)."""
    return (a.monic() * b.monic()).exact_div(poly_gcd(a, b))


def poly_lcm_many(polys: Sequence[Poly]) -> Poly:
    acc = polys[0].monic()
    for p in polys[1:]:
        acc = poly_lcm(acc, p)
    return acc


# ---------------------------------------------------------------------
# Sturm chains and root counting
# ---------------------------------------------------------------------


def _remainder_sequence(a: Poly, b: Poly) -> list[Poly]:
    """The signed remainder sequence a, b, -rem(a, b), ... with each
    member replaced by its primitive part, a positive scalar multiple of
    the classical entry, so coefficients stay manageable at high degree.
    It ends at a nonzero constant or at the last nonzero member (a
    multiple of gcd(a, b)).  Needs b nonzero."""
    seq = [_primitive(a), _primitive(b)]
    while seq[-1].degree >= 1:
        r = seq[-2] % seq[-1]
        if r.is_zero:
            break
        seq.append(_primitive(-r))
    return seq


def sturm_chain(p: Poly) -> list[Poly]:
    """A generalized Sturm chain for p: the remainder sequence of (p, p'),
    primitive integer members.  Sign-variation counts are identical to
    the classical chain's."""
    if p.degree < 1:
        return [p]
    return _remainder_sequence(p, p.derivative())


def _sign_at(p: Poly, x: Fraction) -> int:
    """Sign of p at x = n/d: that of d^deg p(n/d) on the primitive part."""
    acc = _homogeneous(p.prim, x.numerator, x.denominator)
    return (acc > 0) - (acc < 0)


def _sign_changes(values: Iterable[int]) -> int:
    changes = 0
    prev = 0
    for v in values:
        if not v:
            continue
        if prev and (v > 0) != (prev > 0):
            changes += 1
        prev = v
    return changes


def _variations_at(chain: Sequence[Poly], n: int, d: int) -> int:
    """Sign variations of the chain at n/d, d > 0: the one chain evaluator."""
    return _sign_changes([_homogeneous(c.prim, n, d) for c in chain])


def _variations_at_inf(chain: Sequence[Poly], positive: bool) -> int:
    # the signs of the leading terms; no member of a chain is zero
    return _sign_changes((1 if c.prim[-1] > 0 else -1)
                         * (1 if positive else (-1) ** c.degree)
                         for c in chain)


def count_real_roots(p: Poly, lo: Fraction | None = None,
                     hi: Fraction | None = None) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    `None` endpoints mean -/+ infinity.  The left endpoint must not be a
    root of p; the right endpoint may be.
    """
    if p.is_zero:
        raise ValueError("root counting needs a nonzero polynomial")
    if p.degree == 0:
        return 0
    chain = sturm_chain(p)
    if lo is not None and _sign_at(chain[0], lo) == 0:
        raise ValueError("left endpoint must not be a root")
    va = (_variations_at_inf(chain, False) if lo is None
          else _variations_at(chain, lo.numerator, lo.denominator))
    vb = (_variations_at_inf(chain, True) if hi is None
          else _variations_at(chain, hi.numerator, hi.denominator))
    return va - vb


def cauchy_root_bound(p: Poly) -> Fraction:
    """A rational B with every real root of p strictly inside (-B, B)."""
    m = max((abs(c) for c in p.prim[:-1]), default=0)
    return 1 + Fraction(m, abs(p.prim[-1]))


# ---------------------------------------------------------------------
# square-free decomposition (Yun's algorithm, characteristic zero)
# ---------------------------------------------------------------------


def square_free_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Monic pairwise-coprime factors g_i with p ~ prod g_i^i (scalars dropped)."""
    if p.is_zero:
        raise ValueError("zero polynomial has no square-free decomposition")
    p = p.monic()
    if p.degree == 0:
        return []
    return _yun(p, sturm_chain(p)[-1].monic())


def _yun(p: Poly, g: Poly) -> list[tuple[Poly, int]]:
    """Yun's loop for a monic p of degree >= 1, given g = monic gcd(p, p')."""
    if g.degree == 0:
        return [(p, 1)]
    out = []
    w = p.exact_div(g)
    y = p.derivative().exact_div(g)
    i = 1
    while w.degree > 0:
        z = y - w.derivative()
        gi = w.monic() if z.is_zero else poly_gcd(w, z)
        if gi.degree > 0:
            out.append((gi, i))
        w = w.exact_div(gi)
        y = Poly() if z.is_zero else z.exact_div(gi)
        i += 1
    return out


# ---------------------------------------------------------------------
# real-root isolation
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class RootInterval:
    """One distinct real root inside (lo, hi], or exactly at lo == hi."""

    lo: Fraction
    hi: Fraction
    multiplicity: int

    @property
    def exact(self) -> bool:
        return self.lo == self.hi


def _iroot_ceil(q: int, i: int) -> int:
    """The least integer r >= 0 with r^i >= q, for q >= 0 and i >= 1."""
    if i == 1 or q <= 1:
        return q
    r = 1 << -(-q.bit_length() // i)  # r^i >= 2^bits > q
    while True:  # Newton from above stays above the real root
        s = ((i - 1) * r + q // r ** (i - 1)) // i
        if s >= r:
            break
        r = s
    while r ** i < q:
        r += 1
    return r


def _root_radius(prim: Sequence[int]) -> int:
    """An integer R >= |z| for every complex root z of the integer
    polynomial `prim`: Fujiwara's bound 2 max_i |a_(n-i) / a_n|^(1/i),
    with each i-th root rounded up in integers.  Unless M, the maximum,
    is 0 (p = a_n z^n), no root reaches it: for |z| >= 2M the lower terms
    sum to at most (1 - 2^-n) |a_n z^n|."""
    n = len(prim) - 1
    lead = abs(prim[-1])
    r = 0
    for i in range(1, n + 1):
        c = abs(prim[n - i])
        if c > lead * r ** i:
            r = _iroot_ceil(-(-c // lead), i)
    return 2 * r


def _isolate_square_free(g: Poly, chain: Sequence[Poly]
                         ) -> list[tuple[Fraction, Fraction]]:
    """Disjoint half-open intervals (a, b], one distinct root of g in each,
    from g's Sturm chain.  A stack entry (a, b, V(a), V(b), d) is
    (a/d, b/d] with the chain's sign variations at its ends, so a split
    evaluates the chain at most once: at the midpoint, nudged toward a off
    the roots of g, ((k-1)a + b) / (kd).  It starts from the Cauchy
    bound, past every real root, where V is V(-inf) and V(+inf).  A split
    beyond the root radius R decides its count without the chain: past
    +R (-R) no root lies on the far side, so V there is V(b) (V(a)); an
    unnudged midpoint past R is no root, so it is not nudged either."""
    gp = g.prim
    bound = cauchy_root_bound(g)
    radius = _root_radius(gp)
    n, d = bound.numerator, bound.denominator
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(-n, n, _variations_at_inf(chain, False),
              _variations_at_inf(chain, True), d)]
    while stack:
        a, b, va, vb, d = stack.pop()
        cnt = va - vb
        if cnt == 1:
            out.append((Fraction(a, d), Fraction(b, d)))
        elif cnt > 1:
            k, m = 2, a + b
            if m > 2 * d * radius:
                vm = vb
            elif m < -2 * d * radius:
                vm = va
            else:
                while not _homogeneous(gp, m, k * d):
                    k += 1
                    m = (k - 1) * a + b
                vm = (va if m < -k * d * radius
                      else _variations_at(chain, m, k * d))
            stack.append((k * a, m, va, vm, k * d))
            stack.append((m, k * b, vm, vb, k * d))
    out.sort()
    return out


def _refine_interval(g: Poly, a: Fraction, b: Fraction,
                     width: Fraction) -> tuple[Fraction, Fraction]:
    """Bisection's answer for shrinking (a, b] to width <= `width`.

    g is a square-free factor with exactly one root r in (a, b] and
    g(a) != 0.  Let k be the number of halvings that bring b - a to
    `width` or below.  The answer is (r, r) when r is a point of the
    dyadic grid of (a, b] at a level <= k strictly inside (a, b), where
    bisection would test it; otherwise the level-k cell holding r (the
    last one when r = b).  It is found by quadratic interval refinement
    (Abbott 2006): a secant guess from the values at the cell's ends
    picks one of its N subcells, one or two sign tests confirm it, and
    N squares (up to level k) on success; on failure a bisection step
    follows and N falls to its square root.  A point is its index i on
    the level-k grid, (A 2^k + i L) / (D 2^k) for (a, b] = (A/D, (A+L)/D];
    each is evaluated at its lowest dyadic denominator, and the value
    scaled to the level-k one, so all values share one homogenizing
    factor.  Every tested point lies strictly inside (a, b), and a cell
    end is a or b or a tested point, so a grid root cannot be missed."""
    den = math.lcm(a.denominator, b.denominator)
    start = a.numerator * (den // a.denominator)
    span = b.numerator * (den // b.denominator) - start
    q = -(-span * width.denominator // (width.numerator * den))
    k = (q - 1).bit_length() if q > 1 else 0
    if not k:
        return a, b
    prim, deg = g.prim, g.degree

    def value(i: int) -> int:
        v = min((i & -i).bit_length() - 1, k) if i else k
        e = k - v
        return _homogeneous(prim, (start << e) + (i >> v) * span,
                            den << e) << (v * deg)

    def point(i: int) -> Fraction:
        return Fraction((start << k) + i * span, den << k)

    values = {0: value(0)}

    def probe(i: int) -> int:
        if i not in values:
            values[i] = value(i)
        return values[i]

    left = values[0] > 0
    lo, hi, t = 0, 1 << k, 2  # the cell (lo, hi] and N = 2^t
    while hi - lo > 1:
        t = min(t, (hi - lo).bit_length() - 1)
        step = (hi - lo) >> t
        c = 1
        if t > 1:  # the secant's subcell: r - lo ~ |f(lo)| / (|f(lo)| + |f(hi)|)
            fl, fh = abs(values[lo]), abs(probe(hi))
            c = min(max(((2 * fl << t) + fl + fh) // (2 * (fl + fh)), 1),
                    (1 << t) - 1)
        m = lo + c * step
        if not probe(m):
            return point(m), point(m)
        # the guessed cell is (m, m + step] if r is above m, else (m - step, m]
        other = m + step if (values[m] > 0) == left else m - step
        ok = other in (lo, hi)
        if not ok:
            if not probe(other):
                return point(other), point(other)
            ok = ((values[other] > 0) == left) != (other > m)
        if ok:
            lo, hi = min(m, other), max(m, other)
            t *= 2
        else:
            t = max(t // 2, 1)
            mid = (lo + hi) // 2
            if not probe(mid):
                return point(mid), point(mid)
            if (values[mid] > 0) == left:
                lo = mid
            else:
                hi = mid
    return point(lo), point(hi)


def isolate_real_roots(p: Poly, width: Fraction | None = None
                       ) -> tuple[RootInterval, ...]:
    """Isolate every distinct real root of p with its multiplicity, in
    increasing order.

    Roots of different square-free factors are refined until all isolating
    intervals are pairwise disjoint.  `width` additionally refines every
    interval below the given size (display quality only; no decision in
    this package depends on it).  The Sturm chain of p comes first: if it
    ends in a constant, p is square-free and the chain isolates its
    roots; otherwise its last member is gcd(p, p'), which starts Yun's
    loop, so the remainder sequence of (p, p') runs once.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if width is not None and width <= 0:
        # refinement would never reach a width <= 0 around an irrational root
        raise ValueError("root-interval width must be positive, got "
                         f"{format_rational(width)}")
    p = p.monic()
    if p.degree == 0:
        return ()
    chain = sturm_chain(p)
    if chain[-1].degree == 0:
        factors = [(p, 1, chain)]
    else:
        factors = [(g, mult, sturm_chain(g))
                   for g, mult in _yun(p, chain[-1].monic())]
    tagged: list[tuple[Fraction, Fraction, int, Poly]] = []
    for g, mult, g_chain in factors:
        tagged += [(a, b, mult, g) for a, b in _isolate_square_free(g, g_chain)]
    # disjointness across factors (roots themselves are pairwise distinct)
    changed = True
    while changed:
        changed = False
        tagged.sort(key=lambda t: (t[0], t[1]))
        for i in range(len(tagged) - 1):
            a1, b1, m1, g1 = tagged[i]
            a2, b2, m2, g2 = tagged[i + 1]
            if b1 > a2:  # overlap under the (lo, hi] reading
                if a1 != b1:
                    tagged[i] = (*_refine_interval(g1, a1, b1, (b1 - a1) / 2), m1, g1)
                if a2 != b2:
                    tagged[i + 1] = (*_refine_interval(g2, a2, b2, (b2 - a2) / 2), m2, g2)
                changed = True
    if width is not None:
        tagged = [(*_refine_interval(g, a, b, width), m, g)
                  for a, b, m, g in tagged]
        tagged.sort(key=lambda t: (t[0], t[1]))
    return tuple(RootInterval(a, b, m) for a, b, m, _ in tagged)


def has_only_real_simple_roots(p: Poly) -> bool:
    """True iff p is a nonzero constant, or has deg p distinct real roots.

    The Cauchy index of p'/p counts the distinct real roots of p (each
    is a pole of residue its multiplicity), so for deg p >= 1 this is
    exactly `strict_interlace(p, p')`."""
    if p.degree <= 0:
        return not p.is_zero
    return strict_interlace(p, p.derivative())


def _cauchy_index(p: Poly, q: Poly) -> int:
    """The Cauchy index of q/p over the whole real line: the number of
    real poles where q/p jumps from -inf to +inf minus the number where it
    jumps from +inf to -inf.  It equals V(-inf) - V(+inf), the sign
    variations of the leading coefficients along the signed remainder
    sequence of (p, q) (Basu-Pollack-Roy, Algorithms in Real Algebraic
    Geometry, Thm 2.58), so no point is ever evaluated.  p and q must be
    nonzero."""
    seq = _remainder_sequence(p, q)
    return _variations_at_inf(seq, False) - _variations_at_inf(seq, True)


def strict_interlace(p: Poly, q: Poly) -> bool:
    """Exact strict interlacing test for deg p = deg q + 1 = n.

    True iff both polynomials have only real, simple roots, they share no
    root, and between consecutive roots of p lies exactly one root of q
    (equivalently the merged root sequence strictly alternates p q p ... p).
    Degenerate case: deg q = 0 requires only that p has one real root.

    Decided by the Hermite-Biehler / Obreschkoff criterion: p and q
    interlace strictly exactly when the Cauchy index of q/p is +n or -n.
    An index of absolute value n needs n distinct real roots of p, each a
    pole of q/p whose residue q(r)/p'(r) has one common sign; as p'
    alternates in sign along the roots of p, q then changes sign between
    each consecutive pair, which places its n - 1 roots one per gap.  See
    Basu-Pollack-Roy, Algorithms in Real Algebraic Geometry, Thm 2.58, and
    Brown-Traub 1971 on subresultant remainder sequences.
    """
    if p.is_zero or q.is_zero:
        return False
    if p.degree != q.degree + 1:
        return False
    return abs(_cauchy_index(p, q)) == p.degree
