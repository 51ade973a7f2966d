"""Polynomials as tuples of Fraction coefficients: the slow reference
for `exactmath.Poly`.

This is the arithmetic `Poly` ran before it stored a content times a
primitive integer part: every coefficient is a Fraction, division is
long division by the leading coefficient over the field, and the gcd is
field Euclid.  It shares no code with the package, so a wrong content,
sign or pseudo-division step in `Poly` shows up as different
coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from treejacobi.exactmath import GaussianRational


class FracPoly:
    """Univariate polynomial over the rationals, coefficients lowest first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "FracPoly") -> "FracPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FracPoly(out)

    def __neg__(self) -> "FracPoly":
        return FracPoly([-c for c in self.coeffs])

    def __sub__(self, other: "FracPoly") -> "FracPoly":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FracPoly):
            return FracPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return FracPoly(out)

    def __divmod__(self, other: "FracPoly"):
        rem = list(self.coeffs)
        db = other.degree
        lc = other.coeffs[-1]
        quot = [Fraction(0)] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            f = rem[i] / lc
            quot[i - db] = f
            for j, oc in enumerate(other.coeffs):
                rem[i - db + j] -= f * oc
        return FracPoly(quot), FracPoly(rem)

    def monic(self) -> "FracPoly":
        return self * (1 / self.coeffs[-1])

    def derivative(self) -> "FracPoly":
        return FracPoly([i * c for i, c in enumerate(self.coeffs) if i > 0])

    def __call__(self, x):
        """Horner's rule in the field of x (Fraction or GaussianRational)."""
        acc = GaussianRational(0, 0) if isinstance(x, GaussianRational) else Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def gcd(a: FracPoly, b: FracPoly) -> FracPoly:
    """Monic gcd by Euclid over the rationals; a and b nonzero."""
    while b.coeffs:
        a, b = b, divmod(a, b)[1]
    return a.monic()


def lcm(a: FracPoly, b: FracPoly) -> FracPoly:
    """Monic lcm: monic(a * b) divided by the gcd."""
    return divmod((a * b).monic(), gcd(a, b))[0]


def format_coeffs(p: FracPoly) -> str:
    return "[" + ", ".join(f"{c.numerator}/{c.denominator}" for c in p.coeffs) + "]"
