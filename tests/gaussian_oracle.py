"""Gaussian rationals as a pair of Fractions: the slow reference for
`exactmath.GaussianRational`.

This is the representation `exactmath` used before it kept one Gaussian
integer over one denominator: every part is a `fractions.Fraction`, so
the stdlib reduces each part on its own and no gcd is written here.  It
shares no code with the package.  Its hash follows the package's
contract: a real value hashes as the Fraction it equals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class PairGaussian:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def of(value) -> "PairGaussian":
        if isinstance(value, PairGaussian):
            return value
        return PairGaussian(Fraction(value), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        o = PairGaussian.of(other)
        return PairGaussian(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return PairGaussian(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-PairGaussian.of(other))

    def __rsub__(self, other):
        return PairGaussian.of(other) + (-self)

    def __mul__(self, other):
        o = PairGaussian.of(other)
        return PairGaussian(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = PairGaussian.of(other)
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return PairGaussian((self.re * o.re + self.im * o.im) / d,
                            (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        return PairGaussian.of(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PairGaussian.of(other)
        if not isinstance(other, PairGaussian):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def conjugate(self) -> "PairGaussian":
        return PairGaussian(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __str__(self) -> str:
        sign = "+" if self.im >= 0 else "-"
        return f"{_text(self.re)}{sign}{_text(abs(self.im))}i"
