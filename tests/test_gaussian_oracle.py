"""`exactmath.GaussianRational`, one Gaussian integer over one
denominator, against the pair-of-Fractions oracle in `gaussian_oracle`.

Seeded chains of `+ - * /` mix Gaussian, int and Fraction operands on
either side, with zero, purely real and purely imaginary values drawn
often.  After every step both results must agree on `re`, `im`, `str`,
`==`, `hash`, `bool`, `conjugate` and `abs2`, division by zero must
raise in both, and the package value must be in its canonical form."""

import math
import operator
import random
from fractions import Fraction as F

from gaussian_oracle import PairGaussian
from treejacobi.exactmath import GaussianRational

OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def _rational(rng: random.Random) -> F:
    kind = rng.randrange(4)
    if kind == 0:
        return F(0)
    if kind == 1:
        return F(rng.randint(-4, 4))
    return F(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 6, 9, 12, 35)))


def _scalar(rng: random.Random):
    """An int or a Fraction operand, zero included."""
    x = _rational(rng)
    return int(x) if x.denominator == 1 and rng.random() < 0.5 else x


def _gaussian(rng: random.Random) -> tuple[GaussianRational, PairGaussian]:
    """Zero, purely real, purely imaginary or general, in equal shares."""
    kind = rng.randrange(4)
    re = F(0) if kind in (0, 2) else _rational(rng)
    im = F(0) if kind in (0, 1) else _rational(rng)
    return GaussianRational(re, im), PairGaussian(re, im)


def _agree(w, o: PairGaussian) -> None:
    assert type(w) is GaussianRational
    # canonical: den > 0 and gcd(re_num, im_num, den) = 1
    assert w.den > 0 and math.gcd(w.re_num, w.im_num, w.den) == 1, repr(w)
    assert type(w.re) is F and type(w.im) is F
    assert (w.re, w.im) == (o.re, o.im)
    assert str(w) == str(o)
    assert bool(w) == bool(o)
    assert hash(w) == hash(o)
    assert w == GaussianRational(o.re, o.im)
    conj = w.conjugate()
    assert (conj.re, conj.im, str(conj)) == (o.conjugate().re,
                                             o.conjugate().im,
                                             str(o.conjugate()))
    assert type(w.abs2()) is F and w.abs2() == o.abs2()


def _apply(op, x, y):
    """op(x, y), or ZeroDivisionError as a value."""
    try:
        return op(x, y)
    except ZeroDivisionError as exc:
        return exc


def test_gaussian_arithmetic_matches_pair_oracle():
    rng = random.Random(20261019)
    pool = [_gaussian(rng) for _ in range(8)]
    zero_divisions = 0
    for _ in range(3000):
        w, o = rng.choice(pool)
        op = rng.choice(OPS)
        side = rng.randrange(3)
        if side == 0:
            v, p = rng.choice(pool) if rng.random() < 0.7 else _gaussian(rng)
            got, want = _apply(op, w, v), _apply(op, o, p)
        else:
            s = _scalar(rng)
            if side == 1:
                got, want = _apply(op, w, s), _apply(op, o, s)
            else:
                got, want = _apply(op, s, w), _apply(op, s, o)
        if isinstance(want, ZeroDivisionError):
            assert isinstance(got, ZeroDivisionError)
            zero_divisions += 1
            continue
        _agree(got, want)
        _agree(-got, -want)
        # equality against every pool member and against scalars
        for v, p in pool:
            assert (got == v) == (want == p)
        s = _scalar(rng)
        assert (got == s) == (want == s) == (s == got)
        # the result replaces a pool slot, or a fresh draw once it passes 200 bits
        pool[rng.randrange(len(pool))] = (
            (got, want) if max(abs(got.re_num), abs(got.im_num), got.den)
            < 2 ** 200 else _gaussian(rng))
    assert zero_divisions > 0


def test_real_gaussian_hashes_as_its_rational():
    half = GaussianRational(F(1, 2), 0)
    assert half == F(1, 2) and hash(half) == hash(F(1, 2))
    assert {F(1, 2): 1}.get(half) == 1
    assert {3: "three"}.get(GaussianRational(3, 0)) == "three"
    assert len({GaussianRational(F(-2, 3), 0), F(-2, 3)}) == 1
