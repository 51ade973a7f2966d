import random
from fractions import Fraction as F

import pytest

from treejacobi.errors import DivisionError, ParseError
from treejacobi.exactmath import (GaussianRational, I, ONE, Poly, X,
                                  count_real_roots, format_poly,
                                  format_rational, has_only_real_simple_roots,
                                  isolate_real_roots, parse_gaussian,
                                  parse_rational, poly_gcd,
                                  poly_lcm, square_free_decomposition,
                                  strict_interlace)


def parse_poly(text: str) -> Poly:
    """Read back a `format_poly` literal such as "[-2/1, 0/1, 1/1]"."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"not a polynomial literal: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return Poly()
    return Poly([parse_rational(part) for part in body.split(",")])


def rand_poly(rng, max_deg, nonzero=True):
    deg = rng.randint(0 if not nonzero else 0, max_deg)
    coeffs = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg + 1)]
    p = Poly(coeffs)
    if nonzero and p.is_zero:
        return ONE
    return p


def test_product_and_exact_division():
    zm1, zp1 = X - ONE, X + ONE
    assert zm1 * zp1 == Poly([-1, 0, 1])
    assert Poly([-1, 0, 1]).exact_div(zm1) == zp1
    assert (X * X - 2 * ONE) % X == Poly([-2])
    with pytest.raises(DivisionError):
        (X * X - 2 * ONE).exact_div(zm1)


def test_gcd_lcm_examples():
    a, b = X * X - ONE, X - ONE
    assert poly_gcd(a, b) == X - ONE and poly_lcm(a, b) == X * X - ONE
    a, b = X - ONE, X - ONE
    assert poly_gcd(a, b) == X - ONE and poly_lcm(a, b) == X - ONE
    a, b = X, X - 2 * ONE
    assert poly_gcd(a, b) == ONE
    assert poly_lcm(a, b) == X * (X - 2 * ONE)
    with pytest.raises(ValueError):
        poly_gcd(Poly(), X)


def test_gcd_lcm_product_identity_random():
    rng = random.Random(11)
    for _ in range(1000):
        a = rand_poly(rng, 8)
        b = rand_poly(rng, 8)
        g, l = poly_gcd(a, b), poly_lcm(a, b)
        assert g * l == (a * b).monic()
        assert (a % g).is_zero and (b % g).is_zero
        assert (l % a.monic()).is_zero and (l % b.monic()).is_zero


def test_isolation_examples():
    rs = isolate_real_roots(X)
    assert len(rs) == 1 and rs[0].multiplicity == 1
    assert rs[0].lo <= 0 <= rs[0].hi

    rs = isolate_real_roots((X - ONE) * (X - ONE))
    assert len(rs) == 1 and rs[0].multiplicity == 2

    p = X * X - 2 * ONE
    rs = isolate_real_roots(p)
    assert len(rs) == 2
    neg, pos = rs
    assert neg.hi <= pos.lo  # disjoint, ordered
    for r in (neg, pos):     # each interval brackets a sign change of p
        assert p(r.lo) * p(r.hi) < 0
    # the two simple roots counted by Sturm sign changes at the endpoints
    assert count_real_roots(p, F(1), F(2)) == 1
    assert count_real_roots(p, F(-2), F(-1)) == 1
    assert count_real_roots(p, F(-1), F(1)) == 0


def test_isolation_refinement_width():
    rs = isolate_real_roots(X * X - 2 * ONE, width=F(1, 2 ** 20))
    for r in rs:
        assert r.hi - r.lo <= F(1, 2 ** 20)
        # interval still brackets sqrt(2): check sign change
        p = X * X - 2 * ONE
        assert r.lo == r.hi or p(r.lo) * p(r.hi) <= 0


def test_sturm_halfopen_endpoint_root():
    p = X * (X - ONE) * (X - 2 * ONE)
    assert count_real_roots(p, F(-1), F(0)) == 1   # root at the right end
    assert count_real_roots(p, F(-1, 2), F(3, 2)) == 2
    assert count_real_roots(p) == 3
    # repeated factors: the chain ends at the gcd, counts stay distinct
    q = (X - ONE) * (X - ONE) * X
    assert count_real_roots(q) == 2
    assert count_real_roots(q, F(1, 2), F(2)) == 1


def _mult_at_point(p, r):
    k = 0
    while not p.is_zero and p(r) == 0:
        p = p.exact_div(Poly([-r, 1]))
        k += 1
    return k


def _mult_in(p, lo, hi):
    """Root count of p with multiplicity in the half-open (lo, hi]."""
    total = 0
    for g, mult in square_free_decomposition(p):
        if lo is not None and g(lo) == 0:
            g = g.exact_div(Poly([-lo, 1]))  # boundary root is excluded
        if g.degree >= 1:
            total += mult * count_real_roots(g, lo, hi)
    return total


def test_isolation_merge_property():
    rng = random.Random(23)
    for _ in range(60):
        p = rand_poly(rng, 6)
        q = rand_poly(rng, 6)
        if p.degree < 1 or q.degree < 1:
            continue
        prod = p * q
        rs = isolate_real_roots(prod)
        for r in rs:
            if r.lo == r.hi:
                expected = _mult_at_point(p, r.lo) + _mult_at_point(q, r.lo)
            else:
                expected = _mult_in(p, r.lo, r.hi) + _mult_in(q, r.lo, r.hi)
            assert r.multiplicity == expected
        assert sum(r.multiplicity for r in rs) == _mult_in(prod, None, None)


def test_square_free_reconstruction():
    rng = random.Random(5)
    for _ in range(40):
        p = rand_poly(rng, 4)
        q = rand_poly(rng, 3)
        if p.degree < 1 or q.degree < 1:
            continue
        prod = (p * p * q).monic()
        acc = ONE
        for g, mult in square_free_decomposition(prod):
            for _ in range(mult):
                acc = acc * g
        assert acc == prod


def test_eval_conjugation_random():
    rng = random.Random(3)
    for _ in range(50):
        p = rand_poly(rng, 7)
        w = GaussianRational(F(rng.randint(-5, 5), rng.randint(1, 3)),
                             F(rng.randint(-5, 5), rng.randint(1, 3)))
        assert p(w.conjugate()) == p(w).conjugate()


def test_interlace_examples():
    assert strict_interlace(X * X - 2 * ONE, X)
    assert strict_interlace(X - ONE, ONE)  # degenerate degree-0 case
    assert not strict_interlace(X * X - ONE, X - 5 * ONE)  # 5 outside (-1,1)
    assert not strict_interlace(X * X - ONE, X * X)        # degree gap wrong
    assert not strict_interlace((X - ONE) * (X - ONE), X)  # repeated root
    assert not strict_interlace(X * X + ONE, X)            # complex roots
    assert not strict_interlace((X - ONE) * X, X - ONE)    # shared root


def test_interlace_shifted_chebyshev_like():
    # roots of p at -2, 0, 2 and of q at -1, 1
    p = X * (X - 2 * ONE) * (X + 2 * ONE)
    q = (X - ONE) * (X + ONE)
    assert strict_interlace(p, q)
    q_bad = (X - ONE) * (X - 3 * ONE)
    assert not strict_interlace(p, q_bad)


def test_real_simple_detection():
    assert has_only_real_simple_roots(X * X - 2 * ONE)
    assert not has_only_real_simple_roots(X * X + ONE)
    assert not has_only_real_simple_roots((X - ONE) * (X - ONE))
    assert has_only_real_simple_roots(ONE)
    assert not has_only_real_simple_roots(Poly())


def test_rational_text_round_trip():
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational("5") == F(5)
    assert format_rational(F(5)) == "5/1"
    with pytest.raises(ParseError):
        parse_rational("3/4/5")
    with pytest.raises(ParseError):
        parse_rational("x")
    # CPython's str of an int stops at 4,300 digits; the text format does
    # not, in either part or sign, and a Gaussian's parts follow it
    big = 10 ** 4400
    assert format_rational(F(-big, 3)) == "-1" + "0" * 4400 + "/3"
    assert format_rational(F(1, big - 1)) == "1/" + "9" * 4400
    assert str(GaussianRational(F(0), F(-big))) == "0/1-1" + "0" * 4400 + "/1i"


def test_gaussian_text_round_trip():
    w = parse_gaussian("0/1+1/1i")
    assert w == I
    assert parse_gaussian("-3/4") == GaussianRational(F(-3, 4), F(0))
    assert parse_gaussian("1/2-2/3i") == GaussianRational(F(1, 2), F(-2, 3))
    assert parse_gaussian("2i") == GaussianRational(F(0), F(2))
    assert parse_gaussian(str(w)) == w
    with pytest.raises(ParseError):
        parse_gaussian("")
    with pytest.raises(ParseError):
        parse_gaussian("i+1")


def test_gaussian_field_ops():
    w = GaussianRational(F(1, 2), F(-3, 4))
    assert w.conjugate().conjugate() == w
    assert w.abs2() == F(13, 16)
    assert (w / w) == GaussianRational(F(1), F(0))
    assert (1 / w) * w == GaussianRational(F(1), F(0))
    assert I * I == GaussianRational(F(-1), F(0))
    with pytest.raises(ZeroDivisionError):
        w / GaussianRational(F(0), F(0))


def test_poly_text_round_trip():
    p = X * X - 2 * ONE
    assert format_poly(p) == "[-2/1, 0/1, 1/1]"
    assert parse_poly("[-2/1, 0/1, 1/1]") == p
    assert parse_poly("[]").is_zero
    with pytest.raises(ParseError):
        parse_poly("1, 2")
