"""`exactmath.Poly` (content times primitive integer part) against the
Fraction-coefficient reference of `fraction_poly_oracle`: every
operation gives the same coefficients, and every result is in the
canonical form."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraction_poly_oracle import FracPoly, format_coeffs, gcd, lcm
from treejacobi.errors import DivisionError
from treejacobi.exactmath import (GaussianRational, Poly, format_poly,
                                  poly_gcd, poly_lcm)

rationals = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
polys = st.lists(rationals, max_size=9)                  # degree <= 8
nonzero_polys = polys.filter(lambda cs: any(cs))
scalars = st.one_of(st.sampled_from([0, 1, -1, 2, -3]), rationals)
gaussians = st.builds(GaussianRational, rationals, rationals)


def assert_canonical(p: Poly):
    """content > 0 (0 only for the zero polynomial), primitive integer
    tuple with gcd 1 and no trailing zero."""
    assert type(p.content) is F
    assert all(type(c) is int for c in p.prim)
    if p.is_zero:
        assert p.content == 0 and p.prim == ()
    else:
        assert p.content > 0 and p.prim[-1] != 0 and math.gcd(*p.prim) == 1


def assert_same(p: Poly, f: FracPoly):
    assert_canonical(p)
    assert p.coeffs == f.coeffs
    assert all(type(c) is F for c in p.coeffs)
    assert format_poly(p) == format_coeffs(f)
    assert p == Poly(f.coeffs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(polys, polys, nonzero_polys, scalars, rationals, gaussians)
@example([F(0), F(0)], [], [F(1)], 0, F(0), GaussianRational(0, 1))  # Poly([0, 0]), p * 0
@example([F(1), F(0), F(3)], [F(1)], [F(1), F(2)], -1, F(1, 2),      # 2 does not divide 3
         GaussianRational(F(1, 2), F(-1, 3)))
@example([F(5), F(-1), F(4), F(7)], [F(1, 2)], [F(1), F(0), F(-3, 2)], F(-2, 3),
         F(-3), GaussianRational(2, 2))                               # lead -3 in prim
def test_poly_matches_fraction_oracle(a, b, d, s, x, w):
    pa, pb, pd = Poly(a), Poly(b), Poly(d)
    fa, fb, fd = FracPoly(a), FracPoly(b), FracPoly(d)
    assert_same(pa, fa)
    assert_same(pa + pb, fa + fb)
    assert_same(pa - pb, fa - fb)
    assert_same(-pa, -fa)
    assert_same(pa * pb, fa * fb)
    assert_same(pa * s, fa * s)
    assert_same(s * pa, fa * s)
    assert_same(pa.derivative(), fa.derivative())

    fq, fr = divmod(fa, fd)
    q, r = divmod(pa, pd)
    assert_same(q, fq)
    assert_same(r, fr)
    assert_same(pa % pd, fr)
    assert_same((pa * pd).exact_div(pd), fa)
    if fr.coeffs:
        with pytest.raises(DivisionError):
            pa.exact_div(pd)
    else:
        assert_same(pa.exact_div(pd), fq)

    assert pa(x) == fa(x) and type(pa(x)) is F
    assert pa(w) == fa(w) and type(pa(w)) is GaussianRational
    assert pa(int(x)) == fa(F(int(x)))

    assert_same(pd.monic(), fd.monic())
    if fa.coeffs:
        assert_same(poly_gcd(pa, pd), gcd(fa, fd))
        assert_same(poly_lcm(pa, pd), lcm(fa, fd))
