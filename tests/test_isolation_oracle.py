"""`isolate_real_roots` (bisection on integer numerators over one
denominator) against the Sturm-count isolation of `sturm_oracle`: the
same intervals, exactly."""

import math
import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import h23, h24
from fraction_poly_oracle import FracPoly
from sturm_oracle import sturm_isolate, sturm_isolate_square_free
from treejacobi import exactmath
from treejacobi.exactmath import (ONE, Poly, RootInterval, RootSet, _sign_at,
                                  isolate_real_roots, square_free_decomposition)
from treejacobi.treepoly import family

WIDTHS = (None, F(1, 1000), F(1, 2 ** 32))
# chain evaluations isolating the square-free factors of h23's family:
# two per factor at its Cauchy bounds plus one per split
H23_CHAIN_EVALUATIONS = 213


def oracle_root_set(p: Poly, width) -> RootSet:
    return RootSet(tuple(RootInterval(a, b, m) for a, b, m in
                         sturm_isolate(square_free_decomposition(p), width)))


def assert_matches_oracle(p: Poly, widths=WIDTHS) -> RootSet:
    for width in widths:
        got = isolate_real_roots(p, width)
        assert got == oracle_root_set(p, width), (p, width)
    return got


def _family_polys(tree) -> set[Poly]:
    fam = family(tree)
    polys = {fam.up_poly[v] for v in fam.vertices()}
    polys |= {fam.self_poly[v] for v in fam.vertices()}
    return polys - {ONE}


def test_family_polynomials_match_oracle():
    """Every distinct up- and self-polynomial of h23 at every width, and
    of h24 unrefined (the oracle pays a whole chain evaluation per
    halving, so refining h24's factors costs it seconds)."""
    for p in _family_polys(h23()):
        assert_matches_oracle(p)
    big = _family_polys(h24())
    assert len(big) > 40
    for p in big:
        assert_matches_oracle(p, (None,))


def _power(p: Poly, k: int) -> Poly:
    acc = ONE
    for _ in range(k):
        acc = acc * p
    return acc


def _factor(rng: random.Random) -> Poly:
    """An integer linear factor, or a quadratic irreducible over Q (real
    irrational roots or none)."""
    if rng.random() < 0.5:
        return Poly([rng.randint(-9, 9), rng.choice([1, 2, 3, -2])])
    while True:
        b, c = rng.randint(-6, 6), rng.randint(-9, 9)
        disc = b * b - 4 * c
        if disc < 0 or math.isqrt(disc) ** 2 != disc:
            return Poly([c, b, 1])


def test_random_products_with_repeated_factors_match_oracle():
    rng = random.Random(2024)
    repeated = 0
    for _ in range(60):
        p = ONE
        for _ in range(rng.randint(1, 4)):
            p = p * _power(_factor(rng), rng.randint(1, 3))
        rs = assert_matches_oracle(p)
        repeated += any(r.multiplicity > 1 for r in rs.roots)
    assert repeated > 10


def test_dyadic_roots_on_bisection_midpoints():
    """Roots +-(2^k - 1) / 2^j.  A factor x - r with |r| = 2^k - 1 has
    root bound 2^k, so r lies on the dyadic grid that halving (-2^k, 2^k]
    walks, and refinement returns the exact interval (m, m); factors
    that merge, or divide by 2^j, land on the grid only sometimes."""
    rng = random.Random(7)
    exact = 0
    for _ in range(40):
        p = ONE
        for _ in range(rng.randint(1, 3)):
            r = F(rng.choice([1, -1]) * (2 ** rng.randint(0, 5) - 1),
                  2 ** rng.randint(0, 3))
            p = p * _power(Poly([-r, 1]), rng.randint(1, 3))
        rs = assert_matches_oracle(p)
        exact += sum(r.exact for r in rs.roots)
    assert exact > 10


def test_widths_that_are_not_powers_of_two():
    """Widths off the dyadic grid, and widths at or above an interval's
    own width, which must leave it unhalved."""
    widths = (F(3, 7), F(1, 10 ** 6), F(10 ** 6))
    for p in _family_polys(h23()):
        assert_matches_oracle(p, widths)
    rng = random.Random(11)
    for _ in range(20):
        assert_matches_oracle(_factor(rng) * _factor(rng) * _factor(rng),
                              widths)


def test_width_equal_to_an_interval_width_stops_there():
    """7z^2 - 17 has Cauchy bound 24/7, so its two roots start in
    (-24/7, 0] and (0, 24/7]: at width 24/7 nothing is halved, and at
    3/7 each interval is halved exactly three times, ending at width 3/7."""
    p = Poly([-17, 0, 7])
    start = [(F(-24, 7), F(0)), (F(0), F(24, 7))]
    assert [(r.lo, r.hi) for r in isolate_real_roots(p).roots] == start
    assert [(r.lo, r.hi) for r in
            isolate_real_roots(p, F(24, 7)).roots] == start
    rs = assert_matches_oracle(p, (F(24, 7), F(12, 7), F(3, 7)))
    assert [r.hi - r.lo for r in rs.roots] == [F(3, 7), F(3, 7)]
    assert [(r.lo, r.hi) for r in rs.roots] == [(F(-12, 7), F(-9, 7)),
                                                 (F(9, 7), F(12, 7))]


def test_rational_roots_on_midpoints_and_first_split():
    """z^2 - z: the first split, the midpoint 0 of (-2, 2], is a root, so
    the split is nudged to -2/3; refinement then meets both roots on a
    midpoint and returns them as exact intervals."""
    p = Poly([0, -1, 1])
    assert [(r.lo, r.hi) for r in isolate_real_roots(p).roots] == [
        (F(-2, 3), F(2, 3)), (F(2, 3), F(2))]
    rs = assert_matches_oracle(p, (F(1, 1000), F(3, 7)))
    assert [(r.lo, r.hi) for r in rs.roots] == [(0, 0), (1, 1)]
    # z (z + 4) (4z + 11) has Cauchy bound 12 and vanishes at the
    # midpoint 0 of (-12, 12] and at the next try -12 + 24/3 = -4, so the
    # first split is -12 + 24/4 = -6
    q = Poly([0, 44, 27, 4])
    splits = []
    sturm_isolate_square_free(q, splits)
    assert splits[0] == F(-6)
    assert assert_matches_oracle(q).count() == 3


def test_one_chain_evaluation_per_split(monkeypatch):
    """Each square-free factor of h23's family evaluates its Sturm chain
    at the two ends of its Cauchy interval and once per split, at the
    split points the Sturm-count oracle makes, in the same order."""
    points = []
    evaluate = exactmath._variations_at

    def counted(chain, n, d):
        points.append(F(n, d))
        return evaluate(chain, n, d)

    monkeypatch.setattr(exactmath, "_variations_at", counted)
    total = 0
    for p in _family_polys(h23()):
        for g, _ in square_free_decomposition(p):
            splits = []
            sturm_isolate_square_free(g, splits)
            points.clear()
            exactmath._isolate_square_free(g)
            bound = exactmath.cauchy_root_bound(g)
            assert points == [-bound, bound] + splits
            total += len(points)
    assert total == H23_CHAIN_EVALUATIONS


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=12),
       st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
def test_sign_at_matches_fraction_horner(coeffs, num, den):
    x = F(num, den)
    value = FracPoly(coeffs)(x)
    assert _sign_at(Poly(coeffs), x) == (value > 0) - (value < 0)
