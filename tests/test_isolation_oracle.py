"""`isolate_real_roots` (splits on integer numerators over one
denominator, settled by the root radius where it can, and refinement by
quadratic interval refinement) against the Sturm-count isolation and
bisection of `sturm_oracle`: the same intervals, exactly."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import h23, h24, seeded_path
from fraction_poly_oracle import FracPoly
from sturm_oracle import (_integer_chain, sturm_isolate,
                          sturm_isolate_square_free, sturm_refine)
from treejacobi import exactmath
from treejacobi.exactmath import (ONE, X, Poly, RootInterval,
                                  _refine_interval, _root_radius, _sign_at,
                                  isolate_real_roots, square_free_decomposition,
                                  sturm_chain)
from treejacobi.treepoly import family

WIDTHS = (None, F(1, 1000), F(1, 2 ** 32))
# chain evaluations isolating the square-free factors of h23's family
# and the two cubics of the test below, one per split inside the root
# radius, and the splits outside it, which evaluate nothing
CHAIN_EVALUATIONS = 113
SKIPPED_SPLITS = 64


def oracle_root_set(p: Poly, width) -> tuple[RootInterval, ...]:
    return tuple(RootInterval(a, b, m) for a, b, m in
                 sturm_isolate(square_free_decomposition(p), width))


def assert_matches_oracle(p: Poly, widths=WIDTHS) -> tuple[RootInterval, ...]:
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
        repeated += any(r.multiplicity > 1 for r in rs)
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
        exact += sum(r.exact for r in rs)
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
    assert [(r.lo, r.hi) for r in isolate_real_roots(p)] == start
    assert [(r.lo, r.hi) for r in
            isolate_real_roots(p, F(24, 7))] == start
    rs = assert_matches_oracle(p, (F(24, 7), F(12, 7), F(3, 7)))
    assert [r.hi - r.lo for r in rs] == [F(3, 7), F(3, 7)]
    assert [(r.lo, r.hi) for r in rs] == [(F(-12, 7), F(-9, 7)),
                                                 (F(9, 7), F(12, 7))]


def test_rational_roots_on_midpoints_and_first_split():
    """z^2 - z: the first split, the midpoint 0 of (-2, 2], is a root, so
    the split is nudged to -2/3; refinement then meets both roots on a
    midpoint and returns them as exact intervals."""
    p = Poly([0, -1, 1])
    assert [(r.lo, r.hi) for r in isolate_real_roots(p)] == [
        (F(-2, 3), F(2, 3)), (F(2, 3), F(2))]
    rs = assert_matches_oracle(p, (F(1, 1000), F(3, 7)))
    assert [(r.lo, r.hi) for r in rs] == [(0, 0), (1, 1)]
    # z (z + 4) (4z + 11) has Cauchy bound 12 and vanishes at the
    # midpoint 0 of (-12, 12] and at the next try -12 + 24/3 = -4, so the
    # first split is -12 + 24/4 = -6
    q = Poly([0, 44, 27, 4])
    splits = []
    sturm_isolate_square_free(q, splits)
    assert splits[0] == F(-6)
    assert len(assert_matches_oracle(q)) == 3


def _cubic(*roots: int) -> Poly:
    p = ONE
    for r in roots:
        p = p * Poly([-r, 1])
    return p


def test_chain_evaluated_only_at_splits_inside_the_root_radius(monkeypatch):
    """Each square-free factor evaluates its Sturm chain once per split of
    the Sturm-count oracle at a point m with |m| <= R, the root radius,
    in the oracle's order, and nowhere else: the ends of the Cauchy
    interval are read at infinity, and a split past R is settled by R.
    The two cubics split once exactly at -R and at +R, where the chain is
    still evaluated."""
    points = []
    evaluate = exactmath._variations_at

    def counted(chain, n, d):
        points.append(F(n, d))
        return evaluate(chain, n, d)

    monkeypatch.setattr(exactmath, "_variations_at", counted)
    total = skipped = 0
    factors = [g for p in _family_polys(h23())
               for g, _ in square_free_decomposition(p)]
    for g in factors + [_cubic(-5, -1, 3), _cubic(-3, 1, 5)]:
        splits = []
        sturm_isolate_square_free(g, splits)
        points.clear()
        exactmath._isolate_square_free(g, sturm_chain(g))
        radius = _root_radius(g.prim)
        assert points == [m for m in splits if abs(m) <= radius]
        total += len(points)
        skipped += len(splits) - len(points)
    assert _root_radius(_cubic(-5, -1, 3).prim) == 8
    assert (total, skipped) == (CHAIN_EVALUATIONS, SKIPPED_SPLITS)


def _gaussian_pair(re: int, im: int) -> Poly:
    """(z - w)(z - conj w) for w = re + im i."""
    return Poly([re * re + im * im, -2 * re, 1])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-60, 60), st.integers(1, 9)),
                max_size=5),
       st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 12)),
                max_size=3),
       st.integers(0, 4), st.integers(1, 7))
def test_root_radius_bounds_every_root(reals, pairs, zero_power, lead):
    """R >= |z| for every root of a product of rational real roots p/q,
    Gaussian-integer conjugate pairs and z^k, times a leading coefficient;
    z^k alone has only the root 0, and pairs with no real part leave
    zero middle coefficients."""
    p = Poly([lead])
    for _ in range(zero_power):
        p = p * X
    for num, den in reals:
        p = p * Poly([-num, den])
    for re, im in pairs:
        p = p * _gaussian_pair(re, im)
    if p.degree < 1:
        return
    radius = _root_radius(p.prim)
    assert isinstance(radius, int) and radius >= 0
    assert all(abs(F(num, den)) <= radius for num, den in reals)
    assert all(re * re + im * im <= radius * radius for re, im in pairs)


def test_root_radius_examples():
    """Rounded-up Fujiwara bounds, and roots close to them: the real root
    10 of (z - 10)(z + 5)^2 = z^3 - 75 z - 250 lies above R / 2 = 9, and
    the pair +-6i of z^2 + 36 reaches R / 2."""
    assert _root_radius(X.prim) == 0
    assert _root_radius((X * X * X).prim) == 0
    assert _root_radius(Poly([-7, 2]).prim) == 8       # 2z - 7
    assert _root_radius(Poly([36, 0, 1]).prim) == 12   # z^2 + 36
    assert _root_radius(Poly([-250, -75, 0, 1]).prim) == 18
    assert _root_radius(Poly([-1, 0, 0, 0, 0, 3]).prim) == 2  # 3z^5 - 1


def _grid_point(a: F, b: F, level: int, i: int) -> F:
    return a + (b - a) * i / 2 ** level


def assert_refines_as_bisection(g: Poly, a: F, b: F, width: F):
    chain = _integer_chain(g)
    assert _refine_interval(g, a, b, width) == sturm_refine(g, chain, a, b,
                                                            width)


@pytest.mark.parametrize("a, b", [(F(-3), F(5)), (F(2, 3), F(9, 7)),
                                  (F(-1, 10 ** 6), F(0))])
def test_refine_zero_on_the_grid_at_every_level(a, b):
    """A rational root on the dyadic grid of (a, b] at each level j <= k
    (k = 12 halvings) is returned as (r, r), as bisection tests it; one
    level below the grid it falls inside a level-k cell.  The other
    factor, z^2 + 1 or a far real root, makes the secant guess miss."""
    width = (b - a) / 2 ** 12
    for level in range(1, 14):
        odd = {1, 2 ** level - 1, 2 ** (level - 1) + 1} if level > 1 else {1}
        for i in sorted(odd):
            r = _grid_point(a, b, level, i)
            for other in (Poly([1, 0, 1]), Poly([-b - 50, 1])):
                g = Poly([-r.numerator, r.denominator]) * other
                assert_refines_as_bisection(g, a, b, width)
                lo, hi = _refine_interval(g, a, b, width)
                assert (lo == hi == r) == (level <= 12)


def test_refine_root_at_b_keeps_the_last_cell():
    """A root at b is never tested, so the answer is the last level-k
    cell (b - w, b], not (b, b)."""
    for a, b in ((F(-3), F(5)), (F(2, 3), F(9, 7)), (F(-7, 2), F(-1, 3))):
        for other in (ONE, Poly([1, 0, 1]), Poly([-b - 3, 1])):
            g = Poly([-b.numerator, b.denominator]) * other
            for k in (1, 2, 5, 32):
                width = (b - a) / 2 ** k
                assert_refines_as_bisection(g, a, b, width)
                assert _refine_interval(g, a, b, width) == (b - width, b)


def test_refine_every_width_from_half_to_2_64():
    """Widths 2^-1 .. 2^-64 and 3/7 on the isolating intervals of small
    irrational and rational factors, and a sample of them on h23's top
    factor (the oracle pays a chain evaluation per halving)."""
    every = [F(1, 2 ** j) for j in range(1, 65)] + [F(3, 7)]
    sample = [F(1, 2 ** j) for j in (1, 2, 3, 7, 16, 31, 32, 33, 64)]
    top = family(h23()).up_poly[h23().top]
    for p, widths in ((Poly([-2, 0, 1]), every), (Poly([-7, 0, 0, 3]), every),
                      (Poly([0, -1, 1]), every), (top, sample + [F(3, 7)])):
        for g, _ in square_free_decomposition(p):
            chain = sturm_chain(g)
            for a, b in exactmath._isolate_square_free(g, chain):
                for width in widths:
                    assert_refines_as_bisection(g, a, b, width)


def test_refinement_sign_tests_per_root(monkeypatch):
    """At 2^-32, quadratic interval refinement averages at most 20 sign
    tests per root on the factors of h23's and p14's families (bisection
    takes about 33)."""
    tests = [0]
    evaluate = exactmath._homogeneous

    def counted(prim, n, d):
        tests[0] += 1
        return evaluate(prim, n, d)

    for tree in (h23(), seeded_path(14)):
        roots = 0
        tests[0] = 0
        for p in _family_polys(tree):
            for g, _ in square_free_decomposition(p):
                cells = exactmath._isolate_square_free(g, sturm_chain(g))
                monkeypatch.setattr(exactmath, "_homogeneous", counted)
                for a, b in cells:
                    _refine_interval(g, a, b, F(1, 2 ** 32))
                monkeypatch.setattr(exactmath, "_homogeneous", evaluate)
                roots += len(cells)
        assert tests[0] <= 20 * roots, (tests[0], roots)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=12),
       st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
def test_sign_at_matches_fraction_horner(coeffs, num, den):
    x = F(num, den)
    value = FracPoly(coeffs)(x)
    assert _sign_at(Poly(coeffs), x) == (value > 0) - (value < 0)
