"""The Cauchy-index `strict_interlace` against the slow isolation oracle.

`isolation_interlace` is the earlier decision procedure, kept here as
the reference: isolate the roots of both polynomials with Sturm counts
(`sturm_oracle`), refine the intervals until no two overlap, and read
off the merged order.  `real_simple_oracle` is the earlier
`has_only_real_simple_roots` (a gcd and a Sturm count), the reference
for the one Cauchy index that now decides it.
"""

import random
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import exhaustive_corpus, h24, random_corpus
from sturm_oracle import sturm_isolate
from treejacobi.exactmath import (ONE, Poly, X, _cauchy_index,
                                  cauchy_root_bound, count_real_roots,
                                  has_only_real_simple_roots, poly_gcd,
                                  strict_interlace)
from treejacobi.treepoly import family


def real_simple_oracle(p: Poly) -> bool:
    """A nonzero constant, or square-free (gcd(p, p') constant) with deg p
    distinct real roots by a Sturm count."""
    if p.degree <= 0:
        return not p.is_zero
    return (poly_gcd(p, p.derivative()).degree == 0
            and count_real_roots(p) == p.degree)


def isolation_interlace(p: Poly, q: Poly) -> bool:
    if p.is_zero or q.is_zero:
        return False
    if p.degree != q.degree + 1:
        return False
    if not real_simple_oracle(p) or not real_simple_oracle(q):
        return False
    if q.degree == 0:
        return True
    if poly_gcd(p, q).degree > 0:
        return False
    pattern = [t for _, _, t in sturm_isolate([(p, "p"), (q, "q")])]
    return pattern == ["p" if i % 2 == 0 else "q" for i in range(len(pattern))]


def family_pairs(trees) -> set[tuple[Poly, Poly]]:
    """The distinct (up, self) pairs over every vertex of every tree."""
    pairs = set()
    for tree in trees:
        fam = family(tree)
        pairs.update((fam.up_poly[v], fam.self_poly[v]) for v in fam.vertices())
    return pairs


def perturbed(p: Poly, q: Poly) -> list[tuple[Poly, Poly, bool | None]]:
    """Pairs built from a family pair (p, q), each with its known verdict
    (None: only the oracle knows it)."""
    out = [(p, q + ONE, None)]                                # perturbed coefficient
    if q.degree >= 1:
        off = cauchy_root_bound(q) * ONE
        out += [((X - off) * q, q, False),                    # shared roots
                ((X * X + ONE) * q.derivative(), q, False),   # complex roots of p
                ((X - off) * (X - off) * q.derivative(), q, False)]  # repeated root
    return out


def small_corpus_pairs():
    return family_pairs(exhaustive_corpus(6) + random_corpus(7, 60))


def test_family_pairs_match_oracle():
    for p, q in family_pairs([h24()]) | small_corpus_pairs():
        fast = strict_interlace(p, q)
        assert fast == isolation_interlace(p, q)
        # flipping q's sign flips the index, not its size (nor the roots)
        assert strict_interlace(p, -q) == fast


def test_perturbed_pairs_match_oracle():
    negatives = 0
    for p, q in small_corpus_pairs():
        for pp, qq, known in perturbed(p, q):
            fast = strict_interlace(pp, qq)
            assert fast == isolation_interlace(pp, qq)
            assert known is None or fast == known
            negatives += not fast
    assert negatives > 0


@st.composite
def linear_factor_pairs(draw):
    """p and q as products of distinct integer linear factors, deg q =
    deg p - 1, with leading coefficients of either sign.  Half of the
    draws place the roots alternately (interlacing); the rest draw q's
    roots freely, so they may coincide with p's or bunch up."""
    n = draw(st.integers(1, 6))
    points = sorted(draw(st.lists(st.integers(-9, 9), min_size=2 * n - 1,
                                  max_size=2 * n - 1, unique=True)))
    if draw(st.booleans()):
        roots_p, roots_q = points[0::2], points[1::2]
    else:
        roots_p = points[:n]
        roots_q = draw(st.lists(st.integers(-9, 9), min_size=n - 1,
                                max_size=n - 1, unique=True))
    lc_p = draw(st.sampled_from([F(1), F(-1), F(3, 2), F(-1, 3)]))
    lc_q = draw(st.sampled_from([F(1), F(-1), F(2), F(-5, 4)]))
    return roots_p, roots_q, lc_p, lc_q


def _product(lc, roots):
    acc = Poly([lc])
    for r in roots:
        acc = acc * Poly([-r, 1])
    return acc


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(linear_factor_pairs())
@example(([0], [], F(1), F(1)))                  # deg q = 0, index +1
@example(([0], [], F(1), F(-1)))                 # deg q = 0, index -1
@example(([-2, 0, 2], [-1, 1], F(1), F(-1)))     # index -3
@example(([-2, 0, 2], [-1, 1], F(-1), F(-1)))    # index +3
@example(([-2, 0, 2], [0, 1], F(1), F(1)))       # shared root
def test_linear_factor_products(case):
    roots_p, roots_q, lc_p, lc_q = case
    p, q = _product(lc_p, roots_p), _product(lc_q, roots_q)
    merged = sorted([(r, "p") for r in roots_p] + [(r, "q") for r in roots_q])
    truth = (not set(roots_p) & set(roots_q)
             and [t for _, t in merged] == ["p", "q"] * (len(roots_p) - 1) + ["p"])
    assert strict_interlace(p, q) == truth
    assert isolation_interlace(p, q) == truth
    if truth:
        sign = 1 if lc_p * lc_q > 0 else -1
        assert _cauchy_index(p, q) == sign * p.degree


def _random_real_simple_candidate(rng: random.Random) -> Poly:
    """Half the draws: random rational coefficients.  The rest: a product
    of rational linear factors (repeats allowed) and maybe a monic
    quadratic, whose roots are real irrational, rational or complex."""
    if rng.random() < 0.5:
        return Poly([F(rng.randint(-9, 9), rng.randint(1, 4))
                     for _ in range(rng.randint(0, 8))])
    p = Poly([rng.choice([F(1), F(-2), F(3, 5)])])
    for _ in range(rng.randint(0, 6)):
        p = p * Poly([-F(rng.randint(-6, 6), rng.randint(1, 3)), 1])
    if rng.random() < 0.5:
        p = p * Poly([rng.randint(-9, 9), rng.randint(-6, 6), 1])
    return p


def test_real_simple_roots_match_gcd_and_sturm_oracle():
    rng = random.Random(31)
    verdicts = [0, 0]
    for _ in range(1500):
        p = _random_real_simple_candidate(rng)
        fast = has_only_real_simple_roots(p)
        assert fast == real_simple_oracle(p), p
        verdicts[fast] += 1
    assert min(verdicts) > 400
