import functools
import math
import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (cut_shape_corpus, exhaustive_corpus, h23, h24, h25,
                      random_corpus, random_lambda, random_beta)
from treejacobi.exactmath import (ONE, Poly, X, count_real_roots,
                                  isolate_real_roots,
                                  square_free_decomposition)
from treejacobi.spectra import (char_poly, count_negative_eigenvalues,
                                eigenvector_witness_report,
                                spectral_description, tree_inertia,
                                verify_spectral_identity)
from treejacobi.treecore import (build_from_spec, homogeneous_classes,
                                 homogeneous_tree, path_tree)
from treejacobi.treepoly import family
from sturm_oracle import sturm_negative_count
from tree_elimination_oracle import (pivot_inertia, tree_solve,
                                     truncated_operator)

STAR = build_from_spec("""
{"vertices": [
  {"id": "a", "parent": "x", "level": 0, "lambda": "1/1", "beta": "0/1"},
  {"id": "b", "parent": "x", "level": 0, "lambda": "1/1", "beta": "0/1"},
  {"id": "x", "level": 1, "beta": "0/1"}],
 "top": "x", "top_lambda": "1/1"}
""")


def _lagrange_char_poly(tree):
    """Independent oracle: det(xI - J) sampled at n+1 rational points by
    dense elimination, then Lagrange interpolation."""
    op = truncated_operator(tree)
    n = len(op.vertices)
    points = [F(k) for k in range(n + 1)]

    def det_at(x):
        mat = [[(x if i == j else F(0)) - op.matrix[i][j] for j in range(n)]
               for i in range(n)]
        det = F(1)
        for col in range(n):
            piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
            if piv is None:
                return F(0)
            if piv != col:
                mat[col], mat[piv] = mat[piv], mat[col]
                det = -det
            det *= mat[col][col]
            for r in range(col + 1, n):
                f = mat[r][col] / mat[col][col]
                if f:
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
        return det

    acc = Poly()
    for i, xi in enumerate(points):
        term = Poly([det_at(xi)])
        for jj, xj in enumerate(points):
            if jj != i:
                term = term * Poly([-xj, 1]) * (F(1) / (xi - xj))
        acc = acc + term
    return acc


def test_char_poly_examples():
    assert char_poly(STAR) == X * X * X - 2 * X
    assert char_poly(path_tree(2)) == X * X * X - 2 * X
    leaf = build_from_spec('{"vertices": [{"id": "v", "level": 0, "beta": "7/1"}],'
                           ' "top": "v", "top_lambda": "1/1"}')
    assert char_poly(leaf) == X - 7 * ONE


def test_char_poly_against_interpolated_determinant():
    for tree in exhaustive_corpus(5) + random_corpus(57, 8, max_vertices=8):
        assert char_poly(tree) == _lagrange_char_poly(tree)


def test_matrix_symmetry_and_pattern():
    op = truncated_operator(STAR)
    n = len(op.vertices)
    for i in range(n):
        for j in range(n):
            assert op.matrix[i][j] == op.matrix[j][i]
    # off-diagonal entries exactly where edges are
    x = op.vertices.index(STAR.index_of("x"))
    a = op.vertices.index(STAR.index_of("a"))
    assert op.matrix[x][a] == 1 and op.matrix[a][a] == 0


def test_spectral_description_star():
    desc = spectral_description(family(STAR))
    assert len(desc.top_roots) == 2
    assert len(desc.shared) == 1
    assert desc.shared[0].vertex == "x"
    assert desc.shared[0].factor == X
    assert [r.multiplicity for r in desc.shared[0].roots] == [1]


def test_spectral_description_path_and_distinct():
    assert spectral_description(family(path_tree(3))).shared == ()
    distinct = build_from_spec("""
    {"vertices": [
      {"id": "a", "parent": "x", "level": 0, "lambda": "1/1", "beta": "1/1"},
      {"id": "b", "parent": "x", "level": 0, "lambda": "1/1", "beta": "2/1"},
      {"id": "x", "level": 1, "beta": "0/1"}],
     "top": "x", "top_lambda": "1/1"}
    """)
    assert spectral_description(family(distinct)).shared == ()


def test_identity_exhaustive_and_cut_shapes():
    for tree in exhaustive_corpus(5) + cut_shape_corpus(5):
        assert verify_spectral_identity(family(tree), char_poly(tree))


def test_negative_counts():
    assert count_negative_eigenvalues(char_poly(STAR)) == 1
    leaf = build_from_spec('{"vertices": [{"id": "v", "level": 0, "beta": "-1/1"}],'
                           ' "top": "v", "top_lambda": "1/1"}')
    assert count_negative_eigenvalues(char_poly(leaf)) == 1
    star4 = homogeneous_tree(2, 1, beta=F(4))
    assert count_negative_eigenvalues(char_poly(star4)) == 0


def test_descartes_negative_count_matches_sturm_oracle():
    """Descartes' count equals the Sturm count on every char poly, with
    roots at 0 and repeated roots (the unit and coincident regimes)."""
    trees = (random_corpus(7, 60) + exhaustive_corpus(6)
             + [h23(), h24(), h25()])
    for tree in trees:
        p = char_poly(tree)
        assert count_negative_eigenvalues(p) == sturm_negative_count(p), tree.ids
    # a root at 0 of multiplicity 2 and a double negative root
    p = X * X * Poly([1, 1]) * Poly([1, 1]) * Poly([-3, 1])
    assert count_negative_eigenvalues(p) == sturm_negative_count(p) == 2


def _sturm_counts(p, sigma):
    """(below, at): the eigenvalues of char poly p below and at sigma, with
    multiplicity, by Sturm counts on the square-free factors."""
    q, at = p, 0
    while q(sigma) == 0:
        q = q.exact_div(Poly([-sigma, 1]))
        at += 1
    below = sum(mult * count_real_roots(g, None, sigma)
                for g, mult in square_free_decomposition(q) if g.degree >= 1)
    return below, at


def test_inertia_matches_char_poly_counts():
    trees = exhaustive_corpus(5) + random_corpus(77, 12, max_vertices=10)
    sigmas = [F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(4)]
    for tree in trees:
        p = char_poly(tree)
        for sigma in sigmas:
            inertia = tree_inertia(tree, sigma)
            assert (inertia.below, inertia.at) == _sturm_counts(p, sigma), \
                (tree.ids, sigma)
            assert inertia.below + inertia.at + inertia.above == tree.size


def _rational_roots(p):
    """The rational roots of p.  Scaled to integer coefficients with
    leading coefficient a, p has its rational roots in (1/a)Z, so an
    isolating interval narrower than 1/a holds at most one candidate."""
    a = abs(p.leading() * math.lcm(*(c.denominator for c in p.coeffs)))
    candidates = (F(math.floor(r.hi * a), a)
                  for r in isolate_real_roots(p, F(1, 2 * a)))
    return {x for x in candidates if p(x) == 0}


# unit-weight zero-diagonal homogeneous trees and every small shape, each
# at its top and at the top's children
INERTIA_CASES = [
    (tree, anchor)
    for tree in ([homogeneous_tree(d, depth) for d in (1, 2, 3)
                  for depth in range(5)]
                 + exhaustive_corpus(6) + cut_shape_corpus(6))
    for anchor in (tree.top,) + tree.children[tree.top]]


@functools.cache
def _inertia_case(i):
    """Char poly at the anchor, and every rational eigenvalue of a subtree
    below it, which includes every rational sigma where a pivot vanishes."""
    tree, anchor = INERTIA_CASES[i]
    cls = tree.classes[1]
    reps = {cls[v]: v for v in tree.descendants(anchor)}.values()
    pool = set().union(*(_rational_roots(char_poly(tree, w)) for w in reps))
    return char_poly(tree, anchor), sorted(pool)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_tree_inertia_property(data):
    i = data.draw(st.integers(0, len(INERTIA_CASES) - 1))
    tree, anchor = INERTIA_CASES[i]
    p, pool = _inertia_case(i)
    sigmas = st.fractions(-4, 4, max_denominator=6)
    if pool:
        sigmas = st.sampled_from(pool) | sigmas
    sigma = data.draw(sigmas)
    inertia = tree_inertia(tree.subtree(anchor), sigma)
    assert inertia == pivot_inertia(tree, sigma, at=anchor)
    assert (inertia.below, inertia.at) == _sturm_counts(p, sigma)
    assert inertia.below + inertia.at + inertia.above == p.degree


# the classes `homogeneous_classes` builds, unit or linear weights on the
# spine, against the vertex tree carrying the same rule on the all-zero
# addresses
SPINE_RULES = {"unit": lambda k: F(1), "linear": lambda k: F(k + 1)}
CLASS_CASES = [(d, depth, rule) for d in range(1, 5) for depth in range(7)
               for rule in SPINE_RULES]


@functools.cache
def _class_case(i):
    """The class table, the vertex tree, and every rational sigma where a
    pivot vanishes.  The weights are integers, so every subtree's
    characteristic polynomial is monic over Z and its rational roots are
    integers, inside the Gershgorin bound (d + 1)(depth + 1)."""
    d, depth, rule = CLASS_CASES[i]
    spine = SPINE_RULES[rule]
    table, spine_classes = homogeneous_classes(d, depth, spine)
    assert spine_classes[-1] == len(table.kids) - 1  # the top is last
    tree = homogeneous_tree(
        d, depth, lam=lambda lv, addr: F(1) if any(addr) else spine(lv))
    bound = (d + 1) * (depth + 1)
    pool = [F(s) for s in range(-bound, bound + 1)
            if None in table.ratios(F(s))]
    return table, tree, pool


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_class_table_inertia_property(data):
    i = data.draw(st.integers(0, len(CLASS_CASES) - 1))
    table, tree, pool = _class_case(i)
    sigmas = st.fractions(-4, 4, max_denominator=6)
    if pool:
        sigmas = st.sampled_from(pool) | sigmas
    sigma = data.draw(sigmas)
    inertia = tree_inertia(table, sigma)
    assert inertia == tree_inertia(tree, sigma) == pivot_inertia(tree, sigma)
    assert inertia.below + inertia.at + inertia.above == tree.size


def test_class_table_inertia_at_every_zero_pivot():
    # repeated classes under a zero pivot: at 0 the unit binary tree's
    # leaves have zero pivots and their 2^(depth-1) parents pair with them
    assert sum(len(_class_case(i)[2]) for i in range(len(CLASS_CASES))) > 100
    for i, case in enumerate(CLASS_CASES):
        table, tree, pool = _class_case(i)
        for sigma in pool:
            assert tree_inertia(table, sigma) == pivot_inertia(tree, sigma), \
                (case, sigma)


def test_inertia_zero_pivot_path():
    # star at sigma = 0 walks through the zero-pivot pairing
    assert tree_inertia(STAR, F(0)) == tree_inertia(STAR, F(0)).__class__(1, 1, 1)
    # eigenvalues -sqrt 2, 0, sqrt 2: none outside [-2, 2], two outside [-1, 1]
    assert tree_inertia(STAR, F(-2)).below + tree_inertia(STAR, F(2)).above == 0
    assert tree_inertia(STAR, F(-1)).below + tree_inertia(STAR, F(1)).above == 2


def test_identity_random_corpus():
    for tree in random_corpus(101, 30):
        assert verify_spectral_identity(family(tree), char_poly(tree))


def test_eigenvector_witnesses():
    checks = eigenvector_witness_report(family(STAR))
    assert len(checks) == 1 and checks[0].ok
    # three identical children share a root with multiplicity 3
    triple = homogeneous_tree(3, 1)
    checks = eigenvector_witness_report(family(triple))
    assert len(checks) == 3 and all(c.ok for c in checks)
    # deeper shared structure: identical subtrees of height 2
    deep = homogeneous_tree(2, 2)
    checks = eigenvector_witness_report(family(deep))
    assert checks and all(c.ok for c in checks)
    for tree in random_corpus(13, 10):
        assert all(c.ok for c in eigenvector_witness_report(family(tree)))


def test_spectral_description_multiplicities_match_char_poly():
    # engineered high multiplicity: four identical subtrees of height 2
    # under one vertex contribute each shared root three extra times
    tall = homogeneous_tree(4, 2, lam=F(1, 2), beta=F(1, 3))
    trees = [tall, homogeneous_tree(3, 2), STAR] + random_corpus(85, 8)
    for tree in trees:
        fam = family(tree)
        p = char_poly(tree)
        desc = spectral_description(fam)
        assert desc.factor_product() == p.monic()
        # every described root interval carries exactly the multiplicity
        # the characteristic polynomial has there
        assert all(r.multiplicity == 1 for r in desc.top_roots)
        described = [(r, 1) for r in desc.top_roots]
        for shared in desc.shared:
            described.extend((r, r.multiplicity) for r in shared.roots)
        total = 0
        for r, mult in described:
            if r.lo == r.hi:
                got = 0
                q = p
                while q(r.lo) == 0:
                    q = q.exact_div(Poly([-r.lo, 1]))
                    got += 1
            else:
                got = 0
                for g, m in square_free_decomposition(p):
                    gg = g
                    if gg(r.lo) == 0:
                        gg = gg.exact_div(Poly([-r.lo, 1]))
                    if gg.degree >= 1:
                        got += m * count_real_roots(gg, r.lo, r.hi)
            # intervals from different factors may overlap between the two
            # parts of the description, so compare per-entry lower bounds
            assert got >= mult
            total += mult
        assert total == tree.size  # all eigenvalues accounted for


def test_char_poly_of_forest_is_product():
    # removing a vertex splits the subtree into the forest of its children;
    # the determinant of the block-diagonal matrix is the product of blocks
    for tree in random_corpus(63, 6, max_vertices=9):
        p = char_poly(tree)
        for v in range(tree.size):
            if not tree.children[v]:
                continue
            prod = ONE
            for c in tree.children[v]:
                prod = prod * char_poly(tree, at=c)
            # sample the block-diagonal determinant at a few points
            for x in (F(0), F(1), F(-2), F(5, 3)):
                det = F(1)
                for c in tree.children[v]:
                    det *= _lagrange_char_poly_value(tree, c, x)
                assert prod(x) == det


def _lagrange_char_poly_value(tree, anchor, x):
    sub = tree.subtree(anchor)
    return _lagrange_char_poly(sub)(x)


def test_tree_solve_against_dense():
    rng = random.Random(5)
    for tree in random_corpus(21, 8, max_vertices=9):
        n = tree.size
        # positive definite system: diagonally dominant with edge weights
        diag = {v: F(1) + tree.lam[v] + sum(tree.lam[c] for c in tree.children[v])
                for v in range(n)}
        off = {v: -tree.lam[v] for v in range(n)}
        rhs = {v: random_beta(rng) for v in range(n)}
        x = tree_solve(tree, diag, off, rhs)
        for v in range(n):
            acc = diag[v] * x[v]
            if tree.parent[v] is not None:
                acc += off[v] * x[tree.parent[v]]
            for c in tree.children[v]:
                acc += off[c] * x[c]
            assert acc == rhs.get(v, F(0))
