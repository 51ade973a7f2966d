"""The per-class computations against per-vertex oracles: shape classes
against structural signatures, class ratios against the polynomial
family evaluated at z, and class-mass growth norms against the norms of
the solution fields `solve_pair` builds vertex by vertex.  Every
comparison is exact."""

from fractions import Fraction as F

import pytest

from conftest import (cut_shape_corpus, exhaustive_corpus, h23, h24,
                      random_corpus)
from treejacobi.exactmath import GaussianRational as GR
from treejacobi.exactmath import I
from treejacobi.solutions import _reduce_path, growth_profile, solve_pair
from treejacobi.treecore import default_path, homogeneous_tree
from treejacobi.treepoly import family

ZS = (I, GR(F(0), F(-1)), GR(F(1, 2), F(1)), GR(F(-3, 2), F(-2, 3)),
      GR(F(2), F(1, 5)))


def _corpus():
    return [h23(), h24()] + random_corpus(7, 40) + cut_shape_corpus()


def _signature(tree, v):
    """The subtree at v as nested tuples: the structural oracle."""
    return (tree.beta[v], tree.lam[v],
            tuple(_signature(tree, c) for c in tree.children[v]))


def test_shape_classes_match_structural_signatures():
    for tree in (_corpus() + exhaustive_corpus(5)
                 + [homogeneous_tree(2, 4), homogeneous_tree(3, 3)]):
        for root in range(tree.size):
            order, cls = tree.shape_classes(root)
            assert sorted(order) == sorted(tree.descendants(root))
            seen = set()
            for v in order:
                assert all(c in seen for c in tree.children[v]), (tree, root)
                assert cls[v] <= len(set(cls[w] for w in seen)), (tree, root)
                seen.add(v)
            sig = {v: _signature(tree, v) for v in order}
            for v in order:
                for w in order:
                    assert (cls[v] == cls[w]) == (sig[v] == sig[w]), \
                        (tree, v, w)


def test_homogeneous_tree_has_one_class_per_level():
    tree = homogeneous_tree(3, 6)
    _, cls = tree.shape_classes(tree.top)
    assert len(set(cls.values())) == 7
    assert all(cls[v] == tree.level[v] for v in range(tree.size))


def test_class_ratio_is_the_family_quotient():
    checked = 0
    for tree in _corpus():
        fam = family(tree)
        for z in ZS:
            red = _reduce_path(tree, default_path(tree), z)
            for w in range(tree.size):
                expected = (GR.of(fam.self_poly[w](z))
                            / GR.of(fam.up_poly[w](z)))
                assert red.ratio[red.cls[w]] == expected, (tree, z, w)
                checked += 1
    assert checked > 2000


def test_class_ratios_at_nonreal_z_are_never_none():
    # each pivot's imaginary part has the sign of Im z and at least its
    # size, so no pivot vanishes and every ratio lambda / pivot has the
    # opposite sign: the nonreal solvers need no zero-pivot check
    trees = (_corpus() + exhaustive_corpus(6)
             + random_corpus(31, 25, coincident_every=2))
    checked = 0
    for z in ZS + (GR(F(1, 3), F(1, 1000)),):
        for tree in trees:
            _, _, ratio, _ = tree.class_ratios(tree.top, z)
            for r in ratio:
                assert r is not None and r.im * z.im < 0, (tree, z)
                checked += 1
    assert checked > 3000


def _per_vertex_rows(trees, z):
    rows = []
    for tree in trees:
        path = default_path(tree)
        pair = solve_pair(tree, path, z)
        assert pair.v.verify()
        carleman = sum((1 / tree.lam[v] for v in path.vertices), F(0))
        norm2 = sum((w.abs2() for w in pair.v.values.values()), F(0))
        rows.append((tree.size, norm2, carleman))
    return rows


def _rows(profile):
    return [(row.size, row.norm2, row.carleman_sum) for row in profile.rows]


def _linear(lv, addr):
    return F(1) if any(addr) else F(lv + 1)


@pytest.mark.parametrize("z", ZS[1:4], ids=str)
@pytest.mark.parametrize("d, depths, lam", [
    (2, range(10), F(1)),
    (2, range(10), _linear),
    (3, range(6), F(1)),
    (3, range(6), _linear),
], ids=["binary-unit", "binary-linear", "ternary-unit", "ternary-linear"])
def test_growth_rows_equal_per_vertex_norms(z, d, depths, lam):
    # the rows of one tree's nested truncations against a tree generated
    # afresh at each depth
    profile = growth_profile(homogeneous_tree(d, max(depths), lam=lam), z,
                             depths)
    assert [row.depth for row in profile.rows] == list(depths)
    fresh = (homogeneous_tree(d, depth, lam=lam) for depth in depths)
    assert _rows(profile) == _per_vertex_rows(fresh, z)


@pytest.mark.parametrize("z", ZS, ids=str)
def test_growth_rows_equal_per_vertex_norms_random(z):
    # every path depth against the field solved on the materialized
    # subtree below x_n
    for tree in [h23(), h24()] + random_corpus(11, 40):
        xs = default_path(tree).vertices
        profile = growth_profile(tree, z, range(len(xs)))
        subtrees = [tree.subtree(x) for x in xs]
        assert _rows(profile) == _per_vertex_rows(subtrees, z), tree
