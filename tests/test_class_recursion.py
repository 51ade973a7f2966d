"""The per-class computations against per-vertex oracles: a truncation's
classes (`TreeTruncation.classes`) against structural signatures, class
ratios against the polynomial family evaluated at z, class-mass growth
norms against the norms of the solution fields `solve_pair` builds
vertex by vertex, and the classes `homogeneous_classes` builds without a
tree against those of the materialized tree.  Every comparison is
exact."""

from fractions import Fraction as F

import pytest

from conftest import (cut_shape_corpus, exhaustive_corpus, h23, h24,
                      random_corpus)
from treejacobi.exactmath import GaussianRational as GR
from treejacobi.exactmath import I
from treejacobi.solutions import growth_profile, solve_pair
from treejacobi.spectra import char_poly
from treejacobi.treecore import (default_path, homogeneous_classes,
                                 homogeneous_tree)
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
    # the one table of each truncation: equal classes exactly for equal
    # signatures, child classes below their parent's, dense ids with the
    # top's last, and each subtree's classes from `ClassTable.below`
    for tree in (_corpus() + exhaustive_corpus(5)
                 + [homogeneous_tree(2, 4), homogeneous_tree(3, 3)]):
        table, cls = tree.classes
        assert tree.classes is tree.classes
        assert sorted(set(cls)) == list(range(len(table.kids)))
        assert cls[tree.top] == len(table.kids) - 1
        sig = [_signature(tree, v) for v in range(tree.size)]
        for v in range(tree.size):
            assert all(cls[c] < cls[v] for c in tree.children[v]), (tree, v)
            assert table.kids[cls[v]] == tuple(cls[c]
                                               for c in tree.children[v])
            assert (table.beta[cls[v]], table.lam[cls[v]]) == (
                tree.beta[v], tree.lam[v])
            assert table.below(cls[v]) == sorted(
                {cls[w] for w in tree.descendants(v)}), (tree, v)
            for w in range(tree.size):
                assert (cls[v] == cls[w]) == (sig[v] == sig[w]), (tree, v, w)


def test_anchored_quantities_equal_those_of_the_subtree():
    # an anchor below the top reads its own classes off the whole tree's
    # table (`ClassTable.below`); the materialized subtree hash-conses
    # afresh, with other ids
    checked = 0
    for tree in random_corpus(7, 40) + cut_shape_corpus(6):
        for x in range(tree.size):
            sub = tree.subtree(x)
            fam, sub_fam = family(tree, x), family(sub)
            assert ({tree.ids[v]: (fam.self_poly[v], fam.up_poly[v], p)
                     for v, p in fam.column(x).items()}
                    == {sub.ids[v]: (sub_fam.self_poly[v], sub_fam.up_poly[v], p)
                        for v, p in sub_fam.column(sub.top).items()}), (tree, x)
            assert char_poly(tree, x) == char_poly(sub), (tree, x)
            checked += 1
    assert checked > 400


def test_homogeneous_tree_has_one_class_per_level():
    tree = homogeneous_tree(3, 6)
    table, cls = tree.classes
    assert len(table.kids) == 7
    assert all(cls[v] == tree.level[v] for v in range(tree.size))


def test_class_ratio_is_the_family_quotient():
    checked = 0
    for tree in _corpus():
        fam = family(tree)
        for z in ZS:
            table, cls = tree.classes
            ratio = table.ratios(z)
            for w in range(tree.size):
                expected = (GR.of(fam.self_poly[w](z))
                            / GR.of(fam.up_poly[w](z)))
                assert ratio[cls[w]] == expected, (tree, z, w)
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
            for r in tree.classes[0].ratios(z):
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


# the class generator against the materialized homogeneous tree: the
# spine is the leftmost path, lambda = `rule` on it and 1 off it
RULES = {"unit": (F(1), F(1)),
         "linear": (lambda k: F(k + 1), _linear)}
DEEPEST = {1: 9, 2: 9, 3: 7, 4: 6}  # at most 5,461 vertices
CLASS_ZS = (I, GR(F(1, 2), F(1)), GR(F(-1, 3), F(-3, 2)))


@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("d", sorted(DEEPEST))
def test_class_route_rows_equal_the_materialized_tree(d, rule):
    spine_lam, tree_lam = RULES[rule]
    n = DEEPEST[d]
    tree = homogeneous_tree(d, n, lam=tree_lam)
    classes = homogeneous_classes(d, n, spine_lam)
    for z in CLASS_ZS:
        for depths in (range(n + 1), range(2, n + 1), [n]):
            assert (growth_profile(classes, z, depths)
                    == growth_profile(tree, z, depths)), (d, rule, z, depths)


def test_class_route_rows_equal_the_materialized_tree_at_depth_15():
    tree = homogeneous_tree(2, 15, lam=_linear)
    classes = homogeneous_classes(2, 15, lambda k: F(k + 1))
    assert (growth_profile(classes, I, range(3, 16))
            == growth_profile(tree, I, range(3, 16)))


def _generator_class(tree, table, spine, w):
    """The generator's class for vertex w of the materialized tree: the
    spine class on the leftmost path, else the off-spine class of its
    level, the second child of the spine vertex one level up."""
    k = tree.level[w]
    if tree.ids[w] == "r" + ".0" * (len(spine) - 1 - k):
        return spine[k]
    return table.kids[spine[k + 1]][1]


@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_generator_classes_are_the_tree_classes(d, rule):
    spine_lam, tree_lam = RULES[rule]
    for n in range(6):
        tree = homogeneous_tree(d, n, lam=tree_lam)
        table, spine = homogeneous_classes(d, n, spine_lam)
        tree_table, tcls = tree.classes
        assert len(table.kids) == len(tree_table.kids) <= 2 * (n + 1)
        if d == 1:
            assert len(table.kids) == n + 1
        assert all(c < p for p, kids in enumerate(table.kids) for c in kids)
        path = default_path(tree)
        assert [table.lam[c] for c in spine] == [tree.lam[x] for x in path]
        # every ratio, at nonreal z and at real ones with zero pivots
        for z in CLASS_ZS + (F(0), F(1), F(-2)):
            ratio = table.ratios(z)
            tratio = tree_table.ratios(z)
            assert ([ratio[c] for c in spine]
                    == [tratio[tcls[x]] for x in path]), (d, n, z)
            for w in range(tree.size):
                c = _generator_class(tree, table, spine, w)
                assert ratio[c] == tratio[tcls[w]], (d, n, z, w)


def test_generator_rejects_what_homogeneous_tree_rejects():
    with pytest.raises(ValueError, match="branching d must be >= 1"):
        homogeneous_classes(0, 3)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        homogeneous_classes(2, -1)
    for bad in (F(0), -1):
        def rule(k, bad=bad):
            return bad if k == 1 else 1

        with pytest.raises(ValueError) as tree_error:
            homogeneous_tree(2, 3, lam=lambda lv, addr: rule(lv))
        with pytest.raises(ValueError) as class_error:
            homogeneous_classes(2, 3, rule)
        assert str(class_error.value) == str(tree_error.value)
    # a loop, not a recursion: a deep path needs no stack
    table, spine = homogeneous_classes(1, 5000)
    assert len(table.kids) == len(spine) == 5001
