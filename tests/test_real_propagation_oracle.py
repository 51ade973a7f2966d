"""`solutions.propagate_real` against the per-side family propagation
of `real_propagation_oracle`: the same field, vertex by vertex and in
the same order, the same obstruction and the same free side choices, at
the small rationals k/3 and k/4 and at every rational eigenvalue of
each tree.  The sample must reach each kind of side subtree: a zero
pivot at its root, one strictly below it, and one strictly below it
where two zero-pivot siblings share a parent."""

from fractions import Fraction as F

from conftest import (cut_shape_corpus, exhaustive_corpus, h23, h24,
                      random_corpus)
from real_propagation_oracle import propagate_real as oracle_propagate
from treejacobi.constructions import build_real_obstruction
from treejacobi.exactmath import isolate_real_roots
from treejacobi.solutions import propagate_real
from treejacobi.spectra import char_poly
from treejacobi.treecore import default_path, homogeneous_tree

GRID = sorted({F(k, q) for q in (3, 4) for k in range(-2 * q, 2 * q + 1)})


def _rational_eigenvalues(tree) -> list[F]:
    """The rational roots of the characteristic polynomial.  A root p/q
    in lowest terms has q dividing the leading coefficient L, and two
    such fractions lie at least 1/L^2 apart, so the one nearest the
    middle of an isolating interval narrower than 1/(2 L^2) is the only
    candidate."""
    p = char_poly(tree)
    lead = abs(p.prim[-1])
    out = []
    for root in isolate_real_roots(p, F(1, 2 * lead * lead)):
        c = ((root.lo + root.hi) / 2).limit_denominator(lead)
        if not p(c):
            out.append(c)
    return out


def _cases():
    trees = (random_corpus(7, 60) + exhaustive_corpus(6) + cut_shape_corpus(6)
             + random_corpus(31, 25, coincident_every=2)
             + [homogeneous_tree(d, n) for d in (1, 2, 3) for n in (1, 2, 3)]
             + [build_real_obstruction(n).tree for n in (2, 3, 4)]
             + [h23(), h24()])
    for tree in trees:
        for r in sorted(set(GRID) | set(_rational_eigenvalues(tree))):
            yield tree, r


def _side_kinds(tree, r) -> list[str]:
    """Per side subtree off the default path: "root" when its root pivot
    vanishes at r, "twins" or "deep" when a pivot strictly below does
    (with or without two zero-pivot siblings), "ratio" otherwise."""
    table, cls = tree.classes
    ratio = table.ratios(r)
    kinds = []
    for ys in default_path(tree).sides:
        for y in ys:
            below = tree.descendants(y)
            zeros = [sum(ratio[cls[c]] is None for c in tree.children[w])
                     for w in below]
            kinds.append("root" if ratio[cls[y]] is None
                         else "twins" if max(zeros) >= 2
                         else "deep" if max(zeros) else "ratio")
    return kinds


def test_propagate_real_matches_per_side_families():
    seen = dict.fromkeys(("root", "deep", "twins", "ratio", "obstructed"), 0)
    for tree, r in _cases():
        got, want = propagate_real(tree, r), oracle_propagate(tree, r)
        assert got.obstruction_id == want.obstruction_id, (tree, r)
        assert got.free_choices == want.free_choices, (tree, r)
        assert (got.field is None) == (want.field is None), (tree, r)
        if got.field is not None:
            assert got.field.z == want.field.z
            assert (list(got.field.values.items())
                    == list(want.field.values.items())), (tree, r)
        seen["obstructed"] += got.obstructed
        for kind in _side_kinds(tree, r):
            seen[kind] += 1
    assert seen["root"] >= 100 and seen["deep"] >= 40, seen
    assert seen["twins"] >= 2 and seen["obstructed"] >= 10, seen


def test_unit_binary_tree_at_zero_has_every_zero_pivot_side():
    # x_1's side is a zero-pivot leaf, x_2's side holds two zero-pivot
    # leaves under one parent, and x_3's side has a zero root pivot
    tree = homogeneous_tree(2, 3)
    assert _side_kinds(tree, F(0)) == ["root", "twins", "root"]
    res = propagate_real(tree, F(0))
    assert res.field is not None and res.free_choices == ("r.0.0.1", "r.1")
