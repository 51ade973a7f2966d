"""Family columns and sibling witnesses against the recursive references
of `family_oracle`: every P(v, t) of `PolyFamily.column`, and every
witness verdict of `spectra.eigenvector_witness_report`, on the corpora
and on unit homogeneous trees, whose siblings share every root."""

import pytest

from conftest import cut_shape_corpus, exhaustive_corpus, h23, random_corpus
from family_oracle import entry, witness_holds
from treejacobi.errors import UnknownVertexError
from treejacobi.exactmath import poly_gcd
from treejacobi.spectra import (WitnessCheck, _witness_holds,
                                eigenvector_witness_report)
from treejacobi.treecore import homogeneous_tree
from treejacobi.treepoly import PolyFamily, family


def _trees():
    return ([h23()] + exhaustive_corpus(5) + random_corpus(7, 40)
            + cut_shape_corpus(6)
            + [homogeneous_tree(2, 5), homogeneous_tree(3, 3),
               homogeneous_tree(4, 3)])


def _families(tree):
    """The family at the top and at the top's first child."""
    yield family(tree)
    if tree.children[tree.top]:
        yield family(tree, tree.children[tree.top][0])


def test_column_is_the_recursive_entry():
    checked = 0
    for tree in _trees():
        fam = family(tree)
        memo: dict = {}
        for v in fam.vertices():
            col = fam.column(v)
            assert list(col) == tree.descendants(v), (tree, v)
            for t, p in col.items():
                assert p == entry(fam, v, t, memo), (tree, v, t)
                assert fam.entry(v, t) == p
                checked += 1
            assert fam.entry(v, tree.parent[v]) == fam.up_poly[v]
            assert fam.entry(v, None) == fam.up_poly[v]
    assert checked > 2000


def test_entry_outside_the_column_names_both_vertices():
    tree = h23()
    fam = family(tree)
    a, b = tree.children[tree.top]
    with pytest.raises(UnknownVertexError,
                       match=f"{tree.ids[b]} is not below {tree.ids[a]}"):
        fam.entry(a, b)


def test_witness_report_matches_the_reference():
    witnesses = 0
    for tree in _trees():
        for fam in _families(tree):
            expected = []
            for v in sorted(fam.vertices()):
                kids = tree.children[v]
                for i, c1 in enumerate(kids):
                    for c2 in kids[i + 1:]:
                        g = poly_gcd(fam.up_poly[c1], fam.up_poly[c2])
                        if g.degree == 0:
                            continue
                        ok = witness_holds(fam, v, c1, c2, g)
                        expected.append(WitnessCheck(
                            tree.ids[v], (tree.ids[c1], tree.ids[c2]), g, ok))
            assert eigenvector_witness_report(fam) == expected, tree
            witnesses += len(expected)
    assert witnesses > 100


class _Doubled(PolyFamily):
    """A family whose column at `root` has the entries at `targets`
    doubled (all of them for None)."""

    def __init__(self, tree, root, targets):
        self.root, self.targets = root, targets
        super().__init__(tree)

    def column(self, v):
        col = super().column(v)
        if v == self.root:
            for w in list(col) if self.targets is None else self.targets:
                col[w] = 2 * col[w]
        return col


def test_witness_checks_the_parent_and_every_depth():
    # unit ternary tree: the top's children share all three roots, so g
    # is their up-polynomial
    tree = homogeneous_tree(3, 3)
    top = tree.top
    c1, c2 = tree.children[top][:2]
    fam = family(tree)
    g = poly_gcd(fam.up_poly[c1], fam.up_poly[c2])
    assert g.degree == 3 and _witness_holds(fam, top, c1, c2, g)
    # one half scaled by 2 is still an eigen-field mod g below c1, so
    # only the residual at the parent sees it
    assert not _witness_holds(_Doubled(tree, c1, None), top, c1, c2, g)
    # a leaf three levels below the parent: only the residuals at the
    # leaf and at its parent, two levels below the top, see it
    leaf = tree.descendants(c1)[-1]
    assert tree.level[leaf] == 0
    assert not _witness_holds(_Doubled(tree, c1, [leaf]), top, c1, c2, g)
