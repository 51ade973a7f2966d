import gc
import json
from fractions import Fraction as F

import pytest

from conftest import (all_shapes, cut_shape_corpus, exhaustive_corpus, h23,
                      h24, leveled_shapes, random_corpus)
from treejacobi.errors import (ParseError, UnknownVertexError,
                               ValidationError)
from treejacobi.exactmath import I
from treejacobi.treecore import (PathSelection, TreeTruncation,
                                 build_from_spec, decorated_path_tree,
                                 default_path, generate, homogeneous_tree,
                                 path_from_ids, path_tree)

STAR = """
{"vertices": [
  {"id": "a", "parent": "x", "level": 0, "lambda": "1/1", "beta": "0/1"},
  {"id": "b", "parent": "x", "level": 0, "lambda": "1/1", "beta": "0/1"},
  {"id": "x", "level": 1, "beta": "0/1"}],
 "top": "x", "top_lambda": "1/1"}
"""


def test_single_vertex():
    t = build_from_spec('{"vertices": [{"id": "v", "level": 0, "beta": "0/1"}],'
                        ' "top": "v", "top_lambda": "1/1"}')
    assert t.size == 1 and t.lam[t.top] == 1


def test_star_structure():
    t = build_from_spec(STAR)
    x = t.index_of("x")
    assert [t.ids[c] for c in t.children[x]] == ["a", "b"]
    assert t.parent[t.index_of("a")] == x
    assert t.level[x] == 1


def test_round_trip_byte_exact():
    for tree in exhaustive_corpus(5)[:12]:
        blob = tree.to_json()
        again = build_from_spec(blob)
        assert again.to_json() == blob


def test_parent_membership_invariant():
    for tree in exhaustive_corpus(6)[:20]:
        for v in range(tree.size):
            p = tree.parent[v]
            if p is not None:
                assert v in tree.children[p]


def test_subtree_size_law():
    t = homogeneous_tree(2, 3)
    for x in range(t.size):
        assert len(t.descendants(x)) == 1 + sum(
            len(t.descendants(c)) for c in t.children[x])


def test_generators():
    assert homogeneous_tree(2, 3).size == 15
    assert path_tree(3).size == 4
    d = decorated_path_tree(2)
    assert d.size == 5
    assert sorted(d.ids) == ["x0", "x1", "x2", "y0", "y1"]
    h = homogeneous_tree(2, 2, beta=F(4))
    assert h.size == 7 and all(b == 4 for b in h.beta)
    assert generate("path", depth=2).size == 3
    with pytest.raises(ValueError):
        generate("ladder", depth=2)
    with pytest.raises(ValueError):
        homogeneous_tree(2, 2, lam=lambda lv, addr: F(-1))


def test_homogeneous_tree_leaves_no_reference_cycle():
    """The builder leaves no reference cycle, on return and on error
    alike, so the vertex lists do not wait for the cyclic collector."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        homogeneous_tree(2, 4)
        with pytest.raises(ValueError):
            homogeneous_tree(2, 2, lam=lambda lv, addr: F(-1))
        gc.collect()
        leaked = list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []


def test_subtree():
    t = build_from_spec(STAR)
    sub = t.subtree(t.index_of("a"))
    assert sub.size == 1
    whole = t.subtree(t.top)
    assert whole.size == 3
    h = homogeneous_tree(2, 3, lam=F(1, 2))
    sub = h.subtree(h.children[h.top][0])
    assert sub.size == 7
    assert sub.lam[sub.top] == F(1, 2)
    with pytest.raises(UnknownVertexError):
        t.subtree(99)


def test_validation_errors():
    with pytest.raises(ValidationError, match="nonpositive lambda"):
        build_from_spec('{"vertices": [{"id": "v", "level": 0, "beta": "0/1"}],'
                        ' "top": "v", "top_lambda": "0/1"}')
    with pytest.raises(ValidationError, match="cut flag"):
        build_from_spec('{"vertices": [{"id": "v", "level": 1, "beta": "0/1"}],'
                        ' "top": "v", "top_lambda": "1/1"}')
    with pytest.raises(ValidationError, match="level"):
        build_from_spec('{"vertices": ['
                        '{"id": "a", "parent": "x", "level": 1, "lambda": "1/1", "beta": "0/1", "cut": true},'
                        '{"id": "x", "level": 1, "beta": "0/1"}],'
                        ' "top": "x", "top_lambda": "1/1"}')
    # parent cycles: levels rise strictly along parent links, so a cycle
    # always breaks the parent-level rule somewhere
    with pytest.raises(ValidationError, match="'b': parent level"):
        build_from_spec('{"vertices": ['
                        '{"id": "a", "parent": "b", "level": 0, "lambda": "1/1", "beta": "0/1"},'
                        '{"id": "b", "parent": "a", "level": 1, "lambda": "1/1", "beta": "0/1"},'
                        '{"id": "x", "level": 0, "beta": "0/1"}],'
                        ' "top": "x", "top_lambda": "1/1"}')
    with pytest.raises(ValidationError, match="'a': parent level"):
        TreeTruncation(["a", "b", "c", "x"], 3, [2, 0, 1, None], [0, 1, 2, 3],
                       [F(1)] * 4, [F(0)] * 4)
    with pytest.raises(ParseError):
        build_from_spec("{not json")
    with pytest.raises(ParseError):
        build_from_spec('{"vertices": []}')


def _leaf_under_x(extra: str) -> str:
    return ('{"vertices": [{"parent": "x", "level": 0, "lambda": "1/1", '
            '"beta": "0/1", ' + extra + '}, {"id": "x", "level": 1, '
            '"beta": "0/1"}], "top": "x", "top_lambda": "1/1"}')


@pytest.mark.parametrize("extra, message", [
    ('"id": 5', "bad vertex row 5: id must be a string, not 5"),
    ('"id": null', "bad vertex row None: id must be a string, not None"),
    ('"id": "a", "cut": "false"',
     "bad vertex row 'a': cut must be a boolean, not 'false'"),
    ('"id": "a", "cut": 1', "bad vertex row 'a': cut must be a boolean, not 1"),
    ('"id": "a", "cut": null',
     "bad vertex row 'a': cut must be a boolean, not None"),
], ids=["numeric-id", "null-id", "string-cut", "numeric-cut", "null-cut"])
def test_vertex_row_types(extra, message):
    with pytest.raises(ParseError) as exc:
        build_from_spec(_leaf_under_x(extra))
    assert str(exc.value) == message


def test_vertex_without_parent_is_rejected_by_validation():
    # a cut flag may also be false; the parentless leaf is named by the
    # truncation's own validation
    assert build_from_spec(_leaf_under_x('"id": "a", "cut": false')).cut == set()
    with pytest.raises(ValidationError) as exc:
        build_from_spec(_leaf_under_x('"id": "a"').replace('"parent": "x", ', ""))
    assert str(exc.value) == "vertex 'a' has no parent and is not top"


def test_cut_leaf_allowed_with_flag():
    t = build_from_spec('{"vertices": ['
                        '{"id": "a", "parent": "x", "level": 1, "lambda": "1/1", "beta": "0/1", "cut": true},'
                        '{"id": "x", "level": 2, "beta": "0/1"}],'
                        ' "top": "x", "top_lambda": "1/1"}')
    assert t.index_of("a") in t.cut
    assert list(t.interior()) == []  # the top and the cut leaf are excluded
    assert t.index_of("a") not in set(t.interior())


def _dense_j(tree):
    """J entry by entry from the parent links: beta on the diagonal and
    lambda_v at (v, parent v) and (parent v, v)."""
    j = [[F(0)] * tree.size for _ in range(tree.size)]
    for v in range(tree.size):
        j[v][v] = tree.beta[v]
        p = tree.parent[v]
        if p is not None:
            j[v][p] = j[p][v] = tree.lam[v]
    return j


def test_neighbours_are_the_off_diagonal_row_of_j():
    # random weights tell lambda_v from lambda_c; cut shapes and
    # decorated paths bring cut leaves above level 0
    trees = exhaustive_corpus(5) + cut_shape_corpus(6) + [
        decorated_path_tree(n, side_lam=lambda k: F(k + 2, 3),
                            side_beta=lambda k: F(k, 5)) for n in (1, 2, 5)]
    cut_leaves = 0
    for tree in trees:
        j = _dense_j(tree)
        for v in range(tree.size):
            row = tree.neighbours(v)
            off = {w: x for w, x in enumerate(j[v]) if w != v and x}
            assert dict((w, lam) for lam, w in row) == off
            assert len(row) == len(off)
            for lam, w in row:  # symmetric: v is in the row of w
                assert (lam, v) in tree.neighbours(w)
            if v == tree.top:  # nothing above the top
                assert all(tree.level[w] < tree.level[v] for _, w in row)
            else:  # the parent first
                assert row[0] == (tree.lam[v], tree.parent[v])
            if v in tree.cut:
                assert row == [(tree.lam[v], tree.parent[v])]
                cut_leaves += 1
    assert cut_leaves >= 30


def test_path_selection():
    h = homogeneous_tree(2, 3)
    path = default_path(h)
    assert len(path) == 4 and path.reaches_top()
    assert [h.level[v] for v in path.vertices] == [0, 1, 2, 3]
    named = path_from_ids(h, path.ids)
    assert named.vertices == path.vertices
    with pytest.raises(ValidationError):
        PathSelection(h, (h.top,))  # top is not on level 0


def test_path_sides_are_the_children_off_the_path():
    d = decorated_path_tree(4)
    path = default_path(d)
    assert path.ids == ["x0", "x1", "x2", "x3", "x4"]
    assert [[d.ids[y] for y in ys] for ys in path.sides] == \
        [[], ["y0"], ["y1"], ["y2"], ["y3"]]
    h = homogeneous_tree(3, 3)
    path = default_path(h)
    assert path.sides[0] == ()
    for k in range(1, len(path)):
        expected = [c for c in h.children[path[k]] if c != path[k - 1]]
        assert list(path.sides[k]) == expected and len(expected) == 2
    assert path.sides is path.sides  # computed once per path


CARRY_TREE = """
{"vertices": [
  {"id": "a0", "parent": "a", "level": 0, "lambda": "1/1", "beta": "0/1"},
  {"id": "a1", "parent": "a", "level": 0, "lambda": "1/1", "beta": "0/1"},
  {"id": "a", "parent": "x", "level": 1, "lambda": "1/1", "beta": "0/1"},
  {"id": "b0", "parent": "b", "level": 0, "lambda": "1/1", "beta": "0/1"},
  {"id": "b", "parent": "x", "level": 1, "lambda": "1/1", "beta": "0/1"},
  {"id": "x", "level": 2, "beta": "0/1"}],
 "top": "x", "top_lambda": "1/1"}
"""


def test_carry_against_hand_computed_field():
    t = build_from_spec(CARRY_TREE)
    table, cls = t.classes
    # the leaves a0, a1 and b0 share one class, and so one multiplier
    leaf = cls[t.index_of("a0")]
    assert cls[t.index_of("a1")] == cls[t.index_of("b0")] == leaf
    assert len(table.kids) == 4
    mult = [F(0)] * 4
    for name, m in (("a", 2), ("a0", -3), ("b", F(1, 2))):
        mult[cls[t.index_of(name)]] = F(m)
    f = {t.top: F(5)}
    t.carry(f, [t.index_of("a")], mult)
    assert [(t.ids[v], x) for v, x in f.items()] == \
        [("x", 5), ("a", 10), ("a0", -30), ("a1", -30)]
    t.carry(f, [t.index_of("b")], mult)
    assert f[t.index_of("b")] == F(5, 2) and f[t.index_of("b0")] == F(-15, 2)
    # the top's class multiplier is never read: f holds the top already
    mult[cls[t.top]] = None
    g = {t.top: F(1)}
    t.carry(g, t.children[t.top], mult)
    assert [g[t.index_of(n)] for n in ("a", "a0", "a1", "b", "b0")] == \
        [2, -6, -6, F(1, 2), F(-3, 2)]


def test_carry_of_class_ratios_solves_the_eigen_equation():
    for tree in [h23(), h24()] + random_corpus(5, 20) + cut_shape_corpus(5):
        f = {tree.top: I}
        tree.carry(f, tree.children[tree.top], tree.classes[0].ratios(I))
        assert sorted(f) == list(range(tree.size))
        for v in tree.interior():
            acc = I * f[v] - tree.beta[v] * f[v] - tree.lam[v] * f[tree.parent[v]]
            for c in tree.children[v]:
                acc = acc - tree.lam[c] * f[c]
            assert not acc, (tree, v)


def reachability_path(tree):
    """The earlier `default_path`, the oracle: mark which vertices reach
    level 0, then descend from the top by the first child that does."""
    reaches = {}
    for v in reversed(tree.descendants(tree.top)):
        reaches[v] = tree.level[v] == 0 or any(reaches[c]
                                               for c in tree.children[v])
    if not reaches[tree.top]:
        raise ValidationError(f"no level-0 vertex below {tree.ids[tree.top]!r}; "
                              f"cannot select a path")
    chain = [tree.top]
    while tree.level[chain[-1]] > 0:
        chain.append(next(c for c in tree.children[chain[-1]] if reaches[c]))
    return PathSelection(tree, tuple(reversed(chain)))


def test_default_path_matches_reachability_oracle():
    trees = (cut_shape_corpus() + random_corpus(3, 60) + exhaustive_corpus(6)
             + [h23(), h24(), decorated_path_tree(5), homogeneous_tree(3, 3)])
    for tree in trees:
        assert default_path(tree) == reachability_path(tree), tree
    # a cut-only tree has no path; both raise the same error
    t = build_from_spec('{"vertices": ['
                        '{"id": "a", "parent": "x", "level": 1, "lambda": "1/1", "beta": "0/1", "cut": true},'
                        '{"id": "x", "level": 2, "beta": "0/1"}],'
                        ' "top": "x", "top_lambda": "1/1"}')
    for select in (default_path, reachability_path):
        with pytest.raises(ValidationError,
                           match="no level-0 vertex below 'x'; cannot select a path"):
            select(t)


def test_shape_enumeration_counts():
    assert len(all_shapes(6)) == 37  # 1+1+2+4+9+20 rooted shapes
    levelled = leveled_shapes(6)
    assert len(levelled) == len(set(levelled))
    assert () in levelled
    assert all(len(s) >= 0 for s in levelled)
    # every leveled shape is also a rooted shape
    assert set(levelled) <= set(all_shapes(6))
