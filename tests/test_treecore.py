import json
from fractions import Fraction as F

import pytest

from conftest import exhaustive_corpus, leveled_shapes, all_shapes
from treejacobi.errors import (ParseError, UnknownVertexError,
                               ValidationError)
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


def test_cut_leaf_allowed_with_flag():
    t = build_from_spec('{"vertices": ['
                        '{"id": "a", "parent": "x", "level": 1, "lambda": "1/1", "beta": "0/1", "cut": true},'
                        '{"id": "x", "level": 2, "beta": "0/1"}],'
                        ' "top": "x", "top_lambda": "1/1"}')
    assert t.index_of("a") in t.cut
    assert list(t.interior()) == []  # the top and the cut leaf are excluded
    assert t.index_of("a") not in set(t.interior())


def test_path_selection():
    h = homogeneous_tree(2, 3)
    path = default_path(h)
    assert len(path) == 4 and path.reaches_top()
    assert [h.level[v] for v in path.vertices] == [0, 1, 2, 3]
    named = path_from_ids(h, path.ids)
    assert named.vertices == path.vertices
    with pytest.raises(ValidationError):
        PathSelection(h, (h.top,))  # top is not on level 0


def test_shape_enumeration_counts():
    assert len(all_shapes(6)) == 37  # 1+1+2+4+9+20 rooted shapes
    levelled = leveled_shapes(6)
    assert len(levelled) == len(set(levelled))
    assert () in levelled
    assert all(len(s) >= 0 for s in levelled)
    # every leveled shape is also a rooted shape
    assert set(levelled) <= set(all_shapes(6))
