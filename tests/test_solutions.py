import random
from fractions import Fraction as F

import pytest

from conftest import random_corpus
from treejacobi.exactmath import GaussianRational, I
from treejacobi.solutions import (SolutionField, growth_profile,
                                  propagate_real, rotated_positivity_report,
                                  solve_pair, uniqueness_dimension, wronskian)
from treejacobi.treecore import (build_from_spec, default_path,
                                 homogeneous_tree, path_tree)

STAR = build_from_spec("""
{"vertices": [
  {"id": "a", "parent": "x", "level": 0, "lambda": "1/1", "beta": "0/1"},
  {"id": "b", "parent": "x", "level": 0, "lambda": "1/1", "beta": "0/1"},
  {"id": "x", "level": 1, "beta": "0/1"}],
 "top": "x", "top_lambda": "1/1"}
""")

GR = GaussianRational


def test_pair_seed_values():
    tree = path_tree(1)
    pair = solve_pair(tree, default_path(tree), I)
    x0, x1 = tree.index_of("x0"), tree.index_of("x1")
    assert pair.v.values[x0] == GR(F(1), F(0))
    assert pair.v.values[x1] == I
    assert pair.u.values[x0] == GR(F(0), F(0))
    assert pair.u.values[x1] == GR(F(1), F(0))
    assert pair.v.verify() and pair.u.verify()
    # u deliberately breaks the equation at the origin
    assert pair.u.residual(x0) != GR(F(0), F(0))


def test_pair_residuals_and_nonvanishing_on_corpus():
    for tree in random_corpus(3, 12):
        path = default_path(tree)
        pair = solve_pair(tree, path, I)
        assert pair.v.verify() and pair.u.verify()
        assert pair.v.nonvanishing()


def _row_residual(field, v):
    """z f(v) minus the operator row at v, one Gaussian operation at a
    time: the oracle for `SolutionField.residual`."""
    t, f = field.tree, field.values
    acc = field.z * f[v] - t.beta[v] * f[v] - t.lam[v] * f[t.parent[v]]
    for c in t.children[v]:
        acc = acc - t.lam[c] * f[c]
    return acc


def test_residual_equals_the_termwise_row_on_random_fields():
    # random values leave every residual nonzero in both parts; equal
    # denominators and unequal ones both occur
    rng = random.Random(5)
    checked = 0
    for tree in random_corpus(17, 30):
        for z in (I, GR(F(-1, 3), F(3, 2))):
            values = {v: GR(F(rng.randint(-9, 9), rng.choice((1, 2, 6))),
                            F(rng.randint(-9, 9), rng.choice((1, 3, 4))))
                      for v in range(tree.size)}
            fld = SolutionField(tree, z, values, frozenset(tree.interior()))
            for v in range(tree.size):
                if v != tree.top:
                    assert fld.residual(v) == _row_residual(fld, v)
                    checked += 1
    assert checked > 300


def test_verify_sees_a_purely_imaginary_residual():
    # u(x_0) carries no equation; moving it by i/7 leaves only the
    # residual at x_1 wrong, by -lambda_{x_0} i/7, with real part 0
    tree = homogeneous_tree(2, 3)
    pair = solve_pair(tree, default_path(tree), I)
    x0, x1 = pair.path[0], pair.path[1]
    values = dict(pair.u.values)
    values[x0] = values[x0] + GR(F(0), F(1, 7))
    fld = SolutionField(tree, I, values, pair.u.satisfied_at, pair.path)
    assert fld.residual(x1) == GR(F(0), -tree.lam[x0] / 7)
    assert not fld.verify()
    assert pair.u.verify()


def test_single_vertex_pair_is_degenerate():
    tree = build_from_spec(
        '{"vertices": [{"id": "v", "level": 0, "beta": "2/1"}],'
        ' "top": "v", "top_lambda": "1/1"}')
    pair = solve_pair(tree, default_path(tree), I)
    assert pair.v.values[0] == GR(F(1), F(0))
    assert pair.u.values[0] == GR(F(0), F(0))
    assert pair.v.satisfied_at == frozenset()  # the only vertex is the top
    assert pair.v.verify()


def test_rejects_real_z():
    message = "solve_pair needs a nonreal z; use propagate_real"
    with pytest.raises(ValueError, match=message):
        solve_pair(STAR, default_path(STAR), GR(F(1), F(0)))
    with pytest.raises(ValueError, match=message):
        growth_profile(STAR, GR(F(1), F(0)), [1])


def test_wronskian_is_reciprocal_weight():
    tree = homogeneous_tree(2, 4)
    path = default_path(tree)
    pair = solve_pair(tree, path, I)
    for n in range(len(path) - 1):
        assert wronskian(pair.v, pair.u, n) == GR(F(1), F(0))
    # non-unit weight: lambda_{x_2} = 3/2 makes the step value 2/3
    tree2 = path_tree(4, lam=lambda n: F(3, 2) if n == 2 else F(1))
    pair2 = solve_pair(tree2, default_path(tree2), I)
    assert wronskian(pair2.v, pair2.u, 2) == GR(F(2, 3), F(0))
    z = GR(F(1, 3), F(-2, 7))
    pair3 = solve_pair(tree2, default_path(tree2), z)
    assert wronskian(pair3.v, pair3.u, 2) == GR(F(2, 3), F(0))


def test_side_component_proportionality():
    # on every side subtree, v(x_k) u(w) = u(x_k) v(w) exactly
    for tree in random_corpus(8, 10):
        path = default_path(tree)
        pair = solve_pair(tree, path, I)
        on_path = set(path.vertices)
        for k, xk in enumerate(path.vertices):
            for y in tree.children[xk]:
                if y in on_path:
                    continue
                for w in tree.descendants(y):
                    lhs = pair.v.values[xk] * pair.u.values[w]
                    rhs = pair.u.values[xk] * pair.v.values[w]
                    assert lhs == rhs


def test_uniqueness_dimension_examples():
    single = build_from_spec(
        '{"vertices": [{"id": "v", "level": 0, "beta": "0/1"}],'
        ' "top": "v", "top_lambda": "1/1"}')
    assert uniqueness_dimension(single, 0, I) == 1
    assert uniqueness_dimension(STAR, STAR.top, I) == 1
    h = homogeneous_tree(2, 3)
    assert uniqueness_dimension(h, h.top, I) == 1
    assert uniqueness_dimension(h, h.children[h.top][0], I) == 1


def test_conjugation_symmetry():
    z = GR(F(2, 5), F(3, 4))
    for tree in random_corpus(12, 6):
        path = default_path(tree)
        a = solve_pair(tree, path, z)
        b = solve_pair(tree, path, z.conjugate())
        assert all(a.v.values[v].conjugate() == b.v.values[v]
                   for v in a.v.values)
        assert all(a.u.values[v].conjugate() == b.u.values[v]
                   for v in a.u.values)


def _pair_at_i(tree):
    return solve_pair(tree, default_path(tree), I)


def test_rotated_positivity_small_and_levelled():
    tree = path_tree(1)
    rep = rotated_positivity_report(_pair_at_i(tree))
    assert rep.ok and rep.rotated == {"x0": F(1), "x1": F(1)}
    h = homogeneous_tree(2, 4)
    assert rotated_positivity_report(_pair_at_i(h)).ok
    h2 = homogeneous_tree(3, 3, lam=lambda lv, addr: F(lv + 1))
    assert rotated_positivity_report(_pair_at_i(h2)).ok


def test_rotated_positivity_requires_zero_diagonal():
    t = path_tree(2, beta=F(1))
    with pytest.raises(ValueError):
        rotated_positivity_report(_pair_at_i(t))


def test_rotated_positivity_requires_pair_at_i():
    h = homogeneous_tree(2, 2)
    with pytest.raises(ValueError):
        rotated_positivity_report(solve_pair(h, default_path(h),
                                             GaussianRational(F(0), F(2))))


def test_rotated_positivity_random_weights():
    rng = random.Random(4)
    for _ in range(5):
        tree = homogeneous_tree(
            2, 3, lam=lambda lv, addr: F(rng.randint(1, 12), rng.randint(1, 4)))
        rep = rotated_positivity_report(_pair_at_i(tree))
        assert rep.ok
        assert all(row["ok"] for row in rep.step_rows)


def test_propagate_real_star():
    res = propagate_real(STAR, F(1))
    assert not res.obstructed
    vals = {STAR.ids[k]: v for k, v in res.field.values.items()}
    assert all(v == GR(F(1), F(0)) for v in vals.values())


def test_propagate_real_path_never_obstructs():
    tree = path_tree(6, lam=lambda n: F(n + 1, 2),
                     beta=lambda n: F((-1) ** n, 3))
    for k in range(20):
        r = F(k - 10, 3)
        res = propagate_real(tree, r)
        assert not res.obstructed
        assert res.field.verify()


def test_propagate_real_minimal_obstruction():
    # top with two level-0 children: origin diagonal 1, side diagonal 0.
    # at r = 0 the side equation forces f(x1) = 0 and the origin equation
    # then forces f(x0) = 0, contradicting the normalization.
    tree = build_from_spec("""
    {"vertices": [
      {"id": "x0", "parent": "x1", "level": 0, "lambda": "1/1", "beta": "1/1"},
      {"id": "y", "parent": "x1", "level": 0, "lambda": "1/1", "beta": "0/1"},
      {"id": "x1", "level": 1, "beta": "0/1"}],
     "top": "x1", "top_lambda": "1/1"}
    """)
    res = propagate_real(tree, F(0))
    assert res.obstructed and res.obstruction_id == "y"
    # while at a generic r it succeeds
    assert not propagate_real(tree, F(2)).obstructed


def test_propagate_real_free_side_choice():
    # same tree but with origin diagonal 0: now f(x1) = 0 and the side
    # scale is free; a field still exists (the sibling kernel vector)
    tree = build_from_spec("""
    {"vertices": [
      {"id": "x0", "parent": "x1", "level": 0, "lambda": "1/1", "beta": "0/1"},
      {"id": "y", "parent": "x1", "level": 0, "lambda": "1/1", "beta": "0/1"},
      {"id": "x1", "level": 1, "beta": "0/1"}],
     "top": "x1", "top_lambda": "1/1"}
    """)
    res = propagate_real(tree, F(0))
    assert not res.obstructed
    assert res.field.verify()
    assert "y" in res.free_choices


def _feasible_by_rank(tree, r):
    """Independent feasibility route: a normalized field exists iff the
    origin functional is not in the row span of the interior equations."""
    from treejacobi.solutions import _echelon, _equation_row
    order = tree.descendants(tree.top)
    pos = {v: i for i, v in enumerate(order)}
    rows = [_equation_row(tree, w, pos, F(r), F(0))
            for w in order if w != tree.top and w not in tree.cut]
    base = len(_echelon(rows, len(order))[1])
    origin = default_path(tree)[0]
    extra = [F(0)] * len(order)
    extra[pos[origin]] = F(1)
    return len(_echelon(rows + [extra], len(order))[1]) > base


def test_echelon_leaves_input_rows_unchanged():
    """Elimination builds new rows: the caller's list keeps its order and
    every row its entries, while the echelon form is zero below and left
    of each pivot."""
    from treejacobi.solutions import _echelon
    rows = [[F(0), F(2), F(1), F(3)], [F(1), F(1), F(0), F(1)],
            [F(2), F(4), F(1), F(5)], [F(0), F(1), I, F(0)]]
    order = [id(row) for row in rows]
    before = [row[:] for row in rows]
    echelon, pivots = _echelon(rows, 3)
    assert [id(row) for row in rows] == order and rows == before
    assert pivots == [0, 1, 2]
    for r, col in enumerate(pivots):
        assert echelon[r][col]
        assert not any(echelon[r][:col])
        assert not any(row[col] for row in echelon[r + 1:])


def test_propagate_real_matches_rank_criterion():
    # sample at small rationals including frequent eigenvalues of blocks
    rng = random.Random(31)
    trees = random_corpus(31, 25, coincident_every=2)
    values = [F(k) for k in (-2, -1, 0, 1, 2)] + [F(1, 2), F(-3, 2)]
    checked_obstructions = 0
    for tree in trees:
        for r in values:
            res = propagate_real(tree, r)
            assert res.obstructed != _feasible_by_rank(tree, r)
            if res.obstructed:
                checked_obstructions += 1
            else:
                assert res.field.verify()
                origin = default_path(tree)[0]
                assert res.field.values[origin] == GR(F(1), F(0))
    assert checked_obstructions > 0  # the sample must hit degenerate cases


def test_growth_profile_shapes():
    profile = growth_profile(homogeneous_tree(2, 5), I, range(2, 6))
    assert len(profile.rows) == 4
    assert profile.strictly_increasing
    assert profile.carleman_divergent_trend
    assert all(row.norm2 > 1 for row in profile.rows)  # v(x_0) = 1 alone is 1


def test_growth_profile_carleman_values():
    profile = growth_profile(path_tree(4, lam=lambda n: F(n + 1)), I, [3, 4])
    assert profile.rows[0].carleman_sum == F(1) + F(1, 2) + F(1, 3) + F(1, 4)
    assert profile.rows[1].carleman_sum == profile.rows[0].carleman_sum + F(1, 5)
    assert [row.size for row in profile.rows] == [4, 5]


@pytest.mark.parametrize("depth", [-1, 4])
def test_growth_profile_rejects_depths_off_the_path(depth):
    # a negative depth must not read a row off the end of the path
    with pytest.raises(ValueError, match=rf"depth {depth} is not in 0\.\.3"):
        growth_profile(homogeneous_tree(2, 3), I, [0, depth])
