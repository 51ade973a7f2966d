import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cut_shape_corpus, random_corpus, random_lambda
from treejacobi import constructions
from treejacobi.constructions import (bounded_base_radius_ok,
                                      build_path_perturbed_homogeneous,
                                      build_pendant_path,
                                      build_real_obstruction,
                                      build_small_norm_pair,
                                      check_positivity_certificate,
                                      construct_positivity_certificate,
                                      path_weight_square_sum_window,
                                      small_norm_profile, unit_certificate)
from treejacobi.errors import PositivityError
from treejacobi.exactmath import I
from treejacobi.solutions import propagate_real, uniqueness_dimension
from treejacobi.spectra import (char_poly, count_negative_eigenvalues,
                                tree_inertia)
from treejacobi.treecore import (ClassTable, TreeTruncation,
                                 build_from_spec, default_path,
                                 homogeneous_classes, homogeneous_tree,
                                 path_tree)
from treejacobi.treepoly import family
from tree_elimination_oracle import certificate_oracle, pivot_inertia


def make_positive_definite(tree: TreeTruncation) -> TreeTruncation:
    """Raise the diagonal above the weighted degree so the truncation is
    strictly positive definite (exact diagonal dominance)."""
    beta = [F(1) + tree.lam[v] + sum(tree.lam[c] for c in tree.children[v])
            for v in range(tree.size)]
    return TreeTruncation(tree.ids, tree.top,
                          [tree.parent[v] for v in range(tree.size)],
                          tree.level, tree.lam, beta, tree.cut)


# -- certificate checking ---------------------------------------------


def test_certificate_inequality_example():
    h = homogeneous_tree(2, 3, beta=F(4))
    verdict = check_positivity_certificate(h, unit_certificate(h))
    assert verdict.ok and verdict.negative_eigenvalues == 0
    assert count_negative_eigenvalues(char_poly(h)) == 0


def test_certificate_fails_for_zero_diagonal():
    h = homogeneous_tree(2, 3)
    verdict = check_positivity_certificate(h, unit_certificate(h))
    assert not verdict.ok and verdict.failures


def test_certificate_equality_mode():
    def beta(lv, addr):
        return F(1 + (2 if lv > 0 else 0))
    h = homogeneous_tree(2, 3, beta=beta)
    verdict = check_positivity_certificate(h, unit_certificate(h))
    assert verdict.ok and verdict.equality_everywhere


def test_certificate_rejects_nonpositive_m():
    h = homogeneous_tree(2, 2, beta=F(4))
    m = unit_certificate(h)
    m[0] = F(0)
    with pytest.raises(ValueError):
        check_positivity_certificate(h, m)


# -- certificate construction -----------------------------------------


def test_construct_certificate_path():
    pt = path_tree(3, beta=F(4))
    con = construct_positivity_certificate(pt)
    cert = con.certificate
    assert cert.mode == "equality"
    assert [cert.m[pt.index_of(f"x{k}")] for k in range(4)] == \
        [F(1), F(4), F(15), F(56)]


def test_construct_certificate_star_recovers_unit():
    star = build_from_spec("""
    {"vertices": [
      {"id": "a", "parent": "x", "level": 0, "lambda": "1/1", "beta": "1/1"},
      {"id": "b", "parent": "x", "level": 0, "lambda": "1/1", "beta": "1/1"},
      {"id": "x", "level": 1, "beta": "3/1"}],
     "top": "x", "top_lambda": "1/1"}
    """)
    con = construct_positivity_certificate(star)
    assert set(con.certificate.m.values()) == {F(1)}


def test_construct_certificate_homogeneous():
    h = homogeneous_tree(2, 4, beta=F(4))
    con = construct_positivity_certificate(h)
    verdict = check_positivity_certificate(h, con.certificate.m)
    assert verdict.ok and verdict.equality_everywhere


def test_construct_certificate_random_positive_definite():
    for tree in [make_positive_definite(t) for t in random_corpus(55, 20)]:
        con = construct_positivity_certificate(tree)
        assert all(x > 0 for x in con.certificate.m.values())
        verdict = check_positivity_certificate(tree, con.certificate.m)
        assert verdict.ok and verdict.equality_everywhere


def test_certificate_matches_explicit_solves():
    trees = ([make_positive_definite(t) for t in
              random_corpus(55, 20) + cut_shape_corpus(5)]
             + [homogeneous_tree(2, 4, beta=F(4))])
    for tree in trees:
        for n_reg in (1, 1000):
            con = construct_positivity_certificate(tree, n_reg=n_reg)
            ref = certificate_oracle(tree, default_path(tree), n_reg)
            assert con.side_mass == ref.side_mass
            assert con.certificate.m == ref.m
            assert con.regularized_m == ref.regularized_m


def test_construct_certificate_rejects_indefinite():
    h = homogeneous_tree(2, 2)  # zero diagonal: indefinite
    with pytest.raises(PositivityError):
        construct_positivity_certificate(h)


def test_construct_certificate_rejects_singular_semidefinite():
    # J = [[1, 1], [1, 1]] has eigenvalues 0 and 2: the pivot at x is 0
    star = build_from_spec("""
    {"vertices": [
      {"id": "a", "parent": "x", "level": 0, "lambda": "1/1", "beta": "1/1"},
      {"id": "x", "level": 1, "beta": "1/1"}],
     "top": "x", "top_lambda": "1/1"}
    """)
    assert tree_inertia(star, F(0)).below == 0
    with pytest.raises(PositivityError, match="'x'"):
        construct_positivity_certificate(star)


def _count_eliminations(monkeypatch) -> list:
    """Record every `ClassTable.ratios` point and every `tree_inertia`
    call."""
    calls = []
    ratios = ClassTable.ratios

    def counted_ratios(self, z):
        calls.append(("ratios", z))
        return ratios(self, z)

    def counted_inertia(*args, **kwargs):
        calls.append(("tree_inertia",))
        return tree_inertia(*args, **kwargs)

    monkeypatch.setattr(ClassTable, "ratios", counted_ratios)
    monkeypatch.setattr(constructions, "tree_inertia", counted_inertia)
    return calls


def test_certificate_makes_one_elimination_at_zero(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    construct_positivity_certificate(homogeneous_tree(2, 3, beta=F(4)),
                                     n_reg=7)
    assert sorted(calls) == [("ratios", F(-1, 7)), ("ratios", F(0))]


def test_regularized_masses_approach_exact():
    tree = make_positive_definite(random_corpus(91, 1, max_vertices=10)[0])
    rough = construct_positivity_certificate(tree, n_reg=1)
    fine = construct_positivity_certificate(tree, n_reg=1000)
    for a, b, exact in zip(rough.regularized_side_mass,
                           fine.regularized_side_mass, rough.side_mass):
        assert abs(b - exact) <= abs(a - exact)


# -- small-norm construction ------------------------------------------


def test_small_norm_ledger_and_residuals():
    res = build_small_norm_pair(8)
    assert res.ok
    assert res.solution.verify()
    assert res.solution.nonvanishing()
    for row in res.ledger:
        assert row.total_norm2 <= F(1) - F(1, 2 ** row.n)


def test_small_norm_ledger_matches_recomputed_norms():
    # at the growth pool's depth: the ledger reuses each stage's norms
    res = build_small_norm_pair(30)
    tree, field = res.tree, res.solution
    for row in res.ledger:
        stage_top = tree.index_of(f"x{row.n}")
        recomputed = sum((field.values[v].abs2()
                          for v in tree.descendants(stage_top)), F(0))
        assert recomputed == row.total_norm2


@pytest.mark.parametrize("shrink", [1, 7], ids=["default", "budget/7"])
def test_small_norm_weights_are_the_least_that_fit(monkeypatch, shrink):
    # read off the finished tree: each stage's new path value and side
    # subtree fit their budget, and with a weight 2^k (k > 0) on the path
    # or 2^(-k) (k > 0) on the side they would not fit at 2^(k-1) or
    # 2^(-(k-1)): the path value and the side values scale as 1/lambda
    # and lambda, their squared norms by 4.  Every side weight comes out
    # 1; a budget cut by 7 puts 15 side masses above half their budget,
    # where a side test against a halved budget would pick 1/2
    budget = constructions.default_budget
    monkeypatch.setattr(constructions, "default_budget",
                        lambda n: budget(n) / shrink)
    res = build_small_norm_pair(30)
    tree, values, path = res.tree, res.solution.values, res.path
    for n in range(1, 31):
        b_n = budget(n) / shrink
        x_prev, x = path[n - 1], path[n]
        (s,) = path.sides[n]
        top2 = values[x].abs2()
        side2 = sum((values[v].abs2() for v in tree.descendants(s)), F(0))
        assert top2 <= b_n and side2 <= b_n
        assert tree.lam[x_prev] == 1 or 4 * top2 > b_n
        assert tree.lam[s] == 1 or 4 * side2 > b_n
        assert tree.lam[x_prev] >= 1 and tree.lam[s] <= 1


def _doubled_path_weight(r2: F, b: F) -> F:
    """The path-weight loop the build once ran: double from 1 until the
    new path value |R|^2 / lambda^2 fits the budget."""
    lam_prev = F(1)
    while r2 / lam_prev ** 2 > b:
        lam_prev *= 2
    return lam_prev


def _halved_side_weight(top2: F, head2: F, chain_mass: F, b: F) -> F:
    """The side-weight loop the build once ran: halve from 1 until the
    rescaled side chain fits the budget."""
    lam_side = F(1)
    while (lam_side ** 2 * top2 / head2) * chain_mass > b:
        lam_side /= 2
    return lam_side


@st.composite
def _positive_rationals(draw) -> F:
    """p/d with p and d of up to 10^4 bits, exact powers 4^k (k < 0 too)
    and their neighbours 4^k (1 +- 2^-200)."""
    kind = draw(st.sampled_from(["free", "power", "above", "below"]))
    if kind == "free":
        p = draw(st.integers(1, 2 ** draw(st.integers(1, 10_000))))
        return F(p, draw(st.integers(1, 2 ** draw(st.integers(1, 10_000)))))
    power = F(4) ** draw(st.integers(-5000, 5000))
    nudge = {"power": 0, "above": 1, "below": -1}[kind] * F(1, 2 ** 200)
    return power * (1 + nudge)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_positive_rationals(), st.integers(1, 60), st.integers(1, 8))
@example(F(1), 1, 1)
@example(F(1, 3), 5, 2)
@example(F(4), 1, 1)
@example(F(4 ** 9), 2, 3)
@example(F(4 ** 9) * (1 + F(1, 2 ** 200)), 2, 3)
@example(F(4 ** 9) * (1 - F(1, 2 ** 200)), 2, 3)
@example(F(2 ** 9_999 + 1, 3), 60, 1)
def test_least_power_of_four_matches_the_loops(q, n, head2):
    # q plays |R|^2 / b_n for the path weight and |v(x_n)|^2 M_n /
    # (|head|^2 b_n) for the side weight, split as the build splits it
    b = constructions.default_budget(n)
    k = constructions._least_power_of_four(q)
    assert k >= 0
    assert _doubled_path_weight(q * b, b) == 2 ** k
    assert _halved_side_weight(q * b, F(head2), F(head2), b) == F(1, 2 ** k)


def test_small_norm_off_path_weights_are_unit():
    res = build_small_norm_pair(6)
    tree = res.tree
    on_path = set(res.path.vertices)
    # graph distance from the path, one BFS over the whole tree
    dist = {v: 0 for v in on_path}
    frontier = list(on_path)
    while frontier:
        nxt = []
        for v in frontier:
            for w in list(tree.children[v]) + (
                    [tree.parent[v]] if tree.parent[v] is not None else []):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    for v in range(tree.size):
        if dist[v] > 2 and v not in on_path:
            assert tree.lam[v] == 1
    assert all(b == 0 for b in tree.beta)


def test_small_norm_uniqueness_shadow():
    res = build_small_norm_pair(5)
    assert uniqueness_dimension(res.tree, res.tree.top, I) == 1


def test_small_norm_profile_rows_are_the_stage_truncations():
    # each row against its stage read off the build directly: the ledger
    # total, the subtree below x_n and 1/lambda summed up the path
    res = build_small_norm_pair(9)
    tree = res.tree
    total = {row.n: row.total_norm2 for row in res.ledger}
    xs = [tree.index_of(f"x{k}") for k in range(10)]
    profile = small_norm_profile([1, 2, 5, 9])
    assert [row.depth for row in profile.rows] == [1, 2, 5, 9]
    for row in profile.rows:
        n = row.depth
        assert row.norm2 == total[n]
        assert row.size == len(tree.descendants(xs[n]))
        assert row.carleman_sum == sum(1 / tree.lam[x] for x in xs[:n + 1])


# -- perturbed homogeneous --------------------------------------------


def test_perturbed_homogeneous_weights():
    res = build_path_perturbed_homogeneous(4, 4)
    assert res.base_weight == F(1, 2)
    for n, v in enumerate(res.path.vertices):
        assert res.tree.lam[v] == F(1, 2) + F(2) ** (n + 1)
    off_path = set(range(res.tree.size)) - set(res.path.vertices)
    assert all(res.tree.lam[v] == F(1, 2) for v in off_path)


def test_perturbed_homogeneous_requires_square():
    for d, message in (
            (3, "branching d must be a perfect square for an exact base weight"),
            (0, "branching d must be >= 1"), (-4, "branching d must be >= 1")):
        for build in (lambda: build_path_perturbed_homogeneous(d, 3),
                      lambda: bounded_base_radius_ok(d, [2])):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == message


def test_base_radius_bound():
    assert bounded_base_radius_ok(4, range(2, 6))
    assert bounded_base_radius_ok(9, [2, 3])


def test_base_radius_bound_fails_when_weights_too_big():
    # unit weights on a binary tree push eigenvalues past 2
    h = homogeneous_tree(2, 4)
    assert tree_inertia(h, F(-2)).below + tree_inertia(h, F(2)).above > 0


def _outside_on_vertices(d, depth, t):
    """Eigenvalues of the base truncation outside [-t, t]: the radius check
    as it was, on the vertex tree with weights d^(-1/2), counted vertex by
    vertex (`pivot_inertia`)."""
    base = homogeneous_tree(d, depth, lam=F(1, math.isqrt(d)), beta=F(0))
    return pivot_inertia(base, -t).below + pivot_inertia(base, t).above


def _outside_on_classes(d, depth, t):
    """The same count on the unit-weight classes, against +-t / w."""
    table = homogeneous_classes(d, depth)[0]
    s = t * math.isqrt(d)
    return tree_inertia(table, -s).below + tree_inertia(table, s).above


@pytest.mark.parametrize("d", [1, 4, 9, 16, 25])
def test_base_radius_agrees_with_the_vertex_trees(d):
    # depths up to 5 whose vertex tree has at most 5,000 vertices
    depths = [k for k in range(6)
              if sum(d ** j for j in range(k + 1)) <= 5000]
    assert all(_outside_on_vertices(d, k, F(2)) == 0 for k in depths)
    assert bounded_base_radius_ok(d, depths)
    for k in depths:
        for t in (F(1), F(3, 2), F(2)):
            assert _outside_on_classes(d, k, t) == _outside_on_vertices(d, k, t)
    # the tighter thresholds say no: the top eigenvalue at depth k is
    # 2 cos(pi / (k + 2))
    assert any(_outside_on_classes(d, k, F(1)) for k in depths)
    if max(depths) >= 3:
        assert any(_outside_on_classes(d, k, F(3, 2)) for k in depths)


def test_base_radius_builds_no_tree(monkeypatch):
    built = []
    init = TreeTruncation.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TreeTruncation, "__init__", counted)
    assert bounded_base_radius_ok(4, range(2, 6))
    assert built == []


def test_classical_window_value():
    window = path_weight_square_sum_window()
    assert window < F(1, 10 ** 6)
    assert window > 0


# -- pendant path -------------------------------------------------------


def test_pendant_path_ramp_rule():
    res = build_pendant_path(10, rule="ramp", a=F(1))
    assert res.ok
    assert res.pair.v.verify()


def test_pendant_path_constant_rule():
    res = build_pendant_path(8, rule="constant", a=F(3, 4))
    assert res.ok
    y0 = res.tree.index_of("y0")
    assert res.tree.lam[y0] == F(5, 4)


def test_pendant_path_zero_decoration_is_free_recursion():
    res = build_pendant_path(5, rule="constant", a=F(0))
    assert res.ok
    assert all(res.tree.lam[res.tree.index_of(f"y{n}")] == 1 for n in range(5))


def test_pendant_path_rejects_irrational_weight():
    with pytest.raises(ValueError):
        build_pendant_path(4, rule="constant", a=F(1))


# -- real-value obstruction ---------------------------------------------


def test_obstruction_depths():
    for depth in (2, 3, 4):
        res = build_real_obstruction(depth)
        assert res.propagation.obstructed
        assert res.interior_dimensions == [1] * depth
        # interior blocks are positive definite
        for k in range(depth):
            y = res.tree.index_of(f"y{k}")
            for c in res.tree.children[y]:
                inertia = tree_inertia(res.tree.subtree(c), F(0))
                assert inertia.below == 0 and inertia.at == 0


def test_kill_beta_reads_no_inertia(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    build_real_obstruction(3)
    assert ("tree_inertia",) not in calls


def test_kill_betas_match_family_values():
    # the eigen-equation at y_k with the family's values at 0 and a zero
    # value above y_k
    res = build_real_obstruction(4)
    for k, beta in enumerate(res.kill_betas):
        y = res.tree.index_of(f"y{k}")
        fam = family(res.tree, y)
        child_sum = sum((res.tree.lam[c] * fam.entry(y, c)(F(0))
                         for c in res.tree.children[y]), F(0))
        assert beta == -child_sum / fam.self_poly[y](F(0))


def test_obstruction_vertex_is_first_side():
    res = build_real_obstruction(3)
    assert res.propagation.obstruction_id == "y0"


def test_obstruction_is_specific_to_zero():
    res = build_real_obstruction(2)
    other = propagate_real(res.tree, F(1))
    # no claim at generic real values; just confirm the checker runs
    assert other.obstructed or other.field.verify()


def test_path_tree_never_obstructs_at_sampled_rationals():
    rng = random.Random(77)
    tree = path_tree(5, lam=lambda n: random_lambda(rng))
    for k in range(20):
        assert not propagate_real(tree, F(k - 10, 2)).obstructed
