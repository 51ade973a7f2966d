import random
from fractions import Fraction as F

from conftest import (cut_shape_corpus, exhaustive_corpus, h23, h24,
                      random_beta, random_corpus, random_lambda)
from treejacobi.exactmath import I, ONE, Poly, X
from treejacobi.treecore import build_from_spec, homogeneous_tree, path_tree
from treejacobi.treepoly import (FamilyReport, PolyFamily, VertexCheck,
                                 degree_law_report, divisibility_report,
                                 family, interlacing_report)

STAR = """
{"vertices": [
  {"id": "a", "parent": "x", "level": 0, "lambda": "1/1", "beta": "%s"},
  {"id": "b", "parent": "x", "level": 0, "lambda": "1/1", "beta": "%s"},
  {"id": "x", "level": 1, "beta": "0/1"}],
 "top": "x", "top_lambda": "1/1"}
"""


def test_leaf_formulas():
    t = build_from_spec('{"vertices": [{"id": "v", "level": 0, "beta": "3/1"}],'
                        ' "top": "v", "top_lambda": "2/1"}')
    fam = family(t)
    assert fam.self_poly[0] == ONE
    assert fam.up_poly[0] == Poly([F(-3, 2), F(1, 2)])  # (z - 3) / 2


def test_star_worked_polynomials():
    t = build_from_spec(STAR % ("0/1", "0/1"))
    fam = family(t)
    x = t.index_of("x")
    assert fam.self_poly[x] == X
    assert fam.up_poly[x] == X * X - 2 * ONE
    assert fam.entry(x, t.index_of("a")) == ONE


def test_star_coincident_lcm():
    t = build_from_spec(STAR % ("5/1", "5/1"))
    fam = family(t)
    x = t.index_of("x")
    assert fam.self_poly[x] == X - 5 * ONE


def test_degree_and_leading_law_on_corpus():
    for tree in exhaustive_corpus(6)[:30] + random_corpus(17, 15):
        assert degree_law_report(family(tree)).ok


def test_divisibility_on_corpus():
    for tree in exhaustive_corpus(5) + random_corpus(31, 10):
        rep = divisibility_report(family(tree))
        assert rep.ok, rep.failures()


def divisibility_scan(fam: PolyFamily) -> FamilyReport:
    """Reference for `divisibility_report`: the division P(c, t) | P(v, t)
    itself for every child c of every v and every t in the closed subtree
    below c, then t = v; a failure names the first failing (c, t)."""
    rep = FamilyReport()
    t = fam.tree
    for v in sorted(fam.vertices()):
        name = t.ids[v]
        bad = None
        for c in t.children[v]:
            for s in t.descendants(c) + [v]:
                target = None if s == v else s
                big = fam.entry(v, s)
                small = fam.entry(c, target) if target is not None else fam.up_poly[c]
                q, r = divmod(big, small)
                if not r.is_zero:
                    bad = (c, s)
                    break
            if bad:
                break
        if bad:
            rep.checks.append(VertexCheck(
                name, False,
                f"P({t.ids[bad[0]]}, {t.ids[bad[1]]}) does not divide "
                f"P({name}, {t.ids[bad[1]]})"))
        else:
            rep.checks.append(VertexCheck(name, True))
    return rep


def test_divisibility_per_edge_matches_scan():
    trees = ([h23(), h24()] + exhaustive_corpus(6) + random_corpus(7, 60)
             + cut_shape_corpus(6))
    for tree in trees:
        fam = family(tree)
        assert divisibility_report(fam) == divisibility_scan(fam)


def test_divisibility_flags_a_replaced_self_poly():
    tree = h23()
    fam = family(tree)
    v = next(u for u in fam.vertices() if tree.level[u] == 1)
    fam.self_poly[v] = fam.self_poly[v] + ONE  # == 1 mod every child's up_poly
    c, name = tree.ids[tree.children[v][0]], tree.ids[v]
    assert divisibility_report(fam).failures() == [VertexCheck(
        name, False, f"P({c}, {name}) does not divide P({name}, {name})")]


def _real_roots_far(n: int) -> Poly:
    """(z - 100)(z - 101)...: n real simple roots beyond every root of
    h23's family."""
    p = ONE
    for i in range(n):
        p = p * (X - (100 + i) * ONE)
    return p


def test_family_reports_name_each_failure_detail():
    # tamper one vertex per case; the report names exactly that vertex
    # with the detail of the first check it fails
    tree = h23()
    v = next(u for u in range(tree.size) if tree.level[u] == 1)
    no_real = X * X + ONE
    cases = [
        (interlacing_report, "up_poly", lambda s, u: u * X,
         "degree law violated"),
        (interlacing_report, "self_poly",
         lambda s, u: no_real * _real_roots_far(s.degree - 2),
         "self polynomial roots not real simple"),
        (interlacing_report, "up_poly",
         lambda s, u: no_real * _real_roots_far(u.degree - 2),
         "up polynomial roots not real simple"),
        (interlacing_report, "self_poly",
         lambda s, u: _real_roots_far(s.degree), "interlacing fails"),
        (degree_law_report, "up_poly", lambda s, u: u * 2,
         "degree/leading law"),
    ]
    for report, slot, tamper, detail in cases:
        fam = family(tree)
        assert report(fam).ok
        getattr(fam, slot)[v] = tamper(fam.self_poly[v], fam.up_poly[v])
        assert report(fam).failures() == [
            VertexCheck(tree.ids[v], False, detail)], detail


def test_interlacing_random_homogeneous():
    rng = random.Random(41)
    for _ in range(3):
        tree = homogeneous_tree(
            2, 4,
            lam=lambda lv, addr: random_lambda(rng),
            beta=lambda lv, addr: random_beta(rng))
        rep = interlacing_report(family(tree))
        assert rep.ok, rep.failures()


def test_interlacing_degenerate_leaf():
    t = build_from_spec('{"vertices": [{"id": "v", "level": 0, "beta": "0/1"}],'
                        ' "top": "v", "top_lambda": "1/1"}')
    assert interlacing_report(family(t)).ok


def test_nonvanishing_off_axis():
    for tree in exhaustive_corpus(6)[:24]:
        fam = family(tree)
        for v in fam.vertices():
            assert bool(fam.self_poly[v](I))
            assert bool(fam.up_poly[v](I))


def test_path_degeneration_matches_classical_recursion():
    lam = [F(2), F(3), F(1, 2), F(5, 4), F(1)]
    beta = [F(1), F(-1, 3), F(0), F(2), F(-2)]
    depth = 4
    tree = path_tree(depth, lam=lambda n: lam[n], beta=lambda n: beta[n])
    fam = family(tree)
    # orthonormal three-term recursion values
    prev, cur = Poly(), ONE
    ps = [cur]
    for n in range(depth + 1):
        lam_prev = lam[n - 1] if n else F(0)
        nxt = (Poly([-beta[n], 1]) * cur - lam_prev * prev) * (F(1) / lam[n])
        prev, cur = cur, nxt
        ps.append(cur)
    scale = F(1)
    for n in range(depth + 1):
        up = fam.up_poly[tree.index_of(f"x{n}")]
        assert up == scale * ps[n + 1]
        scale *= lam[n]


def test_path_degeneration_cross_module_sampling():
    # pin the path-family polynomials against classical first-kind values
    # at degree+1 sample points (cross-computation with classical1d)
    from treejacobi.classical1d import classical, pq_values
    lam = [F(1), F(3, 2), F(2), F(1, 3)]
    beta = [F(0), F(1), F(-1, 2), F(2)]
    depth = 3
    tree = path_tree(depth, lam=lambda n: lam[n], beta=lambda n: beta[n])
    fam = family(tree)
    j = classical(lambda n: lam[n], lambda n: beta[n], depth + 1)
    scale = F(1)
    for n in range(depth + 1):
        up = fam.up_poly[tree.index_of(f"x{n}")]
        assert up.degree == n + 1
        for point in [F(k, 2) for k in range(-(n + 2), n + 3)][: n + 2]:
            p, _ = pq_values(j, point, n + 1)
            assert up(point) == scale * p[n + 1]
        scale *= lam[n]


def test_repeated_root_never_appears_in_up_polys():
    # simple zeros everywhere on a random corpus: gcd(p, p') is constant
    from treejacobi.exactmath import poly_gcd
    for tree in random_corpus(99, 25):
        fam = family(tree)
        for v in fam.vertices():
            for p in (fam.up_poly[v], fam.self_poly[v]):
                assert p.degree == 0 or poly_gcd(p, p.derivative()).degree == 0


def test_family_row_is_an_eigen_field():
    # the row t -> P(anchor, t) solves the eigen-equation identically (as
    # polynomials) at every vertex of the subtree, taking the anchor's
    # up-polynomial as the value one level above
    from treejacobi.exactmath import X as Z
    for tree in exhaustive_corpus(5)[:18] + random_corpus(7, 10):
        fam = family(tree)
        x = tree.top
        for w in tree.descendants(x):
            here = fam.entry(x, w)
            acc = Z * here - tree.beta[w] * here
            above = fam.up_poly[x] if w == x else fam.entry(x, tree.parent[w])
            acc = acc - tree.lam[w] * above
            for c in tree.children[w]:
                acc = acc - tree.lam[c] * fam.entry(x, c)
            assert acc.is_zero
    # and anchored away from the top as well
    tree = homogeneous_tree(2, 3, lam=F(1, 2), beta=F(-1))
    anchor = tree.children[tree.top][0]
    fam = family(tree, anchor)
    for w in tree.descendants(anchor):
        here = fam.entry(anchor, w)
        acc = Poly([0, 1]) * here - tree.beta[w] * here
        above = fam.up_poly[anchor] if w == anchor \
            else fam.entry(anchor, tree.parent[w])
        acc = acc - tree.lam[w] * above
        for c in tree.children[w]:
            acc = acc - tree.lam[c] * fam.entry(anchor, c)
        assert acc.is_zero


def test_entry_telescoping_consistency():
    tree = homogeneous_tree(2, 3, lam=F(1, 2), beta=F(1))
    fam = family(tree)
    top = tree.top
    for t_v in tree.descendants(top):
        # entry must multiply out along the child chain
        p = fam.entry(top, t_v)
        q, r = divmod(p, fam.self_poly[top])
        if t_v == top:
            assert p == fam.self_poly[top]
        else:
            assert not p.is_zero
    # divisibility of entries through an intermediate vertex
    c = tree.children[top][0]
    for t_v in tree.descendants(c):
        big = fam.entry(top, t_v)
        small = fam.entry(c, t_v)
        assert (big % small).is_zero
