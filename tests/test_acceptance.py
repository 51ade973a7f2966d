"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or `-v`).
All comparisons are exact rational arithmetic; the two trend checks
(classical square-sum window, norm growth) are explicitly finite-depth
indicators with exact comparisons against pinned thresholds.
"""

import random
from fractions import Fraction as F

from conftest import (cut_shape_corpus, exhaustive_corpus,
                      random_corpus, random_leveled_tree, random_lambda)
from treejacobi.classical1d import (classical, even_reduction_residuals,
                                    geometric_family, kernel_vector_residuals,
                                    pq_square_sum)
from treejacobi.constructions import (bounded_base_radius_ok,
                                      build_real_obstruction,
                                      build_small_norm_pair,
                                      check_positivity_certificate,
                                      construct_positivity_certificate,
                                      default_path_weight,
                                      unit_certificate)
from treejacobi.exactmath import (GaussianRational, I, ONE, X,
                                  count_real_roots, square_free_decomposition)
from treejacobi.solutions import (growth_profile, propagate_real, solve_pair,
                                  rotated_positivity_report,
                                  uniqueness_dimension, wronskian)
from treejacobi.spectra import (char_poly, count_negative_eigenvalues,
                                verify_spectral_identity)
from treejacobi.treecore import (TreeTruncation, build_from_spec,
                                 default_path, homogeneous_tree, path_tree)
from treejacobi.treepoly import (degree_law_report, family,
                                 interlacing_report)


def _line(number: int, name: str, ok: bool):
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def _main_corpus():
    return exhaustive_corpus(6) + random_corpus(
        seed=2024, count=100, max_vertices=12)


def test_criterion_01_spectral_identity_oracle():
    ok = all(verify_spectral_identity(family(tree), char_poly(tree))
             for tree in _main_corpus() + cut_shape_corpus(6))
    _line(1, "spectral identity on exhaustive and random corpus", ok)


def test_criterion_02_real_simple_interlacing_and_degree_law():
    ok = True
    for tree in _main_corpus():
        fam = family(tree)
        ok = ok and degree_law_report(fam).ok and interlacing_report(fam).ok
    _line(2, "real simple interlacing roots and degree law", ok)


def test_criterion_03_star_worked_example():
    star = build_from_spec("""
    {"vertices": [
      {"id": "a", "parent": "x", "level": 0, "lambda": "1/1", "beta": "0/1"},
      {"id": "b", "parent": "x", "level": 0, "lambda": "1/1", "beta": "0/1"},
      {"id": "x", "level": 1, "beta": "0/1"}],
     "top": "x", "top_lambda": "1/1"}
    """)
    fam = family(star)
    x = star.index_of("x")
    ok = (fam.self_poly[x] == X
          and fam.up_poly[x] == X * X - 2 * ONE
          and char_poly(star) == X * X * X - 2 * X
          and char_poly(star) == (X * X - 2 * ONE) * X
          and verify_spectral_identity(fam, char_poly(star)))
    _line(3, "star worked example", ok)


def test_criterion_04_wronskian_along_paths():
    rng = random.Random(404)
    ok = True
    for _ in range(20):
        depth = rng.randint(2, 10)
        tree = random_leveled_tree(rng, depth, extra_chains=rng.randint(0, 3))
        path = default_path(tree)
        pair = solve_pair(tree, path, I)
        for n in range(len(path) - 1):
            expected = GaussianRational(F(1) / tree.lam[path[n]], F(0))
            ok = ok and wronskian(pair.v, pair.u, n) == expected
    _line(4, "wronskian equals reciprocal weight at every step", ok)


def test_criterion_05_uniqueness_dimension_shadow():
    ok = all(uniqueness_dimension(tree, tree.top, I) == 1
             for tree in _main_corpus())
    _line(5, "solution space dimension one at nonreal z", ok)


def test_criterion_06_rotated_positivity():
    rng = random.Random(606)
    ok = True
    for _ in range(20):
        depth = rng.randint(1, 6)
        base = random_leveled_tree(rng, depth, extra_chains=rng.randint(0, 3))
        tree = TreeTruncation(base.ids, base.top,
                              [base.parent[v] for v in range(base.size)],
                              base.level, base.lam, [F(0)] * base.size)
        rep = rotated_positivity_report(solve_pair(tree, default_path(tree), I))
        ok = ok and rep.ok and all(row["ok"] for row in rep.step_rows)
    _line(6, "rotated solution positive with growing path steps", ok)


def test_criterion_07_small_norm_construction():
    res = build_small_norm_pair(8)
    ok = res.solution.verify()
    for row in res.ledger:  # stage bound from stage 1 on; see decisions note
        ok = ok and row.total_norm2 <= F(1) - F(1, 2 ** row.n)
    ok = ok and len(res.ledger) == 8
    _line(7, "norm-capped construction at depth 8", ok)


def test_criterion_08_bounded_base_plus_path_window():
    ok = bounded_base_radius_ok(4, range(2, 6))
    # dual route at depth 2: root count of the characteristic polynomial
    base = homogeneous_tree(4, 2, lam=F(1, 2))
    p = char_poly(base)
    outside = 0
    for g, mult in square_free_decomposition(p):
        if g.degree >= 1:
            total = count_real_roots(g)
            inside = count_real_roots(g, F(-2), F(2))
            outside += mult * (total - inside)
    ok = ok and outside == 0
    window = pq_square_sum(classical(default_path_weight, F(0), 40), F(0), 30) \
        - pq_square_sum(classical(default_path_weight, F(0), 40), F(0), 20)
    ok = ok and 0 < window < F(1, 10 ** 6)
    _line(8, "base radius within [-2,2] and square-sum window < 1e-6", ok)


def test_criterion_09_geometric_family_checks():
    fam = geometric_family(F(2), F(1), 90)
    ok = all(r == 0 for r in kernel_vector_residuals(fam, 40))
    rng = random.Random(909)
    for _ in range(50):
        s0 = F(rng.randint(-9, 9), rng.randint(1, 5))
        s1 = F(rng.randint(-9, 9), rng.randint(1, 5))
        ok = ok and all(r == 0
                        for r in even_reduction_residuals(fam, s0, s1, 40))
    _line(9, "geometric family kernel vector and even reduction", ok)


def test_criterion_10_positivity_certificates():
    h = homogeneous_tree(2, 4, lam=F(1), beta=F(4))
    verdict = check_positivity_certificate(h, unit_certificate(h))
    ok = verdict.ok and count_negative_eigenvalues(char_poly(h)) == 0
    rng = random.Random(1010)
    built = 0
    while built < 20:
        depth = rng.randint(1, 4)
        base = random_leveled_tree(rng, depth, extra_chains=rng.randint(0, 3))
        beta = [F(1) + base.lam[v] + sum(base.lam[c] for c in base.children[v])
                for v in range(base.size)]
        tree = TreeTruncation(base.ids, base.top,
                              [base.parent[v] for v in range(base.size)],
                              base.level, base.lam, beta)
        con = construct_positivity_certificate(tree)
        v2 = check_positivity_certificate(tree, con.certificate.m)
        ok = ok and v2.ok and v2.equality_everywhere
        ok = ok and all(x > 0 for x in con.certificate.m.values())
        built += 1
    _line(10, "positivity check and equality certificates", ok)


def test_criterion_11_real_value_obstruction():
    res = build_real_obstruction(4)
    ok = res.propagation.obstructed
    rng = random.Random(1111)
    tree = path_tree(6, lam=lambda n: random_lambda(rng))
    for k in range(20):
        ok = ok and not propagate_real(tree, F(k - 10, 3)).obstructed
    _line(11, "obstruction at zero, none on the degenerate path", ok)


def test_criterion_12_growth_indicators():
    divergent = homogeneous_tree(
        2, 15,
        lam=lambda lv, addr: F(lv + 1) if all(a == 0 for a in addr) else F(1))
    profile = growth_profile(divergent, I, range(3, 16))
    ok = profile.strictly_increasing and profile.carleman_divergent_trend
    capped = build_small_norm_pair(15)
    by_stage = {row.n: row.total_norm2 for row in capped.ledger}
    for n in range(3, 16):
        ok = ok and by_stage[n] <= 1 and by_stage[n] <= F(1) - F(1, 2 ** n)
    _line(12, "norm growth indicators (divergent vs capped)", ok)
