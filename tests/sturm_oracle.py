"""Sturm-count root isolation: the slow reference for `exactmath`.

This is the isolation `exactmath` used before it bisected by the sign
of the factor: every count is V(lo) - V(hi) over the public
`sturm_chain`, and every refinement step halves the interval by such a
count.  `sturm_negative_count` is the negative-eigenvalue count
`spectra` made before it read Descartes' signs: Sturm counts on the
square-free factors, weighted by multiplicity.  It shares no evaluator with the package: chain signs come from
a plain power sum, root tests from Fraction evaluation, so a wrong
integer sign in the package shows up as a different interval.
"""

from __future__ import annotations

from fractions import Fraction

from treejacobi.exactmath import (X, Poly, cauchy_root_bound,
                                  square_free_decomposition, sturm_chain)


def _integer_chain(g: Poly) -> list[list[int]]:
    """`sturm_chain(g)` as integer coefficient lists (its coefficients
    are integers already)."""
    chain = sturm_chain(g)
    assert all(c.denominator == 1 for q in chain for c in q.coeffs)
    return [[int(c) for c in q.coeffs] for q in chain]


def _variations(chain: list[list[int]], x: Fraction | None,
                positive: bool) -> int:
    """Sign variations of the chain at x (None: at -inf or +inf).  At a
    finite x = n/d, d > 0, each sign is that of the plain sum of
    c_i n^i d^(k - i), with k = deg chain[0] (no Horner)."""
    if x is None:  # signs of the leading terms
        signs = [(1 if q[-1] > 0 else -1)
                 * (1 if positive else (-1) ** (len(q) - 1)) for q in chain]
    else:
        k = len(chain[0]) - 1
        n_pow = [x.numerator ** i for i in range(k + 1)]
        d_pow = [x.denominator ** i for i in range(k + 1)]
        sums = [sum(c * n_pow[i] * d_pow[k - i] for i, c in enumerate(q))
                for q in chain]
        signs = [(t > 0) - (t < 0) for t in sums]
    signs = [s for s in signs if s]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def sturm_count(chain: list[list[int]], lo: Fraction | None,
                hi: Fraction | None) -> int:
    """Distinct roots of chain[0] in (lo, hi]; None means -/+ infinity."""
    return _variations(chain, lo, False) - _variations(chain, hi, True)


def sturm_negative_count(p: Poly) -> int:
    """Roots of p in (-inf, 0), with multiplicity, by Sturm counts."""
    while p(Fraction(0)) == 0:  # strip the root at 0: 0 closes (-inf, 0]
        p = p.exact_div(X)
    return sum(mult * sturm_count(_integer_chain(g), None, Fraction(0))
               for g, mult in square_free_decomposition(p) if g.degree >= 1)


def sturm_isolate_square_free(g: Poly, splits: list | None = None
                              ) -> list[tuple[Fraction, Fraction]]:
    """Disjoint (a, b], one root of the square-free g in each, sorted.
    The split points, in the order they are made, go to `splits`."""
    if g.degree < 1:
        return []
    chain = _integer_chain(g)
    bound = cauchy_root_bound(g)
    out = []
    stack = [(-bound, bound, sturm_count(chain, -bound, bound))]
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 1:
            out.append((a, b))
        elif cnt > 1:
            k = 2
            while g(a + (b - a) / k) == 0:  # midpoint, nudged toward a
                k += 1
            m = a + (b - a) / k
            if splits is not None:
                splits.append(m)
            left = sturm_count(chain, a, m)
            stack += [(a, m, left), (m, b, cnt - left)]
    return sorted(out)


def sturm_refine(g: Poly, chain: list[list[int]], a: Fraction, b: Fraction,
                 width: Fraction) -> tuple[Fraction, Fraction]:
    """Halve (a, b] (one root of g) by Sturm counts to width <= `width`."""
    while b - a > width:
        m = a + (b - a) / 2
        if g(m) == 0:
            return m, m
        if sturm_count(chain, a, m) == 1:
            b = m
        else:
            a = m
    return a, b


def sturm_isolate(factors, width: Fraction | None = None) -> list[tuple]:
    """(lo, hi, tag) for every root of every square-free `(g, tag)` in
    `factors` (pairwise coprime), refined until no two intervals overlap
    under the (lo, hi] reading, then below `width`; sorted."""
    items = []
    for g, tag in factors:
        chain = _integer_chain(g)
        items += [(a, b, tag, g, chain) for a, b in sturm_isolate_square_free(g)]
    changed = True
    while changed:
        changed = False
        items.sort(key=lambda t: (t[0], t[1]))
        for i in range(len(items) - 1):
            a1, b1, t1, g1, c1 = items[i]
            a2, b2, t2, g2, c2 = items[i + 1]
            if b1 > a2:
                if a1 != b1:
                    items[i] = (*sturm_refine(g1, c1, a1, b1, (b1 - a1) / 2),
                                t1, g1, c1)
                if a2 != b2:
                    items[i + 1] = (*sturm_refine(g2, c2, a2, b2, (b2 - a2) / 2),
                                    t2, g2, c2)
                changed = True
    if width is not None:
        items = [(*sturm_refine(g, chain, a, b, width), tag, g, chain)
                 for a, b, tag, g, chain in items]
        items.sort(key=lambda t: (t[0], t[1]))
    return [(a, b, tag) for a, b, tag, _, _ in items]
