"""Slow, independent references for the family columns and the sibling
eigenvector witnesses.

The package builds P(v, .) by one walk down the subtree of v
(`PolyFamily.column`) and checks a witness on the two columns' support
and their common parent.  The references here take the definitions
literally instead:

* `entry`: P(v, t) by the transfer through the child of v whose subtree
  holds t, found by walking up from t, and recursion on that child;
* `witness_holds`: the residual of the witness mod g at every vertex of
  the anchor's subtree that lies in the support of u or next to it.
"""

from __future__ import annotations

from treejacobi.errors import UnknownVertexError
from treejacobi.exactmath import Poly
from treejacobi.treepoly import PolyFamily


def entry(fam: PolyFamily, v: int, t: int | None,
          memo: dict | None = None) -> Poly:
    """P(v, t) for t in the closed subtree below v, or t = None (or the
    parent of v) for the value one level above v:

        P(v, t) = self_poly[v] * P(w, t) / up_poly[w],

    w the child of v whose subtree holds t."""
    tree = fam.tree
    if t is None or t == tree.parent[v]:
        return fam.up_poly[v]
    if t == v:
        return fam.self_poly[v]
    memo = {} if memo is None else memo
    if (v, t) in memo:
        return memo[v, t]
    w = t
    while w is not None and tree.parent[w] != v:
        w = tree.parent[w]
    if w is None:
        raise UnknownVertexError(f"{tree.ids[t]} is not below {tree.ids[v]}")
    p = (fam.self_poly[v] * entry(fam, w, t, memo)).exact_div(fam.up_poly[w])
    memo[v, t] = p
    return p


def witness_holds(fam: PolyFamily, v: int, c1: int, c2: int, g: Poly) -> bool:
    """(J - z) u = 0 mod g on the anchor's subtree, for u equal to
    lam_{c2} self_poly[c2] P(c1, .) below c1, to
    -lam_{c1} self_poly[c1] P(c2, .) below c2, and to 0 elsewhere."""
    t = fam.tree
    memo: dict = {}
    u: dict[int, Poly] = {}
    s1 = t.lam[c2] * fam.self_poly[c2]
    s2 = t.lam[c1] * fam.self_poly[c1]
    for w in t.descendants(c1):
        u[w] = s1 * entry(fam, c1, w, memo)
    for w in t.descendants(c2):
        u[w] = -1 * (s2 * entry(fam, c2, w, memo))
    # the residual vanishes identically away from the support's neighborhood
    relevant = set(u)
    for w in list(relevant):
        if t.parent[w] is not None:
            relevant.add(t.parent[w])
        relevant.update(t.children[w])
    anchor_set = set(t.descendants(fam.anchor))
    zero = Poly()
    zpoly = Poly([0, 1])
    for w in relevant & anchor_set:
        uw = u.get(w, zero)
        acc = zpoly * uw - t.beta[w] * uw
        p = t.parent[w]
        if p is not None and w != fam.anchor:
            acc = acc - t.lam[w] * u.get(p, zero)
        for c in t.children[w]:
            acc = acc - t.lam[c] * u.get(c, zero)
        if not (acc % g).is_zero:
            return False
    return True
