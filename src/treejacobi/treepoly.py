"""The polynomial family attached to the subtrees of a truncation.

For a vertex v let `self_poly[v]` be the polynomial giving the value of
the (unique up to scale) eigen-solution at v itself, normalized monic,
and `up_poly[v]` the value one step above v.  At a childless vertex

    self_poly[v] = 1,        up_poly[v] = (z - beta_v) / lambda_v,

and at an internal vertex the family is assembled bottom-up: self_poly[v]
is the monic least common multiple of the children's up-polynomials, the
value at a deeper vertex t transfers through a child c as

    P(v, t) = self_poly[v] * P(c, t) / up_poly[c]       (exact division),

and up_poly[v] comes from the eigen-equation at v,

    lambda_v * up_poly[v] = (z - beta_v) * self_poly[v]
                            - sum_c lambda_c * P(v, c).

Every stored polynomial has rational coefficients; every division above
must be remainder-free, and a DivisionError out of this module means a
broken invariant, not a data-dependent condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import UnknownVertexError
from .exactmath import (ONE, Poly, has_only_real_simple_roots, poly_lcm_many,
                        strict_interlace)
from .treecore import TreeTruncation


class PolyFamily:
    """All family polynomials over the subtree below a chosen vertex."""

    __slots__ = ("tree", "anchor", "self_poly", "up_poly")

    def __init__(self, tree: TreeTruncation, anchor: int | None = None):
        self.tree = tree
        self.anchor = tree.top if anchor is None else anchor
        if not 0 <= self.anchor < tree.size:
            raise UnknownVertexError(f"unknown vertex index {self.anchor}")
        self.self_poly: dict[int, Poly] = {}
        self.up_poly: dict[int, Poly] = {}
        self._build()

    def _build(self):
        t = self.tree
        table, cls = t.classes
        # one polynomial computation per class of identical subtrees, so
        # homogeneous regions cost one per distinct shape
        self_c: dict[int, Poly] = {}
        up_c: dict[int, Poly] = {}
        for c in table.below(cls[self.anchor]):
            kids = table.kids[c]
            lcm = poly_lcm_many([up_c[e] for e in kids]) if kids else ONE
            acc = Poly([-table.beta[c], 1]) * lcm
            for e in kids:
                up_e = up_c[e]
                if lcm == up_e.monic():  # frequent: identical siblings
                    down = self_c[e] * (Fraction(1) / up_e.leading())
                else:
                    down = (lcm * self_c[e]).exact_div(up_e)
                acc = acc - table.lam[e] * down  # lambda_e * P(c, e)
            self_c[c] = lcm
            up_c[c] = acc * (Fraction(1) / table.lam[c])
        for v in t.descendants(self.anchor):
            self.self_poly[v], self.up_poly[v] = self_c[cls[v]], up_c[cls[v]]

    def vertices(self):
        return self.self_poly.keys()

    def column(self, v: int) -> dict[int, Poly]:
        """P(v, t) for every t in the closed subtree below v, parents
        first: P(v, v) = self_poly[v], and below v the transfer through
        the children unrolls to

            P(v, w) = P(v, parent w) * self_poly[w] / up_poly[w].

        The family's analogue of `TreeTruncation.carry`."""
        t = self.tree
        col = {v: self.self_poly[v]}
        for w in t.descendants(v)[1:]:
            col[w] = ((col[t.parent[w]] * self.self_poly[w])
                      .exact_div(self.up_poly[w]))
        return col

    def entry(self, v: int, t: int | None) -> Poly:
        """P(v, t) for t in the closed subtree below v, or t = None for the
        value one level above v."""
        if t is None or t == self.tree.parent[v]:
            return self.up_poly[v]
        col = self.column(v)
        if t not in col:
            raise UnknownVertexError(
                f"{self.tree.ids[t]} is not below {self.tree.ids[v]}")
        return col[t]


def family(tree: TreeTruncation, at: int | None = None) -> PolyFamily:
    """Build the polynomial family anchored at `at` (default: the top)."""
    return PolyFamily(tree, at)


# ---------------------------------------------------------------------
# structural reports
# ---------------------------------------------------------------------


@dataclass
class VertexCheck:
    vertex: str
    ok: bool
    detail: str = ""


@dataclass
class FamilyReport:
    checks: list[VertexCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[VertexCheck]:
        return [c for c in self.checks if not c.ok]


def _report(fam: PolyFamily, detail) -> FamilyReport:
    """One check per vertex, in index order: `detail(v)` is "" on a pass
    and names the failure otherwise."""
    rep = FamilyReport()
    for v in sorted(fam.vertices()):
        d = detail(v)
        rep.checks.append(VertexCheck(fam.tree.ids[v], not d, d))
    return rep


def interlacing_report(fam: PolyFamily) -> FamilyReport:
    """Per vertex: both family polynomials have only real simple roots,
    their degrees differ by one, and the roots strictly interlace."""
    def detail(v: int) -> str:
        p_self, p_up = fam.self_poly[v], fam.up_poly[v]
        if p_up.degree != p_self.degree + 1:
            return "degree law violated"
        if strict_interlace(p_up, p_self):
            # strict interlacing implies real simple roots of both
            return ""
        if not has_only_real_simple_roots(p_self):
            return "self polynomial roots not real simple"
        if not has_only_real_simple_roots(p_up):
            return "up polynomial roots not real simple"
        return "interlacing fails"

    return _report(fam, detail)


def divisibility_report(fam: PolyFamily) -> FamilyReport:
    """Exact-division check P(c, t) | P(v, t) for every child c of every v
    and every t in the closed subtree below c or t = v.

    One division per edge decides it: the family defines
    P(v, t) = self_poly[v] * P(c, t) / up_poly[c] for every t in the
    closed subtree below c, so the quotient P(v, t) / P(c, t) is
    self_poly[v] / up_poly[c] whatever t is, and at t = v the pair is
    (up_poly[c], self_poly[v]) itself.  A failure is named at t = v."""
    t = fam.tree

    def detail(v: int) -> str:
        name = t.ids[v]
        for c in t.children[v]:
            if not (fam.self_poly[v] % fam.up_poly[c]).is_zero:
                return f"P({t.ids[c]}, {name}) does not divide P({name}, {name})"
        return ""

    return _report(fam, detail)


def degree_law_report(fam: PolyFamily) -> FamilyReport:
    """deg up_poly = deg self_poly + 1 and the leading coefficient of the
    up-polynomial equals 1/lambda at every vertex."""
    def detail(v: int) -> str:
        p_self, p_up = fam.self_poly[v], fam.up_poly[v]
        ok = (p_up.degree == p_self.degree + 1
              and p_up.leading() == Fraction(1) / fam.tree.lam[v]
              and p_self.leading() == 1)
        return "" if ok else "degree/leading law"

    return _report(fam, detail)
