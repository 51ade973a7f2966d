"""Real propagation by per-side polynomial families: the slow reference
for `solutions.propagate_real`.

This is the propagation the package ran before it took its side folds
and fills from the one tree elimination (`ClassTable.ratios` on
`TreeTruncation.classes`): every side subtree hanging off the path
builds its whole family, its up-polynomial at r decides whether it folds
into the path diagonal, and its rows P(y, w)(r) fill it.  The walk is `recurrence_values` over plain
Fractions.  It shares no tree elimination with the package: only the
family, the recursion and the exact elimination that confirms an
obstruction.
"""

from __future__ import annotations

from fractions import Fraction

from treejacobi.classical1d import recurrence_values
from treejacobi.errors import ValidationError
from treejacobi.exactmath import GaussianRational
from treejacobi.solutions import (PropagationResult, SolutionField, _echelon,
                                  _equation_row, _particular_solution)
from treejacobi.treecore import TreeTruncation, default_path
from treejacobi.treepoly import family


def propagate_real(tree: TreeTruncation, r: Fraction) -> PropagationResult:
    """Attempt the path-and-side-ratio propagation at real z = r along
    `default_path(tree)`, normalized to 1 at its level-0 start.

    Side subtrees are filled with multiples of their family rows
    evaluated at r.  A side attachment whose denominator vanishes while
    the path value is nonzero blocks the walk; infeasibility is then
    confirmed (or refuted) by exact elimination on the full system, so a
    reported obstruction is a proof, not a heuristic."""
    r = Fraction(r)
    path = default_path(tree)
    # side subtrees whose up-polynomial is nonzero at r fold into the path
    # diagonal; the others can only carry the zero multiple
    sides: list[list] = []
    diag = []
    for x, ys in zip(path.vertices, path.sides):
        row, shift = [], Fraction(0)
        for y in ys:
            fam = family(tree, y)
            den = fam.up_poly[y](r)
            if den:
                shift += tree.lam[y] * fam.self_poly[y](r) / den
            row.append((y, fam, den))
        sides.append(row)
        diag.append(tree.beta[x] + shift)
    lam = [tree.lam[w] for w in path.vertices]
    walk = recurrence_values(lam.__getitem__, diag.__getitem__, r,
                             Fraction(1), (r - diag[0]) / lam[0], len(path) - 1)
    f: dict[int, Fraction] = {}
    free: list[str] = []
    blocked: int | None = None
    for xk, fk, row in zip(path.vertices, walk, sides):
        f[xk] = fk
        for y, fam, den in row:
            if den == 0:
                if fk != 0:
                    blocked = y
                    break
                free.append(tree.ids[y])
                for w in tree.descendants(y):
                    f[w] = Fraction(0)
                continue
            scale = fk / den
            for w in tree.descendants(y):
                f[w] = scale * fam.entry(y, w)(r)
        if blocked is not None:
            break
    if blocked is None:
        return PropagationResult(_real_field(tree, r, f), None, None,
                                 tuple(free))
    # decide feasibility exactly on the full system, right-hand side last
    order = tree.descendants(tree.top)
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}
    rows = [_equation_row(tree, w, pos, r, Fraction(0)) + [Fraction(0)]
            for w in order if w != tree.top and w not in tree.cut]
    norm_row = [Fraction(0)] * (n + 1)
    norm_row[pos[path[0]]] = norm_row[n] = Fraction(1)
    rows.append(norm_row)
    echelon, pivots = _echelon(rows, n)
    sol = _particular_solution(echelon, pivots, n, Fraction(0))
    if sol is None:
        return PropagationResult(None, blocked, tree.ids[blocked], tuple(free))
    values = {v: sol[pos[v]] for v in order}
    return PropagationResult(_real_field(tree, r, values), None, None,
                             tuple(free))


def _real_field(tree: TreeTruncation, r: Fraction,
                values: dict[int, Fraction]) -> SolutionField:
    fld = SolutionField(
        tree, GaussianRational(r, Fraction(0)),
        {v: GaussianRational(val, Fraction(0)) for v, val in values.items()},
        frozenset(tree.interior()))
    if not fld.verify():
        raise ValidationError("real propagation produced a nonzero residual")
    return fld
