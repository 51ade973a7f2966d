"""Eigen-solution fields on truncations at exact spectral parameters.

The eigen-equation at an interior vertex v (all neighbors present) reads

    z f(v) = lambda_v f(v') + beta_v f(v) + sum_{c child} lambda_c f(c),

with no child sum at level 0.  For nonreal z the solution below a vertex
is unique up to scale and never vanishes, so it is fixed by the ratios
r(c) = f(c)/f(parent of c), which satisfy the tree continued fraction

    r(c) = lambda_c / (z - beta_c - sum_{d child of c} lambda_d r(d)).

The ratio depends only on the subtree below c, so it is computed once per
class of identical subtrees by the package's one tree elimination,
`ClassTable.ratios` on the truncation's one class table
(`TreeTruncation.classes`), with no polynomial built.  Folding each
side subtree hanging off a distinguished path into an effective diagonal
(`SideReduction`) turns the path values into a classical three-term
recursion, which `classical1d.recurrence_values` computes.  This module constructs the
normalized solution/associated-solution pair along a path, measures norm
growth from per-class masses without building the field, decides
solution-space dimensions by exact elimination, and attempts the same
propagation at real spectral values, where a pivot can vanish and the
walk can hit a genuine obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

from .classical1d import recurrence_values
from .errors import ValidationError
from .exactmath import GaussianRational, I
from .treecore import (ClassTable, PathSelection, TreeTruncation,
                       default_path)
from .treepoly import family

_ZERO = GaussianRational(Fraction(0), Fraction(0))
_ONE = GaussianRational(Fraction(1), Fraction(0))


@dataclass
class SolutionField:
    """Values of a (partial) eigen-solution; equations asserted on
    `satisfied_at` only."""

    tree: TreeTruncation
    z: GaussianRational
    values: dict[int, GaussianRational]
    satisfied_at: frozenset[int]
    path: PathSelection | None = None

    def residual(self, v: int) -> GaussianRational:
        """z f(v) minus the operator row at v; v must not be the top."""
        t = self.tree
        if v == t.top:
            raise ValidationError(
                f"no eigen-equation at the top vertex {t.ids[v]!r}")
        f = self.values
        row = [(lam, f[w]) for lam, w in t.neighbours(v)]
        return GaussianRational.product_difference(self.z - t.beta[v], f[v],
                                                   row)

    def verify(self) -> bool:
        return all(not self.residual(v) for v in self.satisfied_at)

    def nonvanishing(self) -> bool:
        return all(bool(self.values[v]) for v in self.values)


@dataclass(frozen=True)
class SideReduction:
    """Effective diagonal correction a side subtree adds to the path
    recurrence: sum over side children y of lambda_y * P(y,y)(z)/P(y,x)(z)."""

    vertex: str
    value: GaussianRational


@dataclass
class SolutionPair:
    v: SolutionField
    u: SolutionField
    path: PathSelection
    side: tuple[SideReduction, ...]


@dataclass
class _PathReduction:
    """z and a path x_0, x_1, ... of classes, with every subtree reduced
    once per class of identical subtrees (`_reduce_path`).

    `ratio[c]` is f(w)/f(parent of w) for the solution f below any vertex
    w of class c, or None where the Schur pivot of w is zero (real z
    only).  `sides[k]` holds the classes of the subtrees hanging off the
    path at x_k, and `diag[k]` is beta at x_k plus the side reduction of
    those whose ratio is not None."""

    z: GaussianRational
    ratio: list
    sides: list[list[int]]
    diag: list
    lam: list[Fraction]

    def v_path(self) -> list:
        """v along the path: v(x_0) = 1 and the eigen-equation at x_0."""
        return recurrence_values(
            self.lam.__getitem__, self.diag.__getitem__, self.z, _ONE,
            (self.z - self.diag[0]) / self.lam[0], len(self.lam) - 1)

    def u_path(self) -> list:
        """u along the path: u(x_0) = 0, u(x_1) = 1/lambda_{x_0}."""
        return recurrence_values(
            self.lam.__getitem__, self.diag.__getitem__, self.z, _ZERO,
            GaussianRational.of(Fraction(1) / self.lam[0]), len(self.lam) - 1)


def _nonreal(z) -> GaussianRational:
    z = GaussianRational.of(z)
    if z.im == 0:
        raise ValueError("solve_pair needs a nonreal z; use propagate_real")
    return z


def _reduce_path(table: ClassTable, spine: Sequence[int], z) -> _PathReduction:
    """Class ratios by the tree continued fraction (`ClassTable.ratios`),
    which is self_poly[c](z) / up_poly[c](z) with the family recursion
    divided through by self_poly[c](z); then the fold of the sides onto
    the path whose vertices x_0, x_1, ... have the classes `spine`.  The
    sides of x_k are its kids with one x_{k-1} taken out.  At nonreal z
    no ratio is None: by induction from the leaves, every pivot has an
    imaginary part at least |Im z| in size."""
    z = GaussianRational.of(z)
    ratio = table.ratios(z)
    sides, diag, below = [], [], None
    for x in spine:
        ys = list(table.kids[x])
        if below is not None:
            ys.remove(below)
        below = x
        sides.append(ys)
        diag.append(table.beta[x] + sum((table.lam[y] * ratio[y] for y in ys
                                         if ratio[y] is not None), _ZERO))
    return _PathReduction(z, ratio, sides, diag, [table.lam[x] for x in spine])


def solve_pair(tree: TreeTruncation, path: PathSelection,
               z: GaussianRational) -> SolutionPair:
    """The solution (v, with v(x_0) = 1) and the associated solution (u,
    with u(x_0) = 0, u(x_1) = 1/lambda_{x_0}) along the given path at a
    nonreal z.  Both satisfy the eigen-equation at every interior vertex;
    u skips x_0 by construction.  The path must start on level 0 and end
    at the top of the truncation."""
    z = _nonreal(z)
    if tree.level[path[0]] != 0:
        raise ValidationError("path must start at a level-0 vertex")
    if not path.reaches_top():
        raise ValidationError("path must reach the top of the truncation")
    table, cls = tree.classes
    red = _reduce_path(table, [cls[x] for x in path.vertices], z)
    vv: dict[int, GaussianRational] = {}
    uu: dict[int, GaussianRational] = {}
    for xk, fv, fu, ys in zip(path.vertices, red.v_path(), red.u_path(),
                              path.sides):
        vv[xk], uu[xk] = fv, fu
        tree.carry(vv, ys, red.ratio)
        tree.carry(uu, ys, red.ratio)
    interior = frozenset(tree.interior())
    v_field = SolutionField(tree, red.z, vv, interior, path)
    u_field = SolutionField(tree, red.z, uu, interior - {path[0]}, path)
    side = tuple(SideReduction(tree.ids[x], d - tree.beta[x])
                 for x, d in zip(path.vertices[1:], red.diag[1:]))
    return SolutionPair(v_field, u_field, path, side)


def wronskian(v: SolutionField, u: SolutionField, n: int) -> GaussianRational:
    """v(x_n) u(x_{n+1}) - u(x_n) v(x_{n+1}); equals 1/lambda_{x_n} for a
    pair produced by solve_pair."""
    if v.path is None or u.path is None or v.path.vertices != u.path.vertices:
        raise ValidationError("wronskian needs two fields sharing one path")
    xs = v.path.vertices
    if not 0 <= n < len(xs) - 1:
        raise ValueError(f"path has no step {n}")
    a, b = xs[n], xs[n + 1]
    return v.values[a] * u.values[b] - u.values[a] * v.values[b]


# ---------------------------------------------------------------------
# solution-space dimension by exact elimination
# ---------------------------------------------------------------------


def _echelon(rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """Forward elimination of an exact matrix over Fraction or
    GaussianRational, pivoting in the first `ncols` columns only (a
    trailing right-hand-side column rides along).  Returns the row
    echelon form and its pivot columns; the rank is the number of pivots,
    and rows past the last pivot row are zero in the first `ncols`
    columns.  Rows below the pivot row are zero left of `col`, as is the
    pivot row, so an update rebuilds a row from column `col` on; the
    caller's rows are never mutated."""
    work = list(rows)
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pivot_tail = work[rank][col:]
        head = pivot_tail[0]
        for i in range(rank + 1, len(work)):
            row = work[i]
            if row[col]:
                f = row[col] / head
                work[i] = row[:col] + [a - f * b if b else a
                                       for a, b in zip(row[col:], pivot_tail)]
        pivots.append(col)
        if len(pivots) == len(work):
            break
    return work, pivots


def _particular_solution(echelon: list[list], pivots: list[int], ncols: int,
                         zero) -> list | None:
    """For an `_echelon` form whose right-hand side is column `ncols`: the
    solution with every free variable zero, or None when the system is
    inconsistent."""
    if any(row[ncols] for row in echelon[len(pivots):]):
        return None
    sol = [zero] * ncols
    for row, col in reversed(list(zip(echelon, pivots))):
        tail = sum((row[j] * sol[j] for j in range(col + 1, ncols) if row[j]),
                   zero)
        sol[col] = (row[ncols] - tail) / row[col]
    return sol


def _equation_row(tree: TreeTruncation, w: int, pos: dict[int, int], z,
                  zero) -> list:
    """Coefficient row of the eigen-equation at w over the field of `zero`."""
    row = [zero] * len(pos)
    row[pos[w]] = zero + z - tree.beta[w]
    for lam, u in tree.neighbours(w):
        row[pos[u]] = row[pos[u]] - lam
    return row


def uniqueness_dimension(tree: TreeTruncation, x: int, z) -> int:
    """Dimension of the space of fields on the subtree below x satisfying
    the eigen-equation at every vertex except x itself (cut vertices carry
    no equation).  Equals 1 for every nonreal z.  A GaussianRational z is
    eliminated over the Gaussian rationals, a real (Fraction) z over the
    rationals."""
    zero = _ZERO if isinstance(z, GaussianRational) else Fraction(0)
    order = tree.descendants(x)
    pos = {v: i for i, v in enumerate(order)}
    rows = [_equation_row(tree, w, pos, z, zero)
            for w in order if w != x and w not in tree.cut]
    return len(order) - len(_echelon(rows, len(order))[1])


# ---------------------------------------------------------------------
# rotated positivity along a path (symmetric matrices, z = i)
# ---------------------------------------------------------------------

_IPOW = (GaussianRational(Fraction(1), Fraction(0)), I,
         GaussianRational(Fraction(-1), Fraction(0)),
         GaussianRational(Fraction(0), Fraction(-1)))


@dataclass
class RotatedPositivityReport:
    ok: bool
    rotated: dict[str, Fraction]
    vertex_failures: list[str]
    step_rows: list[dict]


def rotated_positivity_report(pair: SolutionPair) -> RotatedPositivityReport:
    """For a matrix with zero diagonal, the solution at z = i rotated by
    i^(-level) is real and strictly positive, and along the path

        lam_{x_n} vt(x_{n+1}) - lam_{x_{n-1}} vt(x_{n-1})
            = vt(x_n) + sum_side lam_y vt(y) > 0.

    `pair` is the solution pair at z = i along its path.  All comparisons
    exact; raises ValueError when some beta is nonzero or pair.v.z != i."""
    tree = pair.v.tree
    if any(tree.beta[v] != 0 for v in range(tree.size)):
        raise ValueError("rotated positivity needs an all-zero diagonal")
    if pair.v.z != I:
        raise ValueError("rotated positivity needs the pair at z = i, "
                         f"got {pair.v.z}")
    rotated: dict[int, GaussianRational] = {
        v: pair.v.values[v] * _IPOW[(-tree.level[v]) % 4]
        for v in pair.v.values}
    failures = [tree.ids[v] for v, w in rotated.items()
                if w.im != 0 or w.re <= 0]
    steps = []
    ok = not failures
    xs = pair.path.vertices
    for n in range(1, len(xs) - 1):
        lhs = (tree.lam[xs[n]] * rotated[xs[n + 1]]
               - tree.lam[xs[n - 1]] * rotated[xs[n - 1]])
        rhs = rotated[xs[n]]
        for y in pair.path.sides[n]:
            rhs = rhs + tree.lam[y] * rotated[y]
        step_ok = (lhs == rhs) and lhs.im == 0 and lhs.re > 0
        ok = ok and step_ok
        steps.append({"n": n, "ok": step_ok,
                      "growth": lhs.re if lhs.im == 0 else None})
    return RotatedPositivityReport(
        ok=ok,
        rotated={tree.ids[v]: w.re for v, w in rotated.items()},
        vertex_failures=failures,
        step_rows=steps)


# ---------------------------------------------------------------------
# propagation at real spectral values
# ---------------------------------------------------------------------


@dataclass
class PropagationResult:
    """Outcome of attempting a normalized solution at a real value.

    Exactly one of `field`/`obstruction` is set.  An obstruction means the
    full linear system (eigen-equation at every interior vertex plus the
    normalization f(x_0) = 1) is exactly infeasible; the named vertex is
    where the path walk first failed."""

    field: SolutionField | None
    obstruction: int | None
    obstruction_id: str | None
    free_choices: tuple[str, ...] = ()

    @property
    def obstructed(self) -> bool:
        return self.obstruction is not None


def propagate_real(tree: TreeTruncation, r: Fraction) -> PropagationResult:
    """Attempt the path-and-side-ratio propagation at real z = r along
    `default_path(tree)`, normalized to 1 at its level-0 start.

    Side subtrees are filled by their class ratios at r
    (`_reduce_path`).  A side whose root pivot vanishes can carry only
    the zero multiple; while the path value is nonzero it blocks the
    walk, and infeasibility is then confirmed (or refuted) by exact
    elimination on the full system, so a reported obstruction is a
    proof, not a heuristic."""
    r = Fraction(r)
    path = default_path(tree)
    table, cls = tree.classes
    red = _reduce_path(table, [cls[x] for x in path.vertices], r)
    ratio = red.ratio
    # per class: a zero pivot strictly below, where the ratio product
    # meets 0 * None and only the family column P(y, .)(r) gives the field
    deep: list[bool] = []
    for kids in table.kids:
        deep.append(any(ratio[e] is None or deep[e] for e in kids))
    f: dict[int, GaussianRational] = {}
    free: list[str] = []
    blocked: int | None = None
    for xk, fk, ys in zip(path.vertices, red.v_path(), path.sides):
        f[xk] = fk
        for y in ys:
            if ratio[cls[y]] is None:
                if fk:
                    blocked = y
                    break
                free.append(tree.ids[y])
                f.update(dict.fromkeys(tree.descendants(y), _ZERO))
            elif deep[cls[y]]:
                fam = family(tree, y)
                scale = fk / fam.up_poly[y](r)
                for w, p in fam.column(y).items():
                    f[w] = scale * p(r)
            else:
                tree.carry(f, (y,), ratio)
        if blocked is not None:
            break
    if blocked is not None:
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
            return PropagationResult(None, blocked, tree.ids[blocked],
                                     tuple(free))
        f = {v: GaussianRational.of(sol[pos[v]]) for v in order}
    fld = SolutionField(tree, red.z, f, frozenset(tree.interior()))
    if not fld.verify():
        raise ValidationError("real propagation produced a nonzero residual")
    return PropagationResult(fld, None, None, tuple(free))


# ---------------------------------------------------------------------
# norm growth profiles
# ---------------------------------------------------------------------


@dataclass
class GrowthRow:
    depth: int
    size: int
    norm2: Fraction
    carleman_sum: Fraction


@dataclass
class GrowthProfile:
    """Norm and reciprocal-weight profile over increasing truncation depth.

    Finite-depth indicator only: nothing here decides square-summability
    or essential selfadjointness on the infinite tree."""

    rows: list[GrowthRow]
    strictly_increasing: bool
    bounded_by_one: bool
    carleman_divergent_trend: bool
    indicator = ("finite-depth indicator; infinite-tree conclusions are "
                 "not decided by truncations")


def nested_profile(lam: Sequence[Fraction], depths: Iterable[int],
                   sizes: list[int], norms: list[Fraction]) -> GrowthProfile:
    """The rows at `depths` of the nested truncations below the vertices
    x_n of a path with the weights `lam[n]` = lambda at x_n, in
    increasing depth.  `sizes[k]` and `norms[k]` are the vertex count and
    the squared norm that x_k and its side subtrees add to the truncation
    below x_{k-1}; the row at depth n takes their sums over k <= n, and
    the Carleman sum of 1/lambda_{x_k} over k <= n."""
    size = list(accumulate(sizes))
    norm2 = list(accumulate(norms))
    carleman = list(accumulate(Fraction(1) / w for w in lam))
    rows = []
    for n in depths:
        if not 0 <= n < len(lam):
            raise ValueError(f"depth {n} is not in 0..{len(lam) - 1}")
        rows.append(GrowthRow(n, size[n], norm2[n], carleman[n]))
    steps = list(zip(rows, rows[1:]))
    return GrowthProfile(rows,
                         all(a.norm2 < b.norm2 for a, b in steps),
                         all(row.norm2 <= 1 for row in rows),
                         all(a.carleman_sum < b.carleman_sum for a, b in steps))


def growth_profile(tree: TreeTruncation | tuple[ClassTable, list[int]],
                   z: GaussianRational, depths: Iterable[int]) -> GrowthProfile:
    """For each n in `depths`, the exact squared norm of the normalized
    solution on the truncation below x_n of a path, its size, and the
    partial sum of 1/lambda along the path up to x_n.  `tree` is a
    truncation, taken along `default_path(tree)`, or a class table with
    the classes of the path x_0, x_1, ... (`homogeneous_classes`).

    The truncations below x_0, x_1, ... are nested, and the solution on
    each is the restriction of the one on the whole tree: the path values
    up to x_n use the equations below x_n only, and a side subtree's ratios
    depend on that subtree alone.  So one solve gives every row, and it
    runs on the classes of identical subtrees, never on the vertices.  No
    field is built: a class c carries the mass

        S(c) = |r(c)|^2 (1 + sum_{d child of c} S(d)),

    the squared norm of the solution on its subtree relative to the
    parent's value, and its vertex count.  The side subtrees of x_k are
    its children other than x_{k-1}; x_k adds |v(x_k)|^2 (1 + sum_{side y}
    S(y)) to the squared norm, and 1 plus their counts to the size."""
    if isinstance(tree, TreeTruncation):
        table, cls = tree.classes
        spine = [cls[x] for x in default_path(tree).vertices]
    else:
        table, spine = tree
    red = _reduce_path(table, spine, _nonreal(z))
    mass: list[Fraction] = []
    count: list[int] = []
    for r, kids in zip(red.ratio, table.kids):
        mass.append(r.abs2() * (1 + sum(mass[c] for c in kids)))
        count.append(1 + sum(count[c] for c in kids))
    sizes = [1 + sum(count[y] for y in ys) for ys in red.sides]
    norms = [v.abs2() * (1 + sum(mass[y] for y in ys))
             for v, ys in zip(red.v_path(), red.sides)]
    return nested_profile(red.lam, depths, sizes, norms)
