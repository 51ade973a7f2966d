"""Slow, independent references for the tree elimination.

The package folds every subtree onto its parent by one pivot per class of
identical subtrees (`ClassTable.ratios` on `TreeTruncation.classes`).
The references here eliminate vertex by vertex instead, with their own
bookkeeping:

* `truncated_operator`: the dense symmetric matrix of a truncation;
* `tree_solve`: leaves-to-root elimination of a tree-patterned system
  with a right-hand side, then back-substitution;
* `pivot_inertia`: congruence elimination with explicit zero-pivot
  pairing;
* `certificate_oracle`: the positivity certificate's side masses, values
  and regularized witness from `tree_solve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from treejacobi.spectra import Inertia
from treejacobi.treecore import PathSelection, TreeTruncation


@dataclass(frozen=True)
class TruncatedOperator:
    """Exact symmetric matrix of the truncation below `anchor`."""

    tree: TreeTruncation
    anchor: int
    vertices: tuple[int, ...]
    matrix: tuple[tuple[Fraction, ...], ...]


def truncated_operator(tree: TreeTruncation, at: int | None = None) -> TruncatedOperator:
    anchor = tree.top if at is None else at
    order = tree.descendants(anchor)
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for v in order:
        i = pos[v]
        mat[i][i] = tree.beta[v]
        for c in tree.children[v]:
            j = pos[c]
            mat[i][j] = mat[j][i] = tree.lam[c]
    return TruncatedOperator(tree, anchor,
                             tuple(order), tuple(tuple(row) for row in mat))


def _post_order(tree: TreeTruncation, root: int) -> list[int]:
    return list(reversed(tree.descendants(root)))


def tree_solve(tree: TreeTruncation, diag: dict[int, Fraction],
               offdiag: dict[int, Fraction], rhs: dict[int, Fraction],
               at: int | None = None) -> dict[int, Fraction]:
    """Solve M f = rhs where M has the tree's adjacency pattern below `at`:
    M[v][v] = diag[v] and M[v][parent v] = offdiag[v].  Elimination runs
    leaves-to-root with no fill-in; a zero pivot raises ValueError."""
    anchor = tree.top if at is None else at
    order = _post_order(tree, anchor)
    d = {v: Fraction(diag[v]) for v in order}
    b = {v: Fraction(rhs.get(v, Fraction(0))) for v in order}
    for v in order:
        if v == anchor:
            continue
        if d[v] == 0:
            raise ValueError(f"zero pivot at vertex {tree.ids[v]!r}")
        u = tree.parent[v]
        w = Fraction(offdiag[v])
        d[u] -= w * w / d[v]
        b[u] -= w * b[v] / d[v]
    if d[anchor] == 0:
        raise ValueError(f"zero pivot at vertex {tree.ids[anchor]!r}")
    x = {anchor: b[anchor] / d[anchor]}
    for v in reversed(order):
        if v == anchor:
            continue
        x[v] = (b[v] - Fraction(offdiag[v]) * x[tree.parent[v]]) / d[v]
    return x


def pivot_inertia(tree: TreeTruncation, sigma: Fraction,
                  at: int | None = None) -> Inertia:
    """Inertia of (J_x - sigma I) by leaf-to-root congruence elimination,
    one vertex at a time.

    A zero pivot at a child pairs it with its parent into a 2x2 block of
    inertia (+1, -1); the parent's remaining couplings are annihilated by
    the child's row, so later siblings and the grandparent see it removed.
    """
    anchor = tree.top if at is None else at
    sigma = Fraction(sigma)
    d = {v: tree.beta[v] - sigma for v in tree.descendants(anchor)}
    paired: set[int] = set()  # vertices consumed by a zero-pivot pair
    pos = neg = zero = 0

    def classify(x: Fraction):
        nonlocal pos, neg, zero
        if x > 0:
            pos += 1
        elif x < 0:
            neg += 1
        else:
            zero += 1

    for v in _post_order(tree, anchor):
        if v in paired:
            continue  # counted with the child that zeroed out
        if v == anchor:
            classify(d[v])
            continue
        u = tree.parent[v]
        if u in paired:
            # the pairing annihilated the edge upward; v closes a component
            classify(d[v])
        elif d[v] != 0:
            classify(d[v])
            d[u] -= tree.lam[v] ** 2 / d[v]
        else:
            pos += 1
            neg += 1
            paired.add(u)
    return Inertia(below=neg, at=zero, above=pos)


@dataclass
class CertificateOracle:
    side_mass: list[Fraction]
    m: dict[int, Fraction]
    regularized_m: dict[int, Fraction]


def certificate_oracle(tree: TreeTruncation, path: PathSelection,
                       n_reg: int = 1) -> CertificateOracle:
    """The equality certificate of a positive-definite truncation by
    explicit solves, where M is the sign-flipped truncation (diagonal
    beta, off-diagonal -lambda): each side subtree's Schur mass
    lambda_s^2 (M_s^-1)_ss from its block, m = M^-1 delta_top and the
    regularized witness from the whole system, both normalized at x_0."""
    off = {v: -tree.lam[v] for v in range(tree.size)}

    def sides(k):
        below = path[k - 1] if k >= 1 else None
        return [c for c in tree.children[path[k]] if c != below]

    masses = []
    for k in range(len(path)):
        total = Fraction(0)
        for s in sides(k):
            w = tree_solve(tree, tree.beta, off, {s: Fraction(1)}, at=s)
            total += tree.lam[s] ** 2 * w[s]
        masses.append(total)
    # M m is a positive multiple of delta_top: equality at every non-top
    # vertex
    m = tree_solve(tree, tree.beta, off, {tree.top: Fraction(1)})
    m = {v: x / m[path[0]] for v, x in m.items()}
    eps = Fraction(1, n_reg)
    f = tree_solve(tree, {v: eps + tree.beta[v] for v in range(tree.size)},
                   off, {path[0]: Fraction(1)})
    return CertificateOracle(masses, m,
                             {v: x / f[path[0]] for v, x in f.items()})
