"""Truncated operators: characteristic polynomials, the factorization of
their spectra through the polynomial family, and eigenvalue counts.

The truncation of the operator to the subtree below x is the symmetric
matrix coupling each vertex to itself (beta), to its parent and children
(the child's lambda).  Its characteristic polynomial is computed by an
exact cofactor recursion over the tree, which is independent of the
family recursion and serves as the oracle for the spectral factorization:

    char(z)  =  up_poly[x] * prod_t  [ prod_c up_poly[c] ] / self_poly[t]

(all factors monic, t ranging over the internal vertices, c over the
children of t).  Eigenvalue counting against rational thresholds is done
two ways: Descartes' rule of signs on the characteristic polynomial
(negative eigenvalues only), and the signs of the pivots of the tree
elimination (`ClassTable.ratios`), one step per class of identical
subtrees per threshold, each counted times the class's multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactmath import ONE, Poly, RootInterval, X, isolate_real_roots, poly_gcd
from .treecore import ClassTable, TreeTruncation
from .treepoly import PolyFamily


def char_poly(tree: TreeTruncation, at: int | None = None) -> Poly:
    """det(zI - J_x), monic, by the vertex-deletion recursion on the tree,
    once per class of identical subtrees (`TreeTruncation.classes`)."""
    table, cls = tree.classes
    root = cls[tree.top if at is None else at]
    phi: dict[int, Poly] = {}        # char poly of the class's subtree
    phi_open: dict[int, Poly] = {}   # char poly of that subtree minus its top
    for c in table.below(root):
        # over the children folded in so far: prod = prod_e phi(e), and
        # cross = sum_e lambda_e^2 phi_open(e) prod_{e' != e} phi(e')
        prod, cross = ONE, Poly()
        for e in table.kids[c]:
            cross = cross * phi[e] + (table.lam[e] ** 2) * (phi_open[e] * prod)
            prod = prod * phi[e]
        phi_open[c] = prod
        phi[c] = Poly([-table.beta[c], 1]) * prod - cross
    return phi[root]


# ---------------------------------------------------------------------
# spectrum through the family
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class SharedRootFactor:
    """Roots shared among the children of one vertex, with the multiplicity
    they contribute to the truncated spectrum."""

    vertex: str
    factor: Poly
    roots: tuple[RootInterval, ...]


def _factor_product(top: Poly, factors) -> Poly:
    """monic(top) times the shared-root factors: by the spectral
    factorization, the monic characteristic polynomial."""
    acc = top.monic()
    for f in factors:
        acc = acc * f
    return acc


@dataclass(frozen=True)
class SpectralDescription:
    top_factor: Poly
    top_roots: tuple[RootInterval, ...]
    shared: tuple[SharedRootFactor, ...]

    def factor_product(self) -> Poly:
        """The right-hand side of the spectral identity; the factors left
        out of `shared` are 1 (monic over monic, nothing shared)."""
        return _factor_product(self.top_factor, (s.factor for s in self.shared))


def _shared_factors(fam: PolyFamily):
    """(v, prod_c monic(up_poly[c]) / self_poly[v]) for every internal
    vertex v in index order whose factor is not trivial (1, when its
    children share no root).  Every factor is divided exactly."""
    t = fam.tree
    for v in sorted(fam.vertices()):
        if t.children[v]:
            prod = ONE
            for c in t.children[v]:
                prod = prod * fam.up_poly[c].monic()
            f = prod.exact_div(fam.self_poly[v])
            if f.degree >= 1:
                yield v, f


def spectral_description(fam: PolyFamily, width=None) -> SpectralDescription:
    """The spectrum of the truncation at the family's anchor: the roots of
    the anchor's up-polynomial (all simple), plus, per internal vertex, the
    roots its children share; a root covered n times by the children's
    polynomials contributes n - 1 extra eigenvalues."""
    shared = tuple(SharedRootFactor(fam.tree.ids[v], f,
                                    isolate_real_roots(f, width))
                   for v, f in _shared_factors(fam))
    top = fam.up_poly[fam.anchor]
    return SpectralDescription(
        top_factor=top, top_roots=isolate_real_roots(top, width),
        shared=shared)


def verify_spectral_identity(fam: PolyFamily, char: Poly) -> bool:
    """Exact check that `char`, the characteristic polynomial of the
    truncation below the anchor (`char_poly(fam.tree, fam.anchor)`),
    equals the monic up-polynomial at the anchor times all shared-root
    factors.  DivisionError from the factor assembly would falsify the
    identity; plain inequality returns False."""
    rhs = _factor_product(fam.up_poly[fam.anchor],
                          (f for _, f in _shared_factors(fam)))
    return char.monic() == rhs


def count_negative_eigenvalues(p: Poly) -> int:
    """Number of eigenvalues in (-inf, 0), with multiplicity, of a
    truncation whose characteristic polynomial is p: the sign variations
    of the nonzero coefficients of p(-z).

    Precondition: p is real-rooted, as the characteristic polynomial of a
    real symmetric matrix is.  For a real-rooted polynomial Descartes'
    rule of signs is exact: the variations count the positive roots of
    p(-z), with multiplicity (Basu-Pollack-Roy, Algorithms in Real
    Algebraic Geometry, Sec. 2.2).  A root at 0 leaves zero low
    coefficients, which are skipped, so it is not counted."""
    signs = [-s if i & 1 else s
             for i, s in enumerate(p.coefficient_signs()) if s]
    return sum(s != t for s, t in zip(signs, signs[1:]))


# ---------------------------------------------------------------------
# congruence diagonalization along the tree
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Inertia:
    below: int
    at: int
    above: int


def tree_inertia(tree: TreeTruncation | ClassTable,
                 sigma: Fraction) -> Inertia:
    """Inertia of (J - sigma I) by Sylvester's law: `below`/`at`/`above`
    count the eigenvalues below, at and above sigma, exactly and with
    multiplicity.  `tree` is a truncation or a `ClassTable` whose last
    class is the top; below a vertex x, count `tree.subtree(x)`.

    One walk from the top class down carries each class's multiplicity
    m.  The ratio r(c) of `ClassTable.ratios` at sigma has the sign of
    the pivot of sigma - J, so r(c) > 0 counts m below and r(c) < 0 m
    above.  A zero pivot (r = None) below the top pairs with its parent,
    whose pivot turns infinite (r = 0): the 2x2 block has one eigenvalue
    each side of sigma, and each further zero-pivot child of the same
    parent is decoupled and counts at sigma.  A zero pivot at the top
    counts at sigma."""
    table = tree.classes[0] if isinstance(tree, TreeTruncation) else tree
    ratio = table.ratios(Fraction(sigma))
    top = len(ratio) - 1
    mult = [0] * top + [1]
    below = zero = above = 0
    for c in range(top, -1, -1):
        r, m = ratio[c], mult[c]
        for e in table.kids[c]:
            mult[e] += m
        if r is None:
            zero += c == top
        elif r == 0:
            below += m
            above += m
            zero += m * (sum(ratio[e] is None for e in table.kids[c]) - 1)
        elif r > 0:
            below += m
        else:
            above += m
    return Inertia(below=below, at=zero, above=above)


# ---------------------------------------------------------------------
# eigenvector witnesses for shared roots
# ---------------------------------------------------------------------


@dataclass
class WitnessCheck:
    vertex: str
    pair: tuple[str, str]
    factor: Poly
    ok: bool


def eigenvector_witness_report(fam: PolyFamily) -> list[WitnessCheck]:
    """For every pair of siblings sharing roots, verify the explicit
    eigenvector identity symbolically, modulo the (square-free) shared
    factor g: the candidate vector has polynomial entries

        u(t) =  lam_{c2} * self_poly[c2] * P(c1, t)   on the c1 subtree,
        u(t) = -lam_{c1} * self_poly[c1] * P(c2, t)   on the c2 subtree,

    and (J - z) u must vanish identically in the quotient ring mod g, which
    proves J u = r u exactly for every root r of g, rational or not.
    """
    t = fam.tree
    out: list[WitnessCheck] = []
    for v in sorted(fam.vertices()):
        kids = t.children[v]
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                c1, c2 = kids[i], kids[j]
                g = poly_gcd(fam.up_poly[c1], fam.up_poly[c2])
                if g.degree == 0:
                    continue
                ok = _witness_holds(fam, v, c1, c2, g)
                out.append(WitnessCheck(t.ids[v], (t.ids[c1], t.ids[c2]), g, ok))
    return out


def _witness_holds(fam: PolyFamily, v: int, c1: int, c2: int, g: Poly) -> bool:
    """The residual of u mod g at v and on the support of u, the two
    family columns (`PolyFamily.column`); every other vertex of the
    subtree neither carries u nor neighbours a vertex that does."""
    t = fam.tree
    s1 = t.lam[c2] * fam.self_poly[c2]
    s2 = t.lam[c1] * fam.self_poly[c1]
    u = {w: s1 * p for w, p in fam.column(c1).items()}
    u.update((w, -(s2 * p)) for w, p in fam.column(c2).items())
    zero = Poly()
    for w in (v, *u):
        uw = u.get(w, zero)
        acc = X * uw - t.beta[w] * uw
        for lam, n in t.neighbours(w):
            acc = acc - lam * u.get(n, zero)
        if not (acc % g).is_zero:
            return False
    return True
