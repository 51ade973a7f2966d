"""Executable versions of the explicit matrix constructions.

Four builders, each returning its truncation (small-norm's expanded on
first use) with the exact evidence its defining property demands:

* ``build_small_norm_pair``          -- an inductive choice of weights at
  z = i keeping the solution's squared norm below 1 - 2^(-n) at every
  stage (the finite shadow of a non-essentially-selfadjoint matrix);
* ``build_path_perturbed_homogeneous`` -- a norm-bounded homogeneous
  matrix plus a degenerate path perturbation whose classical part is
  indeterminate;
* ``build_pendant_path``             -- a path with pendant vertices whose
  coupling weights satisfy mu^2 = 1 + beta^2, reducing the solve at z = i
  to a classical recursion with flipped diagonal;
* ``build_real_obstruction``         -- a matrix whose eigen-equation at
  the real value 0 admits no field normalized at the path origin.

Positivity certificates: ``check_positivity_certificate`` verifies the
pointwise certificate inequality, and ``construct_positivity_certificate``
produces an exact equality-mode certificate for a positive-definite
truncation from one tree elimination at 0 (`ClassTable.ratios` on
`TreeTruncation.classes`): the signs of its ratios decide positive
definiteness, and the ratios carry the certificate down from the top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .classical1d import classical, pq_values, recurrence_values
from .errors import ConstructionError, PositivityError
from .exactmath import GaussianRational, I
from .solutions import (GrowthProfile, PropagationResult, SolutionField,
                        SolutionPair, nested_profile, propagate_real,
                        solve_pair, uniqueness_dimension)
from .spectra import tree_inertia
from .treecore import (PathSelection, TreeTruncation, decorated_path_tree,
                       default_path, homogeneous_classes, homogeneous_tree)

# ---------------------------------------------------------------------
# positivity certificates
# ---------------------------------------------------------------------


@dataclass
class PositivityCertificate:
    tree: TreeTruncation
    m: dict[int, Fraction]
    mode: str  # "inequality" | "equality"


@dataclass
class PositivityVerdict:
    ok: bool
    equality_everywhere: bool
    failures: list[dict]
    negative_eigenvalues: int | None


def _certificate_rows(tree: TreeTruncation, m: dict[int, Fraction]):
    """Per vertex v: v, beta_v m(v) and the off-diagonal row of J at v
    applied to m, the two sides of the certificate (in)equality."""
    for v in range(tree.size):
        yield v, tree.beta[v] * m[v], sum(
            (lam * m[w] for lam, w in tree.neighbours(v)), Fraction(0))


def check_positivity_certificate(tree: TreeTruncation,
                                 m: dict[int, Fraction]) -> PositivityVerdict:
    """Check the pointwise certificate inequality

        beta_v m(v) >= lambda_v m(parent v) + sum_c lambda_c m(c)

    at every non-top vertex, and its truncated form (no parent term) at
    the top.  Success makes the truncation positive semidefinite, which is
    additionally certified by an exact eigenvalue count at zero."""
    m = {v: Fraction(m[v]) for v in range(tree.size)}
    if any(x <= 0 for x in m.values()):
        raise ValueError("certificate function m must be positive everywhere")
    failures = []
    equality = True
    for v, lhs, rhs in _certificate_rows(tree, m):
        if lhs < rhs:
            failures.append({"vertex": tree.ids[v], "lhs": lhs, "rhs": rhs})
        elif lhs != rhs and v != tree.top:
            equality = False  # equality mode concerns the non-top vertices
    if failures:
        return PositivityVerdict(False, False, failures, None)
    inertia = tree_inertia(tree, Fraction(0))
    if inertia.below != 0:
        raise PositivityError(
            "certificate inequality held yet negative eigenvalues exist; "
            "this cannot happen for a valid certificate and indicates a bug")
    return PositivityVerdict(True, equality, [], inertia.below)


def unit_certificate(tree: TreeTruncation) -> dict[int, Fraction]:
    return {v: Fraction(1) for v in range(tree.size)}


@dataclass
class CertificateConstruction:
    certificate: PositivityCertificate
    side_mass: list[Fraction]
    regularized_side_mass: list[Fraction]
    regularized_m: dict[int, Fraction]


def construct_positivity_certificate(tree: TreeTruncation,
                                     n_reg: int = 1) -> CertificateConstruction:
    """Produce a positive function m with exact equality

        beta_v m(v) = lambda_v m(parent v) + sum_c lambda_c m(c)

    at every non-top vertex of a positive-definite truncation, normalized
    to 1 at the origin x_0 of `default_path`.

    One tree elimination at 0 (`ClassTable.ratios` on
    `TreeTruncation.classes`) decides and builds it.  There r(v) =
    -lambda_v / (Schur pivot of J at v), with None for a zero pivot and 0
    above one, so J is positive definite exactly when every ratio is
    negative; m(w) = -r(w) m(parent w), taken from the top down, is then
    the equation above at every non-top vertex.  The side subtree at s
    folds onto its path vertex with the Schur mass lambda_s^2 / pivot(s)
    = -lambda_s r(s).  The regularized resolvent column (1/n_reg I +
    sign-flipped J)^{-1} delta at the path origin is also computed, as a
    strictly positive witness and a cross-check on the side masses."""
    path = default_path(tree)
    table, cls = tree.classes
    ratio = table.ratios(Fraction(0))
    bad = next((v for v in reversed(tree.descendants(tree.top))
                if ratio[cls[v]] is None or ratio[cls[v]] >= 0), None)
    if bad is not None:
        raise PositivityError(
            f"Schur pivot at {tree.ids[bad]!r} is not positive; the "
            f"truncation is not positive definite and no positivity "
            f"certificate exists")
    if n_reg < 1:
        raise ValueError("n_reg must be a positive integer")
    m_reg = _regularized_witness(tree, path, Fraction(1, n_reg))
    flipped = [-r for r in ratio]
    masses: list[Fraction] = []
    masses_reg: list[Fraction] = []
    for x, sides in zip(path.vertices, path.sides):
        masses.append(sum((tree.lam[s] * flipped[cls[s]] for s in sides),
                          Fraction(0)))
        masses_reg.append(sum((tree.lam[s] * m_reg[s] for s in sides),
                              Fraction(0)) / m_reg[x])
    m = {tree.top: Fraction(1)}
    tree.carry(m, tree.children[tree.top], flipped)
    origin = m[path[0]]
    m = {v: x / origin for v, x in m.items()}
    _verify_equality_certificate(tree, m)
    return CertificateConstruction(PositivityCertificate(tree, m, "equality"),
                                   masses, masses_reg, m_reg)


def _regularized_witness(tree: TreeTruncation, path: PathSelection,
                         eps: Fraction) -> dict[int, Fraction]:
    """f / f(x_0) for the solution f of (eps I + M) f = delta_{x_0}, where M
    is the sign-flipped truncation (diagonal beta, off-diagonal -lambda).

    M is J conjugated by the signs (-1)^level, so eps I + M has the
    pivots -lambda_v / r(v) of the class ratios at z = -eps, all positive
    for a positive semidefinite J.  The right-hand side is carried up the
    path by a forward sweep; back-substitution from the top then gives
    the path values, and f(w) = -r(w) f(parent w) off the path."""
    table, cls = tree.classes
    flipped = [-r for r in table.ratios(-eps)]
    xs = path.vertices
    rhs = [Fraction(1)]
    for v in xs[:-1]:
        rhs.append(flipped[cls[v]] * rhs[-1])
    f: dict[int, Fraction] = {}
    above = Fraction(0)  # f(x_{k+1}); zero past the top
    for k in reversed(range(len(xs))):
        v = xs[k]
        f[v] = above = flipped[cls[v]] * (rhs[k] / tree.lam[v] + above)
    tree.carry(f, [s for sides in path.sides for s in sides], flipped)
    if any(x <= 0 for x in f.values()):
        raise PositivityError("regularized witness failed strict positivity")
    return {v: x / f[xs[0]] for v, x in f.items()}


def _verify_equality_certificate(tree: TreeTruncation, m: dict[int, Fraction]):
    for v, lhs, rhs in _certificate_rows(tree, m):
        if m[v] <= 0:
            raise PositivityError(
                f"certificate value at {tree.ids[v]!r} is not positive")
        if lhs != rhs and v != tree.top:
            raise PositivityError(
                f"equality certificate has a nonzero residual at "
                f"{tree.ids[v]!r}")


# ---------------------------------------------------------------------
# the norm-capped inductive construction at z = i
# ---------------------------------------------------------------------


@dataclass
class NormLedgerRow:
    n: int
    side_norm2: Fraction
    top_value_norm2: Fraction
    total_norm2: Fraction
    bound: Fraction


@dataclass
class SmallNormResult:
    """The construction in O(depth) numbers: path values v(x_n) and weights
    lambda_{x_n} (1 at the top), per stage n >= 1 the weight lambda_{s_n}
    and scale sigma_n of the chain s_n below x_n (None at n = 0), and the
    unit chain f at z = i, s_n holding sigma_n f_m at level m.  `tree`,
    `path` and `solution` expand it into vertices on first use."""

    values: list[GaussianRational]
    path_lam: list[Fraction]
    side_lam: list
    scale: list
    free: list[GaussianRational]
    ledger: list[NormLedgerRow]

    @property
    def ok(self) -> bool:
        return all(row.total_norm2 <= row.bound for row in self.ledger)

    @cached_property
    def tree(self) -> TreeTruncation:
        """x_0, then per stage x_n, s_n, s_n.1, ..., s_n.<n-1> (level 0)."""
        top = len(self.values) - 1
        ids, parent, levels, lams = ["x0"], [1], [0], [self.path_lam[0]]
        for n in range(1, top + 1):
            at = len(ids)  # x_n; after the loop, the top x_depth
            ids += [f"x{n}", f"s{n}", *(f"s{n}.{j}" for j in range(1, n))]
            parent += [at + n + 1 if n < top else None, *range(at, at + n)]
            levels += range(n, -1, -1)
            lams += [self.path_lam[n], self.side_lam[n], *[1] * (n - 1)]
        return TreeTruncation(ids, at, parent, levels, lams, [0] * len(ids))

    @cached_property
    def path(self) -> PathSelection:
        return default_path(self.tree)

    @cached_property
    def solution(self) -> SolutionField:
        values = [w for n, v in enumerate(self.values) for w in
                  (v, *(self.scale[n] * f for f in reversed(self.free[:n])))]
        return SolutionField(self.tree, I, dict(enumerate(values)),
                             frozenset(self.tree.interior()), self.path)


def default_budget(n: int) -> Fraction:
    """Per-bucket squared-norm budget at stage n.

    The stage bound 1 - 2^(-n) cannot hold at n = 0 for any solution
    normalized away from zero, so the origin takes the value 1/2 and each
    stage spends at most 2^(-n-2) on the new side subtree and the same on
    the new path value, keeping the total at stage n below
    3/4 - 2^(-n-1) <= 1 - 2^(-n) for every n >= 1.
    """
    return Fraction(1, 2 ** (n + 2))


def _least_power_of_four(q: Fraction) -> int:
    """The least k >= 0 with q <= 4^k, for a rational q > 0.  With q = p/d
    and e = (bits of p) - (bits of d) + 1, 2^(e-2) < q < 2^e, so the k
    below meets the bound and of the smaller exponents only k - 1 can: one
    exact integer comparison settles it."""
    p, d = q.numerator, q.denominator
    k = max(0, (p.bit_length() - d.bit_length() + 2) // 2)
    return k - 1 if k and p <= d << 2 * k - 2 else k


def build_small_norm_pair(depth: int) -> SmallNormResult:
    """Inductively choose weights (diagonal zero, z = i) so the normalized
    eigen-solution keeps its squared norm below 1 - 2^(-n) on every stage
    truncation.  Each path weight is the least power 2^k, k >= 0, that
    makes the new path value fit its budget; each path vertex x_n gets one
    fresh side chain down to level 0 with unit weights inside, whose
    solution is scaled by the greatest side weight 2^(-k), k >= 0, that
    makes it fit the side budget.

    Stage n reads only lambda_{x_{n-2}} v(x_{n-2}) and lambda_{s_{n-1}}
    sigma_{n-1} f_{n-2}, so no vertex is built (`SmallNormResult`)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    # the unit chain at z: weights 1, diagonal 0, f_0 = 1 and f_1 = z
    free = recurrence_values(lambda k: 1, lambda k: 0, I,
                             GaussianRational.of(1), I, depth)
    values = [GaussianRational(Fraction(1, 2), Fraction(0))]
    path_lam, side_lam, scale, ledger, below = [], [None], [None], [], []
    norm, chain_mass = values[0].abs2(), Fraction(0)
    for n in range(1, depth + 1):
        b_n = default_budget(n)
        # eigen-equation at x_{n-1}: lambda_{x_{n-1}} v(x_n) = R, where R
        # is z v(x_{n-1}) minus the terms `below` of x_{n-2} and s_{n-1}
        r_val = GaussianRational.product_difference(I, values[n - 1], below)
        if not r_val:
            raise ConstructionError(f"vanishing right-hand side at stage {n}; "
                                    "impossible for a nonvanishing solution")
        r2 = r_val.abs2()
        k = _least_power_of_four(r2 / b_n)
        path_lam.append(Fraction(1 << k))
        values.append(r_val / path_lam[n - 1])
        top2 = r2 / (1 << 2 * k)
        head = free[n]
        if not head:
            raise ConstructionError(f"vanishing side numerator at stage {n}")
        chain_mass += free[n - 1].abs2()
        # the side subtree's squared norm at side weight 1
        unscaled = top2 * chain_mass / head.abs2()
        k = _least_power_of_four(unscaled / b_n)
        side_lam.append(Fraction(1, 1 << k))
        side_norm = unscaled / (1 << 2 * k)
        scale.append(side_lam[n] * values[n] / head)
        norm = norm + side_norm + top2
        ledger.append(NormLedgerRow(
            n, side_norm, top2, norm, 1 - Fraction(1, 2 ** n)))
        below = [(path_lam[n - 1], values[n - 1]),
                 (side_lam[n] * scale[n], free[n - 1])]
    path_lam.append(Fraction(1))  # weight of the absent upward edge
    res = SmallNormResult(values, path_lam, side_lam, scale, free, ledger)
    if not _equations_hold(res):
        raise ConstructionError("constructed solution has a nonzero residual")
    if not res.ok:
        raise ConstructionError("norm ledger bound violated")
    return res


def _equations_hold(res: SmallNormResult) -> bool:
    """Whether the eigen-equation at z = i holds at every vertex of
    `res.tree` but the top, by 3 depth equations on the compact form:
    (a) i f_m = f_{m+1} + f_{m-1} for m < depth, with f_{-1} = 0;
    (b) sigma_n f_n = lambda_{s_n} v(x_n) for 1 <= n <= depth; (c) the
    equation at x_k for k < depth, the head of s_k holding sigma_k f_{k-1}.
    On s_n (lambda 1 below the head, beta 0, sigma_n f_m at level m) the
    residual at level m < n - 1 is sigma_n (a)_m, the head's sigma_n
    (a)_{n-1} + (b)_n.  As sigma_n != 0 (the build refuses a zero R and a
    zero head), the vertex equations give (a)-(c) back, but only the sum
    of the two that read f_depth, (a)_{depth-1} and (b)_depth."""
    diff, f, v = GaussianRational.product_difference, res.free, res.values
    lam, side, sigma, below = res.path_lam, res.side_lam, res.scale, []
    for k in range(len(v) - 1):
        if (diff(I, f[k], [(1, f[k + 1]), (1, f[k - 1] if k else 0)])
                or diff(I, v[k], [(lam[k], v[k + 1]), *below])
                or diff(sigma[k + 1], f[k + 1], [(side[k + 1], v[k + 1])])):
            return False
        below = [(lam[k], v[k]), (side[k + 1] * sigma[k + 1], f[k])]
    return True


# ---------------------------------------------------------------------
# bounded homogeneous matrix plus degenerate path perturbation
# ---------------------------------------------------------------------


def default_path_weight(n: int) -> Fraction:
    """Geometric path weights 2^(n+1); their reciprocal sum converges and
    the first/second-kind values at 0 are square-summable, the classical
    marker of a non-essentially-selfadjoint path matrix."""
    return Fraction(2) ** (n + 1)


@dataclass
class PerturbedHomogeneousResult:
    tree: TreeTruncation
    path: PathSelection
    base_weight: Fraction
    path_weights: list[Fraction]


def _base_weight(d: int) -> Fraction:
    """d^(-1/2), the weight of the norm-bounded homogeneous matrix; d must
    be a positive perfect square so that it is rational."""
    if d < 1:
        raise ValueError("branching d must be >= 1")
    root = math.isqrt(d)
    if root * root != d:
        raise ValueError("branching d must be a perfect square for an exact "
                         "base weight")
    return Fraction(1, root)


def build_path_perturbed_homogeneous(d: int, depth: int
                                     ) -> PerturbedHomogeneousResult:
    """The sum of the norm-bounded homogeneous matrix (all weights
    d^(-1/2), zero diagonal; truncations stay inside [-2, 2]) and the
    degenerate path matrix with weights `default_path_weight(n)` along the
    leftmost path, the all-zero addresses that form `default_path`.  d
    must be a perfect square so the base weight stays rational."""
    w = _base_weight(d)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    weights = [default_path_weight(n) for n in range(depth + 1)]
    tree = homogeneous_tree(
        d, depth, lam=lambda lv, addr: w if any(addr) else w + weights[lv],
        beta=Fraction(0))
    return PerturbedHomogeneousResult(tree, default_path(tree), w, weights)


def bounded_base_radius_ok(d: int, depths) -> bool:
    """Exact check that the homogeneous base matrix truncations have no
    eigenvalue outside [-2, 2] at each depth: the base matrix is w J_1,
    so J_1, on its unit-weight classes, has none outside [-2/w, 2/w]."""
    w = _base_weight(d)
    lo, hi = -2 / w, 2 / w
    for depth in depths:
        table = homogeneous_classes(d, depth)[0]
        if tree_inertia(table, lo).below or tree_inertia(table, hi).above:
            return False
    return True


# ---------------------------------------------------------------------
# pendant path
# ---------------------------------------------------------------------


def ramp_pendant_rule(a: Fraction):
    """beta_n = (n^2 - a^2) / (2an): 1 + beta_n^2 is the square of
    mu_n = (n^2 + a^2) / (2an) for every n, so pendant weights stay
    rational for any rational a > 0."""
    a = Fraction(a)
    if a <= 0:
        raise ValueError("ramp rule needs a > 0")

    def beta(n: int) -> Fraction:
        return Fraction(n * n - a * a, 1) / (2 * a * n)

    def mu(n: int) -> Fraction:
        return Fraction(n * n + a * a, 1) / (2 * a * n)

    return beta, mu


def constant_pendant_rule(a: Fraction):
    """beta_n = a for all n; needs 1 + a^2 to be the square of a rational
    (choose a from a Pythagorean ratio such as 3/4)."""
    a = Fraction(a)
    m2 = 1 + a * a
    num, den = math.isqrt(m2.numerator), math.isqrt(m2.denominator)
    if num * num != m2.numerator or den * den != m2.denominator:
        raise ValueError(
            f"1 + a^2 = {m2} is not the square of a rational; pendant "
            f"weights would be irrational")
    mu_val = Fraction(num, den)
    return (lambda n: a), (lambda n: mu_val)


@dataclass
class PendantPathResult:
    tree: TreeTruncation
    pair: SolutionPair
    reduced_residuals: list[GaussianRational]
    pendant_norm_ok: bool
    classical_match: bool

    @property
    def ok(self) -> bool:
        return (all(not r for r in self.reduced_residuals)
                and self.pendant_norm_ok and self.classical_match)


def build_pendant_path(depth: int, rule: str = "ramp",
                       a=Fraction(3, 4)) -> PendantPathResult:
    """Path with unit weights and zero diagonal plus one pendant under each
    path vertex; pendant n carries diagonal beta_n and coupling mu_n with
    mu_n^2 = 1 + beta_n^2.  At z = i the pendant values satisfy
    |v(y_{n-1})|^2 = |v(x_n)|^2 and the path values obey the classical
    recursion with diagonal -beta_n at the point 2i, both checked exactly."""
    if rule == "ramp":
        beta_rule, mu_rule = ramp_pendant_rule(Fraction(a))
    elif rule == "constant":
        beta_rule, mu_rule = constant_pendant_rule(Fraction(a))
    else:
        raise ValueError(f"unknown pendant rule {rule!r}")
    tree = decorated_path_tree(depth, side_lam=mu_rule, side_beta=beta_rule)
    path = default_path(tree)
    pair = solve_pair(tree, path, I)
    v = pair.v.values
    xs = path.vertices
    two_i = GaussianRational(Fraction(0), Fraction(2))
    residuals = []
    for n in range(1, depth):
        lam_n = tree.lam[xs[n]]
        lam_p = tree.lam[xs[n - 1]]
        residuals.append(two_i * v[xs[n]]
                         - (lam_n * v[xs[n + 1]]
                            - beta_rule(n) * v[xs[n]]
                            + lam_p * v[xs[n - 1]]))
    norm_ok = True
    for x, (y,) in zip(xs[1:], path.sides[1:]):  # the pendant y_{n-1} of x_n
        norm_ok = norm_ok and v[y].abs2() == v[x].abs2()
        # the pendant's own equation (pendants are cut; assert it directly)
        norm_ok = norm_ok and not pair.v.residual(y)
    ref = recurrence_values(lambda n: 1, lambda n: -beta_rule(n), two_i,
                            v[xs[0]], v[xs[1]], depth)
    classical_match = all(ref[n] == v[xs[n]] for n in range(depth + 1))
    return PendantPathResult(tree, pair, residuals, norm_ok, classical_match)


# ---------------------------------------------------------------------
# the real-value obstruction construction
# ---------------------------------------------------------------------


@dataclass
class ObstructionResult:
    tree: TreeTruncation
    kill_betas: list[Fraction]
    interior_dimensions: list[int]
    propagation: PropagationResult

    @property
    def ok(self) -> bool:
        return self.propagation.obstructed


def build_real_obstruction(depth: int) -> ObstructionResult:
    """Binary-branching matrix admitting no eigen-equation field at the
    real value 0 normalized at the path origin.

    Each side vertex y_k gets a positive-definite block below it (unit
    weights, diagonal 4), and its own diagonal is chosen so the unique
    interior solution of the block at 0 forces the value above y_k to
    vanish; the path origin carries diagonal 1 so the level-0 equation
    pins the origin value to zero, contradicting the normalization.
    The returned propagation result holds the proof of infeasibility."""
    if depth < 2:
        raise ValueError("depth must be >= 2")
    # the path x_0 ... x_depth first, top last, then the blocks in order
    ids = [f"x{k}" for k in range(depth + 1)]
    parents: list[int | None] = [*range(1, depth + 1), None]
    levels = list(range(depth + 1))
    lams = [Fraction(1)] * (depth + 1)
    betas = [Fraction(1)] + [Fraction(0)] * depth
    kill_betas: list[Fraction] = []
    dims: list[int] = []
    for k in range(depth):
        # y_k over a full binary block, renamed r... -> y{k}..., its root
        # under x_{k+1}
        block = homogeneous_tree(2, k, beta=lambda lv, addr: 4 if addr else 0)
        beta_y, dim = _kill_beta(block)
        kill_betas.append(beta_y)
        dims.append(dim)
        root = len(ids)
        ids += [f"y{k}{r[1:]}" for r in block.ids]
        parents += [k + 1] + [root + p for p in block.parent[1:]]
        levels += block.level
        lams += block.lam
        betas += [beta_y, *block.beta[1:]]
    tree = TreeTruncation(ids, depth, parents, levels, lams, betas)
    prop = propagate_real(tree, Fraction(0))
    return ObstructionResult(tree, kill_betas, dims, prop)


def _kill_beta(t: TreeTruncation) -> tuple[Fraction, int]:
    """The diagonal value at the block root that forces the interior
    solution at 0 to vanish one level above the root.

    The blocks below the root are positive definite (checked: every class
    ratio at 0 below the root is negative), so every class ratio
    r(c) = f(c)/f(root) at 0 is finite, and the interior solution space at
    0 is one-dimensional (checked by elimination); the eigen-equation at
    the root with f(above) = 0 then gives the diagonal
    -sum_c lambda_c r(c)."""
    table, cls = t.classes
    ratio = table.ratios(Fraction(0))
    # the root's class is the last one: no vertex below shares its subtree
    if any(r is None or r >= 0 for r in ratio[:-1]):
        raise ConstructionError(
            "side block below the kill vertex is not positive definite")
    dim = uniqueness_dimension(t, t.top, Fraction(0))
    if dim != 1:
        raise ConstructionError(
            f"interior solution space at 0 has dimension {dim}, expected 1")
    return -sum((t.lam[c] * ratio[cls[c]] for c in t.children[0]),
                Fraction(0)), dim


def small_norm_profile(depths) -> GrowthProfile:
    """Norm profile of the norm-capped construction, read off its compact
    form with no vertex built: stages are prefixes of deeper builds, so
    one build at the maximum depth gives every row; stage n adds x_n and
    its chain (1 + n vertices) and the ledger's side and top norms."""
    depths = list(depths)
    if not depths or min(depths) < 1:
        raise ValueError("profile depths must be positive")
    res = build_small_norm_pair(max(depths))
    norms = [res.values[0].abs2()]
    norms += [row.side_norm2 + row.top_value_norm2 for row in res.ledger]
    return nested_profile(res.path_lam, depths,
                          [1 + n for n in range(len(norms))], norms)


# ---------------------------------------------------------------------
# classical trend helper shared by the CLI and the acceptance suite
# ---------------------------------------------------------------------


def path_weight_square_sum_window() -> Fraction:
    """Increase of the partial sums of p_n(0)^2 + q_n(0)^2 from index 20
    to index 30 for the diagonal-free classical matrix with the weights
    `default_path_weight` (exact): the terms at indices 21..30."""
    j = classical(default_path_weight, Fraction(0), 31)
    p, q = pq_values(j, Fraction(0), 30)
    return sum((a * a + b * b for a, b in zip(p[21:], q[21:])), Fraction(0))
