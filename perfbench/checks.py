"""Correctness checks that do not use the package.

Every check takes the parsed report and returns a list of problems (empty
when the report is right).  The exact algebra here is written from the
definitions: characteristic polynomials by determinants at integer
points and interpolation, eigen-equation residuals, and feasibility of
the eigen-equation system by Gauss-Jordan elimination over the rationals
(complex systems are solved in real form).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from gen import Tree

# trees up to this many vertices get an independent characteristic polynomial
CHARPOLY_MAX = 32

_GAUSSIAN = re.compile(r"^([+-]?\d+/\d+)([+-]\d+/\d+)i$")


def gaussian(text: str) -> tuple[Fraction, Fraction]:
    m = _GAUSSIAN.match(text)
    if not m:
        raise ValueError(f"not a Gaussian rational: {text!r}")
    return Fraction(m.group(1)), Fraction(m.group(2))


def rationals(items) -> list[Fraction]:
    return [Fraction(s) for s in items]


# ---------------------------------------------------------------------
# polynomials: coefficient lists, lowest degree first
# ---------------------------------------------------------------------


def trim(p: list[Fraction]) -> list[Fraction]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def monic(p: list[Fraction]) -> list[Fraction]:
    return [c / p[-1] for c in p]


def mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def remainder(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    r = trim(p)
    while len(r) >= len(q):
        f = r[-1] / q[-1]
        off = len(r) - len(q)
        for i, c in enumerate(q):
            r[off + i] -= f * c
        r = trim(r)
    return r


def evaluate(p: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def negative_root_count(p: list[Fraction]) -> int:
    """Negative roots with multiplicity of a polynomial whose roots are all
    real: Descartes' sign rule on p(-x), which is exact in that case."""
    p = trim(p)
    while p[0] == 0:
        p = p[1:]
    signs = [sign(c) * (-1) ** k for k, c in enumerate(p) if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


# ---------------------------------------------------------------------
# dense linear algebra over the rationals
# ---------------------------------------------------------------------


def matrix(t: Tree) -> list[list[Fraction]]:
    n = t.size
    a = [[Fraction(0)] * n for _ in range(n)]
    for v in range(n):
        a[v][v] = t.beta[v]
        p = t.parent[v]
        if p is not None:
            a[v][p] = a[p][v] = t.lam[v]
    return a


def int_determinant(m: list[list[int]]) -> int:
    """Determinant of an integer matrix by Bareiss fraction-free
    elimination (every division is exact)."""
    m = [row[:] for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def char_poly(t: Tree) -> list[Fraction]:
    """det(xI - A), from its values at x = 0..n by Newton interpolation.
    With D the common denominator of A, det(xI - A) = det(D(xI - A)) / D^n
    and D(xI - A) is an integer matrix.  Cached on the tree."""
    cached = getattr(t, "_char_poly", None)
    if cached is not None:
        return cached
    a = matrix(t)
    n = t.size
    d = math.lcm(*(x.denominator for row in a for x in row))
    scaled = [[int(x * d) for x in row] for row in a]
    coef = []
    for x in range(n + 1):
        m = [[(x * d if i == j else 0) - scaled[i][j] for j in range(n)]
             for i in range(n)]
        coef.append(Fraction(int_determinant(m), d ** n))
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / j
    poly = [coef[n]]
    for i in range(n - 1, -1, -1):
        shifted = [Fraction(0)] + poly
        poly = [s - i * c for s, c in zip(shifted, poly + [Fraction(0)])]
        poly[0] += coef[i]
    t._char_poly = poly
    return poly


def solve(rows: list[dict[int, Fraction]], rhs: list[Fraction], ncols: int):
    """A solution of the sparse system rows * x = rhs (rows map column to
    coefficient; free variables are zero), or None when it is
    inconsistent.  Each row is reduced by the pivot rows before it, so a
    pivot row holds, besides its pivot, only free columns and the pivots
    of later rows; back substitution runs from the last pivot."""
    pivots: dict[int, tuple[dict[int, Fraction], Fraction]] = {}
    for row, b in zip(rows, rhs):
        row = {c: v for c, v in row.items() if v}
        while True:
            col = next((c for c in row if c in pivots), None)
            if col is None:
                break
            prow, pb = pivots[col]
            f = row[col]
            for c, v in prow.items():
                x = row.get(c, 0) - f * v
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
            b -= f * pb
        if not row:
            if b:
                return None
            continue
        col = min(row)
        head = row[col]
        pivots[col] = ({c: v / head for c, v in row.items()}, b / head)
    x = [Fraction(0)] * ncols
    for col in reversed(list(pivots)):
        prow, pb = pivots[col]
        x[col] = pb - sum((v * x[c] for c, v in prow.items() if c != col),
                          Fraction(0))
    return x


def path_origin(t: Tree) -> int:
    """Start of the default path: descend from the top through the first
    child (in document order) that reaches level 0."""
    kids = t.children()
    reaches: dict[int, bool] = {}

    def walk(v):
        reaches[v] = t.level[v] == 0 or any([walk(c) for c in kids[v]])
        return reaches[v]

    walk(t.top)
    v = t.top
    while t.level[v] > 0:
        v = next(c for c in kids[v] if reaches[c])
    return v


def interior(t: Tree) -> list[int]:
    return [v for v in range(t.size) if v != t.top and v not in t.cut]


def normalized_solution(t: Tree, z: tuple[Fraction, Fraction]):
    """The field f with f(x_0) = 1 satisfying the eigen-equation at every
    interior vertex, as (re, im) pairs per vertex; None if none exists.
    For nonreal z the unknowns are the real parts, then the imaginary
    parts; for real z the imaginary parts are left out, since they solve
    a homogeneous system with the zero solution."""
    n = t.size
    zr, zi = z
    parts = (0, 1) if zi else (0,)
    width = n * len(parts)
    kids = t.children()
    rows, rhs = [], []
    for w in interior(t):
        for part in parts:  # real and imaginary part of the equation
            off = part * n
            row = {off + w: zr - t.beta[w]}
            if zi:
                row[(1 - part) * n + w] = -zi if part == 0 else zi
            row[off + t.parent[w]] = -t.lam[w]
            for c in kids[w]:
                row[off + c] = -t.lam[c]
            rows.append(row)
            rhs.append(Fraction(0))
    x0 = path_origin(t)
    for part in parts:
        rows.append({part * n + x0: Fraction(1)})
        rhs.append(Fraction(1 - part))
    sol = solve(rows, rhs, width)
    if sol is None:
        return None
    return [(sol[v], sol[n + v] if zi else Fraction(0)) for v in range(n)]


def residual_problems(t: Tree, z, values: dict[str, str], skip=()) -> list[str]:
    """Vertices where z f(w) != lam_w f(parent) + beta_w f(w) + sum of
    lam_c f(c), over interior vertices not in `skip`."""
    zr, zi = z
    f = [gaussian(values[name]) for name in t.ids]
    kids = t.children()
    bad = []
    for w in interior(t):
        if w in skip:
            continue
        fr, fi = f[w]
        rr = zr * fr - zi * fi - t.beta[w] * fr - t.lam[w] * f[t.parent[w]][0]
        ri = zr * fi + zi * fr - t.beta[w] * fi - t.lam[w] * f[t.parent[w]][1]
        for c in kids[w]:
            rr -= t.lam[c] * f[c][0]
            ri -= t.lam[c] * f[c][1]
        if rr or ri:
            bad.append(f"eigen-equation residual nonzero at {t.ids[w]}")
    return bad


# ---------------------------------------------------------------------
# report checks, one per subcommand
# ---------------------------------------------------------------------


def _root_sets(res: dict) -> list[tuple[list[Fraction], list[dict]]]:
    sets = [(rationals(res["top_factor"]), res["top_roots"])]
    sets += [(rationals(s["factor"]), s["roots"]) for s in res["shared_factors"]]
    return sets


def check_spectrum(report: dict, t: Tree, width: Fraction) -> list[str]:
    res = report["results"]
    bad = []
    if res.get("identity") is not True:
        bad.append("spectral identity not reported true")
    total = 0
    product = [Fraction(1)]
    for factor, roots in _root_sets(res):
        product = mul(product, monic(factor))
        prev_hi = None
        for r in roots:
            lo, hi, mult = Fraction(r["lo"]), Fraction(r["hi"]), r["multiplicity"]
            total += mult
            if not lo <= hi or hi - lo > width:
                bad.append(f"interval ({lo}, {hi}] wider than {width}")
            if prev_hi is not None and lo < prev_hi:
                bad.append(f"interval ({lo}, {hi}] overlaps its neighbour")
            prev_hi = hi
            if mult % 2 and lo != hi and \
                    sign(evaluate(factor, lo)) * sign(evaluate(factor, hi)) > 0:
                bad.append(f"no sign change of the factor over ({lo}, {hi}]")
    if total != t.size:
        bad.append(f"multiplicities sum to {total}, not {t.size} vertices")
    if len(res["top_roots"]) != len(res["top_factor"]) - 1:
        bad.append("top factor does not have all its roots real and simple")
    if t.size <= CHARPOLY_MAX:
        cp = char_poly(t)
        if rationals(res["char_poly"]) != cp:
            bad.append("char_poly differs from the determinant")
        if product != cp:
            bad.append("factors do not multiply to the determinant")
    return bad


def check_verify_all(report: dict, t: Tree) -> list[str]:
    res = report["results"]
    bad = [f"{name} not ok" for name, item in sorted(res.items())
           if item.get("ok") is not True]
    expected = 10 + all(b == 0 for b in t.beta)
    if len(res) != expected:
        bad.append(f"{len(res)} suite items, expected {expected}")
    neg = res.get("negative_count_consistency", {})
    if t.size <= CHARPOLY_MAX:
        count = negative_root_count(char_poly(t))
        if (neg.get("sturm"), neg.get("inertia")) != (count, count):
            bad.append(f"negative eigenvalue count is not {count}")
    if not t.cut and res.get("uniqueness_dimension", {}).get("dimensions") \
            != [1, 1, 1]:
        bad.append("uniqueness dimensions are not all 1")
    return bad


def check_poly(report: dict, t: Tree) -> list[str]:
    res = report["results"]
    bad = []
    table = res.get("table", {res["anchor"]: res})
    index = {name: i for i, name in enumerate(t.ids)}
    for name, row in table.items():
        s, u = rationals(row["self"]), rationals(row["up"])
        v = index[name]
        if len(u) != len(s) + 1 or s[-1] != 1 or u[-1] != 1 / t.lam[v]:
            bad.append(f"degree or leading law fails at {name}")
    if t.size <= CHARPOLY_MAX and remainder(char_poly(t),
                                            rationals(res["up"])):
        bad.append("the top up-polynomial does not divide the determinant")
    return bad


def check_solve_nonreal(report: dict, t: Tree, z) -> list[str]:
    res = report["results"]
    index = {name: i for i, name in enumerate(t.ids)}
    path = [index[n] for n in res["path"]]
    bad = []
    if [t.level[v] for v in path] != list(range(len(path))) or \
            path[-1] != t.top:
        bad.append("path does not climb from level 0 to the top")
    v, u = res["v"], res["u"]
    if gaussian(v[t.ids[path[0]]]) != (1, 0) or \
            gaussian(u[t.ids[path[0]]]) != (0, 0) or \
            gaussian(u[t.ids[path[1]]]) != (1 / t.lam[path[0]], 0):
        bad.append("pair normalization at the path origin is wrong")
    bad += residual_problems(t, z, v)
    bad += residual_problems(t, z, u, skip={path[0]})
    return bad


def expected_real_exit(t: Tree, r: Fraction) -> int:
    """1 when no field normalized at the path origin exists at z = r."""
    return 1 if normalized_solution(t, (r, Fraction(0))) is None else 0


def check_solve_real(report: dict, t: Tree, r: Fraction) -> list[str]:
    res = report["results"]
    if res["obstructed"]:
        return []
    return residual_problems(t, (r, Fraction(0)), res["values"])


def check_wronskian(report: dict, t: Tree) -> list[str]:
    res = report["results"]
    index = {name: i for i, name in enumerate(t.ids)}
    path = [index[n] for n in res["path"]]
    bad = []
    if len(res["steps"]) != len(path) - 1:
        bad.append("one step per path edge expected")
    for row in res["steps"]:
        want = 1 / t.lam[path[row["n"]]]
        if gaussian(row["value"]) != (want, 0) or row["ok"] is not True:
            bad.append(f"wronskian at step {row['n']} is not {want}")
    return bad


def classical_coefficients(rule: str, q: Fraction, a: Fraction, depth: int):
    """(lambdas, betas) of the classical rules, from their definitions."""
    if rule == "geometric-weights":
        return [q ** (n + 1) for n in range(depth + 1)], \
            [Fraction(0)] * (depth + 1)
    lam = [q ** (n // 2) for n in range(depth + 1)]
    beta = [a * q ** (n // 2) if n % 2 else
            (q ** (n // 2) + q ** (n // 2 - 1)) / a for n in range(depth + 1)]
    return lam, beta


def check_classical(report: dict, rule: str, q: Fraction, a: Fraction,
                    depth: int) -> list[str]:
    res = report["results"]
    lam, beta = classical_coefficients(rule, q, a, depth)
    bad = []
    if rationals(res["lambdas"]) != lam:
        bad.append("lambdas differ from the rule")
    if "betas" in res and rationals(res["betas"]) != beta:
        bad.append("betas differ from the rule")
    if rule == "geometric" and res.get("kernel_residuals_zero") is not True:
        bad.append("kernel residuals not zero")
    p, qq = rationals(res["p0"]), rationals(res["q0"])
    for n in range(1, depth):
        for seq in (p, qq):
            if lam[n] * seq[n + 1] != -beta[n] * seq[n] - lam[n - 1] * seq[n - 1]:
                bad.append(f"three-term recursion fails at {n}")
    if p[:2] != [1, -beta[0] / lam[0]] or qq[:2] != [0, 1 / lam[0]]:
        bad.append("first/second-kind start values are wrong")
    acc, sums = Fraction(0), []
    for x, y in zip(p, qq):
        acc += x * x + y * y
        sums.append(acc)
    if rationals(res["square_sums"]) != sums:
        bad.append("square sums are not the partial sums of p^2 + q^2")
    return bad


def check_construct(report: dict, example: str, built: Tree) -> list[str]:
    res = report["results"]
    bad = []
    if res["vertices"] != built.size:
        bad.append("vertex count differs from the written tree")
    if example == "small-norm":
        for row in res["ledger"]:
            n = row["n"]
            if Fraction(row["bound"]) != 1 - Fraction(1, 2 ** n) or \
                    not Fraction(row["total_norm2"]) <= Fraction(row["bound"]):
                bad.append(f"norm ledger fails at stage {n}")
        flags = ("norm_bounds_hold", "residuals_zero")
    elif example == "bounded-path":
        if not Fraction(res["classical_square_sum_window_20_30"]) < \
                Fraction(1, 10 ** 6):
            bad.append("classical window not below 1e-6")
        flags = ("base_radius_within_2", "classical_window_below_1e-6")
    elif example == "pendant-path":
        flags = ("reduced_residuals_zero", "pendant_norm_identity",
                 "classical_match")
    else:
        if expected_real_exit(built, Fraction(0)) != 1:
            bad.append("the written tree is not obstructed at 0")
        flags = ("obstructed_at_zero",)
    bad += [f"{flag} not true" for flag in flags if res.get(flag) is not True]
    return bad


def check_growth(report: dict, gen_spec: str, path_lambda: str,
                 depths: list[int], norm_oracle) -> list[str]:
    """`norm_oracle(depth)` gives the independent squared norm, or None."""
    res = report["results"]
    rows = res["rows"]
    bad = []
    if [row["depth"] for row in rows] != depths:
        bad.append("rows do not match the requested depths")
    norms = [Fraction(row["norm2"]) for row in rows]
    if res["strictly_increasing"] != all(a < b for a, b in zip(norms, norms[1:])):
        bad.append("strictly_increasing flag disagrees with the rows")
    if res["bounded_by_one"] != all(x <= 1 for x in norms):
        bad.append("bounded_by_one flag disagrees with the rows")
    for row, norm in zip(rows, norms):
        n = row["depth"]
        if gen_spec == "small-norm":
            if not 0 < norm <= 1 - Fraction(1, 2 ** n):
                bad.append(f"small-norm stage {n} exceeds 1 - 2^-{n}")
            continue
        d = int(gen_spec.split(":")[1])
        if row["size"] != (d ** (n + 1) - 1) // (d - 1):
            bad.append(f"size at depth {n} is not a full {d}-ary tree")
        recips = [Fraction(1, k + 1) if path_lambda == "linear" else Fraction(1)
                  for k in range(n + 1)]
        if Fraction(row["carleman_sum"]) != sum(recips):
            bad.append(f"carleman sum at depth {n} is wrong")
        want = norm_oracle(n)
        if want is not None and norm != want:
            bad.append(f"norm2 at depth {n} differs from the radial reduction")
    return bad


def solution_norm2(t: Tree, z) -> Fraction:
    field = normalized_solution(t, z)
    return sum((a * a + b * b for a, b in field), Fraction(0))


def homogeneous_norm2(d: int, depth: int, path_lam, z) -> Fraction:
    """Squared norm of the normalized solution on the full d-ary tree of
    the given depth with beta = 0, lambda = `path_lam(k)` at the level-k
    vertex of the default path x_0 .. x_depth and lambda = 1 elsewhere,
    for nonreal z, by radial reduction.

    Off the path every subtree is a full unit-weight d-ary tree, so its
    field depends only on the level m: with P_0 = 1, P_1 = z and
    P_{m+1} = z P_m - d P_{m-1}, the field on a side subtree of height h
    whose parent holds y is y P_m / P_{h+1} (P has real roots only).  Along
    the path, the equation at x_k gives lam_k f(x_{k+1}) = z f(x_k) -
    lam_{k-1} f(x_{k-1}) - (d - 1) f(x_k) P_{k-1} / P_k."""
    p = [(Fraction(1), Fraction(0)), z]
    for _ in range(depth):
        p.append(csub(cmul(z, p[-1]), cscale(Fraction(d), p[-2])))
    weight = [sum((d ** (h - m) * cabs2(p[m]) for m in range(h + 1)),
                  Fraction(0)) for h in range(depth)]
    f = [(Fraction(1), Fraction(0))]
    for k in range(depth):
        nxt = cmul(z, f[k])
        if k > 0:
            nxt = csub(nxt, cscale(path_lam(k - 1), f[k - 1]))
            nxt = csub(nxt, cscale(Fraction(d - 1),
                                   cdiv(cmul(f[k], p[k - 1]), p[k])))
        f.append(cscale(1 / Fraction(path_lam(k)), nxt))
    total = sum((cabs2(x) for x in f), Fraction(0))
    for k in range(1, depth + 1):  # d - 1 side subtrees of height k - 1
        total += (d - 1) * cabs2(f[k]) * weight[k - 1] / cabs2(p[k])
    return total


# Gaussian rationals as (re, im) pairs, for the radial reduction


def cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def csub(a, b):
    return a[0] - b[0], a[1] - b[1]


def cscale(c: Fraction, a):
    return c * a[0], c * a[1]


def cabs2(a) -> Fraction:
    return a[0] * a[0] + a[1] * a[1]


def cdiv(a, b):
    n = cabs2(b)
    return cscale(1 / n, cmul(a, (b[0], -b[1])))
