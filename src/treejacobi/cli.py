"""Command-line front end.

Every subcommand prints one JSON report to stdout (see `reports`), a
short human summary to stderr, and exits 0 when all checks pass, 1 when
some check fails, 2 on usage or input-parsing errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import random
import sys
from fractions import Fraction

from . import classical1d, constructions, solutions, spectra, treepoly
from .errors import (ParseError, TreeJacobiError, UnknownVertexError,
                     ValidationError)
from .exactmath import GaussianRational, I, parse_gaussian, parse_rational
from .reports import make_report, render, to_jsonable
from .treecore import (TreeTruncation, build_from_spec, default_path,
                       homogeneous_classes, path_from_ids)

USAGE_EXIT = 2


def _load_tree(path: str) -> TreeTruncation:
    with open(path, "r", encoding="utf-8") as fh:
        return build_from_spec(fh.read())


def _decimal(text: str) -> int | None:
    """The integer that ASCII decimal digits spell, else None; `int`
    alone would also take signs, spaces, underscores and other scripts'
    digits."""
    return int(text) if text.isascii() and text.isdigit() else None


def _parse_depths(text: str) -> list[int]:
    """`n` or `lo..hi`; a bound may carry a minus sign, which the
    generators reject with their own message."""
    def bound(part: str) -> int:
        n = _decimal(part.removeprefix("-"))
        if n is None:
            raise ValueError(f"depth must be decimal digits, got {part!r}")
        return -n if part.startswith("-") else n

    if ".." in text:
        lo, hi = text.split("..", 1)
        depths = list(range(bound(lo), bound(hi) + 1))
        if not depths:
            raise ValueError(f"empty depth range {text!r}")
        return depths
    return [bound(text)]


def _resolve_path(tree, arg: str | None):
    if arg is not None:
        return path_from_ids(tree, arg.split(","))
    return default_path(tree)


def _wronskian_rows(pair) -> list[dict]:
    """Per step n of the pair's path: the Wronskian and the 1/lambda_{x_n}
    that solve_pair promises."""
    xs, lam = pair.path, pair.v.tree.lam
    rows = []
    for n in range(len(xs) - 1):
        value = solutions.wronskian(pair.v, pair.u, n)
        expected = GaussianRational(Fraction(1) / lam[xs[n]], Fraction(0))
        rows.append({"n": n, "value": value, "expected": expected,
                     "ok": value == expected})
    return rows


def _finish(args_list, inputs, results, failures) -> int:
    report = make_report(args_list, inputs, results, failures)
    sys.stdout.write(render(report))
    status = "PASS" if report["pass"] else "FAIL"
    print(f"{status}: {' '.join(args_list)}", file=sys.stderr)
    for f in failures:
        print(f"  failure: {f}", file=sys.stderr)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------


def _cmd_poly(args, argv) -> int:
    tree = _load_tree(args.tree)
    at = tree.top if args.at is None else tree.index_of(args.at)
    fam = treepoly.family(tree, at)
    results: dict = {"anchor": tree.ids[at]}
    if args.target is not None:
        entry = fam.entry(at, tree.index_of(args.target))
        results["entry"] = {"target": args.target, "coefficients": entry}
    else:
        results["self"] = fam.self_poly[at]
        results["up"] = fam.up_poly[at]
        if args.full:
            results["table"] = {
                tree.ids[v]: {"self": fam.self_poly[v], "up": fam.up_poly[v]}
                for v in fam.vertices()}
    return _finish(argv, tree.to_spec(), results, [])


def _cmd_spectrum(args, argv) -> int:
    tree = _load_tree(args.tree)
    at = tree.top if args.at is None else tree.index_of(args.at)
    fam = treepoly.family(tree, at)
    width = (Fraction(1, 2 ** 32) if args.width is None
             else parse_rational(args.width))
    desc = spectra.spectral_description(fam, width)
    char = spectra.char_poly(tree, at)
    results: dict = {
        "anchor": tree.ids[at],
        "top_factor": desc.top_factor,
        "top_roots": desc.top_roots,
        "shared_factors": desc.shared,
        "char_poly": char,
    }
    failures = []
    if args.verify:
        # the identity of verify_spectral_identity, on the factors and the
        # char poly this report already holds
        ok = char.monic() == desc.factor_product()
        results["identity"] = ok
        if not ok:
            failures.append("spectral factorization identity failed")
    return _finish(argv, tree.to_spec(), results, failures)


def _cmd_solve(args, argv) -> int:
    tree = _load_tree(args.tree)
    z = parse_gaussian(args.z)
    path = _resolve_path(tree, args.path)
    failures = []
    if z.im == 0:
        if args.path is not None:
            raise ValueError("--path applies to nonreal z; real-value "
                             "propagation chooses its own path")
        res = solutions.propagate_real(tree, z.re)
        results = {
            "z": z, "mode": "real",
            "obstructed": res.obstructed,
            "obstruction": res.obstruction_id,
            "values": ({tree.ids[v]: w for v, w in res.field.values.items()}
                       if res.field else None),
        }
        if res.obstructed:
            failures.append(
                f"no solution normalized at the path origin: obstruction at "
                f"{res.obstruction_id}")
    else:
        pair = solutions.solve_pair(tree, path, z)
        ok = pair.v.verify() and pair.u.verify()
        results = {
            "z": z, "mode": "nonreal", "path": path.ids,
            "v": {tree.ids[v]: w for v, w in pair.v.values.items()},
            "u": {tree.ids[v]: w for v, w in pair.u.values.items()},
            "side_reductions": pair.side,
            "residuals_zero": ok,
        }
        if not ok:
            failures.append("eigen-equation residual nonzero")
    return _finish(argv, {"tree": tree.to_spec(), "z": z}, results, failures)


def _cmd_wronskian(args, argv) -> int:
    tree = _load_tree(args.tree)
    z = parse_gaussian(args.z)
    path = _resolve_path(tree, args.path)
    rows = _wronskian_rows(solutions.solve_pair(tree, path, z))
    failures = [f"wronskian at step {row['n']} is not 1/lambda"
                for row in rows if not row["ok"]]
    return _finish(argv, {"tree": tree.to_spec(), "z": z},
                   {"path": path.ids, "steps": rows}, failures)


def _cmd_growth(args, argv) -> int:
    z = parse_gaussian(args.z)
    depths = _parse_depths(args.depths)
    if args.generator == "small-norm":
        # the capped construction is profiled on its own solution, whose
        # norm ledger is the quantity its theory bounds
        if z != I:
            raise ValueError("the small-norm generator is built at z = i")
        if args.path_lambda is not None:
            raise ValueError("the small-norm generator chooses its own path "
                             "weights; --path-lambda does not apply")
        profile = constructions.small_norm_profile(depths)
    else:
        # the generator's classes at the deepest depth: the subtree below
        # x_n of the spine is, weights included, the generator's tree at
        # depth n; bad input fails with the message the shallowest depth
        # gives
        kind, _, arg = args.generator.partition(":")
        d = _decimal(arg)
        if kind != "homogeneous" or d is None:
            raise ValueError(f"unknown generator {args.generator!r}")
        if d < 1:
            raise ValueError("branching d must be >= 1")
        if min(depths) < 0:
            raise ValueError("depth must be >= 0")
        lam = ((lambda k: Fraction(k + 1)) if args.path_lambda == "linear"
               else Fraction(1))
        profile = solutions.growth_profile(
            homogeneous_classes(d, max(depths), lam), z, depths)
    results = {
        "generator": args.generator,
        "rows": profile.rows,
        "strictly_increasing": profile.strictly_increasing,
        "bounded_by_one": profile.bounded_by_one,
        "carleman_divergent_trend": profile.carleman_divergent_trend,
        "note": profile.indicator,
    }
    return _finish(argv, {"generator": args.generator, "depths": depths,
                          "z": z}, results, [])


def _cmd_classical(args, argv) -> int:
    if args.depth < 0:
        raise ValueError(f"--depth must be >= 0, got {args.depth}")
    failures = []
    if args.rule == "geometric":
        fam = classical1d.geometric_family(
            parse_rational(args.q), parse_rational(args.a), args.depth + 2)
        results: dict = {
            "rule": "geometric",
            "lambdas": [fam.lam_at(n) for n in range(args.depth + 1)],
            "betas": [fam.beta_at(n) for n in range(args.depth + 1)],
        }
        kernel = classical1d.kernel_vector_residuals(fam, args.depth)
        results["kernel_residuals_zero"] = all(r == 0 for r in kernel)
        if not results["kernel_residuals_zero"]:
            failures.append("diagonal-free kernel vector residual nonzero")
    elif args.rule == "geometric-weights":
        q = parse_rational(args.q)
        fam = classical1d.classical(lambda n: q ** (n + 1), Fraction(0),
                                    args.depth + 2)
        results = {"rule": "geometric-weights",
                   "lambdas": [fam.lam_at(n) for n in range(args.depth + 1)]}
    else:
        raise ValueError(f"unknown rule {args.rule!r}")
    if args.report == "pq0":
        p, q = classical1d.pq_values(fam, Fraction(0), args.depth)
        results["p0"] = p
        results["q0"] = q
        results["square_sums"] = list(itertools.accumulate(
            a * a + b * b for a, b in zip(p, q)))
    return _finish(argv, {"rule": args.rule, "q": args.q, "a": args.a,
                          "depth": args.depth}, results, failures)


def _cmd_construct(args, argv) -> int:
    failures: list[str] = []
    if args.example == "small-norm":
        res = constructions.build_small_norm_pair(args.depth)
        tree = res.tree
        results = {
            "example": args.example,
            "ledger": res.ledger,
            "norm_bounds_hold": res.ok,
            "residuals_zero": res.solution.verify(),
        }
        if not res.ok:
            failures.append("norm ledger bound violated")
    elif args.example == "bounded-path":
        res = constructions.build_path_perturbed_homogeneous(args.d, args.depth)
        tree = res.tree
        radius_depths = list(range(2, min(args.depth, 5) + 1))
        radius_ok = constructions.bounded_base_radius_ok(args.d, radius_depths)
        window = constructions.path_weight_square_sum_window()
        results = {
            "example": args.example,
            "branching": args.d,
            "base_weight": res.base_weight,
            "path_weights": res.path_weights,
            "base_radius_depths": radius_depths,
            "base_radius_within_2": radius_ok,
            "classical_square_sum_window_20_30": window,
            "classical_window_below_1e-6": window < Fraction(1, 10 ** 6),
        }
        if not radius_ok:
            failures.append("base truncation has an eigenvalue outside [-2, 2]")
    elif args.example == "pendant-path":
        res = constructions.build_pendant_path(
            args.depth, rule=args.pendant_rule, a=parse_rational(args.a))
        tree = res.tree
        results = {
            "example": args.example,
            "reduced_residuals_zero": all(not r for r in res.reduced_residuals),
            "pendant_norm_identity": res.pendant_norm_ok,
            "classical_match": res.classical_match,
        }
        if not res.ok:
            failures.append("pendant path checks failed")
    elif args.example == "real-obstruction":
        res = constructions.build_real_obstruction(args.depth)
        tree = res.tree
        results = {
            "example": args.example,
            "kill_betas": res.kill_betas,
            "interior_dimensions": res.interior_dimensions,
            "obstructed_at_zero": res.propagation.obstructed,
            "obstruction_vertex": res.propagation.obstruction_id,
        }
        if not res.propagation.obstructed:
            failures.append("expected an obstruction at the real value 0")
    else:
        raise ValueError(f"unknown example {args.example!r}")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(tree.to_json())
        results["out"] = args.out
    results["vertices"] = tree.size
    return _finish(argv, {"example": args.example, "depth": args.depth},
                   results, failures)


# ---------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------


def _suite_items(tree: TreeTruncation, seed: int, z: GaussianRational):
    fam = treepoly.family(tree)
    rng = random.Random(seed)
    zs = [z]
    for _ in range(2):
        zs.append(GaussianRational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            Fraction(rng.choice([1, -1]) * rng.randint(1, 6), rng.randint(1, 4))))

    # the characteristic polynomial is built once and each spectral
    # parameter is solved once; errors still surface in the first item
    # that needs them
    @functools.cache
    def path():
        return default_path(tree)

    @functools.cache
    def char():
        return spectra.char_poly(tree)

    @functools.cache
    def pair_at(w):
        return solutions.solve_pair(tree, path(), w)

    def degree_law():
        return treepoly.degree_law_report(fam).ok, {}

    def interlacing():
        rep = treepoly.interlacing_report(fam)
        return rep.ok, {"failures": [c.vertex for c in rep.failures()]}

    def divisibility():
        rep = treepoly.divisibility_report(fam)
        return rep.ok, {"failures": [c.vertex for c in rep.failures()]}

    def identity():
        return spectra.verify_spectral_identity(fam, char()), {}

    def witnesses():
        checks = spectra.eigenvector_witness_report(fam)
        return all(c.ok for c in checks), {"count": len(checks)}

    def uniqueness():
        if tree.cut:
            # cut vertices carry no equation, so one-dimensionality only
            # applies to fully represented truncations
            return True, {"skipped": "tree has cut vertices"}
        dims = [solutions.uniqueness_dimension(tree, tree.top, w) for w in zs]
        return all(d == 1 for d in dims), {"dimensions": dims}

    def wronskian_item():
        rows = [row for w in zs for row in _wronskian_rows(pair_at(w))]
        return all(row["ok"] for row in rows), {}

    def conjugation():
        a = pair_at(zs[-1])
        b = pair_at(zs[-1].conjugate())
        ok = all(a.v.values[v].conjugate() == b.v.values[v]
                 for v in a.v.values)
        return ok, {}

    def nonvanishing():
        pair = pair_at(z)
        return pair.v.nonvanishing() and pair.v.verify() and pair.u.verify(), {}

    def negative_count():
        sturm = spectra.count_negative_eigenvalues(char())
        inertia = spectra.tree_inertia(tree, Fraction(0)).below
        return sturm == inertia, {"sturm": sturm, "inertia": inertia}

    items = [("degree_law", degree_law), ("interlacing", interlacing),
             ("divisibility", divisibility), ("spectral_identity", identity),
             ("eigenvector_witnesses", witnesses),
             ("uniqueness_dimension", uniqueness),
             ("wronskian", wronskian_item), ("conjugation", conjugation),
             ("nonvanishing", nonvanishing),
             ("negative_count_consistency", negative_count)]
    if all(tree.beta[v] == 0 for v in range(tree.size)):
        def rotated():
            rep = solutions.rotated_positivity_report(pair_at(I))
            return rep.ok, {"failures": rep.vertex_failures}
        items.append(("rotated_positivity", rotated))
    return items


def _cmd_verify_all(args, argv) -> int:
    tree = _load_tree(args.tree)
    z = parse_gaussian(args.z)
    outcomes = [(name, *fn()) for name, fn in _suite_items(tree, args.seed, z)]
    results = {name: {"ok": ok, **to_jsonable(detail)}
               for name, ok, detail in outcomes}
    failures = [name for name, ok, _ in outcomes if not ok]
    return _finish(argv, {"tree": tree.to_spec(), "seed": args.seed,
                          "z": z}, results, failures)


# ---------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing keeps no state in it."""
    ap = argparse.ArgumentParser(
        prog="treejacobi",
        description="exact computations with Jacobi matrices on one-ended trees")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("poly", help="polynomial family table")
    p.add_argument("--tree", required=True)
    p.add_argument("--at", default=None)
    p.add_argument("--target", default=None)
    p.add_argument("--full", action="store_true")
    p.set_defaults(fn=_cmd_poly)

    p = sub.add_parser("spectrum", help="truncated spectrum and factorization")
    p.add_argument("--tree", required=True)
    p.add_argument("--at", default=None)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--width", default=None,
                   help="root-interval refinement width (default 2^-32)")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("solve", help="solution pair at a spectral parameter")
    p.add_argument("--tree", required=True)
    p.add_argument("--z", default="0/1+1/1i")
    p.add_argument("--path", default=None, help="comma-separated vertex ids")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("wronskian", help="pair determinant along the path")
    p.add_argument("--tree", required=True)
    p.add_argument("--z", default="0/1+1/1i")
    p.add_argument("--path", default=None)
    p.set_defaults(fn=_cmd_wronskian)

    p = sub.add_parser("growth", help="norm growth profile over depths")
    p.add_argument("--generator", required=True,
                   help="homogeneous:<d> or small-norm")
    p.add_argument("--path-lambda", default=None, choices=["unit", "linear"],
                   help="homogeneous:<d> only; default unit")
    p.add_argument("--z", default="0/1+1/1i")
    p.add_argument("--depths", required=True, help="e.g. 3..15")
    p.set_defaults(fn=_cmd_growth)

    p = sub.add_parser("classical", help="classical path-matrix families")
    p.add_argument("--rule", required=True,
                   choices=["geometric", "geometric-weights"])
    p.add_argument("--q", default="2/1")
    p.add_argument("--a", default="1/1")
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--report", default=None, choices=[None, "pq0"])
    p.set_defaults(fn=_cmd_classical)

    p = sub.add_parser("construct", help="explicit matrix constructions")
    p.add_argument("--example", required=True,
                   choices=["small-norm", "bounded-path", "pendant-path",
                            "real-obstruction"])
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--d", type=int, default=4, help="branching (bounded-path)")
    p.add_argument("--a", default="3/4", help="pendant parameter")
    p.add_argument("--pendant-rule", default="ramp",
                   choices=["ramp", "constant"])
    p.add_argument("--out", default=None, help="write the tree spec here")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify-all", help="full property suite on a tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--z", default="0/1+1/1i")
    p.set_defaults(fn=_cmd_verify_all)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0,) else 0
    try:
        return args.fn(args, argv)
    except (ParseError, ValidationError, UnknownVertexError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except TreeJacobiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
