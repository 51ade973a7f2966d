"""The four workloads: seeded pools of CLI operations with their checks.

An op is one `treejacobi.cli.main(argv)` call.  Each pool is a sequence
of blocks with the same mix of shapes and subcommands in every block;
the seed draws the weights and the order inside each block, while
shapes and parameters are drawn per block from a fixed generator, so
that seeds differ in their numbers but not in their mix of work.
Input files go to fixed paths under the work directory, so the reports,
which echo argv, are byte-comparable across runs and commits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
import gen

WIDTH = Fraction(1, 2 ** 32)  # the spectrum command's default width
ZS = ("0/1+1/1i", "1/2+1/1i", "-1/2+1/1i", "0/1+2/1i", "1/1+1/2i",
      "-1/3+3/2i")
REALS = ("1/3", "-2/3", "5/7", "-7/5", "3/11")


@dataclass
class Op:
    argv: tuple[str, ...]
    expect: int | Callable[[], int]     # exit code known from theory
    check: Callable[[dict], list[str]]  # independent checks on the report
    kind: str

    def expected_exit(self) -> int:
        return self.expect if isinstance(self.expect, int) else self.expect()


@dataclass
class Pool:
    ops: list[Op]
    warmup: list[Op]
    trees: list[gen.Tree]  # inputs, for the descriptors


class Writer:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.trees: dict[str, gen.Tree] = {}  # by path

    def tree(self, t: gen.Tree, name: str) -> str:
        path = str(self.workdir / f"{name}.json")
        if path not in self.trees:
            Path(path).write_text(t.to_json(), encoding="utf-8")
            self.trees[path] = t
        return path


def _shuffled_blocks(rng: random.Random, blocks: list[list[Op]]) -> list[Op]:
    out = []
    for block in blocks:
        rng.shuffle(block)
        # ops that read a tree another op of the block writes go last
        block.sort(key=lambda op: op.kind == "solve-obstructed")
        out.extend(block)
    return out


# ---------------------------------------------------------------------
# single ops
# ---------------------------------------------------------------------


def verify_op(w: Writer, t: gen.Tree, name: str, seed: int) -> Op:
    path = w.tree(t, name)
    return Op(("verify-all", "--tree", path, "--seed", str(seed)), 0,
              lambda rep: checks.check_verify_all(rep, t), "verify-all")


def spectrum_op(w: Writer, t: gen.Tree, name: str) -> Op:
    path = w.tree(t, name)
    return Op(("spectrum", "--tree", path, "--verify"), 0,
              lambda rep: checks.check_spectrum(rep, t, WIDTH), "spectrum")


def growth_op(spec: str, path_lambda: str, lo: int, hi: int,
              z: str | None) -> Op:
    argv = ["growth", "--generator", spec]
    if spec != "small-norm":
        argv += ["--path-lambda", path_lambda]
    argv += ["--depths", f"{lo}..{hi}"]
    if z is not None:
        argv.append(f"--z={z}")  # "=" keeps argparse from reading -1/2 as a flag
    zz = checks.gaussian(z or "0/1+1/1i")
    return Op(tuple(argv), 0,
              lambda rep: checks.check_growth(
                  rep, spec, path_lambda, list(range(lo, hi + 1)),
                  lambda n: _growth_norm(spec, path_lambda, zz, n)),
              "growth")


# ---------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------


def build_verify(rng: random.Random, w: Writer) -> Pool:
    """verify-all over seeded random-weight trees of 7 to 15 vertices.

    Block b draws its shapes and verify-all seeds from `Random(b)` and the
    weights from the workload seed, so the seed moves weights and order
    but not the shapes.  A block holds two cheap trees (h22 shape, 9
    vertices), three 11-vertex leveled trees in the middle (25% to 62% of
    the ops: the median) and three costly ones on top (h23 shape, 13 and
    14 vertices: the tail, at the 72nd to 82nd percentile for 40 to 60
    ops), so both fall where latencies are dense."""
    blocks = []
    for b in range(20):
        fixed = random.Random(b)
        weights = gen.random_weights(rng)
        shapes = [gen.homogeneous(2, 2, *weights),
                  gen.homogeneous(2, 3, *weights)]
        shapes += [gen.reweighted(gen.leveled_of_size(fixed, depth, n), rng)
                   for depth, n in ((4, 9), (5, 11), (5, 11), (5, 11),
                                    (5, 13), (5, 14))]
        blocks.append([verify_op(w, t, f"b{b:02d}-{k}", fixed.randint(0, 99))
                       for k, t in enumerate(shapes)])
    warm = gen.homogeneous(2, 2, *gen.random_weights(random.Random(0)))
    warmup = [verify_op(Writer(w.workdir), warm, "warmup", 0)]
    return Pool(_shuffled_blocks(rng, blocks), warmup, list(w.trees.values()))


def build_spectrum(rng: random.Random, w: Writer) -> Pool:
    """spectrum --verify at the default width over seeded random-weight
    paths of depth 8 to 14 and binary trees of depth 2 and 3.  A block
    holds two cheap trees (h22 shape, p8), three p11 paths in the middle
    (the median) and p13, p14 and the h23 shape on top (the tail), as in
    `build_verify`."""
    blocks = []
    for b in range(12):
        weights = gen.random_weights(rng)
        shapes = [gen.path(d, *weights) for d in (8, 11, 11, 11, 13, 14)]
        shapes += [gen.homogeneous(2, 2, *weights),
                   gen.homogeneous(2, 3, *weights)]
        blocks.append([spectrum_op(w, t, f"b{b:02d}-{k}")
                       for k, t in enumerate(shapes)])
    warm = gen.path(4, *gen.random_weights(random.Random(0)))
    warmup = [spectrum_op(Writer(w.workdir), warm, "warmup")]
    return Pool(_shuffled_blocks(rng, blocks), warmup, list(w.trees.values()))


def _growth_norm(spec: str, path_lambda: str, z, depth: int):
    """Squared norm of the normalized solution on the generated tree, by
    radial reduction; None for small-norm."""
    if spec == "small-norm":
        return None
    lam = (lambda k: k + 1) if path_lambda == "linear" else (lambda k: 1)
    return checks.homogeneous_norm2(int(spec.split(":")[1]), depth, lam, z)


def _growth_lambda(path_lambda: str):
    if path_lambda == "linear":
        return lambda lv, addr: lv + 1 if not any(addr) else 1
    return lambda lv, addr: 1


def growth_trees(pool: Pool) -> list[gen.Tree]:
    """The largest tree each homogeneous growth op generates."""
    out = {}
    for op in pool.ops:
        spec = op.argv[2]
        if spec.startswith("homogeneous:"):
            lam = op.argv[op.argv.index("--path-lambda") + 1]
            hi = int(op.argv[op.argv.index("--depths") + 1].split("..")[1])
            out[spec, lam, hi] = None
    return [gen.homogeneous(int(s.split(":")[1]), hi, _growth_lambda(lam),
                            lambda *_: 0) for s, lam, hi in sorted(out)]


def build_growth(rng: random.Random, w: Writer) -> Pool:
    """Norm growth profiles over generated homogeneous trees up to depth
    11 (4,095 vertices), plus the small-norm construction.  The generated
    trees and z values do not depend on the seed, which draws only the
    order.  The costs of these ops have no spread of their own, so a
    block holds three near-equal binary unit-weight profiles in the
    middle (25% to 62% of the ops: the median) and three deepest
    linear-weight profiles on top (the tail, at the 72nd to 82nd
    percentile for 40 to 60 ops)."""
    blocks = []
    for _ in range(12):
        blocks.append([
            growth_op("small-norm", "unit", 3, 30, None),
            growth_op("homogeneous:3", "linear", 2, 6, "0/1+2/1i")]
            + [growth_op("homogeneous:2", "unit", 2, 10, z) for z in
               ("0/1+1/1i", "1/2+1/1i", "0/1+2/1i")]
            + [growth_op("homogeneous:2", "linear", 3, 11, z) for z in
               ("0/1+1/1i", "1/2+1/1i", "-1/2+1/1i")])
    warmup = [growth_op("homogeneous:2", "linear", 2, 6, None)]
    return Pool(_shuffled_blocks(rng, blocks), warmup, list(w.trees.values()))


def build_mix(rng: random.Random, w: Writer) -> Pool:
    """A seeded stream of small ops over every subcommand, on trees of 5
    to 12 vertices.  As in `build_verify`, block b draws shapes and
    parameters from `Random(b)`; the seed draws weights and order."""
    blocks = []
    for b in range(12):
        block: list[Op] = []
        fixed = random.Random(b)
        small = [gen.reweighted(gen.leveled_of_size(
                     fixed, fixed.randint(*depths), n), rng)
                 for n, depths in ((5, (2, 3)), (7, (2, 3)), (9, (3, 4)),
                                   (12, (3, 4)))]
        for k, t in enumerate(small):
            name = f"b{b:02d}-t{k}"
            path = w.tree(t, name)
            full = k % 2 == 0
            block.append(Op(("poly", "--tree", path) + (("--full",) if full
                                                        else ()),
                            0, lambda rep, t=t: checks.check_poly(rep, t),
                            "poly"))
            z = fixed.choice(ZS)
            block.append(Op(("solve", "--tree", path, f"--z={z}"), 0,
                            lambda rep, t=t, z=z: checks.check_solve_nonreal(
                                rep, t, checks.gaussian(z)), "solve"))
            block.append(Op(("wronskian", "--tree", path,
                             f"--z={fixed.choice(ZS)}"), 0,
                            lambda rep, t=t: checks.check_wronskian(rep, t),
                            "wronskian"))
            r = fixed.choice(REALS)
            block.append(Op(("solve", "--tree", path, f"--z={r}"),
                            lambda t=t, r=r: checks.expected_real_exit(
                                t, Fraction(r)),
                            lambda rep, t=t, r=r: checks.check_solve_real(
                                rep, t, Fraction(r)), "solve-real"))
            if t.size <= 9:
                block.append(verify_op(w, t, name, fixed.randint(0, 99)))
                block.append(spectrum_op(w, t, name))
        for rule in ("geometric", "geometric-weights"):
            q = fixed.choice(("2/1", "3/1", "3/2"))
            a = fixed.choice(("1/1", "2/1", "1/2"))
            depth = fixed.randint(10, 24)
            block.append(Op(
                ("classical", "--rule", rule, "--q", q, "--a", a,
                 "--depth", str(depth), "--report", "pq0"), 0,
                lambda rep, rule=rule, q=q, a=a, depth=depth:
                    checks.check_classical(rep, rule, Fraction(q),
                                           Fraction(a), depth),
                "classical"))
        for example, lo, hi in (("small-norm", 4, 10), ("bounded-path", 2, 3),
                                ("pendant-path", 4, 10),
                                ("real-obstruction", 2, 5)):
            out = w.workdir / f"b{b:02d}-{example}.json"
            block.append(Op(
                ("construct", "--example", example, "--depth",
                 str(fixed.randint(lo, hi)), "--out", str(out)), 0,
                lambda rep, example=example, out=out: checks.check_construct(
                    rep, example, gen.parse_tree(out.read_text())),
                "construct"))
            if example == "real-obstruction":
                # the known "no": no field at 0 is normalized at the origin
                block.append(Op(
                    ("solve", "--tree", str(out), "--z=0/1"), 1,
                    lambda rep, out=out: checks.check_solve_real(
                        rep, gen.parse_tree(out.read_text()), Fraction(0)),
                    "solve-obstructed"))
        blocks.append(block)
    return Pool(_shuffled_blocks(rng, blocks), _mix_warmup(w.workdir),
                list(w.trees.values()))


def _mix_warmup(workdir: Path) -> list[Op]:
    """The same small ops for every seed, so set-up time does not depend
    on it: each subcommand once."""
    w = Writer(workdir)
    path = w.tree(gen.leveled_of_size(random.Random(0), 2, 5), "warmup")
    argvs = [("poly", "--tree", path), ("solve", "--tree", path),
             ("wronskian", "--tree", path), ("spectrum", "--tree", path),
             ("verify-all", "--tree", path),
             ("classical", "--rule", "geometric", "--depth", "4")]
    argvs += [("construct", "--example", example, "--depth", "2", "--out",
               str(workdir / f"warmup-{example}.json"))
              for example in ("small-norm", "bounded-path", "pendant-path",
                              "real-obstruction")]
    return [Op(argv, 0, lambda rep: [], "warmup") for argv in argvs]


BUILDERS = {"verify": build_verify, "spectrum": build_spectrum,
            "growth": build_growth, "mix": build_mix}
