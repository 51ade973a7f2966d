"""Seeded tree inputs for the benchmark, independent of the package.

Weights follow the draws of the test-suite helpers `random_lambda` and
`random_beta`, and the generators walk vertices in the same order as
`homogeneous_tree`, `path_tree` and `random_leveled_tree`, so the same
`random.Random` state yields the same trees.  The ROADMAP shapes h23 and
h24 are `h23()` and `h24()`.

Trees are written in the package's JSON interchange format.  The module
also computes the input descriptors the benchmark prints: vertex counts,
distinct subtree classes and the class-based family degree.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction


def random_lambda(rng: random.Random) -> Fraction:
    den = rng.randint(1, 4)
    return Fraction(rng.randint(1, 3 * den), den)


def random_beta(rng: random.Random) -> Fraction:
    den = rng.randint(1, 4)
    return Fraction(rng.randint(-3 * den, 3 * den), den)


def fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass
class Tree:
    """A truncation as plain lists; `parent[top]` is None."""

    ids: list[str]
    top: int
    parent: list[int | None]
    level: list[int]
    lam: list[Fraction]
    beta: list[Fraction]
    cut: set[int] = field(default_factory=set)

    @property
    def size(self) -> int:
        return len(self.ids)

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.ids]
        for v, p in enumerate(self.parent):
            if p is not None:
                kids[p].append(v)
        return kids

    def to_json(self) -> str:
        rows = []
        for v in range(self.size):
            row = {"id": self.ids[v], "level": self.level[v],
                   "beta": fmt(self.beta[v])}
            if v != self.top:
                row["parent"] = self.ids[self.parent[v]]
                row["lambda"] = fmt(self.lam[v])
            if v in self.cut:
                row["cut"] = True
            rows.append(row)
        doc = {"vertices": rows, "top": self.ids[self.top],
               "top_lambda": fmt(self.lam[self.top])}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_tree(text: str) -> Tree:
    """Read a tree document (as written by the package or by `to_json`)."""
    doc = json.loads(text)
    rows = doc["vertices"]
    ids = [str(r["id"]) for r in rows]
    index = {name: i for i, name in enumerate(ids)}
    top = index[doc["top"]]
    return Tree(
        ids=ids, top=top,
        parent=[index[r["parent"]] if "parent" in r else None for r in rows],
        level=[int(r["level"]) for r in rows],
        lam=[Fraction(r["lambda"]) if "parent" in r
             else Fraction(doc["top_lambda"]) for r in rows],
        beta=[Fraction(r["beta"]) for r in rows],
        cut={i for i, r in enumerate(rows) if r.get("cut")})


# ---------------------------------------------------------------------
# generators (same vertex order and draw order as the package's)
# ---------------------------------------------------------------------


def homogeneous(d: int, depth: int, lam, beta) -> Tree:
    """Every vertex above level 0 has d children; `lam`/`beta` are
    callables of (level, address), drawn in preorder, lambda first."""
    t = Tree([], 0, [], [], [], [])

    def add(address: tuple[int, ...], parent: int | None):
        idx = t.size
        lv = depth - len(address)
        t.ids.append("r" + "".join(f".{i}" for i in address))
        t.parent.append(parent)
        t.level.append(lv)
        t.lam.append(Fraction(lam(lv, address)))
        t.beta.append(Fraction(beta(lv, address)))
        if lv > 0:
            for i in range(d):
                add(address + (i,), idx)

    add((), None)
    return t


def path(depth: int, lam, beta) -> Tree:
    """x_0 .. x_depth with the top at x_depth; all lambdas are drawn
    before all betas."""
    n = depth + 1
    return Tree(ids=[f"x{k}" for k in range(n)], top=depth,
                parent=[k + 1 if k < depth else None for k in range(n)],
                level=list(range(n)),
                lam=[Fraction(lam(k)) for k in range(n)],
                beta=[Fraction(beta(k)) for k in range(n)])


def random_weights(rng: random.Random):
    """(lam, beta) rules that draw fresh random weights on every call."""
    return (lambda *_: random_lambda(rng)), (lambda *_: random_beta(rng))


def leveled(rng: random.Random, depth: int, extra_chains: int) -> Tree:
    """A path of the given depth plus hanging chains, every leaf on
    level 0 (the draws of the test helper `random_leveled_tree`)."""
    ids = [f"x{k}" for k in range(depth + 1)]
    parent: list[int | None] = [k + 1 for k in range(depth)] + [None]
    level = list(range(depth + 1))
    lam = [random_lambda(rng) for _ in range(depth + 1)]
    beta = [random_beta(rng) for _ in range(depth + 1)]
    for c in range(extra_chains):
        host = rng.randrange(len(ids))
        if level[host] == 0:
            continue
        lv, up, j = level[host] - 1, host, 0
        while lv >= 0:
            ids.append(f"c{c}.{j}")
            parent.append(up)
            level.append(lv)
            lam.append(random_lambda(rng))
            beta.append(random_beta(rng))
            up = len(ids) - 1
            lv -= 1
            j += 1
    return Tree(ids, depth, parent, level, lam, beta)


def reweighted(t: Tree, rng: random.Random) -> Tree:
    """The same shape with fresh `random_lambda`/`random_beta` weights,
    drawn vertex by vertex, lambda first."""
    lam, beta = [], []
    for _ in t.ids:
        lam.append(random_lambda(rng))
        beta.append(random_beta(rng))
    return Tree(list(t.ids), t.top, list(t.parent), list(t.level), lam, beta,
                set(t.cut))


def leveled_of_size(rng: random.Random, depth: int, size: int) -> Tree:
    """Draw leveled trees of the given depth until one has `size` vertices."""
    for _ in range(10000):
        t = leveled(rng, depth, rng.randint(1, 4))
        if t.size == size:
            return t
    raise ValueError(f"no leveled tree of depth {depth} with {size} vertices")


def h23() -> Tree:
    rng = random.Random(5)
    return homogeneous(2, 3, *random_weights(rng))


def h24() -> Tree:
    rng = random.Random(41)
    return homogeneous(2, 4, *random_weights(rng))


# ---------------------------------------------------------------------
# input descriptors
# ---------------------------------------------------------------------


def class_profile(t: Tree) -> tuple[int, int]:
    """(distinct subtree classes, family degree at the top).

    A class is (beta, lambda, multiset of child classes).  The degree
    assumes distinct classes share no root: deg up(v) = 1 + the sum of
    deg up over the distinct classes of v's children."""
    kids = t.children()
    order, stack = [], [t.top]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(kids[v])
    intern: dict[tuple, int] = {}
    cls: dict[int, int] = {}
    degree: dict[int, int] = {}
    for v in reversed(order):
        key = (t.beta[v], t.lam[v], tuple(sorted(cls[c] for c in kids[v])))
        if key not in intern:
            intern[key] = len(intern)
            degree[intern[key]] = 1 + sum(
                degree[k] for k in {cls[c] for c in kids[v]})
        cls[v] = intern[key]
    return len(intern), degree[cls[t.top]]
