"""Shared corpus machinery: exhaustive small tree shapes and seeded
random truncations with exact rational coefficients."""

from __future__ import annotations

import random
from fractions import Fraction

from treejacobi.treecore import TreeTruncation, homogeneous_tree, path_tree

# a shape is a tuple of child shapes, sorted; () is a leaf


def shape_size(shape) -> int:
    return 1 + sum(shape_size(c) for c in shape)


def shape_height(shape) -> int:
    return 0 if not shape else 1 + max(shape_height(c) for c in shape)


def _multisets(candidates, budget, start=0):
    yield ()
    for i in range(start, len(candidates)):
        size = shape_size(candidates[i])
        if size <= budget:
            for rest in _multisets(candidates, budget - size, i):
                yield (candidates[i],) + rest


def leveled_shapes(max_vertices: int) -> list[tuple]:
    """All shapes with every leaf at the bottom level, <= max_vertices."""
    out = [()]
    level = [()]
    while True:
        nxt = []
        for kids in _multisets(level, max_vertices - 1):
            if kids and 1 + sum(shape_size(k) for k in kids) <= max_vertices:
                nxt.append(tuple(sorted(kids)))
        nxt = sorted(set(nxt))
        if not nxt:
            return out
        out.extend(nxt)
        level = nxt


def all_shapes(max_vertices: int) -> list[tuple]:
    """All rooted tree shapes up to max_vertices (leaves at any depth;
    realized with cut flags where needed)."""
    by_size: dict[int, list[tuple]] = {1: [()]}
    for n in range(2, max_vertices + 1):
        shapes = set()
        pool = [s for m in range(1, n) for s in by_size[m]]
        for kids in _multisets(pool, n - 1):
            if kids and 1 + sum(shape_size(k) for k in kids) == n:
                shapes.add(tuple(sorted(kids)))
        by_size[n] = sorted(shapes)
    return [s for n in range(1, max_vertices + 1) for s in by_size[n]]


def tree_from_shape(shape, lam_fn, beta_fn) -> TreeTruncation:
    """Realize a shape with levels measured from the deepest leaf; leaves
    above level 0 get cut flags."""
    height = shape_height(shape)
    ids, parents, levels, lams, betas, cut = [], [], [], [], [], []

    def add(sub, parent_idx, depth):
        idx = len(ids)
        ids.append(f"v{idx}")
        parents.append(parent_idx)
        levels.append(height - depth)
        lams.append(Fraction(lam_fn(idx)))
        betas.append(Fraction(beta_fn(idx)))
        if not sub and height - depth > 0:
            cut.append(idx)
        for child in sub:
            add(child, idx, depth + 1)

    add(shape, None, 0)
    return TreeTruncation(ids, 0, parents, levels, lams, betas, cut)


def random_lambda(rng: random.Random) -> Fraction:
    den = rng.randint(1, 4)
    return Fraction(rng.randint(1, 3 * den), den)


def random_beta(rng: random.Random) -> Fraction:
    den = rng.randint(1, 4)
    return Fraction(rng.randint(-3 * den, 3 * den), den)


def _random_homogeneous(d: int, depth: int, seed: int) -> TreeTruncation:
    rng = random.Random(seed)
    return homogeneous_tree(d, depth, lam=lambda lv, addr: random_lambda(rng),
                            beta=lambda lv, addr: random_beta(rng))


def h23() -> TreeTruncation:
    """The binary tree of depth 3 (15 vertices) with seeded weights."""
    return _random_homogeneous(2, 3, 5)


def h24() -> TreeTruncation:
    """The binary tree of depth 4 (31 vertices) with seeded weights."""
    return _random_homogeneous(2, 4, 41)


def h25() -> TreeTruncation:
    """The binary tree of depth 5 (63 vertices) with seeded weights."""
    return _random_homogeneous(2, 5, 7)


def seeded_path(depth: int, seed: int = 3) -> TreeTruncation:
    """pN: the path x_0 .. x_depth with weights from `Random(seed)`,
    every lambda drawn before any beta."""
    rng = random.Random(seed)
    return path_tree(depth, lam=lambda k: random_lambda(rng),
                     beta=lambda k: random_beta(rng))


def random_leveled_tree(rng: random.Random, depth: int,
                        extra_chains: int = 3,
                        coincident: bool = False) -> TreeTruncation:
    """A path of the given depth plus a few hanging chains, every leaf on
    level 0.  With `coincident` the coefficients come from a small pool so
    sibling subtrees repeat."""
    if coincident:
        lam_fn = lambda: rng.choice([Fraction(1), Fraction(2), Fraction(1, 2)])
        beta_fn = lambda: rng.choice([Fraction(0), Fraction(1), Fraction(-1)])
    else:
        lam_fn = lambda: random_lambda(rng)
        beta_fn = lambda: random_beta(rng)
    ids = [f"x{k}" for k in range(depth + 1)]
    parents: list[int | None] = [k + 1 for k in range(depth)] + [None]
    levels = list(range(depth + 1))
    lams = [lam_fn() for _ in range(depth + 1)]
    betas = [beta_fn() for _ in range(depth + 1)]
    for c in range(extra_chains):
        host = rng.randrange(len(ids))
        if levels[host] == 0:
            continue
        lv = levels[host] - 1
        parent = host
        j = 0
        while lv >= 0:
            ids.append(f"c{c}.{j}")
            parents.append(parent)
            levels.append(lv)
            lams.append(lam_fn())
            betas.append(beta_fn())
            parent = len(ids) - 1
            lv -= 1
            j += 1
    return TreeTruncation(ids, depth, parents, levels, lams, betas)


def random_corpus(seed: int, count: int, max_vertices: int = 12,
                  coincident_every: int = 4) -> list[TreeTruncation]:
    """`count` random leveled trees of at most `max_vertices` vertices."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        depth = rng.randint(1, 5)
        extra = rng.randint(0, 3)
        tree = random_leveled_tree(rng, depth, extra,
                                   coincident=(len(out) % coincident_every == 0))
        if tree.size <= max_vertices:
            out.append(tree)
    return out


def exhaustive_corpus(max_vertices: int = 6) -> list[TreeTruncation]:
    """Every leveled shape up to the size bound under three coefficient
    regimes (unit, seeded random, coincident pool)."""
    rng = random.Random(20240 + max_vertices)
    trees = []
    for shape in leveled_shapes(max_vertices):
        trees.append(tree_from_shape(shape, lambda i: Fraction(1),
                                     lambda i: Fraction(0)))
        lam_draw = [random_lambda(rng) for _ in range(shape_size(shape))]
        beta_draw = [random_beta(rng) for _ in range(shape_size(shape))]
        trees.append(tree_from_shape(shape, lambda i: lam_draw[i],
                                     lambda i: beta_draw[i]))
        pool_l = [Fraction(1), Fraction(2)]
        pool_b = [Fraction(0), Fraction(1)]
        trees.append(tree_from_shape(
            shape, lambda i: pool_l[i % 2], lambda i: pool_b[i % 3 % 2]))
    return trees


def cut_shape_corpus(max_vertices: int = 6) -> list[TreeTruncation]:
    """Every rooted shape up to the bound with unit coefficients; shapes
    whose leaves sit above level 0 carry cut flags."""
    return [tree_from_shape(s, lambda i: Fraction(1), lambda i: Fraction(0))
            for s in all_shapes(max_vertices)]
