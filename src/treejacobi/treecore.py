"""Finite truncations of one-ended trees carrying Jacobi coefficients.

A truncation is a finite rooted tree whose root (the ``top`` vertex) is
the vertex closest to the missing end.  Levels decrease downward: the
parent of a level-k vertex sits on level k+1, and every leaf sits on
level 0 unless it is flagged ``cut`` (meaning its children were truncated
away and its full neighborhood is not represented here).

Every vertex v stores the positive weight ``lambda(v)`` of the edge from
v toward its parent -- the top vertex keeps the weight of its edge toward
the absent vertex above it -- and a real diagonal value ``beta(v)``.

The JSON interchange document looks like::

    {"vertices": [{"id": "a", "parent": "x", "level": 0,
                   "lambda": "1/1", "beta": "0/1"}, ...],
     "top": "x", "top_lambda": "1/1"}

Rationals travel as ``"p/q"`` strings; serialization round-trips exactly.

Computations that depend only on the shape and weights of subtrees run
on a `ClassTable`, one entry per class of identical subtrees: a
truncation hash-conses its own once and keeps it
(`TreeTruncation.classes`), and `homogeneous_classes` builds one for a
homogeneous tree without the tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .errors import ParseError, UnknownVertexError, ValidationError
from .exactmath import format_rational, parse_rational


class TreeTruncation:
    """Immutable finite truncation; vertices are dense integer indices."""

    __slots__ = ("ids", "top", "parent", "children", "level", "lam", "beta",
                 "cut", "_index", "_classes")

    def __init__(self, ids: Sequence[str], top: int,
                 parent: Sequence[int | None], level: Sequence[int],
                 lam: Sequence[Fraction], beta: Sequence[Fraction],
                 cut: Sequence[int] = ()):
        self.ids = tuple(ids)
        self.top = top
        self.parent = tuple(parent)
        self.level = tuple(int(l) for l in level)
        self.lam = _fractions(lam)
        self.beta = _fractions(beta)
        self.cut = frozenset(cut)
        kids: list[list[int]] = [[] for _ in self.ids]
        for v, p in enumerate(self.parent):
            if p is not None:
                kids[p].append(v)
        self.children = tuple(tuple(k) for k in kids)
        self._index = {name: i for i, name in enumerate(self.ids)}
        self._classes: tuple[ClassTable, list[int]] | None = None
        self._validate()

    # -- basic structure ----------------------------------------------

    @property
    def size(self) -> int:
        return len(self.ids)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {name!r}") from None

    def interior(self) -> Iterator[int]:
        """Vertices whose full neighborhood is present (not top, not cut)."""
        for v in range(self.size):
            if v != self.top and v not in self.cut:
                yield v

    def neighbours(self, v: int) -> list[tuple[Fraction, int]]:
        """The off-diagonal entries of row v of J as (lambda, w) pairs:
        the parent with lambda_v first (none at the top), then each child
        c with lambda_c.  Every residual of the package reads this row."""
        lam, p = self.lam, self.parent[v]
        row = [] if p is None else [(lam[v], p)]
        return row + [(lam[c], c) for c in self.children[v]]

    def descendants(self, x: int) -> list[int]:
        """The subtree below (and including) x, parents first (depth
        first): the one tree walk; reversed, it is children first."""
        out, stack = [], [x]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(reversed(self.children[v]))
        return out

    @property
    def classes(self) -> tuple["ClassTable", list[int]]:
        """The classes of identical subtrees, hash-consed once and kept:
        a `ClassTable` and the class id of every vertex.

        Two vertices share a class exactly when they carry the same
        (beta, lambda) and their children, in order, share classes.  Ids
        count up in a children-first walk from the top, so every child
        class has a smaller id than its parent's and the top's class is
        the last one."""
        if self._classes is None:
            table = ClassTable()
            beta, lam, children = self.beta, self.lam, self.children
            cls = [0] * self.size
            for v in reversed(self.descendants(self.top)):
                cls[v] = table.add(beta[v], lam[v],
                                   tuple([cls[c] for c in children[v]]))
            self._classes = table, cls
        return self._classes

    def carry(self, f: dict, roots: Sequence[int], mult: Sequence):
        """Extend f down the subtrees at `roots`, parents first, by
        f(w) = mult[class of w] * f(parent w); f must hold the parent of
        every root.  With `ClassTable.ratios` of `classes` as `mult` this
        is the solution below each root; the sign-flipped truncation
        passes `[-r for r in ratio]`."""
        parent, cls = self.parent, self.classes[1]
        for s in roots:
            for w in self.descendants(s):
                f[w] = mult[cls[w]] * f[parent[w]]

    def subtree(self, x: int) -> "TreeTruncation":
        """The truncation below x, with x as its top; coefficients inherited."""
        if not 0 <= x < self.size:
            raise UnknownVertexError(f"unknown vertex index {x}")
        order = self.descendants(x)
        remap = {v: i for i, v in enumerate(order)}
        return TreeTruncation(
            ids=[self.ids[v] for v in order],
            top=0,
            parent=[None if v == x else remap[self.parent[v]] for v in order],
            level=[self.level[v] for v in order],
            lam=[self.lam[v] for v in order],
            beta=[self.beta[v] for v in order],
            cut=[remap[v] for v in order if v in self.cut],
        )

    # -- validation ---------------------------------------------------

    def _validate(self):
        n = self.size
        if n == 0:
            raise ValidationError("a truncation needs at least one vertex")
        if len(set(self.ids)) != n:
            raise ValidationError("vertex ids are not unique")
        if not 0 <= self.top < n:
            raise ValidationError("top index out of range")
        if self.parent[self.top] is not None:
            raise ValidationError(f"top vertex {self.ids[self.top]!r} has a parent")
        for v in range(n):
            name = self.ids[v]
            p = self.parent[v]
            if v != self.top:
                if p is None:
                    raise ValidationError(f"vertex {name!r} has no parent and is not top")
                if not 0 <= p < n:
                    raise ValidationError(f"vertex {name!r} has an unknown parent")
                if self.level[p] != self.level[v] + 1:
                    raise ValidationError(
                        f"vertex {name!r}: parent level must be its level + 1")
            if self.level[v] < 0:
                raise ValidationError(f"vertex {name!r} has negative level")
            if self.lam[v].numerator <= 0:  # a Fraction's denominator is > 0
                raise ValidationError(f"vertex {name!r} has nonpositive lambda")
            if not self.children[v] and self.level[v] > 0 and v not in self.cut:
                raise ValidationError(
                    f"vertex {name!r} is a childless level-{self.level[v]} vertex "
                    f"without a cut flag")
        # no cycle check is needed: levels rise strictly along parent links,
        # so every walk upward ends at the one parentless vertex, the top

    # -- serialization ------------------------------------------------

    def to_spec(self) -> dict:
        rows = []
        for v in range(self.size):
            row = {"id": self.ids[v], "level": self.level[v],
                   "beta": format_rational(self.beta[v])}
            if v != self.top:
                row["parent"] = self.ids[self.parent[v]]
                row["lambda"] = format_rational(self.lam[v])
            if v in self.cut:
                row["cut"] = True
            rows.append(row)
        return {"vertices": rows, "top": self.ids[self.top],
                "top_lambda": format_rational(self.lam[self.top])}

    def to_json(self) -> str:
        return json.dumps(self.to_spec(), indent=2, sort_keys=True) + "\n"

    def __repr__(self):
        return (f"TreeTruncation(top={self.ids[self.top]!r}, "
                f"size={self.size})")


class ClassTable:
    """Classes of identical subtrees, children first: class c carries
    `beta[c]`, `lam[c]` and `kids[c]`, the tuple of its children's
    classes in order, each smaller than c."""

    __slots__ = ("beta", "lam", "kids", "_index")

    def __init__(self):
        self.beta: list[Fraction] = []
        self.lam: list[Fraction] = []
        self.kids: list[tuple[int, ...]] = []
        self._index: dict[tuple, int] = {}

    def add(self, beta: Fraction, lam: Fraction, kids: tuple[int, ...]) -> int:
        """The class of a vertex carrying beta and lam above children of
        the classes `kids`: an existing one if equal, else a new one."""
        n = len(self.kids)
        # one hash of the key: Fraction hashes are dear
        c = self._index.setdefault((beta, lam, kids), n)
        if c == n:
            self.beta.append(beta)
            self.lam.append(lam)
            self.kids.append(kids)
        return c

    def below(self, c: int) -> list[int]:
        """The classes of the subtree of class c, children first (c is
        the last)."""
        inside = {c}
        for d in range(c, -1, -1):
            if d in inside:
                inside.update(self.kids[d])
        return sorted(inside)

    def ratios(self, z) -> list:
        """The tree elimination at z: per class c, the ratio

            r(c) = lambda_c / (z - beta_c - sum_{e child of c} lambda_e r(e)).

        The denominator is the Schur pivot of z - J on the subtree; r(c)
        is f(c)/f(parent c) for a solution f of the eigen-equation below
        c.  A zero pivot gives r(c) = None, and a child with r = None
        makes the parent's pivot infinite, so its r is 0.  z may be a
        Fraction or a GaussianRational."""
        lam = self.lam
        ratio: list = []
        for b, l, kids in zip(self.beta, lam, self.kids):
            den = z - b
            for e in kids:
                r = ratio[e]
                if r is None:
                    den = None
                    break
                den = den - lam[e] * r
            ratio.append(0 if den is None else l / den if den else None)
        return ratio


def _fractions(values) -> tuple[Fraction, ...]:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in values)


def build_from_spec(doc) -> TreeTruncation:
    """Build and validate a truncation from a JSON string or parsed dict."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("tree document must be a JSON object")
    try:
        rows = doc["vertices"]
        top_id = doc["top"]
        top_lambda = parse_rational(doc["top_lambda"])
    except KeyError as exc:
        raise ParseError(f"tree document missing field {exc.args[0]!r}") from None
    if not isinstance(rows, list) or not rows:
        raise ParseError("'vertices' must be a non-empty list")
    ids, parent_ids, level, lam, beta, cut = [], [], [], [], [], []
    for row in rows:
        if not isinstance(row, dict) or "id" not in row:
            raise ParseError(f"bad vertex row: {row!r}")
        parent_ids.append(row.get("parent"))
        try:
            if type(row["id"]) is not str:
                raise ValueError(f"id must be a string, not {row['id']!r}")
            if type(row["level"]) is not int:
                raise ValueError(f"level must be an integer, not "
                                 f"{row['level']!r}")
            if type(row.get("cut", False)) is not bool:
                raise ValueError(f"cut must be a boolean, not {row['cut']!r}")
            ids.append(row["id"])
            level.append(row["level"])
            beta.append(parse_rational(row["beta"]))
            lam.append(parse_rational(row["lambda"]) if "parent" in row
                       else top_lambda)
        except (KeyError, ValueError) as exc:
            raise ParseError(f"bad vertex row {row.get('id')!r}: {exc}") from None
        cut.append(row.get("cut", False))
    index = {name: i for i, name in enumerate(ids)}
    # ids are strings; a reference of any other JSON type (a list or an
    # object is not even hashable) names no vertex
    if not isinstance(top_id, str) or top_id not in index:
        raise ValidationError(f"top vertex {top_id!r} not among the vertices")
    for name, p in zip(ids, parent_ids):
        if p is not None and (not isinstance(p, str) or p not in index):
            raise ValidationError(f"vertex {name!r} has unknown parent {p!r}")
    # a vertex with no parent that is not the top is left to `_validate`
    parent = [None if p is None else index[p] for p in parent_ids]
    return TreeTruncation(ids, index[top_id], parent, level, lam, beta,
                          [i for i, c in enumerate(cut) if c])


# ---------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------

Rule = Callable[..., Fraction]


def _as_rule(value) -> Rule:
    if callable(value):
        return value
    const = Fraction(value)
    return lambda *args: const


def path_tree(depth: int, lam=Fraction(1), beta=Fraction(0)) -> TreeTruncation:
    """The degenerate tree: a single path x_0 ... x_depth, top at x_depth.

    `lam`/`beta` are constants or callables of the level n.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    lam_r, beta_r = _as_rule(lam), _as_rule(beta)
    n = depth + 1
    ids = [f"x{k}" for k in range(n)]
    parent = [k + 1 if k < depth else None for k in range(n)]
    return TreeTruncation(
        ids=ids, top=depth, parent=parent, level=list(range(n)),
        lam=[lam_r(k) for k in range(n)], beta=[beta_r(k) for k in range(n)])


def homogeneous_tree(d: int, depth: int, lam=Fraction(1),
                     beta=Fraction(0)) -> TreeTruncation:
    """Truncation of the homogeneous tree: every vertex above level 0 has
    d children.  `lam`/`beta` may be callables of (level, address) where
    the address is the tuple of child positions walked down from the top.
    """
    if d < 1:
        raise ValueError("branching d must be >= 1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    lam_r, beta_r = _as_rule(lam), _as_rule(beta)
    ids, parent, level, lams, betas = [], [], [], [], []
    # depth first with the children pushed last first, so ids and the
    # rule calls run in the order of the children
    stack: list[tuple[tuple[int, ...], str, int | None]] = [((), "r", None)]
    last_first = range(d - 1, -1, -1)
    while stack:
        address, name, parent_idx = stack.pop()
        lv = depth - len(address)
        if lv > 0:
            idx = len(ids)
            for i in last_first:
                stack.append((address + (i,), f"{name}.{i}", idx))
        ids.append(name)
        parent.append(parent_idx)
        level.append(lv)
        lam_v = lam_r(lv, address)
        if type(lam_v) is not Fraction:
            lam_v = Fraction(lam_v)
        if lam_v.numerator <= 0:
            raise ValueError(f"rule produced nonpositive lambda at {name!r}")
        lams.append(lam_v)
        betas.append(beta_r(lv, address))
    return TreeTruncation(ids, 0, parent, level, lams, betas)


def homogeneous_classes(d: int, depth: int, spine_lam=Fraction(1)
                        ) -> tuple[ClassTable, list[int]]:
    """The classes of `homogeneous_tree(d, depth)` with beta = 0 and
    lambda = `spine_lam` (a constant or a callable of the level) on the
    leftmost path x_depth, ..., x_0 (the spine) and 1 everywhere else,
    built without the tree.  Returns the table and the spine classes
    x_0, ..., x_depth; the first child of x_k is x_{k-1}, the others
    are the off-spine class of level k - 1.  At most 2 (depth + 1)
    classes, none off the spine when d = 1, and x_depth's is the last."""
    if d < 1:
        raise ValueError("branching d must be >= 1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    rule = _as_rule(spine_lam)
    zero, one = Fraction(0), Fraction(1)
    table = ClassTable()
    spine: list[int] = []
    off: int | None = None  # the off-spine class one level down
    for k in range(depth + 1):
        lam = rule(k)
        if type(lam) is not Fraction:
            lam = Fraction(lam)
        if lam.numerator <= 0:
            raise ValueError(f"rule produced nonpositive lambda at "
                             f"{'r' + '.0' * (depth - k)!r}")
        kids = () if k == 0 else (spine[-1],) + (off,) * (d - 1)
        spine.append(table.add(zero, lam, kids))
        if d > 1 and k < depth:
            off = table.add(zero, one, () if k == 0 else (off,) * d)
    return table, spine


def decorated_path_tree(depth: int, side_lam=Fraction(1),
                        side_beta=Fraction(0)) -> TreeTruncation:
    """A path x_0 ... x_depth with one pendant leaf y_{n-1} under each x_n.

    The path has weight 1 and diagonal 0; pendant rules are callables of
    n where the pendant y_{n-1} hangs under x_n.  Pendants above level 0
    are childless by design (the operator under study keeps only their
    coupling to the path), so they carry the cut flag.
    """
    if depth < 1:
        raise ValueError("a decorated path needs depth >= 1")
    sl, sb = _as_rule(side_lam), _as_rule(side_beta)
    ids = [f"x{k}" for k in range(depth + 1)]
    parent = [k + 1 if k < depth else None for k in range(depth + 1)]
    level = list(range(depth + 1))
    lams = [Fraction(1)] * (depth + 1)
    betas = [Fraction(0)] * (depth + 1)
    cut = []
    for n in range(1, depth + 1):
        if n > 1:
            cut.append(len(ids))
        ids.append(f"y{n - 1}")
        parent.append(n)
        level.append(n - 1)
        lams.append(Fraction(sl(n)))
        betas.append(Fraction(sb(n)))
    return TreeTruncation(ids, depth, parent, level, lams, betas, cut)


def generate(kind: str, **kwargs) -> TreeTruncation:
    """Dispatch on a generator name: homogeneous, path, decorated_path."""
    table = {"homogeneous": homogeneous_tree, "path": path_tree,
             "decorated_path": decorated_path_tree}
    if kind not in table:
        raise ValueError(f"unknown generator {kind!r}")
    return table[kind](**kwargs)


# ---------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class PathSelection:
    """An ascending path x_0, x_1, ..., x_n with level(x_k) = k."""

    tree: TreeTruncation
    vertices: tuple[int, ...]

    def __post_init__(self):
        t = self.tree
        vs = self.vertices
        if not vs:
            raise ValidationError("empty path")
        for k, v in enumerate(vs):
            if t.level[v] != k:
                raise ValidationError(
                    f"path vertex {t.ids[v]!r} at position {k} has level {t.level[v]}")
            if k + 1 < len(vs) and t.parent[v] != vs[k + 1]:
                raise ValidationError(
                    f"path vertices {t.ids[v]!r} and {t.ids[vs[k + 1]]!r} "
                    f"are not adjacent")

    def __len__(self):
        return len(self.vertices)

    def __getitem__(self, k):
        return self.vertices[k]

    @cached_property
    def sides(self) -> tuple[tuple[int, ...], ...]:
        """Per x_k, the roots of the subtrees hanging off the path there:
        the children of x_k other than x_{k-1} (x_0, on level 0, has
        none)."""
        children = self.tree.children
        below = (None,) + self.vertices
        return tuple(tuple(c for c in children[x] if c != b)
                     for b, x in zip(below, self.vertices))

    def reaches_top(self) -> bool:
        return self.vertices[-1] == self.tree.top

    @property
    def ids(self) -> list[str]:
        return [self.tree.ids[v] for v in self.vertices]


def default_path(tree: TreeTruncation) -> PathSelection:
    """The path up to the top from the first level-0 vertex of a
    depth-first walk from the top that visits children in order."""
    stack = [tree.top]
    while stack:
        v = stack.pop()
        if tree.level[v] == 0:
            chain = [v]
            while tree.parent[chain[-1]] is not None:
                chain.append(tree.parent[chain[-1]])
            return PathSelection(tree, tuple(chain))
        stack.extend(reversed(tree.children[v]))
    raise ValidationError(
        f"no level-0 vertex below {tree.ids[tree.top]!r}; cannot select a path")


def path_from_ids(tree: TreeTruncation, names: Sequence[str]) -> PathSelection:
    return PathSelection(tree, tuple(tree.index_of(n) for n in names))
