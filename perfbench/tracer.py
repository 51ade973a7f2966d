"""Span tracing of the package from outside, by wrapping public functions.

`Tracer.install()` wraps every public function defined in the layer
modules and patches each `treejacobi.*` namespace that holds one (the
package imports names with `from .x import y`, so a single patch would
miss most call sites).  `TreeTruncation.__init__` is wrapped too, as the
span `treecore.TreeTruncation`, so tree validation is charged to
`treecore`.  `uninstall()` restores every patched name.

Each call records a span in memory: name, start, end, parent span, op id
and whether it raised.  `Poly`, `Fraction` and `GaussianRational` dunders
and private helpers are not wrapped, so their cost is the calling span's
self time.  A direct self-recursive call (such as `reports.to_jsonable`)
is folded into its caller's span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("exactmath", "treecore", "treepoly", "spectra", "solutions",
          "classical1d", "constructions", "reports", "cli")

NOTE = ("Poly, Fraction and GaussianRational dunders and private helpers "
        "are not wrapped: their cost is the calling span's self time")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name: array = array("i")
        self.parent: array = array("i")
        self.op: array = array("i")
        self.start: array = array("q")
        self.end: array = array("q")
        self.raised: array = array("b")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------

    def install(self):
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"treejacobi.{layer}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn,
                                                  _POST.get(f"{layer}.{attr}"))
        for mod in [m for n, m in sys.modules.items()
                    if n == "treejacobi" or n.startswith("treejacobi.")]:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        tree_cls = importlib.import_module("treejacobi.treecore").TreeTruncation
        self._patch(tree_cls, "__init__",
                    self._wrap("treecore.TreeTruncation", tree_cls.__init__,
                               _count_vertices))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, span_name: str, fn, post=None):
        nid = len(self.names)
        self.names.append(span_name)
        stack, name, parent, op = self.stack, self.name, self.parent, self.op
        start, end, raised = self.start, self.end, self.raised

        def wrapper(*args, **kwargs):
            if stack and name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            i = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            raised.append(0)
            end.append(0)
            stack.append(i)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                raised[i] = 1
                raise
            finally:
                end[i] = perf_counter_ns()
                stack.pop()
            if post is not None:
                post(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- derived numbers -----------------------------------------------

    def __len__(self):
        return len(self.name)

    def self_times(self) -> list[int]:
        """Per span: duration minus the durations of its child spans (ns)."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def metrics(self) -> dict[str, float]:
        """Calls and self seconds per span name and per layer, layer error
        counts, and the counters the post-call hooks gathered."""
        own = self.self_times()
        layer_of = [n.split(".", 1)[0] for n in self.names]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        layer_ns: dict[str, int] = defaultdict(int)
        errors: dict[str, int] = defaultdict(int)
        lcm_in_family = 0
        lcm_id = self.names.index("exactmath.poly_lcm_many")
        family_id = self.names.index("treepoly.family")
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_ns[nid] += own[i]
            layer_ns[layer_of[nid]] += own[i]
            p = self.parent[i]
            if self.raised[i] and (p < 0 or layer_of[self.name[p]]
                                   != layer_of[nid]):
                errors[layer_of[nid]] += 1
            if nid == lcm_id and p >= 0 and self.name[p] == family_id:
                lcm_in_family += 1
        out: dict[str, float] = {}
        for nid, n in enumerate(self.names):
            out[f"{n}.calls"] = calls[nid]
            out[f"{n}.self_s"] = self_ns[nid] / 1e9
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_ns[layer] / 1e9
            out[f"{layer}.errors"] = errors[layer]
        generators = ("treecore.generate", "treecore.homogeneous_tree",
                      "treecore.path_tree", "treecore.decorated_path_tree")
        out["treecore.generate.self_s"] = sum(
            out[f"{g}.self_s"] for g in generators)
        out["treecore.generate.calls"] = sum(
            out[f"{g}.calls"] for g in generators)
        c = self.counts
        out["treecore.vertices_built"] = c["vertices_built"]
        out["treepoly.family.vertices"] = c["family_vertices"]
        out["treepoly.lcm_per_vertex"] = (
            lcm_in_family / c["family_internal"] if c["family_internal"] else 0)
        out["treepoly.max_coeff_bits"] = c["max_coeff_bits"]
        out["reports.bytes_out"] = c["bytes_out"]
        out["trace.spans"] = len(self)
        return out

    def write(self, path):
        """Spans as JSON lines: a header, then one
        [name, start_ns, end_ns, parent, op, raised] row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "note": NOTE,
                                 "row": ["name", "start_ns", "end_ns",
                                         "parent", "op", "raised"]}) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent,
                           self.op, self.raised):
                fh.write("[%d,%d,%d,%d,%d,%d]\n" % row)


# ---------------------------------------------------------------------
# post-call hooks: counters measured where the work happens
# ---------------------------------------------------------------------


def _count_vertices(counts, args, result):
    counts["vertices_built"] += len(args[0].ids)


def _family_stats(counts, args, fam):
    kids = fam.tree.children
    counts["family_vertices"] += len(fam.self_poly)
    counts["family_internal"] += sum(1 for v in fam.self_poly if kids[v])
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in fam.up_poly[fam.anchor].coeffs), default=0)
    counts["max_coeff_bits"] = max(counts["max_coeff_bits"], bits)


def _bytes_out(counts, args, text):
    counts["bytes_out"] += len(text.encode())


_POST = {"treepoly.family": _family_stats, "reports.render": _bytes_out}
