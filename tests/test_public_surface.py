"""The benchmark traces the package from outside by name: every per-layer
metric `<layer>.<fn>.calls` / `.self_s` in BENCHMARK.json, and every
function perfbench/tracer.py looks up by name, must stay a public
module-level function of `treejacobi.<layer>`, or `--trace 1` breaks or
reads 0.  Both files are only read here."""

import importlib
import inspect
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("exactmath", "treecore", "treepoly", "spectra", "solutions",
          "classical1d", "constructions", "reports", "cli")
NAME = re.compile(rf"^({'|'.join(LAYERS)})\.([a-z_][a-z0-9_]*)$")


def public_function(layer: str, fn: str) -> bool:
    """The test the tracer applies before it wraps a name."""
    mod = importlib.import_module(f"treejacobi.{layer}")
    obj = getattr(mod, fn, None)
    return (inspect.isfunction(obj) and obj.__module__ == mod.__name__
            and not fn.startswith("_"))


def benchmark_names() -> set[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = set()
    for metric in doc["per_layer"]:
        head, _, tail = metric["name"].rpartition(".")
        if tail in ("calls", "self_s") and NAME.match(head):
            out.add(head)
    return out


# the spans tracer.py looks up by name to derive its counters
TRACER_NAMES = ("exactmath.poly_lcm_many", "treepoly.family",
                "treecore.generate", "treecore.homogeneous_tree",
                "treecore.path_tree", "treecore.decorated_path_tree",
                "reports.render")


def test_benchmark_per_layer_names_are_public_functions():
    names = benchmark_names()
    assert {"exactmath.sturm_chain", "spectra.tree_inertia",
            "solutions.growth_profile", "treecore.generate"} <= names
    assert sorted(n for n in names
                  if not public_function(*n.split("."))) == []


def test_tracer_names_are_public_functions():
    source = (ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8")
    for name in TRACER_NAMES:
        assert f'"{name}"' in source, name
        assert public_function(*name.split(".")), name
