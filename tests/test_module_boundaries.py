"""Module boundaries under src/:

* each module keeps its private names to itself: a name with a leading
  underscore is never imported from another module, not even inside a
  function;
* the modules form layers, and each imports only layers below its own,
  so `classical1d` is a leaf next to `exactmath`;
* the representation of a polynomial stays inside `exactmath`: no other
  module reads the `Poly` slots, only `coeffs`, `leading()` and
  `degree`; likewise no other module reads the `GaussianRational`
  slots, only `re` and `im`;
* no source file has a float or complex literal or names `float`: no
  decision is made in floating point;
* values become text in one place: no class defines `as_strings`, and
  `format_rational` is called only by `exactmath` (the text formats),
  `treecore` (the tree document) and `reports` (the one renderer);
* the row of J is written once, by `TreeTruncation.neighbours`: outside
  `treecore` no function subscripts both a `.parent` and a `.children`
  attribute."""

import ast
from pathlib import Path

import treejacobi
from treejacobi.exactmath import GaussianRational, Poly

SRC = Path(treejacobi.__file__).resolve().parent
LAYERS = ("errors", "exactmath", "classical1d", "treecore", "treepoly",
          "spectra", "solutions", "constructions", "reports", "cli")


def private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno} imports "
                                 f"{alias.name} from {node.module}")
    return found


def package_imports(path: Path) -> set[str]:
    """The treejacobi modules a source file imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".") for alias in node.names]
            found.update(n[1] for n in names
                         if n[0] == "treejacobi" and len(n) > 1)
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "treejacobi":
                    continue
                parts = parts[1:] or [""]
            if parts[0]:
                found.add(parts[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
    return found


def slot_reads(path: Path, slots) -> list[str]:
    """Every attribute access `<expr>.<slot>` in a source file."""
    return [f"{path.name}:{node.lineno} reads .{node.attr}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr in slots]


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    assert [line for m in modules for line in private_imports(m)] == []


def test_modules_import_only_lower_layers():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYERS)
    upward = []
    for rank, name in enumerate(LAYERS):
        for dep in sorted(package_imports(SRC / f"{name}.py")):
            if dep not in LAYERS[:rank]:
                upward.append(f"{name} imports {dep}")
    assert upward == []


def test_only_exactmath_reads_the_poly_slots():
    assert set(Poly.__slots__) == {"content", "prim"}
    others = sorted(set(SRC.glob("*.py")) - {SRC / "exactmath.py"})
    assert [line for m in others for line in slot_reads(m, Poly.__slots__)] == []
    assert slot_reads(SRC / "exactmath.py", Poly.__slots__) != []


def test_only_exactmath_reads_the_gaussian_slots():
    assert set(GaussianRational.__slots__) == {"re_num", "im_num", "den"}
    slots = GaussianRational.__slots__
    others = sorted(set(SRC.glob("*.py")) - {SRC / "exactmath.py"})
    assert [line for m in others for line in slot_reads(m, slots)] == []
    assert slot_reads(SRC / "exactmath.py", slots) != []


def float_uses(path: Path) -> list[str]:
    """Every float or complex literal and every use of the name `float`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"{path.name}:{node.lineno} literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{path.name}:{node.lineno} names float")
    return found


def test_no_floats_in_the_package():
    assert float_uses(Path(__file__)) != []  # the check sees this file's tuple
    assert [line for m in sorted(SRC.glob("*.py")) for line in float_uses(m)] == []


def format_calls(path: Path) -> list[str]:
    """Every call of `format_rational`, by name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "format_rational":
                found.append(f"{path.name}:{node.lineno}")
    return found


def as_strings_methods(path: Path) -> list[str]:
    """Every `as_strings` defined in a class body."""
    return [f"{path.name}:{item.lineno} {node.name}.as_strings"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == "as_strings"]


def test_values_become_text_only_in_the_renderer():
    modules = sorted(SRC.glob("*.py"))
    assert [line for m in modules for line in as_strings_methods(m)] == []
    callers = {m.stem for m in modules if format_calls(m)}
    assert callers == {"exactmath", "treecore", "reports"}


def row_writers(path: Path) -> list[str]:
    """Every function (nested ones included) that subscripts both a
    `.parent` and a `.children` attribute: one that walks a vertex's
    neighbours itself."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            attrs = {sub.value.attr for sub in ast.walk(node)
                     if isinstance(sub, ast.Subscript)
                     and isinstance(sub.value, ast.Attribute)}
            if {"parent", "children"} <= attrs:
                found.append(f"{path.name}:{node.lineno} {node.name}")
    return found


def test_the_row_of_j_is_written_only_in_treecore():
    assert row_writers(SRC / "treecore.py") != []  # the check sees neighbours
    others = sorted(set(SRC.glob("*.py")) - {SRC / "treecore.py"})
    assert [line for m in others for line in row_writers(m)] == []
