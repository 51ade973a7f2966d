"""Each module under src/ keeps its private names to itself: a name with a
leading underscore is never imported from another module, not even
inside a function."""

import ast
from pathlib import Path

import treejacobi

SRC = Path(treejacobi.__file__).resolve().parent


def private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno} imports "
                                 f"{alias.name} from {node.module}")
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    assert [line for m in modules for line in private_imports(m)] == []

