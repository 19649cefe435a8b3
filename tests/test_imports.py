"""No module of ``src/repro`` imports a name it never uses.

Each module (package ``__init__`` files excepted: they import to
re-export) is parsed, and every name an ``import`` binds must be read
somewhere in the module's code, named inside a string constant (a string
annotation such as ``"SolverCache | None"``), or listed in ``__all__``.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return {ast.literal_eval(elt) for elt in node.value.elts}
    return set()


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    strings = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    exported = _exported(tree)
    where = path.relative_to(SRC.parent)
    return [
        f"{where}:{line}: {name}"
        for name, line in _imported_names(tree).items()
        if name not in read
        and name not in exported
        and not any(re.search(rf"\b{re.escape(name)}\b", s) for s in strings)
    ]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [finding for path in modules for finding in _unused_imports(path)]
    assert unused == []
