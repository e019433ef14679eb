"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "epigrowth"
# __init__ imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced(tree: ast.Module) -> set[str]:
    """Every name the module reads, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for hint in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
                used |= _referenced(ast.parse(hint.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _referenced(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used)
    assert unused == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import IO, Sequence\n\ndef f(x: 'IO') -> None:\n    os.sep\n")
    assert set(_imported(tree)) - _referenced(tree) == {"Sequence"}


def test_all_lists_exactly_what_init_imports():
    path = PACKAGE / "__init__.py"
    tree = ast.parse(path.read_text(), str(path))
    exported = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    )
    assert exported == sorted(set(exported))
    assert set(exported) == set(_imported(tree))
