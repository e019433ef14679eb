"""Every name a module of the package imports or assigns is used, every text file it
opens is UTF-8, and the package exports exactly the names of the README's library example."""

import ast
import math
import re
from pathlib import Path

import pytest

import epigrowth
from epigrowth import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "epigrowth"
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


def _opens_without_utf8(tree: ast.AST) -> list[int]:
    """The line of each text-mode ``open(...)`` call that does not pass ``encoding="utf-8"``.

    A mode that is not a literal counts as text.
    """
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
        if isinstance(mode, ast.Constant) and "b" in mode.value:
            continue
        encoding = keywords.get("encoding")
        if not (isinstance(encoding, ast.Constant) and encoding.value == "utf-8"):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_text_open_is_utf8(path):
    assert _opens_without_utf8(ast.parse(path.read_text(), str(path))) == []


def test_the_scan_sees_a_bare_open():
    source = (
        "open(p)\n"
        'open(p, "rb")\n'
        'open(p, "w", encoding="utf-8")\n'
        'open(p, mode="wb")\n'
        'open(p, encoding="ascii")\n'
    )
    assert _opens_without_utf8(ast.parse(source)) == [1, 5]


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


def _dead_locals(tree: ast.AST) -> list[str]:
    """Each local a function assigns but never reads inside it, as ``function: name (line)``.

    Names starting with ``_`` are deliberately unused and skipped.
    """
    dead = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored: dict[str, int] = {}
        read, shared = set(), set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                else:
                    stored.setdefault(node.id, node.lineno)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
        dead += [
            f"{func.name}: {name} (line {line})"
            for name, line in stored.items()
            if name not in read | shared and not name.startswith("_")
        ]
    return sorted(dead)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_local_is_read(path):
    assert _dead_locals(ast.parse(path.read_text(), str(path))) == []


def test_the_scan_sees_a_dead_local():
    source = (
        "def f(xs):\n"
        "    total, _skip = 0, 1\n"
        "    lengths = len(xs)\n"
        "    for x in xs:\n"
        "        total += x\n"
        "    def g():\n"
        "        return total\n"
        "    return g\n"
    )
    assert _dead_locals(ast.parse(source)) == ["f: lengths (line 3)"]


def _library_example() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_all_is_what_the_readme_example_imports_from_the_package():
    tree = ast.parse(_library_example())
    imported = [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "epigrowth" and node.level == 0
        for alias in node.names
    ]
    assert sorted(imported) == epigrowth.__all__


def test_the_readme_example_runs_on_a_fixture_bundle(tmp_path, capsys):
    assert cli.main(["gen-fixtures", "--metros", "2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    exec(_library_example().replace('"run/', f'"{tmp_path}/'), {})
    assert math.isfinite(float(capsys.readouterr().out))
