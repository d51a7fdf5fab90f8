"""No module of the package imports a name it never uses.

A deletion that leaves its imports behind (``field`` once no dataclass field
needs it, ``adjunction_genus`` once no rule reads it) fails here.  The check
reads each module's syntax tree with the standard library's ``ast``; a name
counts as used when the module reads it anywhere, string annotations
included.  ``__init__`` is left out, since it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "decgraph"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
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


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                yield arg.annotation
            yield args.vararg and args.vararg.annotation
            yield args.kwarg and args.kwarg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, in code or in a string annotation."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation) if annotation else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_a_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = sorted(
        f"line {line}: {name}" for name, line in imported_names(tree).items() if name not in used
    )
    assert unused == []


def test_the_check_finds_an_unused_import():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "from .lattice import HomologyClass, pair\n"
        "def f(c: 'HomologyClass') -> None:\n"
        "    return dataclass\n"
    )
    used = used_names(tree)
    assert sorted(n for n in imported_names(tree) if n not in used) == ["field", "pair"]
