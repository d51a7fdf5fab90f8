"""No module of the package imports a name it never uses, and the package
defines no function or class that nothing reads.

A deletion that leaves its imports behind (``field`` once no dataclass field
needs it, ``adjunction_genus`` once no rule reads it) fails here, and so does
a helper that only tests call.  The checks read each module's syntax tree
with the standard library's ``ast``; a name counts as used when the module
reads it anywhere, string annotations included.  ``__init__`` is left out,
since it imports to re-export.  A function the benchmark's traced run wraps
(a hook in ``perfbench/spans.py``) counts as read, and the few that only a
hook reads are pinned by name.  The same holds for the methods and
properties of the package's classes: each must be read as an attribute
somewhere in the package outside its own body.
"""

import ast
from pathlib import Path

import pytest
from test_bench_hooks import load_hooks

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


def used_names(tree: ast.AST) -> set[str]:
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


def defined_names(tree: ast.Module) -> list[str]:
    """Each module-level function and class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in tree.body if isinstance(node, kinds)]


def read_names(tree: ast.Module) -> set[str]:
    """``used_names``, plus each attribute read off a package module bound by
    ``from . import module as alias``; a definition reading its own name, as
    a recursive call does, does not count."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module is None
        for alias in node.names
    }
    read = set()
    for statement in tree.body:
        names = used_names(statement) | {
            node.attr
            for node in ast.walk(statement)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        }
        names.discard(getattr(statement, "name", None))
        read |= names
    return read


def unread(trees: dict[str, ast.Module], hooks: set[tuple[str, str]]) -> list[str]:
    """``module.name`` of every definition no module reads and no hook names."""
    read = set().union(*map(read_names, trees.values()))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in defined_names(tree)
        if name not in read and (module, name) not in hooks
    )


def test_every_function_and_class_is_read_or_hooked():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    _, hooks = load_hooks()
    assert unread(trees, {(hook.module, hook.attr) for hook in hooks}) == []


# What only a benchmark hook reads.  Each waits for the benchmark change that
# drops its hook, and is deleted with it (``flip`` too, which only
# ``normal_form`` reads): dedup keys call neither.  (``cone.verify_picard_basis``
# is hooked too, but ``run_scenario`` reads it.)
HOOK_ONLY = ["graphs.normal_form", "graphs.permute_exceptionals"]


def test_the_definitions_only_a_hook_reads_are_pinned():
    """A function that quietly becomes hook-only fails here."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    _, hooks = load_hooks()
    hooked = {f"{hook.module}.{hook.attr}" for hook in hooks}
    assert [name for name in unread(trees, set()) if name in hooked] == HOOK_ONLY


def test_the_check_finds_an_unread_definition():
    trees = {
        "a": ast.parse(
            "def used(): pass\n"
            "def by_alias(): pass\n"
            "def annotated(): pass\n"
            "def hooked(): pass\n"
            "def recursive(): return recursive()\n"
            "def dead(): pass\n"
            "class Dead: pass\n"
        ),
        "b": ast.parse(
            "from . import a as a_mod\n"
            "from .a import used\n"
            "def main(x: 'annotated') -> None:\n"
            "    used(), a_mod.by_alias()\n"
        ),
    }
    assert unread(trees, {("a", "hooked")}) == ["a.Dead", "a.dead", "a.recursive", "b.main"]


# A call of one of these reads the attributes its string arguments name.
NAMED_READERS = {"attrgetter", "getattr"}


def methods(tree: ast.Module):
    """(class, definition) of each method and property of each module-level
    class; a dunder is read by the language, not by its name."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                name = getattr(item, "name", "")
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    name.startswith("__") and name.endswith("__")
                ):
                    yield node.name, item


def unread_methods(trees: dict[str, ast.Module]) -> list[str]:
    """``module.Class.name`` of every method or property whose name no code
    of ``trees`` reads outside its own body: as an attribute, as a name, or
    through a string given to ``attrgetter`` or ``getattr``.  A read of the
    name off any object counts, so two classes that share a method name
    shelter each other."""
    defined = [(module, cls, item) for module, tree in trees.items() for cls, item in methods(tree)]
    bodies = {id(item) for _, _, item in defined}
    readers: dict[str, set[int]] = {}  # name -> the bodies that read it, 0 for any other code

    def visit(node: ast.AST, body: int) -> None:
        names = []
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in NAMED_READERS:
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    names += arg.value.split(".")
        for name in names:
            readers.setdefault(name, set()).add(body)
        for child in ast.iter_child_nodes(node):
            visit(child, id(child) if id(child) in bodies else body)

    for tree in trees.values():
        visit(tree, 0)
    return sorted(
        f"{module}.{cls}.{item.name}"
        for module, cls, item in defined
        if not readers.get(item.name, set()) - {id(item)}
    )


def test_every_method_and_property_is_read():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    assert unread_methods(trees) == []


def test_the_check_finds_an_unread_method():
    trees = {
        "a": ast.parse(
            "from operator import attrgetter\n"
            "class A:\n"
            "    def __repr__(self): return self.dead_too()\n"
            "    def called(self): pass\n"
            "    @property\n"
            "    def prop(self): return self.recursive()\n"
            "    @staticmethod\n"
            "    def build(): pass\n"
            "    def recursive(self): return self.recursive()\n"
            "    def lonely(self): return self.lonely()\n"
            "    def by_string(self): pass\n"
            "    def dead(self): pass\n"
            "    @property\n"
            "    def dead_prop(self): pass\n"
            "key = attrgetter('x.by_string')\n"
        ),
        "b": ast.parse(
            "from .a import A\n"
            "class B:\n"
            "    def dead_too(self): pass\n"
            "    def called(self): return A.build().prop\n"
            "def main(a):\n"
            "    a.called()\n"
        ),
    }
    assert unread_methods(trees) == ["a.A.dead", "a.A.dead_prop", "a.A.lonely"]
