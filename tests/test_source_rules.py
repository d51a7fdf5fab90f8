"""No float touches a bound or a verdict, and ``python -O`` keeps every check.

The package computes in integers and ``Fraction``s, and it raises its own
errors where a check fails.  So no module under ``src/`` holds an
``assert`` statement (``-O`` strips it), a float literal, a call of
``float`` or ``round``, or a ``math`` attribute other than ``gcd`` and
``lcm``.  The blowup, the graphs and the enumeration compute in integers
alone: under their modules a ``Fraction(`` call stands only inside a
function of ``FRACTION_ALLOWED``, which is empty.  A graph is an immutable value, whose
dataclass is not frozen (a frozen one writes each slot through
``object.__setattr__``): so no module stores to or deletes an attribute named
after one of its value fields.  No module calls the builtin ``open``: files
are read through ``scenarios._read_text`` and written through
``scenarios._write_text``, one path for each job.  The checks read each
module's syntax tree with the standard library's ``ast``.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).parents[1] / "src"
MODULES = sorted(SOURCE.rglob("*.py"))
MATH_ALLOWED = {"gcd", "lcm"}


def violations(tree: ast.AST) -> list[str]:
    """Each use of a forbidden construct, with its line, in source order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, node.col_offset, "assert"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, node.col_offset, f"float literal {node.value!r}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "round")
        ):
            found.append((node.lineno, node.col_offset, f"{node.func.id}("))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in MATH_ALLOWED
        ):
            found.append((node.lineno, node.col_offset, f"math.{node.attr}"))
    return [f"line {line}: {what}" for line, _, what in sorted(found)]


# Modules that build no Fraction, but where a function of
# ``FRACTION_ALLOWED`` (qualified by its class) makes one to hand out.
FRACTION_FREE = ("blowup.py", "enumeration.py", "graphs.py")
FRACTION_ALLOWED = frozenset()


def fraction_calls(tree: ast.AST) -> list[str]:
    """Each ``Fraction(`` call outside the allowed functions, with its line
    and the qualified name of the function or class that holds it."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                where = ".".join(scope) or "<module>"
                if name == "Fraction" and where not in FRACTION_ALLOWED:
                    found.append((child.lineno, f"Fraction( in {where}"))
            visit(child, inner)

    visit(tree, ())
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_source_is_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_a_module_holds_no_assert_and_no_float(path):
    assert violations(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_check_finds_each_forbidden_construct():
    tree = ast.parse(
        "import math\n"
        "def f(x):\n"
        "    assert x > 0\n"
        "    y = x * 0.5\n"
        "    z = float(x) + round(x) + 1e3j\n"
        "    return math.floor(y) + math.gcd(2, 4) + math.lcm(2, 3)\n"
    )
    assert violations(tree) == [
        "line 3: assert",
        "line 4: float literal 0.5",
        "line 5: float(",
        "line 5: round(",
        "line 5: float literal 1000j",
        "line 6: math.floor",
    ]


@pytest.mark.parametrize("name", FRACTION_FREE)
def test_an_integer_module_builds_no_fraction_outside_its_allow_list(name):
    path = SOURCE / "decgraph" / name
    assert fraction_calls(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_fraction_rule_finds_a_call_outside_the_allow_list():
    tree = ast.parse(
        "import fractions\n"
        "from fractions import Fraction\n"
        "class BlowupSite:\n"
        "    @property\n"
        "    def max_admissible(self):\n"
        "        return Fraction(1, 2)\n"
        "def _site_for_vertex(g, v):\n"
        "    def inner():\n"
        "        return fractions.Fraction(1)\n"
        "    return Fraction(1, 2), inner\n"
        "HALF = Fraction(1, 2)\n"
    )
    assert fraction_calls(tree) == [
        "line 6: Fraction( in BlowupSite.max_admissible",
        "line 9: Fraction( in _site_for_vertex.inner",
        "line 10: Fraction( in _site_for_vertex",
        "line 11: Fraction( in <module>",
    ]


# The value fields of ``graphs.DecoratedGraph``; its caches are the other slots.
VALUE_FIELDS = ("omega", "vertices", "edges", "ledger", "fiber")


def value_stores(tree: ast.AST) -> list[str]:
    """Each store to, or deletion of, an attribute named in ``VALUE_FIELDS``:
    as an assignment (plain, augmented or annotated) or ``del`` target, or as
    the constant name handed to ``setattr`` or ``__setattr__``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            if node.attr in VALUE_FIELDS:
                found.append((node.lineno, f"store to .{node.attr}"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("setattr", "__setattr__"):
                for arg in node.args[:2]:
                    if isinstance(arg, ast.Constant) and arg.value in VALUE_FIELDS:
                        found.append((node.lineno, f"{name}( of {arg.value!r}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_stores_to_a_graphs_values(path):
    assert value_stores(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_value_rule_finds_each_kind_of_store():
    tree = ast.parse(
        "def f(g, h):\n"
        "    g.edges = ()\n"
        "    g.ledger += (1,)\n"
        "    g.fiber: object = None\n"
        "    del g.omega\n"
        "    h.x, g.vertices = 1, ()\n"
        "    setattr(g, 'fiber', None)\n"
        "    object.__setattr__(g, 'omega', None)\n"
        "    g.__setattr__('edges', ())\n"
        "    g._sites = g.edges_above = setattr(g, '_sites', g.edges)\n"
    )
    assert value_stores(tree) == [
        "line 2: store to .edges",
        "line 3: store to .ledger",
        "line 4: store to .fiber",
        "line 5: store to .omega",
        "line 6: store to .vertices",
        "line 7: setattr( of 'fiber'",
        "line 8: __setattr__( of 'omega'",
        "line 9: __setattr__( of 'edges'",
    ]


def open_calls(tree: ast.AST) -> list[str]:
    """Each call of the builtin ``open`` (a bare name; ``os.open`` is no such
    call), with its line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "open":
                found.append(node.lineno)
    return [f"line {line}: open(" for line in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_calls_the_builtin_open(path):
    assert open_calls(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_open_rule_finds_a_planted_open():
    tree = ast.parse(
        "import os\n"
        "def f(p, text):\n"
        "    fd = os.open(p, os.O_RDONLY)\n"
        "    with open(p, 'w') as fh:\n"
        "        fh.write(text)\n"
        "    return open(p).read(), fd\n"
    )
    assert open_calls(tree) == ["line 4: open(", "line 6: open("]
