"""Every module-level function and class of wavecap has a caller outside the tests.

A definition counts as used when code in ``src/wavecap`` (not ``__init__.py``,
whose imports are the re-exports), ``demos/`` or ``perfbench/`` names it, as
a name or as an attribute, or when a key of perfbench's ``TRACED`` table
(``"module.name"``) names it.  Import lines alone do not count.
``capture_oracle`` is exempt: it is the independent reference that acceptance
criterion 6 checks ``capture`` against.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wavecap"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLERS = [*MODULES, *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "perfbench").rglob("*.py"))]
ALLOWED = {"capture_oracle"}


def definitions(source: str) -> list[str]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in ast.parse(source).body if isinstance(node, kinds)]


def references(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            names |= {c.value.rsplit(".", 1)[-1] for c in ast.walk(node.value)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return names


USED = set().union(*(references(p.read_text()) for p in CALLERS))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_dead_definitions(path):
    assert [n for n in definitions(path.read_text()) if n not in USED | ALLOWED] == []


def test_allowed_names_are_defined():
    assert ALLOWED <= {n for p in MODULES for n in definitions(p.read_text())}


def test_the_guard_finds_a_dead_definition():
    source = (
        "def used(): pass\n"
        "def dead(): pass\n"
        "class Unused: pass\n"
        "def method(): pass\n"
        "def traced(): pass\n"
        "x = used() + obj.method()\n"
        "TRACED = {'module.traced': None}\n"
    )
    names = references(source)
    assert [n for n in definitions(source) if n not in names] == ["dead", "Unused"]
