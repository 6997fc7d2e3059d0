"""Every module-level function and class of wavecap, and every method and
property of those classes, has a caller outside the tests.

A definition counts as used when code in ``src/wavecap`` (not ``__init__.py``,
whose imports are the re-exports), ``demos/`` or ``perfbench/`` names it, as
a name or as an attribute, or when a key of perfbench's ``TRACED`` table
(``"module.name"``) names it.  Import lines alone do not count.  A method
is named as ``Class.method`` and counts as used when its own name is; dunder
methods are called by Python itself and are not checked.
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
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, kinds):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):  # its methods and properties
            names += [f"{node.name}.{m.name}" for m in node.body
                      if isinstance(m, kinds[:2]) and not m.name.startswith("__")]
    return names


def dead(source: str, used: set[str]) -> list[str]:
    return [n for n in definitions(source) if n.rsplit(".", 1)[-1] not in used]


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
    assert dead(path.read_text(), USED | ALLOWED) == []


def test_allowed_names_are_defined():
    assert ALLOWED <= {n for p in MODULES for n in definitions(p.read_text())}


def test_the_guard_finds_a_dead_definition():
    source = (
        "def used(): pass\n"
        "def dead(): pass\n"
        "class Unused: pass\n"
        "def method(): pass\n"
        "def traced(): pass\n"
        "class Used:\n"
        "    def __post_init__(self): pass\n"
        "    def called(self): pass\n"
        "    @property\n"
        "    def read(self): pass\n"
        "    def never_called(self): pass\n"
        "    @property\n"
        "    def never_read(self): pass\n"
        "x = used() + obj.method() + Used().called() + Used().read\n"
        "TRACED = {'module.traced': None}\n"
    )
    assert dead(source, references(source)) == ["dead", "Unused", "Used.never_called",
                                                "Used.never_read"]
