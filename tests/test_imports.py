"""Every name a module of wavecap imports is used in that module.

Exempt are the package ``__init__.py`` (its imports are the re-exports),
``from __future__`` imports, and a name whose import line is marked
``# noqa: F401``, as ``wavecap.sweep`` keeps ``capture`` importable.
"""

import ast
from pathlib import Path

import pytest

import wavecap

MODULES = sorted(p for p in Path(wavecap.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nfrom math import pi, tau\n"
        "from .chain import capture  # noqa: F401\n"
        "x = np.zeros(1) * tau\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: pi"]
