"""Every module-level import in the package is used by its module, and
every module-level function and class is named somewhere else in the
package.

No linter ships with the test environment, so a deletion that leaves an
import or a definition behind would otherwise go unnoticed. For imports,
``__init__.py`` is skipped: its imports are the package's re-exports,
which in turn count as naming what they export. A definition that only
the tests call belongs on the test side, not in the package.
"""

import ast
from pathlib import Path

import pytest

import fixlat

PACKAGE = Path(fixlat.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_its_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_unused_import_check_flags_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport numpy as np\n"
              "from .perm import Permutation, check_mask as cm\n"
              "def f():\n    import sys\n    return np.zeros(cm)\n")
    assert unused_imports(source) == ["os", "os", "Permutation"]


def _names(node) -> set[str]:
    """Every name that a node reads, imports or reaches as an attribute."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def unnamed_definitions(sources: dict[str, str]) -> list[str]:
    """``module:name`` of each module-level function or class that no other
    statement of any module names."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    out = []
    for module, tree in trees.items():
        elsewhere = set().union(*(_names(t) for m, t in trees.items()
                                  if m != module))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                rest = set().union(*(_names(n) for n in tree.body
                                     if n is not node))
                if node.name not in rest | elsewhere:
                    out.append(f"{module}:{node.name}")
    return out


def test_every_definition_is_named_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unnamed_definitions(sources) == []


def test_unnamed_definition_check_flags_what_it_should():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": ("def exported():\n    return 1\n"
                 "def helper():\n    return 2\n"
                 "def recursive(n):\n    return recursive(n - 1)\n"
                 "class Orphan:\n    pass\n"),
        "b.py": "from . import a\nx = a.helper\n",
    }
    assert unnamed_definitions(sources) == ["a.py:recursive", "a.py:Orphan"]
