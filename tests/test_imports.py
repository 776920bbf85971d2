"""Every module-level import in the package is used by its module.

No linter ships with the test environment, so a deletion that leaves an
import behind would otherwise go unnoticed. ``__init__.py`` is skipped:
its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import fixlat

MODULES = sorted(p.name for p in Path(fixlat.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
    path = Path(fixlat.__file__).parent / module
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_flags_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport numpy as np\n"
              "from .perm import Permutation, check_mask as cm\n"
              "def f():\n    import sys\n    return np.zeros(cm)\n")
    assert unused_imports(source) == ["os", "os", "Permutation"]
