"""Every module-level import of the library is used or re-exported.

A name a module imports at the top must be read somewhere in that module
or be listed in its __all__, the kept import paths of moved names.  The
package __init__, which binds its exports by import, and
`from __future__` imports are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "radchar"


def unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) of every module-level import neither read in the module nor listed in __all__."""
    bound = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [((alias.asname or alias.name.split(".")[0]), node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(alias.asname or alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {elt.value for elt in node.value.elts}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in bound if name not in read and name not in exported]


def test_library_imports_are_used():
    files = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
    assert files
    found = [
        f"{path.name}:{line} {name}"
        for path in files
        for name, line in unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_unused_import_finder_sees_every_form():
    source = """
from __future__ import annotations
import math
import numpy as np
import os.path
from itertools import chain, combinations
from .gf import norm as field_norm, frobenius
from .params import TYPES
__all__ = ["TYPES"]

def f(xs):
    return np.sum(chain(xs)) + field_norm(os.sep)
"""
    assert unused_imports(ast.parse(source)) == [("math", 3), ("combinations", 6), ("frobenius", 7)]
