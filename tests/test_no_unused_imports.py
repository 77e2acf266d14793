"""Every module-level import of the library is used or re-exported, and every private definition is read.

A name a module imports at the top must be read somewhere in that module
or be listed in its __all__, the kept import paths of moved names.  The
package __init__, which binds its exports by import, and
`from __future__` imports are exempt.

A module-level private name (_x, not __x__) that a function, class or
assignment defines must be read somewhere in the library outside its own
definition: as a name, an attribute or an imported name.  Tests do not
count as readers, so code only tests reach is refused.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "radchar"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(node: ast.stmt) -> list[str]:
    """The module-level private names one top-level statement defines."""
    if isinstance(node, DEFINITIONS):
        targets = [node.name]
    elif isinstance(node, ast.Assign):
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        targets = [node.target.id]
    else:
        targets = []
    return [name for name in targets if _private(name)]


def reads(node: ast.AST) -> set[str]:
    """The names a subtree reads: loaded names, attributes and imported names."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found |= {alias.name for alias in sub.names}
    return found


def unread_private_definitions(modules: dict[str, ast.Module]) -> list[str]:
    """"module:line name" of every private definition no other top-level statement of any module reads."""
    statements = [(name, node) for name, tree in modules.items() for node in tree.body]
    read_by = [reads(node) for _, node in statements]
    return [
        f"{module}:{node.lineno} {name}"
        for k, (module, node) in enumerate(statements)
        for name in private_definitions(node)
        if not any(name in names for j, names in enumerate(read_by) if j != k)
    ]


def test_library_private_definitions_are_read():
    modules = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    assert len(modules) > 1
    assert unread_private_definitions(modules) == []


def test_unread_private_finder_sees_every_form():
    first = """
_LIMIT = 3
_table: dict = {}
__version__ = "1"

def _helper(x):
    return _helper(x - 1) if x else _LIMIT

def _recursive(x):
    return _recursive(x)

class _Kept:
    pass

class _Gone:
    def _method(self):
        return _Gone
"""
    second = """
from .first import _Kept

def public(obj):
    return obj._table, _helper(1), _Kept
"""
    modules = {"first.py": ast.parse(first), "second.py": ast.parse(second)}
    assert unread_private_definitions(modules) == ["first.py:9 _recursive", "first.py:15 _Gone"]
