"""Every name an annotation of the library reads is bound where typing.get_type_hints looks for it.

Under `from __future__ import annotations` an annotation is kept as a
string, and get_type_hints evaluates it in the module's globals.  A name
the module imports only inside a function (an oracle module, which the
symbolic modules load lazily) or not at all raises NameError there.  So
every name in an annotation, string annotations parsed too, must be bound
by a top-level statement of its module or be a builtin.  A name bound
under `if TYPE_CHECKING:` does not count: it is unbound at run time.
"""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "radchar"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def module_names(tree: ast.Module) -> set[str]:
    """The names the top-level statements of a module bind: imports, definitions and assignment targets."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, DEFINITIONS):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)}
    return names


def annotation_names(annotation: ast.expr):
    """The names an annotation reads, string annotations parsed as expressions."""
    for sub in ast.walk(annotation):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from annotation_names(ast.parse(sub.value, mode="eval").body)


def annotations(tree: ast.Module):
    """(annotation, line) of every argument, return and annotated assignment."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation, node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns, node.lineno
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation, node.lineno


def unbound_annotation_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every annotation name neither bound at module level nor a builtin."""
    bound = module_names(tree) | set(dir(builtins))
    return sorted(
        {(name, line) for annotation, line in annotations(tree) for name in annotation_names(annotation) if name not in bound},
        key=lambda found: (found[1], found[0]),
    )


def test_library_annotations_name_bound_types():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{line} {name}"
        for path in files
        for name, line in unbound_annotation_names(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_unbound_annotation_finder_sees_every_form():
    source = """
from __future__ import annotations
import numpy as np
from typing import TYPE_CHECKING
from .gf import FieldCtx as Field
if TYPE_CHECKING:
    from .orbitmethod import RadicalContext
LIMIT: int = 3

class Row:
    size: Width
    other: "Row"

def f(ctx: RadicalContext, field: Field, xs: list[np.ndarray], *rest: "Later[Row]", **named: dict) -> Missing:
    from .orbitmethod import Local
    value: "Local" = None
    return lambda y: y
"""
    assert unbound_annotation_names(ast.parse(source)) == [
        ("Width", 11),
        ("Later", 14),
        ("Missing", 14),
        ("RadicalContext", 14),
        ("Local", 16),
    ]
