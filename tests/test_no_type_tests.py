"""The radical types differ only in the block layout RadicalContext reads.

Every other function of orbitmethod, and of params, where RadicalParams
and d_range live, reads block roles (constrained, free, linked) off that
layout instead of testing the type, so a new caller cannot restate a
per-type decision.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "radchar"
MODULES = (SRC / "orbitmethod.py", SRC / "params.py")

# where the type may still be tested: the d range, the Dynkin warnings, |k|,
# the constructor (entry field and layout) and the pairing's twisted trace
ALLOWED = {
    "d_range",
    "RadicalParams.__new__",
    "RadicalParams.k_exponent",
    "RadicalContext.__init__",
    "pairing_nondegeneracy_check",
}

TYPE_LITERALS = {"C", "D", "U"}


def _is_type(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "x") or (isinstance(node, ast.Name) and node.id == "x")


def _is_type_literal(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_type_literal(elt) for elt in node.elts)
    return isinstance(node, ast.Constant) and node.value in TYPE_LITERALS


def type_tests(tree: ast.Module) -> list[tuple[str, int]]:
    """(qualified name of the enclosing definition, line) of every comparison of a type with a type literal."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Compare):
                operands = [child.left, *child.comparators]
                if any(map(_is_type, operands)) and any(map(_is_type_literal, operands)):
                    found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, [])
    return found


def _allowed(scope: str) -> bool:
    return any(scope == name or scope.startswith(name + ".") for name in ALLOWED)


def test_only_the_layout_tests_the_type():
    found = [
        (path.name, scope, line)
        for path in MODULES
        for scope, line in type_tests(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert {name for name, _, _ in found} == {"orbitmethod.py", "params.py"}  # each has its allowed tests
    assert [(name, scope, line) for name, scope, line in found if not _allowed(scope)] == []


def test_type_test_finder_sees_every_form():
    source = """
def f(params, x):
    a = params.x == "U"
    b = "C" != x
    c = params.x in ("C", "D")
    d = params.x == other
    e = params.n == 3
class RadicalContext:
    def __init__(self, params):
        self.k = 2 if params.x == "U" else 1
    def g(self):
        return self.params.x == "D"
"""
    found = type_tests(ast.parse(source))
    assert found == [("f", 3), ("f", 4), ("f", 5), ("RadicalContext.__init__", 10), ("RadicalContext.g", 12)]
    assert [scope for scope, _ in found if not _allowed(scope)] == ["f", "f", "f", "RadicalContext.g"]
