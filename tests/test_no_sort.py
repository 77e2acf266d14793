"""The orbit and class walks find images by arithmetic, not by sorting.

orbitmethod positions a point by the Horner sum of its pivot digits, so
no sort, sorted-array search or deduplication belongs in it; this test
keeps one from creeping back into the walks.
"""

import ast
from pathlib import Path

ORBITMETHOD = Path(__file__).resolve().parents[1] / "src" / "radchar" / "orbitmethod.py"

SORTING = {"argsort", "searchsorted", "sort", "unique"}


def sorting_calls(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every call of a sorting function or method."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else func.id if isinstance(func, ast.Name) else None
            if name in SORTING:
                found.append((name, node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_orbitmethod_sorts_nothing():
    assert sorting_calls(ast.parse(ORBITMETHOD.read_text(), filename=str(ORBITMETHOD))) == []


def test_sorting_call_finder_sees_every_form():
    source = """
import numpy as np
from numpy import unique
order = np.argsort(keys)
pos = keys.searchsorted(images)
keys.sort()
values = unique(keys)
rows = np.unique(stack, axis=0)
ranked = sorted(keys)
"""
    assert sorting_calls(ast.parse(source)) == [("argsort", 4), ("searchsorted", 5), ("sort", 6), ("unique", 7), ("unique", 8)]
