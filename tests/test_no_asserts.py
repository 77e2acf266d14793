"""No verdict of the library rests on an assert statement.

python -O strips asserts, so every check in src/radchar must raise an
exception instead.  Some of the converted checks are tripped here.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from radchar.qpoly import QPoly

SRC = Path(__file__).resolve().parents[1] / "src" / "radchar"


def test_library_has_no_assert_statements():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_qpoly_integrality_checks_raise():
    # polynomials stay in Z[q]: no rational coefficient gets in, and a
    # quotient that would leave Z[q] raises instead of being returned
    for bad in (Fraction(1, 2), 1.0):
        with pytest.raises(TypeError, match="must be integers"):
            QPoly([bad])
    q = QPoly.q()
    with pytest.raises(ValueError, match="not divisible"):
        QPoly([1]).exact_div(QPoly([2]))
    with pytest.raises(ValueError, match="not divisible"):
        (2 * q + 1).exact_div(2 * q)

