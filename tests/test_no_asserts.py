"""No verdict of the library rests on an assert statement.

python -O strips asserts, so every check in src/radchar must raise an
exception instead.  Two of the converted checks are tripped here.
"""

import ast
from pathlib import Path

import pytest

from radchar import census, falinalg
from radchar.census import sym_rank_census
from radchar.falinalg import FfMatrix, skew_hermitian_normal_form
from radchar.gf import field_create
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


def test_census_integrality_check_raises(monkeypatch):
    monkeypatch.setattr(QPoly, "is_integral", lambda self: False)
    with pytest.raises(ValueError, match="integer coefficients"):
        sym_rank_census(2, 1)


def test_normal_form_checks_raise(monkeypatch):
    F9 = field_create(3, 2)
    C = FfMatrix(F9, [[F9.gen(), 0], [0, 0]])
    with monkeypatch.context() as m:
        m.setattr(falinalg, "rank", lambda M: -1)
        with pytest.raises(ValueError, match="transform must be invertible"):
            skew_hermitian_normal_form(C)
    with monkeypatch.context() as m:
        m.setattr(falinalg, "_norm_preimage", lambda field, target: field.one())
        with pytest.raises(ValueError, match="form value alpha"):
            skew_hermitian_normal_form(2 * C)
