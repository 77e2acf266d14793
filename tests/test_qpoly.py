"""Exact polynomial arithmetic, division, evaluation and basis changes."""

import pytest
from hypothesis import given, strategies as st

from radchar.qpoly import QPoly, exact_div, format_terms, gaussian_binomial

q = QPoly.q()


def test_basic_arithmetic():
    p = (q + 1) * (q - 1)
    assert p == q ** 2 - 1
    assert p.degree == 2
    assert (p - p).is_zero()
    assert QPoly([0, 0, 0]) == QPoly.zero()
    assert QPoly.q_power(3) == q ** 3


def test_exact_div():
    assert exact_div(q ** 2 - 1, q - 1) == q + 1
    assert (q ** 6 - 1).exact_div(q ** 2 - 1) == q ** 4 + q ** 2 + 1
    with pytest.raises(ValueError, match="not divisible"):
        exact_div(q ** 2 + 1, q - 1)
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        exact_div(q, QPoly.zero())


def test_eval_at():
    assert (q ** 3 - q).eval_at(3) == 24
    assert QPoly.zero().eval_at(5) == 0
    assert (q ** 10).eval_at(9) == 9 ** 10


def test_qminus1_basis():
    assert (q ** 2).to_qminus1_basis() == [1, 2, 1]
    assert QPoly.const(7).to_qminus1_basis() == [7]
    assert QPoly.zero().to_qminus1_basis() == []
    assert QPoly.from_qminus1_basis([1, 2, 1]) == q ** 2


def test_gaussian_binomial():
    assert gaussian_binomial(4, 2) == q ** 4 + q ** 3 + 2 * q ** 2 + q + 1
    assert gaussian_binomial(4, 2) == (q ** 2 + 1) * (q ** 2 + q + 1)
    assert gaussian_binomial(3, 0) == QPoly.one()
    assert gaussian_binomial(3, 3) == QPoly.one()
    with pytest.raises(ValueError, match="out of range"):
        gaussian_binomial(2, 3)


def test_gaussian_binomial_symmetry_and_values():
    for n in range(9):
        for r in range(n + 1):
            g = gaussian_binomial(n, r)
            assert g == gaussian_binomial(n, n - r)
            # at q=1 it degenerates to the ordinary binomial coefficient
            import math
            assert g.eval_at(1) == math.comb(n, r)


def test_json_round_trip():
    p = q ** 4 - 3 * q + 5
    data = p.to_json()
    assert data == ["5", "-3", "0", "0", "1"]
    assert QPoly.from_json(data) == p
    assert QPoly.from_json([]) == QPoly.zero()


def test_str_rendering():
    assert str(q ** 2 + 2 * q + 1) == "q^2 + 2*q + 1"
    assert str(q ** 3 - q) == "q^3 - q"
    assert str(-q + 1) == "-q + 1"
    assert str(QPoly.zero()) == "0"
    assert str(QPoly.const(-4)) == "-4"
    # the same signed terms in any base and order, as the (q-1) basis uses
    assert format_terms([(0, -1), (1, 2), (2, 0), (3, -1)], "(q-1)") == "-1 + 2*(q-1) - (q-1)^3"
    assert format_terms([(1, 0)], "(q-1)") == "0"


coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=12)


@given(coeff_lists, coeff_lists)
def test_product_then_exact_div_recovers_factor(a_cs, b_cs):
    a, b = QPoly(a_cs), QPoly(b_cs)
    if b.is_zero():
        return
    assert (a * b).exact_div(b) == a


@st.composite
def remainder_cases(draw):
    # a, b and c with 0 < deg c < deg b, so a*b + c has remainder c
    nonzero = st.integers(min_value=-50, max_value=50).filter(bool)
    a = draw(coeff_lists)
    b = draw(st.lists(st.integers(-50, 50), min_size=2, max_size=10)) + [draw(nonzero)]
    c = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=len(b) - 2)) + [draw(nonzero)]
    return QPoly(a), QPoly(b), QPoly(c)


@given(remainder_cases())
def test_exact_div_refuses_a_nonzero_remainder(case):
    a, b, c = case
    assert 0 < c.degree < b.degree
    with pytest.raises(ValueError, match="not divisible"):
        (a * b + c).exact_div(b)


@given(coeff_lists)
def test_qminus1_round_trip(cs):
    p = QPoly(cs)
    back = QPoly.from_qminus1_basis(p.to_qminus1_basis())
    assert back == p


@given(coeff_lists, st.integers(min_value=0, max_value=7))
def test_eval_matches_direct_sum(cs, q0):
    p = QPoly(cs)
    assert p.eval_at(q0) == sum(c * q0 ** k for k, c in enumerate(cs))
