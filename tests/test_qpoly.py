"""Exact polynomial arithmetic, division, evaluation and basis changes."""

from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from radchar import qpoly
from radchar.qpoly import QPoly, exact_div, format_terms, gaussian_binomial, qminus1_expansions

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


# -- differential tests against the one-at-a-time loops --------------------


def reference_qminus1(cs) -> list[int]:
    """Repeated division by q - 1 of one polynomial, its own running sums."""
    top_first = list(cs)[::-1]
    out = []
    while top_first:
        top_first = list(accumulate(top_first))
        out.append(top_first.pop())
    return out


def reference_div(num, den) -> QPoly:
    """Synthetic division of coefficient lists, term by term from the top."""
    rem = list(num)
    dn = len(den) - 1
    quot = [0] * max(len(rem) - dn, 0)
    for k in range(len(quot) - 1, -1, -1):
        f, m = divmod(rem[k + dn], den[-1])
        if m:
            raise ValueError("not divisible")
        quot[k] = f
        for j, bc in enumerate(den[:-1]):
            rem[k + j] -= f * bc
    if any(rem[:dn]):
        raise ValueError("not divisible")
    return QPoly(quot)


def schoolbook(a, b) -> QPoly:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return QPoly(out)


wide = st.one_of(st.integers(-3, 3), st.integers(-10 ** 30, 10 ** 30))


@given(
    st.lists(st.lists(wide, max_size=300).map(QPoly), min_size=1, max_size=8),
    st.sampled_from([1, qpoly.PACK_MIN]),
    st.sampled_from([1, 40, qpoly.PACK_BYTES, 10 ** 6]),
)
def test_qminus1_expansions_match_one_row_at_a_time(polys, pack_min, pack_bytes):
    # every pack size, from one lane per pack to every lane in one, with
    # short rows alone or packed too
    with mock.patch.multiple(qpoly, PACK_MIN=pack_min, PACK_BYTES=pack_bytes):
        assert qminus1_expansions(polys) == [reference_qminus1(p.coeffs) for p in polys]


def test_qminus1_expansions_of_no_and_zero_polynomials():
    assert qminus1_expansions([]) == []
    assert qminus1_expansions([QPoly.zero(), q ** 2, QPoly.zero()]) == [[], [1, 2, 1], []]


def q_power_minus_one(k: int) -> QPoly:
    return QPoly.q_power(k) - 1


@given(st.lists(wide, max_size=40), st.integers(1, 12))
def test_division_by_q_power_minus_one_matches_the_loop(cs, k):
    a = QPoly(cs)
    p = a * q_power_minus_one(k)
    assert p.exact_div(q_power_minus_one(k)) == reference_div(p.coeffs, q_power_minus_one(k).coeffs) == a


@given(st.lists(wide, max_size=40), st.lists(wide, min_size=1, max_size=12), st.integers(1, 12))
def test_division_by_q_power_minus_one_refuses_a_remainder(a_cs, c_cs, k):
    # c has degree below k, so (q^k - 1) a + c leaves remainder c
    c = QPoly(c_cs[:k])
    if c.is_zero():
        return
    p = QPoly(a_cs) * q_power_minus_one(k) + c
    for divide in (lambda: p.exact_div(q_power_minus_one(k)), lambda: reference_div(p.coeffs, q_power_minus_one(k).coeffs)):
        with pytest.raises(ValueError, match="not divisible"):
            divide()


@given(st.lists(wide, max_size=8), st.integers(1, 12))
def test_division_by_q_power_minus_one_above_the_dividend_degree(cs, extra):
    p = QPoly(cs)
    k = len(p.coeffs) + extra  # k > deg p
    if p.is_zero():
        assert p.exact_div(q_power_minus_one(k)) == reference_div((), q_power_minus_one(k).coeffs) == QPoly.zero()
        return
    for divide in (lambda: p.exact_div(q_power_minus_one(k)), lambda: reference_div(p.coeffs, q_power_minus_one(k).coeffs)):
        with pytest.raises(ValueError, match="not divisible"):
            divide()


sparse_term = st.tuples(st.integers(0, 20), st.sampled_from([1, -1]) | wide)
units_and_terms = st.one_of(
    st.lists(wide, max_size=25),
    st.lists(st.sampled_from([-1, 0, 1]), max_size=25),
    sparse_term.map(lambda t: [0] * t[0] + [t[1]]),
)


@given(units_and_terms, units_and_terms)
def test_product_matches_schoolbook(a_cs, b_cs):
    a, b = QPoly(a_cs), QPoly(b_cs)
    assert a * b == b * a == schoolbook(a.coeffs, b.coeffs)


@given(st.lists(wide, max_size=40), st.integers(0, 20), st.sampled_from([1, -1]))
def test_times_binomial_is_the_schoolbook_product(cs, m, sign):
    binomial = [sign] + [0] * m
    binomial[m] += 1
    assert QPoly(cs).times_binomial(m, sign) == schoolbook(cs, binomial)


@given(st.lists(wide, max_size=40), st.integers(0, 20))
def test_shifted_is_the_product_by_a_power_of_q(cs, k):
    assert QPoly(cs).shifted(k) == schoolbook(cs, [0] * k + [1])
    with pytest.raises(ValueError, match="negative power of q"):
        QPoly(cs).shifted(-1 - k)


def test_q_power_refuses_a_negative_exponent():
    with pytest.raises(ValueError, match="negative power of q"):
        QPoly.q_power(-1)
