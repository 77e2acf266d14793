"""Tests for the symbolic character degree censuses."""

import copy
import pickle

import pytest

from radchar import census, charcensus
from radchar.census import sym_rank_census
from radchar.charcensus import (
    census_table,
    char_count_poly,
    degree_exponents,
    degree_poly,
    qminus1_report,
    sum_of_squares_check,
)
from radchar.falinalg import FfMatrix
from radchar.gf import field_for_order
from radchar.orbitmethod import RadicalContext, RadicalParams, d_range, orbit_census, orbit_partition, radical_order
from radchar.params import TYPES, _V_CLASS, class_dimension
from radchar.qpoly import QPoly


def P(x, n, d):
    return RadicalParams(x, n, d)


def test_degree_exponents_examples():
    assert degree_exponents(P("C", 3, 2)) == [(0, 0), (1, 1), (2, 2)]
    assert degree_exponents(P("C", 3, 1)) == [(0, 0), (1, 2)]
    assert degree_exponents(P("D", 4, 2)) == [(0, 0), (2, 4)]
    assert degree_exponents(P("D", 4, 3)) == [(0, 0), (2, 2)]
    assert degree_exponents(P("U", 3, 1)) == [(0, 0), (1, 2)]
    assert degree_exponents(P("U", 3, 2)) == [(0, 0), (1, 1), (2, 2)]
    # d = n radicals are abelian, a single layer of linear characters
    assert degree_exponents(P("C", 3, 3)) == [(0, 0)]
    assert degree_exponents(P("D", 4, 4)) == [(0, 0)]


def test_degree_poly_uses_entry_field_size():
    assert degree_poly(P("C", 3, 1), 2) == QPoly.q_power(2)
    assert degree_poly(P("U", 2, 1), 1) == QPoly.q_power(2)
    assert degree_poly(P("D", 4, 2), 4) == QPoly.q_power(4)
    with pytest.raises(ValueError):
        degree_poly(P("C", 3, 1), -1)


def test_char_count_frozen_polynomials():
    q = QPoly.q()
    assert char_count_poly(P("C", 2, 1), 0) == q ** 2
    assert char_count_poly(P("C", 2, 1), 1) == q - 1
    assert char_count_poly(P("C", 3, 1), 0) == q ** 4
    assert char_count_poly(P("C", 3, 1), 2) == q - 1
    assert char_count_poly(P("C", 3, 2), 1) == q ** 4 - q ** 2
    assert char_count_poly(P("C", 3, 2), 2) == q ** 3 - q ** 2
    assert char_count_poly(P("D", 4, 2), 0) == q ** 8
    assert char_count_poly(P("D", 4, 2), 4) == q - 1
    assert char_count_poly(P("D", 3, 2), 2) == q - 1
    assert char_count_poly(P("U", 2, 1), 0) == q ** 4
    assert char_count_poly(P("U", 2, 1), 1) == q - 1
    # abelian case: the single layer carries the whole group order
    assert char_count_poly(P("C", 3, 3), 0) == q ** 6
    assert char_count_poly(P("D", 4, 4), 0) == q ** 6


def test_char_count_printed_variant_differs_only_for_u():
    q = QPoly.q()
    assert char_count_poly(P("U", 2, 1), 0, variant="printed") == q ** 5 - q ** 4
    assert char_count_poly(P("C", 3, 2), 1, variant="printed") == char_count_poly(P("C", 3, 2), 1)
    assert char_count_poly(P("D", 4, 2), 4, variant="printed") == char_count_poly(P("D", 4, 2), 4)


def test_char_count_zero_for_unattainable_exponents():
    assert char_count_poly(P("C", 3, 1), 1).is_zero()  # e must be a multiple of n - d
    assert char_count_poly(P("C", 3, 2), 3).is_zero()  # rank would exceed d
    assert char_count_poly(P("D", 4, 2), 2).is_zero()  # odd skew rank
    assert char_count_poly(P("C", 3, 3), 1).is_zero()
    with pytest.raises(ValueError):
        char_count_poly(P("C", 3, 1), -1)
    # the variant is checked on every path, not only where a census is built
    for params, e in ((P("U", 2, 1), 0), (P("C", 3, 3), 0), (P("C", 3, 1), 1)):
        with pytest.raises(ValueError, match="unknown variant"):
            char_count_poly(params, e, variant="bogus")


def test_census_table_structure():
    census = census_table(P("C", 3, 2))
    assert census.params == P("C", 3, 2)
    assert census.variant == "corrected"
    assert [(row.r, row.e) for row in census.rows] == [(0, 0), (1, 1), (2, 2)]
    assert {row.e for row in census.rows} == {0, 1, 2}
    assert census.order_poly() == QPoly.q_power(7)


@pytest.mark.parametrize(
    "build, names, text",
    [
        (lambda: P("C", 4, 2), "x n d", "RadicalParams(x='C', n=4, d=2)"),
        (
            lambda: census_table(P("C", 4, 2)).rows[0],
            "r e degree count",
            "DegreeCensusRow(r=0, e=0, degree=QPoly([1]), count=QPoly([0, 0, 0, 0, 0, 0, 0, 0, 1]))",
        ),
        (
            lambda: census_table(P("C", 4, 2)),
            "params variant rows",
            "DegreeCensus(params=RadicalParams(x='C', n=4, d=2), variant='corrected', rows={rows!r})",
        ),
        (
            lambda: orbit_partition(RadicalContext(P("C", 3, 1), 3))[-1],
            "representative size stabilizer_order e",
            "OrbitRecord(representative=DualElement(b1=[[2]], b3=[[0, 0]], b2=[[0], [0]]), size=9, stabilizer_order=1, e=2)",
        ),
        (
            lambda: orbit_census(P("C", 3, 1), 3).rows[1],
            "e degree dual_count orbit_count char_count",
            "OrbitCensusRow(e=2, degree=9, dual_count=18, orbit_count=2, char_count=2)",
        ),
        (
            lambda: orbit_census(P("C", 3, 1), 3),
            "params q k_order rows",
            "OrbitCensus(params=RadicalParams(x='C', n=3, d=1), q=3, k_order=3, rows={rows!r})",
        ),
    ],
    ids=["RadicalParams", "DegreeCensusRow", "DegreeCensus", "OrbitRecord", "OrbitCensusRow", "OrbitCensus"],
)
def test_records_are_immutable_values(build, names, text):
    # the repr, hash and immutability of the frozen dataclasses they replaced
    record = build()
    assert record._fields == tuple(names.split())
    assert repr(record) == text.format(**record._asdict())
    assert record == build() == tuple(record)
    assert hash(record) == hash(build()) == hash(tuple(record))
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


def test_radical_params_are_checked_however_built():
    assert hash(P("C", 4, 2)) == hash(("C", 4, 2))
    with pytest.raises(ValueError, match="d out of range"):
        P("C", 4, 7)
    with pytest.raises(ValueError, match="d out of range"):
        P("C", 4, 2)._replace(d=7)
    with pytest.warns(UserWarning, match="type C with n < 3"):
        P("C", 2, 1)
    with pytest.warns(UserWarning, match="type D with n < 4"):
        P("D", 3, 2)
    copy = pickle.loads(pickle.dumps(P("C", 4, 2)))
    assert copy == P("C", 4, 2) and type(copy) is RadicalParams


@pytest.mark.parametrize("restore", [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
@pytest.mark.parametrize(
    "build",
    [
        lambda: QPoly([1, 0, -2]),
        lambda: FfMatrix(field_for_order(9), [[1, 8], [0, 3]]),
        lambda: census_table(P("U", 3, 1)),
        lambda: orbit_census(P("C", 3, 1), 3),
        lambda: orbit_partition(RadicalContext(P("C", 3, 1), 3)),
    ],
    ids=["QPoly", "FfMatrix", "census_table", "orbit_census", "orbit_partition"],
)
def test_values_survive_pickle_and_copy(build, restore):
    # an immutable value is rebuilt through its constructor, not by setting its slots
    value = build()
    restored = restore(value)
    assert restored == value and type(restored) is type(value)
    if isinstance(value, FfMatrix):
        assert not restored.codes.flags.writeable
    if isinstance(value, list):
        value, restored = tuple(value), tuple(restored)
    assert hash(restored) == hash(value)


def test_census_table_matches_orbit_oracle():
    cases = [
        ("C", 2, 1, 3),
        ("C", 3, 1, 3),
        ("C", 3, 2, 3),
        ("D", 3, 2, 3),
        ("U", 2, 1, 3),
        ("C", 2, 1, 5),
    ]
    for x, n, d, q in cases:
        params = P(x, n, d)
        numeric = census_table(params).counts_at(q)
        oracle = orbit_census(params, q)
        got = {row.e: (row.degree, row.char_count) for row in oracle.rows}
        assert numeric == got, (x, n, d, q)


def test_the_orbit_oracle_reads_two_byte_digits_past_255():
    # over F_257 a digit no longer fits a byte: the frames' sample points and
    # the walk's coordinates take the least dtype that holds p - 1
    params = P("C", 2, 1)
    oracle = orbit_census(params, 257)
    assert {row.e: (row.degree, row.char_count) for row in oracle.rows} == census_table(params).counts_at(257)


def test_total_poly_counts_conjugacy_classes():
    # frozen class counts from the brute-force oracle
    expected = {
        ("C", 2, 1, 3): 11,
        ("C", 3, 1, 3): 83,
        ("C", 3, 2, 3): 171,
        ("D", 3, 2, 3): 83,
        ("U", 2, 1, 3): 83,
        ("C", 2, 1, 5): 29,
    }
    for (x, n, d, q), classes in expected.items():
        assert census_table(P(x, n, d)).total_poly().eval_at(q) == classes, (x, n, d, q)


def test_sum_of_squares_identity_sweep():
    for x, lo in (("C", 1), ("D", 1), ("U", 1)):
        for n in range(lo, 6):
            dmax = n - 1 if x == "U" else n
            for d in range(0 if x == "U" else 1, dmax + 1):
                params = P(x, n, d)
                assert sum_of_squares_check(params), (x, n, d)
                census = census_table(params)
                assert census.sum_of_squares() == QPoly.q_power(params.order_exponent)


def test_sum_of_squares_fails_for_printed_variant():
    # the printed skew-Hermitian census carries a spurious q - 1 factor,
    # so the squared-degree mass comes out wrong for every type U radical
    for n in range(1, 5):
        for d in range(n):
            assert not sum_of_squares_check(P("U", n, d), variant="printed"), (n, d)
    # types C and D do not depend on the variant at all
    assert sum_of_squares_check(P("C", 4, 2), variant="printed")
    assert sum_of_squares_check(P("D", 4, 2), variant="printed")


def test_sum_of_squares_reads_every_rows_degree(monkeypatch):
    # each row's term is its count shifted by twice its degree's exponent:
    # a degree that is not a power of q raises, a wrong power fails the identity
    params = P("C", 4, 2)
    table = census_table(params)
    for i, row in enumerate(table.rows):
        for degree, raises in ((row.degree * 2, True), (row.degree + 1, True), (row.degree.shifted(1), False)):
            rows = table.rows[:i] + (row._replace(degree=degree),) + table.rows[i + 1 :]
            corrupted = table._replace(rows=rows)
            if raises:
                with pytest.raises(ValueError, match="not a power of q"):
                    corrupted.sum_of_squares()
            else:
                assert corrupted.sum_of_squares() != radical_order(params), (i, degree)
    for x, n, d in (("C", 4, 2), ("D", 5, 3), ("U", 4, 2)):
        with monkeypatch.context() as m:
            m.setattr(charcensus, "degree_poly", lambda params, e: QPoly.q_power(params.k_exponent * e) + 1)
            with pytest.raises(ValueError, match="not a power of q"):
                sum_of_squares_check(P(x, n, d))
        with monkeypatch.context() as m:
            m.setattr(charcensus, "degree_poly", lambda params, e: QPoly.q_power(params.k_exponent * e + 1))
            assert not sum_of_squares_check(P(x, n, d)), (x, n, d)


def test_d_count_equals_explicit_product_form():
    # independent route: prefactor and product quotient assembled by hand
    for n in range(3, 7):
        for d in range(1, n):
            for s in range(0, d // 2 + 1):
                e = 2 * (n - d) * s
                num = QPoly.q_power(2 * d * (n - d) - 2 * e + s * s - s)
                for i in range(2 * s):
                    num = num * (QPoly.q_power(d - i) - 1)
                den = QPoly.one()
                for i in range(1, s + 1):
                    den = den * (QPoly.q_power(2 * i) - 1)
                assert char_count_poly(P("D", n, d), e) == num.exact_div(den), (n, d, s)


def test_c_census_sums_to_symmetric_matrix_count():
    # summing the C layer counts re-derives the full symmetric census mass
    for n in range(2, 6):
        for d in range(1, n):
            total = census_table(P("C", n, d)).total_poly()
            direct = QPoly.zero()
            for r in range(d + 1):
                direct = direct + QPoly.q_power(2 * d * (n - d) - 2 * (n - d) * r) * sym_rank_census(d, r)
            assert total == direct


def test_census_table_rows_are_char_count_poly_per_e():
    # the table reads every row off one rank chain, char_count_poly walks
    # the chain afresh for its one e
    for x in ("C", "D", "U"):
        for n in range(1, 21):
            for d in d_range(x, n):
                for variant in ("corrected", "printed"):
                    params = P(x, n, d)
                    rows = census_table(params, variant).rows
                    assert [row.count for row in rows] == [char_count_poly(params, row.e, variant) for row in rows]


def test_census_table_divides_once_per_chain_step(monkeypatch):
    calls = []
    exact_div = QPoly.exact_div
    monkeypatch.setattr(QPoly, "exact_div", lambda self, other: calls.append(other) or exact_div(self, other))
    census_table(P("C", 100, 50))
    # the sym chain up to rank 50 divides at even ranks only
    assert len(calls) <= 25


def test_census_table_refuses_a_wrong_ratio(monkeypatch):
    # every chain step divides exactly or raises: a wrong divisor, q^(k+2) - 1
    # in place of q^k - 1, must end in ValueError, not in a polynomial
    ratio = census._ratio

    def wrong(kind, n, r):
        factors, k, shift = ratio(kind, n, r)
        return factors, k + 2 if k else 0, shift

    monkeypatch.setattr(census, "_ratio", wrong)
    for x, n, d in (("C", 100, 50), ("D", 8, 6), ("U", 6, 4)):
        with pytest.raises(ValueError, match="not divisible"):
            census_table(P(x, n, d))


def test_qminus1_report_frozen_example():
    report = qminus1_report(P("C", 2, 1))
    assert report == [(0, 0, [1, 2, 1]), (1, 1, [0, 1])]


def test_qminus1_positivity_sweep():
    for x in ("C", "D", "U"):
        for n in range(1, 7):
            dmax = n - 1 if x == "U" else n
            for d in range(0 if x == "U" else 1, dmax + 1):
                for r, e, coeffs in qminus1_report(P(x, n, d)):
                    assert all(c >= 0 for c in coeffs), (x, n, d, e)


def test_counts_at_round_trip():
    census = census_table(P("U", 3, 1))
    at3 = census.counts_at(3)
    assert at3[0] == (1, 3 ** 8)
    # degree (q^2)^e at e = (n - d) * 1 = 2 with q = 3
    assert at3[2][0] == 81
    assert sum(c * deg * deg for deg, c in at3.values()) == 3 ** P("U", 3, 1).order_exponent


def test_radical_order_consistency():
    for x, n, d in [("C", 4, 2), ("D", 5, 3), ("U", 4, 2)]:
        params = P(x, n, d)
        assert census_table(params).order_poly() == radical_order(params)


def test_census_kind_and_block_layout_agree_on_each_types_class():
    # two statements of which symmetry class a type's block lies in: the census name and V's class
    for x in TYPES:
        assert census.CLASSES[charcensus._CENSUS_KIND[x]] is _V_CLASS[x][0]


def test_class_dimension_refuses_an_unknown_class():
    with pytest.raises(ValueError, match="unknown symmetry class"):
        class_dimension(2, "symmetric")
