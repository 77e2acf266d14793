"""Rank census closed forms against the brute-force histogram oracle."""

from functools import reduce
from operator import mul

import pytest

from radchar.census import (
    CLASSES,
    attainable_ranks,
    brute_rank_census,
    census_polynomial,
    rank_censuses,
    skew_rank_census,
    skewherm_rank_census,
    sym_rank_census,
)
from radchar.falinalg import (
    BLOCK,
    FfMatrix,
    SymmetryClass,
    class_size,
    conj_transpose,
    enumerate_class,
    rank,
    skew_hermitian_normal_form,
)
from radchar.gf import field_create, field_for_order, norm, quadratic_extension
from radchar.qpoly import QPoly

q = QPoly.q()

F3 = field_create(3)
F5 = field_create(5)
F9 = field_create(3, 2)
F25 = field_create(5, 2)


def _quotient_parts(kind, n, r, variant="corrected"):
    # the paper's quotient formulas: the numerator built in full, and the
    # denominator's factors, each monic
    if kind == "herm":
        num = QPoly.q_power(r * (r - 1) // 2)
        for i in range(n - r + 1, n + 1):
            num = num * (QPoly.q_power(2 * i) - 1)
        if variant == "printed":
            num = num * (q - 1)
        return num, [QPoly.q_power(s) - (-1) ** s for s in range(1, r + 1)]
    s = r // 2
    num = QPoly.q_power(s * s + s if kind == "sym" else s * s - s)
    for i in range(r):
        num = num * (QPoly.q_power(n - i) - 1)
    return num, [QPoly.q_power(2 * i) - 1 for i in range(1, s + 1)]


def _quotient_reference(kind, n, r, variant="corrected"):
    # divided once by the whole denominator; it is monic, so the exact
    # division stays in Z[q]
    num, dens = _quotient_parts(kind, n, r, variant)
    return num.exact_div(reduce(mul, dens, QPoly.one()))


def test_product_forms_match_quotient_reference():
    for n in range(13):
        for r in range(n + 1):
            assert sym_rank_census(n, r) == _quotient_reference("sym", n, r), (n, r)
            if r % 2 == 0:
                assert skew_rank_census(n, r) == _quotient_reference("skew", n, r), (n, r)
            for variant in ("corrected", "printed"):
                got = skewherm_rank_census(n, r, variant)
                assert got == _quotient_reference("herm", n, r, variant), (n, r, variant)


def test_rank_censuses_match_quotient_reference_to_n_40():
    # cross-multiplied, count * denominator == numerator: the same identity
    # in Z[q] as _quotient_reference's division, but through products by
    # sparse factors, where dividing by the dense denominator at n = 40
    # would take several times as long
    for n in range(41):
        for kind, variant in (("sym", "corrected"), ("skew", "corrected"), ("herm", "corrected"), ("herm", "printed")):
            counts = rank_censuses(kind, n, variant)
            assert list(counts) == list(attainable_ranks(kind, n))
            for r, count in counts.items():
                num, dens = _quotient_parts(kind, n, r, variant)
                assert reduce(mul, dens, count) == num, (kind, n, r, variant)


def test_frozen_small_values():
    assert sym_rank_census(2, 0) == QPoly.one()
    assert sym_rank_census(2, 1) == q ** 2 - 1
    assert sym_rank_census(2, 2) == q ** 2 * (q - 1)
    assert skew_rank_census(3, 2) == q ** 3 - 1
    assert skew_rank_census(4, 4) == q ** 2 * (q ** 3 - 1) * (q - 1)
    assert skewherm_rank_census(1, 1) == q - 1
    assert skewherm_rank_census(2, 1) == (q - 1) * (q ** 2 + 1)
    assert skewherm_rank_census(2, 2) == q * (q ** 2 + 1) * (q - 1)


def test_frozen_brute_histograms():
    assert brute_rank_census(2, SymmetryClass.SYMMETRIC, F3) == {0: 1, 1: 8, 2: 18}
    assert brute_rank_census(3, SymmetryClass.SKEW_SYMMETRIC, F3) == {0: 1, 2: 26}
    assert brute_rank_census(1, SymmetryClass.SKEW_HERMITIAN, F9) == {0: 1, 1: 2}
    assert brute_rank_census(2, SymmetryClass.SKEW_HERMITIAN, F9) == {0: 1, 1: 20, 2: 60}


def test_sym_census_matches_brute():
    for field in (F3, F5):
        for n in (1, 2, 3):
            hist = brute_rank_census(n, SymmetryClass.SYMMETRIC, field)
            for r in range(n + 1):
                assert sym_rank_census(n, r).eval_at(field.q) == hist.get(r, 0)


def test_skew_census_matches_brute():
    for field, nmax in ((F3, 4), (F5, 4)):
        for n in range(1, nmax + 1):
            hist = brute_rank_census(n, SymmetryClass.SKEW_SYMMETRIC, field)
            for r in range(0, n + 1, 2):
                assert skew_rank_census(n, r).eval_at(field.q) == hist.get(r, 0)


def test_skewherm_census_matches_brute():
    cases = [(F9, 1), (F9, 2), (F9, 3), (F25, 1), (F25, 2)]
    for ext, n in cases:
        base_q = ext.base.q
        hist = brute_rank_census(n, SymmetryClass.SKEW_HERMITIAN, ext)
        for r in range(n + 1):
            assert skewherm_rank_census(n, r).eval_at(base_q) == hist.get(r, 0)


def test_brute_histograms_equal_the_closed_forms_on_the_ranks_suite_grid():
    # the classes verify --suite ranks checks; the largest span several
    # blocks of class_blocks, whose histograms brute_rank_census sums
    grid = [("sym", n, q) for n in (1, 2, 3) for q in (3, 5)]
    grid += [("skew", n, 3) for n in (1, 2, 3, 4)]
    grid += [("herm", n, q) for n in (1, 2) for q in (3, 5)] + [("herm", 3, 3)]
    sizes = []
    for kind, n, q in grid:
        base = field_for_order(q)
        field = quadratic_extension(base) if kind == "herm" else base
        sizes.append(class_size(n, CLASSES[kind], field))
        expected = {r: p.eval_at(q) for r, p in rank_censuses(kind, n).items()}
        assert brute_rank_census(n, CLASSES[kind], field) == expected, (kind, n, q)
    assert max(sizes) > 4 * BLOCK


def test_printed_variant_fails_brute_at_n1():
    hist = brute_rank_census(1, SymmetryClass.SKEW_HERMITIAN, F9)
    assert skewherm_rank_census(1, 1, "printed").eval_at(3) == 4
    assert hist[1] == 2


def test_completeness_identities():
    for n in range(9):
        total = sum((sym_rank_census(n, r) for r in range(n + 1)), QPoly.zero())
        assert total == QPoly.q_power(n * (n + 1) // 2)
        total = sum((skew_rank_census(n, r) for r in range(0, n + 1, 2)), QPoly.zero())
        assert total == QPoly.q_power(n * (n - 1) // 2)
        total = sum((skewherm_rank_census(n, r) for r in range(n + 1)), QPoly.zero())
        assert total == QPoly.q_power(n * n)


def test_printed_variant_breaks_completeness():
    for n in range(1, 9):
        total = sum(
            (skewherm_rank_census(n, r, "printed") for r in range(n + 1)), QPoly.zero()
        )
        assert total != QPoly.q_power(n * n)
        assert total == (q - 1) * QPoly.q_power(n * n)


def test_printed_is_qminus1_times_corrected():
    for n in range(5):
        for r in range(n + 1):
            assert skewherm_rank_census(n, r, "printed") == (q - 1) * skewherm_rank_census(n, r)


def test_qminus1_positivity_of_censuses():
    for n in range(9):
        for r in range(n + 1):
            for p in (
                sym_rank_census(n, r),
                skewherm_rank_census(n, r),
                skew_rank_census(n, r) if r % 2 == 0 else None,
            ):
                if p is None:
                    continue
                assert all(c >= 0 for c in p.to_qminus1_basis())


def test_scaled_identity_classes_coincide():
    # every rank-r skew-Hermitian matrix is congruent to a*diag(I_r, 0)
    # for every nonzero trace-zero a, so the per-scalar classes are all
    # the same set; this is the experiment behind the corrected variant
    t = F9.gen()
    for C in enumerate_class(2, SymmetryClass.SKEW_HERMITIAN, F9):
        A, r, alpha = skew_hermitian_normal_form(C)
        for lam_code in range(1, 3):
            lam = F3.elem(lam_code)
            # find c with norm(c) = lam and rescale the transform
            c = next(x for x in F9.elements() if x.code and norm(x) == lam)
            B = c * A
            scaled = F9.elem(lam.code) * t
            target = FfMatrix(
                F9, [[(scaled if i == j and i < r else F9.zero()) for j in range(2)] for i in range(2)]
            )
            assert B @ C @ conj_transpose(B) == target


def test_census_errors():
    with pytest.raises(ValueError, match="rank out of range"):
        sym_rank_census(2, 3)
    with pytest.raises(ValueError, match="rank out of range"):
        skew_rank_census(2, -2)
    with pytest.raises(ValueError, match="skew-symmetric rank must be even"):
        skew_rank_census(3, 1)
    with pytest.raises(ValueError, match="unknown variant"):
        skewherm_rank_census(2, 1, "fixed")
    with pytest.raises(ValueError, match="unknown census kind"):
        census_polynomial("hermitian", 2, 1)
    with pytest.raises(ValueError, match="unknown census kind"):
        rank_censuses("hermitian", 2)
    with pytest.raises(ValueError, match="matrix size must be nonnegative"):
        rank_censuses("sym", -1)
    with pytest.raises(ValueError, match="unknown variant"):
        rank_censuses("herm", 2, "fixed")
    with pytest.raises(ValueError, match="enumeration too large"):
        brute_rank_census(4, SymmetryClass.SYMMETRIC, F3, budget=100)


def test_census_polynomial_dispatch():
    assert census_polynomial("sym", 2, 1) == sym_rank_census(2, 1)
    assert census_polynomial("skew", 4, 2) == skew_rank_census(4, 2)
    assert census_polynomial("herm", 2, 1, "printed") == skewherm_rank_census(2, 1, "printed")


def test_census_polynomial_checks_the_variant_for_every_kind():
    # sym and skew have one variant, but a misspelt one must not pass silently
    for kind in CLASSES:
        with pytest.raises(ValueError, match="unknown variant"):
            census_polynomial(kind, 2, 1, "bogus")


def test_attainable_ranks_are_the_ranks_enumeration_finds():
    for kind, top in (("sym", 3), ("skew", 4), ("herm", 2)):
        field = F9 if kind == "herm" else F3
        for n in range(top + 1):
            hist = brute_rank_census(n, CLASSES[kind], field)
            assert sorted(hist) == list(attainable_ranks(kind, n)), (kind, n)
