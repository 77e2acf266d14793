"""Rank census closed forms against the brute-force histogram oracle."""

import random
import sys
from functools import reduce
from itertools import chain, combinations
from operator import mul

import numpy as np
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
    enumerate_class,
    in_class,
    matmul,
    mirror_codes,
    rank,
)
from radchar.gf import FieldCtx, field_create, field_for_order, quadratic_extension
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


def conj_transpose(M: FfMatrix) -> "FfMatrix":
    """Entrywise conjugate of the transpose; needs a quadratic extension."""
    if M.field.base is None:
        raise ValueError("no conjugation defined")
    return FfMatrix(M.field, M.field._frob[M.codes.T])


def _norm_preimage(field: FieldCtx, target: int) -> int:
    # smallest nonzero code c with c * c^Q = target; exists since the norm is onto
    hits = np.flatnonzero(field._mul[np.arange(1, field.q), field._frob[1:]] == target)
    if not hits.size:
        raise ValueError("norm equation has no solution")
    return int(hits[0]) + 1


def skew_hermitian_normal_form(C: FfMatrix):
    """Congruence transform of a skew-Hermitian matrix to alpha * diag(I_r, 0).

    Returns (A, r, alpha) with A invertible, r = rank(C), alpha the code
    of the adjoined generator t, and A C conj(A)^t = alpha * diag(I_r, 0).
    Row vectors are code arrays, combined with the field's tables.
    """
    field = C.field
    if field.base is None:
        raise ValueError("no conjugation defined")
    if not in_class(field, C.codes, SymmetryClass.SKEW_HERMITIAN):
        raise ValueError("matrix is not skew-hermitian")
    ADD, SUB, MUL, INV = field._add, field._sub, field._mul, field._inv
    n = C.shape[0]
    alpha = field.base.q

    def form(x: np.ndarray, y: np.ndarray) -> int:
        return int(matmul(field, matmul(field, x[None], C.codes), field._frob[y][:, None])[0, 0])

    rows = list(np.eye(n, dtype=np.int16))
    pivots: list[np.ndarray] = []
    while rows:
        # the first row the form does not vanish on; failing that, the
        # first v_i + c v_j it does not vanish on, which exists whenever
        # some off-diagonal value form(v_i, v_j) is nonzero
        sums = ((i, ADD[rows[i], MUL[c, rows[j]]]) for i, j in combinations(range(len(rows)), 2) for c in (1, alpha))
        drop, pick = next(((i, v) for i, v in chain(enumerate(rows), sums) if form(v, v)), (-1, None))
        if pick is None:
            break
        target = MUL[alpha, INV[form(pick, pick)]]
        if target >= field.base.q:
            raise ValueError("diagonal ratio must lie in the base field")
        x = MUL[_norm_preimage(field, target), pick]
        if form(x, x) != alpha:
            raise ValueError("scaled pivot must have form value alpha")
        pivots.append(x)
        rows = [SUB[y, MUL[MUL[form(y, x), INV[alpha]], x]] for idx, y in enumerate(rows) if idx != drop]
    r = len(pivots)
    A = FfMatrix(field, np.array(pivots + rows, dtype=np.int16).reshape(n, n))
    if rank(A) != n:
        raise ValueError("transform must be invertible")
    product = matmul(field, matmul(field, A.codes, C.codes), conj_transpose(A).codes)
    if not np.array_equal(product, np.diag([alpha] * r + [0] * (n - r))):
        raise ValueError("normal form identity failed")
    if r != rank(C):
        raise ValueError("pivot count must equal the rank")
    return A, r, alpha


def test_conj_transpose():
    t = F9.base.q  # the code of the adjoined generator t; -t has code 2t = 6
    M = FfMatrix(F9, [[t, 1], [0, t]])
    Mh = conj_transpose(M)
    assert Mh == FfMatrix(F9, [[6, 0], [1, 6]])
    assert conj_transpose(Mh) == M
    with pytest.raises(ValueError, match="no conjugation defined"):
        conj_transpose(FfMatrix(F3, np.eye(2, dtype=np.int16)))


def test_normal_form_exhaustive_small():
    for n in (1, 2):
        for C in enumerate_class(n, SymmetryClass.SKEW_HERMITIAN, F9):
            A, r, alpha = skew_hermitian_normal_form(C)
            assert alpha == F9.base.q
            assert r == rank(C)
            # the defining identity is asserted inside; spot-check shape
            assert A.shape == (n, n)


def test_normal_form_zero_and_scalar():
    t = F9.base.q
    A, r, alpha = skew_hermitian_normal_form(FfMatrix(F9, np.zeros((2, 2), dtype=np.int16)))
    assert (r, alpha) == (0, t)
    assert A == FfMatrix(F9, np.eye(2, dtype=np.int16))
    A, r, alpha = skew_hermitian_normal_form(FfMatrix(F9, [[t]]))
    assert (r, alpha) == (1, t)
    assert A == FfMatrix(F9, np.eye(1, dtype=np.int16))


def test_normal_form_random_larger():
    rng = random.Random(11)
    for field in (F9, F25):
        neg, frob = field._neg, field._frob
        # the trace-zero line, in code order: the codes the skew-Hermitian mirror fixes
        mirror = mirror_codes(field, SymmetryClass.SKEW_HERMITIAN)
        zero_line = np.flatnonzero(mirror == np.arange(field.q)).tolist()
        for _ in range(10):
            M = np.zeros((3, 3), dtype=np.int16)
            for i in range(3):
                M[i, i] = rng.choice(zero_line)
                for j in range(i + 1, 3):
                    c = rng.randrange(field.q)
                    M[i, j] = c
                    M[j, i] = neg[frob[c]]
            C = FfMatrix(field, M)
            A, r, alpha = skew_hermitian_normal_form(C)
            assert r == rank(C)
            assert alpha == field.base.q


def test_normal_form_checks_raise(monkeypatch):
    C = FfMatrix(F9, [[F9.base.q, 0], [0, 0]])
    with monkeypatch.context() as m:
        m.setattr(sys.modules[__name__], "rank", lambda M: -1)
        with pytest.raises(ValueError, match="transform must be invertible"):
            skew_hermitian_normal_form(C)
    with monkeypatch.context() as m:
        m.setattr(sys.modules[__name__], "_norm_preimage", lambda field, target: 1)
        with pytest.raises(ValueError, match="form value alpha"):
            skew_hermitian_normal_form(FfMatrix(F9, F9._mul[2, C.codes]))


def test_scaled_identity_classes_coincide():
    # every rank-r skew-Hermitian matrix is congruent to a*diag(I_r, 0)
    # for every nonzero trace-zero a, so the per-scalar classes are all
    # the same set; this is the experiment behind the corrected variant
    t = F9.base.q
    for C in enumerate_class(2, SymmetryClass.SKEW_HERMITIAN, F9):
        A, r, alpha = skew_hermitian_normal_form(C)
        for lam in range(1, 3):
            # rescale the transform by a c with norm(c) = lam
            B = F9._mul[_norm_preimage(F9, lam), A.codes]
            target = np.diag([F9._mul[lam, t]] * r + [0] * (2 - r))
            assert np.array_equal(matmul(F9, matmul(F9, B, C.codes), F9._frob[B.T]), target)


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
