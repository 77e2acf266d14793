"""Matrix layer: products, ranks, symmetry classes."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from radchar.falinalg import (
    BLOCK,
    FfMatrix,
    SymmetryClass,
    class_size,
    enumerate_class,
    in_class,
    leading_columns,
    matmul,
    mirror_codes,
    rank,
    ranks,
)
from radchar.gf import field_create

F3 = field_create(3)
F9 = field_create(3, 2)


def random_matrix(field, rows, cols, rng):
    return np.array([[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)], dtype=np.int16)


def random_invertible(field, n, rng):
    while True:
        M = random_matrix(field, n, n, rng)
        if ranks(field, M) == n:
            return M


def test_rank_basics():
    assert rank(FfMatrix(F3, [[1, 2], [2, 1]])) == 1
    assert rank(FfMatrix(F3, [[1, 2], [2, 2]])) == 2
    assert rank(FfMatrix(F3, np.eye(4, dtype=np.int16))) == 4
    assert rank(FfMatrix(F3, np.zeros((3, 5), dtype=np.int16))) == 0
    assert rank(FfMatrix(F3, np.zeros((0, 3), dtype=np.int16))) == 0
    assert rank(FfMatrix(F3, np.zeros((0, 0), dtype=np.int16))) == 0


def test_rank_invariant_under_invertible_factors():
    rng = random.Random(7)
    for field in (F3, field_create(5), F9):
        for _ in range(25):
            M = random_matrix(field, 3, 4, rng)
            P = random_invertible(field, 3, rng)
            Q = random_invertible(field, 4, rng)
            assert ranks(field, matmul(field, matmul(field, P, M), Q)) == ranks(field, M)


def test_matmul_and_add():
    X = np.array([[1, 2], [0, 1]], dtype=np.int16)
    Y = np.array([[1, 0], [1, 1]], dtype=np.int16)
    assert matmul(F3, X, Y).tolist() == [[0, 2], [1, 1]]
    assert F3._add[X, Y].tolist() == [[2, 2], [1, 2]]
    with pytest.raises(ValueError, match="shape mismatch"):
        matmul(F3, X, np.zeros((3, 3), dtype=np.int16))


def _mm_reference(field, A, B):
    """The former per-matrix product: add/mul table lookups, inner index looped."""
    ADD, MUL = field._add, field._mul
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int16)
    for t in range(A.shape[1]):
        out = ADD[out, MUL[A[:, t][:, None], B[t, :][None, :]]]
    return out


def _stacked_reference(field, A, B):
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    A = np.broadcast_to(A, lead + A.shape[-2:])
    B = np.broadcast_to(B, lead + B.shape[-2:])
    out = np.zeros(lead + (A.shape[-2], B.shape[-1]), dtype=np.int16)
    for idx in np.ndindex(*lead):
        out[idx] = _mm_reference(field, A[idx], B[idx])
    return out


FIELDS = {3: F3, 5: field_create(5), 9: F9, 25: field_create(5, 2)}


@st.composite
def matmul_operands(draw):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    m, k, n = draw(st.integers(1, 4)), draw(st.integers(0, 4)), draw(st.integers(1, 4))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    # B's stack axes: the same, absent, or broadcast along size-1 axes
    lead_b = draw(st.sampled_from([lead, (), tuple(1 for _ in lead), lead[1:]]))
    codes = st.integers(0, field.q - 1)
    A = draw(arrays(np.int16, lead + (m, k), elements=codes))
    B = draw(arrays(np.int16, lead_b + (k, n), elements=codes))
    return field, A, B


@settings(max_examples=150, deadline=None)
@given(matmul_operands())
def test_matmul_matches_table_lookup_reference(operands):
    field, A, B = operands
    got = matmul(field, A, B)
    assert got.dtype == np.int16
    assert np.array_equal(got, _stacked_reference(field, A, B))


def _rref_reference(field, A):
    """The leading columns of one matrix's reduced row echelon form, by scalar elimination: row swaps,
    each pivot row scaled to a leading 1 and its column cleared from every other row."""
    A = np.array(A, dtype=np.int16, copy=True)
    nrows, ncols = A.shape
    MUL, SUB, INV = field._mul, field._sub, field._inv
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if A[i, c]), -1)
        if piv < 0:
            continue
        A[[r, piv]] = A[[piv, r]]
        A[r] = MUL[int(INV[A[r, c]]), A[r]]
        others = np.arange(nrows) != r
        A[others] = SUB[A[others], MUL[A[others, c][:, None], A[r][None, :]]]
        pivots.append(c)
    if any(A[i, c] != (i == r) for r, c in enumerate(pivots) for i in range(nrows)) or A[len(pivots) :].any():
        raise AssertionError("not in reduced row echelon form")
    return pivots


# F_25 and F_49 take ranks' flat table reads at a * q + b past q = 9; F_289
# and F_1021 take them past q = 181, where an int16 code times q would wrap
RANK_FIELDS = {
    **FIELDS,
    7: field_create(7),
    49: field_create(7, 2),
    289: field_create(17, 2),
    1021: field_create(1021),
}


@st.composite
def rank_stacks(draw):
    field = RANK_FIELDS[draw(st.sampled_from(sorted(RANK_FIELDS)))]
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    lead = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    codes = st.integers(0, field.q - 1)
    if draw(st.booleans()):
        # a product through an inner dimension k has rank at most k
        k = draw(st.integers(0, 3))
        A = matmul(field, draw(arrays(np.int16, lead + (m, k), elements=codes)), draw(arrays(np.int16, (k, n), elements=codes)))
    else:
        A = draw(arrays(np.int16, lead + (m, n), elements=codes))
    # class_blocks consumers may pass a read-only stack
    A.setflags(write=draw(st.booleans()))
    return field, A


@settings(max_examples=300, deadline=None)
@given(rank_stacks())
def test_ranks_match_scalar_elimination(stack):
    field, A = stack
    before = A.copy()
    got = ranks(field, A)
    assert np.array_equal(A, before)
    assert got.shape == A.shape[:-2]
    expected = [len(_rref_reference(field, M)) for M in A.reshape((math.prod(A.shape[:-2]),) + A.shape[-2:])]
    assert got.ravel().tolist() == expected
    if A.ndim == 2:
        assert rank(FfMatrix(field, A)) == expected[0]


def test_leading_columns_match_a_scalar_rref():
    # zero, full-rank and low-rank stacks, square, tall and wide, over a prime, an
    # extension and a large prime field: the mask marks the reduced form's leading columns
    rng = np.random.default_rng(11)
    for field in (F3, F9, RANK_FIELDS[1021]):
        for m, n in ((4, 4), (6, 3), (3, 6), (1, 5), (5, 1)):
            full = np.stack([random_invertible(field, max(m, n), random.Random(int(seed)))[:m, :n] for seed in rng.integers(0, 2 ** 31, 20)])
            low = matmul(field, rng.integers(0, field.q, (20, m, 2)).astype(np.int16), rng.integers(0, field.q, (20, 2, n)).astype(np.int16))
            low[::3, :, 0] = 0  # some without a leading first column
            for A in (np.zeros((3, m, n), dtype=np.int16), full, low):
                expected = np.zeros(A.shape[:-2] + (n,), dtype=bool)
                for k, M in enumerate(A):
                    expected[k, _rref_reference(field, M)] = True
                assert np.array_equal(leading_columns(field, A), expected)
    assert (leading_columns(F3, np.zeros((2, 0, 3), dtype=np.int16)) == np.zeros((2, 3), dtype=bool)).all()
    assert leading_columns(F3, np.zeros((2, 3, 0), dtype=np.int16)).shape == (2, 0)


def test_ranks_scale_by_every_inverse_in_large_fields():
    # [[x, x], [x, x]] has rank 1 only if the pivot row is scaled by exactly 1/x
    for field in (RANK_FIELDS[289], RANK_FIELDS[1021]):
        x = np.arange(1, field.q, dtype=np.int16)
        assert ranks(field, np.broadcast_to(x[:, None, None], (field.q - 1, 2, 2))).tolist() == [1] * (field.q - 1)


def test_ranks_eliminate_a_block_of_matrices_at_a_time():
    # a stack of more than BLOCK matrices is ranked BLOCK at a time: every rank
    # is the rank of its matrix alone, and the elimination temporaries of four
    # BLOCKs peak no higher than those of one
    rng = np.random.default_rng(3)
    for field in (F3, F9):
        A = rng.integers(0, field.q, (4 * BLOCK + 3, 6, 6)).astype(np.int16)
        A[::2] = matmul(field, A[::2, :, :3], A[::2, :3, :])  # rank at most 3
        assert ranks(field, A).tolist() == [int(ranks(field, M)) for M in A]
    A = rng.integers(0, 3, (4 * BLOCK, 12, 12)).astype(np.int16)
    peaks = []
    for stack in (A[:BLOCK], A):
        tracemalloc.start()
        try:
            ranks(F3, stack)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_ranks_of_empty_shapes():
    for shape in [(0, 4), (4, 0), (0, 0), (3, 0, 2), (2, 0, 0), (0, 2, 2)]:
        got = ranks(F9, np.zeros(shape, dtype=np.int16))
        assert got.shape == shape[:-2] and not got.any()
    with pytest.raises(ValueError, match="stack of matrices"):
        ranks(F3, np.zeros(3, dtype=np.int16))


def test_matmul_shape_errors():
    with pytest.raises(ValueError, match="shape mismatch"):
        matmul(F3, np.zeros((2, 3), dtype=np.int16), np.zeros((2, 3), dtype=np.int16))
    with pytest.raises(ValueError, match="shape mismatch"):
        matmul(F9, np.zeros(3, dtype=np.int16), np.zeros((3, 3), dtype=np.int16))


def test_is_in_class():
    assert in_class(F3, FfMatrix(F3, [[1, 2], [2, 0]]).codes, SymmetryClass.SYMMETRIC)
    assert not in_class(F3, FfMatrix(F3, [[1, 2], [1, 0]]).codes, SymmetryClass.SYMMETRIC)
    assert in_class(F3, FfMatrix(F3, [[0, 1], [2, 0]]).codes, SymmetryClass.SKEW_SYMMETRIC)
    assert not in_class(F3, FfMatrix(F3, [[1, 1], [2, 0]]).codes, SymmetryClass.SKEW_SYMMETRIC)
    t = F9.base.q  # the code of the adjoined generator t
    assert in_class(F9, FfMatrix(F9, [[t]]).codes, SymmetryClass.SKEW_HERMITIAN)
    assert not in_class(F9, FfMatrix(F9, [[1]]).codes, SymmetryClass.SKEW_HERMITIAN)
    with pytest.raises(ValueError, match="must be square"):
        in_class(F3, FfMatrix(F3, np.zeros((2, 3), dtype=np.int16)).codes, SymmetryClass.SYMMETRIC)


def _in_class_reference(field, M, cls):
    """Class membership by its definition: M^t = M, M + M^t = 0 or M + conj(M)^t = 0."""
    if cls is SymmetryClass.SYMMETRIC:
        return bool((M.T == M).all())
    return bool((field._add[M, M.T if cls is SymmetryClass.SKEW_SYMMETRIC else field._frob[M.T]] == 0).all())


def test_in_class_tests_a_stack_like_is_in_class():
    # every 2-by-2 matrix over F_3 and F_9, as a (q^2, q^2, 2, 2) stack
    for field, classes in ((F3, (SymmetryClass.SYMMETRIC, SymmetryClass.SKEW_SYMMETRIC)), (F9, tuple(SymmetryClass))):
        stack = np.stack(np.unravel_index(np.arange(field.q ** 4), (field.q,) * 4), axis=-1).astype(np.int16)
        stack = stack.reshape(field.q ** 2, field.q ** 2, 2, 2)
        for cls in classes:
            members = in_class(field, stack, cls)
            assert members.shape == (field.q ** 2, field.q ** 2)
            assert members.sum() == class_size(2, cls, field)
            assert [_in_class_reference(field, M, cls) for M in stack.reshape(-1, 2, 2)] == members.ravel().tolist()
    with pytest.raises(ValueError, match="must be square"):
        in_class(F3, np.zeros((4, 2, 3), dtype=np.int16), SymmetryClass.SYMMETRIC)
    with pytest.raises(ValueError, match="no conjugation defined"):
        in_class(F3, np.zeros((4, 2, 2), dtype=np.int16), SymmetryClass.SKEW_HERMITIAN)


def test_enumerate_class_counts_and_membership():
    cases = [
        (2, SymmetryClass.SYMMETRIC, F3, 27),
        (3, SymmetryClass.SKEW_SYMMETRIC, F3, 27),
        (2, SymmetryClass.SKEW_HERMITIAN, F9, 81),
        (1, SymmetryClass.SKEW_HERMITIAN, F9, 3),
    ]
    for n, cls, field, expected in cases:
        assert class_size(n, cls, field) == expected
        seen = list(enumerate_class(n, cls, field))
        assert len(seen) == expected
        assert len(set(seen)) == expected
        assert all(in_class(field, M.codes, cls) for M in seen)
        assert seen[0].is_zero()


def test_enumerate_class_deterministic_order():
    first = list(enumerate_class(2, SymmetryClass.SYMMETRIC, F3))[:4]
    # free entries (0,0), (0,1), (1,1) with the last one moving fastest
    assert first[0] == FfMatrix(F3, [[0, 0], [0, 0]])
    assert first[1] == FfMatrix(F3, [[0, 0], [0, 1]])
    assert first[2] == FfMatrix(F3, [[0, 0], [0, 2]])
    assert first[3] == FfMatrix(F3, [[0, 1], [1, 0]])


def test_enumerate_class_budget():
    with pytest.raises(ValueError, match="enumeration too large"):
        enumerate_class(10, SymmetryClass.SYMMETRIC, F3, budget=10 ** 6)


def test_skew_ranks_are_even():
    for M in enumerate_class(3, SymmetryClass.SKEW_SYMMETRIC, F3):
        assert rank(M) % 2 == 0


def test_gram_matrix_symmetric_pairing_perfect():
    # tr(XY) on 2x2 symmetric matrices over F_3 is a perfect pairing
    basis = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]]], dtype=np.int16)
    products = matmul(F3, basis[:, None], basis[None, :])
    assert ranks(F3, F3._add[products[..., 0, 0], products[..., 1, 1]]) == 3


def test_reversal_matrix():
    # the antidiagonal permutation, read from a reversed view of the identity
    J = FfMatrix(F3, np.eye(3, dtype=np.int16)[::-1])
    assert np.array_equal(matmul(F3, J.codes, J.codes), np.eye(3))
    assert J == FfMatrix(F3, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_non_integer_codes_are_refused():
    # a float or string code is refused, not truncated
    for data in ([[1.7, 2.2]], [["2"]], [[1.0]], [[True]]):
        with pytest.raises(TypeError, match="must be integers"):
            FfMatrix(F3, data)
    for array in (np.array([[1.7, 2.2]]), np.array([[1.0]]), np.array([[True]])):
        with pytest.raises(TypeError, match="must be integers"):
            FfMatrix(F3, array)
    # integer codes of any width are taken, and range-checked before the int16 cast
    assert FfMatrix(F3, [[np.int64(1), np.uint8(2)]]) == FfMatrix(F3, [[1, 2]])
    assert FfMatrix(F3, np.array([[1, 2]], dtype=np.uint64)) == FfMatrix(F3, [[1, 2]])
    with pytest.raises(ValueError, match="out of range"):
        FfMatrix(F3, np.array([[2 ** 16 + 1]]))
    # an empty list is the 0-by-0 matrix; an empty array keeps its shape
    assert FfMatrix(F3, []).shape == (0, 0)
    assert FfMatrix(F3, np.zeros((0, 3), dtype=np.int16)).shape == (0, 3)


def test_constructor_copies_the_callers_array():
    # the matrix holds a read-only copy: the caller's array stays writable and apart
    for dtype in (np.int16, np.int64):
        A = np.ones((2, 2), dtype=dtype)
        M = FfMatrix(F3, A)
        A[0, 0] = 2
        assert M.codes[0, 0] == 1 and not M.codes.flags.writeable


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: FfMatrix(F3, np.zeros(3, dtype=np.int16)), ValueError, "codes array must be two-dimensional"),
        (lambda: FfMatrix(F3, [[3]]), ValueError, "element code out of range"),
        (lambda: FfMatrix(F3, [[1, 2], [1]]), ValueError, "ragged rows"),
        (lambda: FfMatrix(F3, [[2 ** 70]]), TypeError, "element codes must be integers"),
        (lambda: mirror_codes(F3, "symmetric"), ValueError, "unknown symmetry class"),
        (lambda: class_size(2, SymmetryClass.SKEW_HERMITIAN, F3), ValueError, "no conjugation defined"),
    ],
)
def test_matrix_layer_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
