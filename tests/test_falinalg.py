"""Matrix layer: ranks, symmetry classes, pairings."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from radchar.falinalg import (
    FfMatrix,
    SymmetryClass,
    class_size,
    enumerate_class,
    in_class,
    matmul,
    rank,
    ranks,
    trace_pairing,
    twisted_trace_pairing,
)
from radchar.gf import field_create, frobenius, quadratic_extension

F3 = field_create(3)
F9 = field_create(3, 2)


def random_matrix(field, rows, cols, rng):
    return FfMatrix(field, [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)])


def random_invertible(field, n, rng):
    while True:
        M = random_matrix(field, n, n, rng)
        if rank(M) == n:
            return M


def test_rank_basics():
    assert rank(FfMatrix(F3, [[1, 2], [2, 1]])) == 1
    assert rank(FfMatrix(F3, [[1, 2], [2, 2]])) == 2
    assert rank(FfMatrix.identity(F3, 4)) == 4
    assert rank(FfMatrix.zeros(F3, 3, 5)) == 0
    assert rank(FfMatrix.zeros(F3, 0, 3)) == 0
    assert rank(FfMatrix.zeros(F3, 0, 0)) == 0


def test_rank_invariant_under_invertible_factors():
    rng = random.Random(7)
    for field in (F3, field_create(5), F9):
        for _ in range(25):
            M = random_matrix(field, 3, 4, rng)
            P = random_invertible(field, 3, rng)
            Q = random_invertible(field, 4, rng)
            assert rank(P @ M @ Q) == rank(M)


def test_matmul_and_add():
    X = FfMatrix(F3, [[1, 2], [0, 1]])
    Y = FfMatrix(F3, [[1, 0], [1, 1]])
    assert X @ Y == FfMatrix(F3, [[0, 2], [1, 1]])
    assert X + Y == FfMatrix(F3, [[2, 2], [1, 2]])
    assert X - X == FfMatrix.zeros(F3, 2, 2)
    assert 2 * X == FfMatrix(F3, [[2, 1], [0, 2]])
    with pytest.raises(ValueError, match="shape mismatch"):
        X @ FfMatrix.zeros(F3, 3, 3)


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
    if A.ndim == 2 and B.ndim == 2:
        product = FfMatrix.from_codes(field, A) @ FfMatrix.from_codes(field, B)
        assert np.array_equal(product.codes, got)


def _rank_reference(field, A):
    """The former scalar rank: one matrix, row swaps, elimination below each pivot."""
    A = np.array(A, dtype=np.int16, copy=True)
    nrows, ncols = A.shape
    if nrows == 0 or ncols == 0:
        return 0
    MUL, SUB, INV = field._mul, field._sub, field._inv
    r = 0
    for c in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if A[i, c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r, c:] = MUL[int(INV[A[r, c]]), A[r, c:]]
        below = A[r + 1 :, c]
        if below.size:
            A[r + 1 :, c:] = SUB[A[r + 1 :, c:], MUL[below[:, None], A[r, c:][None, :]]]
        r += 1
        if r == nrows:
            break
    return r


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
    expected = [_rank_reference(field, M) for M in A.reshape((math.prod(A.shape[:-2]),) + A.shape[-2:])]
    assert got.ravel().tolist() == expected
    if A.ndim == 2:
        assert rank(FfMatrix.from_codes(field, A)) == expected[0]


def test_ranks_scale_by_every_inverse_in_large_fields():
    # [[x, x], [x, x]] has rank 1 only if the pivot row is scaled by exactly 1/x
    for field in (RANK_FIELDS[289], RANK_FIELDS[1021]):
        x = np.arange(1, field.q, dtype=np.int16)
        assert ranks(field, np.broadcast_to(x[:, None, None], (field.q - 1, 2, 2))).tolist() == [1] * (field.q - 1)


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
    t = F9.gen()
    assert in_class(F9, FfMatrix(F9, [[t]]).codes, SymmetryClass.SKEW_HERMITIAN)
    assert not in_class(F9, FfMatrix(F9, [[1]]).codes, SymmetryClass.SKEW_HERMITIAN)
    with pytest.raises(ValueError, match="must be square"):
        in_class(F3, FfMatrix.zeros(F3, 2, 3).codes, SymmetryClass.SYMMETRIC)


# entry (j, i) of a class member, from entry (i, j)
MIRRORS = {
    SymmetryClass.SYMMETRIC: lambda x: x,
    SymmetryClass.SKEW_SYMMETRIC: lambda x: -x,
    SymmetryClass.SKEW_HERMITIAN: lambda x: -frobenius(x),
}


def _in_class_reference(field, M, cls):
    """Class membership by its definition, in FieldElement arithmetic."""
    E = [[field.elem(int(c)) for c in row] for row in M]
    return all(E[j][i] == MIRRORS[cls](E[i][j]) for i in range(len(E)) for j in range(len(E)))


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


def test_trace_pairing():
    X = FfMatrix(F3, [[1, 2], [0, 1]])
    Y = FfMatrix(F3, [[1, 0], [1, 1]])
    assert trace_pairing(X, Y) == F3.one()
    t = F9.gen()
    assert trace_pairing(FfMatrix(F9, [[t]]), FfMatrix.identity(F9, 1)) == t
    assert twisted_trace_pairing(FfMatrix(F9, [[t]]), FfMatrix.identity(F9, 1)) == F3.zero()
    assert twisted_trace_pairing(FfMatrix(F9, [[1]]), FfMatrix.identity(F9, 1)) == F3.elem(2)
    with pytest.raises(ValueError, match="square product"):
        trace_pairing(FfMatrix.zeros(F3, 2, 3), FfMatrix.zeros(F3, 3, 3))


def test_gram_matrix_symmetric_pairing_perfect():
    # tr(XY) on 2x2 symmetric matrices over F_3 is a perfect pairing
    basis = [
        FfMatrix(F3, [[1, 0], [0, 0]]),
        FfMatrix(F3, [[0, 0], [0, 1]]),
        FfMatrix(F3, [[0, 1], [1, 0]]),
    ]
    G = FfMatrix(F3, [[trace_pairing(x, y) for y in basis] for x in basis])
    assert rank(G) == 3


def test_reversal_matrix():
    # the antidiagonal permutation, read from a reversed view of the identity
    J = FfMatrix.from_codes(F3, np.eye(3, dtype=np.int16)[::-1])
    assert J @ J == FfMatrix.identity(F3, 3)
    assert J == FfMatrix(F3, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_getitem_blocks():
    M = FfMatrix(F3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert M[0, 2] == F3.elem(2)
    assert M[0:2, 1:3] == FfMatrix(F3, [[1, 2], [2, 0]])
    assert M[1, :] == FfMatrix(F3, [[1, 2, 0]])
    assert M[:, 0].shape == (3, 1)
    # numpy integer indices orient the block like int ones: by which index is a slice
    assert M[np.int64(1), :] == FfMatrix(F3, [[1, 2, 0]])
    assert M[np.int16(1), 0:2] == FfMatrix(F3, [[1, 2]])
    assert M[:, np.int64(0)] == FfMatrix(F3, [[0], [1], [2]])
    assert M[np.int64(0), np.int64(2)] == F3.elem(2)


def test_non_integer_codes_are_refused():
    # a float or string code is refused, not truncated
    for data in ([[1.7, 2.2]], [["2"]], [[1.0]]):
        with pytest.raises(TypeError, match="must be integers"):
            FfMatrix(F3, data)
    for array in (np.array([[1.7, 2.2]]), np.array([[1.0]]), np.array([[True]])):
        with pytest.raises(TypeError, match="must be integers"):
            FfMatrix.from_codes(F3, array)
    # integer codes of any width are taken, and range-checked before the int16 cast
    assert FfMatrix(F3, [[np.int64(1), np.uint8(2)]]) == FfMatrix(F3, [[1, 2]])
    assert FfMatrix.from_codes(F3, np.array([[1, 2]], dtype=np.uint64)) == FfMatrix(F3, [[1, 2]])
    with pytest.raises(ValueError, match="out of range"):
        FfMatrix.from_codes(F3, np.array([[2 ** 16 + 1]]))
