"""Matrices over the small finite fields, as arrays of element codes.

An FfMatrix wraps a read-only numpy int16 array of codes together with
its FieldCtx.  Its one constructor, FfMatrix(field, data), takes a code
array or nested lists of codes, is the one place codes are checked, and
keeps a copy.  The one matrix product, matmul, and the one Gaussian
elimination, leading_columns, work on code arrays and broadcast over
leading stack axes.  Over a prime field the product is an int64 integer
product reduced mod p, over an extension field a loop of add/mul table
lookups; the elimination is table lookups, ranks counts its leading
columns, and rank is ranks on one FfMatrix.  No step
ever leaves exact field arithmetic.  matmul serves orbitmethod: the
group law (products, inverses, decomposition), the one block product of
the element enumeration and the pairing Gram matrix; conjugation there
(of unit matrices and sample points by the walks, of one dual by
coadjoint_act) is sparse row and column updates instead.  FfMatrix has
no arithmetic operators: a caller computes on its codes.

The three symmetry classes used downstream are plain symmetric
(M^t = M), skew-symmetric (M^t = -M, zero diagonal since the
characteristic is odd), and skew-Hermitian over a quadratic extension
(conj(M)^t = -M, diagonal on the trace-zero line).  class_blocks
enumerates a class exhaustively as code stacks in a deterministic order:
free positions are visited row by row and the candidate codes ascend, so
the first free entry is the most significant digit.  in_class tests
membership of every matrix of a code stack.  Both, and orbitmethod's
block links, read a class's one mirror table, mirror_codes: the code map
from entry (i, j) of a member to entry (j, i).
"""

from __future__ import annotations

import math

import numpy as np

from .gf import BudgetExceeded, FieldCtx
from .params import DEFAULT_ENUM_BUDGET, SymmetryClass, class_dimension

__all__ = [
    "FfMatrix",
    "matmul",
    "SymmetryClass",
    "leading_columns",
    "ranks",
    "rank",
    "mirror_codes",
    "in_class",
    "class_dimension",
    "class_size",
    "class_blocks",
    "enumerate_class",
]

# matrices per stacked step of an enumeration, rank or product: bounds the
# int64 and index temporaries, which set the peak memory of the oracles.
# verify --suite ranks takes 34-43 ms at 256 and 21-27 ms at 1024, no
# faster at 2048 or 4096; the verify_all and oracle_large benchmarks peak at
# 34.7-34.9 and 34.6-34.8 MB RSS at 256, 35.1 and 34.6 MB at 1024 (2 Xeon vCPUs)
BLOCK = 1024


class FfMatrix:
    """An immutable matrix over a FieldCtx, stored as element codes."""

    __slots__ = ("field", "codes")

    def __init__(self, field: FieldCtx, data):
        try:
            array = np.asarray(data)
        except ValueError:
            raise ValueError("ragged rows") from None
        if array.dtype.kind not in "iu":
            if array.size:
                raise TypeError("element codes must be integers")
            # empty lists read as float, and [] as one axis: the 0-by-0 matrix
            array = np.zeros(array.shape if array.ndim != 1 else (0, 0), dtype=np.int16)
        if array.ndim != 2:
            raise ValueError("codes array must be two-dimensional")
        # checked before the int16 cast, which would wrap a wide code into range
        if array.size and (array.min() < 0 or array.max() >= field.q):
            raise ValueError("element code out of range")
        codes = array.astype(np.int16)
        codes.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "codes", codes)

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    def __reduce__(self):
        return FfMatrix, (self.field, self.codes)

    @property
    def shape(self) -> tuple[int, int]:
        return self.codes.shape

    def __eq__(self, other) -> bool:
        if not isinstance(other, FfMatrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and np.array_equal(self.codes, other.codes)
        )

    def __hash__(self) -> int:
        return hash((self.field._key, self.shape, self.codes.tobytes()))

    def is_zero(self) -> bool:
        return not self.codes.any()

    def __repr__(self) -> str:
        return f"FfMatrix(GF({self.field.q}), {self.codes.tolist()!r})"


def matmul(field: FieldCtx, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product of code arrays A[..., m, k] and B[..., k, n] over a field.

    Leading stack axes broadcast as in numpy.matmul; the result is int16.
    Over a prime field codes are below p < 2^15, so each int64 term is
    below 2^30 and a sum over k < 2^33 terms cannot overflow: one
    reduction mod p suffices.  Over an extension field the inner index is
    summed with the add/mul tables.
    """
    A, B = np.asarray(A), np.asarray(B)
    if A.ndim < 2 or B.ndim < 2 or A.shape[-1] != B.shape[-2]:
        raise ValueError("shape mismatch in matrix product")
    if field.base is None:
        out = A.astype(np.int64) @ B.astype(np.int64)
        out %= field.p
        return out.astype(np.int16)
    ADD, MUL = field._add, field._mul
    shape = np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (A.shape[-2], B.shape[-1])
    out = np.zeros(shape, dtype=np.int16)
    for t in range(A.shape[-1]):
        out = ADD[out, MUL[A[..., :, t, None], B[..., None, t, :]]]
    return out


def leading_columns(field: FieldCtx, A: np.ndarray) -> np.ndarray:
    """The leading columns of each matrix's echelon form, as a bool mask of shape A.shape[:-2] + (n,).

    Row-echelon elimination of BLOCK matrices at a time, row by row, on an
    intp copy (A is never written): the pivot of row i is its first
    nonzero entry; that row, scaled to a leading 1, clears its pivot column
    from the rows below it only.  The nonzero rows met then lead in distinct
    columns, so they are a basis of the row space whose leading columns are
    those of every echelon form, the reduced one included.  Table reads are
    flat, at a * q + b.  A matrix with no rows or columns has none.
    """
    A = np.asarray(A)
    if A.ndim < 2:
        raise ValueError("leading_columns and ranks take a matrix or a stack of matrices")
    m, n = A.shape[-2:]
    stacked = A.reshape((math.prod(A.shape[:-2]), m, n))
    # the inverse codes are widened before they meet q: int16 code * q wraps past q = 181
    q, MUL, SUB, INV = field.q, field._mul.ravel(), field._sub.ravel(), field._inv.astype(np.intp)
    leading = np.zeros((len(stacked), n), dtype=bool)
    for start in range(0, len(stacked), BLOCK):
        W = stacked[start : start + BLOCK].astype(np.intp)
        stack = np.arange(len(W))
        marks, first = leading[start : start + BLOCK].ravel(), stack * n  # a view: marks go into leading
        # with no columns every row is zero (and argmax has nothing to search)
        for i in range(m if n else 0):
            row = W[:, i]
            # a zero row has pivot column 0 and leading entry 0: it clears nothing, and its mark on
            # column 0 is overwritten after the loop, column 0 leading exactly when A's first column is nonzero
            c = (row != 0).argmax(axis=-1)
            marks[first + c] = True
            if i + 1 == m:
                break
            row = MUL[INV[row[stack, c]][:, None] * q + row]
            below = W[:, i + 1 :]
            W[:, i + 1 :] = SUB[below * q + MUL[below[stack, :, c][..., None] * q + row[:, None, :]]]
    if n:
        leading[:, 0] = stacked[:, :, 0].any(axis=-1)
    return leading.reshape(A.shape[:-2] + (n,))


def ranks(field: FieldCtx, A: np.ndarray) -> np.ndarray:
    """Rank of every matrix of a code stack A[..., m, n], as an array of shape A.shape[:-2]: its leading columns counted."""
    return leading_columns(field, A).sum(axis=-1, dtype=np.intp)


def rank(M: FfMatrix) -> int:
    """Rank of one matrix; a 0-by-k matrix has rank 0."""
    return int(ranks(M.field, M.codes))


def mirror_codes(field: FieldCtx, cls: SymmetryClass) -> np.ndarray:
    """The code table sending entry (i, j) of a member of cls to entry (j, i): x, -x or -conj(x)."""
    if cls is SymmetryClass.SYMMETRIC:
        return np.arange(field.q, dtype=np.int16)
    if cls is SymmetryClass.SKEW_SYMMETRIC:
        return field._neg
    if cls is SymmetryClass.SKEW_HERMITIAN:
        if field.base is None:
            raise ValueError("no conjugation defined")
        return field._neg[field._frob]
    raise ValueError("unknown symmetry class")


def in_class(field: FieldCtx, A: np.ndarray, cls: SymmetryClass) -> np.ndarray:
    """Whether each matrix of a code stack A[..., n, n] lies in cls, as an array of shape A.shape[:-2]."""
    A = np.asarray(A)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("matrix must be square")
    return (A == mirror_codes(field, cls)[np.swapaxes(A, -1, -2)]).all(axis=(-2, -1))


def class_size(n: int, cls: SymmetryClass, field: FieldCtx) -> int:
    if cls is not SymmetryClass.SKEW_HERMITIAN:
        return field.q ** class_dimension(n, cls)
    if field.base is None:
        raise ValueError("no conjugation defined")
    return field.base.q ** class_dimension(n, cls)


def mixed_radix(radices, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Digits of the integers start .. stop-1 in a mixed radix, one row each.

    The first digit is the most significant; stop defaults to, and is
    clamped to, the product of the radices.  With no radices every row is empty.
    """
    total = math.prod(radices)
    index = np.arange(start, total if stop is None else min(stop, total))
    if not radices:
        return np.zeros((len(index), 0), dtype=np.intp)
    return np.stack(np.unravel_index(index, radices), axis=-1)


def class_blocks(n: int, cls: SymmetryClass, field: FieldCtx, budget: int = DEFAULT_ENUM_BUDGET):
    """All n-by-n matrices of a symmetry class, in a fixed canonical order.

    Yields int16 code stacks of up to BLOCK matrices, so a large class
    streams; refuses up front if the class has more than `budget` members.
    """
    total = class_size(n, cls, field)
    if total > budget:
        raise BudgetExceeded(f"enumeration too large: {total} matrices exceeds budget {budget}")
    # free positions row by row on and above the diagonal; a diagonal entry
    # is its own mirror: zero for skew, on the trace-zero line for skew-Hermitian
    positions = [(i, j) for i in range(n) for j in range(i, n)]
    all_codes, mirror = np.arange(field.q, dtype=np.int16), mirror_codes(field, cls)
    choices = [all_codes[mirror == all_codes] if i == j else all_codes for i, j in positions]

    def generate():
        for s in range(0, total, BLOCK):
            digits = mixed_radix([len(c) for c in choices], s, s + BLOCK)
            stack = np.zeros((len(digits), n, n), dtype=np.int16)
            for (i, j), codes, column in zip(positions, choices, digits.T):
                stack[:, i, j] = codes[column]
                if i != j:
                    stack[:, j, i] = mirror[stack[:, i, j]]
            yield stack

    return generate()


def enumerate_class(n: int, cls: SymmetryClass, field: FieldCtx, budget: int = DEFAULT_ENUM_BUDGET):
    """The matrices of class_blocks one by one, as FfMatrix.

    No route runs it: it stays only because the perfbench tracer wraps it
    by name, and goes when the tracer reads the library's own stages.
    """
    return (FfMatrix(field, M) for stack in class_blocks(n, cls, field, budget) for M in stack)

