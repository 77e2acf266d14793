"""Matrices over the small finite fields, as arrays of element codes.

An FfMatrix wraps a read-only numpy int16 array of codes together with
its FieldCtx.  The one matrix product, matmul, and the one Gaussian
elimination, ranks, work on code arrays and broadcast over leading
stack axes.  Over a prime field the product is an int64 integer product
reduced mod p, over an extension field a loop of add/mul table lookups;
ranks and the entrywise operations are table lookups, and rank is ranks
on one FfMatrix.  No step ever leaves exact field arithmetic.  matmul
serves FfMatrix @, the trace pairings, and in orbitmethod the group law
(products, inverses, decomposition), the one block product of the
element enumeration and the pairing Gram matrix; conjugation there (of
unit matrices and sample points by the walks, of one dual by
coadjoint_act) is sparse row and column updates instead.

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
import operator

import numpy as np

from .gf import BudgetExceeded, FieldCtx, FieldElement, relative_trace
from .params import DEFAULT_ENUM_BUDGET, SymmetryClass, class_dimension

__all__ = [
    "FfMatrix",
    "matmul",
    "SymmetryClass",
    "ranks",
    "rank",
    "mirror_codes",
    "in_class",
    "class_dimension",
    "class_size",
    "class_blocks",
    "enumerate_class",
    "trace_pairing",
    "twisted_trace_pairing",
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
        self._init_raw(field, _codes_from(field, data))

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    @classmethod
    def from_codes(cls, field: FieldCtx, array: np.ndarray, copy: bool = True) -> "FfMatrix":
        # checked before the int16 cast, which would wrap a wide code into range
        array = np.asarray(array)
        if array.dtype.kind not in "iu":
            raise TypeError("element codes must be integers")
        if array.ndim != 2:
            raise ValueError("codes array must be two-dimensional")
        if array.size and (array.min() < 0 or array.max() >= field.q):
            raise ValueError("element code out of range")
        a = np.array(array, dtype=np.int16, copy=copy)
        a.setflags(write=False)
        return cls.__new__(cls)._init_raw(field, a)

    def _init_raw(self, field, a):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "codes", a)
        return self

    @classmethod
    def zeros(cls, field: FieldCtx, rows: int, cols: int) -> "FfMatrix":
        return cls.from_codes(field, np.zeros((rows, cols), dtype=np.int16), copy=False)

    @classmethod
    def identity(cls, field: FieldCtx, n: int) -> "FfMatrix":
        return cls.from_codes(field, np.eye(n, dtype=np.int16), copy=False)

    @property
    def rows(self) -> int:
        return self.codes.shape[0]

    @property
    def cols(self) -> int:
        return self.codes.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.codes.shape

    def entry(self, i: int, j: int) -> FieldElement:
        return self.field.elem(int(self.codes[i, j]))

    def __getitem__(self, key):
        if isinstance(key, tuple) and len(key) == 2:
            i, j = key
            if isinstance(i, slice) or isinstance(j, slice):
                sub = self.codes[i, j]
                if sub.ndim == 1:
                    sub = sub.reshape(-1, 1) if isinstance(i, slice) else sub.reshape(1, -1)
                return FfMatrix.from_codes(self.field, sub)
            return self.entry(i, j)
        raise TypeError("index with a pair (i, j) of ints or slices")

    def __matmul__(self, other: "FfMatrix") -> "FfMatrix":
        self._check_field(other)
        return FfMatrix.from_codes(self.field, matmul(self.field, self.codes, other.codes), copy=False)

    def __add__(self, other: "FfMatrix") -> "FfMatrix":
        return self._entrywise(other, self.field._add)

    def __sub__(self, other: "FfMatrix") -> "FfMatrix":
        return self._entrywise(other, self.field._sub)

    def _entrywise(self, other: "FfMatrix", table: np.ndarray) -> "FfMatrix":
        self._check_field(other)
        if self.shape != other.shape:
            raise ValueError("shape mismatch in matrix sum")
        return FfMatrix.from_codes(self.field, table[self.codes, other.codes], copy=False)

    def __neg__(self) -> "FfMatrix":
        return FfMatrix.from_codes(self.field, self.field._neg[self.codes], copy=False)

    def __rmul__(self, scalar) -> "FfMatrix":
        if isinstance(scalar, int):
            scalar = self.field.elem(scalar % self.field.p)
        if not isinstance(scalar, FieldElement) or scalar.field != self.field:
            return NotImplemented
        return FfMatrix.from_codes(self.field, self.field._mul[scalar.code, self.codes], copy=False)

    __mul__ = __rmul__

    def transpose(self) -> "FfMatrix":
        return FfMatrix.from_codes(self.field, self.codes.T)

    @property
    def T(self) -> "FfMatrix":
        return self.transpose()

    def _check_field(self, other):
        if not isinstance(other, FfMatrix) or other.field != self.field:
            raise ValueError("matrices over different fields")

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


def _codes_from(field: FieldCtx, data) -> np.ndarray:
    rows = []
    for row in data:
        r = []
        for x in row:
            if isinstance(x, FieldElement):
                if x.field != field:
                    raise ValueError("entry from a different field")
                r.append(x.code)
            else:
                try:
                    c = operator.index(x)
                except TypeError:
                    raise TypeError("element codes must be integers") from None
                if not 0 <= c < field.q:
                    raise ValueError("element code out of range")
                r.append(c)
        rows.append(r)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")
    a = np.array(rows, dtype=np.int16) if rows else np.zeros((0, 0), dtype=np.int16)
    if a.ndim == 1:
        a = a.reshape(len(rows), 0)
    a.setflags(write=False)
    return a


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


def ranks(field: FieldCtx, A: np.ndarray) -> np.ndarray:
    """Rank of every matrix of a code stack A[..., m, n], as an array of shape A.shape[:-2].

    Row-echelon elimination of the whole stack at once, row by row, on an
    intp copy (A is never written): the pivot of row i is its first
    nonzero entry; that row, scaled to a leading 1, clears its pivot column
    from the rows below it only.  Every nonzero row met is then the only
    one at or below it with an entry in its pivot column, so the rank is
    the number of nonzero rows.  Table reads are flat, at a * q + b.  A
    matrix with no rows or columns has rank 0.
    """
    A = np.asarray(A)
    if A.ndim < 2:
        raise ValueError("ranks takes a matrix or a stack of matrices")
    m, n = A.shape[-2:]
    W = A.reshape((math.prod(A.shape[:-2]), m, n)).astype(np.intp)
    # the inverse codes are widened before they meet q: int16 code * q wraps past q = 181
    q, MUL, SUB, INV = field.q, field._mul.ravel(), field._sub.ravel(), field._inv.astype(np.intp)
    stack = np.arange(len(W))
    nonzero_rows = np.zeros(len(W), dtype=np.intp)
    # with no columns every row is zero (and argmax has nothing to search)
    for i in range(m if n else 0):
        row = W[:, i]
        nonzero = row != 0
        nonzero_rows += nonzero.any(axis=-1)
        if i + 1 == m:
            break
        # a zero row has pivot column 0, leading entry 0 and clears nothing
        c = nonzero.argmax(axis=-1)
        row = MUL[INV[row[stack, c]][:, None] * q + row]
        below = W[:, i + 1 :]
        W[:, i + 1 :] = SUB[below * q + MUL[below[stack, :, c][..., None] * q + row[:, None, :]]]
    return nonzero_rows.reshape(A.shape[:-2])


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

    The first digit is the most significant; stop defaults to the product
    of the radices.  With no radices every row is empty.
    """
    index = np.arange(start, math.prod(radices) if stop is None else stop)
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
            digits = mixed_radix([len(c) for c in choices], s, min(s + BLOCK, total))
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
    return (FfMatrix.from_codes(field, M, copy=False) for stack in class_blocks(n, cls, field, budget) for M in stack)


def trace_pairing(X: FfMatrix, Y: FfMatrix) -> FieldElement:
    """tr(X Y) for matrices whose product is square."""
    if X.field != Y.field:
        raise ValueError("matrices over different fields")
    if X.cols != Y.rows or X.rows != Y.cols:
        raise ValueError("shapes do not compose to a square product")
    # tr(X Y) sums the entrywise products of X and Y^t: one row times one column
    return X.field.elem(int(matmul(X.field, X.codes.reshape(1, -1), Y.codes.T.reshape(-1, 1))[0, 0]))


def twisted_trace_pairing(X: FfMatrix, Y: FfMatrix) -> FieldElement:
    """tr(X Y) + tr(X Y)^Q, an element of the base field."""
    return relative_trace(trace_pairing(X, Y))
