"""The radical groups as block matrix groups, with coadjoint orbit tools.

Each group R_u lives inside the 2n-by-2n upper block-unitriangular
matrices over an entry field k (k = F_q for types C and D, k = F_{q^2}
for type U) and factors as R_u = A x| H with both factors abelian:

  h(A) places the H-parameter A in the upper-left n-by-n block L and a
  linked copy in the lower-right block N; a(V) places the n-by-n block
  V in the upper-right corner.  Every element is uniquely a(V) h(A).

Block layout of V (rows split (d, n-d); columns split (d, n-d) for
C and D, (n-d, d) for U):

  C, D:  V = [[B1, B2], [B3, 0]]   with V symmetric (C) or skew (D)
  U:     V = [[B1, B2], [0, B3]]   with B2 J_d skew-Hermitian and
                                   B3 = -J_{n-d} conj(B1^t) J_d

Dual elements are lower-left transposed-support matrices, acted on by
H through conjugation followed by projection onto that support.  The
stabilizer of a dual element is cut out by linear equations whose
coefficient matrix is block diagonal (n-d copies of the B1 block for
C and D, of the B2 block for U); its rank e determines the orbit size
|k|^e and the degree |k|^e of the characters the orbit produces.

Everything in this module is exhaustively verifiable: brute-force
orbit enumeration, conjugacy class counting and the pairing checks are
the oracles the symbolic layer is tested against.  Orbit enumeration
and class counting run on one engine: all points stacked as code
matrices, each generator applied to the whole stack in blocks, and
orbits labelled by their least point index.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .falinalg import (
    FfMatrix,
    SymmetryClass,
    enumerate_class,
    gram_matrix,
    matmul,
    rank,
    trace_pairing,
    twisted_trace_pairing,
)
from .gf import FieldCtx, field_for_order, quadratic_extension
from .qpoly import QPoly

__all__ = [
    "RadicalParams",
    "RadicalContext",
    "RadicalElement",
    "DualElement",
    "OrbitRecord",
    "OrbitCensus",
    "radical_order",
    "group_mul",
    "group_inv",
    "coadjoint_act",
    "coefficient_matrix",
    "orbit_of",
    "orbit_partition",
    "orbit_census",
    "class_count_brute",
    "pairing_nondegeneracy_check",
    "dual_index",
    "coadjoint_permutation",
]

TYPES = ("C", "D", "U")

DEFAULT_ORBIT_BUDGET = 10 ** 6
DEFAULT_CLASS_BUDGET = 10 ** 4

# matrices per stacked product: bounds the int64 and index temporaries,
# which set the peak memory of the oracles (1024 was no faster)
_BLOCK = 256


@dataclass(frozen=True)
class RadicalParams:
    """Combinatorial data (type, n, d) of one radical group."""

    x: str
    n: int
    d: int

    def __post_init__(self):
        if self.x not in TYPES:
            raise ValueError("type must be one of C, D, U")
        if self.n < 1:
            raise ValueError("n out of range")
        lo = 0 if self.x == "U" else 1
        hi = self.n - 1 if self.x == "U" else self.n
        if not lo <= self.d <= hi:
            raise ValueError("d out of range")
        if self.x == "C" and self.n < 3:
            warnings.warn("type C with n < 3 is outside the standard Dynkin range; the matrix model is still well defined")
        if self.x == "D" and self.n < 4:
            warnings.warn("type D with n < 4 is outside the standard Dynkin range; the matrix model is still well defined")

    @property
    def k_exponent(self) -> int:
        """|k| = q ** k_exponent for the entry field k."""
        return 2 if self.x == "U" else 1

    @property
    def a_exponent(self) -> int:
        """|A| = q ** a_exponent."""
        n, d = self.n, self.d
        if self.x == "C":
            return d * (d + 1) // 2 + d * (n - d)
        if self.x == "D":
            return d * (d - 1) // 2 + d * (n - d)
        return d * d + 2 * d * (n - d)

    @property
    def h_exponent(self) -> int:
        """|H| = q ** h_exponent."""
        return self.d * (self.n - self.d) * self.k_exponent

    @property
    def order_exponent(self) -> int:
        return self.a_exponent + self.h_exponent


def radical_order(params: RadicalParams) -> QPoly:
    """|R_u| as a power of q."""
    return QPoly.q_power(params.order_exponent)


# Block builders and the enumerations below act on the last two axes, so
# they take a single matrix or a stack of them alike.


def _t(X: np.ndarray) -> np.ndarray:
    return np.swapaxes(X, -1, -2)


def _j_conj_t(field: FieldCtx, X: np.ndarray) -> np.ndarray:
    # -J conj(X)^t J, with the reversal sizes read off from the shape
    return field._neg[field._frob[_t(X)[..., ::-1, ::-1]]]


def _identity_stack(size: int, lead: tuple) -> np.ndarray:
    return np.broadcast_to(np.eye(size, dtype=np.int16), lead + (size, size)).copy()


def _grid(*stacks: np.ndarray) -> tuple:
    """Every choice of one matrix per stack, the last stack varying fastest."""
    picks = np.indices([len(s) for s in stacks]).reshape(len(stacks), -1)
    return tuple(s[i] for s, i in zip(stacks, picks))


class RadicalContext:
    """A radical group realized over a concrete field F_q."""

    def __init__(self, params: RadicalParams, q):
        self.params = params
        self.base_field = q if isinstance(q, FieldCtx) else field_for_order(q)
        self.q = self.base_field.q
        if params.x == "U":
            self.field = quadratic_extension(self.base_field)
        else:
            self.field = self.base_field
        self.k_order = self.base_field.q ** params.k_exponent
        assert self.k_order == (self.field.q if params.x == "U" else self.base_field.q)
        n, d = params.n, params.d
        self.n, self.d = n, d
        self._mask = self._build_mask()

    def _build_mask(self) -> np.ndarray:
        n, d = self.n, self.d
        mask = np.zeros((2 * n, 2 * n), dtype=bool)
        if self.params.x == "U":
            mask[n : 2 * n - d, 0:d] = True
            mask[2 * n - d : 2 * n, 0:n] = True
        else:
            mask[n : n + d, 0:n] = True
            mask[n + d : 2 * n, 0:d] = True
        mask.setflags(write=False)
        return mask

    # -- raw ambient builders (arrays of codes) -------------------------

    def _coerce_block(self, data, shape) -> np.ndarray:
        if isinstance(data, FfMatrix):
            if data.field != self.field:
                raise ValueError("block over the wrong field")
            codes = data.codes
        elif isinstance(data, np.ndarray):
            codes = FfMatrix.from_codes(self.field, data).codes
        else:
            codes = FfMatrix(self.field, data).codes
        if codes.shape != shape:
            raise ValueError(f"block shape {codes.shape} where {shape} expected")
        return codes

    def _h_ambient(self, A: np.ndarray) -> np.ndarray:
        n, d = self.n, self.d
        M = _identity_stack(2 * n, A.shape[:-2])
        M[..., 0:d, d:n] = A
        if self.params.x == "U":
            M[..., n : 2 * n - d, 2 * n - d : 2 * n] = _j_conj_t(self.field, A)
        else:
            M[..., n + d : 2 * n, n : n + d] = self.field._neg[_t(A)]
        return M

    def _a_ambient(self, b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
        n, d = self.n, self.d
        M = _identity_stack(2 * n, b2.shape[:-2])
        if self.params.x == "C":
            M[..., 0:d, n : n + d] = b1
            M[..., 0:d, n + d : 2 * n] = b2
            M[..., d:n, n : n + d] = _t(b2)
        elif self.params.x == "D":
            M[..., 0:d, n : n + d] = b1
            M[..., 0:d, n + d : 2 * n] = b2
            M[..., d:n, n : n + d] = self.field._neg[_t(b2)]
        else:
            M[..., 0:d, n : 2 * n - d] = b1
            M[..., 0:d, 2 * n - d : 2 * n] = b2
            M[..., d:n, 2 * n - d : 2 * n] = _j_conj_t(self.field, b1)
        return M

    # -- element constructors -------------------------------------------

    def element(self, b1, b2, a) -> "RadicalElement":
        """The element a(V) h(A) from the free blocks of V and A.

        For types C and D: b1 is the d-by-d symmetric (skew) block, b2
        the free d-by-(n-d) block.  For type U: b1 is the free
        d-by-(n-d) block, b2 the d-by-d block with b2 J_d
        skew-Hermitian.  a is the H-parameter (A or A1).
        """
        n, d = self.n, self.d
        b1c = self._coerce_block(b1, (d, d) if self.params.x != "U" else (d, n - d))
        b2c = self._coerce_block(b2, (d, n - d) if self.params.x != "U" else (d, d))
        ac = self._coerce_block(a, (d, n - d))
        self._validate_group_blocks(b1c, b2c)
        return RadicalElement(self, b1c, b2c, ac)

    def _validate_group_blocks(self, b1: np.ndarray, b2: np.ndarray) -> None:
        f = self.field
        if self.params.x == "C":
            if not np.array_equal(b1, b1.T):
                raise ValueError("b1 must be symmetric")
        elif self.params.x == "D":
            if not np.array_equal(b1, f._neg[b1.T]):
                raise ValueError("b1 must be skew-symmetric")
        else:
            b2j = b2[:, ::-1]  # B2 J_d
            if not np.array_equal(b2j, f._neg[f._frob[b2j.T]]):
                raise ValueError("b2 J must be skew-Hermitian")

    def identity(self) -> "RadicalElement":
        n, d = self.n, self.d
        z = np.zeros
        if self.params.x == "U":
            return RadicalElement(self, z((d, n - d), dtype=np.int16), z((d, d), dtype=np.int16), z((d, n - d), dtype=np.int16))
        return RadicalElement(self, z((d, d), dtype=np.int16), z((d, n - d), dtype=np.int16), z((d, n - d), dtype=np.int16))

    def h_element(self, a) -> "RadicalElement":
        e = self.identity()
        return self.element(e._b1, e._b2, a)

    def a_element(self, b1, b2) -> "RadicalElement":
        n, d = self.n, self.d
        return self.element(b1, b2, np.zeros((d, n - d), dtype=np.int16))

    # -- stacked enumerations -------------------------------------------

    def _free_stack(self, rows: int, cols: int) -> np.ndarray:
        """Every rows-by-cols matrix; the first entry is the most significant digit."""
        k, q = rows * cols, self.field.q
        digits = np.arange(q ** k)[:, None] // q ** np.arange(k - 1, -1, -1) % q
        return digits.astype(np.int16).reshape(q ** k, rows, cols)

    def _class_stack(self, cls: SymmetryClass) -> np.ndarray:
        return np.stack([M.codes for M in enumerate_class(self.d, cls, self.field)])

    def _v_class(self) -> SymmetryClass:
        return SymmetryClass.SYMMETRIC if self.params.x == "C" else SymmetryClass.SKEW_SYMMETRIC

    def _element_blocks(self) -> tuple:
        """Stacked free blocks (b1, b2, a) of all elements, in enumeration order."""
        free = self._free_stack(self.d, self.n - self.d)
        if self.params.x == "U":
            return _grid(free, self._class_stack(SymmetryClass.SKEW_HERMITIAN)[..., ::-1], free)
        return _grid(self._class_stack(self._v_class()), free, free)

    def _element_stack(self) -> np.ndarray:
        """Ambient codes of all elements, in enumeration order."""
        b1, b2, a = self._element_blocks()
        out = np.empty((len(a), 2 * self.n, 2 * self.n), dtype=np.int16)
        for s in range(0, len(a), _BLOCK):
            block = slice(s, s + _BLOCK)
            out[block] = matmul(self.field, self._a_ambient(b1[block], b2[block]), self._h_ambient(a[block]))
        return out

    def elements(self):
        """All group elements, in a fixed enumeration order."""
        for b1, b2, a in zip(*self._element_blocks()):
            yield RadicalElement(self, b1, b2, a)

    def h_elements(self):
        for a in self._free_stack(self.d, self.n - self.d):
            yield self.h_element(a)

    def h_generators(self) -> list["RadicalElement"]:
        """One-parameter H-elements generating H as a group."""
        n, d = self.n, self.d
        gens = []
        basis_codes = [self.field.p ** k for k in range(self.field.degree)]
        for i in range(d):
            for j in range(n - d):
                for b in basis_codes:
                    A = np.zeros((d, n - d), dtype=np.int16)
                    A[i, j] = b
                    gens.append(self.h_element(A))
        return gens

    def generators(self) -> list["RadicalElement"]:
        """One-parameter elements generating all of R_u."""
        gens = list(self.h_generators())
        zero1 = np.zeros_like(self.identity()._b1)
        zero2 = np.zeros_like(self.identity()._b2)
        basis_codes = [self.field.p ** k for k in range(self.field.degree)]
        # b1 directions
        if self.params.x == "U":
            for i in range(self.d):
                for j in range(self.n - self.d):
                    for b in basis_codes:
                        b1 = zero1.copy()
                        b1[i, j] = b
                        gens.append(self.a_element(b1, zero2))
        else:
            f = self.field
            for i in range(self.d):
                for j in range(i, self.d):
                    if i == j and self.params.x == "D":
                        continue
                    for b in basis_codes:
                        b1 = zero1.copy()
                        b1[i, j] = b
                        b1[j, i] = b if self.params.x == "C" else f._neg[b]
                        gens.append(self.a_element(b1, zero2))
        # b2 directions
        if self.params.x == "U":
            f = self.field
            Q = self.base_field.q
            for i in range(self.d):
                for j in range(i, self.d):
                    scalars = [c * Q for c in [self.base_field.p ** k for k in range(self.base_field.degree)]] if i == j else [f.p ** k for k in range(f.degree)]
                    for s in scalars:
                        S = np.zeros((self.d, self.d), dtype=np.int16)
                        S[i, j] = s
                        if i != j:
                            S[j, i] = f._neg[f._frob[s]]
                        gens.append(self.a_element(zero1, S[:, ::-1]))
        else:
            for i in range(self.d):
                for j in range(self.n - self.d):
                    for b in basis_codes:
                        b2 = zero2.copy()
                        b2[i, j] = b
                        gens.append(self.a_element(zero1, b2))
        return gens

    # -- dual space -------------------------------------------------------

    def dual(self, b1, b3, b2) -> "DualElement":
        """A dual element from its three blocks (validated)."""
        n, d = self.n, self.d
        if self.params.x == "U":
            b1c = self._coerce_block(b1, (n - d, d))
            b3c = self._coerce_block(b3, (d, n - d))
            b2c = self._coerce_block(b2, (d, d))
        else:
            b1c = self._coerce_block(b1, (d, d))
            b3c = self._coerce_block(b3, (d, n - d))
            b2c = self._coerce_block(b2, (n - d, d))
        self._validate_dual_blocks(b1c, b3c, b2c)
        return DualElement(self, b1c, b3c, b2c)

    def dual_from_free(self, first, second) -> "DualElement":
        """Dual element from free blocks: (b1, b2) for C and D, (b2, b3) for U."""
        f = self.field
        n, d = self.n, self.d
        if self.params.x == "C":
            b1 = self._coerce_block(first, (d, d))
            b2 = self._coerce_block(second, (n - d, d))
            return self.dual(b1, b2.T, b2)
        if self.params.x == "D":
            b1 = self._coerce_block(first, (d, d))
            b2 = self._coerce_block(second, (n - d, d))
            return self.dual(b1, f._neg[b2.T], b2)
        b2 = self._coerce_block(first, (d, d))
        b3 = self._coerce_block(second, (d, n - d))
        return self.dual(_j_conj_t(f, b3), b3, b2)

    def _validate_dual_blocks(self, b1, b3, b2) -> None:
        f = self.field
        if self.params.x == "C":
            if not np.array_equal(b1, b1.T):
                raise ValueError("b1 must be symmetric")
            if not np.array_equal(b3, b2.T):
                raise ValueError("b3 must equal b2 transposed")
        elif self.params.x == "D":
            if not np.array_equal(b1, f._neg[b1.T]):
                raise ValueError("b1 must be skew-symmetric")
            if not np.array_equal(b3, f._neg[b2.T]):
                raise ValueError("b3 must equal minus b2 transposed")
        else:
            b2j = b2[:, ::-1]
            if not np.array_equal(b2j, f._neg[f._frob[b2j.T]]):
                raise ValueError("b2 J must be skew-Hermitian")
            if not np.array_equal(b1, _j_conj_t(f, b3)):
                raise ValueError("b1 must be the twisted transpose of b3")

    def _dual_blocks(self) -> tuple:
        """Stacked blocks (b1, b3, b2) of all duals, in enumeration order."""
        n, d = self.n, self.d
        f = self.field
        if self.params.x == "U":
            b2, b3 = _grid(self._class_stack(SymmetryClass.SKEW_HERMITIAN)[..., ::-1], self._free_stack(d, n - d))
            return _j_conj_t(f, b3), b3, b2
        b1, b2 = _grid(self._class_stack(self._v_class()), self._free_stack(n - d, d))
        return b1, _t(b2) if self.params.x == "C" else f._neg[_t(b2)], b2

    def _dual_stack(self) -> np.ndarray:
        """Ambient codes of all duals, in enumeration order."""
        return self._dual_ambient(*self._dual_blocks())

    def duals(self):
        """All dual elements, in a fixed enumeration order."""
        for b1, b3, b2 in zip(*self._dual_blocks()):
            yield DualElement(self, b1, b3, b2)

    def dual_count(self) -> int:
        return self.q ** self.params.a_exponent

    def _dual_ambient(self, b1, b3, b2) -> np.ndarray:
        n, d = self.n, self.d
        M = np.zeros(b2.shape[:-2] + (2 * n, 2 * n), dtype=np.int16)
        if self.params.x == "U":
            M[..., n : 2 * n - d, 0:d] = b1
            M[..., 2 * n - d : 2 * n, 0:d] = b2
            M[..., 2 * n - d : 2 * n, d:n] = b3
        else:
            M[..., n : n + d, 0:d] = b1
            M[..., n : n + d, d:n] = b3
            M[..., n + d : 2 * n, 0:d] = b2
        return M

    def _decompose_dual(self, M: np.ndarray) -> "DualElement":
        n, d = self.n, self.d
        assert not M[~self._mask].any(), "dual support violation"
        if self.params.x == "U":
            b1 = M[n : 2 * n - d, 0:d]
            b3 = M[2 * n - d : 2 * n, d:n]
            b2 = M[2 * n - d : 2 * n, 0:d]
        else:
            b1 = M[n : n + d, 0:d]
            b3 = M[n : n + d, d:n]
            b2 = M[n + d : 2 * n, 0:d]
        self._validate_dual_blocks(b1, b3, b2)
        return DualElement(self, b1, b3, b2)

    def _decompose(self, M: np.ndarray) -> "RadicalElement":
        n, d = self.n, self.d
        f = self.field
        assert not M[n : 2 * n, 0:n].any(), "lower-left block must vanish"
        P = M[0:n, 0:n]
        Q = M[0:n, n : 2 * n]
        R = M[n : 2 * n, n : 2 * n]
        A = np.array(P[0:d, d:n])
        assert np.array_equal(P, self._h_ambient(A)[0:n, 0:n]), "upper-left block is not unitriangular of the expected form"
        if self.params.x == "U":
            A2 = R[0 : n - d, n - d : n]
            assert np.array_equal(A2, _j_conj_t(f, A)), "linked block mismatch"
            Ninv = np.eye(n, dtype=np.int16)
            Ninv[0 : n - d, n - d : n] = f._neg[A2]
        else:
            assert np.array_equal(R[d:n, 0:d], f._neg[A.T]), "linked block mismatch"
            Ninv = np.eye(n, dtype=np.int16)
            Ninv[d:n, 0:d] = A.T
        assert np.array_equal(R, self._h_ambient(A)[n : 2 * n, n : 2 * n]), "lower-right block is not of the expected form"
        V = matmul(f, Q, Ninv)
        if self.params.x == "U":
            assert not V[d:n, 0 : n - d].any(), "V block support violation"
            b1 = V[0:d, 0 : n - d]
            b2 = V[0:d, n - d : n]
            b3 = V[d:n, n - d : n]
            assert np.array_equal(b3, _j_conj_t(f, b1)), "V blocks violate the twisted link"
        else:
            assert not V[d:n, d:n].any(), "V block support violation"
            b1 = V[0:d, 0:d]
            b2 = V[0:d, d:n]
            b3 = V[d:n, 0:d]
            if self.params.x == "C":
                assert np.array_equal(V, V.T), "V must be symmetric"
            else:
                assert np.array_equal(V, f._neg[V.T]), "V must be skew-symmetric"
        self._validate_group_blocks(np.array(b1), np.array(b2))
        return RadicalElement(self, np.array(b1), np.array(b2), A)

    def __repr__(self) -> str:
        p = self.params
        return f"RadicalContext({p.x}, n={p.n}, d={p.d}, q={self.q})"


class RadicalElement:
    """A group element a(V) h(A), stored by its free parameter blocks."""

    __slots__ = ("ctx", "_b1", "_b2", "_a")

    def __init__(self, ctx: RadicalContext, b1: np.ndarray, b2: np.ndarray, a: np.ndarray):
        self.ctx = ctx
        self._b1 = b1
        self._b2 = b2
        self._a = a

    @property
    def v_b1(self) -> FfMatrix:
        return FfMatrix.from_codes(self.ctx.field, self._b1)

    @property
    def v_b2(self) -> FfMatrix:
        return FfMatrix.from_codes(self.ctx.field, self._b2)

    @property
    def h_a(self) -> FfMatrix:
        return FfMatrix.from_codes(self.ctx.field, self._a)

    def ambient(self) -> FfMatrix:
        return FfMatrix.from_codes(self.ctx.field, self._ambient_codes())

    def _ambient_codes(self) -> np.ndarray:
        ctx = self.ctx
        return matmul(ctx.field, ctx._a_ambient(self._b1, self._b2), ctx._h_ambient(self._a))

    def key(self) -> bytes:
        return self._b1.tobytes() + self._b2.tobytes() + self._a.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadicalElement):
            return NotImplemented
        return (
            self.ctx.params == other.ctx.params
            and self.ctx.q == other.ctx.q
            and np.array_equal(self._b1, other._b1)
            and np.array_equal(self._b2, other._b2)
            and np.array_equal(self._a, other._a)
        )

    def __hash__(self) -> int:
        return hash((self.ctx.params, self.ctx.q, self.key()))

    def __repr__(self) -> str:
        return f"RadicalElement(b1={self._b1.tolist()}, b2={self._b2.tolist()}, a={self._a.tolist()})"


class DualElement:
    """A dual (lower-left) element, stored by its three blocks."""

    __slots__ = ("ctx", "_b1", "_b3", "_b2")

    def __init__(self, ctx: RadicalContext, b1: np.ndarray, b3: np.ndarray, b2: np.ndarray):
        self.ctx = ctx
        self._b1 = b1
        self._b3 = b3
        self._b2 = b2

    @property
    def b1(self) -> FfMatrix:
        return FfMatrix.from_codes(self.ctx.field, self._b1)

    @property
    def b3(self) -> FfMatrix:
        return FfMatrix.from_codes(self.ctx.field, self._b3)

    @property
    def b2(self) -> FfMatrix:
        return FfMatrix.from_codes(self.ctx.field, self._b2)

    def ambient(self) -> FfMatrix:
        return FfMatrix.from_codes(self.ctx.field, self._ambient_codes())

    def _ambient_codes(self) -> np.ndarray:
        return self.ctx._dual_ambient(self._b1, self._b3, self._b2)

    def key(self) -> bytes:
        return self._b1.tobytes() + self._b3.tobytes() + self._b2.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DualElement):
            return NotImplemented
        return (
            self.ctx.params == other.ctx.params
            and self.ctx.q == other.ctx.q
            and np.array_equal(self._b1, other._b1)
            and np.array_equal(self._b3, other._b3)
            and np.array_equal(self._b2, other._b2)
        )

    def __hash__(self) -> int:
        return hash((self.ctx.params, self.ctx.q, self.key()))

    def __repr__(self) -> str:
        return f"DualElement(b1={self._b1.tolist()}, b3={self._b3.tolist()}, b2={self._b2.tolist()})"


def _same_ctx(a, b) -> RadicalContext:
    if a.ctx.params != b.ctx.params or a.ctx.q != b.ctx.q:
        raise ValueError("elements from different radical groups")
    return a.ctx


def group_mul(g: RadicalElement, h: RadicalElement) -> RadicalElement:
    """Product in R_u, with closure of the block shape asserted."""
    ctx = _same_ctx(g, h)
    return ctx._decompose(matmul(ctx.field, g._ambient_codes(), h._ambient_codes()))


def group_inv(g: RadicalElement) -> RadicalElement:
    """Inverse in R_u: h(-A) a(-V) rewritten in canonical a(V') h(A') form."""
    ctx = g.ctx
    f = ctx.field
    ha = ctx._h_ambient(f._neg[g._a])
    aa = ctx._a_ambient(f._neg[g._b1], f._neg[g._b2])
    return ctx._decompose(matmul(f, ha, aa))


def coadjoint_act(g: RadicalElement, alpha: DualElement) -> DualElement:
    """g . alpha = projection of g alpha g^(-1) onto the dual support."""
    ctx = _same_ctx(g, alpha)
    gi = group_inv(g)
    M = matmul(ctx.field, matmul(ctx.field, g._ambient_codes(), alpha._ambient_codes()), gi._ambient_codes())
    P = np.where(ctx._mask, M, np.int16(0))
    return ctx._decompose_dual(P)


def coefficient_matrix(alpha: DualElement) -> FfMatrix:
    """Block diagonal stabilizer system: n-d copies of b1 (C, D) or b2 (U)."""
    ctx = alpha.ctx
    n, d = ctx.n, ctx.d
    block = alpha._b2 if ctx.params.x == "U" else alpha._b1
    size = d * (n - d)
    M = np.zeros((size, size), dtype=np.int16)
    for c in range(n - d):
        M[c * d : (c + 1) * d, c * d : (c + 1) * d] = block
    return FfMatrix.from_codes(ctx.field, M, copy=False)


@dataclass(frozen=True)
class OrbitRecord:
    representative: DualElement
    size: int
    stabilizer_order: int
    e: int

    @property
    def degree(self) -> int:
        return self.representative.ctx.k_order ** self.e


def _exact_log(value: int, base: int) -> int:
    e, acc = 0, 1
    while acc < value:
        acc *= base
        e += 1
    if acc != value:
        raise ValueError(f"{value} is not a power of {base}")
    return e


def _h_gen_ambients(ctx: RadicalContext) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(g._ambient_codes(), group_inv(g)._ambient_codes()) for g in ctx.h_generators()]


# -- the action engine: generators act on a stack of points ----------------


def _row_keys(stack: np.ndarray) -> np.ndarray:
    """One opaque comparable key per matrix of a stack."""
    flat = np.ascontiguousarray(stack, dtype=np.int16).reshape(len(stack), -1)
    return flat.view(np.dtype((np.void, 2 * flat.shape[1]))).ravel()


class _StackIndex:
    """Positions of the matrices of a stack of distinct points, by sorted key."""

    def __init__(self, points: np.ndarray):
        self.points = points
        keys = _row_keys(points)
        self._order = np.argsort(keys)
        self._keys = keys[self._order]
        if (self._keys[1:] == self._keys[:-1]).any():
            raise ValueError("points must be distinct")

    def lookup(self, images: np.ndarray) -> np.ndarray:
        """The position of every image; raises if one is not a point."""
        keys = _row_keys(images)
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        if not (self._keys[pos] == keys).all():
            raise ValueError("an image escapes the point set")
        return self._order[pos]


def _conjugates(field: FieldCtx, points: np.ndarray, g: np.ndarray, g_inv: np.ndarray, support=None):
    """g X g^-1 for the X of a stack, projected onto support if given.

    Yields one stack per block of _BLOCK consecutive points.
    """
    for s in range(0, len(points), _BLOCK):
        block = matmul(field, matmul(field, g, points[s : s + _BLOCK]), g_inv)
        yield block if support is None else np.where(support, block, np.int16(0))


def _permutation(field: FieldCtx, index: _StackIndex, g: np.ndarray, g_inv: np.ndarray, support=None) -> np.ndarray:
    """perm[i] = position of the image of point i under X -> g X g^-1."""
    perm = np.concatenate([index.lookup(b) for b in _conjugates(field, index.points, g, g_inv, support)])
    if (np.bincount(perm, minlength=len(perm)) != 1).any():
        raise ValueError("a generator does not permute the points")
    return perm


def _orbit_labels(field: FieldCtx, points: np.ndarray, gens, support=None) -> np.ndarray:
    """For every point of a stack, the least index in its orbit.

    points is an int16 stack of distinct matrices; gens is a list of
    (g, g^-1) code pairs acting by X -> g X g^-1, followed by projection
    onto support if given.  Each generator must permute the points: an
    image outside the stack, or two points with one image, raises
    ValueError.  Orbits are the connected components of the generator
    edges, found by min-label propagation with pointer jumping
    (Shiloach-Vishkin 1982).
    """
    index = _StackIndex(points)
    images = [_permutation(field, index, g, g_inv, support) for g, g_inv in gens]
    labels = np.arange(len(points))
    while True:
        before = labels
        for image in images:
            # a point and its image both take the smaller of their labels
            low = np.minimum(labels, labels[image])
            low[image] = np.minimum(low[image], low)
            labels = low
        # every label is a smaller index of the same orbit, so following
        # labels stays inside the orbit
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]
        if np.array_equal(labels, before):
            return labels


def _record_for(alpha: DualElement, size: int) -> OrbitRecord:
    ctx = alpha.ctx
    h_order = ctx.q ** ctx.params.h_exponent
    e = _exact_log(size, ctx.k_order)
    if h_order % size:
        raise ValueError("orbit size must divide the acting group order")
    if e != rank(coefficient_matrix(alpha)):
        raise ValueError("orbit size must match the stabilizer system rank")
    return OrbitRecord(alpha, size, h_order // size, e)


def orbit_of(alpha: DualElement, budget: int = DEFAULT_ORBIT_BUDGET) -> OrbitRecord:
    """Orbit of a dual element under the H-coadjoint action, by frontier BFS."""
    ctx = alpha.ctx
    h_order = ctx.q ** ctx.params.h_exponent
    if h_order > budget:
        raise ValueError(f"enumeration too large: orbit bound {h_order} exceeds budget {budget}")
    gens = _h_gen_ambients(ctx)
    frontier = alpha._ambient_codes()[None]
    seen = _row_keys(frontier)
    while len(frontier):
        found = [b for g, g_inv in gens for b in _conjugates(ctx.field, frontier, g, g_inv, ctx._mask)]
        images = np.concatenate([frontier[:0], *found])
        keys, first = np.unique(_row_keys(images), return_index=True)
        fresh = ~np.isin(keys, seen)
        frontier = images[first[fresh]]
        seen = np.concatenate([seen, keys[fresh]])
    return _record_for(alpha, len(seen))


def orbit_partition(ctx: RadicalContext, budget: int = DEFAULT_ORBIT_BUDGET) -> list[OrbitRecord]:
    """Partition of the whole dual space into coadjoint orbits.

    One record per orbit, in the order of its first dual in ctx.duals(),
    which is also its representative.
    """
    if ctx.dual_count() > budget:
        raise ValueError(f"enumeration too large: {ctx.dual_count()} duals exceeds budget {budget}")
    b1, b3, b2 = ctx._dual_blocks()
    labels = _orbit_labels(ctx.field, ctx._dual_ambient(b1, b3, b2), _h_gen_ambients(ctx), ctx._mask)
    roots = np.flatnonzero(labels == np.arange(len(labels)))
    sizes = np.bincount(labels)[roots]
    if sizes.sum() != ctx.dual_count():
        raise ValueError("orbits must partition the dual space")
    return [_record_for(ctx.dual(b1[i], b3[i], b2[i]), int(size)) for i, size in zip(roots, sizes)]


@dataclass(frozen=True)
class OrbitCensusRow:
    e: int
    degree: int
    dual_count: int
    orbit_count: int
    char_count: int


@dataclass(frozen=True)
class OrbitCensus:
    params: RadicalParams
    q: int
    k_order: int
    rows: tuple[OrbitCensusRow, ...]

    @property
    def by_e(self) -> dict[int, OrbitCensusRow]:
        return {r.e: r for r in self.rows}

    def total_chars(self) -> int:
        return sum(r.char_count for r in self.rows)

    def sum_of_squares(self) -> int:
        return sum(r.char_count * r.degree ** 2 for r in self.rows)


def orbit_census(params: RadicalParams, q, budget: int = DEFAULT_ORBIT_BUDGET) -> OrbitCensus:
    """Numeric census of coadjoint orbits and character degrees over F_q.

    Walks every dual element, buckets by the rank e of its stabilizer
    system, and converts bucket sizes to orbit and character counts.
    """
    ctx = q if isinstance(q, RadicalContext) else RadicalContext(params, q)
    if ctx.params != params:
        raise ValueError("context parameters do not match")
    if ctx.dual_count() > budget:
        raise ValueError(f"enumeration too large: {ctx.dual_count()} duals exceeds budget {budget}")
    h_order = ctx.q ** params.h_exponent
    buckets: dict[int, int] = {}
    for alpha in ctx.duals():
        e = rank(coefficient_matrix(alpha))
        buckets[e] = buckets.get(e, 0) + 1
    rows = []
    for e in sorted(buckets):
        count = buckets[e]
        k_e = ctx.k_order ** e
        assert count % k_e == 0, "bucket size must be divisible by the orbit size"
        assert (count * h_order) % (k_e * k_e) == 0, "character count must be integral"
        rows.append(
            OrbitCensusRow(
                e=e,
                degree=k_e,
                dual_count=count,
                orbit_count=count // k_e,
                char_count=count * h_order // (k_e * k_e),
            )
        )
    census = OrbitCensus(params=params, q=ctx.q, k_order=ctx.k_order, rows=tuple(rows))
    assert sum(r.dual_count for r in rows) == ctx.dual_count()
    assert census.sum_of_squares() == ctx.q ** params.order_exponent, "sum of squared degrees must equal the group order"
    return census


def class_count_brute(params: RadicalParams, q, budget: int = DEFAULT_CLASS_BUDGET) -> int:
    """Number of conjugacy classes of R_u by exhaustive enumeration.

    Independent of the coadjoint orbit machinery (duals, stabilizer
    ranks): stacks all group elements as ambient matrices, conjugates the
    stack by every one-parameter generator of R_u, and counts the orbits
    of that action with the same generic labelling engine orbit_partition
    uses.  The orbits of conjugation are the conjugacy classes.
    """
    ctx = q if isinstance(q, RadicalContext) else RadicalContext(params, q)
    if ctx.params != params:
        raise ValueError("context parameters do not match")
    order = ctx.q ** params.order_exponent
    if order > budget:
        raise ValueError(f"enumeration too large: group order {order} exceeds budget {budget}")
    points = ctx._element_stack()
    if len(points) != order:
        raise ValueError("element enumeration must hit the full group order")
    gens = [(g._ambient_codes(), group_inv(g)._ambient_codes()) for g in ctx.generators()]
    labels = _orbit_labels(ctx.field, points, gens)
    return int(np.count_nonzero(labels == np.arange(order)))


def pairing_nondegeneracy_check(params: RadicalParams, q) -> bool:
    """Gram-matrix invertibility of the trace pairing on Lie(A) x Lie(A)^t.

    Types C and D use tr(XY); type U uses the twisted form
    tr(XY) + tr(XY)^q, which takes values in the base field.
    """
    ctx = q if isinstance(q, RadicalContext) else RadicalContext(params, q)
    if ctx.params != params:
        raise ValueError("context parameters do not match")
    basis = _lie_a_basis(ctx)
    if not basis:
        return True
    pairing = twisted_trace_pairing if params.x == "U" else trace_pairing
    G = gram_matrix(basis, [M.T for M in basis], pairing)
    return rank(G) == len(basis)


def _lie_a_basis(ctx: RadicalContext) -> list[FfMatrix]:
    """A basis of Lie(A) over F_q (the base field), as ambient matrices.

    The pairing downstream is F_q-bilinear, so the basis must be an
    F_q-basis: scalar 1 for types C and D, the pair {1, t} per free
    entry (and t alone on the constrained diagonal) for type U.
    """
    n, d = ctx.n, ctx.d
    f = ctx.field
    out = []

    def lie(b1, b2):
        M = ctx._a_ambient(b1, b2)
        M = f._sub[M, np.eye(2 * n, dtype=np.int16)]
        return FfMatrix.from_codes(f, M, copy=False)

    if ctx.params.x == "U":
        zero1 = np.zeros((d, n - d), dtype=np.int16)
        zero2 = np.zeros((d, d), dtype=np.int16)
        Q = ctx.base_field.q
        scalars = [1, Q]
        for i in range(d):
            for j in range(n - d):
                for s in scalars:
                    b1 = zero1.copy()
                    b1[i, j] = s
                    out.append(lie(b1, zero2))
        for i in range(d):
            for j in range(i, d):
                svals = [Q] if i == j else scalars
                for s in svals:
                    S = np.zeros((d, d), dtype=np.int16)
                    S[i, j] = s
                    if i != j:
                        S[j, i] = f._neg[f._frob[s]]
                    out.append(lie(zero1, S[:, ::-1]))
    else:
        zero1 = np.zeros((d, d), dtype=np.int16)
        zero2 = np.zeros((d, n - d), dtype=np.int16)
        for i in range(d):
            for j in range(i, d):
                if i == j and ctx.params.x == "D":
                    continue
                b1 = zero1.copy()
                b1[i, j] = 1
                b1[j, i] = 1 if ctx.params.x == "C" else f._neg[1]
                out.append(lie(b1, zero2))
        for i in range(d):
            for j in range(n - d):
                b2 = zero2.copy()
                b2[i, j] = 1
                out.append(lie(zero1, b2))
    return out


def dual_index(ctx: RadicalContext):
    """All duals in enumeration order, plus a position lookup over them."""
    return list(ctx.duals()), _StackIndex(ctx._dual_stack())


def coadjoint_permutation(ctx: RadicalContext, g: RadicalElement, duals=None, index=None) -> np.ndarray:
    """The permutation a dual index experiences under one group element.

    duals and index are the pair dual_index returns; only index is read,
    and it is built when not given.
    """
    if index is None:
        index = _StackIndex(ctx._dual_stack())
    g_codes, g_inv = g._ambient_codes(), group_inv(g)._ambient_codes()
    return _permutation(ctx.field, index, g_codes, g_inv, ctx._mask)
