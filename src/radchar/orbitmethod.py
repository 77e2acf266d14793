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
H through conjugation followed by projection onto that support.  An
orbit of size |k|^e gives |Stab_H(alpha)| characters of degree |k|^e
(Clifford theory, A being abelian); orbit_census reads both numbers
off the orbits orbit_partition finds.  The stabilizer is also cut out
by linear equations whose coefficient matrix is block diagonal (n-d
copies of the B1 block for C and D, of the B2 block for U); every
orbit is checked to have e equal to the rank of that system.

Everything in this module is exhaustively verifiable: brute-force
orbit enumeration, conjugacy class counting and the pairing checks are
the oracles the symbolic layer is tested against.  Every orbit is found
by one engine, _orbit_labels: all points stacked as code matrices, each
generator g acting on the whole stack as row and column updates (one
per nonzero entry of g - I and of g^-1 - I, at most two each for a
one-parameter generator), and orbits labelled by their least point
index.  orbit_partition labels all duals, class_count_brute all group
elements, and orbit_of the fiber of one dual: H fixes the constrained
block of every dual (b1 for C and D, b2 for U), so an orbit lies among
the |H| duals that share it.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .falinalg import (
    BLOCK,
    FfMatrix,
    SymmetryClass,
    class_blocks,
    in_class,
    matmul,
    mirror_codes,
    mixed_radix,
    ranks,
)
from .gf import BudgetExceeded, FieldCtx, field_for_order, quadratic_extension
from .qpoly import QPoly

__all__ = [
    "RadicalParams",
    "RadicalContext",
    "RadicalElement",
    "DualElement",
    "OrbitRecord",
    "OrbitCensus",
    "d_range",
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

# the symmetry class of the constrained block of V (b1 for C and D,
# b2 J_d for U), with the message that rejects a block outside it
_V_CLASS = {
    "C": (SymmetryClass.SYMMETRIC, "b1 must be symmetric"),
    "D": (SymmetryClass.SKEW_SYMMETRIC, "b1 must be skew-symmetric"),
    "U": (SymmetryClass.SKEW_HERMITIAN, "b2 J must be skew-Hermitian"),
}


def d_range(x: str, n: int) -> range:
    """The d a radical of type x and size n admits: 0..n-1 for U, 1..n otherwise."""
    return range(0, n) if x == "U" else range(1, n + 1)


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
        if self.d not in d_range(self.x, self.n):
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


def _identity_stack(size: int, lead: tuple) -> np.ndarray:
    return np.broadcast_to(np.eye(size, dtype=np.int16), lead + (size, size)).copy()


def _grid(*stacks: np.ndarray) -> tuple:
    """Every choice of one matrix per stack, the last stack varying fastest."""
    picks = mixed_radix([len(s) for s in stacks])
    return tuple(s[i] for s, i in zip(stacks, picks.T))


def _fp_basis(field: FieldCtx) -> list[int]:
    """Codes of an F_p-basis of a field: 1, p, ..., p^(degree-1)."""
    return [field.p ** k for k in range(field.degree)]


def _unit(shape: tuple, i: int, j: int, s: int, mirror=None) -> np.ndarray:
    """The matrix with s at (i, j) and, if a mirror table is given, mirror[s] at (j, i)."""
    M = np.zeros(shape, dtype=np.int16)
    M[i, j] = s
    if mirror is not None:
        M[j, i] = mirror[s]
    return M


def _units(shape: tuple, scalars) -> list[np.ndarray]:
    """Every single-entry matrix, entry positions row by row, scalar fastest."""
    return [_unit(shape, i, j, s) for i, j in np.ndindex(*shape) for s in scalars]


class RadicalContext:
    """A radical group realized over a concrete field F_q."""

    def __init__(self, params: RadicalParams, q):
        self.params = params
        self.base_field = q if isinstance(q, FieldCtx) else field_for_order(q)
        self.q = self.base_field.q
        self.field = quadratic_extension(self.base_field) if params.x == "U" else self.base_field
        self.k_order = self.field.q
        n, d = params.n, params.d
        self.n, self.d = n, d
        s = np.s_
        # where the blocks sit in the ambient matrices: (b1, b2, linked
        # block) in a(V), (b1, b3, b2) in a dual
        if params.x == "U":
            self._a_slots = (s[..., 0:d, n : 2 * n - d], s[..., 0:d, 2 * n - d :], s[..., d:n, 2 * n - d :])
            self._dual_slots = (s[..., n : 2 * n - d, 0:d], s[..., 2 * n - d :, d:n], s[..., 2 * n - d :, 0:d])
        else:
            self._a_slots = (s[..., 0:d, n : n + d], s[..., 0:d, n + d :], s[..., d:n, n : n + d])
            self._dual_slots = (s[..., n : n + d, 0:d], s[..., n : n + d, d:n], s[..., n + d :, 0:d])
        ambient = np.empty((2 * n, 2 * n))
        self._v_shapes = [ambient[slot].shape for slot in self._a_slots[:2]]
        self._dual_shapes = [ambient[slot].shape for slot in self._dual_slots]
        self._mask = np.zeros((2 * n, 2 * n), dtype=bool)
        for slot in self._dual_slots:
            self._mask[slot] = True
        self._mask.setflags(write=False)

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
            # -J conj(A)^t J: the involution that links the blocks of V
            M[..., n : 2 * n - d, 2 * n - d : 2 * n] = self._link(A)
        else:
            M[..., n + d : 2 * n, n : n + d] = self.field._neg[_t(A)]
        return M

    def _link(self, X: np.ndarray) -> np.ndarray:
        """The block tied to a free block: X^t (C), -X^t (D), -J conj(X)^t J (U)."""
        linked = mirror_codes(self.field, _V_CLASS[self.params.x][0])[_t(X)]
        return linked[..., ::-1, ::-1] if self.params.x == "U" else linked

    def _a_ambient(self, b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
        M = _identity_stack(2 * self.n, b2.shape[:-2])
        s1, s2, s_link = self._a_slots
        M[s1], M[s2] = b1, b2
        M[s_link] = self._link(b1 if self.params.x == "U" else b2)
        return M

    # -- element constructors -------------------------------------------

    def element(self, b1, b2, a) -> "RadicalElement":
        """The element a(V) h(A) from the free blocks of V and A.

        For types C and D: b1 is the d-by-d symmetric (skew) block, b2
        the free d-by-(n-d) block.  For type U: b1 is the free
        d-by-(n-d) block, b2 the d-by-d block with b2 J_d
        skew-Hermitian.  a is the H-parameter (A or A1).
        """
        b1c, b2c = (self._coerce_block(b, shape) for b, shape in zip((b1, b2), self._v_shapes))
        ac = self._coerce_block(a, (self.d, self.n - self.d))
        self._check_v_class(b1c, b2c)
        return RadicalElement(self, b1c, b2c, ac)

    def _check_v_class(self, b1: np.ndarray, b2: np.ndarray) -> None:
        """Raise unless the constrained block (b1, or b2 J_d for U) lies in its class; blocks may be stacked."""
        cls, message = _V_CLASS[self.params.x]
        block = b2[..., ::-1] if self.params.x == "U" else b1
        if not in_class(self.field, block, cls).all():
            raise ValueError(message)

    def identity(self) -> "RadicalElement":
        shapes = (*self._v_shapes, (self.d, self.n - self.d))
        return RadicalElement(self, *(np.zeros(shape, dtype=np.int16) for shape in shapes))

    def h_element(self, a) -> "RadicalElement":
        e = self.identity()
        return self.element(e._b1, e._b2, a)

    def a_element(self, b1, b2) -> "RadicalElement":
        n, d = self.n, self.d
        return self.element(b1, b2, np.zeros((d, n - d), dtype=np.int16))

    # -- stacked enumerations -------------------------------------------

    def _free_stack(self, rows: int, cols: int) -> np.ndarray:
        """Every rows-by-cols matrix; the first entry is the most significant digit."""
        digits = mixed_radix((self.field.q,) * (rows * cols))
        return digits.astype(np.int16).reshape(len(digits), rows, cols)

    def _v_stack(self) -> np.ndarray:
        """Every constrained block of V: b1 for C and D, b2 for U."""
        stack = np.concatenate(list(class_blocks(self.d, _V_CLASS[self.params.x][0], self.field)))
        return stack[..., ::-1] if self.params.x == "U" else stack

    def _element_blocks(self) -> tuple:
        """Stacked free blocks (b1, b2, a) of all elements, in enumeration order."""
        free = self._free_stack(self.d, self.n - self.d)
        if self.params.x == "U":
            return _grid(free, self._v_stack(), free)
        return _grid(self._v_stack(), free, free)

    def _element_stack(self) -> np.ndarray:
        """Ambient codes of all elements, in enumeration order."""
        b1, b2, a = self._element_blocks()
        out = np.empty((len(a), 2 * self.n, 2 * self.n), dtype=np.int16)
        for s in range(0, len(a), BLOCK):
            block = slice(s, s + BLOCK)
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
        return [self.h_element(A) for A in _units((self.d, self.n - self.d), _fp_basis(self.field))]

    @functools.cached_property
    def _h_pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(g, g^-1) code pairs of the H-generators, inverted once per context."""
        return _ambient_pairs(self.h_generators())

    def generators(self) -> list["RadicalElement"]:
        """One-parameter elements generating all of R_u."""
        trace_zero = [self.base_field.q * c for c in _fp_basis(self.base_field)]
        directions = self._a_directions(_fp_basis(self.field), trace_zero)
        return self.h_generators() + [self.a_element(b1, b2) for b1, b2 in directions]

    def _a_directions(self, scalars, trace_zero) -> list[tuple]:
        """One-parameter directions (b1, b2) of A, b1 directions first.

        Each entry of the free block and of the upper triangle of the
        constrained block (b1 for C and D, S = b2 J_d for U) takes every
        code in scalars, the entry it is tied to following; the diagonal of
        S takes trace_zero instead.  So an F_p-basis of k gives generators
        of A, and an F_q-basis gives an F_q-basis of Lie(A).
        """
        n, d = self.n, self.d
        free = _units((d, n - d), scalars)
        zero_free, zero_v = np.zeros((d, n - d), dtype=np.int16), np.zeros((d, d), dtype=np.int16)
        mirror = mirror_codes(self.field, _V_CLASS[self.params.x][0])
        # a diagonal entry is its own mirror, as in class_blocks, so D has no diagonal direction
        diagonal = [s for s in (trace_zero if self.params.x == "U" else scalars) if mirror[s] == s]
        v = [
            _unit((d, d), i, j, s, mirror)
            for i in range(d)
            for j in range(i, d)
            for s in (diagonal if i == j else scalars)
        ]
        if self.params.x == "U":
            return [(b1, zero_v) for b1 in free] + [(zero_free, S[:, ::-1]) for S in v]
        return [(b1, zero_free) for b1 in v] + [(zero_v, b2) for b2 in free]

    # -- dual space -------------------------------------------------------

    def dual(self, b1, b3, b2) -> "DualElement":
        """A dual element from its three blocks (validated)."""
        b1c, b3c, b2c = (self._coerce_block(b, shape) for b, shape in zip((b1, b3, b2), self._dual_shapes))
        self._validate_dual_blocks(b1c, b3c, b2c)
        return DualElement(self, b1c, b3c, b2c)

    def dual_from_free(self, first, second) -> "DualElement":
        """Dual element from free blocks: (b1, b2) for C and D, (b2, b3) for U."""
        b1_shape, b3_shape, b2_shape = self._dual_shapes
        if self.params.x == "U":
            b2 = self._coerce_block(first, b2_shape)
            b3 = self._coerce_block(second, b3_shape)
            return self.dual(self._link(b3), b3, b2)
        b1 = self._coerce_block(first, b1_shape)
        b2 = self._coerce_block(second, b2_shape)
        return self.dual(b1, self._link(b2), b2)

    def _validate_dual_blocks(self, b1, b3, b2) -> None:
        self._check_v_class(b1, b2)
        if self.params.x == "U":
            if not np.array_equal(b1, self._link(b3)):
                raise ValueError("b1 must be the twisted transpose of b3")
        elif not np.array_equal(b3, self._link(b2)):
            raise ValueError("b3 must equal b2 transposed" if self.params.x == "C" else "b3 must equal minus b2 transposed")

    def _dual_blocks(self, constrained=None) -> tuple:
        """Stacked blocks (b1, b3, b2) of the duals, in enumeration order.

        Only duals whose constrained block (b1 for C and D, b2 for U) is in
        the stack constrained are listed; all duals when it is None.
        """
        n, d = self.n, self.d
        v = self._v_stack() if constrained is None else constrained
        if self.params.x == "U":
            b2, b3 = _grid(v, self._free_stack(d, n - d))
            return self._link(b3), b3, b2
        b1, b2 = _grid(v, self._free_stack(n - d, d))
        return b1, self._link(b2), b2

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
        M = np.zeros(b2.shape[:-2] + (2 * self.n, 2 * self.n), dtype=np.int16)
        for slot, block in zip(self._dual_slots, (b1, b3, b2)):
            M[slot] = block
        return M

    def _decompose_dual(self, M: np.ndarray) -> "DualElement":
        """The dual whose ambient matrix is M; ValueError if there is none."""
        b1, b3, b2 = (np.array(M[slot]) for slot in self._dual_slots)
        self._validate_dual_blocks(b1, b3, b2)
        if not np.array_equal(self._dual_ambient(b1, b3, b2), M):
            raise ValueError("matrix is not a dual element")
        return DualElement(self, b1, b3, b2)

    def _decompose(self, M: np.ndarray) -> "RadicalElement":
        """The element a(V) h(A) equal to M; ValueError if M is not in R_u.

        A is read off M, V off M h(-A) = a(V); M is in the group exactly
        when those blocks are valid and rebuild M.
        """
        f = self.field
        A = np.array(M[0 : self.d, self.d : self.n])
        a_part = matmul(f, M, self._h_ambient(f._neg[A]))
        b1, b2 = (np.array(a_part[slot]) for slot in self._a_slots[:2])
        self._check_v_class(b1, b2)
        if not np.array_equal(matmul(f, self._a_ambient(b1, b2), self._h_ambient(A)), M):
            raise ValueError("matrix is not an element of the group")
        return RadicalElement(self, b1, b2, A)

    def __repr__(self) -> str:
        p = self.params
        return f"RadicalContext({p.x}, n={p.n}, d={p.d}, q={self.q})"


def _block_view(name: str) -> property:
    return property(lambda self: FfMatrix.from_codes(self.ctx.field, getattr(self, name)))


class _BlockValue:
    """A value of one RadicalContext stored by three code blocks.

    Subclasses name the blocks in __slots__; equality, hashing, key()
    and repr read them in that order.
    """

    __slots__ = ("ctx",)

    def __init__(self, ctx: RadicalContext, *blocks: np.ndarray):
        self.ctx = ctx
        for name, block in zip(self.__slots__, blocks):
            setattr(self, name, block)

    def _blocks(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.__slots__]

    def ambient(self) -> FfMatrix:
        return FfMatrix.from_codes(self.ctx.field, self._ambient_codes())

    def key(self) -> bytes:
        return b"".join(block.tobytes() for block in self._blocks())

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self.ctx.params == other.ctx.params
            and self.ctx.q == other.ctx.q
            and all(np.array_equal(a, b) for a, b in zip(self._blocks(), other._blocks()))
        )

    def __hash__(self) -> int:
        return hash((self.ctx.params, self.ctx.q, self.key()))

    def __repr__(self) -> str:
        blocks = ", ".join(f"{name[1:]}={block.tolist()}" for name, block in zip(self.__slots__, self._blocks()))
        return f"{type(self).__name__}({blocks})"


class RadicalElement(_BlockValue):
    """A group element a(V) h(A), stored by its free parameter blocks."""

    __slots__ = ("_b1", "_b2", "_a")
    h_a = _block_view("_a")

    def _ambient_codes(self) -> np.ndarray:
        ctx = self.ctx
        return matmul(ctx.field, ctx._a_ambient(self._b1, self._b2), ctx._h_ambient(self._a))


class DualElement(_BlockValue):
    """A dual (lower-left) element, stored by its three blocks."""

    __slots__ = ("_b1", "_b3", "_b2")
    b1, b3, b2 = map(_block_view, __slots__)

    def _ambient_codes(self) -> np.ndarray:
        return self.ctx._dual_ambient(self._b1, self._b3, self._b2)


def _same_ctx(a, b) -> RadicalContext:
    if a.ctx.params != b.ctx.params or a.ctx.q != b.ctx.q:
        raise ValueError("elements from different radical groups")
    return a.ctx


def group_mul(g: RadicalElement, h: RadicalElement) -> RadicalElement:
    """Product in R_u; ValueError if it fails to decompose back into R_u."""
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
    (image,) = _conjugates(ctx.field, alpha._ambient_codes()[None], *_ambient_pairs([g])[0], ctx._mask)
    return ctx._decompose_dual(image[0])


def _coefficient_codes(duals) -> np.ndarray:
    """Stacked stabilizer systems of duals of one context (see coefficient_matrix)."""
    ctx = duals[0].ctx
    n, d = ctx.n, ctx.d
    block = np.stack([alpha._b2 if ctx.params.x == "U" else alpha._b1 for alpha in duals])
    M = np.zeros((len(duals), d * (n - d), d * (n - d)), dtype=np.int16)
    for c in range(n - d):
        M[..., c * d : (c + 1) * d, c * d : (c + 1) * d] = block
    return M


def coefficient_matrix(alpha: DualElement) -> FfMatrix:
    """Block diagonal stabilizer system: n-d copies of b1 (C, D) or b2 (U)."""
    return FfMatrix.from_codes(alpha.ctx.field, _coefficient_codes([alpha])[0], copy=False)


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


def _ambient_pairs(elements) -> list[tuple[np.ndarray, np.ndarray]]:
    """(g, g^-1) as code matrices, the form the action engine takes."""
    return [(g._ambient_codes(), group_inv(g)._ambient_codes()) for g in elements]


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


def _off_identity(field: FieldCtx, g: np.ndarray) -> list[tuple[int, int, int]]:
    """(i, j, code) for every nonzero entry of g - I."""
    N = field._sub[g, np.eye(len(g), dtype=np.int16)]
    rows, cols = np.nonzero(N)
    return list(zip(rows.tolist(), cols.tolist(), N[rows, cols].tolist()))


def _conjugates(field: FieldCtx, points: np.ndarray, g: np.ndarray, g_inv: np.ndarray, support=None):
    """g X g^-1 for the X of a stack, projected onto support if given.

    With N = g - I and M = g^-1 - I, g X g^-1 = Y + Y M for Y = X + N X:
    each nonzero N[i, k] adds a multiple of row k of X to row i of Y, and
    each nonzero M[k, j] a multiple of column k of Y to column j.  Updates
    read the rows of X and the columns of Y, never the copies they write,
    so the result is exact for any pair, at a cost proportional to the
    nonzeros of N and M.  Yields one stack per block of BLOCK consecutive
    points.
    """
    ADD, MUL = field._add, field._mul
    row_terms, col_terms = _off_identity(field, g), _off_identity(field, g_inv)
    for s in range(0, len(points), BLOCK):
        X = points[s : s + BLOCK]
        Y = X.copy()
        for i, k, c in row_terms:
            Y[..., i, :] = ADD[Y[..., i, :], MUL[c, X[..., k, :]]]
        Z = Y.copy()
        for k, j, c in col_terms:
            Z[..., j] = ADD[Z[..., j], MUL[Y[..., k], c]]
        yield Z if support is None else np.where(support, Z, np.int16(0))


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


def _records(duals, sizes) -> list[OrbitRecord]:
    """One checked record per orbit; one ranks call covers all the stabilizer systems."""
    ctx = duals[0].ctx
    h_order = ctx.q ** ctx.params.h_exponent
    records = []
    for alpha, size, system_rank in zip(duals, sizes, ranks(ctx.field, _coefficient_codes(duals))):
        e = _exact_log(size, ctx.k_order)
        if h_order % size:
            raise ValueError("orbit size must divide the acting group order")
        if e != system_rank:
            raise ValueError("orbit size must match the stabilizer system rank")
        records.append(OrbitRecord(alpha, size, h_order // size, e))
    return records


def orbit_of(alpha: DualElement, budget: int = DEFAULT_ORBIT_BUDGET) -> OrbitRecord:
    """Orbit of a dual element under the H-coadjoint action.

    The engine labels the fiber of alpha, the |H| duals sharing its
    constrained block, which H fixes; the orbit is alpha's label class.
    """
    ctx = alpha.ctx
    h_order = ctx.q ** ctx.params.h_exponent
    if h_order > budget:
        raise BudgetExceeded(f"enumeration too large: orbit bound {h_order} exceeds budget {budget}")
    constrained = alpha._b2 if ctx.params.x == "U" else alpha._b1
    fiber = ctx._dual_ambient(*ctx._dual_blocks(constrained[None]))
    labels = _orbit_labels(ctx.field, fiber, ctx._h_pairs, ctx._mask)
    (where,) = np.flatnonzero((fiber == alpha._ambient_codes()).all(axis=(-2, -1)))
    return _records([alpha], [int(np.count_nonzero(labels == labels[where]))])[0]


def orbit_partition(ctx: RadicalContext, budget: int = DEFAULT_ORBIT_BUDGET) -> list[OrbitRecord]:
    """Partition of the whole dual space into coadjoint orbits.

    One record per orbit, in the order of its first dual in ctx.duals(),
    which is also its representative.
    """
    if ctx.dual_count() > budget:
        raise BudgetExceeded(f"enumeration too large: {ctx.dual_count()} duals exceeds budget {budget}")
    b1, b3, b2 = ctx._dual_blocks()
    labels = _orbit_labels(ctx.field, ctx._dual_ambient(b1, b3, b2), ctx._h_pairs, ctx._mask)
    roots = np.flatnonzero(labels == np.arange(len(labels)))
    sizes = np.bincount(labels)[roots]
    if sizes.sum() != ctx.dual_count():
        raise ValueError("orbits must partition the dual space")
    reps = b1[roots], b3[roots], b2[roots]
    ctx._validate_dual_blocks(*reps)
    return _records([DualElement(ctx, *blocks) for blocks in zip(*reps)], sizes.tolist())


def _context(params: RadicalParams, q) -> RadicalContext:
    """q itself when it is a RadicalContext for params, else a new context over F_q."""
    ctx = q if isinstance(q, RadicalContext) else RadicalContext(params, q)
    if ctx.params != params:
        raise ValueError("context parameters do not match")
    return ctx


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

    A fold over orbit_partition.  By Clifford theory for A x| H with A
    abelian, an orbit of size |k|^e carries |Stab_H(alpha)| characters of
    degree |k|^e, so the row for e sums the orbit sizes and the
    stabilizer orders of its orbits and counts them.  The per-orbit
    checks (size a power of |k| dividing |H|, e equal to the stabilizer
    system rank) and the dual total are orbit_partition's; the census
    adds the sum-of-squares verdict.
    """
    ctx = _context(params, q)
    by_e: dict[int, list[OrbitRecord]] = {}
    for record in orbit_partition(ctx, budget):
        by_e.setdefault(record.e, []).append(record)
    rows = tuple(
        OrbitCensusRow(e, ctx.k_order ** e, sum(r.size for r in group), len(group), sum(r.stabilizer_order for r in group))
        for e, group in sorted(by_e.items())
    )
    census = OrbitCensus(params=params, q=ctx.q, k_order=ctx.k_order, rows=rows)
    if census.sum_of_squares() != ctx.q ** params.order_exponent:
        raise ValueError("sum of squared degrees must equal the group order")
    return census


def class_count_brute(params: RadicalParams, q, budget: int = DEFAULT_CLASS_BUDGET) -> int:
    """Number of conjugacy classes of R_u by exhaustive enumeration.

    Independent of the coadjoint orbit machinery (duals, stabilizer
    ranks): stacks all group elements as ambient matrices, conjugates the
    stack by every one-parameter generator of R_u, and counts the orbits
    of that action with the same generic labelling engine orbit_partition
    uses.  The orbits of conjugation are the conjugacy classes.
    """
    ctx = _context(params, q)
    order = ctx.q ** params.order_exponent
    if order > budget:
        raise BudgetExceeded(f"enumeration too large: group order {order} exceeds budget {budget}")
    points = ctx._element_stack()
    if len(points) != order:
        raise ValueError("element enumeration must hit the full group order")
    labels = _orbit_labels(ctx.field, points, _ambient_pairs(ctx.generators()))
    return int(np.count_nonzero(labels == np.arange(order)))


def pairing_nondegeneracy_check(params: RadicalParams, q) -> bool:
    """Gram-matrix invertibility of the trace pairing on Lie(A) x Lie(A)^t.

    Types C and D use tr(XY); type U uses the twisted form
    tr(XY) + tr(XY)^q, which takes values in the base field (so its rank
    over k is its rank over F_q).  For Y = Z^t, tr(XY) sums the entrywise
    products of X and Z, so the Gram matrix is one product of the
    flattened basis with its transpose.
    """
    ctx = _context(params, q)
    f = ctx.field
    basis = _lie_a_basis(ctx)
    G = matmul(f, basis, basis.T)
    if params.x == "U":
        G = f._add[G, f._frob[G]]
    return int(ranks(f, G)) == len(basis)


def _lie_a_basis(ctx: RadicalContext) -> np.ndarray:
    """A basis of Lie(A) over F_q (the base field), one flattened ambient matrix per row.

    The pairing downstream is F_q-bilinear, so the basis must be an
    F_q-basis: scalar 1 for types C and D, the pair {1, t} per free
    entry (and t alone on the constrained diagonal) for type U.
    """
    f, t = ctx.field, ctx.base_field.q
    one = np.eye(2 * ctx.n, dtype=np.int16)
    directions = ctx._a_directions([1, t] if ctx.params.x == "U" else [1], [t])
    return np.array([f._sub[ctx._a_ambient(b1, b2), one] for b1, b2 in directions], dtype=np.int16).reshape(-1, one.size)


def dual_index(ctx: RadicalContext):
    """All duals in enumeration order, plus a position lookup over them."""
    return list(ctx.duals()), _StackIndex(ctx._dual_stack())


def coadjoint_permutation(ctx: RadicalContext, g: RadicalElement, index=None) -> np.ndarray:
    """The permutation a dual index experiences under one group element.

    index is the lookup dual_index returns; it is built when not given.
    """
    if index is None:
        index = _StackIndex(ctx._dual_stack())
    return _permutation(ctx.field, index, *_ambient_pairs([g])[0], ctx._mask)
