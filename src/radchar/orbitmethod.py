"""The radical groups as block matrix groups, with coadjoint orbit tools.

Each group R_u lives inside the 2n-by-2n upper block-unitriangular
matrices over an entry field k (k = F_q for types C and D, k = F_{q^2}
for type U) and factors as R_u = A x| H with both factors abelian:

  h(A) places the H-parameter A in the upper-left n-by-n block L and a
  linked copy in the lower-right block N; a(V) places the n-by-n block
  V in the upper-right corner.  Every element is uniquely a(V) h(A).

The types differ only in one block layout, stated once in params._V_CLASS
and RadicalContext.__init__, with roles listed as (constrained, free, linked):

     V's class       A's tie         roles in V   roles in a dual
  C  symmetric       skew-symmetric  b1, b2, b3   b1, b2, b3
  D  skew-symmetric  skew-symmetric  b1, b2, b3   b1, b2, b3
  U  skew-Hermitian  skew-Hermitian  b2, b1, b3   b2, b3, b1

V's columns split (d, n-d) for C and D, (n-d, d) for U; a dual sits on
the transposed positions.  The constrained block is in V's class (U's
read through J: b2 J_d); the linked one is the free one transposed and
mirrored by V's class, U's also flipped by J on both sides (b3 = b2^t,
-b2^t, -J conj(b1)^t J in V); A's tie links A to its copy in h(A) alike.

Dual elements are lower-left transposed-support matrices, acted on by
H through conjugation followed by projection onto that support.  An
orbit of size |k|^e gives |Stab_H(alpha)| characters of degree |k|^e
(Clifford theory, A being abelian); orbit_census reads both numbers
off the orbits orbit_partition finds.  The stabilizer is also cut out
by linear equations whose coefficient matrix is block diagonal (n-d
copies of the constrained block); every orbit is checked to have e
equal to the rank of that system.

Everything in this module is exhaustively verifiable: brute-force orbit
enumeration, conjugacy class counting and the pairing checks are the
oracles the symbolic layer is tested against.  Every orbit is found by
one engine, _Frame, _Action and _orbit_labels, which works in
coordinates: a point (a dual, or g - I for an element g) is the vector
of base-p digits of its ambient entries (codes add digit by digit, so
these are F_p coordinates), and conjugation by a generator, linear in
the point, is one F_p-linear map L on them, read off the ambient images
of unit matrices (row and column updates, one per nonzero entry of g - I
and of g^-1 - I).  The images of all points are coords @ L mod p, taken
through the few nonzeros of L - I.  Every dual lies on one support, so
H's maps on it are read once per context (RadicalContext._h_frame).  A
point's position is the Horner sum of its pivot digits, named by the
block roles: for duals the upper triangle of the constrained block, read
through J, then the free block, which is their enumeration order; for
elements A's entries and the same digits of V N(A).  An image is read at
its position and must equal the point there, so no sort and no search is
needed.  Orbits are labelled by their least point index.
orbit_partition labels all duals, class_count_brute all group elements,
and orbit_of the fiber of one dual: H fixes the constrained block of
every dual, so an orbit lies among the |H| duals that share it.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

from .falinalg import (
    BLOCK,
    FfMatrix,
    class_blocks,
    in_class,
    matmul,
    mirror_codes,
    mixed_radix,
    ranks,
)
from .gf import BudgetExceeded, FieldCtx, field_for_order, quadratic_extension
from .params import TYPES, _V_CLASS, RadicalParams, d_range, radical_order

__all__ = [
    "TYPES",
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

DEFAULT_ORBIT_BUDGET = 10 ** 6
DEFAULT_CLASS_BUDGET = 10 ** 4

# bytes a walk's point stack ((2n)^2 int16 codes a point) may take; peak memory is 3-4 times it.
# The largest default-budget walk with d >= 1, the 3^12 duals of D(13,1) at q = 3, takes 718 MB
_MAX_STACK_BYTES = 2 ** 30

# Block builders and the enumerations below act on the last two axes, so
# they take a single matrix or a stack of them alike.


def _t(X: np.ndarray) -> np.ndarray:
    return np.swapaxes(X, -1, -2)


def _identity_stack(size: int, lead: tuple) -> np.ndarray:
    M = np.zeros(lead + (size, size), dtype=np.int16)
    M.reshape(-1, size * size)[:, :: size + 1] = 1
    return M


def _flat_index(size: int, slot) -> np.ndarray:
    """The flat indices of a slot of a size-by-size matrix, read off zero-stride views of the row and column."""
    r = np.arange(size)
    return np.broadcast_to(r[:, None] * size, (size, size))[slot] + np.broadcast_to(r, (size, size))[slot]


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
        self._v_class, h_class, self._class_message, self._link_message = _V_CLASS[params.x]
        self._v_mirror, self._h_mirror = (mirror_codes(self.field, cls) for cls in (self._v_class, h_class))
        # the layout: the columns of V's (constrained, free) blocks, the flip
        # by J and the orders _roles reads; from them the slots of (b1, b2,
        # linked) in a(V), of (b1, b3, b2) in a dual and of A's copy in h(A)
        s = np.s_
        if params.x == "U":
            cols, self._j, self._orders = (s[2 * n - d :], s[n : 2 * n - d]), s[::-1], {2: (1, 0), 3: (2, 1, 0)}
        else:
            cols, self._j, self._orders = (s[n : n + d], s[n + d :]), s[:], {2: (0, 1), 3: (0, 2, 1)}
        self._cols = cols
        (constrained, free), (b1, b2) = cols, self._roles(cols)
        self._a_slots = (s[..., 0:d, b1], s[..., 0:d, b2], s[..., d:n, constrained])
        self._dual_slots = (s[..., b1, 0:d], s[..., constrained, d:n], s[..., b2, 0:d])
        self._h_copy = s[..., free, constrained]
        # a zero-stride view gives the slot shapes without allocating (2n)^2 entries
        ambient = np.broadcast_to(np.int16(0), (2 * n, 2 * n))
        self._v_shapes = [ambient[slot].shape for slot in self._a_slots[:2]]
        self._dual_shapes = [ambient[slot].shape for slot in self._dual_slots]

    @functools.cached_property
    def _mask(self) -> np.ndarray:
        """The support of the duals in an ambient matrix, built on first use."""
        mask = self._dual_ambient(*(np.ones(shape, dtype=np.int16) for shape in self._dual_shapes)) != 0
        mask.setflags(write=False)
        return mask

    def _roles(self, blocks) -> tuple:
        """V's (b1, b2) as (constrained, free), a dual's (b1, b3, b2) as
        (constrained, free, linked), and back: each order is an involution."""
        return tuple(blocks[i] for i in self._orders[len(blocks)])

    def _link(self, X: np.ndarray, mirror: np.ndarray) -> np.ndarray:
        """The block a mirror table ties to X: mirror[X^t], J mirror[X^t] J for U."""
        return mirror[_t(X)][..., self._j, self._j]

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
        M[self._h_copy] = self._link(A, self._h_mirror)
        return M

    def _a_ambient(self, b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
        return self._with_v(_identity_stack(2 * self.n, b2.shape[:-2]), b1, b2)

    def _with_v(self, M: np.ndarray, b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
        """M with V's blocks b1, b2 and the linked block written into its upper-right corner."""
        s1, s2, s_link = self._a_slots
        M[s1], M[s2] = b1, b2
        M[s_link] = self._link(self._roles((b1, b2))[1], self._v_mirror)
        return M

    def _element_ambient(self, b1: np.ndarray, b2: np.ndarray, a: np.ndarray) -> np.ndarray:
        """a(V) h(A) from its blocks, with no product of ambient matrices.

        a(V) h(A) is h(A) with V N(A) in its upper-right corner, N(A) the
        lower-right block of h(A).  N(A) - I is A's copy alone, which maps
        free columns to constrained ones, so V N(A) is V plus, on the
        constrained columns, V's free columns times that copy.
        """
        M = self._with_v(self._h_ambient(a), b1, b2)
        constrained, free = self._cols
        upper = M[..., : self.n, :]
        upper[..., constrained] = self.field._add[upper[..., constrained], matmul(self.field, upper[..., free], M[self._h_copy])]
        return M

    # -- element constructors -------------------------------------------

    def element(self, b1, b2, a) -> "RadicalElement":
        """The element a(V) h(A) from V's blocks b1, b2 and the H-parameter a (A or A1);
        which of b1, b2 is the constrained d-by-d block is the type's layout (module docstring)."""
        b1c, b2c = (self._coerce_block(b, shape) for b, shape in zip((b1, b2), self._v_shapes))
        ac = self._coerce_block(a, (self.d, self.n - self.d))
        self._check_v_class(self._roles((b1c, b2c))[0])
        return RadicalElement(self, b1c, b2c, ac)

    def _check_v_class(self, constrained: np.ndarray) -> None:
        """Raise unless a constrained block, read through J, lies in V's class; blocks may be stacked."""
        if not in_class(self.field, constrained[..., self._j], self._v_class).all():
            raise ValueError(self._class_message)

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
        """Every constrained block of V, in class_blocks order."""
        return np.concatenate(list(class_blocks(self.d, self._v_class, self.field)))[..., self._j]

    def _element_blocks(self) -> tuple:
        """Stacked free blocks (b1, b2, a) of all elements, in enumeration order."""
        free = self._free_stack(self.d, self.n - self.d)
        return _grid(*self._roles((self._v_stack(), free)), free)

    def _element_stack(self) -> np.ndarray:
        """Ambient codes of all elements, in enumeration order."""
        b1, b2, a = self._element_blocks()
        out = np.empty((len(a), 2 * self.n, 2 * self.n), dtype=np.int16)
        for s in range(0, len(a), BLOCK):
            block = slice(s, s + BLOCK)
            out[block] = self._element_ambient(b1[block], b2[block], a[block])
        return out

    def _grid_pivots(self, constrained, free) -> list[tuple[int, int]]:
        """(flat ambient index, digit) of the F_p digits that number a grid of blocks, most significant first.

        constrained and free are ambient slots, constrained None when the
        grid has no constrained block.  The order is that of class_blocks
        and _free_stack: the upper triangle of the constrained block read
        through J, row by row, then the free block row by row, each entry's
        base-p digits most significant first.  A diagonal entry gives only
        the digits of its allowed line, those whose unit code is its own
        mirror: all for C, none for D, the upper ones for U.
        """
        f = self.field
        digits = range(f.degree - 1, -1, -1)
        line = [t for t in digits if self._v_mirror[f.p ** t] == f.p ** t]
        pivots = []
        if constrained is not None:
            S = _flat_index(2 * self.n, constrained)[:, self._j].tolist()
            pivots = [(S[i][j], t) for i in range(len(S)) for j in range(i, len(S)) for t in (line if i == j else digits)]
        return pivots + [(e, t) for e in _flat_index(2 * self.n, free).ravel().tolist() for t in digits]

    @functools.cached_property
    def _dual_pivots(self) -> list[tuple[int, int]]:
        """The digits numbering the duals: the position of a dual in enumeration order is their Horner sum."""
        return self._grid_pivots(*self._roles(self._dual_slots)[:2])

    @functools.cached_property
    def _fiber_pivots(self) -> list[tuple[int, int]]:
        """The digits numbering the duals that share one constrained block: the free block's."""
        return self._grid_pivots(None, self._roles(self._dual_slots)[1])

    @functools.cached_property
    def _element_pivots(self) -> list[tuple[int, int]]:
        """The digits numbering the elements: A's entries, then the dual rule read on V's blocks in the
        first d rows of the upper-right block, which hold V N(A); given A and the free block, those
        digits fix the constrained block."""
        return self._grid_pivots(None, np.s_[0 : self.d, self.d : self.n]) + self._grid_pivots(*self._roles(self._a_slots[:2]))

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

    @functools.cached_property
    def _h_frame(self) -> "_Frame":
        """H's generators as linear maps on the digits of the dual support, which holds every dual,
        pivot and projected image: built and checked once per context."""
        return _Frame(self.field, 2 * self.n, np.flatnonzero(self._mask).tolist(), self._h_pairs, self._mask)

    def generators(self) -> list["RadicalElement"]:
        """One-parameter elements generating all of R_u."""
        return self.h_generators() + [self.a_element(b1, b2) for b1, b2 in self._a_directions(_fp_basis(self.field))]

    def _a_directions(self, scalars) -> list[tuple]:
        """One-parameter directions (b1, b2) of A, b1 directions first.

        Each entry of the free block and of the upper triangle of S (the
        constrained block read through J) takes every code in scalars, the
        entry it is tied to following; a diagonal entry of S takes those
        that are their own mirror, as in class_blocks: all for C, none for
        D, the trace-zero ones for U.  So an F_p-basis of k gives
        generators of A, and an F_q-basis an F_q-basis of Lie(A).
        """
        n, d = self.n, self.d
        diagonal = [s for s in scalars if self._v_mirror[s] == s]
        v = [
            _unit((d, d), i, j, s, self._v_mirror)[:, self._j]
            for i in range(d)
            for j in range(i, d)
            for s in (diagonal if i == j else scalars)
        ]
        zero_v, zero_free = np.zeros((d, d), dtype=np.int16), np.zeros((d, n - d), dtype=np.int16)
        by_role = ([(S, zero_free) for S in v], [(zero_v, F) for F in _units((d, n - d), scalars)])
        return [self._roles(pair) for group in self._roles(by_role) for pair in group]

    # -- dual space -------------------------------------------------------

    def dual(self, b1, b3, b2) -> "DualElement":
        """A dual element from its three blocks (validated)."""
        b1c, b3c, b2c = (self._coerce_block(b, shape) for b, shape in zip((b1, b3, b2), self._dual_shapes))
        self._validate_dual_blocks(b1c, b3c, b2c)
        return DualElement(self, b1c, b3c, b2c)

    def dual_from_free(self, first, second) -> "DualElement":
        """Dual element from its constrained and free blocks: (b1, b2) for C and D, (b2, b3) for U."""
        constrained_shape, free_shape, _ = self._roles(self._dual_shapes)
        return self.dual(*self._tie(self._coerce_block(first, constrained_shape), self._coerce_block(second, free_shape)))

    def _tie(self, constrained: np.ndarray, free: np.ndarray) -> tuple:
        """(b1, b3, b2) of the duals with these constrained and free blocks."""
        return self._roles((constrained, free, self._link(free, self._v_mirror)))

    def _validate_dual_blocks(self, b1, b3, b2) -> None:
        constrained, free, linked = self._roles((b1, b3, b2))
        self._check_v_class(constrained)
        if not np.array_equal(linked, self._link(free, self._v_mirror)):
            raise ValueError(self._link_message)

    def _dual_blocks(self, constrained=None) -> tuple:
        """Stacked blocks (b1, b3, b2) of the duals, in enumeration order.

        Only duals whose constrained block is in the stack constrained are
        listed; all duals when it is None.
        """
        v = self._v_stack() if constrained is None else constrained
        return self._tie(*_grid(v, self._free_stack(*self._roles(self._dual_shapes)[1])))

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
        self._check_v_class(self._roles((b1, b2))[0])
        if not np.array_equal(self._element_ambient(b1, b2, A), M):
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
        return self.ctx._element_ambient(self._b1, self._b2, self._a)


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
    return ctx._decompose_dual(_conjugates(ctx.field, alpha._ambient_codes(), *_ambient_pairs([g])[0], ctx._mask))


def coefficient_matrix(alpha: DualElement) -> FfMatrix:
    """Block diagonal stabilizer system: n-d copies of the constrained block."""
    ctx = alpha.ctx
    return FfMatrix.from_codes(ctx.field, _coefficient_codes(ctx, ctx._roles(alpha._blocks())[0][None])[0], copy=False)


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


# -- the action engine: generators act linearly on F_p coordinates ---------


def _off_identity(field: FieldCtx, g: np.ndarray) -> list[tuple[int, int, int]]:
    """(i, j, code) for every nonzero entry of g - I."""
    N = field._sub[g, np.eye(len(g), dtype=np.int16)]
    rows, cols = np.nonzero(N)
    return list(zip(rows.tolist(), cols.tolist(), N[rows, cols].tolist()))


def _conjugates(field: FieldCtx, points: np.ndarray, g: np.ndarray, g_inv: np.ndarray, support=None) -> np.ndarray:
    """g X g^-1 for each X of a stack (or for one matrix X), projected onto support if given.

    With N = g - I and M = g^-1 - I, g X g^-1 = Y + Y M for Y = X + N X:
    each nonzero N[i, k] adds a multiple of row k of X to row i of Y, and
    each nonzero M[k, j] a multiple of column k of Y to column j.  Updates
    read the rows of X and the columns of Y, never the copies they write,
    so the result is exact for any pair, at a cost proportional to the
    nonzeros of N and M.
    """
    ADD, MUL = field._add, field._mul
    Y = points.copy()
    for i, k, c in _off_identity(field, g):
        Y[..., i, :] = ADD[Y[..., i, :], MUL[c, points[..., k, :]]]
    Z = Y.copy()
    for k, j, c in _off_identity(field, g_inv):
        Z[..., j] = ADD[Z[..., j], MUL[Y[..., k], c]]
    return Z if support is None else np.where(support, Z, np.int16(0))


def _powers(field: FieldCtx) -> np.ndarray:
    """The codes p^t of one entry's digits, most significant first."""
    return (field.p ** np.arange(field.degree - 1, -1, -1)).astype(np.int16)


def _digits(field: FieldCtx, codes: np.ndarray) -> np.ndarray:
    """The base-p digits of codes, most significant first, on a new last axis, in the least
    unsigned dtype that holds a code.

    Codes add digit by digit (gf), so the digits are F_p coordinates.
    """
    small = np.min_scalar_type(field.q - 1)
    return codes.astype(small)[..., None] // _powers(field).astype(small) % small.type(field.p)


def _entries(stack: np.ndarray) -> list[int]:
    """The flat ambient indices where some matrix of a stack is nonzero, found in one matrix of memory."""
    return np.flatnonzero(np.bitwise_or.reduce(stack, axis=0)).tolist()


# a wrong linear map passes this many pseudo-random points of the span with probability at most p^-32
_SAMPLE = 32


class _Frame:
    """F_p coordinates on some ambient entries, with generators as linear maps on them.

    A generator (g, g^-1) sends X to g X g^-1, projected onto support if
    one is given, which is F_p-linear in X; a matrix's coordinates are the
    base-p digits of its entries.  A frame reads the matrices it is given,
    with no base point: the class walk hands it g - I, not g.  The entries
    grow until every generator maps their span into itself.  A generator's
    map L is read off the ambient images of the units of the coordinates
    and kept as the nonzeros of L - I, which are few for a one-parameter
    generator: an image column is the column plus a few multiples of
    others.  The ambient images of _SAMPLE fixed pseudo-random points of
    the span must equal their linear images.
    """

    def __init__(self, field: FieldCtx, size: int, entries, gens, support=None):
        self.field, self.size, self.support = field, size, support
        entries = dict.fromkeys(entries)
        while True:
            self.entries = np.array(list(entries), dtype=np.intp)
            self._units = self._matrices(np.eye(len(self.entries) * field.degree, dtype=np.uint8))
            images = [self._image(self._units, g, g_inv) for g, g_inv in gens]
            # a unit's image may leave the entries where no point's image does (terms cancel on the points)
            known = len(entries)
            for image in images:
                entries.update(dict.fromkeys(_entries(image)))
            if len(entries) == known:
                break
        digits = random.Random(0).choices(range(field.p), k=_SAMPLE * len(self._units))
        self._sample = np.array(digits, dtype=np.uint8).reshape(_SAMPLE, len(self._units))
        self.moves = [self._checked(self._linear_map(image), g, g_inv) for image, (g, g_inv) in zip(images, gens)]

    def _matrices(self, coords: np.ndarray) -> np.ndarray:
        """The matrices with these coordinates, one per row of coords."""
        f = self.field
        codes = (coords.reshape(len(coords), len(self.entries), f.degree) * _powers(f)).sum(axis=-1, dtype=np.int16)
        flat = np.zeros((len(coords), self.size ** 2), dtype=np.int16)
        flat[:, self.entries] = codes
        return flat.reshape(-1, self.size, self.size)

    def _image(self, stack: np.ndarray, g: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
        """The ambient images of a stack under one generator."""
        return _conjugates(self.field, stack, g, g_inv, self.support)

    def coordinates(self, stack: np.ndarray, message: str) -> np.ndarray:
        """The digits on the entries, a row per matrix of a stack, in the least unsigned dtype;
        ValueError(message) if some matrix is nonzero off the entries."""
        f = self.field
        values = stack.reshape(len(stack), -1)[:, self.entries]
        if np.count_nonzero(values) != np.count_nonzero(stack):
            raise ValueError(message)
        return _digits(f, values).reshape(len(stack), -1).astype(np.min_scalar_type(f.p - 1), copy=False)

    def _linear_map(self, images: np.ndarray) -> np.ndarray:
        """L, row i the coordinates of the ambient image of unit i."""
        return self.coordinates(images, "a generator maps the coordinates off their entries")

    def _checked(self, L: np.ndarray, g: np.ndarray, g_inv: np.ndarray) -> tuple:
        """The rows and columns where L - I is not zero and L - I on them, once the sample's ambient
        images are found equal to its linear images."""
        p = self.field.p
        moved = (L.astype(np.int64) - np.eye(len(L), dtype=np.int64)) % p
        rows, cols = np.flatnonzero(moved.any(axis=1)), np.flatnonzero(moved.any(axis=0))
        # the least unsigned dtype holding a column plus its moving terms, so apply makes small temporaries
        moves = rows, cols, moved[np.ix_(rows, cols)].astype(np.min_scalar_type((p - 1) * (1 + (p - 1) * len(rows))))
        # the ambient action stays the definition
        differ = "linear images differ from the ambient action"
        if not np.array_equal(self.coordinates(self._image(self._matrices(self._sample), g, g_inv), differ), self.apply(self._sample, moves)):
            raise ValueError(differ)
        return moves

    def moves_of(self, g: np.ndarray, g_inv: np.ndarray) -> tuple:
        """The moves of one more generator, which must map the span of the coordinates into itself."""
        return self._checked(self._linear_map(self._image(self._units, g, g_inv)), g, g_inv)

    def apply(self, coords: np.ndarray, moves) -> np.ndarray:
        """coords @ L mod p, L = I plus the moves; only the moved columns are computed."""
        rows, cols, moved = moves
        images = coords.copy()
        images[:, cols] = (coords[:, cols] + coords[:, rows].astype(moved.dtype) @ moved) % self.field.p
        return images


class _Action:
    """A frame's generators acting on a stack of distinct points.

    pivots lists (flat ambient index, digit) of the p-digits that number
    the points: a point's position is their Horner sum, most significant
    first, and the positions of the stack must be 0 .. len(points) - 1.
    An image is found at the position of its pivot digits and must equal
    that point in every coordinate.
    """

    def __init__(self, frame: _Frame, points: np.ndarray, pivots):
        self.frame, self.points = frame, points
        self.coords = frame.coordinates(points, "points must lie on the entries of their coordinates")
        column = {e: i for i, e in enumerate(frame.entries.tolist())}
        degree = frame.field.degree
        unnumbered = "points must be distinct, one at each position of their pivot digits"
        if frame.field.p ** len(pivots) != len(points) or any(e not in column for e, _ in pivots):
            raise ValueError(unnumbered)
        # the coordinate of each pivot digit, most significant first
        self._pivots = [column[e] * degree + degree - 1 - t for e, t in pivots]
        positions = self._horner(self.coords)
        if (np.bincount(positions, minlength=len(points)) != 1).any():
            raise ValueError(unnumbered)
        self._order = np.empty_like(positions)
        self._order[positions] = np.arange(len(points))

    def _horner(self, coords: np.ndarray) -> np.ndarray:
        """The Horner sum of the pivot digits of each row of coordinates."""
        positions = np.zeros(len(coords), dtype=np.intp)
        for column in self._pivots:
            positions *= self.frame.field.p
            positions += coords[:, column]
        return positions

    def _find(self, images: np.ndarray) -> np.ndarray:
        """The index of the point equal to each image, read at the position of its pivot digits."""
        at = self._order[self._horner(images)]
        if not np.array_equal(np.take(self.coords, at, axis=0), images):
            raise ValueError("an image escapes the point set")
        return at

    def lookup(self, stack: np.ndarray) -> np.ndarray:
        """The index of each matrix of a stack among the points; raises if one is not a point."""
        return self._find(self.frame.coordinates(stack, "an image escapes the point set"))

    def permutation(self, moves) -> np.ndarray:
        """perm[i] = index of the image of point i under the generator with these moves."""
        perm = self._find(self.frame.apply(self.coords, moves))
        if (np.bincount(perm, minlength=len(perm)) != 1).any():
            raise ValueError("a generator does not permute the points")
        return perm

    def permutations(self) -> list[np.ndarray]:
        """The permutation of the points each generator of the frame makes, in order."""
        return [self.permutation(moves) for moves in self.frame.moves]


def _walk(field: FieldCtx, points: np.ndarray, gens, pivots) -> _Action:
    """gens acting on points, in coordinates on the entries where a point is nonzero or a pivot lies."""
    return _Action(_Frame(field, points.shape[-1], _entries(points) + [e for e, _ in pivots], gens), points, pivots)


def _orbit_labels(action: _Action) -> np.ndarray:
    """For every point of an action, the least index in its orbit.

    Each generator must permute the points (see _Action).  Orbits are the
    connected components of the generator edges, found by min-label
    propagation with pointer jumping (Shiloach-Vishkin 1982).
    """
    images = action.permutations()
    labels = np.arange(len(action.points))
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


def _coefficient_codes(ctx: RadicalContext, constrained: np.ndarray) -> np.ndarray:
    """Stacked stabilizer systems of the duals with these stacked constrained blocks (see coefficient_matrix)."""
    d, c = ctx.d, ctx.n - ctx.d
    M = np.zeros((len(constrained), c, d, c, d), dtype=np.int16)
    copies = np.arange(c)
    M[:, copies, :, copies, :] = constrained
    return M.reshape(len(constrained), c * d, c * d)


def _records(ctx: RadicalContext, reps: tuple, sizes) -> list[OrbitRecord]:
    """One checked record per orbit, from the stacked blocks (b1, b3, b2) of the representatives;
    one ranks call covers all the stabilizer systems."""
    h_order = ctx.q ** ctx.params.h_exponent
    records = []
    system_ranks = ranks(ctx.field, _coefficient_codes(ctx, ctx._roles(reps)[0]))
    for blocks, size, system_rank in zip(zip(*reps), sizes, system_ranks):
        e = _exact_log(size, ctx.k_order)
        if h_order % size:
            raise ValueError("orbit size must divide the acting group order")
        if e != system_rank:
            raise ValueError("orbit size must match the stabilizer system rank")
        records.append(OrbitRecord(DualElement(ctx, *blocks), size, h_order // size, e))
    return records


def _check_walk(ctx: RadicalContext, points: int, budget: int, what: str) -> None:
    """Refuse, before anything is allocated, a walk over more points than the budget or over a stack past the cap."""
    if points > budget:
        raise BudgetExceeded(f"enumeration too large: {what} exceeds budget {budget}")
    size = points * 2 * (2 * ctx.n) ** 2
    if size > _MAX_STACK_BYTES:
        raise BudgetExceeded(f"enumeration too large: {what} stacks {size} bytes, over the cap {_MAX_STACK_BYTES}")


def orbit_of(alpha: DualElement, budget: int = DEFAULT_ORBIT_BUDGET) -> OrbitRecord:
    """Orbit of a dual element under the H-coadjoint action.

    The engine labels the fiber of alpha, the |H| duals sharing its
    constrained block, which H fixes; the orbit is alpha's label class.
    """
    ctx = alpha.ctx
    h_order = ctx.q ** ctx.params.h_exponent
    _check_walk(ctx, h_order, budget, f"orbit bound {h_order}")
    fiber = ctx._dual_ambient(*ctx._dual_blocks(ctx._roles(alpha._blocks())[0][None]))
    action = _Action(ctx._h_frame, fiber, ctx._fiber_pivots)
    labels = _orbit_labels(action)
    (where,) = action.lookup(alpha._ambient_codes()[None])
    reps = tuple(block[None] for block in alpha._blocks())
    return _records(ctx, reps, [int(np.count_nonzero(labels == labels[where]))])[0]


def orbit_partition(ctx: RadicalContext, budget: int = DEFAULT_ORBIT_BUDGET) -> list[OrbitRecord]:
    """Partition of the whole dual space into coadjoint orbits.

    One record per orbit, in the order of its first dual in ctx.duals(),
    which is also its representative.
    """
    _check_walk(ctx, ctx.dual_count(), budget, f"{ctx.dual_count()} duals")
    b1, b3, b2 = ctx._dual_blocks()
    labels = _orbit_labels(_Action(ctx._h_frame, ctx._dual_ambient(b1, b3, b2), ctx._dual_pivots))
    roots = np.flatnonzero(labels == np.arange(len(labels)))
    sizes = np.bincount(labels)[roots]
    if sizes.sum() != ctx.dual_count():
        raise ValueError("orbits must partition the dual space")
    reps = b1[roots], b3[roots], b2[roots]
    ctx._validate_dual_blocks(*reps)
    return _records(ctx, reps, sizes.tolist())


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
    ranks): stacks g - I for all group elements g, conjugates the stack
    by every one-parameter generator of R_u, and counts the orbits
    of that action with the same generic labelling engine orbit_partition
    uses.  The orbits of conjugation are the conjugacy classes.
    """
    ctx = _context(params, q)
    order = ctx.q ** params.order_exponent
    _check_walk(ctx, order, budget, f"group order {order}")
    points = ctx._element_stack()
    if len(points) != order:
        raise ValueError("element enumeration must hit the full group order")
    points.reshape(order, -1)[:, :: 2 * ctx.n + 1] = 0  # g - I, which conjugation maps linearly
    labels = _orbit_labels(_walk(ctx.field, points, _ambient_pairs(ctx.generators()), ctx._element_pivots))
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

    The pairing downstream is F_q-bilinear, so the directions take an
    F_q-basis of k: 1 for types C and D, 1 and t for type U (t alone on
    the constrained diagonal).
    """
    one = np.eye(2 * ctx.n, dtype=np.int16)
    directions = ctx._a_directions([ctx.base_field.q ** i for i in range(ctx.params.k_exponent)])
    return np.array([ctx.field._sub[ctx._a_ambient(b1, b2), one] for b1, b2 in directions], dtype=np.int16).reshape(-1, one.size)


def dual_index(ctx: RadicalContext):
    """All duals in enumeration order, plus a position lookup over them."""
    return list(ctx.duals()), _Action(ctx._h_frame, ctx._dual_stack(), ctx._dual_pivots)


def coadjoint_permutation(ctx: RadicalContext, g: RadicalElement, index=None) -> np.ndarray:
    """The permutation a dual index experiences under one group element.

    index is the lookup dual_index returns; it is built when not given.
    """
    if index is None:
        index = _Action(ctx._h_frame, ctx._dual_stack(), ctx._dual_pivots)
    return index.permutation(index.frame.moves_of(*_ambient_pairs([g])[0]))
