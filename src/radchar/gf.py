"""Exact arithmetic in small finite fields of odd characteristic.

A field is represented by a FieldCtx holding complete operation tables.
Elements are integer codes 0 .. q-1.  For a prime field F_p the code of
an element is its canonical residue.  A quadratic extension of a field
with Q elements is built as F[t]/(t^2 - s), where s is the smallest
quadratic nonresidue of the base (in code order); the element with
base coordinates (a0, a1), meaning a0 + a1*t, gets code a0 + a1*Q.
Iterating codes therefore walks the elements in a fixed canonical
order, and the code of a base-field element is unchanged under the
embedding into the extension.

Field construction refuses orders above MAX_FIELD_ORDER (1,024) with
BudgetExceeded before it allocates anything, so the full q-by-q tables
for add/sub/mul stay cheap (a few MB) and int16 codes cannot overflow.
Entrywise arithmetic is a table lookup; matrix products
(falinalg.matmul) use these tables over an extension field and an
integer product reduced mod p over a prime field.

There is no global field registry: contexts are plain immutable
objects, and two contexts built the same way compare equal, so
elements are value objects.
"""

from __future__ import annotations

import numpy as np

from .params import BudgetExceeded, odd_prime_power

__all__ = [
    "FieldCtx",
    "FieldElement",
    "BudgetExceeded",
    "MAX_FIELD_ORDER",
    "odd_prime_power",
    "field_create",
    "quadratic_extension",
    "field_for_order",
    "frobenius",
    "relative_trace",
    "norm",
]


MAX_FIELD_ORDER = 1024


# generator symbols for successive quadratic extensions, used only in repr
_GEN_SYMBOLS = "tuvw"


class FieldCtx:
    """A finite field of odd characteristic with precomputed op tables.

    Do not call the constructor directly; use field_create or
    quadratic_extension.
    """

    def __init__(self, p: int, base: "FieldCtx | None", _token: object = None):
        if _token is not _CTX_TOKEN:
            raise TypeError("use field_create or quadratic_extension")
        self.q = p if base is None else base.q * base.q
        if self.q > MAX_FIELD_ORDER:
            raise BudgetExceeded(f"field order {self.q} exceeds the cap {MAX_FIELD_ORDER}")
        self.p = p
        self.base = base
        if base is None:
            self.degree = 1
            self.nonresidue_code = None
            self._key = ("prime", p)
            self._build_prime_tables()
        else:
            self.degree = 2 * base.degree
            self.nonresidue_code = self._least_nonresidue(base)
            self._key = ("ext", base._key, self.nonresidue_code)
            self._build_extension_tables()
        self._quad_ext: FieldCtx | None = None
        for t in (self._add, self._sub, self._mul, self._neg, self._inv):
            t.setflags(write=False)
        if self._frob is not None:
            self._frob.setflags(write=False)

    @staticmethod
    def _least_nonresidue(base: "FieldCtx") -> int:
        squares = {int(base._mul[a, a]) for a in range(base.q)}
        for s in range(base.q):
            if s not in squares:
                return s
        raise ValueError("no quadratic nonresidue found")

    def _build_prime_tables(self) -> None:
        p = self.p
        v = np.arange(p, dtype=np.int64)
        self._add = ((v[:, None] + v[None, :]) % p).astype(np.int16)
        self._sub = ((v[:, None] - v[None, :]) % p).astype(np.int16)
        self._mul = ((v[:, None] * v[None, :]) % p).astype(np.int16)
        self._neg = ((-v) % p).astype(np.int16)
        self._inv = self._invert_from_mul()
        self._frob = None

    def _build_extension_tables(self) -> None:
        base = self.base
        Q = base.q
        s = self.nonresidue_code
        # defining quadratic x^2 - s must be irreducible: no root in the base
        for a in range(Q):
            if int(base._mul[a, a]) == s:
                raise ValueError("defining quadratic is reducible")
        c = np.arange(self.q, dtype=np.intp)
        a0, a1 = c % Q, c // Q
        BA, BM = base._add, base._mul
        add0 = BA[a0[:, None], a0[None, :]].astype(np.int64)
        add1 = BA[a1[:, None], a1[None, :]].astype(np.int64)
        self._add = (add0 + Q * add1).astype(np.int16)
        # (a0 + a1 t)(b0 + b1 t) = (a0 b0 + s a1 b1) + (a0 b1 + a1 b0) t
        m00 = BM[a0[:, None], a0[None, :]]
        m11 = BM[a1[:, None], a1[None, :]]
        m01 = BM[a0[:, None], a1[None, :]]
        m10 = BM[a1[:, None], a0[None, :]]
        c0 = BA[m00, BM[s, m11]].astype(np.int64)
        c1 = BA[m01, m10].astype(np.int64)
        self._mul = (c0 + Q * c1).astype(np.int16)
        neg = (base._neg[a0].astype(np.int64) + Q * base._neg[a1].astype(np.int64)).astype(np.int16)
        self._neg = neg
        self._sub = self._add[:, neg]
        self._inv = self._invert_from_mul()
        # x -> x^Q sends a0 + a1 t to a0 - a1 t because t^Q = -t
        # (t^(Q-1) = (t^2)^((Q-1)/2) = s^((Q-1)/2) = -1, s being a nonresidue)
        self._frob = (a0.astype(np.int64) + Q * base._neg[a1].astype(np.int64)).astype(np.int16)
        frob2 = self._frob[self._frob]
        if not np.array_equal(frob2, np.arange(self.q, dtype=np.int16)):
            raise ValueError("conjugation is not an involution")

    def _invert_from_mul(self) -> np.ndarray:
        inv = np.zeros(self.q, dtype=np.int16)
        rows, cols = np.nonzero(self._mul == 1)
        inv[rows] = cols
        return inv

    # -- element constructors ------------------------------------------

    def elem(self, code: int) -> "FieldElement":
        code = int(code)
        if not 0 <= code < self.q:
            raise ValueError("element code out of range")
        return FieldElement(self, code)

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def gen(self) -> "FieldElement":
        """The adjoined square root t of the nonresidue (extensions only)."""
        if self.base is None:
            raise ValueError("prime field has no adjoined generator")
        return FieldElement(self, self.base.q)

    def elements(self):
        """All field elements in canonical code order."""
        for c in range(self.q):
            yield FieldElement(self, c)

    # -- misc ----------------------------------------------------------

    def _gen_symbol(self) -> str:
        level = 0
        f = self
        while f.base is not None:
            level += 1
            f = f.base
        return _GEN_SYMBOLS[min(level, len(_GEN_SYMBOLS)) - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"GF({self.q})"


_CTX_TOKEN = object()


class FieldElement:
    """An element of a FieldCtx; immutable, compared by field and code."""

    __slots__ = ("field", "code")

    def __init__(self, field: FieldCtx, code: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "code", code)

    def __setattr__(self, name, value):
        raise AttributeError("field elements are immutable")

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.elem(other % self.field.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, int(self.field._add[self.code, o.code]))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, int(self.field._sub[self.code, o.code]))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, int(self.field._mul[self.code, o.code]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.code == 0:
            raise ZeroDivisionError("zero divisor")
        return FieldElement(self.field, int(self.field._mul[self.code, self.field._inv[o.code]]))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __neg__(self):
        return FieldElement(self.field, int(self.field._neg[self.code]))

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if self.code == 0:
                raise ZeroDivisionError("zero divisor")
            return (self.field.one() / self) ** (-k)
        result = self.field.one()
        square = self
        while k:
            if k & 1:
                result = result * square
            square = square * square
            k >>= 1
        return result

    def inverse(self) -> "FieldElement":
        if self.code == 0:
            raise ZeroDivisionError("zero divisor")
        return FieldElement(self.field, int(self.field._inv[self.code]))

    def __bool__(self) -> bool:
        return self.code != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.code == other.code
        if isinstance(other, int):
            return self.code == other % self.field.p and self.code < self.field.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field._key, self.code))

    def coords(self) -> tuple:
        """Coordinates over the base field (extensions only)."""
        if self.field.base is None:
            raise ValueError("prime field element has no base coordinates")
        Q = self.field.base.q
        return (self.field.base.elem(self.code % Q), self.field.base.elem(self.code // Q))

    def __repr__(self) -> str:
        f = self.field
        if f.base is None:
            return str(self.code)
        a0, a1 = self.coords()
        sym = f._gen_symbol()
        if a1.code == 0:
            return repr(a0)
        s0, s1 = repr(a0), repr(a1)
        if any(ch in s1 for ch in "+*"):
            s1 = f"({s1})"
        head = "" if s1 == "1" else f"{s1}*"
        return f"{head}{sym}" if a0.code == 0 else f"{s0}+{head}{sym}"


def field_create(p: int, m: int = 1) -> FieldCtx:
    """Build F_(p^m) for an odd prime p, with m in {1, 2}."""
    if odd_prime_power(p) != (p, 1):
        raise ValueError("odd prime required")
    if m == 1:
        return FieldCtx(p, None, _CTX_TOKEN)
    if m == 2:
        return quadratic_extension(FieldCtx(p, None, _CTX_TOKEN))
    raise ValueError("unsupported extension degree")


def quadratic_extension(field: FieldCtx) -> FieldCtx:
    """The quadratic extension of a field, cached on the base context."""
    if field._quad_ext is None:
        field._quad_ext = FieldCtx(field.p, field, _CTX_TOKEN)
    return field._quad_ext


def field_for_order(q: int) -> FieldCtx:
    """F_q for q an odd prime or the square of an odd prime."""
    power = odd_prime_power(q)
    if power is None:
        raise ValueError("odd prime power required")
    return field_create(*power)


def frobenius(a: FieldElement) -> FieldElement:
    """The conjugation x -> x^Q of a quadratic extension over its base."""
    if a.field.base is None:
        raise ValueError("no conjugation defined")
    return FieldElement(a.field, int(a.field._frob[a.code]))


def relative_trace(a: FieldElement) -> FieldElement:
    """a + a^Q, as an element of the base field."""
    f = a.field
    if f.base is None:
        raise ValueError("no conjugation defined")
    t = int(f._add[a.code, f._frob[a.code]])
    if t >= f.base.q:
        raise ValueError("trace landed outside the base field")
    return f.base.elem(t)


def norm(a: FieldElement) -> FieldElement:
    """a * a^Q, as an element of the base field."""
    f = a.field
    if f.base is None:
        raise ValueError("no conjugation defined")
    n = int(f._mul[a.code, f._frob[a.code]])
    if n >= f.base.q:
        raise ValueError("norm landed outside the base field")
    return f.base.elem(n)
