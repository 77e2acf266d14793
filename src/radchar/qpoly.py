"""Exact univariate polynomials in the field-size parameter q.

Coefficients are Python ints, kept ascending (constant term first) with
no trailing zeros.  There are no rational coefficients anywhere: the
constructor refuses anything that is not an integer, and exact division
is synthetic division over Z[q], which raises as soon as a quotient
coefficient would not be an integer.  All arithmetic is exact; nothing
here ever rounds.

Products and quotients loop over the nonzero terms of the sparser
operand only, so multiplying by q^k or q^m +- 1, or dividing by
q^m - 1, costs time linear in the degree.

The (q-1)-basis expansion writes an integer polynomial as
sum c_k (q-1)^k with integer c_k, by repeated synthetic division.
"""

from __future__ import annotations

from itertools import accumulate, zip_longest
from operator import index

__all__ = ["QPoly", "exact_div", "format_terms", "gaussian_binomial"]


def _trimmed(cs: list) -> tuple:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _poly(cs: list) -> "QPoly":
    """QPoly from a list of ints, trailing zeros dropped (no type check)."""
    p = object.__new__(QPoly)
    object.__setattr__(p, "coeffs", _trimmed(cs))
    return p


def _terms(cs) -> list[tuple[int, int]]:
    return [(k, c) for k, c in enumerate(cs) if c]


class QPoly:
    """A polynomial in q with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        try:
            cs = [index(c) for c in coeffs]
        except TypeError:
            raise TypeError("QPoly coefficients must be integers") from None
        object.__setattr__(self, "coeffs", _trimmed(cs))

    def __setattr__(self, name, value):
        raise AttributeError("polynomials are immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "QPoly":
        return cls(())

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def const(cls, c) -> "QPoly":
        return cls((c,))

    @classmethod
    def q(cls) -> "QPoly":
        return cls((0, 1))

    @classmethod
    def q_power(cls, k: int) -> "QPoly":
        if k < 0:
            raise ValueError("negative power of q")
        return _poly([0] * k + [1])

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return _poly([a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self):
        return _poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return _poly([a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        if len(a) - a.count(0) < len(b) - b.count(0):
            a, b = b, a
        # one shifted, scaled copy of the denser operand per term of the sparser
        la = len(a)
        for j, bj in _terms(b):
            out[j:j + la] = [s + bj * x for s, x in zip(out[j:j + la], a)]
        return _poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        result = QPoly.one()
        square = self
        while k:
            if k & 1:
                result = result * square
            square = square * square
            k >>= 1
        return result

    def exact_div(self, other) -> "QPoly":
        """Quotient self / other in Z[q]; ValueError "not divisible" unless exact."""
        other = _coerce(other)
        if other is NotImplemented or other.is_zero():
            raise ZeroDivisionError("zero divisor")
        rem = list(self.coeffs)
        dn = other.degree
        lead = other.coeffs[-1]
        lower = _terms(other.coeffs[:-1])
        quot = [0] * max(len(rem) - dn, 0)
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + dn]
            if c:
                f, m = divmod(c, lead)
                if m:
                    raise ValueError("not divisible")
                quot[k] = f
                for j, bc in lower:
                    rem[k + j] -= f * bc
        if any(rem[:dn]):
            raise ValueError("not divisible")
        return _poly(quot)

    def eval_at(self, q0: int) -> int:
        """Evaluate at an integer (Horner's rule)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    # -- bases and presentation -------------------------------------------

    def to_qminus1_basis(self) -> list[int]:
        """Coefficients c_k with self = sum c_k (q-1)^k, constant first."""
        top_first = self.coeffs[::-1]
        out = []
        while top_first:
            # divide by (q - 1): the running sums from the top are the
            # quotient's coefficients, and the full sum is the remainder
            top_first = list(accumulate(top_first))
            out.append(top_first.pop())
        return out

    @classmethod
    def from_qminus1_basis(cls, coeffs) -> "QPoly":
        qm1 = cls((-1, 1))
        total = cls.zero()
        for c in reversed(coeffs):
            total = total * qm1 + c
        return total

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings, constant term first."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "QPoly":
        return cls([int(s) for s in data])

    def __str__(self) -> str:
        return format_terms(reversed(list(enumerate(self.coeffs))), "q")

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"


def format_terms(terms, base: str) -> str:
    """Text of the sum of c * base^k over the (k, c) pairs, in their order.

    Zero terms are skipped, unit coefficients and exponents are left
    out, and an empty sum reads "0": "q^2 - 2*q + 1" for base "q".
    """
    out = []
    for k, c in terms:
        if not c:
            continue
        mag = -c if c < 0 else c
        if k == 0:
            body = str(mag)
        else:
            body = ("" if mag == 1 else f"{mag}*") + (base if k == 1 else f"{base}^{k}")
        if out:
            out.append((" - " if c < 0 else " + ") + body)
        else:
            out.append(("-" if c < 0 else "") + body)
    return "".join(out) or "0"


def _coerce(x):
    if isinstance(x, QPoly):
        return x
    if isinstance(x, int):
        return QPoly((x,))
    return NotImplemented


def exact_div(a: QPoly, b: QPoly) -> QPoly:
    return _coerce(a).exact_div(b)


def gaussian_binomial(n: int, r: int) -> QPoly:
    """The q-binomial coefficient [n choose r]_q as an exact polynomial.

    [n i+1] = [n i] (q^(n-i) - 1) / (q^(i+1) - 1): every partial result
    is a q-binomial, so every division stays in Z[q].
    """
    if not 0 <= r <= n:
        raise ValueError("binomial index out of range")
    out = QPoly.one()
    for i in range(min(r, n - r)):
        out = (out * (QPoly.q_power(n - i) - 1)).exact_div(QPoly.q_power(i + 1) - 1)
    return out
