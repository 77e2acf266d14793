"""Exact univariate polynomials in the field-size parameter q.

Coefficients are Python ints, kept ascending (constant term first) with
no trailing zeros.  There are no rational coefficients anywhere: the
constructor refuses anything that is not an integer, and exact division
is synthetic division over Z[q], which raises as soon as a quotient
coefficient would not be an integer.  All arithmetic is exact; nothing
here ever rounds.

Products loop over the nonzero terms of the sparser operand only, so
multiplying by q^k or q^m +- 1 costs time linear in the degree; a term
with coefficient +-1 adds or subtracts without multiplying.  Dividing by
q^k - 1, the only divisor the Gaussian binomials need, takes k strided
running sums (Q_i = Q_(i-k) - P_i); every other divisor goes through the
synthetic-division loop.

The (q-1)-basis expansion writes an integer polynomial as
sum c_k (q-1)^k with integer c_k, by repeated synthetic division by
q - 1: the running sums of the coefficients from the top are the
quotient, and their total is the remainder.  qminus1_expansions runs
that division for several polynomials at once, each in a signed lane of
one packed int per coefficient index, so one running sum serves them
all; QPoly.to_qminus1_basis is its one-lane case.
"""

from __future__ import annotations

from itertools import accumulate, repeat, zip_longest
from operator import add, index, itemgetter, lshift, mul, neg, sub

__all__ = ["QPoly", "exact_div", "format_terms", "gaussian_binomial", "qminus1_expansions"]


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


def _scaled(cs, c):
    """The coefficients cs times c, multiplying only when c is not +-1."""
    if c == 1:
        return cs
    if c == -1:
        return map(neg, cs)
    return map(mul, cs, repeat(c))


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

    def __reduce__(self):
        return QPoly, (self.coeffs,)

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
        if len(a) - a.count(0) < len(b) - b.count(0):
            a, b = b, a
        # one shifted, scaled copy of the denser operand per term of the
        # sparser: the first is written into place, the others added
        la = len(a)
        (j, bj), *rest = _terms(b)
        out = [0] * j
        out += _scaled(a, bj)
        out += [0] * (len(b) - 1 - j)
        for j, bj in rest:
            window = out[j:j + la]
            out[j:j + la] = map(sub, window, a) if bj == -1 else map(add, window, _scaled(a, bj))
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
        dn = other.degree
        if other.coeffs == (-1,) + (0,) * (dn - 1) + (1,):
            return _div_q_power_minus_one(self.coeffs, dn)
        rem = list(self.coeffs)
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

    def times_binomial(self, m: int, sign: int) -> "QPoly":
        """self * (q^m + sign) for sign +-1: one copy shifted up m places, plus or minus self."""
        pad = (0,) * m
        return _poly(list(map(add if sign > 0 else sub, pad + self.coeffs, self.coeffs + pad)))

    def shifted(self, k: int) -> "QPoly":
        """self * q^k by moving the coefficients up k places."""
        if k < 0:
            raise ValueError("negative power of q")
        return _poly([0] * k + list(self.coeffs))

    def eval_at(self, q0: int) -> int:
        """Evaluate at an integer (Horner's rule)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    # -- bases and presentation -------------------------------------------

    def to_qminus1_basis(self) -> list[int]:
        """Coefficients c_k with self = sum c_k (q-1)^k, constant first."""
        return qminus1_expansions([self])[0]

    @classmethod
    def from_qminus1_basis(cls, coeffs) -> "QPoly":
        qm1 = cls((-1, 1))
        total = cls.zero()
        for c in reversed(coeffs):
            total = total * qm1 + c
        return total

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings, constant term first."""
        return list(map(str, self.coeffs))

    @classmethod
    def from_json(cls, data) -> "QPoly":
        return _poly(list(map(int, data)))

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


def _div_q_power_minus_one(cs: tuple, k: int) -> QPoly:
    """Quotient of the coefficients cs by q^k - 1; ValueError "not divisible" unless exact.

    P = Q (q^k - 1) reads P_i = Q_(i-k) - Q_i, so Q_i = Q_(i-k) - P_i: the
    quotient along each stride of k is a running difference, and the
    stride's last running difference, which would be a quotient
    coefficient above the top, is its remainder.
    """
    quot = [0] * max(len(cs) - k, 0)
    for j in range(min(k, len(cs))):
        _, *column, rest = accumulate(cs[j::k], sub, initial=0)
        if rest:
            raise ValueError("not divisible")
        quot[j::k] = column
    return _poly(quot)


# Packing pays only where the running sums are long: a row of fewer
# coefficients than PACK_MIN is expanded alone, since packing and reading
# back its lane costs more than sharing the sums saves.  At most
# PACK_BYTES bytes of lanes share one packed int, which keeps every
# running sum within CPython's small-object allocator (objects of up to
# 512 bytes).  On U(40,20), rows of up to 1,601 coefficients, 448-byte
# packs ran the expansion 5-20% faster than one row at a time, and 2 KB
# packs or every row in one int 5-15% slower.
PACK_MIN = 32
PACK_BYTES = 448


def qminus1_expansions(polys) -> list[list[int]]:
    """The (q-1)-basis coefficients of each polynomial, as to_qminus1_basis gives them.

    One repeated division by q - 1 serves several polynomials: each takes
    a signed lane of its own in one packed int per coefficient index, so
    every running sum adds all lanes at once.  Polynomials of PACK_MIN or
    more coefficients go into packs longest first, a new pack starting when
    the next lane would pass PACK_BYTES (a census table up to n = 14 is at
    most one pack); shorter ones are expanded alone.
    """
    coeffs = [p.coeffs for p in polys]
    out = [_remainders(cs[::-1]) if len(cs) < PACK_MIN else None for cs in coeffs]
    packs, used = [], PACK_BYTES
    for i in sorted((i for i, cs in enumerate(coeffs) if len(cs) >= PACK_MIN), key=lambda i: -len(coeffs[i])):
        # a lane with L coefficients of absolute sum S never holds more than
        # 2^(L-1) * S in magnitude, so L + bitlen(S) bits keep lanes apart
        width = (len(coeffs[i]) + sum(map(abs, coeffs[i])).bit_length() + 7) // 8
        if used + width > PACK_BYTES:
            packs.append([])
            used = 0
        packs[-1].append((i, width))
        used += width
    for pack in packs:
        rows, widths = zip(*pack)
        for i, expansion in zip(rows, _expand_pack([coeffs[i] for i in rows], widths)):
            out[i] = expansion
    return out


def _remainders(top_first) -> list:
    """Remainders of repeated division by q - 1, coefficients listed from the top."""
    out = []
    while top_first:
        # divide by (q - 1): the running sums from the top are the
        # quotient's coefficients, and the full sum is the remainder
        top_first = list(accumulate(top_first))
        out.append(top_first.pop())
    return out


def _expand_pack(rows, widths) -> list[list[int]]:
    """(q-1)-basis coefficients of rows, longest first, in lanes of the given bytes.

    The longest rows take the lowest lanes: near the top of the running
    sums only they are nonzero, so the packed ints stay short there.  Each
    lane is read back biased by half its range, an unsigned slice of the
    packed int's bytes, so its balanced digits decode exactly, and only
    as far as its row reaches.
    """
    if len(rows) == 1:  # one lane: the packed ints are the coefficients themselves
        return [_remainders(rows[0][::-1])]
    starts = list(accumulate(widths, initial=0))
    packed = list(rows[0])
    for cs, start in zip(rows[1:], starts[1:]):
        packed[: len(cs)] = map(add, packed, map(lshift, cs, repeat(8 * start)))
    biases = [1 << (8 * w - 1) for w in widths]
    bias = sum(map(lshift, biases, [8 * s for s in starts]))
    little = repeat("little")
    blocks = list(map(int.to_bytes, map(add, _remainders(packed[::-1]), repeat(bias)), repeat(starts[-1]), little))
    return [
        list(map(sub, map(int.from_bytes, map(itemgetter(slice(s, e)), blocks[: len(cs)]), little), repeat(b)))
        for cs, s, e, b in zip(rows, starts, starts[1:], biases)
    ]


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
