"""The numpy-free data both layers share: radical parameters, symmetry classes, prime powers.

The symbolic layer (qpoly, census, charcensus) and the command line read
these names from here, so computing a census loads neither numpy nor an
oracle module.  gf, falinalg and orbitmethod import them back, and every
import path gives the same object.
"""

from __future__ import annotations

import enum
import math
import warnings
from collections import namedtuple

from .qpoly import QPoly

__all__ = [
    "BudgetExceeded", "odd_prime_power", "DEFAULT_ENUM_BUDGET", "SymmetryClass", "class_dimension",
    "TYPES", "d_range", "RadicalParams", "radical_order",
]


class BudgetExceeded(ValueError):
    """A requested field or enumeration is larger than its cap or budget."""


# Miller-Rabin with the primes up to 41 as bases decides primality of
# every n below this bound (Sorenson and Webster 2015); the primes up to
# 37 alone are fooled by 318665857834031151167461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; BudgetExceeded where its bases do not decide."""
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    if n >= _MR_LIMIT:
        raise BudgetExceeded(f"cannot decide whether {n} is prime: it is not below {_MR_LIMIT}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x != 1 and n - 1 not in (pow(x, 2 ** k, n) for k in range(s)):
            return False
    return True


def _iroot(n: int, m: int) -> int:
    """The integer part of the m-th root of n >= 1, by Newton's method from above: from the float
    estimate, raised past its rounding, when the root is below 2^900, else from a power of 2."""
    bits = -(-n.bit_length() // m)
    r = int(2 ** (math.log2(n) / m) * (1 + 2 ** -30)) + 2 if bits <= 900 else 1 << bits
    while True:
        s = ((m - 1) * r + n // r ** (m - 1)) // m
        if s >= r:
            return r
        r = s


def _base_root(q: int) -> tuple[int, int]:
    """(r, m) with q = r^m and r no perfect power, for odd q >= 3: prime exponents alone, sieved as
    the loop reaches them, smallest first while the root is at least 3, each root taken apart in turn."""
    prime = bytearray(b"\0\0" + b"\1" * q.bit_length())
    for ell in range(2, q.bit_length()):
        if prime[ell]:
            prime[ell * ell :: ell] = bytes(len(range(ell * ell, len(prime), ell)))
            r = _iroot(q, ell)
            if r < 3:
                break
            if r ** ell == q:
                r, m = _base_root(r)
                return r, m * ell
    return q, 1


def odd_prime_power(q) -> tuple[int, int] | None:
    """(p, m) with q = p^m for an odd prime p, or None if q is no such power.

    q = r^m with r no perfect power is a prime power exactly when r is
    prime.  BudgetExceeded if primality of r cannot be decided.
    """
    if not isinstance(q, int) or q < 3 or q % 2 == 0:
        return None
    p, m = _base_root(q)
    return (p, m) if _is_prime(p) else None


# class matrices one default enumeration may visit: about 3 s at the slowest
# measured rate, 1.5-1.7 us per matrix for skew n = 5 over F_3 (2 Xeon vCPUs)
DEFAULT_ENUM_BUDGET = 2 * 10 ** 6


class SymmetryClass(enum.Enum):
    SYMMETRIC = "symmetric"
    SKEW_SYMMETRIC = "skew-symmetric"
    SKEW_HERMITIAN = "skew-hermitian"


def class_dimension(n: int, cls: SymmetryClass) -> int:
    """log_q of the class size, q the ground field (F_q under F_{q^2} for skew-Hermitian)."""
    if cls is SymmetryClass.SYMMETRIC:
        return n * (n + 1) // 2
    if cls is SymmetryClass.SKEW_SYMMETRIC:
        return n * (n - 1) // 2
    if cls is SymmetryClass.SKEW_HERMITIAN:
        return n * n
    raise ValueError("unknown symmetry class")


TYPES = ("C", "D", "U")

# per type: V's class, A's tie (the class whose mirror links A to its copy
# in h(A)), and the messages refusing a constrained and a linked block
_V_CLASS = {
    x: (SymmetryClass(v_class), SymmetryClass(h_class), class_message, link_message)
    for x, v_class, h_class, class_message, link_message in (
        ("C", "symmetric", "skew-symmetric", "b1 must be symmetric", "b3 must equal b2 transposed"),
        ("D", "skew-symmetric", "skew-symmetric", "b1 must be skew-symmetric", "b3 must equal minus b2 transposed"),
        ("U", "skew-hermitian", "skew-hermitian", "b2 J must be skew-Hermitian", "b1 must be the twisted transpose of b3"),
    )
}


def d_range(x: str, n: int) -> range:
    """The d a radical of type x and size n admits: 0..n-1 for U, 1..n otherwise."""
    return range(0, n) if x == "U" else range(1, n + 1)


class RadicalParams(namedtuple("RadicalParams", "x n d")):
    """Combinatorial data (type, n, d) of one radical group, an immutable named tuple."""

    __slots__ = ()

    def __new__(cls, x: str, n: int, d: int):
        if x not in TYPES:
            raise ValueError("type must be one of C, D, U")
        if n < 1:
            raise ValueError("n out of range")
        if d not in d_range(x, n):
            raise ValueError("d out of range")
        if x == "C" and n < 3:
            warnings.warn("type C with n < 3 is outside the standard Dynkin range; the matrix model is still well defined")
        if x == "D" and n < 4:
            warnings.warn("type D with n < 4 is outside the standard Dynkin range; the matrix model is still well defined")
        return super().__new__(cls, x, n, d)

    # through __new__, so that _replace checks its fields as construction does
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def k_exponent(self) -> int:
        """|k| = q ** k_exponent for the entry field k."""
        return 2 if self.x == "U" else 1

    @property
    def a_exponent(self) -> int:
        """|A| = q ** a_exponent: the constrained class times the free block."""
        return class_dimension(self.d, _V_CLASS[self.x][0]) + self.k_exponent * self.d * (self.n - self.d)

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
