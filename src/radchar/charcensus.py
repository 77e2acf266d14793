"""Symbolic censuses of irreducible character degrees for the radicals.

The irreducible characters of a radical group R_u(x, n, d) come in
layers indexed by the rank r of one coefficient block of a linear
functional: symmetric d-by-d for type C, skew-symmetric for D,
skew-Hermitian for U.  A block of rank r contributes characters of
degree |k|^e with e = (n - d) * r, where k is the entry field (F_q for
C and D, F_{q^2} for U, so |k| = q^m with m = 1 or 2).  The number of
characters in layer e is the rank census polynomial of the block's
class scaled by a power of q counting the remaining free dual
coordinates, one expression for all three types:

    q^(2 m (d (n-d) - e)) * census_polynomial(kind, d, r, variant)

with kind sym for C, skew for D and herm for U.  The ranks r are the
class's attainable ones (census.attainable_ranks: even only for skew).

For d = n the radical is abelian and the whole census is one row of
linear characters.  Everything here is an exact polynomial identity in
q; the numeric oracles live in orbitmethod.

The type U rows inherit the printed/corrected variant switch of
skewherm_rank_census.  Only the corrected variant can satisfy the sum
of squared degrees identity (the printed one carries a spurious q - 1
factor), which is exactly what sum_of_squares_check is for.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add

from .census import attainable_ranks, census_polynomial, check_variant, rank_censuses
from .params import RadicalParams, radical_order
from .qpoly import QPoly, qminus1_expansions

__all__ = [
    "DegreeCensusRow",
    "DegreeCensus",
    "degree_exponents",
    "degree_poly",
    "char_count_poly",
    "census_table",
    "sum_of_squares_check",
    "qminus1_report",
]


# the class of each type's coefficient block, by census name
_CENSUS_KIND = {"C": "sym", "D": "skew", "U": "herm"}


def degree_exponents(params: RadicalParams) -> list[tuple[int, int]]:
    """Attainable pairs (r, e): block rank r and degree exponent e.

    Type D only sees even ranks.  For d = n there is a single layer of
    linear characters, reported as (0, 0).
    """
    n, d = params.n, params.d
    if d == n:
        return [(0, 0)]
    return [(r, (n - d) * r) for r in attainable_ranks(_CENSUS_KIND[params.x], d)]


def degree_poly(params: RadicalParams, e: int) -> QPoly:
    """Character degree |k|^e as a polynomial in q (q^e, or q^2e for U)."""
    if e < 0:
        raise ValueError("degree exponent out of range")
    return QPoly.q_power(params.k_exponent * e)


def char_count_poly(params: RadicalParams, e: int, variant: str = "corrected") -> QPoly:
    """Number of irreducible characters of degree |k|^e, exact in q.

    Exponents no character degree attains give the zero polynomial.
    """
    check_variant(variant)
    if e < 0:
        raise ValueError("degree exponent out of range")
    n, d = params.n, params.d
    if d == n:
        return radical_order(params) if e == 0 else QPoly.zero()
    kind = _CENSUS_KIND[params.x]
    r, rest = divmod(e, n - d)
    if rest or r not in attainable_ranks(kind, d):
        return QPoly.zero()
    return census_polynomial(kind, d, r, variant).shifted(2 * params.k_exponent * (d * (n - d) - e))


class DegreeCensusRow(namedtuple("DegreeCensusRow", "r e degree count")):
    """One degree layer, an immutable named tuple: block rank r, exponent e, degree and count in q."""

    __slots__ = ()

    def count_at(self, q: int) -> int:
        return self.count.eval_at(q)

    def degree_at(self, q: int) -> int:
        return self.degree.eval_at(q)


class DegreeCensus(namedtuple("DegreeCensus", "params variant rows")):
    """The full character degree census of one radical, an immutable named tuple: params, variant, rows by rank."""

    __slots__ = ()

    def total_poly(self) -> QPoly:
        """Number of irreducible characters, hence of conjugacy classes."""
        return sum((row.count for row in self.rows), QPoly.zero())

    def sum_of_squares(self) -> QPoly:
        """Sum of count * degree^2 over all rows; should be the group order.

        Each degree must be a power q^k, so its row adds the count's
        coefficients in place, 2k places up, to one running list; any
        other degree raises ValueError.
        """
        total: list[int] = []
        for row in self.rows:
            k = row.degree.degree
            if row.degree.coeffs != (0,) * k + (1,):
                raise ValueError(f"character degree {row.degree} is not a power of q")
            lo, count = 2 * k, row.count.coeffs
            hi = lo + len(count)
            total.extend([0] * (hi - len(total)))
            total[lo:hi] = map(add, total[lo:hi], count)
        return QPoly(total)

    def order_poly(self) -> QPoly:
        return radical_order(self.params)

    def counts_at(self, q: int) -> dict[int, tuple[int, int]]:
        """Map e -> (degree, count) with everything evaluated at q."""
        return {row.e: (row.degree_at(q), row.count_at(q)) for row in self.rows}


def census_table(params: RadicalParams, variant: str = "corrected") -> DegreeCensus:
    """Symbolic census of character degrees for R_u(x, n, d), every row from one rank chain."""
    check_variant(variant)
    n, d = params.n, params.d
    counts = rank_censuses(_CENSUS_KIND[params.x], d, variant) if d < n else {0: radical_order(params)}
    rows = tuple(
        DegreeCensusRow(r, e, degree_poly(params, e), counts[r].shifted(2 * params.k_exponent * (d * (n - d) - e)))
        for r, e in degree_exponents(params)
    )
    return DegreeCensus(params, variant, rows)


def sum_of_squares_check(params: RadicalParams, variant: str = "corrected") -> bool:
    """Exact identity sum count * degree^2 == |R_u| as polynomials in q."""
    return census_table(params, variant).sum_of_squares() == radical_order(params)


def qminus1_report(params: RadicalParams, variant: str = "corrected") -> list[tuple[int, int, list[int]]]:
    """Rows (r, e, coeffs) with each count rewritten in powers of q - 1.

    All coefficients are nonnegative for the corrected variant; that is
    the positivity phenomenon the report is meant to expose.
    """
    rows = census_table(params, variant).rows
    return [
        (row.r, row.e, coeffs)
        for row, coeffs in zip(rows, qminus1_expansions([row.count for row in rows]))
    ]
