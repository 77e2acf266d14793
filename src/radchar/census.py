"""Closed-form counts of fixed-rank matrices in each symmetry class.

Each census function returns the number of n-by-n matrices of the given
rank as an exact polynomial in q, where q is always the size of the
ground field (for the skew-Hermitian class the matrix entries live in
the quadratic extension, but the count is still a polynomial in q).

All three counts are products of a power of q, a Gaussian binomial and
factors q^m +- 1 (s = r // 2, [n r]_q the Gaussian binomial):

    sym(n, r)   = q^(s(s+1)) [n r]_q       prod_{j=1..ceil(r/2)} (q^(2j-1) - 1)
    skew(n, 2s) = q^(s(s-1)) [n 2s]_q      prod_{j=1..s} (q^(2j-1) - 1)
    herm(n, r)  = q^(r(r-1)/2) [n r]_{q^2} prod_{t=1..r} (q^t + (-1)^t)

Each count is one ratio step from the count at the attainable rank below
(factors q^m +- 1, at most one division by q^k - 1, then a coefficient
shift by the power of q it gains):

    sym,  r-1 -> r:  (q^(n-r+1) - 1), then / (q^r - 1) * q^r at even r only
    skew, r-2 -> r:  (q^(n-r+2) - 1)(q^(n-r+1) - 1) / (q^r - 1) * q^(r-2)
    herm, r-1 -> r:  (q^(2(n-r+1)) - 1)(q^r + (-1)^r) / (q^(2r) - 1) * q^(r-1)

They follow from [n r] = [n r-1] (q^(n-r+1) - 1) / (q^r - 1) (in q^2 for herm),
with the new factor q^(2j-1) - 1 cancelling a divisor at odd sym ranks and
at every skew step.  Each division is exact, as its quotient is the next
count, a product in Z[q], and the divisor is monic; QPoly.exact_div checks
it all the same.  rank_censuses walks the chain once; a census function
steps from `below`, the count at the rank below, or walks up to its rank.

These are the classical counts of MacWilliams (symmetric matrices, Amer.
Math. Monthly 1969), Carlitz (skew-symmetric, Duke Math. J. 1954) and
Carlitz and Hodges (Hermitian, Duke Math. J. 1955); a skew-Hermitian
matrix over F_{q^2} is a Hermitian one scaled by a fixed trace-zero
unit, so the last count serves both.

The skew-Hermitian census ships in two variants.  The `printed` form
carries a leading (q-1) factor coming from summing over the q-1
congruence classes of scaled rank-r identity matrices; those classes
all coincide (any nonzero trace-zero scalar can be moved to any other
by a norm), so the factor overcounts by exactly q-1.  The `corrected`
form drops it and is what brute-force enumeration confirms; it is the
default everywhere downstream.

brute_rank_census is the independent oracle: it enumerates the class
exhaustively in code stacks (falinalg.class_blocks) and histograms the
ranks falinalg.ranks gives for each stack, with no closed form involved.
It alone imports numpy and falinalg, when it runs, so the closed forms
load neither.
"""

from __future__ import annotations

from .params import DEFAULT_ENUM_BUDGET, BudgetExceeded, SymmetryClass
from .qpoly import QPoly

__all__ = [
    "CLASSES",
    "MAX_DEGREE",
    "MAX_DIGITS",
    "attainable_ranks",
    "check_degree",
    "check_variant",
    "sym_rank_census",
    "skew_rank_census",
    "skewherm_rank_census",
    "census_polynomial",
    "rank_censuses",
    "brute_rank_census",
]

VARIANTS = ("printed", "corrected")

# the class each census counts in, by the name census_polynomial takes
CLASSES = {
    "sym": SymmetryClass.SYMMETRIC,
    "skew": SymmetryClass.SKEW_SYMMETRIC,
    "herm": SymmetryClass.SKEW_HERMITIAN,
}

# Largest degree in q of a polynomial that one symbolic request may build.
# The command line checks it before it builds anything; the library
# functions themselves take any size.  On 2 Xeon vCPUs with Python 3.11 the
# `census` command, interpreter start included, takes 0.55-0.6 s at degree
# 1,010 (C(40,20)) and 1.4-1.5 s at degree 2,000 (U(40,20)) as json or
# --basis qminus1, mostly the (q-1) expansion, and 0.35-0.45 s at either
# degree as md or csv in the q basis, which skips it (best of 3 processes).
MAX_DEGREE = 2000
# Most digits of a value at q the command line prints: CPython's default int-to-str limit, fixed so every interpreter refuses
# alike.  A census count or degree of degree L is at least q^L / 3 at q >= 3 (factors q^m - 1 of distinct odd m, m = 1 twice).
MAX_DIGITS = 4300


def check_degree(degree: int) -> None:
    """BudgetExceeded if a request would build a polynomial of this degree."""
    if degree > MAX_DEGREE:
        raise BudgetExceeded(f"polynomial degree {degree} exceeds the cap {MAX_DEGREE}")


def check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError("unknown variant")


def _check_range(n: int, r: int) -> None:
    if n < 0:
        raise ValueError("matrix size must be nonnegative")
    if r < 0 or r > n:
        raise ValueError("rank out of range")


def attainable_ranks(kind: str, n: int) -> range:
    """Ranks an n-by-n matrix of the named class can have: even ones only for skew."""
    return range(0, n + 1, 2 if kind == "skew" else 1)


def _ratio(kind: str, n: int, r: int) -> tuple[list[tuple[int, int]], int, int]:
    """Step to rank r: factors (m, sign) for q^m + sign, divisor q^k - 1 (none if k is 0), shift."""
    if kind == "sym":
        return [(n - r + 1, -1)], r * (1 - r % 2), r * (1 - r % 2)
    if kind == "skew":
        return [(n - r + 2, -1), (n - r + 1, -1)], r, r - 2
    return [(2 * (n - r + 1), -1), (r, (-1) ** r)], 2 * r, r - 1


def _step(kind: str, n: int, r: int, below: QPoly | None, variant: str = "corrected") -> QPoly:
    """The rank-r count, one ratio step from below or walked up from rank 0."""
    if below is None:  # q - 1 (printed) or 1 at rank 0
        return rank_censuses(kind, n, variant, top=r)[r] if r else QPoly((-1, 1) if variant == "printed" else (1,))
    factors, k, shift = _ratio(kind, n, r)
    for m, sign in factors:
        below = below.times_binomial(m, sign)
    return (below.exact_div(QPoly.q_power(k) - 1) if k else below).shifted(shift)


def sym_rank_census(n: int, r: int, below: QPoly | None = None) -> QPoly:
    """Count of n-by-n symmetric matrices of rank r over F_q (MacWilliams)."""
    _check_range(n, r)
    return _step("sym", n, r, below)


def skew_rank_census(n: int, r: int, below: QPoly | None = None) -> QPoly:
    """Count of n-by-n skew-symmetric matrices of rank r over F_q (Carlitz)."""
    _check_range(n, r)
    if r % 2:
        raise ValueError("skew-symmetric rank must be even")
    return _step("skew", n, r, below)


def skewherm_rank_census(n: int, r: int, variant: str = "corrected", below: QPoly | None = None) -> QPoly:
    """Count of n-by-n skew-Hermitian matrices of rank r over F_{q^2} (Carlitz-Hodges)."""
    _check_range(n, r)
    check_variant(variant)
    return _step("herm", n, r, below, variant)


def census_polynomial(kind: str, n: int, r: int, variant: str = "corrected", below: QPoly | None = None) -> QPoly:
    """Dispatch by class name: sym, skew or herm."""
    check_variant(variant)
    if kind == "sym":
        return sym_rank_census(n, r, below)
    if kind == "skew":
        return skew_rank_census(n, r, below)
    if kind == "herm":
        return skewherm_rank_census(n, r, variant, below)
    raise ValueError("unknown census kind")


def rank_censuses(kind: str, n: int, variant: str = "corrected", top: int | None = None) -> dict[int, QPoly]:
    """The count at every attainable rank up to top (default n), by one walk up the ratio chain."""
    _check_range(n, 0)
    counts, below = {}, None
    for r in attainable_ranks(kind, n if top is None else top):
        below = counts[r] = census_polynomial(kind, n, r, variant, below)
    return counts


def brute_rank_census(n: int, cls: SymmetryClass, field, budget: int = DEFAULT_ENUM_BUDGET) -> dict[int, int]:
    """Rank histogram of a symmetry class over field, a gf.FieldCtx, by exhaustive enumeration."""
    import numpy as np

    from .falinalg import class_blocks, ranks

    counts = np.zeros(n + 1, dtype=np.int64)
    for stack in class_blocks(n, cls, field, budget=budget):
        counts += np.bincount(ranks(field, stack), minlength=n + 1)
    return {r: int(c) for r, c in enumerate(counts) if c}
