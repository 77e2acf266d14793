"""Closed-form counts of fixed-rank matrices in each symmetry class.

Each census function returns the number of n-by-n matrices of the given
rank as an exact polynomial in q, where q is always the size of the
ground field (for the skew-Hermitian class the matrix entries live in
the quadratic extension, but the count is still a polynomial in q).

All three counts are products of a power of q, a Gaussian binomial and
factors q^m +- 1, so they are built by multiplication alone (s = r // 2,
[n r]_q the Gaussian binomial):

    sym(n, r)   = q^(s(s+1)) [n r]_q       prod_{j=1..ceil(r/2)} (q^(2j-1) - 1)
    skew(n, 2s) = q^(s(s-1)) [n 2s]_q      prod_{j=1..s} (q^(2j-1) - 1)
    herm(n, r)  = q^(r(r-1)/2) [n r]_{q^2} prod_{t=1..r} (q^t + (-1)^t)

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
"""

from __future__ import annotations

import numpy as np

from .falinalg import DEFAULT_ENUM_BUDGET, SymmetryClass, class_blocks, ranks
from .gf import BudgetExceeded, FieldCtx
from .qpoly import QPoly, gaussian_binomial

__all__ = [
    "CLASSES",
    "MAX_DEGREE",
    "attainable_ranks",
    "check_degree",
    "check_variant",
    "sym_rank_census",
    "skew_rank_census",
    "skewherm_rank_census",
    "census_polynomial",
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
# `census` command, interpreter start included, takes 0.5 s at degree 1,010
# (C(40,20)) and 1.3-1.4 s at degree 2,000 (U(40,20)) when its output reads
# the (q-1) basis (json, or --basis qminus1), and about 0.3 s at either
# degree as md or csv in the q basis, which skips that expansion.
MAX_DEGREE = 2000


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


def _times(p: QPoly, factors) -> QPoly:
    """p * prod (q^m + sign) over the (m, sign) pairs."""
    for m, sign in factors:
        p = p * (QPoly.q_power(m) + sign)
    return p


def sym_rank_census(n: int, r: int) -> QPoly:
    """Count of n-by-n symmetric matrices of rank r over F_q (MacWilliams)."""
    _check_range(n, r)
    s, t = r // 2, (r + 1) // 2
    head = QPoly.q_power(s * (s + 1)) * gaussian_binomial(n, r)
    return _times(head, [(2 * j - 1, -1) for j in range(1, t + 1)])


def skew_rank_census(n: int, r: int) -> QPoly:
    """Count of n-by-n skew-symmetric matrices of rank r over F_q (Carlitz)."""
    _check_range(n, r)
    if r % 2:
        raise ValueError("skew-symmetric rank must be even")
    s = r // 2
    head = QPoly.q_power(s * (s - 1)) * gaussian_binomial(n, r)
    return _times(head, [(2 * j - 1, -1) for j in range(1, s + 1)])


def skewherm_rank_census(n: int, r: int, variant: str = "corrected") -> QPoly:
    """Count of n-by-n skew-Hermitian matrices of rank r over F_{q^2} (Carlitz-Hodges)."""
    _check_range(n, r)
    check_variant(variant)
    # [n r] in q^2: coefficient k of [n r]_q moves to degree 2k
    binom = gaussian_binomial(n, r).coeffs
    spread = [0] * (2 * len(binom) - 1)
    spread[::2] = binom
    head = QPoly.q_power(r * (r - 1) // 2) * QPoly(spread)
    out = _times(head, [(t, (-1) ** t) for t in range(1, r + 1)])
    if variant == "printed":
        out = out * (QPoly.q() - 1)
    return out


def census_polynomial(kind: str, n: int, r: int, variant: str = "corrected") -> QPoly:
    """Dispatch by class name: sym, skew or herm."""
    check_variant(variant)
    if kind == "sym":
        return sym_rank_census(n, r)
    if kind == "skew":
        return skew_rank_census(n, r)
    if kind == "herm":
        return skewherm_rank_census(n, r, variant)
    raise ValueError("unknown census kind")


def brute_rank_census(
    n: int, cls: SymmetryClass, field: FieldCtx, budget: int = DEFAULT_ENUM_BUDGET
) -> dict[int, int]:
    """Rank histogram of a symmetry class by exhaustive enumeration."""
    counts = np.zeros(n + 1, dtype=np.int64)
    for stack in class_blocks(n, cls, field, budget=budget):
        counts += np.bincount(ranks(field, stack), minlength=n + 1)
    return {r: int(c) for r, c in enumerate(counts) if c}
