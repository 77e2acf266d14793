"""Closed-form counts of fixed-rank matrices in each symmetry class.

Each census function returns the number of n-by-n matrices of the given
rank as an exact polynomial in q, where q is always the size of the
ground field (for the skew-Hermitian class the matrix entries live in
the quadratic extension, but the count is still a polynomial in q).

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
from .gf import FieldCtx
from .qpoly import QPoly

__all__ = [
    "sym_rank_census",
    "skew_rank_census",
    "skewherm_rank_census",
    "census_polynomial",
    "brute_rank_census",
]

VARIANTS = ("printed", "corrected")


def _check_range(n: int, r: int) -> None:
    if n < 0:
        raise ValueError("matrix size must be nonnegative")
    if r < 0 or r > n:
        raise ValueError("rank out of range")


def _finalize(num: QPoly, den: QPoly) -> QPoly:
    out = num.exact_div(den)
    if not out.is_integral():
        raise ValueError("census polynomial must have integer coefficients")
    return out


def sym_rank_census(n: int, r: int) -> QPoly:
    """Count of n-by-n symmetric matrices of rank r over F_q."""
    _check_range(n, r)
    s = r // 2
    num, den = QPoly.one(), QPoly.one()
    for i in range(1, s + 1):
        num = num * QPoly.q_power(2 * i)
        den = den * (QPoly.q_power(2 * i) - 1)
    for i in range(r):
        num = num * (QPoly.q_power(n - i) - 1)
    return _finalize(num, den)


def skew_rank_census(n: int, r: int) -> QPoly:
    """Count of n-by-n skew-symmetric matrices of rank r over F_q."""
    _check_range(n, r)
    if r % 2:
        raise ValueError("skew-symmetric rank must be even")
    s = r // 2
    num = QPoly.q_power(s * s - s)
    den = QPoly.one()
    for i in range(r):
        num = num * (QPoly.q_power(n - i) - 1)
    for i in range(1, s + 1):
        den = den * (QPoly.q_power(2 * i) - 1)
    return _finalize(num, den)


def skewherm_rank_census(n: int, r: int, variant: str = "corrected") -> QPoly:
    """Count of n-by-n skew-Hermitian matrices of rank r over F_{q^2}."""
    _check_range(n, r)
    if variant not in VARIANTS:
        raise ValueError("unknown variant")
    num = QPoly.q_power(r * (r - 1) // 2)
    den = QPoly.one()
    for i in range(n - r + 1, n + 1):
        num = num * (QPoly.q_power(2 * i) - 1)
    for s in range(1, r + 1):
        den = den * (QPoly.q_power(s) - QPoly.const((-1) ** s))
    if variant == "printed":
        num = num * (QPoly.q() - 1)
    return _finalize(num, den)


def census_polynomial(kind: str, n: int, r: int, variant: str = "corrected") -> QPoly:
    """Dispatch by class name: sym, skew or herm."""
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
