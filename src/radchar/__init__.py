"""Character degree censuses for unipotent radicals of maximal parabolics.

Layered bottom-up: gf (finite fields), qpoly (exact polynomials in q),
falinalg (matrices over the fields), census (rank census closed forms),
orbitmethod (the radical groups, coadjoint orbits, brute-force oracles),
charcensus (symbolic character degree tables), cli (command line).
"""

from .census import (
    brute_rank_census,
    census_polynomial,
    rank_censuses,
    skew_rank_census,
    skewherm_rank_census,
    sym_rank_census,
)
from .charcensus import (
    DegreeCensus,
    DegreeCensusRow,
    census_table,
    char_count_poly,
    degree_exponents,
    qminus1_report,
    sum_of_squares_check,
)
from .falinalg import FfMatrix, rank, trace_pairing, twisted_trace_pairing
from .gf import (
    BudgetExceeded,
    FieldCtx,
    FieldElement,
    field_create,
    field_for_order,
    frobenius,
    norm,
    quadratic_extension,
    relative_trace,
)
from .orbitmethod import (
    OrbitCensus,
    OrbitRecord,
    RadicalContext,
    RadicalParams,
    class_count_brute,
    coadjoint_act,
    coefficient_matrix,
    group_inv,
    group_mul,
    orbit_census,
    orbit_of,
    orbit_partition,
    pairing_nondegeneracy_check,
    radical_order,
)
from .qpoly import QPoly, gaussian_binomial

__version__ = "0.1.0"
