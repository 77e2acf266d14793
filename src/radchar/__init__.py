"""Character degree censuses for unipotent radicals of maximal parabolics.

Two layers.  The symbolic one computes the closed forms without numpy:
qpoly (exact polynomials in q), params (radical parameters, symmetry
classes, prime powers), census (rank census closed forms), charcensus
(symbolic character degree tables).  The oracle one checks them by
enumeration with numpy: gf (finite fields), falinalg (matrices over the
fields), orbitmethod (the radical groups, coadjoint orbits, brute-force
oracles).  The symbolic names are imported here; an oracle name or module
is imported on first use (module __getattr__), as cli (command line)
imports an oracle module only to run an oracle.
"""

import importlib

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
from .params import BudgetExceeded, RadicalParams, radical_order
from .qpoly import QPoly, gaussian_binomial

__version__ = "0.1.0"

# each oracle module and the names it exports here
_ORACLES = {
    "falinalg": ("FfMatrix", "rank"),
    "gf": ("FieldCtx", "field_create", "field_for_order", "quadratic_extension"),
    "orbitmethod": ("OrbitCensus", "OrbitRecord", "RadicalContext", "class_count_brute", "coadjoint_act",
                    "coefficient_matrix", "group_inv", "group_mul", "orbit_census", "orbit_of", "orbit_partition",
                    "pairing_nondegeneracy_check"),
}
_ORACLE_OF = {name: module for module, names in _ORACLES.items() for name in names}


def __getattr__(name: str):
    module = _ORACLE_OF.get(name, name)
    if module not in _ORACLES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORACLE_OF})
