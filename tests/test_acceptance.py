"""Acceptance gate: the eight top-level correctness criteria.

Every criterion is exact (integer or polynomial equality, never
approximate) and carries a wall-clock budget.  Each test prints one
PASS/FAIL line; run with -s to see them even on success.
"""

import random
import time

from radchar.census import (
    brute_rank_census,
    census_polynomial,
    skew_rank_census,
    skewherm_rank_census,
    sym_rank_census,
)
from radchar.charcensus import census_table, qminus1_report
from radchar.falinalg import SymmetryClass, rank
from radchar.gf import field_for_order, quadratic_extension
from radchar.orbitmethod import (
    DEFAULT_CLASS_BUDGET,
    RadicalContext,
    RadicalParams,
    class_count_brute,
    coadjoint_act,
    coadjoint_permutation,
    coefficient_matrix,
    group_mul,
    orbit_census,
    orbit_partition,
    pairing_nondegeneracy_check,
)
from radchar.qpoly import QPoly

RANK_CLASSES = {
    "sym": SymmetryClass.SYMMETRIC,
    "skew": SymmetryClass.SKEW_SYMMETRIC,
    "herm": SymmetryClass.SKEW_HERMITIAN,
}


def _report(num, name, ok, elapsed, limit):
    budget = f"limit {limit}s" if limit else "no limit"
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s, {budget})")


def _valid_d(x, n):
    return range(0, n) if x == "U" else range(1, n + 1)


def test_criterion_1_rank_census_oracle_equivalence():
    start = time.perf_counter()
    grid = [("sym", n, q) for n in range(1, 4) for q in (3, 5)]
    grid += [("skew", n, 3) for n in range(1, 5)]
    grid += [("herm", n, q) for n in range(1, 3) for q in (3, 5)]
    grid.append(("herm", 3, 3))
    failures = []
    for kind, n, q in grid:
        base = field_for_order(q)
        field = quadratic_extension(base) if kind == "herm" else base
        hist = brute_rank_census(n, RANK_CLASSES[kind], field)
        step = 2 if kind == "skew" else 1
        closed = {
            r: census_polynomial(kind, n, r, "corrected").eval_at(q)
            for r in range(0, n + 1, step)
        }
        if {r: hist.get(r, 0) for r in closed} != closed:
            failures.append((kind, n, q))
        elif sum(hist.values()) != sum(closed.values()):
            failures.append((kind, n, q))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(1, "rank censuses equal brute enumeration", ok, elapsed, 60)
    assert not failures, failures
    assert elapsed < 60.0


def test_criterion_2_completeness_identities():
    start = time.perf_counter()
    bad = []
    for n in range(1, 9):
        total = QPoly.zero()
        for r in range(n + 1):
            total = total + sym_rank_census(n, r)
        if total != QPoly.q_power(n * (n + 1) // 2):
            bad.append(("sym", n))
        total = QPoly.zero()
        for r in range(0, n + 1, 2):
            total = total + skew_rank_census(n, r)
        if total != QPoly.q_power(n * (n - 1) // 2):
            bad.append(("skew", n))
        corrected = QPoly.zero()
        printed = QPoly.zero()
        for r in range(n + 1):
            corrected = corrected + skewherm_rank_census(n, r, "corrected")
            printed = printed + skewherm_rank_census(n, r, "printed")
        if corrected != QPoly.q_power(n * n):
            bad.append(("herm corrected", n))
        # the printed variant is required to fail this identity
        if printed == QPoly.q_power(n * n):
            bad.append(("herm printed unexpectedly complete", n))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1.0
    _report(2, "symbolic completeness identities", ok, elapsed, 1)
    assert not bad, bad
    assert elapsed < 1.0


def test_criterion_3_orbit_method_equivalence():
    start = time.perf_counter()
    instances = [
        ("C", 2, 1, 3),
        ("C", 3, 1, 3),
        ("C", 3, 2, 3),
        ("D", 4, 1, 3),
        ("D", 4, 2, 3),
        ("U", 2, 1, 3),
        ("C", 2, 1, 5),
    ]
    failures = []
    for x, n, d, q in instances:
        params = RadicalParams(x, n, d)
        symbolic = census_table(params).counts_at(q)
        orbital = {r.e: (r.degree, r.char_count) for r in orbit_census(params, q).rows}
        if symbolic != orbital:
            failures.append((x, n, d, q, symbolic, orbital))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(3, "orbit census equals symbolic census", ok, elapsed, 60)
    assert not failures, failures
    assert elapsed < 60.0


def test_criterion_4_known_group_extraspecial_27():
    start = time.perf_counter()
    params = RadicalParams("C", 2, 1)
    census = orbit_census(params, 3)
    rows = {r.e: (r.degree, r.char_count) for r in census.rows}
    classes = class_count_brute(params, 3)
    elapsed = time.perf_counter() - start
    ok = rows == {0: (1, 9), 1: (3, 2)} and classes == 11 and elapsed < 5.0
    _report(4, "extraspecial group of order 27", ok, elapsed, 5)
    assert rows == {0: (1, 9), 1: (3, 2)}
    assert classes == 11
    assert elapsed < 5.0


def test_criterion_5_global_identities():
    start = time.perf_counter()
    # symbolic sum of squared degrees for n <= 8, all types and d
    for x in ("C", "D", "U"):
        for n in range(1, 9):
            for d in _valid_d(x, n):
                params = RadicalParams(x, n, d)
                census = census_table(params)
                assert census.sum_of_squares() == QPoly.q_power(params.order_exponent), (x, n, d)
    # numeric: census totals equal brute class counts at every instance
    # with q in {3, 5}, n <= 4 whose order fits the class budget
    checked = 0
    for q in (3, 5):
        for x in ("C", "D", "U"):
            for n in range(1, 5):
                for d in _valid_d(x, n):
                    params = RadicalParams(x, n, d)
                    if q ** params.order_exponent > DEFAULT_CLASS_BUDGET:
                        continue
                    total = census_table(params).total_poly().eval_at(q)
                    assert total == class_count_brute(params, q), (x, n, d, q)
                    checked += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 20
    _report(5, f"global identities ({checked} oracle instances)", ok, elapsed, None)
    assert ok


def test_criterion_6_qminus1_positivity():
    start = time.perf_counter()
    bad = []
    for x in ("C", "D", "U"):
        for n in range(1, 11):
            for d in _valid_d(x, n):
                for r, e, coeffs in qminus1_report(RadicalParams(x, n, d)):
                    if any(not isinstance(c, int) or c < 0 for c in coeffs):
                        bad.append((x, n, d, e))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 10.0
    _report(6, "(q-1)-basis coefficients nonnegative, n <= 10", ok, elapsed, 10)
    assert not bad, bad
    assert elapsed < 10.0


def test_criterion_7_pairing_nondegeneracy():
    start = time.perf_counter()
    bad = []
    for x in ("C", "D", "U"):
        for n in range(1, 5):
            for d in _valid_d(x, n):
                for q in (3, 5):
                    if not pairing_nondegeneracy_check(RadicalParams(x, n, d), q):
                        bad.append((x, n, d, q))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 10.0
    _report(7, "trace pairings perfect on all blocks", ok, elapsed, 10)
    assert not bad, bad
    assert elapsed < 10.0


def test_criterion_8_action_law_and_orbit_rank_invariants():
    start = time.perf_counter()
    rng = random.Random(20260822)
    instances = [("C", 3, 1), ("C", 3, 2), ("D", 4, 2), ("U", 2, 1)]
    for x, n, d in instances:
        params = RadicalParams(x, n, d)
        ctx = RadicalContext(params, 3)
        duals = list(ctx.duals())
        h_order = 3 ** params.h_exponent

        # exhaustive action law over H x H x duals, via permutation tables
        hs = list(ctx.h_elements())
        assert len(hs) == h_order
        perms = {h.key(): coadjoint_permutation(ctx, h) for h in hs}
        for g in hs:
            pg = perms[g.key()]
            for h in hs:
                composed = pg[perms[h.key()]]
                assert (perms[group_mul(g, h).key()] == composed).all(), (x, n, d)

        # sampled action law over full group elements (A-parts included)
        gens = ctx.generators()

        def rand_elt():
            g = ctx.identity()
            for _ in range(4):
                g = group_mul(g, rng.choice(gens))
            return g

        for _ in range(40):
            g, h = rand_elt(), rand_elt()
            alpha = rng.choice(duals)
            lhs = coadjoint_act(group_mul(g, h), alpha)
            rhs = coadjoint_act(g, coadjoint_act(h, alpha))
            assert lhs == rhs, (x, n, d)

        # orbit-rank consistency and the dual-space partition
        records = orbit_partition(ctx)
        covered = 0
        for rec in records:
            e = rank(coefficient_matrix(rec.representative))
            assert rec.e == e
            assert rec.size == ctx.k_order ** e, (x, n, d)
            assert rec.size * rec.stabilizer_order == h_order
            covered += rec.size
        assert covered == ctx.dual_count()

        # fixed points are exactly the duals with vanishing acting block
        h_gens = ctx.h_generators()
        for alpha in duals:
            fixed = all(coadjoint_act(g, alpha) == alpha for g in h_gens)
            block = alpha.b2 if x == "U" else alpha.b1
            assert fixed == block.is_zero(), (x, n, d)

        # counting identities at this instance
        census = orbit_census(params, 3)
        assert census.sum_of_squares() == 3 ** params.order_exponent
        if 3 ** params.order_exponent <= DEFAULT_CLASS_BUDGET:
            assert census.total_chars() == class_count_brute(params, 3)
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    _report(8, "action law and orbit-rank invariants", ok, elapsed, 120)
    assert elapsed < 120.0
