"""Tests for the matrix model of the radical groups and the orbit method.

The frozen numbers come from independent hand computations: class
counts of the extraspecial group of order 27, element counts, and the
small coadjoint orbit structures that can be checked by hand.
"""

import hashlib
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from radchar import falinalg, orbitmethod
from radchar.cli import CLASS_TRIPLES, ORBIT_TRIPLES
from radchar.falinalg import FfMatrix, matmul, rank, ranks
from radchar.gf import field_for_order
from radchar.params import BudgetExceeded
from radchar.qpoly import QPoly
from radchar.orbitmethod import (
    DualElement,
    RadicalContext,
    RadicalParams,
    class_count_brute,
    coadjoint_act,
    coadjoint_permutation,
    coefficient_matrix,
    group_inv,
    group_mul,
    orbit_census,
    orbit_of,
    orbit_partition,
    pairing_nondegeneracy_check,
    radical_order,
    _Action,
    _Frame,
    _orbit_labels,
)


def ctx_for(x, n, d, q):
    return RadicalContext(RadicalParams(x, n, d), q)


def _element_stack(ctx):
    """Ambient codes of all elements, in enumeration order, built from the chunks the walks read."""
    return np.concatenate([ctx._element_ambient(*blocks) for blocks in ctx._element_chunks()])


def _dual_stack(ctx):
    """Ambient codes of all duals, in enumeration order, built from the chunks the walks read."""
    return np.concatenate([ctx._dual_ambient(*blocks) for blocks in ctx._dual_chunks()])


def _dual_blocks(ctx):
    """Stacked blocks (b1, b3, b2) of all duals, in enumeration order."""
    return tuple(np.concatenate(blocks) for blocks in zip(*ctx._dual_chunks()))


def rand_element(ctx, rng):
    f = ctx.field
    d, n = ctx.d, ctx.n

    def rnd(shape):
        flat = [rng.randrange(f.q) for _ in range(shape[0] * shape[1])]
        return np.array(flat, dtype=np.int16).reshape(shape)

    a = rnd((d, n - d))
    if ctx.params.x == "C":
        u = rnd((d, d))
        b1 = f._add[u, u.T]
        b2 = rnd((d, n - d))
    elif ctx.params.x == "D":
        u = rnd((d, d))
        b1 = f._sub[u, u.T]
        b2 = rnd((d, n - d))
    else:
        b1 = rnd((d, n - d))
        w = rnd((d, d))
        S = f._sub[w, f._frob[w.T]]
        b2 = S[:, ::-1]
    return ctx.element(b1, b2, a)


def test_params_validation():
    with pytest.raises(ValueError, match="one of C, D, U"):
        RadicalParams("B", 3, 1)
    with pytest.raises(ValueError, match="d out of range"):
        RadicalParams("C", 3, 0)
    with pytest.raises(ValueError, match="d out of range"):
        RadicalParams("C", 3, 4)
    with pytest.raises(ValueError, match="d out of range"):
        RadicalParams("U", 3, 3)
    with pytest.raises(ValueError, match="n out of range"):
        RadicalParams("C", 0, 0)
    # type U allows d = 0 (the trivial group)
    assert RadicalParams("U", 3, 0).order_exponent == 0


def test_params_dynkin_warnings():
    with pytest.warns(UserWarning, match="Dynkin"):
        RadicalParams("C", 2, 1)
    with pytest.warns(UserWarning, match="Dynkin"):
        RadicalParams("D", 3, 2)


def test_radical_order_examples():
    assert radical_order(RadicalParams("C", 2, 1)) == QPoly.q_power(3)
    assert radical_order(RadicalParams("D", 4, 2)) == QPoly.q_power(9)
    assert radical_order(RadicalParams("U", 2, 1)) == QPoly.q_power(5)
    assert radical_order(RadicalParams("C", 3, 3)) == QPoly.q_power(6)
    assert radical_order(RadicalParams("D", 4, 1)) == QPoly.q_power(6)
    assert radical_order(RadicalParams("C", 2, 1)).eval_at(3) == 27


def test_element_counts_exhaustive():
    for (x, n, d, q), expected in [
        (("C", 2, 1, 3), 27),
        (("U", 2, 1, 3), 243),
        (("D", 3, 1, 3), 81),
    ]:
        ctx = ctx_for(x, n, d, q)
        keys = {g._ambient_codes().tobytes() for g in ctx.elements()}
        assert len(keys) == expected == q ** ctx.params.order_exponent


def test_group_law_closure_exhaustive():
    ctx = ctx_for("C", 2, 1, 3)
    els = list(ctx.elements())
    ident = ctx.identity()
    for g in els:
        assert group_mul(g, ident) == g
        assert group_mul(ident, g) == g
    # closure: every one of the 729 products must decompose cleanly
    for g in els:
        for h in els:
            group_mul(g, h)
    # associativity on a spread of triples
    rng = random.Random(5)
    for _ in range(60):
        g, h, k = (rng.choice(els) for _ in range(3))
        assert group_mul(group_mul(g, h), k) == group_mul(g, group_mul(h, k))


def test_h_and_a_are_subgroups():
    for ctx in [ctx_for("C", 3, 2, 3), ctx_for("U", 2, 1, 3)]:
        f = ctx.field
        hs = list(ctx.h_elements())
        for g in hs[:6]:
            for h in hs[:6]:
                prod = group_mul(g, h)
                assert np.array_equal(prod._a, f._add[g._a, h._a])
                assert not prod._b1.any() and not prod._b2.any()
        rng = random.Random(3)
        for _ in range(10):
            g, h = rand_element(ctx, rng), rand_element(ctx, rng)
            ga = ctx.a_element(g._b1, g._b2)
            ha = ctx.a_element(h._b1, h._b2)
            prod = group_mul(ga, ha)
            assert not prod._a.any()
            assert np.array_equal(prod._b1, f._add[ga._b1, ha._b1])
            assert np.array_equal(prod._b2, f._add[ga._b2, ha._b2])


def test_inverse_round_trip():
    rng = random.Random(11)
    for ctx in [ctx_for("C", 3, 2, 3), ctx_for("D", 4, 2, 3), ctx_for("U", 3, 1, 3)]:
        ident = ctx.identity()
        for _ in range(25):
            g = rand_element(ctx, rng)
            assert group_mul(g, group_inv(g)) == ident
            assert group_mul(group_inv(g), g) == ident


def test_group_mul_random_closure_u():
    # every product must decompose back into valid constrained blocks
    rng = random.Random(17)
    ctx = ctx_for("U", 3, 2, 3)
    for _ in range(40):
        g, h = rand_element(ctx, rng), rand_element(ctx, rng)
        prod = group_mul(g, h)
        recon = group_mul(prod, ctx.identity())
        assert recon == prod


def test_element_validation_errors():
    ctx = ctx_for("C", 3, 2, 3)
    with pytest.raises(ValueError, match="symmetric"):
        ctx.element([[0, 1], [2, 0]], [[0], [0]], [[0], [0]])
    with pytest.raises(ValueError, match="shape"):
        ctx.element([[0]], [[0], [0]], [[0], [0]])
    ctxd = ctx_for("D", 4, 2, 3)
    with pytest.raises(ValueError, match="skew"):
        ctxd.element([[1, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    ctxu = ctx_for("U", 2, 1, 3)
    with pytest.raises(ValueError, match="skew-Hermitian"):
        ctxu.element([[0]], [[1]], [[0]])
    with pytest.raises(ValueError, match="wrong field"):
        other = FfMatrix(ctx_for("C", 3, 2, 5).field, [[0, 0], [0, 0]])
        ctx.element(other, [[0], [0]], [[0], [0]])
    # a non-integer code is refused, not truncated
    with pytest.raises(TypeError, match="must be integers"):
        ctx.element([[0, 0], [0, 0]], [[0], [0]], [[1.5], [0]])
    with pytest.raises(TypeError, match="must be integers"):
        ctx.element([[0, 0], [0, 0]], [[0], [0]], np.array([[1.5], [0.0]]))


def test_dual_validation_errors():
    ctx = ctx_for("C", 3, 2, 3)
    with pytest.raises(ValueError, match="symmetric"):
        ctx.dual([[0, 1], [2, 0]], [[0], [0]], [[0, 0]])
    with pytest.raises(ValueError, match="b2 transposed"):
        ctx.dual([[0, 0], [0, 0]], [[1], [0]], [[0, 0]])
    ctxu = ctx_for("U", 2, 1, 3)
    with pytest.raises(ValueError, match="twisted transpose"):
        ctxu.dual([[1]], [[0]], [[3]])


def test_dual_validation_checks_every_matrix_of_a_stack():
    # one bad dual among valid ones fails the whole stack, with the
    # message a single bad dual gets
    for ctx, message in ((ctx_for("C", 3, 2, 3), "b1 must be symmetric"), (ctx_for("U", 2, 1, 3), "twisted transpose")):
        b1, b3, b2 = (block.copy() for block in _dual_blocks(ctx))
        ctx._validate_dual_blocks(b1, b3, b2)
        b1[len(b1) // 2, 0, -1] = ctx.field._add[b1[len(b1) // 2, 0, -1], 1]
        with pytest.raises(ValueError, match=message):
            ctx._validate_dual_blocks(b1, b3, b2)


def test_coadjoint_frozen_example():
    # smallest type C instance: A = 1 sends (b1, b3, b2) = (1, 0, 0)
    # to (1, -1, -1), which is (1, 2, 2) in codes
    ctx = ctx_for("C", 2, 1, 3)
    g = ctx.h_element([[1]])
    alpha = ctx.dual_from_free([[1]], [[0]])
    beta = coadjoint_act(g, alpha)
    assert beta._b1.tolist() == [[1]]
    assert beta._b3.tolist() == [[2]]
    assert beta._b2.tolist() == [[2]]


def _cd_closed_form(alpha, A: np.ndarray) -> DualElement:
    ctx, f = alpha.ctx, alpha.ctx.field
    b1, b3, b2 = alpha._b1, alpha._b3, alpha._b2
    return ctx.dual(b1, f._sub[b3, matmul(f, b1, A)], f._sub[b2, matmul(f, A.T, b1)])


def _u_closed_form(alpha, A1: np.ndarray) -> DualElement:
    ctx, f = alpha.ctx, alpha.ctx.field
    d, n = ctx.d, ctx.n
    # A2 = -J conj(A1)^t J, with J the reversal (antidiagonal permutation) matrix
    def J(k):
        return np.eye(k, dtype=np.int16)[::-1]

    A2 = f._neg[matmul(f, matmul(f, J(n - d), f._frob[A1.T]), J(d))]
    b1, b3, b2 = alpha._b1, alpha._b3, alpha._b2
    return ctx.dual(f._add[b1, matmul(f, A2, b2)], f._sub[b3, matmul(f, b2, A1)], b2)


def test_coadjoint_matches_closed_form_cd():
    for ctx in [ctx_for("C", 2, 1, 3), ctx_for("D", 3, 2, 3)]:
        for g in ctx.h_elements():
            for alpha in ctx.duals():
                assert coadjoint_act(g, alpha) == _cd_closed_form(alpha, g._a)


def test_coadjoint_matches_closed_form_u():
    ctx = ctx_for("U", 2, 1, 3)
    for g in ctx.h_elements():
        for alpha in ctx.duals():
            assert coadjoint_act(g, alpha) == _u_closed_form(alpha, g._a)


def test_a_part_acts_trivially():
    ctx = ctx_for("C", 2, 1, 3)
    duals = list(ctx.duals())
    for g in ctx.elements():
        hpart = ctx.h_element(g._a)
        for alpha in duals:
            assert coadjoint_act(g, alpha) == coadjoint_act(hpart, alpha)
    rng = random.Random(23)
    ctxu = ctx_for("U", 2, 1, 3)
    dualsu = list(ctxu.duals())
    for _ in range(15):
        g = rand_element(ctxu, rng)
        hpart = ctxu.h_element(g._a)
        for alpha in rng.sample(dualsu, 6):
            assert coadjoint_act(g, alpha) == coadjoint_act(hpart, alpha)


def test_fixed_points_iff_coefficient_block_vanishes():
    for ctx in [ctx_for("C", 2, 1, 3), ctx_for("D", 3, 2, 3), ctx_for("U", 2, 1, 3)]:
        for alpha in ctx.duals():
            block = alpha._b2 if ctx.params.x == "U" else alpha._b1
            rec = orbit_of(alpha)
            assert (rec.size == 1) == (not block.any())


def test_coefficient_matrix_block_diagonal():
    ctx = ctx_for("C", 3, 1, 3)
    alpha = ctx.dual_from_free([[2]], [[0], [0]])
    P = coefficient_matrix(alpha)
    assert P.codes.tolist() == [[2, 0], [0, 2]]
    ctxu = ctx_for("U", 2, 1, 3)
    t = ctxu.field.base.q  # the code of the adjoined generator t
    beta = ctxu.dual_from_free([[t]], [[0]])
    assert coefficient_matrix(beta).codes.tolist() == [[t]]


def test_orbit_examples():
    ctx = ctx_for("C", 2, 1, 3)
    rec = orbit_of(ctx.dual_from_free([[1]], [[0]]))
    assert (rec.size, rec.stabilizer_order, rec.e, rec.degree) == (3, 1, 1, 3)
    ctxu = ctx_for("U", 2, 1, 3)
    t = ctxu.field.base.q
    recu = orbit_of(ctxu.dual_from_free([[t]], [[0]]))
    assert (recu.size, recu.stabilizer_order, recu.e, recu.degree) == (9, 1, 1, 9)


@pytest.mark.parametrize("x, n, d, q", [("C", 3, 2, 3), ("D", 4, 2, 3), ("U", 2, 1, 3), ("C", 2, 1, 5)])
def test_orbit_of_agrees_with_orbit_partition(x, n, d, q):
    # orbit_of labels one fiber, orbit_partition the whole dual space; the
    # orbit of each representative is read off the permutations of all of H
    ctx = ctx_for(x, n, d, q)
    duals = list(ctx.duals())
    position = {alpha.key(): i for i, alpha in enumerate(duals)}
    perms = [coadjoint_permutation(ctx, h) for h in ctx.h_elements()]
    record_at = {}
    for record in orbit_partition(ctx):
        pos = position[record.representative.key()]
        for perm in perms:
            record_at[int(perm[pos])] = record
    assert len(record_at) == len(duals)
    for i, alpha in enumerate(duals):
        mine, theirs = orbit_of(alpha), record_at[i]
        assert (mine.size, mine.stabilizer_order, mine.e) == (theirs.size, theirs.stabilizer_order, theirs.e)


def test_elements_of_another_group_are_refused():
    # another (n, d) over the same field, and the same (n, d) over F_5 on a
    # q = 3 context, whose codes would run past the F_3 tables
    ctx = ctx_for("C", 3, 2, 3)
    alpha = next(ctx.duals())
    for other in (ctx_for("C", 3, 1, 3), ctx_for("C", 3, 2, 5)):
        g = other.generators()[-1]
        with pytest.raises(ValueError, match="elements from different radical groups"):
            coadjoint_permutation(ctx, g)
        with pytest.raises(ValueError, match="elements from different radical groups"):
            coadjoint_act(g, alpha)
        with pytest.raises(ValueError, match="elements from different radical groups"):
            group_mul(g, ctx.identity())


@pytest.mark.parametrize(
    "x, n, d, message",
    [
        # the trivial group U(100000, 0): one dual of 200000x200000 codes
        ("U", 100000, 0, "the walk over 1 duals holds 10320000131136 bytes, over the cap 1073741824"),
        ("C", 6, 3, "14348907 duals exceeds budget 1000000"),
    ],
)
def test_a_whole_dual_space_permutation_is_refused_before_allocating(x, n, d, message):
    # coadjoint_permutation reads every dual, so the orbit budget and the
    # walk cap refuse it as they refuse orbit_partition
    ctx = ctx_for(x, n, d, 3)
    g = ctx.identity()
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as refused:
            coadjoint_permutation(ctx, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert str(refused.value) == f"enumeration too large: {message}"
    assert peak < 5_000_000


@pytest.mark.parametrize(
    "walk, x, n, d, bound",
    [
        ("orbits", "C", 4, 3, 1.6),
        ("orbits", "C", 5, 2, 1.6),
        ("classes", "D", 4, 2, 1.9),
        ("orbits", "C", 4, 3, 1.0),
        ("orbits", "C", 5, 2, 1.0),
        ("classes", "D", 4, 2, 1.5),
        # 3^12 duals in batches of whole fibers: the walk holds one batch at a time
        ("orbits", "C", 5, 3, 0.1),
    ],
)
def test_a_walk_holds_no_ambient_stack_while_it_labels(walk, x, n, d, bound):
    # a walk builds its points a chunk at a time and keeps their coordinates
    # alone, so its peak, set against the ambient codes of all its points
    # (points x 2 x (2n)^2 bytes, a stack no walk builds), is what labelling
    # takes: below one such stack for the orbit walks
    ctx = ctx_for(x, n, d, 3)
    if walk == "orbits":
        points = ctx.dual_count()
        run = lambda: orbit_partition(ctx)
    else:
        points = 3 ** ctx.params.order_exponent
        run = lambda: class_count_brute(ctx.params, ctx, budget=points)
    run()  # what the context caches (masks, pivots, H's frame) is built here, outside the trace
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * points * 2 * (2 * n) ** 2


@pytest.mark.parametrize(
    "walk, x, n, d",
    [
        ("classes", "D", 4, 2),
        ("classes", "U", 3, 1),
        ("orbits", "C", 4, 3),
        ("orbits", "C", 5, 3),
        # the zero fiber of D(6,3) is 19,683 singleton orbits in one batch
        ("orbits", "D", 6, 3),
        # H is trivial: 59,049 singleton orbits, a record each
        ("orbits", "C", 4, 4),
        ("orbit_of", "C", 5, 3),
        ("permutation", "C", 4, 3),
    ],
)
def test_a_walk_holds_at_most_what_its_check_charges(monkeypatch, walk, x, n, d):
    # _check_walk states what a walk holds; a walk on a new context, caches
    # and all, peaks under tracemalloc at no more than the bytes it charged
    charged = []
    real = orbitmethod._check_walk
    monkeypatch.setattr(orbitmethod, "_check_walk", lambda *args: charged.append(real(*args)) or charged[-1])
    ctx = ctx_for(x, n, d, 3)
    alpha, g = next(ctx.duals()), ctx.generators()[-1]
    run = {
        "classes": lambda: class_count_brute(ctx.params, ctx, budget=3 ** ctx.params.order_exponent),
        "orbits": lambda: orbit_partition(ctx),
        "orbit_of": lambda: orbit_of(alpha),
        "permutation": lambda: coadjoint_permutation(ctx, g),
    }[walk]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < peak <= max(charged)


@pytest.mark.parametrize("x, n, d, q", [("C", 4, 2, 3), ("D", 5, 2, 3), ("U", 3, 2, 3), ("U", 2, 1, 5), ("C", 3, 1, 9), ("D", 4, 4, 3), ("C", 6, 3, 3)])
def test_the_walk_rule_reads_generators_and_entries_off_the_layout(x, n, d, q):
    # _check_walk counts log_p of the group order as generators, and the
    # entries of the supports as the context counts them off their slots
    ctx = ctx_for(x, n, d, q)
    degree = ctx.base_field.degree
    assert len(ctx.generators()) == ctx.params.order_exponent * degree
    assert len(ctx.h_generators()) == ctx.params.h_exponent * degree
    assert (ctx._mask.sum(), ctx._element_mask.sum()) == (ctx._dual_entries, ctx._element_entries)


@pytest.mark.parametrize(
    "x, n, d, q, cap, up_front",
    [
        # H is trivial, so the #duals / |H| records charged before the walk
        # are exact: 59,049, 117,649 and 1,771,561 records refuse it at once
        ("C", 4, 4, 3, 2 ** 25, True),
        ("D", 4, 4, 7, 2 ** 25, True),
        ("C", 3, 3, 11, 2 ** 30, True),
        # 2,737 orbits, 343 charged up front: the records made refuse the
        # walk between two batches
        ("D", 4, 3, 7, 3 * 2 ** 20, False),
    ],
)
def test_orbit_records_past_the_cap_are_refused(monkeypatch, x, n, d, q, cap, up_front):
    monkeypatch.setattr(orbitmethod, "_MAX_WALK_BYTES", cap)
    ctx = ctx_for(x, n, d, q)
    # the duals in the orbits of each batch of records made
    batches, real = [], orbitmethod._records
    monkeypatch.setattr(orbitmethod, "_records", lambda ctx, reps, sizes, system_ranks: batches.append(sum(sizes)) or real(ctx, reps, sizes, system_ranks))
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=f"^enumeration too large: the walk over {ctx.dual_count()} duals holds [0-9]+ bytes, over the cap {cap}$"):
            orbit_partition(ctx, budget=10 ** 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if up_front:
        assert batches == [] and peak < 5_000_000 and time.perf_counter() - start < 1.0
    else:
        assert 0 < sum(batches) < ctx.dual_count() and peak < 2 * cap


def test_the_walk_rule_admits_the_orbit_walk_of_c63(monkeypatch):
    # C(6,3) at q = 3: 3^15 duals in batches of one fiber of 3^9, and 3^6
    # records charged up front; the walk itself (45,423 orbits, 80 MB in a
    # fresh process) is not run here
    class Admitted(Exception):
        pass

    def admitted(self):
        raise Admitted

    monkeypatch.setattr(RadicalContext, "_v_stack", admitted)
    with pytest.raises(Admitted):
        orbit_partition(ctx_for("C", 6, 3, 3), budget=3 ** 15)


def test_no_walk_builds_the_ambient_codes_of_more_than_one_chunk(monkeypatch):
    # 3^9 elements of D(4,2) and 3^9 duals of C(4,3) at q = 3, five chunks
    # each: every ambient stack a walk builds holds at most one chunk (the
    # generators are built one matrix at a time); orbit_partition builds the
    # three unit duals (0, u) of its fiber basis and the duals (c, 0) of all
    # 729 fibers, one stack each
    sizes = []

    def recording(name):
        real = getattr(RadicalContext, name)

        def build(self, *blocks):
            if blocks[-1].ndim == 3:
                sizes.append(len(blocks[-1]))
            return real(self, *blocks)

        monkeypatch.setattr(RadicalContext, name, build)

    recording("_element_ambient")
    recording("_dual_ambient")
    assert class_count_brute(RadicalParams("D", 4, 2), 3, budget=3 ** 9) > 0
    assert len(sizes) == 5 and max(sizes) == orbitmethod._CHUNK
    sizes.clear()
    ctx = ctx_for("C", 4, 3, 3)
    orbit_partition(ctx)
    coadjoint_permutation(ctx, ctx.generators()[-1])
    assert len(sizes) == 7 and max(sizes) == orbitmethod._CHUNK


def test_a_dual_stream_builds_the_class_grid_once(monkeypatch):
    # three chunks of the 3^12 duals of C(5,3) at q = 3 enumerate V's class once
    calls = []
    real = orbitmethod.class_blocks

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(orbitmethod, "class_blocks", counting)
    duals = ctx_for("C", 5, 3, 3).duals()
    assert sum(1 for _ in itertools.islice(duals, 3 * orbitmethod._CHUNK)) == 3 * orbitmethod._CHUNK
    assert len(calls) == 1


def test_a_frame_draws_its_sample_when_it_builds_its_probes():
    # d = n: H is trivial, so the orbit walk reads no generator and draws no
    # sample; on C(300,300) the 90,000 coordinates' sample is never drawn
    ctx = ctx_for("C", 2, 2, 3)
    orbit_partition(ctx)
    assert "_sample" not in ctx._h_frame.__dict__
    ctx = ctx_for("C", 300, 300, 3)
    zero = ctx.dual(*(np.zeros(shape, dtype=np.int16) for shape in ctx._dual_shapes))
    tracemalloc.start()
    try:
        record = orbit_of(zero)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (record.size, record.e) == (1, 0)
    assert peak < 20_000_000


def test_orbit_walks_invert_the_h_generators_once_per_context(monkeypatch):
    # orbit_partition and orbit_of on every dual share the (g, g^-1) pairs
    # their context built, so each H-generator is inverted once, not once
    # per walk
    inverted = []

    def counting_inv(g):
        inverted.append(g)
        return group_inv(g)

    monkeypatch.setattr(orbitmethod, "group_inv", counting_inv)
    ctx = ctx_for("D", 4, 2, 3)
    orbit_partition(ctx)
    for alpha in ctx.duals():
        orbit_of(alpha)
    assert len(inverted) == len(ctx.h_generators()) == 4


def test_the_h_frame_conjugates_one_probe_stack_per_generator(monkeypatch):
    # the units and the check sample are one stack, so reading a generator
    # is one conjugation, not one for the units and one for the sample
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    real = orbitmethod._conjugates
    monkeypatch.setattr(orbitmethod, "_conjugates", counting)
    ctx = ctx_for("C", 3, 2, 3)
    frame = ctx._h_frame
    coordinates = len(frame.entries) * ctx.field.degree
    assert len(calls) == len(ctx.h_generators()) == 2
    assert calls == [coordinates + orbitmethod._SAMPLE] * 2


@pytest.mark.parametrize("x, n", [("C", 2), ("D", 3)])
def test_a_frame_builds_its_probes_when_it_reads_its_first_generator(x, n):
    # d = n: H is trivial, so the orbit walk reads no generator and builds no
    # probe; A fixes every dual, and reading one of its generators builds them
    ctx = ctx_for(x, n, n, 3)
    assert [r.size for r in orbit_partition(ctx)] == [1] * ctx.dual_count()
    assert "_probes" not in ctx._h_frame.__dict__
    for g in ctx.generators():
        np.testing.assert_array_equal(coadjoint_permutation(ctx, g), np.arange(ctx.dual_count()))
    assert "_probes" in ctx._h_frame.__dict__


def test_orbit_of_on_an_abelian_radical_builds_no_probe():
    # C(60,60): |H| = 1, so the zero dual's orbit is itself; the 3,600
    # (120 x 120) unit matrices of the dual support are never built
    ctx = ctx_for("C", 60, 60, 3)
    zero = ctx.dual(*(np.zeros(shape, dtype=np.int16) for shape in ctx._dual_shapes))
    tracemalloc.start()
    try:
        record = orbit_of(zero)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (record.size, record.e) == (1, 0)
    assert peak < 10_000_000


def test_orbit_census_frozen_values():
    expected = {
        ("C", 2, 1, 3): {0: (3, 3, 9, 1), 1: (6, 2, 2, 3)},
        ("C", 3, 1, 3): {0: (9, 9, 81, 1), 2: (18, 2, 2, 9)},
        ("C", 3, 2, 3): {0: (9, 9, 81, 1), 1: (72, 24, 72, 3), 2: (162, 18, 18, 9)},
        ("D", 3, 2, 3): {0: (9, 9, 81, 1), 2: (18, 2, 2, 9)},
        ("U", 2, 1, 3): {0: (9, 9, 81, 1), 1: (18, 2, 2, 9)},
    }
    for (x, n, d, q), rows in expected.items():
        census = orbit_census(RadicalParams(x, n, d), q)
        got = {r.e: (r.dual_count, r.orbit_count, r.char_count, r.degree) for r in census.rows}
        assert got == rows, (x, n, d, q)


def test_orbit_census_against_class_count():
    # sum of character counts must equal the number of conjugacy classes
    for x, n, d, q in [("C", 2, 1, 3), ("C", 3, 1, 3), ("U", 2, 1, 3), ("D", 3, 2, 3), ("C", 2, 1, 5)]:
        params = RadicalParams(x, n, d)
        census = orbit_census(params, q)
        assert census.total_chars() == class_count_brute(params, q)
        assert census.sum_of_squares() == q ** params.order_exponent


def test_extraspecial_class_count():
    # R_u for (C, 2, 1) at q = 3 is the extraspecial group of order 27
    # and exponent 3: 11 classes, 9 linear characters, 2 of degree 3
    params = RadicalParams("C", 2, 1)
    assert class_count_brute(params, 3) == 11
    census = orbit_census(params, 3)
    by_e = {r.e: r for r in census.rows}
    assert by_e[0].char_count == 9
    assert by_e[1].char_count == 2
    assert by_e[1].degree == 3


def test_abelian_full_flag_case():
    # d = n gives an abelian group: every element is its own class
    params = RadicalParams("C", 3, 3)
    assert class_count_brute(params, 3) == 3 ** params.order_exponent == 729
    census = orbit_census(params, 3)
    by_e = {r.e: r for r in census.rows}
    assert census.rows == (by_e[0],)
    assert by_e[0].char_count == 729


def test_nonabelian_type_d_edge():
    # the matrix model for (D, n, n-1) is not abelian for n >= 3: its
    # class count falls short of the group order
    params = RadicalParams("D", 3, 2)
    order = 3 ** params.order_exponent
    assert order == 243
    assert class_count_brute(params, 3) == 83 < order


def test_orbit_partition_consistency():
    ctx = ctx_for("C", 3, 2, 3)
    records = orbit_partition(ctx)
    assert sum(r.size for r in records) == ctx.dual_count() == 243
    census = orbit_census(ctx.params, ctx)
    by_e_duals = {}
    by_e_orbits = {}
    for r in records:
        by_e_duals[r.e] = by_e_duals.get(r.e, 0) + r.size
        by_e_orbits[r.e] = by_e_orbits.get(r.e, 0) + 1
        assert r.size * r.stabilizer_order == ctx.q ** ctx.params.h_exponent
    assert by_e_duals == {r.e: r.dual_count for r in census.rows}
    assert by_e_orbits == {r.e: r.orbit_count for r in census.rows}


def test_action_law_permutations():
    ctx = ctx_for("C", 2, 1, 3)
    els = list(ctx.elements())
    perms = {g.key(): coadjoint_permutation(ctx, g) for g in els}
    for g in els:
        for h in els:
            gh = group_mul(g, h)
            assert np.array_equal(perms[gh.key()], perms[g.key()][perms[h.key()]])


def test_action_law_permutations_u_sampled():
    ctx = ctx_for("U", 2, 1, 3)
    rng = random.Random(29)
    cache = {}

    def perm_of(g):
        if g.key() not in cache:
            cache[g.key()] = coadjoint_permutation(ctx, g)
        return cache[g.key()]

    for _ in range(40):
        g, h = rand_element(ctx, rng), rand_element(ctx, rng)
        gh = group_mul(g, h)
        assert np.array_equal(perm_of(gh), perm_of(g)[perm_of(h)])


def test_pairing_nondegeneracy():
    cases = [
        ("C", 2, 1, 3),
        ("C", 3, 2, 3),
        ("C", 3, 3, 3),
        ("C", 2, 1, 9),
        ("D", 4, 2, 3),
        ("D", 3, 1, 5),
        ("U", 2, 1, 3),
        ("U", 3, 2, 3),
        ("U", 2, 1, 9),
    ]
    for x, n, d, q in cases:
        assert pairing_nondegeneracy_check(RadicalParams(x, n, d), q), (x, n, d, q)


# entry fields F_3, F_5, F_9, F_25 and F_81 (U over F_9), all three types, an empty basis (U(1,0)) and d = n
PAIRING_GRID = (
    ("C", 2, 1, 3), ("C", 3, 3, 5), ("C", 2, 1, 9), ("C", 3, 2, 25),
    ("D", 4, 2, 3), ("D", 3, 3, 9), ("D", 4, 1, 5),
    ("U", 1, 0, 3), ("U", 3, 1, 3), ("U", 2, 1, 5), ("U", 2, 1, 9), ("U", 3, 2, 3),
)


def test_stacked_pairing_checks_match_one_at_a_time():
    instances = [(RadicalParams(x, n, d), field_for_order(q)) for x, n, d, q in PAIRING_GRID]
    assert len(orbitmethod._lie_a_basis(RadicalContext(*instances[7]))) == 0
    assert orbitmethod._pairing_checks(instances) == [pairing_nondegeneracy_check(*i) for i in instances] == [True] * len(instances)


@pytest.mark.parametrize("corrupt", [1, 4, 11])
def test_a_degenerate_basis_fails_its_own_pairing_check_alone(monkeypatch, corrupt):
    # a repeated row in one member's basis, over F_5, F_3 and F_9, each entry field shared with other members
    instances = [(RadicalParams(x, n, d), field_for_order(q)) for x, n, d, q in PAIRING_GRID]
    real = orbitmethod._lie_a_basis

    def lie_a_basis(ctx):
        basis = real(ctx)
        return np.concatenate([basis, basis[:1]]) if (ctx.params, ctx.base_field) == instances[corrupt] else basis

    monkeypatch.setattr(orbitmethod, "_lie_a_basis", lie_a_basis)
    expected = [i != corrupt for i in range(len(instances))]
    assert orbitmethod._pairing_checks(instances) == expected
    assert [pairing_nondegeneracy_check(*i) for i in instances] == expected


def test_budget_errors():
    with pytest.raises(ValueError, match="enumeration too large"):
        class_count_brute(RadicalParams("C", 4, 2), 3, budget=100)
    with pytest.raises(ValueError, match="enumeration too large"):
        orbit_census(RadicalParams("C", 4, 2), 3, budget=10)
    ctx = ctx_for("C", 2, 1, 3)
    with pytest.raises(ValueError, match="enumeration too large"):
        orbit_of(ctx.dual_from_free([[1]], [[0]]), budget=1)


def test_trivial_group_u_d0():
    params = RadicalParams("U", 2, 0)
    ctx = RadicalContext(params, 3)
    els = list(ctx.elements())
    assert len(els) == 1
    census = orbit_census(params, 3)
    assert census.total_chars() == 1
    assert class_count_brute(params, 3) == 1


def test_class_count_reaches_3_to_the_9():
    # both groups have q^9 elements; the closed form gives 6563 classes
    for x, n, d in [("D", 4, 2), ("U", 3, 1)]:
        assert class_count_brute(RadicalParams(x, n, d), 3, budget=3 ** 9) == 6563


def test_class_count_reaches_3_to_the_11():
    # C(4,2) has 3^11 = 177,147 elements; the closed form gives 7227 classes
    assert class_count_brute(RadicalParams("C", 4, 2), 3, budget=3 ** 11) == 7227


def _records_digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(r.representative.key() + f"|{r.size}|{r.stabilizer_order}|{r.e}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "x, n, d, count, digest",
    [
        ("C", 4, 2, 171, "01f5e86561f6a325112941251a5df50f26f3e44e78bb6c73de4b554d5c2c6add"),
        ("D", 5, 2, 731, "9dff45c1c8357e5976b0551cad355622114719d39060234cb563c83e8c7ff647"),
        ("U", 3, 2, 321, "e8996f619e4d13c6e0983fec80c54966be83c69cf3c9e36e6e47c32a7f90adb3"),
        # 3^9 duals each, labelled in several batches of whole fibers
        ("C", 4, 3, 1431, "42fc3c963c97a6efe1a3e1a35c52e9fc8ad86bd9b1ac3d9e081ebaed29d593f5"),
        ("C", 5, 2, 963, "6322c3ddf318fac419851858af7d45ccc50650c2bd1b601279b0afa98db68d73"),
    ],
)
def test_orbit_partition_records_are_pinned(x, n, d, count, digest):
    # (representative, size, stabilizer order, e) of every orbit, in
    # order, as computed by the dense-product walk
    records = orbit_partition(ctx_for(x, n, d, 3))
    assert len(records) == count
    assert _records_digest(records) == digest


def _walked_records(ctx):
    """orbit_partition's records as the walk defines them: H's generators permute each fiber and label every
    orbit by its least dual (_Action, _orbit_labels), a batch of whole fibers at a time, as (representative
    key, size, stabilizer order, e).  Also checks that every orbit in a fiber has size p^r, r the rank over
    F_p of the fiber's shifts, each generator's image of (c, 0) less (c, 0) on the fiber pivots."""
    h_order, p = ctx.q ** ctx.params.h_exponent, ctx.field.p
    fibers, blocks, walked = max(1, orbitmethod._CHUNK // h_order), ctx._v_stack(), []
    frame = ctx._h_frame
    pivots = frame.columns(ctx._fiber_pivots)
    for start in range(0, len(blocks), fibers):
        action = orbitmethod._dual_action(ctx, blocks[start : start + fibers])
        labels = _orbit_labels(action)
        roots = np.flatnonzero(labels == np.arange(len(labels)))
        sizes = np.bincount(labels)[roots]
        zero_free = action.coords[::h_order]  # the first dual of a fiber is (c, 0)
        shifts = np.zeros((len(zero_free), len(frame.moves), len(pivots)), dtype=np.int16)
        for g, moves in enumerate(frame.moves):
            shifts[:, g] = ((frame.apply(zero_free, moves).astype(int) - zero_free) % p)[:, pivots]
        r = ranks(field_for_order(p), shifts)
        assert (sizes == p ** r[roots // h_order]).all()
        matrices = frame._matrices(action.coords[roots])
        keys = [b"".join(M[slot].tobytes() for slot in ctx._dual_slots) for M in matrices]
        walked += [(key, size, h_order // size, round(math.log(size, ctx.k_order))) for key, size in zip(keys, sizes.tolist())]
    return walked


@pytest.mark.parametrize(
    "x, n, d, q",
    [(x, n, d, q) for x, n, d in dict.fromkeys(ORBIT_TRIPLES + CLASS_TRIPLES) for q in (3, 5, 9)]
    # several batches of fibers: C(4,3) and C(5,2) as pinned above, C(4,4) (H trivial) in several spans of fibers
    + [("C", 4, 3, 3), ("C", 5, 2, 3), ("D", 6, 3, 3), ("C", 4, 4, 3)],
)
def test_the_spans_give_the_walks_records(x, n, d, q):
    # the walk is the definition: the records read off the spans equal it, order included
    ctx = ctx_for(x, n, d, q)
    records = [(r.representative.key(), r.size, r.stabilizer_order, r.e) for r in orbit_partition(ctx)]
    assert records == _walked_records(ctx_for(x, n, d, q))


def _moved_one_entry(monkeypatch, where):
    """A context each of whose frames has one entry of its first generator's L - I moved into a free row or
    a constrained column, after the frame has checked the generator against the ambient action."""
    ctx = ctx_for("C", 3, 2, 3)
    free = ctx._h_frame.columns(ctx._fiber_pivots)[0]
    constrained = ctx._h_frame.moves[0][0][0]
    real, frames = orbitmethod._Frame.moves_of, set()

    def moves_of(self, g, g_inv):
        rows, cols, moved = real(self, g, g_inv)
        if id(self) in frames:
            return rows, cols, moved
        frames.add(id(self))
        i, j = np.argwhere(moved)[0]
        entry, moved = moved[i, j], moved.copy()
        moved[i, j] = 0
        if where == "row":
            extra = np.zeros((1, len(cols)), dtype=moved.dtype)
            extra[0, j] = entry
            return np.append(rows, free), cols, np.vstack([moved, extra])
        extra = np.zeros((len(rows), 1), dtype=moved.dtype)
        extra[i, 0] = entry
        return rows, np.append(cols, constrained), np.hstack([moved, extra])

    monkeypatch.setattr(orbitmethod._Frame, "moves_of", moves_of)
    return ctx_for("C", 3, 2, 3)


@pytest.mark.parametrize("where", ["row", "column"])
def test_a_generator_that_does_not_translate_the_fibers_is_refused(monkeypatch, where):
    # H fixes the constrained block: L - I has its rows on the constrained
    # coordinates and its columns off them, so each fiber is translated
    ctx = _moved_one_entry(monkeypatch, where)
    for run in (lambda: orbit_partition(ctx), lambda: orbit_of(next(ctx.duals()))):
        with pytest.raises(ValueError, match="H must act on each fiber by translations"):
            run()


def test_a_permutation_of_a_dual_space_with_no_coordinates_is_the_identity():
    # U(2,0): d = 0, so the one dual has no coordinates and the frame reads no unit
    ctx = ctx_for("U", 2, 0, 3)
    for g in (ctx.identity(), *ctx.generators()):
        assert coadjoint_permutation(ctx, g).tolist() == [0]


def test_walks_make_no_dense_product(monkeypatch):
    # matmul still builds the generators and the element stack, but no
    # conjugation of a point stack runs through it
    inside, calls = [False], []
    real_matmul, real_conjugates = orbitmethod.matmul, orbitmethod._conjugates

    def counting_matmul(*args):
        calls.append(inside[0])
        return real_matmul(*args)

    def watched_conjugates(*args):
        inside[0] = True
        try:
            return real_conjugates(*args)
        finally:
            inside[0] = False

    for module in (orbitmethod, falinalg):
        monkeypatch.setattr(module, "matmul", counting_matmul)
    monkeypatch.setattr(orbitmethod, "_conjugates", watched_conjugates)
    ctx = ctx_for("U", 2, 1, 3)
    orbit_partition(ctx)
    alpha = next(ctx.duals())
    orbit_of(alpha)
    coadjoint_act(ctx.generators()[-1], alpha)
    coadjoint_permutation(ctx, ctx.generators()[-1])
    assert class_count_brute(ctx.params, ctx) == 83
    assert calls and not any(calls)


def _pair(g):
    return g._ambient_codes(), group_inv(g)._ambient_codes()


def _minus_identity(stack):
    """g - I for each g of a stack of unitriangular matrices, the points the class walk reads."""
    return stack - np.eye(stack.shape[-1], dtype=np.int16)


def _coordinates(frame, points):
    """The coordinates of a stack of points, a row each, as a walk reads a chunk."""
    return frame.coordinates(points, "points must lie on the entries of their coordinates")


def test_orbit_engine_labels_least_index():
    # classes of the extraspecial group of order 27: 3 central singletons
    # and 8 classes of size 3, each labelled by its first element
    ctx = ctx_for("C", 2, 1, 3)
    points = _minus_identity(_element_stack(ctx))
    frame = _Frame(ctx.field, ctx._element_mask, [_pair(g) for g in ctx.generators()])
    labels = _orbit_labels(_Action(frame, _coordinates(frame, points), ctx._element_pivots))
    roots = np.flatnonzero(labels == np.arange(len(points)))
    assert len(roots) == 11
    assert sorted(np.bincount(labels)[roots]) == [1] * 3 + [3] * 8
    assert all(np.flatnonzero(labels == r)[0] == r for r in roots)


def test_orbit_engine_rejects_escaping_images():
    # conjugating H by a(V) with b2 != 0 leaves H
    ctx = ctx_for("C", 2, 1, 3)
    points = _minus_identity(np.stack([h._ambient_codes() for h in ctx.h_elements()]))
    g = ctx.a_element([[0]], [[1]])
    frame = _Frame(ctx.field, ctx._element_mask, [_pair(g)])
    with pytest.raises(ValueError, match="escapes the point set"):
        _orbit_labels(_Action(frame, _coordinates(frame, points), ctx._grid_pivots(None, np.s_[0:1, 1:2])))


def test_orbit_engine_rejects_non_permutations():
    ctx = ctx_for("C", 2, 1, 3)
    duals = _dual_stack(ctx)[:3]  # one fiber: on several, the zero images would escape their fibers first
    one = np.eye(4, dtype=np.int16)
    # projecting onto an empty support sends every dual to zero
    frame = _Frame(ctx.field, ctx._mask, [(one, one)], np.zeros((4, 4), dtype=bool))
    with pytest.raises(ValueError, match="does not permute"):
        _orbit_labels(_Action(frame, _coordinates(frame, duals), ctx._fiber_pivots))
    frame = _Frame(ctx.field, ctx._mask, [])
    with pytest.raises(ValueError, match="distinct"):
        _orbit_labels(_Action(frame, _coordinates(frame, np.stack([duals[0], duals[0]])), ctx._fiber_pivots))


@pytest.mark.parametrize("x, n, d", [("C", 3, 2), ("D", 4, 2), ("U", 2, 1)])
def test_the_class_walk_reads_g_minus_identity(monkeypatch, x, n, d):
    # every g - I is zero on the diagonal, so no coordinate sits there; were
    # g read instead, the walk would raise, the diagonal being off the mask
    ctx = ctx_for(x, n, d, 3)
    actions, real_labels = [], orbitmethod._orbit_labels

    def capturing(action):
        actions.append(action)
        return real_labels(action)

    monkeypatch.setattr(orbitmethod, "_orbit_labels", capturing)
    class_count_brute(ctx.params, ctx, budget=3 ** 9)
    ((frame, coords),) = [(action.frame, action.coords) for action in actions]
    assert len(frame.entries) and (frame.entries % (2 * n + 1) != 0).all()
    assert coords.shape == (3 ** ctx.params.order_exponent, len(frame.entries) * ctx.field.degree)


def test_oracle_checks_raise_value_error(monkeypatch):
    # the checks behind the oracle results are exceptions, not asserts,
    # so they also hold under python -O
    ctx = ctx_for("C", 3, 2, 3)
    with monkeypatch.context() as m:
        m.setattr(orbitmethod, "ranks", lambda field, A: ranks(field, A) + 1)
        with pytest.raises(ValueError, match="stabilizer system rank"):
            orbit_partition(ctx)
    with monkeypatch.context() as m:
        m.setattr(ctx, "dual_count", lambda: 3 ** 5 + 1)
        with pytest.raises(ValueError, match="partition the dual space"):
            orbit_partition(ctx, budget=10 ** 3)
    with monkeypatch.context() as m:
        # every element but the first, in one chunk
        (chunk,) = ctx_for("C", 3, 2, 3)._element_chunks()
        m.setattr(ctx, "_element_chunks", lambda: iter([tuple(block[1:] for block in chunk)]))
        with pytest.raises(ValueError, match="full group order"):
            class_count_brute(ctx.params, ctx)


def test_orbit_partition_validates_its_representatives(monkeypatch):
    # the representatives' coordinates are those of (c, 0) plus digits; with
    # b3 corrupted in every dual (c, 0) built, the zero dual, a singleton
    # orbit, passes the record checks but not validation
    ctx = ctx_for("C", 3, 2, 3)
    real = ctx._tie

    def corrupted(constrained, free):
        b1, b3, b2 = real(constrained, free)
        b3 = b3.copy()
        b3[:, 0, 0] = 1
        return b1, b3, b2

    monkeypatch.setattr(ctx, "_tie", corrupted)
    with pytest.raises(ValueError, match="b3 must equal b2 transposed"):
        orbit_partition(ctx)


def _single_entry_changes(M, q):
    for i, j in np.ndindex(*M.shape):
        for delta in range(1, q):
            X = M.copy()
            X[i, j] = (X[i, j] + delta) % q
            yield X


def test_decompose_rejects_every_matrix_outside_the_group():
    # a single-entry change of an element or a dual decomposes back to the
    # same matrix when it stays in the set and raises ValueError otherwise
    rng = random.Random(5)
    for x, n, d, q in [("C", 3, 2, 3), ("D", 4, 2, 3), ("U", 2, 1, 3), ("U", 2, 1, 5)]:
        ctx = ctx_for(x, n, d, q)
        f = ctx.field
        for stack, decompose in ((_element_stack(ctx), ctx._decompose), (_dual_stack(ctx), ctx._decompose_dual)):
            members = {M.tobytes() for M in stack}
            for M in (stack[rng.randrange(len(stack))] for _ in range(3)):
                for X in _single_entry_changes(M, f.q):
                    if X.tobytes() in members:
                        assert np.array_equal(decompose(X)._ambient_codes(), X)
                    else:
                        with pytest.raises(ValueError):
                            decompose(X)


def test_orbit_census_checks_raise_value_error(monkeypatch):
    # the verdicts of orbit_census are exceptions, not asserts, so they
    # also hold under python -O; the rank and dual total are checked per
    # orbit and over the partition in orbit_partition, which the census folds
    params = RadicalParams("C", 2, 1)
    for patch, message in [
        (("ranks", lambda field, A: np.full(len(A), 3)), "stabilizer system rank"),
        (("ranks", lambda field, A: np.full(len(A), 2)), "stabilizer system rank"),
    ]:
        with monkeypatch.context() as m:
            m.setattr(orbitmethod, *patch)
            with pytest.raises(ValueError, match=message):
                orbit_census(params, 3)
    ctx = ctx_for("C", 2, 1, 3)
    with monkeypatch.context() as m:
        m.setattr(ctx, "dual_count", lambda: 3 ** 2 + 1)
        with pytest.raises(ValueError, match="partition the dual space"):
            orbit_census(params, ctx)
    with monkeypatch.context() as m:
        m.setattr(RadicalParams, "order_exponent", property(lambda self: 4))
        with pytest.raises(ValueError, match="sum of squared degrees"):
            orbit_census(params, 3)


def test_orbit_census_per_orbit_checks_raise_value_error(monkeypatch):
    # orbit_census takes its sizes from orbit_partition, which refuses an
    # orbit whose size is no power of |k| or does not divide |H|; the spans
    # give only sizes p^r, so the sizes are changed on their way to the checks
    params = RadicalParams("C", 2, 1)
    real = orbitmethod._records
    for change, message in [
        (lambda sizes: [2] + sizes[1:], "2 is not a power of 3"),
        (lambda sizes: [9] * len(sizes), "must divide the acting group order"),
    ]:
        with monkeypatch.context() as m:
            m.setattr(orbitmethod, "_records", lambda ctx, reps, sizes, system_ranks, change=change: real(ctx, reps, change(sizes), system_ranks))
            with pytest.raises(ValueError, match=message):
                orbit_census(params, 3)



def _layout_instances():
    """Every (x, n, d, q) with n <= 4 at q in {3, 5} and n <= 2 at q = 9 (U over F_81)."""
    for q, top in ((3, 4), (5, 4), (9, 2)):
        for x in ("C", "D", "U"):
            for n in range(1, top + 1):
                for d in orbitmethod.d_range(x, n):
                    yield RadicalParams(x, n, d), q


def test_block_layout_is_pinned():
    # one digest over what the block layout decides: |A|, the generators
    # in order, the element and dual stacks of every group of at most 3^9
    # elements and the Lie(A) basis
    h = hashlib.sha256()

    def put(array):
        array = np.ascontiguousarray(array, dtype=np.int16)
        h.update(repr(array.shape).encode() + array.tobytes())

    stacked = 0
    for params, q in _layout_instances():
        ctx = RadicalContext(params, q)
        h.update(f"{params.x}{params.n}{params.d}q{q}|{params.a_exponent}\n".encode())
        for g in ctx.generators():
            h.update(g.key())
            put(g._ambient_codes())
        if q ** params.order_exponent <= 3 ** 9:
            put(_element_stack(ctx))
            put(_dual_stack(ctx))
            stacked += 1
        put(orbitmethod._lie_a_basis(ctx))
    assert stacked == 49
    assert h.hexdigest() == "1309f90444d4dab8e84afa663bc8680a5ba1b865f4f0d780dda99d94272401da"


def test_orbit_census_refuses_a_context_for_other_parameters():
    with pytest.raises(ValueError, match="context parameters do not match"):
        orbit_census(RadicalParams("C", 3, 2), ctx_for("C", 3, 1, 3))


@pytest.mark.parametrize("x, n, d, walk", [("D", 5, 2, "elements"), ("C", 5, 3, "duals")])
def test_the_enumerations_build_one_block_before_their_first_item(x, n, d, walk):
    # 3^13 elements of D(5,2) and 3^12 duals of C(5,3) at q = 3; the first item needs one chunk of the grid
    items = getattr(ctx_for(x, n, d, 3), walk)()
    start = time.perf_counter()
    tracemalloc.start()
    try:
        next(items)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.05
    assert peak < 5_000_000


@pytest.mark.parametrize("x, n, d, q, walk, stack", [("U", 2, 1, 5, "elements", "_element_stack"), ("C", 4, 2, 3, "duals", "_dual_stack")])
def test_the_enumerations_match_the_stacks_row_for_row(monkeypatch, x, n, d, q, walk, stack):
    # 3,125 elements of U(2,1) at q = 5 and 2,187 duals of C(4,2) at q = 3, streamed in chunks of one BLOCK:
    # more than one chunk each, equal row for row to the stack built from one whole chunk
    ctx = ctx_for(x, n, d, q)
    whole = globals()[stack](ctx)
    monkeypatch.setattr(orbitmethod, "_CHUNK", falinalg.BLOCK)
    codes = np.array([item._ambient_codes() for item in getattr(ctx, walk)()])
    assert len(codes) > falinalg.BLOCK
    assert np.array_equal(codes, whole)
