"""Tests for the matrix model of the radical groups and the orbit method.

The frozen numbers come from independent hand computations: class
counts of the extraspecial group of order 27, element counts, and the
small coadjoint orbit structures that can be checked by hand.
"""

import hashlib
import random

import numpy as np
import pytest

from radchar import falinalg, orbitmethod
from radchar.falinalg import FfMatrix, rank, ranks
from radchar.qpoly import QPoly
from radchar.orbitmethod import (
    DualElement,
    RadicalContext,
    RadicalParams,
    class_count_brute,
    coadjoint_act,
    coadjoint_permutation,
    coefficient_matrix,
    dual_index,
    group_inv,
    group_mul,
    orbit_census,
    orbit_of,
    orbit_partition,
    pairing_nondegeneracy_check,
    radical_order,
    _Action,
    _Frame,
    _walk,
    _orbit_labels,
)


def ctx_for(x, n, d, q):
    return RadicalContext(RadicalParams(x, n, d), q)


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
        b1, b3, b2 = (block.copy() for block in ctx._dual_blocks())
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


def _cd_closed_form(alpha, A: FfMatrix) -> DualElement:
    ctx = alpha.ctx
    b1, b3, b2 = alpha.b1, alpha.b3, alpha.b2
    return ctx.dual(b1, b3 - b1 @ A, b2 - A.T @ b1)


def _u_closed_form(alpha, A1: FfMatrix) -> DualElement:
    ctx = alpha.ctx
    f = ctx.field
    d, n = ctx.d, ctx.n
    # A2 = -J conj(A1)^t J, with J the reversal (antidiagonal permutation) matrix
    def J(k):
        return FfMatrix.from_codes(f, np.eye(k, dtype=np.int16)[::-1])

    A2 = -(J(n - d) @ FfMatrix.from_codes(f, f._frob[A1.codes.T]) @ J(d))
    b1, b3, b2 = alpha.b1, alpha.b3, alpha.b2
    return ctx.dual(b1 + A2 @ b2, b3 - b2 @ A1, b2)


def test_coadjoint_matches_closed_form_cd():
    for ctx in [ctx_for("C", 2, 1, 3), ctx_for("D", 3, 2, 3)]:
        for g in ctx.h_elements():
            for alpha in ctx.duals():
                assert coadjoint_act(g, alpha) == _cd_closed_form(alpha, g.h_a)


def test_coadjoint_matches_closed_form_u():
    ctx = ctx_for("U", 2, 1, 3)
    for g in ctx.h_elements():
        for alpha in ctx.duals():
            assert coadjoint_act(g, alpha) == _u_closed_form(alpha, g.h_a)


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
    t = ctxu.field.gen()
    beta = ctxu.dual_from_free([[t.code]], [[0]])
    assert coefficient_matrix(beta).codes.tolist() == [[t.code]]


def test_orbit_examples():
    ctx = ctx_for("C", 2, 1, 3)
    rec = orbit_of(ctx.dual_from_free([[1]], [[0]]))
    assert (rec.size, rec.stabilizer_order, rec.e, rec.degree) == (3, 1, 1, 3)
    ctxu = ctx_for("U", 2, 1, 3)
    t = ctxu.field.gen()
    recu = orbit_of(ctxu.dual_from_free([[t.code]], [[0]]))
    assert (recu.size, recu.stabilizer_order, recu.e, recu.degree) == (9, 1, 1, 9)


@pytest.mark.parametrize("x, n, d, q", [("C", 3, 2, 3), ("D", 4, 2, 3), ("U", 2, 1, 3), ("C", 2, 1, 5)])
def test_orbit_of_agrees_with_orbit_partition(x, n, d, q):
    # orbit_of labels one fiber, orbit_partition the whole dual space; the
    # orbit of each representative is read off the permutations of all of H
    ctx = ctx_for(x, n, d, q)
    duals, index = dual_index(ctx)
    perms = [coadjoint_permutation(ctx, h, index) for h in ctx.h_elements()]
    record_at = {}
    for record in orbit_partition(ctx):
        (pos,) = index.lookup(record.representative._ambient_codes()[None])
        for perm in perms:
            record_at[int(perm[pos])] = record
    assert len(record_at) == len(duals)
    for i, alpha in enumerate(duals):
        mine, theirs = orbit_of(alpha), record_at[i]
        assert (mine.size, mine.stabilizer_order, mine.e) == (theirs.size, theirs.stabilizer_order, theirs.e)


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
    assert census.by_e[0].char_count == 9
    assert census.by_e[1].char_count == 2
    assert census.by_e[1].degree == 3


def test_abelian_full_flag_case():
    # d = n gives an abelian group: every element is its own class
    params = RadicalParams("C", 3, 3)
    assert class_count_brute(params, 3) == 3 ** params.order_exponent == 729
    census = orbit_census(params, 3)
    assert census.rows == (census.by_e[0],)
    assert census.by_e[0].char_count == 729


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
    _, index = dual_index(ctx)
    els = list(ctx.elements())
    perms = {g.key(): coadjoint_permutation(ctx, g, index) for g in els}
    for g in els:
        for h in els:
            gh = group_mul(g, h)
            assert np.array_equal(perms[gh.key()], perms[g.key()][perms[h.key()]])


def test_action_law_permutations_u_sampled():
    ctx = ctx_for("U", 2, 1, 3)
    _, index = dual_index(ctx)
    rng = random.Random(29)
    cache = {}

    def perm_of(g):
        if g.key() not in cache:
            cache[g.key()] = coadjoint_permutation(ctx, g, index)
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
    ],
)
def test_orbit_partition_records_are_pinned(x, n, d, count, digest):
    # (representative, size, stabilizer order, e) of every orbit, in
    # order, as computed by the dense-product walk
    records = orbit_partition(ctx_for(x, n, d, 3))
    assert len(records) == count
    assert _records_digest(records) == digest


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


def test_orbit_engine_labels_least_index():
    # classes of the extraspecial group of order 27: 3 central singletons
    # and 8 classes of size 3, each labelled by its first element
    ctx = ctx_for("C", 2, 1, 3)
    points = _minus_identity(ctx._element_stack())
    labels = _orbit_labels(_walk(ctx.field, points, [_pair(g) for g in ctx.generators()], ctx._element_pivots))
    roots = np.flatnonzero(labels == np.arange(len(points)))
    assert len(roots) == 11
    assert sorted(np.bincount(labels)[roots]) == [1] * 3 + [3] * 8
    assert all(np.flatnonzero(labels == r)[0] == r for r in roots)


def test_orbit_engine_rejects_escaping_images():
    # conjugating H by a(V) with b2 != 0 leaves H
    ctx = ctx_for("C", 2, 1, 3)
    points = _minus_identity(np.stack([h._ambient_codes() for h in ctx.h_elements()]))
    g = ctx.a_element([[0]], [[1]])
    with pytest.raises(ValueError, match="escapes the point set"):
        _orbit_labels(_walk(ctx.field, points, [_pair(g)], ctx._grid_pivots(None, np.s_[0:1, 1:2])))


def test_orbit_engine_rejects_non_permutations():
    ctx = ctx_for("C", 2, 1, 3)
    duals = ctx._dual_stack()
    one = np.eye(4, dtype=np.int16)
    # projecting onto an empty support sends every dual to zero
    frame = _Frame(ctx.field, 4, np.flatnonzero(ctx._mask).tolist(), [(one, one)], np.zeros((4, 4), dtype=bool))
    with pytest.raises(ValueError, match="does not permute"):
        _orbit_labels(_Action(frame, duals, ctx._dual_pivots))
    with pytest.raises(ValueError, match="distinct"):
        _orbit_labels(_walk(ctx.field, np.stack([duals[0], duals[0]]), [], ctx._dual_pivots))


@pytest.mark.parametrize("x, n, d", [("C", 3, 2), ("D", 4, 2), ("U", 2, 1)])
def test_the_class_walk_reads_g_minus_identity(monkeypatch, x, n, d):
    # every g - I is zero on the diagonal, so no coordinate sits there; were
    # g read instead, counts would stay right but every point would carry
    # 2n constant coordinates
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
        m.setattr(ctx, "_element_stack", lambda: ctx_for("C", 3, 2, 3)._element_stack()[1:])
        with pytest.raises(ValueError, match="full group order"):
            class_count_brute(ctx.params, ctx)


def test_orbit_partition_validates_its_representatives(monkeypatch):
    # with no generators every dual is a representative; the zero dual
    # with a corrupted b3 passes the record checks but not validation
    ctx = ctx_for("C", 3, 2, 3)
    b1, b3, b2 = ctx._dual_blocks()
    b3 = b3.copy()
    b3[0, 0, 0] = 1
    monkeypatch.setattr(ctx, "_dual_blocks", lambda: (b1, b3, b2))
    monkeypatch.setattr(ctx, "h_generators", lambda: [])
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
        for stack, decompose in ((ctx._element_stack(), ctx._decompose), (ctx._dual_stack(), ctx._decompose_dual)):
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
    # orbit whose size is no power of |k| or does not divide |H|
    params = RadicalParams("C", 2, 1)
    for labels, message in [
        ([0, 0, 2, 3, 4, 5, 6, 7, 8], "2 is not a power of 3"),
        ([0] * 9, "must divide the acting group order"),
    ]:
        with monkeypatch.context() as m:
            m.setattr(orbitmethod, "_orbit_labels", lambda *args, labels=labels: np.array(labels))
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
            put(ctx._element_stack())
            put(ctx._dual_stack())
            stacked += 1
        put(orbitmethod._lie_a_basis(ctx))
    assert stacked == 49
    assert h.hexdigest() == "1309f90444d4dab8e84afa663bc8680a5ba1b865f4f0d780dda99d94272401da"
