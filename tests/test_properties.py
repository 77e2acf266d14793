"""Hypothesis property tests: field axioms, group law, coadjoint action law,
sparse conjugation.

Field elements are drawn from F_3, F_5, F_7, F_9 and F_25; group elements
and duals from C(3,2) and D(4,2) at q = 3 and U(2,1) at q = 5.  The
sparse conjugation kernel is compared with two dense products on C(3,2),
D(4,2) and U(2,1) at q = 3, 5 and 9.
"""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from radchar.falinalg import BLOCK, matmul
from radchar.gf import field_for_order
from radchar.orbitmethod import (
    RadicalContext,
    RadicalParams,
    _ambient_pairs,
    _conjugates,
    coadjoint_act,
    group_inv,
    group_mul,
)

FIELD_ORDERS = (3, 5, 7, 9, 25)
INSTANCES = (("C", 3, 2, 3), ("D", 4, 2, 3), ("U", 2, 1, 5))

few = settings(max_examples=30, deadline=None)


@functools.cache
def _instance(instance):
    x, n, d, q = instance
    ctx = RadicalContext(RadicalParams(x, n, d), q)
    return ctx, list(ctx.elements()), list(ctx.duals())


@st.composite
def field_triples(draw):
    f = field_for_order(draw(st.sampled_from(FIELD_ORDERS)))
    return (f, *draw(st.lists(st.integers(0, f.q - 1), min_size=3, max_size=3)))


@st.composite
def group_points(draw, elements, duals=0):
    ctx, all_elements, all_duals = _instance(draw(st.sampled_from(INSTANCES)))
    gs = [all_elements[draw(st.integers(0, len(all_elements) - 1))] for _ in range(elements)]
    alphas = [all_duals[draw(st.integers(0, len(all_duals) - 1))] for _ in range(duals)]
    return (ctx, *gs, *alphas)


@few
@given(field_triples())
def test_field_axioms(triple):
    f, a, b, c = triple
    ADD, SUB, MUL, NEG, INV = f._add, f._sub, f._mul, f._neg, f._inv
    assert ADD[ADD[a, b], c] == ADD[a, ADD[b, c]] and ADD[a, b] == ADD[b, a]
    assert ADD[a, 0] == a and ADD[a, NEG[a]] == 0 and SUB[a, b] == ADD[a, NEG[b]]
    assert MUL[MUL[a, b], c] == MUL[a, MUL[b, c]] and MUL[a, b] == MUL[b, a]
    assert MUL[a, 1] == a and MUL[a, ADD[b, c]] == ADD[MUL[a, b], MUL[a, c]]
    if a:
        assert MUL[a, INV[a]] == 1 and MUL[MUL[b, INV[a]], a] == b


@few
@given(group_points(3))
def test_group_law_inverse_and_identity(points):
    ctx, g, h, k = points
    e = ctx.identity()
    assert np.array_equal(group_mul(g, h)._ambient_codes(), matmul(ctx.field, g._ambient_codes(), h._ambient_codes()))
    assert group_mul(group_mul(g, h), k) == group_mul(g, group_mul(h, k))
    assert group_mul(e, g) == g == group_mul(g, e)
    assert group_mul(g, group_inv(g)) == e == group_mul(group_inv(g), g)
    assert group_inv(group_inv(g)) == g


@few
@given(group_points(2, duals=1))
def test_coadjoint_action_law(points):
    ctx, g, h, alpha = points
    assert coadjoint_act(g, coadjoint_act(h, alpha)) == coadjoint_act(group_mul(g, h), alpha)
    assert coadjoint_act(ctx.identity(), alpha) == alpha


@functools.cache
def _generators(x, n, d, q):
    ctx = RadicalContext(RadicalParams(x, n, d), q)
    return ctx, ctx.generators()


@st.composite
def conjugation_cases(draw):
    """(ctx, (g, g^-1), stack, support) with arbitrary codes in the stack.

    g is a generator, a product of several (a group element), or, outside
    the group, a^t b for two such elements a and b, which is dense below
    and above the diagonal.
    """
    x, n, d = draw(st.sampled_from((("C", 3, 2), ("D", 4, 2), ("U", 2, 1))))
    ctx, gens = _generators(x, n, d, draw(st.sampled_from((3, 5, 9))))
    elements = st.lists(st.integers(0, len(gens) - 1), min_size=1, max_size=6)
    (g, g_inv), (h, h_inv) = _ambient_pairs([functools.reduce(group_mul, (gens[i] for i in draw(elements))) for _ in range(2)])
    if draw(st.booleans()):
        f = ctx.field
        g, g_inv = matmul(f, g.T, h), matmul(f, h_inv, g_inv.T)
    count = draw(st.sampled_from((1, 7, BLOCK + 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = rng.integers(0, ctx.field.q, (count, 2 * n, 2 * n)).astype(np.int16)
    return ctx, (g, g_inv), stack, ctx._mask if draw(st.booleans()) else None


@settings(max_examples=60, deadline=None)
@given(conjugation_cases())
def test_sparse_conjugation_matches_dense_products(case):
    ctx, (g_codes, g_inv_codes), stack, support = case
    f = ctx.field
    dense = matmul(f, matmul(f, g_codes, stack), g_inv_codes)
    if support is not None:
        dense = np.where(support, dense, np.int16(0))
    sparse = _conjugates(f, stack, g_codes, g_inv_codes, support)
    assert sparse.dtype == np.int16
    np.testing.assert_array_equal(sparse, dense)
