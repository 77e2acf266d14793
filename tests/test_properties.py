"""Hypothesis property tests: field axioms, group law, coadjoint action law.

Field elements are drawn from F_3, F_5, F_7, F_9 and F_25; group elements
and duals from C(3,2) and D(4,2) at q = 3 and U(2,1) at q = 5.
"""

import functools

from hypothesis import given, settings, strategies as st

from radchar.gf import field_for_order
from radchar.orbitmethod import RadicalContext, RadicalParams, coadjoint_act, group_inv, group_mul

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
    codes = draw(st.lists(st.integers(0, f.q - 1), min_size=3, max_size=3))
    return (f, *map(f.elem, codes))


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
    zero, one = f.zero(), f.one()
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert a + zero == a and a + (-a) == zero and a - b == a + (-b)
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * one == a and a * (b + c) == a * b + a * c
    if a:
        assert a * a.inverse() == one and (b / a) * a == b


@few
@given(group_points(3))
def test_group_law_inverse_and_identity(points):
    ctx, g, h, k = points
    e = ctx.identity()
    assert group_mul(g, h).ambient() == g.ambient() @ h.ambient()
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
