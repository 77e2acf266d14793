"""The orbit and class walks act in F_p coordinates (orbitmethod._Frame, _Action).

Each generator acts on a point's base-p digits as one linear map L, read
off the ambient images of unit matrices and applied through the nonzeros
of L - I, and a point's position is the Horner sum of its pivot digits.
These tests compare the linear images, as a dense product mod p and as
the walk applies them, with the ambient action (_conjugates, masked for
duals) point by point, check linearity on random points off the stack,
pin the positions to the enumeration order, and check that a corrupted
map or a wrong pivot set is refused with ValueError.  The class walk's
points are g - I for the group elements g, as class_count_brute reads them.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radchar.cli import CLASS_TRIPLES
from radchar.orbitmethod import (
    RadicalContext,
    RadicalParams,
    _Action,
    _Frame,
    _SAMPLE,
    _ambient_pairs,
    _conjugates,
    class_count_brute,
    coadjoint_permutation,
    d_range,
    orbit_of,
    orbit_partition,
)


def _dense(coords, L, p):
    """coords @ L mod p as one int64 product: the reference for _Action._apply."""
    return (coords.astype(np.int64) @ L.astype(np.int64)) % p


def _element_points(ctx):
    """g - I for every group element g, in enumeration order: the points of the class walk."""
    points = np.concatenate([ctx._element_ambient(*blocks) for blocks in ctx._element_chunks()])
    points.reshape(len(points), -1)[:, :: 2 * ctx.n + 1] = 0
    return points


def _dual_points(ctx):
    """Every dual, in enumeration order: the points of the orbit walk."""
    return np.concatenate([ctx._dual_ambient(*blocks) for blocks in ctx._dual_chunks()])


def _coordinates(frame, points):
    """The coordinates of a stack of points, a row each, as a walk reads a chunk."""
    return frame.coordinates(points, "points must lie on the entries of their coordinates")


@functools.cache
def _action(x, n, d, q, kind):
    """(ctx, generator pairs, action, points) of the orbit walk (kind "duals") or the class walk ("elements");
    the action keeps only the coordinates, so the points are returned beside it."""
    ctx = RadicalContext(RadicalParams(x, n, d), q)
    if kind == "duals":
        points = _dual_points(ctx)
        return ctx, ctx._h_pairs, _Action(ctx._h_frame, _coordinates(ctx._h_frame, points), ctx._fiber_pivots), points
    gens, points = _ambient_pairs(ctx.generators()), _element_points(ctx)
    frame = _Frame(ctx.field, ctx._element_mask, gens)
    return ctx, gens, _Action(frame, _coordinates(frame, points), ctx._element_pivots), points


def _map(frame, g, g_inv):
    """L of one generator, read off the ambient images of the units, which lead the probe stack."""
    return frame._linear_map(_conjugates(frame.field, frame._probes[:-_SAMPLE], g, g_inv, frame.support))


@pytest.mark.parametrize(
    "x, n, d, q, kind",
    [
        ("C", 4, 2, 3, "duals"),
        ("D", 5, 2, 3, "duals"),
        ("U", 3, 2, 3, "duals"),
        ("C", 5, 2, 3, "duals"),
        ("U", 2, 1, 9, "duals"),
        ("C", 3, 2, 3, "elements"),
        ("U", 2, 1, 5, "elements"),
    ],
)
def test_linear_images_are_the_ambient_images(x, n, d, q, kind):
    # every point, every generator: the ambient image (projected onto the
    # dual support for duals) has the coordinates coords @ L mod p, the walk
    # computes them, and its permutation is the one the ambient images give
    ctx, gens, action, points = _action(x, n, d, q, kind)
    frame = action.frame
    for (g, g_inv), moves, perm in zip(gens, frame.moves, action.permutations()):
        ambient = _conjugates(ctx.field, points, g, g_inv, frame.support)
        linear = _dense(action.coords, _map(frame, g, g_inv), ctx.field.p)
        np.testing.assert_array_equal(frame.coordinates(ambient, "off the entries"), linear)
        np.testing.assert_array_equal(frame.apply(action.coords, moves), linear)
        np.testing.assert_array_equal(action._find(frame.coordinates(ambient, "an image escapes the point set")), perm)


LINEARITY_CASES = (
    ("C", 3, 2, 3, "duals"),
    ("D", 4, 2, 3, "duals"),
    ("U", 2, 1, 5, "duals"),
    ("U", 2, 1, 9, "duals"),
    ("C", 3, 2, 3, "elements"),
    ("D", 4, 2, 3, "elements"),
    ("U", 2, 1, 5, "elements"),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LINEARITY_CASES), st.data())
def test_the_action_is_linear_in_the_coordinates(case, data):
    # Z = X + c Y for two points X, Y and c in F_p is in general not a
    # point (for elements, not g - I for a group element g); its ambient
    # image still has the coordinates (coords(X) + c coords(Y)) @ L mod p
    ctx, gens, action, points = _action(*case)
    f, frame = ctx.field, action.frame
    i, j = (data.draw(st.integers(0, len(points) - 1)) for _ in range(2))
    c = data.draw(st.integers(0, f.p - 1))
    k = data.draw(st.integers(0, len(gens) - 1))
    Z = f._add[points[i], f._mul[c, points[j]]]
    image = _conjugates(f, Z[None], *gens[k], frame.support)
    summed = action.coords[i] + c * action.coords[j].astype(np.int64)
    linear = _dense(summed[None], _map(frame, *gens[k]), f.p)
    np.testing.assert_array_equal(frame.coordinates(image, "off the entries"), linear)


def _instances(kind, limit):
    """Every (x, n, d, q) with n <= 4 at q in {3, 5} and n <= 2 at q = 9 whose duals or elements number at most limit."""
    for q, top in ((3, 4), (5, 4), (9, 2)):
        for x in ("C", "D", "U"):
            for n in range(1, top + 1):
                for d in d_range(x, n):
                    params = RadicalParams(x, n, d)
                    exponent = params.a_exponent if kind == "duals" else params.order_exponent
                    if q ** exponent <= limit:
                        yield x, n, d, q


def test_pivots_number_the_duals_in_enumeration_order():
    # so the first dual of every orbit, its representative, is unchanged
    count = 0
    for x, n, d, q in _instances("duals", 3 ** 9):
        ctx = RadicalContext(RadicalParams(x, n, d), q)
        frame = _Frame(ctx.field, ctx._mask, [], ctx._mask)
        action = _Action(frame, _coordinates(frame, _dual_points(ctx)), ctx._fiber_pivots)
        np.testing.assert_array_equal(action._order, np.arange(ctx.dual_count()))
        count += 1
    assert count == 59


def test_pivots_number_the_elements():
    # A's digits and the dual rule read on V N(A) give one position per
    # element: exactly log_p |G| pivot digits, no two elements sharing one;
    # 9^5 takes in U(2,1) over F_81
    count = 0
    for x, n, d, q in _instances("elements", 9 ** 5):
        ctx = RadicalContext(RadicalParams(x, n, d), q)
        stack = _element_points(ctx)
        assert ctx.field.p ** len(ctx._element_pivots) == len(stack)
        frame = _Frame(ctx.field, ctx._element_mask, [])
        _Action(frame, _coordinates(frame, stack), ctx._element_pivots)
        count += 1
    assert count == 51


@pytest.mark.parametrize("x, n, d, q", [(*triple, 3) for triple in CLASS_TRIPLES] + [("C", 2, 1, 5), ("U", 2, 1, 5)])
def test_the_layout_states_the_support_of_g_minus_identity(x, n, d, q):
    # A's block, its copy and V's slots are exactly where some g - I is
    # nonzero, and every generator maps their span into itself; the dual
    # mask is where the blocks of a dual sit, as when built from one of ones
    ctx = RadicalContext(RadicalParams(x, n, d), q)
    np.testing.assert_array_equal(ctx._element_mask, (_element_points(ctx) != 0).any(axis=0))
    gens = _ambient_pairs(ctx.generators())
    assert len(_Frame(ctx.field, ctx._element_mask, gens).moves) == len(gens)
    ones = (np.ones(shape, dtype=np.int16) for shape in ctx._dual_shapes)
    np.testing.assert_array_equal(ctx._mask, ctx._dual_ambient(*ones) != 0)
    assert not (ctx._mask.flags.writeable or ctx._element_mask.flags.writeable)


@pytest.mark.parametrize("x, n, d", [("C", 3, 2), ("D", 4, 1), ("U", 2, 1), ("U", 3, 1)])
def test_a_frame_that_misses_an_image_is_refused(x, n, d):
    # a(V') adds V' X22 - X11 V' to g - I, in V's first d rows on the
    # constrained columns; without that slot the entries are not kept
    ctx = RadicalContext(RadicalParams(x, n, d), 3)
    entries = ctx._element_mask.copy()
    entries[0:d, ctx._cols[0]] = False
    with pytest.raises(ValueError, match="a generator maps the coordinates off their entries"):
        _Frame(ctx.field, entries, _ambient_pairs(ctx.generators()))


def test_a_corrupted_linear_map_trips_the_ambient_cross_check(monkeypatch):
    real = _Frame._linear_map

    def corrupted(self, images):
        L = real(self, images)
        L[:, -1] = (L[:, -1] + 1) % self.field.p
        return L

    monkeypatch.setattr(_Frame, "_linear_map", corrupted)
    with pytest.raises(ValueError, match="linear images differ from the ambient action"):
        orbit_partition(RadicalContext(RadicalParams("C", 3, 2), 3))
    with pytest.raises(ValueError, match="linear images differ from the ambient action"):
        class_count_brute(RadicalParams("U", 2, 1), 3)


def test_a_wrong_pivot_set_trips_the_permutation_check(monkeypatch):
    message = "points must be distinct, one at each position of their pivot digits"
    ctx = RadicalContext(RadicalParams("C", 3, 2), 3)
    pivots = ctx._fiber_pivots
    # the first digit twice and the last not at all
    monkeypatch.setattr(ctx, "_fiber_pivots", pivots[:-1] + pivots[:1])
    with pytest.raises(ValueError, match=message):
        orbit_partition(ctx)
    # one digit too few
    monkeypatch.setattr(ctx, "_fiber_pivots", pivots[:-1])
    with pytest.raises(ValueError, match=message):
        orbit_partition(ctx)
    # U's constrained diagonal, the first pivot of V N(A), read on its lower digit, which is 0 on every element
    ctx = RadicalContext(RadicalParams("U", 2, 1), 3)
    pivots = ctx._element_pivots
    (entry, digit) = pivots[2]
    assert (entry, digit) == (3, 1)
    monkeypatch.setattr(ctx, "_element_pivots", [*pivots[:2], (entry, 0), *pivots[3:]])
    with pytest.raises(ValueError, match=message):
        class_count_brute(ctx.params, ctx)
    # an element pivot of A replaced by one of V's
    ctx = RadicalContext(RadicalParams("C", 3, 2), 3)
    pivots = ctx._element_pivots
    monkeypatch.setattr(ctx, "_element_pivots", pivots[1:] + pivots[-1:])
    with pytest.raises(ValueError, match=message):
        class_count_brute(ctx.params, ctx)


def test_h_maps_are_read_once_per_context(monkeypatch):
    # the dual walk, every fiber orbit_of labels and coadjoint_permutation share the
    # context's frame: H's maps are read off the ambient action once
    built = []
    real = _Frame.__init__

    def counting(self, *args):
        built.append(self)
        real(self, *args)

    monkeypatch.setattr(_Frame, "__init__", counting)
    ctx = RadicalContext(RadicalParams("D", 4, 2), 3)
    orbit_partition(ctx)
    for alpha in ctx.duals():
        orbit_of(alpha)
    coadjoint_permutation(ctx, ctx.generators()[-1])
    assert len(built) == 1 and ctx._h_frame is built[0]
