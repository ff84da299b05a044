"""Geometry and builtin-map behaviour."""

import math
import random
import struct

import pytest
from helpers import reference_region_boundaries, reference_vertices
from hypothesis import HealthCheck, given, settings, strategies as st
from test_compiled_eval import maps

from diffinc import setmap
from diffinc.analyzer import check_wcm_pair, residual
from diffinc.selector import initial_velocity
from diffinc.setmap import (
    Box,
    CompactSet,
    ImageTooLarge,
    MapDefinitionError,
    PiecewiseMap,
    builtin,
    distance,
    product,
    real_cbrt,
    sup_norm,
    union,
    vertices,
)
from diffinc.solver import Trajectory, euler_polygon


def grid_points(box, per_coord=25):
    axes = []
    for lo, hi in zip(box.lo, box.hi):
        if lo == hi:
            axes.append([lo])
        else:
            axes.append([lo + (hi - lo) * k / (per_coord - 1) for k in range(per_coord)])
    pts = [()]
    for axis in axes:
        pts = [p + (v,) for p in pts for v in axis]
    return pts


class TestCbrt:
    def test_exact_cubes(self):
        assert real_cbrt(8.0) == 2.0
        assert real_cbrt(-8.0) == -2.0
        assert real_cbrt(27.0) == 3.0
        assert real_cbrt(0.0) == 0.0
        assert real_cbrt(1.0) == 1.0

    def test_odd_symmetry(self):
        rng = random.Random(1)
        for _ in range(500):
            v = rng.uniform(0, 1e6) * 10 ** rng.randint(-6, 0)
            assert real_cbrt(-v) == -real_cbrt(v)

    def test_weakly_monotone(self):
        rng = random.Random(2)
        vals = sorted(rng.uniform(-50, 50) for _ in range(5000))
        roots = [real_cbrt(v) for v in vals]
        assert all(a <= b for a, b in zip(roots, roots[1:]))


class TestBox:
    def test_validation(self):
        with pytest.raises(MapDefinitionError):
            Box((1.0,), (0.0,))
        with pytest.raises(MapDefinitionError):
            Box((), ())
        with pytest.raises(MapDefinitionError):
            Box((0.0,), (math.inf,))

    def test_degenerate_points_are_fine(self):
        b = Box.point((5.0,))
        assert b.lo == b.hi == (5.0,)

    def test_vertices_guard(self):
        # a full box of 18 dimensions has 2^18 corners of 18 coordinates:
        # 4718592 coordinates, past MAX_HELD_POINTS
        b = Box((0.0,) * 18, (1.0,) * 18)
        message = ("the corner list of 1 box(es) of dimension 18 would hold 4718592 "
                   f"coordinates, more than MAX_HELD_POINTS = {setmap.MAX_HELD_POINTS}")
        for corners in (lambda: vertices(CompactSet((b,))), b.corners):
            with pytest.raises(ValueError) as info:  # one guard, one message
                corners()
            assert str(info.value) == message
        # a point of any dimension has one corner
        wide = Box.point((0.5,) * 10 ** 5)
        assert wide.corners() == vertices(CompactSet((wide,))) == [(0.5,) * 10 ** 5]
        # a count past 64 bits is named by its power of two
        with pytest.raises(ValueError, match=r"would hold at least 2\^20014 coordinates"):
            Box((0.0,) * 20000, (1.0,) * 20000).corners()


_corner_values = st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0])


@st.composite
def corner_sets(draw):
    """A set of 1-4 boxes of one dimension 1-4, over a few values; -0.0
    and 0.0 compare equal, so a box spanning them has one choice there."""
    n = draw(st.integers(1, 4))
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        ends = [sorted(draw(st.tuples(_corner_values, _corner_values))) for _ in range(n)]
        boxes.append(Box([a for a, _ in ends], [b for _, b in ends]))
    return CompactSet(boxes)


@settings(max_examples=300, deadline=None)
@given(corner_sets(), st.integers(0, 400))
def test_corner_list_is_refused_exactly_above_the_budget(s, budget):
    held = sum(b.dim * 2 ** sum(lo != hi for lo, hi in zip(b.lo, b.hi)) for b in s.boxes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(setmap, "MAX_HELD_POINTS", budget)
        if held > budget:
            with pytest.raises(ValueError, match=f"would hold {held} coordinates, more "
                                                 f"than MAX_HELD_POINTS = {budget}$"):
                vertices(s)
        else:
            # bit for bit, so the sign of a zero counts
            assert repr(vertices(s)) == repr(reference_vertices(s))
            assert repr([u for b in s.boxes for u in b.corners()]) == repr(vertices(s))


class TestSupNorm:
    def test_interval(self):
        assert sup_norm(CompactSet.of_intervals((-1.0, 0.0))) == 1.0

    def test_planar_box_matches_grid_oracle(self):
        s = CompactSet((Box((-2.0, 1.0), (-1.0, 2.0)),))
        brute = max(math.hypot(*p) for p in grid_points(s.boxes[0]))
        assert sup_norm(s) == pytest.approx(math.sqrt(8.0), abs=0)
        assert sup_norm(s) >= brute
        assert sup_norm(s) - brute < 1e-9

    def test_zero_point(self):
        assert sup_norm(CompactSet.of_points((0.0,))) == 0.0

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.tuples(st.floats(-50, 50), st.floats(0, 10)),
        min_size=1, max_size=3,
    ))
    def test_upper_bounds_grid_everywhere(self, spans):
        boxes = tuple(Box((lo,), (lo + w,)) for lo, w in spans)
        s = CompactSet(boxes)
        brute = max(abs(p[0]) for b in boxes for p in grid_points(b, 33))
        assert sup_norm(s) >= brute
        assert sup_norm(s) - brute <= (1e-9 + max(w for _, w in spans) / 16)


class TestDistance:
    def test_interval_cases(self):
        assert distance(CompactSet.of_intervals((-1.0, 0.0)), (0.5,)) == 0.5
        assert distance(CompactSet.of_intervals((-1.0, 0.0), (1.0, 2.0)), (0.6,)) == pytest.approx(0.4)
        box = CompactSet((Box((0.0, 0.0), (1.0, 1.0)),))
        assert distance(box, (2.0, 2.0)) == pytest.approx(math.sqrt(2.0))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            distance(CompactSet.of_points((0.0,)), (1.0, 2.0))

    def test_zero_iff_member(self):
        rng = random.Random(3)
        for _ in range(300):
            lo = tuple(rng.uniform(-3, 3) for _ in range(2))
            hi = tuple(a + rng.uniform(0, 2) for a in lo)
            s = CompactSet((Box(lo, hi),))
            v = tuple(rng.uniform(-4, 4) for _ in range(2))
            member = all(a <= c <= b for a, b, c in zip(lo, hi, v))
            assert (distance(s, v) == 0.0) == member
        # boundary membership is exact
        s = CompactSet.of_intervals((0.1, 0.7))
        assert distance(s, (0.7,)) == 0.0
        assert distance(s, (0.1,)) == 0.0

    def test_union_distance_is_min_of_parts(self):
        rng = random.Random(4)
        f = builtin("example1")
        g = builtin("antisign")
        u = union(f, g)
        for _ in range(100):
            x = (rng.uniform(-3, 3),)
            v = (rng.uniform(-3, 3),)
            expected = min(distance(f.evaluate(x), v), distance(g.evaluate(x), v))
            assert distance(u.evaluate(x), v) == expected


class TestVertices:
    def test_examples(self):
        assert vertices(CompactSet.of_intervals((-1.0, 1.0))) == [(-1.0,), (1.0,)]
        got = vertices(CompactSet((Box((0.0, 2.0), (1.0, 3.0)),)))
        assert sorted(got) == [(0.0, 2.0), (0.0, 3.0), (1.0, 2.0), (1.0, 3.0)]
        assert vertices(CompactSet.of_points((5.0,))) == [(5.0,)]

    def test_linear_functional_attains_extremum_on_vertices(self):
        rng = random.Random(5)
        for _ in range(100):
            lo = tuple(rng.uniform(-2, 2) for _ in range(2))
            hi = tuple(a + rng.uniform(0, 3) for a in lo)
            s = CompactSet((Box(lo, hi),))
            d = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            vert_min = min(d[0] * v[0] + d[1] * v[1] for v in vertices(s))
            grid_min = min(d[0] * p[0] + d[1] * p[1] for p in grid_points(s.boxes[0], 9))
            assert vert_min <= grid_min + 1e-12


class TestEvaluate:
    def test_example1_values(self):
        m = builtin("example1")
        assert m.evaluate((-0.5,)) == CompactSet.of_intervals((-1.0, 0.0))
        at_zero = m.evaluate((0.0,))
        assert at_zero.boxes == (Box((-1.0,), (0.0,)), Box((-1.0,), (1.0,)))

    def test_example2_values(self):
        f = builtin("example2_F")
        assert f.evaluate((8.0,)) == CompactSet.of_points((8.0,), (2.0,))
        g = builtin("example2_G")
        assert g.evaluate((-1.0,)) == CompactSet.of_points((-1.0,), (-2.0,))
        # sign(0) enters through overlapping pieces, not the expressions
        assert sorted(b.lo[0] for b in g.evaluate((0.0,)).boxes) == [-1.0, 0.0, 0.0, 1.0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            builtin("example1").evaluate((1.0, 2.0))

    def test_purity(self):
        m = builtin("example3")
        x = (0.123456, -0.9)
        assert m.evaluate(x) == m.evaluate(x)
        assert m.evaluate(x).boxes == m.evaluate(x).boxes


def _trajectory(nodes, velocities):
    times = tuple(float(i) for i in range(len(nodes)))
    return Trajectory(times, nodes, velocities)


# Every entry point that takes a vector from outside the package checks
# its dimension with the same message shape, "<what> has dimension <n>,
# <owner> has <d>"; these pin each message exactly.
OUTSIDE_POINT_MESSAGES = [
    (lambda: builtin("example3").evaluate((1.0,)),
     "point has dimension 1, map 'example3' has 2"),
    (lambda: builtin("example1").evaluate([0.0, 1.0, 2.0]),
     "point has dimension 3, map 'example1' has 1"),
    (lambda: check_wcm_pair(builtin("example3"), (1.0, 0.0), (1.0,)),
     "point has dimension 1, map 'example3' has 2"),
    (lambda: check_wcm_pair(builtin("example1"), (1.0, 0.0), (1.0,)),
     "point has dimension 2, map 'example1' has 1"),
    (lambda: distance(CompactSet.of_points((0.0, 0.0)), (1.0,)),
     "point has dimension 1, set has 2"),
    (lambda: initial_velocity(CompactSet.of_points((0.0, 0.0)), override=(0.0,)),
     "initial velocity has dimension 1, image has 2"),
    (lambda: euler_polygon(builtin("example3"), (1.0,), 1.0, 8),
     "x0 has dimension 1, map has 2"),
    (lambda: residual(_trajectory(((0.0,), (1.0,)), ((1.0,),)), builtin("example3")),
     "trajectory has dimension 1, map 'example3' has 2"),
]


@pytest.mark.parametrize("call, message", OUTSIDE_POINT_MESSAGES)
def test_outside_point_dimension_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message


class TestProduct:
    def test_example3_style_product(self):
        const = builtin("example3").right  # [-2,-1] u [1,2]
        m = product(builtin("example1"), const)
        img = m.evaluate((1.0, 0.0))
        assert len(img.boxes) == 2
        assert img.boxes[0] == Box((-1.0, -2.0), (1.0, -1.0))
        assert img.boxes[1] == Box((-1.0, 1.0), (1.0, 2.0))

    def test_point_product(self):
        one = CompactSet.of_points((1.0,))
        two = CompactSet.of_points((2.0,))
        f = builtin("example2_F")
        # constant maps via trivial piecewise construction
        from diffinc.setmap import Expr, Piece, PiecewiseMap
        c1 = PiecewiseMap(1, (Piece((), (((Expr.const(1.0), Expr.const(1.0)),),)),))
        c2 = PiecewiseMap(1, (Piece((), (((Expr.const(2.0), Expr.const(2.0)),),)),))
        m = product(c1, c2)
        assert m.evaluate((9.0, -3.0)) == CompactSet.of_points((1.0, 2.0))
        assert one.dim + two.dim == m.dim

    def test_box_counts_multiply(self):
        two = builtin("example2_F")          # 2 boxes everywhere
        three = union(two, builtin("example1"))  # 3 boxes off the boundary
        m = product(two, three)
        assert len(m.evaluate((2.0, 3.0)).boxes) == 6

    def test_projection_of_product_vertices(self):
        f = builtin("example2_F")
        g = builtin("example1")
        m = product(f, g)
        rng = random.Random(6)
        for _ in range(50):
            x = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            img = m.evaluate(x)
            left_img = f.evaluate(x[:1])
            for v in vertices(img):
                assert distance(left_img, v[:1]) == 0.0


class TestUnion:
    def test_constant_union(self):
        from diffinc.setmap import Expr, Piece, PiecewiseMap
        c = lambda v: PiecewiseMap(1, (Piece((), (((Expr.const(v), Expr.const(v)),),)),))
        m = union(c(1.0), c(-1.0))
        assert m.evaluate((17.0,)) == CompactSet.of_points((1.0,), (-1.0,))

    def test_example4_is_union_of_branches(self):
        m = builtin("example4", {"n": 1})
        values = sorted(b.lo[0] for b in m.evaluate((0.0,)).boxes)
        assert values == [-1.0, -0.5, 0.5, 1.0]

    def test_union_idempotent_up_to_representation(self):
        m = builtin("example1")
        mm = union(m, m)
        rng = random.Random(7)
        for _ in range(50):
            x = (rng.uniform(-2, 2),)
            v = (rng.uniform(-2, 2),)
            assert len(mm.evaluate(x).boxes) == 2 * len(m.evaluate(x).boxes)
            assert distance(mm.evaluate(x), v) == distance(m.evaluate(x), v)

    def test_dim_mismatch(self):
        with pytest.raises(MapDefinitionError):
            union(builtin("example1"), builtin("example3"))


class TestImageBudget:
    """An image of b boxes holds 2 n b coordinates; a product or union
    whose image would hold more than MAX_HELD_POINTS of them raises
    before it is built."""

    @pytest.mark.parametrize("make, boxes", [(product, 4), (union, 4)])
    def test_the_limit_is_inclusive(self, monkeypatch, make, boxes):
        # example1 has two boxes at 0, so each composite has four there
        m = make(builtin("example1"), builtin("example1"))
        coords = boxes * 2 * m.dim
        monkeypatch.setattr(setmap, "MAX_HELD_POINTS", coords)
        assert len(m.evaluate((0.0,) * m.dim).boxes) == boxes
        monkeypatch.setattr(setmap, "MAX_HELD_POINTS", coords - 1)
        with pytest.raises(ImageTooLarge) as err:
            m.evaluate((0.0,) * m.dim)
        assert str(err.value) == (f"{m} of dimension {m.dim} would hold {boxes} boxes at its "
                                  f"point {(0.0,) * m.dim}: {coords} coordinates exceed "
                                  f"MAX_HELD_POINTS = {coords - 1}")
        assert isinstance(err.value, ValueError)

    def test_one_constant_bounds_images_and_checks(self):
        from diffinc import analyzer
        assert analyzer.MAX_HELD_POINTS is setmap.MAX_HELD_POINTS


class TestBuiltins:
    def test_catalog_rejects_unknown(self):
        with pytest.raises(ValueError):
            builtin("example99")
        with pytest.raises(ValueError):
            builtin("example1", {"n": 3})

    def test_example4_corner(self):
        m = builtin("example4", {"n": 2})
        img = m.evaluate((-1.0, -1.0))
        assert img == CompactSet.of_points((-0.5, -0.5), (-1.0, -1.0))

    def test_normgrad(self):
        m = builtin("normgrad", {"n": 2, "k": 4})
        assert m.evaluate((0.9, 0.0)) == CompactSet.of_points((1.0, 0.0))
        origin = m.evaluate((0.0, 0.0))
        assert len(origin.boxes) == 4
        for b in origin.boxes:
            assert math.hypot(*b.lo) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            builtin("normgrad", {"n": 1, "k": 4})

    def test_normgrad_where_the_norm_overflows(self):
        # hypot overflows to inf here, and x / inf was the zero vector
        m = builtin("normgrad", {"n": 2, "k": 4})
        u = 1.0 / math.hypot(1.0, 1.0)  # each coordinate is first divided by 1.7e308
        assert m.evaluate((1.7e308, 1.7e308)) == CompactSet.of_points((u, u))
        assert m.evaluate((-1.7e308, 1.7e308)) == CompactSet.of_points((-u, u))
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(2, 20)
            x = tuple(rng.uniform(-8e307, 8e307) for _ in range(n))
            (box,) = builtin("normgrad", {"n": n, "k": 4}).evaluate(x).boxes
            if math.hypot(*x) < math.inf:
                assert box.lo == tuple(v / math.hypot(*x) for v in x)
            else:
                assert math.hypot(*box.lo) == pytest.approx(1.0, abs=1e-15)
                assert all(math.copysign(1.0, p) == math.copysign(1.0, v)
                           for p, v in zip(box.lo, x))

    @pytest.mark.parametrize("x", [(math.inf, 1.0), (math.nan, 1.0), (math.inf, math.nan)])
    def test_normgrad_rejects_a_non_finite_point(self, x):
        with pytest.raises(MapDefinitionError, match="box corners must be finite"):
            builtin("normgrad", {"n": 2, "k": 4}).evaluate(x)

    def test_normgrad_axis_points_high_dim(self):
        m = builtin("normgrad", {"n": 3, "k": 6})
        origin = m.evaluate((0.0, 0.0, 0.0))
        pts = sorted(b.lo for b in origin.boxes)
        assert (1.0, 0.0, 0.0) in pts and (-1.0, 0.0, 0.0) in pts
        assert len(pts) == 6

    def test_antisign_values(self):
        m = builtin("antisign")
        assert m.evaluate((2.0,)) == CompactSet.of_points((-1.0,))
        assert m.evaluate((-2.0,)) == CompactSet.of_points((1.0,))
        assert m.evaluate((0.0,)) == CompactSet.of_points((-1.0,), (1.0,))

    def test_growth_declared_on_all_builtins(self):
        for name, params in [("example1", None), ("example2_F", None),
                             ("example2_G", None), ("example3", None),
                             ("example4", {"n": 2}), ("antisign", None),
                             ("normgrad", {"n": 2, "k": 4})]:
            m = builtin(name, dict(params) if params else None)
            assert m.growth is not None

    @pytest.mark.parametrize("growth", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
                                        (0.0, math.inf), (-1.0, 0.0)])
    def test_growth_constants_must_be_finite_and_nonnegative(self, growth):
        with pytest.raises(MapDefinitionError, match="growth constants must be finite"):
            PiecewiseMap(1, builtin("example1").pieces, growth=growth)

    def test_overflowing_composite_growth_declares_none(self):
        big = PiecewiseMap(1, builtin("example1").pieces, growth=(1e308, 1.0))
        assert product(big, big).growth is None
        assert union(big, big).growth == (1e308, 1.0)

    def test_declared_growth_majorizes_samples(self):
        rng = random.Random(8)
        for name, params in [("example1", None), ("example2_F", None),
                             ("example2_G", None), ("example3", None),
                             ("example4", {"n": 2})]:
            m = builtin(name, dict(params) if params else None)
            a, b = m.growth
            for _ in range(200):
                x = tuple(rng.uniform(-10, 10) for _ in range(m.dim))
                assert sup_norm(m.evaluate(x)) <= a + b * math.hypot(*x) + 1e-12


def _boundary_bits(bounds):
    """Keys in order, each value by its bits, so -0.0 differs from 0.0."""
    return [(j, [struct.pack("<d", v) for v in vals]) for j, vals in bounds.items()]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 3).flatmap(lambda dim: maps(dim, depth=3)))
def test_composite_boundaries_match_the_per_class_merges(m):
    assert _boundary_bits(m.region_boundaries()) == \
        _boundary_bits(reference_region_boundaries(m))
