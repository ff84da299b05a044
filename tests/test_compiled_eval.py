"""The compiled evaluation path against the tree-walking oracles.

Expressions and piecewise/product/union maps are compiled once into
straight-line Python; these properties check that the compiled code
returns what the original recursive evaluator returned, bit for bit,
and raises the same errors.
"""

import functools
import math
import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from diffinc.mapdsl import parse_map
from diffinc.setmap import (
    Condition,
    Expr,
    MapDefinitionError,
    Piece,
    PiecewiseMap,
    ProductMap,
    UnionMap,
    real_cbrt,
)

from helpers import (
    compiled_eval,
    random_expr,
    reference_image,
    reference_real_cbrt,
    tree_eval,
)


def bits(v):
    return struct.pack("<d", v)


def box_bits(pairs):
    return [(tuple(map(bits, lo)), tuple(map(bits, hi))) for lo, hi in pairs]


def outcome(fn, *args):
    """("ok", value) or (exception type, message)."""
    try:
        return "ok", fn(*args)
    except ValueError as e:  # MapDefinitionError included
        return type(e), str(e)


# ±0.0 must stay distinct, 1e308 overflows to inf under + and *, and
# tiny values reach the subnormal range
SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, -2.5, 1e308, -1e308, 5e-324, 1e-310]
constants = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-10.0, max_value=10.0),
)
coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 8.0, -27.0, 1e200, -1e-300]),
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(allow_nan=False),
)

UNARY = ["neg", "sign", "cbrt", "abs"]
BINARY = ["add", "sub", "mul"]


def _unary(t):
    return Expr(t[0], args=(t[1],))


def _binary(t):
    return Expr(t[0], args=t[1:])


def _shared(t):
    # one subtree used twice, as the same object
    return Expr(t[0], args=(t[1], t[1]))


def exprs(n_vars, max_leaves):
    leaves = st.one_of(constants.map(Expr.const),
                       st.integers(0, n_vars - 1).map(Expr.var))

    def extend(kids):
        return st.one_of(
            st.tuples(st.sampled_from(UNARY), kids).map(_unary),
            st.tuples(st.sampled_from(BINARY), kids, kids).map(_binary),
            st.tuples(st.sampled_from(BINARY), kids).map(_shared),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


TREES = {n: exprs(n, 10) for n in (1, 2, 3)}
SMALL_TREES = {n: exprs(n, 6) for n in (1, 2, 3)}


@st.composite
def expr_and_point(draw):
    n_vars = draw(st.integers(1, 3))
    return draw(TREES[n_vars]), tuple(draw(coordinates) for _ in range(n_vars))


@settings(max_examples=500, deadline=None)
@given(expr_and_point())
def test_expression_matches_tree_walker(case):
    e, x = case
    got = outcome(compiled_eval, e, x)
    want = outcome(tree_eval, e, x)
    if want[0] == "ok" and not math.isfinite(want[1]):
        assert got[0] is MapDefinitionError  # an image corner is finite
    elif got[0] == "ok" and want[0] == "ok":
        assert bits(got[1]) == bits(want[1])
    else:
        assert got == want


def test_signed_zero_constants_stay_distinct():
    e = Expr.add(Expr.const(-0.0), Expr.mul(Expr.const(0.0), Expr.const(-0.0)))
    assert bits(compiled_eval(e, ())) == bits(tree_eval(e, ())) == bits(-0.0)
    assert bits(compiled_eval(Expr.const(-0.0), ())) == bits(-0.0)
    # folded when the map is built, with the bits of the tree walker
    zero, neg_zero = Expr.const(0.0), Expr.const(-0.0)
    folded = {
        "-(0.0)": (Expr.neg(zero), -0.0),
        "0.0*-1.0": (Expr.mul(zero, Expr.const(-1.0)), -0.0),
        "cbrt(-0.0)": (Expr.cbrt(neg_zero), -0.0),
        "sign(-0.0)": (Expr.sign(neg_zero), 0.0),
        "abs(-0.0)": (Expr.abs(neg_zero), 0.0),
    }
    for name, (e, want) in folded.items():
        assert bits(compiled_eval(e, ())) == bits(tree_eval(e, ())) == bits(want), name
        # the same value beside a coordinate, and added to -0.0
        x = Expr.var(0)
        for whole in (Expr.add(e, neg_zero), Expr.add(x, Expr.mul(e, x))):
            assert bits(compiled_eval(whole, (-0.0,))) == bits(tree_eval(whole, (-0.0,))), name


def test_constant_subtrees_are_computed_when_the_map_is_built(monkeypatch):
    x = Expr.var(0)
    two = Expr.const(2.0)
    boxes = (
        ((Expr.mul(Expr.cbrt(two), x), Expr.add(x, Expr.abs(Expr.cbrt(Expr.const(-27.0))))),),
        ((Expr.mul(Expr.sign(Expr.const(-3.0)), x),) * 2,),
        ((Expr.cbrt(Expr.const(-8.0)), Expr.abs(Expr.cbrt(two))),),
    )
    m = PiecewiseMap(1, (Piece((), boxes),), label="consts")
    calls = []

    def counted(v):
        calls.append(v)
        return real_cbrt(v)

    # compiled code looks real_cbrt up when it runs
    monkeypatch.setattr("diffinc.setmap.real_cbrt", counted)
    for p in ((1.5,), (-0.0,), (-1e300,)):
        got = m._eval(p)
        assert calls == []
        assert box_bits(got) == box_bits(reference_image(m, p))
    assert m._eval((1.5,))[2] is m._eval((0.0,))[2]  # a box of constants is bound once


REGION_OPS = ["lt", "le", "ge", "gt", "eq"]
BOUNDS = [0.0, -0.0, 1.0, -1.5, 2.0]
# no region test holds at NaN, and an image at ±inf is usually not finite
NON_FINITE = [math.nan, math.inf, -math.inf]


@st.composite
def piecewise_maps(draw, dim, bounds=BOUNDS):
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        conditions = tuple(
            Condition(draw(st.integers(0, dim - 1)), draw(st.sampled_from(REGION_OPS)),
                      draw(st.sampled_from(bounds)))
            for _ in range(draw(st.integers(0, 2)))
        )
        image = []
        for _ in range(draw(st.integers(1, 2))):
            coords = []
            for _ in range(dim):
                lo = draw(SMALL_TREES[dim])
                kind = draw(st.sampled_from(["point", "shifted", "free"]))
                if kind == "point":
                    hi = lo
                elif kind == "shifted":
                    hi = Expr.add(lo, Expr.const(draw(st.sampled_from([0.0, 0.5, 2.0]))))
                else:
                    hi = draw(SMALL_TREES[dim])
                coords.append((lo, hi))
            image.append(tuple(coords))
        pieces.append(Piece(conditions, tuple(image)))
    return PiecewiseMap(dim, pieces, label=f"m{draw(st.integers(0, 9))}")


@st.composite
def maps(draw, dim, depth=2, bounds=BOUNDS):
    kind = draw(st.sampled_from(["pieces", "product", "union"]) if depth else st.just("pieces"))
    if kind == "product" and dim >= 2:
        d = draw(st.integers(1, dim - 1))
        return ProductMap(draw(maps(d, depth - 1, bounds)),
                          draw(maps(dim - d, depth - 1, bounds)))
    if kind == "union":
        return UnionMap(draw(maps(dim, depth - 1, bounds)), draw(maps(dim, depth - 1, bounds)))
    return draw(piecewise_maps(dim, bounds))


@st.composite
def map_and_point(draw):
    dim = draw(st.integers(1, 3))
    m = draw(maps(dim))
    point = st.one_of(st.sampled_from(BOUNDS), coordinates, st.sampled_from(NON_FINITE))
    return m, tuple(draw(point) for _ in range(dim))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(map_and_point())
def test_map_evaluation_matches_reference(case):
    m, x = case
    got = outcome(lambda p: [(b.lo, b.hi) for b in m.evaluate(p).boxes], x)
    want = outcome(reference_image, m, x)
    if got[0] == "ok" and want[0] == "ok":
        assert box_bits(got[1]) == box_bits(want[1])
    else:
        assert got == want


def condition_bounds(m, shift=0):
    """(coordinate, bound) of every condition in the map's pieces, in the
    map's own coordinates."""
    if isinstance(m, ProductMap):
        return condition_bounds(m.left, shift) | condition_bounds(m.right, shift + m.left.dim)
    if isinstance(m, UnionMap):
        return condition_bounds(m.left, shift) | condition_bounds(m.right, shift)
    return {(c.var + shift, c.bound) for p in m.pieces for c in p.conditions}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 3).flatmap(
    lambda dim: maps(dim, bounds=BOUNDS + [math.inf, -math.inf, 1e308])))
def test_region_boundaries_are_the_finite_bounds(m):
    got = m.region_boundaries()
    assert all(vals and list(vals) == sorted(vals) for vals in got.values())
    assert {(j, v) for j, vals in got.items() for v in vals} == \
        {(j, v) for j, v in condition_bounds(m) if math.isfinite(v)}


def test_each_error_kind_matches_reference():
    x = Expr.var(0)
    big = Expr.const(1e308)
    cases = {
        "lo > hi": (((Expr.const(1.0), Expr.const(0.0)),), (1.0,)),
        "overflow": (((Expr.mul(big, Expr.add(x, big)), Expr.const(0.0)),), (1.0,)),
        "nan corner": (((Expr.sub(Expr.mul(big, big), Expr.mul(big, big)),
                         Expr.const(0.0)),), (1.0,)),
    }
    for name, (box, point) in cases.items():
        m = PiecewiseMap(1, (Piece((), (box,)),), label=name)
        got = outcome(m.evaluate, point)
        assert got[0] is MapDefinitionError
        assert got == outcome(reference_image, m, point)
    # corners of constants only, folded when the map is built, fail at
    # evaluation: alone, and beside a coordinate of the point
    overflow = Expr.mul(big, Expr.const(10.0))
    folded = {
        "overflow": ((overflow, overflow), "box corners must be finite",
                     '"1e308*10", "1e308*10"'),
        "nan corner": ((Expr.sub(overflow, overflow), Expr.const(0.0)),
                       "box corners must be finite", '"1e308*10-1e308*10", "0"'),
        "lo > hi": ((Expr.cbrt(Expr.const(27.0)), Expr.const(2.0)),
                    "produced lo 3.0 > hi 2.0 at (1.0, -2.0)", '"cbrt(27)", "2"'),
    }
    for name, (bad, message, text) in folded.items():
        for box in ((bad,), ((x, x), bad), (bad, (x, Expr.abs(x)))):
            m = PiecewiseMap(len(box), (Piece((), (box,)),), label=name)
            point = (1.0, -2.0)[:m.dim]
            got = outcome(m.evaluate, point)
            assert got[0] is MapDefinitionError
            assert got == outcome(reference_image, m, point)
            if m.dim == 2:
                assert message in got[1]
        # a map file holding it is rejected, naming the node
        src = ('{"dim": 2, "union": [{"dim": 2, "builtin": {"name": "normgrad"}}, '
               '{"dim": 2, "pieces": [{"region": [], "image": [[["x1", "x1"], [' + text + ']]]}]}]}')
        with pytest.raises(MapDefinitionError, match=r"^\$\.union\[1\]: ") as err:
            parse_map(src)
        assert message.split(" at ")[0] in str(err.value)
    empty = PiecewiseMap(1, (Piece((Condition(0, "gt", 0.0),),
                                   (((x, x),),)),), label="half")
    got = outcome(empty.evaluate, (-1.0,))
    assert "empty image" in got[1]
    assert got == outcome(reference_image, empty, (-1.0,))


def compiled_parts(m):
    """How many functions a piecewise map's ``_eval`` was compiled into:
    the last one holds the others as ``part0``, ``part1``, ..."""
    return 1 + sum(name.startswith("part") for name in m._eval.__code__.co_freevars)


@functools.cache
def large_map(seed):
    """A 2-D map of 60 random pieces, some with constant boxes, that
    compiles into several functions."""
    rng = random.Random(seed)
    pieces = []
    for k in range(60):
        conditions = tuple(
            Condition(rng.randrange(2), rng.choice(REGION_OPS), rng.choice(BOUNDS))
            for _ in range(rng.randint(0, 2)))
        image = []
        for _ in range(rng.randint(1, 3)):
            box = []
            for _ in range(2):
                lo = random_expr(rng, 2)
                hi = lo if rng.random() < 0.5 else Expr.add(lo, Expr.const(float(k % 4)))
                box.append((lo, hi))
            image.append(tuple(box))
        pieces.append(Piece(conditions, tuple(image)))
    return PiecewiseMap(2, pieces, label=f"large{seed}")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3),
       st.tuples(*[st.one_of(st.sampled_from(BOUNDS), coordinates,
                             st.sampled_from(NON_FINITE))] * 2))
def test_map_compiled_in_several_functions_matches_reference(seed, x):
    m = large_map(seed)
    assert compiled_parts(m) >= 3
    got = outcome(lambda p: [(b.lo, b.hi) for b in m.evaluate(p).boxes], x)
    want = outcome(reference_image, m, x)
    if got[0] == "ok" and want[0] == "ok":
        assert box_bits(got[1]) == box_bits(want[1])
    else:
        assert got == want


_V = Expr.var(0)
GOOD = ((_V, _V),)
LO_ABOVE_HI = ((Expr.const(1.0), Expr.const(0.0)),)
_OVERFLOW = Expr.mul(Expr.const(1e308), Expr.add(_V, Expr.const(1e308)))
INFINITE = ((_OVERFLOW, _OVERFLOW),)


@pytest.mark.parametrize("filler", [0, 80])
@pytest.mark.parametrize("first, second", [(LO_ABOVE_HI, INFINITE), (INFINITE, LO_ABOVE_HI)])
@pytest.mark.parametrize("same_piece", [True, False])
def test_first_bad_box_in_piece_order_raises(filler, first, second, same_piece):
    # filler pieces put the two bad boxes into different compiled functions
    if same_piece:
        pieces = [Piece((), (GOOD, first, GOOD, second))]
    else:
        pieces = [Piece((), (GOOD, first)), Piece((Condition(0, "ge", 0.0),), (second, GOOD))]
    pieces[1:1] = [Piece((Condition(0, "lt", float(-k)),), (GOOD,)) for k in range(filler)]
    m = PiecewiseMap(1, pieces, label="bad")
    assert (compiled_parts(m) > 1) == (filler > 0)
    got = outcome(m.evaluate, (1.0,))
    assert got == outcome(reference_image, m, (1.0,))
    assert got[1] == ("map 'bad' produced lo 1.0 > hi 0.0 at (1.0,)"
                      if first is LO_ABOVE_HI else "box corners must be finite")


def _cube(k):
    return float(k) ** 3


def _scaled_cube(t):
    return math.ldexp(float(t[0]) ** 3, 3 * t[1])


def exact_cubes():
    small = st.integers(-(2 ** 17), 2 ** 17).map(_cube)
    scaled = st.tuples(st.integers(1, 2 ** 17), st.integers(-350, 320)).map(_scaled_cube)
    return st.one_of(small, scaled)


@settings(max_examples=2000, deadline=None)
@given(st.one_of(st.floats(), st.floats(max_value=1e-300, min_value=-1e-300),
                 exact_cubes()))
def test_real_cbrt_matches_reference(v):
    assert bits(real_cbrt(v)) == bits(reference_real_cbrt(v))


def test_real_cbrt_extremes_match_reference():
    for v in (5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
              1.7976931348623157e308, math.inf, -math.inf, -0.0, 1e-310, 27.0):
        assert bits(real_cbrt(v)) == bits(reference_real_cbrt(v))
    assert math.isnan(real_cbrt(math.nan))
