"""Sampled checks: exact per-box minimisation and lazy draws.

The references in ``helpers`` are the original implementation: vertex
enumeration in ``Fraction`` and pair/cycle lists drawn up front.  The
checkers must reproduce them report for report, certificate values to
the bit.
"""

import json
import math
import struct
import sys
from fractions import Fraction

import pytest
from helpers import (
    reference_check_wcm,
    reference_cyclic,
    reference_max_vertex,
    reference_min_vertex,
    reference_monotone,
    reference_structured_pairs,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from diffinc import analyzer
from diffinc.analyzer import (
    _PRODUCT_UNIT,
    _exact,
    _min_vertex,
    _random_tuples,
    check_closed_graph,
    check_growth,
    check_wcm,
    check_wcm_pair,
    find_cyclic_violation,
    find_monotonicity_violation,
    structured_pairs,
    wcm_pair_feasible,
)
from diffinc.setmap import (
    MAX_RADIUS,
    Box,
    CompactSet,
    Expr,
    MapDefinitionError,
    NativeMap,
    Piece,
    PiecewiseMap,
    builtin,
    distance,
)

TINY = 5e-324
HUGE = 1.7976931348623157e308
EDGE = (0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, -1e-310, 1.0, -1.0,
        0.5, 3.0, -2.5, 1e300, -1e300, HUGE, -HUGE)

edge_floats = st.sampled_from(EDGE) | st.floats(allow_nan=False, allow_infinity=False)


def bits(v):
    return tuple(struct.pack("<d", c) for c in v)


@st.composite
def box_unions(draw, dim):
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        lo, hi = [], []
        for _ in range(dim):
            kind = draw(st.sampled_from(["range", "point", "signed-zero"]))
            if kind == "point":
                a = b = draw(edge_floats)
            elif kind == "signed-zero":
                a, b = -0.0, 0.0
            else:
                a, b = sorted((draw(edge_floats), draw(edge_floats)))
            lo.append(a)
            hi.append(b)
        boxes.append(Box(tuple(lo), tuple(hi)))
    return CompactSet(tuple(boxes))


@st.composite
def image_and_direction(draw):
    dim = draw(st.integers(1, 3))
    image = draw(box_unions(dim))
    # d = x - y with frequent equal coordinates, so d_j = 0 ties occur
    x = tuple(draw(edge_floats) for _ in range(dim))
    y = tuple(a if draw(st.booleans()) else draw(edge_floats) for a in x)
    return image, x, y


def _float_or_overflow(fn):
    try:
        return fn()
    except OverflowError:
        return OverflowError


class TestPerBoxMinimiser:
    @settings(max_examples=400, deadline=None)
    @given(image_and_direction())
    def test_matches_vertex_enumeration(self, case):
        image, x, y = case
        d = [_exact(a) - _exact(b) for a, b in zip(x, y)]
        ref_d = tuple(Fraction(a) - Fraction(b) for a, b in zip(x, y))
        # the maximum is the negated minimum on -d, as a cycle's term
        # for the step back from y to x computes it
        for sign, ref in ((1, reference_min_vertex), (-1, reference_max_vertex)):
            val, v = _min_vertex(image._pairs(), [sign * c for c in d])
            val *= sign
            ref_val, ref_v = ref(image, ref_d)
            assert Fraction(val, _PRODUCT_UNIT) == ref_val
            assert bits(v) == bits(ref_v)
            assert _float_or_overflow(lambda: val / _PRODUCT_UNIT) == \
                _float_or_overflow(lambda: float(ref_val))

    @given(edge_floats)
    def test_exact_scaling(self, c):
        assert Fraction(_exact(c), 1 << 1074) == Fraction(c)

    def test_signed_zero_coordinate_stays_negative(self):
        image = CompactSet((Box((-0.0, 1.0), (0.0, 2.0)),))
        for d in ([-1, 1], [1, -1], [0, 0]):
            _, v = _min_vertex(image._pairs(), d)
            assert math.copysign(1.0, v[0]) == -1.0
            assert bits(v) == bits(reference_min_vertex(image, [Fraction(c) for c in d])[1])

    def test_first_of_equal_boxes_wins(self):
        image = CompactSet((Box((0.0,), (1.0,)), Box((0.0,), (5.0,)),
                            Box((-1.0,), (0.0,))))
        val, v = _min_vertex(image._pairs(), [0])
        assert (val, v) == (0, (0.0,))
        assert _min_vertex(image._pairs(), [_exact(1.0)])[1] == (-1.0,)


# ---------------------------------------------------------------------------
# Checkers against the eager references
# ---------------------------------------------------------------------------

SLOPES = (-1.0, -0.5, 0.0, 0.5, 1.0)
OFFSETS = (0.0, -0.0, TINY, -TINY, 1.0, -1.0, 0.25, -2.0, 1e300, -1e300, HUGE)
WIDTHS = (0.0, TINY, 0.5, 2.0)


@st.composite
def random_maps(draw):
    """A native map whose boxes are affine in x, some present only on one
    side of a declared boundary; values reach ±0.0, subnormals and the
    top of the double range."""
    dim = draw(st.integers(1, 3))
    specs = []
    bounds = {}
    for i in range(draw(st.integers(1, 3))):
        coords = [(draw(st.sampled_from(SLOPES)), draw(st.sampled_from(OFFSETS)),
                   draw(st.sampled_from(WIDTHS))) for _ in range(dim)]
        gate = None
        if i > 0 and draw(st.booleans()):
            k = draw(st.integers(0, dim - 1))
            b = draw(st.sampled_from((0.0, -0.5, 1.0, 2.5)))
            gate = (k, b)
            bounds.setdefault(k, set()).add(b)
        specs.append((coords, gate))

    def fn(x):
        boxes = []
        for coords, gate in specs:
            if gate is not None and not x[gate[0]] <= gate[1]:
                continue
            lo = tuple(s * x[j] + c for j, (s, c, _) in enumerate(coords))
            hi = tuple(a + w for a, (_, _, w) in zip(lo, coords))
            if not all(map(math.isfinite, lo + hi)):
                raise MapDefinitionError("box corners must be finite")
            boxes.append((lo, hi))
        return boxes

    return NativeMap(dim, fn, "random", {},
                     boundaries={k: tuple(sorted(v)) for k, v in bounds.items()})


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, OverflowError) as e:
        return type(e), str(e)


budgets = st.tuples(
    st.sampled_from((0.1, 1.0, 3.0, 5.0, TINY, 1e300)),  # radius
    st.integers(1, 25),                                    # count
    st.integers(0, 2**32),                                 # seed
)


class TestCheckersMatchReference:
    @settings(max_examples=60, deadline=None)
    @given(random_maps(), budgets)
    def test_wcm(self, m, budget):
        assert outcome(check_wcm, m, *budget) == outcome(reference_check_wcm, m, *budget)

    @settings(max_examples=60, deadline=None)
    @given(random_maps(), budgets)
    def test_monotone(self, m, budget):
        assert outcome(find_monotonicity_violation, m, *budget) == \
            outcome(reference_monotone, m, *budget)

    @settings(max_examples=60, deadline=None)
    @given(random_maps(), budgets, st.integers(2, 4))
    def test_cyclic(self, m, budget, cycle_len):
        radius, count, seed = budget
        assert outcome(find_cyclic_violation, m, radius, cycle_len, count, seed) == \
            outcome(reference_cyclic, m, radius, cycle_len, count, seed)

    def test_catalog_passes_and_fails(self):
        maps = [builtin("example1"), builtin("example2_F"), builtin("example2_G"),
                builtin("example3"), builtin("example4", {"n": 2}),
                builtin("example4", {"n": 3}),
                builtin("normgrad", {"n": 2, "k": 4}), builtin("antisign")]
        verdicts = set()
        for m in maps:
            for seed in (1, 2):
                for radius in (0.2, 5.0):
                    budget = (radius, 60, seed)
                    pairs = [
                        (check_wcm(m, *budget), reference_check_wcm(m, *budget)),
                        (find_monotonicity_violation(m, *budget),
                         reference_monotone(m, *budget)),
                        (find_cyclic_violation(m, radius, 3, 60, seed),
                         reference_cyclic(m, radius, 3, 60, seed)),
                    ]
                    for mine, ref in pairs:
                        # certificate bytes too: == would let -0.0 stand for 0.0
                        assert json.dumps(mine.to_json_dict()) == \
                            json.dumps(ref.to_json_dict()), (m.label, budget, mine.condition)
                        verdicts.add((mine.condition, mine.verdict))
        assert len(verdicts) == 6  # every checker both passes and fails


class TestLazyDraws:
    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        original = analyzer._random_point

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(analyzer, "_random_point", counted)
        return calls

    @pytest.mark.parametrize("check", [
        lambda: check_wcm(builtin("antisign"), 5.0, 10000, 3),
        lambda: find_monotonicity_violation(builtin("example1"), 5.0, 10000, 7),
        lambda: find_cyclic_violation(builtin("example1"), 5.0, 3, 10000, 7),
    ])
    def test_battery_failure_draws_nothing(self, draws, check):
        report = check()
        assert report.failed
        assert draws == []

    def test_draws_stop_at_the_first_failure(self, draws):
        m = builtin("normgrad", {"n": 2, "k": 4})
        report = check_wcm(m, 5.0, 10000, 42)
        assert report.failed
        drawn_pairs = report.samples - len(structured_pairs(m, 5.0))
        assert drawn_pairs > 0
        assert len(draws) == 2 * drawn_pairs

    def test_pass_draws_the_whole_budget(self, draws):
        report = find_monotonicity_violation(builtin("normgrad", {"n": 2}), 5.0, 50, 7)
        assert not report.failed
        assert len(draws) == 100


def _counted(monkeypatch, name, record):
    """Wrap ``analyzer.<name>`` so that ``record(args, kwargs, result)``
    sees every call."""
    original = getattr(analyzer, name)

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        record(args, kwargs, result)
        return result

    monkeypatch.setattr(analyzer, name, counted)


# F(x) = {-x} fails every pair condition at the battery's first pair
_NEGATION = PiecewiseMap(1, (Piece((), (((Expr.neg(Expr.var(0)),) * 2,),)),), label="neg")


class TestLazyBattery:
    @settings(max_examples=100, deadline=None)
    @given(random_maps(), st.sampled_from((0.1, 1.0, 3.0, 5.0, TINY, 1e300)))
    def test_battery_order_is_unchanged(self, m, radius):
        got = structured_pairs(m, radius)
        want = reference_structured_pairs(m, radius)
        assert [(bits(a), bits(b)) for a, b in got] == [(bits(a), bits(b)) for a, b in want]

    def test_catalog_battery_order_is_unchanged(self):
        for m in (builtin("example2_G"), builtin("example3"), builtin("example4", {"n": 3}),
                  builtin("normgrad", {"n": 3, "k": 2})):
            for radius in (0.2, 5.0):
                assert structured_pairs(m, radius) == reference_structured_pairs(m, radius)

    @pytest.mark.parametrize("check", [
        lambda: check_wcm(_NEGATION, 5.0, 100, 1),
        lambda: find_monotonicity_violation(_NEGATION, 5.0, 100, 1),
        lambda: find_cyclic_violation(_NEGATION, 5.0, 3, 100, 1),
        lambda: find_monotonicity_violation(builtin("example1"), 5.0, 100, 1),
        lambda: find_cyclic_violation(builtin("example3"), 5.0, 3, 100, 1),
    ])
    def test_first_pair_failure_builds_one_battery_pair(self, monkeypatch, check):
        points = []
        _counted(monkeypatch, "_axis_point", lambda args, kwargs, p: points.append(p))
        report = check()
        assert report.failed and report.samples == 1
        assert len(points) == 2


def test_passing_x_box_stops_at_the_first_surviving_y_box(monkeypatch):
    # at (x, y) = (1, 0) the first y-box, [0, 1], survives every x-box's
    # cut, so each x-box cuts one y-box; a failing x-box still cuts, and
    # blames, every y-box
    cut = []
    _counted(monkeypatch, "_clip",
             lambda args, kwargs, r: cut.append(len(r[0]) + len(r[1])))
    intervals = [(2.0 * k, 2.0 * k + 1) for k in range(4)]
    m = PiecewiseMap(1, (Piece((), tuple(((Expr.const(a), Expr.const(b)),)
                                         for a, b in intervals)),), label="boxes")
    assert check_wcm_pair(m, (1.0,), (0.0,)) is None
    assert cut == [1, 1, 1, 1]
    cut.clear()
    cert = wcm_pair_feasible(CompactSet.of_intervals((10.0, 11.0)),
                             CompactSet.of_intervals(*intervals), (0.0,), (1.0,))
    assert cut == [4]
    assert [b["box"] for b in cert["blocking"]] == [0, 1, 2, 3]


def test_checks_run_past_the_vertex_dimension_limit():
    # vertices() refuses dimension > 16; per-box minimisation has no limit
    m = builtin("normgrad", {"n": 20})
    assert not find_monotonicity_violation(m, 5.0, 50, 7).failed
    assert not find_cyclic_violation(m, 5.0, 3, 50, 7).failed


def test_example4_dimension_20_pair_certificate():
    # A whole check on example4(20) is slow, not refused: at a battery
    # point with 19 zero coordinates the image holds 2^20 boxes.
    m = builtin("example4", {"n": 20})
    x, y = (-1.0,) * 20, (-2.0,) * 20
    cert = analyzer._decide("monotone", (x, y), [m._eval(x), m._eval(y)])
    x, y = tuple(cert["x"]), tuple(cert["y"])
    v, w = tuple(cert["v"]), tuple(cert["w"])
    assert (v, w) == ((-1.0,) * 20, (-0.5,) * 20)
    assert distance(m.evaluate(x), v) == 0.0
    assert distance(m.evaluate(y), w) == 0.0
    value = sum((Fraction(a) - Fraction(b)) * (Fraction(c) - Fraction(e))
                for a, b, c, e in zip(x, y, v, w))
    assert value == -10 and cert["value"] == -10.0


# ---------------------------------------------------------------------------
# Non-finite budgets are rejected at the checker boundary
# ---------------------------------------------------------------------------

CHECKERS = {
    "wcm": lambda m, r: check_wcm(m, r, 10, 1),
    "monotone": lambda m, r: find_monotonicity_violation(m, r, 10, 1),
    "cyclic": lambda m, r: find_cyclic_violation(m, r, 3, 10, 1),
    "growth": lambda m, r: check_growth(m, r, 10, 1),
    "graph": lambda m, r: check_closed_graph(m, r, 10, 1, 1e-2),
}


@pytest.mark.parametrize("radius", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", sorted(CHECKERS))
def test_non_finite_radius_is_rejected(name, radius):
    with pytest.raises(ValueError, match="radius"):
        CHECKERS[name](builtin("example1"), radius)


@pytest.mark.parametrize("name", sorted(CHECKERS))
def test_radius_above_max_radius_is_rejected(name):
    for radius in (math.nextafter(MAX_RADIUS, math.inf), 1e308, sys.float_info.max):
        with pytest.raises(ValueError, match="radius must be finite and in"):
            CHECKERS[name](builtin("example1"), radius)


@pytest.mark.parametrize("name", sorted(CHECKERS))
def test_max_radius_is_accepted(name):
    CHECKERS[name](builtin("example3"), MAX_RADIUS)


def test_max_radius_draws_only_finite_points():
    points = [p for t in _random_tuples(1, 3, MAX_RADIUS, 2000, 2) for p in t]
    assert all(math.isfinite(c) and abs(c) <= MAX_RADIUS for p in points for c in p)
    assert max(abs(c) for p in points for c in p) > MAX_RADIUS / 2
    # two sampled points differ by a finite amount
    assert math.isfinite(MAX_RADIUS - -MAX_RADIUS)


@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_non_finite_eps_is_rejected(eps):
    with pytest.raises(ValueError, match="eps"):
        check_closed_graph(builtin("example1"), 5.0, 10, 1, eps)


class TestHeldPointsLimit:
    """A check that holds all its samples, or a whole cycle, at once takes
    at most MAX_HELD_POINTS coordinates of them, n a point; lazily drawn
    pairs and growth points are not bounded."""

    @pytest.fixture(autouse=True)
    def small_limit(self, monkeypatch):
        monkeypatch.setattr(analyzer, "MAX_HELD_POINTS", 10)

    def test_samples_held_at_once(self):
        def check(count):
            return check_closed_graph(builtin("example1"), 5.0, count, 1, 1e-2)

        assert check(10) is not None
        with pytest.raises(ValueError, match="count = 11 points held at once exceeds "
                                             "MAX_HELD_POINTS = 10"):
            check(11)

    def test_cycle_held_at_once(self, monkeypatch):
        # ten points of dimension 2
        monkeypatch.setattr(analyzer, "MAX_HELD_POINTS", 20)
        m = builtin("normgrad", {"n": 2})
        assert not find_cyclic_violation(m, 5.0, 10, 5, 1).failed
        with pytest.raises(ValueError, match="cycle_len = 11 points held at once"):
            find_cyclic_violation(m, 5.0, 11, 5, 1)

    def test_pairs_are_not_bounded(self):
        assert check_wcm(builtin("antisign"), 5.0, 10 ** 9, 3).failed
        assert find_monotonicity_violation(builtin("example1"), 5.0, 10 ** 9, 7).failed
        # |F(0)| = 1 breaks a declared A of 0.5 at the first point
        understated = builtin("example1")
        understated.growth = (0.5, 0.0)
        assert check_growth(understated, 5.0, 10 ** 9, 1).samples == 1
