"""The three steps of the circulation sign decision.

``analyzer._decide`` passes a cycle whose images are all one point
before any arithmetic; ``analyzer._float_pass`` may pass a cycle only
when its minimal circulation is exactly positive, and otherwise keeps,
per term, the boxes that may attain the term's minimum; the exact sum
of scaled integers walks those alone.  The properties below check the
float pass and the whole decision, to the bit, against the ``Fraction``
reference of ``helpers``; the count guards check, on catalog runs, which
cycles and how many boxes reach the exact sum.
"""

import contextlib
import io
import math
import sys

from helpers import (
    _violation_value,
    cycle_images,
    reference_circulation,
    reference_float_pass,
    strict_json,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_sampled_checks import bits, box_unions

from diffinc import analyzer
from diffinc.analyzer import _battery, _decide, _float_pass, _random_tuples
from diffinc.cli import main, resolve_map
from diffinc.setmap import MAX_RADIUS, Box, CompactSet

TINY = 5e-324
HUGE = sys.float_info.max
COORDS = (0.0, -0.0, TINY, -TINY, 2 * TINY, 3 * TINY, -1e-310,
          2.2250738585072014e-308, 1e-300, 0.1, 0.3, 0.6, 0.7, 1.0, -1.0,
          3.0, 1e16, MAX_RADIUS, -MAX_RADIUS, HUGE, -HUGE)
coords = (st.sampled_from(COORDS)
          | st.floats(-MAX_RADIUS, MAX_RADIUS)
          | st.floats(-1e-300, 1e-300))
# few values, so that boxes share corners and their values tie
TIED = (-1.0, -0.0, 0.0, TINY, 1.0)


def _ulps_away(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(HUGE, k))
    return x


def _finite(x):
    return x if math.isfinite(x) else math.copysign(HUGE, x)


@st.composite
def tied_unions(draw, dim):
    """2 to 4 boxes whose ends come from ``TIED``, so corners often tie."""
    boxes = []
    for _ in range(draw(st.integers(2, 4))):
        ends = [sorted(draw(st.sampled_from(TIED)) for _ in range(2)) for _ in range(dim)]
        boxes.append(Box(tuple(e[0] for e in ends), tuple(e[1] for e in ends)))
    return CompactSet(tuple(boxes))


@st.composite
def cycles(draw):
    """Points (fresh, a few ulps from the previous one, or repeated) and
    one image per term: box unions, often shared between terms; unions
    whose boxes tie, shared the same way; one point shared by all terms,
    whose circulation is exactly zero; or the point ``scale * p`` a few
    ulps off at the term's point p, whose circulation is about ``scale``
    times a sum of squares, so positive, near zero or (scale 0) exactly
    zero."""
    dim = draw(st.integers(1, 3))
    length = draw(st.integers(2, 4))
    points = [tuple(draw(coords) for _ in range(dim))]
    for _ in range(length - 1):
        kind = draw(st.sampled_from(["fresh", "near", "repeat"]))
        if kind == "fresh":
            p = tuple(draw(coords) for _ in range(dim))
        elif kind == "near":
            p = tuple(_ulps_away(c, draw(st.integers(-3, 3))) for c in points[-1])
        else:
            p = draw(st.sampled_from(points))
        points.append(p)
    kind = draw(st.sampled_from(["boxes", "tied", "constant", "scaled"]))
    if kind in ("boxes", "tied"):
        unions = box_unions if kind == "boxes" else tied_unions
        pool = [draw(unions(dim)) for _ in range(draw(st.integers(1, length)))]
        images = [draw(st.sampled_from(pool)) for _ in range(length)]
    elif kind == "constant":
        images = [CompactSet.of_points(tuple(draw(coords) for _ in range(dim)))] * length
    else:
        scale = draw(st.sampled_from((0.0, TINY, 1e-300, 0.5, 1.0, 3.0))
                     | st.floats(0.0, 10.0))
        images = [CompactSet.of_points(tuple(
            _ulps_away(_finite(scale * c), draw(st.integers(-2, 2))) for c in p))
            for p in (*points[1:], points[0])]
    return tuple(points), images


def _constant(v, length):
    return [CompactSet.of_points((v,))] * length


@settings(max_examples=1000, deadline=None)
@given(cycles())
# a float total of 2.8e-17 with no error term; the exact total is 0
@example(((((0.1,), (0.7,), (0.3,)), _constant(1.0, 3))))
# subnormal products: each 0.6 * 2**-1074 rounds up to 2**-1074, 1.2 *
# 2**-1074 down, so the float total is 2**-1074 where the exact one is 0
@example(((((0.0,), (TINY,), (2 * TINY,)), _constant(0.6, 3))))
def test_an_accepted_cycle_has_a_positive_circulation(case):
    points, images = case
    if _float_pass(points, [image._pairs() for image in images]) is None:
        total, _ = reference_circulation(points, images)
        assert total > 0


def test_a_clearly_positive_cycle_is_accepted():
    points = ((0.0, 1.0), (1.0, -2.0), (3.0, 0.5))
    images = [CompactSet.of_points(p) for p in (*points[1:], points[0])]
    assert _float_pass(points, [image._pairs() for image in images]) is None


@settings(max_examples=1000, deadline=None)
@given(cycles())
# displacement (0.6, 0.55): the box at (2**-1074, 2**-1074) has the exact
# value 1.15 * 2**-1074 and the float value 2 * 2**-1074, the box at
# (2 * 2**-1074, 0) has 1.2 * 2**-1074 and 2**-1074; the float order is
# the reverse of the exact one, so only the per-box bound's subnormal
# term keeps the first box a candidate
@example((((0.0, 0.0), (0.6, 0.55)),
          [CompactSet.of_points((TINY, TINY), (2 * TINY, 0.0)),
           CompactSet.of_points((1.0, 1.0))]))
# corners -0.0 and 0.0 tie at value 0: the first box's is the certificate's
@example((((0.0,), (1.0,)),
          [CompactSet.of_intervals((-0.0, 1.0), (0.0, 2.0)), CompactSet.of_points((0.5,))]))
def test_the_decision_matches_the_reference_to_the_bit(case):
    points, images = case
    # the cycle's item lists it from points[1], as its terms evaluate F
    cert = _decide("cyclic", (*points[1:], points[0]), [image._pairs() for image in images])
    total, chosen = reference_circulation(points, images)
    assert (cert is not None) == (total < 0)
    if cert is not None:
        assert bits([cert["value"]]) == bits([_violation_value(total)])
        assert [bits(v) for v in cert["velocities"]] == [bits(v) for v in chosen]


@st.composite
def sparse_cycles(draw):
    """Cycles in 2 to 8 dimensions whose consecutive points differ in at
    most two coordinates, often by flipping a zero's sign, so that most
    displacement coordinates are +-0; most images are one box."""
    dim = draw(st.integers(2, 8))
    length = draw(st.integers(2, 4))
    points = [tuple(draw(coords) for _ in range(dim))]
    for _ in range(length - 1):
        p = list(points[-1])
        for j in draw(st.lists(st.integers(0, dim - 1), max_size=2)):
            p[j] = draw(coords | st.just(-p[j]))
        points.append(tuple(p))
    images = []
    for _ in range(length):
        image = draw(box_unions(dim))
        images.append(image if draw(st.integers(0, 3)) == 0 else CompactSet(image.boxes[:1]))
    return tuple(points), images


@settings(max_examples=1000, deadline=None)
@given(sparse_cycles())
def test_skipping_zero_coordinates_changes_no_bit(case):
    points, images = case
    pairs = [image._pairs() for image in images]
    got = _float_pass(points, pairs)
    want = reference_float_pass(points, pairs)
    if want is None:
        assert got is None
    else:
        assert [[bits(lo + hi) for lo, hi in term] for term in got] == \
            [[bits(lo + hi) for lo, hi in term] for term in want]


def test_a_box_at_the_cut_is_a_candidate():
    # displacement 1.0 and subnormal values, so every bound is 4 * 2**-1074
    # and the cut is 0 + 4 * 2**-1074: the box at 8 * 2**-1074 sits on
    # it and is kept, the one at 9 * 2**-1074 lies above it and is not
    a, b, c = (((k * TINY,), (k * TINY,)) for k in (0, 8, 9))
    back = [((1.0,), (1.0,))]
    terms = _float_pass(((0.0,), (1.0,)), [[a, b, c], back])
    assert terms is not None
    assert terms[0] == [a, b]
    assert terms[1] is back


def _decided_cycles(condition, m, count):
    """The cycles the seed-1 check at radius 5 decides, in order, when
    every cycle passes: of the battery's 2-cycles (y, x), the first of
    each (F(x), F(y), sigma) class where sigma has one nonzero entry and
    every other one; then every random cycle."""
    battery = [(x, y) for x, y in _battery(m, 5.0) if x != y]
    if condition == "cyclic":
        battery = [(b, a) for a, b in battery]  # the 2-cycle (a, b) evaluates F(b) first
    passed = set()
    decided = []
    for x, y in battery:
        sigma = tuple((a > b) - (a < b) for a, b in zip(x, y))
        if sum(map(abs, sigma)) == 1:
            key = (tuple(m.evaluate(x)._pairs()), tuple(m.evaluate(y)._pairs()), sigma)
            if key in passed:
                continue
            passed.add(key)
        decided.append((y, x))
    if condition == "monotone":
        return decided + [(y, x) for x, y in _random_tuples(1, m.dim, 5.0, count, 2) if x != y]
    return decided + list(_random_tuples(1, m.dim, 5.0, count, 3))


def _one_point(m, cycle):
    """Whether every image of the cycle is the same one-point box."""
    images = [image._pairs() for image in cycle_images(m, cycle)]
    (lo, hi), *more = images[0]
    return not more and lo == hi and all(image == images[0] for image in images)


def _counting_min_vertex(monkeypatch):
    """Patch ``_min_vertex`` to count its calls and the boxes it walks."""
    counts = {"calls": 0, "boxes": 0}
    min_vertex = analyzer._min_vertex

    def counted(pairs, d):
        counts["calls"] += 1
        counts["boxes"] += len(pairs)
        return min_vertex(pairs, d)

    monkeypatch.setattr(analyzer, "_min_vertex", counted)
    return counts


def test_exact_sum_runs_for_the_non_positive_cycles_alone(monkeypatch):
    counts = _counting_min_vertex(monkeypatch)
    for condition, name, count in (("monotone", "normgrad2", 200),
                                   ("cyclic", "normgrad3", 100)):
        counts["calls"] = 0
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["check", condition, "--map", name, "--samples",
                         str(count), "--seed", "1"])
        assert code == 0
        m = resolve_map(name)
        # one _min_vertex call per term of each cycle that goes exact: a
        # one-point cycle never does, a sound filter sends every other
        # non-positive cycle there, and the guard is that nothing more does
        non_positive = [c for c in _decided_cycles(condition, m, count)
                        if reference_circulation(c, cycle_images(m, c))[0] <= 0]
        exact = [c for c in non_positive if not _one_point(m, c)]
        assert len(exact) < len(non_positive), "the battery holds one-point cycles"
        assert exact, "the battery holds exact-zero circulations with several points"
        assert counts["calls"] == sum(len(c) for c in exact)


def test_the_exact_sum_walks_only_candidate_boxes(monkeypatch):
    # example4(12) has a 2**12-box image at the origin: the cycles that go
    # exact hold 8,192 boxes, of which the float pass keeps half
    counts = _counting_min_vertex(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", "monotone", "--map", "example4", "--dim", "12"])
    assert code == 3
    assert counts["boxes"] == 4096
    value = strict_json(out.getvalue())["certificate"]["value"]
    assert math.isfinite(value) and value < 0
