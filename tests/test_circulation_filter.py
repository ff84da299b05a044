"""The float filter in front of the exact circulation sum.

``analyzer._surely_positive`` may settle a cycle only when its minimal
circulation is exactly positive; everything else goes to the exact sum
of scaled integers.  The property below checks the filter against the
``Fraction`` reference of ``helpers``; the count guard checks that on
two catalog runs the exact sum runs for the non-positive cycles alone.
"""

import contextlib
import io
import math
import sys
from itertools import chain

from helpers import cycle_images, reference_circulation
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_sampled_checks import box_unions

from diffinc import analyzer
from diffinc.analyzer import _battery, _random_tuples, _surely_positive
from diffinc.cli import main, resolve_map
from diffinc.setmap import MAX_RADIUS, CompactSet

TINY = 5e-324
HUGE = sys.float_info.max
COORDS = (0.0, -0.0, TINY, -TINY, 2 * TINY, 3 * TINY, -1e-310,
          2.2250738585072014e-308, 1e-300, 0.1, 0.3, 0.6, 0.7, 1.0, -1.0,
          3.0, 1e16, MAX_RADIUS, -MAX_RADIUS, HUGE, -HUGE)
coords = (st.sampled_from(COORDS)
          | st.floats(-MAX_RADIUS, MAX_RADIUS)
          | st.floats(-1e-300, 1e-300))


def _ulps_away(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(HUGE, k))
    return x


def _finite(x):
    return x if math.isfinite(x) else math.copysign(HUGE, x)


@st.composite
def cycles(draw):
    """Points (fresh, a few ulps from the previous one, or repeated) and
    one image per term: box unions, often shared between terms; one
    point shared by all terms, whose circulation is exactly zero; or the
    point ``scale * p`` a few ulps off at the term's point p, whose
    circulation is about ``scale`` times a sum of squares, so positive,
    near zero or (scale 0) exactly zero."""
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
    kind = draw(st.sampled_from(["boxes", "constant", "scaled"]))
    if kind == "boxes":
        pool = [draw(box_unions(dim)) for _ in range(draw(st.integers(1, length)))]
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
    if _surely_positive(points, [image._pairs() for image in images]):
        total, _ = reference_circulation(points, images)
        assert total > 0


def test_a_clearly_positive_cycle_is_accepted():
    points = ((0.0, 1.0), (1.0, -2.0), (3.0, 0.5))
    images = [CompactSet.of_points(p) for p in (*points[1:], points[0])]
    assert _surely_positive(points, [image._pairs() for image in images])


def _decided_cycles(condition, m, count):
    """The cycles the seed-1 check at radius 5 decides, in order."""
    if condition == "monotone":
        pairs = chain(_battery(m, 5.0), _random_tuples(1, m.dim, 5.0, count, 2))
        return [(y, x) for x, y in pairs if x != y]
    return list(chain(((a, b) for a, b in _battery(m, 5.0) if a != b),
                      _random_tuples(1, m.dim, 5.0, count, 3)))


def test_exact_sum_runs_for_the_non_positive_cycles_alone(monkeypatch):
    calls = 0
    min_vertex = analyzer._min_vertex

    def counted(*args):
        nonlocal calls
        calls += 1
        return min_vertex(*args)

    monkeypatch.setattr(analyzer, "_min_vertex", counted)
    for condition, name, count in (("monotone", "normgrad2", 200),
                                   ("cyclic", "normgrad3", 100)):
        calls = 0
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["check", condition, "--map", name, "--samples",
                         str(count), "--seed", "1", "--no-timestamp"])
        assert code == 0
        m = resolve_map(name)
        # one _min_vertex call per term of each cycle that goes exact; a
        # sound filter sends every non-positive cycle there, so the
        # count is at least theirs, and the guard is that it is no more
        non_positive = [c for c in _decided_cycles(condition, m, count)
                        if reference_circulation(c, cycle_images(m, c))[0] <= 0]
        assert non_positive, "the battery holds exact-zero circulations"
        assert calls == sum(len(c) for c in non_positive)
