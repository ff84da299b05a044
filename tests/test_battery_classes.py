"""The battery decided once per class.

``analyzer._pair_check`` evaluates each battery point once and skips a
pair whose (class of F(x), class of F(y), sigma) already passed: every
wcm pair, and the monotone and cyclic pairs whose sigma has one nonzero
entry.  A class is a bit-identical image.  The oracle is the per-pair
path of ``helpers``: reports, and the whole verdict stream, must match
it byte for byte.  The count guards check how much work the record
saves, how many images its store keeps, and that the store keeps to
``MAX_HELD_POINTS`` coordinates.
"""

import json

import pytest
from helpers import (
    _cycle_gap,
    _eager_pairs,
    _monotone_gap,
    measured_cli,
    reference_check_wcm,
    reference_cyclic,
    reference_monotone,
    reference_structured_pairs,
    reference_wcm_pair_feasible,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffinc import analyzer
from diffinc.analyzer import (
    _battery,
    _random_tuples,
    check_wcm,
    find_cyclic_violation,
    find_monotonicity_violation,
)
from diffinc.mapdsl import parse_map
from diffinc.setmap import builtin

CHECKS = {
    "wcm": (check_wcm, reference_check_wcm),
    "monotone": (find_monotonicity_violation, reference_monotone),
    "cyclic": (lambda m, r, count, seed: find_cyclic_violation(m, r, 3, count, seed),
               lambda m, r, count, seed: reference_cyclic(m, r, 3, count, seed)),
}


def _doc(dim, pieces):
    return json.dumps({"dim": dim, "pieces": [
        {"region": [{"var": var, "op": op, "bound": bound} for var, op, bound in region],
         "image": image}
        for region, image in pieces]})


# 1-D: {0} outside [-1, 1], [1, 2] on it.  The wcm classes of (-1, 2) and
# of (1, -2) are the same images; their sigma differs, and only the
# first passes.
ISLAND = _doc(1, [([(1, "lt", -1.0)], [[["0", "0"]]]),
                  ([(1, "ge", -1.0), (1, "le", 1.0)], [[["1", "2"]]]),
                  ([(1, "gt", 1.0)], [[["0", "0"]]])])
# 2-D: {(1, 1)} where x1 > 0.1, {(0, 0)} elsewhere.  A cross-axis pair
# ((1, 0), (0, 1)) fails monotonicity where the one-axis pairs of the
# same images pass.
STEP = _doc(2, [([(1, "gt", 0.1)], [[["1", "1"], ["1", "1"]]]),
                ([(1, "le", 0.1)], [[["0", "0"], ["0", "0"]]])])
# F(x) = {-x} with a bound at -0.0: F(0.0) = {-0.0} and F(-0.0) = {0.0}
# share a class but not their bits, and failing pairs name them both.
NEGATED = _doc(1, [([(1, "le", -0.0)], [[["-x", "-x"]]]),
                   ([(1, "gt", -0.0)], [[["-x", "-x"]]])])


def _bytes(report_or_error):
    if isinstance(report_or_error, tuple):
        return report_or_error
    return json.dumps(report_or_error.to_json_dict())


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, OverflowError) as e:
        return type(e), str(e)


# ---------------------------------------------------------------------------
# Piecewise-constant maps whose images repeat in non-adjacent cells
# ---------------------------------------------------------------------------

ENDS = ("-1", "-0", "0", "0.5", "1", "2")
BOUNDS = (-1.0, -0.0, 0.1, 0.5, 1.0, 2.0)


@st.composite
def images(draw, dim):
    boxes = []
    for _ in range(draw(st.integers(1, 3))):
        box = []
        for _ in range(dim):
            a, b = sorted((draw(st.sampled_from(ENDS)), draw(st.sampled_from(ENDS))), key=float)
            box.append([a, b])
        boxes.append(box)
    return boxes


@st.composite
def cells(draw, var):
    """The cells of one coordinate: a partition of R by 1 to 3 bounds,
    each bound a cell of its own or closing the cell below or above."""
    bounds = sorted(set(draw(st.lists(st.sampled_from(BOUNDS), min_size=1, max_size=3))))
    out = []
    low = None  # the condition that opens the current cell
    for b in bounds:
        how = draw(st.sampled_from(["own", "below", "above"]))
        upper = (var, "le" if how == "below" else "lt", b)
        out.append([c for c in (low, upper) if c])
        if how == "own":
            out.append([(var, "eq", b)])
        low = (var, "ge" if how == "above" else "gt", b)
    out.append([low])
    return out


@st.composite
def constant_maps(draw):
    dim = draw(st.integers(1, 2))
    grid = draw(cells(1))
    if dim == 2:
        other = draw(cells(2)) if draw(st.booleans()) else [[]]
        grid = [a + b for a in grid for b in other]
    pool = [draw(images(dim)) for _ in range(draw(st.integers(1, 3)))]
    pieces = [(region, draw(st.sampled_from(pool))) for region in grid]
    return parse_map(_doc(dim, pieces))


budgets = st.tuples(st.sampled_from((0.3, 1.0, 3.0, 5.0)),  # radius
                    st.integers(1, 8),                        # count
                    st.integers(0, 2**32))                    # seed


@settings(max_examples=40, deadline=None)
@given(constant_maps(), budgets, st.sampled_from(sorted(CHECKS)))
@example(parse_map(ISLAND), (5.0, 5, 1), "wcm")
@example(parse_map(STEP), (5.0, 5, 1), "monotone")
@example(parse_map(STEP), (5.0, 5, 1), "cyclic")
@example(parse_map(NEGATED), (5.0, 5, 1), "wcm")
def test_reports_match_the_per_pair_path(m, budget, condition):
    check, reference = CHECKS[condition]
    assert _bytes(_outcome(check, m, *budget)) == _bytes(_outcome(reference, m, *budget))


def test_pinned_maps_fail_where_the_per_pair_path_does():
    island, step = parse_map(ISLAND), parse_map(STEP)
    report = check_wcm(island, 5.0, 5, 1)
    assert (report.samples, report.certificate["x"], report.certificate["y"]) == \
        (54, [-1.0], [2.0])
    report = find_monotonicity_violation(step, 5.0, 5, 1)
    assert (report.samples, report.certificate["x"]) == (427, [1.0, 0.0])
    assert find_cyclic_violation(step, 5.0, 3, 5, 1).samples == 427


# ---------------------------------------------------------------------------
# The whole verdict stream, past the first failure
# ---------------------------------------------------------------------------


def _stream(monkeypatch, condition, m, budget):
    """Every verdict the check would take, the battery's and the random
    draws', with nothing stopping at the first failure."""
    streams = []
    monkeypatch.setattr(analyzer, "_sampled_check",
                        lambda condition, verdicts, *rest: streams.append(list(verdicts)))
    CHECKS[condition][0](m, *budget)
    return [json.dumps(cert) for cert in streams[0]]


def _reference_stream(condition, m, budget):
    radius, count, seed = budget
    if condition == "wcm":
        certs = [reference_wcm_pair_feasible(m.evaluate(x), m.evaluate(y), x, y)
                 for x, y in _eager_pairs(m, *budget)]
    elif condition == "monotone":
        certs = [_monotone_gap(m, x, y) for x, y in _eager_pairs(m, *budget)]
    else:
        cycles = [(a, b) for a, b in reference_structured_pairs(m, radius) if a != b]
        cycles += _random_tuples(seed, m.dim, radius, count, 3)
        certs = [_cycle_gap(m, c) for c in cycles]
    return [json.dumps(cert) for cert in certs]


@pytest.mark.parametrize("condition", sorted(CHECKS))
@pytest.mark.parametrize("doc", [pytest.param(ISLAND, id="island"), pytest.param(STEP, id="step"),
                                 pytest.param(NEGATED, id="negated")])
def test_every_pair_of_a_failing_class_is_decided(monkeypatch, condition, doc):
    m = parse_map(doc)
    stream = _stream(monkeypatch, condition, m, (5.0, 5, 1))
    reference = _reference_stream(condition, m, (5.0, 5, 1))
    assert stream == reference
    assert sum(cert != "null" for cert in stream) > 1


@pytest.mark.parametrize("condition", sorted(CHECKS))
@pytest.mark.parametrize("doc", [pytest.param(ISLAND, id="island"), pytest.param(STEP, id="step"),
                                 pytest.param(NEGATED, id="negated")])
def test_pairs_with_no_class_are_decided(monkeypatch, condition, doc):
    # room for a 3-point cycle, and in the store for one point at most:
    # the other points have no class, and no key stands for their pairs
    m = parse_map(doc)
    monkeypatch.setattr(analyzer, "MAX_HELD_POINTS", 3 * m.dim)
    stream = _stream(monkeypatch, condition, m, (5.0, 5, 1))
    assert stream == _reference_stream(condition, m, (5.0, 5, 1))


# ---------------------------------------------------------------------------
# Count guards
# ---------------------------------------------------------------------------


def _counted(monkeypatch, m, name):
    """Count calls of ``analyzer.<name>`` and of ``m._eval``, by point."""
    counts = {"decisions": 0, "evals": []}
    decide = getattr(analyzer, name)
    evaluate = m._eval

    def counted_decide(*args):
        counts["decisions"] += 1
        return decide(*args)

    def counted_eval(x):
        counts["evals"].append(x)
        return evaluate(x)

    monkeypatch.setattr(analyzer, name, counted_decide)
    monkeypatch.setattr(m, "_eval", counted_eval, raising=False)
    return counts


def _bits(p):
    return tuple(float.hex(c) for c in p)


def test_example4_battery_points_are_evaluated_once(monkeypatch):
    m = builtin("example4", {"n": 8})
    battery = list(_battery(m, 5.0))
    passed = {(tuple(m.evaluate(x)._pairs()), tuple(m.evaluate(y)._pairs()),
               tuple((a > b) - (a < b) for a, b in zip(x, y))) for x, y in battery}
    points = {_bits(p) for pair in battery for p in pair}
    counts = _counted(monkeypatch, m, "_hardest_corner")
    report = check_wcm(m, 5.0, 10, 7)
    assert not report.failed and report.samples == len(battery) + 10
    # one evaluation per distinct battery point, then two per random pair
    assert len(counts["evals"]) == len(points) + 20
    assert len({_bits(p) for p in counts["evals"][:len(points)]}) == len(points)
    # one decision per class, then one per random pair
    assert counts["decisions"] == len(passed) + 10
    assert len(passed) < len(battery) / 2


def test_signed_zero_points_are_evaluated_apart(monkeypatch):
    m = parse_map(_doc(1, [([(1, "le", -0.0)], [[["x", "x"]]]),
                           ([(1, "gt", -0.0)], [[["x", "x"]]])]))
    counts = _counted(monkeypatch, m, "_circulation_gap")
    assert not find_monotonicity_violation(m, 5.0, 1, 1).failed
    zeros = [_bits(p) for p in counts["evals"] if p == (0.0,)]
    assert sorted(zeros) == sorted([_bits((0.0,)), _bits((-0.0,))])


def _watched_stores(monkeypatch, events):
    """The checks' image stores.  Each asserts that it keeps to the limit
    and appends to ``events`` the class of every image it gives."""
    stores = []

    class Watched(analyzer._ImageClasses):
        def __init__(self, m):
            super().__init__(m)
            stores.append(self)

        def image(self, p):
            entry = super().image(p)
            assert self.held <= analyzer.MAX_HELD_POINTS
            events.append(entry[1])
            return entry

    monkeypatch.setattr(analyzer, "_ImageClasses", Watched)
    return stores


def test_example4_store_keeps_one_image_a_class(monkeypatch):
    # the images on each half-axis are one class, as is the origin's
    stores = _watched_stores(monkeypatch, [])
    assert not check_wcm(builtin("example4", {"n": 8}), 5.0, 10, 7).failed
    store, = stores
    assert (len(store.images), len(store.points)) == (17, 161)
    # n = 8 coordinates a point key and a corner, two corners a box
    assert store.held == 8 * (161 + sum(2 * len(image) for image in store.images))
    # the whole CLI run at n = 10; a store that kept each battery point's
    # own image peaked at about 81 MB there
    code, err, peak_kb = measured_cli("check", "wcm", "--map", "example4", "--dim", "10",
                                      "--radius", "5", "--samples", "10", "--seed", "7",
                                      "--no-timestamp")
    assert (code, err) == (0, "")
    assert peak_kb <= 40 * 1024


@pytest.mark.parametrize("condition", sorted(CHECKS))
def test_a_full_store_keeps_the_report_and_the_limit(monkeypatch, condition):
    m = builtin("normgrad", {"n": 2})
    check = CHECKS[condition][0]
    expected = _bytes(check(m, 5.0, 20, 3))
    events = []  # each image's class, and "decide" for each decision
    _watched_stores(monkeypatch, events)
    decide = analyzer._decide
    monkeypatch.setattr(analyzer, "_decide",
                        lambda *args: events.append("decide") or decide(*args))
    # 2 coordinates a point key, 4 an image of one box and 16 the origin's
    # four: the store fills on the second axis
    monkeypatch.setattr(analyzer, "MAX_HELD_POINTS", 70)
    assert _bytes(check(m, 5.0, 20, 3)) == expected
    last = max(i for i, e in enumerate(events) if e != "decide")
    after = events[events.index(None):last + 1]  # the battery past the first point with no class
    images = len(after) - after.count("decide")
    # classes stored before still come back, and some of their pairs are skipped
    assert any(e not in (None, "decide") for e in after)
    assert after.count("decide") < images // 2 - 1
