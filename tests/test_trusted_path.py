"""The step loop, ``residual`` and the checkers on the trusted (lo, hi) path.

``euler_polygon``, ``residual`` and the wcm, monotone, cyclic and
growth checks call the maps' ``_eval`` and the selector core directly,
and a native builtin's function returns (lo, hi) pairs.  The references
in ``helpers`` are the original object path: public ``evaluate``, a
``SignPattern`` and a feasible ``CompactSet`` per step or pair, per-box
distances and norms, and ``normgrad`` building a validated set.  Nodes,
velocities, residuals, every field of a ``WcmInfeasible``, reports and
certificates must agree to the bit.  The closed-graph
check still calls ``evaluate``; its reference lists corners with its
own enumeration, which pins the order that ``setmap._corners`` gives
``vertices`` and ``Box.corners()``.
"""

import contextlib
import copy
import io
import json
import math
import struct
import warnings
from pathlib import Path

import pytest
from helpers import (
    LINEAR_MAPS,
    reference_check_growth,
    reference_check_wcm,
    reference_clip,
    reference_csv,
    reference_closed_graph,
    reference_cyclic,
    reference_distance,
    reference_feasible_region,
    reference_growth_points,
    reference_monotone,
    reference_normgrad,
    reference_polygon,
    reference_residual,
    reference_select_velocity,
    reference_sup_norm,
    reference_wcm_pair_feasible,
)
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_compiled_eval import maps
from test_sampled_checks import random_maps

from diffinc import analyzer, cli, selector, setmap, solver
from diffinc.analyzer import (
    check_closed_graph,
    check_growth,
    check_trajectory_monotone,
    check_wcm,
    check_wcm_pair,
    find_cyclic_violation,
    find_monotonicity_violation,
    residual,
)
from diffinc.mapdsl import load_map, parse_map
from diffinc.selector import (
    SelectionPolicy,
    SignPattern,
    WcmInfeasible,
    _clip,
    feasible_region,
    select_velocity,
)
from diffinc.setmap import (
    MAX_RADIUS,
    Box,
    CompactSet,
    Condition,
    Expr,
    MapDefinitionError,
    Piece,
    PiecewiseMap,
    _distance,
    builtin,
    checked_vector,
    distance,
)
from diffinc.solver import Trajectory, euler_polygon


ROOT = Path(__file__).resolve().parent.parent


def bits(v):
    return struct.pack("<d", v)


def vbits(vectors):
    return [tuple(map(bits, v)) for v in vectors]


def boxes_bits(s):
    return [(vbits([b.lo])[0], vbits([b.hi])[0]) for b in s.boxes]


def infeasible_fields(e):
    where = None if e.state is None else (vbits([e.state]), e.step, bits(e.time))
    return ("infeasible", vbits([e.prev_v]), e.signs.signs, boxes_bits(e.image),
            where, e.level)


def polygon_outcome(fn):
    """Bits of (nodes, velocities), every WcmInfeasible field, or the
    type and message of another error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            nodes, velocities = fn()
    except WcmInfeasible as e:
        return infeasible_fields(e)
    except ValueError as e:  # MapDefinitionError included
        return type(e), str(e)
    return "ok", vbits(nodes), vbits(velocities)


def solve(m, x0, horizon, n, policy, v0):
    traj = euler_polygon(m, x0, horizon, n, policy, v0, enforce_mesh=False)
    return traj.nodes, traj.velocities


policies = st.builds(SelectionPolicy, st.sampled_from(["project", "lex_min", "lex_max"]))
finite_coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -1.5, 2.0, 8.0, 1e300, 5e-324]),
    st.floats(min_value=-10.0, max_value=10.0),
)
horizons = st.one_of(st.sampled_from([1.0, 0.5, 3.0]), st.floats(0.01, 10.0))


def points(dim):
    return st.tuples(*[finite_coordinates] * dim)


BUILTINS = [
    builtin("example1"), builtin("example2_F"), builtin("example2_G"),
    builtin("example3"), builtin("example4", {"n": 1}),
    builtin("example4", {"n": 3}), builtin("antisign"),
    builtin("normgrad", {"n": 2, "k": 4}), builtin("normgrad", {"n": 3, "k": 5}),
]


@st.composite
def any_map(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(BUILTINS))
    return draw(maps(draw(st.integers(1, 3))))


@st.composite
def solve_cases(draw):
    m = draw(any_map())
    x0 = draw(points(m.dim))
    v0 = None
    if draw(st.integers(0, 3)) == 0:
        # an override, often one the image rejects
        v0 = draw(points(m.dim))
    return m, x0, draw(horizons), draw(st.integers(1, 12)), draw(policies), v0


@st.composite
def image_point(draw, image):
    """A point of the image: per coordinate of one of its boxes, the
    lower corner, the upper corner or the midpoint clamped into them."""
    box = draw(st.sampled_from(image.boxes))
    ends = draw(st.lists(st.integers(0, 2), min_size=image.dim, max_size=image.dim))
    return tuple(a if k == 0 else b if k == 1 else min(max(a / 2 + b / 2, a), b)
                 for a, b, k in zip(box.lo, box.hi, ends))


class TestExactSelection:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_solves_are_monotone_with_zero_node_residual(self, data):
        """Acceptance criterion 1 on random piecewise, product and union
        maps and the catalog maps: every polygon that a solve returns is
        monotone coordinate by coordinate, and every velocity lies in
        the image at its node."""
        m = data.draw(any_map())
        x0 = data.draw(points(m.dim))
        try:
            image = m.evaluate(x0)
        except ValueError:  # MapDefinitionError: F(x0) is not defined
            return
        v0 = data.draw(st.one_of(st.none(), image_point(image)))
        policy = data.draw(policies)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                traj = euler_polygon(m, x0, data.draw(horizons), data.draw(st.integers(1, 12)),
                                     policy, v0, enforce_mesh=False)
        except (ValueError, WcmInfeasible):
            return
        assert all(r.ok for r in check_trajectory_monotone(traj))
        node_residual = max(distance(m.evaluate(x), v)
                            for x, v in zip(traj.nodes, traj.velocities))
        assert bits(node_residual) == bits(0.0)


class TestStepLoop:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(solve_cases())
    def test_matches_object_path(self, case):
        m, x0, horizon, n, policy, v0 = case
        got = polygon_outcome(lambda: solve(m, x0, horizon, n, policy, v0))
        want = polygon_outcome(lambda: reference_polygon(m, x0, horizon, n, policy, v0))
        assert got == want

    @pytest.mark.parametrize("variant", ["project", "lex_min", "lex_max"])
    def test_infeasible_certificate_matches(self, variant):
        m = builtin("antisign")
        policy = SelectionPolicy(variant)
        got = polygon_outcome(lambda: solve(m, (1.0,), 2.0, 32, policy, (-1.0,)))
        want = polygon_outcome(lambda: reference_polygon(m, (1.0,), 2.0, 32, policy, (-1.0,)))
        assert got[0] == "infeasible"
        assert got == want

    @pytest.mark.parametrize("variant", ["project", "lex_min", "lex_max"])
    def test_long_builtin_solves_match(self, variant):
        policy = SelectionPolicy(variant)
        for m, x0 in ((builtin("example2_F"), (1.0,)), (builtin("example3"), (-1.0, 0.5)),
                      (builtin("example4", {"n": 3}), (-1.0, 0.5, 0.0))):
            got = polygon_outcome(lambda: solve(m, x0, 1.0, 400, policy, None))
            want = polygon_outcome(lambda: reference_polygon(m, x0, 1.0, 400, policy, None))
            assert got[0] == "ok"
            assert got == want


class TestSignedZeroCuts:
    """A cut that tightens a box lands on ``prev_v_j`` itself, a zero's
    sign included; a corner equal to ``prev_v_j`` is kept, as in
    ``max(lo, prev_v_j)`` and ``min(hi, prev_v_j)``, in that argument
    order."""

    @pytest.mark.parametrize("lo, hi, prev, sign, bound", [
        (-1.0, 1.0, 0.0, 1, 0.0),
        (-1.0, 1.0, -0.0, 1, -0.0),
        (-1.0, 1.0, 0.0, -1, 0.0),
        (-1.0, 1.0, -0.0, -1, -0.0),
        (0.0, 1.0, -0.0, 1, 0.0),
        (-0.0, 1.0, 0.0, 1, -0.0),
        (-1.0, 0.0, -0.0, -1, 0.0),
        (-1.0, -0.0, 0.0, -1, -0.0),
    ])
    def test_cut_bound_bits(self, lo, hi, prev, sign, bound):
        image = CompactSet.of_intervals((lo, hi))
        signs = SignPattern((sign,))
        got = feasible_region(image, (prev,), signs)
        assert boxes_bits(got) == boxes_bits(reference_feasible_region(image, (prev,), signs))
        box = got.boxes[0]
        assert bits(box.lo[0] if sign > 0 else box.hi[0]) == bits(bound)


@st.composite
def box_union_cases(draw):
    dim = draw(st.integers(1, 3))
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        lo, hi = [], []
        for _ in range(dim):
            a, b = sorted((draw(finite_coordinates), draw(finite_coordinates)))
            lo.append(a)
            hi.append(b)
        boxes.append(Box(tuple(lo), tuple(hi)))
    prev_v = draw(points(dim))
    signs = SignPattern(tuple(draw(st.sampled_from([-1, 0, 1])) for _ in range(dim)))
    return CompactSet(tuple(boxes)), prev_v, signs, draw(policies)


@st.composite
def clip_cases(draw):
    """(lo, hi) pairs, a prev_v and signs for ``_clip``.  Corners are
    often zeros of either sign, and a prev_v coordinate is often a
    corner of a drawn box, or that corner's zero with the other sign,
    so cuts tie with a corner of the same value but other bits."""
    dim = draw(st.integers(1, 3))
    coords = st.one_of(st.sampled_from([0.0, -0.0]), finite_coordinates)
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        sides = [sorted((draw(coords), draw(coords))) for _ in range(dim)]
        pairs.append((tuple(a for a, _ in sides), tuple(b for _, b in sides)))
    prev_v = []
    for j in range(dim):
        kind = draw(st.sampled_from(["free", "corner", "other-zero"]))
        if kind == "free":
            prev_v.append(draw(coords))
            continue
        lo, hi = draw(st.sampled_from(pairs))
        c = draw(st.sampled_from([lo[j], hi[j]]))
        prev_v.append(-c if kind == "other-zero" and c == 0.0 else c)
    signs = tuple(draw(st.sampled_from([-1, 0, 1])) for _ in range(dim))
    return pairs, tuple(prev_v), signs


def pair_bits(pair):
    return tuple(vbits(pair))


class TestSelectorCore:
    @settings(max_examples=400, deadline=None)
    @given(clip_cases(), st.booleans())
    def test_clip_matches_list_copy_reference(self, case, first):
        pairs, prev_v, signs = case
        got = _clip(pairs, prev_v, signs, first)
        want = reference_clip(pairs, prev_v, signs, first)
        assert [pair_bits(p) for p in got[0]] == [pair_bits(p) for p in want[0]]
        assert got[1] == want[1]
        # a kept pair is the pair that came in exactly when no cut changed it
        cut = {k for k, _ in got[1]}
        kept_from = [k for k in range(len(pairs)) if k not in cut][:len(got[0])]
        for k, pair in zip(kept_from, got[0]):
            assert (pair is pairs[k]) == (pair_bits(pair) == pair_bits(pairs[k]))

    @settings(max_examples=400, deadline=None)
    @given(box_union_cases())
    def test_public_functions_match_object_path(self, case):
        image, prev_v, signs, policy = case
        got = feasible_region(image, prev_v, signs)
        want = reference_feasible_region(image, prev_v, signs)
        assert (got is None) == (want is None)
        if got is not None:
            assert boxes_bits(got) == boxes_bits(want)
        got = polygon_outcome(lambda: ([select_velocity(image, prev_v, signs, policy)], []))
        want = polygon_outcome(
            lambda: ([reference_select_velocity(image, prev_v, signs, policy)], []))
        assert got == want

    @settings(max_examples=400, deadline=None)
    @given(box_union_cases(), st.sampled_from([math.nan, math.inf, -math.inf, 3.0]))
    def test_distance_matches_per_box_minimum(self, case, odd):
        image, v, _, _ = case
        assert bits(distance(image, v)) == bits(reference_distance(image, v))
        # a non-finite coordinate: the first box's distance decides a NaN
        v = (odd,) + v[1:]
        assert bits(distance(image, v)) == bits(reference_distance(image, v))


    @settings(max_examples=400, deadline=None)
    @given(box_union_cases(), st.sampled_from([math.nan, math.inf, -math.inf, 3.0]),
           st.one_of(st.floats(min_value=0.0), st.just(math.nan)))
    def test_distance_stop_keeps_the_running_max(self, case, odd, stop):
        image, v, _, _ = case
        pairs = image._pairs()
        for p in (v, (odd,) + v[1:]):
            assert bits(max(stop, _distance(pairs, p, stop))) == \
                bits(max(stop, _distance(pairs, p)))


@st.composite
def trajectory_cases(draw):
    """A map and a trajectory of its dimension whose nodes and
    velocities are drawn freely, so node residuals need not be 0."""
    m = draw(any_map())
    steps = draw(st.integers(1, 6))
    horizon = draw(horizons)
    times = tuple((i / steps) * horizon for i in range(steps + 1))
    nodes = tuple(draw(points(m.dim)) for _ in range(steps + 1))
    velocities = tuple(draw(points(m.dim)) for _ in range(steps))
    return m, Trajectory(times, nodes, velocities)


def residual_outcome(fn):
    try:
        return "ok", tuple(map(bits, fn()))
    except ValueError as e:  # MapDefinitionError included
        return type(e), str(e)


class TestResidual:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trajectory_cases())
    def test_matches_object_path(self, case):
        m, traj = case
        assert residual_outcome(lambda: residual(traj, m)) == \
            residual_outcome(lambda: reference_residual(traj, m))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(solve_cases())
    def test_solved_trajectories_match(self, case):
        m, x0, horizon, n, policy, v0 = case
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                traj = euler_polygon(m, x0, horizon, n, policy, v0, enforce_mesh=False)
        except (ValueError, WcmInfeasible):
            return
        got = residual_outcome(lambda: residual(traj, m))
        assert got == residual_outcome(lambda: reference_residual(traj, m))
        if got[0] == "ok":
            assert got[1][0] == bits(0.0)

    @pytest.fixture
    def distance_calls(self, monkeypatch):
        """The velocities ``residual`` measures a distance for, in order."""
        calls = []

        def counted(pairs, v, stop=0.0):
            calls.append(v)
            return _distance(pairs, v, stop)

        monkeypatch.setattr(analyzer, "_distance", counted)
        return calls

    def test_repeated_images_skip_the_distance(self, distance_calls):
        """Within a step an image equal to the previous sample's is not
        measured again: on example1 that leaves the node's distance and
        one interior distance per step, plus one where the polygon
        crosses 0, rather than one per sample."""
        m = builtin("example1")
        traj = euler_polygon(m, (0.3,), 1.0, 64, SelectionPolicy("lex_min"), v0=(-1.0,))
        assert traj.nodes[0][0] > 0.0 > traj.nodes[-1][0]
        want = residual_outcome(lambda: reference_residual(traj, m))
        assert residual_outcome(lambda: residual(traj, m)) == want
        assert len(distance_calls) <= 2 * traj.steps

    def test_repeated_images_outside_the_velocity_keep_the_maximum(self, distance_calls):
        """A constant image with every velocity outside it: each step's
        four interior images are equal and at distance > 0, and the
        largest distance is neither the first nor the last step's."""
        box = ((Expr.const(0.0), Expr.const(1.0)), (Expr.const(-0.0), Expr.const(0.0)))
        m = PiecewiseMap(2, (Piece((), (box,)),))
        velocities = ((3.0, 0.5), (-4.0, 2.0), (1.0, -0.0), (2.5, 0.25))
        nodes = ((0.0, 0.0), (0.5, 1.0), (-1.0, 0.0), (2.0, 5.0), (0.0, 0.0))
        traj = Trajectory((0.0, 0.25, 0.5, 0.75, 1.0), nodes, velocities)
        got = residual(traj, m)
        assert tuple(map(bits, got)) == tuple(map(bits, reference_residual(traj, m)))
        assert got[1] == math.hypot(4.0, 2.0)
        # one node distance and one interior distance per step
        assert distance_calls == list(velocities) * 2

    def test_wrong_dimension_raises(self):
        traj = euler_polygon(builtin("example1"), (-0.5,), 1.0, 8)
        with pytest.raises(ValueError, match="dimension 1, map 'example3' has 2"):
            residual(traj, builtin("example3"))

    def test_ragged_velocity_raises(self):
        # where the trajectory is built, so residual never sees it
        with pytest.raises(ValueError, match="must share a dimension >= 1"):
            Trajectory((0.0, 0.5, 1.0), ((0.0, 0.0), (0.1, 0.1), (0.2, 0.2)),
                       ((1.0, 1.0), (1.0,)))


FILE_MAPS = [load_map(str(p)) for p in sorted((ROOT / "maps").glob("*.json"))]


def pairs_bits_outcome(fn, x):
    try:
        return "ok", [(vbits([lo])[0], vbits([hi])[0]) for lo, hi in fn(x)]
    except ValueError as e:  # MapDefinitionError, ImageTooLarge
        return type(e), str(e)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_eval_is_pure(data):
    """The fixed-point rule rests on this: two ``_eval`` calls at one
    point give the same (lo, hi) pairs, bit for bit, or the same error,
    on the catalog maps, the map files and drawn piecewise, product and
    union maps, at points with zeros of either sign."""
    m = data.draw(st.one_of(any_map(), st.sampled_from(FILE_MAPS)))
    x = data.draw(points(m.dim))
    assert pairs_bits_outcome(m._eval, x) == pairs_bits_outcome(m._eval, x)


@st.composite
def fixed_point_cases(draw):
    """Solves that tend to settle: example1 (0 lies in every image),
    starts at zeros of either sign and at +-1e17, where a step of the
    velocity is absorbed by the node, zero initial velocities and up to
    300 steps."""
    m = draw(st.one_of(st.just(builtin("example1")), any_map()))
    coordinate = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e17, -1e17]),
                           finite_coordinates)
    x0 = draw(st.tuples(*[coordinate] * m.dim))
    v0 = draw(st.sampled_from([None, (0.0,) * m.dim, (-0.0,) * m.dim, draw(points(m.dim))]))
    return m, x0, draw(horizons), draw(st.integers(1, 300)), draw(policies), v0


@st.composite
def repeating_trajectory_cases(draw):
    """A map and a trajectory whose steps come in runs of one node and
    velocity, or of the same with its zeros negated, over spans that are
    equal, one ulp apart or twice as long."""
    m = draw(any_map())
    states = []
    for _ in range(draw(st.integers(1, 3))):
        x, v = draw(points(m.dim)), draw(points(m.dim))
        states.append((x, v))
        states.append((tuple(-c if c == 0.0 else c for c in x), v))
        states.append((x, tuple(-c if c == 0.0 else c for c in v)))
    steps = draw(st.lists(st.sampled_from(states), min_size=1, max_size=10))
    spans = draw(st.lists(st.sampled_from([0.25, math.nextafter(0.25, 1.0), 0.5]),
                          min_size=len(steps), max_size=len(steps)))
    times = [0.0]
    for span in spans:
        times.append(times[-1] + span)
    nodes = [x for x, _ in steps] + [draw(st.sampled_from(states))[0]]
    return m, Trajectory(times, nodes, [v for _, v in steps])


@pytest.fixture
def eval_calls(monkeypatch):
    """``count(m)``: a list that grows by one at each ``_eval`` call on m."""
    def count(m):
        calls = []
        inner = m._eval

        def counted(x):
            calls.append(x)
            return inner(x)

        monkeypatch.setattr(m, "_eval", counted)
        return calls
    return count


class TestFixedPoint:
    """A step that gives back its own node and velocity, bit for bit, is
    repeated by every later step; the solver fills those in, and
    ``residual`` and the CSV writer handle each run of them once."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fixed_point_cases())
    @example((builtin("example1"), (-0.0,), 1.0, 40, SelectionPolicy("project"), None))
    @example((builtin("example1"), (1e17,), 1.0, 40, SelectionPolicy("lex_max"), None))
    def test_polygon_matches_the_step_loop(self, case):
        m, x0, horizon, n, policy, v0 = case
        got = polygon_outcome(lambda: solve(m, x0, horizon, n, policy, v0))
        want = polygon_outcome(lambda: reference_polygon(m, x0, horizon, n, policy, v0))
        assert got == want

    @pytest.mark.parametrize("x0, variant, settles", [
        ((0.5,), "project", 1),     # v = 0 from the start
        ((-0.7,), "lex_max", 1),    # [-1, 0] left of 0: lex-max picks 0
        ((-0.0,), "project", 2),    # the first step turns the node into +0.0
        ((1e17,), "lex_max", 1),    # v = 1, and 1e17 + h absorbs h
    ])
    def test_a_settled_polygon_stops_stepping(self, eval_calls, x0, variant, settles):
        m = builtin("example1")
        policy = SelectionPolicy(variant)
        calls = eval_calls(m)
        got = polygon_outcome(lambda: solve(m, x0, 1.0, 500, policy, None))
        # the initial image, then the steps up to the repeating one
        assert len(calls) == 1 + settles
        want = polygon_outcome(lambda: reference_polygon(m, x0, 1.0, 500, policy, None))
        assert got == want

    def test_signed_zero_steps_are_not_repeats(self, eval_calls):
        """-0.0 == 0.0, but a step is a repeat only bit for bit: from
        -0.0 a step by h*(-0.0) stays at -0.0 and one by h*(+0.0) lands
        on +0.0, and the CSV prints the two apart."""
        m = PiecewiseMap(1, (Piece((), (((Expr.const(-1.0), Expr.const(0.0)),),)),))
        calls = eval_calls(m)
        policy = SelectionPolicy("lex_max")
        got = polygon_outcome(lambda: solve(m, (-0.0,), 1.0, 8, policy, (-0.0,)))
        assert got == ("ok", vbits([(-0.0,)] * 2 + [(0.0,)] * 7),
                       vbits([(-0.0,)] + [(0.0,)] * 7))
        assert len(calls) == 4  # the initial image and three steps
        assert got == polygon_outcome(
            lambda: reference_polygon(m, (-0.0,), 1.0, 8, policy, (-0.0,)))

        def fn(x):  # [0, 1] at -0.0 and left of it, [0, 0] from +0.0 on
            return [((0.0,), (1.0 if math.copysign(1.0, x[0]) < 0 else 0.0,))]
        m = setmap.NativeMap(1, fn, "signed", {})
        traj = Trajectory((0.0, 0.5, 1.0), ((-0.0,), (0.0,), (0.0,)), ((1.0,), (1.0,)))
        assert residual(traj, m) == (1.0, 1.0)
        assert residual(traj, m) == reference_residual(traj, m)

    def test_eval_counts(self, eval_calls):
        """The settled example1 solve of the refine workload's slow tail
        evaluates the map twice in the solve and five times in
        ``residual``, where it used to take 4,500 and 22,500 calls; a
        moving polygon keeps one evaluation a node and five a step."""
        m = builtin("example1")
        calls = eval_calls(m)
        traj = euler_polygon(m, (0.5,), 1.0, 4500, SelectionPolicy("project"))
        assert len(calls) <= 2
        del calls[:]
        assert residual(traj, m) == (0.0, 0.0)
        assert len(calls) <= 10
        del calls[:]
        again = solver.trajectory_from_csv(solver.trajectory_to_csv(traj))
        assert residual(again, m) == (0.0, 0.0)
        assert len(calls) <= 10  # a read-back shares its repeated rows too
        n = 1000
        m = builtin("example2_F")
        calls = eval_calls(m)
        traj = euler_polygon(m, (1.0,), 1.0, n, SelectionPolicy("lex_max"))
        assert traj.terminal[0] > 2.0
        assert len(calls) == n  # the initial image and n - 1 steps
        del calls[:]
        residual(traj, m)
        assert len(calls) == 5 * n

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fixed_point_cases())
    def test_residual_of_solved_and_read_back_trajectories(self, case):
        m, x0, horizon, n, policy, v0 = case
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                traj = euler_polygon(m, x0, horizon, n, policy, v0, enforce_mesh=False)
        except (ValueError, WcmInfeasible):
            return
        want = residual_outcome(lambda: reference_residual(traj, m))
        assert residual_outcome(lambda: residual(traj, m)) == want
        text = solver.trajectory_to_csv(traj)
        assert text == reference_csv(traj)
        again = solver.trajectory_from_csv(text)
        assert not {id(p) for p in again.nodes} & {id(p) for p in traj.nodes}
        assert residual_outcome(lambda: residual(again, m)) == want

    def test_a_trajectory_shares_the_tuples_of_repeated_steps(self):
        """Steps that repeat bit for bit get one tuple, which is how
        ``residual`` and the CSV writer tell them; zero-sign twins do
        not, and a velocity is shared only where its node is too."""
        traj = Trajectory([0.0, 0.5, 1.0, 1.5], ([0.0], [0.0], [-0.0], (-0.0,)),
                          ([1.0], (1.0,), [1.0]))
        a, b, c, d = traj.nodes
        assert a is b and b is not c and c is d and b == c
        u, v, w = traj.velocities
        assert u is v and v is not w and v == w

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(repeating_trajectory_cases())
    def test_residual_and_csv_of_repeating_steps(self, case):
        m, traj = case
        assert residual_outcome(lambda: residual(traj, m)) == \
            residual_outcome(lambda: reference_residual(traj, m))
        assert solver.trajectory_to_csv(traj) == reference_csv(traj)

    def test_csv_rows_keep_their_zero_signs(self):
        traj = Trajectory((0.0, 0.5, 1.0), ((-0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
                          ((0.0, -0.0), (0.0, 0.0)))
        text = solver.trajectory_to_csv(traj)
        assert text == reference_csv(traj) == (
            "t,x_1,x_2,v_1,v_2\n0,-0,1,0,-0\n0.5,0,1,0,0\n1,0,1,0,0\n")

    def test_a_repeated_step_over_a_longer_span_is_sampled(self, eval_calls):
        """The samples ``x + dt*v`` of a repeated step depend on its span
        unless v = 0: here only the longer second span reaches x > 1."""
        m = PiecewiseMap(1, (Piece((Condition(0, "le", 1.0),),
                                   (((Expr.const(1.0), Expr.const(1.0)),),)),
                             Piece((Condition(0, "ge", 1.0),),
                                   (((Expr.const(5.0), Expr.const(5.0)),),))))
        moving = Trajectory((0.0, 1.0, 3.0), ((0.0,), (0.0,), (0.0,)), ((1.0,), (1.0,)))
        got = residual(moving, m)
        assert got == (0.0, 4.0)
        assert got == reference_residual(moving, m)
        resting = Trajectory((0.0, 1.0, 3.0), ((1.5,), (1.5,), (1.5,)), ((0.0,), (0.0,)))
        calls = eval_calls(m)
        got = residual(resting, m)
        # one node image and four samples: the second step repeats the first
        assert len(calls) == 5
        assert got == reference_residual(resting, m) == (5.0, 5.0)


@pytest.fixture
def checked_vector_calls(monkeypatch):
    """A counter of ``setmap.checked_vector`` calls from every module that
    imports it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return checked_vector(*args)

    for module in (setmap, selector, analyzer, solver):
        if hasattr(module, "checked_vector"):
            monkeypatch.setattr(module, "checked_vector", counted)
    return calls


class TestValidatedOnce:
    """A vector is checked where it enters, never once per step."""

    def count(self, calls, argv):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        return len(calls)

    def test_solve_checks_as_often_at_any_n(self, checked_vector_calls):
        argv = ["solve", "--map", "example1", "--x0", "0.1", "--T", "1", "--N"]
        assert self.count(checked_vector_calls, [*argv, "100"]) == \
            self.count(checked_vector_calls, [*argv, "1000"]) == 2

    def test_converge_checks_as_often_at_any_n0(self, checked_vector_calls):
        argv = ["converge", "--map", "example1", "--x0", "0.1", "--T", "1", "--levels", "3",
                "--N0"]
        assert self.count(checked_vector_calls, [*argv, "100"]) == \
            self.count(checked_vector_calls, [*argv, "400"]) == 6


# ---------------------------------------------------------------------------
# Checkers and native builtins
# ---------------------------------------------------------------------------


def json_outcome(fn):
    """JSON of a report or certificate (so -0.0 stays distinct from 0.0),
    or the type and message of an error."""
    try:
        result = fn()
    except ValueError as e:  # MapDefinitionError included
        return type(e), str(e)
    if hasattr(result, "to_json_dict"):
        result = result.to_json_dict()
    return json.dumps(result)


check_budgets = st.tuples(
    st.sampled_from([0.5, 1.0, 3.0, 1e300]),  # radius
    st.integers(1, 8),                         # count
    st.integers(0, 2 ** 32),                   # seed
)


# catalog maps, compiled piecewise/product/union maps and native maps
every_kind = st.one_of(any_map(), random_maps())

# n >= 5: at MAX_RADIUS a point's hypot can overflow, so that B * |x| is
# inf, or NaN where B = 0
WIDE = [builtin("example4", {"n": 5}), builtin("normgrad", {"n": 6, "k": 3})]
growth_constants = st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e3, 1e300])
growth_budgets = st.tuples(
    st.sampled_from([0.5, 3.0, 1e300, MAX_RADIUS, 1e-310]),  # radius
    st.integers(1, 8),                                       # count
    st.integers(0, 2 ** 32),                                 # seed
)


@st.composite
def declared_maps(draw):
    """A copy of a map that declares growth constants: a catalog map's
    own, which hold, or drawn ones, which may be understated."""
    m = copy.copy(draw(st.one_of(every_kind, st.sampled_from(WIDE))))
    if m.growth is None or draw(st.booleans()):
        m.growth = (draw(growth_constants), draw(growth_constants))
    return m


class TestCheckersOnPairs:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(every_kind, check_budgets)
    def test_check_wcm_matches_object_path(self, m, budget):
        assert json_outcome(lambda: check_wcm(m, *budget)) == \
            json_outcome(lambda: reference_check_wcm(m, *budget))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(every_kind, check_budgets)
    def test_monotone_matches_vertex_enumeration(self, m, budget):
        assert json_outcome(lambda: find_monotonicity_violation(m, *budget)) == \
            json_outcome(lambda: reference_monotone(m, *budget))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(every_kind, check_budgets, st.integers(2, 4))
    def test_cyclic_matches_vertex_enumeration(self, m, budget, cycle_len):
        radius, count, seed = budget
        assert json_outcome(lambda: find_cyclic_violation(m, radius, cycle_len, count, seed)) \
            == json_outcome(lambda: reference_cyclic(m, radius, cycle_len, count, seed))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_check_wcm_pair_matches_object_path(self, data):
        m = data.draw(every_kind)
        x, y = data.draw(points(m.dim)), data.draw(points(m.dim))
        if data.draw(st.booleans()):
            y = tuple(a if data.draw(st.booleans()) else b for a, b in zip(x, y))
        assert json_outcome(lambda: check_wcm_pair(m, x, y)) == json_outcome(
            lambda: reference_wcm_pair_feasible(m.evaluate(x), m.evaluate(y), x, y))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(every_kind, check_budgets)
    def test_check_growth_matches_object_path(self, m, budget):
        assert json_outcome(lambda: check_growth(m, *budget)) == \
            json_outcome(lambda: reference_check_growth(m, *budget))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(declared_maps(), growth_budgets)
    def test_check_growth_keeps_the_declared_violation_verdict(self, m, budget):
        """The verdict is the original fit's: ``fail`` exactly when its
        ``declared_violation`` is > 0.  A pass takes every point, a fail
        stops at the first point with a positive excess, and its
        certificate replays on public code alone."""
        outcome = json_outcome(lambda: check_growth(m, *budget))
        assert outcome == json_outcome(lambda: reference_check_growth(m, *budget))
        if not isinstance(outcome, str):
            return  # both raised the same error
        report = json.loads(outcome)
        points = reference_growth_points(m, *budget)
        a, b = m.growth
        taken = points[:report["samples"]]
        norms = [reference_sup_norm(m.evaluate(p)) for p in taken]
        excess = [g - (a + b * math.hypot(*p)) for p, g in zip(taken, norms)]
        data = sorted(zip([math.hypot(*p) for p in taken], norms))
        violation = max(0.0, max(g - (a + b * r) for r, g in data))
        assert (report["verdict"] == "fail") == (violation > 0)
        if violation > 0:
            assert report["samples"] == next(i for i, e in enumerate(excess, 1) if e > 0)
            cert = report["certificate"]
            x, v = tuple(cert["x"]), tuple(cert["v"])
            assert x == taken[-1] and m.evaluate(x).contains(v)
            assert math.hypot(*v) == cert["norm"] > cert["bound"] == a + b * math.hypot(*x)
        else:
            assert report["samples"] == len(points)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(every_kind, st.integers(1, 3).flatmap(maps)), check_budgets,
           st.sampled_from([1e-2, 0.5, 1e-300]))
    # the command line's defaults at seed 1
    @example(parse_map(LINEAR_MAPS["linear_1e4"]), (5.0, 128, 1), 1e-2)
    @example(parse_map(LINEAR_MAPS["linear_1e8"]), (5.0, 128, 1), 1e-2)
    def test_closed_graph_matches_object_path(self, m, budget, eps):
        assert json_outcome(lambda: check_closed_graph(m, *budget, eps)) == \
            json_outcome(lambda: reference_closed_graph(m, *budget, eps))

    def test_closed_graph_fails_only_where_every_scale_exceeds_eps(self):
        # {1e4*x} moves 0.1 at the first scale and 1e-3 at the second
        passing = check_closed_graph(parse_map(LINEAR_MAPS["linear_1e4"]), 5.0, 128, 1, 1e-2)
        assert (passing.verdict, passing.samples) == ("pass-sampled", 129)
        failing = check_closed_graph(parse_map(LINEAR_MAPS["linear_1e8"]), 5.0, 128, 1, 1e-2)
        assert (failing.verdict, failing.samples) == ("fail", 1)
        assert failing.certificate["distances"] == [1000.0000000000001, 10.0]

    def test_closed_graph_skips_the_scales_after_a_clearing_one(self):
        # the image has lo > hi on (0, 1e-6), which only the second scale
        # reaches; the first scale clears every direction at every point
        m = PiecewiseMap(1, (
            Piece((), (((Expr.const(0.0), Expr.const(0.0)),),)),
            Piece((Condition(0, "gt", 0.0), Condition(0, "lt", 1e-6)),
                  (((Expr.const(1.0), Expr.const(0.0)),),)),
        ))
        with pytest.raises(MapDefinitionError):
            m.evaluate((1e-7,))
        report = check_closed_graph(m, 5.0, 8, 1, 1e-2)
        # the origin, the bounds 0 and 1e-6, then the 8 random points
        assert (report.verdict, report.samples) == ("pass-sampled", 11)

    def test_int_radius_draws_float_points(self):
        # antisign fails at the battery pair (-radius, 0.25), as it did
        # when every point went through the public evaluate
        report = check_wcm(builtin("antisign"), 3, 20, 5)
        assert json.dumps(report.certificate["x"]) == "[-3.0]"
        assert report.to_json_dict()["radius"] == 3


@st.composite
def normgrad_cases(draw):
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, 7))
    zeros = st.sampled_from([0.0, -0.0])
    odd = st.sampled_from([math.inf, -math.inf, math.nan, 1.7976931348623157e308, 5e-324])
    x = draw(st.one_of(
        st.tuples(*[zeros] * n),  # the origin, with either zero
        points(n),
        st.tuples(*[st.one_of(finite_coordinates, odd)] * n),
    ))
    return n, k, x


def pairs_outcome(fn):
    try:
        return "ok", [(vbits([lo]), vbits([hi])) for lo, hi in fn()]
    except ValueError as e:  # MapDefinitionError included
        return type(e), str(e)


@settings(max_examples=500, deadline=None)
@given(normgrad_cases())
def test_normgrad_pairs_match_the_validated_set(case):
    n, k, x = case
    got = pairs_outcome(lambda: builtin("normgrad", {"n": n, "k": k})._eval(x))
    want = pairs_outcome(lambda: [(b.lo, b.hi) for b in reference_normgrad(n, k)(x).boxes])
    assert got == want
