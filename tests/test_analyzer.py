"""Condition checkers: exactness, certificates, verdict reproduction."""

import json
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from helpers import (
    random_monotone_map,
    reference_check_trajectory_monotone,
    reference_wcm_pair_feasible,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sampled_checks import box_unions, edge_floats

from diffinc.analyzer import (
    check_closed_graph,
    check_growth,
    check_trajectory_monotone,
    check_wcm,
    check_wcm_pair,
    estimate_growth,
    find_cyclic_violation,
    find_monotonicity_violation,
    residual,
    wcm_pair_feasible,
)
from diffinc.selector import SelectionPolicy, SignPattern, feasible_region
from diffinc.setmap import (
    Box,
    CompactSet,
    Condition,
    Expr,
    Piece,
    PiecewiseMap,
    builtin,
    distance,
    union,
    vertices,
)
from diffinc.solver import Trajectory, euler_polygon


def constant_map(value, dim=1):
    box = tuple((Expr.const(value), Expr.const(value)) for _ in range(dim))
    return PiecewiseMap(dim, (Piece((), (box,)),), growth=(abs(value) * dim + 1, 0.0))


def random_set(rng, dim, max_boxes=3):
    boxes = []
    for _ in range(rng.randint(1, max_boxes)):
        lo = tuple(rng.uniform(-3, 3) for _ in range(dim))
        width = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 2.0)
        hi = tuple(a + width * rng.random() for a in lo)
        boxes.append(Box(lo, hi))
    return CompactSet(tuple(boxes))


def brute_force_wcm(image_x, image_y, x, y, per_coord=20):
    """Grid oracle: sample v densely (endpoints included) and test each."""
    sigma = [(a > b) - (a < b) for a, b in zip(x, y)]
    for box in image_x.boxes:
        axes = []
        for lo, hi in zip(box.lo, box.hi):
            if lo == hi:
                axes.append([lo])
            else:
                axes.append([lo + (hi - lo) * k / (per_coord - 1)
                             for k in range(per_coord)])
        pts = [()]
        for axis in axes:
            pts = [p + (c,) for p in pts for c in axis]
        for v in pts:
            ok = False
            for ybox in image_y.boxes:
                fits = True
                for j, s in enumerate(sigma):
                    if s > 0 and ybox.lo[j] > v[j]:
                        fits = False
                        break
                    if s < 0 and ybox.hi[j] < v[j]:
                        fits = False
                        break
                if fits:
                    ok = True
                    break
            if not ok:
                return False
    return True


class TestWcmPair:
    def test_example1_hardest_corner_passes(self):
        assert check_wcm_pair(builtin("example1"), (-1.0,), (1.0,)) is None

    def test_normgrad_fixed_pair_fails(self):
        m = builtin("normgrad", {"n": 2, "k": 4})
        cert = check_wcm_pair(m, (1.0, 3.0), (0.9, 0.0))
        assert cert is not None
        v = tuple(cert["v"])
        assert v == pytest.approx((1 / math.sqrt(10), 3 / math.sqrt(10)), abs=1e-12)
        # the inequality itself: coordinate 1 has (x1-y1)(v1-w1) < 0
        w = (1.0, 0.0)
        assert (1.0 - 0.9) * (v[0] - w[0]) < 0

    def test_diagonal_pair_trivially_passes(self):
        for name in ("example1", "example2_G", "antisign"):
            m = builtin(name)
            assert check_wcm_pair(m, (0.7,), (0.7,)) is None

    def test_certificate_replays(self):
        m = builtin("normgrad", {"n": 2, "k": 4})
        cert = check_wcm_pair(m, (1.0, 3.0), (0.9, 0.0))
        x, y, v = tuple(cert["x"]), tuple(cert["y"]), tuple(cert["v"])
        assert distance(m.evaluate(x), v) == 0.0
        sigma = SignPattern.of_vector(tuple(a - b for a, b in zip(x, y)))
        flipped = SignPattern(tuple(-s for s in sigma))
        assert feasible_region(m.evaluate(y), v, flipped) is None

    def test_witness_stays_in_the_image_where_the_midpoint_sum_overflows(self):
        """sigma_1 = 0, so v*_1 is the midpoint of the side [1.7e308,
        1.7e308], whose lo + hi overflows: v* is still a point of F(x)."""
        def huge(second):
            return ((Expr.const(1.7e308), Expr.const(1.7e308)),
                    (Expr.const(second), Expr.const(second)))
        m = PiecewiseMap(2, (
            Piece((Condition(1, "gt", 0.0),), (huge(1.0),)),
            Piece((Condition(1, "le", 0.0),), (huge(2.0),)),
        ))
        cert = check_wcm_pair(m, (0.0, -5.0), (0.0, 0.25))
        assert cert["signs"] == [0, -1]
        assert cert["v"] == [1.7e308, 2.0]
        assert distance(m.evaluate(tuple(cert["x"])), tuple(cert["v"])) == 0.0
        # a side 2**1023 apart from its other end: the halves are added
        image = CompactSet((Box((2.0 ** 1023, 0.0), (1.5 * 2.0 ** 1023, 0.0)),))
        cert = wcm_pair_feasible(image, CompactSet.of_points((0.0, -1.0)),
                                 (1.0, -1.0), (1.0, 0.0))
        assert cert["v"] == [1.25 * 2.0 ** 1023, 0.0]

    def test_agrees_with_grid_oracle(self):
        rng = random.Random(41)
        for _ in range(250):
            dim = rng.randint(1, 3)
            image_x = random_set(rng, dim)
            image_y = random_set(rng, dim)
            x = tuple(rng.uniform(-3, 3) for _ in range(dim))
            y = tuple(x[j] if rng.random() < 0.2 else rng.uniform(-3, 3)
                      for j in range(dim))
            mine = wcm_pair_feasible(image_x, image_y, x, y) is None
            assert mine == brute_force_wcm(image_x, image_y, x, y)


@st.composite
def wcm_pairs(draw):
    """Two box unions of one dimension and a pair of points whose
    coordinates often coincide, so sigma has zeros."""
    dim = draw(st.integers(1, 3))
    x = tuple(draw(edge_floats) for _ in range(dim))
    y = tuple(a if draw(st.booleans()) else draw(edge_floats) for a in x)
    return draw(box_unions(dim)), draw(box_unions(dim)), x, y


class TestHardestCornerSharesTheCut:
    """The blocking coordinates come from the selector's cut; the
    reference scans the y-boxes on its own, as the decision once did."""

    @settings(max_examples=400, deadline=None)
    @given(wcm_pairs())
    def test_certificate_bytes_match_reference(self, case):
        mine = wcm_pair_feasible(*case)
        assert json.dumps(mine) == json.dumps(reference_wcm_pair_feasible(*case))
        if mine is not None:
            # the witness is a finite point of image_x
            assert all(map(math.isfinite, mine["v"]))
            assert distance(case[0], tuple(mine["v"])) == 0.0

    def test_every_blocked_box_is_listed(self):
        image_y = CompactSet((Box((2.0, -1.0), (3.0, 0.0)), Box((-1.0, -6.0), (0.0, -5.0))))
        cert = wcm_pair_feasible(CompactSet.of_points((0.0, 0.0)), image_y,
                                 (1.0, -1.0), (0.0, 0.0))
        assert cert["blocking"] == [
            {"box": 0, "coordinate": 1, "needs": "<=", "bound": 0.0, "available": [2.0, 3.0]},
            {"box": 1, "coordinate": 2, "needs": ">=", "bound": 0.0, "available": [-6.0, -5.0]},
        ]

    def test_dimension_mismatch_is_a_value_error(self):
        image = CompactSet.of_points((0.0, 0.0))
        with pytest.raises(ValueError, match="dimension mismatch"):
            wcm_pair_feasible(image, CompactSet.of_points((0.0,)), (1.0, 0.0), (0.0, 0.0))
        with pytest.raises(ValueError, match="dimension mismatch"):
            wcm_pair_feasible(image, image, (1.0,), (0.0, 0.0))


class TestCheckWcm:
    def test_verdicts_on_catalog(self):
        assert not check_wcm(builtin("example1"), 10.0, 500, 7).failed
        assert not check_wcm(builtin("example3"), 10.0, 300, 7).failed
        report = check_wcm(builtin("normgrad", {"n": 2, "k": 4}), 5.0, 2000, 42)
        assert report.failed
        assert report.samples <= 2000 + 5000  # short-circuited

    def test_antisign_fails_wcm(self):
        report = check_wcm(builtin("antisign"), 5.0, 200, 3)
        assert report.failed
        cert = report.certificate
        x, y, v = tuple(cert["x"]), tuple(cert["y"]), tuple(cert["v"])
        m = builtin("antisign")
        assert distance(m.evaluate(x), v) == 0.0
        sigma = SignPattern.of_vector(tuple(a - b for a, b in zip(x, y)))
        flipped = SignPattern(tuple(-s for s in sigma))
        assert feasible_region(m.evaluate(y), v, flipped) is None

    def test_determinism(self):
        a = check_wcm(builtin("normgrad", {"n": 2, "k": 4}), 5.0, 500, 42)
        b = check_wcm(builtin("normgrad", {"n": 2, "k": 4}), 5.0, 500, 42)
        assert a == b

    def test_input_validation(self):
        with pytest.raises(ValueError):
            check_wcm(builtin("example1"), 0.0, 10, 1)
        with pytest.raises(ValueError):
            check_wcm(builtin("example1"), 1.0, 0, 1)


class TestMonotone:
    def test_example1_hand_certificate(self):
        m = builtin("example1")
        # v = 0 in F(-1), w = -1 in F(0): <x-y, v-w> = (-1)(1) = -1
        assert distance(m.evaluate((-1.0,)), (0.0,)) == 0.0
        assert distance(m.evaluate((0.0,)), (-1.0,)) == 0.0
        assert (-1.0 - 0.0) * (0.0 - (-1.0)) == -1.0
        report = find_monotonicity_violation(m, 5.0, 500, 7)
        assert report.failed

    def test_catalog_failures_and_replay(self):
        for name, params in [("example2_F", None), ("example2_G", None),
                             ("example3", None), ("example4", {"n": 2})]:
            m = builtin(name, dict(params) if params else None)
            report = find_monotonicity_violation(m, 5.0, 2000, 7)
            assert report.failed, name
            cert = report.certificate
            x, y = tuple(cert["x"]), tuple(cert["y"])
            v, w = tuple(cert["v"]), tuple(cert["w"])
            assert distance(m.evaluate(x), v) == 0.0
            assert distance(m.evaluate(y), w) == 0.0
            value = sum(
                (Fraction(a) - Fraction(b)) * (Fraction(c) - Fraction(d))
                for a, b, c, d in zip(x, y, v, w)
            )
            assert value < 0
            assert float(value) == cert["value"]

    def test_normgrad_is_monotone(self):
        report = find_monotonicity_violation(
            builtin("normgrad", {"n": 2, "k": 4}), 5.0, 2000, 7)
        assert not report.failed

    def test_constant_point_map_passes(self):
        report = find_monotonicity_violation(constant_map(3.0), 5.0, 500, 7)
        assert not report.failed

    def test_vertex_minimisation_matches_grid(self):
        rng = random.Random(43)
        for _ in range(120):
            dim = rng.randint(1, 2)
            sx = random_set(rng, dim, 2)
            sy = random_set(rng, dim, 2)
            d = tuple(rng.uniform(-2, 2) for _ in range(dim))
            vert = min(math.fsum(a * b for a, b in zip(d, v)) for v in vertices(sx)) \
             - max(math.fsum(a * b for a, b in zip(d, w)) for w in vertices(sy))
            # dense grid never beats the vertex extremes
            for box in sx.boxes:
                for k in range(50):
                    p = tuple(lo + (hi - lo) * rng.random()
                              for lo, hi in zip(box.lo, box.hi))
                    for ybox in sy.boxes:
                        q = tuple(lo + (hi - lo) * rng.random()
                                  for lo, hi in zip(ybox.lo, ybox.hi))
                        val = math.fsum(a * (b - c) for a, b, c in zip(d, p, q))
                        assert val >= vert - 1e-9


class TestCyclic:
    def test_example1_fixed_cycle(self):
        m = builtin("example1")
        # cycle (-1, 0, -1): min over vertex choices is -1
        total = min(1.0 * v for v in (-1.0, 1.0)) + min(-1.0 * v for v in (-1.0, 0.0))
        assert total == -1.0
        report = find_cyclic_violation(m, 5.0, 2, 500, 7)
        assert report.failed

    def test_example4_violates_within_budget(self):
        report = find_cyclic_violation(builtin("example4", {"n": 1}), 5.0, 3, 2000, 7)
        assert report.failed
        cert = report.certificate
        cycle = [tuple(p) for p in cert["cycle"]]
        vels = [tuple(v) for v in cert["velocities"]]
        m = builtin("example4", {"n": 1})
        total = Fraction(0)
        for i in range(1, len(cycle)):
            assert distance(m.evaluate(cycle[i]), vels[i - 1]) == 0.0
            total += sum(
                (Fraction(a) - Fraction(b)) * Fraction(c)
                for a, b, c in zip(cycle[i], cycle[i - 1], vels[i - 1]))
        assert total < 0
        assert float(total) == cert["value"]

    def test_constant_map_telescopes_to_zero(self):
        report = find_cyclic_violation(constant_map(2.5), 5.0, 4, 500, 7)
        assert not report.failed

    def test_cycle_length_validation(self):
        with pytest.raises(ValueError):
            find_cyclic_violation(builtin("example1"), 5.0, 1, 10, 7)


class TestGrowth:
    def test_example1_exact_fit(self):
        fit = estimate_growth(builtin("example1"), 10.0, 200, 7)
        assert fit.b == 0.0
        assert fit.a == 1.0
        assert fit.declared_violation == 0.0

    def test_example2_declared_constants_hold(self):
        fit = estimate_growth(builtin("example2_F"), 10.0, 400, 7)
        assert fit.declared_violation == 0.0

    def test_zero_map(self):
        m = constant_map(0.0)
        fit = estimate_growth(m, 5.0, 100, 7)
        assert (fit.a, fit.b) == (0.0, 0.0)

    def test_report_pass_and_fail(self):
        report = check_growth(builtin("example1"), 10.0, 200, 7)
        fit = estimate_growth(builtin("example1"), 10.0, 200, 7)
        assert (report.condition, report.verdict, report.samples) == \
            ("growth", "pass-sampled", fit.samples)
        assert report.extra == {"fit": {"a": fit.a, "b": fit.b},
                                "declared": [1.0, 0.0], "declared_violation": 0.0}
        # declares growth (0, 0) but its image is the point 2
        understated = PiecewiseMap(1, (Piece((), (((Expr.const(2.0),) * 2,),)),),
                                   growth=(0.0, 0.0))
        report = check_growth(understated, 5.0, 50, 3)
        assert report.failed and report.certificate is None
        assert report.extra["declared_violation"] == 2.0
        undeclared = check_growth(PiecewiseMap(1, constant_map(3.0).pieces), 5.0, 50, 3)
        assert undeclared.verdict == "pass-sampled"
        assert undeclared.extra["declared"] is None
        assert undeclared.extra["declared_violation"] is None

    def test_fit_majorizes_every_sample(self):
        rng = random.Random(44)
        for name in ("example2_G", "example3"):
            m = builtin(name)
            fit = estimate_growth(m, 6.0, 150, 9)
            from diffinc.setmap import sup_norm
            for _ in range(150):
                # same sampling distribution; the fit must cover fresh draws
                x = tuple(rng.uniform(-6, 6) for _ in range(m.dim))
                assert sup_norm(m.evaluate(x)) <= fit.a + fit.b * math.hypot(*x) + 1e-6


class TestClosedGraph:
    def test_example1_is_upper_semicontinuous(self):
        report = check_closed_graph(builtin("example1"), 5.0, 60, 7, 1e-2)
        assert not report.failed

    def test_open_region_encoding_is_caught(self):
        broken = PiecewiseMap(1, (
            Piece((Condition(0, "le", 0.0),),
                  (((Expr.const(-1.0), Expr.const(0.0)),),)),
            Piece((Condition(0, "gt", 0.0),),
                  (((Expr.const(-1.0), Expr.const(1.0)),),)),
        ), growth=(1.0, 0.0))
        report = check_closed_graph(broken, 5.0, 60, 7, 1e-2)
        assert report.failed
        cert = report.certificate
        assert cert["x"] == [0.0]
        assert min(cert["distances"]) > 1e-2
        # replay: the jumped vertex really is far from the boundary image
        vertex = tuple(cert["vertex"])
        assert distance(broken.evaluate((0.0,)), vertex) == pytest.approx(1.0)

    def test_constant_map_passes(self):
        report = check_closed_graph(constant_map(1.0), 5.0, 40, 7, 1e-2)
        assert not report.failed

    def test_cbrt_kink_is_tolerated(self):
        report = check_closed_graph(builtin("example2_F"), 5.0, 60, 7, 1e-2)
        assert not report.failed

    @pytest.mark.parametrize("name", ["example1", "example3", "normgrad"])
    def test_radius_is_drawn_as_a_float(self, name):
        # the points are drawn from the float that the budget check returns
        want = check_closed_graph(builtin(name), 5.0, 10, 1, 1e-2)
        got = check_closed_graph(builtin(name), Decimal(5), 10, 1, 1e-2)
        assert (got.verdict, got.samples, got.certificate) == \
            (want.verdict, want.samples, want.certificate)


TRAJECTORY_VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, math.inf, -math.inf, math.nan]) | st.floats()


class TestTrajectoryMonotone:
    def test_decreasing_pair(self):
        traj = euler_polygon(builtin("example4", {"n": 2}), (-1.0, -0.5), 1.0, 16,
                             v0=(-1.0, -1.0))
        reports = check_trajectory_monotone(traj)
        assert [r.classification for r in reports] == ["decreasing", "decreasing"]
        assert all(r.ok for r in reports)

    def test_strictly_increasing_velocities(self):
        traj = euler_polygon(builtin("example2_F"), (1.0,), 1.0, 50,
                             SelectionPolicy("lex_max"), v0=(1.0,))
        (rep,) = check_trajectory_monotone(traj)
        assert rep.classification == "increasing"
        vs = [v[0] for v in traj.velocities]
        assert all(a < b for a, b in zip(vs, vs[1:]))

    def test_identically_zero(self):
        traj = euler_polygon(constant_map(0.0), (4.0,), 1.0, 8)
        (rep,) = check_trajectory_monotone(traj)
        assert rep.classification == "identically-zero"
        assert rep.ok

    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda dim: st.integers(1, 6).flatmap(
        lambda steps: st.tuples(
            st.lists(st.tuples(*[TRAJECTORY_VALUES] * dim), min_size=steps + 1,
                     max_size=steps + 1),
            st.lists(st.tuples(*[TRAJECTORY_VALUES] * dim), min_size=steps,
                     max_size=steps)))))
    def test_matches_the_two_branch_reference(self, case):
        nodes, velocities = case
        traj = Trajectory(range(len(nodes)), nodes, velocities)
        assert check_trajectory_monotone(traj) == reference_check_trajectory_monotone(traj)

    def test_signed_zero_and_nan_in_a_decreasing_coordinate(self):
        nodes = ((0.0,), (-0.0,), (-1.0,), (math.nan,))
        velocities = ((-1.0,), (-0.0,), (-math.inf,))
        traj = Trajectory((0.0, 1.0, 2.0, 3.0), nodes, velocities)
        (rep,) = check_trajectory_monotone(traj)
        assert rep == reference_check_trajectory_monotone(traj)[0]
        assert rep.classification == "decreasing"
        assert not rep.velocity_sign_stable  # -0.0 is not < 0
        assert not rep.velocity_monotone  # -0.0 >= -1.0 fails the order
        assert not rep.nodes_monotone  # NaN compares false


class TestResidual:
    def test_node_residual_always_zero(self):
        for name, x0, v0 in [("example1", (0.3,), None),
                             ("example2_G", (-0.4,), None),
                             ("example4", (-1.0,), (-1.0,))]:
            params = {"n": 1} if name == "example4" else None
            m = builtin(name, params)
            traj = euler_polygon(m, x0, 1.0, 24, v0=v0)
            node, _ = residual(traj, m)
            assert node == 0.0

    def test_locally_constant_image_has_zero_interval_residual(self):
        m = builtin("example4", {"n": 1})
        traj = euler_polygon(m, (-1.0,), 0.5, 8, v0=(-1.0,))
        assert residual(traj, m) == (0.0, 0.0)

    def test_growth_branch_interval_residual_order_h(self):
        m = builtin("example2_F")
        traj = euler_polygon(m, (1.0,), 1.0, 1000, SelectionPolicy("lex_max"),
                             v0=(1.0,))
        _, interval = residual(traj, m)
        from diffinc.solver import gronwall_bounds
        bound = gronwall_bounds(1, 1, 1, 1).velocity_bound * traj.mesh_size
        assert 0 < interval <= bound


class TestUnionPreservation:
    def test_unions_of_monotone_single_valued_maps_stay_wcm(self):
        rng = random.Random(45)
        for trial in range(10):
            dim = rng.randint(1, 2)
            f = random_monotone_map(rng, dim)
            g = random_monotone_map(rng, dim)
            report = check_wcm(union(f, g), 5.0, 100, 100 + trial)
            assert not report.failed, trial
