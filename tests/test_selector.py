"""Sign-constrained selection: exactness, soundness, completeness."""

import math
import random

import pytest

from diffinc.selector import (
    SelectionPolicy,
    SignPattern,
    WcmInfeasible,
    feasible_region,
    initial_velocity,
    select_velocity,
)
from diffinc.setmap import Box, CompactSet, distance


def random_image(rng, dim, max_boxes=3):
    boxes = []
    for _ in range(rng.randint(1, max_boxes)):
        lo = tuple(rng.uniform(-3, 3) for _ in range(dim))
        width = 0.0 if rng.random() < 0.3 else rng.uniform(0, 2)
        hi = tuple(a + width * rng.random() for a in lo)
        boxes.append(Box(lo, hi))
    return CompactSet(tuple(boxes))


def random_signs(rng, dim):
    return SignPattern(tuple(rng.choice((-1, 0, 1)) for _ in range(dim)))


class TestSignPattern:
    def test_exact_zero(self):
        assert SignPattern.of_vector((0.0, -2.0, 1e-300)).signs == (0, -1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            SignPattern((2,))
        with pytest.raises(ValueError):
            SignPattern(())


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            SelectionPolicy("nearest")


class TestFeasibleRegion:
    def test_interval_intersection(self):
        r = feasible_region(CompactSet.of_intervals((-1.0, 0.0)), (-0.5,),
                            SignPattern((-1,)))
        assert r == CompactSet.of_intervals((-1.0, -0.5))

    def test_boundary_degenerate(self):
        r = feasible_region(CompactSet.of_intervals((-1.0, 1.0)), (1.0,),
                            SignPattern((1,)))
        assert r == CompactSet.of_intervals((1.0, 1.0))

    def test_empty_is_none_not_error(self):
        r = feasible_region(CompactSet.of_points((1.0,)), (-1.0,),
                            SignPattern((-1,)))
        assert r is None

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            feasible_region(CompactSet.of_points((1.0, 2.0)), (0.0,),
                            SignPattern((1,)))

    def test_completeness_against_grid(self):
        # if any of 10^4 grid points per box is feasible, the region is nonempty
        rng = random.Random(21)
        for _ in range(100):
            dim = rng.randint(1, 2)
            img = random_image(rng, dim)
            prev = tuple(rng.uniform(-3, 3) for _ in range(dim))
            signs = random_signs(rng, dim)
            region = feasible_region(img, prev, signs)
            per_coord = 10_000 if dim == 1 else 100
            found = False
            for box in img.boxes:
                axes = []
                for lo, hi in zip(box.lo, box.hi):
                    steps = 1 if lo == hi else per_coord
                    axes.append([lo + (hi - lo) * k / max(1, steps - 1)
                                 for k in range(steps)])
                pts = [()]
                for axis in axes:
                    pts = [p + (v,) for p in pts for v in axis]
                for p in pts:
                    if all(s * (w - pv) >= 0 for s, w, pv in zip(signs, p, prev)):
                        found = True
                        break
                if found:
                    break
            if found:
                assert region is not None
            if region is not None:
                # soundness of the region itself
                for box in region.boxes:
                    for corner in box.corners():
                        assert all(s * (w - pv) >= 0
                                   for s, w, pv in zip(signs, corner, prev))
                        assert distance(img, corner) == 0.0


class TestSelectVelocity:
    def test_project_clamps_prev(self):
        v = select_velocity(CompactSet.of_intervals((-1.0, 0.0)), (-0.5,),
                            SignPattern((-1,)))
        assert v == (-0.5,)

    def test_project_prefers_nearest_branch(self):
        img = CompactSet.of_points((8.0,), (2.0,))
        v = select_velocity(img, (1.0,), SignPattern((1,)))
        assert v == (2.0,)

    def test_infeasible_raises_with_certificate(self):
        img = CompactSet.of_points((1.0,))
        with pytest.raises(WcmInfeasible) as err:
            select_velocity(img, (-1.0,), SignPattern((-1,)))
        e = err.value
        assert e.prev_v == (-1.0,)
        assert e.signs.signs == (-1,)
        assert feasible_region(e.image, e.prev_v, e.signs) is None

    def test_lex_policies(self):
        img = CompactSet.of_intervals((-1.0, 0.5), (0.25, 2.0))
        signs = SignPattern((0,))
        assert select_velocity(img, (0.0,), signs, SelectionPolicy("lex_min")) == (-1.0,)
        assert select_velocity(img, (0.0,), signs, SelectionPolicy("lex_max")) == (2.0,)

    def test_soundness_and_determinism(self):
        rng = random.Random(22)
        for _ in range(400):
            dim = rng.randint(1, 3)
            img = random_image(rng, dim)
            prev = tuple(rng.uniform(-3, 3) for _ in range(dim))
            signs = random_signs(rng, dim)
            for variant in ("project", "lex_min", "lex_max"):
                policy = SelectionPolicy(variant)
                try:
                    v = select_velocity(img, prev, signs, policy)
                except WcmInfeasible:
                    assert feasible_region(img, prev, signs) is None
                    continue
                assert distance(img, v) == 0.0
                for s, w, pv in zip(signs, v, prev):
                    assert s * (w - pv) >= 0.0
                    if s > 0:
                        assert w >= pv
                    elif s < 0:
                        assert w <= pv
                assert select_velocity(img, prev, signs, policy) == v


class TestInitialVelocity:
    def test_minimal_norm_default(self):
        assert initial_velocity(CompactSet.of_intervals((-1.0, 1.0))) == (0.0,)

    def test_lex_min_on_point_pair(self):
        img = CompactSet.of_points((-0.5,), (-1.0,))
        assert initial_velocity(img, SelectionPolicy("lex_min")) == (-1.0,)

    def test_override_membership(self):
        img = CompactSet.of_intervals((-1.0, 1.0))
        assert initial_velocity(img, override=(0.37,)) == (0.37,)
        with pytest.raises(ValueError, match=r"\(1\.5,\) is not in the image \(distance 0\.5\)$"):
            initial_velocity(img, override=(1.5,))
        with pytest.raises(ValueError):
            initial_velocity(img, override=(0.1, 0.2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_override_names_v0(self, bad):
        img = CompactSet.of_intervals((-1.0, 1.0), (-1.0, 1.0))
        with pytest.raises(ValueError, match="v0"):
            initial_velocity(img, override=(bad, 1.0))
