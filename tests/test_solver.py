"""Polygon construction, growth bounds, refinement studies, CSV export."""

import dataclasses
import math
import random
import re
import sys
from decimal import MAX_EMAX, MIN_EMIN, Decimal, Overflow, localcontext

import pytest
from helpers import integrate_majorant
from hypothesis import example, given
from hypothesis import strategies as st

from diffinc.analyzer import check_trajectory_monotone, residual
from diffinc.selector import SelectionPolicy, WcmInfeasible, feasible_region
from diffinc.setmap import Expr, Piece, PiecewiseMap, builtin
from diffinc.solver import (
    MAX_STEPS,
    GrowthBounds,
    MeshTooCoarse,
    Trajectory,
    converge,
    euler_polygon,
    gronwall_bounds,
    min_steps,
    trajectory_from_csv,
    trajectory_to_csv,
)

LEX_MAX = SelectionPolicy("lex_max")


DBL_MAX = Decimal(sys.float_info.max)


def decimal_majorant(a, b, x0_norm, horizon):
    """L and M of the solver's module docstring for B > 0, in 80-digit
    decimal arithmetic; an exponent past the decimal range is Infinity."""
    with localcontext() as ctx:
        ctx.prec = 80
        ctx.Emax, ctx.Emin = MAX_EMAX, MIN_EMIN
        ctx.traps[Overflow] = False
        a, b, r0, t = map(Decimal, (a, b, x0_norm, horizon))
        u = b * t
        # exp(u) - 1 loses about -log10(u) of the 80 digits; below 1e-20
        # the series' relative truncation error, about u**3 / 24, is tiny
        em1 = u * (1 + u / 2 + u * u / 6) if u < Decimal("1e-20") else u.exp() - 1
        if em1.is_infinite():  # and r0 * em1 would be NaN at r0 = 0
            return em1, em1
        state = r0 * (em1 + 1) + (a + b + 1) * em1 / b
        return state, a + b + 1 + b * state


class TestGronwallBounds:
    def test_reference_case(self):
        g = gronwall_bounds(1, 1, 1, 1)
        assert g.state_bound == pytest.approx(4 * math.e - 3, abs=1e-12)
        assert g.velocity_bound == pytest.approx(4 * math.e, abs=1e-12)
        assert g.state_bound == pytest.approx(7.8731273138, abs=1e-6)
        assert g.velocity_bound == pytest.approx(10.8731273138, abs=1e-6)

    def test_zero_b_branch(self):
        g = gronwall_bounds(1, 0, 0, 2)
        assert (g.state_bound, g.velocity_bound) == (4.0, 2.0)

    def test_constant_speed(self):
        g = gronwall_bounds(0, 0, 5, 1)
        assert (g.state_bound, g.velocity_bound) == (6.0, 1.0)

    def test_matches_numeric_integration(self):
        for a, b, r0, horizon in [(1, 1, 1, 1), (0.5, 2, 3, 0.7), (2, 0, 1, 3)]:
            g = gronwall_bounds(a, b, r0, horizon)
            assert g.state_bound == pytest.approx(
                integrate_majorant(a, b, r0, horizon), rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            gronwall_bounds(-1, 0, 0, 1)
        with pytest.raises(ValueError):
            gronwall_bounds(0, 0, 0, 0)

    @pytest.mark.parametrize("args, message", [
        ((math.nan, 0, 1, 1), "growth constants must be finite and >= 0"),
        ((1, math.inf, 1, 1), "growth constants must be finite and >= 0"),
        ((1, math.nan, 1, 1), "growth constants must be finite and >= 0"),
        ((1, 0, 1, math.nan), "horizon must be finite"),
        ((1, 0, 1, math.inf), "horizon must be finite"),
        ((1, 0, math.nan, 1), "x0_norm must not be NaN"),
    ])
    def test_rejects_non_finite_inputs(self, args, message):
        with pytest.raises(ValueError, match=message):
            gronwall_bounds(*args)

    @pytest.mark.parametrize("args, speed", [
        ((1, 1, 0, 1000), math.inf),     # exp(B*T) raises OverflowError
        ((0, 1e300, 0, 1e10), math.inf),  # B*T is inf, and 0 * exp(inf) is NaN
        ((1, 0, math.inf, 1), 2.0),       # B = 0: M = A + 1 although L overflows
    ])
    def test_overflowing_state_bound_is_infinite(self, args, speed):
        g = gronwall_bounds(*args)
        assert (g.state_bound, g.velocity_bound) == (math.inf, speed)

    @given(a=st.floats(0, math.inf, exclude_max=True),
           b=st.floats(0, math.inf, exclude_max=True),
           x0_norm=st.floats(0, math.inf),
           horizon=st.floats(0, math.inf, exclude_min=True, exclude_max=True))
    @example(a=1e300, b=1e-20, x0_norm=0.0, horizon=1.0)  # (A+B+1)/B = inf, exp(B*T) = 1
    @example(a=0.0, b=1e-20, x0_norm=0.0, horizon=1.0)  # exp(B*T) - 1 cancels to 0
    @example(a=0.0, b=5e-324, x0_norm=0.0, horizon=1.0)
    @example(a=0.0, b=5e-324, x0_norm=0.0, horizon=1.4)  # B*T rounds to 5e-324
    @example(a=1e308, b=1e308, x0_norm=0.0, horizon=1e-310)  # A + B overflows, L = 0.0201
    @example(a=0.0, b=1.0, x0_norm=0.0, horizon=709.0)
    def test_bounds_are_never_nan_and_keep_every_finite_value(self, a, b, x0_norm, horizon):
        g = gronwall_bounds(a, b, x0_norm, horizon)
        assert not math.isnan(g.state_bound) and not math.isnan(g.velocity_bound)
        if b == 0:  # the closed form of the module docstring, term by term
            assert g.state_bound == x0_norm + (a + 1.0) * horizon
            assert g.velocity_bound == a + 1.0
            return
        state, speed = decimal_majorant(a, b, x0_norm, horizon)
        for got, want in ((g.state_bound, state), (g.velocity_bound, speed)):
            if math.isinf(got):  # overflow: the true bound is beyond the double range
                assert want > DBL_MAX * Decimal(1 - 1e-12)
            else:
                # 1e-320: a few roundings in the subnormal range
                assert want.is_finite()
                assert abs(Decimal(got) - want) <= Decimal(1e-12) * want + Decimal(1e-320)


class TestMinSteps:
    def test_examples(self):
        assert min_steps(gronwall_bounds(1, 1, 1, 1)) == 11
        assert min_steps(GrowthBounds(0, 0, 0, 1.0, 0.0, 0.5)) == 1
        assert min_steps(GrowthBounds(0, 0, 0, 2.0, 0.0, 3.0)) == 7

    def test_mesh_condition_holds(self):
        for t, m in [(1.0, 10.8731), (2.0, 3.0), (0.5, 0.1), (3.0, 7.7)]:
            n = min_steps(GrowthBounds(0, 0, 0, t, 0.0, m))
            assert (t / n) * m < 1.0
            assert n == 1 or (t / (n - 1)) * m >= 1.0


class TestEulerPolygon:
    def test_example4_exact_linear_solution(self):
        m = builtin("example4", {"n": 2})
        traj = euler_polygon(m, (-1.0, -0.5), 1.0, 16, v0=(-1.0, -1.0))
        assert traj.terminal == (-2.0, -1.5)
        assert all(v == (-1.0, -1.0) for v in traj.velocities)
        for t, node in zip(traj.times, traj.nodes):
            assert node == (-1.0 - t, -0.5 - t)

    def test_example2_growth_branch_closed_form(self):
        m = builtin("example2_F")
        traj = euler_polygon(m, (1.0,), 1.0, 1000, LEX_MAX, v0=(1.0,))
        h = 1.0 / 1000
        closed = 1.0
        for _ in range(1000):
            closed += h * closed  # same recurrence, independent accumulation
        assert traj.terminal[0] == closed
        assert abs(traj.terminal[0] - (1 + h) ** 1000) < 1e-9
        assert abs(traj.terminal[0] - math.e) <= 5e-3

    def test_project_policy_follows_nearest_branch(self):
        # started on the cube-root branch below the x = 1 branch crossing,
        # project keeps picking it (the t-branch point stays ~0.3 away
        # while consecutive cube roots differ by O(h)), so the polygon
        # tracks x' = x**(1/3): x(t) = ((2/3) t + 0.5**(2/3)) ** (3/2)
        from diffinc.setmap import real_cbrt
        m = builtin("example2_F")
        v0 = (real_cbrt(0.5),)
        traj = euler_polygon(m, (0.5,), 0.4, 1000, v0=v0)
        oracle = ((2.0 / 3.0) * 0.4 + 0.5 ** (2.0 / 3.0)) ** 1.5
        assert abs(traj.terminal[0] - oracle) <= 1e-3
        for node, v in zip(traj.nodes, traj.velocities):
            assert v[0] == real_cbrt(node[0])

    def test_antisign_infeasible_with_annotated_certificate(self):
        m = builtin("antisign")
        with pytest.raises(WcmInfeasible) as err:
            euler_polygon(m, (1.0,), 2.0, 64, v0=(-1.0,))
        e = err.value
        assert e.step is not None and e.state is not None
        assert e.state[0] < 0
        assert feasible_region(m.evaluate(e.state), e.prev_v, e.signs) is None

    def test_node_recurrence_and_residual(self):
        m = builtin("example2_G")
        traj = euler_polygon(m, (0.5,), 1.0, 40, v0=(1.5,))
        h = traj.mesh_size
        for i in range(traj.steps):
            expect = tuple(x + h * v for x, v in zip(traj.nodes[i], traj.velocities[i]))
            assert traj.nodes[i + 1] == expect
        assert residual(traj, m)[0] == 0.0

    def test_default_n_is_min_steps(self):
        m = builtin("example1")
        traj = euler_polygon(m, (0.0,), 1.0)
        g = gronwall_bounds(1, 0, 0, 1)
        assert traj.steps == min_steps(g)

    def test_mesh_enforcement(self):
        m = builtin("example2_F")
        with pytest.raises(MeshTooCoarse):
            euler_polygon(m, (1.0,), 1.0, 2)
        with pytest.warns(UserWarning):
            euler_polygon(m, (1.0,), 1.0, 2, enforce_mesh=False)

    def test_warns_without_growth_constants(self):
        m = PiecewiseMap(1, (Piece((), (((Expr.const(0.0), Expr.const(0.0)),),)),))
        with pytest.warns(UserWarning):
            traj = euler_polygon(m, (1.0,), 1.0, 4)
        assert traj.terminal == (1.0,)

    def test_step_budget_checked_before_allocating(self):
        m = builtin("example2_F")
        with pytest.raises(ValueError, match=f"N = {MAX_STEPS + 1} .* {MAX_STEPS}"):
            euler_polygon(m, (1.0,), 1.0, MAX_STEPS + 1)
        need = min_steps(gronwall_bounds(1.0, 1.0, 1.0, 50.0))
        assert need > MAX_STEPS
        with pytest.raises(ValueError, match=f"N = {need} .* {MAX_STEPS}"):
            euler_polygon(m, (1.0,), 50.0)

    @pytest.mark.parametrize("horizon, n", [(5e-324, 200000), (5e-324, 2), (1e-323, 3)])
    def test_mesh_times_that_cannot_increase_are_refused_first(self, monkeypatch,
                                                               horizon, n):
        # at the parent all N steps ran, then the Trajectory invariant spoke
        m = builtin("example2_F")

        def no_eval(x):
            raise AssertionError("the map was evaluated")

        monkeypatch.setattr(m, "_eval", no_eval)
        message = (f"mesh times (i/N)*T do not increase strictly at T = {horizon!r} "
                   f"and N = {n}: the steps are below the spacing of doubles")
        with pytest.raises(ValueError, match=re.escape(message)):
            euler_polygon(m, (1.0,), horizon, n, enforce_mesh=False)

    @pytest.mark.parametrize("horizon, n", [(5e-324, 1), (1e-323, 2)])
    def test_the_finest_increasing_meshes_solve(self, horizon, n):
        traj = euler_polygon(builtin("example2_F"), (1.0,), horizon, n)
        assert traj.times[-1] == horizon and traj.steps == n

    def test_overflowing_bounds_warn_without_the_mesh_check(self):
        m = builtin("example2_F")
        with pytest.warns(UserWarning, match=r"no finite mesh meets h\*M < 1: T\*M = inf"):
            traj = euler_polygon(m, (1e308,), 1.0, 4, enforce_mesh=False)
        assert traj.terminal == (1e308,)
        assert residual(traj, m) == (0.0, 0.0)
        with pytest.raises(ValueError, match=r"no finite mesh meets h\*M < 1: T\*M = inf"):
            euler_polygon(m, (1e308,), 1.0, 4)

    def test_overflowing_bounds_are_a_value_error(self):
        with pytest.raises(ValueError, match="no finite mesh"):
            euler_polygon(builtin("example2_F"), (1e300,), 50.0)
        with pytest.raises(ValueError, match="no finite mesh"):
            min_steps(gronwall_bounds(1.0, 1.0, 1e300, 50.0))

    def test_dimension_and_horizon_validation(self):
        m = builtin("example1")
        with pytest.raises(ValueError):
            euler_polygon(m, (0.0, 0.0), 1.0, 4)
        with pytest.raises(ValueError):
            euler_polygon(m, (0.0,), -1.0, 4)

    @pytest.mark.parametrize("solve", [
        lambda m, x0, horizon, v0: euler_polygon(m, x0, horizon, 16, v0=v0),
        lambda m, x0, horizon, v0: converge(m, x0, horizon, 16, 2, v0=v0),
    ], ids=["euler_polygon", "converge"])
    @pytest.mark.parametrize("arg, x0, horizon, v0", [
        ("x0", (math.nan,), 1.0, None),
        ("x0", (-math.inf,), 1.0, None),
        ("horizon", (0.5,), math.nan, None),
        ("horizon", (0.5,), math.inf, None),
        ("v0", (0.5,), 1.0, (math.nan,)),
    ])
    def test_non_finite_inputs_name_the_argument(self, solve, arg, x0, horizon, v0):
        with pytest.raises(ValueError, match=f"^{arg}"):
            solve(builtin("example1"), x0, horizon, v0)

    def test_monotone_by_construction(self):
        rng = random.Random(31)
        for name, params in [("example1", None), ("example2_F", None),
                             ("example2_G", None), ("example3", None),
                             ("example4", {"n": 2})]:
            m = builtin(name, dict(params) if params else None)
            for _ in range(5):
                x0 = tuple(rng.uniform(-2, 2) for _ in range(m.dim))
                traj = euler_polygon(m, x0, 1.0, 32)
                assert all(r.ok for r in check_trajectory_monotone(traj))

    def test_boundedness_under_declared_growth(self):
        m = builtin("example2_F")
        g = gronwall_bounds(1, 1, 1, 1)
        traj = euler_polygon(m, (1.0,), 1.0, 11, LEX_MAX, v0=(1.0,))
        assert max(abs(p[0]) for p in traj.nodes) <= g.state_bound
        assert max(abs(v[0]) for v in traj.velocities) <= g.velocity_bound

    def test_single_valued_monotone_maps_always_solve(self):
        # image expressions compose weakly monotone correctly-rounded ops,
        # so the sign constraint stays feasible even in floats
        from helpers import random_monotone_map
        rng = random.Random(33)
        for _ in range(25):
            m = random_monotone_map(rng, rng.randint(1, 3))
            x0 = tuple(rng.uniform(-2, 2) for _ in range(m.dim))
            traj = euler_polygon(m, x0, 0.25)
            assert all(r.ok for r in check_trajectory_monotone(traj))
            assert residual(traj, m)[0] == 0.0


class TestInterpolate:
    def test_nodes_exact(self):
        traj = euler_polygon(builtin("example2_F"), (1.0,), 1.0, 37, LEX_MAX, v0=(1.0,))
        for i, t in enumerate(traj.times):
            assert traj.interpolate(t) == traj.nodes[i]

    def test_midpoint_is_average(self):
        traj = euler_polygon(builtin("example4", {"n": 1}), (-1.0,), 1.0, 16, v0=(-1.0,))
        for i in range(traj.steps):
            mid = (traj.times[i] + traj.times[i + 1]) / 2
            got = traj.interpolate(mid)[0]
            avg = (traj.nodes[i][0] + traj.nodes[i + 1][0]) / 2
            assert got == pytest.approx(avg, abs=1e-15)

    def test_exact_linear_case(self):
        traj = euler_polygon(builtin("example4", {"n": 1}), (-1.0,), 1.0, 16, v0=(-1.0,))
        assert traj.interpolate(0.3)[0] == pytest.approx(-1.3, abs=1e-12)

    def test_domain_check(self):
        traj = euler_polygon(builtin("example1"), (0.0,), 1.0, 4)
        with pytest.raises(ValueError):
            traj.interpolate(-0.1)
        with pytest.raises(ValueError):
            traj.interpolate(1.1)


class TestConverge:
    def test_first_order_on_growth_branch(self):
        rep = converge(builtin("example2_F"), (1.0,), 1.0, 125, 4, LEX_MAX, v0=(1.0,))
        assert len(rep.deltas) == 3
        for d1, d2 in zip(rep.deltas, rep.deltas[1:]):
            assert d2 <= 0.6 * d1

    def test_exact_case_zero_deltas(self):
        rep = converge(builtin("example4", {"n": 1}), (-1.0,), 1.0, 16, 3, v0=(-1.0,))
        assert rep.deltas == (0.0, 0.0)

    def test_pinned_example1(self):
        rep = converge(builtin("example1"), (0.0,), 1.0, 8, 3, v0=(1.0,))
        assert rep.deltas == (0.0, 0.0)
        assert rep.trajectories[0].terminal[0] == pytest.approx(1.0, abs=1e-12)
        assert all(mono == ("increasing",) for mono in rep.monotone)

    @pytest.mark.parametrize("name, params, x0", [
        ("example1", {}, (0.0,)),
        ("example2_F", {}, (1.0,)),
        ("example3", {}, (-1.0, 0.5)),
        ("example4", {"n": 2}, (-1.0, -0.5)),
        ("example2_G", {}, (0.5,)),
    ])
    def test_deltas_match_interpolated_reference(self, name, params, x0):
        # each level pair compares nodes by index; interpolating the fine
        # level at the coarse times gives the same doubles
        m = builtin(name, params)
        for policy in ("project", "lex_min", "lex_max"):
            for horizon in (1.0, 0.7414703308148386, 0.3):
                rep = converge(m, x0, horizon, 7, 4, SelectionPolicy(policy))
                reference = []
                for coarse, fine in zip(rep.trajectories, rep.trajectories[1:]):
                    assert fine.times[::2] == coarse.times
                    reference.append(max(
                        math.hypot(*(a - b for a, b in zip(node, fine.interpolate(t))))
                        for t, node in zip(coarse.times, coarse.nodes)))
                assert rep.deltas == tuple(reference), (name, policy, horizon)

    def test_infeasibility_carries_level(self):
        with pytest.raises(WcmInfeasible) as err:
            converge(builtin("antisign"), (1.0,), 2.0, 8, 3, v0=(-1.0,))
        assert err.value.level == 0

    def test_finest_level_checked_before_the_first_solve(self, monkeypatch):
        import diffinc.solver as solver

        def no_solve(*args, **kwargs):
            raise AssertionError("a level was solved")

        monkeypatch.setattr(solver, "euler_polygon", no_solve)
        n0 = MAX_STEPS // 4 + 1  # levels n0, 2*n0, 4*n0: only the last is over
        with pytest.raises(ValueError, match=f"N = {4 * n0} .* {MAX_STEPS}"):
            converge(builtin("example1"), (0.0,), 1.0, n0, 3)

    def test_mesh_times_checked_before_the_first_solve(self, monkeypatch):
        import diffinc.solver as solver

        def no_solve(*args, **kwargs):
            raise AssertionError("a level was solved")

        monkeypatch.setattr(solver, "euler_polygon", no_solve)
        # levels 2, 4 and 8: the first two meshes increase, the finest does not
        with pytest.raises(ValueError, match=re.escape("at T = 1e-323 and N = 8:")):
            converge(builtin("example1"), (1.0,), 1e-323, 2, 3)

    def test_residual_work_checked_before_the_first_solve(self, monkeypatch):
        import diffinc.solver as solver

        def no_solve(*args, **kwargs):
            raise AssertionError("a level was solved")

        monkeypatch.setattr(solver, "euler_polygon", no_solve)
        n0 = MAX_STEPS // 8 + 1  # 2 * n0 steps fit MAX_STEPS, 4 samples a step do not
        message = (f"N = {2 * n0} steps at the finest level times RESIDUAL_SAMPLES = 4 "
                   f"exceeds MAX_STEPS = {MAX_STEPS}")
        with pytest.raises(ValueError, match=re.escape(message)):
            converge(builtin("example1"), (0.0,), 1.0, n0, 2)

    @pytest.mark.parametrize("n0", [0, -3])
    @pytest.mark.parametrize("declares_growth", [True, False])
    def test_n0_below_one_rejected_before_the_first_solve(self, monkeypatch, n0,
                                                          declares_growth):
        # with declared growth the mesh minimum used to lift n0 silently
        import diffinc.solver as solver

        def no_solve(*args, **kwargs):
            raise AssertionError("a level was solved")

        monkeypatch.setattr(solver, "euler_polygon", no_solve)
        m = builtin("example1") if declares_growth else \
            PiecewiseMap(1, (Piece((), (((Expr.const(0.0), Expr.const(0.0)),),)),))
        with pytest.raises(ValueError, match=f"n0 must be >= 1, got {n0}"):
            converge(m, (0.0,), 1.0, n0, 2)

    def test_many_levels_rejected_before_doubling(self):
        with pytest.raises(ValueError, match="10000000000 levels double N past MAX_STEPS"):
            converge(builtin("example1"), (0.0,), 1.0, 4, 10 ** 10)

    def test_residual_budget_is_inclusive(self, monkeypatch):
        import diffinc.solver as solver

        # the finest level's 8 steps take exactly MAX_STEPS residual samples
        monkeypatch.setattr(solver, "MAX_STEPS", 8 * 4)
        rep = converge(builtin("example1"), (0.0,), 1.0, 4, 2)
        assert [t.steps for t in rep.trajectories] == [4, 8]
        with pytest.raises(ValueError, match="N = 16 steps"):
            converge(builtin("example1"), (0.0,), 1.0, 8, 2)

    def test_levels_validation(self):
        with pytest.raises(ValueError):
            converge(builtin("example1"), (0.0,), 1.0, 8, 1)

    def test_start_level_raised_to_mesh_minimum(self):
        rep = converge(builtin("example2_F"), (1.0,), 1.0, 2, 2, LEX_MAX, v0=(1.0,))
        assert rep.trajectories[0].steps == min_steps(gronwall_bounds(1, 1, 1, 1))
        assert rep.trajectories[1].steps == 2 * rep.trajectories[0].steps

    def test_report_json_shape(self):
        rep = converge(builtin("example4", {"n": 1}), (-1.0,), 1.0, 8, 2, v0=(-1.0,))
        doc = rep.to_json_dict()
        assert [lvl["steps"] for lvl in doc["levels"]] == [8, 16]
        assert doc["deltas"] == [0.0]
        assert doc["levels"][0]["node_residual"] == 0.0


class TestCsv:
    def test_roundtrip_bit_identical(self):
        traj = euler_polygon(builtin("example2_G"), (0.3,), 1.0, 25, v0=(1.3,))
        text = trajectory_to_csv(traj)
        for again in (trajectory_from_csv(text), trajectory_from_csv(text.replace("\n", "\r\n"))):
            assert again.times == traj.times
            assert again.nodes == traj.nodes
            assert again.velocities == traj.velocities

    def test_header_and_final_row(self):
        traj = euler_polygon(builtin("example4", {"n": 2}), (-1.0, -0.5), 1.0, 4,
                             v0=(-1.0, -1.0))
        lines = trajectory_to_csv(traj).strip().split("\n")
        assert lines[0] == "t,x_1,x_2,v_1,v_2"
        assert len(lines) == 1 + 5
        last = lines[-1].split(",")
        # velocity columns of the final row repeat the last interval velocity
        assert [float(c) for c in last[3:]] == list(traj.velocities[-1])

    def test_lf_and_decimal_point(self):
        traj = euler_polygon(builtin("example1"), (0.0,), 1.0, 3)
        text = trajectory_to_csv(traj)
        assert "\r" not in text and "," in text

    @pytest.mark.parametrize("text, message", [
        ("", "not a trajectory CSV"),
        ("\n\n", "not a trajectory CSV"),
        ("t\n0\n1\n", "not a trajectory CSV"),
        ("t,x_1,v_1\n", "needs at least two rows, got 0"),
        ("t,x_1,v_1\n0,1,1\n", "needs at least two rows, got 1"),
        # headers whose columns were once read by position alone
        ("t,v_1,x_1\n0,1,0\n1,1,1\n", "header must be t,x_1..x_n,v_1..v_n"),
        ("t,x_2,x_1,v_1,v_2\n0,0,0,1,1\n1,1,1,1,1\n", "header must be t,x_1..x_n,v_1..v_n"),
        ("t,y_1,w_1\n0,0,1\n1,1,1\n", "header must be t,x_1..x_n,v_1..v_n"),
    ])
    def test_too_few_rows_are_value_errors(self, text, message):
        with pytest.raises(ValueError, match=message):
            trajectory_from_csv(text)

    # a non-finite cell is the file's fault, not the map's that residual
    # would later be run on
    @pytest.mark.parametrize("text, message", [
        ("t,x_1,v_1\n0,nan,1\n1,1,1\n", "row 1, column x_1: nan is not finite"),
        ("t,x_1,v_1\n0,0,1\n1,1,inf\n", "row 2, column v_1: inf is not finite"),
        ("t,x_1,x_2,v_1,v_2\n0,0,-inf,1,1\n1,1,1,1,1\n", "row 1, column x_2: -inf is not finite"),
        ("t,x_1,v_1\nnan,0,1\n1,1,1\n", "row 1, column t: nan is not finite"),
    ])
    def test_non_finite_cells_are_value_errors(self, text, message):
        with pytest.raises(ValueError, match=message):
            trajectory_from_csv(text)

    # every other bad row or cell is named by its row, and a cell by its
    # column too, in the form of the non-finite message
    @pytest.mark.parametrize("text, message", [
        ("t,x_1,v_1\n0,0,1\n1,,1\n", "row 2, column x_1: '' is not a number"),
        ("t,x_1,v_1\n0,0,1\n1,1,one\n", "row 2, column v_1: 'one' is not a number"),
        ("t,x_1,v_1\r\n0,0,1\r\n1,1,x\r\n", "row 2, column v_1: 'x' is not a number"),
        # the first bad cell in column order, whichever its kind
        ("t,x_1,v_1\n0,nan,a\n1,1,1\n", "row 1, column x_1: nan is not finite"),
        ("t,x_1,v_1\n0,0,1\n1,1\n", "row 2 has 2 cells, expected 3"),
        ("t,x_1,v_1\n0,0,1,1\n1,1,1\n", "row 1 has 4 cells, expected 3"),
    ])
    def test_bad_rows_and_cells_name_their_place(self, text, message):
        with pytest.raises(ValueError) as info:
            trajectory_from_csv(text)
        assert str(info.value) == message

    def test_two_rows_make_one_step(self):
        traj = trajectory_from_csv("t,x_1,v_1\n0,1,2\n0.5,2,2\n")
        assert traj.steps == 1 and traj.mesh_size == 0.5


class TestTrajectoryValidation:
    @pytest.mark.parametrize("times", [(0.0, math.nan), (0.0, 1.0, math.nan),
                                       (0.0, 1.0, 1.0), (math.nan, 1.0)])
    def test_times_must_increase_strictly_from_zero(self, times):
        n = len(times)
        with pytest.raises(ValueError, match="times must increase strictly from 0"):
            Trajectory(times, ((0.0,),) * n, ((1.0,),) * (n - 1))

    @pytest.mark.parametrize("nodes, velocities", [
        (((0.0,),) * 2, ((1.0,),) * 2),
        (((0.0,),) * 3, ((1.0,),) * 3),
        (((0.0,),) * 3, ()),
    ])
    def test_counts_must_match_the_mesh(self, nodes, velocities):
        with pytest.raises(ValueError, match="counts do not match the mesh"):
            Trajectory((0.0, 1.0, 2.0), nodes, velocities)

    def test_at_least_one_step(self):
        with pytest.raises(ValueError, match="at least one step"):
            Trajectory((0.0,), ((0.0,),), ())

    # each was built once, and then its consumer failed or wrote nonsense
    @pytest.mark.parametrize("times, nodes, velocities, consumer", [
        # a ragged node made check_trajectory_monotone raise IndexError
        ((0.0, 0.5, 1.0), ((0.0, 0.0), (1.0,), (2.0, 2.0)), ((1.0, 1.0), (1.0, 1.0)),
         check_trajectory_monotone),
        # a ragged velocity made a 4-cell row that trajectory_from_csv rejects
        ((0.0, 0.5, 1.0), ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)), ((1.0, 1.0), (1.0,)),
         trajectory_to_csv),
        # no dimension at all wrote the CSV "t\n0\n1\n"
        ((0.0, 1.0), ((), ()), ((),), trajectory_to_csv),
    ])
    def test_one_dimension_of_at_least_one(self, times, nodes, velocities, consumer):
        with pytest.raises(ValueError, match="must share a dimension >= 1"):
            consumer(Trajectory(times, nodes, velocities))

    def test_fields_are_converted_once(self):
        traj = Trajectory([0, 1], [[0, 1], [1, 2]], [[1, 1]])
        assert traj.times == (0.0, 1.0)
        assert traj.nodes == ((0.0, 1.0), (1.0, 2.0)) and traj.velocities == ((1.0, 1.0),)
        assert all(type(c) is float for p in (traj.times, *traj.nodes) for c in p)
        assert [f.name for f in dataclasses.fields(Trajectory)] == ["times", "nodes",
                                                                     "velocities"]
