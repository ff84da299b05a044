"""Command-line behaviour: exit codes, artifacts, reproducibility."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import measured_cli, strict_json

from diffinc.analyzer import MAX_HELD_POINTS
from diffinc.cli import main, resolve_map
from diffinc.solver import MAX_STEPS, trajectory_from_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_exact_trajectory_and_csv(self, capsys, tmp_path):
        out_file = tmp_path / "traj.csv"
        code, out, _ = run(
            capsys, "solve", "--map", "example4", "--dim", "2",
            "--x0", "-1,-0.5", "--v0", "-1,-1", "--T", "1", "--N", "16",
            "--output", str(out_file),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["terminal"] == [-2.0, -1.5]
        assert summary["monotone"] == ["decreasing", "decreasing"]
        assert summary["node_residual"] == 0.0
        traj = trajectory_from_csv(out_file.read_text(encoding="utf-8"))
        assert traj.terminal == (-2.0, -1.5)
        assert traj.steps == 16
        # the file round-trips bit-identically against an in-process solve
        from diffinc.setmap import builtin
        from diffinc.solver import euler_polygon
        direct = euler_polygon(builtin("example4", {"n": 2}), (-1.0, -0.5),
                               1.0, 16, v0=(-1.0, -1.0))
        assert traj.nodes == direct.nodes
        assert traj.velocities == direct.velocities
        assert traj.times == direct.times

    def test_json_trajectory_format(self, capsys, tmp_path):
        # CSV is the only trajectory format; --format is no option
        out_file = tmp_path / "traj.json"
        code, out, err = run(
            capsys, "solve", "--map", "example4", "--dim", "1", "--x0", "-1",
            "--v0", "-1", "--T", "1", "--N", "8", "--format", "json",
            "--output", str(out_file),
        )
        assert code == 1 and out == ""
        assert "unrecognized arguments: --format json" in err
        assert "Traceback" not in err
        assert not out_file.exists()

    def test_mesh_times_that_cannot_increase_exit_1(self, capsys):
        code, out, err = run(capsys, "solve", "--map", "example2_F", "--x0", "1",
                             "--T", "5e-324", "--N", "200000", "--no-mesh-check")
        assert code == 1 and out == ""
        assert err == ("error: mesh times (i/N)*T do not increase strictly at T = 5e-324"
                       " and N = 200000: the steps are below the spacing of doubles\n")

    def test_overlong_variable_index_in_a_map_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "long-index.json"
        path.write_text(json.dumps({"dim": 1, "pieces": [
            {"region": [], "image": [[["0", "x" + "1" * 5000]]]}]}), encoding="utf-8")
        code, out, err = run(capsys, "solve", "--map", str(path), "--x0", "0",
                             "--T", "1", "--N", "4")
        assert code == 1 and out == ""
        assert err == (f"error: variable index longer than {sys.get_int_max_str_digits()}"
                       " digits at byte 0\n")

    def test_pinned_example1(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--map", "example1", "--x0", "0", "--v0", "1",
            "--T", "1", "--N", "10",
        )
        assert code == 0
        assert json.loads(out)["terminal"][0] == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_exit_2_with_certificate(self, capsys):
        code, out, err = run(
            capsys, "solve", "--map", "antisign", "--x0", "1", "--v0", "-1",
            "--T", "2", "--N", "64",
        )
        assert code == 2
        cert = json.loads(out)["infeasible"]
        assert cert["prev_velocity"] == [-1.0]
        assert "step" in cert and cert["state"][0] < 0
        assert "no feasible velocity" in err

    def test_mesh_enforcement_message(self, capsys):
        code, _, err = run(
            capsys, "solve", "--map", "example2F", "--x0", "1", "--T", "1", "--N", "2",
        )
        assert code == 1
        assert "h*M" in err

    def test_failed_solve_leaves_no_csv(self, capsys, tmp_path):
        # the polygon is built; residual's interior sample then meets an empty image
        path = tmp_path / "bad_image.json"
        path.write_text(json.dumps({"dim": 1, "pieces": [{"region": [], "image": [
            [["2*sign(x-0.123456)*sign(0.123457-x)", "1"]]]}]}))
        out_file = tmp_path / "traj.csv"
        with pytest.warns(UserWarning, match="declares no growth constants"):
            code, out, err = run(capsys, "solve", "--map", str(path), "--x0", "0", "--v0", "1",
                                 "--T", "1.234565", "--N", "2", "--output", str(out_file))
        assert code == 1 and out == ""
        assert err == "error: map 'piecewise' produced lo 2.0 > hi 1.0 at (0.1234565,)\n"
        assert not out_file.exists()


class TestConverge:
    def test_report_written(self, capsys, tmp_path):
        # stdout is the report; --output names solve's trajectory only
        argv = ["converge", "--map", "example4", "--dim", "1", "--x0", "-1", "--v0", "-1",
                "--T", "1", "--N0", "16", "--levels", "3"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["deltas"] == [0.0, 0.0]
        assert [lvl["steps"] for lvl in doc["levels"]] == [16, 32, 64]
        out_file = tmp_path / "report.json"
        code, out, err = run(capsys, *argv, "--output", str(out_file))
        assert code == 1 and out == ""
        assert "unrecognized arguments: --output" in err
        assert not out_file.exists()

    def test_mesh_times_that_cannot_increase_exit_1(self, capsys):
        code, out, err = run(capsys, "converge", "--map", "example1", "--x0", "1",
                             "--T", "1e-323", "--N0", "2", "--levels", "3")
        assert code == 1 and out == ""
        assert "at T = 1e-323 and N = 8:" in err and "Traceback" not in err

    def test_infeasible_exit_2_with_level(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--map", "antisign", "--x0", "1", "--v0", "-1",
            "--T", "2", "--N0", "8", "--levels", "3",
        )
        assert code == 2
        assert json.loads(out)["infeasible"]["level"] == 0

    def test_deltas_are_reported_not_judged(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--map", "example2F", "--x0", "1", "--v0", "1",
            "--policy", "lex-max", "--T", "1", "--N0", "125", "--levels", "3",
        )
        assert code == 0
        deltas = json.loads(out)["deltas"]
        assert len(deltas) == 2 and all(d > 0 for d in deltas)

    def test_no_mesh_check_is_a_solve_option_only(self, capsys):
        # converge always starts at the mesh minimum, so the flag had no effect
        code, out, err = run(capsys, "converge", "--map", "example1", "--x0", "0", "--T", "1",
                             "--N0", "2", "--levels", "2", "--no-mesh-check")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --no-mesh-check" in err


class TestCheck:
    def test_wcm_pass_exit_0(self, capsys):
        code, out, _ = run(
            capsys, "check", "wcm", "--map", "example3", "--radius", "10",
            "--samples", "300", "--seed", "7",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "pass-sampled"

    def test_monotone_fail_exit_3(self, capsys):
        code, out, _ = run(
            capsys, "check", "monotone", "--map", "example2F", "--radius", "5",
            "--samples", "500", "--seed", "7",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["verdict"] == "fail" and "certificate" in doc

    def test_wcm_normgrad_fail(self, capsys):
        code, out, _ = run(
            capsys, "check", "wcm", "--map", "normgrad2", "--radius", "5",
            "--samples", "2000", "--seed", "42",
        )
        assert code == 3

    def test_growth_pass_reports_the_declared_constants(self, capsys):
        code, out, _ = run(
            capsys, "check", "growth", "--map", "example1", "--radius", "10",
            "--samples", "100", "--seed", "7",
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["verdict"], doc["samples"]) == ("pass-sampled", 106)
        assert doc["declared"] == [1.0, 0.0]
        assert "certificate" not in doc and "fit" not in doc

    def test_growth_fail_reports_a_certificate(self, capsys, tmp_path):
        path = tmp_path / "low_growth.json"
        path.write_text('{"dim": 1, "growth": [0.1, 0], "builtin": {"name": "example1"}}')
        code, out, _ = run(capsys, "check", "growth", "--map", str(path), "--samples", "5")
        assert code == 3
        doc = json.loads(out)
        assert (doc["verdict"], doc["samples"], doc["declared"]) == ("fail", 1, [0.1, 0.0])
        assert doc["certificate"] == {"x": [0.0], "box_index": 0, "v": [-1.0], "norm": 1.0,
                                      "bound": 0.1}
        assert "declared_violation" not in doc

    def test_growth_declared_bound_met_in_floats(self, capsys):
        # g - A - B*r rounded to 4.4e-16 here although g <= A + B*r
        code, out, _ = run(
            capsys, "check", "growth", "--map", "example2G", "--radius", "3.37",
            "--samples", "100", "--seed", "810910",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "pass-sampled"

    def test_growth_report_over_a_subnormal_radius_is_strict_json(self, capsys, tmp_path):
        # the fit this report used to carry had slope inf from the origin
        # to a subnormal radius and printed "b": Infinity
        path = tmp_path / "jump.json"
        path.write_text(json.dumps({"dim": 1, "pieces": [
            {"region": [{"var": 1, "op": "le", "bound": 0}], "image": [[["0", "0"]]]},
            {"region": [{"var": 1, "op": "gt", "bound": 0}], "image": [[["1", "1"]]]}]}))
        code, out, _ = run(capsys, "check", "growth", "--map", str(path), "--radius",
                           "1e-310", "--samples", "20", "--seed", "1")
        assert code == 0
        assert strict_json(out)["verdict"] == "pass-sampled"

    @pytest.mark.parametrize("condition", ["monotone", "cyclic"])
    def test_violation_below_double_range_is_minus_infinity(self, capsys, tmp_path,
                                                            condition):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 1, "pieces": [{"region": [], "image": [
            [["-1e300*sign(x)", "-1e300*sign(x)"]]]}]}))
        code, out, _ = run(capsys, "check", condition, "--map", str(path),
                           "--radius", "1e300")
        assert code == 3
        assert '"value": -Infinity' in out
        doc = json.loads(out)
        assert doc["verdict"] == "fail"
        cert = doc["certificate"]
        assert cert["value"] == -math.inf
        if condition == "monotone":
            exact = sum((Fraction(a) - Fraction(b)) * (Fraction(v) - Fraction(w))
                        for a, b, v, w in zip(cert["x"], cert["y"], cert["v"], cert["w"]))
        else:
            pts = cert["cycle"]
            exact = sum(
                sum((Fraction(a) - Fraction(b)) * Fraction(v)
                    for a, b, v in zip(pts[i], pts[i - 1], cert["velocities"][i - 1]))
                for i in range(1, len(pts))
            )
        assert exact < 0

    @pytest.mark.parametrize("condition", ["wcm", "graph", "monotone", "cyclic", "growth"])
    def test_infinite_bound_is_not_probed(self, capsys, tmp_path, condition):
        # total on every finite state; F(inf) would have an infinite corner
        path = tmp_path / "inf.json"
        path.write_text(json.dumps({"dim": 1, "pieces": [
            {"region": [{"var": 1, "op": "le", "bound": math.inf}], "image": [[["x", "x"]]]},
            {"region": [{"var": 1, "op": "ge", "bound": 0}], "image": [[["x", "x"]]]}]}))
        code, out, err = run(capsys, "check", condition, "--map", str(path),
                             "--samples", "50")
        assert (code, err) == (0, "")
        assert json.loads(out)["verdict"] == "pass-sampled"

    def test_wcm_certificate_is_strict_json_where_a_midpoint_overflows(self, capsys,
                                                                      tmp_path):
        path = tmp_path / "huge_side.json"
        path.write_text(json.dumps({"dim": 2, "pieces": [
            {"region": [{"var": 2, "op": "gt", "bound": 0}],
             "image": [[["1.7e308", "1.7e308"], ["1", "1"]]]},
            {"region": [{"var": 2, "op": "le", "bound": 0}],
             "image": [[["1.7e308", "1.7e308"], ["2", "2"]]]}]}))
        code, out, _ = run(capsys, "check", "wcm", "--map", str(path), "--samples", "10",
                           "--seed", "1")
        assert code == 3
        assert strict_json(out)["certificate"]["v"] == [1.7e308, 2.0]

    def test_graph_check_runs(self, capsys):
        code, out, _ = run(
            capsys, "check", "graph", "--map", "example1", "--samples", "30",
            "--seed", "7",
        )
        assert code == 0

    def test_byte_identical_reports(self, capsys):
        argv = ["check", "wcm", "--map", "example1", "--radius", "5",
                "--samples", "200", "--seed", "11"]
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert first[0] == 0 and first[1] != ""
        assert first == second

    def test_no_report_has_a_timestamp(self, capsys):
        for argv in (
            ["solve", "--map", "example1", "--x0", "0", "--T", "1", "--N", "4"],
            ["solve", "--map", "antisign", "--x0", "1", "--v0", "-1", "--T", "2", "--N", "64"],
            ["converge", "--map", "example1", "--x0", "0", "--T", "1", "--N0", "4",
             "--levels", "2"],
            ["check", "wcm", "--map", "example1", "--samples", "50", "--seed", "1"],
        ):
            code, out, _ = run(capsys, *argv)
            assert code in (0, 2) and "timestamp" not in out
            code, out, err = run(capsys, *argv, "--no-timestamp")
            assert code == 1 and out == ""
            assert "unrecognized arguments: --no-timestamp" in err


class TestListExamples:
    def test_plain_listing(self, capsys):
        code, out, _ = run(capsys, "list-examples")
        assert code == 0
        for name in ("example1", "example2_F", "example4", "antisign", "normgrad"):
            assert name in out

    def test_json_listing(self, capsys):
        code, out, _ = run(capsys, "list-examples")
        assert code == 0
        rows = json.loads(out)
        assert {r["name"] for r in rows} >= {"example1", "normgrad"}
        code, out, err = run(capsys, "list-examples", "--json")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --json" in err


class TestClosedStdout:
    """A reader that leaves early (``| head``, ``| grep -q``) closes the
    pipe; the CLI then exits 1 without a word on stderr."""

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_pipe_exits_1_quietly(self, unbuffered):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "diffinc.cli", "check", "growth", "--map",
             "example1", "--samples", "50", "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # before the child has started, so before it writes
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "list-examples", "--frobnicate")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 1 and out == ""
        assert "invalid choice" in err
        assert "Traceback" not in err

    def test_removed_slack_option(self, capsys):
        code, out, err = run(capsys, "solve", "--map", "example1", "--x0", "0.1", "--v0", "1",
                             "--T", "1", "--N", "8", "--policy", "lex-min", "--slack", "0.5")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --slack 0.5" in err
        assert "Traceback" not in err

    def test_unknown_map(self, capsys):
        code, _, err = run(capsys, "solve", "--map", "nosuch", "--x0", "0", "--T", "1")
        assert code == 1
        assert "unknown map" in err

    def test_bad_vector(self, capsys):
        code, _, err = run(capsys, "solve", "--map", "example1", "--x0", "a,b", "--T", "1")
        assert code == 1

    def test_non_finite_x0(self, capsys):
        code, out, err = run(capsys, "solve", "--map", "example1", "--x0", "nan", "--T", "1")
        assert code == 1 and out == ""
        assert "x0 must be finite" in err

    def test_non_finite_v0(self, capsys):
        code, out, err = run(capsys, "solve", "--map", "example3", "--x0", "0,0", "--T", "1",
                             "--N", "50", "--v0", "nan,1")
        assert code == 1 and out == ""
        assert "v0" in err and "must be finite" in err

    def test_non_finite_horizon(self, capsys):
        code, _, err = run(capsys, "converge", "--map", "example1", "--x0", "0", "--T", "inf",
                           "--N0", "8", "--levels", "2")
        assert code == 1
        assert "horizon must be finite" in err

    def test_mesh_over_step_budget_exits_1_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "solve", "--map", "example2F", "--x0", "1",
                             "--T", "50")
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert f"MAX_STEPS = {MAX_STEPS}" in err

    @pytest.mark.parametrize("argv", [
        "solve --map example3 --x0 0,0 --T 1000 --N 4",
        "converge --map example3 --x0 0,0 --T 1000 --N0 4 --levels 2",
    ])
    def test_overflowing_bounds_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 1 and out == ""
        assert err == ("error: no finite mesh meets h*M < 1: T*M = inf "
                       "(the a-priori bounds overflow)\n")

    @pytest.mark.parametrize("argv", [
        "solve --map normgrad2 --x0 1.7e308,1.7e308 --T 1 --N 4",
        "converge --map normgrad2 --x0 1.7e308,1.7e308 --T 1 --N0 4 --levels 2",
    ])
    def test_speed_bound_without_state_growth_ignores_the_state(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 0 and "Traceback" not in err
        if argv.startswith("solve"):
            report = json.loads(out)
            assert report["steps"] == 4
            assert report["initial_velocity"] == [0.7071067811865475, 0.7071067811865475]

    def test_overflowing_bounds_warn_without_the_mesh_check(self, capsys):
        with pytest.warns(UserWarning, match="no finite mesh"):
            code, out, err = run(capsys, "solve", "--map", "example2_F", "--x0", "1e308",
                                 "--T", "1", "--N", "4", "--no-mesh-check")
        assert code == 0 and "Traceback" not in err
        assert json.loads(out)["terminal"] == [1e308]

    def test_invalid_map_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        for doc, message in [
            ('{"dim": 1, "pieces": [{"region": [{"var": 1, "op": "gt", "bound": 0}], '
             '"image": [[["0", "1"]]]}]}', "empty image"),
            # a misspelt region matched every point, and a misspelt growth was dropped
            ('{"dim": 1, "pieces": [{"regoin": [{"var": 1, "op": "le", "bound": 0}], '
             '"image": [[["0", "0"]]]}, {"region": [], "image": [[["1", "1"]]]}]}',
             "error: $.pieces[0]: unknown key 'regoin'"),
            ('{"dim": 1, "grwoth": [1, 0], "builtin": {"name": "example1"}}',
             "error: $: unknown key 'grwoth'"),
        ]:
            bad.write_text(doc)
            code, _, err = run(capsys, "solve", "--map", str(bad), "--x0", "0", "--T", "1")
            assert code == 1
            assert message in err

    def test_infinite_growth_in_map_file_exits_1(self, capsys, tmp_path):
        # before, the file parsed and solve failed on "T*M = nan"
        bad = tmp_path / "growth.json"
        bad.write_text('{"dim": 1, "growth": [Infinity, 0], '
                       '"pieces": [{"region": [], "image": [[["1", "2"]]]}]}')
        code, out, err = run(capsys, "solve", "--map", str(bad), "--x0", "0.5", "--T", "1")
        assert code == 1 and out == ""
        assert "$: 'growth' must be [A, B] with finite A, B >= 0" in err

    @pytest.mark.parametrize("condition", ["wcm", "monotone", "cyclic", "growth", "graph"])
    @pytest.mark.parametrize("radius", ["inf", "nan"])
    def test_non_finite_radius(self, capsys, condition, radius):
        code, out, err = run(capsys, "check", condition, "--map", "example1",
                             "--radius", radius, "--samples", "10")
        assert code == 1 and out == ""
        assert "radius must be finite" in err

    @pytest.mark.parametrize("argv", [
        # drew only infinite pairs, which the check skipped, and passed
        "check monotone --map normgrad2 --radius 1.7e308 --samples 50 --seed 1",
        # an OverflowError traceback from the exact arithmetic
        "check cyclic --map normgrad3 --radius 1e308 --samples 50 --seed 1",
        # "box corners must be finite", which blamed a valid map
        "check wcm --map example3 --radius 1.7e308",
        "check growth --map normgrad2 --radius 1.7e308",
        "check graph --map example1 --radius 1e308",
    ])
    def test_radius_above_max_radius(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 1 and out == ""
        assert err.startswith("error: radius must be finite and in (0, 8.988465674311579e+307]")
        assert "Traceback" not in err

    @pytest.mark.parametrize("eps", ["inf", "nan"])
    def test_non_finite_graph_eps(self, capsys, eps):
        code, out, err = run(capsys, "check", "graph", "--map", "example1",
                             "--eps", eps, "--samples", "10")
        assert code == 1 and out == ""
        assert "eps must be finite" in err

    @pytest.mark.parametrize("condition", ["wcm", "monotone", "cyclic", "graph"])
    def test_nan_bound_in_map_file(self, capsys, tmp_path, condition):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"dim": 1, "pieces": [
            {"region": [{"var": 1, "op": "le", "bound": math.nan}], "image": [[["x", "x"]]]},
            {"region": [], "image": [[["x", "x"]]]}]}))
        code, out, err = run(capsys, "check", condition, "--map", str(path),
                             "--samples", "20")
        assert code == 1 and out == ""
        assert "$.pieces[0]: condition 'bound' must be a number" in err

    def test_deep_expression_in_map_file(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        expr = "(" * 3000 + "x" + ")" * 3000
        deep.write_text(json.dumps({"dim": 1, "pieces": [
            {"region": [], "image": [[[expr, "1"]]]}]}))
        code, out, err = run(capsys, "check", "monotone", "--map", str(deep))
        assert code == 1 and out == ""
        assert "nested deeper" in err

    def test_exit_codes_stay_in_contract(self, capsys):
        codes = set()
        codes.add(run(capsys, "list-examples")[0])
        codes.add(run(capsys, "solve", "--map", "nosuch", "--x0", "0", "--T", "1")[0])
        codes.add(run(capsys, "solve", "--map", "antisign", "--x0", "1", "--v0", "-1",
                      "--T", "2", "--N", "32")[0])
        codes.add(run(capsys, "check", "monotone", "--map", "example1",
                      "--samples", "300", "--seed", "7")[0])
        assert codes <= {0, 1, 2, 3}
        # each check passes or fails with a report in strict JSON
        for condition in ("wcm", "monotone", "cyclic", "growth", "graph"):
            code, out, _ = run(capsys, "check", condition, "--map", "example3",
                               "--samples", "50", "--seed", "1")
            assert code in (0, 3)
            assert strict_json(out)["verdict"] in ("pass-sampled", "fail")


class TestBuiltinParameters:
    @pytest.mark.parametrize("argv, message", [
        (["--map", "example40"], "example4 needs n >= 1"),
        (["--map", "example4", "--dim", "0"], "example4 needs n >= 1"),
        (["--map", "normgrad0"], "normgrad needs n >= 2"),
        (["--map", "normgrad", "--k", "0"], "normgrad needs k >= 1"),
        (["--map", "example1", "--dim", "5"], "unexpected parameters for 'example1': ['n']"),
        (["--map", "example4", "--k", "3"], "unexpected parameters for 'example4': ['k']"),
        (["--map", "example43", "--dim", "5"], "--map example43 gives n = 3, --dim gives 5"),
        (["--map", "maps/example1.json", "--dim", "1"], "apply to builtin maps only"),
    ])
    def test_replaced_or_ignored_values_exit_1(self, capsys, argv, message):
        code, out, err = run(capsys, "check", "growth", *argv, "--samples", "5")
        assert code == 1 and out == ""
        assert message in err

    def test_suffix_and_dim_may_agree(self):
        assert resolve_map("example43", dim=3).label == "example4(3)"
        assert resolve_map("normgrad", dim=3, k=6).label == "normgrad(3,6)"
        assert resolve_map("normgrad").label == "normgrad(2,4)"

    def test_example4_in_high_dimension(self, capsys):
        ones = ",".join(["1"] * 1200)
        code, out, _ = run(capsys, "solve", "--map", "example4", "--dim", "1200",
                           "--x0", ones, "--T", "1e-4")
        assert code == 0
        assert json.loads(out)["node_residual"] == 0.0


class TestConvergeBudget:
    def test_samples_per_interval_bounded_before_solving(self, capsys):
        # the sample count is fixed; the residual's work is still bounded
        code, out, err = run(capsys, "converge", "--map", "example1", "--x0", "0",
                             "--T", "1", "--N0", "4", "--levels", "2",
                             "--samples-per-interval", "100000000")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --samples-per-interval 100000000" in err
        assert "Traceback" not in err
        start = time.perf_counter()
        code, out, err = run(capsys, "converge", "--map", "example1", "--x0", "0",
                             "--T", "1", "--N0", str(MAX_STEPS // 8 + 1), "--levels", "2")
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert f"N = {2 * (MAX_STEPS // 8 + 1)} steps" in err and "RESIDUAL_SAMPLES = 4" in err

    def test_zero_samples_rejected_before_solving(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "converge", "--map", "example1", "--x0", "0",
                             "--T", "1", "--N0", "200000", "--levels", "2",
                             "--samples-per-interval", "0")
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert "unrecognized arguments: --samples-per-interval 0" in err


    @pytest.mark.parametrize("declares_growth", [True, False])
    def test_n0_below_one_exits_1(self, capsys, tmp_path, declares_growth):
        source = "example1"
        if not declares_growth:
            source = str(tmp_path / "no-growth.json")
            Path(source).write_text('{"dim": 1, "pieces": [{"region": [], '
                                    '"image": [[["0", "1"]]]}]}', encoding="utf-8")
        code, out, err = run(capsys, "converge", "--map", source, "--x0", "0",
                             "--T", "1", "--N0", "0", "--levels", "2")
        assert code == 1 and out == ""
        assert err == "error: n0 must be >= 1, got 0\n"


class TestHeldPointsLimit:
    # the ids keep the names these cases had while growth was argv0
    @pytest.mark.parametrize("argv, held", [
        pytest.param(("graph", "--map", "example1", "--samples", "30000000"),
                     "count = 30000000", id="argv1-count = 30000000"),
        pytest.param(("cyclic", "--map", "normgrad3", "--cycle-len", "30000000"),
                     "cycle_len = 30000000", id="argv2-cycle_len = 30000000"),
        # the limit counts coordinates: 10**6 points of dimension 100 are
        # 10**8 of them, several GB
        pytest.param(("cyclic", "--map", "normgrad", "--dim", "100", "--cycle-len", "1000000",
                      "--samples", "1"),
                     "cycle_len = 1000000 points held at once exceeds", id="cycle_len-dim-100"),
    ])
    def test_exits_1_before_drawing(self, capsys, argv, held):
        start = time.perf_counter()
        code, out, err = run(capsys, "check", *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert held in err and f"MAX_HELD_POINTS = {MAX_HELD_POINTS}" in err

    def test_growth_draws_its_points_lazily(self, capsys, tmp_path):
        # |F(0)| = 1 breaks the declared A = 0.1 at the first point
        path = tmp_path / "low_growth.json"
        path.write_text('{"dim": 1, "growth": [0.1, 0], "builtin": {"name": "example1"}}')
        start = time.perf_counter()
        code, out, _ = run(capsys, "check", "growth", "--map", str(path),
                           "--samples", "30000000")
        assert time.perf_counter() - start < 0.5
        assert code == 3 and json.loads(out)["samples"] == 1


def _balanced_product(k):
    """A map-file node: the balanced product of k copies of the 1-D map
    whose one piece, with an empty region, has the image {0} u {1}; its
    image holds 2^k boxes everywhere."""
    if k == 1:
        return {"dim": 1, "pieces": [{"region": [], "image": [[["0", "0"]], [["1", "1"]]]}]}
    return {"dim": k, "product": [_balanced_product(k // 2), _balanced_product(k - k // 2)]}


class TestImageBudget:
    """An image is refused before it is built when its boxes would hold
    more than MAX_HELD_POINTS coordinates."""

    @pytest.mark.parametrize("argv, message", [
        (("solve", "--x0", ",".join(["0"] * 40), "--T", "1", "--N", "4"), "MAX_HELD_POINTS"),
        (("check", "wcm"), "MAX_HELD_POINTS"),
        (("check", "monotone"), "MAX_HELD_POINTS"),
        (("check", "cyclic"), "MAX_HELD_POINTS"),
        (("check", "growth"), "MAX_HELD_POINTS"),
        # the image at the origin, the first point probed
        (("check", "graph"), "MAX_HELD_POINTS"),
    ])
    def test_forty_factors_exit_1_in_little_memory(self, tmp_path, argv, message):
        # the image holds 2^40 boxes; the 20-factor half would hold 2^20
        path = tmp_path / "product40.json"
        path.write_text(json.dumps(_balanced_product(40)))
        code, text, peak_kb = measured_cli(*argv, "--map", str(path))
        assert code == 1, text
        assert text.startswith("error: ") and message in text and "Traceback" not in text
        # the refusing half names its own dimension
        assert "map 'product' of dimension 20 would hold 1048576 boxes at its point (" in text
        # building the 2^20 boxes of a 20-factor half exceeds the 1 GiB limit
        assert peak_kb < 100 * 1024

    def test_example4_at_17_dimensions_is_refused(self, capsys):
        # at (-5, 0, ..., 0) one image would hold 2^17 boxes of 17 dimensions
        code, out, err = run(capsys, "check", "monotone", "--map", "example4", "--dim", "17")
        assert code == 1 and out == ""
        assert err == ("error: map 'example4(17)' of dimension 17 would hold 131072 boxes "
                       f"at its point {(-5.0,) + (0.0,) * 16}: 4456448 coordinates exceed "
                       f"MAX_HELD_POINTS = {MAX_HELD_POINTS}\n")


class TestGraphCornerBudget:
    """``check graph`` lists the corners of its shifted images against
    MAX_HELD_POINTS, the budget of every other list of coordinates; no
    dimension limits it."""

    def test_help_names_no_dimension_limit(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        assert "dimension <=" not in " ".join(capsys.readouterr().out.split())

    def test_point_images_of_20_dimensions_are_probed(self, capsys):
        # each image of normgrad is a set of points, one corner each; the
        # k = 4 unit vectors at the origin miss e_3
        code, out, err = run(capsys, "check", "graph", "--map", "normgrad", "--dim", "20",
                             "--samples", "1")
        assert code == 3 and err == ""
        report = json.loads(out)
        e3 = [0.0] * 20
        e3[2] = 1.0
        assert report["samples"] == 1 and report["certificate"]["x"] == [0.0] * 20
        assert report["certificate"]["direction"] == report["certificate"]["vertex"] == e3

    def test_example4_at_17_dimensions_is_refused_at_the_origin(self, capsys):
        # the first image evaluated, F(0), would hold 2^17 boxes in one factor
        code, out, err = run(capsys, "check", "graph", "--map", "example4", "--dim", "17",
                             "--samples", "1")
        assert code == 1 and out == ""
        assert err == ("error: map 'product' of dimension 17 would hold 131072 boxes "
                       f"at its point {(0.0,) * 17}: 4456448 coordinates exceed "
                       f"MAX_HELD_POINTS = {MAX_HELD_POINTS}\n")

    def test_two_hundred_boxes_exit_1_in_little_memory(self, tmp_path):
        # 200 boxes [i, i+1] x [0, 1]^15 have 2^16 corners each, 16
        # coordinates a corner: 209715200 coordinates, listed once at
        # least 3 GB
        boxes = [[[str(i), str(i + 1)]] + [["0", "1"]] * 15 for i in range(200)]
        path = tmp_path / "boxes200.json"
        path.write_text(json.dumps({"dim": 16, "pieces": [{"region": [], "image": boxes}]}))
        code, text, peak_kb = measured_cli("check", "graph", "--map", str(path),
                                           "--samples", "1")
        assert code == 1 and "Traceback" not in text
        assert text == ("error: the corner list of 200 box(es) of dimension 16 would hold "
                        f"209715200 coordinates, more than MAX_HELD_POINTS = {MAX_HELD_POINTS}\n")
        assert peak_kb < 100 * 1024


class TestMapResolution:
    def test_aliases(self):
        assert resolve_map("example2F").label == "example2_F"
        assert resolve_map("EXAMPLE2_g").label == "example2_G"
        assert resolve_map("normgrad3", k=6).label == "normgrad(3,6)"
        assert resolve_map("example4", dim=2).label == "example4(2)"

    def test_map_file_path(self, tmp_path):
        import pathlib
        src = pathlib.Path(__file__).resolve().parent.parent / "maps" / "example1.json"
        m = resolve_map(str(src))
        assert m.evaluate((0.5,)).boxes[0].lo == (-1.0,)

    def test_solve_from_map_file_uses_declared_growth(self, capsys):
        import pathlib
        src = pathlib.Path(__file__).resolve().parent.parent / "maps" / "example3.json"
        # no --N: the mesh is sized from the growth constants in the file
        code, out, _ = run(
            capsys, "solve", "--map", str(src), "--x0", "0.5,0.5",
            "--T", "0.25",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["steps"] >= 1
        assert doc["monotone"][1] in ("increasing", "decreasing", "identically-zero")


ROOT = Path(__file__).resolve().parent.parent


def readme_commands():
    """Each ``diffinc`` line of README's "Command line" block, with its
    continuation lines joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return block.replace("\\\n", " ").splitlines()


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_runs_as_documented(line, capsys, tmp_path, monkeypatch):
    # the exit code is the line's "# exits N" note, or 0 without one
    note = re.search(r"#\s*exits (\d+)", line)
    argv = shlex.split(line, comments=True)
    assert argv[0] == "diffinc"
    argv = [str(ROOT / a) if a.startswith("maps/") else a for a in argv[1:]]
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == (int(note.group(1)) if note else 0), err
