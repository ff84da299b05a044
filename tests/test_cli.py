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

from diffinc.analyzer import MAX_HELD_POINTS
from diffinc.cli import main, resolve_map
from diffinc.setmap import MAX_VERTEX_DIM, UnionMap
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
            "--output", str(out_file), "--no-timestamp",
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
            "--output", str(out_file), "--no-timestamp",
        )
        assert code == 1 and out == ""
        assert "unrecognized arguments: --format json" in err
        assert not out_file.exists()

    def test_pinned_example1(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--map", "example1", "--x0", "0", "--v0", "1",
            "--T", "1", "--N", "10", "--no-timestamp",
        )
        assert code == 0
        assert json.loads(out)["terminal"][0] == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_exit_2_with_certificate(self, capsys):
        code, out, err = run(
            capsys, "solve", "--map", "antisign", "--x0", "1", "--v0", "-1",
            "--T", "2", "--N", "64", "--no-timestamp",
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


class TestConverge:
    def test_report_written(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "converge", "--map", "example4", "--dim", "1",
            "--x0", "-1", "--v0", "-1", "--T", "1", "--N0", "16",
            "--levels", "3", "--output", str(out_file), "--no-timestamp",
        )
        assert code == 0
        doc = json.loads(out_file.read_text(encoding="utf-8"))
        assert doc["deltas"] == [0.0, 0.0]
        assert [lvl["steps"] for lvl in doc["levels"]] == [16, 32, 64]

    def test_infeasible_exit_2_with_level(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--map", "antisign", "--x0", "1", "--v0", "-1",
            "--T", "2", "--N0", "8", "--levels", "3", "--no-timestamp",
        )
        assert code == 2
        assert json.loads(out)["infeasible"]["level"] == 0

    def test_deltas_are_reported_not_judged(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--map", "example2F", "--x0", "1", "--v0", "1",
            "--policy", "lex-max", "--T", "1", "--N0", "125", "--levels", "3",
            "--no-timestamp",
        )
        assert code == 0
        deltas = json.loads(out)["deltas"]
        assert len(deltas) == 2 and all(d > 0 for d in deltas)


class TestCheck:
    def test_wcm_pass_exit_0(self, capsys):
        code, out, _ = run(
            capsys, "check", "wcm", "--map", "example3", "--radius", "10",
            "--samples", "300", "--seed", "7", "--no-timestamp",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "pass-sampled"

    def test_monotone_fail_exit_3(self, capsys):
        code, out, _ = run(
            capsys, "check", "monotone", "--map", "example2F", "--radius", "5",
            "--samples", "500", "--seed", "7", "--no-timestamp",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["verdict"] == "fail" and "certificate" in doc

    def test_wcm_normgrad_fail(self, capsys):
        code, out, _ = run(
            capsys, "check", "wcm", "--map", "normgrad2", "--radius", "5",
            "--samples", "2000", "--seed", "42", "--no-timestamp",
        )
        assert code == 3

    def test_growth_pass_reports_the_declared_constants(self, capsys):
        code, out, _ = run(
            capsys, "check", "growth", "--map", "example1", "--radius", "10",
            "--samples", "100", "--seed", "7", "--no-timestamp",
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["verdict"], doc["samples"]) == ("pass-sampled", 106)
        assert doc["declared"] == [1.0, 0.0]
        assert "certificate" not in doc and "fit" not in doc

    def test_growth_fail_reports_a_certificate(self, capsys, tmp_path):
        path = tmp_path / "low_growth.json"
        path.write_text('{"dim": 1, "growth": [0.1, 0], "builtin": {"name": "example1"}}')
        code, out, _ = run(capsys, "check", "growth", "--map", str(path), "--samples", "5",
                           "--no-timestamp")
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
            "--samples", "100", "--seed", "810910", "--no-timestamp",
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
                           "1e-310", "--samples", "20", "--seed", "1", "--no-timestamp")
        assert code == 0

        def reject(name):
            raise ValueError(f"non-finite number {name} in the growth report")

        assert json.loads(out, parse_constant=reject)["verdict"] == "pass-sampled"

    @pytest.mark.parametrize("condition", ["monotone", "cyclic"])
    def test_violation_below_double_range_is_minus_infinity(self, capsys, tmp_path,
                                                            condition):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 1, "pieces": [{"region": [], "image": [
            [["-1e300*sign(x)", "-1e300*sign(x)"]]]}]}))
        code, out, _ = run(capsys, "check", condition, "--map", str(path),
                           "--radius", "1e300", "--no-timestamp")
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
                             "--samples", "50", "--no-timestamp")
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
                           "--seed", "1", "--no-timestamp")
        assert code == 3

        def reject(name):
            raise ValueError(f"non-finite JSON number {name}")

        assert json.loads(out, parse_constant=reject)["certificate"]["v"] == [1.7e308, 2.0]

    def test_graph_check_runs(self, capsys):
        code, out, _ = run(
            capsys, "check", "graph", "--map", "example1", "--samples", "30",
            "--seed", "7", "--no-timestamp",
        )
        assert code == 0

    def test_byte_identical_reports(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["check", "wcm", "--map", "example1", "--radius", "5",
                "--samples", "200", "--seed", "11", "--no-timestamp"]
        assert main(argv + ["--output", str(f1)]) == 0
        assert main(argv + ["--output", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_timestamp_present_by_default(self, capsys):
        code, out, _ = run(
            capsys, "check", "wcm", "--map", "example1", "--samples", "50",
            "--seed", "1",
        )
        assert code == 0
        assert "timestamp" in json.loads(out)


class TestListExamples:
    def test_plain_listing(self, capsys):
        code, out, _ = run(capsys, "list-examples")
        assert code == 0
        for name in ("example1", "example2_F", "example4", "antisign", "normgrad"):
            assert name in out

    def test_json_listing(self, capsys):
        code, out, _ = run(capsys, "list-examples", "--json")
        assert code == 0
        rows = json.loads(out)
        assert {r["name"] for r in rows} >= {"example1", "normgrad"}


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
             "example1", "--samples", "50", "--seed", "1", "--no-timestamp"],
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
        code, out, err = run(capsys, *argv.split(), "--no-timestamp")
        assert code == 0 and "Traceback" not in err
        if argv.startswith("solve"):
            report = json.loads(out)
            assert report["steps"] == 4
            assert report["initial_velocity"] == [0.7071067811865475, 0.7071067811865475]

    def test_overflowing_bounds_warn_without_the_mesh_check(self, capsys):
        with pytest.warns(UserWarning, match="no finite mesh"):
            code, out, err = run(capsys, "solve", "--map", "example2_F", "--x0", "1e308",
                                 "--T", "1", "--N", "4", "--no-mesh-check", "--no-timestamp")
        assert code == 0 and "Traceback" not in err
        assert json.loads(out)["terminal"] == [1e308]

    def test_invalid_map_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 1, "pieces": [{"region": [{"var": 1, "op": "gt", "bound": 0}], "image": [[["0", "1"]]]}]}')
        code, _, err = run(capsys, "solve", "--map", str(bad), "--x0", "0", "--T", "1")
        assert code == 1
        assert "empty image" in err

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
        assert "radius must be finite and in (0, 8.988465674311579e+307]" in err

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
                      "--T", "2", "--N", "32", "--no-timestamp")[0])
        codes.add(run(capsys, "check", "monotone", "--map", "example1",
                      "--samples", "300", "--seed", "7", "--no-timestamp")[0])
        assert codes <= {0, 1, 2, 3}


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
                           "--x0", ones, "--T", "1e-4", "--no-timestamp")
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
        code, out, err = run(capsys, "check", *argv, "--no-timestamp")
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert held in err and f"MAX_HELD_POINTS = {MAX_HELD_POINTS}" in err

    def test_growth_draws_its_points_lazily(self, capsys, tmp_path):
        # |F(0)| = 1 breaks the declared A = 0.1 at the first point
        path = tmp_path / "low_growth.json"
        path.write_text('{"dim": 1, "growth": [0.1, 0], "builtin": {"name": "example1"}}')
        start = time.perf_counter()
        code, out, _ = run(capsys, "check", "growth", "--map", str(path),
                           "--samples", "30000000", "--no-timestamp")
        assert time.perf_counter() - start < 0.5
        assert code == 3 and json.loads(out)["samples"] == 1


class TestGraphDimensionLimit:
    def test_help_states_the_limit(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        assert f"dimension <= {MAX_VERTEX_DIM}" in " ".join(capsys.readouterr().out.split())

    def test_above_the_limit_exits_1(self, capsys):
        code, out, err = run(capsys, "check", "graph", "--map", "example4", "--dim", "17",
                             "--samples", "1")
        assert code == 1 and out == ""
        assert f"vertices limited to dimension {MAX_VERTEX_DIM}" in err

    def test_refused_before_the_map_is_evaluated(self, capsys, monkeypatch):
        # example4 is a union; at 17 dimensions one image holds 2^18 boxes
        calls = []
        monkeypatch.setattr(UnionMap, "_eval", lambda m, x: calls.append(x))
        code, out, err = run(capsys, "check", "graph", "--map", "example4", "--dim", "17",
                             "--samples", "1")
        assert code == 1 and calls == []
        assert f"vertices limited to dimension {MAX_VERTEX_DIM}" in err


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
            "--T", "0.25", "--no-timestamp",
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
