"""Tests of the benchmark itself (not of diffinc).

    python -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys

import pytest

import workloads
from conftest import BENCH, ROOT
from diffinc import parse_map

SEEDS = (1, 2, 17)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes(workload):
    for seed in SEEDS:
        ops1, files1 = workloads.make(workload, seed)
        ops2, files2 = workloads.make(workload, seed)
        assert json.dumps(ops1) == json.dumps(ops2)
        assert files1 == files2
    assert json.dumps(workloads.make(workload, 1)) != json.dumps(workloads.make(workload, 2))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_ops_are_sized_for_the_p90(workload):
    ops, _ = workloads.make(workload, 1)
    # each op's median latency over the passes is one sample; the 90th
    # percentile needs ten samples beyond it
    assert len(ops) >= 100
    assert len({op["id"] for op in ops}) == len(ops)
    assert all("--threads" not in op["argv"] for op in ops)


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_maps_parse(seed):
    files = workloads.generated_maps(seed)
    assert len(files) == len(workloads._GEN_SLOTS)
    dims = set()
    for text in files.values():
        m = parse_map(text)
        dims.add(m.dim)
        assert m.evaluate((0.5,) * m.dim).contains((0.0,) * m.dim)
    assert dims == {1, 2, 3}


def _cheap(op):
    argv = op["argv"]
    if "--N" in argv:
        return int(argv[argv.index("--N") + 1]) <= 1100
    if "--N0" in argv:
        return int(argv[argv.index("--N0") + 1]) <= 260
    return op["expect"] == 3 or op.get("budget", 0) <= 1000


def _subset(workload):
    """A cheap slice of a workload: one op per kind, exit code and condition."""
    ops, files = workloads.make(workload, 3)
    seen, out = set(), []
    for op in ops:
        key = (op["kind"], op["expect"], op["argv"][1])
        if key not in seen and _cheap(op):
            seen.add(key)
            out.append(op)
    return out, files


def _worker(tmp_path, workload, trace, name):
    ops, files = _subset(workload)
    tmp = tmp_path / name
    (tmp / "maps").mkdir(parents=True)
    (tmp / "out").mkdir()
    for fname, text in files.items():
        (tmp / "maps" / fname).write_text(text, encoding="utf-8")
    ops_path = tmp / "ops.json"
    ops_path.write_text(json.dumps(ops), encoding="utf-8")
    out = tmp / "result.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("DIFFINC_THREADS", None)
    subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), "run", str(ops_path),
                    str(tmp), "--seconds", "0", "--trace", str(trace), "--out", str(out)],
                   cwd=ROOT, env=env, check=True, timeout=300)
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_every_metric_has_a_unit(tmp_path, workload):
    first = _worker(tmp_path, workload, 1, "a")
    second = _worker(tmp_path, workload, 1, "b")
    assert first["failed"] == 0 and second["failed"] == 0, first["problems"]
    counts = {k: v for k, (v, unit) in first["metrics"].items()
              if unit in ("count", "bytes") and k != "analyzer.pool.speculative_items"}
    assert counts == {k: second["metrics"][k][0] for k in counts}
    assert counts["setmap.evaluate.calls"] > 0
    declared = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: unit for k, (_, unit) in first["metrics"].items()} == declared


def test_untraced_metrics_match_the_spec(tmp_path):
    result = _worker(tmp_path, "check", 0, "u")
    assert result["failed"] == 0, result["problems"]
    declared = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    printed = {k: unit for k, (_, unit) in result["metrics"].items()}
    printed["setup_s"] = "s"  # added by run.py from the set-up probes
    assert printed == declared
    assert all(value > 0 for value, _ in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                           "check", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
