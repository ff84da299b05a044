"""diffinc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload refine|check|mapfile --seed N \
        --seconds S --trace 0|1

Run from the root of a diffinc checkout; diffinc is imported from
`src/`.  The run generates the workload's op list and map files from the
seed, measures set-up in fresh interpreters, then hands the ops to one
worker process (see worker.py).  With --trace 0 it reports the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced
run.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Times are taken at reference speed (see worker.py).  The lines before
it print the same run for people, with the metrics that exist only on
some workloads (steps_per_s, pairs_per_s), the failure ratio and the raw
wall-clock times (raw_*).  A record of the run, with the interpreter version, CPU counts,
the commit when known and the seed, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import REFERENCE_MS  # noqa: E402

SETUP_PROBES = 10       # fresh interpreters timed for setup_s, besides the worker
GOLDEN_SEED = 1         # the seed whose result digests are recorded in golden.json
DEADLINE_S = 170.0      # every run ends within this many seconds


def _source_digest(src: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _commit() -> str | None:
    """HEAD of a git checkout in the current directory, read from .git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", *ref.split("/"))
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _python(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          env=env, capture_output=True, text=True, timeout=timeout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="diffinc benchmark run")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help=f"record this run's result digests (seed {GOLDEN_SEED} only)")
    args = parser.parse_args(argv)
    started = perf_counter()

    src = os.path.join("src", "diffinc")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        print("error: run from the root of a diffinc checkout (no src/diffinc here)",
              file=sys.stderr)
        return 2
    if args.write_golden and args.seed != GOLDEN_SEED:
        print(f"error: --write-golden needs --seed {GOLDEN_SEED}", file=sys.stderr)
        return 2

    # relative, so outputs that echo a path are the same in every checkout
    tmp = os.path.join(".perfbench_tmp", f"{args.workload}-{args.seed}")
    out_dir = ".perfbench_out"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(tmp, "maps"))
    os.makedirs(os.path.join(tmp, "out"))
    os.makedirs(out_dir, exist_ok=True)
    try:
        ops, files = workloads.make(args.workload, args.seed)
        for name, text in files.items():
            with open(os.path.join(tmp, "maps", name), "w", encoding="utf-8") as fh:
                fh.write(text)
        ops_path = os.path.join(tmp, "ops.json")
        with open(ops_path, "w", encoding="utf-8") as fh:
            json.dump(ops, fh, indent=1)

        env = dict(os.environ)
        env.pop("DIFFINC_THREADS", None)   # the CLI's own default thread count
        env["PYTHONPATH"] = os.path.abspath("src")

        def probe_setup(count: int) -> bool:
            for _ in range(count):
                probe = _python(["probe", ops_path, tmp], env, 60)
                if probe.returncode != 0:
                    print(probe.stderr, file=sys.stderr)
                    return False
                sample = json.loads(probe.stdout)
                setups.append(sample["setup_s"])
                setup_refs.append(sample["reference_ms"])
            return True

        # Half the set-up probes run before the worker and half after, so
        # that their median spans the run's phases of a shared machine.
        # Each probe also times the reference task right after set-up.
        setups: list[float] = []
        setup_refs: list[float] = []
        if not probe_setup(SETUP_PROBES // 2):
            return 1

        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        result_path = os.path.join(tmp, "result.json")
        cmd = ["run", ops_path, tmp, "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", result_path]
        if args.trace:
            cmd += ["--spans", os.path.join(out_dir, f"spans-{tag}.jsonl")]
        golden_path = os.path.join(HERE, "golden.json")
        golden = {}
        if os.path.isfile(golden_path):
            with open(golden_path, encoding="utf-8") as fh:
                golden = json.load(fh)
        if args.seed == GOLDEN_SEED and args.workload in golden and not args.write_golden:
            with open(os.path.join(tmp, "golden.json"), "w", encoding="utf-8") as fh:
                json.dump(golden[args.workload], fh)
            cmd += ["--golden", os.path.join(tmp, "golden.json")]
        worker = _python(cmd, env, DEADLINE_S - 15.0 - (perf_counter() - started))
        if worker.returncode != 0:
            print(worker.stderr, file=sys.stderr)
            return 1
        if not probe_setup(SETUP_PROBES - SETUP_PROBES // 2):
            return 1
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.write_golden:
        golden[args.workload] = result["reference"]
        with open(golden_path, "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    setups.append(result["setup_s"])
    setup_refs.append(result["setup_reference_ms"])
    scaled_setups = [t * REFERENCE_MS / r for t, r in zip(setups, setup_refs)]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(scaled_setups), "unit": "s"}
    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "cpu_count": os.cpu_count(), "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(), "source_sha256": _source_digest(src),
        "attempted": attempted, "failed": failed, "problems": result["problems"],
        "metrics": metrics, "extra": result["extra"], "setup_samples_s": setups,
        "setup_reference_ms": setup_refs,
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for problem in result["problems"]:
        print(f"FAILED {problem}")
    extra = result["extra"]
    shown = dict((k, (m["value"], m["unit"])) for k, m in metrics.items())
    if not args.trace:
        for key in ("steps_per_s", "pairs_per_s"):
            shown[key] = extra[key] or ("n/a", "")
        shown["failed_frac"] = (failed / attempted, "ratio")
        for key, value in extra["raw"].items():
            shown["raw_" + key] = (value, metrics[key]["unit"])
        shown["raw_setup_s"] = (statistics.median(setups), "s")
        shown["reference_ms"] = (statistics.median(extra["pass_reference_ms"]), "ms")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} python="
          f"{record['python']} cpus={record['cpu_count']} nproc={record['nproc']} "
          f"commit={record['commit'] or 'unknown'} passes={extra['passes']} "
          f"latency_samples={extra.get('latency_samples', 'n/a')}")
    for key, (value, unit) in shown.items():
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"#   {key:<42} {text:>14} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
