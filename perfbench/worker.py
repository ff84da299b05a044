"""One benchmark run inside a fresh interpreter.

    worker.py probe OPS TMP
        import diffinc and build every map the ops name once; print the
        seconds that took and the machine's speed right after as JSON.
    worker.py run OPS TMP --seconds S --trace 0|1 --out RESULT [--golden FILE]
        the same set-up, then passes over the op list.  The first pass
        checks every output in full.  Untraced, passes repeat until S
        seconds and at least MIN_PASSES passes are done; each op's time
        is taken at reference speed (see below) and its latency is the
        median over the passes.  Traced, the first pass is the untraced
        reference and traced passes follow until S seconds are done.

Ops are `diffinc.cli.main(argv)` calls made back to back by one client
(a closed loop).  Outputs of later passes are compared by digest with the
first pass, whose digests are compared with the golden record when one
is given.

Reference speed.  On a shared host the same pass runs up to 1.7 times
slower for a minute or more, and CPU time slows with wall time, so no
raw timing repeats from run to run.  After every op, outside its timer,
the worker times `reference_task` (fixed pure-Python work: floats,
tuples, a dict and Fraction, no diffinc code) REFERENCE_SAMPLES times.
An op's time at reference speed is its wall time times REFERENCE_MS over
the mean reference time of its pass.  The raw times are reported too.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

# An op's latency is the median of at least this many passes.  On a
# shared machine the best of a few passes depends on whether a fast phase
# happened to fall into the run; the median of passes spread over the run
# moves far less from run to run.
MIN_PASSES = 3

# Mean time of one reference_task() call on an idle 2-core x86-64 VM with
# CPython 3.11: the unit that times at reference speed are scaled to.
REFERENCE_MS = 0.4
REFERENCE_SAMPLES = 2   # reference_task() calls timed after every op
SETUP_REFERENCE_SAMPLES = 40


def reference_task() -> float:
    """Fixed work of the kinds diffinc spends its time on; about 0.4 ms."""
    s, f, d = 0.0, Fraction(1, 3), {}
    for i in range(600):
        x = (i * 1.0001, -i * 0.5)
        s += abs(x[0]) ** (1 / 3) - max(x)
        d[i % 17] = x
        if i % 20 == 0:
            f = f * Fraction(i + 1, i + 2) + 1
    return s + float(f) + len(d)


def reference_ms(count: int) -> list[float]:
    """Times of `count` reference_task() calls, in ms."""
    out = []
    for _ in range(count):
        t0 = perf_counter()
        reference_task()
        out.append((perf_counter() - t0) * 1000.0)
    return out


def _load_ops(path: str, tmp: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read().replace("{tmp}", tmp)
    return json.loads(text)


def _setup(ops: list[dict]) -> tuple[float, dict]:
    """Import diffinc and build each map once; (seconds, maps by key)."""
    t0 = perf_counter()
    import diffinc
    import diffinc.cli  # noqa: F401  (the CLI module is part of set-up)

    maps = {}
    for op in ops:
        key = json.dumps(op["map"], sort_keys=True)
        if key not in maps:
            spec = op["map"]
            maps[key] = (diffinc.load_map(spec["file"]) if "file" in spec
                         else diffinc.builtin(spec["builtin"], spec["params"]))
    return perf_counter() - t0, maps


def _run_op(main, op: dict) -> tuple[int | None, str, float, str]:
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(op["argv"])
    except Exception:  # a traceback is a failed op, not a failed run
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), perf_counter() - t0, err.getvalue()


def _payload(text: str) -> dict | None:
    try:
        return json.loads(text)
    except ValueError:
        return None


def _work(op: dict, rc: int | None, payload: dict | None) -> tuple[int, int]:
    """(Euler steps, decided pairs) an op completed."""
    if payload is None:
        return 0, 0
    if rc == 2:
        return payload["infeasible"].get("step", 0), 0
    if op["kind"] == "solve":
        return payload["steps"], 0
    if op["kind"] == "converge":
        return sum(lvl["steps"] for lvl in payload["levels"]), 0
    return 0, payload.get("samples", 0)


def _csv(op: dict) -> bytes | None:
    if not op.get("csv"):
        return None
    with open(op["csv"], "rb") as fh:
        return fh.read()


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


class Run:
    def __init__(self, ops, maps, golden):
        from diffinc import cli
        import checks

        self.cli = cli
        self.checks = checks
        self.ops = ops
        self.maps = maps
        self.golden = golden
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, op: dict, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{op['id']} ({' '.join(op['argv'])}): {what}")

    def _digest(self, op, rc, payload, csv) -> str | None:
        if payload is None or rc != op["expect"]:
            return None
        return self.checks.digest(self.checks.result_fields(op, rc, payload), csv)

    def _verify(self, op, rc, payload, csv, err) -> str | None:
        """Full check of one output; records the reference digest."""
        m = self.maps[json.dumps(op["map"], sort_keys=True)]
        try:
            problems = self.checks.verify(op, rc, payload, csv, m)
        except Exception:
            problems = ["output check raised: " + traceback.format_exc(limit=2)]
        if rc is None:
            problems.append(err.strip().splitlines()[-1])
        digest = self._digest(op, rc, payload, csv)
        if not problems and self.golden is not None and digest != self.golden.get(op["id"]):
            problems.append("result digest differs from the golden record")
        self.reference[op["id"]] = digest
        return "; ".join(problems) or None

    def run_pass(self, verify: bool, tracer=None) -> dict:
        """Run every op once.  The first pass (`verify`) checks every output
        in full; later passes compare result digests with it.  Checks run
        outside the op timers.  Untraced, the reference task is timed
        after every op."""
        lat, ref, steps, pairs = [], [], 0, 0
        t0 = perf_counter()
        for op in self.ops:
            rc, out, dt, err = _run_op(self.cli.main, op)
            self.attempted += 1
            lat.append(dt)
            if tracer is None:
                ref.extend(reference_ms(REFERENCE_SAMPLES))
            payload = _payload(out)
            csv = _csv(op) if rc == 0 else None
            if verify:
                problem = self._verify(op, rc, payload, csv, err)
            else:
                digest = self._digest(op, rc, payload, csv)
                problem = (None if digest is not None and digest == self.reference[op["id"]]
                           else f"exit {rc} or result differs from the verification pass")
            if problem:
                self._fail(op, problem)
            s, p = _work(op, rc, payload)
            steps += s
            pairs += p
            if tracer is not None:
                tracer.count("cli.stdout.bytes", len(out.encode("utf-8")))
        return {"wall": perf_counter() - t0, "latencies": lat, "steps": steps,
                "pairs": pairs, "reference_ms": statistics.fmean(ref) if ref else None}


def _untraced(run: Run, seconds: float) -> dict:
    """The verification pass is the first measured pass."""
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        passes.append(run.run_pass(verify=not passes))
    raw = [statistics.median(op) for op in zip(*(p["latencies"] for p in passes))]
    scaled = [statistics.median(op) for op in zip(*(
        [t * REFERENCE_MS / p["reference_ms"] for t in p["latencies"]] for p in passes))]
    kinds = [op["kind"] for op in run.ops]
    step_s = sum(t for t, kind in zip(scaled, kinds) if kind != "check")
    pair_s = sum(t for t, kind in zip(scaled, kinds) if kind == "check")
    steps, pairs = passes[0]["steps"], passes[0]["pairs"]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def timings(lat: list[float]) -> dict:
        ordered = sorted(lat)
        return {
            "wall_s": (sum(lat), "s"),
            "latency_p50_ms": (_quantile(ordered, 0.5) * 1000.0, "ms"),
            "latency_p90_ms": (_quantile(ordered, 0.9) * 1000.0, "ms"),
            "items_per_s": ((steps + pairs) / sum(lat), "items/s"),
        }

    return {
        "metrics": {**timings(scaled), "peak_rss_mb": (rss_mb, "MB")},
        "extra": {
            "steps_per_s": (steps / step_s, "steps/s") if steps else None,
            "pairs_per_s": (pairs / pair_s, "pairs/s") if pairs else None,
            "raw": {k: v for k, (v, _) in timings(raw).items()},
            "latency_samples": len(scaled),
            "passes": len(passes),
            "pass_op_time_s": [sum(p["latencies"]) for p in passes],
            "pass_reference_ms": [p["reference_ms"] for p in passes],
        },
    }


def _traced(run: Run, seconds: float, spans_path: str | None) -> dict:
    import tracing

    untraced = sum(run.run_pass(verify=True)["latencies"])
    present = tracing.present_names()
    tracer = tracing.Tracer()
    tracer.install()
    per_pass, counts = [], None
    start = perf_counter()
    while True:
        p = run.run_pass(verify=False, tracer=tracer)
        raw = tracer.snapshot()
        layer = tracing.layer_metrics(raw, present)
        harness = p["wall"] - raw["trace.root_s"]
        layer["trace.overhead_ratio"] = (sum(p["latencies"]) / untraced, "ratio")
        layer["trace.harness_share"] = (harness / p["wall"], "ratio")
        layer["trace.accounted_ratio"] = (
            (raw["trace.main_self_s"] + raw["trace.covered_s"] + harness) / p["wall"], "ratio")
        these = {k: v for k, (v, unit) in layer.items()
                 if unit in ("count", "bytes") and k not in tracing.TIMING_DEPENDENT}
        if counts is None:
            counts = these
        elif these != counts:
            run.problems.append("per-layer counts differ between traced passes")
            run.failed += 1
        per_pass.append(layer)
        if perf_counter() - start >= seconds:
            break
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for name, thread, t0, t1 in tracer.spans:
                fh.write(json.dumps({"name": name, "thread": thread,
                                     "start": t0, "end": t1}) + "\n")
    metrics = {}
    for key, (_, unit) in per_pass[0].items():
        values = [layer[key][0] for layer in per_pass]
        exact = unit in ("count", "bytes") and key not in tracing.TIMING_DEPENDENT
        metrics[key] = (values[0] if exact else statistics.median(values), unit)
    return {"metrics": metrics, "extra": {"passes": len(per_pass)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["probe", "run"])
    parser.add_argument("ops")
    parser.add_argument("tmp")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--golden")
    args = parser.parse_args(argv)

    ops = _load_ops(args.ops, args.tmp)
    # Reference times bracket set-up, half before and half after; the
    # first call warms the task up and is not counted.
    half = SETUP_REFERENCE_SAMPLES // 2
    before = reference_ms(half + 1)[1:]
    setup_s, maps = _setup(ops)
    setup_reference_ms = statistics.fmean(before + reference_ms(half))
    if args.mode == "probe":
        print(json.dumps({"setup_s": setup_s, "reference_ms": setup_reference_ms}))
        return 0

    golden = None
    if args.golden:
        with open(args.golden, encoding="utf-8") as fh:
            golden = json.load(fh)
    run = Run(ops, maps, golden)
    if args.trace:
        result = _traced(run, args.seconds, args.spans)
    else:
        result = _untraced(run, args.seconds)
    result.update(setup_s=setup_s, setup_reference_ms=setup_reference_ms,
                  attempted=run.attempted, failed=run.failed,
                  problems=run.problems, reference=run.reference)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
