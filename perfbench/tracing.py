"""Spans around the calls into each diffinc module, from outside diffinc.

`Tracer.install()` replaces each traced public function at every module
binding of it inside the `diffinc` package, the `evaluate` method of
every map class, and `Box.__init__` (counted, not timed).  A name that
is missing is skipped, so its metrics are absent instead of the run
failing.

Each thread keeps its own span stack and its own aggregates, so pool
workers nest correctly and no two threads update one counter.  A span
that opens on a pool thread with an empty stack belongs to the span
open on the main thread at the time (the check or study that owns the
pool): its interval is recorded there, and the part of the owner's
interval that such spans cover is subtracted from the owner's self
time.  Self time is a span's duration minus its children.

Aggregates stay in memory; `snapshot()` turns them into per-layer
metrics and clears them.  Coarse spans (everything but the per-step
layers) are kept in `spans` and written out by the caller at the end.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, attribute, metric prefix)
FUNCTIONS = [
    ("setmap", "real_cbrt", "setmap.real_cbrt"),
    ("setmap", "vertices", "setmap.vertices"),
    ("setmap", "distance", "setmap.distance"),
    ("selector", "feasible_region", "selector.feasible_region"),
    ("selector", "select_velocity", "selector.select_velocity"),
    ("solver", "euler_polygon", "solver.euler_polygon"),
    ("solver", "converge", "solver.converge"),
    ("solver", "trajectory_to_csv", "solver.trajectory_to_csv"),
    ("analyzer", "residual", "analyzer.residual"),
    ("analyzer", "check_trajectory_monotone", "analyzer.check_trajectory_monotone"),
    ("analyzer", "check_wcm", "analyzer.check_wcm"),
    ("analyzer", "check_wcm_pair", "analyzer.check_wcm_pair"),
    ("analyzer", "find_monotonicity_violation", "analyzer.monotone"),
    ("analyzer", "find_cyclic_violation", "analyzer.cyclic"),
    ("mapdsl", "parse_map", "mapdsl.parse_map"),
    ("mapdsl", "validate_map", "mapdsl.validate_map"),
    ("mapdsl", "parse_expr", "mapdsl.parse_expr"),
    ("cli", "main", "cli.main"),
    ("cli", "resolve_map", "cli.resolve_map"),
]

# Spans too frequent to keep one record each; they are only aggregated.
_HOT = {"setmap.real_cbrt", "setmap.vertices", "setmap.distance",
        "selector.feasible_region", "selector.select_velocity",
        "analyzer.check_wcm_pair", "mapdsl.parse_expr"}
_CHECKS = {"analyzer.check_wcm", "analyzer.monotone", "analyzer.cyclic"}
# Map evaluations made directly under these spans are counted per scope.
_EVAL_SCOPES = ("analyzer.residual", "mapdsl.validate_map")
_EVAL_KINDS = ("piecewise", "product", "union", "builtin")
# Counts that depend on thread timing; every other count repeats exactly.
TIMING_DEPENDENT = {"analyzer.pool.speculative_items"}


def _on_return(name: str, counters, args, result) -> None:
    if name == "selector.feasible_region" and result is None:
        counters["selector.feasible_region.empty"] += 1
    elif name == "solver.euler_polygon":
        counters["solver.euler_polygon.steps"] += result.steps
    elif name == "solver.trajectory_to_csv":
        counters["solver.trajectory_to_csv.bytes"] += len(result.encode("utf-8"))
    elif name == "analyzer.residual":
        counters["analyzer.residual.steps"] += args[0].steps
    elif name in _CHECKS:
        counters["analyzer.pairs.decided"] += result.samples
        counters["analyzer.pairs.failed"] += int(result.failed)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []   # frames: [name, child time, pool intervals]
        self.agg: dict[str, list] = defaultdict(lambda: [0, 0.0])  # calls, self s
        self.counters: dict[str, float] = defaultdict(int)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._main = self._state()
        self.spans: list[tuple] = []  # (name, thread, start, end)
        self.root_s = 0.0             # main-thread root span time
        self.main_self_s = 0.0        # main-thread self time
        self.covered_s = 0.0          # owner time covered by pool-thread spans

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            self._states.append(st)
        return st

    def count(self, name: str, n: float = 1) -> None:
        self._state().counters[name] += n

    def wrap(self, fn, name: str, evaluate: bool = False):
        tracer = self
        keep = name not in _HOT and not evaluate
        scoped = evaluate

        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            if scoped and stack and stack[-1][0] in _EVAL_SCOPES:
                st.counters[stack[-1][0] + ".evals"] += 1
            frame = [name, 0.0, None]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._close(st, frame, t0, t1, keep)
            try:
                _on_return(name, st.counters, args, result)
            except (AttributeError, IndexError, TypeError):
                pass  # a changed signature or result loses its counter, not the run
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, st: _ThreadState, frame: list, t0: float, t1: float,
               keep: bool) -> None:
        name, child, pool = frame
        dur = t1 - t0
        covered = _covered(pool) if pool else 0.0
        a = st.agg[name]
        a[0] += 1
        a[1] += dur - child - covered
        if name in _CHECKS:
            st.counters["analyzer.pool.busy_s"] += child + sum(b - s for s, b in pool or ())
            st.counters["analyzer.pool.wall_s"] += dur
        if st is self._main:
            self.main_self_s += dur - child - covered
            self.covered_s += covered
        stack = st.stack
        if stack:
            stack[-1][1] += dur
        elif st is self._main:
            self.root_s += dur
        elif self._main.stack:
            owner = self._main.stack[-1]
            with self._lock:
                if owner[2] is None:
                    owner[2] = []
            owner[2].append((t0, t1))
        if keep:
            self.spans.append((name, threading.current_thread().name, t0, t1))

    def count_calls(self, fn, name: str):
        tracer = self

        def counted(*args, **kwargs):
            tracer._state().counters[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def per_item(self, first_failure):
        """Wrap analyzer's sampled-check skeleton ``(items, decide,
        threads) -> (index, certificate)``.

        With a thread pool, the skeleton decides items past the first
        failure before it sees that failure, and how many depends on
        thread timing.  Counts made while deciding such an item are
        dropped (its time is kept) and the item is counted in
        ``analyzer.pool.speculative_items``, so every other count
        repeats exactly.
        """
        tracer = self

        def skeleton(items, decide, *args, **kwargs):
            buckets = []

            def decide_one(pair):
                st = tracer._state()
                saved = st.agg, st.counters
                st.agg, st.counters = defaultdict(lambda: [0, 0.0]), defaultdict(int)
                try:
                    return decide(pair[1])
                finally:
                    buckets.append((pair[0], st.agg, st.counters))
                    st.agg, st.counters = saved

            last = len(items)
            try:
                index, cert = first_failure(list(enumerate(items)), decide_one,
                                            *args, **kwargs)
                last = index
                return index, cert
            finally:
                main = tracer._main
                for i, agg, counters in buckets:
                    useful = i <= last
                    for name, (calls, self_s) in agg.items():
                        a = main.agg[name]
                        a[0] += calls if useful else 0
                        a[1] += self_s
                    if useful:
                        for name, v in counters.items():
                            main.counters[name] += v
                    else:
                        main.counters["analyzer.pool.speculative_items"] += 1

        skeleton.__wrapped__ = first_failure
        return skeleton

    def install(self) -> None:
        """Wrap the traced names of an imported diffinc package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "diffinc" or n.startswith("diffinc."))]
        for mod_name, attr, name in FUNCTIONS:
            mod = sys.modules.get(f"diffinc.{mod_name}")
            original = getattr(mod, attr, None) if mod is not None else None
            if original is None:
                continue
            wrapped = self.wrap(original, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        setmap = sys.modules.get("diffinc.setmap")
        base = getattr(setmap, "SetValuedMap", None)
        todo = list(base.__subclasses__()) if base is not None else []
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "evaluate" in vars(cls):
                kind = getattr(cls, "kind", cls.__name__.lower())
                cls.evaluate = self.wrap(vars(cls)["evaluate"],
                                         f"setmap.evaluate.{kind}", evaluate=True)
        analyzer = sys.modules.get("diffinc.analyzer")
        if hasattr(analyzer, "_first_failure"):
            analyzer._first_failure = self.per_item(analyzer._first_failure)
        box = getattr(setmap, "Box", None)
        if box is not None:
            box.__init__ = self.count_calls(box.__init__, "setmap.box.built")

    def snapshot(self) -> dict[str, float]:
        """Merged aggregates of all threads since the last snapshot: call
        counts and self seconds under "<name>.calls" / "<name>.self_s",
        plus the counters; then clear them."""
        out: dict[str, float] = defaultdict(float)
        for st in self._states:
            for name, (calls, self_s) in st.agg.items():
                out[name + ".calls"] += calls
                out[name + ".self_s"] += self_s
            for name, v in st.counters.items():
                out[name] += v
            st.agg.clear()
            st.counters.clear()
        out["trace.root_s"] = self.root_s
        out["trace.main_self_s"] = self.main_self_s
        out["trace.covered_s"] = self.covered_s
        self.root_s = self.main_self_s = self.covered_s = 0.0
        self._states = [s for s in self._states if s is self._main or s.stack]
        return dict(out)


def _ms(raw, key):
    return raw.get(key, 0.0) * 1000.0


def layer_metrics(raw: dict[str, float], present: set[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one pass from a snapshot.  `present` holds
    the traced names that exist in this version of diffinc; metrics of
    any other name are left out."""
    m: dict[str, tuple[float, str]] = {}

    def has(name):
        return name in present

    eval_names = [f"setmap.evaluate.{k}" for k in _EVAL_KINDS]
    eval_calls = sum(raw.get(n + ".calls", 0) for n in eval_names)
    eval_self = sum(raw.get(n + ".self_s", 0.0) for n in eval_names)
    m["setmap.evaluate.calls"] = (eval_calls, "count")
    m["setmap.evaluate.self_ms"] = (eval_self * 1000.0, "ms")
    m["setmap.evaluate.us_per_call"] = (eval_self * 1e6 / eval_calls if eval_calls else 0.0, "us")
    for n in eval_names:
        m[n + ".calls"] = (raw.get(n + ".calls", 0), "count")
    if has("setmap.box.built"):
        m["setmap.box.built"] = (raw.get("setmap.box.built", 0), "count")

    def calls_self(name):
        if has(name):
            m[name + ".calls"] = (raw.get(name + ".calls", 0), "count")
            m[name + ".self_ms"] = (_ms(raw, name + ".self_s"), "ms")

    def self_only(name):
        if has(name):
            m[name + ".self_ms"] = (_ms(raw, name + ".self_s"), "ms")

    for name in ("setmap.real_cbrt", "setmap.vertices", "setmap.distance",
                 "selector.feasible_region", "selector.select_velocity",
                 "solver.euler_polygon", "analyzer.check_wcm_pair",
                 "mapdsl.parse_map", "mapdsl.parse_expr"):
        calls_self(name)
    if has("selector.feasible_region"):
        calls = raw.get("selector.feasible_region.calls", 0)
        empty = raw.get("selector.feasible_region.empty", 0)
        m["selector.feasible_region.empty"] = (empty, "count")
        m["selector.feasible_region.nonempty_ratio"] = (
            (calls - empty) / calls if calls else 0.0, "ratio")
    if has("solver.euler_polygon"):
        m["solver.euler_polygon.steps"] = (raw.get("solver.euler_polygon.steps", 0), "count")
    for name in ("solver.converge", "analyzer.residual",
                 "analyzer.check_trajectory_monotone", "analyzer.check_wcm",
                 "analyzer.monotone", "analyzer.cyclic", "mapdsl.validate_map",
                 "cli.main", "cli.resolve_map"):
        self_only(name)
    if has("solver.trajectory_to_csv"):
        self_only("solver.trajectory_to_csv")
        m["solver.trajectory_to_csv.bytes"] = (raw.get("solver.trajectory_to_csv.bytes", 0), "bytes")
    if has("analyzer.residual"):
        steps = raw.get("analyzer.residual.steps", 0)
        evals = raw.get("analyzer.residual.evals", 0)
        m["analyzer.residual.evals_per_step"] = (evals / steps if steps else 0.0, "1")
    if has("mapdsl.validate_map"):
        m["mapdsl.validate_map.evals"] = (raw.get("mapdsl.validate_map.evals", 0), "count")
    if _CHECKS & present:
        m["analyzer.pairs.decided"] = (raw.get("analyzer.pairs.decided", 0), "count")
        m["analyzer.pairs.failed"] = (raw.get("analyzer.pairs.failed", 0), "count")
        m["analyzer.pool.speculative_items"] = (
            raw.get("analyzer.pool.speculative_items", 0), "count")
        wall = raw.get("analyzer.pool.wall_s", 0.0)
        m["analyzer.pool.busy_over_wall"] = (
            raw.get("analyzer.pool.busy_s", 0.0) / wall if wall else 0.0, "ratio")
    m["cli.stdout.bytes"] = (raw.get("cli.stdout.bytes", 0), "bytes")
    return m


def present_names() -> set[str]:
    """Traced names that exist in the imported diffinc."""
    out = set()
    for mod_name, attr, name in FUNCTIONS:
        mod = sys.modules.get(f"diffinc.{mod_name}")
        if mod is not None and hasattr(mod, attr):
            out.add(name)
    setmap = sys.modules.get("diffinc.setmap")
    if hasattr(setmap, "Box"):
        out.add("setmap.box.built")
    return out
