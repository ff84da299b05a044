"""Output checks for benchmark ops, run outside the timed region.

`result_fields` picks the fields of an op's output that carry its
result, and `digest` hashes them; report fields added later (a version,
a timestamp, a map hash) do not change the digest.  `verify` replays
each op's certificate or invariant against the library and returns a
list of problems (empty when the op is correct).
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from diffinc import (Box, CompactSet, SignPattern, check_trajectory_monotone,
                     check_wcm_pair, distance, feasible_region,
                     trajectory_from_csv, trajectory_to_csv, vertices)

_LEVEL_FIELDS = ("steps", "terminal", "node_residual", "interval_residual", "monotone")
_SOLVE_FIELDS = ("steps", "initial_velocity", "terminal", "monotone",
                 "node_residual", "interval_residual")
_CHECK_FIELDS = ("condition", "verdict", "samples", "certificate")


def result_fields(op: dict, rc: int, payload: dict) -> dict:
    if rc == 2:
        return {"infeasible": payload["infeasible"]}
    if op["kind"] == "solve":
        return {k: payload[k] for k in _SOLVE_FIELDS}
    if op["kind"] == "converge":
        return {"levels": [{k: lvl[k] for k in _LEVEL_FIELDS} for lvl in payload["levels"]],
                "deltas": payload["deltas"]}
    return {k: payload.get(k) for k in _CHECK_FIELDS}


def digest(fields: dict, csv: bytes | None) -> str:
    h = hashlib.sha256(json.dumps(fields, sort_keys=True).encode())
    if csv is not None:
        h.update(b"\0csv\0")
        h.update(csv)
    return h.hexdigest()


def _vec(v) -> tuple[float, ...]:
    return tuple(float(c) for c in v)


def _exact_dot(d, v) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(d, v)), Fraction(0))


def _in_image(m, x, v) -> bool:
    return distance(m.evaluate(_vec(x)), _vec(v)) == 0.0


def _check_solve(op, payload, csv, problems):
    if payload["node_residual"] != 0.0:
        problems.append(f"node residual {payload['node_residual']!r} != 0")
    argv = op["argv"]
    steps = int(argv[argv.index("--N") + 1])
    if payload["steps"] != steps:
        problems.append(f"{payload['steps']} steps, asked for {steps}")
    if op["csv"] is None:
        return
    text = csv.decode("utf-8")
    traj = trajectory_from_csv(text)
    if trajectory_to_csv(traj) != text:
        problems.append("trajectory CSV does not round-trip bit for bit")
    if list(traj.terminal) != payload["terminal"]:
        problems.append("CSV terminal differs from the summary")
    if not all(r.ok for r in check_trajectory_monotone(traj)):
        problems.append("trajectory is not coordinatewise monotone")


def _check_converge(op, payload, problems):
    argv = op["argv"]
    levels = int(argv[argv.index("--levels") + 1])
    if len(payload["levels"]) != levels:
        problems.append(f"{len(payload['levels'])} levels, asked for {levels}")
    for lvl in payload["levels"]:
        if lvl["node_residual"] != 0.0:
            problems.append(f"level with {lvl['steps']} steps: node residual != 0")
    if not all(math.isfinite(d) and d >= 0.0 for d in payload["deltas"]):
        problems.append("refinement deltas are not finite and >= 0")


def _check_infeasible(m, cert, problems):
    image = CompactSet(tuple(Box(_vec(lo), _vec(hi)) for lo, hi in cert["image"]))
    if feasible_region(image, _vec(cert["prev_velocity"]),
                       SignPattern(tuple(cert["sign_pattern"]))) is not None:
        problems.append("infeasibility certificate has a feasible velocity")
    if "state" in cert and m.evaluate(_vec(cert["state"])) != image:
        problems.append("certificate image is not the map's image at its state")


def _check_failure(m, condition, cert, problems):
    if condition == "wcm":
        if check_wcm_pair(m, _vec(cert["x"]), _vec(cert["y"])) is None:
            problems.append("wcm certificate pair re-decides as passing")
    elif condition == "monotone":
        x, y, v, w = (_vec(cert[k]) for k in ("x", "y", "v", "w"))
        value = _exact_dot([Fraction(a) - Fraction(b) for a, b in zip(x, y)],
                           [Fraction(a) - Fraction(b) for a, b in zip(v, w)])
        if not (value < 0 and _in_image(m, x, v) and _in_image(m, y, w)):
            problems.append("monotonicity certificate does not replay")
        elif float(value) != cert["value"]:
            problems.append("monotonicity certificate value differs from replay")
    elif condition == "cyclic":
        cycle, vel = cert["cycle"], cert["velocities"]
        total = sum((_exact_dot([Fraction(a) - Fraction(b)
                                 for a, b in zip(cycle[i], cycle[i - 1])], vel[i - 1])
                     for i in range(1, len(cycle))), Fraction(0))
        members = all(_in_image(m, cycle[i], vel[i - 1])
                      for i in range(1, len(cycle)))
        if not (total < 0 and members):
            problems.append("cyclic certificate does not replay")
        elif float(total) != cert["value"]:
            problems.append("cyclic certificate value differs from replay")
    elif condition == "closed-graph":
        x = _vec(cert["x"])
        base = m.evaluate(x)
        for delta in cert["deltas"]:
            shifted = tuple(c + delta * d for c, d in zip(x, cert["direction"]))
            far = max(distance(base, u) for u in vertices(m.evaluate(shifted)))
            if not far > cert.get("eps", 1e-2):
                problems.append("closed-graph certificate does not replay")
    else:
        problems.append(f"unexpected failing condition {condition!r}")


def verify(op: dict, rc: int | None, payload: dict | None, csv: bytes | None,
           m) -> list[str]:
    """Problems with one op's output; `m` is the map the op names."""
    if rc != op["expect"]:
        return [f"exit code {rc}, expected {op['expect']}"]
    if payload is None:
        return ["stdout is not one JSON document"]
    problems: list[str] = []
    if rc == 2:
        _check_infeasible(m, payload["infeasible"], problems)
    elif op["kind"] == "solve":
        _check_solve(op, payload, csv, problems)
    elif op["kind"] == "converge":
        _check_converge(op, payload, problems)
    elif rc == 3:
        if payload.get("verdict") != "fail" or not payload.get("certificate"):
            problems.append("exit 3 without a fail verdict and certificate")
        else:
            cert = dict(payload["certificate"], eps=payload.get("eps", 1e-2))
            _check_failure(m, payload["condition"], cert, problems)
    elif payload.get("verdict") != "pass-sampled" or payload["samples"] < op["budget"]:
        problems.append(f"exit 0 with verdict {payload.get('verdict')!r} after "
                        f"{payload.get('samples')} of {op['budget']} samples")
    return problems
