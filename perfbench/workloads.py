"""Seeded op lists and map files for the three benchmark workloads.

Each workload is a fixed template of op slots.  The seed fills in the
values that do not change how much work an op does (start states,
horizons, check seeds, mapfile radii, constants and bounds inside
generated maps, the op order) and jitters mesh sizes by a few percent,
so two seeds give different inputs of about the same cost.  Values that
do set the cost (mesh sizes, budgets, the radii of `check` ops) belong
to the slot.  Every op's exit code is
fixed here, by the slot, never learned from the program.

An op is a dict::

    {"id": "refine-07", "kind": "solve" | "converge" | "check",
     "argv": [...],         # passed to diffinc.cli.main; "{tmp}" is the run's temp dir
     "map": {...},          # {"builtin": name, "params": {...}} or {"file": path}
     "expect": 0 | 2 | 3,   # exit code
     "budget": int,         # check ops: sample budget
     "csv": path | None}    # solve ops that write a trajectory CSV

Map-file paths in ops use the "{tmp}" placeholder, so the op list of a
seed is byte-identical from run to run.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("refine", "check", "mapfile")

# Builtins as the CLI names them, with the parameters builtin() takes.
_BUILTIN_ARGS = {
    "example1": (["--map", "example1"], ("example1", {})),
    "example2_F": (["--map", "example2_F"], ("example2_F", {})),
    "example2_G": (["--map", "example2_G"], ("example2_G", {})),
    "example3": (["--map", "example3"], ("example3", {})),
    "antisign": (["--map", "antisign"], ("antisign", {})),
    "example4_2": (["--map", "example4", "--dim", "2"], ("example4", {"n": 2})),
    "example4_3": (["--map", "example4", "--dim", "3"], ("example4", {"n": 3})),
    "example4_4": (["--map", "example4", "--dim", "4"], ("example4", {"n": 4})),
    "normgrad_2": (["--map", "normgrad2"], ("normgrad", {"n": 2, "k": 4})),
    "normgrad_3": (["--map", "normgrad3"], ("normgrad", {"n": 3, "k": 4})),
}

_DIM = {"example1": 1, "example2_F": 1, "example2_G": 1, "example3": 2,
        "antisign": 1, "example4_2": 2, "example4_3": 3, "example4_4": 4,
        "normgrad_2": 2, "normgrad_3": 3}


def _builtin(key: str) -> tuple[list[str], dict]:
    argv, (name, params) = _BUILTIN_ARGS[key]
    return list(argv), {"builtin": name, "params": dict(params)}


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _jitter(rng: random.Random, n: int) -> int:
    return max(1, round(n * rng.uniform(0.95, 1.05)))


def _finish(ops: list[dict], rng: random.Random, prefix: str) -> list[dict]:
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = f"{prefix}-{i:03d}"
    return ops


# ---------------------------------------------------------------------------
# refine: solve and converge on builtins
# ---------------------------------------------------------------------------

_POLICIES = ("project", "lex-min", "lex-max")

# Steps that cost about 30 ms through the CLI (the solve plus `residual`,
# which evaluates the map five times a step) on a 2-core x86 machine.
_BASE_N = {"example1": 380, "example2_F": 260, "example2_G": 250, "example3": 130,
           "example4_2": 60, "example4_3": 40, "example4_4": 30}
_TIERS = (0.5, 0.8, 1.0, 1.4)

# (map, policy, N): the slow tail, about 1/20 of the ops and 1/3 of a pass
_REFINE_LARGE = [
    ("example1", "project", 4500),
    ("example2_F", "lex-max", 3000),
    ("example2_G", "project", 2200),
    ("example3", "lex-min", 900),
    ("example4_2", "project", 450),
]

# (map, policy, N0, levels); N0 is above the mesh minimum for T <= 1.5
_REFINE_CONVERGES = [
    ("example1", "project", 100, 3),
    ("example1", "lex-max", 200, 4),
    ("example2_F", "project", 80, 3),
    ("example2_F", "lex-max", 150, 3),
    ("example2_G", "lex-min", 80, 3),
    ("example3", "project", 70, 3),
    ("example4_2", "lex-max", 25, 3),
    ("example4_3", "project", 16, 3),
    ("example4_4", "lex-min", 12, 3),
]

# antisign solves cross 0 and exit 2 with a certificate; (N,)
_REFINE_ANTISIGN = [64, 80, 100, 128, 160, 200, 256, 300, 64, 100, 160, 256]

_CSV_EVERY = 7  # every 7th solve writes its trajectory CSV


def refine_ops(seed: int) -> list[dict]:
    rng = random.Random(f"refine:{seed}")
    solves = [(key, policy, round(n * tier)) for key, n in _BASE_N.items()
              for policy in _POLICIES for tier in _TIERS]
    ops: list[dict] = []
    for i, (key, policy, n) in enumerate(solves + _REFINE_LARGE):
        map_argv, spec = _builtin(key)
        x0 = [round(rng.uniform(-2.0, 2.0), 3) for _ in range(_DIM[key])]
        horizon = rng.choice((1.0, 1.5))
        argv = ["solve", *map_argv, "--x0", _vec(x0), "--T", repr(horizon),
                "--N", str(_jitter(rng, n)), "--policy", policy]
        op = {"kind": "solve", "map": spec, "expect": 0, "csv": None}
        if i % _CSV_EVERY == 0:
            op["csv"] = "{tmp}/out/" + f"traj-{i:03d}.csv"
            argv += ["--output", op["csv"]]
        op["argv"] = argv
        ops.append(op)
    for key, policy, n0, levels in _REFINE_CONVERGES:
        map_argv, spec = _builtin(key)
        x0 = [round(rng.uniform(-2.0, 2.0), 3) for _ in range(_DIM[key])]
        horizon = rng.choice((1.0, 1.5))
        ops.append({
            "kind": "converge", "map": spec, "expect": 0, "csv": None,
            "argv": ["converge", *map_argv, "--x0", _vec(x0), "--T", repr(horizon),
                     "--N0", str(_jitter(rng, n0)), "--levels", str(levels),
                     "--policy", policy],
        })
    for n in _REFINE_ANTISIGN:
        map_argv, spec = _builtin("antisign")
        x0 = round(rng.uniform(0.1, 1.5), 3)
        ops.append({
            "kind": "solve", "map": spec, "expect": 2, "csv": None,
            "argv": ["solve", *map_argv, "--x0", _vec([x0]), "--v0", "-1.0",
                     "--T", "2.0", "--N", str(_jitter(rng, n))],
        })
    return _finish(ops, rng, "refine")


# ---------------------------------------------------------------------------
# check: condition checks on builtins
# ---------------------------------------------------------------------------

# (condition, map, budgets, exit code); one op per budget.  Exit 0 runs
# the whole budget; exit-3 maps fail inside the deterministic battery,
# whatever the seed, but the checker still draws the whole budget of
# random pairs first, so their cost grows with the budget too.  Budgets
# of passing checks are chosen so that their costs climb in steps of
# about 7 % from 12 to 200 ms, with no gap near the 90th percentile.
_CHECKS = [
    ("monotone", "normgrad_2", (70, 110, 150, 190, 400, 750), 0),
    ("monotone", "normgrad_3", (100, 620), 0),
    ("cyclic", "normgrad_2", (30, 190, 470), 0),
    ("cyclic", "normgrad_3", (30, 230, 450), 0),
    ("wcm", "example3", (50, 320, 800), 0),
    ("wcm", "example4_2", (30, 280, 580), 0),
    ("growth", "example3", (170, 510), 0),
    ("growth", "example1", (1010, 2630), 0),
    ("growth", "example2_F", (690,), 0),
    ("growth", "example4_3", (340,), 0),
    ("graph", "example1", (140, 390), 0),
    ("graph", "example2_G", (150, 370), 0),
    ("wcm", "normgrad_2", (1000, 3000, 6000, 10000), 3),
    ("wcm", "normgrad_3", (1000, 3000, 6000, 10000), 3),
    ("monotone", "example1", (1000, 2000, 4000, 7000, 10000), 3),
    ("monotone", "example2_F", (1000, 2000, 4000, 7000, 10000), 3),
    ("monotone", "example2_G", (1000, 2000, 4000, 7000, 10000), 3),
    ("monotone", "example3", (1000, 2000, 4000, 7000, 10000), 3),
    ("monotone", "example4_2", (1000, 2000, 4000, 7000, 10000), 3),
    ("monotone", "example4_3", (1000, 2000, 4000, 7000, 10000), 3),
    ("cyclic", "example1", (1000, 2000, 4000, 7000, 10000), 3),
    ("cyclic", "example2_F", (1000, 2000, 4000, 7000, 10000), 3),
    ("cyclic", "example2_G", (1000, 2000, 4000, 7000, 10000), 3),
    ("cyclic", "example3", (1000, 2000, 4000, 7000, 10000), 3),
    ("cyclic", "example4_2", (1000, 2000, 4000, 7000, 10000), 3),
    ("cyclic", "example4_3", (1000, 2000, 4000, 7000, 10000), 3),
    ("graph", "normgrad_2", (100, 200, 300), 3),
    ("graph", "normgrad_3", (100, 200, 300), 3),
]


def _slot_radius(slot: int) -> float:
    """A radius in [4, 6) fixed by the op's slot, not by the seed: the
    radius sets the deterministic battery, which is most of the cost of
    a passing check, so a seed-drawn radius reshuffles the slow ops."""
    return round(4.0 + 2.0 * (((slot + 1) * 0.6180339887) % 1.0), 2)


def check_ops(seed: int) -> list[dict]:
    rng = random.Random(f"check:{seed}")
    ops: list[dict] = []
    for condition, key, budgets, expect in _CHECKS:
        map_argv, spec = _builtin(key)
        for budget in budgets:
            radius = _slot_radius(len(ops))
            ops.append({
                "kind": "check", "map": spec, "expect": expect, "csv": None,
                "budget": budget,
                "argv": ["check", condition, *map_argv, "--radius", repr(radius),
                         "--samples", str(budget), "--seed", str(rng.randrange(10**6))],
            })
    return _finish(ops, rng, "check")


# ---------------------------------------------------------------------------
# mapfile: generated and shipped map files
# ---------------------------------------------------------------------------

# Every image of a generated map contains the box [-SAFE, SAFE]^dim, and
# every expression stays far inside it on the sampled radius, so solves
# starting with a velocity in that box never become infeasible and
# `check wcm` always passes: the exit codes are known in advance.
SAFE = 1000.0

# The op kinds a chain of unary/binary steps is drawn from, in a fixed
# multiset per depth, so the seed permutes them but does not change cost.
_CHAIN_OPS = ("cbrt", "add", "abs", "mul", "sign", "sub")

# (structure, dim, bounds per constrained coordinate, expression depth)
# Structures: "pieces" (one piecewise node), "product" (1-D x (dim-1)-D),
# "union" (two piecewise nodes), "nested" (union of two products).
# The validate_map grid of a piecewise node has about (4k+2)^c cells for
# k bounds on each of c constrained coordinates: slots below put it on
# both sides of its 512-cell exact-sweep cutoff.
_GEN_SLOTS = [
    ("pieces", 1, 3, 1),
    ("pieces", 1, 6, 4),
    ("pieces", 2, 4, 3),        # 18^2 = 324 cells: exact
    ("pieces", 2, 6, 6),        # 26^2 = 676 cells: sampled
    ("pieces", 3, 1, 5),        # 6^3 = 216: exact
    ("pieces", 3, 2, 8),        # 10*10*6 = 600: sampled
    ("product", 2, 3, 7),
    ("product", 3, 2, 10),
    ("union", 1, 4, 12),
    ("union", 2, 3, 9),
    ("nested", 2, 2, 11),
    ("nested", 3, 1, 2),
]

# (path, dim) of the shipped encodings of the catalog maps
_SHIPPED = [
    ("maps/example1.json", 1),
    ("maps/example2_F.json", 1),
    ("maps/example2_G.json", 1),
    ("maps/example3.json", 2),
    ("maps/example4_2.json", 2),
]

# (op, size) run on each map file; every op parses and validates the file.
# Generated maps declare no growth, so `check growth` passes on them.  The
# wcm battery of a generated map grows with its region bounds and radius
# (hundreds of pairs at radius 3 in three dimensions), so wcm ops on them
# use a radius below the battery's smallest ladder step, 0.25.
_GEN_FILE_OPS = (("solve", 20), ("solve", 40), ("solve", 60), ("wcm", 30),
                 ("growth", 40), ("growth", 80))
# Shipped maps declare growth, so their meshes must meet h*M < 1: at least
# 25 steps for example3 with T = 1 and |x0| <= 2*sqrt(2).
_SHIPPED_FILE_OPS = (("solve", 40), ("solve", 60), ("solve", 80), ("wcm", 20),
                     ("wcm", 40), ("wcm", 60))


def _num(rng: random.Random, lo: float, hi: float) -> str:
    return format(round(rng.uniform(lo, hi), 2), ".2f")


def _leaf(rng: random.Random, dim: int) -> str:
    if rng.random() < 0.5:
        return f"x{rng.randrange(dim) + 1}"
    return _num(rng, 0.1, 2.0)


def _expr(rng: random.Random, dim: int, depth: int) -> str:
    """A chain of `depth` levels over x1..x{dim}.

    Factors of `mul` are a constant in [-1, 1] or a sign(), and sums add
    a leaf, so |value| <= depth * (|x| + 2) and never overflows.
    """
    ops = [_CHAIN_OPS[i % len(_CHAIN_OPS)] for i in range(depth - 1)]
    rng.shuffle(ops)
    e = _leaf(rng, dim)
    for op in ops:
        if op in ("cbrt", "abs", "sign"):
            e = f"{op}({e})"
        elif op == "mul":
            factor = (_num(rng, -1.0, 1.0) if rng.random() < 0.5
                      else f"sign({_leaf(rng, dim)})")
            e = f"({e})*({factor})" if rng.random() < 0.5 else f"({factor})*({e})"
        else:
            e = f"({e}){'+' if op == 'add' else '-'}{_leaf(rng, dim)}"
    return e


def _box(rng: random.Random, dim: int, depth: int) -> list[list[str]]:
    """Per coordinate [e, e+abs(e2)], so lo <= hi holds in floating point."""
    out = []
    for _ in range(dim):
        e = _expr(rng, dim, depth)
        e2 = _expr(rng, dim, max(1, depth // 2))
        out.append([e, f"({e})+abs({e2})"])
    return out


def _pieces_node(rng: random.Random, dim: int, k: int, depth: int) -> dict:
    safe = [[f"-{SAFE:g}", f"{SAFE:g}"] for _ in range(dim)]
    pieces = [{"region": [], "image": [safe]}]
    for var in range(1, min(dim, 2) + 1):
        bounds = sorted({round(rng.uniform(-3.0, 3.0), 2) for _ in range(k)})
        edges = [None, *bounds, None]
        for lo, hi in zip(edges, edges[1:]):
            region = []
            if lo is not None:
                region.append({"var": var, "op": "ge", "bound": lo})
            if hi is not None:
                region.append({"var": var, "op": "le", "bound": hi})
            pieces.append({"region": region, "image": [_box(rng, dim, depth)]})
    if dim == 3:
        # the third coordinate gets its own bounds, one piece each side
        b = round(rng.uniform(-3.0, 3.0), 2)
        for op in ("le", "ge"):
            pieces.append({"region": [{"var": 3, "op": op, "bound": b}],
                           "image": [_box(rng, dim, depth)]})
    return {"dim": dim, "pieces": pieces}


def _map_doc(rng: random.Random, structure: str, dim: int, k: int, depth: int) -> dict:
    if structure == "pieces":
        return _pieces_node(rng, dim, k, depth)
    if structure == "product":
        return {"dim": dim, "product": [_pieces_node(rng, 1, k, depth),
                                        _pieces_node(rng, dim - 1, k, depth)]}
    if structure == "union":
        return {"dim": dim, "union": [_pieces_node(rng, dim, k, depth),
                                      _pieces_node(rng, dim, k, depth)]}
    return {"dim": dim, "union": [_map_doc(rng, "product", dim, k, depth),
                                  _map_doc(rng, "product", dim, k, depth)]}


def generated_maps(seed: int) -> dict[str, str]:
    """File name -> JSON text of every generated map of a seed."""
    rng = random.Random(f"mapfile:{seed}")
    out = {}
    for i, (structure, dim, k, depth) in enumerate(_GEN_SLOTS):
        doc = _map_doc(rng, structure, dim, k, depth)
        out[f"gen-{i:02d}.json"] = json.dumps(doc, indent=1) + "\n"
    return out


def _file_op(rng: random.Random, what: str, size: int, path: str, dim: int,
             generated: bool) -> dict:
    spec = {"file": path}
    if what == "solve":
        x0 = [round(rng.uniform(-2.0, 2.0), 3) for _ in range(dim)]
        argv = ["solve", "--map", path, "--x0", _vec(x0), "--T", "1.0",
                "--N", str(_jitter(rng, size))]
        if generated:
            # a velocity inside the safety box keeps every step feasible
            v0 = [round(rng.choice((-1, 1)) * rng.uniform(0.2, 0.8), 3)
                  for _ in range(dim)]
            argv += ["--v0", _vec(v0)]
        return {"kind": "solve", "map": spec, "expect": 0, "csv": None, "argv": argv}
    radius = rng.uniform(0.2, 0.24) if generated and what == "wcm" else rng.uniform(3.0, 5.0)
    return {"kind": "check", "map": spec, "expect": 0, "csv": None, "budget": size,
            "argv": ["check", what, "--map", path, "--radius", repr(round(radius, 3)),
                     "--samples", str(size), "--seed", str(rng.randrange(10**6))]}


def mapfile_ops(seed: int) -> list[dict]:
    rng = random.Random(f"mapfile-ops:{seed}")
    files = [("{tmp}/maps/" + f"gen-{i:02d}.json", slot[1], True)
             for i, slot in enumerate(_GEN_SLOTS)]
    files += [(path, dim, False) for path, dim in _SHIPPED]
    ops = [_file_op(rng, what, size, path, dim, generated)
           for path, dim, generated in files
           for what, size in (_GEN_FILE_OPS if generated else _SHIPPED_FILE_OPS)]
    return _finish(ops, rng, "mapfile")


def make(workload: str, seed: int) -> tuple[list[dict], dict[str, str]]:
    """(op list, generated map files) of a workload and seed."""
    if workload == "refine":
        return refine_ops(seed), {}
    if workload == "check":
        return check_ops(seed), {}
    if workload == "mapfile":
        return mapfile_ops(seed), generated_maps(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
