"""Shared test utilities: independent oracles and random generators."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import add, sub
from pathlib import Path

from diffinc.analyzer import (
    CheckReport,
    CoordinateMonotone,
    RESIDUAL_SAMPLES,
    _LADDER,
    _STRADDLE,
    _axis_point,
    _check_budget,
    _random_point,
)
from diffinc.selector import SignPattern, WcmInfeasible
from diffinc.setmap import (
    Box,
    CompactSet,
    Condition,
    Expr,
    MapDefinitionError,
    Piece,
    PiecewiseMap,
    ProductMap,
    UnionMap,
    _sign_branch,
    product,
    vertices,
)


def _midpoint_cube_cmp(r1, r2, a_num, a_den):
    n1, d1 = r1.as_integer_ratio()
    n2, d2 = r2.as_integer_ratio()
    d = max(d1, d2)
    num = n1 * (d // d1) + n2 * (d // d2)
    den = 2 * d
    lhs = num * num * num * a_den
    rhs = a_num * den * den * den
    return (lhs > rhs) - (lhs < rhs)


def reference_real_cbrt(v):
    """Correctly rounded cube root by one-sided midpoint tests in exact
    rationals: the original implementation, kept as the oracle."""
    if v == 0.0 or math.isnan(v) or math.isinf(v):
        return v
    a = abs(v)
    r = a ** (1.0 / 3.0)
    a_num, a_den = a.as_integer_ratio()
    while _midpoint_cube_cmp(math.nextafter(r, 0.0), r, a_num, a_den) > 0:
        r = math.nextafter(r, 0.0)
    while _midpoint_cube_cmp(r, math.nextafter(r, math.inf), a_num, a_den) < 0:
        r = math.nextafter(r, math.inf)
    return math.copysign(r, v)


def tree_eval(e, x):
    """Recursive tree-walking evaluation of an Expr: the original
    evaluator, kept as the oracle for the compiled one."""
    op = e.op
    if op == "const":
        return e.value
    if op == "var":
        if e.index >= len(x):
            raise MapDefinitionError(
                f"expression uses x{e.index + 1} but the point has "
                f"dimension {len(x)}"
            )
        return float(x[e.index])
    if op == "neg":
        return -tree_eval(e.args[0], x)
    if op == "add":
        return tree_eval(e.args[0], x) + tree_eval(e.args[1], x)
    if op == "sub":
        return tree_eval(e.args[0], x) - tree_eval(e.args[1], x)
    if op == "mul":
        return tree_eval(e.args[0], x) * tree_eval(e.args[1], x)
    v = tree_eval(e.args[0], x)
    if op == "sign":
        return float((v > 0) - (v < 0))
    if op == "cbrt":
        return reference_real_cbrt(v)
    return abs(v)


def compiled_eval(e, x):
    """Value of e at x on the compiled path that maps run: the first
    corner of the image of a one-piece map whose box is (e, e), padded
    with the point 0 up to the map's dimension (at least 1).  Like every
    image corner, a value that is not finite raises MapDefinitionError."""
    dim = max(len(x), 1)
    zero = (Expr.const(0.0),) * 2
    m = PiecewiseMap(dim, (Piece((), (((e, e),) + (zero,) * (dim - 1),)),))
    return m.evaluate(tuple(x) or (0.0,)).boxes[0].lo[0]


_REFERENCE_REGION_OPS = {
    "lt": lambda v, b: v < b,
    "le": lambda v, b: v <= b,
    "ge": lambda v, b: v >= b,
    "gt": lambda v, b: v > b,
    "eq": lambda v, b: v == b,
}


def reference_image(m, x):
    """Image of a piecewise/product/union map at the float tuple x as a
    list of (lo, hi) pairs, by tree walking, with the original checks and
    messages (lo > hi per coordinate as evaluated, then finiteness)."""
    if isinstance(m, ProductMap):
        d = m.left.dim
        return [(la + lb, ha + hb)
                for la, ha in reference_image(m.left, x[:d])
                for lb, hb in reference_image(m.right, x[d:])]
    if isinstance(m, UnionMap):
        return reference_image(m.left, x) + reference_image(m.right, x)
    assert isinstance(m, PiecewiseMap)
    boxes = []
    for p in m.pieces:
        if not all(_REFERENCE_REGION_OPS[c.op](x[c.var], c.bound)
                   for c in p.conditions):
            continue
        for expr_box in p.image:
            lo, hi = [], []
            for lo_e, hi_e in expr_box:
                a = tree_eval(lo_e, x)
                b = a if hi_e is lo_e else tree_eval(hi_e, x)
                if a > b:
                    raise MapDefinitionError(
                        f"map {m.label!r} produced lo {a!r} > hi {b!r} at {x}"
                    )
                lo.append(a)
                hi.append(b)
            if not all(math.isfinite(c) for c in lo + hi):
                raise MapDefinitionError("box corners must be finite")
            boxes.append((tuple(lo), tuple(hi)))
    if not boxes:
        raise MapDefinitionError(
            f"map {m.label!r} has an empty image at {x} (no piece matches)"
        )
    return boxes


def reference_eval(src, x):
    """Independent recursive-descent *text* interpreter (own cube root)."""
    pos = 0

    def skip():
        nonlocal pos
        while pos < len(src) and src[pos].isspace():
            pos += 1

    def expr():
        nonlocal pos
        val = term()
        while True:
            skip()
            if pos < len(src) and src[pos] in "+-":
                op = src[pos]
                pos += 1
                rhs = term()
                val = val + rhs if op == "+" else val - rhs
            else:
                return val

    def term():
        nonlocal pos
        val = factor()
        while True:
            skip()
            if pos < len(src) and src[pos] == "*":
                pos += 1
                val = val * factor()
            else:
                return val

    def factor():
        nonlocal pos
        skip()
        ch = src[pos]
        if ch == "-":
            pos += 1
            return -factor()
        if ch == "(":
            pos += 1
            val = expr()
            skip()
            assert src[pos] == ")"
            pos += 1
            return val
        if ch.isdigit() or ch == ".":
            start = pos
            while pos < len(src) and (src[pos].isdigit() or src[pos] == "."):
                pos += 1
            if pos < len(src) and src[pos] in "eE":
                pos += 1
                if src[pos] in "+-":
                    pos += 1
                while pos < len(src) and src[pos].isdigit():
                    pos += 1
            return float(src[start:pos])
        start = pos
        while pos < len(src) and (src[pos].isalnum() or src[pos] == "_"):
            pos += 1
        name = src[start:pos]
        if name == "x":
            return x[0]
        if name.startswith("x") and name[1:].isdigit():
            return x[int(name[1:]) - 1]
        skip()
        assert src[pos] == "("
        pos += 1
        val = expr()
        skip()
        assert src[pos] == ")"
        pos += 1
        if name == "sign":
            return float((val > 0) - (val < 0))
        if name == "abs":
            return abs(val)
        assert name == "cbrt"
        return math.copysign(abs(val) ** (1.0 / 3.0), val)

    result = expr()
    skip()
    assert pos == len(src)
    return result


def random_expr(rng, max_vars, depth=0):
    roll = rng.random()
    if depth >= 4 or roll < 0.25:
        if rng.random() < 0.5:
            mantissa = round(rng.uniform(-20, 20), rng.randint(0, 6))
            return Expr.const(mantissa * 10.0 ** rng.randint(-3, 3))
        return Expr.var(rng.randrange(max_vars))
    op = rng.choice(["add", "sub", "mul", "neg", "sign", "cbrt", "abs"])
    if op in ("add", "sub", "mul"):
        return Expr(op, args=(random_expr(rng, max_vars, depth + 1),
                              random_expr(rng, max_vars, depth + 1)))
    return Expr(op, args=(random_expr(rng, max_vars, depth + 1),))


def integrate_majorant(a, b, r0, horizon, steps=20000):
    """RK4 on r' = a + b + 1 + b*r: independent check of the closed form."""
    f = lambda r: a + b + 1.0 + b * r
    h = horizon / steps
    r = r0
    for _ in range(steps):
        k1 = f(r)
        k2 = f(r + 0.5 * h * k1)
        k3 = f(r + 0.5 * h * k2)
        k4 = f(r + h * k3)
        r += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return r


def monotone_single_valued_expr(rng):
    """Nondecreasing 1-D expression c0 + sum of a_i * {x, cbrt(x), sign(x)},
    returned with tight linear-growth constants (|cbrt(x)| <= 1 + |x|)."""
    c0 = round(rng.uniform(-2, 2), 3)
    terms = [Expr.const(c0)]
    a = abs(c0)
    b = 0.0
    for fn in ("var", "cbrt", "sign"):
        if rng.random() < 0.6:
            coeff = round(rng.uniform(0, 2), 3)
            base = Expr.var(0)
            if fn == "cbrt":
                base = Expr.cbrt(base)
                a += coeff
                b += coeff
            elif fn == "sign":
                base = Expr.sign(base)
                a += coeff
            else:
                b += coeff
            terms.append(Expr.mul(Expr.const(coeff), base))
    e = terms[0]
    for t in terms[1:]:
        e = Expr.add(e, t)
    return e, a, b


def random_monotone_map(rng, dim):
    """Product of single-valued maps with nondecreasing coordinate functions."""
    factors = []
    for _ in range(dim):
        e, a, b = monotone_single_valued_expr(rng)
        factors.append(PiecewiseMap(1, (Piece((), (((e, e),),)),),
                                    growth=(a, b)))
    m = factors[0]
    for f in factors[1:]:
        m = product(m, f)
    return m


# ---------------------------------------------------------------------------
# Sampled checks: the original eager, vertex-enumerating implementation
# ---------------------------------------------------------------------------


def _exact_dot(d, v):
    total = Fraction(0)
    for a, b in zip(d, v):
        total += a * Fraction(b)
    return total


def reference_min_vertex(image, d):
    """Minimum of <d, v> over all corners in ``vertices()`` order (first
    minimiser wins), in Fraction; ``d`` holds Fractions."""
    best = None
    for v in vertices(image):
        val = _exact_dot(d, v)
        if best is None or val < best[0]:
            best = (val, v)
    return best


def reference_max_vertex(image, d):
    val, v = reference_min_vertex(image, tuple(-c for c in d))
    return -val, v


def _violation_value(value):
    """float(value) for a negative Fraction; -inf below the double range."""
    try:
        return float(value)
    except OverflowError:
        return -math.inf


def _exact_diff(x, y):
    return tuple(Fraction(a) - Fraction(b) for a, b in zip(x, y))


def _monotone_gap(m, x, y):
    if x == y:
        return None
    d = _exact_diff(x, y)
    lo_v, v = reference_min_vertex(m.evaluate(x), d)
    hi_w, w = reference_max_vertex(m.evaluate(y), d)
    value = lo_v - hi_w
    if value < 0:
        return {"x": list(x), "y": list(y), "v": list(v), "w": list(w),
                "value": _violation_value(value)}
    return None


def reference_circulation(points, images):
    """The cycle's minimal circulation in Fraction and its minimising
    corners; ``images[k]`` is the image at ``points[(k + 1) % L]``."""
    total = Fraction(0)
    chosen = []
    length = len(points)
    for i, image in enumerate(images, 1):
        d = _exact_diff(points[i % length], points[i - 1])
        val, v = reference_min_vertex(image, d)
        total += val
        chosen.append(v)
    return total, chosen


def reference_float_pass(points, images):
    """``analyzer._float_pass`` as it was before it skipped the zero
    coordinates of a one-box term: every coordinate of such a term is
    multiplied and summed."""
    total = mag = 0.0
    boxes = 0
    spread = []  # (term, every t~_b, every P_b) of the terms with several boxes
    for term, (here, prev, pairs) in enumerate(zip((*points[1:], points[0]), points, images)):
        d = tuple(map(sub, here, prev))
        boxes += len(pairs)
        if len(pairs) == 1:
            (lo_b, hi_b), = pairs
            val = 0.0
            for c, lo, hi in zip(d, lo_b, hi_b):
                q = c * lo if c >= 0 or lo == hi else c * hi
                val += q
                mag += abs(q)
            total += val
            continue
        values = []
        sizes = []
        # a zero coordinate adds +-0 to val and 0 to size, which changes
        # no bit: both start at 0.0, and a sum is -0.0 only when both of
        # its addends are, so neither is ever -0.0
        moved = [(j, c) for j, c in enumerate(d) if c]
        for lo_b, hi_b in pairs:
            val = size = 0.0
            for j, c in moved:
                lo = lo_b[j]
                hi = hi_b[j]
                q = c * lo if c >= 0 or lo == hi else c * hi
                val += q
                size += abs(q)
            values.append(val)
            sizes.append(size)
            mag += size
        total += min(values)
        spread.append((term, values, sizes))
    n = len(points[0])
    bound = 4 * (n + len(points)) * 2.0 ** -53 * mag + 4 * n * boxes * 5e-324
    if bound < total < math.inf:
        return None
    terms = list(images)
    if mag < math.inf:
        k = 4 * (n + 1) * 2.0 ** -53
        w = 4 * n * 5e-324
        for term, values, sizes in spread:
            errors = [k * size + w for size in sizes]
            cut = min(map(add, values, errors))
            terms[term] = [box for box, val, err in zip(images[term], values, errors)
                           if val - err <= cut]
    return terms


def cycle_images(m, points):
    """The images of ``points`` in the order the circulation's terms use
    them: ``F(points[1]), ..., F(points[-1]), F(points[0])``."""
    return [m.evaluate(p) for p in (*points[1:], points[0])]


def _cycle_gap(m, points):
    total, chosen = reference_circulation(points, cycle_images(m, points))
    if total < 0:
        cycle = [list(p) for p in points] + [list(points[0])]
        return {"cycle": cycle, "velocities": [list(v) for v in chosen],
                "value": _violation_value(total)}
    return None


def reference_structured_pairs(m, radius):
    """The deterministic battery built up front as one list: the original
    ``structured_pairs``, kept as the oracle for the lazily drawn one."""
    n = m.dim
    mags = sorted({v for v in _LADDER if v <= radius} | {radius, radius / 2})
    signed = sorted({s * v for v in mags for s in (1.0, -1.0)} | {0.0})
    pairs = []
    for j in range(n):
        pairs.extend(
            (_axis_point(n, j, a), _axis_point(n, j, b))
            for a in signed
            for b in signed
            if a != b
        )
    if n > 1:
        for j in range(n):
            k = (j + 1) % n
            pairs.extend(
                (_axis_point(n, j, a), _axis_point(n, k, b))
                for a in (radius / 2, -radius / 2, 1.0)
                for b in (radius / 2, -radius / 2, 1.0)
            )
    for j, bounds in sorted(m.region_boundaries().items()):
        for b in bounds:
            for eps in _STRADDLE:
                above = _axis_point(n, j, b + eps)
                below = _axis_point(n, j, b - eps)
                at = _axis_point(n, j, b)
                pairs.extend([(above, below), (below, above), (at, above), (at, below)])
    return pairs


def _eager_report(condition, items, decide, seed, radius, extra=None):
    for i, item in enumerate(items):
        cert = decide(item)
        if cert is not None:
            return CheckReport(condition, "fail", i + 1, seed, radius, cert, extra)
    return CheckReport(condition, "pass-sampled", len(items), seed, radius, None, extra)


def _eager_pairs(m, radius, count, seed):
    rng = random.Random(seed)
    pairs = reference_structured_pairs(m, radius)
    pairs.extend(
        (_random_point(rng, m.dim, radius), _random_point(rng, m.dim, radius))
        for _ in range(count)
    )
    return pairs


def reference_check_wcm(m, radius, count, seed):
    pairs = _eager_pairs(m, radius, count, seed)
    return _eager_report(
        "wcm", pairs,
        lambda p: reference_wcm_pair_feasible(m.evaluate(p[0]), m.evaluate(p[1]), *p),
        seed, radius)


def reference_monotone(m, radius, count, seed):
    pairs = _eager_pairs(m, radius, count, seed)
    return _eager_report("monotone", pairs, lambda p: _monotone_gap(m, *p),
                         seed, radius)


def reference_cyclic(m, radius, cycle_len, count, seed):
    rng = random.Random(seed)
    cycles = [(a, b) for a, b in reference_structured_pairs(m, radius) if a != b]
    cycles.extend(
        tuple(_random_point(rng, m.dim, radius) for _ in range(cycle_len))
        for _ in range(count)
    )
    return _eager_report("cyclic", cycles, lambda c: _cycle_gap(m, c), seed,
                         radius, {"cycle_len": cycle_len})


# ---------------------------------------------------------------------------
# Step loop and residual: the original object path
# ---------------------------------------------------------------------------


def reference_distance(s, v):
    """Distance from v to a CompactSet: the minimum of per-box distances,
    as the original ``Box.distance`` computed them."""
    return min(
        math.hypot(*[max(a - c, c - b, 0.0) for a, b, c in zip(box.lo, box.hi, v)])
        for box in s.boxes
    )


def reference_clip(pairs, prev_v, signs, first=False):
    """The sign cut on (lo, hi) pairs as ``selector._clip`` once made it:
    list copies of every pair, each cut bound through ``max`` / ``min``,
    and every kept pair rebuilt as fresh tuples."""
    cuts = [(j, s, prev_v[j]) for j, s in enumerate(signs) if s]
    kept = []
    dropped = []
    for k, (lo, hi) in enumerate(pairs):
        lo = list(lo)
        hi = list(hi)
        for j, s, bound in cuts:
            if s > 0:
                lo[j] = max(lo[j], bound)
            else:
                hi[j] = min(hi[j], bound)
            if lo[j] > hi[j]:
                dropped.append((k, j))
                break
        else:
            kept.append((tuple(lo), tuple(hi)))
            if first:
                break
    return kept, dropped


def reference_feasible_region(image, prev_v, signs):
    kept = []
    for box in image.boxes:
        lo = list(box.lo)
        hi = list(box.hi)
        for j, s in enumerate(signs):
            if s > 0:
                lo[j] = max(lo[j], prev_v[j])
            elif s < 0:
                hi[j] = min(hi[j], prev_v[j])
            if lo[j] > hi[j]:
                break
        else:
            kept.append(Box(tuple(lo), tuple(hi)))
    return CompactSet(tuple(kept)) if kept else None


def _reference_pick(region, target, variant):
    if variant == "project":
        best = None
        for i, box in enumerate(region.boxes):
            p = tuple(min(max(c, a), b) for a, b, c in zip(box.lo, box.hi, target))
            key = (math.hypot(*(a - b for a, b in zip(p, target))), i, p)
            if best is None or key < best:
                best = key
        return best[2]
    if variant == "lex_min":
        return min(b.lo for b in region.boxes)
    return max(b.hi for b in region.boxes)


def reference_select_velocity(image, prev_v, signs, policy):
    prev_v = tuple(float(c) for c in prev_v)
    region = reference_feasible_region(image, prev_v, signs)
    if region is None:
        raise WcmInfeasible(prev_v, signs, image)
    return _reference_pick(region, prev_v, policy.variant)


def reference_initial_velocity(image, policy, override):
    if override is not None:
        v = tuple(float(c) for c in override)
        if len(v) != image.dim:
            raise ValueError(
                f"initial velocity has dimension {len(v)}, image has {image.dim}"
            )
        if reference_distance(image, v) > 0.0:
            raise ValueError(
                f"initial velocity {v} is not in the image "
                f"(distance {reference_distance(image, v)!r})"
            )
        return v
    return _reference_pick(image, (0.0,) * image.dim, policy.variant)


def reference_polygon(m, x0, horizon, n, policy, v0=None):
    """(nodes, velocities) of the n-step polygon by the original loop:
    public ``evaluate``, a SignPattern and an object-built feasible
    region per step.  WcmInfeasible carries step, time and state."""
    x0 = tuple(float(c) for c in x0)
    times = [(i / n) * horizon for i in range(n + 1)]
    h = horizon / n
    nodes = [x0]
    v = reference_initial_velocity(m.evaluate(x0), policy, v0)
    velocities = [v]
    x = x0
    for i in range(1, n):
        x = tuple(xc + h * vc for xc, vc in zip(x, v))
        nodes.append(x)
        signs = SignPattern.of_vector(v)
        image = m.evaluate(x)
        try:
            v = reference_select_velocity(image, v, signs, policy)
        except WcmInfeasible as e:
            raise WcmInfeasible(e.prev_v, e.signs, e.image,
                                state=x, step=i, time=times[i]) from None
        velocities.append(v)
    nodes.append(tuple(xc + h * vc for xc, vc in zip(x, v)))
    return nodes, velocities


def reference_residual(traj, m):
    """(max node residual, max interior residual) by public ``evaluate``
    and ``reference_distance`` at every node and interior sample."""
    node_res = 0.0
    for x, v in zip(traj.nodes, traj.velocities):
        node_res = max(node_res, reference_distance(m.evaluate(x), v))
    interval_res = 0.0
    for i in range(traj.steps):
        t0 = traj.times[i]
        span = traj.times[i + 1] - t0
        v = traj.velocities[i]
        x = traj.nodes[i]
        for k in range(1, RESIDUAL_SAMPLES + 1):
            dt = span * k / (RESIDUAL_SAMPLES + 1)
            state = tuple(c + dt * vc for c, vc in zip(x, v))
            interval_res = max(interval_res, reference_distance(m.evaluate(state), v))
    return node_res, interval_res


# ---------------------------------------------------------------------------
# Hardest-corner decision and example4: the original implementations
# ---------------------------------------------------------------------------


def reference_wcm_pair_feasible(image_x, image_y, x, y):
    """The original hardest-corner decision: an object-built feasible
    region per x-box, then its own scan for each y-box's blocking
    coordinate."""
    x = tuple(float(c) for c in x)
    y = tuple(float(c) for c in y)
    sigma = SignPattern.of_vector(tuple(a - b for a, b in zip(x, y)))
    flipped = SignPattern(tuple(-s for s in sigma))
    for box_index, box in enumerate(image_x.boxes):
        # a free coordinate takes the midpoint, halved first where the
        # sum overflows, so the corner stays in the box
        corner = tuple(
            lo if s > 0 else hi if s < 0
            else (lo + hi) / 2.0 if math.isfinite(lo + hi) else lo / 2.0 + hi / 2.0
            for lo, hi, s in zip(box.lo, box.hi, sigma)
        )
        if reference_feasible_region(image_y, corner, flipped) is None:
            blocking = []
            for k, ybox in enumerate(image_y.boxes):
                for j, s in enumerate(sigma):
                    if s > 0 and ybox.lo[j] > corner[j]:
                        blocking.append({
                            "box": k, "coordinate": j + 1, "needs": "<=",
                            "bound": corner[j],
                            "available": [ybox.lo[j], ybox.hi[j]],
                        })
                        break
                    if s < 0 and ybox.hi[j] < corner[j]:
                        blocking.append({
                            "box": k, "coordinate": j + 1, "needs": ">=",
                            "bound": corner[j],
                            "available": [ybox.lo[j], ybox.hi[j]],
                        })
                        break
            return {
                "x": list(x),
                "y": list(y),
                "v": list(corner),
                "box_index": box_index,
                "signs": list(sigma.signs),
                "blocking": blocking,
            }
    return None


def reference_example4(n):
    """example4(n) with each branch nested to the right, n - 1 products
    deep: the original construction."""
    def branch(scale):
        return PiecewiseMap(1, (
            Piece((Condition(0, "le", 0.0),), (((Expr.const(-scale),) * 2,),)),
            Piece((Condition(0, "ge", 0.0),), (((Expr.const(scale),) * 2,),)),
        ), growth=(scale, 0.0), label=f"signbranch({scale:g})")

    full, half = branch(1.0), branch(0.5)
    for _ in range(n - 1):
        full = ProductMap(branch(1.0), full)
        half = ProductMap(branch(0.5), half)
    return UnionMap(half, full, label=f"example4({n})")


def reference_balanced_example4(n):
    """example4(n) as a balanced tree with a separate sign branch at
    every leaf, the construction before equal subtrees were shared."""
    def power(scale, k):
        if k == 1:
            return _sign_branch(scale)
        return ProductMap(power(scale, k // 2), power(scale, k - k // 2))

    return UnionMap(power(0.5, n), power(1.0, n), label=f"example4({n})")


def reference_region_boundaries(m):
    """The original per-class boundary merges: a product keeps its
    factors' tuples, the right one's coordinates shifted by the left
    factor's dimension; a union merges the two parts per coordinate."""
    if isinstance(m, ProductMap):
        out = dict(reference_region_boundaries(m.left))
        for j, vals in reference_region_boundaries(m.right).items():
            out[j + m.left.dim] = vals
        return out
    if isinstance(m, UnionMap):
        out = {j: set(v) for j, v in reference_region_boundaries(m.left).items()}
        for j, vals in reference_region_boundaries(m.right).items():
            out.setdefault(j, set()).update(vals)
        return {j: tuple(sorted(v)) for j, v in out.items()}
    return m.region_boundaries()


# ---------------------------------------------------------------------------
# Closed graph: the original object path
# ---------------------------------------------------------------------------


def reference_probe_grid(m):
    """Every point of the grid the validator once evaluated on a small
    piecewise map, in its order (the first coordinate slowest): per
    coordinate each finite bound, the midpoints of neighbouring bounds,
    the values 1 below and above each bound (the nearest doubles where
    that rounds back), then 0.0, -1.0 and 1.0, the first of equal
    values."""
    big = sys.float_info.max
    per_var = []
    for j in range(m.dim):
        vals = m.region_boundaries().get(j, ())
        cands = list(vals)
        cands.extend(a / 2 + b / 2 for a, b in zip(vals, vals[1:]))
        for v in vals:
            cands.extend((min(v - 1.0, math.nextafter(v, -big)),
                          max(v + 1.0, math.nextafter(v, big))))
        cands.extend((0.0, -1.0, 1.0))
        per_var.append(list(dict.fromkeys(cands)))
    return itertools.product(*per_var)


def reference_vertices(s):
    """Each box's corners, box by box, lo first and the last coordinate
    fastest: the original ``Box.corners()`` order."""
    return [c for b in s.boxes
            for c in itertools.product(*[(a,) if a == h else (a, h) for a, h in zip(b.lo, b.hi)])]


# F(x) = {1e4*x} and F(x) = {1e8*x}: at x = 0 a shift by 1e-5 moves the
# image 0.1 and 1e3, past the default eps of 1e-2, and a shift by 1e-7
# moves it 1e-3 and 10, so the first map passes and the second fails
LINEAR_MAPS = {
    f"linear_{name}": json.dumps({"dim": 1, "pieces": [
        {"region": [], "image": [[[f"{c}*x", f"{c}*x"]]]}]})
    for name, c in (("1e4", 10000), ("1e8", 100000000))
}


def reference_closed_graph(m, radius, count, seed, eps):
    """The original two-scale graph check: public ``evaluate`` at x and
    at each shifted point, every corner of the shifted image and its
    full distance to F(x).  A direction is cleared at its first scale
    within eps."""
    if not math.isfinite(eps) or eps <= 0:
        raise ValueError(f"eps must be finite and > 0, got {eps!r}")
    _check_budget(radius, count, count, "count", m.dim)
    deltas = (1e-5, 1e-7)
    rng = random.Random(seed)
    points = [(0.0,) * m.dim]
    for j, bounds in sorted(m.region_boundaries().items()):
        for b in bounds:
            points.append(_axis_point(m.dim, j, b))
    points.extend(_random_point(rng, m.dim, radius) for _ in range(count))

    directions = []
    for j in range(m.dim):
        directions.append(_axis_point(m.dim, j, 1.0))
        directions.append(_axis_point(m.dim, j, -1.0))
    if m.dim > 1:
        for _ in range(2):
            d = tuple(rng.gauss(0.0, 1.0) for _ in range(m.dim))
            r = math.hypot(*d)
            if r > 0:
                directions.append(tuple(c / r for c in d))

    def probe(x):
        base = m.evaluate(x)
        for d in directions:
            worst = []
            worst_vertex = None
            for delta in deltas:
                shifted = tuple(c + delta * dc for c, dc in zip(x, d))
                far = 0.0
                for u in reference_vertices(m.evaluate(shifted)):
                    gap = reference_distance(base, u)
                    if gap > far:
                        far = gap
                        if delta == deltas[-1]:
                            worst_vertex = u
                worst.append(far)
                if far <= eps:  # the direction is cleared; no later scale is evaluated
                    break
            if min(worst) > eps:
                return {
                    "x": list(x),
                    "direction": list(d),
                    "deltas": list(deltas),
                    "distances": worst,
                    "vertex": list(worst_vertex) if worst_vertex else None,
                }
        return None

    return _eager_report("closed-graph", points, probe, seed, radius, {"eps": eps})


# ---------------------------------------------------------------------------
# Growth and normgrad: the original object path
# ---------------------------------------------------------------------------


def reference_sup_norm(s):
    best = 0.0
    for b in s.boxes:
        extreme = [max(abs(a), abs(c)) for a, c in zip(b.lo, b.hi)]
        best = max(best, math.hypot(*extreme))
    return best


def reference_growth_points(m, radius, count, seed):
    """The growth check's points, drawn up front: the origin, then
    (r, -r, r/2, 1, -1) on each axis, then the random draws."""
    rng = random.Random(seed)
    points = [(0.0,) * m.dim]
    for j in range(m.dim):
        for v in (radius, -radius, radius / 2, 1.0, -1.0):
            points.append(_axis_point(m.dim, j, v))
    points.extend(_random_point(rng, m.dim, radius) for _ in range(count))
    return points


def reference_check_growth(m, radius, count, seed):
    """The growth check on the object path, with the original rule as its
    verdict.

    Each point's public ``evaluate`` is taken in order, up to the first
    point whose excess ``sup_norm - (A + B*|x|)`` is > 0.  The verdict is
    the original fit's: ``fail`` when its ``declared_violation``, the
    largest of 0 and every excess taken in order of |x|, is > 0.  A fail
    names, as its certificate, the first box of that point whose corner
    of largest magnitudes, signed as in the box, has a norm above the
    bound."""
    _check_budget(radius, count)
    points = reference_growth_points(m, radius, count, seed)
    extra = {"declared": list(m.growth) if m.growth else None}
    if m.growth is None:
        for p in points:
            m.evaluate(p)
        return CheckReport("growth", "pass-sampled", len(points), seed, radius, None, extra)
    da, db = m.growth
    data = []
    for p in points:
        image = m.evaluate(p)
        r = math.hypot(*p)
        data.append((r, reference_sup_norm(image)))
        if data[-1][1] - (da + db * r) > 0:
            break
    violation = max(0.0, max(g - (da + db * r) for r, g in sorted(data)))
    if not violation > 0:
        return CheckReport("growth", "pass-sampled", len(data), seed, radius, None, extra)
    x = points[len(data) - 1]
    bound = da + db * math.hypot(*x)
    for k, b in enumerate(image.boxes):
        v = [a if abs(a) >= abs(c) else c for a, c in zip(b.lo, b.hi)]
        if math.hypot(*v) > bound:
            cert = {"x": list(x), "box_index": k, "v": v, "norm": math.hypot(*v),
                    "bound": bound}
            return CheckReport("growth", "fail", len(data), seed, radius, cert, extra)
    raise AssertionError(f"no box of F({x}) exceeds the bound {bound}")


def reference_normgrad(n, k):
    """normgrad(n, k)'s original function, x -> validated CompactSet."""
    points = []
    if n == 2:
        for i in range(k):
            angle = 2.0 * math.pi * i / k
            points.append((math.cos(angle), math.sin(angle)))
    else:
        axis = 0
        sign = 1.0
        for _ in range(k):
            v = [0.0] * n
            v[axis] = sign
            points.append(tuple(v))
            if sign > 0:
                sign = -1.0
            else:
                sign = 1.0
                axis = (axis + 1) % n
    origin = CompactSet.of_points(*points)

    def fn(x):
        r = math.hypot(*x)
        if r == 0.0:
            return origin
        # the norm overflows, or is subnormal and so lost its relative precision
        if (r == math.inf or r < sys.float_info.min) and all(map(math.isfinite, x)):
            top = max(abs(v) for v in x)
            x = [v / top for v in x]
            r = math.hypot(*x)
        return CompactSet.of_points(tuple(v / r for v in x))

    return fn


# ---------------------------------------------------------------------------
# Trajectory monotonicity: the original two-branch classification
# ---------------------------------------------------------------------------


def reference_check_trajectory_monotone(traj):
    """``check_trajectory_monotone`` with one comparison branch for an
    increasing and one for a decreasing coordinate."""
    out = []
    for j in range(traj.dim):
        vs = [v[j] for v in traj.velocities]
        xs = [p[j] for p in traj.nodes]
        first = next((i for i, v in enumerate(vs) if v != 0.0), None)
        if first is None:
            out.append(CoordinateMonotone(
                j, "identically-zero",
                velocity_sign_stable=True,
                velocity_monotone=True,
                nodes_monotone=all(a == b for a, b in zip(xs, xs[1:])),
            ))
            continue
        increasing = vs[first] > 0.0
        tail = vs[first:]
        if increasing:
            stable = all(v > 0.0 for v in tail)
            vel_mono = all(a <= b for a, b in zip(tail, tail[1:]))
            node_mono = all(a <= b for a, b in zip(xs, xs[1:]))
        else:
            stable = all(v < 0.0 for v in tail)
            vel_mono = all(a >= b for a, b in zip(tail, tail[1:]))
            node_mono = all(a >= b for a, b in zip(xs, xs[1:]))
        out.append(CoordinateMonotone(
            j, "increasing" if increasing else "decreasing",
            velocity_sign_stable=stable,
            velocity_monotone=vel_mono,
            nodes_monotone=node_mono,
        ))
    return tuple(out)


def strict_json(text):
    """``json.loads`` that rejects the constants NaN, Infinity and -Infinity."""
    def reject(name):
        raise ValueError(f"non-finite JSON number {name}")
    return json.loads(text, parse_constant=reject)


# Runs argv in a child process under a 1 GiB address-space limit, which
# turns a budget that does not hold into a MemoryError rather than a
# machine out of memory, and prints the child's exit code, stderr and
# peak RSS in KB.  The peak is read in this small process because a
# process starts with the peak of the one it was forked from.
_MEASURE = """
import json, resource, subprocess, sys
resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
proc = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps([proc.returncode, proc.stderr.decode(), peak]))
"""


def measured_cli(*argv):
    """Exit code, stderr and peak RSS in KB of ``diffinc *argv``, run
    from this checkout's sources in a child process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _MEASURE, sys.executable, "-W", "ignore", "-m", "diffinc.cli", *argv],
        capture_output=True, env=env, timeout=300, check=True)
    return tuple(json.loads(proc.stdout))
