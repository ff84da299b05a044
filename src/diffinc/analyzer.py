"""Condition checkers: verify or refute map hypotheses on samples.

Per-pair decisions are exact for box-union images:

* the componentwise selection condition ("for every v in F(x) some
  w in F(y) moves with the displacement sign") reduces to finitely many
  hardest corners — in each coordinate the constraint on w is tightest
  at one end of the v-box, so one corner decides the whole box;
* a cycle's circulation, the sum of <x_i - x_{i-1}, v_i> over v_i in
  F(x_i), splits per cycle point and is linear in each v_i, so its
  minimum over a box union is attained at a vertex.  Per box the
  minimising corner is read off the signs of d = x_i - x_{i-1}: ``lo_j``
  where ``d_j >= 0`` or ``lo_j == hi_j``, ``hi_j`` otherwise; the first
  box with the strictly smallest value wins.  That is the first
  minimising corner in ``vertices()`` order, found without enumerating
  2^n corners, so there is no dimension limit;
* a map is monotone exactly when it is 2-cyclically monotone: <x-y, v-w>
  is the circulation of the 2-cycle (y, x), and is decided as such.

The sign of each bilinear sum is decided exactly, in three steps:

1. constant point: when every term's image is the same one-point box
   {p}, the circulation is <sum of displacements, p>, and a cycle's
   displacements sum to exactly 0, so the total is 0 and the cycle
   passes before any arithmetic;
2. float filter (``_float_pass``): one pass in doubles passes a cycle
   that a proven rounding bound shows to be positive.  The same pass
   marks, in each term with more than one box, the candidate boxes:
   those that a proven per-box bound leaves able to attain the term's
   exact minimum;
3. exact sum: every other cycle (zero, negative, too close to call, or
   overflowing) is summed exactly over the candidate boxes alone.  Every
   finite double is an integer multiple of 2^-1074, so each coordinate
   is scaled to a plain ``int`` and sums of products are exact integers
   (telescoping sums come out exactly zero).

Steps 1 and 2 pass only cycles whose exact total is >= 0, which the
exact sum passes too, and a passing cycle has no certificate.  Step 3
drops only boxes whose exact value lies strictly above the term's
minimum, so the first minimising box, its corner and the total are those
of a walk over every box.  So verdicts, ``samples`` counts and
certificates are those of the exact sum over every box.  A reported
``value`` is one correctly rounded int/int division, equal to ``float``
of the same rational, or -inf when that rational lies below the double
range (IEEE round-to-nearest; ``float`` would raise).

The wcm, monotone, cyclic and growth checks decide on the (lo, hi)
pairs of the map's trusted ``_eval`` at the float tuples they build;
``check_closed_graph``, which works on whole sets, calls ``evaluate``.

Checks draw the deterministic battery, then their random points, pairs
or cycles, one at a time and only up to the first failure; the battery
comes in a fixed order and the random draws from the seeded generator
in a fixed order, so a report does not depend on how far the search
went.  The wcm, monotone and cyclic checks all run in ``_pair_check``,
and decide their battery once per class (``structured_pairs`` has the
rule and its proof): a class is a bit-identical image, each battery
point is evaluated once, where it is first used, and a pair whose
(class of F(x), class of F(y), sigma) already passed is counted and not
decided again, since it would pass too.  The stored classes count toward
``MAX_HELD_POINTS``, a budget of coordinates.  Only the pair/cycle
*sampling* is approximate: a ``pass-sampled`` verdict claims absence
of counterexamples within the budget, never a proof.  Every ``fail``
carries a certificate that re-verifies by direct evaluation of the map
at the points it names.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from itertools import chain
from operator import add, sub
from typing import Iterable, Iterator, Sequence

from .selector import _clip
from .setmap import (
    MAX_HELD_POINTS,
    MAX_RADIUS,
    CompactSet,
    SetValuedMap,
    Vector,
    _distance,
    _farthest_corner,
    as_vector,
    checked_vector,
    norm,
    vertices,
)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one sampled condition check.

    ``fail`` carries a deterministic certificate that replays by
    evaluating the map; ``pass-sampled`` only states that the budget
    found nothing.
    """

    condition: str
    verdict: str  # "pass-sampled" | "fail"
    samples: int
    seed: int
    radius: float
    certificate: dict | None = None
    extra: dict | None = None

    @property
    def failed(self) -> bool:
        return self.verdict == "fail"

    def to_json_dict(self) -> dict:
        out = {
            "condition": self.condition,
            "verdict": self.verdict,
            "samples": self.samples,
            "seed": self.seed,
            "radius": self.radius,
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.extra:
            out.update(self.extra)
        return out


# ---------------------------------------------------------------------------
# Sampling helpers
# ---------------------------------------------------------------------------

_LADDER = (0.25, 0.5, 0.75, 1.0, 2.0)
_STRADDLE = (1e-6, 1e-3, 0.1)


def _axis_point(n: int, j: int, value: float) -> Vector:
    p = [0.0] * n
    p[j] = value
    return tuple(p)


def _battery(m: SetValuedMap, radius: float) -> Iterator[tuple[Vector, Vector]]:
    """The pairs of ``structured_pairs``, drawn one at a time."""
    n = m.dim
    mags = sorted({v for v in _LADDER if v <= radius} | {radius, radius / 2})
    signed = sorted({s * v for v in mags for s in (1.0, -1.0)} | {0.0})
    for j in range(n):
        for a in signed:
            for b in signed:
                if a != b:
                    yield _axis_point(n, j, a), _axis_point(n, j, b)
    if n > 1:
        for j in range(n):
            k = (j + 1) % n
            for a in (radius / 2, -radius / 2, 1.0):
                for b in (radius / 2, -radius / 2, 1.0):
                    yield _axis_point(n, j, a), _axis_point(n, k, b)
    for j, bounds in sorted(m.region_boundaries().items()):
        for b in bounds:
            for eps in _STRADDLE:
                above = _axis_point(n, j, b + eps)
                below = _axis_point(n, j, b - eps)
                at = _axis_point(n, j, b)
                yield from ((above, below), (below, above), (at, above), (at, below))


def structured_pairs(m: SetValuedMap, radius: float) -> list[tuple[Vector, Vector]]:
    """Deterministic battery: axis-aligned pairs at ladder magnitudes,
    cross-axis pairs, and pairs straddling every (finite) region bound.

    The wcm, monotone and cyclic checks decide it once per class.  A
    class is a bit-identical image: images share one exactly when their
    corners, box by box, have the same bits.  The image a class stores is
    then each member's own image, bit for bit, so a decision or a
    certificate made from it is the pair's own.  A pair's key is (class
    of F(x), class of F(y), sigma), with sigma_j = sign(x_j - y_j).  A
    key is recorded only when its pair passes, and a later pair with a
    recorded key passes without a decision.  That is sound where the
    verdict depends on the points only through sigma:

    * wcm, every pair: the verdict of ``_hardest_corner`` reads sigma
      and the images alone (x and y enter only a certificate);
    * monotone and cyclic, a pair whose sigma has one nonzero entry j:
      then x - y = c e_j exactly (after ``_exact`` scaling ``-0.0`` and
      ``0.0`` both give 0), and the minimal circulation of the 2-cycle
      (y, x), v from F(x) and w from F(y), is c (min v_j - max w_j) for
      c > 0 and c (max v_j - min w_j) for c < 0, whose sign follows
      from sigma and the images.  A pair that differs in two coordinates
      (the cross-axis pairs) depends on magnitudes and is always decided.

    Each battery point is evaluated once, keyed by its bits (so
    ``(0.0,)`` and ``(-0.0,)`` are two points), where and in the order
    the pair decision first evaluates it.  A store past
    ``MAX_HELD_POINTS`` gives a new point no class, so its pairs are
    decided.  Every pair still counts in ``samples``, so reports do not
    change.
    """
    return list(_battery(m, radius))


def _random_point(rng: random.Random, n: int, radius: float) -> Vector:
    return tuple(rng.uniform(-radius, radius) for _ in range(n))


def _check_budget(radius: float, count: int, held: int = 0, name: str = "",
                  dim: int = 1) -> float:
    """The radius as a float, for drawing float tuples; or ValueError.  The
    check holds ``held`` points of dimension ``dim`` at once, as its
    argument ``name`` sets."""
    if not (math.isfinite(radius) and 0 < radius <= MAX_RADIUS):
        raise ValueError(f"radius must be finite and in (0, {MAX_RADIUS!r}], got {radius!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    if held * dim > MAX_HELD_POINTS:
        raise ValueError(f"{name} = {held} points held at once exceeds MAX_HELD_POINTS = "
                         f"{MAX_HELD_POINTS} coordinates ({held * dim} at dimension {dim})")
    return float(radius)


def _sampled_check(
    condition: str,
    verdicts: Iterable[dict | None],
    seed: int,
    radius: float,
    extra: dict | None = None,
) -> CheckReport:
    """Take the items' verdicts (a certificate, or None for a pass) in
    order up to the first failure.

    ``samples`` counts the verdicts taken: all of them on a pass, up to
    and including the failing one on a fail.  ``verdicts`` is lazy, so
    nothing past the first failure is drawn or decided.
    """
    samples = 0
    for samples, cert in enumerate(verdicts, 1):
        if cert is not None:
            return CheckReport(condition, "fail", samples, seed, radius, cert, extra)
    return CheckReport(condition, "pass-sampled", samples, seed, radius, None, extra)


class _ImageClasses:
    """The battery's image classes.  A class is a bit-identical image,
    keyed by the packed bits of its corners, and the store holds its
    image once; a point, keyed by its bits (so ``(0.0,)`` and ``(-0.0,)``
    are evaluated apart), holds its class number and that image.

    The store counts what it holds in coordinates: n for each point key
    and n for each corner of a stored image.  A new point that would take
    it past ``MAX_HELD_POINTS`` is evaluated afresh and has no class; the
    points and classes stored before keep theirs.
    """

    def __init__(self, m: SetValuedMap):
        self._eval = m._eval
        self._bits = struct.Struct(f"{m.dim}d").pack
        self.points: dict[bytes, tuple[list, int]] = {}
        self._classes: dict[bytes, int] = {}
        self.images: list[list[tuple[Vector, Vector]]] = []
        self.held = 0

    def image(self, p: Vector) -> tuple[list, int | None]:
        """F(p), bit for bit as ``_eval`` gives it, and its class."""
        key = self._bits(*p)
        entry = self.points.get(key)
        if entry is None:
            pairs = self._eval(p)
            bits = b"".join([self._bits(*corner) for box in pairs for corner in box])
            c = self._classes.get(bits)
            cost = (len(key) + (len(bits) if c is None else 0)) // 8
            if self.held + cost > MAX_HELD_POINTS:
                return pairs, None
            self.held += cost
            if c is None:
                c = self._classes[bits] = len(self.images)
                self.images.append(pairs)
            entry = self.points[key] = self.images[c], c
        return entry


def _pair_check(condition: str, m: SetValuedMap, battery: Iterable[tuple[Vector, ...]],
                draws: Iterable[tuple[Vector, ...]], seed: int, radius: float,
                extra: dict | None = None) -> CheckReport:
    """The report of ``_decide`` on the battery items, then on the random
    draws.  An item lists its points in the order they are evaluated.

    The battery is decided once per class, as ``structured_pairs`` states:
    its images come from one ``_ImageClasses`` store, and a pair whose key
    (class of its first image, class of its second, sigma) has passed
    passes without a decision.  Every wcm pair has a key; a circulation
    pair has one only when sigma has one nonzero entry.  The draws are
    evaluated with ``_eval``.  A monotone pair x == y passes before any
    evaluation, as its displacement is zero."""

    def verdicts() -> Iterator[dict | None]:
        store = _ImageClasses(m)
        passed: set[tuple] = set()
        for item in battery:
            if condition == "monotone" and item[0] == item[1]:
                yield None
                continue
            (fx, cx), (fy, cy) = store.image(item[0]), store.image(item[1])
            key = None
            if cx is not None and cy is not None:
                sigma = tuple([(a > b) - (a < b) for a, b in zip(*item)])
                if condition == "wcm" or len(sigma) - sigma.count(0) == 1:
                    key = cx, cy, sigma
                    if key in passed:
                        yield None
                        continue
            cert = _decide(condition, item, (fx, fy))
            if cert is None and key is not None:
                passed.add(key)
            yield cert
        for item in draws:
            yield (None if condition == "monotone" and item[0] == item[1]
                   else _decide(condition, item, [m._eval(p) for p in item]))

    return _sampled_check(condition, verdicts(), seed, radius, extra)


def _random_tuples(seed: int, n: int, radius: float, count: int, size: int):
    """`count` tuples of `size` random points, drawn one tuple at a time."""
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(_random_point(rng, n, radius) for _ in range(size))


# ---------------------------------------------------------------------------
# Componentwise selection condition (exact per pair)
# ---------------------------------------------------------------------------


def _midpoint(lo: float, hi: float) -> float:
    """A point of [lo, hi]: ``(lo + hi) / 2``, or ``lo / 2 + hi / 2``
    where the sum overflows.  Both ends are then far above the
    subnormals, so the halves are exact and their rounded sum lies in
    [lo, hi] (it is lo itself when lo == hi)."""
    mid = (lo + hi) / 2.0
    if math.isinf(mid):
        return lo / 2.0 + hi / 2.0
    return mid


def _hardest_corner(pairs_x: Sequence[tuple[Vector, Vector]],
                    pairs_y: Sequence[tuple[Vector, Vector]],
                    x: Vector, y: Vector) -> dict | None:
    """The decision of ``wcm_pair_feasible`` on the images' (lo, hi)
    pairs, at float tuples x and y of their dimension."""
    sigma = tuple([(a > b) - (a < b) for a, b in zip(x, y)])
    # selector convention is displacement-sign based (w >= prev when s > 0),
    # which is the sigma-flipped form of the constraint; a y-box the cut
    # empties is blocked at the first coordinate that emptied it.  One
    # surviving y-box decides a passing x-box, so the cut stops there;
    # a failing one has cut, and lists, every y-box
    flipped = tuple([-s for s in sigma])
    for box_index, (lo_x, hi_x) in enumerate(pairs_x):
        corner = tuple(
            lo if s > 0 else hi if s < 0 else _midpoint(lo, hi)
            for lo, hi, s in zip(lo_x, hi_x, sigma)
        )
        kept, dropped = _clip(pairs_y, corner, flipped, first=True)
        if not kept:
            return {
                "x": list(x),
                "y": list(y),
                "v": list(corner),
                "box_index": box_index,
                "signs": list(sigma),
                "blocking": [
                    {"box": k, "coordinate": j + 1,
                     "needs": "<=" if sigma[j] > 0 else ">=",
                     "bound": corner[j],
                     "available": [pairs_y[k][0][j], pairs_y[k][1][j]]}
                    for k, j in dropped
                ],
            }
    return None


def wcm_pair_feasible(
    image_x: CompactSet, image_y: CompactSet, x: Sequence[float], y: Sequence[float]
) -> dict | None:
    """Exact decision for one (x, y): None if every v in image_x admits a
    compatible w in image_y, else a counterexample certificate.

    Hardest corner: with sigma_j = sign(x_j - y_j) the constraint on w
    is ``w_j <= v_j`` where sigma_j > 0 and ``w_j >= v_j`` where
    sigma_j < 0, so it is tightest at v*_j = lo_j (resp. hi_j); free
    coordinates take the midpoint of the box's side, halved before
    adding where ``lo + hi`` overflows, so v* stays inside its box.  One
    w for v* serves the whole box, and v* itself is a genuine witness.
    """
    x = as_vector(x)
    y = as_vector(y)
    if not len(x) == len(y) == image_x.dim == image_y.dim:
        raise ValueError(
            f"dimension mismatch: x {len(x)}, y {len(y)}, images "
            f"{image_x.dim} and {image_y.dim}"
        )
    return _hardest_corner(image_x._pairs(), image_y._pairs(), x, y)


def check_wcm_pair(m: SetValuedMap, x: Sequence[float], y: Sequence[float]) -> dict | None:
    """Exact per-pair check on a map; None means the pair passes."""
    x, y = checked_vector(x, m.dim, "point", m), checked_vector(y, m.dim, "point", m)
    return _hardest_corner(m._eval(x), m._eval(y), x, y)


def check_wcm(m: SetValuedMap, radius: float, count: int, seed: int) -> CheckReport:
    """Sample `count` random pairs in [-radius, radius]^n after the
    deterministic battery; first failure short-circuits."""
    r = _check_budget(radius, count)
    return _pair_check("wcm", m, _battery(m, r), _random_tuples(seed, m.dim, r, count, 2),
                       seed, radius)


# ---------------------------------------------------------------------------
# Monotonicity and cyclic monotonicity (exact per-box minimisation)
# ---------------------------------------------------------------------------

_SCALE = 1074  # every finite double is an integer multiple of 2**-_SCALE
_PRODUCT_UNIT = 1 << (2 * _SCALE)  # a product of two scaled coordinates


def _exact(c: float) -> int:
    """c * 2**1074, exactly."""
    num, den = c.as_integer_ratio()
    return num << (_SCALE + 1 - den.bit_length())


def _min_vertex(pairs: Sequence[tuple[Vector, Vector]],
                d: Sequence[int]) -> tuple[int, Vector]:
    """Minimum of <d, v> over the union of the (lo, hi) boxes (scaled by
    2**2148) and the first corner in ``vertices()`` order that attains
    it; ``d`` is scaled by 2**1074."""
    best = best_box = None
    for box in pairs:
        val = 0
        for c, lo, hi in zip(d, *box):
            if c:  # c * _exact(corner), multiplying by the 53-bit numerator before the shift
                num, den = (lo if c > 0 else hi).as_integer_ratio()
                val += c * num << (_SCALE + 1 - den.bit_length())
        if best is None or val < best:
            best, best_box = val, box
    assert best_box is not None
    # where c < 0 and lo == hi the corner takes lo: the same value, and
    # the sign of zero that ``vertices()`` lists first
    return best, tuple([lo if c >= 0 or lo == hi else hi
                        for c, lo, hi in zip(d, *best_box)])


def _violation_value(value: int) -> float:
    """The negative sum ``value`` (scaled by 2**2148) as a correctly
    rounded float.  A quotient below -DBL_MAX that int/int division
    cannot represent is -inf, as IEEE round-to-nearest rounds it."""
    try:
        return value / _PRODUCT_UNIT
    except OverflowError:
        return -math.inf


_UNIT_ROUNDOFF = 2.0 ** -53
_TINY = 5e-324  # 2**-1074, the smallest subnormal double


def _float_pass(points: Sequence[Vector],
                images: Sequence[Sequence[tuple[Vector, Vector]]]
                ) -> list[Sequence[tuple[Vector, Vector]]] | None:
    """None only when the cycle's minimal circulation is exactly > 0;
    otherwise, per term, the candidate boxes of its image, in order.

    ``images[k]`` holds the (lo, hi) boxes of F at ``points[k + 1]``
    (cyclically), so term k pairs that image with the displacement
    ``c = points[k + 1] - points[k]``.  Everything is computed in
    doubles: ``c~ = fl(c)`` per coordinate, per box the products
    ``q_j = fl(c~_j v_j)`` at the corner v, their running sum ``t~``
    and, over all terms and boxes, a rounded sum ``A`` of every
    ``|q_j|``; ``m~`` is the least ``t~`` of a term and ``S~`` the
    running sum of the L terms' ``m~``.  The cycle is accepted when
    ``B < S~ < inf`` with ``B = fl(fl(K A) + U)``, ``K = 4 (n + L) u``
    and ``U = 8 M eta``.

    The corner is the exact path's: ``fl(a - b)`` has the sign of
    ``a - b`` and is +-0 only when ``a == b``, so ``c >= 0 or lo == hi``
    picks ``lo`` exactly where ``_min_vertex`` does, and v minimises
    <c, v> over its box exactly.

    The bound, with u = 2**-53, eta = 2**-1075 (the most a product loses
    when it lands among the subnormals), gamma_k = k u / (1 - k u) as in
    Higham's "Accuracy and Stability of Numerical Algorithms", n the
    dimension, L the terms, N the boxes of all L images (N >= L) and
    M = n N the products.  Every count is below 2**40 (the images are
    held in memory), so k u <= 1/4 for every k used.  While nothing
    overflows:

    1. subtraction: ``c~ = c (1 + e)``, |e| <= u; a difference that
       lands among the subnormals is exact, so there is no absolute term;
    2. product: ``q = c~ v (1 + d) + h``, |d| <= u, |h| <= eta;
    3. sum of the n products of a box (its first addition is to 0.0 and
       exact): with T = <c, v> and P = sum |c_j v_j|,
       |t~ - T| <= gamma_{n+1} P + n eta (1 + gamma_{n-1});
    4. min over boxes: min is 1-Lipschitz in the max norm, so a term's
       ``m~`` is within the largest box error of the exact minimum, which
       is at most the same bound with P summed over the term's boxes;
       and |m~| <= (1 + gamma_{n+1}) P + n eta (1 + gamma_{n-1});
    5. sum of the L terms: |S~ - sum m~| <= gamma_{L-1} sum |m~|.  With
       P now summed over all N boxes, and gamma_j + gamma_k +
       gamma_j gamma_k <= gamma_{j+k}, the exact circulation S obeys
       |S~ - S| <= gamma_{n+L} P + 2 L n eta;
    6. magnitudes: |q| >= |c v| (1 - u)**2 - eta, and ``A`` adds the M
       non-negative ``|q_j|`` (per box first, where a term has more than
       one box), each through at most M + 1 roundings, so
       P <= A / (1 - u)**(M+1) + M eta / (1 - u)**2; with k u <= 1/4
       that gives |S~ - S| <= 2 (n + L) u A + 3 M eta;
    7. the bound's own rounding: K and U are exact doubles and
       B >= (K A (1 - u) - eta + U)(1 - u) >= 2 (n + L) u A + 3 M eta.

    So ``B < S~`` gives S >= S~ - |S~ - S| > 0.  Overflow fails the
    test: an inf displacement or product makes ``A`` inf or NaN (inf
    times a zero corner), and then B too.  A finite ``A`` bounds every
    product and every partial sum of a box (rounding is monotone), and
    a finite ``S~`` had no inf or NaN partial sum, so with both finite
    nothing overflowed.

    Candidates, in a term with more than one box, for a cycle that is
    not accepted.  Box b has ``t~_b``, ``P_b``, the rounded sum of its n
    ``|q_j|``, and ``E_b = fl(fl(k P_b) + w)`` with ``k = 4 (n + 1) u``
    and ``w = 4 n 2**-1074 = 8 n eta``, both exact doubles.  While
    nothing overflows, steps 1 and 2 give |sum q - T_b| <= gamma_2 P +
    n eta, with P = sum |c_j v_j| over the box's n products, the
    additions |t~_b - sum q| <= gamma_{n-1} sum |q|, and
    sum |q| <= P_b / (1 - u)**(n-1), P <= (sum |q| + n eta) / (1 - u)**2.
    With (n + 1) u <= 1/4 these give |t~_b - T_b| <= 2 (n + 1) u P_b +
    2 n eta, which E_b >= (k P_b (1 - u) - eta + w)(1 - u) covers.  Box
    b is a candidate when ``fl(t~_b - E_b) <= C``, where ``C`` is the
    least ``fl(t~_b' + E_b')`` of the term.  Rounding is monotone, so a
    box that is not a candidate has T_b >= t~_b - E_b > t~_b' + E_b' >=
    T_b' for the b' that sets C: its exact value lies strictly above the
    term's minimum.  The box that sets C is a candidate, so none is left
    empty.  A finite ``A`` shows that nothing overflowed; otherwise every
    box is kept.  A one-box term keeps its image, with no per-box lists.
    """
    total = mag = 0.0
    boxes = 0
    spread = []  # (term, every t~_b, every P_b) of the terms with several boxes
    for term, (here, prev, pairs) in enumerate(zip((*points[1:], points[0]), points, images)):
        # a zero coordinate adds +-0 to val, size and mag, which changes
        # no bit: each starts at 0.0, and a sum is -0.0 only when both of
        # its addends are, so none is ever -0.0
        moved = [(j, c) for j, c in enumerate(map(sub, here, prev)) if c]
        boxes += len(pairs)
        if len(pairs) == 1:
            (lo_b, hi_b), = pairs
            val = 0.0
            for j, c in moved:
                lo = lo_b[j]
                hi = hi_b[j]
                q = c * lo if c >= 0 or lo == hi else c * hi
                val += q
                mag += abs(q)
            total += val
            continue
        values = []
        sizes = []
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
    bound = 4 * (n + len(points)) * _UNIT_ROUNDOFF * mag + 4 * n * boxes * _TINY
    if bound < total < math.inf:
        return None
    terms = list(images)
    if mag < math.inf:
        k = 4 * (n + 1) * _UNIT_ROUNDOFF
        w = 4 * n * _TINY
        for term, values, sizes in spread:
            errors = [k * size + w for size in sizes]
            cut = min(map(add, values, errors))
            terms[term] = [box for box, val, err in zip(images[term], values, errors)
                           if val - err <= cut]
    return terms


def _circulation_gap(points: Sequence[Vector],
                     images: Sequence[Sequence[tuple[Vector, Vector]]]) -> dict | None:
    """The cycle's certificate, or None where its minimal circulation is
    >= 0; ``images[k]`` holds the (lo, hi) boxes of F at
    ``points[k + 1]`` (cyclically)."""
    length = len(points)
    first = images[0]
    # one point p at every term: the total is <sum of displacements, p> = 0
    if len(first) == 1 and first[0][0] == first[0][1] and images.count(first) == length:
        return None
    terms = _float_pass(points, images)
    if terms is None:
        return None
    scaled = [[_exact(c) for c in p] for p in points]
    total = 0
    chosen: list[Vector] = []
    for i, pairs in enumerate(terms, 1):
        d = [a - b for a, b in zip(scaled[i % length], scaled[i - 1])]
        val, v = _min_vertex(pairs, d)
        total += val
        chosen.append(v)
    if total < 0:
        cycle = [list(p) for p in points] + [list(points[0])]
        return {"cycle": cycle, "velocities": [list(v) for v in chosen],
                "value": _violation_value(total)}
    return None


def _decide(condition: str, item: Sequence[Vector],
            images: Sequence[Sequence[tuple[Vector, Vector]]]) -> dict | None:
    """The certificate of one item, or None where it passes; ``images[k]``
    holds the (lo, hi) boxes of F at ``item[k]``.

    A wcm item is the pair (x, y).  A circulation item lists its cycle
    from the second point on, in the order the cycle's terms evaluate
    F, so the 2-cycle (a, b) is the item (b, a).  <x-y, v-w> is the
    circulation of the 2-cycle (y, x), whose terms take v from F(x) and
    w from F(y): the monotone pair (x, y) is that item, and its
    certificate names x, y, v, w and the value.
    """
    if condition == "wcm":
        return _hardest_corner(*images, *item)
    cert = _circulation_gap((item[-1], *item[:-1]), images)
    if cert is None or condition == "cyclic":
        return cert
    (y, x, _), (v, w) = cert["cycle"], cert["velocities"]
    return {"x": x, "y": y, "v": v, "w": w, "value": cert["value"]}


def find_monotonicity_violation(
    m: SetValuedMap, radius: float, count: int, seed: int
) -> CheckReport:
    """Search for <x-y, v-w> < 0; exact per pair via per-box minimisation."""
    r = _check_budget(radius, count)
    return _pair_check("monotone", m, _battery(m, r), _random_tuples(seed, m.dim, r, count, 2),
                       seed, radius)


def find_cyclic_violation(
    m: SetValuedMap, radius: float, cycle_len: int, count: int, seed: int
) -> CheckReport:
    """Search cycles whose minimal circulation sum is negative.

    The sum splits per cycle point, so each term is minimised over that
    point's image independently (exact per cycle).  A battery pair (a, b)
    with a != b is the 2-cycle (a, b), whose terms evaluate F(b) first.
    """
    if cycle_len < 2:
        raise ValueError("cycles need at least 2 points")
    r = _check_budget(radius, count, cycle_len, "cycle_len", m.dim)
    return _pair_check(
        "cyclic", m, ((b, a) for a, b in _battery(m, r) if a != b),
        ((*c[1:], c[0]) for c in _random_tuples(seed, m.dim, r, count, cycle_len)),
        seed, radius, {"cycle_len": cycle_len})


# ---------------------------------------------------------------------------
# Linear growth
# ---------------------------------------------------------------------------


def _growth_gap(m: SetValuedMap, x: Vector) -> dict | None:
    """None unless a box of F(x) has a farthest corner whose norm exceeds
    the declared bound ``A + B*|x|``, both evaluated in floats; then a
    certificate for the first such box.  F(x) is evaluated even where no
    bound is declared, so a bad image raises there too."""
    pairs = m._eval(x)
    if m.growth is None:
        return None
    a, b = m.growth
    bound = a + b * norm(x)
    for box_index, (lo, hi) in enumerate(pairs):
        v = _farthest_corner(lo, hi)
        g = math.hypot(*v)
        if g > bound:
            return {"x": list(x), "box_index": box_index, "v": list(v),
                    "norm": g, "bound": bound}
    return None


def check_growth(m: SetValuedMap, radius: float, count: int, seed: int) -> CheckReport:
    """Test the declared growth ``sup_norm(F(x)) <= A + B*|x|`` at the
    origin, at ``(r, -r, r/2, 1, -1)`` on each axis, then at ``count``
    random points; ``fail`` at the first point where it breaks, with the
    certificate of ``_growth_gap``: x, ``box_index``, the box's farthest
    corner ``v``, ``norm = hypot(v)`` and ``bound``.  A map that declares
    no growth constants passes.  The declared constants go to the
    report's ``declared`` field."""
    r = _check_budget(radius, count)
    n = m.dim
    points = chain(
        [(0.0,) * n],
        (_axis_point(n, j, v) for j in range(n) for v in (r, -r, r / 2, 1.0, -1.0)),
        (p for p, in _random_tuples(seed, n, r, count, 1)),
    )
    return _sampled_check("growth", (_growth_gap(m, x) for x in points), seed, radius,
                          {"declared": list(m.growth) if m.growth else None})


# ---------------------------------------------------------------------------
# Closed graph (upper semi-continuity heuristic)
# ---------------------------------------------------------------------------

_GRAPH_DELTAS = (1e-5, 1e-7)


def check_closed_graph(
    m: SetValuedMap,
    radius: float,
    count: int,
    seed: int,
    eps: float,
) -> CheckReport:
    """Two-scale perturbation heuristic for upper semi-continuity.

    A point is suspect when every vertex-distance from F(x + delta*d)
    to F(x) stays above eps at both of the smallest perturbation
    scales, i.e. the image jumps away and the jump does not shrink.
    Open-region piece encodings are the typical culprit.  The points on
    the axes at the (finite) region bounds are probed first.  A
    direction is cleared at its first scale within eps.

    Each point costs O(n^2) even where every image is one point: 2n + 2
    directions (2n at n = 1), each evaluating an n-dimensional image
    and measuring its vertices against F(x).  On a constant-zero map,
    ``count = 1`` (two points) took 0.51 s at n = 500 and 1.9 s at
    n = 1000 on a 2-core x86-64 VM.
    """
    if not math.isfinite(eps) or eps <= 0:
        raise ValueError(f"eps must be finite and > 0, got {eps!r}")
    r = _check_budget(radius, count, count, "count", m.dim)
    rng = random.Random(seed)
    points: list[Vector] = [(0.0,) * m.dim]
    for j, bounds in sorted(m.region_boundaries().items()):
        for b in bounds:
            points.append(_axis_point(m.dim, j, b))
    points.extend(_random_point(rng, m.dim, r) for _ in range(count))

    directions: list[Vector] = []  # after the 2n axis directions
    if m.dim > 1:
        for _ in range(2):
            d = tuple(rng.gauss(0.0, 1.0) for _ in range(m.dim))
            length = norm(d)
            if length > 0:
                directions.append(tuple(c / length for c in d))

    def probe(x: Vector) -> dict | None:
        base = m.evaluate(x)._pairs()
        # made as they are used: held, the axis directions are 2n^2 coordinates
        axes = (_axis_point(m.dim, j, s) for j in range(m.dim) for s in (1.0, -1.0))
        for d in chain(axes, directions):
            distances: list[float] = []
            for delta in _GRAPH_DELTAS:
                shifted = tuple(c + delta * dc for c, dc in zip(x, d))
                far, vertex = 0.0, None
                for u in vertices(m.evaluate(shifted)):
                    gap = _distance(base, u)
                    if gap > far:
                        far, vertex = gap, u
                if far <= eps:
                    break
                distances.append(far)
            else:
                return {
                    "x": list(x),
                    "direction": list(d),
                    "deltas": list(_GRAPH_DELTAS),
                    "distances": distances,
                    "vertex": list(vertex),
                }
        return None

    return _sampled_check("closed-graph", map(probe, points), seed, radius, {"eps": eps})


# ---------------------------------------------------------------------------
# Trajectory quality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoordinateMonotone:
    """Exact per-coordinate classification of one polygon coordinate."""

    coordinate: int
    classification: str  # "identically-zero" | "increasing" | "decreasing"
    velocity_sign_stable: bool
    velocity_monotone: bool
    nodes_monotone: bool

    @property
    def ok(self) -> bool:
        return self.velocity_sign_stable and self.velocity_monotone and self.nodes_monotone


def check_trajectory_monotone(traj) -> tuple[CoordinateMonotone, ...]:
    """Verify sign stability and monotonicity of velocities and nodes.

    All comparisons are exact (tolerance 0), as is the selection rule,
    so a violation on an ``euler_polygon`` trajectory indicates a solver
    bug, not a property of the map.  An all-zero velocity tail is
    monotone.  A decreasing coordinate is checked as the increasing
    coordinate of its negation; negation is exact, so every comparison
    answers as on the coordinate itself.
    """
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
        if not increasing:
            vs = [-v for v in vs]
            xs = [-x for x in xs]
        tail = vs[first:]
        out.append(CoordinateMonotone(
            j, "increasing" if increasing else "decreasing",
            velocity_sign_stable=all(v > 0.0 for v in tail),
            velocity_monotone=all(a <= b for a, b in zip(tail, tail[1:])),
            nodes_monotone=all(a <= b for a, b in zip(xs, xs[1:])),
        ))
    return tuple(out)


RESIDUAL_SAMPLES = 4  # interior states ``residual`` samples in each step


def residual(traj, m: SetValuedMap) -> tuple[float, float]:
    """(max node residual, max interior residual).

    Node residual is the distance from each interval velocity to the
    image at its node — 0 by selection soundness.  The interior residual
    samples RESIDUAL_SAMPLES states strictly inside each interval;
    expected O(h) away from image discontinuities.

    The images are evaluated from the map, independently of the solve
    that built the trajectory, so a selection bug shows as a nonzero
    node residual.  A ``Trajectory`` is checked where it is built, so
    only its dimension is checked against the map's; the images come
    from the map's trusted ``_eval``.  Membership is exact: a distance
    is 0.0 exactly when the velocity lies in the image, because a float
    difference is 0 only between equal values and never changes sign,
    so each coordinate gap ``max(lo - v, v - hi, 0.0)`` is 0.0 exactly
    when ``lo <= v <= hi``.  A nonzero distance is ``math.hypot`` of
    rounded gaps, accurate to a few ulps, and the interior sample states
    carry the rounding of ``x + dt * v``.  Four shortcuts leave both
    maxima unchanged, bit for bit:

    * each distance stops at the first box within the running maximum
      (``_distance``'s ``stop``);
    * within one interval v is fixed, so an interior image equal
      (``==``) to the previous sample's has the distance that sample
      already folded into the running maximum (equal corners give
      equal gaps up to the sign of a zero, which ``hypot`` drops); its
      distance is not computed again;
    * a step whose node and velocity are the previous step's objects
      (as ``euler_polygon`` makes the steps of a fixed point, and
      ``trajectory_from_csv`` the rows that repeat), has that step's
      node image, since ``_eval`` is a pure function of its point, and
      so its node distance; neither is computed again;
    * such a step's interior samples ``x + dt * v`` are the previous
      step's too when its span equals the previous span or v is all
      zeros, and then they are not evaluated again.  Otherwise the
      spans of a uniform mesh differ by ulps, and so may the samples.

    So every distinct node and every distinct run of interior samples
    is evaluated and corner-checked.  A maximum is raised only by a
    strictly larger distance, so it keeps its earlier value on a tie,
    as ``max`` would.
    """
    if traj.dim != m.dim:
        raise ValueError(f"trajectory has dimension {traj.dim}, {m} has {m.dim}")
    evaluate = m._eval
    nodes = traj.nodes
    velocities = traj.velocities
    node_res = 0.0
    px = pv = None
    for x, v in zip(nodes, velocities):
        if x is px and v is pv:
            continue
        px, pv = x, v
        d = _distance(evaluate(x), v, node_res)
        if d > node_res:
            node_res = d
    interval_res = 0.0
    parts = RESIDUAL_SAMPLES + 1
    times = traj.times
    last = 0.0  # the previous step's span; every span is > 0
    px = pv = None
    for i, (x, v) in enumerate(zip(nodes, velocities)):
        span = times[i + 1] - times[i]
        again = x is px and v is pv and (span == last or not any(v))
        px, pv, last = x, v, span
        if again:
            continue
        seen = None
        for k in range(1, parts):
            dt = span * k / parts
            image = evaluate(tuple([c + dt * vc for c, vc in zip(x, v)]))
            if image != seen:
                seen = image
                d = _distance(image, v, interval_res)
                if d > interval_res:
                    interval_res = d
    return node_res, interval_res
