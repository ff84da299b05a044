"""Box-union sets and set-valued maps.

The images of every map in this package are finite unions of closed,
axis-aligned boxes in R^n (degenerate boxes are points, so finite point
sets are covered too).  That representation keeps the geometric
queries of the solver and the checkers free of tolerances: membership,
extreme points and coordinate-interval intersections are exact, and a
point-to-set distance is 0.0 exactly on membership (a nonzero one is a
rounded ``math.hypot``).

Maps are immutable and evaluation is pure: the same input vector always
produces the same box list, bit for bit.

Validation happens once, at the boundary: ``checked_vector`` is the one
dimension check of a vector from outside (a point, x0, a velocity), and
returns a float tuple; the map-file reader (``mapdsl``) is the one
structural check of a piecewise map, and the map classes trust their
two builders, that reader and the builtin catalog.  Below that, maps
pass float tuples through ``_eval``, and a piecewise map's ``_eval`` is
one function compiled at construction from its regions and expression
trees: inline region tests, then each matching piece's boxes (a very
large map becomes a few such functions, run in order).  A constant
subexpression is computed once, when the map is built, with the same
bits as at evaluation.  The other corners, and a constant one that is
not finite or has ``lo > hi``, are checked on every evaluation, so a
bad image raises the same ``MapDefinitionError`` as ever.

The solver, the analyzer and ``validate_map`` call ``_eval`` directly
on float tuples they build and work on its (lo, hi) pairs: the Euler
step loop (through the selector core), ``residual`` (through
``_distance``, which ``distance`` runs), the wcm, monotone, cyclic and
growth checks (through the hardest-corner core, ``_min_vertex`` and
``_farthest_corner``).  A native builtin's function returns those pairs
itself.  Boxes and sets are built only for public callers (the graph
check is one, through ``evaluate``), always by the checking
constructors.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
import sys
from dataclasses import dataclass
from itertools import product as _product
from typing import Callable, Sequence

Vector = tuple[float, ...]

MAX_RADIUS = sys.float_info.max / 2  # uniform(-r, r) and point differences stay finite

# The most coordinates held at once: one image (2n a box) or corner list
# (n a corner) and, in the analyzer, a check's graph samples or one cycle
# (n a point) or the battery's image classes (n a corner of a stored
# image and n a point key).  10**6 points at n = 3.
MAX_HELD_POINTS = 3 * 10 ** 6

_INF = math.inf
_NINF = -math.inf
_TINY = sys.float_info.min  # the smallest normal float


class MapDefinitionError(ValueError):
    """A map is structurally invalid (empty image, lo > hi, bad dims)."""


class ImageTooLarge(ValueError):
    """An image whose boxes would hold more than MAX_HELD_POINTS coordinates.

    The message names the product or union that refuses, with its own
    dimension and the point in its own coordinates: a subtree may be
    shared, so it cannot know where it sits in the whole map."""


def as_vector(x: Sequence[float]) -> Vector:
    return tuple(map(float, x))


def norm(x: Sequence[float]) -> float:
    return math.hypot(*x)


def checked_vector(x: Sequence[float], dim: int, what: str, owner: object) -> Vector:
    """``as_vector(x)`` of ``dim`` coordinates, else ValueError "<what> has dimension <n>,
    <owner> has <dim>"; ``owner`` is formatted only then, so a map passes itself."""
    if len(x) != dim:
        raise ValueError(f"{what} has dimension {len(x)}, {owner} has {dim}")
    return as_vector(x)


def finite_vector(x: Sequence[float], what: str) -> Vector:
    """``as_vector(x)``, raising ValueError naming ``what`` unless every
    coordinate is finite."""
    v = as_vector(x)
    if not all(math.isfinite(c) for c in v):
        raise ValueError(f"{what} must be finite, got {v}")
    return v


_TWO53 = float(2 ** 53)
_TWO52 = 2 ** 52


def real_cbrt(v: float) -> float:
    """Correctly rounded real cube root, odd by construction.

    ``float ** (1/3)`` can be off by an ulp depending on the platform's
    pow; the selection logic compares cube roots of nearby states
    exactly, so the result must be the nearest double (which also makes
    the function weakly monotone).  The candidate ``r`` from pow is
    accepted only if the midpoints between it and its two neighbours
    bracket the cube root, decided by one exact integer comparison of
    both midpoints' cubes with ``|v|``; otherwise it is nudged one ulp
    and checked again.  No cube root of a double lies on a midpoint, so
    exactly one double passes.
    """
    if v == 0.0 or not math.isfinite(v):
        return v
    a = abs(v)
    m, e = math.frexp(a)
    big_a = int(m * _TWO53)  # a = big_a * 2**(e - 53), exactly
    # pow on the mantissa part (in [0.5, 4)) is within an ulp or so;
    # on a itself it drifts by up to ~100 ulps at extreme exponents
    q, k = divmod(e, 3)
    r = math.ldexp(math.ldexp(m, k) ** (1.0 / 3.0), q)
    while True:
        # r is a normal double (a >= 2**-1074 gives r > 2**-359), so
        # r = big_r * 2**(f - 53) with a 53-bit integer big_r; in units
        # of 2**(f - 55) the midpoints to its neighbours are lo and hi
        # (the lower gap halves when r is a power of two).
        m, f = math.frexp(r)
        big_r = int(m * _TWO53)
        lo = 4 * big_r - (1 if big_r == _TWO52 else 2)
        hi = 4 * big_r + 2
        shift = 3 * f - e - 112  # midpoint**3 / a = (mid**3 / big_a) * 2**shift
        if shift >= 0:
            lo3, hi3, target = lo ** 3 << shift, hi ** 3 << shift, big_a
        else:
            lo3, hi3, target = lo ** 3, hi ** 3, big_a << -shift
        if lo3 <= target <= hi3:
            return math.copysign(r, v)
        r = math.nextafter(r, 0.0 if lo3 > target else _INF)


# ---------------------------------------------------------------------------
# Scalar expressions (the arithmetic used inside piecewise map images)
# ---------------------------------------------------------------------------

def _sign(v: float) -> float:
    return 1.0 if v > 0 else -1.0 if v < 0 else 0.0


# op -> (source template of its compiled code, the function that folds it
# when every argument is a constant); the two apply the same operation,
# and both look ``real_cbrt`` up in this module's globals when called
_OPS: dict[str, tuple[str, Callable[..., float]]] = {
    "neg": ("-{}", operator.neg),
    "add": ("{} + {}", operator.add),
    "sub": ("{} - {}", operator.sub),
    "mul": ("{} * {}", operator.mul),
    "sign": ("1.0 if {0} > 0 else -1.0 if {0} < 0 else 0.0", _sign),
    "cbrt": ("real_cbrt({})", lambda v: real_cbrt(v)),
    "abs": ("abs({})", abs),
}
_EXPR_OPS = ("const", "var", *_OPS)


@dataclass(frozen=True, slots=True)
class Expr:
    """Expression tree over constants, coordinates and {+,-,*,sign,cbrt,abs}.

    Evaluation is total on R; ``sign(0) = 0`` and ``cbrt`` is the real
    cube root (``cbrt(-8) = -2``).  Multi-valued behaviour at
    discontinuities is never encoded here; it belongs to overlapping
    piece regions.
    """

    op: str
    args: tuple["Expr", ...] = ()
    value: float = 0.0
    index: int = 0

    def __post_init__(self) -> None:
        if self.op not in _EXPR_OPS:
            raise ValueError(f"unknown expression op {self.op!r}")
        if self.op == "const":
            object.__setattr__(self, "value", float(self.value))

    @classmethod
    def const(cls, v: float) -> "Expr":
        return cls("const", value=float(v))

    @classmethod
    def var(cls, index: int = 0) -> "Expr":
        if index < 0:
            raise ValueError("variable index must be >= 0")
        return cls("var", index=index)

    @classmethod
    def neg(cls, e: "Expr") -> "Expr":
        return cls("neg", args=(e,))

    @classmethod
    def add(cls, a: "Expr", b: "Expr") -> "Expr":
        return cls("add", args=(a, b))

    @classmethod
    def sub(cls, a: "Expr", b: "Expr") -> "Expr":
        return cls("sub", args=(a, b))

    @classmethod
    def mul(cls, a: "Expr", b: "Expr") -> "Expr":
        return cls("mul", args=(a, b))

    @classmethod
    def sign(cls, e: "Expr") -> "Expr":
        return cls("sign", args=(e,))

    @classmethod
    def cbrt(cls, e: "Expr") -> "Expr":
        return cls("cbrt", args=(e,))

    @classmethod
    def abs(cls, e: "Expr") -> "Expr":
        return cls("abs", args=(e,))

    def max_var_index(self) -> int:
        if self.op == "var":
            return self.index
        if not self.args:
            return -1
        return max(a.max_var_index() for a in self.args)

    def to_text(self, dim: int = 1) -> str:
        """Serialize so that the map-file grammar parses it back."""
        return self._text(dim, 0)

    # precedence levels: 0 = sum, 1 = product, 2 = factor
    def _text(self, dim: int, level: int) -> str:
        op = self.op
        if op == "const":
            v = self.value
            # float("1e999") is inf, and the grammar has no name for it
            body = "1e999" if math.isinf(v) else format(abs(v), ".17g")
            if math.copysign(1.0, v) < 0:
                return f"(-{body})" if level > 2 else f"-{body}"
            return body
        if op == "var":
            text = "x" if dim == 1 else f"x{self.index + 1}"
            return text
        if op == "neg":
            body = f"-{self.args[0]._text(dim, 2)}"
            return f"({body})" if level > 2 else body
        if op in ("add", "sub"):
            sep = "+" if op == "add" else "-"
            body = f"{self.args[0]._text(dim, 0)}{sep}{self.args[1]._text(dim, 1)}"
            return f"({body})" if level > 0 else body
        if op == "mul":
            body = f"{self.args[0]._text(dim, 1)}*{self.args[1]._text(dim, 2)}"
            return f"({body})" if level > 1 else body
        return f"{op}({self.args[0]._text(dim, 0)})"


# ---------------------------------------------------------------------------
# Compilation of expression trees to straight-line Python
# ---------------------------------------------------------------------------

_pack_double = struct.Struct("<d").pack


_CHUNK = 2048  # source characters compiled together, at most one piece more


class _Codegen:
    """Builds the statements that collect the image boxes of a run of
    pieces into a list ``out``, one statement per distinct subtree of
    each box.

    Constants and other objects become parameters of a factory
    function, so each float is bound as an object and never printed;
    constants are keyed by their bits, so 0.0 and -0.0 (equal under
    ``==``) stay distinct.  A constant subexpression is computed once,
    here, by the same operation as the compiled code (``_OPS``), so its
    value has the bits it would have at evaluation.  Within one box a
    subtree equal to one already computed reuses its temporary;
    evaluation is pure, so this changes no result.  ``real_cbrt`` is
    looked up in this module's globals at call time.
    """

    def __init__(self):
        self.consts: dict[bytes, str] = {}
        self.bound: dict[str, object] = {}
        self.lines: list[str] = []
        self.size = 0

    def bind(self, value: object) -> str:
        name = f"c{len(self.bound)}"
        self.bound[name] = value
        return name

    def const(self, v: float) -> str:
        bits = _pack_double(v)
        name = self.consts.get(bits)
        if name is None:
            name = self.consts[bits] = self.bind(v)
        return name

    def operand(self, e: Expr, memo: dict, body: list[str]) -> str:
        """Emit the statements computing e; return the name holding it,
        a constant's when every argument of e is one."""
        op = e.op
        if op == "const":
            return self.const(e.value)
        if op == "var":
            key: tuple = ("var", e.index)
            rhs = f"x[{e.index}]"
        else:
            args = tuple(self.operand(a, memo, body) for a in e.args)
            template, fold = _OPS[op]
            if all(a in self.bound for a in args):
                return self.const(fold(*(self.bound[a] for a in args)))
            key = (op, *args)
            rhs = template.format(*args)
        name = memo.get(key)
        if name is None:
            name = memo[key] = f"t{len(memo)}"
            body.append(f"{name} = {rhs}")
        return name

    def piece(self, p: Piece) -> None:
        """Emit the statements that append p's boxes to ``out`` where its
        region holds.  A coordinate whose corners are constants is
        checked here; the others, and a constant one that fails, are
        checked at evaluation, where a corner that is not finite, or
        lo > hi, raises through ``_bad_box``.  A box whose coordinates
        all pass here is bound as its value."""
        body: list[str] = []
        names = []
        for box in p.image:
            memo: dict = {}
            los, his = [], []
            ok = {}  # ordered set: a repeated coordinate is checked once
            for lo_e, hi_e in box:
                a = self.operand(lo_e, memo, body)
                b = a if hi_e is lo_e else self.operand(hi_e, memo, body)
                los.append(a)
                his.append(b)
                if not (a in self.bound and b in self.bound
                        and _NINF < self.bound[a] <= self.bound[b] < _INF):
                    ok[f"_NINF < {a} < _INF" if a == b else f"_NINF < {a} <= {b} < _INF"] = None
            if not ok:
                names.append(self.bind((tuple(self.bound[n] for n in los),
                                        tuple(self.bound[n] for n in his))))
                continue
            name = f"b{len(names)}"
            body += [f"lo = ({''.join(n + ', ' for n in los)})",
                     f"{name} = lo, " + ("lo" if los == his else
                                         f"({''.join(n + ', ' for n in his)})"),
                     "if not (" + "\n        and ".join(ok) + "):",
                     f"    _bad_box(label, x, *{name})"]
            names.append(name)
        body.append(f"out.append({names[0]})" if len(names) == 1
                    else f"out += ({', '.join(names)})")
        test = " and ".join(f"x[{c.var}] {_REGION_OPS[c.op]} {self.const(c.bound)}"
                            for c in p.conditions)
        if test:
            body = [f"if {test}:", *("    " + ln for ln in body)]
        self.lines += body
        self.size += sum(map(len, body))

    def build(self, args: str, head: list[str], tail: list[str],
              **bound: object) -> Callable:
        """The function ``f(args)`` running ``head``, the statements
        emitted so far, then ``tail``; ``bound`` names further objects
        it uses."""
        params = {**self.bound, **bound}
        src = "\n".join([
            f"def factory({', '.join(params)}):",
            f"    def f({args}):",
            *("        " + ln for ln in head + self.lines + tail),
            "    return f",
        ])
        scope: dict = {}
        exec(compile(src, "<diffinc compiled map>", "exec"), globals(), scope)
        return scope["factory"](*params.values())


def _compile_eval(pieces: Sequence[Piece],
                  label: str) -> Callable[[Vector], list[tuple[Vector, Vector]]]:
    """The ``_eval`` of piecewise map ``label``: at a trusted float tuple
    x, the boxes of every piece whose region holds, in piece order, as
    (lo, hi) pairs; an empty image raises through ``_empty_image``.

    The pieces are compiled a few kilobytes of source at a time: one
    function for a small map, and a bounded compiler working set for a
    large one, which becomes one function per consecutive run of
    pieces.  The last of them runs the others in order, each appending
    to its list."""
    gens = [_Codegen()]
    for p in pieces:
        if gens[-1].size > _CHUNK:
            gens.append(_Codegen())
        gens[-1].piece(p)
    parts = {f"part{k}": gen.build("x, out", [], [], label=label)
             for k, gen in enumerate(gens[:-1])}
    return gens[-1].build(
        "x", ["out = []", *(f"{name}(x, out)" for name in parts)],
        ["if not out:", "    _empty_image(label, x)", "return out"],
        label=label, **parts)


def _bad_box(label: str, x: Vector, lo: Vector, hi: Vector) -> None:
    """Raise for a box that failed its corner checks: the first lo > hi
    in coordinate order, else a corner that is not finite."""
    for a, b in zip(lo, hi):
        if a > b:
            raise MapDefinitionError(
                f"map {label!r} produced lo {a!r} > hi {b!r} at {x}"
            )
    raise MapDefinitionError("box corners must be finite")


def _empty_image(label: str, x: Vector) -> None:
    raise MapDefinitionError(
        f"map {label!r} has an empty image at {x} (no piece matches)"
    )


# ---------------------------------------------------------------------------
# Boxes and box-union sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False)
class Box:
    """Closed axis-aligned box [lo_1,hi_1] x ... x [lo_n,hi_n], lo_j <= hi_j.

    Its own ``__init__`` converts, stores and checks each field once."""

    lo: Vector
    hi: Vector

    def __init__(self, lo: Sequence[float], hi: Sequence[float]) -> None:
        lo = as_vector(lo)
        hi = as_vector(hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not lo:
            raise MapDefinitionError("box corners must share a dimension >= 1")
        for a, b in zip(lo, hi):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise MapDefinitionError("box corners must be finite")
            if a > b:
                raise MapDefinitionError(f"box has lo {a!r} > hi {b!r}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @classmethod
    def point(cls, p: Sequence[float]) -> "Box":
        v = as_vector(p)
        return cls(v, v)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "Box":
        return cls((lo,), (hi,))

    def contains(self, v: Sequence[float]) -> bool:
        return all(a <= c <= b for a, b, c in zip(self.lo, self.hi, v))

    def corners(self) -> list[Vector]:
        return _corners([(self.lo, self.hi)])


@dataclass(frozen=True, init=False)
class CompactSet:
    """Nonempty finite union of boxes sharing one dimension.

    Boxes may overlap; the represented set is their union.
    """

    boxes: tuple[Box, ...]

    def __init__(self, boxes: Sequence[Box]) -> None:
        boxes = tuple(boxes)
        object.__setattr__(self, "boxes", boxes)
        if not boxes:
            raise MapDefinitionError("a compact set needs at least one box")
        d = boxes[0].dim
        if any(b.dim != d for b in boxes):
            raise MapDefinitionError("all boxes of a set must share a dimension")

    @property
    def dim(self) -> int:
        return self.boxes[0].dim

    @classmethod
    def of_points(cls, *points: Sequence[float]) -> "CompactSet":
        return cls(tuple(Box.point(p) for p in points))

    @classmethod
    def of_intervals(cls, *bounds: tuple[float, float]) -> "CompactSet":
        return cls(tuple(Box.interval(lo, hi) for lo, hi in bounds))

    def contains(self, v: Sequence[float]) -> bool:
        return any(b.contains(v) for b in self.boxes)

    def _pairs(self) -> list[tuple[Vector, Vector]]:
        """The boxes as (lo, hi) pairs, the form ``_eval`` returns."""
        return [(b.lo, b.hi) for b in self.boxes]


def sup_norm(s: CompactSet) -> float:
    """sup of the Euclidean norm over the set.

    Attained, per box, at the corner with the larger magnitude in every
    coordinate; the value is ``math.hypot`` of that corner, which Python
    documents as accurate to within 1 ulp.
    """
    return _sup_norm(s._pairs())


def _sup_norm(pairs: Sequence[tuple[Vector, Vector]]) -> float:
    """``sup_norm`` of the union of the (lo, hi) boxes."""
    best = 0.0
    for lo, hi in pairs:
        best = max(best, math.hypot(*_farthest_corner(lo, hi)))
    return best


def _farthest_corner(lo: Vector, hi: Vector) -> Vector:
    """The corner of the box [lo, hi] farthest from the origin: in each
    coordinate the end of larger magnitude, ``lo`` on a tie.  ``hypot``
    ignores signs, so its norm is that of the magnitudes."""
    return tuple([a if abs(a) >= abs(c) else c for a, c in zip(lo, hi)])


def distance(s: CompactSet, v: Sequence[float]) -> float:
    """Euclidean distance from v to the set; exactly 0 iff v lies in it."""
    return _distance(s._pairs(), checked_vector(v, s.dim, "point", "set"))


def _distance(pairs: Sequence[tuple[Vector, Vector]], v: Sequence[float],
              stop: float = 0.0) -> float:
    """Distance from v, of the pairs' dimension, to the union of the
    (lo, hi) boxes: the minimum over boxes of ``hypot`` of the per-
    coordinate gaps, the first minimum on ties as with ``min``.

    It stops at the first box at distance ``<= stop``: no later box can
    lift the minimum above ``stop``, so ``max(stop, d)`` is the same
    with or without the stop; a caller keeping a running maximum passes
    it as ``stop``.  No distance is below the default stop, 0.0, so
    there the minimum itself comes back.

    Each gap stays ``max(lo - v, v - hi, 0.0)``: at a NaN coordinate of
    v both differences are NaN and ``max`` returns its first argument,
    so the gap, and the distance, are NaN.  A gap written with
    comparisons instead (``lo - v if v < lo else ...``) would make that
    gap 0.0."""
    best = None
    for lo, hi in pairs:
        d = math.hypot(*[max(a - c, c - b, 0.0) for a, b, c in zip(lo, hi, v)])
        if best is None or d < best:
            best = d
            if d <= stop:
                break
    return best


def vertices(s: CompactSet) -> list[Vector]:
    """All box corners (duplicates across boxes allowed), box by box in
    ``Box.corners()`` order.

    Every linear functional attains its extremum over the set on this
    list.  A box with k coordinates of ``lo != hi`` has 2^k corners of n
    coordinates, counted against ``MAX_HELD_POINTS`` before any is built
    (ValueError above it); the analyzer's monotone and cyclic checks find
    the first minimising corner in this order per box (see ``analyzer``).
    """
    return _corners(s._pairs())


def _corners(pairs: Sequence[tuple[Vector, Vector]]) -> list[Vector]:
    """The corners of each (lo, hi) box, lo first and the last coordinate
    fastest; ValueError when they would hold more than MAX_HELD_POINTS."""
    choices = [[(a,) if a == b else (a, b) for a, b in zip(lo, hi)] for lo, hi in pairs]
    held = sum(len(box) << (sum(map(len, box)) - len(box)) for box in choices)
    if held > MAX_HELD_POINTS:  # str() of an int past 4300 digits raises
        count = held if held.bit_length() <= 64 else f"at least 2^{held.bit_length() - 1}"
        raise ValueError(f"the corner list of {len(pairs)} box(es) of dimension "
                         f"{len(pairs[0][0])} would hold {count} coordinates, more than "
                         f"MAX_HELD_POINTS = {MAX_HELD_POINTS}")
    return [u for box in choices for u in _product(*box)]


# ---------------------------------------------------------------------------
# Piecewise regions
# ---------------------------------------------------------------------------

# each comparator as the Python operator that the compiled code applies
_REGION_OPS = {"lt": "<", "le": "<=", "ge": ">=", "gt": ">", "eq": "=="}


@dataclass(frozen=True)
class Condition:
    """One comparison ``x[var] <op> bound`` (var is 0-based here)."""

    var: int
    op: str
    bound: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "bound", float(self.bound))


ExprBox = tuple[tuple[Expr, Expr], ...]  # per-coordinate (lo, hi) expressions


@dataclass(frozen=True)
class Piece:
    """Image boxes that apply where every condition holds; no conditions
    match all of R^n.

    Comparators are honoured literally (``lt`` is strict), so a piece
    with a strict condition genuinely excludes its boundary.  The shipped
    builtins encode boundary multi-valuedness with overlapping closed
    regions instead, which keeps them upper semi-continuous.
    """

    conditions: tuple[Condition, ...]
    image: tuple[ExprBox, ...]


# ---------------------------------------------------------------------------
# Set-valued maps
# ---------------------------------------------------------------------------


def _check_growth(a: float, b: float) -> tuple[float, float]:
    """(a, b) as floats; MapDefinitionError unless both are finite and >= 0."""
    a, b = float(a), float(b)
    if not (0 <= a < _INF and 0 <= b < _INF):
        raise MapDefinitionError(f"growth constants must be finite and >= 0, got {(a, b)}")
    return a, b


class SetValuedMap:
    """Evaluable mapping x -> CompactSet with optional linear-growth data.

    ``growth = (A, B)`` declares ``sup_norm(F(x)) <= A + B*|x|``, which
    the solver uses to size meshes a priori.  Subclasses implement
    ``_eval``, which ``evaluate`` runs once the point is checked; all
    state is fixed at construction.
    """

    kind = "abstract"

    def __init__(self, dim: int, growth: tuple[float, float] | None = None,
                 label: str | None = None):
        if dim < 1:
            raise MapDefinitionError("map dimension must be >= 1")
        self.dim = int(dim)
        self.growth = None if growth is None else _check_growth(growth[0], growth[1])
        self.label = label if label is not None else self.kind

    def evaluate(self, x: Sequence[float]) -> CompactSet:
        # Each concrete class binds this body by name, so a profiler that
        # wraps ``vars(cls)["evaluate"]`` counts every call under its kind.
        return _image(self._eval(checked_vector(x, self.dim, "point", self)))

    def _eval(self, x: Vector) -> list[tuple[Vector, Vector]]:
        """Image boxes as (lo, hi) pairs of float tuples at a trusted
        point: a float tuple of the map's dimension.  Each pair is
        finite with lo <= hi."""
        raise NotImplementedError

    def __str__(self) -> str:
        return f"map {self.label!r}"

    def region_boundaries(self) -> dict[int, tuple[float, ...]]:
        """Per-coordinate finite values where the image definition may
        switch, sorted."""
        return {}


class PiecewiseMap(SetValuedMap):
    """Union-of-matching-pieces map: the image at x collects the boxes of
    every piece whose region contains x."""

    kind = "piecewise"
    evaluate = SetValuedMap.evaluate

    def __init__(self, dim: int, pieces: Sequence[Piece],
                 growth: tuple[float, float] | None = None,
                 label: str | None = None):
        super().__init__(dim, growth, label)
        self.pieces = tuple(pieces)
        self._eval = _compile_eval(self.pieces, self.label)

    def region_boundaries(self) -> dict[int, tuple[float, ...]]:
        # a bound that is not finite splits no finite coordinate range,
        # so no probe is taken there
        acc: dict[int, set[float]] = {}
        for p in self.pieces:
            for c in p.conditions:
                if math.isfinite(c.bound):
                    acc.setdefault(c.var, set()).add(c.bound)
        return {j: tuple(sorted(vals)) for j, vals in acc.items()}


class _Composite(SetValuedMap):
    """A map made of two maps.  When both declare growth constants, the
    composite's are theirs combined coordinatewise by ``_combine``."""

    _combine: Callable[[float, float], float]

    def __init__(self, dim: int, left: SetValuedMap, right: SetValuedMap,
                 label: str | None):
        self.left = left
        self.right = right
        super().__init__(dim, self.derived_growth(), label)

    def derived_growth(self) -> tuple[float, float] | None:
        """The growth constants implied by the two parts' current ones;
        None when a part declares none or a sum overflows the doubles."""
        lg, rg = self.left.growth, self.right.growth
        if lg is None or rg is None:
            return None
        a, b = self._combine(lg[0], rg[0]), self._combine(lg[1], rg[1])
        return (a, b) if a < _INF and b < _INF else None

    def region_boundaries(self) -> dict[int, tuple[float, ...]]:
        """Both parts' boundaries, the right part's coordinates shifted
        past the left part's in a product."""
        out: dict[int, set[float]] = {
            j: set(v) for j, v in self.left.region_boundaries().items()
        }
        shift = self.dim - self.right.dim
        for j, vals in self.right.region_boundaries().items():
            out.setdefault(j + shift, set()).update(vals)
        return {j: tuple(sorted(v)) for j, v in out.items()}


class ProductMap(_Composite):
    """Cartesian product: the image at (x, y) is F(x) x G(y), realised as
    the pairwise products of the factor boxes."""

    kind = "product"
    evaluate = SetValuedMap.evaluate
    # |(u, v)| <= |u| + |v| and |x|, |y| <= |(x, y)|
    _combine = staticmethod(operator.add)

    def __init__(self, left: SetValuedMap, right: SetValuedMap,
                 label: str | None = None):
        super().__init__(left.dim + right.dim, left, right, label)

    def _eval(self, x: Vector) -> list[tuple[Vector, Vector]]:
        d = self.left.dim
        a = self.left._eval(x[:d])
        b = self.right._eval(x[d:])
        if len(a) * len(b) * 2 * self.dim > MAX_HELD_POINTS:
            _too_large(self, x, len(a) * len(b))
        return [(la + lb, ha + hb) for la, ha in a for lb, hb in b]


class UnionMap(_Composite):
    """Pointwise union: the image box lists of both maps, concatenated."""

    kind = "union"
    evaluate = SetValuedMap.evaluate
    _combine = staticmethod(max)

    def __init__(self, left: SetValuedMap, right: SetValuedMap,
                 label: str | None = None):
        if left.dim != right.dim:
            raise MapDefinitionError(
                f"union requires equal dimensions, got {left.dim} and {right.dim}"
            )
        super().__init__(left.dim, left, right, label)

    def _eval(self, x: Vector) -> list[tuple[Vector, Vector]]:
        a = self.left._eval(x)
        b = self.right._eval(x)
        if (len(a) + len(b)) * 2 * self.dim > MAX_HELD_POINTS:
            _too_large(self, x, len(a) + len(b))
        return a + b


def _too_large(m: SetValuedMap, x: Vector, boxes: int) -> None:
    raise ImageTooLarge(
        f"{m} of dimension {m.dim} would hold {boxes} boxes at its point {x}: "
        f"{boxes * 2 * m.dim} coordinates exceed MAX_HELD_POINTS = {MAX_HELD_POINTS}"
    )


class NativeMap(SetValuedMap):
    """Map backed by a Python function; used for builtins whose images are
    not expressible in the piecewise expression grammar.  The function is
    the map's ``_eval``, so it returns (lo, hi) pairs as ``_eval`` does;
    it is program code, and its result is checked only where ``evaluate``
    builds boxes from it."""

    kind = "builtin"
    evaluate = SetValuedMap.evaluate

    def __init__(self, dim: int, fn: Callable[[Vector], list[tuple[Vector, Vector]]],
                 name: str, params: dict,
                 growth: tuple[float, float] | None = None,
                 boundaries: dict[int, tuple[float, ...]] | None = None,
                 label: str | None = None):
        super().__init__(dim, growth, label or name)
        self._eval = fn
        self.name = name
        self.params = dict(params)
        self._boundaries = dict(boundaries or {})

    def region_boundaries(self) -> dict[int, tuple[float, ...]]:
        return dict(self._boundaries)


def _image(pairs: list[tuple[Vector, Vector]]) -> CompactSet:
    """The CompactSet of the (lo, hi) pairs from ``_eval``."""
    return CompactSet(tuple([Box(lo, hi) for lo, hi in pairs]))


def product(f: SetValuedMap, g: SetValuedMap) -> SetValuedMap:
    """Cartesian product of two maps (dimensions add)."""
    return ProductMap(f, g, label=f"product({f.label},{g.label})")


def union(f: SetValuedMap, g: SetValuedMap) -> SetValuedMap:
    """Pointwise union of two maps of equal dimension."""
    return UnionMap(f, g, label=f"union({f.label},{g.label})")


# ---------------------------------------------------------------------------
# Builtin catalog
# ---------------------------------------------------------------------------

_X = Expr.var(0)


def _interval_box(lo: Expr, hi: Expr) -> ExprBox:
    return ((lo, hi),)


def _point_box(e: Expr) -> ExprBox:
    return ((e, e),)


def _closed(op: str, bound: float) -> tuple[Condition, ...]:
    return (Condition(0, op, bound),)


def _make_example1() -> SetValuedMap:
    pieces = (
        Piece(_closed("le", 0.0), (_interval_box(Expr.const(-1.0), Expr.const(0.0)),)),
        Piece(_closed("ge", 0.0), (_interval_box(Expr.const(-1.0), Expr.const(1.0)),)),
    )
    return PiecewiseMap(1, pieces, growth=(1.0, 0.0), label="example1")


def _make_example2_F() -> SetValuedMap:
    pieces = (
        Piece((), (_point_box(_X), _point_box(Expr.cbrt(_X)))),
    )
    return PiecewiseMap(1, pieces, growth=(1.0, 1.0), label="example2_F")


def _make_example2_G() -> SetValuedMap:
    minus = Expr.sub(_X, Expr.const(1.0))
    plus = Expr.add(_X, Expr.const(1.0))
    pieces = (
        Piece(_closed("le", 0.0), (_point_box(Expr.cbrt(_X)), _point_box(minus))),
        Piece(_closed("ge", 0.0), (_point_box(Expr.cbrt(_X)), _point_box(plus))),
    )
    return PiecewiseMap(1, pieces, growth=(1.0, 1.0), label="example2_G")


def _make_example3() -> SetValuedMap:
    lo = Expr.sub(Expr.cbrt(_X), Expr.const(1.0))
    hi_neg = Expr.cbrt(_X)
    hi_pos = Expr.add(Expr.cbrt(_X), Expr.const(1.0))
    first = PiecewiseMap(
        1,
        (
            Piece(_closed("le", 0.0), (_interval_box(lo, hi_neg),)),
            Piece(_closed("ge", 0.0), (_interval_box(lo, hi_pos),)),
        ),
        growth=(2.0, 1.0),
        label="example3.x1",
    )
    second = PiecewiseMap(
        1,
        (
            Piece((), (
                _interval_box(Expr.const(-2.0), Expr.const(-1.0)),
                _interval_box(Expr.const(1.0), Expr.const(2.0)),
            )),
        ),
        growth=(2.0, 0.0),
        label="example3.x2",
    )
    return ProductMap(first, second, label="example3")


def _sign_branch(scale: float) -> SetValuedMap:
    pieces = (
        Piece(_closed("le", 0.0), (_point_box(Expr.const(-scale)),)),
        Piece(_closed("ge", 0.0), (_point_box(Expr.const(scale)),)),
    )
    return PiecewiseMap(1, pieces, growth=(scale, 0.0),
                        label=f"signbranch({scale:g})")


def _sign_power(scale: float, n: int) -> SetValuedMap:
    """The n-fold product of one sign branch, as a balanced tree: its
    depth grows with log n.  Product box order is associative, so the
    shape changes no image.  Maps are immutable, so the tree shares one
    map per distinct subtree size: O(log n) maps in all."""
    @functools.cache
    def power(k: int) -> SetValuedMap:
        return _sign_branch(scale) if k == 1 else ProductMap(power(k // 2), power(k - k // 2))

    return power(n)


def _make_example4(n: int) -> SetValuedMap:
    if n < 1:
        raise ValueError("example4 needs n >= 1")
    return UnionMap(_sign_power(0.5, n), _sign_power(1.0, n), label=f"example4({n})")


def _make_antisign() -> SetValuedMap:
    # Velocity pushes against the displacement on both sides of 0; the
    # selection constraint becomes infeasible after any sign crossing.
    pieces = (
        Piece(_closed("ge", 0.0), (_point_box(Expr.const(-1.0)),)),
        Piece(_closed("le", 0.0), (_point_box(Expr.const(1.0)),)),
    )
    return PiecewiseMap(1, pieces, growth=(1.0, 0.0), label="antisign")


def _normgrad_origin(n: int, k: int) -> list[tuple[Vector, Vector]]:
    points: list[Vector] = []
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
    return [(p, p) for p in points]


# normgrad's declared A: 1 plus a margin for rounding, with u = 2^-53.
# Off the origin the image is p, p_j = fl(y_j / s) with s = fl(hypot(y)),
# where y is x, or x divided by its largest |x_j| when hypot(x) overflows
# or is subnormal; that y has a coordinate exactly +-1, so s is a normal
# float in [1, sqrt(n)] and the function does not recurse twice.  Python's
# hypot is within 1 ulp, a relative 2u on a normal result, so s >= |y|(1 - 2u).
# Each quotient is within a relative u, or an absolute 2^-1075 where it is
# subnormal, so |p| <= (1 + u) / (1 - 2u) + sqrt(n) 2^-1075 < 1 + 3.1u.  At
# the origin the points are unit axis vectors (norm 1 exactly) or
# (fl(cos a), fl(sin a)); with a libm within 1 ulp their norm is at most
# 1 + 2u whatever the rounding of a.  ``_sup_norm`` takes one more hypot,
# another factor 1 + 2u: every image norm is below 1 + 5.2u < 1 + 8u.
# Without the rescaling of a subnormal norm, x = (5e-324, 5e-324) has
# hypot 5e-324 and the image (1, 1).
_NORMGRAD_A = 1.0 + 2.0 ** -50


def _make_normgrad(n: int, k: int) -> SetValuedMap:
    if n < 2:
        raise ValueError("normgrad needs n >= 2")
    if k < 1:
        raise ValueError("normgrad needs k >= 1")
    origin = _normgrad_origin(n, k)  # shared by every call; _eval callers only read it

    def fn(x: Vector) -> list[tuple[Vector, Vector]]:
        r = math.hypot(*x)
        if r == 0.0:
            return origin
        if not _TINY <= r < _INF:
            if not all(map(math.isfinite, x)):
                raise MapDefinitionError("box corners must be finite")
            top = max(map(abs, x))  # the norm overflows or is subnormal: rescale first
            return fn(tuple([v / top for v in x]))
        p = tuple([v / r for v in x])
        return [(p, p)]

    return NativeMap(
        n, fn, "normgrad", {"n": n, "k": k},
        growth=(_NORMGRAD_A, 0.0),
        boundaries={j: (0.0,) for j in range(n)},
        label=f"normgrad({n},{k})",
    )


# example4(n) has 2n branch factors, normgrad(n, k) n boundaries and k points
MAX_BUILTIN_PARAM = 10_000


@dataclass(frozen=True)
class Builtin:
    """One catalog map: ``factory`` takes the ``params`` in their order,
    each given as (name, default, meaning); ``dim`` is "n" when it is the
    parameter ``n``."""

    name: str
    factory: Callable[..., SetValuedMap]
    dim: str
    about: str
    params: tuple[tuple[str, int, str], ...] = ()


BUILTINS = {b.name: b for b in (
    Builtin("example1", _make_example1, "1",
            "[-1,0] left of 0, [-1,1] from 0 on (both pieces closed)"),
    Builtin("example2_F", _make_example2_F, "1",
            "the two points {x, cbrt(x)}; continuous, non-convex"),
    Builtin("example2_G", _make_example2_G, "1",
            "{cbrt(x), x-1} left of 0, {cbrt(x), x+1} right of 0, {-1, 0, 1} at 0"),
    Builtin("example3", _make_example3, "2",
            "[cbrt(x1)-1, cbrt(x1)+s] x ([-2,-1] u [1,2]), s = 0 left of 0, 1 from 0 on"),
    Builtin("example4", _make_example4, "n",
            "componentwise sign field united with its half-speed copy",
            (("n", 1, "state dimension"),)),
    Builtin("antisign", _make_antisign, "1",
            "{-1} for x>0, {+1} for x<0, both at 0; selection aborts after a crossing"),
    Builtin("normgrad", _make_normgrad, "n",
            "the unit vector x/norm(x) off the origin, k unit vectors at it",
            (("n", 2, "state dimension"), ("k", 4, "unit vectors at the origin"))),
)}


def builtin(name: str, params: dict | None = None) -> SetValuedMap:
    """Construct the catalog map ``name`` with the parameters its entry in
    ``BUILTINS`` lists, each an int of at most MAX_BUILTIN_PARAM; a
    default applies only to a parameter that is absent, and any other
    parameter or value is a ValueError."""
    entry = BUILTINS.get(name) if isinstance(name, str) else None
    if entry is None:
        raise ValueError(f"unknown builtin map {name!r}")
    params = dict(params or {})
    args = [params.pop(p, default) for p, default, _ in entry.params]
    if params:
        raise ValueError(f"unexpected parameters for {name!r}: {sorted(params)}")
    if not all(type(a) is int and a <= MAX_BUILTIN_PARAM for a in args):
        raise ValueError(f"parameters of {name!r} are ints <= {MAX_BUILTIN_PARAM}, got {args}")
    return entry.factory(*args)
