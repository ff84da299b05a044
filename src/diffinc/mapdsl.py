"""Text format for user-defined set-valued maps.

A map file is a JSON document::

    {"dim": 1,
     "pieces": [
       {"region": [{"var": 1, "op": "le", "bound": 0}],
        "image": [[["-1", "0"]]]},
       {"region": [{"var": 1, "op": "ge", "bound": 0}],
        "image": [[["-1", "1"]]]}
     ]}

The top level carries ``dim`` and exactly one of ``pieces``, ``product``
(two sub-maps whose dimensions add), ``union`` (two sub-maps of equal
dimension) or ``builtin`` (``{"name": ..., "params": {...}}``).  A box is
an array of ``dim`` two-element arrays of expression strings
``[lo, hi]``; region comparators are ``lt``, ``le``, ``ge``, ``gt``,
``eq`` with 1-based variable indices.  An optional ``growth": [A, B]``
declares the linear-growth constants used for mesh sizing; both must be
finite and >= 0.  A key outside a node's known set (map nodes: ``dim``,
``growth`` and the kind; pieces: ``region``, ``image``; conditions:
``var``, ``op``, ``bound``; builtin nodes: ``name``, ``params``) is a
``MapDefinitionError`` naming the node's path and the key, so a
misspelt ``region`` or ``growth`` is never read as absent.

Expression grammar (precedence low to high)::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := NUMBER | 'x' | 'x' DIGITS | FUNC '(' expr ')'
            | '(' expr ')' | '-' factor
    FUNC   := 'sign' | 'cbrt' | 'abs'

Whitespace is insignificant.  ``x`` names the single coordinate of a
1-D map; ``x1 .. xn`` name coordinates of higher-dimensional maps
(range-checking against the map dimension happens during map
validation, not expression parsing).  Expressions nest at most
``MAX_EXPR_DEPTH`` levels: each parenthesis, sign, function call and
binary operator adds one, so an operator chain counts as deep as it is
long; deeper input is a ``ParseError`` at the offset where the limit
is crossed.  Likewise a document nests at most ``MAX_MAP_DEPTH`` JSON
arrays and objects, and an integer literal or a variable index longer
than ``int()`` converts (4300 digits by default) is a ``ParseError`` too.
An expression's ``ParseError`` in a map file names the JSON path of
its string before the offset into it.
"""

from __future__ import annotations

import json
import random
import re
import sys
from itertools import chain
from typing import Callable

from .cells import axis_cells, axis_probes, first_uncovered, region_point
from .setmap import (
    MAX_RADIUS,
    _REGION_OPS,
    Condition,
    Expr,
    MapDefinitionError,
    NativeMap,
    Piece,
    PiecewiseMap,
    ProductMap,
    SetValuedMap,
    UnionMap,
    _check_growth,
    builtin,
)

MAX_EXPR_DEPTH = 200
MAX_MAP_DEPTH = 800


class ParseError(ValueError):
    """Syntax error with byte offset and the token set expected there."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at byte {offset}"
        if self.expected:
            detail += f" (expected one of: {', '.join(self.expected)})"
        super().__init__(detail)


# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<punct>[+\-*()])
    """,
    re.VERBOSE,
)


def _byte_offset(src: str, pos: int) -> int:
    return len(src[:pos].encode("utf-8"))


class _ExprParser:
    def __init__(self, src: str):
        self.src = src
        self.tokens: list[tuple[str, str, int]] = []  # (kind, text, char pos)
        pos = 0
        while pos < len(src):
            m = _TOKEN_RE.match(src, pos)
            if m is None:
                raise ParseError(
                    f"unexpected character {src[pos]!r}",
                    _byte_offset(src, pos),
                    ("number", "x", "function", "(", "-"),
                )
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), pos))
            pos = m.end()
        self.tokens.append(("eof", "", len(src)))
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        kind, text, pos = self.peek()
        what = "end of input" if kind == "eof" else repr(text)
        return ParseError(
            f"unexpected {what}", _byte_offset(self.src, pos), expected
        )

    def parse(self) -> Expr:
        e, _ = self.expr(0)
        if self.peek()[0] != "eof":
            raise self.fail(("+", "-", "*", "end of input"))
        return e

    # Each rule takes the nesting level it starts at and returns its
    # expression with the depth of that expression's tree.

    def deeper(self, depth: int, pos: int) -> int:
        if depth > MAX_EXPR_DEPTH:
            raise ParseError(
                f"expression nested deeper than {MAX_EXPR_DEPTH} levels",
                _byte_offset(self.src, pos),
            )
        return depth

    def expr(self, level: int) -> tuple[Expr, int]:
        e, depth = self.term(level)
        while self.peek()[1] in ("+", "-"):
            _, op, pos = self.advance()
            rhs, rdepth = self.term(level)
            depth = self.deeper(max(depth, rdepth) + 1, pos)
            e = Expr.add(e, rhs) if op == "+" else Expr.sub(e, rhs)
        return e, depth

    def term(self, level: int) -> tuple[Expr, int]:
        e, depth = self.factor(level)
        while self.peek()[1] == "*":
            pos = self.advance()[2]
            rhs, rdepth = self.factor(level)
            depth = self.deeper(max(depth, rdepth) + 1, pos)
            e = Expr.mul(e, rhs)
        return e, depth

    def factor(self, level: int) -> tuple[Expr, int]:
        kind, text, pos = self.peek()
        if text in ("-", "("):
            self.deeper(level + 1, pos)
        if text == "-":
            self.advance()
            e, depth = self.factor(level + 1)
            return Expr.neg(e), self.deeper(depth + 1, pos)
        if text == "(":
            return self.group(level)
        if kind == "number":
            self.advance()
            return Expr.const(float(text)), 1
        if kind == "name":
            self.advance()
            if text == "x":
                return Expr.var(0), 1
            m = re.fullmatch(r"x(\d+)", text)
            if m:
                try:
                    index = int(m.group(1))
                except ValueError:  # the int() digit limit
                    raise ParseError(
                        f"variable index longer than {sys.get_int_max_str_digits()} digits",
                        _byte_offset(self.src, pos),
                    ) from None
                if index < 1:
                    raise ParseError(
                        "variable indices are 1-based",
                        _byte_offset(self.src, pos),
                        ("x1", "x2", "..."),
                    )
                return Expr.var(index - 1), 1
            if self.peek()[1] == "(":
                if text not in ("sign", "cbrt", "abs"):
                    raise ParseError(
                        f"unknown function {text!r}",
                        _byte_offset(self.src, pos),
                        ("sign", "cbrt", "abs"),
                    )
                self.deeper(level + 1, pos)
                e, depth = self.group(level)
                return Expr(text, args=(e,)), self.deeper(depth + 1, pos)
            raise ParseError(
                f"unknown name {text!r}",
                _byte_offset(self.src, pos),
                ("number", "x", "sign", "cbrt", "abs"),
            )
        raise self.fail(("number", "x", "function", "(", "-"))

    def group(self, level: int) -> tuple[Expr, int]:
        """``( expr )`` from the current ``(``, its expression one level
        deeper; the caller has checked that level."""
        self.advance()
        e, depth = self.expr(level + 1)
        if self.peek()[1] != ")":
            raise self.fail((")",))
        self.advance()
        return e, depth


def parse_expr(src: str) -> Expr:
    """Parse one scalar expression."""
    return _ExprParser(src).parse()


# ---------------------------------------------------------------------------
# Map files
# ---------------------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise MapDefinitionError(message)


_KINDS = frozenset(("pieces", "product", "union", "builtin"))
_MAP_KEYS = _KINDS | {"dim", "growth"}
_PIECE_KEYS = frozenset(("region", "image"))
_CONDITION_KEYS = frozenset(("var", "op", "bound"))
_BUILTIN_KEYS = frozenset(("name", "params"))


def _known(obj: dict, keys: frozenset[str], path: str) -> None:
    """MapDefinitionError naming the first key of ``obj`` outside ``keys``."""
    if not keys.issuperset(obj):
        unknown = next(k for k in obj if k not in keys)
        raise MapDefinitionError(f"{path}: unknown key {unknown!r}")


def _number(v: object) -> float | None:
    """A JSON number as a float; None for anything else (a boolean too),
    for NaN and for an integer beyond the double range."""
    if type(v) not in (int, float) or v != v:
        return None
    try:
        return float(v)
    except OverflowError:
        return None


def _at(path: str, make: Callable, *args: object):
    """``make(*args)``, with the node path in front of any ValueError."""
    try:
        return make(*args)
    except ValueError as e:
        raise MapDefinitionError(f"{path}: {e}") from None


def _map_from_obj(obj: object, path: str) -> SetValuedMap:
    _require(isinstance(obj, dict), f"{path}: map node must be a JSON object")
    assert isinstance(obj, dict)
    _known(obj, _MAP_KEYS, path)
    keys = obj.keys() & _KINDS
    _require(
        len(keys) == 1,
        f"{path}: need exactly one of pieces/product/union/builtin, got {sorted(keys)}",
    )
    _require("dim" in obj, f"{path}: missing 'dim'")
    dim = obj["dim"]
    _require(type(dim) is int and dim >= 1, f"{path}: 'dim' must be an integer >= 1")

    growth = obj.get("growth")
    if growth is not None:
        bad = f"{path}: 'growth' must be [A, B] with finite A, B >= 0"
        _require(isinstance(growth, list) and len(growth) == 2, bad)
        a, b = (_number(g) for g in growth)
        _require(a is not None and b is not None, bad)
        try:
            growth = _check_growth(a, b)
        except MapDefinitionError:
            raise MapDefinitionError(bad) from None

    kind = keys.pop()
    if kind == "pieces":
        m: SetValuedMap = _pieces_from_obj(dim, obj["pieces"], path)
    elif kind in ("product", "union"):
        parts = obj[kind]
        _require(isinstance(parts, list) and len(parts) == 2,
                 f"{path}: '{kind}' must hold two sub-maps")
        left, right = (_map_from_obj(p, f"{path}.{kind}[{i}]") for i, p in enumerate(parts))
        m = _at(path, ProductMap if kind == "product" else UnionMap, left, right)
        _require(m.dim == dim, f"{path}: {kind} dim {m.dim} != {dim}")
    else:
        node = obj["builtin"]
        _require(isinstance(node, dict), f"{path}: 'builtin' must hold a name")
        _known(node, _BUILTIN_KEYS, f"{path}.builtin")
        _require(isinstance(node.get("name"), str), f"{path}: 'builtin' must hold a name")
        params = node.get("params")
        _require(params is None or isinstance(params, dict),
                 f"{path}: builtin 'params' must be an object")
        m = _at(path, builtin, node["name"], params)
        _require(m.dim == dim,
                 f"{path}: builtin {node['name']!r} has dim {m.dim}, file says {dim}")

    if growth is not None:
        m.growth = growth
    return m


def _expr_at(path: str, src: str) -> Expr:
    """``parse_expr(src)``, with the JSON path of the string in front of
    a ParseError's message; its offset stays the one into ``src``."""
    try:
        return parse_expr(src)
    except ParseError as e:
        e.args = (f"{path}: {e}",)
        raise


def _pieces_from_obj(dim: int, pieces_obj: object, path: str) -> PiecewiseMap:
    _require(isinstance(pieces_obj, list) and pieces_obj,
             f"{path}: 'pieces' must be a nonempty array")
    pieces = []
    for pi, pobj in enumerate(pieces_obj):
        ppath = f"{path}.pieces[{pi}]"
        _require(isinstance(pobj, dict), f"{ppath}: piece must be an object")
        _known(pobj, _PIECE_KEYS, ppath)
        region = pobj.get("region", [])
        _require(isinstance(region, list), f"{ppath}: 'region' must be an array")
        conditions = []
        for ci, cobj in enumerate(region):
            _require(isinstance(cobj, dict), f"{ppath}: condition must be an object")
            _known(cobj, _CONDITION_KEYS, f"{ppath}.region[{ci}]")
            var = cobj.get("var")
            _require(type(var) is int and 1 <= var <= dim,
                     f"{ppath}: condition 'var' must be in 1..{dim}")
            op = cobj.get("op")
            _require(isinstance(op, str) and op in _REGION_OPS,
                     f"{ppath}: condition 'op' must be one of {tuple(_REGION_OPS)}")
            bound = _number(cobj.get("bound"))
            _require(bound is not None,
                     f"{ppath}: condition 'bound' must be a number")
            conditions.append(Condition(var - 1, op, bound))
        image_obj = pobj.get("image")
        _require(isinstance(image_obj, list) and image_obj,
                 f"{ppath}: 'image' must be a nonempty array of boxes")
        image = []
        for bi, box_obj in enumerate(image_obj):
            _require(isinstance(box_obj, list) and len(box_obj) == dim,
                     f"{ppath}.image[{bi}]: box must list {dim} coordinate ranges")
            coords = []
            for ci, pair in enumerate(box_obj):
                _require(isinstance(pair, list) and len(pair) == 2
                         and all(isinstance(s, str) for s in pair),
                         f"{ppath}.image[{bi}][{ci}]: expected [lo, hi] expression strings")
                lo, hi = (_expr_at(f"{ppath}.image[{bi}][{ci}][{side}]", text)
                          for side, text in enumerate(pair))
                k = max(lo.max_var_index(), hi.max_var_index()) + 1
                _require(k <= dim,
                         f"{path}: image expression uses x{k} in a {dim}-dimensional map")
                coords.append((lo, hi))
            image.append(tuple(coords))
        pieces.append(Piece(tuple(conditions), tuple(image)))
    m = _at(path, PiecewiseMap, dim, tuple(pieces))
    _at(path, validate_map, m)
    return m


def validate_map(m: PiecewiseMap) -> None:
    """Check totality and image well-formedness of a piecewise map.

    Coverage is decided exactly in every dimension, without evaluating
    the map: the finite region bounds cut each coordinate into cells
    (each bound, each gap between neighbouring bounds and the rays
    beyond them), and ``cells.first_uncovered`` sweeps their products.
    The first cell that no piece matches is reported at its finite
    representative point, however large the bounds.  Image
    well-formedness (finite corners, ``lo <= hi``) is then probed once
    per piece, at the representative point of its own region, and at 32
    seeded random points; every evaluation checks it again.  Each
    ``pieces`` node is checked as it is built; catalog maps are total by
    construction.

    Raises MapDefinitionError carrying a witness point on failure.
    """
    bounds = m.region_boundaries()
    probes = [axis_probes(bounds.get(j, ())) for j in range(m.dim)]
    axes = [axis_cells(bounds.get(j, ()), vals) for j, vals in enumerate(probes)]
    regions = [p.conditions for p in m.pieces]
    hole = first_uncovered(regions, axes)
    if hole is not None:
        m._eval(hole)  # no piece matches there: raises with the witness
        raise AssertionError(f"{m} has an image at {hole}, which no region holds")
    points = (p for p in (region_point(r, axes) for r in regions) if p is not None)
    radius = min(max([1.0] + [abs(v) + 1.0 for vals in probes for v in vals]), MAX_RADIUS)
    rng = random.Random(4002 + m.dim)
    drawn = (tuple(rng.uniform(-radius, radius) for _ in range(m.dim)) for _ in range(32))
    for p in chain(points, drawn):  # float tuples of the map's dimension, one held at a time
        m._eval(p)  # raises with the point on lo > hi or a corner that is not finite


_NESTING_RE = re.compile(r'"(?:[^"\\]|\\.)*"|[\[\]{}]')  # a string or a bracket


def _check_nesting(src: str) -> None:
    """ParseError at the bracket that nests the document deeper than
    MAX_MAP_DEPTH arrays and objects.  The JSON decoder and the code
    that builds and walks a map recurse once per level, so this keeps
    each of them far from the interpreter's recursion limit."""
    if src.count("[") + src.count("{") <= MAX_MAP_DEPTH:
        return
    depth = 0
    for m in _NESTING_RE.finditer(src):
        depth += (m.group() in ("[", "{")) - (m.group() in ("]", "}"))
        if depth > MAX_MAP_DEPTH:
            raise ParseError(f"document nested deeper than {MAX_MAP_DEPTH} levels",
                             _byte_offset(src, m.start()))


# a string or a number
_NUMBER_RE = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?')


def _long_int_error(src: str) -> ParseError:
    """ParseError at the first integer literal longer than ``int()``
    converts, the one limit ``json.loads`` enforces besides syntax."""
    limit = sys.get_int_max_str_digits()
    at = next((m.start() for m in _NUMBER_RE.finditer(src)
               if (d := m.group().lstrip("-")).isdigit() and len(d) > limit), 0)
    return ParseError(f"integer literal longer than {limit} digits", _byte_offset(src, at))


def parse_map(src: str) -> SetValuedMap:
    """Parse and validate a map file; see the module docstring for the format."""
    _check_nesting(src)
    try:
        obj = json.loads(src)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", _byte_offset(src, e.pos)) from None
    except ValueError:  # the int() digit limit
        raise _long_int_error(src) from None
    return _map_from_obj(obj, "$")


def load_map(path: str) -> SetValuedMap:
    with open(path, "r", encoding="utf-8") as fh:
        m = parse_map(fh.read())
    return m


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def map_to_dict(m: SetValuedMap) -> dict:
    """The map-file node of ``m``.  ``growth`` follows ``dim`` when it
    differs from what the node declares without it: nothing for pieces,
    the derived constants for a product or union, the catalog's for a
    builtin."""
    if isinstance(m, PiecewiseMap):
        declared = None
        body: dict = {"pieces": [
            {
                "region": [
                    {"var": c.var + 1, "op": c.op, "bound": c.bound}
                    for c in p.conditions
                ],
                "image": [
                    [[lo.to_text(m.dim), hi.to_text(m.dim)] for lo, hi in box]
                    for box in p.image
                ],
            }
            for p in m.pieces
        ]}
    elif isinstance(m, (ProductMap, UnionMap)):
        declared = m.derived_growth()
        body = {m.kind: [map_to_dict(m.left), map_to_dict(m.right)]}
    elif isinstance(m, NativeMap):
        declared = builtin(m.name, m.params).growth
        body = {"builtin": {"name": m.name, "params": m.params}}
    else:
        raise TypeError(f"cannot serialize map of type {type(m).__name__}")
    out: dict = {"dim": m.dim}
    if m.growth is not None and m.growth != declared:
        out["growth"] = [m.growth[0], m.growth[1]]
    out.update(body)
    return out


def roundtrip(m: SetValuedMap) -> str:
    """Serialize so that ``parse_map(roundtrip(m))`` evaluates identically
    and declares the same growth constants.

    Structurally defined builtins are lowered to their explicit piece
    encoding; only callable-backed builtins keep a ``builtin`` node.
    """
    return json.dumps(map_to_dict(m), indent=2) + "\n"
