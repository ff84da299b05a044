"""Expression grammar and map-file format."""

import ast
import hashlib
import itertools
import json
import math
import operator
import random
import struct
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_expr, reference_eval, reference_probe_grid, tree_eval

from diffinc import mapdsl
from diffinc.mapdsl import (
    MAX_EXPR_DEPTH,
    MAX_MAP_DEPTH,
    ParseError,
    parse_expr,
    parse_map,
    roundtrip,
    validate_map,
)
from diffinc.setmap import (
    CompactSet,
    Condition,
    Expr,
    MapDefinitionError,
    Piece,
    PiecewiseMap,
    builtin,
    product,
    union,
)


class TestParseExpr:
    def test_contract_examples(self):
        assert tree_eval(parse_expr("cbrt(x)"), (8.0,)) == 2.0
        assert tree_eval(parse_expr("x+sign(x)"), (-1.0,)) == -2.0
        assert tree_eval(parse_expr("-x*0.5"), (3.0,)) == -1.5

    def test_precedence_and_numbers(self):
        assert tree_eval(parse_expr("1+2*3"), ()) == 7.0
        assert tree_eval(parse_expr("(1+2)*3"), ()) == 9.0
        assert tree_eval(parse_expr("2*-3"), ()) == -6.0
        assert tree_eval(parse_expr("1.5e2+.25"), ()) == 150.25
        assert tree_eval(parse_expr("1-2-3"), ()) == -4.0

    def test_sign_zero_is_zero(self):
        assert tree_eval(parse_expr("sign(x)"), (0.0,)) == 0.0

    def test_cbrt_odd(self):
        e = parse_expr("cbrt(x)")
        for v in (0.7, 2.0, 19.5, 1e-4):
            assert tree_eval(e, (-v,)) == -tree_eval(e, (v,))

    def test_multivariable(self):
        assert tree_eval(parse_expr("x2-x1"), (1.0, 5.0)) == 4.0

    def test_syntax_errors_carry_offsets(self):
        with pytest.raises(ParseError) as err:
            parse_expr("1+")
        assert err.value.offset == 2
        assert "number" in err.value.expected

        with pytest.raises(ParseError) as err:
            parse_expr("sin(x)")
        assert err.value.offset == 0
        assert err.value.expected == ("sign", "cbrt", "abs")

        with pytest.raises(ParseError) as err:
            parse_expr("(1")
        assert err.value.expected == (")",)

        with pytest.raises(ParseError):
            parse_expr("1 2")
        with pytest.raises(ParseError):
            parse_expr("x0")

    def test_overlong_variable_index_is_a_parse_error(self):
        # longer than the 4300 digits int() converts by default; the
        # em space before the name takes three bytes
        with pytest.raises(ParseError) as err:
            parse_expr("1 +\u2003x" + "1" * 5000)
        assert str(err.value) == (f"variable index longer than {sys.get_int_max_str_digits()}"
                                  " digits at byte 6")
        assert err.value.offset == 6

    @pytest.mark.parametrize("src, offset", [
        ("(" * 3000 + "x" + ")" * 3000, MAX_EXPR_DEPTH),
        ("-" * 3000 + "x", MAX_EXPR_DEPTH),
        ("abs(" * 3000 + "x" + ")" * 3000, 4 * MAX_EXPR_DEPTH),
        ("+".join(["x"] * 3000), 2 * MAX_EXPR_DEPTH - 1),
    ])
    def test_deep_expressions_are_parse_errors(self, src, offset):
        with pytest.raises(ParseError, match="nested deeper") as err:
            parse_expr(src)
        assert err.value.offset == offset

    def test_depth_limit_is_inclusive(self):
        for src in ("(" * MAX_EXPR_DEPTH + "x" + ")" * MAX_EXPR_DEPTH,
                    "-" * (MAX_EXPR_DEPTH - 1) + "x",
                    "+".join(["x"] * MAX_EXPR_DEPTH)):
            e = parse_expr(src)
            assert abs(tree_eval(e, (0.5,))) in (0.5, MAX_EXPR_DEPTH / 2)
        with pytest.raises(ParseError):
            parse_expr("-" * MAX_EXPR_DEPTH + "x")

    def test_out_of_range_variable_deferred_to_map_validation(self):
        e = parse_expr("x5")   # fine on its own
        assert e.max_var_index() == 4
        src = json.dumps({
            "dim": 1,
            "pieces": [{"region": [], "image": [[["x5", "x5"]]]}],
        })
        with pytest.raises(MapDefinitionError):
            parse_map(src)

    def test_matches_reference_interpreter(self):
        rng = random.Random(11)
        agree = 0
        for _ in range(1000):
            nvars = rng.randint(1, 3)
            tree = random_expr(rng, nvars)
            text = tree.to_text(nvars)
            x = tuple(rng.uniform(-9, 9) for _ in range(nvars))
            mine = tree_eval(parse_expr(text), x)
            ref = reference_eval(text, x)
            if mine == ref:
                agree += 1
            else:
                assert math.isclose(mine, ref, rel_tol=1e-12, abs_tol=1e-12), text
        assert agree > 500  # +,-,* are exact; only cbrt may differ in the last ulp


EXAMPLE1_SRC = """
{"dim": 1,
 "pieces": [
   {"region": [{"var": 1, "op": "le", "bound": 0}], "image": [[["-1", "0"]]]},
   {"region": [{"var": 1, "op": "ge", "bound": 0}], "image": [[["-1", "1"]]]}
 ]}
"""


def _pieces_node(dim):
    """A pieces node shaped like the benchmark's generated ones: a
    catch-all piece, then pieces between bounds on the first coordinate."""
    x = "x1" if dim > 1 else "x"
    box = [[f"cbrt({x})", f"cbrt({x})+abs({x})"]] + [["0", "1"]] * (dim - 1)
    return {"dim": dim, "pieces": [
        {"region": [], "image": [[["-4", "4"]] * dim]},
        {"region": [{"var": 1, "op": "le", "bound": -0.5}], "image": [box]},
        {"region": [{"var": 1, "op": "ge", "bound": -0.5}, {"var": 1, "op": "le", "bound": 1.25}],
         "image": [box]},
        {"region": [{"var": 1, "op": "ge", "bound": 1.25}], "image": [box]}]}


# a document with every key the reader knows
EVERY_KEY = {"dim": 2, "growth": [5, 0], "union": [
    {"dim": 2, "product": [_pieces_node(1),
                           {"dim": 1, "builtin": {"name": "example4", "params": {"n": 1}}}]},
    {"dim": 2, "builtin": {"name": "normgrad", "params": {"n": 2}}}]}

# one document of each structure the mapfile benchmark generates, and EVERY_KEY
STRUCTURES = {
    "pieces": _pieces_node(2),
    "product": {"dim": 3, "product": [_pieces_node(1), _pieces_node(2)]},
    "union": {"dim": 2, "union": [_pieces_node(2), _pieces_node(2)]},
    "nested": {"dim": 3, "union": [{"dim": 3, "product": [_pieces_node(1), _pieces_node(2)]},
                                   {"dim": 3, "product": [_pieces_node(1), _pieces_node(2)]}]},
    "every-key": EVERY_KEY,
}


def _misspelt(path, key):
    """EVERY_KEY with the first two letters of ``key`` swapped in the
    node at ``path``, and the error that names them."""
    doc = json.loads(json.dumps(EVERY_KEY))
    node = doc
    for step in path:
        node = node[step]
    bad = key[1] + key[0] + key[2:]
    node[bad] = node.pop(key)
    where = "$" + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path)
    return doc, f"{where}: unknown key {bad!r}"


_PIECE = ("union", 0, "product", 0, "pieces", 1)
_BUILTIN = ("union", 0, "product", 1)
MISSPELT = [((), "dim"), ((), "growth"), ((), "union"), (("union", 0), "product"),
            (("union", 0, "product", 0), "pieces"), (_BUILTIN, "builtin"),
            (_PIECE, "region"), (_PIECE, "image"), ((*_PIECE, "region", 0), "var"),
            ((*_PIECE, "region", 0), "op"), ((*_PIECE, "region", 0), "bound"),
            ((*_BUILTIN, "builtin"), "name"), ((*_BUILTIN, "builtin"), "params")]


class TestParseMap:
    def test_example1_boundary_union(self):
        m = parse_map(EXAMPLE1_SRC)
        assert m.evaluate((0.0,)) == builtin("example1").evaluate((0.0,))
        assert m.evaluate((-2.0,)) == CompactSet.of_intervals((-1.0, 0.0))

    def test_identity_point_map(self):
        m = parse_map('{"dim": 1, "pieces": [{"region": [], "image": [[["x", "x"]]]}]}')
        assert m.evaluate((3.0,)) == CompactSet.of_points((3.0,))

    def test_totality_witness_at_boundary(self):
        src = '{"dim":1,"pieces":[{"region":[{"var":1,"op":"gt","bound":0}],"image":[[["0","1"]]]}]}'
        with pytest.raises(MapDefinitionError) as err:
            parse_map(src)
        assert "(0.0,)" in str(err.value)

    def test_invalid_json_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_map("{not json")
        # longer than the 4300 digits int() converts by default
        src = ('{"dim": 1, "pieces": [{"region": [{"var": 1, "op": "le", "bound": -'
               + "1" * 5000 + '}], "image": [[["0", "1"]]]}]}')
        with pytest.raises(ParseError, match="integer literal longer than") as err:
            parse_map(src)
        assert err.value.offset == src.index("-1")

    def test_overlong_variable_index_is_a_parse_error(self):
        src = json.dumps({"dim": 1, "pieces": [
            {"region": [], "image": [[["0", "2*x" + "1" * 5000]]]}]})
        with pytest.raises(ParseError, match="variable index longer than") as err:
            parse_map(src)
        assert err.value.offset == 2  # in the expression, as other expression errors

    def test_schema_errors(self):
        with pytest.raises(MapDefinitionError):
            parse_map('{"dim": 1}')
        with pytest.raises(MapDefinitionError):
            parse_map('{"dim": 0, "pieces": []}')
        with pytest.raises(MapDefinitionError):
            parse_map('{"dim": 1, "pieces": [{"region": [{"var": 2, "op": "le", "bound": 0}], "image": [[["0","1"]]]}]}')
        with pytest.raises(MapDefinitionError):
            parse_map('{"dim": 1, "pieces": [{"region": [], "image": [[["1", "0"]]]}]}')
        with pytest.raises(MapDefinitionError):
            parse_map(json.dumps({
                "dim": 3,
                "product": [
                    json.loads(roundtrip(builtin("example1"))),
                    json.loads(roundtrip(builtin("example1"))),
                ],
            }))

    def test_builtin_node(self):
        m = parse_map('{"dim": 2, "builtin": {"name": "normgrad", "params": {"n": 2, "k": 4}}}')
        assert m.evaluate((0.9, 0.0)) == CompactSet.of_points((1.0, 0.0))

    def test_builtin_node_is_not_validated_again(self, monkeypatch):
        calls = []
        monkeypatch.setattr(mapdsl, "validate_map", calls.append)
        m = parse_map('{"dim": 3, "builtin": {"name": "example4", "params": {"n": 3}}}')
        assert m.dim == 3 and calls == []
        parse_map(EXAMPLE1_SRC)  # a pieces node still is
        assert calls

    @pytest.mark.parametrize("bound", [math.inf, -math.inf])
    def test_infinite_bounds_are_accepted_and_split_nothing(self, bound):
        op = "le" if bound > 0 else "ge"
        m = parse_map(json.dumps({"dim": 1, "pieces": [
            {"region": [{"var": 1, "op": op, "bound": bound}], "image": [[["x", "x"]]]},
            {"region": [{"var": 1, "op": "ge", "bound": 0}], "image": [[["x", "x"]]]}]}))
        assert m.pieces[0].conditions[0].bound == bound
        assert m.region_boundaries() == {0: (0.0,)}
        assert m.evaluate((-3.0,)).boxes[0].lo == (-3.0,)

    def test_growth_key_is_honoured(self):
        src = '{"dim": 1, "growth": [2, 0.5], "pieces": [{"region": [], "image": [[["x", "x"]]]}]}'
        assert parse_map(src).growth == (2.0, 0.5)

    @pytest.mark.parametrize("name", STRUCTURES)
    def test_known_keys_parse_in_every_structure(self, name):
        doc = STRUCTURES[name]
        m = parse_map(json.dumps(doc))
        assert m.dim == doc["dim"]
        assert parse_map(roundtrip(m)).evaluate((0.5,) * m.dim) == m.evaluate((0.5,) * m.dim)

    @pytest.mark.parametrize("node, message", [
        ({"dim": 1, "pieces": [{"region": 5, "image": [[["0", "1"]]]}]},
         "$.pieces[0]: 'region' must be an array"),
        ({"dim": 1, "pieces": [{"region": [{"var": 1, "op": ["le"], "bound": 0}],
                                "image": [[["0", "1"]]]}]},
         "'op' must be one of ('lt', 'le', 'ge', 'gt', 'eq')"),
        ({"dim": 1, "pieces": [{"region": [{"var": 1, "op": "le", "bound": 10 ** 400}],
                                "image": [[["0", "1"]]]}]},
         "'bound' must be a number"),
        ({"dim": 1, "growth": [10 ** 400, 0], "pieces": [{"region": [],
                                                          "image": [[["0", "1"]]]}]},
         "'growth' must be [A, B]"),
        ({"dim": 1, "builtin": {"name": "example4", "params": "ab"}},
         "$: builtin 'params' must be an object"),
        ({"dim": 1, "builtin": {"name": "example4", "params": {"n": "abc"}}},
         "$: parameters of 'example4' are ints <= 10000, got ['abc']"),
        ({"dim": 1, "builtin": {"name": "example4", "params": {"n": [1]}}},
         "$: parameters of 'example4' are ints <= 10000, got [[1]]"),
        ({"dim": 1, "builtin": {"name": "example4", "params": {"n": float("inf")}}},
         "$: parameters of 'example4' are ints <= 10000, got [inf]"),
        ({"dim": 1, "builtin": {"name": "example4", "params": {"n": 1.0}}},
         "$: parameters of 'example4' are ints <= 10000, got [1.0]"),
        ({"dim": 2, "builtin": {"name": "normgrad", "params": {"k": True}}},
         "$: parameters of 'normgrad' are ints <= 10000, got [2, True]"),
        ({"dim": 1, "union": [{"dim": 1, "builtin": {"name": "example1", "params": {"n": 2}}},
                              {"dim": 1, "builtin": {"name": "example1"}}]},
         "$.union[0]: unexpected parameters for 'example1': ['n']"),
        ({"dim": 1, "builtin": {"name": ["example1"]}}, "$: 'builtin' must hold a name"),
        ({"dim": 1, "pieces": [{"region": [{"var": 1, "op": "le", "bound": math.nan}],
                                "image": [[["0", "1"]]]}]},
         "$.pieces[0]: condition 'bound' must be a number"),
        ({"dim": 1, "pieces": [{"region": [{"var": 1, "op": "le", "bound": False}],
                                "image": [[["0", "1"]]]}]},
         "$.pieces[0]: condition 'bound' must be a number"),
        ({"dim": 1, "pieces": [{"region": [{"var": True, "op": "le", "bound": 0}],
                                "image": [[["0", "1"]]]}]},
         "$.pieces[0]: condition 'var' must be in 1..1"),
        ({"dim": True, "pieces": [{"region": [], "image": [[["0", "1"]]]}]},
         "$: 'dim' must be an integer >= 1"),
        ({"dim": 1, "growth": [True, False], "pieces": [{"region": [],
                                                         "image": [[["0", "1"]]]}]},
         "$: 'growth' must be [A, B]"),
        ({"dim": 1, "product": [{"dim": 1, "builtin": {"name": "example1"}},
                                {"dim": True, "builtin": {"name": "example1"}}]},
         "$.product[1]: 'dim' must be an integer >= 1"),
        ({"dim": 1, "growth": [math.inf, 0], "pieces": [{"region": [],
                                                         "image": [[["0", "1"]]]}]},
         "$: 'growth' must be [A, B] with finite A, B >= 0"),
        ({"dim": 1, "union": [{"dim": 1, "builtin": {"name": "example1"}},
                              {"dim": 1, "growth": [0, -math.inf],
                               "builtin": {"name": "example1"}}]},
         "$.union[1]: 'growth' must be [A, B] with finite A, B >= 0"),
        # errors of map construction and validation name their node too
        ({"dim": 3, "product": [{"dim": 1, "builtin": {"name": "example1"}},
                                {"dim": 2, "union": [{"dim": 1, "builtin": {"name": "example1"}},
                                                     {"dim": 2, "builtin": {"name": "example3"}}]}]},
         "$.product[1]: union requires equal dimensions, got 1 and 2"),
        ({"dim": 3, "product": [{"dim": 1, "builtin": {"name": "example1"}},
                                {"dim": 2, "pieces": [{"region": [],
                                                       "image": [[["0", "0"], ["x3", "x3"]]]}]}]},
         "$.product[1]: image expression uses x3 in a 2-dimensional map"),
        ({"dim": 2, "union": [{"dim": 2, "builtin": {"name": "example3"}},
                              {"dim": 2, "pieces": [{"region": [{"var": 2, "op": "gt", "bound": 0}],
                                                     "image": [[["0", "0"], ["0", "0"]]]}]}]},
         "$.union[1]: map 'piecewise' has an empty image at (0.0, 0.0) (no piece matches)"),
        # the structural facts that map classes trust the reader to check
        ({"dim": 1, "pieces": [{"region": [{"var": 1, "op": "ne", "bound": 0}],
                                "image": [[["0", "1"]]]}]},
         "$.pieces[0]: condition 'op' must be one of ('lt', 'le', 'ge', 'gt', 'eq')"),
        ({"dim": 1, "pieces": [{"region": [{"var": 2, "op": "le", "bound": 0}],
                                "image": [[["0", "1"]]]}]},
         "$.pieces[0]: condition 'var' must be in 1..1"),
        ({"dim": 1, "pieces": [{"region": [], "image": []}]},
         "$.pieces[0]: 'image' must be a nonempty array of boxes"),
        ({"dim": 2, "pieces": [{"region": [], "image": [[["0", "1"]]]}]},
         "$.pieces[0].image[0]: box must list 2 coordinate ranges"),
        ({"dim": 1, "pieces": []}, "$: 'pieces' must be a nonempty array"),
        # a misspelt region matched every point, and a misspelt growth was dropped
        *(_misspelt(path, key) for path, key in MISSPELT),
    ])
    def test_bad_values_are_map_definition_errors(self, node, message):
        with pytest.raises(MapDefinitionError) as err:
            parse_map(json.dumps(node))
        assert message in str(err.value)

    def test_deep_document_is_a_parse_error(self):
        leaf = '{"dim": 1, "builtin": {"name": "example1"}}'
        deep = '{"dim": 1, "union": [' * 1500 + leaf + (', ' + leaf + ']}') * 1500
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_MAP_DEPTH} levels") as err:
            parse_map(deep)
        # each prefix opens two levels; the brace after the last one that fits is one too many
        assert err.value.offset == len('{"dim": 1, "union": [') * (MAX_MAP_DEPTH // 2)
        arrays = "[" * 3000 + "]" * 3000
        with pytest.raises(ParseError, match="nested deeper"):
            parse_map(arrays)

    def test_brackets_inside_strings_do_not_nest(self):
        # enough brackets that the nesting walk runs; it passes them, and
        # the reader then names the key that holds them
        pieces = [{"region": [], "image": [[["0", "1"]]], "note": "[" * (MAX_MAP_DEPTH + 1)}]
        with pytest.raises(MapDefinitionError, match=r"^\$\.pieces\[0\]: unknown key 'note'$"):
            parse_map(json.dumps({"dim": 1, "pieces": pieces}))

    def test_depth_limit_is_inclusive(self):
        def nest(k):  # a union tree whose document nests 2k + 2 levels
            node = '{"dim": 1, "builtin": {"name": "example1"}}'
            for _ in range(k):
                node = '{"dim": 1, "union": [' + node + ', {"dim": 1, "builtin": {"name": "example1"}}]}'
            return node
        assert parse_map(nest(MAX_MAP_DEPTH // 2 - 1)).dim == 1  # MAX_MAP_DEPTH levels
        with pytest.raises(ParseError):
            parse_map(nest(MAX_MAP_DEPTH // 2))

    def test_long_right_nested_product_chain_roundtrips(self):
        # example4(n) once nested its products to the right, so files saved
        # from it nest about 2n levels; 390 products nest 786
        m = builtin("example1")
        for _ in range(390):
            m = product(builtin("example1"), m)
        back = parse_map(roundtrip(m))
        x = (-1.0, 1.0) * 195 + (0.0,)
        assert back.evaluate(x).boxes == m.evaluate(x).boxes


DBL_MAX = sys.float_info.max
MAPS = Path(__file__).resolve().parent.parent / "maps"
OPS = {"lt": operator.lt, "le": operator.le, "ge": operator.ge, "gt": operator.gt,
       "eq": operator.eq}


def identity_map(*pieces):
    """A 1-D map file whose pieces are conjunctions of (op, bound), each
    with image [x, x]."""
    return json.dumps({"dim": 1, "pieces": [
        {"region": [{"var": 1, "op": op, "bound": b} for op, b in conds],
         "image": [[["x", "x"]]]}
        for conds in pieces
    ]})


def witness(err):
    """The point named by a "no piece matches" error."""
    message = str(err.value)
    assert "no piece matches" in message
    return ast.literal_eval(message.split(" at ", 1)[1].split(" (no piece", 1)[0])


def cell_points(conditions):
    """One exact rational point in each cell, holding a double, of the
    line cut by the finite bounds: each bound, the open gaps between
    neighbouring bounds and the rays beyond the outermost ones."""
    bounds = sorted({b for _, b in conditions if math.isfinite(b)})
    if not bounds:
        return [Fraction(0)]
    points = []
    for a, b in zip(bounds, bounds[1:]):
        points.append(Fraction(a))
        if math.nextafter(a, math.inf) < b:
            points.append((Fraction(a) + Fraction(b)) / 2)
    points.append(Fraction(bounds[-1]))
    if bounds[0] > -DBL_MAX:
        points.append(Fraction(bounds[0]) - 1)
    if bounds[-1] < DBL_MAX:
        points.append(Fraction(bounds[-1]) + 1)
    return points


def matches(conds, x):
    return all(OPS[op](x, b) for op, b in conds)


BOUNDS_1D = [-math.inf, -DBL_MAX, -1e308, -1e20, -(2.0 ** 53), -1.0, -0.0, 0.0, 5e-324,
             1e-323, 0.5, 1.0, 2.0 ** 53, 2.0 ** 53 + 2.0, 1e20, 1.5e308, DBL_MAX,
             math.inf, math.nan]
one_dim_pieces = st.lists(
    st.lists(st.tuples(st.sampled_from(sorted(OPS)),
                       st.sampled_from(BOUNDS_1D) | st.floats()), max_size=2),
    min_size=1, max_size=4)


# the one point (5, 7), which the hole map leaves uncovered
POINT_57 = {"region": [{"var": 1, "op": "eq", "bound": 5}, {"var": 2, "op": "eq", "bound": 7}],
            "image": [[["0", "0"], ["0", "0"]]]}


def hole_map(extra=()):
    """The 2-D map whose only hole is (5, 7): four pieces cover x1 < 5,
    x1 > 5, x2 < 7 and x2 > 7, and 30 more push the grid that the
    region bounds cut past 512 points; ``extra`` pieces follow."""
    zero = [["0", "0"], ["0", "0"]]
    pieces = [{"region": [{"var": v, "op": op, "bound": b}], "image": [zero]}
              for v, b in ((1, 5), (2, 7)) for op in ("lt", "gt")]
    pieces += [{"region": [{"var": i % 2 + 1, "op": "ge", "bound": 1000 + i}], "image": [zero]}
               for i in range(30)]
    return {"dim": 2, "pieces": pieces + list(extra)}


def point_bits(p):
    return tuple(struct.pack("<d", c) for c in p)


SWEEP_BOUNDS = [-DBL_MAX, -1e20, -1.0, -0.0, 0.0, 5e-324, 0.5, 1.0,
                math.nextafter(1.0, 2.0), 1e20, DBL_MAX]
# each bound's ends: (op of the part below, op of the part above); "lt",
# "gt" leaves the bound itself uncovered
ENDS = [("le", "gt"), ("lt", "ge"), ("le", "ge"), ("lt", "gt")]


@st.composite
def covering_pieces(draw):
    """2-D and 3-D regions: the product of an interval partition of each
    coordinate, with open and closed ends, less up to two of its pieces,
    plus up to two pieces of random conditions, +-inf bounds among them.
    Each piece is a list of (var, op, bound)."""
    dim = draw(st.integers(2, 3))
    parts = []
    for j in range(dim):
        bounds = sorted(set(draw(st.lists(st.sampled_from(SWEEP_BOUNDS) | st.floats(-1e3, 1e3),
                                          max_size=3 if dim == 2 else 2))))
        intervals, below = [], []
        for b in bounds:
            lower, upper = draw(st.sampled_from(ENDS))
            intervals.append(below + [(j, lower, b)])
            below = [(j, upper, b)]
        parts.append(intervals + [below])
    pieces = [sum(cell, []) for cell in itertools.product(*parts)]
    for i in sorted(draw(st.sets(st.integers(0, len(pieces) - 1), max_size=2)), reverse=True):
        del pieces[i]
    condition = st.tuples(st.integers(0, dim - 1), st.sampled_from(sorted(OPS)),
                          st.sampled_from(SWEEP_BOUNDS + [math.inf, -math.inf]))
    pieces += draw(st.lists(st.lists(condition, max_size=2), max_size=2))
    return dim, pieces or [[]]


class TestCoverage:
    """Totality is decided exactly in every dimension, whatever the
    magnitude of the bounds, and reported at the first uncovered cell in
    the order of the old probe grid."""

    @pytest.mark.parametrize("bound", [1e308, 9e307, DBL_MAX, -DBL_MAX])
    def test_total_map_with_huge_bounds_is_accepted(self, bound):
        m = parse_map(identity_map([("le", bound)], [("ge", bound)]))
        assert m.evaluate((bound,)) == CompactSet.of_points((bound,), (bound,))

    @pytest.mark.parametrize("op, bound, beside", [
        ("le", 1e20, math.inf), ("ge", -1e20, -math.inf), ("lt", DBL_MAX, math.inf)])
    def test_hole_beyond_two_to_the_53_is_found(self, op, bound, beside):
        with pytest.raises(MapDefinitionError) as err:
            parse_map(identity_map([(op, bound)]))
        assert witness(err) == ((math.nextafter(bound, beside),) if op != "lt" else (bound,))

    def test_hole_between_huge_bounds_has_a_finite_witness(self):
        with pytest.raises(MapDefinitionError) as err:
            parse_map(identity_map([("le", 1e308)], [("ge", 1.5e308)]))
        assert witness(err) == (1.25e308,)

    def test_one_dimension_is_exact_past_512_candidates(self):
        # 300 unit intervals but one, each closed: 301 bounds, over 900 candidates
        pieces = [[("le", 0.0)], [("ge", 300.0)]]
        pieces += [[("ge", float(k)), ("le", k + 1.0)] for k in range(300) if k != 150]
        with pytest.raises(MapDefinitionError) as err:
            parse_map(identity_map(*pieces))
        assert witness(err) == (150.5,)

    def test_full_grid_finds_a_hole_beyond_two_to_the_53(self):
        src = json.dumps({"dim": 2, "pieces": [
            {"region": [{"var": 1, "op": "le", "bound": 1e20}], "image": [[["0", "0"], ["0", "0"]]]},
            {"region": [{"var": 2, "op": "ge", "bound": 0}], "image": [[["0", "0"], ["0", "0"]]]},
        ]})
        with pytest.raises(MapDefinitionError) as err:
            parse_map(src)
        assert witness(err) == (math.nextafter(1e20, math.inf), -1.0)

    @settings(max_examples=300, deadline=None)
    @given(one_dim_pieces)
    def test_one_dimension_matches_the_cell_oracle(self, pieces):
        m = PiecewiseMap(1, [
            Piece(tuple(Condition(0, op, b) for op, b in conds),
                  (((Expr.const(0.0), Expr.const(1.0)),),))
            for conds in pieces
        ])
        holes = [x for x in cell_points([c for conds in pieces for c in conds])
                 if not any(matches(conds, x) for conds in pieces)]
        if not holes:
            validate_map(m)
            return
        with pytest.raises(MapDefinitionError) as err:
            validate_map(m)
        (w,) = witness(err)
        assert math.isfinite(w)
        assert not any(matches(conds, w) for conds in pieces)

    @settings(max_examples=300, deadline=None)
    @given(covering_pieces())
    def test_sweep_matches_every_cell_and_the_probe_order(self, case):
        dim, pieces = case

        def covered(x):
            return any(all(OPS[op](x[v], b) for v, op, b in conds) for conds in pieces)

        m = PiecewiseMap(dim, [
            Piece(tuple(Condition(v, op, b) for v, op, b in conds),
                  (((Expr.const(0.0), Expr.const(1.0)),) * dim,))
            for conds in pieces
        ])
        cells = [cell_points([(op, b) for conds in pieces for v, op, b in conds if v == j])
                 for j in range(dim)]
        hole = any(not covered(x) for x in itertools.product(*cells))
        first = next((p for p in reference_probe_grid(m) if not covered(p)), None)
        assert (first is not None) == hole
        if first is None:
            validate_map(m)
            return
        with pytest.raises(MapDefinitionError) as err:
            validate_map(m)
        assert point_bits(witness(err)) == point_bits(first)

    def test_hole_in_a_grid_above_512_points_is_found(self):
        # 16 bounds on each coordinate cut a grid of 1444 points, which
        # the validator once sampled at 256 of them and passed
        with pytest.raises(MapDefinitionError) as err:
            parse_map(json.dumps(hole_map()))
        assert witness(err) == (5.0, 7.0)
        assert parse_map(json.dumps(hole_map([POINT_57]))).evaluate((5.0, 7.0)).boxes

    def test_bad_image_of_one_piece_is_found_at_its_region(self):
        one_dim = json.dumps({"dim": 1, "pieces": [
            {"region": [{"var": 1, "op": "lt", "bound": 3}], "image": [[["x", "x"]]]},
            {"region": [{"var": 1, "op": "ge", "bound": 3}], "image": [[["x", "0"]]]}]})
        with pytest.raises(MapDefinitionError, match=r"produced lo 3\.0 > hi 0\.0 at \(3\.0,\)"):
            parse_map(one_dim)
        # one point of a grid above 512 points, which no random probe hits
        spot = {**POINT_57, "image": [[["x1", "0"], ["0", "0"]]]}
        with pytest.raises(MapDefinitionError,
                           match=r"produced lo 5\.0 > hi 0\.0 at \(5\.0, 7\.0\)"):
            parse_map(json.dumps(hole_map([spot])))

    def test_a_hole_is_reported_before_a_bad_image(self):
        # the bad image at 0 comes first among the probe points, the
        # hole (0, 1) next
        src = json.dumps({"dim": 1, "pieces": [
            {"region": [{"var": 1, "op": "le", "bound": 0}], "image": [[["1", "0"]]]},
            {"region": [{"var": 1, "op": "ge", "bound": 1}], "image": [[["x", "x"]]]}]})
        with pytest.raises(MapDefinitionError) as err:
            parse_map(src)
        assert witness(err) == (0.5,)

    @pytest.mark.parametrize("hole", [False, True])
    def test_validation_evaluates_each_piece_once_and_32_random_points(self, hole):
        # the validator once evaluated 256 points of this grid and 32
        # random ones; this counts evaluations, not time
        pieces = parse_map(json.dumps(hole_map([POINT_57]))).pieces
        m = PiecewiseMap(2, pieces[:-1] if hole else pieces)
        calls = []
        inner = m._eval
        m._eval = lambda x: calls.append(x) or inner(x)
        if hole:
            with pytest.raises(MapDefinitionError):
                validate_map(m)
            assert calls == [(5.0, 7.0)]
        else:
            validate_map(m)
            assert len(calls) == len(pieces) + 32

    def test_validation_holds_one_random_point_at_a_time(self):
        # a point of n doubles is about 32n bytes (8 a reference, 24 a
        # float); the 32 random points held at once were 33 of them
        n = 20000
        m = parse_map(json.dumps({"dim": n, "pieces": [
            {"region": [], "image": [[["0", "1"]] * n]}]}))
        tracemalloc.start()
        try:
            validate_map(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 32 * n


class TestRoundtrip:
    def test_builtin_example1_lowers_to_pieces(self):
        text = roundtrip(builtin("example1"))
        doc = json.loads(text)
        assert "pieces" in doc and "builtin" not in doc
        m = parse_map(text)
        for x in (-1.0, 0.0, 1.0):
            assert m.evaluate((x,)) == builtin("example1").evaluate((x,))

    def test_product_node_preserved(self):
        m = product(builtin("example1"), builtin("example2_F"))
        doc = json.loads(roundtrip(m))
        assert set(doc) >= {"dim", "product"}
        assert doc["dim"] == 2

    def test_expression_text_normalises_but_agrees(self):
        e = parse_expr("x+1")
        text = e.to_text(1)
        for v in (-2.0, 0.0, 0.3):
            assert tree_eval(parse_expr(text), (v,)) == tree_eval(e, (v,))

    def test_infinite_constants_roundtrip(self):
        # `inf` is no name in the grammar; 1e999 reads back as inf
        src = json.dumps({"dim": 1, "pieces": [
            {"region": [], "image": [[["sign(1e999)", "2"]], [["sign(-1e999)", "abs(x)"]]]}]})
        m = parse_map(src)
        text = roundtrip(m)
        again = parse_map(text)
        assert roundtrip(again) == text
        assert again.evaluate((0.5,)) == m.evaluate((0.5,))
        for v in (math.inf, -math.inf):
            for e in (Expr.const(v), Expr.neg(Expr.const(v)), Expr.mul(Expr.var(0), Expr.const(v))):
                back = parse_expr(e.to_text(1))
                assert back.to_text(1) == e.to_text(1)
                assert tree_eval(back, (2.0,)) == tree_eval(e, (2.0,))

    def test_normgrad_keeps_builtin_node(self):
        doc = json.loads(roundtrip(builtin("normgrad", {"n": 2, "k": 4})))
        assert doc["builtin"]["name"] == "normgrad"

    def test_builtin_growth_override_survives(self):
        src = json.dumps({"dim": 2, "builtin": {"name": "normgrad", "params": {"n": 2}},
                          "growth": [5, 0]})
        m = parse_map(src)
        assert m.growth == (5.0, 0.0)
        text = roundtrip(m)
        assert list(json.loads(text)) == ["dim", "growth", "builtin"]
        assert parse_map(text).growth == (5.0, 0.0)
        assert "growth" not in json.loads(roundtrip(builtin("normgrad")))

    @pytest.mark.parametrize("kind", ["product", "union"])
    def test_composite_growth_override_precedes_the_parts(self, kind):
        parts = [{"dim": 1, "builtin": {"name": "example1"}},
                 {"dim": 1, "builtin": {"name": "antisign"}}]
        m = parse_map(json.dumps({"dim": 2 if kind == "product" else 1, kind: parts,
                                  "growth": [7, 0.5]}))
        doc = json.loads(roundtrip(m))
        assert list(doc) == ["dim", "growth", kind]
        again = parse_map(roundtrip(m))
        assert again.growth == m.growth == (7.0, 0.5)
        assert roundtrip(again) == roundtrip(m)

    # sha256 of roundtrip(builtin(name, params)), recorded before the
    # serializer applied one growth rule to every node kind
    CATALOG_DIGESTS = {
        ("example1", None): "20ff7645f53abca36dfb08503f1062ae9ea5cd602e04968f38e2d4ef0c69dfad",
        ("example2_F", None): "9790f93eebc6c823162412513b0a588ea703fbbd880c994518a2f7485b8001d1",
        ("example2_G", None): "a7ebeda6a0c6a14693977dcfc16f2e791e996d1fb529b83b7c22da603d830073",
        ("example3", None): "4878c89c95a4e27df0fc6e85f8610245c8792f1c7008155cce1d90fa73a871b6",
        ("example4", None): "be555b00a222cb3911e8084d74bbd3c5b5500e51722579db0859dc9a7190e67e",
        ("example4", 5): "1178ad5d28968a7255cf1a704fd631e6ac4ee42ebe3e106c404e37733d755710",
        ("antisign", None): "d7e81fcf7ae3576b990035f17275939cc07181422f762506e814c66bbb12a0e8",
        ("normgrad", None): "e3ac9829fbb5dce09320af6846d4c545436bc14ff6675a877312ad23c8df0dfc",
    }

    @pytest.mark.parametrize("name, n", sorted(CATALOG_DIGESTS, key=str))
    def test_catalog_bytes_are_pinned(self, name, n):
        text = roundtrip(builtin(name, {"n": n} if n else None))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
            self.CATALOG_DIGESTS[name, n]
        assert roundtrip(parse_map(text)) == text

    @pytest.mark.parametrize("path", sorted(MAPS.glob("*.json")), ids=lambda p: p.name)
    def test_shipped_files_are_their_own_roundtrip(self, path):
        text = path.read_text(encoding="utf-8")
        assert roundtrip(parse_map(text)) == text

    def test_random_specs_roundtrip_evaluation(self):
        rng = random.Random(12)
        for trial in range(60):
            m = self._random_map(rng, rng.randint(1, 3))
            text = roundtrip(m)
            again = parse_map(text)
            assert again.dim == m.dim
            for _ in range(100):
                x = tuple(rng.uniform(-4, 4) for _ in range(m.dim))
                assert m.evaluate(x) == again.evaluate(x), (trial, x)

    def _random_map(self, rng, dim, depth=0):
        from diffinc.setmap import Condition, Piece, PiecewiseMap
        roll = rng.random()
        if dim > 1 and roll < 0.35:
            split = rng.randint(1, dim - 1)
            return product(self._random_map(rng, split, depth + 1),
                           self._random_map(rng, dim - split, depth + 1))
        if depth < 2 and roll < 0.55:
            return union(self._random_map(rng, dim, depth + 1),
                         self._random_map(rng, dim, depth + 1))
        pieces = []
        for _ in range(rng.randint(0, 2)):
            var = rng.randrange(dim)
            bound = round(rng.uniform(-2, 2), 2)
            op = rng.choice(["lt", "le", "ge", "gt", "eq"])
            region = (Condition(var, op, bound),)
            pieces.append(Piece(region, self._random_image(rng, dim)))
        pieces.append(Piece((), self._random_image(rng, dim)))  # catch-all
        return PiecewiseMap(dim, tuple(pieces))

    def _random_image(self, rng, dim):
        boxes = []
        for _ in range(rng.randint(1, 2)):
            coords = []
            for _ in range(dim):
                base = random_expr(rng, dim, depth=2)
                pad = abs(round(rng.uniform(0, 1.5), 3))
                coords.append((Expr.sub(base, Expr.const(pad)),
                               Expr.add(base, Expr.const(pad))))
            boxes.append(tuple(coords))
        return tuple(boxes)


class TestShippedFiles:
    def test_map_format_doc_example_matches_builtin(self):
        m = parse_map((MAPS / "example1.json").read_text(encoding="utf-8"))
        rng = random.Random(13)
        for _ in range(50):
            x = (rng.uniform(-5, 5),)
            assert m.evaluate(x) == builtin("example1").evaluate(x)
