"""Fuzzed input ends in a typed error, never a traceback.

``parse_map`` on random and mutated map documents raises nothing but
``ParseError`` and ``MapDefinitionError``; ``cli.main`` on command lines
drawn from its real subcommands and flags returns an exit code in 0-3.
Sizes stay small: a ``check`` on ``example4`` costs 2^n boxes per point
with zero coordinates, so dimensions above 3 appear only where they end
before a check runs.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from diffinc.cli import main
from diffinc.mapdsl import MAX_MAP_DEPTH, ParseError, parse_map, roundtrip
from diffinc.setmap import MapDefinitionError, builtin

MAP_DIR = Path(__file__).resolve().parent.parent / "maps"

SEED_DOCUMENTS = [json.loads(p.read_text(encoding="utf-8"))
                  for p in sorted(MAP_DIR.glob("*.json"))] + [
    json.loads(roundtrip(builtin("example4", {"n": 3}))),
    {"dim": 2, "builtin": {"name": "normgrad", "params": {"n": 2, "k": 4}}},
    {"dim": 1, "union": [{"dim": 1, "builtin": {"name": "example1"}},
                         {"dim": 1, "builtin": {"name": "antisign", "params": {}}}]},
]

KEYS = ["dim", "pieces", "product", "union", "builtin", "growth", "region", "image",
        "var", "op", "bound", "name", "params", "n", "k"]

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.sampled_from([10 ** 400, 2 ** 63, 20_000]),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["x", "x1", "x3", "le", "gt", "example4", "normgrad", "cbrt(x",
                     "1e999", "sign(x)*x", "-0"]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated_documents(draw):
    """A catalog or map-file document with a few nodes replaced by random
    JSON or deleted, then possibly nested inside many unions or arrays,
    or with a character inserted or removed."""
    doc = copy.deepcopy(draw(st.sampled_from(SEED_DOCUMENTS)))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values)
    text = json.dumps(doc)
    depth = draw(st.sampled_from([0, 0, 1, 2, MAX_MAP_DEPTH // 2 - 1, MAX_MAP_DEPTH // 2, 3000]))
    if draw(st.booleans()):
        text = '{"dim": 1, "union": [' * depth + text + (", " + text + "]}") * depth
    else:
        text = "[" * depth + text + "]" * depth
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(list('[]{}",:-0eE.x'))) + text[i + 1:]
    return text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(mutated_documents(), json_values.map(json.dumps), st.text(max_size=20)))
@example('{"dim": 1, "pieces": [{"region": 5, "image": [[["0", "1"]]]}]}')
@example('{"dim": 1, "builtin": {"name": "example4", "params": "ab"}}')
@example('{"dim": 1, "builtin": {"name": "example4", "params": {"n": "abc"}}}')
@example('{"dim": 1, "builtin": {"name": "example4", "params": {"n": Infinity}}}')
@example("[" * 3000 + "]" * 3000)
@example('{"dim": 1200, "builtin": {"name": "example4", "params": {"n": 1200}}}')
@example('{"dim": 1, "pieces": [{"region": [{"var": 1, "op": "le", "bound": '
         + "1" * 5000 + '}], "image": [[["0", "1"]]]}]}')
def test_parse_map_raises_only_typed_errors(src):
    try:
        parse_map(src)
    except (ParseError, MapDefinitionError):
        pass


MAPS = ["example1", "example2F", "EXAMPLE2_g", "example3", "example4", "example43",
        "antisign", "normgrad", "normgrad3", str(MAP_DIR / "example1.json"),
        str(MAP_DIR / "example3.json")]
BAD_MAPS = ["example40", "normgrad0", "example12", "nosuch", "missing.json"]
NUMBERS = ["0", "1", "-1", "0.5", "-0.0", "2"]
BAD_NUMBERS = ["nan", "inf", "1e300", "a"]


@st.composite
def commands(draw):
    """An argv for ``cli.main``: each flag of the subcommand present with
    a fixed probability; mostly valid values, some out of range."""
    rnd = draw(st.randoms())

    def pick(values, bad=(), p_bad=0.1):
        return rnd.choice(list(bad) if bad and rnd.random() < p_bad else values)

    def vector():
        return ",".join(pick(NUMBERS, BAD_NUMBERS) for _ in range(rnd.randint(1, 3)))

    def option(flag, values, p=0.5, bad=()):
        return [flag, pick(values, bad)] if rnd.random() < p else []

    command = pick(["solve", "converge", "check", "list-examples"], ["", "bogus"], 0.03)
    argv = [command] if command else []
    if command == "list-examples":
        return argv + pick([[], ["--json"]], [["--frobnicate"]])
    if command == "check":
        argv.append(pick(["wcm", "monotone", "cyclic", "growth", "graph"], ["bogus"], 0.03))
    if command in ("solve", "converge", "check"):
        argv += ["--map", pick(MAPS, BAD_MAPS)]
        argv += option("--dim", ["1", "2", "3"], 0.15, ["0", "-1", "20000", "abc"])
        argv += option("--k", ["1", "4", "6"], 0.1, ["0", "-2", "20000"])
    if command in ("solve", "converge"):
        argv += ["--x0", vector(), "--T", pick(["1", "0.5", "1e-4"], ["0", "-1", "nan", "50"])]
        argv += option("--policy", ["project", "lex-min", "lex-max"], 0.3, ["bogus"])
        argv += option("--v0", [vector()], 0.3)
    if command == "solve":
        argv += option("--N", ["1", "8", "20"], 0.5, ["0", "-3"])
        argv += ["--no-mesh-check"] if rnd.random() < 0.2 else []
    if command == "converge":
        argv += ["--N0", pick(["1", "4"], ["0", "1250001"])]
        argv += option("--levels", ["2", "3"], 0.5, ["1", "30", "10000000000"])
    if command == "check":
        argv += option("--radius", ["0.5", "5"], 0.5,
                       ["0", "-1", "nan", "inf", "1e300", "1e308", "1.7976931348623157e308"])
        argv += ["--samples", pick(["1", "5", "20"], ["0"])]
        argv += option("--seed", ["0", "7", "-1"])
        argv += option("--cycle-len", ["2", "3"], 0.3, ["0"])
        argv += option("--eps", ["0.01"], 0.2, ["0", "nan"])
    if command in ("solve", "converge", "check"):
        argv += option("--output", ["{tmp}/out"], 0.3, ["{tmp}"])
        argv += ["--no-timestamp"] if rnd.random() < 0.5 else []
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(commands())
@example(["check", "growth", "--map", "example40", "--samples", "5"])
@example(["check", "cyclic", "--map", "normgrad3", "--radius", "1e308", "--samples", "50",
          "--seed", "1"])
@example(["converge", "--map", "example1", "--x0", "0", "--T", "1", "--N0", "1250001",
          "--levels", "2"])
@example(["solve", "--map", "example3", "--x0", "0,0", "--T", "1000", "--N", "4"])
def test_cli_returns_only_contract_exit_codes(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{tmp}", tmp) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # --no-mesh-check warns by design
            code = main(argv)
    assert code in (0, 1, 2, 3)
