"""The builtin catalog: one registry read by ``builtin()``, the CLI and
the README, and the example4 product tree."""

import itertools
import json
import sys
import time
from pathlib import Path

import pytest
from helpers import reference_balanced_example4, reference_example4
from hypothesis import example, given
from hypothesis import strategies as st

from diffinc.analyzer import check_growth
from diffinc.cli import main
from diffinc.mapdsl import parse_map, roundtrip
from diffinc.setmap import BUILTINS, _sup_norm, builtin

ROOT = Path(__file__).resolve().parent.parent


def readme_catalog_rows():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Builtin map catalog", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("| `")]


def test_readme_table_is_the_registry():
    assert readme_catalog_rows() == [
        f"| `{b.name}` | {b.dim} | {b.about} |" for b in BUILTINS.values()
    ]


def test_list_examples_renders_the_registry(capsys):
    assert main(["list-examples"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(r["name"], r["dim"], r["about"]) for r in rows] == [
        (b.name, b.dim, b.about) for b in BUILTINS.values()
    ]
    assert rows[4]["params"] == {"n": "state dimension (default 1)"}
    assert rows[6]["params"] == {"n": "state dimension (default 2)",
                                 "k": "unit vectors at the origin (default 4)"}


def test_example2_G_image_at_zero_has_three_points():
    image = builtin("example2_G").evaluate((0.0,))
    assert sorted(b.lo[0] for b in image.boxes) == [-1.0, 0.0, 0.0, 1.0]
    assert "{-1, 0, 1} at 0" in BUILTINS["example2_G"].about


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_every_entry_builds_with_its_defaults(name):
    entry = BUILTINS[name]
    m = builtin(name)
    assert entry.dim in (str(m.dim), "n")
    assert m.growth is not None
    defaults = {p: default for p, default, _ in entry.params}
    assert builtin(name, defaults).label == m.label


def test_defaults_apply_only_to_absent_parameters():
    assert builtin("normgrad", {"k": 6}).label == "normgrad(2,6)"
    assert builtin("normgrad", {"n": 3}).label == "normgrad(3,4)"
    with pytest.raises(ValueError, match="example4 needs n >= 1"):
        builtin("example4", {"n": 0})
    with pytest.raises(ValueError, match="normgrad needs k >= 1"):
        builtin("normgrad", {"k": 0})
    with pytest.raises(ValueError, match=r"unexpected parameters for 'example1': \['n'\]"):
        builtin("example1", {"n": 1})
    with pytest.raises(ValueError, match="unknown builtin map"):
        builtin(["example1"])


POINTS = [-1.5, -0.0, 0.0, 2.0]


@pytest.mark.parametrize("n", range(1, 9))
def test_balanced_example4_matches_the_nested_one(n):
    m, ref = builtin("example4", {"n": n}), reference_example4(n)
    assert (m.dim, m.growth, m.label) == (ref.dim, ref.growth, ref.label)
    assert m.region_boundaries() == ref.region_boundaries()
    points = itertools.product(POINTS, repeat=n) if n <= 4 else \
        [tuple(POINTS[(i * 7 + j * 3) % 4] for j in range(n)) for i in range(40)]
    for x in points:
        assert m.evaluate(x) == ref.evaluate(x)
    if n <= 3:
        assert roundtrip(m) == roundtrip(ref)


def test_example4_2_map_file_is_the_builtin_roundtrip():
    assert (ROOT / "maps" / "example4_2.json").read_text(encoding="utf-8") == \
        roundtrip(builtin("example4", {"n": 2}))


def _depth(m):
    parts = [getattr(m, side) for side in ("left", "right") if hasattr(m, side)]
    return 1 + max(map(_depth, parts), default=0)


def test_example4_in_high_dimension_evaluates():
    m = builtin("example4", {"n": 1200})
    assert _depth(m) == 13  # the union, then ceil(log2(1200)) products, then a branch
    image = m.evaluate((1.0,) * 1200)
    assert [b.lo for b in image.boxes] == [(0.5,) * 1200, (1.0,) * 1200]



@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 13, 64])
def test_shared_branches_serialize_as_separate_ones(n):
    m, ref = builtin("example4", {"n": n}), reference_balanced_example4(n)
    assert roundtrip(m) == roundtrip(ref)
    assert m.region_boundaries() == ref.region_boundaries()
    x = tuple((-1.5, 2.0)[j % 2] for j in range(n))  # no zero: one box per branch
    assert m.evaluate(x) == ref.evaluate(x)


def _distinct_maps(m, seen):
    if id(m) not in seen:
        seen[id(m)] = m
        for side in ("left", "right"):
            if hasattr(m, side):
                _distinct_maps(getattr(m, side), seen)
    return seen


def test_example4_builds_one_branch_and_one_product_per_subtree_size():
    m = builtin("example4", {"n": 10000})
    kinds = [part.kind for part in _distinct_maps(m, {}).values()]
    # per scale: one branch, and one product for each of the 21 sizes
    # 10000, 5000, 2500, 1250, 625, 312-313, 156-157, 78-79, 39-40,
    # 19-20, 9-10, 4-5 and 2-3
    assert kinds.count("piecewise") == 2
    assert kinds.count("product") == 2 * 21


def test_large_example4_builds_and_parses_quickly():
    start = time.perf_counter()
    m = builtin("example4", {"n": 10000})
    assert time.perf_counter() - start < 0.5
    assert m.dim == 10000 and m.growth == (10000.0, 0.0)
    src = json.dumps({"dim": 10000, "builtin": {"name": "example4", "params": {"n": 10000}}})
    start = time.perf_counter()
    parsed = parse_map(src)
    assert time.perf_counter() - start < 0.5
    assert parsed.label == "example4(10000)"


# every entry with its defaults, and some other parameters
CATALOG = [(name, {}) for name in BUILTINS] + [
    ("example4", {"n": 3}), ("normgrad", {"n": 3}), ("normgrad", {"n": 6, "k": 3})]
TINY_RADIUS = 1e-310  # sampled points have subnormal norms


@pytest.mark.parametrize("name, params", CATALOG)
def test_every_entry_passes_check_growth_on_its_own_constants(name, params):
    m = builtin(name, params)
    for radius in (0.5, 5.0, 1e3, 1e150, TINY_RADIUS):
        for seed in range(5):
            report = check_growth(m, radius, 512, seed)
            assert report.verdict == "pass-sampled", (m.label, radius, seed, report.certificate)


def test_normgrad_growth_check_passes_from_the_command_line(capsys):
    # the rounded x/|x| has hypot 1 + 2^-52 here, which failed a declared A of 1
    assert main(["check", "growth", "--map", "normgrad2", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["declared"] == [1.0 + 2.0 ** -50, 0.0]
    assert (report["verdict"], report["samples"]) == ("pass-sampled", 523)


HUGE = sys.float_info.max
coordinates = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [HUGE, -HUGE, 5e-324, -5e-324, 0.0, -0.0])


@st.composite
def normgrad_points(draw):
    """(n, k, x): a normgrad map's parameters and a point, often with
    huge, subnormal or zero coordinates."""
    n = draw(st.integers(2, 6))
    return n, draw(st.integers(1, 8)), tuple(draw(st.lists(coordinates, min_size=n,
                                                          max_size=n)))


@given(normgrad_points())
@example((2, 4, (5e-324, 5e-324)))  # hypot rounds to 5e-324: the image was (1, 1)
@example((2, 4, (HUGE, HUGE)))
@example((3, 4, (HUGE, -HUGE, 1.0)))
@example((2, 4, (0.0, -0.0)))
@example((2, 7, (0.0, 0.0)))
@example((6, 3, (0.0,) * 6))
@example((3, 4, (1e-320, -3e-321, 2.2250738585072014e-308)))
def test_normgrad_image_norm_is_within_its_declared_a(case):
    n, k, x = case
    m = builtin("normgrad", {"n": n, "k": k})
    assert m.growth[1] == 0.0
    assert _sup_norm(m._eval(x)) <= m.growth[0]
