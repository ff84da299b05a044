"""Pinned output bytes of the CLI.

Each case runs ``cli.main`` and pins the exit code, the sha256 of
stdout and, where the run writes one, the sha256 of the trajectory CSV.
The cases cover each policy on four catalog maps,
a refinement study, the wcm, monotone, cyclic, growth and closed-graph
checks (the last on piecewise, product and union images, on one
failing native map and on two linear map files: a shift's first scale
moves one of them past eps and its second scale clears it; monotone
and cyclic on passing runs whose battery holds exact-zero circulations
and on failing runs with certificates), a map file and an infeasible
solve, so a change to the arithmetic of map evaluation, selection or
the checks shows up here as a changed digest.  Each trajectory CSV, read back,
must give ``residual`` the residuals of its summary, bit for bit.
After an intended change of
results, print the new table with
``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import struct
from pathlib import Path

import pytest
from helpers import LINEAR_MAPS

from diffinc.analyzer import check_trajectory_monotone, residual
from diffinc.cli import main, resolve_map
from diffinc.solver import trajectory_from_csv

MAPS = Path(__file__).resolve().parent.parent / "maps"

_SOLVES = {
    "example1": ["--map", "example1", "--x0=-0.5"],
    "example2_F": ["--map", "example2F", "--x0=1"],
    "example3": ["--map", "example3", "--x0=-1,0.5"],
    "example4_3": ["--map", "example4", "--dim", "3", "--x0=-1,0.5,0"],
}

CASES = {
    **{
        f"solve-{name}-{policy}": (
            ["solve", *args, "--T", "1", "--N", "64", "--policy", policy,
             "--output", "traj.csv"],
            True,
        )
        for name, args in _SOLVES.items()
        for policy in ("project", "lex-min", "lex-max")
    },
    "converge-example2_F-lex-max": (
        ["converge", "--map", "example2F", "--x0=1", "--v0=1", "--policy",
         "lex-max", "--T", "1", "--N0", "50", "--levels", "3"],
        False,
    ),
    "check-wcm-example3": (
        ["check", "wcm", "--map", "example3", "--radius", "5", "--samples",
         "400", "--seed", "11"],
        False,
    ),
    "check-monotone-normgrad2": (
        ["check", "monotone", "--map", "normgrad2", "--samples", "200",
         "--seed", "3"],
        False,
    ),
    "check-monotone-example2_F": (
        ["check", "monotone", "--map", "example2F", "--seed", "1"],
        False,
    ),
    "check-cyclic-normgrad3": (
        ["check", "cyclic", "--map", "normgrad3", "--samples", "300", "--seed",
         "1"],
        False,
    ),
    "check-cyclic-example3": (
        ["check", "cyclic", "--map", "example3", "--seed", "1"],
        False,
    ),
    "check-graph-example1": (
        ["check", "graph", "--map", "example1", "--samples", "140", "--seed",
         "5"],
        False,
    ),
    "check-graph-example2_G": (
        ["check", "graph", "--map", "example2G", "--samples", "150", "--seed",
         "5"],
        False,
    ),
    "check-graph-example4_3": (
        ["check", "graph", "--map", "example4", "--dim", "3", "--samples",
         "60", "--seed", "5"],
        False,
    ),
    "check-graph-normgrad3": (
        ["check", "graph", "--map", "normgrad3", "--samples", "100", "--seed",
         "5"],
        False,
    ),
    # map files written by ``run_case``; see ``helpers.LINEAR_MAPS``
    **{
        f"check-graph-{name}": (["check", "graph", "--map", f"{name}.json", "--seed", "1"],
                                False)
        for name in LINEAR_MAPS
    },
    "check-growth-example3": (
        ["check", "growth", "--map", "example3", "--samples", "170", "--seed",
         "5"],
        False,
    ),
    "solve-mapfile-example2_G": (
        ["solve", "--map", str(MAPS / "example2_G.json"), "--x0=-0.7", "--T",
         "1", "--output", "traj.csv"],
        True,
    ),
    "solve-antisign-infeasible": (
        ["solve", "--map", "antisign", "--x0=1", "--v0=-1", "--T", "2", "--N",
         "64"],
        False,
    ),
}

# (exit code, sha256 of stdout, sha256 of the CSV or None)
GOLDEN = {
    'check-cyclic-example3': (3, '7ec2d238a6532d60a1e875c9fd21cc5d8a8970edd51a5e40552e27c6e0bbc5ad', None),
    'check-cyclic-normgrad3': (0, '251c70ce60b2eb4419d55e549dcf82078fcd521cb190e1f1785a7a6991909005', None),
    'check-graph-example1': (0, '8ebbc757cf0e232a3a270563db97776891302b5996f615a1f95cd67d1c4b4aa2', None),
    'check-graph-example2_G': (0, '59b70e033310b49910559467356b1a7acd2587cbd8e1196bd836178934b435c3', None),
    'check-graph-example4_3': (0, 'fa18907f60d0fbcf0ac38263006ba09c99488e3ed75f9546632cecaa1837585c', None),
    'check-graph-linear_1e4': (0, '26aba83e7a07a6580a7472e8c313b93c63a4316f21fe29dc8ac706df2361fe86', None),
    'check-graph-linear_1e8': (3, 'fde126d426abc0b2536b5432ddb49005cf5957a951b924b0ece85bde647e660d', None),
    'check-graph-normgrad3': (3, '8adeb3baca67aa896fd640a0af0d8ffd4cd65764400fd8d759688d17323bb8da', None),
    'check-growth-example3': (0, '802a8ea0a5231b5b53180e248be4795b7643c17ee56332d45635a3ef397a1222', None),
    'check-monotone-example2_F': (3, 'b777e4d32bfc5f985b5fdb386f1635fdddbe7ececc83794de06535b91325e057', None),
    'check-monotone-normgrad2': (0, '97aecd8257c6642c7259242fd499ed7229cd22529bee3f62519f24588eef63ca', None),
    'check-wcm-example3': (0, 'c2b6b7c9e8437832adba2f852256a50f10c51a81f2649a75fccaaef5695bf266', None),
    'converge-example2_F-lex-max': (0, 'a1dcd6283b9c5c62f01fbf52cfd5e1c6603a4dc119eb3ba53ce49099e112dfd1', None),
    'solve-antisign-infeasible': (2, 'e0d290981c63ae46d2c887c6db2756c340789e4bbdfcd9828ccc5f0f3ee002d3', None),
    'solve-example1-lex-max': (0, 'f84f0be4251588f232f10fb459811a491757a9793fb6e9c387aac16633e77956', 'fba1e679e8ebbbdbd4ec089826e7ac4d15dbb9b89f5c551f068ad5a93d04c139'),
    'solve-example1-lex-min': (0, '7245da014d8f36f8f32e7ee930638aef4510898f9d3646aadd094ce81cc25508', '904ff920778f3201bfedfae4d2ad269cf06aa6486f3767239d6375ded4ccc296'),
    'solve-example1-project': (0, 'bb8e3e94e12494d861ea22aca008dbba8b2486b78db99645797e3215201fcc23', 'fba1e679e8ebbbdbd4ec089826e7ac4d15dbb9b89f5c551f068ad5a93d04c139'),
    'solve-example2_F-lex-max': (0, '59d41662b915ca030f3ac0581efc8000a174e9c6f037e7c2f72a7a41ff59e30d', 'e382a203a6f39dab5e81b2ef2a6a3fd75d4efcbf6bb9107523bcdbf80bed3e3d'),
    'solve-example2_F-lex-min': (0, '932e5446c13d16299a008e3dea47244abf7d518881404af197124562a02e980f', '8c397e4d0e1d968144f3b641b8f7623dba0bda936b291bc34cf3a6ba32622ef4'),
    'solve-example2_F-project': (0, 'fe1cf1f5ee94e34000cd3fa2c6650628e2beb4903bc0b67324e8b8f85da39c37', '8c397e4d0e1d968144f3b641b8f7623dba0bda936b291bc34cf3a6ba32622ef4'),
    'solve-example3-lex-max': (0, '0dc680061841265579162b0e64ee5f0c88d547d8b0dcbaf70a25f87d0f549133', 'e6401c5e207318c2b5691a0d2fd55d32189b5b2cf37b4ac4b54446f0a564e381'),
    'solve-example3-lex-min': (0, '8a59fe961397bea2e3c06babdc6c47932eb9bdadf3b7beb40a726c9c0b0188fd', '5d02d1114c31daa13ed0336718c54ae1343be83affcc8982c0b3522181a57ca0'),
    'solve-example3-project': (0, '79882852411a8b3c84a35e78868de481ef97a711c5c100e6dabe7c8c6d9ad238', '3c2ea96ed95086487c29d6492d9bdaddad97f33daa15dee658cfed32985491b4'),
    'solve-example4_3-lex-max': (0, '03bfdabd346076158055fb394a7462583f9624c44c3bde3036be169b307a8de7', 'dd815e3f6fdf780c9314708f990470b1cc820d943a54227ca8ed3e69370d39e0'),
    'solve-example4_3-lex-min': (0, '6faf4037751ef1de59b62d44ba436dc3ad83c077f0c18d7beb23a73c46579080', 'ef29f63aaa729b461a34d16ca55b18647f209030c8a2887c7f4af979611a5ffa'),
    'solve-example4_3-project': (0, 'a2bfa852bb0b2992bb505a39768b7a0fb8740553d0cfc2de32c818f9a31fbc4b', '93ae454ff236d89dcc0db39636f8033199280ea23387de2b3dad04cfc89b4556'),
    'solve-mapfile-example2_G': (0, '013780ccbb4833e30af45978af6ec997498299e63497d60757152e7a85667bf3', '54b0cf2611fb6d389441745efe4070724509d27bed5011b090a9818bc8529dd3'),
}


def run_case(argv, writes_csv):
    for name, text in LINEAR_MAPS.items():
        Path(f"{name}.json").write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    csv_digest = None
    if writes_csv:
        csv_digest = hashlib.sha256(Path("traj.csv").read_bytes()).hexdigest()
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), csv_digest


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_are_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv, writes_csv = CASES[name]
    assert run_case(argv, writes_csv) == GOLDEN[name]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(n for n, (_, writes_csv) in CASES.items() if writes_csv))
def test_csv_replays_the_summary_residuals(name, tmp_path, monkeypatch):
    """The CSV a solve writes, read back, has the residuals its summary
    reports, bit for bit: a node residual of zero, and monotone."""
    monkeypatch.chdir(tmp_path)
    argv, _ = CASES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    summary = json.loads(out.getvalue())
    m = resolve_map(argv[argv.index("--map") + 1],
                    int(argv[argv.index("--dim") + 1]) if "--dim" in argv else None)
    traj = trajectory_from_csv(Path("traj.csv").read_text(encoding="utf-8"))
    got = residual(traj, m)
    want = (summary["node_residual"], summary["interval_residual"])
    assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in want]
    # every velocity lies in its node's image, and the solve is monotone
    assert want[0] == 0.0
    assert all(r.ok for r in check_trajectory_monotone(traj))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        print("GOLDEN = {")
        for name in sorted(CASES):
            print(f"    {name!r}: {run_case(*CASES[name])!r},")
        print("}")
