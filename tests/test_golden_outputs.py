"""Pinned output bytes of the CLI.

Each case runs ``cli.main`` with ``--no-timestamp`` and pins the exit
code, the sha256 of stdout and, where the run writes one, the sha256 of
the trajectory CSV.  The cases cover each policy on four catalog maps,
a refinement study, the wcm, monotone, growth and closed-graph checks
(the last on piecewise, product and union images and on one failing
native map), a map file and an infeasible solve, so a
change to the arithmetic of map evaluation, selection or the checks
shows up here as a changed digest.  After an intended change of
results, print the new table with
``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

import contextlib
import hashlib
import io
import os
from pathlib import Path

import pytest

from diffinc.cli import main

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
    'check-graph-example1': (0, '8ebbc757cf0e232a3a270563db97776891302b5996f615a1f95cd67d1c4b4aa2', None),
    'check-graph-example2_G': (0, '59b70e033310b49910559467356b1a7acd2587cbd8e1196bd836178934b435c3', None),
    'check-graph-example4_3': (0, 'fa18907f60d0fbcf0ac38263006ba09c99488e3ed75f9546632cecaa1837585c', None),
    'check-graph-normgrad3': (3, '8adeb3baca67aa896fd640a0af0d8ffd4cd65764400fd8d759688d17323bb8da', None),
    'check-growth-example3': (0, '209e78c842d632766da02504390c16725d9b7ac4230694ed5ffa6a3d4ee15133', None),
    'check-monotone-normgrad2': (0, '97aecd8257c6642c7259242fd499ed7229cd22529bee3f62519f24588eef63ca', None),
    'check-wcm-example3': (0, 'c2b6b7c9e8437832adba2f852256a50f10c51a81f2649a75fccaaef5695bf266', None),
    'converge-example2_F-lex-max': (0, 'e3b8bde2d7b3e5b82be15c2b66e9c2aff5caca07a6c5880006be7843e3320161', None),
    'solve-antisign-infeasible': (2, 'e0d290981c63ae46d2c887c6db2756c340789e4bbdfcd9828ccc5f0f3ee002d3', None),
    'solve-example1-lex-max': (0, '0fb0f459e50a5bc490d0f03f4e3fbdbdb2023554f758c18637de65a9aed028bb', 'fba1e679e8ebbbdbd4ec089826e7ac4d15dbb9b89f5c551f068ad5a93d04c139'),
    'solve-example1-lex-min': (0, '55816de4385f8ff61d753d91a39165e4e9776278b7a8d7d85f34edc3e1df1b9c', '904ff920778f3201bfedfae4d2ad269cf06aa6486f3767239d6375ded4ccc296'),
    'solve-example1-project': (0, '4f6e16046aae81c5ef71d922dc5d66f79b62cd8dc8084ecf2f99f8af22de140d', 'fba1e679e8ebbbdbd4ec089826e7ac4d15dbb9b89f5c551f068ad5a93d04c139'),
    'solve-example2_F-lex-max': (0, '5551622ea7c161f1d412e8f12a87f93827f5458490c5c686206e3453919f2636', 'e382a203a6f39dab5e81b2ef2a6a3fd75d4efcbf6bb9107523bcdbf80bed3e3d'),
    'solve-example2_F-lex-min': (0, '152fe89932ba096a83be89de789555701241e2b48b1078f4dcf79344b20e1bc9', '8c397e4d0e1d968144f3b641b8f7623dba0bda936b291bc34cf3a6ba32622ef4'),
    'solve-example2_F-project': (0, '58c3c54e877d769e2aa84ed2e61a9ad081d2735c021e9554d36c8ab7efc75ea4', '8c397e4d0e1d968144f3b641b8f7623dba0bda936b291bc34cf3a6ba32622ef4'),
    'solve-example3-lex-max': (0, 'a7a32617ed3c600f899e13290d2d86cfe543d76ff7b4f88419198e30bc896e2d', 'e6401c5e207318c2b5691a0d2fd55d32189b5b2cf37b4ac4b54446f0a564e381'),
    'solve-example3-lex-min': (0, 'b70e8d668c9ea0c6252b876153f858a079d5fe5136c42fe80247a588bcd075af', '5d02d1114c31daa13ed0336718c54ae1343be83affcc8982c0b3522181a57ca0'),
    'solve-example3-project': (0, '8de4c0f98818cbdb8cf6e50deb77e23344400c87b4644a9e4949b543666a8d13', '3c2ea96ed95086487c29d6492d9bdaddad97f33daa15dee658cfed32985491b4'),
    'solve-example4_3-lex-max': (0, 'b469aa5e9cc1793663c4260063955673ed622169b21059b125cfe74218ede487', 'dd815e3f6fdf780c9314708f990470b1cc820d943a54227ca8ed3e69370d39e0'),
    'solve-example4_3-lex-min': (0, 'd37c628ef7c0b11dabdd6224e19cd05955881a7f1770012e1ce8cda66512e9d4', 'ef29f63aaa729b461a34d16ca55b18647f209030c8a2887c7f4af979611a5ffa'),
    'solve-example4_3-project': (0, 'ea4df073c082a0a37412cd5e6419de78cdd972b078d9ccceb9a716c01f103528', '93ae454ff236d89dcc0db39636f8033199280ea23387de2b3dad04cfc89b4556'),
    'solve-mapfile-example2_G': (0, '0dab402f9fdd829907f8febef6ccf8bb2d844f73ba433b26dc63de76670d4de1', '54b0cf2611fb6d389441745efe4070724509d27bed5011b090a9818bc8529dd3'),
}


def run_case(argv, writes_csv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--no-timestamp"])
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        print("GOLDEN = {")
        for name in sorted(CASES):
            print(f"    {name!r}: {run_case(*CASES[name])!r},")
        print("}")
