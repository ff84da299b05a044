"""Command-line front end.

Subcommands: ``solve`` (one polygon, JSON summary), ``converge``
(mesh-refinement study), ``check`` (condition checks) and
``list-examples`` (the builtin catalog).  ``main`` builds the parser of
the named subcommand only; a command line that names none (no
arguments, ``--help``, an unknown command) gets the parser of all four,
with the same usage, help and error text either way.

Output: on exit 0, 2 or 3 a command prints one JSON document on stdout,
the same bytes on every run; on exit 1 it prints nothing there and the
error goes to stderr.  ``solve --output`` writes the trajectory CSV,
the only file a command writes, and only when the solve succeeds.

Exit codes: 0 success / pass, 1 usage or map errors, 2 infeasible
selection (certificate printed), 3 a check found a counterexample.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Sequence

from . import analyzer, mapdsl, solver
from .selector import SelectionPolicy, WcmInfeasible
from .setmap import BUILTINS, SetValuedMap, builtin


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values like "-1,-0.5" must parse as vector arguments, not options
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message: str):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


def _parse_vector(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{what} must be comma-separated decimals, got {text!r}")


def resolve_map(source: str, dim: int | None = None, k: int | None = None) -> SetValuedMap:
    """A builtin name or a map-file path.  Builtin names match without
    case or underscores and may carry ``n`` as a suffix (``normgrad3``)
    that agrees with ``dim``; ``builtin`` gets only the ``n`` and ``k``
    given, and rejects those the map does not take."""
    if os.path.isfile(source) or source.endswith(".json"):
        if dim is not None or k is not None:
            raise UsageError("--dim and --k apply to builtin maps only")
        return mapdsl.load_map(source)
    text = source.strip().lower().replace("_", "")
    for name in BUILTINS:
        stem = name.lower().replace("_", "")
        suffix = text[len(stem):]
        if text.startswith(stem) and (not suffix or suffix.isdecimal()):
            n = int(suffix) if suffix else dim
            if dim is not None and n != dim:
                raise UsageError(f"--map {source} gives n = {n}, --dim gives {dim}")
            return builtin(name, {p: v for p, v in (("n", n), ("k", k)) if v is not None})
    raise UsageError(
        f"unknown map {source!r}; builtins: {', '.join(BUILTINS)} "
        "(or a map-file path)"
    )


def _policy(args: argparse.Namespace) -> SelectionPolicy:
    return SelectionPolicy(args.policy.replace("-", "_"))


def _emit(payload: dict | list) -> None:
    """Print ``payload`` as the command's one JSON document."""
    print(json.dumps(payload, indent=2))


def _add_map_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--map", required=True,
                   help="builtin name or map-file path")
    p.add_argument("--dim", type=int, default=None,
                   help="a builtin's parameter n (see list-examples)")
    p.add_argument("--k", type=int, default=None,
                   help="a builtin's parameter k (see list-examples)")


def _add_solve_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x0", required=True, help="initial state, comma-separated")
    p.add_argument("--T", type=float, required=True, help="time horizon")
    p.add_argument("--policy", choices=["project", "lex-min", "lex-max"],
                   default="project")
    p.add_argument("--v0", default=None,
                   help="initial velocity override, comma-separated")


def _add_solve_arguments(p: argparse.ArgumentParser) -> None:
    _add_map_options(p)
    _add_solve_options(p)
    p.add_argument("--N", type=int, default=None,
                   help="mesh steps (default: smallest n with h*M < 1)")
    p.add_argument("--no-mesh-check", action="store_true",
                   help="run even when n violates h*M < 1")
    p.add_argument("--output", default=None,
                   help="write the trajectory CSV here (only when the solve succeeds)")


def _add_converge_arguments(p: argparse.ArgumentParser) -> None:
    _add_map_options(p)
    _add_solve_options(p)
    p.add_argument("--N0", type=int, required=True, help="coarsest mesh steps")
    p.add_argument("--levels", type=int, default=4)


def _add_check_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("condition", choices=["wcm", "monotone", "cyclic", "growth", "graph"])
    _add_map_options(p)
    p.add_argument("--radius", type=float, default=5.0)
    p.add_argument("--samples", type=int, default=None,
                   help="sample budget (default 10000; growth 512, graph 128)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cycle-len", type=int, default=3)
    p.add_argument("--eps", type=float, default=1e-2,
                   help="closed-graph distance threshold")


def cmd_solve(args: argparse.Namespace) -> int:
    m = resolve_map(args.map, args.dim, args.k)
    x0 = _parse_vector(args.x0, "--x0")
    v0 = _parse_vector(args.v0, "--v0") if args.v0 else None
    policy = _policy(args)
    traj = solver.euler_polygon(
        m, x0, args.T, args.N, policy, v0,
        enforce_mesh=not args.no_mesh_check,
    )
    node_res, interval_res = analyzer.residual(traj, m)
    summary = {
        "map": m.label,
        "policy": policy.variant,
        "horizon": traj.horizon,
        "steps": traj.steps,
        "mesh_size": traj.mesh_size,
        "x0": list(x0),
        "initial_velocity": list(traj.velocities[0]),
        "terminal": list(traj.terminal),
        "monotone": [r.classification for r in analyzer.check_trajectory_monotone(traj)],
        "node_residual": node_res,
        "interval_residual": interval_res,
        "output": args.output,
    }
    if args.output:  # last, so that a solve that fails leaves no file
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(solver.trajectory_to_csv(traj))
    _emit(summary)
    return 0


def cmd_converge(args: argparse.Namespace) -> int:
    m = resolve_map(args.map, args.dim, args.k)
    x0 = _parse_vector(args.x0, "--x0")
    v0 = _parse_vector(args.v0, "--v0") if args.v0 else None
    report = solver.converge(m, x0, args.T, args.N0, args.levels, _policy(args), v0)
    _emit(report.to_json_dict())
    return 0


_CHECK_DEFAULT_SAMPLES = {"growth": 512, "graph": 128}


def cmd_check(args: argparse.Namespace) -> int:
    m = resolve_map(args.map, args.dim, args.k)
    samples = args.samples
    if samples is None:
        samples = _CHECK_DEFAULT_SAMPLES.get(args.condition, 10000)
    if args.condition == "wcm":
        report = analyzer.check_wcm(m, args.radius, samples, args.seed)
    elif args.condition == "monotone":
        report = analyzer.find_monotonicity_violation(
            m, args.radius, samples, args.seed)
    elif args.condition == "cyclic":
        report = analyzer.find_cyclic_violation(
            m, args.radius, args.cycle_len, samples, args.seed)
    elif args.condition == "graph":
        report = analyzer.check_closed_graph(
            m, args.radius, samples, args.seed, args.eps)
    else:
        report = analyzer.check_growth(m, args.radius, samples, args.seed)
    payload = report.to_json_dict()
    payload["map"] = m.label
    _emit(payload)
    return 3 if report.failed else 0


def cmd_list_examples(args: argparse.Namespace) -> int:
    _emit([
        {"name": b.name, "dim": b.dim,
         "params": {p: f"{meaning} (default {default})"
                    for p, default, meaning in b.params},
         "about": b.about}
        for b in BUILTINS.values()
    ])
    return 0


# (name, help line, adds the arguments, runs the parsed command), in help order
_COMMANDS = (
    ("solve", "build one Euler polygon", _add_solve_arguments, cmd_solve),
    ("converge", "mesh-refinement study", _add_converge_arguments, cmd_converge),
    ("check", "verify or refute a condition on a map", _add_check_arguments, cmd_check),
    ("list-examples", "catalog of builtin maps", lambda p: None, cmd_list_examples),
)


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every subcommand, or of ``command`` alone when it
    names one.  Either way a command line that starts with ``command``
    parses, prints help and fails the same, byte for byte: a subcommand's
    parser does not depend on its siblings."""
    parser = _Parser(prog="diffinc",
                     description="Euler polygons and condition checks for "
                                 "set-valued velocity fields with box-union images")
    sub = parser.add_subparsers(dest="command", required=True)
    entries = [e for e in _COMMANDS if e[0] == command] or _COMMANDS
    for name, help_line, add_arguments, run in entries:
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(run=run)
        add_arguments(p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        try:
            args = parser.parse_args(argv)
            code = args.run(args)
        except WcmInfeasible as e:
            print(f"infeasible: {e}", file=sys.stderr)
            _emit({"infeasible": e.to_json_dict()})
            code = 2
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader left: as Python's signal docs advise for SIGPIPE, point
        # stdout at devnull so the flush at exit has nothing to fail on
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (UsageError, ValueError, OSError) as e:  # ParseError, MapDefinitionError too
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
