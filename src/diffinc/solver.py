"""Euler polygon construction, a-priori bounds and refinement studies.

The polygon is piecewise linear: ``x(t) = x(t_i) + (t - t_i) * v_i`` on
each mesh interval, with ``v_0`` taken from the initial image and every
later velocity chosen so it never moves against the sign of the
previous velocity.  The rule is exact, with no tolerance, so each
coordinate of the polygon and of its derivative is monotone, and every
velocity lies in the image at its node (node residual exactly 0).

A step depends on nothing but the previous node and velocity, so a
polygon whose step reproduces its input bit for bit, as at a point
with 0 in F(x), has reached a fixed point: ``euler_polygon`` repeats
that step's node and velocity tuples for the remaining steps without
computing them.  ``trajectory_from_csv`` likewise repeats the objects
of a row whose cells repeat the row before, so ``analyzer.residual``
measures each run of repeated steps once and ``trajectory_to_csv``
formats a repeated row's node and velocity once, both telling a repeat
by identity.  This rests on the maps being pure (see ``setmap``), and
the bytes are those of stepping.

A-priori bounds: if ``sup_norm(F(x)) <= A + B*|x|`` then every solution
of the inflated inclusion satisfies ``|x(t)| <= L`` and speed ``<= M``
where (Gronwall majorant ``r' = A + B + 1 + B*r``)::

    L = |x0| * exp(B*T) + (A + B + 1) * E,   E = (exp(B*T) - 1) / B  (T at B = 0)
    M = A + B + 1 + B * L = (A + B + 1 + B * |x0|) * exp(B*T)

The mesh condition ``h * M < 1``, on M and T*M rounded to doubles (see
``min_steps``), is enforced by default whenever growth constants are
declared.  Bounds that overflow are ``+inf``, which no finite N meets;
with the check off (``--no-mesh-check``) the solve warns.
"""

from __future__ import annotations

import math
import operator
import struct
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator, Sequence

from . import analyzer
from .selector import (
    SelectionPolicy,
    SignPattern,
    WcmInfeasible,
    _clip,
    _pick,
    initial_velocity,
)
from .setmap import (SetValuedMap, Vector, _check_growth, _image, as_vector,
                     checked_vector, finite_vector, norm)

# The most mesh steps one polygon may take: 10**7 steps of a 1-D
# trajectory hold about 2 GB of nodes, velocities and times.
MAX_STEPS = 10 ** 7


class MeshTooCoarse(ValueError):
    """N violates the mesh condition h*M < 1 for the declared growth."""


@dataclass(frozen=True)
class GrowthBounds:
    """Linear-growth constants and the state/speed bounds they imply."""

    a: float
    b: float
    x0_norm: float
    horizon: float
    state_bound: float     # L
    velocity_bound: float  # M


def gronwall_bounds(a: float, b: float, x0_norm: float, horizon: float) -> GrowthBounds:
    """Bounds L, M for the module-docstring majorant; see formulas there.
    ValueError on a map's invalid constants, horizon or a NaN x0_norm."""
    a, b = _check_growth(a, b)
    _check_horizon(horizon)
    x0_norm = abs(float(x0_norm))
    if math.isnan(x0_norm):
        raise ValueError("x0_norm must not be NaN")
    bt = b * horizon
    try:
        grow = math.exp(bt)
    except OverflowError:
        grow = math.inf
    state = math.inf  # where exp(B*T) overflows; x0_norm * inf is NaN at 0
    if grow < math.inf:
        # (A+B+1) (exp(BT) - 1) / B as (A+1) T expm1(BT) / BT + expm1(BT): no
        # cancellation, no error from a subnormal BT, no overflow of A + B
        em1 = math.expm1(bt)
        state = x0_norm * grow + (a + 1.0) * (em1 / bt * horizon if bt > 0.0 else horizon) + em1
    # M's second form stays finite where only L overflows; at B = 0, M = A + 1
    # also for an infinite |x0|, where B * |x0| would be NaN
    speed = a + 1.0 if b == 0 else (a + b + 1.0 + b * x0_norm) * grow
    return GrowthBounds(a, b, x0_norm, horizon, state, speed)


def min_steps(bounds: GrowthBounds) -> int:
    """floor(T*M) + 1: the smallest N with (T/N) * M < 1 for M and T*M
    rounded to doubles, and one short where the exact T*M lies just above
    an integer that the rounded one falls short of (ROADMAP.md item 14).

    Raises ValueError when T*M overflows to infinity, since then no
    finite N meets the condition."""
    tm = bounds.horizon * bounds.velocity_bound
    if not math.isfinite(tm):
        raise ValueError(
            f"no finite mesh meets h*M < 1: T*M = {tm!r} (the a-priori "
            "bounds overflow)"
        )
    return int(math.floor(tm)) + 1


def _identical(a: Vector, b: Vector) -> bool:
    """Whether two float tuples equal under ``==`` hold the same doubles
    bit for bit, that is, have zeros of the same signs (``-0.0 == 0.0``,
    yet ``x + h*v`` and the CSV tell them apart)."""
    return 0.0 not in a or struct.pack(f"{len(a)}d", *a) == struct.pack(f"{len(a)}d", *b)


def _vectors(points: Sequence[Sequence[float]]) -> Iterator[Vector]:
    """``as_vector`` of each point, where a point that is the previous
    point's object gets that point's tuple, so a caller that repeats a
    step's objects repeats its tuples."""
    last = vec = object()
    for p in points:
        if p is not last:
            last, vec = p, as_vector(p)
        yield vec


@dataclass(frozen=True, init=False)
class Trajectory:
    """Euler polygon: N+1 nodes, N >= 1 per-interval velocities.

    ``times[i] = (i / N) * T`` so refinements that double N share the
    coarse grid bit-exactly.  Velocities are held constant on
    ``[t_i, t_{i+1})``; the final interval is closed.

    Its ``__init__`` converts each field, giving a point that is the
    previous point's object that point's tuple (``_vectors``), and raises
    ValueError unless the counts match the mesh, the times increase
    strictly from 0 and every node and velocity shares one dimension
    >= 1.  ``euler_polygon``, whose fields hold by construction, builds
    its trajectory through ``_trusted`` instead.
    """

    times: tuple[float, ...]
    nodes: tuple[Vector, ...]
    velocities: tuple[Vector, ...]

    def __init__(self, times: Sequence[float], nodes: Sequence[Sequence[float]],
                 velocities: Sequence[Sequence[float]]) -> None:
        times = as_vector(times)
        nodes = tuple(_vectors(nodes))
        if len(nodes) != len(times) or len(velocities) != len(times) - 1:
            raise ValueError("node/velocity counts do not match the mesh")
        velocities = tuple(_vectors(velocities))
        if not velocities:
            raise ValueError("a trajectory needs at least one step")
        if times[0] != 0.0 or any(not a < b for a, b in zip(times, times[1:])):
            raise ValueError("times must increase strictly from 0")
        dim = len(nodes[0])
        if not dim or any(len(p) != dim for p in chain(nodes, velocities)):
            raise ValueError("trajectory nodes and velocities must share a dimension >= 1")
        vars(self).update(times=times, nodes=nodes, velocities=velocities)

    @classmethod
    def _trusted(cls, times: tuple[float, ...], nodes: tuple[Vector, ...],
                 velocities: tuple[Vector, ...]) -> Trajectory:
        """The trajectory of fields taken as they are, neither converted
        nor checked: times from ``_mesh_times`` and float tuples of one
        dimension, in the counts of that mesh."""
        traj = object.__new__(cls)
        vars(traj).update(times=times, nodes=nodes, velocities=velocities)
        return traj

    @property
    def steps(self) -> int:
        return len(self.velocities)

    @property
    def horizon(self) -> float:
        return self.times[-1]

    @property
    def mesh_size(self) -> float:
        return self.horizon / self.steps

    @property
    def dim(self) -> int:
        return len(self.nodes[0])

    @property
    def terminal(self) -> Vector:
        return self.nodes[-1]

    def interpolate(self, t: float) -> Vector:
        """Piecewise-linear value; exactly the stored node at node times."""
        if not (0.0 <= t <= self.horizon):
            raise ValueError(f"t = {t!r} outside [0, {self.horizon!r}]")
        i = bisect_right(self.times, t) - 1
        if i >= self.steps:
            i = self.steps - 1
        if self.times[i] == t:
            return self.nodes[i]
        if t == self.horizon:
            return self.nodes[-1]
        dt = t - self.times[i]
        v = self.velocities[i]
        return tuple(xc + dt * vc for xc, vc in zip(self.nodes[i], v))


def _check_horizon(horizon: float) -> None:
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon!r}")
    if horizon <= 0:
        raise ValueError("horizon must be > 0")


def _mesh_times(horizon: float, n: int) -> tuple[float, ...]:
    """``(i / n) * horizon`` for i = 0..n; ValueError naming T and N
    unless they increase strictly, as a ``Trajectory`` needs."""
    times = tuple((i / n) * horizon for i in range(n + 1))
    if not all(map(operator.lt, times, islice(times, 1, None))):
        raise ValueError(f"mesh times (i/N)*T do not increase strictly at T = {horizon!r}"
                         f" and N = {n}: the steps are below the spacing of doubles")
    return times


def euler_polygon(
    m: SetValuedMap,
    x0: Sequence[float],
    horizon: float,
    n: int | None = None,
    policy: SelectionPolicy = SelectionPolicy(),
    v0: Sequence[float] | None = None,
    enforce_mesh: bool = True,
) -> Trajectory:
    """Build the N-step polygon from x0 over [0, horizon].

    ``n = None`` uses the smallest mesh allowed by the map's declared
    growth constants.  With declared growth, ``n`` below that minimum
    raises MeshTooCoarse unless ``enforce_mesh=False`` (then it warns
    and proceeds); without declared growth the mesh condition cannot be
    checked and a warning is issued.

    Each step is a pure function of the previous node and velocity (the
    map's ``_eval`` and the selector core are), so once a step gives
    back its own input, bit for bit (``_identical``), as at an
    equilibrium where 0 lies in F(x) or where ``h*v`` is absorbed by
    the node, the remaining nodes and velocities repeat that input's
    tuples and are appended without stepping.

    Raises WcmInfeasible, annotated with step, time and state, when no
    image point satisfies the sign constraint at some node, ValueError
    naming the argument when x0, horizon or v0 is not finite,
    ValueError before anything is allocated when n, given or derived
    from the growth constants, exceeds MAX_STEPS, and ValueError naming
    T and N, before the map is evaluated, when the mesh times
    ``(i/N)*T`` do not increase strictly.
    """
    x0 = checked_vector(finite_vector(x0, "x0"), m.dim, "x0", "map")
    _check_horizon(horizon)

    bounds = None
    if m.growth is not None:
        bounds = gronwall_bounds(m.growth[0], m.growth[1], norm(x0), horizon)
    if n is None:
        if bounds is None:
            raise ValueError(
                "n is required for maps without declared growth constants"
            )
        n = min_steps(bounds)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_STEPS:
        raise ValueError(f"N = {n} mesh steps exceeds the limit of MAX_STEPS = {MAX_STEPS}")
    if bounds is None:
        warnings.warn(
            f"map {m.label!r} declares no growth constants; "
            "mesh condition h*M < 1 not checked",
            stacklevel=2,
        )
    elif n <= horizon * bounds.velocity_bound:  # n < min_steps, or T*M overflows
        try:
            msg = (f"n = {n} gives h*M = {(horizon / n) * bounds.velocity_bound:.6g} "
                   f">= 1; need n >= {min_steps(bounds)}")
        except ValueError as e:  # no finite n meets h*M < 1
            msg = str(e)
        if enforce_mesh:
            raise MeshTooCoarse(msg)
        warnings.warn(msg, stacklevel=2)

    times = _mesh_times(horizon, n)
    h = horizon / n
    nodes = [x0]
    v = initial_velocity(m.evaluate(x0), policy, v0)
    velocities = [v]
    x = x0
    # the points built here are float tuples of the map's dimension, so
    # they go to _eval and the selector core without re-validation
    evaluate = m._eval
    variant = policy.variant
    for i in range(1, n):
        y = tuple([xc + h * vc for xc, vc in zip(x, v)])
        signs = tuple([(c > 0) - (c < 0) for c in v])
        image = evaluate(y)
        region, _ = _clip(image, v, signs)
        if not region:
            raise WcmInfeasible(v, SignPattern(signs), _image(image),
                                state=y, step=i, time=times[i])
        w = _pick(region, v, variant)
        # ``==`` first, so a moving step costs no call
        if y == x and w == v and _identical(y, x) and _identical(w, v):
            # a fixed point of the step: each later step has this input
            # (x, v), bit for bit, so it repeats this one
            nodes += [x] * (n + 1 - i)
            velocities += [v] * (n - i)
            break
        nodes.append(y)
        velocities.append(w)
        x, v = y, w
    else:
        nodes.append(tuple([xc + h * vc for xc, vc in zip(x, v)]))
    return Trajectory._trusted(times, tuple(nodes), tuple(velocities))


@dataclass(frozen=True)
class ConvergenceReport:
    """Mesh-refinement study: N doubles per level, deltas compare
    consecutive levels on the coarse grid (observed Cauchy behaviour;
    no limit is asserted)."""

    map_label: str
    policy: SelectionPolicy
    x0: Vector
    horizon: float
    trajectories: tuple[Trajectory, ...]
    deltas: tuple[float, ...]
    residuals: tuple[tuple[float, float], ...]
    monotone: tuple[tuple[str, ...], ...]

    def to_json_dict(self) -> dict:
        levels = []
        for traj, res, mono in zip(self.trajectories, self.residuals, self.monotone):
            levels.append({
                "steps": traj.steps,
                "mesh_size": traj.mesh_size,
                "terminal": list(traj.terminal),
                "max_state_norm": max(norm(p) for p in traj.nodes),
                "max_velocity_norm": max(norm(v) for v in traj.velocities),
                "node_residual": res[0],
                "interval_residual": res[1],
                "monotone": list(mono),
            })
        return {
            "map": self.map_label,
            "policy": self.policy.variant,
            "x0": list(self.x0),
            "horizon": self.horizon,
            "levels": levels,
            "deltas": list(self.deltas),
        }


def _grid_delta(coarse: Trajectory, fine: Trajectory) -> float:
    """The largest distance between the two polygons on the coarse grid.
    The fine level has twice the steps, so its node 2i lies at the time
    of coarse node i: (2i/2N)*T and (i/N)*T round to the same double."""
    worst = 0.0
    for node, other in zip(coarse.nodes, fine.nodes[::2]):
        worst = max(worst, math.hypot(*(a - b for a, b in zip(node, other))))
    return worst


def converge(
    m: SetValuedMap,
    x0: Sequence[float],
    horizon: float,
    n0: int,
    levels: int,
    policy: SelectionPolicy = SelectionPolicy(),
    v0: Sequence[float] | None = None,
) -> ConvergenceReport:
    """Run `levels` polygons with N, 2N, 4N, ... steps and compare them.

    Starts at max(n0, declared mesh minimum).  Levels are independent
    solves (selections are not nested across levels).  WcmInfeasible is
    re-raised annotated with the level at which it occurred.  n0 must be
    >= 1 whatever the map declares; x0, horizon and v0 must be finite;
    the finest N times ``analyzer.RESIDUAL_SAMPLES`` may be at most
    MAX_STEPS; and the finest mesh times must increase strictly, which
    the coarser meshes, whose times are among them, then do too
    (ValueError otherwise, before the first solve).
    """
    if levels < 2:
        raise ValueError("a convergence study needs at least 2 levels")
    if n0 < 1:
        raise ValueError(f"n0 must be >= 1, got {n0}")
    x0 = finite_vector(x0, "x0")
    _check_horizon(horizon)
    if v0 is not None:
        v0 = finite_vector(v0, "v0 (initial velocity override)")
    start = n0
    if m.growth is not None:
        bounds = gronwall_bounds(m.growth[0], m.growth[1], norm(x0), horizon)
        start = max(n0, min_steps(bounds))
    if levels - 1 > MAX_STEPS.bit_length():
        raise ValueError(f"{levels} levels double N past MAX_STEPS = {MAX_STEPS}")
    ns = [start * (2 ** k) for k in range(levels)]
    # residual evaluates the map at 1 + RESIDUAL_SAMPLES points a step
    if ns[-1] * analyzer.RESIDUAL_SAMPLES > MAX_STEPS:
        raise ValueError(f"N = {ns[-1]} steps at the finest level times RESIDUAL_SAMPLES"
                         f" = {analyzer.RESIDUAL_SAMPLES} exceeds MAX_STEPS = {MAX_STEPS}")
    _mesh_times(horizon, ns[-1])

    trajectories: list[Trajectory] = []
    for lvl, n in enumerate(ns):
        try:
            trajectories.append(euler_polygon(m, x0, horizon, n, policy, v0))
        except WcmInfeasible as e:
            e.level = lvl  # the message does not name the level
            raise

    deltas = tuple(
        _grid_delta(coarse, fine)
        for coarse, fine in zip(trajectories, trajectories[1:])
    )
    residuals = tuple(analyzer.residual(traj, m) for traj in trajectories)
    monotone = tuple(
        tuple(r.classification for r in analyzer.check_trajectory_monotone(traj))
        for traj in trajectories
    )
    return ConvergenceReport(
        m.label, policy, x0, float(horizon),
        tuple(trajectories), deltas, residuals, monotone,
    )


# ---------------------------------------------------------------------------
# CSV export (decimal, 17 significant digits: round-trips bit-exactly)
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _csv_header(n: int) -> list[str]:
    return ["t"] + [f"x_{j + 1}" for j in range(n)] + [f"v_{j + 1}" for j in range(n)]


def trajectory_to_csv(traj: Trajectory) -> str:
    """Header and one row ``t, node, velocity`` per node; a row whose
    node and velocity are the previous row's objects, as in the steps
    that ``euler_polygon`` repeats, reuses that row's formatted cells."""
    lines = [",".join(_csv_header(traj.dim))]
    velocities = chain(traj.velocities, traj.velocities[-1:])  # last row repeats v^{N-1}
    node = v = None
    cells = ""
    for t, x, u in zip(traj.times, traj.nodes, velocities):
        if x is not node or u is not v:
            node, v = x, u
            cells = ",".join(map(_fmt, chain(x, u)))
        lines.append(f"{_fmt(t)},{cells}")
    return "\n".join(lines) + "\n"


def trajectory_from_csv(text: str) -> Trajectory:
    """The trajectory of a ``trajectory_to_csv`` text: the header
    ``t,x_1..x_n,v_1..v_n`` and at least two rows of finite cells
    (ValueError otherwise, naming the row, and the column of a bad
    cell).  Lines may end in CRLF.  A row whose node and velocity cells
    repeat the text of the row before, and so its bits, repeats that
    row's node and velocity objects, as ``euler_polygon`` does."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    header = lines[0].rstrip("\r").split(",") if lines else []
    n = (len(header) - 1) // 2
    if n < 1 or header != _csv_header(n):
        raise ValueError("not a trajectory CSV (header must be t,x_1..x_n,v_1..v_n)")
    if len(lines) < 3:
        raise ValueError(f"a trajectory CSV needs at least two rows, got {len(lines) - 1}")
    times: list[float] = []
    nodes: list[list[float]] = []
    velocities: list[list[float]] = []
    state = None  # the node and velocity cells of the previous row
    for row, ln in enumerate(lines[1:], 1):
        texts = ln.rstrip("\r").split(",")
        if len(texts) != 1 + 2 * n:
            raise ValueError(f"row {row} has {len(texts)} cells, expected {1 + 2 * n}")
        cells = []
        for name, cell in zip(header, texts):
            try:
                cells.append(float(cell))
            except ValueError:
                raise ValueError(f"row {row}, column {name}: {cell!r} is not a number") from None
            if not math.isfinite(cells[-1]):
                raise ValueError(f"row {row}, column {name}: {cells[-1]!r} is not finite")
        times.append(cells[0])
        if texts[1:] != state:
            state, node, v = texts[1:], cells[1 : 1 + n], cells[1 + n :]
        nodes.append(node)
        velocities.append(v)
    velocities.pop()  # final row repeats the last interval velocity
    return Trajectory(times, nodes, velocities)
