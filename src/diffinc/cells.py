"""Exact cells of piecewise regions, and the first state no region covers.

A region is a conjunction of conditions ``x[var] <op> bound``.  The
finite bounds on one coordinate cut its line into cells: each bound is
a point cell, each gap between neighbouring bounds is an open interval
cell, and so are the two rays beyond the outermost bounds.  A bound
that is not finite cuts nothing.  A condition holds on all of a cell or
on none of it, so a product of cells, one per coordinate, lies inside a
region or outside it as a whole, and one point of it decides every
double in it.  Only cells that hold a double matter.

A coordinate's cells are ordered by its probe values (``axis_probes``),
and each cell is represented by the first probe value inside it: the
bound itself, a gap's ``a/2 + b/2``, a value 1 beyond a bound (the
nearest double where that rounds back to the bound) for a ray, and 0.0
on a coordinate with no bounds.  Products of cells are ordered with the
first coordinate slowest, so the first uncovered cell is the one whose
representative comes first among all probe points.

Comparators are evaluated as the ``operator`` function of their name
(``lt`` is ``<``), the Python comparison that compiled maps apply.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import sys
from typing import Sequence

from .setmap import Condition

Region = Sequence[Condition]

_BIG = sys.float_info.max


def axis_probes(bounds: Sequence[float]) -> list[float]:
    """The probe values of a coordinate whose sorted finite bounds are
    ``bounds``: the bounds, the midpoints ``a/2 + b/2`` of neighbouring
    ones, the values below and above each bound, then 0.0, -1.0 and 1.0;
    the first of equal values.  Every cell holding a double holds one."""
    probes = list(bounds)
    probes.extend(a / 2 + b / 2 for a, b in zip(bounds, bounds[1:]))
    for v in bounds:
        # the nearest doubles, where v -+ 1.0 rounds back to v; at
        # -+DBL_MAX no double lies beyond, and v itself comes back
        probes.extend((min(v - 1.0, math.nextafter(v, -_BIG)),
                       max(v + 1.0, math.nextafter(v, _BIG))))
    probes.extend((0.0, -1.0, 1.0))
    return list(dict.fromkeys(probes))


def axis_cells(bounds: Sequence[float], probes: Sequence[float]) -> list[float]:
    """The representative of each cell of the coordinate, in cell order:
    the first of ``axis_probes(bounds)`` inside it."""
    first: dict[int, float] = {}
    for v in probes:
        i = bisect.bisect_left(bounds, v)
        # cell 2i + 1 is the bound i, cell 2i the gap below it
        first.setdefault(2 * i + (i < len(bounds) and bounds[i] == v), v)
    return list(first.values())


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def first_uncovered(regions: Sequence[Region],
                    axes: Sequence[Sequence[float]]) -> tuple[float, ...] | None:
    """The representative point of the first cell that no region holds,
    or None when the regions cover every cell.

    ``axes[j]`` lists the representatives of coordinate j's cells
    (``axis_cells``), cut by the bounds of every region.  The sweep goes
    coordinate by coordinate with the bitmask of the regions that hold
    on the cells chosen so far.  A cell is covered as soon as one of
    them has no condition on a later coordinate, and uncovered as soon
    as none is left.  Whether the later coordinates are covered depends
    only on the later conditions of the regions left, so a set of them
    found to cover is remembered and not swept again.  The work is at
    most the cells of each coordinate times the distinct sets of later
    conditions that reach it.
    """
    n = len(axes)
    every = (1 << len(regions)) - 1
    fits = [[every] * len(reps) for reps in axes]  # fits[j][k]: the regions holding on cell k
    ends = [0] * n  # ends[j]: the regions whose last condition is on coordinate j
    ordered = []  # each region's conditions by coordinate
    for i, region in enumerate(regions):
        conds = sorted(region, key=lambda c: c.var)
        ordered.append(conds)
        ends[conds[-1].var if conds else 0] |= 1 << i
        for c in conds:
            holds = getattr(operator, c.op)
            row = fits[c.var]
            for k, r in enumerate(axes[c.var]):
                if not holds(r, c.bound):
                    row[k] &= ~(1 << i)
    done = list(itertools.accumulate(ends, operator.or_))  # no condition past j

    covered: set = set()
    stack = [[every, None, 0]]  # per coordinate: regions, key, cell
    while stack:
        j = len(stack) - 1
        frame = stack[-1]
        alive, key, k = frame
        if k == len(axes[j]):
            covered.add(key)
            stack.pop()
            if stack:
                stack[-1][2] += 1
            continue
        now = alive & fits[j][k]
        if not now & done[j]:
            if not now:
                return (*(axes[i][f[2]] for i, f in enumerate(stack)),
                        *(reps[0] for reps in axes[j + 1:]))
            key = (j + 1, frozenset(tuple(c for c in ordered[i] if c.var > j)
                                    for i in _bits(now)))
            if key not in covered:
                stack.append([now, key, 0])
                continue
        frame[2] += 1
    return None


def region_point(region: Region, axes: Sequence[Sequence[float]]) -> tuple[float, ...] | None:
    """The representative point of the first cell inside ``region``, or
    None when the region holds no double."""
    point = []
    for j, reps in enumerate(axes):
        tests = [(getattr(operator, c.op), c.bound) for c in region if c.var == j]
        r = next((r for r in reps if all(holds(r, b) for holds, b in tests)), None)
        if r is None:
            return None
        point.append(r)
    return tuple(point)
