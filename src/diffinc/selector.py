"""Velocity selection under the componentwise sign constraint.

At each polygon step the new velocity w must satisfy, coordinate by
coordinate, ``s_j * (w_j - prev_v_j) >= 0`` where ``s_j`` is the sign
of the previous velocity ``prev_v_j``.  That is the sign of the previous
displacement ``h * prev_v_j`` in exact arithmetic, but not in floats
where ``x_j + h * prev_v_j`` rounds back to ``x_j``: there the node
does not move, yet ``s_j`` is still the velocity's sign.  For
box-union images that feasible set is again a box union (each
coordinate interval is clipped by a half-line at ``prev_v_j``), so
feasibility and the selection itself are exact interval operations
with no tolerance.

One core works on (lo, hi) pairs: ``_clip`` cuts them by the sign
constraint and ``_pick`` takes the policy's point.  The public
functions run it on a ``CompactSet``; the solver's step loop runs it on
the pairs a map's ``_eval`` returns, with a plain sign tuple; and the
analyzer's hardest-corner test runs it the same way and takes from it
which y-boxes the cut empties, and at which coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .setmap import (CompactSet, Vector, _image, as_vector, checked_vector, distance,
                     finite_vector)


@dataclass(frozen=True)
class SignPattern:
    """Componentwise signs of the previous velocity (exact zero test).

    The displacement over one mesh interval is h times that velocity,
    so these are its signs in exact arithmetic; in floats a coordinate
    whose step ``h * v_j`` is absorbed by ``x_j`` has displacement 0
    while its sign here is that of ``v_j``.
    """

    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        signs = tuple(int(s) for s in self.signs)
        object.__setattr__(self, "signs", signs)
        if not signs:
            raise ValueError("sign pattern needs at least one coordinate")
        if any(s not in (-1, 0, 1) for s in signs):
            raise ValueError("sign entries must be -1, 0 or +1")

    @classmethod
    def of_vector(cls, v: Sequence[float]) -> "SignPattern":
        return cls(tuple((x > 0) - (x < 0) for x in v))

    def __len__(self) -> int:
        return len(self.signs)

    def __iter__(self):
        return iter(self.signs)


_POLICY_VARIANTS = ("project", "lex_min", "lex_max")


@dataclass(frozen=True)
class SelectionPolicy:
    """How to pick one point from the feasible region.

    ``project`` (default) clamps the previous velocity into the feasible
    region, minimising velocity chatter; ``lex_min`` / ``lex_max`` take
    the lexicographic extreme vertex, which reproduces branch-following
    behaviour on multi-branch images.
    """

    variant: str = "project"

    def __post_init__(self) -> None:
        if self.variant not in _POLICY_VARIANTS:
            raise ValueError(
                f"unknown policy {self.variant!r}; choose from {_POLICY_VARIANTS}"
            )


class WcmInfeasible(RuntimeError):
    """No image point satisfies the sign constraint.

    Signals that the componentwise monotone selection condition fails
    along the trajectory; carries the offending state (when known), the
    previous velocity and the sign pattern as a re-checkable
    certificate.
    """

    def __init__(self, prev_v: Vector, signs: SignPattern, image: CompactSet,
                 state: Vector | None = None, step: int | None = None,
                 time: float | None = None, level: int | None = None):
        self.prev_v = prev_v
        self.signs = signs
        self.image = image
        self.state = state
        self.step = step
        self.time = time
        self.level = level
        super().__init__(self._message())

    def _message(self) -> str:
        where = ""
        if self.step is not None:
            where = f" at step {self.step} (t = {self.time})"
        if self.state is not None:
            where += f", state {self.state}"
        return (
            f"no feasible velocity{where}: previous velocity {self.prev_v}, "
            f"sign pattern {self.signs.signs}"
        )

    def to_json_dict(self) -> dict:
        out = {
            "prev_velocity": list(self.prev_v),
            "sign_pattern": list(self.signs.signs),
            "image": [[list(b.lo), list(b.hi)] for b in self.image.boxes],
        }
        if self.state is not None:
            out["state"] = list(self.state)
        if self.step is not None:
            out["step"] = self.step
            out["time"] = self.time
        if self.level is not None:
            out["level"] = self.level
        return out


def _clip(pairs: Sequence[tuple[Vector, Vector]], prev_v: Vector,
          signs: Sequence[int], first: bool = False
          ) -> tuple[list[tuple[Vector, Vector]], list[tuple[int, int]]]:
    """The (lo, hi) pairs cut by the sign constraint, empty boxes dropped,
    and for each dropped box (its index, the first coordinate whose cut
    emptied it).  With ``first`` the cut stops at the first box that
    survives it, so only an empty result has cut every box.

    Where ``s_j > 0`` the lower bound becomes ``max(lo_j, prev_v_j)``,
    where ``s_j < 0`` the upper bound becomes ``min(hi_j, prev_v_j)``.
    Each bound is a box corner or the prev_v coordinate that replaced it
    because it is strictly tighter (a corner equal to it, a zero of
    either sign included, is kept, as ``max`` and ``min`` keep their
    first argument on a tie), so a kept box is finite with lo <= hi.  A
    corner tuple is rebuilt only where a bound replaces one of its
    coordinates, and a pair that no cut changes comes back as the very
    pair that came in.
    """
    cuts = [(j, s, prev_v[j]) for j, s in enumerate(signs) if s]
    kept = []
    dropped = []
    for k, pair in enumerate(pairs):
        lo, hi = pair
        cut = False
        for j, s, bound in cuts:
            if s > 0:
                if bound > lo[j]:
                    if bound > hi[j]:
                        dropped.append((k, j))
                        break
                    lo = lo[:j] + (bound,) + lo[j + 1:]
                    cut = True
            elif bound < hi[j]:
                if bound < lo[j]:
                    dropped.append((k, j))
                    break
                hi = hi[:j] + (bound,) + hi[j + 1:]
                cut = True
        else:
            kept.append((lo, hi) if cut else pair)
            if first:
                break
    return kept, dropped


def _pick(pairs: Sequence[tuple[Vector, Vector]], target: Vector,
          variant: str) -> Vector:
    """The point a policy variant takes from a nonempty box union.

    ``project`` clamps target into each box, and the nearest clamped
    point wins; on a tie the first box wins.  Clamping is exact (each
    coordinate is a box corner or the target's own coordinate), and so
    is the tie-break.  The ranking distance is the rounded
    ``math.hypot`` of the clamped offsets, so two candidates whose true
    distances differ by less than its rounding can rank either way (or
    tie, and fall to the box order).  ``lex_min`` / ``lex_max`` take the
    lexicographically least lower / greatest upper corner.
    """
    if variant == "project":
        best = best_d = None
        for lo, hi in pairs:
            p = tuple([min(max(c, a), b) for a, b, c in zip(lo, hi, target)])
            d = math.hypot(*[a - b for a, b in zip(p, target)])
            if best is None or d < best_d:
                best, best_d = p, d
        assert best is not None
        return best
    if variant == "lex_min":
        return min(lo for lo, _ in pairs)
    return max(hi for _, hi in pairs)


def feasible_region(image: CompactSet, prev_v: Sequence[float],
                    signs: SignPattern) -> CompactSet | None:
    """Image points satisfying the sign constraint, or None if empty.

    A cut bound that replaces a corner is ``prev_v_j`` itself, bit for
    bit, so a ``-0.0`` stays ``-0.0``.  Emptiness is a verdict, not an
    error; callers that need a velocity raise WcmInfeasible.
    """
    prev_v = as_vector(prev_v)
    if len(prev_v) != image.dim or len(signs) != image.dim:
        raise ValueError(
            f"dimension mismatch: image {image.dim}, prev_v {len(prev_v)}, "
            f"signs {len(signs)}"
        )
    kept, _ = _clip(image._pairs(), prev_v, signs.signs)
    return _image(kept) if kept else None


def select_velocity(image: CompactSet, prev_v: Sequence[float],
                    signs: SignPattern,
                    policy: SelectionPolicy = SelectionPolicy()) -> Vector:
    """Pick the next velocity from the constrained image; deterministic."""
    prev_v = as_vector(prev_v)
    region = feasible_region(image, prev_v, signs)
    if region is None:
        raise WcmInfeasible(prev_v, signs, image)
    return _pick(region._pairs(), prev_v, policy.variant)


def initial_velocity(image: CompactSet,
                     policy: SelectionPolicy = SelectionPolicy(),
                     override: Sequence[float] | None = None) -> Vector:
    """First velocity: policy-chosen from the image, or a validated override."""
    if override is not None:
        v = checked_vector(finite_vector(override, "v0 (initial velocity override)"),
                           image.dim, "initial velocity", "image")
        if not image.contains(v):
            raise ValueError(
                f"initial velocity {v} is not in the image (distance {distance(image, v)!r})"
            )
        return v
    return _pick(image._pairs(), (0.0,) * image.dim, policy.variant)
