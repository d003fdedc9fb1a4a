"""Domain model for facility location with interval reports.

Agents report closed intervals on the segment [0, B] instead of exact
points; every report is at most ``delta`` wide.  This module holds the
validated instance model, the sorted endpoint view that every regret
formula consumes, the equispaced grids used by the snapping mechanisms,
and the shared upper-median convention.  An instance stores its left and
right endpoints as two tuples of floats; validation checks them with
numpy masks, and the per-agent ``Interval`` objects are built only when
``agents`` is first read.  Grids exist for ``delta > 0``
only: at ``delta = 0`` every report is a point and represents itself, so
there is no grid to snap to.

All types are immutable and all operations are pure functions, so
everything here can be used concurrently without synchronization.  The
caches, the sorted endpoint view and the ``agents`` tuple, are built on
first use and memoized on their frozen instance; they are immutable too,
so sharing them is safe (two threads racing on the first read at worst
both build equal values).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "Grid",
    "GridMismatchError",
    "Instance",
    "Interval",
    "InvalidInstanceError",
    "SortedEndpoints",
    "build_grid",
    "snap",
    "sorted_endpoints",
    "upper_median",
    "validate_instance",
]

# Relative half-width of the band in which two grid points count as
# equidistant from a point being snapped.  Exact float equality would miss
# ties expressed in decimal (0.15 is not the exact midpoint of float 0.1
# and float 0.2), so near-ties inside this band follow the tie-break rule.
_TIE_BAND = 1e-9


class InvalidInstanceError(ValueError):
    """An interval profile violates the model; ``agent`` names the culprit."""

    def __init__(self, message: str, agent: int | None = None):
        super().__init__(message)
        self.agent = agent


class GridMismatchError(RuntimeError):
    """An interval spans more grid points than its inaccuracy bound allows."""


@dataclass(frozen=True)
class Interval:
    """A closed interval [a, b] of candidate locations for one agent."""

    a: float
    b: float

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def is_exact(self) -> bool:
        return self.a == self.b

    def contains(self, x: float) -> bool:
        return self.a <= x <= self.b


@dataclass(frozen=True)
class Instance:
    """A validated profile of interval reports on [0, B].

    ``delta`` bounds the width of every report; ``delta = 0`` is the exact
    setting where every agent reports a single point.  Agent ``i`` reports
    ``[lefts[i], rights[i]]``; both are tuples of floats, so instances
    compare and hash by value.
    """

    B: float
    delta: float
    lefts: tuple[float, ...]
    rights: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.lefts)

    @cached_property
    def agents(self) -> tuple[Interval, ...]:
        """The reports as intervals, built on first read; not a field, so
        ==, hash and repr ignore it."""
        return tuple(map(Interval, self.lefts, self.rights))

    def replace_agent(self, index: int, interval: Interval) -> "Instance":
        lefts, rights = list(self.lefts), list(self.rights)
        lefts[index], rights[index] = interval.a, interval.b
        return Instance(self.B, self.delta, tuple(lefts), tuple(rights))

    @cached_property
    def _sorted_endpoints(self) -> "SortedEndpoints":
        # The memo behind sorted_endpoints(); not a field, so ==, hash and
        # repr ignore it.  A stable sort keeps equal endpoints (0.0 and
        # -0.0) in agent order, and cumsum adds left to right.
        L = np.sort(np.array(self.lefts), kind="stable")
        R = np.sort(np.array(self.rights), kind="stable")
        k = self.n // 2
        return SortedEndpoints(
            tuple(L.tolist()), tuple(R.tolist()), k, float((L[k] + R[k]) / 2.0),
            _prefix_sums(L), _prefix_sums(R),
        )


def _prefix_sums(values: np.ndarray) -> tuple[float, ...]:
    """Running sums of ``values`` from 0.0, added left to right."""
    return tuple(np.cumsum(np.concatenate(([0.0], values))).tolist())


@dataclass(frozen=True)
class SortedEndpoints:
    """Independently sorted endpoint views of an instance.

    ``L`` and ``R`` are the nondecreasing left and right endpoints (position
    i of L and R need not come from the same agent), ``k = floor(n / 2)``
    and ``M`` is the midpoint of the (k+1)-th smallest endpoints, the pivot
    of the upper-median convention.  ``sum_L[i]`` and ``sum_R[i]`` are the
    running sums of the first i entries of L and R, added left to right.
    """

    L: tuple[float, ...]
    R: tuple[float, ...]
    k: int
    M: float
    sum_L: tuple[float, ...]
    sum_R: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.L)


@dataclass(frozen=True)
class Grid:
    """The finite range of a snapping mechanism.

    Points are generated as ``points[0] + m * spacing`` (never by repeated
    addition) so that equal positions compare equal.
    """

    points: tuple[float, ...]
    anchor: str  # "zero" or "half"
    spacing: float

    @property
    def size(self) -> int:
        return len(self.points)


def _check_domain(B: float, delta: float) -> None:
    """Reject a ``B`` that is not positive and finite or a delta outside [0, B]."""
    if not 0 < B < math.inf:
        raise InvalidInstanceError(
            f"domain bound B must be positive and finite, got {B}"
        )
    if not 0 <= delta <= B:
        raise InvalidInstanceError(f"delta must lie in [0, B], got {delta}")


def validate_instance(
    raw_intervals: Sequence[tuple[float, float]], B: float, delta: float
) -> Instance:
    """Validate raw (a, b) pairs into an Instance, preserving input order.

    Rejects a non-finite ``B``, an empty profile and any interval with a NaN
    endpoint, a > b, a < 0, b > B or width above ``delta``; the error
    message names the offending agent.  Infinite endpoints fail the bounds.

    Pairs of real numbers, a list of them or an (n, 2) array, are checked
    all at once with array masks, and the per-agent checks then run on the
    flagged agents in order, so the first agent they reject is named with
    its own message.  Any other entry (None, a string, a tuple of another
    length) sends the profile through the per-agent checks one by one,
    which raise ``TypeError`` or ``ValueError`` on it rather than convert it.
    """
    _check_domain(B, delta)
    n = len(raw_intervals)
    if n == 0:
        raise InvalidInstanceError("empty agent list")
    # Differences like 0.9 - 0.6 overshoot their decimal value by an ulp, so
    # the bounds are enforced up to representation noise, then pinned back.
    slack = 1e-12 * max(B, 1.0)
    try:
        ends = np.asarray(raw_intervals)
    except ValueError:  # ragged entries
        ends = None
    if ends is None or ends.shape != (n, 2) or ends.dtype.kind not in "biuf":
        for i, (a, b) in enumerate(raw_intervals):
            _check_agent(i, a, b, B, delta, slack)
        ends = np.array([(float(a), float(b)) for a, b in raw_intervals])
    a, b = ends[:, 0].astype(float), ends[:, 1].astype(float)
    # Endpoints may be NaN or infinite here, before they are rejected.
    with np.errstate(invalid="ignore", over="ignore"):
        bad = ~(a <= b) | (a < -slack) | (b > B + slack) | (b - a > delta + slack)
    for i in np.flatnonzero(bad).tolist():
        _check_agent(i, *raw_intervals[i], B, delta, slack)
    # Pinned with comparisons, not np.maximum/np.minimum: a left endpoint of
    # -0.0 is not below 0 and keeps its sign.
    a = np.where(a < 0, 0.0, a)
    b = np.where(b > B, float(B), b)
    return Instance(float(B), float(delta), tuple(a.tolist()), tuple(b.tolist()))


def _check_agent(
    i: int, a: float, b: float, B: float, delta: float, slack: float
) -> None:
    """The per-agent checks; raise ``InvalidInstanceError`` naming agent ``i``."""
    if not a <= b:  # also true when either endpoint is NaN
        if a > b:
            raise InvalidInstanceError(
                f"agent {i}: left endpoint {a} exceeds right endpoint {b}",
                agent=i,
            )
        raise InvalidInstanceError(
            f"agent {i}: NaN endpoint in ({a}, {b})", agent=i
        )
    if a < -slack:
        raise InvalidInstanceError(
            f"agent {i}: left endpoint {a} below 0", agent=i
        )
    if b > B + slack:
        raise InvalidInstanceError(
            f"agent {i}: right endpoint {b} above B={B}", agent=i
        )
    if b - a > delta + slack:
        raise InvalidInstanceError(
            f"agent {i}: interval length {b - a} exceeds delta={delta}", agent=i
        )


def sorted_endpoints(instance: Instance) -> SortedEndpoints:
    """Sort left and right endpoints independently (stable in agent order),
    once: later calls on the same instance return the same view."""
    return instance._sorted_endpoints


def upper_median(values: Sequence[float]) -> float:
    """The (floor(n/2) + 1)-th smallest element; the unique median for odd n."""
    if len(values) == 0:
        raise ValueError("upper_median of an empty sequence")
    return sorted(values)[len(values) // 2]


def build_grid(B: float, delta: float, anchor: str = "zero") -> Grid:
    """Build the spacing-``delta/2`` grid anchored at 0 or at B/2.

    The zero grid is {0, d, 2d, ...} up to the largest multiple of d that
    fits below B; the half grid extends symmetrically from B/2 in steps of
    d in both directions.  ``B`` must be positive and finite and ``delta``
    must lie in (0, B]: at ``delta = 0`` reports are exact and represent
    themselves, so there is no grid.  A ``delta`` whose half rounds to 0
    is refused the same way, and a grid of more than ``ORACLE_CAP`` points
    raises ``OracleScaleError`` before any point is built.
    """
    if anchor not in ("zero", "half"):
        raise ValueError(f"unknown grid anchor {anchor!r}")
    _check_domain(B, delta)
    spacing = delta / 2.0
    if spacing == 0:
        raise ValueError(
            f"delta = {delta} has no grid: exact reports represent themselves"
        )
    return _build_spaced_grid(B, spacing, anchor)


def _build_spaced_grid(B: float, spacing: float, anchor: str) -> Grid:
    # Counted before any point is built.  Imported here because regret
    # imports this module.
    from .regret import _lattice_steps

    _lattice_steps(B, spacing)
    # Tolerant floor: B is often an exact multiple of the spacing in decimal
    # but not in binary, so allow a 1e-9 relative overshoot and pin the last
    # point back onto B when it lands above only through rounding.
    slack = spacing * _TIE_BAND
    if anchor == "zero":
        m_max = int(math.floor(B / spacing + _TIE_BAND))
        pts = [m * spacing for m in range(m_max + 1)]
    else:
        mid = B / 2.0
        m_lo = int(math.floor(mid / spacing + _TIE_BAND))
        m_hi = int(math.floor((B - mid) / spacing + _TIE_BAND))
        pts = [mid + m * spacing for m in range(-m_lo, m_hi + 1)]
    if pts[0] < 0:
        if pts[0] < -slack:
            raise AssertionError("grid extends below 0")
        pts[0] = 0.0
    if pts[-1] > B:
        if pts[-1] > B + slack:
            raise AssertionError("grid extends above B")
        pts[-1] = B
    return Grid(points=tuple(pts), anchor=anchor, spacing=spacing)


def _snap_index(point: float, owning_interval: Interval, grid: Grid) -> int:
    """Index of the grid point nearest to ``point``.

    Points outside the grid clamp to its extremes.  Inside it, bisection
    finds the bracket ``pts[m] <= point < pts[m + 1]``; near-exact ties
    between the two bracketing points (within ``_TIE_BAND`` of the spacing)
    are broken in favour of the one inside the owning interval when exactly
    one of them is, and to the left otherwise.
    """
    pts = grid.points
    if point <= pts[0]:
        return 0
    if point >= pts[-1]:
        return len(pts) - 1
    m = bisect_right(pts, point) - 1
    frac = (point - pts[m]) / grid.spacing
    if abs(frac - 0.5) <= _TIE_BAND:
        left_in = owning_interval.contains(pts[m])
        right_in = owning_interval.contains(pts[m + 1])
        if right_in and not left_in:
            return m + 1
        return m
    return m if frac < 0.5 else m + 1


def _snap_indices(
    points: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    pts: np.ndarray,
    spacing: float,
) -> np.ndarray:
    """``_snap_index`` for many points at once.

    Point ``j`` is owned by the interval ``[lo[j], hi[j]]``; ``pts`` and
    ``spacing`` are the grid's points, as an array, and its spacing.  One
    ``searchsorted`` finds every bracket; the clamp, the tie band and the
    tie-break are those of ``_snap_index``.
    """
    last = len(pts) - 1
    m = np.clip(np.searchsorted(pts, points, side="right") - 1, 0, last)
    m1 = np.minimum(m + 1, last)
    frac = (points - pts[m]) / spacing
    left_in = (lo <= pts[m]) & (pts[m] <= hi)
    right_in = (lo <= pts[m1]) & (pts[m1] <= hi)
    up = np.where(np.abs(frac - 0.5) <= _TIE_BAND, right_in & ~left_in, frac >= 0.5)
    return np.where(points <= pts[0], 0, np.where(points >= pts[-1], last, m + up))


def snap(point: float, owning_interval: Interval, grid: Grid) -> float:
    """Snap ``point`` to the nearest grid point."""
    return grid.points[_snap_index(point, owning_interval, grid)]


def merged_upper_median(sorted_values: Sequence[float], extra: float) -> float:
    """Upper median of ``sorted_values`` with one extra element inserted.

    Equivalent to ``upper_median(list(sorted_values) + [extra])`` without
    re-sorting; used by deviation search where one report varies at a time.
    """
    n = len(sorted_values) + 1
    k = n // 2
    if not sorted_values:
        return extra
    idx = bisect_right(sorted_values, extra)
    if k < idx:
        return sorted_values[k]
    if k == idx:
        return extra
    return sorted_values[k - 1]
