"""Domain model for facility location with interval reports.

Agents report closed intervals on the segment [0, B] instead of exact
points; every report is at most ``delta`` wide.  This module holds the
validated instance model, the sorted endpoint view that every regret
formula consumes, the one builder of the equispaced grids that the
snapping mechanisms use (``build_grid``) with the rule that snaps an
endpoint of a report to its nearest grid point, and the shared
upper-median convention.  Only a report's own endpoints are ever snapped,
so the report's right end ``b`` alone breaks a near-tie: bisection gives
the bracket ``pts[m] <= x < pts[m + 1]`` and a tie rules out
``x == pts[m]``, so the upper point is inside the report, and the lower
one is not, exactly when ``pts[m + 1] <= b``.  An instance stores its
left and right endpoints as two read-only float64 arrays; validation
checks them with numpy masks and hands the checked arrays to the
instance, and the solver, the mechanisms and the CLI read those arrays.
The per-agent ``Interval`` objects are built only when ``agents`` is
first read.  The mechanisms build a grid for ``delta > 0`` only: at
``delta = 0`` every report is a point and represents itself, so there is
no grid to snap to.

All types are immutable and all operations are pure functions, so
everything here can be used concurrently without synchronization.  The
caches, the sorted endpoint view and the ``agents`` tuple, are built on
first use and memoized on their frozen instance; they are immutable too
(their arrays are read-only), so sharing them is safe (two threads racing
on the first read at worst both build equal values).
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
    "Instance",
    "Interval",
    "InvalidInstanceError",
    "SortedEndpoints",
    "build_grid",
    "sorted_endpoints",
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


@dataclass(frozen=True)
class Interval:
    """A closed interval [a, b] of candidate locations for one agent."""

    a: float
    b: float

    @property
    def is_exact(self) -> bool:
        return self.a == self.b


@dataclass(frozen=True, eq=False)
class Instance:
    """A validated profile of interval reports on [0, B].

    ``delta`` bounds the width of every report; ``delta = 0`` is the exact
    setting where every agent reports a single point.  Agent ``i`` reports
    ``[lefts[i], rights[i]]``; both are read-only float64 arrays, copied
    once from whatever sequences the constructor is given, so no caller's
    array is aliased.  Instances compare and hash by value: ``B``,
    ``delta`` and the two arrays bit for bit.  ``validate_instance`` builds
    checked instances, with every endpoint in [0, B] and no -0.0; an
    ``Instance`` built by hand is taken as given.
    """

    B: float
    delta: float
    lefts: np.ndarray
    rights: np.ndarray

    def __post_init__(self):
        for name in ("lefts", "rights"):
            values = np.array(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, _read_only(values))

    def _key(self) -> tuple:
        return self.B, self.delta, self.lefts.tobytes(), self.rights.tobytes()

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        # Copies and unpickled instances go through the constructor too, so
        # their arrays are read-only.
        return Instance, (self.B, self.delta, self.lefts, self.rights)

    @property
    def n(self) -> int:
        return len(self.lefts)

    @cached_property
    def agents(self) -> tuple[Interval, ...]:
        """The reports as intervals of Python floats, built on first read;
        not a field, so ==, hash and repr ignore it."""
        return tuple(map(Interval, self.lefts.tolist(), self.rights.tolist()))

    def replace_agent(self, index: int, interval: Interval) -> "Instance":
        lefts, rights = self.lefts.copy(), self.rights.copy()
        lefts[index], rights[index] = interval.a, interval.b
        return Instance(self.B, self.delta, lefts, rights)

    @cached_property
    def _sorted_endpoints(self) -> "SortedEndpoints":
        # The memo behind sorted_endpoints(); not a field, so ==, hash and
        # repr ignore it.
        L, R = _read_only(np.sort(self.lefts)), _read_only(np.sort(self.rights))
        return SortedEndpoints(L, R, self.n // 2, _prefix_sums(L), _prefix_sums(R))


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    """Running sums of ``values`` from 0.0, added left to right."""
    return _read_only(np.cumsum(np.concatenate(([0.0], values))))


@dataclass(frozen=True, eq=False)
class SortedEndpoints:
    """Independently sorted endpoint views of an instance.

    ``L`` and ``R`` are the nondecreasing left and right endpoints (position
    i of L and R need not come from the same agent) and ``k = floor(n / 2)``
    indexes the (k+1)-th smallest endpoints, the pivot of the upper-median
    convention.  ``sum_L[i]`` and ``sum_R[i]`` are the running sums of the
    first i entries of L and R, added left to right.  All four are
    read-only float64 arrays; views compare by identity.
    """

    L: np.ndarray
    R: np.ndarray
    k: int
    sum_L: np.ndarray
    sum_R: np.ndarray

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

    Rejects a non-finite ``B``, an empty profile, a ``B`` so large that
    ``(2n + 4) * B`` overflows, and any interval with a NaN endpoint, a > b,
    a < 0, b > B or width above ``delta``; the error message names the
    offending agent.  Infinite endpoints fail the bounds.  Accepted
    endpoints are stored as floats pinned into [0, B], so an endpoint
    inside the slack beyond an edge becomes that edge, and -0.0 becomes
    0.0: equal endpoints are equal bit for bit.

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
    # The largest sums the closed forms build are the sweep's crossing
    # numerator (up to 2nB), the max-cost optimum's four endpoints (4B) and
    # the snapping rule's a + b (2B); refused here, they cannot overflow.
    if not math.isfinite((2 * n + 4) * B):
        raise InvalidInstanceError(
            f"B={B} is too large for n={n}: (2n + 4) * B overflows a float"
        )
    # Differences like 0.9 - 0.6 overshoot their decimal value by an ulp, so
    # the bounds are enforced up to representation noise, then pinned back.
    # The noise of a difference of two numbers in [0, B] is an ulp or two of
    # B, so the slack is a few ulps of B, and never below 1e-12; it does not
    # grow in proportion to B.
    slack = max(1e-12, 4 * math.ulp(B))
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
    # Both endpoints are pinned into [0, B], so an end inside the slack
    # beyond the domain cannot leave a > b; adding 0.0 turns -0.0 into 0.0.
    a, b = np.clip(a, 0.0, float(B)) + 0.0, np.clip(b, 0.0, float(B)) + 0.0
    return Instance(float(B), float(delta), a, b)


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
    """Sort left and right endpoints independently, once: later calls on
    the same instance return the same view."""
    return instance._sorted_endpoints


def build_grid(B: float, *, spacing: float, anchor: str) -> Grid:
    """Build the grid of pitch ``spacing`` anchored at 0 or at B/2.

    The zero grid is {0, s, 2s, ...} up to the largest multiple of s that
    fits below B; the half grid extends symmetrically from B/2 in steps of
    s in both directions.  The equispaced mechanisms use ``spacing =
    delta / 2``; the grid-median attack target passes a finer one.  ``B``
    must be positive and finite (``InvalidInstanceError``).  A ``spacing``
    that is not positive and finite raises ``ValueError``, and a grid of
    more than ``ORACLE_CAP`` points ``OracleScaleError``, both before any
    point is built.  Both options are keyword-only, so a width bound cannot
    be passed where the spacing, half of it, belongs.
    """
    # Imported here because regret imports this module.
    from .regret import _lattice_steps

    if anchor not in ("zero", "half"):
        raise ValueError(f"unknown grid anchor {anchor!r}")
    _check_domain(B, 0.0)  # B alone: a spacing is not a width bound
    # Counted before any point is built; the whole-domain count is the size
    # check for both anchors.  The counts are tolerant floors: B is often an
    # exact multiple of the spacing in decimal but not in binary, so they
    # allow a 1e-9 relative overshoot, and the last point is pinned back
    # onto B when it lands above only through rounding.
    m_max = _lattice_steps(B, spacing)
    slack = spacing * _TIE_BAND
    if anchor == "zero":
        pts = [m * spacing for m in range(m_max + 1)]
    else:
        mid = B / 2.0
        m_lo, m_hi = _lattice_steps(mid, spacing), _lattice_steps(B - mid, spacing)
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


def _snap_index(point: float, b: float, grid: Grid) -> int:
    """Index of the grid point nearest to ``point``, an endpoint of a
    report whose right end is ``b``.

    Points outside the grid clamp to its extremes.  Inside it, bisection
    finds the bracket ``pts[m] <= point < pts[m + 1]``; near-exact ties
    between the two bracketing points (within ``_TIE_BAND`` of the spacing)
    go to the upper point when it lies inside the report, that is when
    ``pts[m + 1] <= b``, and to the lower one otherwise.  A tie rules out
    ``point == pts[m]``, so the lower point is never inside the report when
    ``point`` is its left end, and the upper point never is when ``point``
    is its right end: the upper point is inside exactly when it is the
    only one of the two that is.
    """
    pts = grid.points
    if point <= pts[0]:
        return 0
    if point >= pts[-1]:
        return len(pts) - 1
    m = bisect_right(pts, point) - 1
    frac = (point - pts[m]) / grid.spacing
    if abs(frac - 0.5) <= _TIE_BAND:
        return m + 1 if pts[m + 1] <= b else m
    return m if frac < 0.5 else m + 1


def _snap_indices(
    points: np.ndarray, b: np.ndarray, pts: np.ndarray, spacing: float
) -> np.ndarray:
    """``_snap_index`` for many points at once.

    Point ``j`` is an endpoint of a report whose right end is ``b[j]``;
    ``pts`` and ``spacing`` are the grid's points, as an array, and its
    spacing.  One ``searchsorted`` finds every bracket; the clamp, the tie
    band and the tie-break are those of ``_snap_index``.
    """
    last = len(pts) - 1
    m = np.clip(np.searchsorted(pts, points, side="right") - 1, 0, last)
    frac = (points - pts[m]) / spacing
    up_in = pts[np.minimum(m + 1, last)] <= b
    up = np.where(np.abs(frac - 0.5) <= _TIE_BAND, up_in, frac >= 0.5)
    return np.where(points <= pts[0], 0, np.where(points >= pts[-1], last, m + up))


def merged_upper_median(sorted_values: Sequence[float], extra: float) -> float:
    """Upper median of ``sorted_values`` with one extra element inserted.

    That is the (floor(n/2) + 1)-th smallest of the n values, without
    re-sorting; used by deviation search where one report varies at a time,
    and by ``run_mechanism`` on a sorted array.
    """
    n = len(sorted_values) + 1
    k = n // 2
    if len(sorted_values) == 0:  # not `not sorted_values`: arrays are accepted
        return extra
    idx = bisect_right(sorted_values, extra)
    if k < idx:
        return sorted_values[k]
    if k == idx:
        return extra
    return sorted_values[k - 1]
