"""Location mechanisms behind one uniform interface.

Every kind is an optional grid plus an aggregator.  Each report is first
mapped to a representative: the reported point itself for the exact kinds,
or a grid point for the equispaced kinds (a case analysis on how many grid
points the snapped interval covers; both endpoints are snapped with their
near-ties broken by the report's right end, see ``core._snap_index``).
An aggregator then combines the representatives: the upper median, the
median of the extremes and the phantom point B/2, or a constant that
ignores reports.  With ``delta = 0`` there is no grid: the equispaced kinds
take the exact rule, every report representing itself, and so are exactly
their classical counterparts.

``select_representative`` maps one report to its grid point; the audit,
which varies one report at a time, uses it.  ``run_mechanism`` snaps a
whole profile at once with the same rule in array form, which is tested
against the one-report rule, from the instance's ``lefts`` and ``rights``
arrays, and hands the aggregator the representatives sorted as an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from numbers import Real
from typing import Callable, Sequence

import numpy as np

from .core import (
    Grid,
    Instance,
    Interval,
    _check_domain,
    _snap_index,
    _snap_indices,
    build_grid,
    merged_upper_median,
)

__all__ = [
    "MechanismError",
    "MechanismKind",
    "MechanismOutcome",
    "MechanismSpec",
    "run_mechanism",
    "select_representative",
]


class MechanismError(ValueError):
    """A mechanism was applied to an instance it does not accept."""


class MechanismKind(Enum):
    CONSTANT = "constant"
    EXACT_MEDIAN = "exact-median"
    EXACT_PHANTOM_HALF = "exact-phantom-half"
    EQUISPACED_MEDIAN = "equispaced-median"
    EQUISPACED_PHANTOM_HALF = "equispaced-phantom-half"


_EXACT_KINDS = (MechanismKind.EXACT_MEDIAN, MechanismKind.EXACT_PHANTOM_HALF)
_GRID_KINDS = (MechanismKind.EQUISPACED_MEDIAN, MechanismKind.EQUISPACED_PHANTOM_HALF)
_MEDIAN_KINDS = (MechanismKind.EXACT_MEDIAN, MechanismKind.EQUISPACED_MEDIAN)

#: ``represent(report)`` maps one report to its representative.
Represent = Callable[[Interval], float]
#: ``aggregate(sorted_others, rep)`` is the outcome when a report with
#: representative ``rep`` joins the other reports' sorted representatives.
Aggregate = Callable[[Sequence[float], float], float]


@dataclass(frozen=True)
class MechanismSpec:
    """A mechanism kind with the designer's domain bound and width bound.

    The equispaced kinds require ``delta`` as designer knowledge: their
    guarantees are stated for reports no wider than it.  ``location`` is
    the constant mechanism's fixed output, stored as a float, with -0.0
    read as 0.0 as ``validate_instance`` reads endpoints.  Construction
    checks every option: a ``B`` that is not positive and finite, or a
    ``delta`` outside [0, B], raises ``InvalidInstanceError``; a
    ``location`` on another kind, or a bool or non-number option, raises
    ``MechanismError``.

    ``spacing`` is allowed for the equispaced median only and replaces its
    ``delta/2`` grid pitch.  With ``spacing = delta/2`` the mechanism
    behaves exactly like the equispaced median; finer spacings let a
    report cover more grid points, and the representative rule, the left
    median of the covered points for any count but two, is the same.  Such
    specs are offered as audit targets only: no dominance guarantee is
    claimed for spacings below ``delta/2``.
    """

    kind: MechanismKind
    B: float
    delta: float
    location: float | None = None
    spacing: float | None = None

    def __post_init__(self):
        _check_domain(self.B, self.delta)
        for name in ("location", "spacing"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (Real, type(None))):
                raise MechanismError(f"{name} must be a number, got {value!r}")
        if self.kind is MechanismKind.CONSTANT:
            if self.location is None:
                raise MechanismError("constant mechanism needs a location")
            if not 0 <= self.location <= self.B:
                raise MechanismError(
                    f"constant location {self.location} outside [0, {self.B}]"
                )
            object.__setattr__(self, "location", self.location + 0.0)
        elif self.location is not None:
            raise MechanismError(
                "location applies only to the constant mechanism, "
                f"not {self.kind.value}"
            )
        if self.spacing is not None:
            if self.kind is not MechanismKind.EQUISPACED_MEDIAN:
                raise MechanismError(
                    f"spacing applies only to "
                    f"{MechanismKind.EQUISPACED_MEDIAN.value}, not {self.kind.value}"
                )
            if not 0 < self.spacing < math.inf:
                raise MechanismError(
                    f"spacing must be positive and finite, got {self.spacing}"
                )

    @property
    def name(self) -> str:
        if self.kind is MechanismKind.CONSTANT:
            return f"constant({self.location:g})"
        if self.spacing is not None:
            return f"grid-median(spacing={self.spacing:g})"
        return self.kind.value

    @property
    def exact_only(self) -> bool:
        """Whether the mechanism accepts only exact (single-point) reports.

        True for the exact kinds and for the equispaced kinds at
        ``delta = 0``, which take the exact rule: each report represents
        itself.
        """
        if self.kind is MechanismKind.CONSTANT:
            return False
        return self.kind in _EXACT_KINDS or (self.delta == 0 and self.spacing is None)

    def check(self, instance: Instance) -> None:
        """Raise ``MechanismError`` unless the mechanism accepts the instance."""
        if instance.B != self.B:
            raise MechanismError(
                f"instance bound B={instance.B} differs from mechanism B={self.B}"
            )
        if self.exact_only:
            interval = instance.lefts != instance.rights
            if interval.any():
                raise MechanismError(
                    f"{self.kind.value} accepts only exact reports; "
                    f"agent {int(np.argmax(interval))} sent an interval"
                )
        elif self.kind is not MechanismKind.CONSTANT and instance.delta > self.delta:
            # The guarantee is stated for the designer's width bound, so
            # coarser instances are rejected rather than silently re-gridded.
            raise MechanismError(
                f"instance delta={instance.delta} exceeds mechanism delta={self.delta}"
            )

    def resolve(self) -> tuple[Grid | None, Represent, Aggregate]:
        """The mechanism's grid, representative rule and aggregator.

        Callers resolve once and reuse the rules for every report, so no
        per-report dispatch on ``kind`` is paid.  The constant's rules map
        every report, and every profile, to its location.  The grid comes
        from ``build_grid``: a spacing that is not positive (``delta / 2``
        can round to 0) raises ``ValueError``, and a grid of more than
        ``ORACLE_CAP`` points ``OracleScaleError``.
        """
        kind = self.kind
        if kind is MechanismKind.CONSTANT:
            fixed = partial(_fixed, self.location)
            return None, fixed, fixed
        if self.exact_only:
            grid, represent = None, _exact_point
        else:
            anchor = "zero" if kind is MechanismKind.EQUISPACED_MEDIAN else "half"
            spacing = self.delta / 2.0 if self.spacing is None else self.spacing
            grid = build_grid(self.B, spacing=spacing, anchor=anchor)

            # A closure, not a keyword partial: it runs once per deviation
            # in an audit, and a keyword partial copies its keywords per call.
            def represent(report: Interval) -> float:
                return select_representative(report, grid)

        if kind in _MEDIAN_KINDS:
            return grid, represent, merged_upper_median
        return grid, represent, partial(_phantom_half, self.B / 2.0)


@dataclass(frozen=True)
class MechanismOutcome:
    """The chosen point, plus per-agent representatives for the equispaced kinds.

    ``grid`` is ``None`` where none is built: at ``delta = 0`` and for the
    other kinds.
    """

    p: float
    representatives: tuple[float, ...]
    grid: Grid | None


def select_representative(interval: Interval, grid: Grid) -> float:
    """The grid point standing in for an interval report.

    Snap both endpoints, each near-tie going up exactly when the upper
    point is at or below ``b``, and count the grid points the snapped range
    [x, y] covers.  Two -> x when both x and y lie inside the report
    (``a <= x`` and ``y <= b``, as x < y) or when a + b <= x + y, else y;
    any other count -> the left median of the covered points (x for one,
    the middle point for three, the second of four).  Snapping is monotone
    and a <= b, so every report covers at least one point.  A spacing of
    half the width bound keeps the count at three or below for reports no
    wider than ``delta``, up to the tie band; a report inside the validation
    slack beyond that, or a finer grid, can cover more, and the same rule
    applies.
    """
    a, b = interval.a, interval.b
    ix = _snap_index(a, b, grid)
    iy = _snap_index(b, b, grid)
    pts = grid.points
    if iy - ix == 1:
        x, y = pts[ix], pts[iy]
        if a <= x and y <= b:
            return x
        return x if a + b <= x + y else y
    return pts[(ix + iy) // 2]


def _grid_representatives(
    lefts: np.ndarray, rights: np.ndarray, grid: Grid
) -> np.ndarray:
    """``select_representative`` for a whole profile at once.

    Agent ``i`` reports ``[lefts[i], rights[i]]`` (arrays, or sequences of
    floats).  Both endpoints of every report are snapped by one
    ``searchsorted`` rule, and the two-point and left-median rules pick
    among the covered points with array masks.  Representatives come back
    as a float64 array, in agent order.
    """
    a, b = np.asarray(lefts, dtype=float), np.asarray(rights, dtype=float)
    pts = np.array(grid.points)
    ix = _snap_indices(a, b, pts, grid.spacing)
    iy = _snap_indices(b, b, pts, grid.spacing)
    x, y = pts[ix], pts[iy]
    two_point = np.where(((a <= x) & (y <= b)) | (a + b <= x + y), x, y)
    return np.where(iy - ix == 1, two_point, pts[(ix + iy) // 2])


def _fixed(value: float, *_) -> float:
    return value


def _exact_point(report: Interval) -> float:
    if not report.is_exact:
        raise MechanismError("exact mechanism got an interval report")
    return report.a


def _phantom_half(half: float, sorted_others: Sequence[float], rep: float) -> float:
    """Median of the lowest representative, ``half`` and the highest one."""
    lo = min(sorted_others[0], rep) if len(sorted_others) else rep
    hi = max(sorted_others[-1], rep) if len(sorted_others) else rep
    return sorted((lo, half, hi))[1]


def run_mechanism(spec: MechanismSpec, instance: Instance) -> MechanismOutcome:
    """Apply a mechanism to a profile of reports: check, represent, aggregate.

    On a grid the whole profile is snapped at once, from the instance's
    ``lefts`` and ``rights`` arrays, by the array form of
    ``select_representative``.
    Without one the left endpoints stand in: ``check`` has made every
    report exact for the exact rule, and the constant ignores its reports,
    so no ``Interval`` is built.  The aggregator gets the others'
    representatives as a sorted array.
    The chosen point and the representatives are floats.  Exact kinds and
    the constant report no representatives and no grid.
    """
    spec.check(instance)
    grid, _, aggregate = spec.resolve()
    if grid is None:
        reps = instance.lefts
    else:
        reps = _grid_representatives(instance.lefts, instance.rights, grid)
    # Any one representative can play the report that joins the others.
    p = float(aggregate(np.sort(reps[1:]), reps[0]))
    return MechanismOutcome(
        p=p,
        representatives=tuple(reps.tolist()) if spec.kind in _GRID_KINDS else (),
        grid=grid,
    )
