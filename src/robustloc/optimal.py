"""Minimax-optimal facility locations for both objectives.

The average-cost optimum is found by a breakpoint sweep: the max-regret
curve is piecewise linear on the median envelope [L_{k+1}, R_{k+1}] with
kinks only at endpoint values, so it suffices to test every kink plus the
single interior crossing of the two regret components per segment.  The
kinks, their counts and sums, the crossings and the scores are arrays, and
every candidate is scored with the evaluator's elementwise arithmetic, so
the sweep returns the floats a loop over the candidates gives.  The
maximum-cost optimum has the closed form (L_1 + R_1 + L_n + R_n) / 4.  A
step-sweep oracle over [0, B] provides an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Instance, sorted_endpoints
from .regret import (
    Objective,
    RegretEvaluation,
    _AvgCostEvaluator,
    _lattice_steps,
    _max_regret,
    _MaxCostEvaluator,
    maxcost_max_regret,
)

__all__ = [
    "BreakpointState",
    "SolveResult",
    "breakpoint_state",
    "grid_search_minimax",
    "solve_minimax_avgcost",
    "solve_minimax_maxcost",
]


@dataclass(frozen=True)
class SolveResult:
    """Optimal point, its max regret, and the evaluation certifying it."""

    p_opt: float
    omv: float
    certificate: RegretEvaluation


@dataclass(frozen=True, eq=False)
class BreakpointState:
    """Sweep bookkeeping as arrays: the sorted candidate breakpoints ``H``
    with, per breakpoint h, the count/sum of right endpoints >= h among
    sorted positions <= k (x, S1) and of left endpoints <= h among
    positions >= k+2 (y, S2)."""

    H: np.ndarray
    x: np.ndarray
    y: np.ndarray
    S1: np.ndarray
    S2: np.ndarray


def breakpoint_state(instance: Instance) -> BreakpointState:
    """The kinks of the max-regret curve on the median envelope and their sums.

    The envelope [L_{k+1}, R_{k+1}] always contributes both ends; right
    endpoints at sorted positions <= k+1 and left endpoints at positions
    >= k+1 contribute when strictly inside it.
    """
    se = sorted_endpoints(instance)
    k = se.k
    lo, hi = se.L[k], se.R[k]
    inner = np.concatenate((se.R[: k + 1], se.L[k:]))
    inner = np.unique(inner[(lo < inner) & (inner < hi)])
    # The ends bound every inner candidate, so they are placed, not sorted
    # in.
    H = np.concatenate(([lo], inner, [hi])) if lo < hi else np.array([lo])
    j0 = np.searchsorted(se.R[:k], H, side="left")
    h0 = (k + 1) + np.searchsorted(se.L[k + 1 :], H, side="right")
    return BreakpointState(
        H=H,
        x=k - j0,
        y=h0 - (k + 1),
        S1=se.sum_R[k] - se.sum_R[j0],
        S2=se.sum_L[h0] - se.sum_L[k + 1],
    )


def _first_minimum(points: np.ndarray, ev) -> SolveResult:
    """The first of ``points`` of least max regret, certified by ``ev``."""
    values, o1, o2 = _max_regret(ev, points)
    i = int(np.argmin(values))  # the first minimum, as min() keeps it
    cert = RegretEvaluation(
        p=float(points[i]),
        value=float(values[i]),
        obj1=float(o1[i]),
        obj2=float(o2[i]),
    )
    return SolveResult(p_opt=cert.p, omv=cert.value, certificate=cert)


def solve_minimax_avgcost(instance: Instance) -> SolveResult:
    """Minimize average-cost max regret by the breakpoint sweep.

    Tests every breakpoint and, per segment, the point where the falling
    right component crosses the rising left one (accepted only strictly
    inside the segment).  Ties break toward the smaller point.  O(n log n).
    """
    se = sorted_endpoints(instance)
    ev = _AvgCostEvaluator(se)
    state = breakpoint_state(instance)
    H = state.H
    # On the open segment (H[i], H[i+1]) the index sets are frozen: right
    # endpoints >= H[i+1] are the ones still above p, and left endpoints
    # <= H[i] the ones already below.
    a1 = 2.0 * state.S1[1:] + ev.c1 * se.R[se.k]
    b1 = 2.0 * state.x[1:] + ev.c1
    a2 = 2.0 * state.S2[:-1] + ev.c2 * se.L[se.k]
    b2 = 2.0 * state.y[:-1] + ev.c2
    p_cross = (a1 + a2) / (b1 + b2)  # b1 + b2 = 2(x + y + 1) > 0
    inside = (H[:-1] < p_cross) & (p_cross < H[1:])
    # Each crossing lies strictly inside its own segment, so the sort has
    # no ties to order.
    return _first_minimum(np.sort(np.concatenate((H, p_cross[inside]))), ev)


def solve_minimax_maxcost(instance: Instance) -> SolveResult:
    """Closed-form maximum-cost optimum, clamped into [0, B] defensively."""
    se = sorted_endpoints(instance)
    p = float((se.L[0] + se.R[0] + se.L[-1] + se.R[-1]) / 4.0)
    p = min(max(p, 0.0), instance.B)
    cert = maxcost_max_regret(instance, p)
    return SolveResult(p_opt=p, omv=cert.value, certificate=cert)


def grid_search_minimax(
    instance: Instance, objective: Objective, step: float
) -> SolveResult:
    """Sweep [0, B] at pitch ``step`` plus all endpoints; return the argmin.

    Oracle for the solvers: the returned value is within one Lipschitz
    constant (= 1) times ``step`` of the true minimum.  Ties break toward
    the smaller point.  A step that is not positive and finite raises
    ``ValueError``; a sweep of more than ``ORACLE_CAP`` multiples raises
    ``OracleScaleError``.
    """
    se = sorted_endpoints(instance)
    m = _lattice_steps(instance.B, step)
    lattice = np.arange(m + 1) * step
    points = np.unique(np.concatenate((lattice, [instance.B], se.L, se.R)))
    points = points[(0.0 <= points) & (points <= instance.B)]
    if objective is Objective.AVG_COST:
        return _first_minimum(points, _AvgCostEvaluator(se))
    return _first_minimum(points, _MaxCostEvaluator(se))
