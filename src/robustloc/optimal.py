"""Minimax-optimal facility locations for both objectives.

The average-cost optimum is found by a breakpoint sweep: the max-regret
curve is piecewise linear on the median envelope [L_{k+1}, R_{k+1}] with
kinks only at endpoint values, so it suffices to test every kink plus the
single interior crossing of the two regret components per segment.  The
maximum-cost optimum has the closed form (L_1 + R_1 + L_n + R_n) / 4.  A
step-sweep oracle over [0, B] provides an independent cross-check.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .core import Instance, SortedEndpoints, sorted_endpoints
from .regret import (
    Objective,
    RegretEvaluation,
    _AvgCostEvaluator,
    _evaluate,
    _lattice_steps,
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


@dataclass(frozen=True)
class BreakpointState:
    """Sweep bookkeeping: sorted candidate breakpoints with, per breakpoint
    h, the count/sum of right endpoints >= h among sorted positions <= k
    (x, S1) and of left endpoints <= h among positions >= k+2 (y, S2)."""

    H: tuple[float, ...]
    x: tuple[int, ...]
    y: tuple[int, ...]
    S1: tuple[float, ...]
    S2: tuple[float, ...]


def _candidates(se: SortedEndpoints) -> list[float]:
    lo, hi = se.L[se.k], se.R[se.k]
    cands = {lo, hi}
    for i in range(0, se.k + 1):
        if lo < se.R[i] < hi:
            cands.add(se.R[i])
    for j in range(se.k, se.n):
        if lo < se.L[j] < hi:
            cands.add(se.L[j])
    return sorted(cands)


def breakpoint_state(instance: Instance) -> BreakpointState:
    se = sorted_endpoints(instance)
    H = _candidates(se)
    k, n = se.k, se.n
    xs, ys, s1s, s2s = [], [], [], []
    for h in H:
        j0 = bisect_left(se.R, h, 0, k)
        xs.append(k - j0)
        s1s.append(se.sum_R[k] - se.sum_R[j0])
        h0 = bisect_right(se.L, h, k + 1, n)
        ys.append(h0 - (k + 1))
        s2s.append(se.sum_L[h0] - se.sum_L[k + 1])
    return BreakpointState(
        H=tuple(H), x=tuple(xs), y=tuple(ys), S1=tuple(s1s), S2=tuple(s2s)
    )


def _first_minimum(points, ev) -> SolveResult:
    """The first of ``points`` of least max regret, certified by ``ev``."""
    cert = _evaluate(ev, min(points, key=ev.value))
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
    candidates = list(H)
    c1, c2 = ev.c1, ev.c2
    for i in range(len(H) - 1):
        # On the open segment (H[i], H[i+1]) the index sets are frozen:
        # right endpoints >= H[i+1] are the ones still above p, and left
        # endpoints <= H[i] the ones already below.
        x, s1 = state.x[i + 1], state.S1[i + 1]
        y, s2 = state.y[i], state.S2[i]
        a1 = 2.0 * s1 + c1 * se.R[se.k]
        b1 = 2.0 * x + c1
        a2 = 2.0 * s2 + c2 * se.L[se.k]
        b2 = 2.0 * y + c2
        denom = b1 + b2  # = 2(x + y + 1) > 0
        p_cross = (a1 + a2) / denom
        if H[i] < p_cross < H[i + 1]:
            candidates.append(p_cross)
    return _first_minimum(sorted(candidates), ev)


def solve_minimax_maxcost(instance: Instance) -> SolveResult:
    """Closed-form maximum-cost optimum, clamped into [0, B] defensively."""
    se = sorted_endpoints(instance)
    p = (se.L[0] + se.R[0] + se.L[-1] + se.R[-1]) / 4.0
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
    points = set(float(v) for v in np.arange(m + 1) * step)
    points.add(instance.B)
    points.update(se.L)
    points.update(se.R)
    in_domain = sorted(p for p in points if 0.0 <= p <= instance.B)
    if objective is Objective.AVG_COST:
        return _first_minimum(in_domain, _AvgCostEvaluator(se))
    return _first_minimum(in_domain, _MaxCostEvaluator(se))
