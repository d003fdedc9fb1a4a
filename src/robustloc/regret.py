"""Max-regret evaluators for the average-cost and maximum-cost objectives.

For a point p and an instance of interval reports, the maximum regret of p
is the worst, over all realizations of true locations consistent with the
reports, of the objective value at p minus the best achievable objective
value for that realization.  Both objectives admit closed forms built from
the sorted endpoint views:

* average cost splits into a component driven by realizations whose upper
  median lies right of p (``obj1``, fed by right endpoints) and one driven
  by realizations whose upper median lies left of p (``obj2``, fed by left
  endpoints), each clamped at zero;
* maximum cost reduces to ``(R_1 + R_n)/2 - p`` against ``p - (L_1 + L_n)/2``.

A brute-force oracle that enumerates discretized realizations and
recomputes regret from first principles is included for cross-validation;
it never sees the closed formulas.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import Instance, Interval, SortedEndpoints, sorted_endpoints

__all__ = [
    "ORACLE_CAP",
    "Objective",
    "OracleScaleError",
    "RegretEvaluation",
    "agent_max_regret",
    "avgcost_max_regret",
    "brute_force_max_regret",
    "brute_force_max_regret_batch",
    "maxcost_max_regret",
    "regret_of",
]

# Refuse brute-force enumerations beyond this many realization vectors, and
# any step lattice beyond this many points, rather than silently subsampling.
ORACLE_CAP = 10_000_000

_CHUNK_ROWS = 1 << 18


class Objective(Enum):
    AVG_COST = "avg"
    MAX_COST = "max"


class OracleScaleError(RuntimeError):
    """An oracle enumeration or step lattice would exceed the configured cap."""


@dataclass(frozen=True)
class RegretEvaluation:
    """Max regret at ``p`` split into its right-side and left-side parts."""

    p: float
    value: float
    obj1: float
    obj2: float


def regret_of(
    instance: Instance,
    realization: Sequence[float],
    p: float,
    objective: Objective,
) -> float:
    """Regret of p against one realization, from first principles.

    Average cost compares the mean distance at p with the mean distance at
    the realization's own median (any median attains the minimum); maximum
    cost compares the farthest distance at p with half the realization's
    range.
    """
    values = tuple(sorted(realization))
    if len(values) != instance.n:
        raise ValueError(
            f"realization has {len(values)} entries for {instance.n} agents"
        )
    if objective is Objective.AVG_COST:
        med = values[len(values) // 2]
        cost_p = sum(abs(v - p) for v in values)
        cost_opt = sum(abs(v - med) for v in values)
        return max(0.0, (cost_p - cost_opt) / len(values))
    cost_p = max(abs(v - p) for v in values)
    cost_opt = (values[-1] - values[0]) / 2.0
    return max(0.0, cost_p - cost_opt)


class _AvgCostEvaluator:
    """Closed-form average-cost max regret with O(log n) point queries.

    obj1(p) = (1/n) (2 sum_{i=j..k} (R_i - p) + (n - 2k)(R_{k+1} - p)) with
    j the smallest index <= k such that R_j > p, and obj2(p) mirrored on
    the left endpoints with coefficient 2(k+1) - n.  The coefficients agree
    (= 1) for odd n; for even n they differ because the upper-median
    convention is asymmetric, and both are validated against the
    brute-force oracle.  Partial sums come from the view's prefix sums.
    """

    def __init__(self, se: SortedEndpoints):
        self.se, self.n, self.k = se, se.n, se.k
        self.c1 = se.n - 2 * se.k
        self.c2 = 2 * (se.k + 1) - se.n

    def components(self, p: float) -> tuple[float, float]:
        se, n, k = self.se, self.n, self.k
        j0 = bisect_right(se.R, p, 0, k)
        x = k - j0
        s1 = se.sum_R[k] - se.sum_R[j0]
        term1 = 2.0 * (s1 - x * p) + self.c1 * (se.R[k] - p)
        h0 = bisect_left(se.L, p, k + 1, n)
        y = h0 - (k + 1)
        s2 = se.sum_L[h0] - se.sum_L[k + 1]
        term2 = 2.0 * (y * p - s2) + self.c2 * (p - se.L[k])
        return max(0.0, term1 / n), max(0.0, term2 / n)

    def value(self, p: float) -> float:
        o1, o2 = self.components(p)
        return max(o1, o2)


class _MaxCostEvaluator:
    """Maximum-cost max regret: (R_1 + R_n)/2 - p against p - (L_1 + L_n)/2."""

    def __init__(self, se: SortedEndpoints):
        self.right = (se.R[0] + se.R[-1]) / 2.0
        self.left = (se.L[0] + se.L[-1]) / 2.0

    def components(self, p: float) -> tuple[float, float]:
        return max(0.0, self.right - p), max(0.0, p - self.left)

    def value(self, p: float) -> float:
        return max(0.0, self.right - p, p - self.left)


def _evaluate(ev, p: float) -> RegretEvaluation:
    """Max regret of p under either evaluator, with both components."""
    o1, o2 = ev.components(p)
    return RegretEvaluation(p=p, value=max(o1, o2), obj1=o1, obj2=o2)


def avgcost_max_regret(instance: Instance, p: float) -> RegretEvaluation:
    """Closed-form max regret of p for the average-cost objective."""
    return _evaluate(_AvgCostEvaluator(sorted_endpoints(instance)), p)


def maxcost_max_regret(instance: Instance, p: float) -> RegretEvaluation:
    """Closed-form max regret of p for the maximum-cost objective."""
    return _evaluate(_MaxCostEvaluator(sorted_endpoints(instance)), p)


def _lattice_steps(width: float, step: float) -> int:
    """Whole steps of ``step`` in ``width``, up to a 1e-9 relative allowance.

    The one check of every step lattice, made from the width before any
    point is built: a step that is not positive and finite raises
    ``ValueError``, and a lattice of more than ``ORACLE_CAP`` multiples
    (read at call time) raises :class:`OracleScaleError`.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"lattice step must be positive and finite, got {step}")
    q = width / step + 1e-9
    if q >= ORACLE_CAP:
        raise OracleScaleError(
            f"oracle scale exceeded: a step-{step} lattice over width {width} "
            f"has more than {ORACLE_CAP} points"
        )
    return int(math.floor(q))


def _check_report_count(n: int, reports: Callable[[], float], what: str) -> None:
    """Refuse a family of more than ``ORACLE_CAP`` reports before any is built.

    ``what`` names the family of ``n`` agents and ``reports()`` counts its
    reports.  ``n`` is compared alone first, so ``reports()`` runs only for
    an ``n`` within the cap: an int beyond float range never enters a float
    product.  Raises :class:`OracleScaleError`.
    """
    if n > ORACLE_CAP or reports() > ORACLE_CAP:
        raise OracleScaleError(
            f"oracle scale exceeded: {what} holds more than {ORACLE_CAP} reports"
        )


def _lattice_size(interval: Interval, step: float) -> int:
    """Length of ``_interval_lattice(interval, step)``, counted, not built."""
    a, b = interval.a, interval.b
    m = _lattice_steps(max(b - a, 0.0), step)
    if b <= a:
        return 1
    return m + 1 + int(b - (a + step * m) > step * 1e-9)


def _interval_lattice(interval: Interval, step: float) -> np.ndarray:
    """Discretize [a, b] at pitch ``step`` with both endpoints included.

    The last multiple of ``step`` is pinned onto b when it lands within
    ``step * 1e-9`` of it (or beyond), so no point leaves the interval.
    """
    size = _lattice_size(interval, step)
    a, b = interval.a, interval.b
    if b <= a:
        return np.array([a])
    pts = a + step * np.arange(size)
    pts[-1] = b
    return pts


def brute_force_max_regret_batch(
    instance: Instance,
    ps: Sequence[float],
    objective: Objective,
    step: float,
) -> list[float]:
    """Enumerate discretized realizations once and evaluate several p.

    The product lattice is walked in fixed mixed-radix order, so results
    are deterministic; realizations are processed in chunks to bound
    memory.  Raises :class:`OracleScaleError` when the enumeration would
    exceed ``ORACLE_CAP`` vectors (read at call time).
    """
    sizes = [_lattice_size(iv, step) for iv in instance.agents]
    total = math.prod(sizes)
    if total > ORACLE_CAP:
        raise OracleScaleError(
            f"oracle scale exceeded: {total} realization vectors > cap {ORACLE_CAP}"
        )
    lattices = [_interval_lattice(iv, step) for iv in instance.agents]
    n = instance.n
    m = n // 2
    p_arr = np.asarray(ps, dtype=float)
    best = np.full(len(p_arr), -math.inf)

    strides = [1] * n
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]

    for start in range(0, total, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, total)
        idx = np.arange(start, stop)
        mat = np.empty((stop - start, n))
        for col in range(n):
            mat[:, col] = lattices[col][(idx // strides[col]) % sizes[col]]
        srt = np.sort(mat, axis=1)
        if objective is Objective.AVG_COST:
            # min_q sum |v - q| = (sum of upper half) - (sum of lower half)
            opt = srt[:, n - m :].sum(axis=1) - srt[:, :m].sum(axis=1)
            for pi, p in enumerate(p_arr):
                cost = np.abs(mat - p).sum(axis=1)
                best[pi] = max(best[pi], float((cost - opt).max()) / n)
        else:
            opt = (srt[:, -1] - srt[:, 0]) / 2.0
            for pi, p in enumerate(p_arr):
                cost = np.abs(mat - p).max(axis=1)
                best[pi] = max(best[pi], float((cost - opt).max()))
    return [max(0.0, v) for v in best]


def brute_force_max_regret(
    instance: Instance,
    p: float,
    objective: Objective,
    step: float,
) -> float:
    """Max regret of p by enumeration over discretized realizations."""
    return brute_force_max_regret_batch(instance, [p], objective, step)[0]


def agent_max_regret(
    outcome: float,
    best_responses: Mapping[float, float],
    interval: Interval,
    endpoint_shortcut: bool = True,
    sample_step: float | None = None,
) -> float:
    """Worst-case regret of one agent for an outcome, given her interval.

    With the endpoint shortcut (valid whenever exact reports are very
    weakly dominant in the mechanism), only the interval endpoints matter:
    ``best_responses`` must map each endpoint to the outcome the mechanism
    yields when the agent reports it exactly.  Without it, true locations
    are sampled at ``sample_step`` inside the interval and the inner best
    response is taken over every outcome in ``best_responses``.
    """
    if endpoint_shortcut:
        try:
            p_a = best_responses[interval.a]
            p_b = best_responses[interval.b]
        except KeyError as exc:
            raise ValueError(
                f"missing endpoint response for report at {exc.args[0]}"
            ) from exc
        return max(
            0.0,
            abs(interval.a - outcome) - abs(interval.a - p_a),
            abs(interval.b - outcome) - abs(interval.b - p_b),
        )
    if sample_step is None or sample_step <= 0:
        raise ValueError("grid fallback requires a positive sample_step")
    if not best_responses:
        raise ValueError("grid fallback requires a non-empty response map")
    outs = np.fromiter(best_responses.values(), dtype=float)
    locs = _interval_lattice(interval, sample_step)
    inner = np.abs(locs[:, None] - outs[None, :]).min(axis=1)
    return max(0.0, float((np.abs(locs - outcome) - inner).max()))
