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
it never sees the closed formulas.  The realizations are the Cartesian
product of per-agent step lattices, so the oracle never builds them as
rows: it covers the product with blocks, gives each agent a table along its
own broadcast axis, and combines per-agent tables (values, order
statistics, distances to p) by broadcasting.  Sums add their terms in the
order numpy sums one row of a realization matrix, so every realization's
regret is the same float the row-by-row computation gives.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

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


def _row_sum(terms: Sequence) -> float | np.ndarray:
    """Add ``terms`` in the order ``np.sum(axis=1)`` adds one row of them.

    Terms are floats or broadcastable tables.  Below 8 terms that order is a
    left fold; up to 128 it is eight lanes of every eighth term, combined
    as ((0+1)+(2+3))+((4+5)+(6+7)), then a left-folded tail; beyond 128 the
    terms are split at the largest multiple of 8 not above half and the
    halves are added.  numpy starts each row from 0.0, which changes only
    the sign of a zero sum; an empty row sums to 0.0.
    """
    n = len(terms)
    if n == 0:
        return 0.0
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _row_sum(terms[:half]) + _row_sum(terms[half:])
    if n < 8:
        total, tail = terms[0], terms[1:]
    else:
        cut = n - n % 8
        lanes = list(terms[:8])
        for i in range(8, cut, 8):
            lanes = [lane + t for lane, t in zip(lanes, terms[i : i + 8])]
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
        )
        tail = terms[cut:]
    for t in tail:
        total = total + t
    return total


def _product_blocks(lattices: Sequence[np.ndarray]):
    """Cover the product of ``lattices`` with blocks of at most ``_CHUNK_ROWS``.

    Each block is one list with an entry per agent: a float for an agent
    whose value is fixed across the block, otherwise the agent's lattice
    (or a slice of it) shaped along its own broadcast axis.  Agents with a
    one-point lattice are always floats and get no axis, so the axes never
    outnumber numpy's dimension limit, however many exact reports there
    are.  The trailing varying agents whose lattice product fits are taken
    whole, the next one is sliced, and the leading ones are fixed per block.
    """
    varying = [i for i, lat in enumerate(lattices) if len(lat) > 1]
    cut, rows = len(varying), 1
    while cut and rows * len(lattices[varying[cut - 1]]) <= _CHUNK_ROWS:
        cut -= 1
        rows *= len(lattices[varying[cut]])
    whole = varying[cut:]
    values: list = [float(lat[0]) for lat in lattices]
    ndim = len(whole) + (cut > 0)
    for axis, i in enumerate(whole, start=ndim - len(whole)):
        values[i] = lattices[i].reshape([-1 if d == axis else 1 for d in range(ndim)])
    if cut == 0:
        yield values
        return
    sliced, fixed = varying[cut - 1], varying[: cut - 1]
    lat, piece = lattices[sliced], _CHUNK_ROWS // rows
    for point in itertools.product(*(lattices[i].tolist() for i in fixed)):
        for i, v in zip(fixed, point):
            values[i] = v
        for lo in range(0, len(lat), piece):
            block = list(values)
            block[sliced] = lat[lo : lo + piece].reshape([-1] + [1] * len(whole))
            yield block


def _order_statistics(values: Sequence) -> list:
    """The sorted realization, entry by entry, for a block of ``values``.

    The floats are sorted first.  Each table is then inserted by min/max
    (entry i of the longer list is max(o[i-1], min(o[i], x))), which only
    selects values and so is exact.  Entries whose bounds lie wholly below
    or above the table's range keep their value and are not recomputed.
    """
    order = sorted(v for v in values if not isinstance(v, np.ndarray))
    lo, hi = list(order), list(order)
    for x in (v for v in values if isinstance(v, np.ndarray)):
        xl, xh = float(x.min()), float(x.max())
        first = bisect_right(hi, xl)  # entries never above x keep their place
        last = max(first, bisect_left(lo, xh) + 1)  # entries never below x move up
        merged = order[:first]
        for i in range(first, last):
            below = np.minimum(order[i], x) if i < len(order) else x
            merged.append(np.maximum(order[i - 1], below) if i else below)
        order = merged + order[last - 1 :]
        insort(lo, xl)
        insort(hi, xh)
    return order


def _block_gaps(values: Sequence, ps: Sequence[float], objective: Objective):
    """For each p, the largest cost(p) - opt over the realizations of a block.

    Every term is a per-agent table combined by broadcasting.  Average-cost
    sums add their terms in the order ``np.sum(axis=1)`` adds one row of a
    realization matrix (:func:`_row_sum`), so every realization's cost - opt
    is the float a row of that matrix gives: the sign of a zero opt, the one
    thing the row's leading 0.0 could change, never reaches cost - opt, as
    cost is never -0.0.  Maxima and minima are exact in any order.
    """
    if objective is Objective.AVG_COST:
        order = _order_statistics(values)
        m = len(values) // 2
        # min_q sum |v - q| = (sum of upper half) - (sum of lower half)
        opt = _row_sum(order[len(order) - m :]) - _row_sum(order[:m])
        costs = (_row_sum([abs(v - p) for v in values]) for p in ps)
    else:
        hi, lo = _extreme(np.maximum, max, values), _extreme(np.minimum, min, values)
        opt = (hi - lo) / 2.0
        costs = (_extreme(np.maximum, max, [abs(v - p) for v in values]) for p in ps)
    return [float(np.max(cost - opt)) for cost in costs]


def _extreme(pick: np.ufunc, builtin: Callable, values: Sequence):
    """Elementwise ``pick`` of ``values``: floats by ``builtin``, then each table."""
    tables = [v for v in values if isinstance(v, np.ndarray)]
    floats = [v for v in values if not isinstance(v, np.ndarray)]
    acc = builtin(floats) if floats else tables.pop()
    for t in tables:
        acc = pick(acc, t)
    return acc


def brute_force_max_regret_batch(
    instance: Instance,
    ps: Sequence[float],
    objective: Objective,
    step: float,
) -> list[float]:
    """Enumerate discretized realizations once and evaluate several p.

    The realizations form the Cartesian product of the agents' step
    lattices, so no realization matrix is built: the product is covered by
    blocks of at most ``_CHUNK_ROWS`` vectors, each agent a table along its
    own broadcast axis, and every term of the regret is a per-agent table.
    The per-realization arithmetic is that of a row of the matrix (see
    :func:`_block_gaps`), so the results do not depend on the blocking.
    Raises :class:`OracleScaleError` when the enumeration would exceed
    ``ORACLE_CAP`` vectors (read at call time).
    """
    sizes = [_lattice_size(iv, step) for iv in instance.agents]
    total = math.prod(sizes)
    if total > ORACLE_CAP:
        raise OracleScaleError(
            f"oracle scale exceeded: {total} realization vectors > cap {ORACLE_CAP}"
        )
    lattices = [_interval_lattice(iv, step) for iv in instance.agents]
    ps = [float(p) for p in ps]
    best = [-math.inf] * len(ps)
    for block in _product_blocks(lattices):
        best = [max(b, g) for b, g in zip(best, _block_gaps(block, ps, objective))]
    if objective is Objective.AVG_COST:
        # Division is monotone: the quotient of the maximum is the maximum
        # of the quotients.
        best = [b / instance.n for b in best]
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
    outcome: float, interval: Interval, at_a: float, at_b: float
) -> float:
    """Worst-case regret of one agent for an outcome, given her interval.

    ``at_a`` and ``at_b`` are the outcomes of the agent's exact reports of
    ``interval.a`` and ``interval.b``.  Exact reports are very weakly
    dominant for every mechanism spec, so the worst case over her true
    locations in the interval lies at one of its endpoints, where the
    exact report of that endpoint is her best response.
    """
    return max(
        0.0,
        abs(interval.a - outcome) - abs(interval.a - at_a),
        abs(interval.b - outcome) - abs(interval.b - at_b),
    )
