"""Empirical auditing of dominance properties plus adversarial generators.

For one agent the audit searches every deviation interval with endpoints
on a finite grid (degenerate reports included) and compares the agent's
worst-case regret under each deviation with the truthful one.  Exact
reports are very weakly dominant for every mechanism spec, so that regret
depends only on the outcomes of the agent's two exact endpoint reports,
computed once per audit and read by ``agent_max_regret``.

A deviation moves the outcome only through its representative, so the
regret is computed once per representative.  On a grid kind every
representative is a grid point, and the constant's only representative is
its location; each of these is reached by its own exact report, so the
least regret over them is the least over all deviations, and the
lexicographic scan stops at the first deviation that reaches it.  The
report equals that of a full scan.

One private ``_audit`` does this for both public checks, which differ only
in their cost of an outcome: the endpoint regret above, or the distance to
the agent's point under exact reports.  It sets up a profile once for all
the agents it audits (mechanism resolved, reports represented and sorted),
so a deviation costs one representative selection and one aggregation.
The walk finds each left endpoint's in-width partners by bisection and
touches no other endpoint.  A violation is a gain above tolerance + 8 ulp(B).

The same argument covers the continuum: every report of width at most
delta, on the deviation grid or off it, has one of those representatives.
So on a grid kind or the constant, ``best_deviation_regret`` and
``violated`` hold over the whole continuum of reports for that profile;
only ``best_deviation``, the lexicographically first minimizer, depends on
the deviation grid.  The verdict of an exact kind holds over the continuum
too: it audits a point report, so the truthful outcome is the one at both
of the agent's endpoints and the truthful regret is 0, the least value
``agent_max_regret`` takes.  No report, on the grid or off it, beats the
truth, and the scan stops at the first deviation of regret 0.

The agent's worst-case regret minimizes over her own alternative behaviour,
including randomized behaviour; since her cost is linear in the mixing
weights, that inner minimum is attained at a pure report, so searching pure
deviations loses nothing.

The generators transcribe the profile families used by the impossibility
arguments: the chained-overlap walk that forces very-weakly-dominant
mechanisms to be constant, the finite-range ladders, the onto-mechanism
four-profile trap, and a wide-interval family that breaks grid mechanisms
whose spacing is finer than half the width bound.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import Instance, Interval, _check_domain, validate_instance
from . import regret
from .mechanisms import MechanismKind, MechanismSpec
from .regret import _check_report_count, _interval_lattice, agent_max_regret

__all__ = [
    "AdversarialScript",
    "DeviationGrid",
    "DominanceReport",
    "GridAttackTarget",
    "check_minimax_dominance",
    "check_very_weak_dominance_exact",
    "gen_fine_grid_attack",
    "gen_finite_range_attack",
    "gen_onto_attack",
    "gen_vwd_chain",
]


@dataclass(frozen=True)
class DeviationGrid:
    """Finite proxy for the agent's report space.

    Candidate report endpoints are all multiples of ``endpoint_pitch`` in
    [0, B] (the last one pinned onto B), every representative the audited
    mechanism can reach (its grid points, or the constant's location), and
    the agent's own true endpoints (the truthful report must be a
    candidate).  The pitch passes the oracle's step-lattice check: not
    positive and finite is a ``ValueError``, more than ``ORACLE_CAP``
    multiples an ``OracleScaleError``.
    """

    endpoint_pitch: float

    def candidate_endpoints(
        self, B: float, extra: Sequence[float] = ()
    ) -> tuple[float, ...]:
        pts = set(_interval_lattice(Interval(0.0, B), self.endpoint_pitch).tolist())
        pts.update(x for x in extra if 0.0 <= x <= B)
        return tuple(sorted(pts))


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of deviation search for one agent."""

    agent: int
    truthful_regret: float
    best_deviation: Interval | None
    best_deviation_regret: float
    gain: float
    violated: bool


@dataclass(frozen=True)
class AdversarialScript:
    """An ordered family of instances plus the property it probes."""

    name: str
    instances: tuple[Instance, ...]
    expected_property: str
    params: dict = field(default_factory=dict)


def GridAttackTarget(B: float, delta: float, spacing: float) -> MechanismSpec:
    """The grid median with a free ``spacing``: an audit target.

    Shorthand for ``MechanismSpec(EQUISPACED_MEDIAN, B, delta, spacing=...)``.
    """
    return MechanismSpec(MechanismKind.EQUISPACED_MEDIAN, B, delta, spacing=spacing)


def _enumerate_deviations(
    endpoints: Sequence[float], max_width: float, exact_only: bool
) -> Iterator[Interval]:
    """Every deviation with sorted candidate ``endpoints``, in lexicographic
    order: the degenerate ones only when ``exact_only``, else every
    interval of width at most ``max_width`` (up to 1e-12).

    Left endpoint ``a = endpoints[i]`` pairs with ``endpoints[i:stop]``, one
    stop rule for the walk and its count: ``i + 1`` when ``exact_only``,
    else ``j = bisect_right(endpoints, a + limit, i)``, less one when
    ``endpoints[j - 1] - a > limit`` (``a + limit`` can round onto an
    endpoint just out of width).  The walk touches only in-width partners.
    The deviations are counted before the first is built; more than
    ``ORACLE_CAP`` (read at call time) raise :class:`OracleScaleError`.
    """
    m = len(endpoints)
    limit = max_width + 1e-12

    def stop(i: int, a: float) -> int:
        if exact_only:
            return i + 1
        j = bisect_right(endpoints, a + limit, i)
        return j - 1 if endpoints[j - 1] - a > limit else j

    def count() -> int:
        if exact_only:
            return m
        # Within the cap, the bound m (m + 1) / 2 of all pairs gives the same
        # verdict as the exact count and spares a usual audit its numpy
        # calls, about a tenth of the audit's time.
        pairs = m * (m + 1) // 2
        if pairs <= regret.ORACLE_CAP:
            return pairs
        ends = np.array(endpoints)
        stops = np.searchsorted(ends, ends + limit, side="right")
        stops -= ends[stops - 1] - ends > limit
        return int(stops.sum()) - m * (m - 1) // 2

    _check_report_count(m, count, f"a deviation scan over {m} endpoints")
    return (
        Interval(a, b)
        for i, a in enumerate(endpoints)
        for b in endpoints[i : stop(i, a)]
    )


def _audit(
    target: MechanismSpec,
    instance: Instance,
    agents: Sequence[int],
    grid: DeviationGrid | None,
    exact_only: bool,
    cost_for: Callable,
    tolerance: float,
) -> Iterator[DominanceReport]:
    """Audit each of ``agents`` in order, over one setup of the profile.

    Every agent index is checked first.  The mechanism's rules are resolved
    and each report is represented once, kept in agent order and sorted; an
    agent's others are the sorted list less one copy of its own
    representative, so a deviation costs one representative selection plus
    one aggregation.  ``cost_for(outcome, own)`` takes the map from a report
    to its outcome and the agent's own report, and returns the cost of an
    outcome, never below 0.  Each representative is scored once.  The scan
    keeps the first deviation of least cost and stops at the first reaching
    the least score over the reachable representatives, or 0 for the exact
    kinds, which have none (see the module docstring): no deviation scores
    less, so the report is the one a full scan keeps.

    A gain is a violation above ``tolerance + 8 ulp(B)``, since the rounding
    in a regret difference grows with B.  A ``tolerance`` that is not
    non-negative and finite is a ``ValueError``.
    """
    for agent in agents:
        if not 0 <= agent < instance.n:
            raise ValueError(f"agent index {agent} out of range")
    if grid is None:
        pitch = instance.delta / 20.0 if instance.delta > 0 else instance.B / 20.0
        grid = DeviationGrid(endpoint_pitch=pitch)
    target.check(instance)
    mech_grid, represent, aggregate = target.resolve()
    # Every representative the mechanism can reach, each reached by its own
    # exact report.  Empty for the exact kinds, whose reports represent
    # themselves.
    if target.kind is MechanismKind.CONSTANT:
        reachable = (target.location,)
    else:
        reachable = mech_grid.points if mech_grid is not None else ()
    reps = [represent(iv) for iv in instance.agents]
    profile = sorted(reps)
    for agent in agents:
        others = profile.copy()
        del others[bisect_left(others, reps[agent])]
        own = instance.agents[agent]
        endpoints = grid.candidate_endpoints(target.B, reachable + (own.a, own.b))
        if own.a not in endpoints or own.b not in endpoints:
            raise ValueError(
                "deviation grid does not contain the agent's own endpoints"
            )
        cost = cost_for(lambda report: aggregate(others, represent(report)), own)
        deviations = _enumerate_deviations(endpoints, instance.delta, exact_only)
        if not 0 <= tolerance < math.inf:
            raise ValueError(
                f"tolerance must be non-negative and finite, got {tolerance}"
            )
        scores: dict[float, float] = {}

        def score(rep: float) -> float:
            if rep not in scores:
                scores[rep] = cost(aggregate(others, rep))
            return scores[rep]

        floor = min(map(score, reachable), default=0.0)
        truthful_cost = score(reps[agent])
        best_dev = None
        best_cost = math.inf
        for dev in deviations:
            c = score(represent(dev))
            if c < best_cost:
                best_cost = c
                best_dev = dev
                if c <= floor:
                    break
        gain = truthful_cost - best_cost
        yield DominanceReport(
            agent=agent,
            truthful_regret=truthful_cost,
            best_deviation=best_dev,
            best_deviation_regret=best_cost,
            gain=gain,
            violated=gain > tolerance + 8 * math.ulp(instance.B),
        )


def _endpoint_regret(outcome: Callable, own: Interval) -> Callable:
    """``agent_max_regret`` from the outcomes of the two exact endpoint reports."""
    at_a = outcome(Interval(own.a, own.a))
    at_b = outcome(Interval(own.b, own.b))
    return lambda p: agent_max_regret(p, own, at_a, at_b)


def check_minimax_dominance(
    target: MechanismSpec,
    instance: Instance,
    agent: int,
    grid: DeviationGrid | None = None,
    tolerance: float = 1e-9,
) -> DominanceReport:
    """Search for a report that beats truth-telling in worst-case regret.

    Scans every deviation interval with endpoints on the deviation grid, in
    lexicographic order (ties kept on the first minimum, so the reported
    best deviation is the lexicographically smallest).  The regret is
    computed once per representative, and on a grid kind or the constant
    the scan stops at the first deviation reaching the least regret over
    the reachable representatives; the report equals that of a full scan.
    Exact reports are very weakly dominant for every mechanism spec, so the
    agent's worst-case regret depends only on the outcomes of the agent's
    two exact endpoint reports.  A gain above ``tolerance + 8 ulp(B)`` is a
    violation.
    """
    return next(_audit(target, instance, [agent], grid, target.exact_only,
                       _endpoint_regret, tolerance))


def check_very_weak_dominance_exact(
    target: MechanismSpec,
    points: Sequence[float],
    agent: int,
    grid: DeviationGrid | None = None,
    tolerance: float = 1e-12,
) -> DominanceReport:
    """Check whether, under exact reports, some deviation strictly helps.

    The agent's true location is her reported point; a violation is a
    deviation whose outcome is closer to it by more than ``tolerance + 8
    ulp(B)``.  Only degenerate deviations are searched: every reachable
    outcome of the built-in mechanisms is already reached by one.
    """
    instance = validate_instance([(p, p) for p in points], B=target.B, delta=target.delta)
    return next(_audit(target, instance, [agent], grid, True,
                       lambda outcome, own: lambda p: abs(own.a - p), tolerance))


def gen_vwd_chain(
    B: float, delta: float, eps: float, eps1: float, n: int = 3
) -> AdversarialScript:
    """Chained-overlap walk from all-agents-at-[0, eps] to all-at-[B-eps1, B].

    Consecutive instances differ in exactly one agent's report, and the old
    and new reports always overlap in more than one point, which pins the
    output of any very-weakly-dominant mechanism across the whole chain.
    A chain of more than ``ORACLE_CAP`` reports, counted from the widths
    before any is built, raises :class:`OracleScaleError`.
    """
    _check_domain(B, delta)
    if not (0 < eps1 < eps < delta <= B):
        raise ValueError(
            f"need 0 < eps1 < eps < delta <= B, got eps1={eps1}, eps={eps}, "
            f"delta={delta}, B={B}"
        )
    if n < 1:
        raise ValueError("need at least one agent")
    # The walk advances delta - eps1 per step, so it takes at most
    # (B - eps) / (delta - eps1) + 2 steps; each agent walks it in turn,
    # and every instance on the way holds n reports.
    steps = (B - eps) / (delta - eps1) + 2
    _check_report_count(
        n, lambda: n * (1 + n * steps),
        f"a chain of {n} agents over {steps:.3g} steps",
    )
    walk = [(0.0, eps)]
    prev_b = eps
    i = 1
    while True:
        b_i = eps + i * (delta - eps1)
        if b_i >= B:
            walk.append((prev_b - eps1, B))
            break
        walk.append((prev_b - eps1, b_i))
        prev_b = b_i
        i += 1
    if walk[-1] != (B - eps1, B):
        walk.append((B - eps1, B))

    instances = []
    reports = [(0.0, eps)] * n
    instances.append(validate_instance(reports, B, delta))
    for a in range(n):
        for step in walk[1:]:
            reports = list(reports)
            reports[a] = step
            instances.append(validate_instance(reports, B, delta))
    return AdversarialScript(
        name="VwdChain",
        instances=tuple(instances),
        expected_property=(
            "a very-weakly-dominant mechanism outputs one fixed point on "
            "every instance of the chain, so it pays full-range regret at "
            "one of the two extreme profiles"
        ),
        params={"B": B, "delta": delta, "eps": eps, "eps1": eps1, "n": n},
    )


def gen_finite_range_attack(
    g: Sequence[float],
    gamma: float,
    n: int,
    case: str,
    B: float,
    delta: float,
) -> AdversarialScript:
    """Widening ladders against finite-range mechanisms.

    Case one starts with k+1 exact reports at g1 and the rest at g2, then
    widens the g1 reporters one at a time to [g1, g2 - gamma]; case two
    mirrors it, widening the g2 reporters to [g1 + gamma, g2].  A pinned
    outcome along the ladder forces a regret gap near half the gap between
    g1 and g2 on the final instance.  A ladder of more than ``ORACLE_CAP``
    reports, about n (n/2 + 2), raises :class:`OracleScaleError`.
    """
    _check_domain(B, delta)
    if len(g) != 4 or not all(g[i] < g[i + 1] for i in range(3)):
        raise ValueError("g must be four strictly increasing grid points")
    if case not in ("one", "two"):
        raise ValueError(f"case must be 'one' or 'two', got {case!r}")
    g1, g2 = g[0], g[1]
    if not 0 < gamma < min((g2 - g1) / 2.0, delta / 2.0):
        raise ValueError(
            f"need 0 < gamma < min((g2-g1)/2, delta/2), got gamma={gamma}"
        )
    if g2 - g1 - gamma > delta:
        raise ValueError("widened report would exceed the width bound")
    if n < 2:
        raise ValueError("need at least two agents")
    # At most n // 2 + 2 instances of n reports each, in either case.
    _check_report_count(
        n, lambda: n * (n // 2 + 2), f"a finite-range ladder of {n} agents"
    )
    k = n // 2
    low = [(g1, g1)] * (k + 1)
    high = [(g2, g2)] * (n - k - 1)
    instances = [validate_instance(low + high, B, delta)]
    if case == "one":
        wide = (g1, g2 - gamma)
        for c in range(1, k + 2):
            reports = [wide] * c + low[c:] + high
            instances.append(validate_instance(reports, B, delta))
        pinned = g1
    else:
        wide = (g1 + gamma, g2)
        for c in range(1, n - k):
            reports = low + high[: n - k - 1 - c] + [wide] * c
            instances.append(validate_instance(reports, B, delta))
        pinned = g2
    return AdversarialScript(
        name="FiniteRangeAttack",
        instances=tuple(instances),
        expected_property=(
            f"a minimax-dominant finite-range mechanism keeps its output at "
            f"{pinned} along the ladder, while the optimum drifts toward the "
            f"widened reports"
        ),
        params={
            "g": tuple(g), "gamma": gamma, "n": n, "case": case,
            "B": B, "delta": delta,
        },
    )


def gen_onto_attack(
    y_j: float,
    ell: float,
    r: float,
    eps: float,
    n: int,
    B: float,
    delta: float,
) -> AdversarialScript:
    """Four-profile trap for anonymous onto mechanisms.

    The base profile places one agent on the interval [ell, r] and another
    at z = (ell + r)/2 - eps; the three comparison profiles move the
    interval agent to its endpoints and the z agent to the mirror point
    2z - ell.  A mechanism that behaves like a fixed-point median on exact
    reports ends up rewarding the z agent's deviation.  More than
    ``ORACLE_CAP`` reports, 4n, raise :class:`OracleScaleError`.
    """
    _check_domain(B, delta)
    if not (y_j < ell < r):
        raise ValueError(f"need y_j < ell < r, got {y_j}, {ell}, {r}")
    if not r - ell < delta:
        raise ValueError(f"need r - ell < delta, got width {r - ell}")
    if not 0 < eps < (r - ell) / 2.0:
        raise ValueError(f"need 0 < eps < (r - ell)/2, got eps={eps}")
    if n < 3:
        raise ValueError("need at least three agents")
    _check_report_count(n, lambda: 4 * n, f"an onto trap of {n} agents")
    z = (ell + r) / 2.0 - eps
    j = n // 2
    prefix = [(y_j, y_j)] * (n - j - 1)
    suffix = [(B, B)] * (j - 1)
    base = prefix + [(ell, r), (z, z)] + suffix
    agent_a = len(prefix)
    agent_b = agent_a + 1
    l0 = validate_instance(base, B, delta)
    l1 = l0.replace_agent(agent_a, Interval(ell, ell))
    l2 = l0.replace_agent(agent_a, Interval(r, r))
    l3 = l0.replace_agent(agent_b, Interval(2 * z - ell, 2 * z - ell))
    return AdversarialScript(
        name="OntoAttack",
        instances=(l0, l1, l2, l3),
        expected_property=(
            "an anonymous, minimax-dominant, onto mechanism must output "
            "(ell + z)/2 on the base profile yet z once the z agent reports "
            "2z - ell, so the z agent gains by deviating"
        ),
        params={
            "y_j": y_j, "ell": ell, "r": r, "eps": eps, "z": z, "n": n,
            "B": B, "delta": delta, "agent_a": agent_a, "agent_b": agent_b,
        },
    )


def gen_fine_grid_attack(
    B: float, delta: float, spacing: float, n: int = 3
) -> AdversarialScript:
    """Wide-interval family breaking grid medians spaced below delta/2.

    One agent's report covers four grid points; its left-median
    representative sits a full grid step left of the report's midpoint,
    and the remaining agents pin the output on that representative.
    Deviating to the grid point nearest the midpoint strictly lowers the
    agent's worst-case regret by roughly one grid step.  More than
    ``ORACLE_CAP`` agents raise :class:`OracleScaleError`.
    """
    _check_domain(B, delta)
    if not 0 < spacing < delta / 2.0:
        raise ValueError(
            f"attack needs 0 < spacing < delta/2, got spacing={spacing}, delta={delta}"
        )
    if not B / spacing < math.inf:
        raise ValueError(f"spacing {spacing} too fine for the domain [0, {B}]")
    if n < 3 or n % 2 == 0:
        raise ValueError("need an odd number of agents, at least three")
    _check_report_count(n, lambda: n, f"a fine-grid attack of {n} agents")
    if B < 6 * spacing:
        raise ValueError("domain too short for the construction")
    s = spacing
    g1, g2 = s * 1e-3, 2e-3 * s
    m = int(round(0.4 * B / s))
    x = m * s
    a = x + 0.5 * s - g1
    b = min(x + 3.5 * s - g2, a + delta)
    if b < x + 2.5 * s:
        raise ValueError("width bound too tight for a four-point cover")
    far = s * int(math.floor(0.9 * B / s))
    if far <= b:
        raise ValueError("domain too short for the pinning agents")
    k = n // 2
    reports = [(0.0, 0.0)] * k + [(a, b)] + [(far, far)] * k
    instance = validate_instance(reports, B, delta)
    return AdversarialScript(
        name="FineGridAttack",
        instances=(instance,),
        expected_property=(
            f"the grid-median target with spacing {s:g} lets agent {k} gain "
            f"about one grid step of worst-case regret by reporting the "
            f"grid point nearest its interval midpoint"
        ),
        params={
            "B": B, "delta": delta, "spacing": s, "n": n, "wide_agent": k,
        },
    )
