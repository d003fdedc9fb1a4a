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

The same argument covers the continuum: every report of width at most
delta, on the deviation grid or off it, has one of those representatives.
So on a grid kind or the constant, ``best_deviation_regret`` and
``violated`` hold over the whole continuum of reports for that profile;
only ``best_deviation``, the lexicographically first minimizer, depends on
the deviation grid.  The exact kinds, whose reports represent themselves,
are checked on the grid only: there a clean report certifies no violation
on the tested grid, not dominance over the continuum.

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


class _OutcomeOracle:
    """Fast outcomes when only one agent's report varies.

    The other agents' representatives never change, so each deviation
    costs one representative selection plus one aggregation against their
    cached sorted representatives instead of a full mechanism run.  The
    mechanism's rules are resolved once, here, not per deviation.
    """

    def __init__(self, target: MechanismSpec, instance: Instance, agent: int):
        target.check(instance)
        grid, self.represent, self._aggregate = target.resolve()
        # Every representative the mechanism can reach, each reached by its
        # own exact report.  Empty for the exact kinds, whose reports
        # represent themselves.
        if target.kind is MechanismKind.CONSTANT:
            self.reachable = (target.location,)
        else:
            self.reachable = grid.points if grid is not None else ()
        self._others = sorted(
            self.represent(iv) for i, iv in enumerate(instance.agents) if i != agent
        )

    def outcome_of(self, rep: float) -> float:
        """The outcome when the agent's report has representative ``rep``."""
        return self._aggregate(self._others, rep)

    def outcome(self, report: Interval) -> float:
        return self.outcome_of(self.represent(report))


def _enumerate_deviations(
    endpoints: Sequence[float], max_width: float, exact_only: bool
) -> Iterator[Interval]:
    """Every deviation with sorted candidate ``endpoints``, in lexicographic
    order: the degenerate ones only when ``exact_only``, else every
    interval of width at most ``max_width`` (up to 1e-12).

    The deviations are counted before the first is built, from each left
    endpoint's number of in-width partners; more than ``ORACLE_CAP`` (read
    at call time) raise :class:`OracleScaleError`.
    """
    m = len(endpoints)

    def count() -> int:
        if exact_only:
            return m
        # Within the cap, the bound m (m + 1) / 2 of all pairs gives the same
        # verdict as the exact count and spares a usual audit its numpy
        # calls, about a tenth of the audit's time.
        pairs = m * (m + 1) // 2
        if pairs <= regret.ORACLE_CAP:
            return pairs
        # Left endpoint i pairs with every j >= i below endpoints[i] + width.
        ends = np.array(endpoints)
        ends_within = np.searchsorted(ends, ends + (max_width + 1e-12), side="right")
        return int(ends_within.sum()) - m * (m - 1) // 2

    _check_report_count(m, count, f"a deviation scan over {m} endpoints")
    if exact_only:
        return (Interval(e, e) for e in endpoints)
    return _in_width_intervals(endpoints, max_width)


def _in_width_intervals(
    endpoints: Sequence[float], max_width: float
) -> Iterator[Interval]:
    for i, a in enumerate(endpoints):
        for b in endpoints[i:]:
            if b - a > max_width + 1e-12:
                break
            yield Interval(a, b)


def _audit_setup(
    target: MechanismSpec, instance: Instance, agent: int, grid: DeviationGrid | None
) -> tuple[_OutcomeOracle, Interval, tuple[float, ...]]:
    """Outcome oracle, own report and candidate endpoints."""
    if not 0 <= agent < instance.n:
        raise ValueError(f"agent index {agent} out of range")
    if grid is None:
        pitch = instance.delta / 20.0 if instance.delta > 0 else instance.B / 20.0
        grid = DeviationGrid(endpoint_pitch=pitch)
    oracle = _OutcomeOracle(target, instance, agent)
    own = instance.agents[agent]
    endpoints = grid.candidate_endpoints(target.B, oracle.reachable + (own.a, own.b))
    if own.a not in endpoints or own.b not in endpoints:
        raise ValueError(
            "deviation grid does not contain the agent's own endpoints"
        )
    return oracle, own, endpoints


def _first_minimum(
    agent: int,
    truthful: Interval,
    deviations,
    oracle: _OutcomeOracle,
    cost: Callable[[float], float],
    tolerance: float,
) -> DominanceReport:
    """Scan deviations in order, keeping the first one of least cost.

    ``cost`` scores an outcome; each representative is scored once.  The
    scan stops at the first deviation reaching the least score over the
    reachable representatives (see the module docstring), the one a full
    scan keeps.  Exact kinds, which have none, are scanned to the end.

    A ``tolerance`` that is not non-negative and finite is a ``ValueError``.
    """
    if not 0 <= tolerance < math.inf:
        raise ValueError(
            f"tolerance must be non-negative and finite, got {tolerance}"
        )
    scores: dict[float, float] = {}

    def score(rep: float) -> float:
        if rep not in scores:
            scores[rep] = cost(oracle.outcome_of(rep))
        return scores[rep]

    floor = min(map(score, oracle.reachable), default=-math.inf)
    truthful_cost = score(oracle.represent(truthful))
    best_dev = None
    best_cost = math.inf
    for dev in deviations:
        c = score(oracle.represent(dev))
        if c < best_cost:
            best_cost = c
            best_dev = dev
            if c <= floor:
                break
    gain = truthful_cost - best_cost
    return DominanceReport(
        agent=agent,
        truthful_regret=truthful_cost,
        best_deviation=best_dev,
        best_deviation_regret=best_cost,
        gain=gain,
        violated=gain > tolerance,
    )


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
    two exact endpoint reports.
    """
    oracle, own, endpoints = _audit_setup(target, instance, agent, grid)
    at_a = oracle.outcome(Interval(own.a, own.a))
    at_b = oracle.outcome(Interval(own.b, own.b))

    def regret_at(outcome: float) -> float:
        return agent_max_regret(outcome, own, at_a, at_b)

    deviations = _enumerate_deviations(endpoints, instance.delta, target.exact_only)
    return _first_minimum(agent, own, deviations, oracle, regret_at, tolerance)


def check_very_weak_dominance_exact(
    target: MechanismSpec,
    points: Sequence[float],
    agent: int,
    grid: DeviationGrid | None = None,
    tolerance: float = 1e-12,
) -> DominanceReport:
    """Check whether, under exact reports, some deviation strictly helps.

    The agent's true location is her reported point; a violation is a
    deviation whose outcome is strictly closer to it.  Only degenerate
    deviations are searched: every reachable outcome of the built-in
    mechanisms is already reached by one.
    """
    instance = validate_instance([(p, p) for p in points], B=target.B, delta=target.delta)
    oracle, own, endpoints = _audit_setup(target, instance, agent, grid)
    loc = own.a
    return _first_minimum(
        agent,
        own,
        _enumerate_deviations(endpoints, 0.0, exact_only=True),
        oracle,
        lambda outcome: abs(loc - outcome),
        tolerance,
    )


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
