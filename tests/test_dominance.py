import itertools
import math

import numpy as np
import pytest

import robustloc.dominance as dominance_module
import robustloc.regret as regret_module
from robustloc import (
    DeviationGrid,
    DominanceReport,
    InvalidInstanceError,
    OracleScaleError,
    GridAttackTarget,
    Instance,
    Interval,
    MechanismKind,
    MechanismSpec,
    agent_max_regret,
    check_minimax_dominance,
    check_very_weak_dominance_exact,
    gen_fine_grid_attack,
    gen_finite_range_attack,
    gen_onto_attack,
    gen_vwd_chain,
    random_instance,
    run_mechanism,
    validate_instance,
)
from robustloc.dominance import _enumerate_deviations

EQ_MED = MechanismKind.EQUISPACED_MEDIAN
EQ_PH = MechanismKind.EQUISPACED_PHANTOM_HALF


def spec(kind, B=1.0, delta=0.2, location=None):
    return MechanismSpec(kind=kind, B=B, delta=delta, location=location)


def outcome_rule(target, instance, agent):
    """The outcome of each report of ``agent`` against the others' fixed
    ones: the spec's rules applied to the others' sorted representatives."""
    target.check(instance)
    _, represent, aggregate = target.resolve()
    others = sorted(
        represent(iv) for i, iv in enumerate(instance.agents) if i != agent
    )
    return lambda report: aggregate(others, represent(report))


def full_scan(target, instance, agent, grid, tolerance, cost_factory, exact_only):
    """Reference audit: score every deviation, keep the first least one.

    No memo, no floor and no bisection: every pair of candidate endpoints is
    tested for width.  ``cost_factory(outcome, own, endpoints)`` returns the
    cost of a report.
    """
    outcome = outcome_rule(target, instance, agent)
    own = instance.agents[agent]
    mech_grid = target.resolve()[0]
    mech_points = mech_grid.points if mech_grid is not None else ()
    endpoints = grid.candidate_endpoints(target.B, mech_points + (own.a, own.b))
    cost = cost_factory(outcome, own, endpoints)
    truthful = cost(own)
    best, best_cost = None, math.inf
    limit = instance.delta + 1e-12
    for a, b in itertools.combinations_with_replacement(endpoints, 2):
        in_scan = a == b if exact_only else b - a <= limit
        if not in_scan:
            continue
        dev = Interval(a, b)
        c = cost(dev)
        if c < best_cost:
            best, best_cost = dev, c
    gain = truthful - best_cost
    return DominanceReport(agent, truthful, best, best_cost, gain, gain > tolerance)


def sampled_agent_max_regret(outcome, responses, interval, step):
    """Reference for ``agent_max_regret`` that does not assume exact reports
    are dominant: true locations are sampled every ``step`` in the interval,
    and each one's best response is the closest of the ``responses``, the
    outcomes of every exact report the agent could make."""
    outs = np.fromiter(responses, dtype=float)
    locs = regret_module._interval_lattice(interval, step)
    inner = np.abs(locs[:, None] - outs[None, :]).min(axis=1)
    return max(0.0, float((np.abs(locs - outcome) - inner).max()))


def full_minimax_scan(target, instance, agent, grid, sampled=False):
    """``full_scan`` under worst-case regret: by the endpoint rule, or with
    ``sampled`` by ``sampled_agent_max_regret`` at the deviation pitch over
    the exact reports of every candidate endpoint."""
    def factory(outcome, own, endpoints):
        if sampled:
            responses = [outcome(Interval(e, e)) for e in endpoints]

            def regret(outcome):
                return sampled_agent_max_regret(
                    outcome, responses, own, grid.endpoint_pitch
                )
        else:
            at_a = outcome(Interval(own.a, own.a))
            at_b = outcome(Interval(own.b, own.b))

            def regret(p):
                return agent_max_regret(p, own, at_a, at_b)
        return lambda report: regret(outcome(report))
    return full_scan(
        target, instance, agent, grid, 1e-9, factory, target.exact_only
    )


def full_very_weak_scan(target, points, agent, grid):
    instance = validate_instance([(p, p) for p in points], target.B, target.delta)

    def factory(outcome, own, endpoints):
        return lambda report: abs(own.a - outcome(report))
    return full_scan(target, instance, agent, grid, 1e-12, factory, True)


def criterion_6_suite():
    gen = np.random.Generator(np.random.PCG64(606060))
    combos = list(itertools.product((1, 3, 5, 7), (0.1, 0.2, 0.3)))
    for i in range(200):
        n, delta = combos[i % len(combos)]
        yield i, random_instance(n, 1.0, delta, gen)


class TestMinimaxDominanceAudit:
    def test_equispaced_median_is_clean(self):
        inst = validate_instance(
            [(0.12, 0.28), (0.33, 0.47), (0.81, 0.99)], B=1, delta=0.2
        )
        rep = check_minimax_dominance(
            spec(EQ_MED), inst, agent=0, grid=DeviationGrid(0.02)
        )
        assert not rep.violated
        assert rep.gain <= 0 + 1e-12

    def test_constant_gain_is_exactly_zero(self):
        inst = validate_instance([(0.1, 0.3), (0.6, 0.7)], B=1, delta=0.2)
        for agent in range(inst.n):
            rep = check_minimax_dominance(
                spec(MechanismKind.CONSTANT, location=0.5), inst, agent
            )
            assert rep.gain == 0.0
            assert not rep.violated

    def test_degenerate_truthful_interval(self):
        inst = validate_instance([(0.4, 0.4), (0.8, 0.9)], B=1, delta=0.2)
        rep = check_minimax_dominance(spec(EQ_MED), inst, agent=0)
        assert rep.truthful_regret == 0.0
        assert not rep.violated

    def test_best_deviation_reproducible_by_full_run(self):
        inst = validate_instance(
            [(0.12, 0.28), (0.33, 0.47), (0.81, 0.99)], B=1, delta=0.2
        )
        s = spec(EQ_MED)
        rep = check_minimax_dominance(s, inst, agent=1, grid=DeviationGrid(0.05))
        dev = rep.best_deviation
        assert 0.0 <= dev.a <= dev.b <= 1.0 and dev.b - dev.a <= inst.delta + 1e-12
        deviated = inst.replace_agent(1, rep.best_deviation)
        outcome = run_mechanism(s, deviated).p
        own = inst.agents[1]
        at_a = run_mechanism(s, inst.replace_agent(1, Interval(own.a, own.a))).p
        at_b = run_mechanism(s, inst.replace_agent(1, Interval(own.b, own.b))).p
        again = agent_max_regret(outcome, own, at_a, at_b)
        assert again == pytest.approx(rep.best_deviation_regret, abs=1e-12)

    def test_truthful_report_among_candidates(self):
        inst = validate_instance([(0.1, 0.25), (0.5, 0.65)], B=1, delta=0.2)
        rep = check_minimax_dominance(spec(EQ_PH), inst, agent=0)
        assert rep.best_deviation_regret <= rep.truthful_regret + 1e-12

    def test_rejects_bad_agent_index(self):
        inst = validate_instance([(0.1, 0.2)], B=1, delta=0.2)
        with pytest.raises(ValueError):
            check_minimax_dominance(spec(EQ_MED), inst, agent=3)

    def test_rejects_own_report_off_the_deviation_grid(self):
        # A hand-built instance is taken as given; its report beyond B is
        # not among the audit's candidate endpoints.
        inst = Instance(1.0, 0.1, (1.5,), (1.5,))
        with pytest.raises(ValueError, match="does not contain the agent's own"):
            check_minimax_dominance(spec(EQ_MED, delta=0.1), inst, agent=0)

    def test_fallback_mode_agrees_with_shortcut(self):
        inst = validate_instance([(0.12, 0.28), (0.63, 0.77)], B=1, delta=0.2)
        grid = DeviationGrid(0.02)
        for agent in range(inst.n):
            fast = check_minimax_dominance(spec(EQ_MED), inst, agent, grid=grid)
            slow = full_minimax_scan(spec(EQ_MED), inst, agent, grid, sampled=True)
            assert fast.violated == slow.violated
            assert fast.truthful_regret == pytest.approx(
                slow.truthful_regret, abs=1e-12
            )

    def test_clean_across_random_instances(self, rng):
        for _ in range(25):
            n = int(rng.choice([1, 3, 5]))
            delta = float(rng.choice([0.1, 0.2]))
            inst = random_instance(n, 1.0, delta, rng)
            grid = DeviationGrid(delta / 20)
            for kind in (EQ_MED, EQ_PH):
                for agent in range(n):
                    rep = check_minimax_dominance(
                        spec(kind, delta=delta), inst, agent, grid=grid
                    )
                    assert not rep.violated, (kind, agent, rep)

    def test_fast_outcome_path_matches_full_mechanism_run(self, rng):
        # The audit swaps one report at a time against cached representatives;
        # that shortcut, the rule the full-scan reference uses, must agree
        # with a from-scratch mechanism run.
        delta = 0.2
        targets = [
            spec(MechanismKind.CONSTANT, location=0.3),
            spec(MechanismKind.EXACT_MEDIAN),
            spec(MechanismKind.EXACT_PHANTOM_HALF),
            spec(EQ_MED),
            spec(EQ_PH),
            GridAttackTarget(B=1.0, delta=delta, spacing=0.05),
            GridAttackTarget(B=1.0, delta=delta, spacing=delta / 2),
        ]
        for _ in range(30):
            n = int(rng.integers(1, 7))
            inst = random_instance(n, 1.0, delta, rng)
            agent = int(rng.integers(0, n))
            w = float(rng.uniform(0, delta))
            a = float(rng.uniform(0, 1 - w))
            report = Interval(a, a + w)
            points = validate_instance(
                [((iv.a + iv.b) / 2,) * 2 for iv in inst.agents], 1.0, delta
            )
            for s in targets:
                base, dev = (points, Interval(a, a)) if s.exact_only else (inst, report)
                outcome = outcome_rule(s, base, agent)
                full = run_mechanism(s, base.replace_agent(agent, dev))
                assert outcome(dev) == full.p, s
            # The docstring's claim: spacing delta/2 is the equispaced median.
            half = run_mechanism(targets[-1], inst)
            median = run_mechanism(spec(EQ_MED), inst)
            assert (half.p, half.representatives, half.grid) == (
                median.p, median.representatives, median.grid
            )

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0])
    def test_rejects_bad_tolerance(self, tolerance):
        inst = validate_instance([(0.1, 0.25), (0.42, 0.55)], B=1, delta=0.2)
        match = "tolerance must be non-negative and finite"
        with pytest.raises(ValueError, match=match):
            check_minimax_dominance(spec(EQ_MED), inst, 0, tolerance=tolerance)
        with pytest.raises(ValueError, match=match):
            check_very_weak_dominance_exact(
                spec(EQ_MED), [0.2, 0.5], 0, tolerance=tolerance
            )

    def test_report_is_deterministic(self):
        inst = validate_instance([(0.1, 0.25), (0.42, 0.55)], B=1, delta=0.2)
        first = check_minimax_dominance(spec(EQ_MED), inst, 0)
        second = check_minimax_dominance(spec(EQ_MED), inst, 0)
        assert first == second


class TestAuditByRepresentative:
    """The memoized, early-stopping audit returns the full scan's report."""

    def test_criterion_6_sample_matches_full_scan(self):
        for i, inst in criterion_6_suite():
            if i % 4:
                continue
            grid = DeviationGrid(endpoint_pitch=inst.delta / 20.0)
            for kind in (EQ_MED, EQ_PH):
                s = spec(kind, delta=inst.delta)
                for agent in range(inst.n):
                    fast = check_minimax_dominance(s, inst, agent, grid=grid)
                    assert fast == full_minimax_scan(s, inst, agent, grid), (i, kind)
                    if inst.n <= 3:
                        slow = full_minimax_scan(s, inst, agent, grid, sampled=True)
                        assert fast.violated == slow.violated, (i, kind)
                        assert fast.truthful_regret == pytest.approx(
                            slow.truthful_regret, abs=1e-12
                        ), (i, kind)

    def test_fine_grid_attack_matches_full_scan(self):
        delta = 0.2
        script = gen_fine_grid_attack(B=1.0, delta=delta, spacing=delta / 4, n=3)
        target = GridAttackTarget(B=1.0, delta=delta, spacing=delta / 4)
        grid = DeviationGrid(endpoint_pitch=delta / 20)
        inst = script.instances[0]
        for agent in range(inst.n):
            fast = check_minimax_dominance(target, inst, agent, grid=grid)
            assert fast == full_minimax_scan(target, inst, agent, grid)
        assert check_minimax_dominance(
            target, inst, script.params["wide_agent"], grid=grid
        ).violated

    def test_constant_and_exact_kinds_match_full_scan(self, rng):
        grid = DeviationGrid(endpoint_pitch=0.01)
        for _ in range(5):
            inst = random_instance(4, 1.0, 0.2, rng)
            points = validate_instance(
                [((iv.a + iv.b) / 2,) * 2 for iv in inst.agents], 1.0, 0.2
            )
            for s, base in (
                (spec(MechanismKind.CONSTANT, location=0.3), inst),
                (spec(MechanismKind.EXACT_MEDIAN), points),
                (spec(MechanismKind.EXACT_PHANTOM_HALF), points),
            ):
                for agent in range(base.n):
                    fast = check_minimax_dominance(s, base, agent, grid=grid)
                    assert fast == full_minimax_scan(s, base, agent, grid), s

    def test_identity_grid_matches_full_scan(self, rng):
        inst = random_instance(5, 1.0, 0.0, rng)
        s = spec(EQ_MED, delta=0.0)
        grid = DeviationGrid(endpoint_pitch=1.0 / 20)
        for agent in range(inst.n):
            fast = check_minimax_dominance(s, inst, agent)
            assert fast == full_minimax_scan(s, inst, agent, grid)

    def test_very_weak_spacing_target_matches_full_scan(self, rng):
        target = GridAttackTarget(B=1.0, delta=0.2, spacing=0.05)
        grid = DeviationGrid(endpoint_pitch=0.01)
        for _ in range(5):
            pts = [float(x) for x in rng.uniform(0, 1, 3)]
            for agent in range(3):
                fast = check_very_weak_dominance_exact(target, pts, agent, grid=grid)
                assert fast == full_very_weak_scan(target, pts, agent, grid)

    def test_regret_scored_once_per_representative(self, monkeypatch):
        calls = []

        def counted(outcome, *args, **kwargs):
            calls.append(outcome)
            return agent_max_regret(outcome, *args, **kwargs)

        monkeypatch.setattr(dominance_module, "agent_max_regret", counted)
        inst = validate_instance(
            [(0.12, 0.28), (0.33, 0.47), (0.81, 0.99)], B=1, delta=0.2
        )
        s = spec(EQ_MED)
        for agent in range(inst.n):
            calls.clear()
            check_minimax_dominance(s, inst, agent, grid=DeviationGrid(0.001))
            assert len(calls) <= len(run_mechanism(s, inst).grid.points)

    def test_constant_audit_stops_at_its_first_deviation(self, monkeypatch):
        # Every report of the constant is represented by its location, so
        # the first deviation already reaches the least regret.
        scanned = []
        real = dominance_module._enumerate_deviations

        def counted(*args):
            for dev in real(*args):
                scanned.append(dev)
                yield dev

        monkeypatch.setattr(dominance_module, "_enumerate_deviations", counted)
        inst = validate_instance(
            [(0.12, 0.28), (0.33, 0.47), (0.81, 0.99)], B=1, delta=0.2
        )
        for agent in range(inst.n):
            scanned.clear()
            rep = check_minimax_dominance(
                spec(MechanismKind.CONSTANT, location=0.5), inst, agent
            )
            assert scanned == [Interval(0.0, 0.0)] == [rep.best_deviation]

    @pytest.mark.parametrize("n", [51, 101])
    @pytest.mark.parametrize("kind", [EQ_MED, EQ_PH], ids=["median", "phantom-half"])
    def test_clean_at_fine_pitch_for_many_agents(self, n, kind):
        # Deviation endpoints every delta/100: about 50 000 candidate
        # intervals per audit, a budget only the early stop makes cheap.
        delta = 0.2
        inst = random_instance(n, 1.0, delta, np.random.default_rng(n))
        grid = DeviationGrid(endpoint_pitch=delta / 100)
        for agent in range(n):
            rep = check_minimax_dominance(spec(kind), inst, agent, grid=grid)
            assert not rep.violated and rep.gain <= 1e-9, (agent, rep)


# Profiles in which several agents share a representative: repeated
# intervals, repeated exact points, and reports that all snap to 0.3 on the
# delta/2 = 0.1 grid.
SHARED_PROFILES = [
    [(0.1, 0.2), (0.1, 0.2), (0.5, 0.6), (0.1, 0.2)],
    [(0.3, 0.3), (0.3, 0.3), (0.7, 0.7), (0.3, 0.3), (0.0, 0.0)],
    [(0.28, 0.32), (0.25, 0.35), (0.3, 0.3), (0.9, 0.95), (0.26, 0.33)],
]
ALL_KINDS = list(MechanismKind)


class TestSharedSetup:
    """One ``_audit`` over every agent of a profile, each audited against
    the sorted profile less one copy of its own representative."""

    @pytest.mark.parametrize("profile", SHARED_PROFILES)
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
    def test_all_agents_match_full_scan(self, kind, profile):
        s = spec(kind, location=0.45 if kind is MechanismKind.CONSTANT else None)
        if s.exact_only:
            profile = [((a + b) / 2,) * 2 for a, b in profile]
        inst = validate_instance(profile, B=1.0, delta=0.2)
        grid = DeviationGrid(endpoint_pitch=0.01)
        reports = list(dominance_module._audit(
            s, inst, range(inst.n), grid, s.exact_only,
            dominance_module._endpoint_regret, 1e-9,
        ))
        assert reports == [
            full_minimax_scan(s, inst, agent, grid) for agent in range(inst.n)
        ]
        assert reports == [
            check_minimax_dominance(s, inst, agent, grid=grid)
            for agent in range(inst.n)
        ]

    def test_every_agent_index_checked_before_the_first_report(self):
        inst = validate_instance(SHARED_PROFILES[0], B=1.0, delta=0.2)
        s = spec(EQ_MED)
        audits = dominance_module._audit(
            s, inst, [0, inst.n], None, False,
            dominance_module._endpoint_regret, 1e-9,
        )
        with pytest.raises(ValueError, match="agent index 4 out of range"):
            next(audits)

    def test_own_endpoint_beyond_B_raises_at_its_agent(self):
        # A hand-built instance is taken as given: agent 1's right end lies
        # beyond B, so agent 0 is reported first and agent 1 then raises.
        inst = Instance(1.0, 0.2, [0.1, 0.95], [0.2, 1.05])
        s = spec(EQ_MED)
        audits = dominance_module._audit(
            s, inst, range(inst.n), None, False,
            dominance_module._endpoint_regret, 1e-9,
        )
        assert next(audits) == check_minimax_dominance(s, inst, agent=0)
        with pytest.raises(ValueError, match="does not contain the agent's own"):
            next(audits)

    @pytest.mark.parametrize("target", [
        spec(EQ_MED), spec(EQ_PH), spec(MechanismKind.EXACT_MEDIAN),
        spec(MechanismKind.EXACT_PHANTOM_HALF),
        GridAttackTarget(B=1.0, delta=0.2, spacing=0.05),
    ], ids=["median", "phantom-half", "exact-median", "exact-phantom-half",
            "spacing"])
    def test_very_weak_matches_full_scan_on_shared_points(self, target):
        grid = DeviationGrid(endpoint_pitch=0.01)
        for pts in ([0.3, 0.3, 0.7, 0.3, 0.0], [0.31, 0.29, 0.3, 0.9]):
            for agent in range(len(pts)):
                fast = check_very_weak_dominance_exact(target, pts, agent, grid=grid)
                assert fast == full_very_weak_scan(target, pts, agent, grid)


class TestScaledVerdict:
    """The verdict allows 8 ulp(B) of rounding above the tolerance, so a
    profile scaled by a power of two keeps the unscaled verdict."""

    # At scale 1 the gain is 2.8e-17, one rounding; scaled by 2**26 it is
    # 1.86e-9, above the absolute default tolerance of 1e-9.
    PROFILE = [
        (0.09280395349113767, 0.36804435786637074),
        (0.19765101763570353, 0.20236537835328006),
    ]

    @pytest.mark.parametrize("k", [0, 26, 30])
    def test_equispaced_median_is_clean_at_every_scale(self, k):
        scale = 2.0 ** k
        inst = validate_instance(
            [(a * scale, b * scale) for a, b in self.PROFILE],
            B=scale, delta=0.3 * scale,
        )
        rep = check_minimax_dominance(spec(EQ_MED, B=scale, delta=0.3 * scale), inst, 0)
        assert rep.gain > 0.0 and not rep.violated
        if k:
            assert rep.gain > 1e-9


class TestContinuumClaim:
    """On a grid kind or the constant, ``best_deviation_regret`` is the least
    worst-case regret over every report of width at most delta, on the
    deviation grid or off it."""

    def test_off_grid_reports_never_beat_the_best_deviation(self):
        gen = np.random.default_rng(20190509)
        for trial in range(15):
            n = int(gen.integers(1, 6))
            delta = (0.1, 0.2, 0.3)[trial % 3]
            inst = random_instance(n, 1.0, delta, gen)
            targets = (
                spec(EQ_MED, delta=delta),
                spec(EQ_PH, delta=delta),
                GridAttackTarget(B=1.0, delta=delta, spacing=delta / 4),
                spec(MechanismKind.CONSTANT, delta=delta, location=0.3),
            )
            for s in targets:
                for agent in range(n):
                    rep = check_minimax_dominance(s, inst, agent)
                    own = inst.agents[agent]

                    def outcome(report):
                        return run_mechanism(s, inst.replace_agent(agent, report)).p

                    at_a = outcome(Interval(own.a, own.a))
                    at_b = outcome(Interval(own.b, own.b))
                    w = delta * gen.random(60)
                    lefts = (1.0 - w) * gen.random(60)
                    for a, b in zip(lefts.tolist(), (lefts + w).tolist()):
                        regret = agent_max_regret(
                            outcome(Interval(a, b)), own, at_a, at_b
                        )
                        assert regret >= rep.best_deviation_regret, (s, agent, a, b)


class TestDeviationGrid:
    @pytest.mark.parametrize("B,pitch,count", [
        (0.3, 0.1, 4), (0.7, 0.1, 8), (0.9, 0.3, 4),
    ])
    def test_candidates_stay_in_domain(self, B, pitch, count):
        # The last multiple of the pitch overshoots B (0.30000000000000004,
        # 0.7000000000000001) or undershoots it (0.8999999999999999); it is
        # pinned onto B instead of becoming an extra candidate.
        pts = DeviationGrid(endpoint_pitch=pitch).candidate_endpoints(B)
        assert all(0.0 <= x <= B for x in pts)
        assert max(pts) == B and len(pts) == count

    @pytest.mark.parametrize("pitch", [0.0, -0.1, math.inf, math.nan])
    def test_rejects_bad_pitch(self, pitch):
        with pytest.raises(ValueError, match="must be positive"):
            DeviationGrid(endpoint_pitch=pitch).candidate_endpoints(1.0)

    def test_refuses_pitch_beyond_cap(self, monkeypatch):
        monkeypatch.setattr(regret_module, "ORACLE_CAP", 50)
        with pytest.raises(OracleScaleError, match="oracle scale exceeded"):
            DeviationGrid(endpoint_pitch=0.01).candidate_endpoints(1.0)
        assert len(DeviationGrid(endpoint_pitch=0.05).candidate_endpoints(1.0)) == 21

    @pytest.mark.parametrize("B,delta,pitch", [
        (1.0, 0.2, 0.01), (1.0, 0.1, 0.005), (0.7, 0.3, 0.015), (2.5, 0.5, 0.05),
    ])
    @pytest.mark.parametrize("exact_only", [False, True])
    def test_deviations_counted_before_the_scan(
        self, B, delta, pitch, exact_only, monkeypatch
    ):
        # The count is that of the enumeration: a cap one below it refuses
        # before the first deviation is built, a cap equal to it does not.
        ends = DeviationGrid(endpoint_pitch=pitch).candidate_endpoints(B)
        total = sum(1 for _ in _enumerate_deviations(ends, delta, exact_only))
        monkeypatch.setattr(regret_module, "ORACLE_CAP", total)
        assert sum(1 for _ in _enumerate_deviations(ends, delta, exact_only)) == total
        monkeypatch.setattr(regret_module, "ORACLE_CAP", total - 1)
        with pytest.raises(OracleScaleError, match="a deviation scan over"):
            _enumerate_deviations(ends, delta, exact_only)

    def test_count_and_walk_agree_where_the_bound_rounds_onto_an_endpoint(
        self, monkeypatch
    ):
        # 0.1 + (0.3 + 1e-12) rounds onto 0.400000000001, yet the pair is
        # 0.300000000001 wide, beyond the limit: two deviations, not three.
        ends = (0.1, 0.400000000001)
        monkeypatch.setattr(regret_module, "ORACLE_CAP", 2)
        assert list(_enumerate_deviations(ends, 0.3, False)) == [
            Interval(0.1, 0.1), Interval(0.400000000001, 0.400000000001)
        ]

    def test_walk_touches_only_in_width_partners(self):
        sliced = []

        class Counted(tuple):
            def __getitem__(self, key):
                item = super().__getitem__(key)
                if isinstance(key, slice):
                    sliced.append(len(item))
                return item

        ends = Counted((i * 1e-4 for i in range(5_001)))
        deviations = list(_enumerate_deviations(ends, 2.5e-4, False))
        assert len(deviations) == 15_000
        assert sum(sliced) <= 2 * len(deviations)

    def test_audit_refuses_an_oversized_scan(self, monkeypatch):
        # 103 candidate endpoints with up to 21 partners each: 1 995
        # deviations, beyond a cap of 1 000 that the endpoints alone pass.
        monkeypatch.setattr(regret_module, "ORACLE_CAP", 1_000)
        inst = validate_instance(
            [(0.12, 0.28), (0.33, 0.47), (0.81, 0.99)], B=1, delta=0.2
        )
        with pytest.raises(OracleScaleError, match="more than 1000 reports"):
            check_minimax_dominance(spec(EQ_MED), inst, 0, grid=DeviationGrid(0.01))


class TestVeryWeakDominanceExact:
    def test_exact_median_truthful(self):
        s = spec(MechanismKind.EXACT_MEDIAN, delta=0.2)
        for agent in (0, 1, 2):
            rep = check_very_weak_dominance_exact(s, [0.2, 0.5, 0.9], agent)
            assert not rep.violated

    def test_constant_single_agent(self):
        s = spec(MechanismKind.CONSTANT, location=0.5)
        rep = check_very_weak_dominance_exact(s, [0.9], 0)
        assert not rep.violated

    def test_rejects_non_degenerate(self):
        s = spec(EQ_MED)
        inst = validate_instance([(0.1, 0.2)], B=1, delta=0.2)
        with pytest.raises(Exception):
            check_very_weak_dominance_exact(s, [(0.1, 0.2)], 0)

    def test_grid_median_exact_reports_clean(self, rng):
        # Exact reports are optimal per location even on finer grids.
        target = GridAttackTarget(B=1.0, delta=0.2, spacing=0.05)
        for _ in range(15):
            pts = [float(x) for x in rng.uniform(0, 1, 3)]
            for agent in range(3):
                rep = check_very_weak_dominance_exact(target, pts, agent)
                assert not rep.violated


class TestVwdChain:
    def test_example_chain(self):
        script = gen_vwd_chain(B=1.0, delta=0.2, eps=0.05, eps1=0.01, n=3)
        first = script.instances[0]
        assert all(iv == Interval(0.0, 0.05) for iv in first.agents)
        second = script.instances[1]
        assert second.agents[0] == Interval(0.04, 0.24)
        last = script.instances[-1]
        assert all(iv == Interval(0.99, 1.0) for iv in last.agents)

    def test_consecutive_instances_overlap_in_one_agent(self):
        script = gen_vwd_chain(B=1.0, delta=0.3, eps=0.1, eps1=0.02, n=2)
        for s, t in zip(script.instances, script.instances[1:]):
            moved = [i for i in range(s.n) if s.agents[i] != t.agents[i]]
            assert len(moved) == 1
            i = moved[0]
            lo = max(s.agents[i].a, t.agents[i].a)
            hi = min(s.agents[i].b, t.agents[i].b)
            assert hi - lo > 0  # overlap in more than one point

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_vwd_chain(B=1.0, delta=0.2, eps=0.3, eps1=0.01)
        with pytest.raises(ValueError):
            gen_vwd_chain(B=1.0, delta=0.2, eps=0.05, eps1=0.05)

    @pytest.mark.parametrize("B,delta,eps,eps1,n", [
        (1.0, 0.2, 0.05, 0.01, 3), (1.0, 0.3, 0.1, 0.02, 2),
        (2.5, 0.2, 0.15, 0.1, 4), (0.95, 0.19, 0.05, 0.04, 1),
    ])
    def test_report_count_is_bounded_from_the_widths(self, B, delta, eps, eps1, n):
        script = gen_vwd_chain(B=B, delta=delta, eps=eps, eps1=eps1, n=n)
        steps = (B - eps) / (delta - eps1) + 2
        assert sum(inst.n for inst in script.instances) <= n * (1 + n * steps)

    def test_refuses_chain_beyond_cap(self, monkeypatch):
        with pytest.raises(OracleScaleError, match="oracle scale exceeded"):
            gen_vwd_chain(B=1e12, delta=0.2, eps=0.05, eps1=0.01)
        monkeypatch.setattr(regret_module, "ORACLE_CAP", 50)
        with pytest.raises(OracleScaleError):
            gen_vwd_chain(B=1.0, delta=0.2, eps=0.05, eps1=0.01, n=3)
        assert gen_vwd_chain(B=1.0, delta=0.2, eps=0.05, eps1=0.01, n=2).instances


class TestFiniteRangeAttack:
    def test_case_one_ladder(self):
        script = gen_finite_range_attack(
            (0.0, 0.1, 0.2, 0.3), 0.02, 5, "one", B=1.0, delta=0.2
        )
        l0 = script.instances[0]
        assert [iv.a for iv in l0.agents] == [0.0, 0.0, 0.0, 0.1, 0.1]
        assert all(iv.is_exact for iv in l0.agents)
        l1 = script.instances[1]
        assert l1.agents[0] == Interval(0.0, 0.08)
        assert len(script.instances) == 4  # k+1 widenings after the base

    def test_case_two_ladder(self):
        script = gen_finite_range_attack(
            (0.0, 0.1, 0.2, 0.3), 0.02, 5, "two", B=1.0, delta=0.2
        )
        l1 = script.instances[1]
        assert l1.agents[-1] == Interval(0.02, 0.1)

    def test_rejects_oversized_gamma(self):
        with pytest.raises(ValueError):
            gen_finite_range_attack(
                (0.0, 0.1, 0.2, 0.3), 0.05, 5, "one", B=1.0, delta=0.2
            )


    def test_rejects_unknown_case(self):
        with pytest.raises(ValueError, match="case must be 'one' or 'two'"):
            gen_finite_range_attack(
                (0.0, 0.1, 0.2, 0.3), 0.02, 5, "three", B=1.0, delta=0.2
            )

class TestOntoAttack:
    def test_example_profiles(self):
        script = gen_onto_attack(0.2, 0.3, 0.38, 0.02, 4, B=1.0, delta=0.1)
        l0 = script.instances[0]
        a = script.params["agent_a"]
        b = script.params["agent_b"]
        assert l0.agents[a] == Interval(0.3, 0.38)
        assert l0.agents[b].a == pytest.approx(0.32)
        l3 = script.instances[3]
        assert l3.agents[b].a == pytest.approx(2 * 0.32 - 0.3)

    def test_rejects_wide_interval(self):
        with pytest.raises(ValueError):
            gen_onto_attack(0.2, 0.3, 0.45, 0.02, 4, B=1.0, delta=0.1)

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            gen_onto_attack(0.5, 0.3, 0.38, 0.02, 4, B=1.0, delta=0.1)


class TestFineGridAttack:
    def test_audit_finds_violation(self):
        script = gen_fine_grid_attack(B=1.0, delta=0.2, spacing=0.05, n=3)
        target = GridAttackTarget(B=1.0, delta=0.2, spacing=0.05)
        inst = script.instances[0]
        rep = check_minimax_dominance(
            target, inst, script.params["wide_agent"], grid=DeviationGrid(0.01)
        )
        assert rep.violated
        assert rep.gain > 0.01

    def test_instances_validate(self):
        script = gen_fine_grid_attack(B=1.0, delta=0.2, spacing=0.04, n=5)
        for inst in script.instances:
            rebuilt = validate_instance(
                [(iv.a, iv.b) for iv in inst.agents], inst.B, inst.delta
            )
            assert rebuilt == inst

    def test_rejects_legal_spacing(self):
        with pytest.raises(ValueError):
            gen_fine_grid_attack(B=1.0, delta=0.2, spacing=0.1, n=3)

    def test_rejects_spacing_too_fine_for_the_domain(self):
        with pytest.raises(ValueError, match="too fine"):
            gen_fine_grid_attack(B=1e300, delta=1e300, spacing=1e-300, n=3)


    @pytest.mark.parametrize("B,delta,spacing,message", [
        (1.0, 1.0, 0.2, "domain too short for the construction"),
        (1.0, 0.20005, 0.1, "width bound too tight for a four-point cover"),
        (1.0, 0.5, 0.16, "domain too short for the pinning agents"),
    ], ids=["construction", "four-point-cover", "pinning-agents"])
    def test_rejects_shapes_it_cannot_build(self, B, delta, spacing, message):
        with pytest.raises(ValueError, match=message):
            gen_fine_grid_attack(B=B, delta=delta, spacing=spacing, n=3)

class TestGeneratedInstancesValidate:
    def test_all_families(self):
        scripts = [
            gen_vwd_chain(1.0, 0.2, 0.05, 0.01, n=2),
            gen_finite_range_attack((0.0, 0.1, 0.2, 0.3), 0.01, 5, "one", 1.0, 0.2),
            gen_finite_range_attack((0.0, 0.1, 0.2, 0.3), 0.01, 5, "two", 1.0, 0.2),
            gen_onto_attack(0.2, 0.3, 0.38, 0.02, 4, 1.0, 0.1),
            gen_fine_grid_attack(1.0, 0.2, 0.05, n=3),
        ]
        for script in scripts:
            for inst in script.instances:
                rebuilt = validate_instance(
                    [(iv.a, iv.b) for iv in inst.agents], inst.B, inst.delta
                )
                assert rebuilt.n == inst.n


@pytest.mark.parametrize("B,delta", [
    (math.inf, 0.2), (math.nan, 0.2), (-1.0, 0.2), (0.0, 0.0),
    (1.0, math.nan), (1.0, math.inf), (1.0, 2.0),
], ids=["B-inf", "B-nan", "B-negative", "B-zero", "delta-nan", "delta-inf",
        "delta-above-B"])
@pytest.mark.parametrize("make", [
    lambda B, delta: gen_vwd_chain(B, delta, 0.05, 0.01),
    lambda B, delta: gen_finite_range_attack(
        (0.0, 0.1, 0.2, 0.3), 0.01, 5, "one", B, delta
    ),
    lambda B, delta: gen_onto_attack(0.2, 0.3, 0.38, 0.02, 4, B, delta),
    lambda B, delta: gen_fine_grid_attack(B, delta, 0.05),
], ids=["vwd-chain", "finite-range", "onto", "fine-grid"])
def test_generators_check_the_domain_first(make, B, delta):
    with pytest.raises(InvalidInstanceError):
        make(B, delta)
