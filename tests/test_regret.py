import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import robustloc.regret as regret_module
from robustloc import (
    Interval,
    Objective,
    OracleScaleError,
    agent_max_regret,
    avgcost_max_regret,
    brute_force_max_regret,
    brute_force_max_regret_batch,
    maxcost_max_regret,
    random_instance,
    regret_of,
    validate_instance,
)

AVG = Objective.AVG_COST
MC = Objective.MAX_COST


def uniform_instance(pairs, B=1.0, delta=None):
    if delta is None:
        delta = max(b - a for a, b in pairs)
    return validate_instance(pairs, B=B, delta=delta)


class TestRegretOf:
    def test_avg_two_agents_at_origin(self):
        inst = validate_instance([(0, 0), (0, 0)], B=1, delta=0)
        assert regret_of(inst, [0.0, 0.0], 1.0, AVG) == pytest.approx(1.0)

    def test_max_at_midpoint_is_zero(self):
        inst = validate_instance([(0, 0), (1, 1)], B=1, delta=0)
        assert regret_of(inst, [0.0, 1.0], 0.5, MC) == 0.0

    def test_avg_three_points(self):
        inst = validate_instance(
            [(0.1, 0.1), (0.5, 0.5), (1.0, 1.0)], B=1, delta=0
        )
        got = regret_of(inst, [0.1, 0.5, 1.0], 0.45, AVG)
        assert got == pytest.approx(0.0166667, abs=1e-6)

    def test_rejects_wrong_length(self):
        inst = validate_instance([(0, 0), (1, 1)], B=1, delta=0)
        with pytest.raises(ValueError):
            regret_of(inst, [0.5], 0.5, AVG)

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=7),
        st.floats(0, 1, allow_nan=False),
    )
    def test_nonnegative(self, points, p):
        inst = validate_instance([(x, x) for x in points], B=1, delta=0)
        assert regret_of(inst, points, p, AVG) >= 0.0
        assert regret_of(inst, points, p, MC) >= 0.0


class TestAvgCostMaxRegret:
    def test_identical_intervals(self):
        inst = uniform_instance([(0, 0.3)] * 3)
        ev = avgcost_max_regret(inst, 0.15)
        assert ev.obj1 == pytest.approx(0.15)
        assert ev.obj2 == pytest.approx(0.15)
        assert ev.value == pytest.approx(0.15)

    def test_component_fallback_indices(self):
        inst = uniform_instance([(0, 0.1), (0.4, 0.5), (0.9, 1.0)])
        ev = avgcost_max_regret(inst, 0.5)
        assert ev.obj1 == 0.0
        assert ev.obj2 == pytest.approx(0.1 / 3)

    def test_single_agent_worst_realization(self):
        inst = uniform_instance([(0, 1)])
        ev = avgcost_max_regret(inst, 0.0)
        assert ev.obj1 == pytest.approx(1.0)
        assert ev.obj2 == 0.0
        assert ev.value == pytest.approx(1.0)

    def test_value_is_max_of_clamped_components(self):
        inst = uniform_instance([(0.2, 0.4), (0.5, 0.7)])
        for p in np.linspace(0, 1, 21):
            ev = avgcost_max_regret(inst, p)
            assert ev.obj1 >= 0 and ev.obj2 >= 0
            assert ev.value == max(ev.obj1, ev.obj2)

    def test_component_monotonicity(self):
        inst = uniform_instance([(0.1, 0.25), (0.3, 0.45), (0.6, 0.75)])
        ps = np.linspace(0, 1, 101)
        evs = [avgcost_max_regret(inst, p) for p in ps]
        for a, b in zip(evs, evs[1:]):
            assert b.obj1 <= a.obj1 + 1e-12
            assert b.obj2 >= a.obj2 - 1e-12


class TestMaxCostMaxRegret:
    def test_two_intervals(self):
        inst = validate_instance([(0, 1), (3, 4)], B=4, delta=1)
        ev = maxcost_max_regret(inst, 2.0)
        assert ev.obj1 == pytest.approx(0.5)
        assert ev.obj2 == pytest.approx(0.5)

    def test_single_agent(self):
        inst = uniform_instance([(0, 1)])
        ev = maxcost_max_regret(inst, 0.0)
        assert ev.obj1 == pytest.approx(1.0) and ev.obj2 == 0.0

    def test_exact_report_at_point(self):
        inst = validate_instance([(0.5, 0.5)], B=1, delta=0)
        assert maxcost_max_regret(inst, 0.5).value == 0.0

    def test_component_monotonicity(self):
        inst = uniform_instance([(0.1, 0.25), (0.6, 0.75)])
        ps = np.linspace(0, 1, 51)
        evs = [maxcost_max_regret(inst, p) for p in ps]
        for a, b in zip(evs, evs[1:]):
            assert b.obj1 <= a.obj1 + 1e-12
            assert b.obj2 >= a.obj2 - 1e-12


class TestBruteForceOracle:
    def test_matches_formula_on_endpoint_extrema(self):
        inst = uniform_instance([(0, 0.3)] * 3)
        got = brute_force_max_regret(inst, 0.15, AVG, step=0.05)
        assert got == pytest.approx(0.15, abs=1e-12)

    def test_maxcost_attains_corner(self):
        inst = validate_instance([(0, 1), (3, 4)], B=4, delta=1)
        got = brute_force_max_regret(inst, 2.0, MC, step=0.25)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_instance_single_realization(self):
        inst = validate_instance([(0.2, 0.2), (0.8, 0.8)], B=1, delta=0)
        got = brute_force_max_regret(inst, 0.4, AVG, step=0.1)
        assert got == pytest.approx(regret_of(inst, [0.2, 0.8], 0.4, AVG))

    def test_rejects_bad_step(self):
        inst = uniform_instance([(0, 0.3)])
        with pytest.raises(ValueError):
            brute_force_max_regret(inst, 0.1, AVG, step=0.0)

    def test_refuses_oversized_enumeration(self):
        inst = uniform_instance([(0, 0.5)] * 5, delta=0.5)
        with pytest.raises(OracleScaleError, match="oracle scale exceeded"):
            brute_force_max_regret(inst, 0.3, AVG, step=1e-4)

    @pytest.mark.parametrize("step", [-0.01, math.inf, math.nan])
    def test_rejects_non_finite_or_negative_step(self, step):
        inst = uniform_instance([(0, 0.3)])
        with pytest.raises(ValueError, match="must be positive and finite"):
            brute_force_max_regret(inst, 0.1, AVG, step=step)

    def test_refuses_before_building_any_lattice(self, monkeypatch):
        built = []
        real = regret_module._interval_lattice

        def recording(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(regret_module, "_interval_lattice", recording)
        inst = uniform_instance([(0, 0.5)] * 3, delta=0.5)  # 51**3 vectors
        monkeypatch.setattr(regret_module, "ORACLE_CAP", 51**3 - 1)
        with pytest.raises(OracleScaleError, match="oracle scale exceeded"):
            brute_force_max_regret(inst, 0.3, AVG, step=0.01)
        assert built == []
        monkeypatch.setattr(regret_module, "ORACLE_CAP", 51**3)
        brute_force_max_regret(inst, 0.3, AVG, step=0.01)
        assert len(built) == 3

    def test_batch_matches_single(self):
        inst = uniform_instance([(0.1, 0.3), (0.5, 0.6)])
        ps = [0.0, 0.25, 0.7]
        batch = brute_force_max_regret_batch(inst, ps, AVG, step=0.02)
        singles = [brute_force_max_regret(inst, p, AVG, step=0.02) for p in ps]
        assert batch == singles

    def test_never_exceeds_closed_formula(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 4))
            inst = random_instance(n, 1.0, 0.2, rng)
            p = float(rng.uniform(0, 1))
            oracle = brute_force_max_regret(inst, p, AVG, step=0.01)
            closed = avgcost_max_regret(inst, p).value
            assert oracle <= closed + 1e-9
            assert closed - oracle <= 2 * 0.01

    def test_even_n_agreement(self, rng):
        # The even-profile component coefficients are asymmetric; enumeration
        # is the authority for them.
        for _ in range(40):
            n = int(rng.choice([2, 4]))
            inst = random_instance(n, 1.0, 0.15, rng)
            p = float(rng.uniform(0, 1))
            oracle = brute_force_max_regret(inst, p, AVG, step=0.005)
            closed = avgcost_max_regret(inst, p).value
            assert abs(closed - oracle) <= 2 * 0.005


class TestAgentMaxRegret:
    def test_endpoint_arithmetic(self):
        iv = Interval(0.12, 0.18)
        got = agent_max_regret(0.1, {0.12: 0.1, 0.18: 0.2}, iv)
        assert got == pytest.approx(0.06)

    def test_zero_when_outcome_matches_responses(self):
        iv = Interval(0.12, 0.18)
        assert agent_max_regret(0.1, {0.12: 0.1, 0.18: 0.1}, iv) == 0.0

    def test_zero_when_reports_cannot_move_outcome(self):
        iv = Interval(0.33, 0.47)
        assert agent_max_regret(0.4, {0.33: 0.4, 0.47: 0.4}, iv) == 0.0

    def test_missing_endpoint_response(self):
        with pytest.raises(ValueError, match="missing endpoint"):
            agent_max_regret(0.1, {0.12: 0.1}, Interval(0.12, 0.18))

    def test_fallback_needs_step_and_map(self):
        iv = Interval(0.1, 0.2)
        with pytest.raises(ValueError):
            agent_max_regret(0.1, {0.1: 0.1}, iv, endpoint_shortcut=False)

    def test_fallback_matches_shortcut_when_valid(self):
        # When exact reports are optimal per location, the sampled maximum
        # sits at an endpoint and the two modes agree.
        iv = Interval(0.2, 0.4)
        responses = {0.2: 0.2, 0.3: 0.3, 0.4: 0.4}
        fast = agent_max_regret(0.3, {0.2: 0.2, 0.4: 0.4}, iv)
        slow = agent_max_regret(
            0.3, responses, iv, endpoint_shortcut=False, sample_step=0.01
        )
        assert slow == pytest.approx(fast, abs=1e-12)
