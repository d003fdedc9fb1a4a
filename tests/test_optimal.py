import math

import pytest

import robustloc.regret as regret_module
from robustloc import (
    Objective,
    OracleScaleError,
    maxcost_max_regret,
    avgcost_max_regret,
    breakpoint_state,
    grid_search_minimax,
    random_instance,
    solve_minimax_avgcost,
    solve_minimax_maxcost,
    sorted_endpoints,
    validate_instance,
)

AVG = Objective.AVG_COST
MC = Objective.MAX_COST


class TestSolveAvgCost:
    def test_identical_intervals(self):
        inst = validate_instance([(0, 0.3)] * 3, B=1, delta=0.3)
        res = solve_minimax_avgcost(inst)
        assert res.p_opt == pytest.approx(0.15)
        assert res.omv == pytest.approx(0.15)
        assert res.certificate.value == res.omv

    def test_interior_crossing(self):
        inst = validate_instance(
            [(0, 0.1), (0.4, 0.5), (0.9, 1.0)], B=1, delta=0.1
        )
        res = solve_minimax_avgcost(inst)
        assert res.p_opt == pytest.approx(0.45)
        # components (0.5 - p)/3 and (p - 0.4)/3 cross at 0.45 with value 0.05/3
        assert res.omv == pytest.approx(0.05 / 3)

    def test_degenerate_reports_zero_regret(self):
        inst = validate_instance(
            [(0.2, 0.2), (0.5, 0.5), (0.9, 0.9)], B=1, delta=0
        )
        res = solve_minimax_avgcost(inst)
        assert res.p_opt == pytest.approx(0.5)
        assert res.omv == pytest.approx(0.0, abs=1e-15)

    def test_optimum_in_median_envelope(self, rng):
        for _ in range(150):
            n = int(rng.integers(1, 10))
            delta = float(rng.choice([0.05, 0.15, 0.3]))
            inst = random_instance(n, 1.0, delta, rng)
            res = solve_minimax_avgcost(inst)
            se = sorted_endpoints(inst)
            assert se.L[se.k] - 1e-12 <= res.p_opt <= se.R[se.k] + 1e-12

    def test_components_balance_at_interior_optimum(self, rng):
        for _ in range(120):
            n = int(rng.choice([1, 3, 5, 7]))
            inst = random_instance(n, 1.0, 0.25, rng)
            res = solve_minimax_avgcost(inst)
            se = sorted_endpoints(inst)
            if se.L[se.k] + 1e-9 < res.p_opt < se.R[se.k] - 1e-9:
                cert = res.certificate
                assert abs(cert.obj1 - cert.obj2) <= 1e-9

    def test_no_breakpoint_beats_returned_optimum(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 8))
            inst = random_instance(n, 1.0, 0.2, rng)
            res = solve_minimax_avgcost(inst)
            for h in breakpoint_state(inst).H:
                assert avgcost_max_regret(inst, h).value >= res.omv - 1e-12

    def test_breakpoint_counters_are_monotone(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 10))
            inst = random_instance(n, 1.0, 0.3, rng)
            state = breakpoint_state(inst)
            assert list(state.x) == sorted(state.x, reverse=True)
            assert list(state.y) == sorted(state.y)


class TestSolveMaxCost:
    def test_two_intervals(self):
        inst = validate_instance([(0, 1), (3, 4)], B=4, delta=1)
        res = solve_minimax_maxcost(inst)
        assert res.p_opt == pytest.approx(2.0)
        assert res.omv == pytest.approx(0.5)

    def test_single_exact_agent(self):
        inst = validate_instance([(0.4, 0.4)], B=1, delta=0)
        res = solve_minimax_maxcost(inst)
        assert res.p_opt == pytest.approx(0.4)
        assert res.omv == 0.0

    def test_quarter_combination(self):
        inst = validate_instance([(0, 0.3), (0.6, 0.9)], B=1, delta=0.3)
        res = solve_minimax_maxcost(inst)
        assert res.p_opt == pytest.approx((0 + 0.3 + 0.6 + 0.9) / 4)
        assert res.omv == pytest.approx((0.3 + 0.9 - 0 - 0.6) / 4)

    def test_components_balance_exactly(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            inst = random_instance(n, 1.0, 0.3, rng)
            cert = solve_minimax_maxcost(inst).certificate
            if 1e-9 < cert.p < 1.0 - 1e-9:
                assert abs(cert.obj1 - cert.obj2) <= 1e-12


class TestGridSearch:
    def test_close_to_exact_solver(self):
        inst = validate_instance([(0, 0.3)] * 3, B=1, delta=0.3)
        res = grid_search_minimax(inst, AVG, step=0.01)
        assert 0.14 <= res.p_opt <= 0.16
        assert abs(res.omv - 0.15) <= 0.01

    def test_maxcost_exact_hit(self):
        inst = validate_instance([(0, 1), (3, 4)], B=4, delta=1)
        res = grid_search_minimax(inst, MC, step=0.05)
        assert res.p_opt == pytest.approx(2.0)
        assert res.omv == pytest.approx(0.5)

    def test_degenerate_zero(self):
        inst = validate_instance([(0.2, 0.2), (0.5, 0.5), (0.8, 0.8)], B=1, delta=0)
        res = grid_search_minimax(inst, AVG, step=0.01)
        assert res.omv == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_step(self):
        inst = validate_instance([(0, 0.1)], B=1, delta=0.1)
        with pytest.raises(ValueError):
            grid_search_minimax(inst, AVG, step=-1)

    @pytest.mark.parametrize("step", [math.inf, math.nan])
    def test_rejects_non_finite_step(self, step):
        inst = validate_instance([(0, 0.1)], B=1, delta=0.1)
        with pytest.raises(ValueError, match="must be positive and finite"):
            grid_search_minimax(inst, AVG, step=step)

    def test_refuses_sweep_beyond_cap(self, monkeypatch):
        monkeypatch.setattr(regret_module, "ORACLE_CAP", 100)
        inst = validate_instance([(0, 0.1)], B=1, delta=0.1)
        with pytest.raises(OracleScaleError, match="oracle scale exceeded"):
            grid_search_minimax(inst, AVG, step=0.01)  # 101 multiples
        assert grid_search_minimax(inst, AVG, step=0.0101).omv >= 0.0

    @pytest.mark.parametrize("objective,evaluate", [
        (AVG, avgcost_max_regret), (MC, maxcost_max_regret),
    ])
    def test_certificate_is_the_closed_form_at_the_argmin(
        self, objective, evaluate, rng
    ):
        for _ in range(20):
            inst = random_instance(int(rng.integers(1, 8)), 1.0, 0.2, rng)
            res = grid_search_minimax(inst, objective, step=0.01)
            assert res.certificate == evaluate(inst, res.p_opt)
            assert res.omv == res.certificate.value

    def test_solver_agreement_both_parities(self, rng):
        for _ in range(80):
            n = int(rng.integers(1, 9))
            delta = float(rng.choice([0.1, 0.25]))
            inst = random_instance(n, 1.0, delta, rng)
            exact = solve_minimax_avgcost(inst)
            swept = grid_search_minimax(inst, AVG, step=1e-3)
            assert exact.omv <= swept.omv + 1e-12
            assert swept.omv - exact.omv <= 1e-3
