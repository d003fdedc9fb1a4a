import math
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

import robustloc.regret as regret_module
from robustloc import (
    Objective,
    OracleScaleError,
    RegretEvaluation,
    SolveResult,
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
from robustloc.regret import _lattice_steps

AVG = Objective.AVG_COST
MC = Objective.MAX_COST


# Scalar references: the breakpoint sweep, its evaluators and the grid
# search as one Python loop over floats each, with bisect on sorted lists.
# The library scores the same points with the same elementwise arithmetic
# on arrays, so the two must agree bit for bit.


class ScalarView:
    """The sorted endpoint view as lists of Python floats."""

    def __init__(self, instance):
        se = sorted_endpoints(instance)
        self.L, self.R = se.L.tolist(), se.R.tolist()
        self.sum_L, self.sum_R = se.sum_L.tolist(), se.sum_R.tolist()
        self.k, self.n = se.k, se.n


class ScalarAvgCost:
    def __init__(self, se):
        self.se, self.n, self.k = se, se.n, se.k
        self.c1 = se.n - 2 * se.k
        self.c2 = 2 * (se.k + 1) - se.n

    def components(self, p):
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

    def value(self, p):
        return max(*self.components(p))


class ScalarMaxCost:
    def __init__(self, se):
        self.right = (se.R[0] + se.R[-1]) / 2.0
        self.left = (se.L[0] + se.L[-1]) / 2.0

    def components(self, p):
        return max(0.0, self.right - p), max(0.0, p - self.left)

    def value(self, p):
        return max(0.0, self.right - p, p - self.left)


def scalar_first_minimum(points, ev):
    p = min(points, key=ev.value)
    o1, o2 = ev.components(p)
    cert = RegretEvaluation(p=p, value=max(o1, o2), obj1=o1, obj2=o2)
    return SolveResult(p_opt=cert.p, omv=cert.value, certificate=cert)


def scalar_breakpoint_state(instance):
    se = ScalarView(instance)
    k, n = se.k, se.n
    lo, hi = se.L[k], se.R[k]
    cands = {lo, hi}
    cands.update(r for r in se.R[: k + 1] if lo < r < hi)
    cands.update(v for v in se.L[k:] if lo < v < hi)
    H = sorted(cands)
    xs, ys, s1s, s2s = [], [], [], []
    for h in H:
        j0 = bisect_left(se.R, h, 0, k)
        xs.append(k - j0)
        s1s.append(se.sum_R[k] - se.sum_R[j0])
        h0 = bisect_right(se.L, h, k + 1, n)
        ys.append(h0 - (k + 1))
        s2s.append(se.sum_L[h0] - se.sum_L[k + 1])
    return H, xs, ys, s1s, s2s


def scalar_solve_avgcost(instance):
    se = ScalarView(instance)
    ev = ScalarAvgCost(se)
    H, xs, ys, s1s, s2s = scalar_breakpoint_state(instance)
    candidates = list(H)
    for i in range(len(H) - 1):
        a1 = 2.0 * s1s[i + 1] + ev.c1 * se.R[se.k]
        b1 = 2.0 * xs[i + 1] + ev.c1
        a2 = 2.0 * s2s[i] + ev.c2 * se.L[se.k]
        b2 = 2.0 * ys[i] + ev.c2
        p_cross = (a1 + a2) / (b1 + b2)
        if H[i] < p_cross < H[i + 1]:
            candidates.append(p_cross)
    return scalar_first_minimum(sorted(candidates), ev)


def scalar_grid_search(instance, objective, step):
    se = ScalarView(instance)
    m = _lattice_steps(instance.B, step)
    points = set(float(v) for v in np.arange(m + 1) * step)
    points.add(instance.B)
    points.update(se.L)
    points.update(se.R)
    in_domain = sorted(p for p in points if 0.0 <= p <= instance.B)
    ev = ScalarAvgCost(se) if objective is AVG else ScalarMaxCost(se)
    return scalar_first_minimum(in_domain, ev)


def bits(result):
    """``(p_opt, omv, obj1, obj2)`` as exact hex strings, which tell -0.0
    from 0.0; every one must be a Python float."""
    cert = result.certificate
    values = (result.p_opt, result.omv, cert.obj1, cert.obj2)
    assert all(type(v) is float for v in values + (cert.p, cert.value))
    return tuple(v.hex() for v in values)


def parity_instances():
    """3 120 seeded instances, n from 1 to 39 and delta in {0, 0.05, 0.3, 1},
    then profiles with signed zeros, duplicate endpoints and n of 1 and 2."""
    gen = np.random.Generator(np.random.PCG64(20261018))
    for n in range(1, 40):
        for delta in (0.0, 0.05, 0.3, 1.0):
            for _ in range(20):
                yield random_instance(n, 1.0, delta, gen)
    for _ in range(400):
        n = int(gen.integers(1, 12))
        delta = float(gen.choice([0.0, 0.1, 0.3]))
        # Endpoints on a coarse lattice repeat; zeros get a random sign.
        a = np.round(gen.uniform(0.0, 1.0 - delta, n) * 8) / 8
        w = np.round(gen.uniform(0.0, delta, n) * 40) / 40
        ends = np.column_stack((a, np.minimum(a + w, 1.0)))
        ends[ends == 0.0] = gen.choice([0.0, -0.0], size=int((ends == 0.0).sum()))
        yield validate_instance(ends, B=1.0, delta=delta)
    yield validate_instance([(-0.0, 0.0)], B=1.0, delta=0.0)
    yield validate_instance([(-0.0, -0.0)], B=1.0, delta=0.0)
    yield validate_instance([(0.0, 0.0), (-0.0, -0.0)], B=1.0, delta=0.0)
    yield validate_instance([(-0.0, 0.0), (0.0, -0.0), (-0.0, 0.2)], B=1.0, delta=0.2)
    yield validate_instance([(0.1, 0.2), (0.1, 0.2)], B=1.0, delta=0.1)
    yield validate_instance([(0.3, 0.3)], B=1.0, delta=0.0)
    yield validate_instance([(0.0, 0.25), (0.25, 0.5)], B=1.0, delta=0.25)


class TestScalarParity:
    """The array sweep, breakpoints and grid search against the scalar references."""

    def test_solver_and_breakpoints_bit_for_bit(self):
        checked = 0
        for inst in parity_instances():
            assert bits(solve_minimax_avgcost(inst)) == bits(scalar_solve_avgcost(inst))
            state = breakpoint_state(inst)
            got = (state.H.tolist(), state.x.tolist(), state.y.tolist(),
                   state.S1.tolist(), state.S2.tolist())
            want = scalar_breakpoint_state(inst)
            assert [[v.hex() if isinstance(v, float) else v for v in field]
                    for field in got] == [
                   [v.hex() if isinstance(v, float) else v for v in field]
                   for field in want]
            checked += 1
        assert checked >= 3000

    @pytest.mark.parametrize("objective", [AVG, MC])
    def test_grid_search_bit_for_bit(self, objective):
        for i, inst in enumerate(parity_instances()):
            if i % 10 == 0 or inst.n <= 3:
                got = grid_search_minimax(inst, objective, step=0.01)
                assert bits(got) == bits(scalar_grid_search(inst, objective, 0.01))

    def test_no_negative_zero_comes_out(self):
        # Validation reads -0.0 as 0.0, so neither the sorted view nor any
        # solver's point or certificate holds a -0.0.
        for raw, delta in (([(-0.0, 0.0)], 0.0), ([(-0.0, -0.0)], 0.0),
                           ([(0.0, 0.0), (-0.0, -0.0)], 0.0),
                           ([(-0.0, 0.0), (0.0, -0.0), (-0.0, 0.2)], 0.2)):
            inst = validate_instance(raw, B=1.0, delta=delta)
            se = sorted_endpoints(inst)
            values = se.L.tolist() + se.R.tolist()
            for result in (solve_minimax_avgcost(inst), solve_minimax_maxcost(inst),
                           grid_search_minimax(inst, AVG, step=0.25),
                           grid_search_minimax(inst, MC, step=0.25)):
                cert = result.certificate
                values += [result.p_opt, result.omv, cert.p, cert.obj1, cert.obj2]
            assert 0.0 in values
            assert all(math.copysign(1.0, v) == 1.0 for v in values)

    @pytest.mark.parametrize("objective,evaluate", [
        (AVG, avgcost_max_regret), (MC, maxcost_max_regret),
    ])
    def test_closed_forms_return_floats_bit_for_bit(self, objective, evaluate, rng):
        for _ in range(200):
            inst = random_instance(int(rng.integers(1, 12)), 1.0, 0.3, rng)
            se = ScalarView(inst)
            ev = ScalarAvgCost(se) if objective is AVG else ScalarMaxCost(se)
            for p in rng.uniform(-0.1, 1.1, 5).tolist() + se.L + se.R:
                got = evaluate(inst, p)
                o1, o2 = ev.components(p)
                want = (p, max(o1, o2), o1, o2)
                values = (got.p, got.value, got.obj1, got.obj2)
                assert all(type(v) is float for v in values)
                assert [v.hex() for v in values] == [v.hex() for v in want]


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
