import itertools
import math
import tracemalloc

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
from test_dominance import sampled_agent_max_regret

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


def _matrix_reference(instance, ps, objective, step):
    """The realization-matrix loop the oracle replaced, kept as its reference.

    It gathers every realization vector as a row, sorts the rows and sums
    them with numpy, chunk by chunk.
    """
    sizes = [regret_module._lattice_size(iv, step) for iv in instance.agents]
    total = math.prod(sizes)
    lattices = [regret_module._interval_lattice(iv, step) for iv in instance.agents]
    n = instance.n
    m = n // 2
    p_arr = np.asarray(ps, dtype=float)
    best = np.full(len(p_arr), -math.inf)
    strides = [1] * n
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    chunk = 1 << 18
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.arange(start, stop)
        mat = np.empty((stop - start, n))
        for col in range(n):
            mat[:, col] = lattices[col][(idx // strides[col]) % sizes[col]]
        srt = np.sort(mat, axis=1)
        if objective is AVG:
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


def _vectors(instance, step):
    return math.prod(regret_module._lattice_size(iv, step) for iv in instance.agents)


def _suite(seed, count, n_choices, delta_choices):
    gen = np.random.Generator(np.random.PCG64(seed))
    combos = list(itertools.product(n_choices, delta_choices))
    for i in range(count):
        n, delta = combos[i % len(combos)]
        inst = random_instance(n, 1.0, delta, gen)
        yield inst, [float(p) for p in gen.uniform(0.0, 1.0, size=5)]


def _mostly_exact(seed, n, varying):
    """n agents of which only ``varying`` keep their interval."""
    gen = np.random.Generator(np.random.PCG64(seed))
    inst = random_instance(n, 1.0, 0.1, gen)
    keep = set(gen.permutation(n)[:varying].tolist())
    ends = enumerate(zip(inst.lefts, inst.rights))
    pairs = [(a, b if i in keep else a) for i, (a, b) in ends]
    return validate_instance(pairs, B=1.0, delta=0.1), [0.0, 0.3, 0.5, 0.71, 1.0]


class TestMatrixReference:
    """The oracle gives the matrix loop's floats, bit for bit."""

    def assert_same(self, inst, ps, step=0.01):
        for objective in (AVG, MC):
            got = brute_force_max_regret_batch(inst, ps, objective, step)
            assert all(type(v) is float for v in got)
            assert got == _matrix_reference(inst, ps, objective, step)

    def test_criterion_1_suite(self):
        # Lattices beyond two full blocks (12 of the 200) are left out: they
        # run the same blocks, only more of them, and cost the reference
        # over 30 s.  The forced small blocks below cover multi-block runs.
        checked = 0
        for inst, ps in _suite(20250809, 200, (1, 3, 5), (0.05, 0.1, 0.3)):
            if _vectors(inst, 0.01) <= 2 * regret_module._CHUNK_ROWS:
                self.assert_same(inst, ps)
                checked += 1
        assert checked == 188

    def test_even_n(self):
        for inst, ps in _suite(4242, 24, (2, 4, 6), (0.05, 0.1)):
            self.assert_same(inst, ps)

    @pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 16, 17])
    def test_many_agents_most_exact(self, n):
        # n >= 16 puts eight or more terms in each half of the median sums.
        for seed in range(3):
            self.assert_same(*_mostly_exact(seed, n, varying=3))

    def test_exact_reports_and_negative_zero(self):
        inst = validate_instance([(0.2, 0.2), (0.9, 0.9), (-0.0, -0.0)], B=1, delta=0)
        self.assert_same(inst, [0.0, -0.0, 0.2, 0.5, 1.0])
        inst = validate_instance(
            [(-0.0, 0.1), (-0.0, -0.0), (0.3, 0.35)], B=1, delta=0.1
        )
        self.assert_same(inst, [0.0, -0.0, 0.1, 0.3, 1.0])

    def test_one_agent_beyond_a_block(self):
        inst = uniform_instance([(0.1, 0.5)])
        assert _vectors(inst, 1e-6) > regret_module._CHUNK_ROWS
        self.assert_same(inst, [0.0, 0.3, 0.9], step=1e-6)

    def test_small_blocks_slice_and_fix_agents(self, monkeypatch):
        monkeypatch.setattr(regret_module, "_CHUNK_ROWS", 7)
        fixed = sliced = 0
        for inst, ps in _suite(77, 12, (2, 3, 4), (0.05, 0.1)):
            lattices = [regret_module._interval_lattice(iv, 0.01) for iv in inst.agents]
            covered = 0
            for block in regret_module._product_blocks(lattices):
                shape = np.broadcast_shapes(*(np.shape(v) for v in block))
                assert math.prod(shape) <= 7
                covered += math.prod(shape)
                for v, lat in zip(block, lattices):
                    fixed += len(lat) > 1 and np.ndim(v) == 0
                    sliced += 1 < np.size(v) < len(lat)
            assert covered == _vectors(inst, 0.01)
            self.assert_same(inst, ps)
        assert fixed and sliced


class TestRowSum:
    @pytest.mark.parametrize("n", [*range(1, 21), 127, 128, 129, 300])
    def test_adds_in_numpy_row_order(self, n):
        # Mixed magnitudes make every reassociation visible; a numpy whose
        # reduction order moved would fail here, not in the oracle's bits.
        gen = np.random.Generator(np.random.PCG64(n))
        mat = gen.choice([1.0, 1e-8, 1e8], (64, n)) * gen.uniform(-1.0, 1.0, (64, n))
        assert np.array_equal(regret_module._row_sum(list(mat.T)), mat.sum(axis=1))
        rows = [regret_module._row_sum(list(row)) for row in mat]
        assert rows == mat.sum(axis=1).tolist()

    def test_empty_row_sums_to_zero(self):
        assert regret_module._row_sum([]) == 0.0


def test_oracle_memory_is_bounded():
    # 25**5 vectors, near the cap.  The blocks hold a few per-block tables,
    # about 12 MiB at this size; a realization matrix peaked near 46 MiB.
    inst = uniform_instance([(0.1 * i, 0.1 * i + 0.24) for i in range(5)])
    assert _vectors(inst, 0.01) == 25**5
    tracemalloc.start()
    try:
        brute_force_max_regret_batch(inst, [0.1, 0.3, 0.5, 0.7, 0.9], AVG, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2**20


class TestAgentMaxRegret:
    def test_endpoint_arithmetic(self):
        iv = Interval(0.12, 0.18)
        got = agent_max_regret(0.1, iv, 0.1, 0.2)
        assert got == pytest.approx(0.06)

    def test_zero_when_outcome_matches_responses(self):
        iv = Interval(0.12, 0.18)
        assert agent_max_regret(0.1, iv, 0.1, 0.1) == 0.0

    def test_zero_when_reports_cannot_move_outcome(self):
        iv = Interval(0.33, 0.47)
        assert agent_max_regret(0.4, iv, 0.4, 0.4) == 0.0

    def test_fallback_matches_shortcut_when_valid(self):
        # When exact reports are optimal per location, the sampled maximum
        # sits at an endpoint and the rule and the sampled scan agree.
        iv = Interval(0.2, 0.4)
        fast = agent_max_regret(0.3, iv, 0.2, 0.4)
        slow = sampled_agent_max_regret(0.3, [0.2, 0.3, 0.4], iv, 0.01)
        assert slow == pytest.approx(fast, abs=1e-12)
