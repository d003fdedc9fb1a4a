import ast
import copy
import importlib
import math
import pickle
import re
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustloc import (
    Grid,
    Instance,
    Interval,
    InvalidInstanceError,
    MechanismKind,
    MechanismSpec,
    OracleScaleError,
    avgcost_max_regret,
    build_grid,
    check_minimax_dominance,
    maxcost_max_regret,
    random_instance,
    run_mechanism,
    select_representative,
    solve_minimax_avgcost,
    solve_minimax_maxcost,
    sorted_endpoints,
    validate_instance,
)
import robustloc
from robustloc.core import _snap_index, merged_upper_median


def assert_read_only_float64(inst):
    for values in (inst.lefts, inst.rights):
        assert type(values) is np.ndarray and values.dtype == np.float64
        assert not values.flags.writeable


class TestValidateInstance:
    def test_accepts_valid_profile(self):
        inst = validate_instance([(0.0, 1.0), (3.0, 4.0)], B=4, delta=1)
        assert inst.n == 2
        assert inst.agents[0] == Interval(0.0, 1.0)

    def test_rejects_overlong_interval(self):
        with pytest.raises(InvalidInstanceError, match="agent 0"):
            validate_instance([(0.0, 0.5)], B=1, delta=0.2)

    def test_exact_reports_at_delta_zero(self):
        inst = validate_instance([(0.3, 0.3), (0.7, 0.7)], B=1, delta=0)
        assert all(iv.is_exact for iv in inst.agents)

    def test_rejects_empty_profile(self):
        with pytest.raises(InvalidInstanceError, match="empty"):
            validate_instance([], B=1, delta=0.1)

    def test_rejects_reversed_interval_naming_agent(self):
        with pytest.raises(InvalidInstanceError, match="agent 1") as exc:
            validate_instance([(0.1, 0.2), (0.5, 0.4)], B=1, delta=0.2)
        assert exc.value.agent == 1

    def test_rejects_out_of_domain(self):
        with pytest.raises(InvalidInstanceError, match="agent 0"):
            validate_instance([(-0.1, 0.0)], B=1, delta=0.2)
        with pytest.raises(InvalidInstanceError, match="agent 0"):
            validate_instance([(0.9, 1.1)], B=1, delta=0.3)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidInstanceError):
            validate_instance([(0, 0)], B=0, delta=0)
        with pytest.raises(InvalidInstanceError):
            validate_instance([(0, 0)], B=1, delta=2)

    def test_tolerates_representation_noise_in_width(self):
        # 0.9 - 0.6 overshoots 0.3 by one ulp; that is not a real violation.
        inst = validate_instance([(0.0, 0.3), (0.6, 0.9)], B=1, delta=0.3)
        assert inst.n == 2

    @pytest.mark.parametrize("bad,message", [
        ((0.5, 0.4), "agent 1: left endpoint 0.5 exceeds right endpoint 0.4"),
        ((math.nan, 0.4), "agent 1: NaN endpoint in (nan, 0.4)"),
        ((0.1, math.nan), "agent 1: NaN endpoint in (0.1, nan)"),
        ((-0.1, 0.0), "agent 1: left endpoint -0.1 below 0"),
        ((0.9, 1.1), "agent 1: right endpoint 1.1 above B=1"),
        ((0.0, 0.5), "agent 1: interval length 0.5 exceeds delta=0.2"),
        ((-math.inf, 0.0), "agent 1: left endpoint -inf below 0"),
        ((0.0, math.inf), "agent 1: right endpoint inf above B=1"),
        ((5, 3), "agent 1: left endpoint 5 exceeds right endpoint 3"),
    ])
    def test_first_of_several_bad_agents_is_named(self, bad, message):
        # Agents 2 and 3 fail other checks; the message is the one the
        # per-agent checks give for agent 1, raw numbers as written.
        raw = [(0.1, 0.2), bad, (0.9, 0.2), (math.nan, math.nan), (-1.0, 2.0)]
        with pytest.raises(InvalidInstanceError) as exc:
            validate_instance(raw, B=1, delta=0.2)
        assert str(exc.value) == message and exc.value.agent == 1

    @pytest.mark.parametrize("raw,error", [
        ([(0.1, 0.2), (None, 0.3)], TypeError),
        ([(0.1, 0.2), ("0.2", "0.3")], TypeError),
        ([(0.1, 0.2), (0.2, 0.3, 0.4)], ValueError),
        ([(0.1, 0.2, 0.3)], ValueError),
        ([(0.1,)], ValueError),
        ([0.1, 0.2], TypeError),
    ])
    def test_entries_that_are_not_pairs_of_numbers_raise(self, raw, error):
        # Neither converted (None to NaN, "0.2" to 0.2) nor accepted.
        with pytest.raises(error):
            validate_instance(raw, B=1, delta=0.2)

    def test_non_finite_endpoints_raise_no_warning(self):
        # The masks meet inf - inf and an overflowing width; the test run
        # turns any numpy RuntimeWarning into an error.
        for raw in ([(math.inf, math.inf)], [(-1e308, 1e308)], [(-math.inf, math.inf)]):
            with pytest.raises(InvalidInstanceError, match="agent 0"):
                validate_instance(raw, B=1, delta=0.2)

    def test_negative_zero_reads_as_zero(self):
        # -0.0 is pinned like an endpoint inside the slack below 0.
        inst = validate_instance([(-0.0, 0.1), (0.0, -0.0), (-1e-13, 0.2)],
                                 B=1, delta=0.2)
        assert_read_only_float64(inst)
        ends = (inst.lefts.tolist() + inst.rights.tolist()
                + [e for iv in inst.agents for e in (iv.a, iv.b)])
        zeros = [e for e in ends if e == 0.0]
        assert len(zeros) == 8
        assert all(math.copysign(1.0, e) == 1.0 for e in zeros)

    def test_non_float_reals_are_stored_as_floats(self):
        # Pairs that numpy cannot hold as numbers take the per-agent checks,
        # then convert with float(); Fraction(0) and -0.0 both come out 0.0.
        raw = [(Fraction(1, 10), Fraction(3, 10)), (Decimal("0.5"), Decimal("0.6")),
               (Fraction(0), -0.0), (-0.0, Fraction(1, 5))]
        inst = validate_instance(raw, B=1, delta=0.2)
        assert_read_only_float64(inst)
        assert inst.lefts.tolist() == [0.1, 0.5, 0.0, 0.0]
        assert inst.rights.tolist() == [0.3, 0.6, 0.0, 0.2]
        ends = [e for iv in inst.agents for e in (iv.a, iv.b)]
        for values in (inst.lefts.tolist() + inst.rights.tolist(), ends):
            assert all(type(v) is float for v in values)
            assert all(math.copysign(1.0, v) == 1.0 for v in values)

    def test_endpoints_pinned_into_domain(self):
        inst = validate_instance([(-1e-13, 0.1), (0.9, 1.0 + 1e-13)], B=1, delta=0.2)
        assert_read_only_float64(inst)
        assert inst.lefts.tolist() == [0.0, 0.9] and inst.rights.tolist() == [0.1, 1.0]

    @pytest.mark.parametrize("end", [-5e-13, 1.0 + 5e-13])
    def test_report_inside_the_slack_stays_an_interval(self, end):
        # Both endpoints of a report just beyond the domain are pinned onto
        # its edge, not only the one that would leave [0, B] on its side.
        inst = validate_instance([(end, end), (0.5, 0.6)], B=1.0, delta=0.2)
        edge = min(max(end, 0.0), 1.0)
        assert inst.agents[0] == Interval(edge, edge)
        se = sorted_endpoints(inst)
        assert all(l <= r for l, r in zip(se.L, se.R))

    @pytest.mark.parametrize("raw,B,delta,message", [
        ([(-9.2e287, -9.2e287), (0.5, 0.6)], 1e300, 0.2, "below 0"),
        ([(0.5, 1e300 * (1 + 5e-13))], 1e300, 0.2, "above B"),
        ([(0.0, 1e299 * (1 + 5e-12))], 1e300, 1e299, "exceeds delta"),
    ], ids=["far-below-0", "far-above-B", "far-too-wide"])
    def test_slack_does_not_grow_with_B(self, raw, B, delta, message):
        # A slack of 1e-12 * B let these through at B = 1e300 and pinned
        # the first one to Interval(0.0, 0.0); a few ulps of B do not.
        with pytest.raises(InvalidInstanceError, match=message):
            validate_instance(raw, B=B, delta=delta)

    def test_slack_absorbs_representation_noise_at_large_B(self):
        # 9999.7 - 9999.4 exceeds 0.3 by about an ulp of 1e4.
        inst = validate_instance([(9999.4, 9999.7), (0.0, 0.3)], B=1e4, delta=0.3)
        assert_read_only_float64(inst)
        assert inst.lefts.tolist() == [9999.4, 0.0]
        assert inst.rights.tolist() == [9999.7, 0.3]

    def test_fields_are_read_only_float64_arrays(self):
        inst = validate_instance([(-0.0, 0.2), (0.5, 0.6)], B=1.0, delta=0.2)
        assert_read_only_float64(inst)
        for values in (inst.lefts, inst.rights):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.3
        assert [v.hex() for v in inst.lefts.tolist()] == [(0.0).hex(), (0.5).hex()]
        assert inst.rights.tolist() == [0.2, 0.6]
        rebuilt = Instance(inst.B, inst.delta, inst.lefts.tolist(),
                           inst.rights.tolist())
        assert_read_only_float64(rebuilt)
        assert rebuilt.lefts.tolist() == inst.lefts.tolist()
        assert rebuilt == inst and hash(rebuilt) == hash(inst)

    def test_agents_are_the_endpoint_tuples_zipped(self, rng):
        lefts = rng.uniform(0, 0.7, 50)
        raw = [(float(a), float(a + w)) for a, w in zip(lefts, rng.uniform(0, 0.3, 50))]
        inst = validate_instance(raw, B=1, delta=0.3)
        assert inst.agents == tuple(map(Interval, inst.lefts, inst.rights))
        assert inst.agents is inst.agents
        assert inst == validate_instance(np.array(raw), B=1, delta=0.3)

    def test_replace_agent_updates_both_endpoints(self):
        inst = validate_instance([(0.1, 0.2), (0.3, 0.4)], B=1, delta=0.2)
        moved = inst.replace_agent(1, Interval(0.5, 0.6))
        assert_read_only_float64(moved)
        assert moved.lefts.tolist() == [0.1, 0.5]
        assert moved.rights.tolist() == [0.2, 0.6]
        assert moved.agents[1] == Interval(0.5, 0.6)

    def test_replace_agent_leaves_the_original_unchanged(self):
        inst = validate_instance([(0.1, 0.2), (0.3, 0.4)], B=1, delta=0.2)
        twin = validate_instance([(0.1, 0.2), (0.3, 0.4)], B=1, delta=0.2)
        moved = inst.replace_agent(0, Interval(0.5, 0.6))
        assert inst == twin and moved != inst
        assert inst.lefts.tolist() == [0.1, 0.3]
        assert inst.rights.tolist() == [0.2, 0.4]
        assert inst.agents == (Interval(0.1, 0.2), Interval(0.3, 0.4))


class TestHandBuiltInstance:
    """``Instance(...)`` copies its sequences once into read-only arrays."""

    def test_built_from_arrays_compares_and_hashes_by_value(self):
        a, b = np.array([0.1, 0.5]), np.array([0.2, 0.6])
        inst = Instance(1.0, 0.2, a, b)
        twin = Instance(1.0, 0.2, a.copy(), b.copy())
        assert_read_only_float64(inst)
        assert inst == twin and hash(inst) == hash(twin) and len({inst, twin}) == 1
        checked = validate_instance([(0.1, 0.2), (0.5, 0.6)], B=1.0, delta=0.2)
        assert inst == checked and hash(inst) == hash(checked)
        assert inst != Instance(1.0, 0.2, a, np.array([0.2, 0.7]))
        assert inst != Instance(1.0, 0.3, a, b)
        assert inst != Instance(1.0, 0.2, a[:1], b[:1])
        # Bit for bit: a hand-built -0.0 is not 0.0.
        assert Instance(1.0, 0.0, [-0.0], [0.0]) != Instance(1.0, 0.0, [0.0], [0.0])

    def test_writing_the_source_array_leaves_the_instance_unchanged(self):
        a, b = np.array([0.1, 0.5]), [0.2, 0.6]
        inst = Instance(1.0, 0.2, a, b)
        before = hash(inst)
        a[0], b[1] = 0.9, 0.95
        assert a.flags.writeable
        assert inst.lefts.tolist() == [0.1, 0.5] and inst.rights.tolist() == [0.2, 0.6]
        assert hash(inst) == before
        assert inst == Instance(1.0, 0.2, [0.1, 0.5], [0.2, 0.6])

    def test_copies_and_pickles_stay_read_only(self):
        inst = validate_instance([(0.1, 0.2), (0.5, 0.6)], B=1.0, delta=0.2)
        for other in (copy.copy(inst), copy.deepcopy(inst),
                      pickle.loads(pickle.dumps(inst))):
            assert_read_only_float64(other)
            assert other == inst and hash(other) == hash(inst)


def largest_B(n):
    """The largest B that ``validate_instance`` accepts for n agents."""
    B = sys.float_info.max / (2 * n + 4)
    while not math.isfinite((2 * n + 4) * B):
        B = math.nextafter(B, 0.0)
    while math.isfinite((2 * n + 4) * math.nextafter(B, math.inf)):
        B = math.nextafter(B, math.inf)
    return B


class TestOverflowBound:
    """``(2n + 4) * B`` bounds every sum the closed forms build, so B is
    refused once that product overflows and accepted, overflow-free, below."""

    @pytest.mark.parametrize("n", [1, 2, 7, 2000])
    def test_largest_accepted_B_computes_without_overflow(self, n):
        B = largest_B(n)
        half = n // 2
        profiles = [
            random_instance(n, B, 0.2 * B, n),
            # Every endpoint at the top, and a split profile, maximize the
            # prefix sums and the crossing numerators.
            validate_instance([(0.8 * B, B)] * n, B=B, delta=0.2 * B),
            validate_instance([(0.0, 0.2 * B)] * half + [(0.8 * B, B)] * (n - half),
                              B=B, delta=0.2 * B),
        ]
        grid_kinds = (MechanismKind.EQUISPACED_MEDIAN,
                      MechanismKind.EQUISPACED_PHANTOM_HALF)
        for inst in profiles:
            unit = validate_instance(
                [(a / B, b / B) for a, b in zip(inst.lefts, inst.rights)],
                B=1.0, delta=0.2,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                avg, mx = solve_minimax_avgcost(inst), solve_minimax_maxcost(inst)
                regrets = (avgcost_max_regret(inst, 0.3 * B).value,
                           maxcost_max_regret(inst, 0.3 * B).value)
                outcomes = [run_mechanism(MechanismSpec(k, B=B, delta=0.2 * B), inst).p
                            for k in grid_kinds]
                report = check_minimax_dominance(
                    MechanismSpec(grid_kinds[0], B=B, delta=0.2 * B), inst, 0
                )
            # The same profile on [0, 1] gives the same answers, scaled.
            want = [solve_minimax_avgcost(unit), solve_minimax_maxcost(unit)]
            for got, ref in zip((avg, mx), want):
                assert got.p_opt / B == pytest.approx(ref.p_opt, abs=1e-9)
                assert got.omv / B == pytest.approx(ref.omv, abs=1e-9)
            assert [r / B for r in regrets] == pytest.approx(
                [avgcost_max_regret(unit, 0.3).value,
                 maxcost_max_regret(unit, 0.3).value], abs=1e-9)
            assert [p / B for p in outcomes] == pytest.approx(
                [run_mechanism(MechanismSpec(k, B=1.0, delta=0.2), unit).p
                 for k in grid_kinds], abs=1e-9)
            assert math.isfinite(report.truthful_regret) and not report.violated

    @pytest.mark.parametrize("n", [1, 2, 7, 2000])
    def test_B_just_above_is_refused(self, n):
        B = math.nextafter(largest_B(n), math.inf)
        message = re.escape(f"B={B} is too large for n={n}:")
        with pytest.raises(InvalidInstanceError, match=message):
            validate_instance([(0.0, 0.0)] * n, B=B, delta=0.0)
        with pytest.raises(InvalidInstanceError, match=message):
            random_instance(n, B, 0.2 * B, 0)

    def test_large_B_with_few_agents_still_accepted(self):
        for n in range(1, 8):
            inst = random_instance(n, 1e300, 1e299, n)
            assert inst.n == n and solve_minimax_avgcost(inst).omv >= 0


class TestSortedEndpoints:
    def test_two_agents(self):
        inst = validate_instance([(0, 1), (3, 4)], B=4, delta=1)
        se = sorted_endpoints(inst)
        assert se.L.tolist() == [0, 3] and se.R.tolist() == [1, 4]
        assert se.k == 1 and (se.L[se.k], se.R[se.k]) == (3, 4)

    def test_single_agent(self):
        se = sorted_endpoints(validate_instance([(0.2, 0.3)], B=1, delta=0.1))
        assert se.L.tolist() == [0.2] and se.R.tolist() == [0.3]
        assert se.k == 0 and (se.L[se.k], se.R[se.k]) == (0.2, 0.3)

    def test_three_agents_sorted_independently(self):
        inst = validate_instance(
            [(0.4, 0.5), (0.9, 1.0), (0.0, 0.1)], B=1, delta=0.1
        )
        se = sorted_endpoints(inst)
        assert se.L.tolist() == [0.0, 0.4, 0.9]
        assert se.R.tolist() == [0.1, 0.5, 1.0]
        assert se.k == 1 and (se.L[se.k], se.R[se.k]) == (0.4, 0.5)

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 0.8, allow_nan=False),
                st.floats(0, 0.2, allow_nan=False),
            ),
            min_size=1,
            max_size=9,
        )
    )
    def test_endpoint_views_are_pairwise_ordered(self, raw):
        # Sorted left endpoints never overtake sorted right endpoints, and
        # their gaps stay within the width bound.
        intervals = [(a, a + w) for a, w in raw]
        inst = validate_instance(intervals, B=1.0, delta=0.2)
        se = sorted_endpoints(inst)
        for l, r in zip(se.L, se.R):
            assert l <= r + 1e-12
            assert r - l <= inst.delta + 1e-9


    def test_view_is_built_once_per_instance(self):
        inst = validate_instance([(0.4, 0.5), (0.0, 0.1)], B=1, delta=0.1)
        assert sorted_endpoints(inst) is sorted_endpoints(inst)
        # The memo is not a field: equality, hash and repr ignore it.
        twin = validate_instance([(0.4, 0.5), (0.0, 0.1)], B=1, delta=0.1)
        assert inst == twin and hash(inst) == hash(twin)
        assert repr(inst) == repr(twin)

    def test_view_is_read_only_arrays_sorted_stably(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 30))
            ends = rng.choice([0.0, -0.0, 0.25, 0.5], size=n)
            inst = validate_instance([(v, v) for v in ends], B=1.0, delta=0.0)
            se = sorted_endpoints(inst)
            # sorted() is stable: 0.0 and -0.0 stay in agent order.
            want = [v.hex() for v in sorted(inst.lefts)]
            assert [v.hex() for v in se.L.tolist()] == want
            assert [v.hex() for v in se.R.tolist()] == want
            for values in (se.L, se.R, se.sum_L, se.sum_R):
                assert values.dtype == np.float64 and not values.flags.writeable

    def test_prefix_sums_add_left_to_right(self):
        inst = validate_instance(
            [(0.7, 0.75), (0.1, 0.3), (0.2, 0.2), (0.3, 0.4)], B=1, delta=0.2
        )
        se = sorted_endpoints(inst)
        for values, sums in ((se.L, se.sum_L), (se.R, se.sum_R)):
            assert len(sums) == inst.n + 1 and sums[0] == 0.0
            for i, v in enumerate(values):
                assert sums[i + 1] == sums[i] + v


def upper_median(values):
    """Reference: the (floor(n/2) + 1)-th smallest element."""
    if len(values) == 0:
        raise ValueError("upper_median of an empty sequence")
    return sorted(values)[len(values) // 2]


class TestUpperMedian:
    def test_odd(self):
        assert upper_median([0.2, 0.4, 0.9]) == 0.4

    def test_even_takes_upper(self):
        assert upper_median([0.0, 1.0]) == 1.0

    def test_singleton(self):
        assert upper_median([0.7]) == 0.7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            upper_median([])

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=12))
    def test_permutation_invariant_and_member(self, values):
        m = upper_median(values)
        assert m in values
        assert m == upper_median(sorted(values, reverse=True))

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=12),
        st.floats(0, 1, allow_nan=False),
    )
    def test_merged_matches_full_sort(self, values, extra):
        assert merged_upper_median(sorted(values), extra) == upper_median(
            list(values) + [extra]
        )

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=0, max_size=12),
        st.floats(0, 1, allow_nan=False),
    )
    def test_merged_takes_a_sorted_array_too(self, values, extra):
        got = merged_upper_median(np.array(sorted(values)), extra)
        assert float(got).hex() == merged_upper_median(sorted(values), extra).hex()


class TestBuildGrid:
    def test_zero_anchor_example(self):
        g = build_grid(1.0, spacing=0.1, anchor="zero")
        assert len(g.points) == 11
        assert g.points[0] == 0.0
        assert abs(g.points[-1] - 1.0) < 1e-12
        assert g.spacing == 0.1

    def test_half_anchor_example(self):
        g = build_grid(1.0, spacing=0.15, anchor="half")
        expected = [0.05, 0.20, 0.35, 0.50, 0.65, 0.80, 0.95]
        assert len(g.points) == 7
        for got, want in zip(g.points, expected):
            assert abs(got - want) < 1e-12
        assert 0.5 in g.points

    def test_delta_zero_is_identity(self):
        # There is no identity grid: at delta = 0 exact reports represent
        # themselves, so no grid is built.
        with pytest.raises(ValueError, match="positive and finite, got 0.0"):
            build_grid(1.0, spacing=0.0, anchor="zero")
        spec = MechanismSpec(MechanismKind.EQUISPACED_MEDIAN, 1.0, 0.0)
        grid, represent, _ = spec.resolve()
        assert grid is None
        assert represent(Interval(0.123, 0.123)) == 0.123

    def test_rejects_unknown_anchor(self):
        with pytest.raises(ValueError, match="unknown grid anchor 'middle'"):
            build_grid(1, spacing=0.1, anchor="middle")

    @pytest.mark.parametrize("B,spacing", [
        (math.inf, 0.1), (math.nan, 0.1), (0.0, 0.1), (1.0, math.nan),
        (1.0, math.inf), (1.0, -0.1),
        # delta = 5e-324, the smallest float, halves to a spacing of 0.0.
        (1.0, 0.0),
    ])
    @pytest.mark.parametrize("anchor", ["zero", "half"])
    def test_rejects_bad_domain(self, B, spacing, anchor):
        with pytest.raises(ValueError):
            build_grid(B, spacing=spacing, anchor=anchor)

    def test_width_bound_cannot_pass_for_spacing(self):
        # A width bound passed where the spacing, half of it, belongs would
        # build a grid twice as coarse; both options are keyword-only, so
        # such a call fails loudly.
        with pytest.raises(TypeError):
            build_grid(1.0, 0.2)
        with pytest.raises(TypeError):
            build_grid(1.0, 0.2, "zero")

    @pytest.mark.parametrize("anchor", ["zero", "half"])
    def test_point_count_checked_before_building(self, anchor):
        # About 2e300 points: refused from the count, not by running out of
        # memory while building them.
        with pytest.raises(OracleScaleError):
            build_grid(1.0, spacing=5e-301, anchor=anchor)

    @pytest.mark.parametrize("anchor", ["zero", "half"])
    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.2, 0.3, 0.7])
    def test_spacing_and_point_budget(self, anchor, delta):
        B = 1.0
        g = build_grid(B, spacing=delta / 2, anchor=anchor)
        assert g.spacing == delta / 2
        assert len(g.points) <= math.floor(2 * B / delta) + 1
        for a, b in zip(g.points, g.points[1:]):
            assert abs((b - a) - g.spacing) < 1e-9 * g.spacing
        assert g.points[0] >= 0.0 and g.points[-1] <= B
        if anchor == "zero":
            assert g.points[0] == 0.0
        else:
            assert any(abs(p - B / 2) < 1e-12 for p in g.points)


def snapped_point(point, owning_interval, grid):
    return grid.points[_snap_index(point, owning_interval, grid)]


class TestSnap:
    def setup_method(self):
        self.grid = build_grid(1.0, spacing=0.1, anchor="zero")

    def test_nearest(self):
        assert snapped_point(0.12, Interval(0.12, 0.28), self.grid) == 0.1

    def test_tie_prefers_point_inside_interval(self):
        assert snapped_point(0.15, Interval(0.15, 0.30), self.grid) == pytest.approx(0.2)

    def test_tie_with_neither_inside_breaks_left(self):
        assert snapped_point(0.15, Interval(0.15, 0.15), self.grid) == pytest.approx(0.1)

    def test_tie_with_both_inside_breaks_left(self):
        assert snapped_point(0.15, Interval(0.05, 0.25), self.grid) == pytest.approx(0.1)

    @given(st.floats(0, 1, allow_nan=False))
    def test_idempotent(self, p):
        iv = Interval(p, p)
        q = snapped_point(p, iv, self.grid)
        assert snapped_point(q, Interval(q, q), self.grid) == q

    @given(st.floats(0, 1, allow_nan=False))
    @settings(max_examples=200)
    def test_never_moves_more_than_quarter_delta(self, p):
        q = snapped_point(p, Interval(p, p), self.grid)
        assert abs(q - p) <= 0.2 / 4 + 1e-12

    def test_outside_grid_clamps_to_extreme(self):
        g = Grid(points=(0.2, 0.3, 0.4), anchor="zero", spacing=0.1)
        assert snapped_point(0.05, Interval(0.05, 0.05), g) == 0.2
        assert snapped_point(0.9, Interval(0.9, 0.9), g) == 0.4


def nearest_reference(point, interval, grid):
    """Index of the nearest grid point, found by scanning every point.

    Points whose distance is within 1e-9 * spacing of the least one tie;
    among tied points the one inside the interval wins when exactly one
    is, else the leftmost.
    """
    pts = grid.points
    dist = [abs(point - x) for x in pts]
    least = min(dist)
    tied = [i for i, d in enumerate(dist) if d <= least + 1e-9 * grid.spacing]
    inside = [i for i in tied if interval.contains(pts[i])]
    return inside[0] if len(inside) == 1 else tied[0]


def reference_grids():
    for B in (1.0, 0.9, 0.7):
        for delta in (0.1, 0.2, 0.3):
            yield build_grid(B, spacing=delta / 2, anchor="zero"), B, delta
            yield build_grid(B, spacing=delta / 2, anchor="half"), B, delta
            yield build_grid(B, spacing=delta / 4.0, anchor="zero"), B, delta


def probes(grid, B):
    """Every grid point and midpoint, each also 1e-12 to either side."""
    pts = grid.points
    centres = list(pts) + [(x + y) / 2.0 for x, y in zip(pts, pts[1:])]
    out = {c + e for c in centres for e in (0.0, 1e-12, -1e-12)}
    return sorted(x for x in out if 0.0 <= x <= B)


class TestSnapReference:
    def test_snap_matches_nearest_point_scan(self):
        checked = 0
        for grid, B, _ in reference_grids():
            s = grid.spacing
            for p in probes(grid, B):
                for iv in (
                    Interval(p, p),
                    Interval(p, min(p + s, B)),
                    Interval(max(p - s, 0.0), p),
                    Interval(max(p - s, 0.0), min(p + s, B)),
                ):
                    want = grid.points[nearest_reference(p, iv, grid)]
                    assert snapped_point(p, iv, grid) == want, (grid.anchor, s, p, iv)
                    checked += 1
        assert checked > 5_000

    def test_representative_is_left_median_of_covered_points(self):
        seen = set()
        for grid, B, delta in reference_grids():
            pts = grid.points
            ends = probes(grid, B)
            for i, a in enumerate(ends):
                for b in ends[i:]:
                    if b - a > delta:
                        break
                    iv = Interval(a, b)
                    ix = nearest_reference(a, iv, grid)
                    iy = nearest_reference(b, iv, grid)
                    covered = pts[ix : iy + 1]
                    count = len(covered)
                    if count == 2:
                        continue
                    seen.add(min(count, 4))
                    got = select_representative(iv, grid)
                    assert got == covered[(count - 1) // 2], (grid.spacing, a, b)
        assert seen == {1, 3, 4}


class TestPublicSurface:
    def package_imports(self):
        """(submodule, names) for each ``from .sub import ...`` in the package."""
        tree = ast.parse(open(robustloc.__file__, encoding="utf-8").read())
        return [
            (node.module, [alias.name for alias in node.names])
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
        ]

    def test_every_package_name_is_exported_by_its_submodule(self):
        imports = self.package_imports()
        assert {module for module, _ in imports} == {
            "core", "dominance", "mechanisms", "optimal", "regret", "cli",
        }
        for module, names in imports:
            exported = importlib.import_module(f"robustloc.{module}").__all__
            assert sorted(set(names) - set(exported)) == [], module

    def test_every_export_exists(self):
        for module, _ in self.package_imports():
            sub = importlib.import_module(f"robustloc.{module}")
            assert len(set(sub.__all__)) == len(sub.__all__), module
            missing = [name for name in sub.__all__ if not hasattr(sub, name)]
            assert missing == [], module
