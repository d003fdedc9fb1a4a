import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustloc import (
    Grid,
    GridMismatchError,
    Interval,
    InvalidInstanceError,
    MechanismKind,
    MechanismSpec,
    OracleScaleError,
    build_grid,
    select_representative,
    snap,
    sorted_endpoints,
    upper_median,
    validate_instance,
)
from robustloc.core import _build_spaced_grid, merged_upper_median


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

    def test_negative_zero_keeps_its_sign(self):
        inst = validate_instance([(-0.0, 0.1), (0.0, -0.0)], B=1, delta=0.2)
        assert math.copysign(1.0, inst.lefts[0]) == -1.0
        assert math.copysign(1.0, inst.agents[0].a) == -1.0
        assert math.copysign(1.0, inst.rights[1]) == -1.0
        assert math.copysign(1.0, inst.lefts[1]) == 1.0

    def test_endpoints_pinned_into_domain(self):
        inst = validate_instance([(-1e-13, 0.1), (0.9, 1.0 + 1e-13)], B=1, delta=0.2)
        assert inst.lefts == (0.0, 0.9) and inst.rights == (0.1, 1.0)
        assert all(type(x) is float for x in inst.lefts + inst.rights)

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
        assert moved.lefts == (0.1, 0.5) and moved.rights == (0.2, 0.6)
        assert moved.agents[1] == Interval(0.5, 0.6)


class TestSortedEndpoints:
    def test_two_agents(self):
        inst = validate_instance([(0, 1), (3, 4)], B=4, delta=1)
        se = sorted_endpoints(inst)
        assert se.L == (0, 3) and se.R == (1, 4)
        assert se.k == 1 and se.M == 3.5

    def test_single_agent(self):
        se = sorted_endpoints(validate_instance([(0.2, 0.3)], B=1, delta=0.1))
        assert se.L == (0.2,) and se.R == (0.3,)
        assert se.k == 0 and se.M == 0.25

    def test_three_agents_sorted_independently(self):
        inst = validate_instance(
            [(0.4, 0.5), (0.9, 1.0), (0.0, 0.1)], B=1, delta=0.1
        )
        se = sorted_endpoints(inst)
        assert se.L == (0.0, 0.4, 0.9)
        assert se.R == (0.1, 0.5, 1.0)
        assert se.k == 1 and se.M == 0.45

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

    def test_prefix_sums_add_left_to_right(self):
        inst = validate_instance(
            [(0.7, 0.75), (0.1, 0.3), (0.2, 0.2), (0.3, 0.4)], B=1, delta=0.2
        )
        se = sorted_endpoints(inst)
        for values, sums in ((se.L, se.sum_L), (se.R, se.sum_R)):
            assert len(sums) == inst.n + 1 and sums[0] == 0.0
            for i, v in enumerate(values):
                assert sums[i + 1] == sums[i] + v


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


class TestBuildGrid:
    def test_zero_anchor_example(self):
        g = build_grid(1.0, 0.2, "zero")
        assert g.size == 11
        assert g.points[0] == 0.0
        assert abs(g.points[-1] - 1.0) < 1e-12
        assert g.spacing == 0.1

    def test_half_anchor_example(self):
        g = build_grid(1.0, 0.3, "half")
        expected = [0.05, 0.20, 0.35, 0.50, 0.65, 0.80, 0.95]
        assert g.size == 7
        for got, want in zip(g.points, expected):
            assert abs(got - want) < 1e-12
        assert 0.5 in g.points

    def test_delta_zero_is_identity(self):
        # There is no identity grid: at delta = 0 exact reports represent
        # themselves, so no grid is built.
        with pytest.raises(ValueError, match="no grid"):
            build_grid(1.0, 0.0, "zero")
        spec = MechanismSpec(MechanismKind.EQUISPACED_MEDIAN, 1.0, 0.0)
        grid, represent, _ = spec.resolve()
        assert grid is None
        assert represent(Interval(0.123, 0.123)) == 0.123

    @pytest.mark.parametrize("B,delta", [
        (math.inf, 0.2), (math.nan, 0.2), (1.0, math.nan), (1.0, 5e-324),
    ])
    def test_rejects_bad_domain(self, B, delta):
        with pytest.raises(ValueError):
            build_grid(B, delta)

    @pytest.mark.parametrize("anchor", ["zero", "half"])
    def test_point_count_checked_before_building(self, anchor):
        # About 2e300 points: refused from the count, not by running out of
        # memory while building them.
        with pytest.raises(OracleScaleError):
            build_grid(1.0, 1e-300, anchor)

    @pytest.mark.parametrize("anchor", ["zero", "half"])
    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.2, 0.3, 0.7])
    def test_spacing_and_point_budget(self, anchor, delta):
        B = 1.0
        g = build_grid(B, delta, anchor)
        assert g.spacing == delta / 2
        assert g.size <= math.floor(2 * B / delta) + 1
        for a, b in zip(g.points, g.points[1:]):
            assert abs((b - a) - g.spacing) < 1e-9 * g.spacing
        assert g.points[0] >= 0.0 and g.points[-1] <= B
        if anchor == "zero":
            assert g.points[0] == 0.0
        else:
            assert any(abs(p - B / 2) < 1e-12 for p in g.points)


class TestSnap:
    def setup_method(self):
        self.grid = build_grid(1.0, 0.2, "zero")

    def test_nearest(self):
        assert snap(0.12, Interval(0.12, 0.28), self.grid) == 0.1

    def test_tie_prefers_point_inside_interval(self):
        assert snap(0.15, Interval(0.15, 0.30), self.grid) == pytest.approx(0.2)

    def test_tie_with_neither_inside_breaks_left(self):
        assert snap(0.15, Interval(0.15, 0.15), self.grid) == pytest.approx(0.1)

    def test_tie_with_both_inside_breaks_left(self):
        assert snap(0.15, Interval(0.05, 0.25), self.grid) == pytest.approx(0.1)

    @given(st.floats(0, 1, allow_nan=False))
    def test_idempotent(self, p):
        iv = Interval(p, p)
        q = snap(p, iv, self.grid)
        assert snap(q, Interval(q, q), self.grid) == q

    @given(st.floats(0, 1, allow_nan=False))
    @settings(max_examples=200)
    def test_never_moves_more_than_quarter_delta(self, p):
        q = snap(p, Interval(p, p), self.grid)
        assert abs(q - p) <= 0.2 / 4 + 1e-12

    def test_outside_grid_clamps_to_extreme(self):
        g = Grid(points=(0.2, 0.3, 0.4), anchor="zero", spacing=0.1)
        assert snap(0.05, Interval(0.05, 0.05), g) == 0.2
        assert snap(0.9, Interval(0.9, 0.9), g) == 0.4


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
            yield build_grid(B, delta, "zero"), B, delta
            yield build_grid(B, delta, "half"), B, delta
            yield _build_spaced_grid(B, delta / 4.0, "zero"), B, delta


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
                    assert snap(p, iv, grid) == want, (grid.anchor, s, p, iv)
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
                    if count > 3:
                        with pytest.raises(GridMismatchError):
                            select_representative(iv, grid)
                    got = select_representative(iv, grid, allow_wide=count > 3)
                    assert got == covered[(count - 1) // 2], (grid.spacing, a, b)
        assert seen == {1, 3, 4}
