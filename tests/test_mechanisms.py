import math

import pytest

from robustloc import (
    GridMismatchError,
    Interval,
    InvalidInstanceError,
    MechanismError,
    MechanismKind,
    MechanismSpec,
    avgcost_max_regret,
    build_grid,
    maxcost_max_regret,
    random_instance,
    run_mechanism,
    select_representative,
    solve_minimax_avgcost,
    solve_minimax_maxcost,
    upper_median,
    validate_instance,
)
from robustloc.core import _build_spaced_grid
from robustloc.mechanisms import _grid_representatives

EQ_MED = MechanismKind.EQUISPACED_MEDIAN
EQ_PH = MechanismKind.EQUISPACED_PHANTOM_HALF


def spec(kind, B=1.0, delta=0.2, location=None):
    return MechanismSpec(kind=kind, B=B, delta=delta, location=location)


class TestSelectRepresentative:
    def setup_method(self):
        self.grid = build_grid(1.0, 0.2, "zero")

    def test_three_point_cover_takes_middle(self):
        assert select_representative(Interval(0.12, 0.28), self.grid) == pytest.approx(0.2)

    def test_two_point_cover_neither_inside_sum_rule(self):
        assert select_representative(Interval(0.12, 0.18), self.grid) == pytest.approx(0.1)

    def test_two_point_cover_sum_rule_right(self):
        assert select_representative(Interval(0.14, 0.19), self.grid) == pytest.approx(0.2)

    def test_two_point_cover_both_inside_takes_left(self):
        assert select_representative(Interval(0.1, 0.22), self.grid) == pytest.approx(0.1)

    def test_single_point_cover(self):
        assert select_representative(Interval(0.17, 0.22), self.grid) == pytest.approx(0.2)

    def test_wide_cover_rejected_without_flag(self):
        fine = build_grid(1.0, 0.1, "zero")
        with pytest.raises(GridMismatchError):
            select_representative(Interval(0.1, 0.3), fine)

    def test_wide_cover_left_median_with_flag(self):
        fine = build_grid(1.0, 0.1, "zero")
        got = select_representative(Interval(0.1, 0.3), fine, allow_wide=True)
        assert got == pytest.approx(0.2)

    def test_representative_between_snapped_endpoints(self, rng):
        grid = build_grid(1.0, 0.3, "half")
        for _ in range(200):
            w = float(rng.uniform(0, 0.3))
            a = float(rng.uniform(0, 1 - w))
            rep = select_representative(Interval(a, a + w), grid)
            assert rep in grid.points
            assert a - 0.3 / 4 - 1e-12 <= rep <= a + w + 0.3 / 4 + 1e-12


class TestRunMechanism:
    def test_equispaced_median_trace(self):
        inst = validate_instance(
            [(0.12, 0.28), (0.33, 0.47), (0.81, 0.99)], B=1, delta=0.2
        )
        out = run_mechanism(spec(EQ_MED), inst)
        assert out.representatives == pytest.approx((0.2, 0.4, 0.9))
        assert out.p == pytest.approx(0.4)
        assert out.grid is not None and out.p in out.grid.points

    def test_equispaced_phantom_half_trace(self):
        inst = validate_instance([(0.0, 0.3), (0.6, 0.9)], B=1, delta=0.3)
        out = run_mechanism(spec(EQ_PH, delta=0.3), inst)
        assert out.representatives == pytest.approx((0.2, 0.8))
        assert out.p == pytest.approx(0.5)

    def test_constant_ignores_reports(self):
        inst = validate_instance([(0.9, 1.0)], B=1, delta=0.2)
        out = run_mechanism(spec(MechanismKind.CONSTANT, location=0.5), inst)
        assert out.p == 0.5 and out.representatives == ()

    def test_exact_median(self):
        inst = validate_instance([(0.2, 0.2), (0.5, 0.5), (0.9, 0.9)], B=1, delta=0)
        out = run_mechanism(spec(MechanismKind.EXACT_MEDIAN, delta=0), inst)
        assert out.p == 0.5

    def test_exact_phantom_half(self):
        inst = validate_instance([(0.1, 0.1), (0.2, 0.2)], B=1, delta=0)
        out = run_mechanism(spec(MechanismKind.EXACT_PHANTOM_HALF, delta=0), inst)
        assert out.p == pytest.approx(0.2)

    def test_exact_kinds_reject_intervals(self):
        inst = validate_instance([(0.1, 0.2)], B=1, delta=0.2)
        with pytest.raises(MechanismError, match="agent 0"):
            run_mechanism(spec(MechanismKind.EXACT_MEDIAN), inst)

    def test_equispaced_rejects_coarser_instances(self):
        inst = validate_instance([(0.1, 0.4)], B=1, delta=0.3)
        with pytest.raises(MechanismError, match="delta"):
            run_mechanism(spec(EQ_MED, delta=0.2), inst)

    def test_rejects_domain_mismatch(self):
        inst = validate_instance([(0.1, 0.2)], B=2, delta=0.2)
        with pytest.raises(MechanismError, match="B"):
            run_mechanism(spec(EQ_MED), inst)

    def test_constant_requires_location_in_domain(self):
        with pytest.raises(MechanismError):
            MechanismSpec(MechanismKind.CONSTANT, B=1, delta=0.2, location=1.5)

    @pytest.mark.parametrize("B,delta", [
        (math.inf, 0.2), (math.nan, 0.2), (0.0, 0.0), (-1.0, 0.0),
        (1.0, -0.1), (1.0, 1.5), (1.0, math.nan), (1.0, math.inf),
    ])
    @pytest.mark.parametrize("kind", list(MechanismKind), ids=lambda k: k.value)
    def test_spec_rejects_bad_domain_on_construction(self, kind, B, delta):
        with pytest.raises(InvalidInstanceError):
            MechanismSpec(kind, B=B, delta=delta, location=0.0)

    @pytest.mark.parametrize("kind,spacing", [
        (MechanismKind.EQUISPACED_PHANTOM_HALF, 0.05),
        (MechanismKind.EXACT_MEDIAN, 0.05),
        (EQ_MED, 0.0),
        (EQ_MED, -0.05),
        (EQ_MED, float("nan")),
        (EQ_MED, float("inf")),
    ])
    def test_spacing_only_positive_on_equispaced_median(self, kind, spacing):
        with pytest.raises(MechanismError, match="spacing"):
            MechanismSpec(kind, B=1, delta=0.2, spacing=spacing)


class TestMechanismProperties:
    def test_anonymity(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 8))
            inst = random_instance(n, 1.0, 0.2, rng)
            perm = rng.permutation(n)
            shuffled = validate_instance(
                [(inst.agents[i].a, inst.agents[i].b) for i in perm],
                B=1.0,
                delta=0.2,
            )
            for kind in (EQ_MED, EQ_PH):
                s = spec(kind)
                assert run_mechanism(s, inst).p == run_mechanism(s, shuffled).p

    def test_range_discipline(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 8))
            inst = random_instance(n, 1.0, 0.3, rng)
            out = run_mechanism(spec(EQ_MED, delta=0.3), inst)
            assert out.p in out.grid.points
            out = run_mechanism(spec(EQ_PH, delta=0.3), inst)
            assert out.p in out.grid.points  # B/2 is itself a grid point

    def test_degeneration_to_exact_kinds(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 8))
            pts = [(float(x), float(x)) for x in rng.uniform(0, 1, n)]
            inst = validate_instance(pts, B=1.0, delta=0.0)
            med = run_mechanism(spec(EQ_MED, delta=0.0), inst).p
            assert med == run_mechanism(spec(MechanismKind.EXACT_MEDIAN, delta=0.0), inst).p
            ph = run_mechanism(spec(EQ_PH, delta=0.0), inst).p
            assert ph == run_mechanism(
                spec(MechanismKind.EXACT_PHANTOM_HALF, delta=0.0), inst
            ).p

    def test_outcome_depends_only_on_representatives(self):
        a = validate_instance([(0.12, 0.28), (0.33, 0.47)], B=1, delta=0.2)
        b = validate_instance([(0.13, 0.27), (0.36, 0.44)], B=1, delta=0.2)
        sa = run_mechanism(spec(EQ_MED), a)
        sb = run_mechanism(spec(EQ_MED), b)
        assert sa.representatives == sb.representatives
        assert sa.p == sb.p

    def test_additive_gap_bounds_spotcheck(self, rng):
        for _ in range(150):
            n = int(rng.integers(1, 10))
            delta = float(rng.choice([0.1, 0.2, 0.3]))
            inst = random_instance(n, 1.0, delta, rng)
            p = run_mechanism(spec(EQ_MED, delta=delta), inst).p
            gap = avgcost_max_regret(inst, p).value - solve_minimax_avgcost(inst).omv
            assert gap <= 3 * delta / 4 + 1e-9
            p = run_mechanism(spec(EQ_PH, delta=delta), inst).p
            gap = maxcost_max_regret(inst, p).value - solve_minimax_maxcost(inst).omv
            assert gap <= 0.25 + 3 * delta / 8 + 1e-9

    def test_phantom_half_median_of_three(self, rng):
        for _ in range(40):
            inst = random_instance(int(rng.integers(1, 6)), 1.0, 0.2, rng)
            out = run_mechanism(spec(EQ_PH), inst)
            lo, hi = min(out.representatives), max(out.representatives)
            assert out.p == upper_median([lo, 0.5, hi]) or out.p == sorted([lo, 0.5, hi])[1]



def array_rule_grids():
    """(grid, B, delta, allow_wide): the zero and half grids of every
    (B, delta) pair, plus the finer delta/3 and delta/4 attack targets."""
    for B in (1.0, 0.9, 0.7, 2.5, 0.3):
        for delta in (0.02, 0.05, 0.1, 0.2, 0.3):
            yield build_grid(B, delta, "zero"), B, delta, False
            yield build_grid(B, delta, "half"), B, delta, False
            yield _build_spaced_grid(B, delta / 3.0, "zero"), B, delta, True
            yield _build_spaced_grid(B, delta / 4.0, "zero"), B, delta, True


def probe_points(grid, B):
    """0, B, every grid point and midpoint, each also 1e-12 and 1e-10 to
    either side, within [0, B]."""
    pts = grid.points
    centres = [0.0, B] + list(pts) + [(x + y) / 2.0 for x, y in zip(pts, pts[1:])]
    offsets = (0.0, 1e-12, -1e-12, 1e-10, -1e-10)
    return sorted({c + e for c in centres for e in offsets if 0.0 <= c + e <= B})


def probe_intervals(grid, B, delta, rng):
    """Intervals of width at most ``delta`` between probe points, plus
    random ones, as left and right endpoint lists."""
    probes = probe_points(grid, B)
    lefts, rights = [], []
    for i, a in enumerate(probes):
        # Every partner within one spacing, then every fifth up to delta.
        for j, b in enumerate(probes[i:]):
            if b - a > delta:
                break
            if b - a <= grid.spacing or j % 5 == 0:
                lefts.append(a)
                rights.append(b)
    w = rng.uniform(0.0, delta, 500)
    a = rng.uniform(0.0, 1.0, 500) * (B - w)
    return lefts + a.tolist(), rights + (a + w).tolist()


class TestArrayRepresentativeRule:
    """``run_mechanism``'s whole-profile rule against ``select_representative``."""

    def test_matches_scalar_rule_on_probe_intervals(self, rng):
        checked = 0
        for grid, B, delta, allow_wide in array_rule_grids():
            lefts, rights = probe_intervals(grid, B, delta, rng)
            want = tuple(
                select_representative(Interval(a, b), grid, allow_wide)
                for a, b in zip(lefts, rights)
            )
            got = _grid_representatives(lefts, rights, grid, allow_wide)
            assert got == want, (grid.anchor, grid.spacing, B, delta)
            checked += len(want)
        assert checked > 100_000

    def test_refuses_wide_cover_naming_its_count(self):
        grid = build_grid(1.0, 0.1, "zero")
        lefts, rights = (0.1, 0.1, 0.3), (0.2, 0.3, 0.4)
        with pytest.raises(GridMismatchError, match="covers 5 grid points"):
            _grid_representatives(lefts, rights, grid, allow_wide=False)
        assert _grid_representatives(lefts, rights, grid, allow_wide=True) == (
            select_representative(Interval(0.1, 0.2), grid),
            select_representative(Interval(0.1, 0.3), grid, allow_wide=True),
            select_representative(Interval(0.3, 0.4), grid),
        )

    def test_single_point_grid(self):
        # A spacing above B leaves one grid point; every report maps to it.
        grid = _build_spaced_grid(1.0, 1.5, "zero")
        assert grid.points == (0.0,)
        got = _grid_representatives((0.0, 0.4, 1.0), (0.2, 0.9, 1.0), grid, True)
        assert got == (0.0, 0.0, 0.0)

    def test_run_mechanism_returns_floats(self, rng):
        inst = random_instance(2001, 1.0, 0.3, rng)
        for kind in (EQ_MED, EQ_PH):
            out = run_mechanism(spec(kind, delta=0.3), inst)
            assert type(out.p) is float
            assert all(type(r) is float for r in out.representatives)
            assert out.representatives == tuple(
                select_representative(iv, out.grid) for iv in inst.agents
            )
