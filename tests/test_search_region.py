"""Bound bookkeeping: split criteria, strategy equivalence and the oracle."""

import heapq
import operator

import numpy as np
import pytest

from hyperboxing import reference, search_region
from hyperboxing.engine import Session, start_box_for
from hyperboxing.geometry import Box, SizeMode, box_measures, selection_key, strictly_less
from hyperboxing.reference import (
    VIRTUAL,
    Bound,
    NaiveRegion,
    bound_views,
    bounds_oracle,
    check_indices,
    child_criterion_lower,
    child_criterion_upper,
    max_box_size_full_scan,
)
from hyperboxing.problems import make_problem
from hyperboxing.scalarization import solve_quadric_ps
from hyperboxing.search_region import LOWER, UPPER, SearchRegion

REGION_CLASSES = (NaiveRegion, SearchRegion)


def _unit_box(m, lo=0.0, hi=1.0):
    return Box((lo,) * m, (hi,) * m, (1.0,) * m)


def _region(box, eps=0.0, region_class=SearchRegion, mode=SizeMode.ABSOLUTE):
    return region_class(box, eps, mode)


def _all_bounds(region):
    """Every live bound of the region as a view, in id order."""
    views = bound_views(region, LOWER) + bound_views(region, UPPER)
    return sorted(views, key=lambda b: b.id)


def _partnered(lowers, uppers, region):
    """The bounds among lowers and uppers with an opposing one whose box exceeds epsilon."""
    pairs = [(l, u) for l in lowers for u in uppers
             if strictly_less(l, u) and box_measures(l, u, region.scale)[0] > region.epsilon]
    return {LOWER: {l for l, _ in pairs}, UPPER: {u for _, u in pairs}}


def _assert_oracle_bounds(region, box, lower_points, upper_points):
    """A naive region holds the oracle's bounds, an improved one those with a partner."""
    full = {LOWER: bounds_oracle(box, lower_points, LOWER),
            UPPER: bounds_oracle(box, upper_points, UPPER)}
    if isinstance(region, SearchRegion):
        full = _partnered(full[LOWER], full[UPPER], region)
    for kind in (LOWER, UPPER):
        assert region.coordinate_set(kind) == full[kind]


def _apply_all(region, points):
    for p in points:
        region.apply_point(p, p)


class TestInitRegion:
    def test_single_pair_stored(self):
        reg = _region(_unit_box(2), eps=0.1)
        assert len(bound_views(reg, LOWER)) == 1
        assert len(bound_views(reg, UPPER)) == 1
        box, _, _ = reg.largest_box()
        assert box.lower == (0.0, 0.0)
        assert box.upper == (1.0, 1.0)

    def test_start_box_below_threshold(self):
        reg = _region(_unit_box(2), eps=1.5)
        assert reg.largest_box() is None

    def test_three_dimensional_start(self):
        reg = _region(_unit_box(3, -1.0, 0.0), eps=0.1)
        assert len(bound_views(reg, LOWER)) == 1
        assert len(bound_views(reg, UPPER)) == 1
        assert reg.largest_box() is not None

    def test_negative_epsilon_rejected(self):
        for eps in (-0.5, float("nan")):
            for region_class in REGION_CLASSES:
                with pytest.raises(ValueError):
                    _region(_unit_box(2), eps=eps, region_class=region_class)

    def test_start_bounds_all_virtual(self):
        reg = _region(_unit_box(3), eps=0.1)
        for bound in _all_bounds(reg):
            assert bound.defining == (VIRTUAL,) * 3


class TestChildCriterionUpper:
    def _bound(self, coords, defining):
        return Bound(0, UPPER, coords, defining)

    def test_component_exceeding_defining_value(self):
        z1 = (0.5, 0.5, 0.5)
        u = self._bound((0.5, 1.0, 1.0), ((z1,), (), ()))
        z2 = (0.25, 0.75, 0.25)
        assert child_criterion_upper(u, z2, 1)

    def test_component_below_defining_value(self):
        z1 = (0.5, 0.5, 0.5)
        u = self._bound((0.5, 1.0, 1.0), ((z1,), (), ()))
        z2 = (0.25, 0.75, 0.25)
        assert not child_criterion_upper(u, z2, 2)

    def test_all_virtual_always_true(self):
        u = self._bound((1.0, 1.0, 1.0), ((), (), ()))
        for k in range(3):
            assert child_criterion_upper(u, (0.2, 0.4, 0.6), k)

    def test_extremum_over_defining_group(self):
        # Two points co-define component 0; the least constraining one rules.
        a = (0.5, 0.1, 0.4)
        b = (0.5, 0.4, 0.1)
        u = self._bound((0.5, 1.0, 1.0), ((a, b), (), ()))
        z = (0.3, 0.2, 0.2)
        assert child_criterion_upper(u, z, 1)       # 0.2 > min(0.1, 0.4)
        assert child_criterion_upper(u, z, 2)       # 0.2 > min(0.4, 0.1)
        assert not child_criterion_upper(u, (0.3, 0.05, 0.05), 1)


class TestChildCriterionLower:
    def test_two_dimensional_example(self):
        s1 = (-0.5, -0.5)
        l = Bound(0, LOWER, (-1.0, -1.0), ((s1,), ()))
        s2 = (-0.25, -0.75)
        assert child_criterion_lower(l, s2, 1)      # -0.75 < min(s1_2) = -0.5

    def test_all_virtual_always_true(self):
        l = Bound(0, LOWER, (0.0, 0.0), ((), ()))
        assert child_criterion_lower(l, (0.5, 0.5), 0)

    def test_mirror_of_upper_example(self):
        z1 = (0.5, 0.5, 0.5)
        u = Bound(0, UPPER, (0.5, 1.0, 1.0), ((z1,), (), ()))
        neg = tuple(-v for v in z1)
        l = Bound(1, LOWER, (-0.5, -1.0, -1.0), ((neg,), (), ()))
        z2 = (0.25, 0.75, 0.25)
        neg2 = tuple(-v for v in z2)
        for k in range(3):
            assert child_criterion_upper(u, z2, k) == child_criterion_lower(l, neg2, k)


class TestApplyPointImproved:
    def test_first_point_splits_into_three(self):
        reg = _region(_unit_box(3))
        reg.apply_point((0.5, 0.5, 0.5), (0.5, 0.5, 0.5))
        assert reg.coordinate_set(UPPER) == {(0.5, 1, 1), (1, 0.5, 1), (1, 1, 0.5)}
        assert reg.coordinate_set(LOWER) == {(0.5, 0, 0), (0, 0.5, 0), (0, 0, 0.5)}

    def test_second_point_yields_five_upper_bounds(self):
        reg = _region(_unit_box(3))
        _apply_all(reg, [(0.5, 0.5, 0.5), (0.25, 0.75, 0.25)])
        assert reg.coordinate_set(UPPER) == {
            (1, 0.5, 1),
            (0.25, 1, 1),
            (0.5, 0.75, 1),
            (1, 0.75, 0.5),
            (1, 1, 0.25),
        }

    def test_s_tightens_lower_bounds_only(self):
        reg = _region(_unit_box(2))
        reg.apply_point((0.5, 0.5), (0.6, 0.6))
        assert reg.coordinate_set(LOWER) == {(0.6, 0), (0, 0.6)}
        assert reg.coordinate_set(UPPER) == {(0.5, 1), (1, 0.5)}

    def test_point_outside_every_box_is_noop(self):
        reg = _region(_unit_box(2))
        reg.apply_point((0.5, 0.5), (0.5, 0.5))
        before_l = reg.coordinate_set(LOWER)
        before_u = reg.coordinate_set(UPPER)
        reg.apply_point((0.5, 0.5), (0.5, 0.5))    # re-applied: boundary only
        assert reg.coordinate_set(LOWER) == before_l
        assert reg.coordinate_set(UPPER) == before_u

    def test_s_must_dominate_z(self):
        reg = _region(_unit_box(2))
        with pytest.raises(ValueError):
            reg.apply_point((0.5, 0.5), (0.4, 0.6))

    def test_dimension_mismatch_rejected(self):
        reg = _region(_unit_box(2))
        with pytest.raises(ValueError):
            reg.apply_point((0.5, 0.5, 0.5), (0.5, 0.5, 0.5))

    def test_lower_only_skips_upper_update(self):
        reg = _region(_unit_box(2))
        reg.apply_point((0.5, 0.5), (0.5, 0.5), lower_only=True)
        assert reg.coordinate_set(UPPER) == {(1.0, 1.0)}
        assert reg.coordinate_set(LOWER) == {(0.5, 0.0), (0.0, 0.5)}


class TestApplyPointNaive:
    def test_matches_improved_on_examples(self):
        seqs = [
            [(0.5, 0.5, 0.5)],
            [(0.5, 0.5, 0.5), (0.25, 0.75, 0.25)],
        ]
        for pts in seqs:
            a = _region(_unit_box(3), region_class=NaiveRegion)
            b = _region(_unit_box(3))
            _apply_all(a, pts)
            _apply_all(b, pts)
            for kind in (LOWER, UPPER):
                assert a.coordinate_set(kind) == b.coordinate_set(kind)

    def test_both_children_kept_in_2d(self):
        reg = _region(_unit_box(2), region_class=NaiveRegion)
        reg.apply_point((0.3, 0.7), (0.3, 0.7))
        assert reg.coordinate_set(UPPER) == {(0.3, 1.0), (1.0, 0.7)}


class TestBoundsOracle:
    def test_single_point_upper(self):
        assert bounds_oracle(_unit_box(2), [(0.5, 0.5)], UPPER) == {
            (0.5, 1.0),
            (1.0, 0.5),
        }

    def test_empty_set_returns_corner(self):
        assert bounds_oracle(_unit_box(2), [], UPPER) == {(1.0, 1.0)}
        assert bounds_oracle(_unit_box(2), [], LOWER) == {(0.0, 0.0)}

    def test_two_point_example(self):
        got = bounds_oracle(_unit_box(3), [(0.5, 0.5, 0.5), (0.25, 0.75, 0.25)], UPPER)
        assert got == {
            (1, 0.5, 1),
            (0.25, 1, 1),
            (0.5, 0.75, 1),
            (1, 0.75, 0.5),
            (1, 1, 0.25),
        }


class TestOracleEquivalence:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_random_point_sets(self, m):
        rng = np.random.default_rng(m)
        box = _unit_box(m, -1.0, 0.0)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            pts = [tuple(rng.uniform(-0.95, -0.05, m)) for _ in range(n)]
            for region_class in REGION_CLASSES:
                reg = _region(box, region_class=region_class)
                _apply_all(reg, pts)
                _assert_oracle_bounds(reg, box, pts, pts)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_points_with_shared_coordinates(self, m):
        # Ties in single coordinates make several points define the same bound
        # component; the split criterion must account for all of them.
        rng = np.random.default_rng(100 + m)
        box = _unit_box(m, -1.0, 0.0)
        for _ in range(15):
            n = int(rng.integers(2, 8))
            vals = np.round(rng.uniform(-1, 0, (n, m)) * 4) / 4
            vals = np.clip(vals, -0.99, -0.01)
            pts = [tuple(map(float, row)) for row in vals]
            for region_class in REGION_CLASSES:
                reg = _region(box, region_class=region_class)
                _apply_all(reg, pts)
                _assert_oracle_bounds(reg, box, pts, pts)

    def test_degenerate_five_dimensional_sequence(self):
        # Regression: mutually nondominated points sharing exact coordinate
        # values must still produce the full bound set.
        pts = [
            (-0.447213595499958,) * 5,
            (-0.18441665792835316, -0.4123681833111231, -0.4123681833111231,
             -0.4123681833111231, -0.675165120882728),
            (-0.4123681833111231, -0.4123681833111231, -0.4123681833111231,
             -0.675165120882728, -0.18441665792835316),
            (-0.44293357825518465, -0.44293357825518465, -0.6920612556559795,
             -0.19808591809916312, -0.299053302905681),
            (-0.48014583360439406, -0.7126316844938064, -0.332290328502244,
             -0.2147277446105456, -0.3241777197868489),
        ]
        box = _unit_box(5, -1.0, 0.0)
        for region_class in REGION_CLASSES:
            reg = _region(box, region_class=region_class)
            _apply_all(reg, pts)
            _assert_oracle_bounds(reg, box, pts, pts)


class TestDefiningConsistency:
    def _assert_consistent(self, reg):
        for bound in _all_bounds(reg):
            for j, group in enumerate(bound.defining):
                for d in group:
                    assert d[j] == bound.coords[j]
                    for i in range(reg.m):
                        if i == j:
                            continue
                        if bound.kind == UPPER:
                            assert d[i] < bound.coords[i]
                        else:
                            assert d[i] > bound.coords[i]

    def test_after_random_updates(self):
        rng = np.random.default_rng(7)
        box = _unit_box(3, -1.0, 0.0)
        reg = _region(box)
        for _ in range(12):
            z = tuple(rng.uniform(-0.9, -0.1, 3))
            s = tuple(min(v + rng.uniform(0, 0.05), -0.01) for v in z)
            reg.apply_point(z, s)
            self._assert_consistent(reg)

    def test_after_tied_updates(self):
        reg = _region(_unit_box(3))
        _apply_all(reg, [(0.5, 0.5, 0.5), (0.25, 0.5, 0.75), (0.5, 0.25, 0.75)])
        self._assert_consistent(reg)


class TestOpposingIndices:
    def test_match_brute_force_after_updates(self):
        rng = np.random.default_rng(13)
        reg = _region(_unit_box(3, -1.0, 0.0), eps=0.05)
        for _ in range(10):
            z = tuple(rng.uniform(-0.9, -0.1, 3))
            reg.apply_point(z, z)
            check_indices(reg)


class TestLargestBox:
    def test_tie_broken_deterministically(self):
        import math

        z = (-math.sqrt(0.5), -math.sqrt(0.5))
        for region_class in REGION_CLASSES:
            reg = _region(_unit_box(2, -1.0, 0.0), eps=0.25, region_class=region_class)
            reg.apply_point(z, z)
            box, _, _ = reg.largest_box()
            # Two boxes of size 0.2929 remain; the larger corner tuple wins.
            assert box.lower == (z[0], -1.0)
            assert box.upper == (0.0, z[1])

    def test_exhausted_region_returns_none(self):
        for region_class in REGION_CLASSES:
            reg = _region(_unit_box(2), eps=0.6, region_class=region_class)
            reg.apply_point((0.5, 0.5), (0.5, 0.5))
            assert reg.largest_box() is None

    def test_strategies_agree_on_selection(self):
        rng = np.random.default_rng(3)
        pts = [tuple(rng.uniform(-0.9, -0.1, 3)) for _ in range(6)]
        a = _region(_unit_box(3, -1.0, 0.0), eps=0.05, region_class=NaiveRegion)
        b = _region(_unit_box(3, -1.0, 0.0), eps=0.05)
        for p in pts:
            a.apply_point(p, p)
            b.apply_point(p, p)
            ra, rb = a.largest_box(), b.largest_box()
            if ra is None or rb is None:
                assert ra is None and rb is None
            else:
                assert ra[0] == rb[0]

    def test_evicted_pair_not_returned(self):
        reg = _region(_unit_box(2), eps=0.1)
        _, l_id, u_id = reg.largest_box()
        reg.evict_pair(l_id, u_id)
        assert reg.largest_box() is None


def _heap_pick(region):
    """The pair a heap keyed on (-size, -volume, -corners, l_id, u_id) pops first.

    A scalar reference for the pair table's selection: every indexed pair
    that is not evicted, keyed as the region's former lazy max-heap keyed
    it.  Returns ((l_id, u_id) or None, whether the top tied with another
    key on size and volume).
    """
    lower, upper = region._stores[LOWER], region._stores[UPPER]
    pairs = region._pairs
    live = pairs.alive[: pairs.n]
    heap = []
    for l_id, u_id in zip(pairs.ids(LOWER)[live].tolist(), pairs.ids(UPPER)[live].tolist()):
        if (l_id, u_id) not in region._evicted:
            lo, up = lower.coords_of(l_id), upper.coords_of(u_id)
            size, volume = box_measures(lo, up, region.scale)
            heapq.heappush(heap, (-size, -volume, tuple(-v for v in lo + up), l_id, u_id))
    if not heap:
        return None, False
    top = heapq.heappop(heap)
    return top[3:], bool(heap) and heap[0][:2] == top[:2]


class TestSelectionOrder:
    """The pair table selects the pair the former heap would have popped."""

    @staticmethod
    def _check(region):
        expected, tied = _heap_pick(region)
        pick = region.largest_box()
        assert (pick[1:] if pick else None) == expected
        return pick, tied

    def _drive(self, session, quadric, misses=()):
        """Answer on the quadric's front, missing the given query ids; count tied picks."""
        ties = 0
        while True:
            ties += self._check(session.region)[1]
            query = session.next_query()
            if query is None:
                return ties
            if query.query_id in misses:
                session.evict_pending()
            else:
                session.submit(solve_quadric_ps(query, quadric))

    @pytest.mark.parametrize("m, epsilon", [(3, 0.1), (4, 0.2), (5, 0.3), (6, 0.4)])
    def test_symmetric_sphere(self, m, epsilon):
        session = Session(start_box_for(make_problem("sphere", m)), epsilon)
        assert self._drive(session, (1.0,) * m) > 0

    @pytest.mark.parametrize("m, epsilon", [(3, 0.1), (4, 0.25)])
    def test_sphere_with_misses(self, m, epsilon):
        session = Session(start_box_for(make_problem("sphere", m)), epsilon)
        assert self._drive(session, (1.0,) * m, misses={1, 4, 9, 17, 30}) > 0
        assert session.stalled_boxes >= 5

    def test_relative_ties_in_two_dimensions(self):
        # The ellipse over its 2 x 1 start box is a quarter circle in
        # relative edges, and halving is exact, so its boxes tie exactly.
        problem = make_problem("ellipsoid", 2)
        session = Session(start_box_for(problem), 0.01, SizeMode.RELATIVE)
        assert self._drive(session, problem.analytic_quadric) > 0

    @pytest.mark.parametrize("grid", [0, 8], ids=["random", "tied"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_random_points_with_evictions(self, m, grid):
        rng = np.random.default_rng(10 * m + grid)
        region = _region(_unit_box(m), eps=0.05)
        for step in range(60):
            pick, _ = self._check(region)
            if pick is None:
                break
            if step % 4 == 3:
                region.evict_pair(*pick[1:])
                continue
            z = rng.uniform(pick[0].lower, pick[0].upper)
            if grid:
                z = np.round(z * grid) / grid
            region.apply_point(tuple(z.tolist()), tuple(z.tolist()))
        check_indices(region)

    def test_small_pair_blocks_change_nothing(self, monkeypatch):
        def picks():
            session = Session(start_box_for(make_problem("sphere", 4)), 0.2)
            out = []
            while (query := session.next_query()) is not None:
                out.append(session._pending[1:3])
                session.submit(solve_quadric_ps(query, (1.0,) * 4))
            check_indices(session.region)
            return out, session.region.max_box_size_bound()

        whole = picks()
        monkeypatch.setattr(search_region, "PAIR_BLOCK", 5)
        assert picks() == whole

    def test_pair_table_compacts_before_growing(self):
        table = search_region._PairTable(capacity=4)
        table.append(np.arange(4), np.arange(4) + 10, np.ones(4), np.ones(4))
        table.kill(np.array([0, 1, 2]))
        table.append(np.array([7, 8]), np.array([17, 18]), np.full(2, 2.0), np.full(2, 2.0))
        assert len(table.size) == 4 and table.n == table.live == 3
        assert table.ids(LOWER).tolist() == [3, 7, 8]
        assert table.ids(UPPER).tolist() == [13, 17, 18]


class TestBlockedScan:
    """The blocked L x U scan against a pure-Python loop over every pair."""

    @staticmethod
    def _reference(region):
        """(size, l, u) of the largest non-evicted pair; ties go to selection_key."""
        best = None
        for l in bound_views(region, LOWER):
            for u in bound_views(region, UPPER):
                if (l.id, u.id) in region._evicted:
                    continue
                # Scaled corners are subtracted, as in the scan; in relative
                # mode this can differ from box_measures in the last bit.
                size = min(b / s - a / s for a, b, s in zip(l.coords, u.coords, region.scale))
                key = (size, selection_key(l.coords, u.coords, region.scale))
                if best is None or key > best[0]:
                    best = (key, l, u)
        return best[0][0], best[1], best[2]

    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("mode", list(SizeMode))
    @pytest.mark.parametrize("m, n", [(2, 40), (3, 20), (4, 10), (5, 7), (6, 6)])
    def test_matches_brute_force_with_evictions(self, monkeypatch, m, n, mode, rows):
        rng = np.random.default_rng(10 * m + rows)
        scale = np.array([0.7, 1.3, 3.1, 0.9, 2.2, 1.7][:m])
        box = Box(tuple(-scale), (0.0,) * m, tuple(scale))
        region = _region(box, eps=0.05, region_class=NaiveRegion, mode=mode)
        directions = np.abs(rng.normal(size=(n, m)))
        for d in directions / np.linalg.norm(directions, axis=1, keepdims=True):
            z = tuple(-scale * d)
            region.apply_point(z, z)
        n_u = len(bound_views(region, UPPER))
        # rows == 1 comes from a block smaller than one row of U.
        block = n_u // 2 if rows == 1 else rows * n_u + n_u - 1
        monkeypatch.setattr(reference, "SCAN_BLOCK", block)
        l_order = [int(b) for b in region._stores[LOWER].live_view()[1]]
        assert len(l_order) > 2 * rows  # at least three blocks

        evicted_blocks = set()
        for _ in range(12):
            size, l, u = self._reference(region)
            expected = box_measures(l.coords, u.coords, region.scale)[0]
            assert max_box_size_full_scan(region) == expected
            if size > region.epsilon:
                assert region.largest_box() == (Box(l.coords, u.coords, box.scale), l.id, u.id)
            else:
                assert region.largest_box() is None
            # Evicting the winner makes the next round find the runner-up.
            evicted_blocks.add(l_order.index(l.id) // rows)
            region.evict_pair(l.id, u.id)
        assert evicted_blocks - {0}


class TestMaxBoxSizeBound:
    """The improved region's certified box size against the exact scan."""

    def test_start_box_at_threshold_is_settled(self):
        reg = _region(_unit_box(2), eps=1.5)
        naive = _region(_unit_box(2), eps=1.5, region_class=NaiveRegion)
        assert reg.max_box_size_bound() == 1.0 == max_box_size_full_scan(naive)
        check_indices(reg)  # the start bounds have no partner, so neither is stored

    def test_evicted_pair_bounds_its_sub_boxes(self):
        # Evicting the start pair excludes that pair alone, so both regions
        # go on to select a box that split off it.  Only the improved
        # region's certified bound still counts the evicted box.
        for region_class, bound in ((NaiveRegion, 5.0), (SearchRegion, 10.0)):
            reg = _region(Box((0.0, 0.0), (10.0, 10.0), (1.0, 1.0)), eps=0.5,
                          region_class=region_class)
            _, l_id, u_id = reg.largest_box()
            reg.evict_pair(l_id, u_id)
            reg.apply_point((5.0, 5.0), (5.0, 5.0))
            box, _, _ = reg.largest_box()
            assert (box.lower, box.upper) == ((5.0, 0.0), (10.0, 5.0))
            assert max_box_size_full_scan(reg) == 5.0
            assert reg.max_box_size_bound() == bound
        check_indices(reg)  # the improved region, from the last round

    def test_scan_skips_evictions_in_both_regions(self):
        for region_class in REGION_CLASSES:
            reg = _region(Box((0.0, 0.0), (10.0, 10.0), (1.0, 1.0)), eps=0.5,
                          region_class=region_class)
            _, l_id, u_id = reg.largest_box()
            reg.evict_pair(l_id, u_id)
            assert max_box_size_full_scan(reg) == 0.0
            assert reg.largest_box() is None

    @pytest.mark.parametrize("mode", list(SizeMode))
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_bounds_scan_after_every_step(self, m, mode):
        rng = np.random.default_rng(40 + m)
        scale = np.array([0.7, 1.3, 3.1, 0.9, 2.2][:m])
        box = Box(tuple(-scale), (0.0,) * m, tuple(scale))
        eps = 0.15
        reg = _region(box, eps=eps, mode=mode)
        # The naive region runs in lockstep: both select the same boxes,
        # after evictions too.
        naive = _region(box, eps=eps, region_class=NaiveRegion, mode=mode)
        evicted = False
        for step in range(40):
            pick, naive_pick = reg.largest_box(), naive.largest_box()
            if pick is None:
                assert naive_pick is None
                break
            assert pick[0] == naive_pick[0]
            if step % 7 == 3:
                reg.evict_pair(*pick[1:])
                naive.evict_pair(*naive_pick[1:])
                evicted = True
            else:
                d = np.abs(rng.normal(size=m))
                z = tuple(-scale * d / np.linalg.norm(d))
                s = tuple(np.minimum(np.asarray(z) + rng.uniform(0, 0.05, m), 0.0))
                reg.apply_point(z, s, lower_only=step % 5 == 4)
                naive.apply_point(z, s, lower_only=step % 5 == 4)
            check_indices(reg)
            # The improved region keeps only the bounds of pairs above
            # epsilon, so its scan agrees with the exact one while such a
            # pair is left to select.
            scan, exact = max_box_size_full_scan(reg), max_box_size_full_scan(naive)
            assert scan <= exact <= reg.max_box_size_bound()
            if exact > eps:
                assert scan == exact
        assert evicted
        if reg.largest_box() is not None:
            assert reg.max_box_size_bound() > eps


class TestEpsilonPruning:
    def test_small_pairs_never_stored(self):
        reg = _region(_unit_box(2), eps=0.45)
        reg.apply_point((0.5, 0.5), (0.5, 0.5))
        # The two remaining boxes have size 0.5 > 0.45 in one edge only;
        # both boxes have min edge 0.5, so they are retained.
        assert reg.largest_box() is not None
        reg2 = _region(_unit_box(2), eps=0.55)
        reg2.apply_point((0.5, 0.5), (0.5, 0.5))
        assert reg2.largest_box() is None

    def test_pruning_drops_partnerless_bounds(self):
        # Pruning drops boxes from the index; the improved region then drops
        # the bounds left without a partner, while the naive one keeps them.
        naive = _region(_unit_box(2), eps=0.55, region_class=NaiveRegion)
        reg = _region(_unit_box(2), eps=0.55)
        for region in (naive, reg):
            region.apply_point((0.5, 0.5), (0.5, 0.5))
        assert naive.coordinate_set(UPPER) == {(0.5, 1.0), (1.0, 0.5)}
        assert naive.coordinate_set(LOWER) == {(0.5, 0.0), (0.0, 0.5)}
        assert reg.coordinate_set(UPPER) == reg.coordinate_set(LOWER) == set()
        check_indices(reg)


class TestArrayKernel:
    """The vectorised split against scalar references, point by point.

    After every point the naive region must hold the oracle's bound sets,
    and the improved region those of its bounds with a partner, that is, an
    opposing bound whose box exceeds epsilon.  The improved region must also
    hold brute-force opposing indices, and defining sets equal to their
    definition: the points of that kind tied with the bound in component j
    and strictly inside it in every other component.  The children it stores
    must be those ``child_criterion_*`` accepts that have a partner, created
    in (parent id, k) order.
    """

    GRID = (0.2, 0.4, 0.6, 0.8)
    FAN = 0.4  # the tied sequences share this value in component 0
    # Points per random sequence, kept small enough for the oracle.
    RANDOM_LENGTH = {2: 30, 3: 20, 4: 10, 5: 7, 6: 5}

    @staticmethod
    def _inside(kind, bound, d, j):
        beyond = operator.gt if kind == UPPER else operator.lt
        return all(beyond(b, x) for i, (b, x) in enumerate(zip(bound.coords, d)) if i != j)

    def _expected_children(self, region, kind, pt):
        criterion = child_criterion_upper if kind == UPPER else child_criterion_lower
        parents = [b for b in bound_views(region, kind) if self._inside(kind, b, pt, None)]
        return [
            (kind, b.coords[:k] + (pt[k],) + b.coords[k + 1 :])
            for b in sorted(parents, key=lambda b: b.id)
            for k in range(region.m)
            if criterion(b, pt, k)
        ]

    def _check_defining(self, region, applied):
        for kind in (LOWER, UPPER):
            for b in bound_views(region, kind):
                for j, group in enumerate(b.defining):
                    expected = {
                        d for d in applied[kind]
                        if d[j] == b.coords[j] and self._inside(kind, b, d, j)
                    }
                    assert len(set(group)) == len(group), (b, group)
                    assert set(group) == expected, (b, j, group, expected)

    def _sequence(self, rng, m, tied):
        """(z, s, lower_only) triples on [0, 1]^m, and None where to compact."""
        if not tied:
            z = rng.uniform(0.05, 0.95, (self.RANDOM_LENGTH[m], m))
            return [(row, row + rng.uniform(0, 0.02, m) * (i % 2), i % 5 == 4)
                    for i, row in enumerate(z)]
        grid = np.array(self.GRID)

        def draw(first=None):
            z = grid[rng.integers(0, len(grid), m)]
            if first is not None:
                z[0] = first
            return z

        # Four distinct points share component 0, so one upper bound gets a
        # defining group of four.  The store is compacted after the second;
        # the fillers lie right of that bound, so they split elsewhere without
        # touching it.
        rests = {tuple(grid[rng.integers(0, len(grid), m - 1)]) for _ in range(64)}
        fan = [np.array((self.FAN,) + rest) for rest in sorted(rests)[:4]]
        rng.shuffle(fan)
        fillers = [draw(rng.choice(grid[grid > self.FAN])) for _ in range(8)]
        tail = [draw() for _ in range(12)]
        out = []
        for i, z in enumerate(fan[:2] + fillers + fan[2:] + tail):
            s = z.copy()
            if i >= 14 and i % 3 == 0:  # lift s by one grid step in one component
                j = rng.integers(0, m)
                s[j] = grid[min(np.searchsorted(grid, s[j]) + 1, len(grid) - 1)]
            out.append((z, s, i % 7 == 6))
        out.insert(2, None)
        return out

    @pytest.mark.parametrize("tied", [False, True], ids=["random", "tied"])
    @pytest.mark.parametrize("mode", list(SizeMode))
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_matches_references_after_every_point(self, monkeypatch, m, mode, tied):
        monkeypatch.setattr(search_region, "COMPACT_MIN_ROWS", 2)
        rng = np.random.default_rng(1000 * m + 10 * tied + (mode == SizeMode.RELATIVE))
        scale = np.array([0.7, 1.3, 3.1, 0.9, 2.2, 1.7][:m])
        box = Box((0.0,) * m, tuple(scale), tuple(scale))
        improved = _region(box, eps=0.04, mode=mode)
        naive = _region(box, eps=0.04, region_class=NaiveRegion, mode=mode)
        applied = {LOWER: set(), UPPER: set()}
        for item in self._sequence(rng, m, tied):
            if item is None:
                # After the second point of the fan the slots have grown once;
                # compaction must carry them along before they grow again.
                # Dropping partnerless bounds may have compacted the store
                # already, so it need not hold a dead row here.
                upper = improved._stores[UPPER]
                assert upper.defining.shape[2] == 2
                for store in improved._stores.values():
                    store._compact()
                continue
            z, s, lower_only = item
            z = tuple((z * scale).tolist())
            s = tuple((s * scale).tolist())
            before = {b.id for b in _all_bounds(improved)}
            expected = self._expected_children(improved, LOWER, s)
            if not lower_only:
                expected += self._expected_children(improved, UPPER, z)
            improved.apply_point(z, s, lower_only=lower_only)
            naive.apply_point(z, s, lower_only=lower_only)
            applied[LOWER].add(s)
            if not lower_only:
                applied[UPPER].add(z)

            new = [b for b in _all_bounds(improved) if b.id not in before]
            oracle = {kind: bounds_oracle(box, applied[kind], kind) for kind in (LOWER, UPPER)}
            partnered = _partnered(oracle[LOWER], oracle[UPPER], improved)
            expected = [(kind, c) for kind, c in expected if c in partnered[kind]]
            assert [(b.kind, b.coords) for b in new] == expected
            for kind in (LOWER, UPPER):
                assert naive.coordinate_set(kind) == oracle[kind]
                assert improved.coordinate_set(kind) == partnered[kind]
            self._check_defining(improved, applied)
            check_indices(improved)

        if tied:
            assert improved._stores[UPPER].defining.shape[2] >= 3
