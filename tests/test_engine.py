"""Refinement-driver tests: sessions, full runs and strategy comparison."""

import math
import re

import numpy as np
import pytest

from hyperboxing import engine, reference
from hyperboxing.engine import (
    Ack,
    RunConfig,
    Session,
    SessionError,
    compare_strategies,
    run_representation,
    start_box_for,
)
from hyperboxing.geometry import Box, SizeMode, box_measures
from hyperboxing.problems import make_problem, nondominated_mask
from hyperboxing.scalarization import (
    ContractError,
    GridScalarizer,
    NoIntersection,
    ProtocolError,
    PSSolution,
    solve_quadric_ps,
)
from hyperboxing.reference import max_box_size_full_scan
from hyperboxing.search_region import Strategy


def sphere_config(m=2, epsilon=0.25, **kwargs):
    return RunConfig(make_problem("sphere", m), epsilon, **kwargs)


def miss_queries(monkeypatch, misses):
    """Make the in-process backend raise NoIntersection on the given query ids."""
    make_backend = engine.make_backend

    def missing_backend(config):
        solve = make_backend(config)

        def answer(query):
            if query.query_id in misses:
                raise NoIntersection(f"query {query.query_id}")
            return solve(query)

        return answer

    monkeypatch.setattr(engine, "make_backend", missing_backend)


class TestRunConfig:
    def test_rejects_nonpositive_epsilon(self):
        for epsilon in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError):
                sphere_config(epsilon=epsilon)

    def test_rejects_grid_resolution_below_2(self):
        for resolution in (0, 1):
            with pytest.raises(ValueError, match="grid resolution"):
                RunConfig(make_problem("patched"), 0.3, grid_resolution=resolution)
        assert RunConfig(make_problem("patched"), 0.3, grid_resolution=2).grid_resolution == 2
        # Only None selects the problem's default resolution.
        with pytest.raises(ValueError, match="grid resolution"):
            GridScalarizer(make_problem("patched"), 0)

    def test_rejects_zero_iteration_cap(self):
        with pytest.raises(ValueError):
            sphere_config(max_iterations=0)

    def test_defaults(self):
        config = sphere_config()
        assert config.mode is SizeMode.ABSOLUTE
        assert config.strategy is Strategy.IMPROVED


class TestStartBox:
    def test_corner_points_span_box(self):
        spec = make_problem("ellipsoid", 3)
        box = start_box_for(spec)
        assert box.lower == spec.ideal
        assert box.upper == spec.nadir
        assert box.scale == (3.0, 1.0, 1.0)

    def test_nonconvex_scale(self):
        box = start_box_for(make_problem("nonconvex"))
        assert box.scale == pytest.approx((1.3694, 1.6094, 2.56), abs=1e-4)


class TestRunRepresentation:
    def test_sphere_first_point_is_diagonal_touch(self):
        # First query goes from the nadir (0, 0) along the full diagonal;
        # the closest sphere point on that ray is (-1/sqrt(2), -1/sqrt(2)).
        report = run_representation(sphere_config())
        expected = -1.0 / math.sqrt(2.0)
        assert report.entries[0].z == pytest.approx((expected, expected), abs=1e-12)
        assert report.entries[0].alpha == pytest.approx(expected, abs=1e-12)

    def test_terminates_below_epsilon(self):
        report = run_representation(sphere_config(epsilon=0.2))
        assert not report.truncated
        assert report.final_max_box_size <= 0.2

    def test_selected_sizes_non_increasing(self):
        report = run_representation(sphere_config(m=3, epsilon=0.15))
        sizes = report.selected_sizes
        assert all(a >= b - 1e-12 for a, b in zip(sizes, sizes[1:]))

    def test_points_mutually_nondominated(self):
        report = run_representation(sphere_config(m=3, epsilon=0.15))
        pts = np.asarray(report.points)
        assert nondominated_mask(pts).all()

    def test_points_on_sphere(self):
        report = run_representation(sphere_config(m=3, epsilon=0.2))
        radii = np.linalg.norm(np.asarray(report.points), axis=1)
        assert radii == pytest.approx(np.ones_like(radii), abs=1e-10)

    def test_iteration_cap_truncates(self):
        report = run_representation(sphere_config(epsilon=0.01, max_iterations=3))
        assert report.truncated
        assert report.iterations == 3
        assert report.cardinality <= 3

    def test_relative_mode_rescales_termination(self):
        # Ellipsoid axes are (3, 1); a relative threshold of 0.2 admits
        # boxes three times longer along the first axis than an absolute
        # one, so the run ends with fewer points.
        spec = make_problem("ellipsoid", 2)
        absolute = run_representation(RunConfig(spec, 0.2, SizeMode.ABSOLUTE))
        relative = run_representation(RunConfig(spec, 0.2, SizeMode.RELATIVE))
        assert relative.cardinality < absolute.cardinality

    def test_grid_problem_runs(self):
        report = run_representation(
            RunConfig(make_problem("patched"), 0.2, SizeMode.ABSOLUTE)
        )
        assert report.cardinality > 0
        assert not report.truncated

    def test_wall_times_partition(self):
        report = run_representation(sphere_config())
        assert report.wall_time_region >= 0
        assert report.wall_time_solve >= 0
        assert report.wall_time_total >= report.wall_time_region


class TestSession:
    def start(self, epsilon=0.3):
        box = Box((-1.0, -1.0), (0.0, 0.0), (1.0, 1.0))
        return Session(box, epsilon)

    def test_rejects_bad_limits(self):
        box = Box((-1.0, -1.0), (0.0, 0.0), (1.0, 1.0))
        for epsilon, max_iterations in ((0.0, 10), (math.nan, 10), (0.3, 0)):
            with pytest.raises(ValueError):
                Session(box, epsilon, max_iterations=max_iterations)

    def test_next_query_idempotent_until_submit(self):
        session = self.start(epsilon=0.2)
        q1 = session.next_query()
        q2 = session.next_query()
        assert q1 is q2
        session.submit(solve_quadric_ps(q1, (1.0, 1.0)))
        assert session.next_query().query_id == q1.query_id + 1

    def test_first_query_spans_start_box(self):
        session = self.start()
        query = session.next_query()
        assert query.p == (0.0, 0.0)
        assert query.q == (1.0, 1.0)

    def test_submit_without_pending_raises(self):
        session = self.start()
        with pytest.raises(ProtocolError):
            session.submit(PSSolution(0, -0.5, (-0.5, -0.5), (0.0, 0.0)))

    def test_query_id_mismatch_raises(self):
        session = self.start()
        query = session.next_query()
        good = solve_quadric_ps(query, (1.0, 1.0))
        with pytest.raises(ProtocolError):
            session.submit(PSSolution(99, good.alpha, good.z, good.lam))

    def test_negative_slack_rejected(self):
        session = self.start()
        session.next_query()
        with pytest.raises(Exception):
            session.submit(PSSolution(0, -0.5, (-0.5, -0.5), (-0.5, 0.0)))

    def test_dominated_answer_is_skipped(self):
        session = self.start()
        session.next_query()
        session.submit(PSSolution(0, -0.5, (-0.5, -0.5), (0.0, 0.0)))
        query = session.next_query()
        dominated = tuple(v + 0.1 for v in (-0.5, -0.5))
        # The smallest alpha whose ray point s = p + alpha q lies above z.
        alpha = max((zi - pi) / qi for zi, pi, qi in zip(dominated, query.p, query.q))
        s = tuple(pi + alpha * qi for pi, qi in zip(query.p, query.q))
        lam = tuple(si - zi for si, zi in zip(s, dominated))
        ack = session.submit(PSSolution(query.query_id, alpha, dominated, lam))
        assert ack is Ack.SKIPPED_DOMINATED
        assert session.skipped_dominated == 1
        assert len(session.entries) == 1

    def test_off_ray_answer_rejected(self):
        session = self.start()
        query = session.next_query()
        with pytest.raises(ContractError, match="off the query ray"):
            session.submit(PSSolution(query.query_id, 0.0, (7.0, 7.0), (0.0, 0.0)))
        assert session.entries == []
        assert session.next_query() is query

    def test_unsplittable_answer_evicts_box(self):
        # An answer exactly on the ray always splits the queried box, so a
        # stall needs the slack that the ray tolerance allows.  This box has
        # edges of 1e-10, below that tolerance, so z = s = (0, 1e-10) passes
        # as the ray point for alpha = 0.
        # z touches the box boundary in the second component and s touches
        # it in the first: neither bound list changes, the pair is evicted.
        session = Session(Box((0.0, 0.0), (1e-10, 1e-10), (1.0, 1.0)), 1e-12)
        query = session.next_query()
        ack = session.submit(PSSolution(query.query_id, 0.0, (0.0, 1e-10), (0.0, 0.0)))
        assert ack is Ack.STALLED_EVICTED
        assert session.stalled_boxes == 1
        assert session.next_query() is None

    def test_evict_pending_counts_stall(self):
        session = self.start()
        session.next_query()
        assert session.evict_pending() is Ack.STALLED_EVICTED
        assert session.stalled_boxes == 1

    def test_evict_without_pending_raises(self):
        session = self.start()
        with pytest.raises(ProtocolError):
            session.evict_pending()

    def test_closed_session_rejects_queries(self):
        session = self.start()
        session.close()
        with pytest.raises(SessionError):
            session.next_query()

    def test_closed_session_rejects_evict_pending(self):
        session = self.start()
        session.next_query()
        session.close()
        with pytest.raises(SessionError):
            session.evict_pending()
        assert session.stalled_boxes == 0
        assert session.iterations == 0

    @pytest.mark.parametrize(
        "z, lam, lengths",
        [((-0.5, -0.5, -0.5), (0.0, 0.0), "len(z) = 3 and len(lambda) = 2"),
         ((-0.5, -0.5), (0.0,), "len(z) = 2 and len(lambda) = 1")],
    )
    def test_wrong_dimension_answer_rejected_before_any_change(self, z, lam, lengths):
        session = self.start()
        query = session.next_query()
        with pytest.raises(ContractError, match=rf"{re.escape(lengths)}, .* m = 2"):
            session.submit(PSSolution(query.query_id, -0.5, z, lam))
        assert session.next_query() is query
        assert session.iterations == 0
        assert session.entries == []

    def test_drive_to_completion_matches_run(self):
        session = self.start(epsilon=0.2)
        while (query := session.next_query()) is not None:
            session.submit(solve_quadric_ps(query, (1.0, 1.0)))
        report = run_representation(sphere_config(m=2, epsilon=0.2))
        assert [e.z for e in session.entries] == report.points

    def test_point_table_grows_past_its_first_capacity(self):
        problem = make_problem("sphere", 3)
        session = Session(start_box_for(problem), 0.05)
        capacity = len(session._table)
        while (query := session.next_query()) is not None:
            session.submit(solve_quadric_ps(query, (1.0,) * 3))
        report = session.report(None, 0.0, 0.0, 0.0)
        assert report.cardinality > capacity
        assert session.entries == report.entries
        expected = np.array(
            [e.z + e.s + (e.alpha,) + e.box_lower + e.box_upper for e in report.entries]
        )
        assert report.table.dtype == expected.dtype and report.table.shape == expected.shape
        assert report.table.tobytes() == expected.tobytes()
        assert not np.shares_memory(report.table, session._table)
        report.table[:] = np.nan
        again = session.report(None, 0.0, 0.0, 0.0).table
        assert again.tobytes() == expected.tobytes()

    def test_report_taken_mid_run_stays_as_it_was(self):
        session = Session(Box((-1.0, -1.0), (0.0, 0.0), (1.0, 1.0)), 0.1)
        session.submit(solve_quadric_ps(session.next_query(), (1.0, 1.0)))
        report = session.report(None, 0.0, 0.0, 0.0)
        assert len(report.selected_sizes) == report.iterations == 1
        session.submit(solve_quadric_ps(session.next_query(), (1.0, 1.0)))
        assert len(report.selected_sizes) == 1
        assert report.selected_sizes is not session.selected_sizes
        assert len(session.selected_sizes) == 2

    def test_pair_table_compacted_when_dead_rows_outnumber_live_ones(self):
        # Selection drops the table's dead rows once they outnumber the live
        # ones, so the argmax never scans more than twice the live rows.
        problem = make_problem("sphere", 5)
        session = Session(start_box_for(problem), 0.3)
        table = session.region._pairs
        dropped = 0
        while True:
            before = table.n
            query = session.next_query()
            assert table.live == int(table.alive[: table.n].sum())
            assert table.n <= 2 * table.live
            dropped += before - table.n
            if query is None:
                break
            session.submit(solve_quadric_ps(query, (1.0,) * 5))
        assert dropped > 0
        assert session.iterations == 51


@pytest.fixture
def reported_sessions(monkeypatch):
    """The sessions whose reports were built, in order."""
    sessions = []
    report = Session.report

    def recording(self, *args):
        sessions.append(self)
        return report(self, *args)

    monkeypatch.setattr(Session, "report", recording)
    return sessions


class TestFinalMaxBoxSize:
    """The reported box size is certified: at least the exact L x U scan."""

    @pytest.mark.parametrize(
        "problem, m, epsilon, mode",
        [
            ("sphere", 2, 0.05, SizeMode.ABSOLUTE),
            ("sphere", 3, 0.1, SizeMode.ABSOLUTE),
            ("sphere", 4, 0.2, SizeMode.ABSOLUTE),
            ("sphere", 5, 0.3, SizeMode.ABSOLUTE),
            ("sphere", 6, 0.4, SizeMode.ABSOLUTE),
            ("ellipsoid", 3, 0.1, SizeMode.RELATIVE),
            ("patched", 3, 0.2, SizeMode.ABSOLUTE),
        ],
    )
    def test_bounds_scan_and_meets_epsilon(self, reported_sessions, problem, m, epsilon, mode):
        report = run_representation(RunConfig(make_problem(problem, m), epsilon, mode))
        (session,) = reported_sessions
        scan = max_box_size_full_scan(session.region)
        assert not report.truncated and report.stalled_boxes == 0
        assert scan <= report.final_max_box_size <= epsilon

    def test_truncated_run_reports_largest_live_box(self, reported_sessions):
        report = run_representation(sphere_config(m=3, epsilon=0.05, max_iterations=3))
        (session,) = reported_sessions
        box, _, _ = session.region.largest_box()
        live = box_measures(box.lower, box.upper, session.region.scale)[0]
        assert report.truncated
        assert max_box_size_full_scan(session.region) <= report.final_max_box_size
        assert report.final_max_box_size == live > 0.05

    def test_evicted_boxes_bound_what_remains(self, monkeypatch, reported_sessions):
        misses = {1, 4, 9}
        miss_queries(monkeypatch, misses)
        report = run_representation(sphere_config(m=3, epsilon=0.1))
        (session,) = reported_sessions
        scan = max_box_size_full_scan(session.region)
        evicted = max(report.selected_sizes[i] for i in misses)
        assert report.stalled_boxes == len(misses)
        assert not report.truncated
        assert scan <= report.final_max_box_size == evicted
        assert evicted > 0.1

    @pytest.mark.parametrize("max_iterations", [3, engine.DEFAULT_MAX_ITERATIONS])
    def test_naive_reports_exact_scan(self, reported_sessions, max_iterations):
        report = run_representation(
            sphere_config(m=3, epsilon=0.1, strategy=Strategy.NAIVE, max_iterations=max_iterations)
        )
        (session,) = reported_sessions
        assert report.final_max_box_size == max_box_size_full_scan(session.region)

    def test_improved_report_scans_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("L x U scanned")

        monkeypatch.setattr(reference, "_largest_box_scan", refuse)
        assert run_representation(sphere_config(m=4, epsilon=0.2)).final_max_box_size <= 0.2


class TestCompareStrategies:
    def test_identical_sequences_on_sphere(self):
        comparison = compare_strategies(sphere_config(m=3, epsilon=0.15))
        assert comparison.identical_sequences
        assert comparison.naive.cardinality == comparison.improved.cardinality

    def test_identical_sequences_on_patched(self):
        config = RunConfig(make_problem("patched"), 0.2)
        comparison = compare_strategies(config)
        assert comparison.identical_sequences

    @pytest.mark.parametrize("m, epsilon", [(3, 0.1), (4, 0.25)])
    def test_identical_sequences_after_solver_misses(self, monkeypatch, m, epsilon):
        # Each miss evicts exactly the queried pair in both strategies.
        miss_queries(monkeypatch, {1, 4, 9, 17, 30})
        comparison = compare_strategies(sphere_config(m=m, epsilon=epsilon))
        assert comparison.identical_sequences
        assert comparison.naive.stalled_boxes == comparison.improved.stalled_boxes == 5

    def test_ratio_fields_positive(self):
        comparison = compare_strategies(sphere_config())
        assert comparison.region_time_ratio > 0
        assert comparison.total_time_ratio > 0
