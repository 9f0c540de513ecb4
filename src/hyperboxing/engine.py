"""The refinement driver: pick the largest box, scalarize, update the region.

* :class:`Session` exposes the loop step-wise (next_query / submit) so an
  external solver can supply the scalarization answers.
* :func:`refine` drives a session to completion with a solve callable.
* :func:`run_representation` runs :func:`refine` with an in-process backend
  and returns a :class:`RunReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .geometry import Box, Point, SizeMode, box_measures, box_size
from .problems import ProblemSpec
from .scalarization import (
    ContractError,
    GridScalarizer,
    NoIntersection,
    ProtocolError,
    PSQuery,
    PSSolution,
    solve_quadric_ps,
)
from .reference import NaiveRegion
from .search_region import SearchRegion, Strategy

DEFAULT_MAX_ITERATIONS = 100_000
# Relative tolerance on |z_i + lambda_i - (p_i + alpha q_i)| for submitted answers.
RAY_TOL = 1e-9


class Ack(str, Enum):
    ACCEPTED = "accepted"
    SKIPPED_DOMINATED = "skippedDominated"
    STALLED_EVICTED = "stalledEvicted"


class SessionError(RuntimeError):
    """Operation on a closed session."""


def _check_limits(epsilon: float, max_iterations: int) -> None:
    """Refuse a target quality that is not > 0 (NaN included) or a cap below 1."""
    if not epsilon > 0:
        raise ValueError(f"target approximation quality must be > 0, got {epsilon}")
    if max_iterations < 1:
        raise ValueError("iteration cap must be at least 1")


@dataclass
class RunConfig:
    problem: ProblemSpec
    epsilon: float
    mode: SizeMode = SizeMode.ABSOLUTE
    strategy: Strategy = Strategy.IMPROVED
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    grid_resolution: int | None = None

    def __post_init__(self):
        _check_limits(self.epsilon, self.max_iterations)
        if self.grid_resolution is not None and self.grid_resolution < 2:
            raise ValueError(f"grid resolution must be at least 2, got {self.grid_resolution}")


@dataclass
class RepresentationEntry:
    z: Point
    s: Point
    alpha: float
    box_lower: Point
    box_upper: Point


def _table_entries(table: np.ndarray, m: int) -> list[RepresentationEntry]:
    """The entries of a table of accepted points in ``RunReport.table``'s layout."""
    return [
        RepresentationEntry(tuple(row[:m]), tuple(row[m : 2 * m]), row[2 * m],
                            tuple(row[2 * m + 1 : 3 * m + 1]), tuple(row[3 * m + 1 :]))
        for row in table.tolist()
    ]


@dataclass
class RunReport:
    """What one run produced and how long it took.

    ``table`` holds one row per accepted point: z, s, alpha and the corners
    of the selected box, as 4m + 1 float64 columns, copied from the session.
    ``entries`` and ``points`` rebuild the Python views from it; float64
    holds each value exactly.
    """

    problem: str | None  # None for a session served to an external solver
    m: int
    epsilon: float
    mode: SizeMode
    strategy: Strategy
    table: np.ndarray
    iterations: int
    stalled_boxes: int
    skipped_dominated: int
    final_max_box_size: float
    selected_sizes: list[float]
    wall_time_total: float
    wall_time_region: float
    wall_time_solve: float
    truncated: bool = False

    @property
    def cardinality(self) -> int:
        return len(self.table)

    @property
    def entries(self) -> list[RepresentationEntry]:
        return _table_entries(self.table, self.m)

    @property
    def points(self) -> list[Point]:
        return list(map(tuple, self.table[:, : self.m].tolist()))


class Session:
    """One step-wise representation run over a start box.

    ``next_query`` is idempotent until the pending query is answered via
    ``submit`` (or given up via ``evict_pending`` when the backend cannot
    solve it).  ``submit`` writes each accepted point once, as a row of a
    table in ``RunReport.table``'s layout that doubles when full; the
    dominance test, the read-only ``entries`` and ``report`` read that table.
    """

    def __init__(
        self,
        start_box: Box,
        epsilon: float,
        mode: SizeMode = SizeMode.ABSOLUTE,
        strategy: Strategy = Strategy.IMPROVED,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
    ):
        _check_limits(epsilon, max_iterations)
        self.strategy = Strategy(strategy)
        region_class = SearchRegion if self.strategy == Strategy.IMPROVED else NaiveRegion
        self.region = region_class(start_box, epsilon, mode)
        self.epsilon = float(epsilon)
        self.mode = SizeMode(mode)
        self.max_iterations = max_iterations
        self.selected_sizes: list[float] = []
        self.iterations = 0
        self.stalled_boxes = 0
        self.skipped_dominated = 0
        self.truncated = False
        self._table = np.empty((64, 4 * start_box.dim + 1))
        self._n = 0  # rows of the table in use
        self._pending: tuple[PSQuery, int, int, Box] | None = None
        self._closed = False

    @property
    def entries(self) -> list[RepresentationEntry]:
        return _table_entries(self._table[: self._n], self.region.m)

    def close(self) -> None:
        self._closed = True

    def next_query(self) -> PSQuery | None:
        if self._closed:
            raise SessionError("session is closed")
        if self._pending is not None:
            return self._pending[0]
        if self.iterations >= self.max_iterations:
            self.truncated = True
            return None
        pick = self.region.largest_box()
        if pick is None:
            return None
        box, l_id, u_id = pick
        query = PSQuery(self.iterations, box.upper, box.diagonal)
        self._pending = (query, l_id, u_id, box)
        return query

    def evict_pending(self) -> Ack:
        """Give up on the pending box (backend reported no intersection)."""
        if self._closed:
            raise SessionError("session is closed")
        if self._pending is None:
            raise ProtocolError("no pending query to evict")
        _, l_id, u_id, _ = self._pending
        self.region.evict_pair(l_id, u_id)
        self._finish_iteration()
        self.stalled_boxes += 1
        return Ack.STALLED_EVICTED

    def submit(self, solution: PSSolution) -> Ack:
        if self._closed:
            raise SessionError("session is closed")
        if self._pending is None:
            raise ProtocolError("no query is pending")
        query, l_id, u_id, box = self._pending
        if solution.query_id != query.query_id:
            raise ProtocolError(
                f"query id mismatch: expected {query.query_id}, got {solution.query_id}"
            )
        m = self.region.m
        if not len(solution.z) == len(solution.lam) == m:
            raise ContractError(f"answer has len(z) = {len(solution.z)} and len(lambda) = "
                                f"{len(solution.lam)}, but the region has m = {m}")
        if any(v < -1e-9 for v in solution.lam):
            raise ContractError(f"negative slack beyond tolerance: {solution.lam}")
        z = tuple(float(v) for v in solution.z)
        s = tuple(zi + max(float(li), 0.0) for zi, li in zip(z, solution.lam))
        alpha = float(solution.alpha)
        for si, pi, qi in zip(s, query.p, query.q):
            # Written as not(<=) so that a NaN anywhere is refused too.
            if not abs(si - (pi + alpha * qi)) <= RAY_TOL * (1.0 + abs(pi) + abs(alpha * qi)):
                raise ContractError(
                    f"z + lambda = {s} is off the query ray p + alpha q "
                    f"(p={query.p}, q={query.q}, alpha={alpha})"
                )

        dominated = bool((self._table[: self._n, :m] <= np.asarray(z)).all(axis=1).any())
        self.region.apply_point(z, s, lower_only=dominated)
        stalled = self.region.contains_bound(l_id) and self.region.contains_bound(u_id)
        if stalled:
            self.region.evict_pair(l_id, u_id)
            self.stalled_boxes += 1
        self._finish_iteration()
        if dominated:
            self.skipped_dominated += 1
            return Ack.SKIPPED_DOMINATED
        if stalled:
            return Ack.STALLED_EVICTED
        if self._n == len(self._table):
            self._table = np.concatenate([self._table, np.empty_like(self._table)])
        self._table[self._n] = (*z, *s, alpha, *box.lower, *box.upper)
        self._n += 1
        return Ack.ACCEPTED

    def _finish_iteration(self) -> None:
        _, _, _, box = self._pending
        self.selected_sizes.append(box_size(box, self.mode))
        self._pending = None
        self.iterations += 1

    def final_max_box_size(self) -> float:
        """Certified upper bound on every remaining box; see ``max_box_size_bound``."""
        return self.region.max_box_size_bound()

    def report(
        self, problem: str | None, started: float, region_time: float, solve_time: float
    ) -> RunReport:
        """The run's report, with the final box size from ``final_max_box_size``.

        ``started`` is the ``time.perf_counter()`` reading at the start of the
        run; the total wall time runs from it to the end of the report.
        """
        return RunReport(
            problem=problem,
            m=self.region.m,
            epsilon=self.epsilon,
            mode=self.mode,
            strategy=self.strategy,
            table=self._table[: self._n].copy(),
            iterations=self.iterations,
            stalled_boxes=self.stalled_boxes,
            skipped_dominated=self.skipped_dominated,
            final_max_box_size=self.final_max_box_size(),
            selected_sizes=list(self.selected_sizes),
            wall_time_total=time.perf_counter() - started,
            wall_time_region=region_time,
            wall_time_solve=solve_time,
            truncated=self.truncated,
        )


def start_box_for(problem: ProblemSpec) -> Box:
    """Start box spanned by the problem's ideal and nadir points."""
    scale = tuple(n - i for i, n in zip(problem.ideal, problem.nadir))
    return Box(problem.ideal, problem.nadir, scale)


def make_backend(config: RunConfig):
    """In-process scalarization backend for the configured problem."""
    problem = config.problem
    if problem.analytic_quadric is not None:
        a = problem.analytic_quadric
        return lambda query: solve_quadric_ps(query, a)
    return GridScalarizer(problem, config.grid_resolution).solve


def refine(session: Session, solve) -> tuple[float, float]:
    """Answer the session's queries with ``solve`` until it asks no more.

    ``solve(query)`` returns a ``PSSolution`` or raises ``NoIntersection``,
    which evicts the query's box.  Returns the seconds spent in the session
    and in ``solve``.
    """
    region_time = solve_time = 0.0
    while True:
        t0 = time.perf_counter()
        query = session.next_query()
        t1 = time.perf_counter()
        region_time += t1 - t0
        if query is None:
            return region_time, solve_time
        try:
            solution = solve(query)
        except NoIntersection:
            solution = None
        t0 = time.perf_counter()
        solve_time += t0 - t1
        if solution is None:
            session.evict_pending()
        else:
            session.submit(solution)
        region_time += time.perf_counter() - t0


def run_representation(config: RunConfig) -> RunReport:
    """Run the full refinement loop and report the representation found."""
    problem = config.problem
    solve = make_backend(config)
    session = Session(
        start_box_for(problem),
        config.epsilon,
        mode=config.mode,
        strategy=config.strategy,
        max_iterations=config.max_iterations,
    )
    t_start = time.perf_counter()
    region_time, solve_time = refine(session, solve)
    return session.report(problem.name, t_start, region_time, solve_time)


@dataclass
class ComparisonReport:
    naive: RunReport
    improved: RunReport
    identical_sequences: bool

    @property
    def region_time_ratio(self) -> float:
        return self.improved.wall_time_region / max(self.naive.wall_time_region, 1e-12)

    @property
    def total_time_ratio(self) -> float:
        return self.improved.wall_time_total / max(self.naive.wall_time_total, 1e-12)


def compare_strategies(config: RunConfig) -> ComparisonReport:
    """Run both strategies on identical inputs and compare."""
    naive = run_representation(replace(config, strategy=Strategy.NAIVE))
    improved = run_representation(replace(config, strategy=Strategy.IMPROVED))
    identical = naive.points == improved.points
    return ComparisonReport(naive, improved, identical)
