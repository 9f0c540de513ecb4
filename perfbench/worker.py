"""One benchmark workload in one fresh process: set up, time, check, report.

``run.py`` starts this file and passes, as ``--spawned-at``, its
``perf_counter`` reading just before the spawn. On Linux ``perf_counter`` is
CLOCK_MONOTONIC in every process, so set-up time here counts interpreter
start and imports. The last line on standard output is the result object;
progress and check failures go to standard error.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import checks as ck
import hyperboxing
from hyperboxing import engine, problems, scalarization
from hyperboxing.cli import write_points_csv
from hyperboxing.engine import Ack, RunConfig, Session, run_representation, start_box_for
from hyperboxing.scalarization import NoIntersection
from hyperboxing.search_region import Strategy
from tracer import Tracer, install_package_spans

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / "perfbench" / ".runs"

#: Front samples drawn (seeded by --seed) for the coverage check.
FRONT_SAMPLES = 20_000
#: Seconds allowed for one serve child to exit after its last answer.
SERVE_EXIT_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    problem: str
    m: int
    epsilon: float  # absolute size mode
    reference: int | None = None  # published |Z_R|
    tolerance: float = 0.0  # allowed share off the reference
    serve: bool = False
    naive_prefix: int = 0  # leading iterations replayed by the naive oracle


WORKLOADS = {
    # Published 1786 points, exactly; many cheap iterations through the CLI.
    "sphere3-serve": Workload("sphere", 3, 0.02, reference=1786, serve=True),
    # The pair store, lazy heap and final L x U scan carry the time and memory.
    # The naive strategy needs a few seconds for its first 40 iterations.
    "sphere6-region": Workload("sphere", 6, 0.3, naive_prefix=40),
    # 0.05 in start-box units (smallest edge 0.86); published 237 points.
    "patched-grid": Workload("patched", 3, 0.043, reference=237, tolerance=0.15),
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- observing the engine from outside ------------------------------------------


class BackendProbe:
    """Times the engine between solver calls inside ``run_representation``.

    Wraps the callable that ``engine.make_backend`` returns. The gap between
    one solve returning and the next one starting is the engine's time per
    query as an in-process solver sees it.
    """

    def __init__(self, engine):
        self.gaps: list[float] = []
        self.first_query_at: float | None = None
        self._last: float | None = None
        self._engine = engine
        self._original = engine.make_backend
        engine.make_backend = self._make_backend

    def _make_backend(self, config):
        solve = self._original(config)
        self._last = None

        def timed(query):
            now = perf_counter()
            if self._last is not None:
                self.gaps.append(now - self._last)
            elif self.first_query_at is None:
                self.first_query_at = now
            try:
                return solve(query)
            finally:
                self._last = perf_counter()

        return timed

    def restore(self) -> None:
        self._engine.make_backend = self._original


class RegionCounters:
    """Peaks of |L|, |U|, live pairs and heap entries, and stale heap pops.

    Reads the region's public index maps; the heap length comes from the
    region's ``_heap`` list while it has one. A missing source leaves its
    counter absent (None).
    """

    def __init__(self, region):
        self.region = region
        self.lower_peak = self.upper_peak = self.pairs_peak = self.heap_peak = None
        self.pops = None if self._heap() is None else 0
        self.seconds = 0.0

    def _heap(self):
        return getattr(self.region, "_heap", None)

    def heap_len(self):
        heap = self._heap()
        return None if heap is None else len(heap)

    def count_pops(self, before) -> None:
        after = self.heap_len()
        if before is not None and after is not None:
            self.pops += before - after

    def sample(self) -> None:
        start = perf_counter()
        opp_upper = getattr(self.region, "opp_upper", None)
        opp_lower = getattr(self.region, "opp_lower", None)
        if opp_upper is not None:
            self.lower_peak = max(self.lower_peak or 0, len(opp_upper))
            self.pairs_peak = max(self.pairs_peak or 0, sum(map(len, opp_upper.values())))
        if opp_lower is not None:
            self.upper_peak = max(self.upper_peak or 0, len(opp_lower))
        heap = self.heap_len()
        if heap is not None:
            self.heap_peak = max(self.heap_peak or 0, heap)
        self.seconds += perf_counter() - start


@dataclass
class Drive:
    points: list
    attempted: int
    failed: int
    counters: RegionCounters


def drive(session, answer) -> Drive:
    """The benchmark's own refinement loop over a ``Session``.

    ``answer(query)`` returns a solution or raises ``NoIntersection``. A
    query counts as failed when it has no intersection, when the engine
    rejects the answer, or when its box is stall-evicted.
    """
    counters = RegionCounters(session.region)
    attempted = failed = 0
    while True:
        before = counters.heap_len()
        query = session.next_query()
        counters.count_pops(before)
        if query is None:
            break
        attempted += 1
        try:
            ack = session.submit(answer(query))
        except (NoIntersection, ValueError) as exc:
            log(f"query {query.query_id} failed: {exc!r}")
            failed += 1
            session.evict_pending()
            continue
        failed += ack is Ack.STALLED_EVICTED
        counters.sample()
    session.final_max_box_size()
    points = [e.z for e in session.entries]
    return Drive(points, attempted, failed, counters)


# -- results -------------------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer, run: Drive, *, untraced_wall, traced_wall, points_per_solve,
                  engine_wait=0.0, solver_side=0.0) -> dict:
    """Per-layer numbers of a traced run; a missing source stays absent."""
    c = run.counters
    solves = tracer.calls["solve"]
    values = {
        "engine.next_query_self_s": (tracer.self_time["engine.next_query"], "s"),
        "engine.submit_self_s": (tracer.self_time["engine.submit"], "s"),
        "engine.report_scan_s": (tracer.total["engine.final_max_box_size"], "s"),
        "engine.iterations": (run.attempted, "count"),
        "engine.accepted": (len(run.points), "count"),
        "region.apply_point_s": (tracer.total["region.apply_point"], "s"),
        "region.apply_point_calls": (tracer.calls["region.apply_point"], "count"),
        "region.largest_box_s": (tracer.total["region.largest_box"], "s"),
        "region.lower_bounds_peak": (c.lower_peak, "count"),
        "region.upper_bounds_peak": (c.upper_peak, "count"),
        "region.live_pairs_peak": (c.pairs_peak, "count"),
        "region.heap_entries_peak": (c.heap_peak, "count"),
        "region.stale_pops": (c.pops, "count"),
        "region.useful_pop_ratio": (run.attempted / c.pops if c.pops else None, "ratio"),
        "solve.s": (tracer.total["solve"], "s"),
        "solve.calls": (solves, "count"),
        "solve.ms_p50": (tracer.median_ms("solve"), "ms"),
        "solve.points_evaluated": (solves * points_per_solve, "count"),
        "setup.grid_build_s": (tracer.total["setup.grid_build"], "s"),
        "serve.engine_wait_s": (engine_wait, "s"),
        "serve.solver_side_s": (solver_side, "s"),
        "codec.encode_query_s": (tracer.total["codec.encode_query"], "s"),
        "codec.decode_solution_s": (tracer.total["codec.decode_solution"], "s"),
        "problems.make_problem_s": (tracer.total["problems.make_problem"], "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
    }
    absent = sorted(name for name, (value, _) in values.items() if value is None)
    if absent:
        log(f"absent (no source in the program): {', '.join(absent)}")
    log(f"region.useful_pop_ratio base: {run.attempted} selections / {c.pops} heap pops")
    log(f"solve.points_evaluated is computed: {solves} solves x {points_per_solve} points")
    return {name: metric(v, u) for name, (v, u) in values.items() if v is not None}


def finish(failures: dict, attempted: int, failed: int, metrics: dict) -> dict:
    for name, problems in failures.items():
        for problem in problems:
            log(f"CHECK FAILED [{name}]: {problem}")
    return {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}


def common_checks(spec: Workload, outcome, seed: int) -> dict:
    problem = problems.make_problem(spec.problem, spec.m)
    # Coverage budget: front steepness * epsilon + sampler slack. The sphere
    # uses 1, as acceptance criterion 6 does; the patched front's slope
    # reaches max |h'| on its efficient bands.
    steepness = 1.0 if spec.problem == "sphere" else ck.patched_steepness()
    named = {
        "on_ray": lambda: ck.check_on_ray(outcome),
        "nondominated": lambda: ck.check_nondominated(outcome.points),
        "accounting": lambda: ck.check_accounting(outcome),
        "termination": lambda: ck.check_termination(outcome),
        "coverage": lambda: ck.check_coverage(
            outcome.points, problem.sample_front(FRONT_SAMPLES, seed),
            spec.epsilon, steepness),
    }
    if spec.problem == "sphere":
        named["on_front"] = lambda: ck.check_on_sphere(outcome.points)
    else:
        cell = 1.0 / (problem.default_grid_resolution - 1)
        named["on_front"] = lambda: ck.check_on_patched_front(outcome.points, cell)
    if spec.reference is not None:
        named["cardinality"] = lambda: ck.check_cardinality(
            outcome.points, spec.reference, spec.tolerance)
    return named


def naive_oracle(spec: Workload, config, improved) -> dict:
    """The first accepted points equal a capped run of the naive strategy."""
    if not spec.naive_prefix:
        return {}

    def check():
        naive = run_representation(
            replace(config, strategy=Strategy.NAIVE, max_iterations=spec.naive_prefix))
        failures = ck.check_same_sequence(
            improved.points[: len(naive.points)], naive.points, "naive oracle")
        if naive.cardinality != spec.naive_prefix - naive.skipped_dominated - naive.stalled_boxes:
            failures.append(f"naive oracle accepted {naive.cardinality} of "
                            f"{spec.naive_prefix} queries")
        return failures

    return {"naive_oracle": check}


# -- in-process workloads ----------------------------------------------------------


def inprocess_untraced(spec: Workload, seed: int, seconds: float, spawned_at: float) -> dict:
    probe = BackendProbe(engine)
    try:
        config = RunConfig(problems.make_problem(spec.problem, spec.m), spec.epsilon)
        walls, reports = [], []
        start = perf_counter()
        while not walls or perf_counter() - start < seconds:
            t0 = perf_counter()
            reports.append(run_representation(config))
            walls.append(perf_counter() - t0)
    finally:
        probe.restore()
    rss = peak_rss_mb(resource.RUSAGE_SELF)

    first = reports[0]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": metric(wall, "s"),
        "setup_s": metric(probe.first_query_at - spawned_at, "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "iterations_per_s": metric(first.iterations / wall, "1/s"),
        "query_ms_p50": metric(statistics.median(probe.gaps) * 1e3, "ms"),
    }
    log(f"{len(walls)} rounds of {first.iterations} iterations, {first.cardinality} points; "
        f"wall_s per round {[round(w, 3) for w in walls]}; "
        f"query_ms_p50 over {len(probe.gaps)} samples")

    outcome = ck.outcome_from_report(first)
    named = common_checks(spec, outcome, seed)
    named["repeatable"] = lambda: [
        msg for r in reports[1:]
        for msg in ck.check_same_sequence(r.points, first.points, "repeated round")]
    named.update(naive_oracle(spec, config, first))
    failures = ck.run_checks(named)
    attempted = sum(r.iterations for r in reports)
    failed = sum(r.stalled_boxes for r in reports)
    return finish(failures, attempted, failed, metrics)


def inprocess_traced(spec: Workload, seed: int) -> dict:
    config = RunConfig(problems.make_problem(spec.problem, spec.m), spec.epsilon)
    t0 = perf_counter()
    reference = run_representation(config)
    untraced_wall = perf_counter() - t0

    tracer = Tracer()
    install_package_spans(tracer)
    try:
        t0 = perf_counter()
        problem = problems.make_problem(spec.problem, spec.m)
        if problem.analytic_quadric is not None:
            semi_axes = problem.analytic_quadric
            points_per_solve = 1

            def solve(query):
                return scalarization.solve_quadric_ps(query, semi_axes)
        else:
            grid = scalarization.GridScalarizer(problem)
            solve = grid.solve
            points_per_solve = 2 * grid.resolution ** len(problem.decision_box)
        session = Session(start_box_for(problem), spec.epsilon)
        run = drive(session, solve)
        traced_wall = perf_counter() - t0 - run.counters.seconds
    finally:
        tracer.restore()

    metrics = layer_metrics(tracer, run, untraced_wall=untraced_wall, traced_wall=traced_wall,
                            points_per_solve=points_per_solve)
    log(f"untraced {untraced_wall:.3f} s, traced {traced_wall:.3f} s "
        f"(counter reads {run.counters.seconds:.3f} s excluded)")
    outcome = ck.outcome_from_report(reference)
    named = common_checks(spec, outcome, seed)
    named["traced_equals_untraced"] = lambda: ck.check_same_sequence(
        run.points, reference.points, "traced loop vs run_representation")
    named.update(naive_oracle(spec, config, reference))
    return finish(ck.run_checks(named), run.attempted, run.failed, metrics)


# -- the serve workload ----------------------------------------------------------------


@dataclass
class ServeRound:
    wall: float
    first_query_after: float
    gaps: list
    engine_wait: float
    solver_side: float
    attempted: int
    failed: int
    exchanges: list  # (query, solution) in order
    sizes: list
    returncode: int
    csv: bytes
    report: dict | None


def serve_round(spec: Workload, box_path: Path, out_dir: Path, tag: str) -> ServeRound:
    """One closed-loop ``hyperboxing serve`` process answered by solve_quadric_ps."""
    csv_path = out_dir / f"points-{tag}.csv"
    report_path = out_dir / f"report-{tag}.json"
    cmd = [sys.executable, "-m", "hyperboxing.cli", "serve",
           "--epsilon", repr(spec.epsilon), "--start-box", str(box_path),
           "--out", str(csv_path), "--report", str(report_path)]
    semi_axes = (1.0,) * spec.m
    gaps, exchanges, sizes = [], [], []
    engine_wait = solver_side = 0.0
    attempted = failed = 0
    spawned = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    try:
        line = proc.stdout.readline()
        read_at = perf_counter()
        first_query_after = read_at - spawned
        while line:
            query = scalarization.decode_query(line)
            if query is None:
                break
            attempted += 1
            sizes.append(min(query.q))
            try:
                solution = scalarization.solve_quadric_ps(query, semi_axes)
            except NoIntersection as exc:
                log(f"query {query.query_id} failed: {exc!r}")
                failed += 1
                break
            exchanges.append((query, solution))
            proc.stdin.write(scalarization.encode_solution(solution) + "\n")
            proc.stdin.flush()
            written_at = perf_counter()
            solver_side += written_at - read_at
            line = proc.stdout.readline()
            read_at = perf_counter()
            engine_wait += read_at - written_at
            if line.startswith('{"query_id"'):
                gaps.append(read_at - written_at)
        proc.stdin.close()
        returncode = proc.wait(timeout=SERVE_EXIT_TIMEOUT_S)
        wall = perf_counter() - spawned
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if returncode != 0:
        failed += 1
        log(f"serve exited with {returncode}")
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    if report is not None:
        failed += report["stalledBoxes"]
    csv = csv_path.read_bytes() if csv_path.exists() else b""
    return ServeRound(wall, first_query_after, gaps, engine_wait, solver_side, attempted,
                      failed, exchanges, sizes, returncode, csv, report)


def serve_outcome(spec: Workload, rnd: ServeRound):
    """Checks' view of one served run: CSV points matched to the answers."""
    lines = rnd.csv.decode().splitlines()[1:]
    points = [tuple(float(v) for v in line.split(",")) for line in lines]
    answers, k = [], 0
    for query, solution in rnd.exchanges:
        if k < len(points) and tuple(solution.z) == points[k]:
            answers.append(ck.Answer(query.p, query.q, solution.alpha, solution.z, solution.lam))
            k += 1
    report = rnd.report or {}
    return ck.Outcome(
        epsilon=spec.epsilon,
        points=points,
        answers=answers,
        iterations=report.get("iterations", -1),
        skipped=report.get("skippedDominated", 0),
        stalled=report.get("stalledBoxes", 0),
        truncated=report.get("truncated", True),
        final_max_box_size=report.get("finalMaxBoxSize", float("inf")),
        selected_sizes=rnd.sizes,
    )


def serve_checks(spec: Workload, rnd: ServeRound, seed: int) -> dict:
    outcome = serve_outcome(spec, rnd)
    named = common_checks(spec, outcome, seed)
    named["serve_exit"] = lambda: (
        [] if rnd.returncode == 0 else [f"serve exited with {rnd.returncode}"])
    return named


@contextmanager
def scratch_dir(spec: Workload):
    """A fresh directory holding the start-box file, removed afterwards."""
    problem = problems.make_problem(spec.problem, spec.m)
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR))
    try:
        box_path = out_dir / "box.json"
        box_path.write_text(json.dumps({"l0": problem.ideal, "u0": problem.nadir}))
        yield box_path, out_dir
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def serve_untraced(spec: Workload, seed: int, seconds: float) -> dict:
    with scratch_dir(spec) as (box_path, out_dir):
        rounds = []
        start = perf_counter()
        while not rounds or perf_counter() - start < seconds:
            rounds.append(serve_round(spec, box_path, out_dir, str(len(rounds))))
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)

        first = rounds[0]
        wall = statistics.median(r.wall for r in rounds)
        gaps = [g for r in rounds for g in r.gaps]
        iterations = (first.report or {}).get("iterations", first.attempted)
        metrics = {
            "wall_s": metric(wall, "s"),
            "setup_s": metric(first.first_query_after, "s"),
            "peak_rss_mb": metric(rss, "MB"),
            "iterations_per_s": metric(iterations / wall, "1/s"),
            "query_ms_p50": metric(statistics.median(gaps) * 1e3, "ms"),
        }
        log(f"{len(rounds)} serve rounds of {first.attempted} queries; wall_s per round "
            f"{[round(r.wall, 3) for r in rounds]}; query_ms_p50 over {len(gaps)} samples")

        named = serve_checks(spec, first, seed)
        reference = run_representation(
            RunConfig(problems.make_problem(spec.problem, spec.m), spec.epsilon))
        expected = out_dir / "in-process.csv"
        write_points_csv(str(expected), reference.points, spec.m)
        named["csv_matches_in_process"] = lambda: (
            [] if first.csv == expected.read_bytes()
            else ["served CSV differs from in-process run_representation"])
        named["repeatable"] = lambda: [
            f"serve round {k} wrote a different CSV"
            for k, r in enumerate(rounds[1:], 1) if r.csv != first.csv]
        failures = ck.run_checks(named)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return finish(failures, attempted, failed, metrics)


def serve_traced(spec: Workload, seed: int) -> dict:
    with scratch_dir(spec) as (box_path, out_dir):
        served = serve_round(spec, box_path, out_dir, "traced")
    semi_axes = (1.0,) * spec.m
    tracer = Tracer()
    install_package_spans(tracer)
    try:
        t0 = perf_counter()
        session = Session(start_box_for(problems.make_problem(spec.problem, spec.m)),
                          spec.epsilon)

        def answer(query):
            asked = scalarization.decode_query(scalarization.encode_query(query))
            reply = scalarization.encode_solution(
                scalarization.solve_quadric_ps(asked, semi_axes))
            return scalarization.decode_solution(reply, expected_id=query.query_id, dim=spec.m)

        run = drive(session, answer)
        traced_wall = perf_counter() - t0 - run.counters.seconds
    finally:
        tracer.restore()

    metrics = layer_metrics(
        tracer, run, untraced_wall=served.wall, traced_wall=traced_wall, points_per_solve=1,
        engine_wait=served.engine_wait, solver_side=served.solver_side)
    log(f"serve process {served.wall:.3f} s, traced in-process drive {traced_wall:.3f} s; "
        f"pipe and process cost {served.wall - traced_wall:.3f} s")
    named = serve_checks(spec, served, seed)
    named["traced_equals_untraced"] = lambda: ck.check_same_sequence(
        run.points, serve_outcome(spec, served).points, "traced codec drive vs serve")
    return finish(ck.run_checks(named), run.attempted + served.attempted,
                  run.failed + served.failed, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    if not Path(hyperboxing.__file__).resolve().is_relative_to(ROOT / "src"):
        log(f"error: hyperboxing imported from {hyperboxing.__file__}, not from {ROOT / 'src'}")
        return 2
    spec = WORKLOADS[args.workload]
    if spec.serve:
        result = (serve_traced(spec, args.seed) if args.trace
                  else serve_untraced(spec, args.seed, args.seconds))
    elif args.trace:
        result = inprocess_traced(spec, args.seed)
    else:
        result = inprocess_untraced(spec, args.seed, args.seconds, args.spawned_at)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
