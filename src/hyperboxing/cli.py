"""Command-line front end: run, compare, serve and sample-front."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .engine import (
    RunConfig,
    RunReport,
    Session,
    compare_strategies,
    refine,
    run_representation,
)
from .geometry import Box, SizeMode
from .metrics import approximation_quality, covering_slack
from .problems import PROBLEM_NAMES, make_problem
from .scalarization import (
    ContractError,
    ProtocolError,
    _fmt,
    decode_solution,
    encode_done,
    encode_query,
)


def write_points_csv(path: str, points, m: int) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"f{i + 1}" for i in range(m)) + "\n")
        for point in points:
            fh.write(",".join(_fmt(v) for v in point) + "\n")


def _report_dict(report: RunReport, empirical_alpha=None, sampler_slack=None) -> dict:
    out = {
        "problem": report.problem,
        "m": report.m,
        "epsilon": report.epsilon,
        "mode": report.mode.value,
        "strategy": report.strategy.value,
        "cardinality": report.cardinality,
        "iterations": report.iterations,
        "stalledBoxes": report.stalled_boxes,
        "skippedDominated": report.skipped_dominated,
        "finalMaxBoxSize": report.final_max_box_size,
        "wallTimeMs": report.wall_time_total * 1e3,
        "wallTimeRegionMs": report.wall_time_region * 1e3,
        "wallTimeSolveMs": report.wall_time_solve * 1e3,
        "truncated": report.truncated,
    }
    if report.problem is None:  # a served session knows no problem name
        del out["problem"]
    if empirical_alpha is not None:
        out["empiricalAlpha"] = empirical_alpha
        out["samplerSlack"] = sampler_slack
    return out


def _write_outputs(args, report: RunReport, empirical_alpha=None, sampler_slack=None) -> int:
    """Write the points CSV and JSON report asked for; exit code 1 if truncated."""
    if args.out:
        write_points_csv(args.out, report.points, report.m)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(_report_dict(report, empirical_alpha, sampler_slack), fh, indent=2)
            fh.write("\n")
    if report.truncated:
        print("warning: iteration cap reached, representation is partial", file=sys.stderr)
        return 1
    return 0


def _add_common_flags(parser: argparse.ArgumentParser, with_problem: bool = True) -> None:
    if with_problem:
        parser.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
        parser.add_argument("--m", type=int, default=3, help="number of objectives")
    parser.add_argument("--epsilon", type=float, required=True)
    parser.add_argument(
        "--epsilon-mode", choices=[m.value for m in SizeMode], default="absolute"
    )
    parser.add_argument("--max-iterations", type=int, default=100_000)
    parser.add_argument("--out", help="points CSV output path")
    parser.add_argument("--report", help="JSON report output path")


def _run_config(args) -> RunConfig:
    return RunConfig(
        make_problem(args.problem, args.m),
        args.epsilon,
        SizeMode(args.epsilon_mode),
        max_iterations=args.max_iterations,
        grid_resolution=args.grid_resolution,
    )


def cmd_run(args) -> int:
    try:
        config = _run_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problem = config.problem
    report = run_representation(config)
    empirical_alpha = sampler_slack = None
    if problem.has_front_sampler and args.samples > 0 and report.cardinality > 0:
        samples = problem.sample_front(args.samples, args.seed)
        empirical_alpha = approximation_quality(report.points, samples)
        sampler_slack = covering_slack(samples)
    print(
        f"{report.problem} m={report.m} eps={report.epsilon} {report.strategy.value}: "
        f"|Z_R|={report.cardinality}, iterations={report.iterations}, "
        f"stalled={report.stalled_boxes}, finalMaxBoxSize={report.final_max_box_size:.6g}"
    )
    return _write_outputs(args, report, empirical_alpha, sampler_slack)


def cmd_compare(args) -> int:
    try:
        config = _run_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problem = config.problem
    comparison = compare_strategies(config)
    result = {
        "problem": problem.name,
        "m": problem.m,
        "epsilon": args.epsilon,
        "mode": args.epsilon_mode,
        "cardinality": comparison.improved.cardinality,
        "identicalSequences": comparison.identical_sequences,
        "tNaiveRegionMs": comparison.naive.wall_time_region * 1e3,
        "tImprovedRegionMs": comparison.improved.wall_time_region * 1e3,
        "regionTimeRatio": comparison.region_time_ratio,
        "tNaiveTotalMs": comparison.naive.wall_time_total * 1e3,
        "tImprovedTotalMs": comparison.improved.wall_time_total * 1e3,
        "totalTimeRatio": comparison.total_time_ratio,
    }
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    print(json.dumps(result, indent=2))
    if not comparison.identical_sequences:
        print("error: strategies produced different representation sequences", file=sys.stderr)
        return 1
    return 0


def cmd_serve(args) -> int:
    try:
        with open(args.start_box) as fh:
            spec = json.load(fh)
        lower = tuple(float(v) for v in spec["l0"])
        upper = tuple(float(v) for v in spec["u0"])
        box = Box(lower, upper, tuple(u - l for l, u in zip(lower, upper)))
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: bad start box file: {exc}", file=sys.stderr)
        return 2
    try:
        session = Session(box, args.epsilon, SizeMode(args.epsilon_mode),
                          max_iterations=args.max_iterations)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stdin, stdout = sys.stdin, sys.stdout

    def solve(query):
        stdout.write(encode_query(query) + "\n")
        stdout.flush()
        line = stdin.readline()
        if not line:
            raise ProtocolError("unexpected end of input")
        return decode_solution(line, expected_id=query.query_id, dim=box.dim)

    started = time.perf_counter()
    try:
        region_time, solve_time = refine(session, solve)
        stdout.write(encode_done() + "\n")
        stdout.flush()
    except (ProtocolError, ContractError) as exc:
        # Each finished iteration read one answer line; the failing one read the next.
        print(f"error: line {session.iterations + 1}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Send what is still buffered to devnull, so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), stdout.fileno())
        print(f"error: the solver stopped reading after {session.iterations} answers",
              file=sys.stderr)
        return 1
    return _write_outputs(args, session.report(None, started, region_time, solve_time))


def cmd_sample_front(args) -> int:
    try:
        problem = make_problem(args.problem, args.m)
        samples = problem.sample_front(args.samples, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_points_csv(args.out, np.asarray(samples), problem.m)
    print(f"wrote {len(samples)} front samples to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperboxing",
        description="Pareto front representations via adaptive box decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="compute one representation")
    _add_common_flags(p_run)
    p_run.add_argument("--grid-resolution", type=int)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--samples", type=int, default=2000,
                       help="front samples for the coverage estimate (0 disables)")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run both strategies and time them")
    _add_common_flags(p_cmp)
    p_cmp.add_argument("--grid-resolution", type=int)
    p_cmp.set_defaults(func=cmd_compare)

    p_srv = sub.add_parser("serve", help="drive an external solver over stdio")
    _add_common_flags(p_srv, with_problem=False)
    p_srv.add_argument("--start-box", required=True,
                       help='JSON file with fields "l0" and "u0"')
    p_srv.set_defaults(func=cmd_serve)

    p_smp = sub.add_parser("sample-front", help="emit front samples as CSV")
    p_smp.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    p_smp.add_argument("--m", type=int, default=3)
    p_smp.add_argument("--samples", type=int, default=1000)
    p_smp.add_argument("--seed", type=int, default=0)
    p_smp.add_argument("--out", required=True)
    p_smp.set_defaults(func=cmd_sample_front)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
