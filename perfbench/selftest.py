#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each one must reject a corrupted result.

    python3 perfbench/selftest.py

Builds a small valid result (sphere, m = 3, epsilon = 0.1, 82 points) and a
set of patched front samples, confirms that every check passes them, then
feeds each check one corrupted copy and confirms that the check fails.
Exits 1 if a check fails a valid result or passes a corrupted one.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks as ck  # noqa: E402
from hyperboxing.engine import RunConfig, run_representation  # noqa: E402
from hyperboxing.problems import make_problem  # noqa: E402

EPSILON = 0.1
PUBLISHED_CARDINALITY = 82  # sphere, m = 3, epsilon = 0.1


def moved_off_front(o: ck.Outcome) -> ck.Outcome:
    k = len(o.points) // 2
    o.points[k] = tuple(1.001 * v for v in o.points[k])
    return o


def dropped(o: ck.Outcome) -> ck.Outcome:
    k = len(o.points) // 2
    del o.points[k]
    del o.answers[k]
    return o


def off_ray(o: ck.Outcome) -> ck.Outcome:
    a = o.answers[len(o.answers) // 2]
    a.alpha += 1e-6
    return o


def dominated_added(o: ck.Outcome) -> ck.Outcome:
    z = o.points[0]
    o.points.append((z[0] + 1e-3,) + z[1:])
    return o


def size_rises(o: ck.Outcome) -> ck.Outcome:
    o.selected_sizes[-1] = o.selected_sizes[0]
    return o


def region_uncovered(o: ck.Outcome) -> ck.Outcome:
    o.points = [z for z in o.points if z[0] > -0.5]
    return o


def main() -> int:
    sphere = make_problem("sphere", 3)
    report = run_representation(RunConfig(sphere, EPSILON))
    valid = ck.outcome_from_report(report)
    samples = sphere.sample_front(5000, seed=0)

    patched = make_problem("patched")
    cell = 1.0 / (patched.default_grid_resolution - 1)
    front = [tuple(map(float, z)) for z in patched.sample_front(500, seed=0)]
    off_surface = list(front)
    off_surface[7] = off_surface[7][:2] + (off_surface[7][2] + 1e-6,)
    # Decision value 0.4 lies between the two efficient bands; z3 stays on
    # the formula, so only the band test can catch it.
    x, y = 0.4, front[3][1]
    out_of_band = list(front)
    out_of_band[3] = (x, y, 6.0 - float(ck.patched_h(x)) - float(ck.patched_h(y)))

    cases = [
        ("on_front (sphere)", lambda o: ck.check_on_sphere(o.points), moved_off_front),
        ("on_ray", ck.check_on_ray, off_ray),
        ("accounting", ck.check_accounting, dropped),
        ("cardinality (exact)",
         lambda o: ck.check_cardinality(o.points, PUBLISHED_CARDINALITY, 0.0), dropped),
        ("same_sequence",
         lambda o: ck.check_same_sequence(o.points, report.points, "self-test"), dropped),
        ("nondominated", lambda o: ck.check_nondominated(o.points), dominated_added),
        ("termination", ck.check_termination, size_rises),
        ("coverage",
         lambda o: ck.check_coverage(o.points, samples, EPSILON, 1.0), region_uncovered),
    ]
    ok = True
    for name, check, corrupt in cases:
        clean = check(copy.deepcopy(valid))
        caught = check(corrupt(copy.deepcopy(valid)))
        good = not clean and bool(caught)
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {name}: valid -> {clean or 'passes'}; "
              f"{corrupt.__name__} -> {caught or 'passes'}")

    for name, points in [("on_front (patched, off z3 formula)", off_surface),
                         ("on_front (patched, out of band)", out_of_band)]:
        clean = ck.check_on_patched_front(front, cell)
        caught = ck.check_on_patched_front(points, cell)
        good = not clean and bool(caught)
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {name}: valid -> {clean or 'passes'}; "
              f"corrupted -> {caught or 'passes'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
