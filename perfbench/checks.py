"""Correctness checks on a finished representation.

Every check takes plain data (points, answers, counts) and returns a list of
failure messages; an empty list means the check passed. The references are
properties of the method or formulas recomputed here, never a stored copy of
an earlier run's output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from hyperboxing.metrics import approximation_quality, covering_slack

Point = tuple[float, ...]


@dataclass
class Answer:
    """One accepted point with the query it answered: s = z + lam = p + alpha q."""

    p: Point
    q: Point
    alpha: float
    z: Point
    lam: Point


@dataclass
class Outcome:
    """What one representation run produced, in the form the checks read."""

    epsilon: float
    points: list[Point]
    answers: list[Answer]
    iterations: int
    skipped: int
    stalled: int
    truncated: bool
    final_max_box_size: float
    selected_sizes: list[float] = field(default_factory=list)


def outcome_from_report(report) -> Outcome:
    """Adapt an in-process ``RunReport`` (absolute size mode)."""
    answers = [
        Answer(
            p=e.box_upper,
            q=tuple(u - l for l, u in zip(e.box_lower, e.box_upper)),
            alpha=e.alpha,
            z=e.z,
            lam=tuple(si - zi for zi, si in zip(e.z, e.s)),
        )
        for e in report.entries
    ]
    return Outcome(
        epsilon=report.epsilon,
        points=list(report.points),
        answers=answers,
        iterations=report.iterations,
        skipped=report.skipped_dominated,
        stalled=report.stalled_boxes,
        truncated=report.truncated,
        final_max_box_size=report.final_max_box_size,
        selected_sizes=list(report.selected_sizes),
    )


# -- on the front ---------------------------------------------------------------


def check_on_sphere(points, tol: float = 1e-10) -> list[str]:
    """Every point lies on the unit sphere: |sum z_i^2 - 1| <= tol."""
    Z = np.asarray(points, dtype=float)
    residual = np.abs(np.square(Z).sum(axis=1) - 1.0)
    bad = np.flatnonzero(residual > tol)
    if len(bad):
        k = int(bad[0])
        return [f"{len(bad)} points off the sphere; point {k} has residual {residual[k]:.3g}"]
    return []


def patched_h(x):
    """h(x) = x (1 + sin 3 pi x) of the patched problem."""
    return x * (1.0 + np.sin(3.0 * math.pi * x))


def _dh(x: float) -> float:
    w = 3.0 * math.pi * x
    return 1.0 + math.sin(w) + w * math.cos(w)


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def patched_bands() -> tuple[tuple[float, float], tuple[float, float]]:
    """Efficient decision bands of the patched problem, per axis.

    h(x) = x (1 + sin 3 pi x) rises to a local peak x_p, dips, regains that
    level at x_r and peaks globally at x*; a coordinate is efficient only in
    [0, x_p] or [x_r, x*].
    """
    x_p = _bisect(_dh, 0.2, 0.3)
    x_star = _bisect(_dh, 0.8, 0.9)
    h_p = float(patched_h(x_p))
    x_r = _bisect(lambda x: float(patched_h(x)) - h_p, 0.5, x_star)
    return (0.0, x_p), (x_r, x_star)


def patched_steepness() -> float:
    """Largest slope |h'| of the patched front over its efficient bands."""
    w = 3.0 * math.pi * np.concatenate([np.linspace(lo, hi, 100_001) for lo, hi in patched_bands()])
    return float(np.abs(1.0 + np.sin(w) + w * np.cos(w)).max())


def check_on_patched_front(points, cell: float, tol: float = 1e-12) -> list[str]:
    """z3 = 6 - h(z1) - h(z2), and z1, z2 lie in the efficient bands within one cell."""
    Z = np.asarray(points, dtype=float)
    failures = []
    residual = np.abs(Z[:, 2] - (6.0 - patched_h(Z[:, 0]) - patched_h(Z[:, 1])))
    bad = np.flatnonzero(residual > tol)
    if len(bad):
        k = int(bad[0])
        failures.append(
            f"{len(bad)} points off z3 = 6 - h(z1) - h(z2); point {k} misses by {residual[k]:.3g}"
        )
    (a0, a1), (b0, b1) = patched_bands()
    xy = Z[:, :2]
    gap = np.minimum(
        np.maximum(np.maximum(a0 - xy, xy - a1), 0.0),
        np.maximum(np.maximum(b0 - xy, xy - b1), 0.0),
    ).max(axis=1)
    bad = np.flatnonzero(gap > cell)
    if len(bad):
        k = int(bad[0])
        failures.append(
            f"{len(bad)} points outside the efficient bands; point {k} is {gap[k]:.3g} out "
            f"(one grid cell is {cell:.3g})"
        )
    return failures


# -- method properties ------------------------------------------------------------


def check_on_ray(outcome: Outcome, rel_tol: float = 1e-9) -> list[str]:
    """Every accepted point answers its query: s = p + alpha q, lambda >= 0."""
    failures = []
    if len(outcome.answers) != len(outcome.points):
        failures.append(
            f"{len(outcome.points)} points but {len(outcome.answers)} matched answers"
        )
    for k, (a, z) in enumerate(zip(outcome.answers, outcome.points)):
        if tuple(a.z) != tuple(z):
            failures.append(f"point {k} is not the z of its answer")
            break
        if min(a.lam) < 0.0:
            failures.append(f"point {k} has negative slack {a.lam}")
            break
        scale = 1.0 + max(map(abs, a.p)) + abs(a.alpha) * max(map(abs, a.q))
        miss = max(
            abs(zi + li - (pi + a.alpha * qi))
            for zi, li, pi, qi in zip(a.z, a.lam, a.p, a.q)
        )
        if miss > rel_tol * scale:
            failures.append(f"point {k} is {miss:.3g} off its query ray")
            break
    return failures


def check_nondominated(points) -> list[str]:
    """No accepted point weakly dominates another distinct one."""
    Z = np.asarray(points, dtype=float)
    for i in range(0, len(Z), 256):
        block = Z[i : i + 256]
        le = (Z[None, :, :] <= block[:, None, :]).all(axis=2)
        eq = (Z[None, :, :] == block[:, None, :]).all(axis=2)
        dominated = (le & ~eq).any(axis=1)
        if dominated.any():
            return [f"point {i + int(np.flatnonzero(dominated)[0])} is dominated"]
    return []


def check_accounting(outcome: Outcome) -> list[str]:
    """The run finished, and each iteration accepted, skipped or evicted exactly once."""
    failures = []
    if outcome.truncated:
        failures.append("the iteration cap truncated the run")
    expected = outcome.iterations - outcome.skipped - outcome.stalled
    if len(outcome.points) != expected:
        failures.append(
            f"{len(outcome.points)} points, but {outcome.iterations} iterations minus "
            f"{outcome.skipped} skipped and {outcome.stalled} stalled leave {expected}"
        )
    return failures


def check_termination(outcome: Outcome) -> list[str]:
    """The final max box size is <= epsilon and selected sizes never increase."""
    failures = []
    if not outcome.final_max_box_size <= outcome.epsilon:
        failures.append(
            f"final max box size {outcome.final_max_box_size} exceeds epsilon {outcome.epsilon}"
        )
    sizes = outcome.selected_sizes
    for k in range(1, len(sizes)):
        if sizes[k] > sizes[k - 1]:
            failures.append(f"selected size rises at iteration {k}: {sizes[k - 1]} -> {sizes[k]}")
            break
    if len(sizes) != outcome.iterations:
        failures.append(f"{len(sizes)} selected sizes for {outcome.iterations} iterations")
    return failures


def check_coverage(points, samples, epsilon: float, steepness: float) -> list[str]:
    """Coverage of seeded front samples is within steepness * epsilon + sampler slack."""
    alpha = approximation_quality(points, samples)
    budget = steepness * epsilon + covering_slack(samples)
    if not alpha <= budget:
        return [f"coverage {alpha:.4g} exceeds budget {budget:.4g}"]
    return []


def check_cardinality(points, reference: int, tol: float) -> list[str]:
    """|Z_R| is within tol (a share) of the published reference."""
    n = len(points)
    if abs(n - reference) > tol * reference:
        return [f"{n} points, reference {reference} +/- {tol:.0%}"]
    return []


def check_same_sequence(got, want, what: str) -> list[str]:
    """Two accepted-point sequences are identical, element by element."""
    got = [tuple(p) for p in got]
    want = [tuple(p) for p in want]
    if got == want:
        return []
    k = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return [f"{what}: sequences differ at point {k} ({len(got)} vs {len(want)} points)"]


def run_checks(checks: dict) -> dict[str, list[str]]:
    """Evaluate named zero-argument checks; returns the failing ones."""
    failed = {}
    for name, check in checks.items():
        problems = check()
        if problems:
            failed[name] = problems
    return failed
