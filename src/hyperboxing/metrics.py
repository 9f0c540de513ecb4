"""Quality measures for a computed Pareto front representation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Point
from .problems import ProblemSpec


@dataclass
class QualityReport:
    cardinality: int
    empirical_alpha: float
    uniformity: float | None
    worst_sample: Point
    sampler_slack: float


def additive_distance(y, z) -> float:
    """max_i max(z_i - y_i, 0): how far z exceeds y in the worst component."""
    y = tuple(y)
    z = tuple(z)
    if len(y) != len(z):
        raise ValueError("dimension mismatch")
    return max(max(zi - yi, 0.0) for yi, zi in zip(y, z))


def approximation_quality(points, front_samples, return_worst: bool = False):
    """Worst-case additive distance from a front sample to its nearest point.

    max over samples y of min over representation points z of
    additive_distance(y, z).
    """
    Z = np.atleast_2d(np.asarray(points, dtype=float))
    S = np.atleast_2d(np.asarray(front_samples, dtype=float))
    if Z.size == 0 or S.size == 0:
        raise ValueError("both point sets must be nonempty")
    worst = -np.inf
    worst_row = None
    chunk = max(1, int(4e6 // max(1, Z.size)))
    for i in range(0, len(S), chunk):
        block = S[i : i + chunk]
        dists = np.clip(Z[None, :, :] - block[:, None, :], 0.0, None).max(axis=2)
        nearest = dists.min(axis=1)
        j = int(nearest.argmax())
        if nearest[j] > worst:
            worst = float(nearest[j])
            worst_row = tuple(float(v) for v in block[j])
    if return_worst:
        return worst, worst_row
    return worst


def covering_slack(front_samples) -> float:
    """Largest nearest-neighbour distance within the sample set."""
    S = np.atleast_2d(np.asarray(front_samples, dtype=float))
    if len(S) < 2:
        return 0.0
    return float(_nearest_distances(S).max())


def uniformity(points) -> float | None:
    """Minimum pairwise Euclidean distance; None for fewer than two points."""
    Z = np.atleast_2d(np.asarray(points, dtype=float))
    if len(Z) < 2:
        return None
    return float(_nearest_distances(Z).min())


def _nearest_distances(X: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of X to its nearest other row."""
    # scipy is imported here alone, so importing the package does not load it.
    from scipy.spatial import cKDTree

    return cKDTree(X).query(X, k=2)[0][:, 1]


def quality_summary(points, spec: ProblemSpec, n: int, seed: int = 0) -> QualityReport:
    """Coverage, uniformity and cardinality against a sampled front."""
    samples = spec.sample_front(n, seed)
    alpha, worst = approximation_quality(points, samples, return_worst=True)
    return QualityReport(
        cardinality=len(np.atleast_2d(np.asarray(points))),
        empirical_alpha=alpha,
        uniformity=uniformity(points),
        worst_sample=worst,
        sampler_slack=covering_slack(samples),
    )
