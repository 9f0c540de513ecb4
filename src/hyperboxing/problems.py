"""The benchmark problems: evaluators, start-box corners and front samplers.

Five problems: sphere and ellipsoid (any m >= 2, closed-form scalarization),
plus three tri-objective problems (non-convex connected front, comet-shaped
front, patched front with four disconnected parts) solved on a decision grid.
Each states its objectives once, as sums of broadcast terms, and its
feasible set as a decision box plus, for sphere, ellipsoid and nonconvex, a
constraint beyond that box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import Point

PROBLEM_NAMES = ("sphere", "ellipsoid", "nonconvex", "comet", "patched")


class UnsupportedProblem(ValueError):
    """Requested capability is not available for this problem."""


@dataclass
class ProblemSpec:
    """A multi-objective test problem in decision-space form.

    The callables take the d decision variables as d float arrays, one
    column each, that broadcast against each other: a grid solver passes
    the axes of a sparse ``indexing="ij"`` mesh (axis k has shape
    ``(1, ..., r, ..., 1)``), a sampler passes d arrays of shape ``(n,)``.

    * ``objective_terms(*x)`` returns m tuples of broadcast arrays, one per
      objective, each objective the left-to-right sum of its tuple.  A
      plain objective is a 1-tuple; patched ``f3`` is
      ``(6.0 - h(x1), -h(x2))``.  A term may keep the smallest shape its
      formula needs (patched ``f1 = x1`` stays ``(r, 1)``).  A grid solver
      bounds an objective over each tile of its mesh by the sum of its
      terms' minima there, and never builds the objective over the mesh.
    * ``constraint_columns(*x)``, optional, returns a bool array that
      broadcasts the same way.  It states only the constraints beyond
      ``decision_box``, which the methods below add themselves.

    All are elementwise, so an entry of their output is the value a single
    decision vector would give.  A grid solver evaluates the terms on the
    whole mesh, infeasible points included, and ignores their values there.
    """

    name: str
    decision_box: tuple[tuple[float, float], ...]
    ideal: Point
    nadir: Point
    objective_terms: Callable[..., tuple[tuple[np.ndarray, ...], ...]]
    constraint_columns: Callable[..., np.ndarray] | None = None
    analytic_quadric: Point | None = None
    default_grid_resolution: int = 64
    front_sampler: Callable[[int, int], np.ndarray] | None = None

    def __post_init__(self):
        if len(self.ideal) != len(self.nadir):
            raise ValueError("ideal and nadir points must have the same length")
        if not all(i <= n for i, n in zip(self.ideal, self.nadir)):
            raise ValueError("ideal point must be componentwise <= nadir point")

    @property
    def m(self) -> int:
        return len(self.ideal)

    def evaluate_columns(self, *x) -> tuple[np.ndarray, ...]:
        """The m objective arrays: each objective's terms, summed."""
        return tuple(_sum_terms(f) for f in self.objective_terms(*x))

    def feasible_columns(self, *x) -> np.ndarray:
        """Inside ``decision_box``, and the constraint if there is one."""
        ok = np.bool_(True)
        for xk, (lo, hi) in zip(x, self.decision_box, strict=True):
            ok = ok & ((xk >= lo) & (xk <= hi))
        if self.constraint_columns is not None:
            ok = ok & self.constraint_columns(*x)
        return ok

    def feasible(self, x) -> bool:
        return bool(np.all(self.feasible_columns(*_point_columns(x))))

    def evaluate(self, x) -> Point:
        """Objective vector at a single feasible decision vector."""
        columns = _point_columns(x)
        if not np.all(self.feasible_columns(*columns)):
            raise ValueError(f"infeasible decision vector {x!r} for {self.name}")
        return tuple(float(np.ravel(f)[0]) for f in self.evaluate_columns(*columns))

    @property
    def has_front_sampler(self) -> bool:
        return self.front_sampler is not None

    def sample_front(self, n: int, seed: int = 0) -> np.ndarray:
        """Seeded quasi-uniform sample of the nondominated set, shape (<=n, m)."""
        if self.front_sampler is None:
            raise UnsupportedProblem(f"{self.name} has no front sampler")
        if n < 1:
            raise ValueError("sample count must be positive")
        return self.front_sampler(n, seed)


def _sum_terms(terms):
    """The left-to-right sum of an objective's terms."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _point_columns(x) -> tuple[np.ndarray, ...]:
    """One decision vector as d columns of shape (1,)."""
    return tuple(np.asarray(x, dtype=float).reshape(-1, 1))


def nondominated_mask(points: np.ndarray) -> np.ndarray:
    """Rows not weakly dominated by a distinct row (minimization, exact)."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    keep = np.ones(n, dtype=bool)
    chunk = max(1, int(4e6 // max(1, points.size)))
    for i in range(0, n, chunk):
        block = points[i : i + chunk]
        le = (points[None, :, :] <= block[:, None, :]).all(axis=2)
        eq = (points[None, :, :] == block[:, None, :]).all(axis=2)
        keep[i : i + chunk] = ~(le & ~eq).any(axis=1)
    return keep


def _filter_front(images: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    images = np.unique(images, axis=0)
    images = images[nondominated_mask(images)]
    if len(images) > n:
        idx = rng.choice(len(images), size=n, replace=False)
        images = images[np.sort(idx)]
    return images


# -- sphere / ellipsoid -------------------------------------------------------


def _make_quadric(name: str, m: int) -> ProblemSpec:
    if m < 2:
        raise ValueError(f"{name} needs m >= 2, got {m}")
    if name == "sphere":
        a = (1.0,) * m
    else:
        a = (float(m),) + (1.0,) * (m - 1)
    a_arr = np.asarray(a)

    def objective_terms(*x):
        return tuple((xk,) for xk in x)

    def constraint_columns(*x):
        total = np.square(x[0] / a[0])
        for xk, ak in zip(x[1:], a[1:]):
            total = total + np.square(xk / ak)
        return total <= 1.0 + 1e-12

    def front_sampler(n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        dirs = np.abs(rng.standard_normal((n, m)))
        norms = np.linalg.norm(dirs, axis=1)
        norms[norms == 0] = 1.0
        return -a_arr * dirs / norms[:, None]

    return ProblemSpec(
        name=name,
        decision_box=tuple((-ai, 0.0) for ai in a),
        ideal=tuple(-ai for ai in a),
        nadir=(0.0,) * m,
        objective_terms=objective_terms,
        constraint_columns=constraint_columns,
        analytic_quadric=a,
        front_sampler=front_sampler,
    )


# -- non-convex connected front ----------------------------------------------

_NC_X1_MAX = math.acos(0.2)
_NC_X2_MAX = math.log(5.0)


def _make_nonconvex() -> ProblemSpec:
    def objective_terms(x1, x2, x3):
        return (-x1,), (-x2,), (-np.square(x3),)

    def constraint_columns(x1, x2, x3):
        return x3 - np.cos(x1) - np.exp(-x2) <= 1e-9

    def front_sampler(n: int, seed: int) -> np.ndarray:
        # The efficient set is the constraint surface x3 = cos x1 + exp(-x2)
        # restricted to x3 >= 1.2: raising either of x1, x2 strictly lowers
        # the attainable x3, so distinct surface points never dominate each
        # other and no filtering is required.
        rng = np.random.default_rng(seed)
        x1 = rng.uniform(0.0, _NC_X1_MAX, n)
        x2 = rng.uniform(0.0, 1.0, n) * (-np.log(1.2 - np.cos(x1)))
        x3 = np.cos(x1) + np.exp(-x2)
        return np.stack([-x1, -x2, -np.square(x3)], axis=1)

    return ProblemSpec(
        name="nonconvex",
        decision_box=((0.0, math.pi), (0.0, _NC_X2_MAX), (1.2, 2.0)),
        ideal=(-_NC_X1_MAX, -_NC_X2_MAX, -4.0),
        nadir=(0.0, 0.0, -1.44),
        objective_terms=objective_terms,
        constraint_columns=constraint_columns,
        default_grid_resolution=64,
        front_sampler=front_sampler,
    )


# -- comet --------------------------------------------------------------------

# Closed-form minimum of the first (and, by symmetry, second) objective on
# the front: x1 = 3.5, x2 on the branch boundary, x3 = 1.
_COMET_F1_MIN = 2.0 * (-4.0 / 3.5**3 - 10.0 * 3.5)


def _comet_objectives(x1, x2, x3):
    base = x1**3 * x2**2 - 10.0 * x1
    f1 = (1.0 + x3) * (base - 4.0 * x2)
    f2 = (1.0 + x3) * (base + 4.0 * x2)
    f3 = 3.0 * (1.0 + x3) * x1**2
    return f1, f2, f3


def _make_comet() -> ProblemSpec:
    def front_sampler(n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        half = max(n, 1024)
        # Tail piece: x3 = 1, x2 restricted by |x2| <= 2 / x1^3.
        x1 = rng.uniform(1.0, 3.5, half)
        x2 = rng.uniform(-1.0, 1.0, half) * (2.0 / x1**3)
        tail = np.stack([x1, x2, np.ones(half)], axis=1)
        # Head piece: x1 = 1, full x2 and x3 ranges.
        x2h = rng.uniform(-2.0, 2.0, half)
        x3h = rng.uniform(0.0, 1.0, half)
        head = np.stack([np.ones(half), x2h, x3h], axis=1)
        images = np.stack(_comet_objectives(*np.vstack([tail, head]).T), axis=1)
        return _filter_front(images, n, rng)

    return ProblemSpec(
        name="comet",
        decision_box=((1.0, 3.5), (-2.0, 2.0), (0.0, 1.0)),
        ideal=(_COMET_F1_MIN, _COMET_F1_MIN, 3.0),
        nadir=(4.0, 4.0, 73.5),
        objective_terms=lambda *x: tuple((f,) for f in _comet_objectives(*x)),
        default_grid_resolution=72,
        front_sampler=front_sampler,
    )


# -- patched front ------------------------------------------------------------


def _patched_h(x):
    return x * (1.0 + np.sin(3.0 * math.pi * x))


#: Per-axis pieces [0, x_p] and [x_r, x*] on which h strictly exceeds its
#: running maximum.  h rises to a local peak at x_p, dips, and only regains
#: that level at x_r before climbing to its global maximum x*.  A coordinate
#: value outside the pieces is dominated through the third objective by some
#: smaller coordinate, so the efficient set of the problem is exactly the
#: product of these two bands.  x_p and x* are the roots of h' in [0.2, 0.3]
#: and [0.8, 0.9], x_r the root of h(x) = h(x_p) in [0.5, x*], each found by
#: Brent's method to 1e-14.
_PATCHED_BANDS = ((0.0, 0.25141183608891715), (0.6316265307000614, 0.8594008566447239))


def _make_patched() -> ProblemSpec:
    bands = _PATCHED_BANDS
    h_max = float(_patched_h(np.array([bands[1][1]]))[0])

    def objective_terms(x1, x2):
        # 6 - h(x1) - h(x2), with the same roundings: a + (-b) == a - b.
        return (x1,), (x2,), (6.0 - _patched_h(x1), -_patched_h(x2))

    lengths = np.array([hi - lo for lo, hi in bands])

    def _draw_axis(rng: np.random.Generator, n: int) -> np.ndarray:
        # Length-weighted uniform draw over the two efficient bands.
        pick = rng.random(n) * lengths.sum()
        offset = np.where(pick < lengths[0], pick, pick - lengths[0])
        lo = np.where(pick < lengths[0], bands[0][0], bands[1][0])
        return lo + offset

    def front_sampler(n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        x1 = _draw_axis(rng, n)
        x2 = _draw_axis(rng, n)
        return np.stack([_sum_terms(f) for f in objective_terms(x1, x2)], axis=1)

    return ProblemSpec(
        name="patched",
        decision_box=((0.0, 1.0), (0.0, 1.0)),
        ideal=(0.0, 0.0, 6.0 - 2.0 * h_max),
        nadir=(0.86, 0.86, 6.0),
        objective_terms=objective_terms,
        default_grid_resolution=512,
        front_sampler=front_sampler,
    )


def make_problem(name: str, m: int = 3) -> ProblemSpec:
    """Build one of the named test problems for m objectives."""
    if name in ("sphere", "ellipsoid"):
        return _make_quadric(name, m)
    if m != 3:
        raise ValueError(f"problem {name!r} is defined for m = 3 only, got m = {m}")
    if name == "nonconvex":
        return _make_nonconvex()
    if name == "comet":
        return _make_comet()
    if name == "patched":
        return _make_patched()
    raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")
