"""Pascoletti-Serafini queries, solver backends and the line protocol.

A query is the pair (p, q): reference point p (the upper corner of the box
under refinement) and strictly positive direction q (its diagonal).  A
solution carries the optimal alpha, the objective vector z, the slack
lambda and the shifted point s = z + lambda = p + alpha q.

Backends:

* :func:`solve_quadric_ps` -- closed form for feasible sets bounded by
  sum((z_i/a_i)^2) <= 1.
* :class:`GridScalarizer` -- minimax over a uniform decision grid with one
  local refinement pass.  Both passes evaluate the problem on a broadcast
  (sparse ``indexing="ij"``) mesh and share one minimax, an exact branch
  and bound over tiles of the mesh: per-tile objective minima, summed
  from the minima of each objective's terms, bound every point's value
  from below, so only the tiles that can hold the first minimum in C
  order among the feasible points are evaluated.
* :func:`encode_query` / :func:`decode_solution` -- JSON-lines codec for
  driving an external solver over a byte stream; :func:`encode_miss` is
  the solver's "no intersection" record.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Point
from .problems import _sum_terms


class NoIntersection(Exception):
    """The query ray does not meet the quadric; the box misses the front."""


class InfeasibleProblem(Exception):
    """No feasible point exists on the solver grid."""


class ProtocolError(ValueError):
    """Malformed or out-of-sequence solver protocol record."""


class ContractError(ValueError):
    """A solver response violates the solution contract (e.g. lambda < 0)."""


LAMBDA_WIRE_TOL = 1e-12
LAMBDA_SOLVER_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class PSQuery:
    query_id: int
    p: Point
    q: Point

    def __post_init__(self):
        if len(self.p) != len(self.q):
            raise ValueError("p and q must share one dimension")
        if not all(v > 0 for v in self.q):
            raise ValueError(f"direction must be strictly positive, got {self.q}")

    @property
    def dim(self) -> int:
        return len(self.p)


@dataclass(frozen=True, slots=True)
class PSSolution:
    query_id: int
    alpha: float
    z: Point
    lam: Point
    decision: Point | None = None

    @property
    def s(self) -> Point:
        return tuple(zi + li for zi, li in zip(self.z, self.lam))


def _clamp_lambda(lam, tol: float) -> Point:
    out = []
    for v in lam:
        v = float(v)
        if v < -tol:
            raise ContractError(f"negative slack {v} beyond tolerance {tol}")
        out.append(max(v, 0.0))
    return tuple(out)


def solve_quadric_ps(query: PSQuery, a) -> PSSolution:
    """Closed-form solve for the quadric-bounded feasible set.

    With A = diag(1/a_i^2) the boundary is z^T A z = 1 and the optimal alpha
    is the smaller root of (q^T A q) a^2 + (2 p^T A q) a + (p^T A p - 1) = 0.
    """
    a = tuple(float(v) for v in a)
    if len(a) != query.dim:
        raise ValueError("semi-axis vector dimension mismatch")
    if not all(v > 0 for v in a):
        raise ValueError("semi-axes must be positive")
    inv2 = [1.0 / (v * v) for v in a]
    p, q = query.p, query.q
    qaq = sum(qi * qi * w for qi, w in zip(q, inv2))
    paq = sum(pi * qi * w for pi, qi, w in zip(p, q, inv2))
    pap = sum(pi * pi * w for pi, w in zip(p, inv2))
    disc = paq * paq - qaq * (pap - 1.0)
    if disc < 0:
        raise NoIntersection(f"discriminant {disc} < 0 for query {query.query_id}")
    alpha = (-paq - math.sqrt(disc)) / qaq
    z = tuple(pi + alpha * qi for pi, qi in zip(p, q))
    return PSSolution(query.query_id, alpha, z, (0.0,) * query.dim)


def _pad(a: np.ndarray, d: int) -> np.ndarray:
    """a with singleton axes prepended up to d axes."""
    return a.reshape((1,) * (d - a.ndim) + a.shape)


def _take(f: np.ndarray, index):
    """f at per-axis mesh indices, reading index 0 along its singleton broadcast axes."""
    return f[tuple(i if n > 1 else 0 for i, n in zip(index, f.shape))]


class GridScalarizer:
    """Minimax solver over a fixed decision grid, with one refinement pass.

    Each pass evaluates the problem on a sparse ``indexing="ij"`` mesh of
    ``resolution`` values per axis: ``problem.objective_terms`` and
    ``problem.constraint_columns`` get the d axes as broadcasting columns,
    so a term that depends on few variables (or a transcendental of one
    axis) is computed on those axes only.  Both meshes lie inside the
    decision box, so only a problem's constraint beyond the box can make a
    mesh point infeasible.  The base image is computed once; each query
    minimaxes max_k (F_k(x) - p_k) / q_k over it, then over the image of a
    sub-grid one base cell wide around the incumbent.

    Each pass is an exact branch and bound over tiles of ``T`` points per
    axis, ``T = round(64 ** (1 / d))``.  An image keeps, per objective, the
    left-to-right sum of its terms' minima over the feasible points of
    every tile, so an objective of several terms is never built over the
    whole mesh: float addition is monotone in each argument, so that sum is
    at most the computed value of every point in the tile.  The tile's
    bound max_k (min F_k - p_k) / q_k uses the float operations of the
    point values, and rounding is monotone, so it too is at most the
    computed value of every point in the tile.  The tile of least bound is
    evaluated exactly; its best value B is attained, so every tile whose
    bound exceeds B holds no minimum and no tie of one.  The points of the
    tiles with bound <= B are evaluated exactly, and the least value wins,
    ties going to the first point in C order.  That is the point a dense
    row-major mesh filtered to its feasible points would pick, so the
    answers equal that dense solve bit for bit.

    The tile minima are folded with strided slices, ``f[t::T]`` for each
    t < T along each axis: every step is one elementwise ``np.minimum``
    into the accumulator, and a short last tile needs no padding.  On a
    512 x 512 objective this takes about as long as one elementwise pass
    (0.2 ms), where ``np.minimum.reduceat`` or a reshape-min take 1.3-1.5 ms.
    """

    def __init__(self, problem, resolution: int | None = None):
        self.problem = problem
        self.resolution = int(problem.default_grid_resolution if resolution is None else resolution)
        if self.resolution < 2:
            raise ValueError("grid resolution must be at least 2")
        self._lo = np.array([lo for lo, _ in problem.decision_box])
        self._hi = np.array([hi for _, hi in problem.decision_box])
        self._cell = (self._hi - self._lo) / self.resolution
        d = len(self._lo)
        self._tile = round(64 ** (1 / d))
        self._tiles = (-(-self.resolution // self._tile),) * d
        self._base = self._image(self._lo, self._hi)
        if self._base is None:
            raise InfeasibleProblem(f"no feasible grid point for {problem.name}")

    def _image(self, lo, hi):
        """(axes, objectives, infeasible mask, tile minima) of the mesh over [lo, hi].

        None if nothing is feasible.  The mask is None when every point is
        feasible.  Each objective is its tuple of terms; terms keep their
        broadcast shapes, padded on the left to d axes, and an objective's
        tile minima are the left-to-right sum of its terms' tile minima.
        """
        d = len(lo)
        axes = []
        for k in range(d):
            shape = [1] * d
            shape[k] = self.resolution
            axes.append(np.linspace(lo[k], hi[k], self.resolution).reshape(shape))
        infeasible = None
        if self.problem.constraint_columns is not None:
            # The mesh lies inside the decision box, so only the constraint
            # beyond it can exclude a point.
            feasible = _pad(np.asarray(self.problem.constraint_columns(*axes)), d)
            if not feasible.any():
                return None
            if not feasible.all():
                infeasible = ~feasible
        objectives = [tuple(_pad(np.asarray(t), d) for t in f)
                      for f in self.problem.objective_terms(*axes)]
        minima = []
        for k, f in enumerate(objectives):
            term_minima = []
            for t in f:
                masked = t
                if infeasible is not None:
                    # A value of t enters a tile's minimum when some feasible
                    # point of the tile carries it: OR the mask over each tile
                    # along the axes t ignores.
                    ignored = [a for a in range(d) if t.shape[a] == 1 and feasible.shape[a] > 1]
                    masked = np.where(self._fold(feasible, np.logical_or, ignored), t, np.inf)
                own = [a for a in range(d) if t.shape[a] > 1]
                term_minima.append(self._fold(masked, np.minimum, own))
            tmin = _sum_terms(term_minima)
            name = self.problem.name
            if np.isnan(tmin).any():
                raise ValueError(f"objective {k} of {name} is NaN at a feasible grid point")
            # A sum of terms is NaN where +inf meets -inf: with no -inf term
            # at a feasible point, no point's sum is NaN.
            if len(f) > 1 and any(np.isneginf(tm).any() for tm in term_minima):
                raise ValueError(
                    f"objective {k} of {name} is -inf in a term at a feasible grid point")
            minima.append(tmin)
        return axes, objectives, infeasible, minima

    def _fold(self, a: np.ndarray, ufunc, axes) -> np.ndarray:
        """Reduce a by ufunc over every tile along the given axes, by strided slices."""
        T = self._tile
        for axis in axes:
            lead = (slice(None),) * axis
            acc = a[lead + (slice(0, None, T),)].copy()
            for t in range(1, min(T, a.shape[axis])):
                part = a[lead + (slice(t, None, T),)]
                head = acc[lead + (slice(0, part.shape[axis]),)]
                ufunc(head, part, out=head)
            a = acc
        return a

    def _tile_bounds(self, image, p, q) -> np.ndarray:
        """Lower bound max_k (min F_k - p_k) / q_k of the values in each tile."""
        for k, tmin in enumerate(image[3]):
            value = (tmin - p[k]) / q[k]
            bound = value if k == 0 else np.maximum(bound, value)
        return np.broadcast_to(bound, self._tiles)

    def _minimax(self, image, p, q) -> tuple[np.ndarray, Point, float]:
        """Decision, objective vector and value of the first minimum of max_k (f_k - p_k) / q_k."""
        axes, objectives = image[:2]
        r, d = self.resolution, len(axes)
        bound = self._tile_bounds(image, p, q)
        first = np.unravel_index(int(bound.argmin()), bound.shape)
        best = self._tile_values(image, p, q, np.array([first]))[0].min()
        alphas, index = self._tile_values(image, p, q, np.argwhere(bound <= best))
        flat = sum(ix * r ** (d - 1 - a) for a, ix in enumerate(index))
        alphas, flat = (v.ravel() for v in np.broadcast_arrays(alphas, flat))
        hits = np.flatnonzero(alphas == alphas.min())
        j = hits[flat[hits].argmin()]
        at = np.unravel_index(int(flat[j]), (r,) * d)
        x = np.array([axis.flat[i] for axis, i in zip(axes, at)])
        z = tuple(float(_sum_terms([_take(t, at) for t in f])) for f in objectives)
        return x, z, float(alphas[j])

    def _tile_values(self, image, p, q, tiles: np.ndarray) -> tuple[np.ndarray, list]:
        """Values of the points of the (K, d) tile indices, with their per-axis mesh indices.

        The max is folded objective by objective in the order max(axis=1)
        over an (N, m) image uses, so the values match that reduction bit
        for bit.  Index arrays are clipped at the last mesh point, so a
        short last tile repeats that point, which changes neither the
        minimum nor the first index that attains it.
        """
        _, objectives, infeasible, _ = image
        T, d = self._tile, tiles.shape[1]
        index = []
        for a in range(d):
            shape = [len(tiles)] + [1] * d
            shape[a + 1] = T
            ix = np.minimum(tiles[:, a, None] * T + np.arange(T), self.resolution - 1)
            index.append(ix.reshape(shape))
        for k, f in enumerate(objectives):
            value = (_sum_terms([_take(t, index) for t in f]) - p[k]) / q[k]
            alphas = value if k == 0 else np.maximum(alphas, value)
        if infeasible is not None:
            alphas = np.where(_take(infeasible, index), np.inf, alphas)
        return alphas, index

    def solve(self, query: PSQuery) -> PSSolution:
        p = np.asarray(query.p)
        q = np.asarray(query.q)
        best_x, best_z, best_alpha = self._minimax(self._base, p, q)
        lo = np.maximum(self._lo, best_x - self._cell)
        hi = np.minimum(self._hi, best_x + self._cell)
        refined = self._image(lo, hi)
        if refined is not None:
            x, z, alpha = self._minimax(refined, p, q)
            if alpha < best_alpha:
                best_x, best_z, best_alpha = x, z, alpha

        s = tuple(pi + best_alpha * qi for pi, qi in zip(query.p, query.q))
        lam = _clamp_lambda((si - zi for si, zi in zip(s, best_z)), LAMBDA_SOLVER_TOL)
        return PSSolution(query.query_id, best_alpha, best_z, lam, tuple(float(v) for v in best_x))


# -- wire protocol ------------------------------------------------------------
#
# One JSON record per line, UTF-8, numbers with 17 significant digits.
# Engine -> solver: {"query_id": int, "p": [...], "q": [...]}
# Solver -> engine: {"query_id": int, "alpha": x, "z": [...], "lambda": [...], "x": [...]?}
#               or  {"query_id": int, "noIntersection": true}  (the box misses the front)
# Termination:      {"done": true}


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _fmt_array(values) -> str:
    return "[" + ", ".join(_fmt(v) for v in values) + "]"


def encode_query(query: PSQuery) -> str:
    return (
        f'{{"query_id": {query.query_id}, '
        f'"p": {_fmt_array(query.p)}, "q": {_fmt_array(query.q)}}}'
    )


def encode_done() -> str:
    return '{"done": true}'


def encode_solution(solution: PSSolution) -> str:
    parts = [
        f'"query_id": {solution.query_id}',
        f'"alpha": {_fmt(solution.alpha)}',
        f'"z": {_fmt_array(solution.z)}',
        f'"lambda": {_fmt_array(solution.lam)}',
    ]
    if solution.decision is not None:
        parts.append(f'"x": {_fmt_array(solution.decision)}')
    return "{" + ", ".join(parts) + "}"


def encode_miss(query_id: int) -> str:
    """The solver's record for a query whose ray does not meet the feasible image."""
    return f'{{"query_id": {query_id}, "noIntersection": true}}'


def decode_query(line: str) -> PSQuery | None:
    """Parse an engine record; returns None for the termination record."""
    record = _load_record(line)
    if record.get("done"):
        return None
    try:
        return PSQuery(_as_id(record["query_id"]), _as_floats(record["p"], "p"),
                       _as_floats(record["q"], "q"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad query record: {exc}") from exc


def decode_solution(line: str, expected_id: int | None = None, dim: int | None = None) -> PSSolution:
    """Parse and validate a solver response line.

    A miss record, ``{"query_id": k, "noIntersection": true}``, raises
    ``NoIntersection`` once its id has been checked.
    """
    record = _load_record(line)
    try:
        query_id = _as_id(record["query_id"])
    except KeyError as exc:
        raise ProtocolError(f"bad solution record: missing {exc}") from exc
    if expected_id is not None and query_id != expected_id:
        raise ProtocolError(f"query id mismatch: expected {expected_id}, got {query_id}")
    miss = record.get("noIntersection", False)
    if not isinstance(miss, bool):
        raise ProtocolError(f"noIntersection must be true or false, got {miss!r}")
    if miss:
        raise NoIntersection(f"solver reports no intersection for query {query_id}")
    try:
        alpha = _as_float(record["alpha"], "alpha")
        z = _as_floats(record["z"], "z")
        lam = _as_floats(record["lambda"], "lambda")
        decision = _as_floats(record["x"], "x") if "x" in record else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad solution record: {exc}") from exc
    for name, values in (("alpha", (alpha,)), ("z", z), ("lambda", lam), ("x", decision or ())):
        if not all(math.isfinite(v) for v in values):
            raise ProtocolError(f"non-finite {name} in solution record: {list(values)}")
    if len(z) != len(lam):
        raise ProtocolError("z and lambda dimensions differ")
    if dim is not None and len(z) != dim:
        raise ProtocolError(f"dimension mismatch: expected {dim}, got {len(z)}")
    lam = _clamp_lambda(lam, LAMBDA_WIRE_TOL)
    return PSSolution(query_id, alpha, z, lam, decision)


def _load_record(line: str) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed record: {exc}") from exc
    if not isinstance(record, dict):
        raise ProtocolError("record is not an object")
    return record


def _as_id(value) -> int:
    """A JSON integer; an integral float such as 3.0 is accepted too."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ProtocolError(f"query_id must be an integer, got {value!r}")


def _as_float(value, name: str) -> float:
    # JSON numbers only: no booleans (an int subclass) and no numeric strings.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{name} must be a number, got {value!r}")
    return float(value)


def _as_floats(values, name: str) -> Point:
    if not isinstance(values, (list, tuple)):
        raise ProtocolError(f"{name} must be an array of numbers, got {values!r}")
    return tuple(_as_float(v, name) for v in values)
