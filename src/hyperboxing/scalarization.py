"""Pascoletti-Serafini queries, solver backends and the line protocol.

A query is the pair (p, q): reference point p (the upper corner of the box
under refinement) and strictly positive direction q (its diagonal).  A
solution carries the optimal alpha, the objective vector z, the slack
lambda and the shifted point s = z + lambda = p + alpha q.

Backends:

* :func:`solve_quadric_ps` -- closed form for feasible sets bounded by
  sum((z_i/a_i)^2) <= 1.
* :class:`GridScalarizer` -- minimax over a uniform decision grid with one
  local refinement pass.
* :func:`encode_query` / :func:`decode_solution` -- JSON-lines codec for
  driving an external solver over a byte stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Point


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


class GridScalarizer:
    """Minimax solver over a fixed decision grid, with one refinement pass.

    The base grid and its objective values are computed once; each query
    only evaluates max_i (F_i(x) - p_i) / q_i over the cached values, then
    refines on a sub-grid of one base-cell width around the incumbent.

    The cached image is stored column-major, one contiguous row of shape
    (N,) per objective, and decision meshes are built column-major too, so
    every pass over the grid reads contiguous memory.  The refinement mesh
    and the minimax values of both passes are written into scratch buffers
    of ``resolution ** d`` entries that are allocated once and reused by
    every query; an instance must therefore not be called from two threads
    at once.
    """

    def __init__(self, problem, resolution: int | None = None):
        if problem.decision_box is None:
            raise ValueError(f"problem {problem.name} has no decision box")
        self.problem = problem
        self.resolution = int(problem.default_grid_resolution if resolution is None else resolution)
        if self.resolution < 2:
            raise ValueError("grid resolution must be at least 2")
        self._lo = np.array([lo for lo, _ in problem.decision_box])
        self._hi = np.array([hi for _, hi in problem.decision_box])
        self._cell = (self._hi - self._lo) / self.resolution
        d = len(self._lo)
        n = self.resolution**d
        grid = self._mesh(self._lo, self._hi, np.empty((d, n)))
        feas = problem.feasible_batch(grid)
        if not feas.any():
            raise InfeasibleProblem(f"no feasible grid point for {problem.name}")
        self._x = grid if feas.all() else grid[feas]
        self._f = np.ascontiguousarray(problem.evaluate_batch(self._x).T)
        self._refined = np.empty((d, n))
        self._alphas = np.empty(n)
        self._scratch = np.empty(n)

    def _mesh(self, lo, hi, cols: np.ndarray) -> np.ndarray:
        """Fill the (d, N) array cols with the resolution^d mesh over [lo, hi].

        Returns the (N, d) transpose view, so each coordinate is contiguous.
        """
        d = len(lo)
        r = self.resolution
        blocks = cols.reshape((d,) + (r,) * d)
        for k in range(d):
            shape = [1] * d
            shape[k] = r
            blocks[k] = np.linspace(lo[k], hi[k], r).reshape(shape)
        return cols.T

    def _minimax(self, f_cols, p, q) -> tuple[int, float]:
        """Argmin and minimum of max_i (f_i - p_i) / q_i over the n points of an (m, n) image.

        The max is folded objective by objective in the order max(axis=1)
        uses, so the values match that reduction bit for bit.
        """
        n = f_cols.shape[1]
        alphas = self._alphas[:n]
        scratch = self._scratch[:n]
        np.subtract(f_cols[0], p[0], out=alphas)
        np.divide(alphas, q[0], out=alphas)
        for i in range(1, len(f_cols)):
            np.subtract(f_cols[i], p[i], out=scratch)
            np.divide(scratch, q[i], out=scratch)
            np.maximum(alphas, scratch, out=alphas)
        j = int(alphas.argmin())
        return j, float(alphas[j])

    def solve(self, query: PSQuery) -> PSSolution:
        p = np.asarray(query.p)
        q = np.asarray(query.q)
        i, best_alpha = self._minimax(self._f, p, q)
        best_x = self._x[i]
        best_f = self._f[:, i]

        lo = np.maximum(self._lo, best_x - self._cell)
        hi = np.minimum(self._hi, best_x + self._cell)
        refined = self._mesh(lo, hi, self._refined)
        feas = self.problem.feasible_batch(refined)
        if feas.any():
            xr = refined if feas.all() else refined[feas]
            fr = self.problem.evaluate_batch(xr)
            j, alpha = self._minimax(fr.T, p, q)
            if alpha < best_alpha:
                best_alpha = alpha
                best_x = xr[j]
                best_f = fr[j]

        z = tuple(float(v) for v in best_f)
        s = tuple(pi + best_alpha * qi for pi, qi in zip(query.p, query.q))
        lam = _clamp_lambda((si - zi for si, zi in zip(s, z)), LAMBDA_SOLVER_TOL)
        return PSSolution(query.query_id, best_alpha, z, lam, tuple(float(v) for v in best_x))


# -- wire protocol ------------------------------------------------------------
#
# One JSON record per line, UTF-8, numbers with 17 significant digits.
# Engine -> solver: {"query_id": int, "p": [...], "q": [...]}
# Solver -> engine: {"query_id": int, "alpha": x, "z": [...], "lambda": [...], "x": [...]?}
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
    """Parse and validate a solver response line."""
    record = _load_record(line)
    try:
        query_id = _as_id(record["query_id"])
        alpha = _as_float(record["alpha"], "alpha")
        z = _as_floats(record["z"], "z")
        lam = _as_floats(record["lambda"], "lambda")
        decision = _as_floats(record["x"], "x") if "x" in record else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad solution record: {exc}") from exc
    for name, values in (("alpha", (alpha,)), ("z", z), ("lambda", lam), ("x", decision or ())):
        if not all(math.isfinite(v) for v in values):
            raise ProtocolError(f"non-finite {name} in solution record: {list(values)}")
    if expected_id is not None and query_id != expected_id:
        raise ProtocolError(f"query id mismatch: expected {expected_id}, got {query_id}")
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
