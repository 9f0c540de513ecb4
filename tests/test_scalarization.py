"""Scalarization backends and the solver wire protocol."""

import math

import numpy as np
import pytest

from hyperboxing.problems import ProblemSpec, make_problem
from hyperboxing.scalarization import (
    ContractError,
    GridScalarizer,
    NoIntersection,
    ProtocolError,
    PSQuery,
    PSSolution,
    _sum_terms,
    decode_query,
    decode_solution,
    encode_done,
    encode_miss,
    encode_query,
    encode_solution,
    solve_quadric_ps,
)


class TestPSQuery:
    def test_valid(self):
        q = PSQuery(0, (0.0, 0.0), (1.0, 1.0))
        assert q.dim == 2

    def test_nonpositive_direction_rejected(self):
        with pytest.raises(ValueError):
            PSQuery(0, (0.0, 0.0), (1.0, 0.0))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PSQuery(0, (0.0, 0.0), (1.0, 1.0, 1.0))

    def test_solution_s_is_z_plus_lambda(self):
        sol = PSSolution(0, -0.5, (0.25, 0.5), (0.25, 0.0))
        assert sol.s == (0.5, 0.5)


class TestQuadricSolver:
    def test_unit_circle_diagonal(self):
        sol = solve_quadric_ps(PSQuery(0, (0.0, 0.0), (1.0, 1.0)), (1.0, 1.0))
        root = -1.0 / math.sqrt(2.0)
        assert sol.alpha == pytest.approx(root, abs=1e-12)
        assert sol.z == pytest.approx((root, root), abs=1e-12)
        assert sol.lam == (0.0, 0.0)

    def test_ellipse_intersection(self):
        sol = solve_quadric_ps(PSQuery(0, (0.0, 0.0), (2.0, 1.0)), (2.0, 1.0))
        assert sol.alpha == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-12)
        assert sol.z == pytest.approx((-math.sqrt(2.0), -1.0 / math.sqrt(2.0)), abs=1e-12)
        z1, z2 = sol.z
        assert z1**2 / 4.0 + z2**2 == pytest.approx(1.0, abs=1e-12)

    def test_missing_line_raises(self):
        with pytest.raises(NoIntersection):
            solve_quadric_ps(PSQuery(0, (0.0, -3.0), (1.0, 1.0)), (1.0, 1.0))

    def test_boundary_membership_random(self):
        rng = np.random.default_rng(11)
        a = (3.0, 1.0, 1.0)
        for _ in range(100):
            p = tuple(rng.uniform(-0.5, 0.0, 3))
            q = tuple(rng.uniform(0.5, 2.0, 3))
            sol = solve_quadric_ps(PSQuery(0, p, q), a)
            assert sum((zi / ai) ** 2 for zi, ai in zip(sol.z, a)) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_smaller_root_selected(self):
        sol = solve_quadric_ps(PSQuery(0, (0.0, 0.0), (1.0, 1.0)), (1.0, 1.0))
        other = 1.0 / math.sqrt(2.0)
        assert sol.alpha <= other

    def test_translation_along_diagonal_shifts_alpha(self):
        # Moving the reference point by t q slides the whole ray, so the
        # optimal alpha changes by exactly -t while z stays put.
        rng = np.random.default_rng(5)
        a = (1.0, 1.0)
        for _ in range(50):
            p = tuple(rng.uniform(-0.3, 0.0, 2))
            q = tuple(rng.uniform(0.5, 1.5, 2))
            t = float(rng.uniform(-0.1, 0.1))
            moved = tuple(pi + t * qi for pi, qi in zip(p, q))
            s1 = solve_quadric_ps(PSQuery(0, p, q), a)
            s2 = solve_quadric_ps(PSQuery(0, moved, q), a)
            assert s2.alpha == pytest.approx(s1.alpha - t, abs=1e-12)
            assert s2.z == pytest.approx(s1.z, abs=1e-10)


def _toy_line_problem():
    """F(x) = (x, 1 - x) on [0, 1]: a straight front for closed-form checks."""
    return ProblemSpec(
        name="toyline", decision_box=((0.0, 1.0),), ideal=(0.0, 0.0), nadir=(1.0, 1.0),
        objective_terms=lambda x: ((x,), (1.0 - x,)), default_grid_resolution=256,
    )


def _toy_sum_problem():
    """F(x) = (x1 + x2, 2 - x1 - x2) on [0, 1]^2: a dyadic grid ties along each anti-diagonal."""
    return ProblemSpec(
        name="toysum", decision_box=((0.0, 1.0), (0.0, 1.0)), ideal=(0.0, 0.0), nadir=(2.0, 2.0),
        objective_terms=lambda x1, x2: ((x1 + x2,), (2.0 - (x1 + x2),)),
        default_grid_resolution=257,
    )


class TestGridSolver:
    def test_toy_line_closed_form(self):
        # One refinement pass leaves an error of about one refined cell,
        # (2/255)/255 ~ 3e-5 here.
        sol = GridScalarizer(_toy_line_problem()).solve(PSQuery(0, (1.0, 1.0), (1.0, 1.0)))
        assert sol.alpha == pytest.approx(-0.5, abs=1e-4)
        assert sol.z == pytest.approx((0.5, 0.5), abs=1e-4)
        assert sol.decision == pytest.approx((0.5,), abs=1e-4)

    def test_alpha_nonpositive_when_p_attainable(self):
        # With 257 grid nodes x = 0.25 is the 65th node, so the attainable
        # point F(0.25) = (0.25, 0.75) = p is hit exactly and alpha <= 0.
        sol = GridScalarizer(_toy_line_problem(), 257).solve(PSQuery(0, (0.25, 0.75), (1.0, 1.0)))
        assert sol.alpha <= 0.0

    def test_s_on_query_line_and_z_below_s(self):
        problem = make_problem("nonconvex")
        solver = GridScalarizer(problem, 32)
        query = PSQuery(0, problem.nadir, tuple(n - i for i, n in zip(problem.ideal, problem.nadir)))
        sol = solver.solve(query)
        expected_s = tuple(pi + sol.alpha * qi for pi, qi in zip(query.p, query.q))
        assert sol.s == pytest.approx(expected_s, abs=1e-9)
        assert all(zi <= si + 1e-12 for zi, si in zip(sol.z, sol.s))
        assert all(v >= 0 for v in sol.lam)

    def test_agrees_with_quadric_on_sphere(self):
        problem = make_problem("sphere", 2)
        solver = GridScalarizer(problem, 400)
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = tuple(rng.uniform(-0.3, 0.0, 2))
            q = tuple(rng.uniform(0.5, 1.5, 2))
            query = PSQuery(0, p, q)
            exact = solve_quadric_ps(query, (1.0, 1.0))
            approx = solver.solve(query)
            assert approx.alpha == pytest.approx(exact.alpha, abs=2.0 / 400)

    def test_comet_spot_values(self):
        problem = make_problem("comet")
        assert problem.evaluate((3.5, 0.0, 0.0)) == (-35.0, -35.0, 36.75)
        assert problem.evaluate((2.0, 0.0, 1.0)) == (-40.0, -40.0, 24.0)

    def test_nan_objective_refused_in_the_base_pass(self):
        # The base node x2 = 0.5 lies in the hole.
        with pytest.raises(ValueError, match="objective 1 of toyhole is NaN"):
            GridScalarizer(_toy_hole_problem(0.4, 0.6))

    def test_nan_objective_refused_in_the_refinement_pass(self):
        # No base node (x2 = 0, 0.25, ..., 1) lies in the hole; the
        # incumbent x = (0, 0.25) refines over x2 = 0.05, 0.15, ..., 0.45.
        solver = GridScalarizer(_toy_hole_problem(0.1, 0.2))
        with pytest.raises(ValueError, match="objective 1 of toyhole is NaN"):
            solver.solve(PSQuery(0, (1.0, 1.0), (1.0, 1.0)))

    def test_nan_at_an_infeasible_point_is_ignored(self):
        problem = _toy_hole_problem(0.1, 0.2, feasible_in_hole=False)
        sol = GridScalarizer(problem).solve(PSQuery(0, (1.0, 1.0), (1.0, 1.0)))
        assert math.isfinite(sol.alpha) and not 0.1 < sol.decision[1] < 0.2

    def test_resolution_must_be_sane(self):
        with pytest.raises(ValueError):
            GridScalarizer(make_problem("nonconvex"), 1)


def _toy_hole_problem(a, b, feasible_in_hole=True):
    """F(x) = (x1, sqrt((x2 - a)(x2 - b))) on [0, 1]^2: NaN wherever a < x2 < b."""

    def objective_terms(x1, x2):
        with np.errstate(invalid="ignore"):
            return (x1,), (np.sqrt((x2 - a) * (x2 - b)),)

    return ProblemSpec(
        name="toyhole", decision_box=((0.0, 1.0), (0.0, 1.0)), ideal=(0.0, 0.0), nadir=(1.0, 1.0),
        objective_terms=objective_terms,
        constraint_columns=None if feasible_in_hole else (lambda x1, x2: (x2 <= a) | (x2 >= b)),
        default_grid_resolution=5,
    )


def _evaluate_rows(problem, x):
    """The (N, m) objective rows of the (N, d) decision rows x."""
    return np.stack(np.broadcast_arrays(*problem.evaluate_columns(*x.T)), axis=1)


def _feasible_rows(problem, x):
    return np.broadcast_to(problem.feasible_columns(*x.T), len(x))


class _RowMajorReference:
    """The row-major grid solve that GridScalarizer replaced, kept as an oracle.

    It evaluates ((f - p) / q).max(axis=1).argmin() over an (N, m) image
    and refines on a row-major mesh, exactly as the original code did.  It
    also counts the two paths the column-major solver must get right: an
    incumbent on the edge of the decision box (clamped refinement window)
    and a refinement mesh that is only partly feasible.
    """

    def __init__(self, problem, resolution):
        self.problem = problem
        self.resolution = resolution
        self.lo = np.array([lo for lo, _ in problem.decision_box])
        self.hi = np.array([hi for _, hi in problem.decision_box])
        self.cell = (self.hi - self.lo) / resolution
        grid = self.mesh(self.lo, self.hi)
        self.x = grid[_feasible_rows(problem, grid)]
        self.f = _evaluate_rows(problem, self.x)
        self.clamped = 0
        self.partly_feasible = 0

    def mesh(self, lo, hi):
        axes = [np.linspace(l, h, self.resolution) for l, h in zip(lo, hi)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def solve(self, query):
        p = np.asarray(query.p)
        q = np.asarray(query.q)
        alphas = ((self.f - p) / q).max(axis=1)
        i = int(alphas.argmin())
        best_alpha = float(alphas[i])
        best_x = self.x[i]
        best_f = self.f[i]
        lo = np.maximum(self.lo, best_x - self.cell)
        hi = np.minimum(self.hi, best_x + self.cell)
        self.clamped += bool((lo == self.lo).any() or (hi == self.hi).any())
        refined = self.mesh(lo, hi)
        feas = _feasible_rows(self.problem, refined)
        self.partly_feasible += bool(feas.any() and not feas.all())
        if feas.any():
            xr = refined[feas]
            fr = _evaluate_rows(self.problem, xr)
            ar = ((fr - p) / q).max(axis=1)
            j = int(ar.argmin())
            if float(ar[j]) < best_alpha:
                best_alpha = float(ar[j])
                best_x = xr[j]
                best_f = fr[j]
        z = tuple(float(v) for v in best_f)
        s = tuple(pi + best_alpha * qi for pi, qi in zip(query.p, query.q))
        lam = tuple(max(si - zi, 0.0) for si, zi in zip(s, z))
        return PSSolution(query.query_id, best_alpha, z, lam, tuple(float(v) for v in best_x))


def _seeded_queries(problem, n, seed):
    """Random sub-boxes of the start box, queried from their upper corners.

    Every fifth query has one direction component shrunk a thousandfold, so
    that objective alone decides the minimax and the incumbent is pushed to
    an extreme of the front, which often lies on the decision box's edge.
    """
    rng = np.random.default_rng(seed)
    ideal = np.asarray(problem.ideal)
    nadir = np.asarray(problem.nadir)
    queries = []
    for k in range(n):
        upper = ideal + (nadir - ideal) * rng.uniform(0.05, 1.0, problem.m)
        lower = ideal + (upper - ideal) * rng.uniform(0.0, 0.9, problem.m)
        direction = upper - lower
        if k % 5 == 0:
            direction[rng.integers(problem.m)] *= 1e-3
        queries.append(PSQuery(k, tuple(upper), tuple(direction)))
    return queries


class TestGridSolverBitIdentity:
    """The pruned broadcast-mesh solve must match the dense row-major one exactly."""

    RESOLUTION = 48

    @pytest.mark.parametrize("name", ["patched", "comet", "nonconvex"])
    def test_matches_row_major_reference(self, name):
        problem = make_problem(name)
        solver = GridScalarizer(problem, self.RESOLUTION)
        reference = _RowMajorReference(problem, self.RESOLUTION)
        for query in _seeded_queries(problem, 50, seed=17):
            assert solver.solve(query) == reference.solve(query), query
        # Both delicate paths were exercised, not just the interior case.
        assert reference.clamped > 0
        if name == "nonconvex":
            assert reference.partly_feasible > 0

    @pytest.mark.parametrize("name", ["patched", "comet", "nonconvex"])
    def test_matches_row_major_reference_at_default_resolution(self, name):
        problem = make_problem(name)
        solver = GridScalarizer(problem)
        reference = _RowMajorReference(problem, problem.default_grid_resolution)
        for query in _seeded_queries(problem, 10, seed=23):
            assert solver.solve(query) == reference.solve(query), query
        # Patched's clamped windows are exercised at RESOLUTION above.
        if name != "patched":
            assert reference.clamped > 0
        if name == "nonconvex":
            assert reference.partly_feasible > 0

    @pytest.mark.parametrize("name", ["patched", "comet", "nonconvex"])
    def test_matches_row_major_reference_with_short_last_tiles(self, name):
        # 45 is not a multiple of the tile width (8 for d = 2, 4 for d = 3),
        # so the last tile on every axis is short.
        problem = make_problem(name)
        solver = GridScalarizer(problem, 45)
        assert 45 % solver._tile
        reference = _RowMajorReference(problem, 45)
        for query in _seeded_queries(problem, 50, seed=29):
            assert solver.solve(query) == reference.solve(query), query
        assert reference.clamped > 0

    def test_ties_go_to_the_first_point_in_c_order(self):
        # With 257 nodes per axis every x1 + x2 = 1 node is exact, so alpha
        # = -1 ties along the whole anti-diagonal; C order picks x1 = 0.
        problem = _toy_sum_problem()
        query = PSQuery(0, (2.0, 2.0), (1.0, 1.0))
        sol = GridScalarizer(problem).solve(query)
        assert sol.alpha == -1.0 and sol.decision == (0.0, 1.0)
        assert sol == _RowMajorReference(problem, problem.default_grid_resolution).solve(query)

    def test_ties_across_tiles_go_to_the_first_point_in_c_order(self):
        # At 129 nodes the alpha = -1 anti-diagonal i + j = 128 crosses many
        # 8 x 8 tiles.  Tile by tile, the first tie met is (1, 127), in tile
        # (0, 15); C order picks (0, 128), alone in the short last tile.
        problem = _toy_sum_problem()
        query = PSQuery(0, (2.0, 2.0), (1.0, 1.0))
        sol = GridScalarizer(problem, 129).solve(query)
        assert sol.alpha == -1.0 and sol.decision == (0.0, 1.0)
        assert sol == _RowMajorReference(problem, 129).solve(query)

    @pytest.mark.parametrize("name", ["patched", "comet", "nonconvex"])
    def test_tile_bounds_never_exceed_the_values_inside(self, name):
        # On the base mesh and on the refinement window of each query, every
        # tile's bound is at most the least exact value inside the tile.
        problem = make_problem(name)
        solver = GridScalarizer(problem, 45)
        T, tiles = solver._tile, solver._tiles
        for query in _seeded_queries(problem, 10, seed=31):
            p, q = np.asarray(query.p), np.asarray(query.q)
            x = np.asarray(solver.solve(query).decision)
            window = solver._image(np.maximum(solver._lo, x - solver._cell),
                                   np.minimum(solver._hi, x + solver._cell))
            for image in (solver._base, window):
                bound = solver._tile_bounds(image, p, q)
                axes, objectives, infeasible, _ = image
                shape = (solver.resolution,) * len(axes)
                alphas = np.max([np.broadcast_to((_sum_terms(f) - pk) / qk, shape)
                                 for f, pk, qk in zip(objectives, p, q)], axis=0)
                if infeasible is not None:
                    alphas = np.where(infeasible, np.inf, alphas)
                padded = np.full(tuple(n * T for n in tiles), np.inf)
                padded[tuple(slice(0, n) for n in shape)] = alphas
                split = [v for n in tiles for v in (n, T)]
                least = padded.reshape(split).min(axis=tuple(range(1, 2 * len(tiles), 2)))
                assert (bound <= least).all(), query
                assert np.isfinite(bound).any()

    def test_buffer_reuse_leaks_nothing(self):
        # A, B, A: the solver keeps no state between queries, so the second
        # A must match the first and the oracle.
        problem = make_problem("nonconvex")
        solver = GridScalarizer(problem, self.RESOLUTION)
        reference = _RowMajorReference(problem, self.RESOLUTION)
        a, b = _seeded_queries(problem, 2, seed=5)
        first = solver.solve(a)
        middle = solver.solve(b)
        again = solver.solve(a)
        assert first == again == reference.solve(a)
        assert middle == reference.solve(b)


def _toy_band_problem(outer, inner, feasible=None):
    """F(x) = (x1, outer(x1) + inner(x2)) on [0, 1]^2, the second objective in term form.

    By default x2 has an infeasible band, 0.25 < x2 < 0.4, across the
    minimum of the default inner term at x2 = 0.3.
    """
    return ProblemSpec(
        name="toyband", decision_box=((0.0, 1.0), (0.0, 1.0)),
        ideal=(0.0, 0.0), nadir=(1.0, 2.0),
        objective_terms=lambda x1, x2: ((x1,), (outer(x1), inner(x2))),
        constraint_columns=feasible or (lambda x1, x2: (x2 <= 0.25) | (x2 >= 0.4)),
    )


class TestGridSolverTerms:
    """Objectives given as sums of terms: tile minima summed from the terms' own minima."""

    @pytest.mark.parametrize("resolution", [45, 48])
    def test_matches_row_major_reference_with_an_infeasible_band(self, resolution):
        problem = _toy_band_problem(lambda x1: 1.0 - np.sqrt(x1),
                                    lambda x2: 2.0 * np.square(x2 - 0.3))
        solver = GridScalarizer(problem, resolution)
        reference = _RowMajorReference(problem, resolution)
        for query in _seeded_queries(problem, 50, seed=37):
            assert solver.solve(query) == reference.solve(query), query
        # The masked term path ran on refinement windows that straddle the band.
        assert reference.partly_feasible > 0

    def test_nan_term_refused(self):
        problem = _toy_band_problem(lambda x1: x1, lambda x2: np.sqrt(x2 - 0.5))
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="objective 1 of toyband is NaN"):
                GridScalarizer(problem, 8)

    def test_infinite_terms_of_opposite_sign_refused(self):
        # -log(x1) is +inf at x1 = 0, log(x2) is -inf at x2 = 0: their sum is
        # NaN at the feasible corner (0, 0), and the solver refuses the -inf term.
        problem = _toy_band_problem(lambda x1: -np.log(x1), np.log, lambda x1, x2: x2 >= 0.0)
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="objective 1 of toyband is -inf in a term"):
                GridScalarizer(problem, 8)

    def test_infinite_terms_at_infeasible_points_are_ignored(self):
        # With x2 = 0 infeasible, the -inf of log(x2) is masked out, and the
        # +inf of -log(x1) at x1 = 0 only gives sums of +inf, which never win.
        problem = _toy_band_problem(lambda x1: -np.log(x1), np.log, lambda x1, x2: x2 > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            sol = GridScalarizer(problem, 8).solve(PSQuery(0, (1.0, 2.0), (1.0, 1.0)))
        assert math.isfinite(sol.alpha) and sol.decision[0] > 0.0 and sol.decision[1] > 0.0


class TestWireProtocol:
    def test_query_round_trip(self):
        query = PSQuery(3, (0.0, 0.0), (1.0, 1.0))
        line = encode_query(query)
        assert '"query_id": 3' in line
        back = decode_query(line)
        assert back == query

    def test_done_record(self):
        assert decode_query(encode_done()) is None

    def test_solution_round_trip_17_digits(self):
        z = (-0.70710678118654746, -0.70710678118654757)
        sol = PSSolution(7, -0.70710678118654746, z, (0.0, 0.0), (0.5, 0.25))
        back = decode_solution(encode_solution(sol), expected_id=7, dim=2)
        assert back.alpha == sol.alpha
        assert back.z == sol.z
        assert back.decision == sol.decision

    def test_tiny_negative_lambda_clamped(self):
        line = '{"query_id": 0, "alpha": -0.5, "z": [0.1, 0.2], "lambda": [-1e-15, 0.0]}'
        sol = decode_solution(line, expected_id=0, dim=2)
        assert sol.lam == (0.0, 0.0)

    def test_negative_lambda_beyond_tolerance(self):
        line = '{"query_id": 0, "alpha": -0.5, "z": [0.1, 0.2], "lambda": [-1e-3, 0.0]}'
        with pytest.raises(ContractError):
            decode_solution(line, expected_id=0, dim=2)

    def test_wrong_dimension_rejected(self):
        line = '{"query_id": 0, "alpha": -0.5, "z": [0.1, 0.2, 0.3], "lambda": [0, 0, 0]}'
        with pytest.raises(ProtocolError):
            decode_solution(line, expected_id=0, dim=2)

    def test_wrong_id_rejected(self):
        line = '{"query_id": 4, "alpha": -0.5, "z": [0.1, 0.2], "lambda": [0, 0]}'
        with pytest.raises(ProtocolError):
            decode_solution(line, expected_id=3, dim=2)

    def test_malformed_line_rejected(self):
        with pytest.raises(ProtocolError):
            decode_solution("{not json", expected_id=0, dim=2)
        with pytest.raises(ProtocolError):
            decode_solution('[1, 2, 3]', expected_id=0, dim=2)

    @pytest.mark.parametrize("field, text", [
        ("alpha", '"alpha": NaN, "z": [0.1, 0.2], "lambda": [0, 0]'),
        ("z", '"alpha": -0.5, "z": [Infinity, 0.2], "lambda": [0, 0]'),
        ("lambda", '"alpha": -0.5, "z": [0.1, 0.2], "lambda": [0, -Infinity]'),
        ("x", '"alpha": -0.5, "z": [0.1, 0.2], "lambda": [0, 0], "x": [NaN]'),
    ])
    def test_non_finite_numbers_rejected(self, field, text):
        with pytest.raises(ProtocolError, match=field):
            decode_solution('{"query_id": 0, ' + text + "}", expected_id=0, dim=2)

    @pytest.mark.parametrize("text, wrong", [
        ('"query_id": 0.9, "alpha": true, "z": ["-0.5", false], "lambda": [0, 0]', "query_id"),
        ('"query_id": true, "alpha": -0.5, "z": [0.1, 0.2], "lambda": [0, 0]', "query_id"),
        ('"query_id": "0", "alpha": -0.5, "z": [0.1, 0.2], "lambda": [0, 0]', "query_id"),
        ('"query_id": 0, "alpha": true, "z": [0.1, 0.2], "lambda": [0, 0]', "alpha"),
        ('"query_id": 0, "alpha": "-0.5", "z": [0.1, 0.2], "lambda": [0, 0]', "alpha"),
        ('"query_id": 0, "alpha": -0.5, "z": ["0.1", 0.2], "lambda": [0, 0]', "z"),
        ('"query_id": 0, "alpha": -0.5, "z": [0.1, 0.2], "lambda": [false, 0]', "lambda"),
        ('"query_id": 0, "alpha": -0.5, "z": [0.1, 0.2], "lambda": [0, 0], "x": [null]', "x"),
    ])
    def test_non_number_types_rejected(self, text, wrong):
        with pytest.raises(ProtocolError, match=wrong):
            decode_solution("{" + text + "}", expected_id=0, dim=2)

    def test_json_integers_accepted(self):
        line = '{"query_id": 2.0, "alpha": -1, "z": [0, -1], "lambda": [0, 0]}'
        sol = decode_solution(line, expected_id=2, dim=2)
        assert (sol.query_id, sol.alpha, sol.z, sol.lam) == (2, -1.0, (0.0, -1.0), (0.0, 0.0))
        assert type(sol.query_id) is int and type(sol.alpha) is float

    def test_miss_record_raises_no_intersection(self):
        line = encode_miss(9)
        assert line == '{"query_id": 9, "noIntersection": true}'
        with pytest.raises(NoIntersection, match="query 9"):
            decode_solution(line, expected_id=9, dim=2)

    def test_miss_record_checks_its_id_first(self):
        with pytest.raises(ProtocolError, match="query id mismatch"):
            decode_solution(encode_miss(4), expected_id=3, dim=2)
        with pytest.raises(ProtocolError, match="query_id"):
            decode_solution('{"noIntersection": true}', expected_id=3, dim=2)

    def test_miss_flag_must_be_boolean(self):
        with pytest.raises(ProtocolError, match="noIntersection"):
            decode_solution('{"query_id": 0, "noIntersection": "yes"}', expected_id=0, dim=2)
        line = '{"query_id": 0, "noIntersection": false, "alpha": -1, "z": [0, -1], "lambda": [0, 0]}'
        assert decode_solution(line, expected_id=0, dim=2).alpha == -1.0

    def test_missing_field_rejected(self):
        with pytest.raises(ProtocolError):
            decode_solution('{"query_id": 0, "alpha": -0.5, "z": [0.1, 0.2]}')
