"""Test problem definitions, start-box corners and front samplers."""

import math
import subprocess
import sys

import numpy as np
import pytest

from hyperboxing import problems
from hyperboxing.problems import (
    PROBLEM_NAMES,
    ProblemSpec,
    UnsupportedProblem,
    make_problem,
    nondominated_mask,
)


class TestMakeProblem:
    def test_sphere_defaults(self):
        spec = make_problem("sphere", 3)
        assert spec.analytic_quadric == (1.0, 1.0, 1.0)
        assert spec.ideal == (-1.0, -1.0, -1.0)
        assert spec.nadir == (0.0, 0.0, 0.0)
        assert spec.decision_box == ((-1.0, 0.0),) * 3

    def test_ellipsoid_first_axis_is_m(self):
        spec = make_problem("ellipsoid", 4)
        assert spec.analytic_quadric == (4.0, 1.0, 1.0, 1.0)
        assert spec.ideal == (-4.0, -1.0, -1.0, -1.0)

    def test_comet_decision_box(self):
        spec = make_problem("comet")
        assert spec.decision_box == ((1.0, 3.5), (-2.0, 2.0), (0.0, 1.0))

    def test_nonconvex_corner_points(self):
        spec = make_problem("nonconvex")
        assert spec.ideal == pytest.approx((-1.3694, -1.6094, -4.0), abs=1e-4)
        assert spec.nadir == (0.0, 0.0, -1.44)

    def test_patched_corner_points(self):
        spec = make_problem("patched")
        assert spec.ideal[:2] == (0.0, 0.0)
        assert spec.ideal[2] == pytest.approx(2.615, abs=5e-3)
        assert spec.nadir == (0.86, 0.86, 6.0)

    def test_comet_corner_points(self):
        spec = make_problem("comet")
        assert spec.ideal == pytest.approx((-70.19, -70.19, 3.0), abs=5e-3)
        assert spec.nadir == (4.0, 4.0, 73.5)

    def test_ideal_below_nadir_everywhere(self):
        for name in PROBLEM_NAMES:
            spec = make_problem(name, 3)
            assert all(i < n for i, n in zip(spec.ideal, spec.nadir))

    @pytest.mark.parametrize("name, m", [(name, 3) for name in PROBLEM_NAMES]
                             + [("sphere", 2), ("ellipsoid", 5), ("sphere", 9)])
    def test_m_is_the_length_of_ideal(self, name, m):
        spec = make_problem(name, m)
        assert spec.m == len(spec.ideal) == len(spec.nadir) == m

    def test_ideal_and_nadir_of_different_lengths_refused(self):
        with pytest.raises(ValueError, match="same length"):
            ProblemSpec(name="short", decision_box=((0.0, 1.0),), ideal=(0.0, 0.0),
                        nadir=(1.0, 1.0, 1.0), objective_terms=lambda x: ((x,), (1.0 - x,)))

    def test_unsupported_combinations(self):
        with pytest.raises(ValueError):
            make_problem("sphere", 1)
        with pytest.raises(ValueError):
            make_problem("comet", 4)
        with pytest.raises(ValueError):
            make_problem("banana", 3)


class TestEvaluate:
    def test_comet_paper_spot_values(self):
        spec = make_problem("comet")
        assert spec.evaluate((3.5, 0.0, 0.0)) == (-35.0, -35.0, 36.75)
        assert spec.evaluate((2.0, 0.0, 1.0)) == (-40.0, -40.0, 24.0)

    def test_patched_origin(self):
        spec = make_problem("patched")
        assert spec.evaluate((0.0, 0.0)) == (0.0, 0.0, 6.0)

    def test_nonconvex_constraint_enforced(self):
        spec = make_problem("nonconvex")
        assert spec.feasible((0.0, 0.0, 2.0))       # cos(0) + exp(0) = 2
        assert not spec.feasible((1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            spec.evaluate((1.0, 1.0, 2.0))

    @pytest.mark.parametrize("name, m, x", [
        ("sphere", 2, (0.1, -0.5)),        # inside the ball, outside [-1, 0]^2
        ("comet", 3, (5.0, 0.0, 0.0)),
        ("patched", 3, (1.5, 0.5)),
    ])
    def test_outside_the_decision_box_is_infeasible(self, name, m, x):
        spec = make_problem(name, m)
        assert not spec.feasible(x)
        with pytest.raises(ValueError, match="infeasible"):
            spec.evaluate(x)

    def test_sphere_identity_map(self):
        spec = make_problem("sphere", 2)
        x = (-0.6, -0.8)
        assert spec.feasible(x)
        assert spec.evaluate(x) == x

    def test_ellipsoid_matches_sphere_on_shared_inputs(self):
        sphere = make_problem("sphere", 3)
        ellipsoid = make_problem("ellipsoid", 3)
        x = (-0.5, -0.5, -0.5)
        assert sphere.evaluate(x) == ellipsoid.evaluate(x)


def _bits(values, shape):
    return np.ascontiguousarray(np.broadcast_to(values, shape), dtype=float).view(np.uint64)


class TestColumnContract:
    """Broadcast axes and dense rows give the same evaluations, bit for bit."""

    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_broadcast_axes_match_dense_rows(self, name):
        spec = make_problem(name, 3)
        rng = np.random.default_rng(29)
        r = 37
        for _ in range(3):
            # A random window that overhangs the decision box a little, so
            # that both feasible and infeasible points are evaluated.
            axes = []
            for k, (lo, hi) in enumerate(spec.decision_box):
                a, b = np.sort(rng.uniform(lo - 0.1 * (hi - lo), hi, 2))
                shape = [1] * len(spec.decision_box)
                shape[k] = r
                axes.append(np.linspace(a, b, r).reshape(shape))
            shape = (r,) * len(axes)
            rows = np.stack([g.ravel() for g in np.meshgrid(*[a.ravel() for a in axes],
                                                            indexing="ij")], axis=1)
            objectives = spec.evaluate_columns(*axes)
            dense = spec.evaluate_columns(*rows.T)
            assert len(objectives) == len(dense) == spec.m
            for f, g in zip(objectives, dense):
                assert np.array_equal(_bits(f, shape).ravel(), _bits(g, len(rows)))
            feasible = np.broadcast_to(spec.feasible_columns(*axes), shape).ravel()
            assert feasible.dtype == bool
            assert np.array_equal(feasible,
                                  np.broadcast_to(spec.feasible_columns(*rows.T), len(rows)))

    def test_objectives_keep_their_broadcast_shape(self):
        spec = make_problem("patched")
        x1 = np.linspace(0.0, 1.0, 5).reshape(5, 1)
        x2 = np.linspace(0.0, 1.0, 5).reshape(1, 5)
        f1, f2, f3 = spec.evaluate_columns(x1, x2)
        assert (f1.shape, f2.shape, f3.shape) == ((5, 1), (1, 5), (5, 5))


class TestNondominatedMask:
    def test_simple_domination(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        assert nondominated_mask(pts).tolist() == [True, True, False, True]

    def test_duplicates_kept(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0]])
        assert nondominated_mask(pts).tolist() == [True, True]

    def test_weak_domination_removed(self):
        pts = np.array([[0.0, 1.0], [0.0, 2.0]])
        assert nondominated_mask(pts).tolist() == [True, False]


class TestFrontSamplers:
    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_samples_are_mutually_nondominated(self, name):
        spec = make_problem(name, 3)
        samples = spec.sample_front(400, seed=3)
        assert len(samples) > 0
        kept = nondominated_mask(np.asarray(samples) - 1e-9)
        assert kept.all()

    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_samples_inside_corner_box(self, name):
        spec = make_problem(name, 3)
        samples = np.asarray(spec.sample_front(500, seed=0))
        ideal = np.asarray(spec.ideal)
        nadir = np.asarray(spec.nadir)
        assert (samples >= ideal - 1e-6).all()
        assert (samples <= nadir + 1e-6).all()

    def test_sphere_samples_on_unit_shell(self):
        spec = make_problem("sphere", 2)
        samples = np.asarray(spec.sample_front(300, seed=7))
        radii = np.linalg.norm(samples, axis=1)
        assert radii == pytest.approx(np.ones_like(radii), abs=1e-12)
        assert (samples <= 0).all()

    def test_ellipsoid_samples_on_boundary(self):
        spec = make_problem("ellipsoid", 3)
        a = np.asarray(spec.analytic_quadric)
        samples = np.asarray(spec.sample_front(300, seed=7))
        vals = np.square(samples / a).sum(axis=1)
        assert vals == pytest.approx(np.ones_like(vals), abs=1e-12)

    def test_comet_samples_lie_on_claimed_efficient_pieces(self):
        spec = make_problem("comet")
        samples = np.asarray(spec.sample_front(300, seed=2))
        # Each sample is the image of a decision with x3 = 1 (tail) or
        # x1 = 1 (head); in both cases f3 = 3 (1 + x3) x1^2 lies in [3, 73.5].
        assert (samples[:, 2] >= 3.0 - 1e-9).all()
        assert (samples[:, 2] <= 73.5 + 1e-9).all()

    def test_patched_samples_form_four_patches(self):
        spec = make_problem("patched")
        samples = np.asarray(spec.sample_front(2000, seed=4))
        # Nondominated (x1, x2) values avoid a gap around the first local
        # peak of x (1 + sin(3 pi x)); the projections split into two bands
        # per axis, hence four patches.
        for axis in (0, 1):
            vals = np.sort(samples[:, axis])
            gaps = np.diff(vals)
            assert gaps.max() > 0.2

    def test_deterministic_given_seed(self):
        spec = make_problem("nonconvex")
        s1 = np.asarray(spec.sample_front(200, seed=5))
        s2 = np.asarray(spec.sample_front(200, seed=5))
        assert np.array_equal(s1, s2)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            make_problem("sphere", 2).sample_front(0)


class TestPatchedBands:
    def test_roots_match_brentq(self):
        from scipy.optimize import brentq

        def dh(x):
            w = 3.0 * math.pi * x
            return 1.0 + math.sin(w) + 3.0 * math.pi * x * math.cos(w)

        def h(x):
            return float(problems._patched_h(np.array([x]))[0])

        x_p = brentq(dh, 0.2, 0.3, xtol=1e-14)
        x_star = brentq(dh, 0.8, 0.9, xtol=1e-14)
        x_r = brentq(lambda x: h(x) - h(x_p), 0.5, x_star, xtol=1e-14)
        (lo, p), (r, star) = problems._PATCHED_BANDS
        assert lo == 0.0
        assert (p, r, star) == pytest.approx((x_p, x_r, x_star), rel=0, abs=1e-13)


def test_scipy_loaded_only_where_used():
    # Building any problem and importing the CLI must not load scipy: it is
    # needed only by the quality metrics.
    code = (
        "import sys, hyperboxing, hyperboxing.cli\n"
        "from hyperboxing.problems import PROBLEM_NAMES, make_problem\n"
        "for name in PROBLEM_NAMES:\n"
        "    make_problem(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
