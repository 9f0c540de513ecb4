"""Box arithmetic, size measures and the deterministic selection order."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hyperboxing.geometry import (
    Box,
    SizeMode,
    box_measures,
    box_size,
    compare_boxes,
    effective_scale,
    selection_key,
    strictly_less,
)


def _finite_points(dim):
    coord = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
    return st.tuples(*[coord] * dim)


class TestStrictlyLess:
    def test_all_components_smaller(self):
        assert strictly_less((0, 0), (1, 1))

    def test_one_component_not_smaller(self):
        assert not strictly_less((0.25, 0.75, 0.25), (1, 0.5, 1))

    def test_equality_is_not_strict(self):
        assert not strictly_less((0.5, 0.5), (0.5, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            strictly_less((0, 0), (1, 1, 1))

    @given(_finite_points(3), _finite_points(3))
    def test_strict_partial_order(self, a, b):
        assert not strictly_less(a, a)
        if strictly_less(a, b):
            assert not strictly_less(b, a)


class TestBox:
    def test_valid_box(self):
        box = Box((0.0, 0.0), (1.0, 0.3), (1.0, 1.0))
        assert box.dim == 2
        assert box.diagonal == (1.0, 0.3)

    def test_degenerate_edge_rejected(self):
        with pytest.raises(ValueError):
            Box((0.0, 0.5), (1.0, 0.5), (1.0, 1.0))

    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError):
            Box((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_corner_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Box((0.0, 0.0), (1.0, bad), (1.0, 1.0))
        with pytest.raises(ValueError):
            Box((bad, 0.0), (1.0, 1.0), (1.0, 1.0))

    def test_zero_dimensions_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            Box((), (), ())

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            Box((0.0, 0.0), (1.0, 1.0), (1.0, 0.0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_nonfinite_scale_rejected(self, bad):
        # An infinite scale would read every relative edge as 0, so a
        # relative run over the box would end at once with no points.
        with pytest.raises(ValueError, match="finite"):
            Box((0.0, 0.0), (1.0, 1.0), (1.0, bad))


class TestBoxSize:
    def test_absolute_min_edge(self):
        box = Box((0.0, 0.0), (1.0, 0.3), (1.0, 1.0))
        assert box_size(box, SizeMode.ABSOLUTE) == pytest.approx(0.3)

    def test_after_first_sphere_point(self):
        # Start box [-1,0]^2 split at the symmetric front point.
        z = -math.sqrt(0.5)
        box = Box((-1.0, -1.0), (z, z), (1.0, 1.0))
        assert box_size(box, SizeMode.ABSOLUTE) == pytest.approx(0.29289, abs=1e-5)

    def test_relative_per_dimension(self):
        box = Box((0.0, 0.0), (3.0, 0.5), (3.0, 1.0))
        assert box_size(box, SizeMode.RELATIVE) == pytest.approx(0.5)
        assert box_size(box, SizeMode.ABSOLUTE) == pytest.approx(0.5)

    def test_absolute_ignores_scale(self):
        box = Box((0.0, 0.0), (3.0, 0.5), (3.0, 1.0))
        plain = Box((0.0, 0.0), (3.0, 0.5), (1.0, 1.0))
        assert box_size(box, SizeMode.ABSOLUTE) == box_size(plain, SizeMode.ABSOLUTE)

    @given(st.data())
    def test_subbox_never_larger(self, data):
        dim = data.draw(st.integers(2, 4))
        lower = data.draw(_finite_points(dim))
        edges = data.draw(
            st.tuples(*[st.floats(0.1, 10, allow_nan=False)] * dim)
        )
        upper = tuple(l + e for l, e in zip(lower, edges))
        shrink = data.draw(st.tuples(*[st.floats(0.01, 0.49)] * dim))
        inner_l = tuple(l + s * e for l, s, e in zip(lower, shrink, edges))
        inner_u = tuple(u - s * e for u, s, e in zip(upper, shrink, edges))
        scale = (1.0,) * dim
        outer = Box(lower, upper, scale)
        inner = Box(inner_l, inner_u, scale)
        for mode in SizeMode:
            assert box_size(inner, mode) <= box_size(outer, mode) + 1e-12


class TestCompareBoxes:
    def test_size_dominates(self):
        b1 = Box((0.0, 0.0), (1.0, 0.3), (1.0, 1.0))
        b2 = Box((0.0, 0.0), (1.0, 0.2), (1.0, 1.0))
        assert compare_boxes(b1, b2, SizeMode.ABSOLUTE) > 0
        assert compare_boxes(b2, b1, SizeMode.ABSOLUTE) < 0

    def test_volume_breaks_size_tie(self):
        b1 = Box((0.0, 0.0), (0.5, 0.12), (1.0, 1.0))
        b2 = Box((0.0, 0.0), (0.5, 0.08), (1.0, 1.0))
        # Same min edge would be needed; use 3D boxes with equal min edge.
        b1 = Box((0.0, 0.0, 0.0), (0.5, 0.5, 0.24), (1.0,) * 3)
        b2 = Box((0.0, 0.0, 0.0), (0.5, 0.5, 0.16), (1.0,) * 3)
        # min edge 0.24 vs 0.16 differ; construct a genuine tie instead:
        b1 = Box((0.0, 0.0), (0.5, 0.24), (1.0, 1.0))
        b2 = Box((0.0, 0.0), (0.24, 0.26), (1.0, 1.0))
        assert box_size(b1, SizeMode.ABSOLUTE) == box_size(b2, SizeMode.ABSOLUTE)
        assert compare_boxes(b1, b2, SizeMode.ABSOLUTE) > 0  # volume 0.12 > 0.0624

    def test_lexicographic_final_tie_break(self):
        b1 = Box((0.5, 0.0), (1.0, 0.5), (1.0, 1.0))
        b2 = Box((0.0, 0.5), (0.5, 1.0), (1.0, 1.0))
        assert box_size(b1, SizeMode.ABSOLUTE) == box_size(b2, SizeMode.ABSOLUTE)
        assert compare_boxes(b1, b2, SizeMode.ABSOLUTE) > 0

    def test_equal_boxes_compare_equal(self):
        b1 = Box((0.0, 0.0), (1.0, 1.0), (1.0, 1.0))
        b2 = Box((0.0, 0.0), (1.0, 1.0), (1.0, 1.0))
        assert compare_boxes(b1, b2, SizeMode.ABSOLUTE) == 0

    @given(st.data())
    def test_total_order_antisymmetric_transitive(self, data):
        dim = 2
        boxes = []
        for _ in range(3):
            lower = data.draw(
                st.tuples(*[st.floats(-5, 5, allow_nan=False)] * dim)
            )
            edges = data.draw(st.tuples(*[st.floats(0.1, 3)] * dim))
            upper = tuple(l + e for l, e in zip(lower, edges))
            boxes.append(Box(lower, upper, (1.0,) * dim))
        a, b, c = boxes
        mode = SizeMode.ABSOLUTE
        assert compare_boxes(a, b, mode) == -compare_boxes(b, a, mode)
        if compare_boxes(a, b, mode) > 0 and compare_boxes(b, c, mode) > 0:
            assert compare_boxes(a, c, mode) > 0


class TestBoxMeasures:
    def test_shared_scalar_path_matches_numpy(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lower = rng.uniform(-2, 0, 3)
            upper = lower + rng.uniform(0.1, 2, 3)
            scale = rng.uniform(0.5, 2, 3)
            size, volume = box_measures(tuple(lower), tuple(upper), tuple(scale))
            edges = (upper - lower) / scale
            assert size == edges.min()
            assert volume == pytest.approx(float(np.prod(edges)))

    def test_effective_scale_absolute_is_ones(self):
        assert effective_scale((3.0, 2.0), SizeMode.ABSOLUTE) == (1.0, 1.0)
        assert effective_scale((3.0, 2.0), SizeMode.RELATIVE) == (3.0, 2.0)

    def test_selection_key_orders_like_compare(self):
        scale = (1.0, 1.0)
        b1 = Box((0.0, 0.0), (1.0, 0.3), scale)
        b2 = Box((0.0, 0.0), (1.0, 0.2), scale)
        k1 = selection_key(b1.lower, b1.upper, scale)
        k2 = selection_key(b2.lower, b2.upper, scale)
        assert k1 > k2
