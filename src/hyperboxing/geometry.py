"""Objective-space points, axis-parallel boxes and the deterministic box order.

Points are plain tuples of floats; boxes are (lower, upper) corner pairs
together with the per-dimension extents of the start box, which are needed
when box sizes are measured relative to the start box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

Point = tuple[float, ...]


class SizeMode(str, Enum):
    """How box edge lengths are measured."""

    ABSOLUTE = "absolute"
    RELATIVE = "relative"


@dataclass(frozen=True)
class Box:
    """Axis-parallel box [lower, upper] with finite corners and strictly positive edges.

    ``scale`` carries the start-box extents, finite and positive, so that
    relative sizes can be computed for any descendant box.
    """

    lower: Point
    upper: Point
    scale: Point

    def __post_init__(self):
        if not (len(self.lower) == len(self.upper) == len(self.scale)):
            raise ValueError("box corners and scale must share one dimension")
        if not self.lower:
            raise ValueError("box needs at least one dimension")
        if not all(map(math.isfinite, (*self.lower, *self.upper))):
            raise ValueError("box corners must be finite")
        if not all(l < u for l, u in zip(self.lower, self.upper)):
            raise ValueError("box requires lower < upper in every component")
        # Written as not(0 < s < inf) so that a NaN is refused too.
        if not all(0 < s < math.inf for s in self.scale):
            raise ValueError("scale entries must be finite and positive")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def diagonal(self) -> Point:
        return tuple(u - l for l, u in zip(self.lower, self.upper))


def strictly_less(a: Point, b: Point) -> bool:
    """Componentwise strict comparison a_i < b_i for all i."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return all(x < y for x, y in zip(a, b))


def effective_scale(scale: Point, mode: SizeMode) -> Point:
    """Per-dimension divisors for edge lengths under the given mode."""
    if mode == SizeMode.RELATIVE:
        return scale
    return (1.0,) * len(scale)


def box_measures(lower: Point, upper: Point, scale: Point) -> tuple[float, float]:
    """(minimal edge, volume) of [lower, upper] with edges divided by scale.

    Pass all-ones scale for absolute measurements.  The same elementary
    operations are used everywhere so naive and improved bookkeeping agree
    bit for bit.
    """
    size = math.inf
    volume = 1.0
    for l, u, s in zip(lower, upper, scale):
        edge = (u - l) / s
        if edge < size:
            size = edge
        volume *= edge
    return size, volume


def box_size(box: Box, mode: SizeMode = SizeMode.ABSOLUTE) -> float:
    """Minimal edge length of the box, optionally relative to the start box."""
    return box_measures(box.lower, box.upper, effective_scale(box.scale, mode))[0]


def selection_key(lower: Point, upper: Point, scale: Point):
    """Sort key for box selection: size, then volume, then the corner tuple.

    The largest key wins.  The corner tuple makes the order total on boxes
    with distinct corners, so naive and improved runs pick identical boxes.
    """
    size, volume = box_measures(lower, upper, scale)
    return (size, volume, lower + upper)


def compare_boxes(b1: Box, b2: Box, mode: SizeMode = SizeMode.ABSOLUTE) -> int:
    """Total order on boxes; returns 1 if b1 is preferred, -1 if b2, 0 if equal."""
    if b1.dim != b2.dim:
        raise ValueError("boxes of different dimension are not comparable")
    k1 = selection_key(b1.lower, b1.upper, effective_scale(b1.scale, mode))
    k2 = selection_key(b2.lower, b2.upper, effective_scale(b2.scale, mode))
    return (k1 > k2) - (k1 < k2)
