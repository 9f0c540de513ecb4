"""The naive baseline of the search region, and brute-force checks.

:class:`NaiveRegion` replaces every bound a new point affects by all of its
component children, keeps the minimal (lower) or maximal (upper) ones, and
selects boxes by a scan of L x U.  It is the baseline that the improved
:class:`~hyperboxing.search_region.SearchRegion` is measured against, and an
independent check of it: the improved region holds those of the naive
region's bounds that have a partner, and both select the same boxes.
The functions below recompute what a region holds by brute force or, for the
creation criterion, in scalar form over :class:`Bound` views.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from .geometry import Box, Point, box_measures, selection_key, strictly_less
from .search_region import LOWER, UPPER, RegionBase, SearchRegion

#: Sentinel defining entry for components inherited from the start box.
#: Acts as -inf (upper bounds) / +inf (lower bounds) in criterion extrema.
VIRTUAL = ()

#: Elements per block of the L x U scan: its two float64 buffers take 512 KiB
#: each, which fits a 2 MiB L2 cache.
SCAN_BLOCK = 65_536


class NaiveRegion(RegionBase):
    """The sets L and U, split by full replacement and searched by full scans."""

    def _split(self, kind: str, pt: Point) -> None:
        m = self.m
        store = self._stores[kind]
        rows, _, _ = store.scan(pt)
        if len(rows) == 0:
            return
        parents = store.coords.take(rows, axis=1).T
        na = len(rows)
        # All m component children of every affected parent.
        children = np.repeat(parents, m, axis=0)
        cols = np.tile(np.arange(m), na)
        children[np.arange(na * m), cols] = np.asarray(pt)[cols]
        children = np.unique(children, axis=0)

        store.kill(rows)
        survivors = np.ascontiguousarray(store.live_view()[0].T)

        # Children are componentwise weakly inside their parents, so they can
        # never dominate a surviving bound; only the children need filtering.
        # Lower bounds are negated, which is exact, to compare as upper ones.
        sign = 1.0 if kind == UPPER else -1.0
        mirrored = sign * children
        keep = ~_covered(mirrored, sign * survivors, 0)
        # Rows are unique and each covers itself, so a second hit is a sibling.
        keep &= ~_covered(mirrored, mirrored, 1)
        self._append(kind, children[keep].T)

    def largest_box(self):
        """The largest remaining box as (Box, l_id, u_id), or None; by a full scan."""
        return _largest_box_scan(self, self.epsilon, self._evicted)

    def max_box_size_bound(self) -> float:
        """The exact largest box size left in L x U."""
        return max_box_size_full_scan(self)


def _covered(children: np.ndarray, others: np.ndarray, own: int) -> np.ndarray:
    """Mask of children weakly below more than ``own`` rows of ``others``."""
    out = np.zeros(len(children), dtype=bool)
    if len(others) == 0:
        return out
    chunk = max(1, int(4e6 // max(1, others.size)))
    for i in range(0, len(children), chunk):
        block = children[i : i + chunk]
        hits = (others[None, :, :] >= block[:, None, :]).all(axis=2).sum(axis=1)
        out[i : i + chunk] = hits > own
    return out


def _largest_box_scan(region: RegionBase, threshold: float, evicted: set):
    """Cache-blocked scan over L x U, skipping the pairs in ``evicted``.

    Walks L in blocks of rows whose size matrix holds about SCAN_BLOCK
    elements, folding into two buffers allocated once per scan, and keeps
    each block's maximum.  Blocks holding the overall maximum are scanned
    again to collect the tied pairs, which ``selection_key`` then orders.
    Returns (Box, l_id, u_id) for the largest box above threshold, or None.
    """
    l_coords, l_ids = region._stores[LOWER].live_view()
    u_coords, u_ids = region._stores[UPPER].live_view()
    n_l, n_u = len(l_ids), len(u_ids)
    if n_l == 0 or n_u == 0:
        return None
    scale = np.asarray(region.scale)[:, None]
    scaled_l = l_coords / scale
    scaled_u = u_coords / scale
    active = _active_evictions(evicted, l_ids, u_ids)
    rows = max(1, SCAN_BLOCK // n_u)
    buffers = np.empty((2, min(rows, n_l), n_u))
    starts = range(0, n_l, rows)

    def block_sizes(start):
        """min_j (u_j - l_j) for L rows [start, start + rows) against all of U."""
        block = scaled_l[:, start : start + rows]
        sizes, edge = buffers[:, : block.shape[1]]
        np.subtract(scaled_u[0], block[0, :, None], out=sizes)
        for d in range(1, region.m):
            np.subtract(scaled_u[d], block[d, :, None], out=edge)
            np.minimum(sizes, edge, out=sizes)
        for li, uj in active:
            if start <= li < start + block.shape[1]:
                sizes[li - start, uj] = -math.inf
        return sizes

    block_max = [block_sizes(start).max() for start in starts]
    best = max(block_max)
    if best <= threshold:
        return None

    candidates = []
    for start, top in zip(starts, block_max):
        if top != best:
            continue
        sizes = block_sizes(start)
        for li, uj in zip(*np.nonzero(sizes == best)):
            candidates.append((int(li) + start, int(uj)))
    best_key = None
    best_pair = None
    for li, uj in candidates:
        # Python floats, as the improved region's corners are.
        lower = tuple(l_coords[:, li].tolist())
        upper = tuple(u_coords[:, uj].tolist())
        key = selection_key(lower, upper, region.scale)
        if best_key is None or key > best_key:
            best_key = key
            best_pair = (li, uj, lower, upper)
    li, uj, lower, upper = best_pair
    box = Box(lower, upper, region.start_scale)
    return box, int(l_ids[li]), int(u_ids[uj])


def _active_evictions(evicted: set, l_ids, u_ids):
    """(L row, U row) of each evicted pair still live; forgets the others."""
    if not evicted:
        return []
    lpos = {int(b): i for i, b in enumerate(l_ids)}
    upos = {int(b): i for i, b in enumerate(u_ids)}
    active = []
    for l_id, u_id in list(evicted):
        if l_id in lpos and u_id in upos:
            active.append((lpos[l_id], upos[u_id]))
        else:
            evicted.discard((l_id, u_id))
    return active


def max_box_size_full_scan(region: RegionBase) -> float:
    """Largest box size left in L x U, by brute force.

    Evicted pairs are left out, as both regions' selection leaves them out;
    the boxes that split off them are counted.
    """
    result = _largest_box_scan(region, 0.0, region._evicted)
    if result is None:
        return 0.0
    box, _, _ = result
    return box_measures(box.lower, box.upper, region.scale)[0]


class Bound:
    """A local bound with the representation points defining its components.

    ``defining[j]`` is the tuple of points that pin component j of the bound;
    several points share a component whenever they have equal coordinate
    values there, so each entry is a set, not a single point.  Regions keep
    their bounds in arrays; these objects are only views of them.
    """

    __slots__ = ("id", "kind", "coords", "defining")

    def __init__(self, bid: int, kind: str, coords: Point, defining: tuple):
        self.id = bid
        self.kind = kind
        self.coords = coords
        self.defining = defining

    def __repr__(self):
        return f"Bound({self.id}, {self.kind}, {self.coords})"


def bound_views(region: RegionBase, kind: str) -> list[Bound]:
    """The region's live bounds of one kind as :class:`Bound` views, in id order."""
    store = region._stores[kind]
    points = [tuple(p) for p in store.points.tolist()]
    return [
        Bound(
            int(store.ids[r]),
            kind,
            tuple(store.coords[:, r].tolist()),
            tuple(
                tuple(points[i] for i in group if i >= 0)
                for group in store.defining[r].tolist()
            ),
        )
        for r in np.flatnonzero(store.alive[: store.n])
    ]


def child_criterion_upper(u: Bound, z: Point, k: int) -> bool:
    """Whether splitting u at component k with z yields a non-redundant child.

    True iff z_k exceeds, for every other component j, the smallest k-th
    coordinate among the points defining component j (virtual entries never
    constrain).  Scalar reference for the array kernel of ``SearchRegion``.
    """
    best = -math.inf
    for j, group in enumerate(u.defining):
        if j == k or not group:
            continue
        low = min(d[k] for d in group)
        if low > best:
            best = low
    return z[k] > best


def child_criterion_lower(l: Bound, s: Point, k: int) -> bool:
    """Mirror of :func:`child_criterion_upper` for lower bounds."""
    best = math.inf
    for j, group in enumerate(l.defining):
        if j == k or not group:
            continue
        high = max(d[k] for d in group)
        if high < best:
            best = high
    return s[k] < best


def check_indices(region: SearchRegion) -> None:
    """Assert the opposing indices match a brute-force recomputation.

    Every pair (l, u) with l < u and a box above epsilon must be indexed, in
    both maps.  This holds after evictions too: an evicted pair stays indexed,
    and only selection skips it.  The region stores exactly the bounds that
    have a partner.
    """
    # Both partner maps, from one pass over the pair table's live rows.
    pairs = region._pairs
    live = pairs.alive[: pairs.n]
    opp_upper, opp_lower = defaultdict(set), defaultdict(set)
    for l_id, u_id in zip(pairs.ids(LOWER)[live].tolist(), pairs.ids(UPPER)[live].tolist()):
        opp_upper[l_id].add(u_id)
        opp_lower[u_id].add(l_id)
    if not pairs.live == int(live.sum()) == sum(map(len, opp_upper.values())):
        raise AssertionError("the pair table miscounts its live rows or holds a pair twice")
    for kind, opp in ((LOWER, opp_upper), (UPPER, opp_lower)):
        stored = set(region._stores[kind].live_view()[1].tolist())
        if set(opp) != stored or not all(opp.values()):
            raise AssertionError(f"stored {kind} bounds differ from those with partners")
    uppers = bound_views(region, UPPER)
    for l in bound_views(region, LOWER):
        expected = set()
        for u in uppers:
            if strictly_less(l.coords, u.coords):
                size, _ = box_measures(l.coords, u.coords, region.scale)
                if size > region.epsilon:
                    expected.add(u.id)
        actual = opp_upper.get(l.id, set())
        if actual != expected:
            raise AssertionError(f"opposing uppers of {l} differ: {actual} != {expected}")
        for u_id in actual:
            if l.id not in opp_lower[u_id]:
                raise AssertionError("opposing index maps are not symmetric")


def bounds_oracle(start_box: Box, points, kind: str) -> set[Point]:
    """Brute-force local bounds for a small point set, for verification.

    Enumerates all coordinate combinations drawn from the points and the
    relevant start-box corner, keeps the candidates not strictly beyond any
    point, and reduces to maximal (upper) or minimal (lower) elements.
    """
    m = start_box.dim
    pts = np.array([tuple(map(float, p)) for p in points], dtype=float).reshape(-1, m)
    corner = start_box.upper if kind == UPPER else start_box.lower
    # Mirror the lower-bound case onto the upper-bound one.
    sign = 1.0 if kind == UPPER else -1.0
    P = sign * pts
    choices = [
        np.array(sorted({float(sign * v) for v in pts[:, j]} | {sign * corner[j]}))
        for j in range(m)
    ]
    idx_grids = np.meshgrid(*[np.arange(len(c)) for c in choices], indexing="ij")
    idx = np.stack([g.ravel() for g in idx_grids], axis=1)
    cand = np.stack([choices[j][idx[:, j]] for j in range(m)], axis=1)

    def blocked(rows: np.ndarray) -> np.ndarray:
        return (P[None, :, :] < rows[:, None, :]).all(axis=2).any(axis=1)

    if len(P):
        keep = ~blocked(cand)
        cand = cand[keep]
        idx = idx[keep]
        # An unblocked candidate is maximal iff raising any single coordinate
        # to the next grid value makes it blocked (or it already sits at the
        # corner); an unblocked raise witnesses a larger unblocked candidate.
        maximal = np.ones(len(cand), dtype=bool)
        for j in range(m):
            can_raise = np.flatnonzero(idx[:, j] + 1 < len(choices[j]))
            if not len(can_raise):
                continue
            raised = cand[can_raise].copy()
            raised[:, j] = choices[j][idx[can_raise, j] + 1]
            maximal[can_raise[~blocked(raised)]] = False
        cand = cand[maximal]
    return {tuple(float(sign * v) for v in row) for row in cand}
