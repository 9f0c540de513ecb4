"""Local lower/upper bound bookkeeping for the box decomposition.

Two interchangeable strategies maintain the sets L (local lower bounds) and
U (local upper bounds) of the not-yet-excluded search region:

* ``naive`` replaces every affected bound by all of its component children
  and filters the result down to its minimal/maximal elements afterwards.
* ``improved`` stores the points defining each bound component, spawns only
  children that pass the creation criterion, and keeps per-bound indices of
  opposing bounds so the largest remaining box is available cheaply.  Pairs
  whose box is already at or below the pruning threshold are never stored.

Both strategies produce identical bound sets for identical inputs; the
improved one just gets there faster.
"""

from __future__ import annotations

import heapq
import math
from enum import Enum

import numpy as np

from .geometry import (
    Box,
    Point,
    SizeMode,
    box_measures,
    effective_scale,
    selection_key,
    strictly_less,
)


class Strategy(str, Enum):
    NAIVE = "naive"
    IMPROVED = "improved"


LOWER = "lower"
UPPER = "upper"

#: Sentinel defining entry for components inherited from the start box.
#: Acts as -inf (upper bounds) / +inf (lower bounds) in criterion extrema.
VIRTUAL = ()

#: Elements per block of the L x U scan: its two float64 buffers take 512 KiB
#: each, which fits a 2 MiB L2 cache.
SCAN_BLOCK = 65_536


class Bound:
    """A local bound with the representation points defining its components.

    ``defining[j]`` is the tuple of points that pin component j of the bound;
    several points share a component whenever they have equal coordinate
    values there, so each entry is a set, not a single point.
    """

    __slots__ = ("id", "kind", "coords", "defining")

    def __init__(self, bid: int, kind: str, coords: Point, defining: tuple):
        self.id = bid
        self.kind = kind
        self.coords = coords
        self.defining = defining

    def __repr__(self):
        return f"Bound({self.id}, {self.kind}, {self.coords})"


def child_criterion_upper(u: Bound, z: Point, k: int) -> bool:
    """Whether splitting u at component k with z yields a non-redundant child.

    True iff z_k exceeds, for every other component j, the smallest k-th
    coordinate among the points defining component j (virtual entries never
    constrain).
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


class _Store:
    """Append-only coordinate matrix with tombstones for one bound kind."""

    def __init__(self, m: int, capacity: int = 256):
        self.m = m
        self.coords = np.zeros((capacity, m))
        self.ids = np.zeros(capacity, dtype=np.int64)
        self.alive = np.zeros(capacity, dtype=bool)
        self.n = 0
        self.live = 0
        self.row_of: dict[int, int] = {}

    def add(self, bid: int, coords: Point) -> None:
        if self.n == len(self.coords):
            self._grow()
        row = self.n
        self.coords[row] = coords
        self.ids[row] = bid
        self.alive[row] = True
        self.row_of[bid] = row
        self.n += 1
        self.live += 1

    def remove(self, bid: int) -> None:
        row = self.row_of.pop(bid)
        self.alive[row] = False
        self.live -= 1
        if self.n > 512 and self.live * 2 < self.n:
            self._compact()

    def _grow(self) -> None:
        cap = max(256, 2 * len(self.coords))
        self.coords = np.resize(self.coords, (cap, self.m))
        self.ids = np.resize(self.ids, cap)
        alive = np.zeros(cap, dtype=bool)
        alive[: self.n] = self.alive[: self.n]
        self.alive = alive

    def _compact(self) -> None:
        keep = self.alive[: self.n]
        self.coords[: self.live] = self.coords[: self.n][keep]
        self.ids[: self.live] = self.ids[: self.n][keep]
        self.n = self.live
        self.alive[: self.n] = True
        self.alive[self.n :] = False
        self.row_of = {int(b): i for i, b in enumerate(self.ids[: self.n])}

    def live_view(self) -> tuple[np.ndarray, np.ndarray]:
        keep = self.alive[: self.n]
        return self.coords[: self.n][keep], self.ids[: self.n][keep]

    def affected(self, point: np.ndarray, kind: str) -> np.ndarray:
        """Ids of live bounds strictly beyond ``point`` on their open side."""
        coords = self.coords[: self.n]
        if kind == UPPER:
            mask = (coords > point).all(axis=1)
        else:
            mask = (coords < point).all(axis=1)
        mask &= self.alive[: self.n]
        return self.ids[: self.n][mask]


class SearchRegion:
    """The sets L and U plus, for the improved strategy, opposing indices."""

    def __init__(
        self,
        start_box: Box,
        epsilon: float,
        mode: SizeMode = SizeMode.ABSOLUTE,
        strategy: Strategy = Strategy.IMPROVED,
    ):
        if epsilon < 0:
            raise ValueError(f"pruning threshold must be non-negative, got {epsilon}")
        self.m = start_box.dim
        self.epsilon = float(epsilon)
        self.mode = SizeMode(mode)
        self.strategy = Strategy(strategy)
        self.start_scale = start_box.scale
        # Divisors applied to edges before any size comparison.
        self.scale = effective_scale(start_box.scale, self.mode)
        self._scale_arr = np.asarray(self.scale)
        self._next_id = 0
        self.bounds: dict[int, Bound] = {}
        self._stores = {LOWER: _Store(self.m), UPPER: _Store(self.m)}
        self._evicted: set[tuple[int, int]] = set()

        virtual = (VIRTUAL,) * self.m
        l0 = self._new_bound(LOWER, start_box.lower, virtual)
        u0 = self._new_bound(UPPER, start_box.upper, virtual)
        if self.strategy == Strategy.IMPROVED:
            self.opp_upper: dict[int, set[int]] = {l0.id: set()}
            self.opp_lower: dict[int, set[int]] = {u0.id: set()}
            self._heap: list = []
            self._live_pairs = 0
            size, _ = box_measures(l0.coords, u0.coords, self.scale)
            if size > self.epsilon:
                self._add_pair(l0, u0)

    # -- bound management -------------------------------------------------

    def _new_bound(self, kind: str, coords: Point, defining: tuple) -> Bound:
        bound = Bound(self._next_id, kind, tuple(coords), defining)
        self._next_id += 1
        self.bounds[bound.id] = bound
        self._stores[kind].add(bound.id, bound.coords)
        return bound

    def _remove_bound(self, bound: Bound) -> None:
        del self.bounds[bound.id]
        self._stores[bound.kind].remove(bound.id)

    def contains_bound(self, bid: int) -> bool:
        return bid in self.bounds

    def lower_bounds(self) -> list[Bound]:
        return [b for b in self.bounds.values() if b.kind == LOWER]

    def upper_bounds(self) -> list[Bound]:
        return [b for b in self.bounds.values() if b.kind == UPPER]

    def coordinate_set(self, kind: str) -> set[Point]:
        return {b.coords for b in self.bounds.values() if b.kind == kind}

    # -- updates -----------------------------------------------------------

    def apply_point(self, z, s, lower_only: bool = False) -> None:
        """Ingest a new representation point z with its shifted point s = z + lambda.

        Lower bounds are updated with s, upper bounds with z.  ``lower_only``
        is used when z was reported dominated and must not tighten U.
        """
        z = tuple(float(v) for v in z)
        s = tuple(float(v) for v in s)
        if len(z) != self.m or len(s) != self.m:
            raise ValueError("point dimension does not match the region")
        if not all(si >= zi for zi, si in zip(z, s)):
            raise ValueError(f"s must dominate z componentwise, got z={z}, s={s}")
        if self.strategy == Strategy.IMPROVED:
            self._split_improved(LOWER, s)
            if not lower_only:
                self._split_improved(UPPER, z)
            self._compact_heap()
        else:
            self._split_naive(LOWER, s)
            if not lower_only:
                self._split_naive(UPPER, z)

    # -- improved strategy --------------------------------------------------

    def _add_pair(self, l: Bound, u: Bound) -> None:
        self.opp_upper[l.id].add(u.id)
        self.opp_lower[u.id].add(l.id)
        size, volume = box_measures(l.coords, u.coords, self.scale)
        neg_corners = tuple(-c for c in l.coords + u.coords)
        heapq.heappush(self._heap, (-size, -volume, neg_corners, l.id, u.id))
        self._live_pairs += 1

    def _compact_heap(self) -> None:
        """Rebuild the heap from its live entries once stale ones outnumber them.

        Heap keys are unique, since they end in (l_id, u_id), so the pop order
        does not change.
        """
        if len(self._heap) <= 2 * self._live_pairs:
            return
        opp = self.opp_upper
        self._heap = [e for e in self._heap if e[4] in opp.get(e[3], ())]
        heapq.heapify(self._heap)

    def _join_defining(self, kind: str, pt: Point) -> None:
        """Add pt to the defining sets it extends on unaffected bounds.

        A point whose j-th coordinate equals that of a live bound, while being
        strictly inside it everywhere else, co-defines component j.  Missing
        these ties would make later child criteria reject valid children.
        """
        store = self._stores[kind]
        coords, ids = store.live_view()
        if len(coords) == 0:
            return
        arr = np.asarray(pt)
        eq = coords == arr
        strict = (coords > arr) if kind == UPPER else (coords < arr)
        hits = eq & (strict.sum(axis=1)[:, None] == self.m - 1)
        for row, j in zip(*np.nonzero(hits)):
            bound = self.bounds[int(ids[row])]
            j = int(j)
            group = bound.defining[j]
            if pt not in group:
                bound.defining = (
                    bound.defining[:j] + (group + (pt,),) + bound.defining[j + 1 :]
                )

    def _split_improved(self, kind: str, pt: Point) -> None:
        m = self.m
        eps = self.epsilon
        store = self._stores[kind]
        self._join_defining(kind, pt)
        affected = sorted(int(b) for b in store.affected(np.asarray(pt), kind))
        if not affected:
            return
        if kind == LOWER:
            own_opp, other_opp = self.opp_upper, self.opp_lower
            criterion = child_criterion_lower
        else:
            own_opp, other_opp = self.opp_lower, self.opp_upper
            criterion = child_criterion_upper

        for bid in affected:
            parent = self.bounds[bid]
            children = []
            for k in range(m):
                if criterion(parent, pt, k):
                    coords = parent.coords[:k] + (pt[k],) + parent.coords[k + 1 :]
                    defining = []
                    for j, group in enumerate(parent.defining):
                        if j == k:
                            defining.append((pt,))
                        elif kind == UPPER:
                            defining.append(tuple(d for d in group if d[k] < pt[k]))
                        else:
                            defining.append(tuple(d for d in group if d[k] > pt[k]))
                    children.append(self._new_bound(kind, coords, tuple(defining)))
            self._remove_bound(parent)
            partners = sorted(own_opp.pop(bid))
            self._live_pairs -= len(partners)
            for child in children:
                own_opp[child.id] = set()
            for pid in partners:
                other_opp[pid].discard(bid)
            if not partners or not children:
                continue
            pcoords = np.array([self.bounds[p].coords for p in partners])
            for child in children:
                carr = np.asarray(child.coords)
                if kind == LOWER:
                    ok = (pcoords > carr).all(axis=1)
                    sizes = ((pcoords - carr) / self._scale_arr).min(axis=1)
                else:
                    ok = (pcoords < carr).all(axis=1)
                    sizes = ((carr - pcoords) / self._scale_arr).min(axis=1)
                ok &= sizes > eps
                for j in np.flatnonzero(ok):
                    partner = self.bounds[partners[j]]
                    if kind == LOWER:
                        self._add_pair(child, partner)
                    else:
                        self._add_pair(partner, child)

    # -- naive strategy ------------------------------------------------------

    def _split_naive(self, kind: str, pt: Point) -> None:
        m = self.m
        store = self._stores[kind]
        pt_arr = np.asarray(pt)
        affected = np.sort(store.affected(pt_arr, kind))
        if len(affected) == 0:
            return
        rows = [store.row_of[int(b)] for b in affected]
        parents = store.coords[rows].copy()
        na = len(affected)
        # All m component children of every affected parent.
        children = np.repeat(parents, m, axis=0)
        cols = np.tile(np.arange(m), na)
        children[np.arange(na * m), cols] = pt_arr[cols]
        children = np.unique(children, axis=0)

        for bid in affected:
            self._remove_bound(self.bounds[int(bid)])
        survivors, _ = store.live_view()

        # Children are componentwise weakly inside their parents, so they can
        # never dominate a surviving bound; only the children need filtering.
        keep = ~self._naive_dominated(children, survivors, kind)
        keep &= ~self._naive_dominated_within(children, kind)
        virtual = (VIRTUAL,) * m
        for row in children[keep]:
            self._new_bound(kind, tuple(row), virtual)

    @staticmethod
    def _naive_dominated(children: np.ndarray, others: np.ndarray, kind: str) -> np.ndarray:
        """Mask of children weakly dominated by any row of ``others``."""
        if len(others) == 0:
            return np.zeros(len(children), dtype=bool)
        out = np.zeros(len(children), dtype=bool)
        chunk = max(1, int(4e6 // max(1, others.size)))
        for i in range(0, len(children), chunk):
            block = children[i : i + chunk]
            if kind == UPPER:
                dom = (others[None, :, :] >= block[:, None, :]).all(axis=2)
            else:
                dom = (others[None, :, :] <= block[:, None, :]).all(axis=2)
            out[i : i + chunk] = dom.any(axis=1)
        return out

    @staticmethod
    def _naive_dominated_within(children: np.ndarray, kind: str) -> np.ndarray:
        """Mask of children weakly dominated by a distinct sibling (rows unique)."""
        if kind == UPPER:
            ge = (children[None, :, :] >= children[:, None, :]).all(axis=2)
        else:
            ge = (children[None, :, :] <= children[:, None, :]).all(axis=2)
        # ge[i, j] == True iff sibling j covers child i; the diagonal is always
        # true, so any second hit in a row means real domination.
        return ge.sum(axis=1) > 1

    # -- queries ---------------------------------------------------------------

    def evict_pair(self, l_id: int, u_id: int) -> None:
        """Permanently drop one box from consideration (stall handling)."""
        if self.strategy == Strategy.IMPROVED and u_id in self.opp_upper.get(l_id, ()):
            self.opp_upper[l_id].discard(u_id)
            self.opp_lower[u_id].discard(l_id)
            self._live_pairs -= 1
        self._evicted.add((l_id, u_id))

    def largest_box(self):
        """The largest remaining box, or None once every box is at most epsilon.

        Returns (Box, l_id, u_id).
        """
        if self.strategy == Strategy.IMPROVED:
            while self._heap:
                _, _, _, l_id, u_id = self._heap[0]
                opp = self.opp_upper.get(l_id)
                if opp is not None and u_id in opp:
                    l = self.bounds[l_id]
                    u = self.bounds[u_id]
                    return Box(l.coords, u.coords, self.start_scale), l_id, u_id
                heapq.heappop(self._heap)
            return None
        return self._largest_box_scan(self.epsilon)

    def _largest_box_scan(self, threshold: float):
        """Cache-blocked scan over L x U (naive selection and the final report).

        Walks L in blocks of rows whose size matrix holds about SCAN_BLOCK
        elements, folding into two buffers allocated once per scan, and keeps
        each block's maximum.  Blocks holding the overall maximum are scanned
        again to collect the tied pairs, which ``selection_key`` then orders.
        """
        l_coords, l_ids = self._stores[LOWER].live_view()
        u_coords, u_ids = self._stores[UPPER].live_view()
        n_l, n_u = len(l_coords), len(u_coords)
        if n_l == 0 or n_u == 0:
            return None
        scaled_l = l_coords / self._scale_arr
        scaled_ut = np.ascontiguousarray((u_coords / self._scale_arr).T)
        evicted = self._active_evictions(l_ids, u_ids)
        rows = max(1, SCAN_BLOCK // n_u)
        buffers = np.empty((2, min(rows, n_l), n_u))
        starts = range(0, n_l, rows)

        def block_sizes(start):
            """min_j (u_j - l_j) for L rows [start, start + rows) against all of U."""
            block = scaled_l[start : start + rows]
            sizes, edge = buffers[:, : len(block)]
            np.subtract(scaled_ut[0], block[:, 0, None], out=sizes)
            for d in range(1, self.m):
                np.subtract(scaled_ut[d], block[:, d, None], out=edge)
                np.minimum(sizes, edge, out=sizes)
            for li, uj in evicted:
                if start <= li < start + len(block):
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
            lower = tuple(l_coords[li])
            upper = tuple(u_coords[uj])
            key = selection_key(lower, upper, self.scale)
            if best_key is None or key > best_key:
                best_key = key
                best_pair = (li, uj, lower, upper)
        li, uj, lower, upper = best_pair
        box = Box(lower, upper, self.start_scale)
        return box, int(l_ids[li]), int(u_ids[uj])

    def _active_evictions(self, l_ids, u_ids):
        if not self._evicted:
            return []
        lpos = {int(b): i for i, b in enumerate(l_ids)}
        upos = {int(b): i for i, b in enumerate(u_ids)}
        active = []
        for l_id, u_id in list(self._evicted):
            if l_id in lpos and u_id in upos:
                active.append((lpos[l_id], upos[u_id]))
            elif l_id not in self.bounds or u_id not in self.bounds:
                self._evicted.discard((l_id, u_id))
        return active

    def max_box_size_full_scan(self) -> float:
        """Largest remaining non-evicted box size by brute force (any strategy)."""
        result = self._largest_box_scan(0.0)
        if result is None:
            return 0.0
        box, _, _ = result
        return box_measures(box.lower, box.upper, self.scale)[0]

    def check_indices(self) -> None:
        """Assert the opposing indices match a brute-force recomputation."""
        if self.strategy != Strategy.IMPROVED:
            raise ValueError("indices exist only for the improved strategy")
        for l in self.lower_bounds():
            expected = set()
            for u in self.upper_bounds():
                if strictly_less(l.coords, u.coords):
                    size, _ = box_measures(l.coords, u.coords, self.scale)
                    if size > self.epsilon and (l.id, u.id) not in self._evicted:
                        expected.add(u.id)
            actual = self.opp_upper.get(l.id, set())
            if actual != expected:
                raise AssertionError(f"opposing uppers of {l} differ: {actual} != {expected}")
            for u_id in actual:
                if l.id not in self.opp_lower[u_id]:
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
