"""Local lower/upper bound bookkeeping for the box decomposition.

Two interchangeable strategies maintain the sets L (local lower bounds) and
U (local upper bounds) of the not-yet-excluded search region:

* ``naive`` replaces every affected bound by all of its component children
  and filters the result down to its minimal/maximal elements afterwards.
* ``improved`` stores the points defining each bound component, spawns only
  children that pass the creation criterion, and keeps per-bound indices of
  opposing bounds so the largest remaining box is available cheaply.  Pairs
  whose box is already at or below the pruning threshold are never stored;
  the largest of them, and of the evicted pairs, is kept instead, and bounds
  every box left in L x U without a scan of it.

Both keep each kind of bound in one column-major array store and split all
bounds affected by a new point in a few array operations.  Both strategies
produce identical bound sets for identical inputs; the improved one just gets
there faster.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from enum import Enum
from itertools import chain

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

#: A store drops its dead rows once they outnumber the live ones and it holds
#: more than this many rows.
COMPACT_MIN_ROWS = 512

#: Opposing set shared by every bound created without a partner.  Pairs only
#: form between a new child and its parent's partners, so such a bound never
#: gains one, and the set is never written.
NO_PARTNERS: frozenset[int] = frozenset()


class Bound:
    """A local bound with the representation points defining its components.

    ``defining[j]`` is the tuple of points that pin component j of the bound;
    several points share a component whenever they have equal coordinate
    values there, so each entry is a set, not a single point.  The region
    keeps its bounds in arrays and builds these objects only as views.
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
    constrain).  Scalar reference for the array kernel in ``_split_improved``.
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
    """The bounds of one kind as column-major arrays with tombstones.

    ``coords[j, r]`` is component j of the bound in row r.  Rows are appended
    in id order and compaction keeps that order, so ``ids[:n]`` is sorted and
    a row is found by binary search.  ``defining[r, j]`` holds the points
    defining component j of row r as indices into ``points``, the table of
    distinct points applied to this kind.  -1 marks an empty slot; a group of
    empty slots is virtual.  The slot count G starts at 1 and grows when a tie
    finds every slot of a group taken.
    """

    def __init__(self, kind: str, m: int, capacity: int = 256):
        self.kind = kind
        self.m = m
        # beyond(a, b): a > b for upper bounds, a < b for lower bounds.
        self.beyond = np.greater if kind == UPPER else np.less
        self.coords = np.zeros((m, capacity))
        self.ids = np.zeros(capacity, dtype=np.int64)
        self.alive = np.zeros(capacity, dtype=bool)
        self.defining = np.full((capacity, m, 1), -1, dtype=np.int32)
        self.points = np.zeros((16, m))
        self.point_index: dict[Point, int] = {}
        self.n = 0
        self.live = 0

    def append(self, first_id: int, coords: np.ndarray, defining=None) -> None:
        """Add the columns of coords (m, k) as bounds first_id, first_id + 1, ..."""
        k = coords.shape[1]
        if self.n + k > len(self.ids):
            self._grow(self.n + k)
        rows = slice(self.n, self.n + k)
        self.coords[:, rows] = coords
        self.ids[rows] = np.arange(first_id, first_id + k)
        self.alive[rows] = True
        self.defining[rows] = -1 if defining is None else defining
        self.n += k
        self.live += k

    def kill(self, rows: np.ndarray) -> None:
        self.alive[rows] = False
        self.live -= len(rows)
        if self.n > COMPACT_MIN_ROWS and self.live * 2 < self.n:
            self._compact()

    def _grow(self, need: int) -> None:
        n = self.n
        extra = max(need, 2 * len(self.ids)) - n
        self.coords = np.pad(self.coords[:, :n], ((0, 0), (0, extra)))
        self.ids = np.pad(self.ids[:n], (0, extra))
        self.alive = np.pad(self.alive[:n], (0, extra))
        self.defining = np.pad(self.defining[:n], ((0, extra), (0, 0), (0, 0)), constant_values=-1)

    def _compact(self) -> None:
        keep = np.flatnonzero(self.alive[: self.n])
        self.coords[:, : self.live] = self.coords[:, keep]
        self.ids[: self.live] = self.ids[keep]
        self.defining[: self.live] = self.defining[keep]
        self.alive[: self.live] = True
        self.alive[self.live : self.n] = False
        self.n = self.live

    def rows_of(self, ids) -> np.ndarray:
        return np.searchsorted(self.ids[: self.n], ids)

    def contains(self, bid: int) -> bool:
        row = int(self.rows_of(bid))
        return row < self.n and self.ids[row] == bid and bool(self.alive[row])

    def coords_of(self, bid: int) -> Point:
        return tuple(self.coords[:, self.rows_of(bid)].tolist())

    def live_view(self) -> tuple[np.ndarray, np.ndarray]:
        """(m, |live|) coordinates and the ids of the live rows, in id order."""
        keep = self.alive[: self.n]
        return np.compress(keep, self.coords[:, : self.n], axis=1), self.ids[: self.n][keep]

    def scan(self, pt: Point):
        """Rows strictly beyond pt in every component, and the ties of pt.

        A tie is a (row, j) with row[j] == pt[j] while the row is strictly
        beyond pt in every other component: pt then co-defines component j.
        Works one column at a time, which costs far less than reductions over
        the short component axis.
        """
        coords = self.coords[:, : self.n]
        strict = self.alive[: self.n].copy()
        touch = np.zeros(self.n, dtype=bool)
        for col, v in zip(coords, pt):
            strict &= self.beyond(col, v)
            touch |= col == v
        cand = np.flatnonzero(touch & self.alive[: self.n])
        sub = coords.take(cand, axis=1)
        p = np.asarray(pt)[:, None]
        ties = (sub == p) & (self.beyond(sub, p).sum(axis=0) == self.m - 1)
        cols, i = np.nonzero(ties)
        return np.flatnonzero(strict), cand[i], cols

    def point_id(self, pt: Point) -> int:
        """Index of pt in the point table, adding it if new."""
        idx = self.point_index.get(pt)
        if idx is None:
            idx = self.point_index[pt] = len(self.point_index)
            if idx == len(self.points):
                self.points = np.concatenate([self.points, np.zeros_like(self.points)])
            self.points[idx] = pt
        return idx

    def join(self, rows: np.ndarray, cols: np.ndarray, idx: int) -> None:
        """Add point idx to the defining groups (rows, cols) that lack it.

        Each (row, col) occurs at most once, since a tie leaves one component.
        """
        groups = self.defining[rows, cols]
        new = ~(groups == idx).any(axis=1)
        rows, cols, groups = rows[new], cols[new], groups[new]
        free = groups < 0
        if not free.any(axis=1).all():
            pad = np.full(self.defining.shape[:2] + (1,), -1, dtype=np.int32)
            self.defining = np.concatenate([self.defining, pad], axis=2)
            free = np.concatenate([free, np.ones((len(rows), 1), dtype=bool)], axis=1)
        self.defining[rows, cols, free.argmax(axis=1)] = idx

    def bounds(self) -> list[Bound]:
        """The live bounds as :class:`Bound` views, in id order."""
        points = [tuple(p) for p in self.points.tolist()]
        return [
            Bound(
                int(self.ids[r]),
                self.kind,
                tuple(self.coords[:, r].tolist()),
                tuple(
                    tuple(points[i] for i in group if i >= 0)
                    for group in self.defining[r].tolist()
                ),
            )
            for r in np.flatnonzero(self.alive[: self.n])
        ]


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
        self._stores = {LOWER: _Store(LOWER, self.m), UPPER: _Store(UPPER, self.m)}
        self._evicted: set[tuple[int, int]] = set()

        lower = np.array(start_box.lower, dtype=float)[:, None]
        upper = np.array(start_box.upper, dtype=float)[:, None]
        (l0,) = self._append(LOWER, lower)
        (u0,) = self._append(UPPER, upper)
        if self.strategy == Strategy.IMPROVED:
            self.opp_upper: dict[int, set[int]] = {l0: NO_PARTNERS}
            self.opp_lower: dict[int, set[int]] = {u0: NO_PARTNERS}
            self._heap: list = []
            self._live_pairs = 0
            # Largest size of a pair dropped at or below epsilon or evicted.
            self._settled = 0.0
            for l_id, u_id in zip(*self._push_pairs(lower, upper, [l0], [u0])):
                self.opp_upper[l_id] = {u_id}
                self.opp_lower[u_id] = {l_id}

    # -- bound management -------------------------------------------------

    def _append(self, kind: str, coords: np.ndarray, defining=None) -> range:
        """Store the columns of coords as new bounds; returns their ids."""
        first = self._next_id
        self._next_id += coords.shape[1]
        self._stores[kind].append(first, coords, defining)
        return range(first, self._next_id)

    def contains_bound(self, bid: int) -> bool:
        return any(store.contains(bid) for store in self._stores.values())

    @property
    def bounds(self) -> dict[int, Bound]:
        """Every live bound by id, as views built from the stores."""
        views = self.lower_bounds() + self.upper_bounds()
        return {b.id: b for b in sorted(views, key=lambda b: b.id)}

    def lower_bounds(self) -> list[Bound]:
        return self._stores[LOWER].bounds()

    def upper_bounds(self) -> list[Bound]:
        return self._stores[UPPER].bounds()

    def coordinate_set(self, kind: str) -> set[Point]:
        coords, _ = self._stores[kind].live_view()
        return set(map(tuple, coords.T.tolist()))

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

    def _push_pairs(self, lower, upper, l_ids, u_ids) -> tuple[list[int], list[int]]:
        """Index the candidate pairs whose box exceeds epsilon.

        ``lower`` and ``upper`` are (m, P) corner columns of P candidate pairs,
        ``l_ids`` and ``u_ids`` their ids; object arrays pass the ids' own int
        objects through, so a pair costs no new ones.  Size and volume are
        folded one column at a time in the order ``box_measures`` uses, so
        the heap keys match it bit for bit.  Returns the ids of the pairs kept;
        the largest size dropped goes into the running maximum.
        """
        size = (upper[0] - lower[0]) / self.scale[0]
        volume = size.copy()
        for j in range(1, self.m):
            edge = (upper[j] - lower[j]) / self.scale[j]
            np.minimum(size, edge, out=size)
            volume *= edge
        kept = size > self.epsilon
        if not kept.all():
            self._settled = max(self._settled, float(size[~kept].max()))
        keep = np.flatnonzero(kept)
        l_kept = np.asarray(l_ids)[keep].tolist()
        u_kept = np.asarray(u_ids)[keep].tolist()
        neg_corners = zip(*(-np.concatenate([lower[:, keep], upper[:, keep]])).tolist())
        heap = self._heap
        for key in zip((-size[keep]).tolist(), (-volume[keep]).tolist(), neg_corners,
                       l_kept, u_kept):
            heapq.heappush(heap, key)
        self._live_pairs += len(keep)
        return l_kept, u_kept

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

    def _split_improved(self, kind: str, pt: Point) -> None:
        """Split every bound strictly beyond pt at once.

        Child k of an affected parent is created iff, for every other
        non-virtual component j, some point d defining j has pt beyond d in
        component k; this is :func:`child_criterion_upper` (or ``_lower``)
        written without extrema.  A child inherits the defining points that
        pass the same test in its k and is defined by pt alone in k.
        """
        store = self._stores[kind]
        rows, tie_rows, tie_cols = store.scan(pt)
        idx = store.point_id(pt)
        if len(tie_rows):
            store.join(tie_rows, tie_cols, idx)
        if not len(rows):
            return

        parents = store.defining[rows]  # (na, m, G)
        filled = parents >= 0
        # passed[a, j, g, k]: slot g of group j of parent a holds a point that
        # pt is beyond in component k.
        passed = store.beyond(np.asarray(pt), store.points[parents]) & filled[..., None]
        met = passed.any(axis=2) | ~filled.any(axis=2)[..., None]  # (na, j, k)
        diagonal = np.arange(self.m)
        met[:, diagonal, diagonal] = True
        pa, ks = np.nonzero(met.all(axis=1))  # children in (parent, k) order
        new = np.arange(len(pa))

        child_cols = store.coords.take(rows[pa], axis=1)
        child_cols[ks, new] = np.asarray(pt)[ks]
        child_defining = np.where(passed[pa, :, :, ks], parents[pa], -1)
        child_defining[new, ks] = -1
        child_defining[new, ks, 0] = idx
        parent_ids = store.ids[rows].tolist()
        # One int object per new id, shared by the index maps and the heap.
        child_ids = list(self._append(kind, child_cols, child_defining))
        store.kill(rows)

        if kind == LOWER:
            own_opp, other_opp, other = self.opp_upper, self.opp_lower, self._stores[UPPER]
        else:
            own_opp, other_opp, other = self.opp_lower, self.opp_upper, self._stores[LOWER]
        partners = [own_opp.pop(bid) for bid in parent_ids]
        own_opp.update(dict.fromkeys(child_ids, NO_PARTNERS))
        for bid, group in zip(parent_ids, partners):
            for pid in group:
                other_opp[pid].discard(bid)
        n_partners = np.fromiter(map(len, partners), dtype=np.int64, count=len(partners))
        self._live_pairs -= int(n_partners.sum())

        # Candidate pairs: each parent's children against each of its
        # partners, parent by parent; rank is a pair's place in that block.
        n_children = np.bincount(pa, minlength=len(rows))
        per_parent = n_children * n_partners
        if not per_parent.any():
            return
        pair_parent = np.repeat(np.arange(len(rows)), per_parent)
        rank = np.arange(len(pair_parent)) - (np.cumsum(per_parent) - per_parent)[pair_parent]
        width = n_partners[pair_parent]
        child = (np.cumsum(n_children) - n_children)[pair_parent] + rank // width
        partner = (np.cumsum(n_partners) - n_partners)[pair_parent] + rank % width
        all_partners = list(chain.from_iterable(partners))
        partner_rows = other.rows_of(np.array(all_partners, dtype=np.int64))[partner]
        partner_cols = other.coords.take(partner_rows, axis=1)
        partner_ids = np.array(all_partners, dtype=object)[partner]
        pair_cols = child_cols.take(child, axis=1)
        new_ids = np.array(child_ids, dtype=object)[child]
        if kind == LOWER:
            mine, theirs = self._push_pairs(pair_cols, partner_cols, new_ids, partner_ids)
        else:
            theirs, mine = self._push_pairs(partner_cols, pair_cols, partner_ids, new_ids)
        fresh = defaultdict(set)
        for c, p in zip(mine, theirs):
            fresh[c].add(p)
            other_opp[p].add(c)
        own_opp.update(fresh)

    # -- naive strategy ------------------------------------------------------

    def _split_naive(self, kind: str, pt: Point) -> None:
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
        keep = ~self._naive_dominated(children, survivors, kind)
        keep &= ~self._naive_dominated_within(children, kind)
        self._append(kind, children[keep].T)

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
            lower = self._stores[LOWER].coords_of(l_id)
            upper = self._stores[UPPER].coords_of(u_id)
            self._settled = max(self._settled, box_measures(lower, upper, self.scale)[0])
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
                    lower = self._stores[LOWER].coords_of(l_id)
                    upper = self._stores[UPPER].coords_of(u_id)
                    return Box(lower, upper, self.start_scale), l_id, u_id
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
        n_l, n_u = len(l_ids), len(u_ids)
        if n_l == 0 or n_u == 0:
            return None
        scale = self._scale_arr[:, None]
        scaled_l = l_coords / scale
        scaled_u = u_coords / scale
        evicted = self._active_evictions(l_ids, u_ids)
        rows = max(1, SCAN_BLOCK // n_u)
        buffers = np.empty((2, min(rows, n_l), n_u))
        starts = range(0, n_l, rows)

        def block_sizes(start):
            """min_j (u_j - l_j) for L rows [start, start + rows) against all of U."""
            block = scaled_l[:, start : start + rows]
            sizes, edge = buffers[:, : block.shape[1]]
            np.subtract(scaled_u[0], block[0, :, None], out=sizes)
            for d in range(1, self.m):
                np.subtract(scaled_u[d], block[d, :, None], out=edge)
                np.minimum(sizes, edge, out=sizes)
            for li, uj in evicted:
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
            lower = tuple(l_coords[:, li])
            upper = tuple(u_coords[:, uj])
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
            else:
                self._evicted.discard((l_id, u_id))
        return active

    def max_box_size_bound(self) -> float:
        """An upper bound on the size of every box left in L x U.

        The improved strategy reports the larger of the running maximum over
        the pairs it stopped refining and the largest live pair.  Lower-bound
        children lie above their parents and upper-bound children below, and
        a pair forms only between a child and its parent's partners, so every
        box in L x U lies inside a dropped, evicted or live pair's box; edge
        lengths are monotone under rounding, so the bound is at least
        :meth:`max_box_size_full_scan`.  The naive strategy, the reference,
        reports that scan.
        """
        if self.strategy != Strategy.IMPROVED:
            return self.max_box_size_full_scan()
        if self.largest_box() is None:
            return self._settled
        return max(self._settled, -self._heap[0][0])

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
        uppers = self.upper_bounds()
        for l in self.lower_bounds():
            expected = set()
            for u in uppers:
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
