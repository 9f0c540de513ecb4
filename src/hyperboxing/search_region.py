"""The improved bookkeeping of the search region's local bounds.

:class:`SearchRegion` keeps the sets L (local lower bounds) and U (local
upper bounds) of the not-yet-excluded search region, each in one
column-major array store, and splits every bound a new point affects in a
few array operations.  Only children that pass the creation criterion are
made.  Pairs of opposing bounds whose box exceeds the pruning threshold are
indexed per bound and kept in a lazy max-heap, so the largest box needs no
scan.  The largest box of a pair dropped at or below the threshold, or
evicted, is kept instead, and bounds every box left in L x U.

L and U hold only the bounds with a partner: an opposing bound whose box
exceeds the threshold.  The point sequence cannot change.  A pair forms only
between a child and its parent's partners, so a bound without a partner, and
each of its descendants, never gains one; defining sets hold points, not
bounds; and a selected pair whose bounds were both left unsplit stays
indexed, so the stall test of ``engine.Session`` still finds both.

:mod:`hyperboxing.reference` holds the naive baseline and the brute-force
checks; both regions build on :class:`RegionBase`, which also holds the one
eviction rule: evicting a pair excludes exactly that ``(l_id, u_id)`` pair
from selection.  The boxes that later split off it are kept and probed like
any others, so both regions select the same boxes after a solver miss too.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from enum import Enum
from itertools import chain

import numpy as np

from .geometry import Box, Point, SizeMode, box_measures, effective_scale


class Strategy(str, Enum):
    """Which bookkeeping a run uses; ``engine.Session`` maps it to a region class."""

    NAIVE = "naive"
    IMPROVED = "improved"


LOWER = "lower"
UPPER = "upper"

#: A store drops its dead rows once they outnumber the live ones and it holds
#: more than this many rows.
COMPACT_MIN_ROWS = 512


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

    def append(self, ids, coords: np.ndarray, defining=None) -> None:
        """Add the columns of coords (m, k) as the bounds ids, ascending past every stored id."""
        k = coords.shape[1]
        if self.n + k > len(self.ids):
            self._grow(self.n + k)
        rows = slice(self.n, self.n + k)
        self.coords[:, rows] = coords
        self.ids[rows] = ids
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


class RegionBase:
    """The stores of L and U, bound ids and input checks, shared by both regions.

    The start box's corners become bounds 0 (lower) and 1 (upper).
    """

    def __init__(self, start_box: Box, epsilon: float, mode: SizeMode = SizeMode.ABSOLUTE):
        # Written as not(>=) so that a NaN is refused too.
        if not epsilon >= 0:
            raise ValueError(f"pruning threshold must be non-negative, got {epsilon}")
        self.m = start_box.dim
        self.epsilon = float(epsilon)
        self.mode = SizeMode(mode)
        self.start_scale = start_box.scale
        # Divisors applied to edges before any size comparison.
        self.scale = effective_scale(start_box.scale, self.mode)
        self._next_id = 0
        self._stores = {LOWER: _Store(LOWER, self.m), UPPER: _Store(UPPER, self.m)}
        self._evicted: set[tuple[int, int]] = set()
        self._append(LOWER, np.array(start_box.lower, dtype=float)[:, None])
        self._append(UPPER, np.array(start_box.upper, dtype=float)[:, None])

    def _new_ids(self, k: int) -> range:
        self._next_id += k
        return range(self._next_id - k, self._next_id)

    def _append(self, kind: str, coords: np.ndarray, defining=None) -> None:
        self._stores[kind].append(self._new_ids(coords.shape[1]), coords, defining)

    def contains_bound(self, bid: int) -> bool:
        return any(store.contains(bid) for store in self._stores.values())

    def coordinate_set(self, kind: str) -> set[Point]:
        """The stored bounds of one kind; in a :class:`SearchRegion`, those with a partner."""
        coords, _ = self._stores[kind].live_view()
        return set(map(tuple, coords.T.tolist()))

    def evict_pair(self, l_id: int, u_id: int) -> None:
        """Exclude the box of exactly this pair from selection (stall handling)."""
        self._evicted.add((l_id, u_id))

    def apply_point(self, z, s, lower_only: bool = False) -> None:
        """Ingest a new representation point z with its shifted point s = z + lambda.

        Lower bounds are split at s, upper bounds at z, by the subclass's
        ``_split``.  ``lower_only`` is used when z was reported dominated and
        must not tighten U.
        """
        z = tuple(float(v) for v in z)
        s = tuple(float(v) for v in s)
        if len(z) != self.m or len(s) != self.m:
            raise ValueError("point dimension does not match the region")
        if not all(si >= zi for zi, si in zip(z, s)):
            raise ValueError(f"s must dominate z componentwise, got z={z}, s={s}")
        self._split(LOWER, s)
        if not lower_only:
            self._split(UPPER, z)


class SearchRegion(RegionBase):
    """The sets L and U with opposing indices and a lazy heap of their boxes."""

    def __init__(self, start_box: Box, epsilon: float, mode: SizeMode = SizeMode.ABSOLUTE):
        super().__init__(start_box, epsilon, mode)
        self.opp_upper: dict[int, set[int]] = {}
        self.opp_lower: dict[int, set[int]] = {}
        self._heap: list = []
        self._live_pairs = 0
        # Largest size of a pair dropped at or below epsilon or evicted.
        self._settled = 0.0
        lower, upper = (self._stores[kind].coords[:, :1] for kind in (LOWER, UPPER))
        for l_id, u_id in zip(*self._push_pairs(lower, upper, [0], [1])):
            self.opp_upper[l_id] = {u_id}
            self.opp_lower[u_id] = {l_id}
        if not self._live_pairs:  # a start box at most epsilon leaves no partners
            for store in self._stores.values():
                store.kill(np.array([0]))

    def apply_point(self, z, s, lower_only: bool = False) -> None:
        """Split as :meth:`RegionBase.apply_point` does, then compact the heap."""
        super().apply_point(z, s, lower_only)
        self._compact_heap()

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

    def _split(self, kind: str, pt: Point) -> None:
        """Split every bound strictly beyond pt at once.

        Child k of an affected parent is created iff, for every other
        non-virtual component j, some point d defining j has pt beyond d in
        component k; this is ``reference.child_criterion_upper`` (or ``_lower``)
        written without extrema.  A child inherits the defining points that
        pass the same test in its k and is defined by pt alone in k.  Only the
        children that pair with one of their parent's partners are stored,
        and a partner left without any pair is dropped.
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
        store.kill(rows)
        ids = self._new_ids(len(pa))  # every child takes an id, stored or not

        if kind == LOWER:
            own_opp, other_opp, other = self.opp_upper, self.opp_lower, self._stores[UPPER]
        else:
            own_opp, other_opp, other = self.opp_lower, self.opp_upper, self._stores[LOWER]
        partners = [own_opp.pop(bid) for bid in parent_ids]
        for bid, group in zip(parent_ids, partners):
            for pid in group:
                other_opp[pid].discard(bid)
        n_partners = np.fromiter(map(len, partners), dtype=np.int64, count=len(partners))
        self._live_pairs -= int(n_partners.sum())

        # Candidate pairs: each parent's children against each of its
        # partners, parent by parent; rank is a pair's place in that block.
        n_children = np.bincount(pa, minlength=len(rows))
        per_parent = n_children * n_partners
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
        # One int object per new id, shared by the index maps and the heap.
        new_ids = np.array(ids, dtype=object)[child]
        if kind == LOWER:
            mine, theirs = self._push_pairs(pair_cols, partner_cols, new_ids, partner_ids)
        else:
            theirs, mine = self._push_pairs(partner_cols, pair_cols, partner_ids, new_ids)
        fresh = defaultdict(set)
        for c, p in zip(mine, theirs):
            fresh[c].add(p)
            other_opp[p].add(c)
        own_opp.update(fresh)
        keep = np.array(sorted(fresh), dtype=np.int64) - ids.start
        store.append(ids.start + keep, child_cols[:, keep], child_defining[keep])
        # Only now, with the children's pairs in place, is a partner known to
        # be left without any; it can never gain one again.
        widowed = [pid for pid in set(all_partners) if not other_opp[pid]]
        if widowed:
            for pid in widowed:
                del other_opp[pid]
            other.kill(other.rows_of(np.array(widowed, dtype=np.int64)))

    def evict_pair(self, l_id: int, u_id: int) -> None:
        """Record the pair as :meth:`RegionBase.evict_pair` does; it stays indexed.

        Its size counts towards :meth:`max_box_size_bound`.
        """
        super().evict_pair(l_id, u_id)
        if u_id in self.opp_upper.get(l_id, ()):
            lower = self._stores[LOWER].coords_of(l_id)
            upper = self._stores[UPPER].coords_of(u_id)
            self._settled = max(self._settled, box_measures(lower, upper, self.scale)[0])

    def largest_box(self):
        """The largest remaining box, or None once every box is at most epsilon.

        Returns (Box, l_id, u_id).
        """
        while self._heap:
            _, _, _, l_id, u_id = self._heap[0]
            if u_id in self.opp_upper.get(l_id, ()) and (l_id, u_id) not in self._evicted:
                lower = self._stores[LOWER].coords_of(l_id)
                upper = self._stores[UPPER].coords_of(u_id)
                return Box(lower, upper, self.start_scale), l_id, u_id
            heapq.heappop(self._heap)
        return None

    def max_box_size_bound(self) -> float:
        """An upper bound on the size of every box left in L x U.

        The larger of the running maximum over the pairs the region stopped
        refining and the largest live pair.  Lower-bound children lie above
        their parents and upper-bound children below, and a pair forms only
        between a child and its parent's partners, so every box in L x U lies
        inside a dropped, evicted or live pair's box; edge lengths are
        monotone under rounding, so the bound is at least the exact scan,
        ``reference.max_box_size_full_scan``.
        """
        if self.largest_box() is None:
            return self._settled
        return max(self._settled, -self._heap[0][0])
