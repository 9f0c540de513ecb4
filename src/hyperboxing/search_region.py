"""The improved bookkeeping of the search region's local bounds.

:class:`SearchRegion` keeps the sets L (local lower bounds) and U (local
upper bounds) of the not-yet-excluded search region, each in one
column-major array store, and splits every bound a new point affects in a
few array operations.  Only children that pass the creation criterion are
made.  Pairs of opposing bounds whose box exceeds the pruning threshold are
rows of one column table (ids, size and volume, with tombstones), the pair
view of L x U; a split finds its parents' pairs through an id-indexed flag
array, and the largest box is the table's argmax.  The largest box of a
pair dropped at or below the threshold, or evicted, is kept instead, and
bounds every box left in L x U.

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

from collections import defaultdict
from enum import Enum

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
        if not len(cand):  # the usual case: no tie to gather
            return np.flatnonzero(strict), cand, cand
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


class _PairTable:
    """The indexed pairs of opposing bounds as columns with tombstones.

    Row r is the pair (``l_id[r]``, ``u_id[r]``) whose box has minimal edge
    ``size[r]`` and volume ``volume[r]``; a row stays live until one of its
    bounds is split.  ``size`` is also the selection key: it reads -inf on a
    dead row and on an evicted one, which stays live, so its argmax is the
    largest selectable box.
    """

    COLUMNS = ("l_id", "u_id", "size", "volume", "alive")

    def __init__(self, capacity: int = 256):
        self.l_id = np.zeros(capacity, dtype=np.int64)
        self.u_id = np.zeros(capacity, dtype=np.int64)
        self.size = np.zeros(capacity)
        self.volume = np.zeros(capacity)
        self.alive = np.zeros(capacity, dtype=bool)
        self.n = 0
        self.live = 0

    def ids(self, kind: str) -> np.ndarray:
        """The id column of one bound kind over the used rows."""
        return (self.l_id if kind == LOWER else self.u_id)[: self.n]

    def append(self, l_ids, u_ids, size, volume) -> None:
        k = len(size)
        if self.n + k > len(self.size):
            # Drop the dead rows before growing, once they outnumber the live ones.
            if self.n - self.live > self.live:
                self.compact()
            if self.n + k > len(self.size):
                self._grow(self.n + k)
        rows = slice(self.n, self.n + k)
        self.l_id[rows] = l_ids
        self.u_id[rows] = u_ids
        self.size[rows] = size
        self.volume[rows] = volume
        self.alive[rows] = True
        self.n += k
        self.live += k

    def kill(self, rows: np.ndarray) -> None:
        self.alive[rows] = False
        self.size[rows] = -np.inf
        self.live -= len(rows)

    def _grow(self, need: int) -> None:
        extra = max(need, 2 * len(self.size)) - self.n
        for name in self.COLUMNS:
            setattr(self, name, np.pad(getattr(self, name)[: self.n], (0, extra)))

    def compact(self) -> None:
        keep = np.flatnonzero(self.alive[: self.n])
        for name in self.COLUMNS:
            column = getattr(self, name)
            column[: self.live] = column[keep]
        self.alive[self.live : self.n] = False
        self.n = self.live

    def rows_with(self, kind: str, ids: np.ndarray, flag: np.ndarray) -> np.ndarray:
        """The live rows whose bound of this kind is one of ids.

        ``flag`` is an all-False array indexed by bound id, left all-False.
        """
        flag[ids] = True
        rows = np.flatnonzero(flag[self.ids(kind)])
        flag[ids] = False
        return rows[self.alive[rows]]

    def unpaired(self, kind: str, ids: np.ndarray, flag: np.ndarray) -> np.ndarray:
        """Those of ids that no live row holds as its bound of this kind, repeats kept."""
        flag[ids] = True
        flag[self.ids(kind)[self.alive[: self.n]]] = False
        out = ids[flag[ids]]
        flag[ids] = False
        return out

    def opposing(self, kind: str) -> dict[int, set[int]]:
        """The live partners of each bound of this kind, built from the rows."""
        other = UPPER if kind == LOWER else LOWER
        live = self.alive[: self.n]
        out = defaultdict(set)
        for bid, pid in zip(self.ids(kind)[live].tolist(), self.ids(other)[live].tolist()):
            out[bid].add(pid)
        return dict(out)


#: Most candidate pairs one split folds at a time, to bound its temporaries.
PAIR_BLOCK = 1 << 20


class SearchRegion(RegionBase):
    """The sets L and U with a column table of their indexed pairs."""

    def __init__(self, start_box: Box, epsilon: float, mode: SizeMode = SizeMode.ABSOLUTE):
        super().__init__(start_box, epsilon, mode)
        self._pairs = _PairTable()
        # Scratch marks indexed by bound id, all False between uses.
        self._flag = np.zeros(256, dtype=bool)
        # Largest size of a pair dropped at or below epsilon or evicted.
        self._settled = 0.0
        lower, upper = (self._stores[kind].coords[:, :1] for kind in (LOWER, UPPER))
        self._push_pairs(lower, upper, np.array([0]), np.array([1]))
        if not self._pairs.live:  # a start box at most epsilon leaves no partners
            for store in self._stores.values():
                store.kill(np.array([0]))

    @property
    def _heap(self) -> np.ndarray:
        """The pair table's rows, tombstones included (perfbench's heap entries)."""
        return self._pairs.l_id[: self._pairs.n]

    @property
    def opp_upper(self) -> dict[int, set[int]]:
        """The partners of each stored lower bound; built on access, O(P)."""
        return self._pairs.opposing(LOWER)

    @property
    def opp_lower(self) -> dict[int, set[int]]:
        """The partners of each stored upper bound; built on access, O(P)."""
        return self._pairs.opposing(UPPER)

    def _push_pairs(self, lower, upper, l_ids, u_ids) -> np.ndarray:
        """Index the candidate pairs whose box exceeds epsilon.

        ``lower`` and ``upper`` are (m, P) corner columns of P candidate pairs,
        ``l_ids`` and ``u_ids`` their id arrays.  Size and volume are folded
        one column at a time in the order ``box_measures`` uses, so they
        match it bit for bit.  Returns the indices of the pairs kept; the
        largest size dropped goes into the running maximum.
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
        self._pairs.append(l_ids[keep], u_ids[keep], size[keep], volume[keep])
        return keep

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
        parent_ids = store.ids[rows]  # ascending, as rows are
        store.kill(rows)
        ids = self._new_ids(len(pa))  # every child takes an id, stored or not
        if len(self._flag) < self._next_id:
            self._flag = np.zeros(2 * self._next_id, dtype=bool)

        # The parents' pairs: each names a partner, which pairs with every
        # child of that parent.
        other_kind = UPPER if kind == LOWER else LOWER
        other = self._stores[other_kind]
        table = self._pairs
        hits = table.rows_with(kind, parent_ids, self._flag)
        hit_parent = np.searchsorted(parent_ids, table.ids(kind)[hits])
        partner_ids = table.ids(other_kind)[hits]
        table.kill(hits)
        partner_cols = other.coords.take(other.rows_of(partner_ids), axis=1)

        n_children = np.bincount(pa, minlength=len(rows))
        first_child = (np.cumsum(n_children) - n_children)[hit_parent]
        hit_children = n_children[hit_parent]
        # A parent has at most m children, so a block of hits makes at most
        # PAIR_BLOCK candidate pairs.
        block = max(1, PAIR_BLOCK // self.m)
        paired = np.zeros(len(pa), dtype=bool)
        for start in range(0, len(hits), block):
            hit, rank = np.nonzero(np.arange(self.m) < hit_children[start : start + block, None])
            hit += start
            child = first_child[hit] + rank
            mine, theirs = child_cols.take(child, axis=1), partner_cols.take(hit, axis=1)
            my_ids, their_ids = ids.start + child, partner_ids[hit]
            if kind == LOWER:
                keep = self._push_pairs(mine, theirs, my_ids, their_ids)
            else:
                keep = self._push_pairs(theirs, mine, their_ids, my_ids)
            paired[child[keep]] = True
        # A child is stored iff it kept a pair.
        keep = np.flatnonzero(paired)
        store.append(ids.start + keep, child_cols[:, keep], child_defining[keep])
        # Only now, with the children's pairs in place, is a partner known to
        # be left without any; it can never gain one again.
        if len(partner_ids):
            widowed = table.unpaired(other_kind, partner_ids, self._flag)
            if len(widowed):
                other.kill(other.rows_of(np.unique(widowed)))

    def evict_pair(self, l_id: int, u_id: int) -> None:
        """Record the pair as :meth:`RegionBase.evict_pair` does; it stays indexed.

        Its row stays live but leaves selection, and its size counts towards
        :meth:`max_box_size_bound`.
        """
        super().evict_pair(l_id, u_id)
        table = self._pairs
        row = np.flatnonzero((table.ids(LOWER) == l_id) & (table.ids(UPPER) == u_id)
                             & table.alive[: table.n])
        if len(row):
            table.size[row] = -np.inf
            lower = self._stores[LOWER].coords_of(l_id)
            upper = self._stores[UPPER].coords_of(u_id)
            self._settled = max(self._settled, box_measures(lower, upper, self.scale)[0])

    def largest_box(self):
        """The largest remaining box, or None once every box is at most epsilon.

        Returns (Box, l_id, u_id).  Boxes are ordered by size, then volume,
        then descending lower and upper corners, then ascending ids, as
        ``geometry.selection_key`` orders them.  Dead rows are dropped first
        once they outnumber the live ones.
        """
        table = self._pairs
        if table.n - table.live > table.live:
            table.compact()
        size = table.size[: table.n]
        best = size.max(initial=-np.inf)
        if best == -np.inf:
            return None
        ties = np.flatnonzero(size == best)
        if len(ties) > 1:
            volume = table.volume[ties]
            ties = ties[volume == volume.max()]
        row = ties[0] if len(ties) == 1 else self._first_by_corners(ties)
        l_id, u_id = int(table.l_id[row]), int(table.u_id[row])
        lower = self._stores[LOWER].coords_of(l_id)
        upper = self._stores[UPPER].coords_of(u_id)
        return Box(lower, upper, self.start_scale), l_id, u_id

    def _first_by_corners(self, rows: np.ndarray):
        """The row with the largest corners (lower, then upper), then the smallest ids."""
        table, lower, upper = self._pairs, self._stores[LOWER], self._stores[UPPER]
        l_ids, u_ids = table.l_id[rows], table.u_id[rows]
        corners = np.concatenate([lower.coords.take(lower.rows_of(l_ids), axis=1),
                                  upper.coords.take(upper.rows_of(u_ids), axis=1)])
        # np.lexsort sorts by its last key first.
        return rows[np.lexsort((u_ids, l_ids, *(-corners[::-1])))[0]]

    def max_box_size_bound(self) -> float:
        """An upper bound on the size of every box left in L x U.

        The larger of the running maximum over the pairs the region stopped
        refining and the largest selectable pair.  Lower-bound children lie
        above their parents and upper-bound children below, and a pair forms
        only between a child and its parent's partners, so every box in L x U
        lies inside a dropped, evicted or live pair's box; edge lengths are
        monotone under rounding, so the bound is at least the exact scan,
        ``reference.max_box_size_full_scan``.
        """
        largest = self._pairs.size[: self._pairs.n].max(initial=-np.inf)
        return max(self._settled, float(largest))
