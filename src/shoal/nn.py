"""Nearest-neighbor search over the spatial index.

knn is one best-first search (Hjaltason & Samet, TODS 1999) over a single
priority queue. Each entry is keyed by a lower bound on the squared distance
from the query to any object it stands for at q.t:
  cell    a quadtree cell, level 0 down to the search level l_n: the box
          distance less the tracker's bounds for the cell (largest school
          reach plus largest speed times the widest record-to-q.t gap).
          Above l_n it expands into its children that hold leaders; at l_n
          into one scan of its leader rows.
  leader  a leader row: its recorded position less the cell's top speed
          times the gap from the row's record time to q.t, and less its
          school's reach. Popping it reads the leader's record.
  school  the leader's model at q.t widened by the school's displacement
          box. Popping it reads the followers.
  member  an object at its modeled position: the exact squared distance,
          computed as the brute-force oracle computes it.
The search ends when k members have left the queue. At equal keys cells,
leaders and schools leave before members, so ties go to the smaller id.
Bounds that rounding could push up carry a small relative margin.
nearest_leaders runs the same search with leader rows as the members, at
their recorded positions.

best_level picks the search cell level from local leader density: starting
from the global-density guess, it probes the cell at the current level with
one scan and moves by the truncated half-log of the local over-target ratio,
tightening a (min, max) window until the step converges or crosses a bound.
cached_level memoizes the result keyed by key-level row-key intervals with a
freshness TTL, so repeat queries in a neighborhood skip the probes entirely.
"""

from __future__ import annotations

import heapq
import math
import struct
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable

from . import spatial
from .schooling import Tracker
from .spatial import SpatialIndex

_POS = struct.Struct("<dd")
_POS_SIZE = _POS.size

# Queue entry kinds, in the order entries with equal keys leave the queue:
# whatever may still hold a member at that distance goes before the members.
_CELL, _LEADER, _SCHOOL, _MEMBER = range(4)
# Relative margin off bounds whose float evaluation can round upward (hypot,
# drift, a position an ulp outside its cell): errors some 1e-16 in size.
_SLACK = 1e-9


class SearchError(Exception):
    pass


@dataclass(frozen=True)
class FlagConfig:
    sigma: float = 32.0
    l_min: int = 1
    l_max: int = 8
    delta_max: int = 4
    cache_ttl: float = 60.0
    cache_max: int = 4096

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.l_min > self.l_max:
            raise ValueError("l_min must not exceed l_max")
        if self.delta_max < 1:
            raise ValueError("delta_max must be at least 1")
        if self.cache_ttl <= 0:
            raise ValueError("cache_ttl must be positive")


@dataclass(frozen=True)
class NNQuery:
    x: float
    y: float
    t: float
    k: int


@dataclass
class QueryStats:
    rows_scanned: int = 0
    scans: int = 0
    flag_probes: int = 0
    cache_hit: bool = False


@dataclass(frozen=True)
class Neighbor:
    oid: int
    x: float
    y: float
    dist: float


@dataclass
class _CacheRecord:
    left: bytes
    right: bytes
    level: int
    created: float


class Searcher:
    """Query side: exact kNN and adaptive level selection over a tracker."""

    def __init__(
        self,
        tracker: Tracker,
        flag: FlagConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.tracker = tracker
        self.levels = tracker.levels
        cfg = flag or FlagConfig()
        if cfg.l_max > self.levels.key_level:
            cfg = replace(cfg, l_min=min(cfg.l_min, self.levels.key_level), l_max=self.levels.key_level)
        self.flag = cfg
        self.clock = clock
        self._cache: list[_CacheRecord] = []
        self._cache_lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0
        self.last_stats = QueryStats()
        self._unpack_pos = _POS.unpack

    # ---------------------------------------------------------------- search

    def nearest_leaders(
        self, loc: tuple[float, float], count: int, l_n: int, stats: QueryStats | None = None
    ) -> list[Neighbor]:
        """Exactly the `count` leaders nearest to loc by recorded position,
        ties to the smaller id, scanning cells at level l_n."""
        return self._search(loc[0], loc[1], None, count, l_n, stats or QueryStats())

    def knn(self, q: NNQuery, l_n: int | None = None, stats: QueryStats | None = None) -> list[Neighbor]:
        """The exact k nearest objects to the query by modeled location at
        q.t, ties to the smaller id. Fills `stats` (a fresh QueryStats if
        none is given) and publishes it as last_stats on return."""
        stats = stats or QueryStats()
        out: list[Neighbor] = []
        if q.k > 0:
            level = l_n if l_n is not None else self.cached_level((q.x, q.y), stats)
            out = self._search(q.x, q.y, q.t, q.k, level, stats)
        self.last_stats = stats
        return out

    def _search(
        self, qx: float, qy: float, qt: float | None, k: int, level: int, stats: QueryStats
    ) -> list[Neighbor]:
        """The search of the module docstring, scanning cells at `level`; with
        qt None, leader rows are members at their recorded positions."""
        cfg = self.levels
        if not 0 <= level <= cfg.key_level:
            raise SearchError("level %d outside [0, %d]" % (level, cfg.key_level))
        tr = self.tracker
        cell_bounds = tr.cell_bounds
        boxes = tr.school_boxes
        scale = cfg.map_size + abs(qx) + abs(qy)
        heap: list[tuple] = []
        push = heapq.heappush

        def push_cell(lv: int, cx: int, cy: int) -> None:
            a = cell_bounds[lv].get((cx << lv) | cy)
            if a is None:  # no leader recorded in the cell
                return
            side = cfg.map_size / (1 << lv)
            ddx = max(cx * side - qx, 0.0, qx - (cx + 1) * side)
            ddy = max(cy * side - qy, 0.0, qy - (cy + 1) * side)
            drift = a[0] * max(qt - a[1], a[2] - qt, 0.0) if qt is not None else 0.0
            reach = a[3] if qt is not None else 0.0
            lb = math.hypot(ddx, ddy) - reach - drift - _SLACK * (scale + reach + drift)
            push(heap, (lb * lb if lb > 0.0 else 0.0, _CELL, lv, cx, cy, a[0] if qt is not None else 0.0))

        push_cell(0, 0, 0)
        seen: set[int] = set()
        out: list[Neighbor] = []
        while heap and len(out) < k:
            entry = heapq.heappop(heap)
            kind = entry[1]
            if kind == _MEMBER:
                out.append(Neighbor(entry[2], entry[3], entry[4], math.sqrt(entry[0])))
            elif kind == _SCHOOL:
                lx, ly = entry[3], entry[4]
                for fid, (fdx, fdy) in tr.followers_of(entry[2]):
                    fx, fy = lx + fdx, ly + fdy
                    dx, dy = fx - qx, fy - qy
                    push(heap, (dx * dx + dy * dy, _MEMBER, fid, fx, fy))
            elif kind == _LEADER:
                oid = entry[2]
                rec = tr.latest_record(oid)
                if rec is None:
                    continue
                dt = qt - rec.t
                lx, ly = rec.x + rec.vx * dt, rec.y + rec.vy * dt
                dx, dy = lx - qx, ly - qy
                push(heap, (dx * dx + dy * dy, _MEMBER, oid, lx, ly))
                box = boxes.get(oid)
                if box is not None:
                    # float rounding is monotone, so this is at most the
                    # squared distance of every member as computed above
                    ddx = max(lx + box[0] - qx, 0.0, qx - (lx + box[2]))
                    ddy = max(ly + box[1] - qy, 0.0, qy - (ly + box[3]))
                    push(heap, (ddx * ddx + ddy * ddy, _SCHOOL, oid, lx, ly))
            else:
                lv, cx, cy, speed = entry[2:]
                if lv < level:
                    for i in range(4):
                        push_cell(lv + 1, 2 * cx + (i >> 1), 2 * cy + (i & 1))
                    continue
                cell = SpatialIndex(lv, spatial.encode_cell(cx, cy, lv))
                rows = tr.spa.scan_range(*spatial.key_range(cell, cfg.key_level))
                stats.scans += 1
                stats.rows_scanned += len(rows)
                for _, cells in rows:
                    for c in cells:
                        if c.family != "ids" or len(c.value) != _POS_SIZE:
                            continue
                        oid = int(c.column)
                        if oid in seen:
                            continue
                        seen.add(oid)
                        ox, oy = self._unpack_pos(c.value)
                        if qt is None:
                            dx, dy = ox - qx, oy - qy
                            push(heap, (dx * dx + dy * dy, _MEMBER, oid, ox, oy))
                            continue
                        # the recorded position, less the drift since the
                        # row's record time at the cell's top speed and the
                        # reach of this school
                        box = boxes.get(oid)
                        spread = speed * abs(qt - c.timestamp / 1e6) + (box[4] if box is not None else 0.0)
                        lb = math.hypot(ox - qx, oy - qy) - spread - _SLACK * (scale + spread)
                        push(heap, (lb * lb if lb > 0.0 else 0.0, _LEADER, oid))
        return out

    # ------------------------------------------------------- level selection

    def _count_in_cell(self, loc: tuple[float, float], level: int, stats: QueryStats | None) -> int:
        cell = spatial.encode(loc, level, self.levels)
        start, end = spatial.key_range(cell, self.levels.key_level)
        rows = self.tracker.spa.scan_range(start, end)
        if stats is not None:
            stats.scans += 1
            stats.rows_scanned += len(rows)
            stats.flag_probes += 1
        m = 0
        for _, cells in rows:
            m += sum(1 for c in cells if c.family == "ids")
        return m

    def best_level(self, loc: tuple[float, float], stats: QueryStats | None = None) -> int:
        """Density-adaptive search level for this location.

        One scan per probe; the step is the truncated half-log of how far the
        cell's population is from sigma. Empty cells step down by delta_max
        at most. Stops when the step is zero, repeats a level, or crosses a
        previously established bound; the result stays within
        [l_min, l_max].
        """
        f = self.flag
        n = self.tracker.leader_count
        if n <= 0:
            return f.l_min
        guess = round(0.5 * math.log2(n / f.sigma))
        l = min(max(int(guess), f.l_min), f.l_max)
        min_b = -math.inf
        max_b = math.inf
        for _ in range(f.l_max - f.l_min + 2):
            m = self._count_in_cell(loc, l, stats)
            if m == 0:
                delta = -f.delta_max
            else:
                delta = int(0.5 * math.log2(m / f.sigma))  # truncated toward zero
            if delta > 0:
                min_b = l
            elif delta < 0:
                max_b = l
            else:
                break
            nxt = min(max(l + delta, f.l_min), f.l_max)
            if nxt <= min_b or nxt >= max_b or nxt == l:
                break
            l = nxt
        return l

    def cached_level(self, loc: tuple[float, float], stats: QueryStats | None = None) -> int:
        """best_level through the key-interval cache.

        A hit (a fresh record whose interval covers the location's key-level
        row key) answers with zero store access. A miss runs best_level and
        inserts a record covering the whole key interval of the chosen cell.
        """
        now = self.clock()
        key = spatial.encode(loc, self.levels.key_level, self.levels).key()
        ttl = self.flag.cache_ttl
        with self._cache_lock:
            best: _CacheRecord | None = None
            for rec in self._cache:
                if now - rec.created < ttl and rec.left <= key <= rec.right:
                    if best is None or rec.created > best.created:
                        best = rec
            if best is not None:
                self.cache_hits += 1
                if stats is not None:
                    stats.cache_hit = True
                return best.level
        level = self.best_level(loc, stats)
        cell = spatial.encode(loc, level, self.levels)
        left, right = spatial.key_interval(cell, self.levels.key_level)
        with self._cache_lock:
            self.cache_misses += 1
            if len(self._cache) >= self.flag.cache_max:
                self._cache = [r for r in self._cache if now - r.created < ttl]
                del self._cache[: max(0, len(self._cache) - self.flag.cache_max + 1)]
            self._cache.append(_CacheRecord(left, right, level, now))
        return level

    def cache_size(self) -> int:
        with self._cache_lock:
            return len(self._cache)
