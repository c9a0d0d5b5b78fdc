"""Oracles the benchmark checks shoal's outputs against.

Each one is computed apart from the program: from the trace and the
outcomes the benchmark logged, from the archive's page files read with this
module's own reader, or from grid arithmetic done here.
"""

from __future__ import annotations

import bisect
import math
import os
import struct
from collections import Counter, defaultdict

# Archive page layout, as documented in shoal.archive: a header
# (magic "MOPG", record count u32, min and max timestamp u64, disk u32,
# sequence u32) followed by `count` records of (id u64, timestamp in
# microseconds u64, x, y, vx, vy as f64), all little-endian.
PAGE_HEADER = struct.Struct("<4sIQQII")
PAGE_RECORD = struct.Struct("<QQdddd")


class CheckFailed(Exception):
    pass


def read_pages(pages_dir: str) -> list[tuple[int, tuple]]:
    """Every archived record as (disk, record), from the page files alone."""
    out = []
    for name in sorted(os.listdir(pages_dir)):
        with open(os.path.join(pages_dir, name), "rb") as f:
            buf = f.read()
        pos = 0
        while pos < len(buf):
            magic, count, min_ts, max_ts, disk, _seq = PAGE_HEADER.unpack_from(buf, pos)
            if magic != b"MOPG":
                raise CheckFailed("%s: bad page magic at offset %d" % (name, pos))
            pos += PAGE_HEADER.size
            for _ in range(count):
                rec = PAGE_RECORD.unpack_from(buf, pos)
                pos += PAGE_RECORD.size
                if not min_ts <= rec[1] <= max_ts:
                    raise CheckFailed("%s: record time outside its page header range" % name)
                out.append((disk, rec))
    return out


def check_lossless(pages_dir: str, reports: list[tuple]) -> None:
    """Each non-shed report is archived exactly once, bit-exact, one disk per object."""
    archived = read_pages(pages_dir)
    disks: dict[int, set[int]] = defaultdict(set)
    for disk, rec in archived:
        disks[rec[0]].add(disk)
    split = [oid for oid, ds in disks.items() if len(ds) > 1]
    if split:
        raise CheckFailed("objects archived on several disks: %s" % sorted(split)[:5])
    got = Counter(_bits(rec) for _, rec in archived)
    want = Counter(_bits(rec) for rec in reports)
    if got != want:
        missing = sum((want - got).values())
        extra = sum((got - want).values())
        raise CheckFailed("archive holds %d unexpected and misses %d reports" % (extra, missing))


def _bits(rec: tuple) -> bytes:
    return PAGE_RECORD.pack(*rec)


def brute_knn(locations: list[tuple[int, tuple[float, float]]], x: float, y: float, k: int) -> list[int]:
    """Ids of the k objects nearest (x, y), ordered by (distance, id)."""
    scored = []
    for oid, (ox, oy) in locations:
        dx = ox - x
        dy = oy - y
        scored.append((dx * dx + dy * dy, oid))
    scored.sort()
    return [oid for _, oid in scored[:k]]


class ReportIndex:
    """The non-shed reports of a replay, indexed for window lookups."""

    def __init__(self, reports: list[tuple]):
        self.reports = reports
        self.by_object: dict[int, list[tuple]] = defaultdict(list)
        for rec in reports:
            self.by_object[rec[0]].append(rec)
        for recs in self.by_object.values():
            recs.sort(key=lambda r: r[1])
        self._ts = {oid: [r[1] for r in recs] for oid, recs in self.by_object.items()}
        self.raw_times = {(r[0], r[1]) for r in reports}

    def object_window(self, oid: int, lo_us: int, hi_us: int) -> list[tuple]:
        ts = self._ts.get(oid, [])
        return self.by_object[oid][bisect.bisect_left(ts, lo_us) : bisect.bisect_right(ts, hi_us)]

    def region_window(self, box: tuple, map_size: float, lo_us: int, hi_us: int) -> list[tuple]:
        return [r for r in self.reports if lo_us <= r[1] <= hi_us and in_box(box, map_size, r[2], r[3])]


def cell_box(gx: int, gy: int, level: int, map_size: float) -> tuple[float, float, float, float]:
    side = map_size / (1 << level)
    return (gx * side, gy * side, (gx + 1) * side, (gy + 1) * side)


def in_box(box: tuple, map_size: float, x: float, y: float) -> bool:
    """Cells are half-open on their upper edges, closed where they meet the map edge."""
    x0, y0, x1, y1 = box
    x_ok = x0 <= x and (x < x1 or (x1 >= map_size and x <= x1))
    y_ok = y0 <= y and (y < y1 or (y1 >= map_size and y <= y1))
    return x_ok and y_ok


def check_history(
    got: list,
    want_raw: list[tuple],
    lo_us: int,
    hi_us: int,
    raw_times: set[tuple[int, int]],
    oid: int | None = None,
    inside=None,
) -> None:
    """Raw records equal the reports in the window; reconstructed ones stay in
    the window (and the cell) and never repeat a raw record's timestamp. An
    object query (oid given) returns that object's records only."""
    if oid is not None and any(r.oid != oid for r in got):
        raise CheckFailed("history of object %d returned another object's records" % oid)
    raw = sorted((r.oid, _us(r.t), r.x, r.y, r.vx, r.vy) for r in got if not r.reconstructed)
    if raw != sorted(want_raw):
        raise CheckFailed("history returned %d raw records, reports in window: %d" % (len(raw), len(want_raw)))
    for r in got:
        if not r.reconstructed:
            continue
        ts = _us(r.t)
        if not lo_us <= ts <= hi_us:
            raise CheckFailed("reconstructed record of %d at t=%r outside the window" % (r.oid, r.t))
        if (r.oid, ts) in raw_times:
            raise CheckFailed("reconstructed record of %d repeats a raw timestamp %r" % (r.oid, r.t))
        if inside is not None and not inside(r.x, r.y):
            raise CheckFailed("reconstructed record of %d outside the queried cell" % r.oid)


def _us(t: float) -> int:
    return int(round(t * 1e6))


def check_shed(kind_shed: bool, est: tuple[float, float], x: float, y: float, epsilon: float) -> None:
    if kind_shed:
        if math.hypot(est[0] - x, est[1] - y) > epsilon:
            raise CheckFailed("shed update modeled %r away from its report" % math.hypot(est[0] - x, est[1] - y))
    elif est != (x, y):
        raise CheckFailed("written update modeled at %r, reported at %r" % (est, (x, y)))
