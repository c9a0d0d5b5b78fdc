"""Trajectory archiving across parallel disks with double-buffered pages.

Records aging out of the store land here. Each object is pinned to one disk
by a hash of its id and the clustering cell of its first archived location,
so one object's whole history is read from a single disk. Per disk there are
two page buffers (ping-pong): one fills while the other flushes. A filled
page swaps with its sibling and is written out; if the sibling's flush has
not finished yet, the append is counted as blocked and the swap waits (in
simulated time) for the flush to complete.

Disk timing is simulated: flush duration follows
    T_d = t_rot + t_seek + bytes / r_disk
charged against a per-disk clock driven by record timestamps; the page bytes
themselves are written synchronously to a real per-disk file. Flushed pages
carry a header with their timestamp range so history queries can skip pages
that cannot match; records still in a filling page are read from memory.

The optimizer picks the disk count n_d maximizing min(U_d, R_d) subject to
pages filling no faster than they flush (min T_m >= max T_d), where
    U_d = s_B / (n_d * r_disk * (t_rot + t_seek))      (transfer/overhead)
    R_d = k * n_d / n_o                                 (retrieval parallelism)
    T_m = s_B / (update_rate * s_rec)                   (partition fill time)
"""

from __future__ import annotations

import math
import os
import struct
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import spatial
from .schooling import LocationRecord
from .spatial import LevelConfig

PAGE_MAGIC = b"MOPG"
_PAGE_HEADER = struct.Struct("<4sIQQII")  # magic, count, min_ts, max_ts, disk, seq
_RECORD = struct.Struct("<QQdddd")  # id, timestamp us, x, y, vx, vy
RECORD_SIZE = _RECORD.size


class ArchiveError(Exception):
    pass


class InfeasibleError(ArchiveError):
    """No disk count satisfies the fill-versus-flush constraint."""


@dataclass(frozen=True)
class DiskModelParams:
    t_rot: float = 0.005
    t_seek: float = 0.005
    r_disk: float = 1e8  # bytes/second
    s_rec: int = RECORD_SIZE  # bytes per archived record
    n_o: int = 1_000_000  # object population
    k: float = 10_000.0  # records wanted per history query
    update_rate: float = 10_000.0  # records/second arriving at the archive
    s_B: float = 0.0  # bytes per whole buffer; 0 means n_o * s_rec

    def __post_init__(self) -> None:
        if min(self.t_rot, self.t_seek) < 0 or self.r_disk <= 0:
            raise ValueError("disk timing parameters must be non-negative, rate positive")
        if self.s_rec <= 0 or self.n_o <= 0 or self.k <= 0 or self.update_rate <= 0:
            raise ValueError("s_rec, n_o, k, update_rate must be positive")
        if self.s_B == 0.0:
            object.__setattr__(self, "s_B", float(self.n_o * self.s_rec))
        if self.s_B <= 0:
            raise ValueError("s_B must be positive")

    @property
    def overhead(self) -> float:
        return self.t_rot + self.t_seek


@dataclass(frozen=True)
class OptimizeResult:
    n_d: int
    u_d: float
    r_d: float
    t_d: float
    t_m: float
    constrained: bool  # True when the fill constraint moved n_d off the peak


def utilization(params: DiskModelParams, n_d: int) -> float:
    return params.s_B / (n_d * params.r_disk * params.overhead)


def retrieval_ratio(params: DiskModelParams, n_d: int) -> float:
    return params.k * n_d / params.n_o


def flush_duration(params: DiskModelParams, n_d: int, nbytes: float | None = None) -> float:
    if nbytes is None:
        nbytes = params.s_B / n_d
    return params.overhead + nbytes / params.r_disk


def fill_time(params: DiskModelParams) -> float:
    # one partition holds s_B/n_d bytes and receives 1/n_d of the stream
    return params.s_B / (params.update_rate * params.s_rec)


def optimize(params: DiskModelParams, n_d_max: int = 4096) -> OptimizeResult:
    """Disk count maximizing min(U_d, R_d) with pages filling slower than flushes.

    U_d falls and R_d grows with n_d, so the unconstrained optimum sits at
    their crossing; integer neighbors of the crossing are compared directly.
    The constraint min T_m >= max T_d only ever forces n_d upward (flushes
    shrink with more disks); if even n_d_max cannot satisfy it, raises
    InfeasibleError naming the binding constraint.
    """
    if n_d_max < 1:
        raise ValueError("n_d_max must be at least 1")
    t_m = fill_time(params)

    def feasible(n: int) -> bool:
        return t_m >= flush_duration(params, n)

    def objective(n: int) -> float:
        return min(utilization(params, n), retrieval_ratio(params, n))

    star = math.sqrt(params.s_B * params.n_o / (params.r_disk * params.overhead * params.k))
    cands = {min(max(int(math.floor(star)), 1), n_d_max), min(max(int(math.ceil(star)), 1), n_d_max)}
    peak = min(cands, key=lambda n: (-objective(n), n))
    if feasible(peak):
        chosen, constrained = peak, False
    else:
        if not feasible(n_d_max):
            raise InfeasibleError(
                "min T_m >= max T_d unsatisfiable: T_m=%g but T_d(%d)=%g"
                % (t_m, n_d_max, flush_duration(params, n_d_max))
            )
        lo, hi = peak, n_d_max  # T_d decreases in n_d, so feasibility is monotone
        while lo < hi:
            mid = (lo + hi) // 2
            if feasible(mid):
                hi = mid
            else:
                lo = mid + 1
        chosen, constrained = lo, True
    return OptimizeResult(
        n_d=chosen,
        u_d=utilization(params, chosen),
        r_d=retrieval_ratio(params, chosen),
        t_d=flush_duration(params, chosen),
        t_m=t_m,
        constrained=constrained,
    )


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def placement_hash(oid: int, cell_value: int) -> int:
    """64-bit mix of object id and its initial clustering cell."""
    return _splitmix64(_splitmix64(oid & 0xFFFFFFFFFFFFFFFF) ^ (cell_value & 0xFFFFFFFFFFFFFFFF))


@dataclass(frozen=True)
class AffiliationEvent:
    oid: int
    t: float
    became_leader: bool
    leader_id: int = 0
    disp: tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class ArchivedRecord:
    oid: int
    t: float
    x: float
    y: float
    vx: float
    vy: float
    reconstructed: bool = False


@dataclass
class _Page:
    records: list[tuple[int, int, float, float, float, float]] = field(default_factory=list)
    flush_end: float = -math.inf  # sim time the last flush of this slot finished


@dataclass
class _PageMeta:
    offset: int
    count: int
    min_ts: int
    max_ts: int


class _Disk:
    def __init__(self, idx: int, path: str):
        self.idx = idx
        self.path = path
        self.pages = [_Page(), _Page()]
        self.filling = 0
        self.busy_until = -math.inf
        self.seq = 0
        self.meta: list[_PageMeta] = []
        self.transfer_time = 0.0
        self.overhead_time = 0.0
        self.flushes = 0
        self.records = 0
        self._f = None

    def file(self):
        if self._f is None:
            self._f = open(self.path, "a+b")
        return self._f

    def close(self) -> None:
        if self._f is not None:
            self._f.close()
            self._f = None


class Archiver:
    """Double-buffered, placement-hashed, simulated-parallel-disk archive."""

    def __init__(
        self,
        params: DiskModelParams,
        n_d: int,
        directory: str,
        levels: LevelConfig | None = None,
    ):
        if n_d < 1:
            raise ValueError("need at least one disk")
        self.params = params
        self.n_d = n_d
        self.levels = levels
        self.page_records = max(1, int(params.s_B / n_d / params.s_rec))
        os.makedirs(directory, exist_ok=True)
        self.disks = [_Disk(i, os.path.join(directory, "disk%04d.pages" % i)) for i in range(n_d)]
        self._placement: dict[int, int] = {}
        self._events: dict[int, list[AffiliationEvent]] = {}
        self._lock = threading.RLock()
        self._now = -math.inf  # archive clock: max record timestamp seen
        self.appended = 0
        self.blocked_appends = 0
        self.pages_scanned = 0
        self.pages_skipped = 0

    # -------------------------------------------------------------- placement

    def placement(self, oid: int, initial_loc: tuple[float, float]) -> int:
        """Disk index for an object, fixed at first contact."""
        d = self._placement.get(oid)
        if d is None:
            if self.levels is not None:
                cell = spatial.encode(initial_loc, self.levels.cluster_level, self.levels).value
            else:
                cell = 0
            d = placement_hash(oid, cell) % self.n_d
            self._placement[oid] = d
        return d

    # ----------------------------------------------------------------- append

    def append(self, oid: int, rec: LocationRecord) -> None:
        """Add one record to the owning disk's filling page."""
        with self._lock:
            disk = self.disks[self.placement(oid, (rec.x, rec.y))]
            ts = int(round(rec.t * 1e6))
            if rec.t > self._now:
                self._now = rec.t
            page = disk.pages[disk.filling]
            page.records.append((oid, ts, rec.x, rec.y, rec.vx, rec.vy))
            self.appended += 1
            disk.records += 1
            if len(page.records) >= self.page_records:
                self._rotate(disk, self._now)

    def _rotate(self, disk: _Disk, now: float) -> None:
        sibling = disk.pages[1 - disk.filling]
        if sibling.flush_end > now:
            # page filled before its sibling finished flushing
            self.blocked_appends += 1
            now = sibling.flush_end
        full = disk.pages[disk.filling]
        disk.filling = 1 - disk.filling
        self._flush_page(disk, full, now)

    def _flush_page(self, disk: _Disk, page: _Page, now: float) -> float:
        """Write the page out and charge its simulated duration; returns T_d."""
        recs = sorted(page.records)  # (id, timestamp) order
        nbytes = len(recs) * self.params.s_rec
        duration = self.params.overhead + nbytes / self.params.r_disk
        start = max(now, disk.busy_until)
        page.flush_end = start + duration
        disk.busy_until = page.flush_end
        disk.transfer_time += nbytes / self.params.r_disk
        disk.overhead_time += self.params.overhead
        disk.flushes += 1
        f = disk.file()
        f.seek(0, os.SEEK_END)
        offset = f.tell()
        if recs:
            min_ts = min(r[1] for r in recs)
            max_ts = max(r[1] for r in recs)
        else:
            min_ts = max_ts = 0
        f.write(_PAGE_HEADER.pack(PAGE_MAGIC, len(recs), min_ts, max_ts, disk.idx, disk.seq))
        for r in recs:
            f.write(_RECORD.pack(*r))
        f.flush()
        disk.meta.append(_PageMeta(offset, len(recs), min_ts, max_ts))
        disk.seq += 1
        page.records = []
        return duration

    def flush(self, disk_idx: int) -> float:
        """Flush the filling page of one disk immediately (drain helper)."""
        with self._lock:
            disk = self.disks[disk_idx]
            page = disk.pages[disk.filling]
            now = self._now if self._now > -math.inf else 0.0
            return self._flush_page(disk, page, now)

    def drain(self) -> int:
        """Flush every non-empty filling page; returns pages written."""
        with self._lock:
            n = 0
            for disk in self.disks:
                if disk.pages[disk.filling].records:
                    self.flush(disk.idx)
                    n += 1
            return n

    # ----------------------------------------------------------------- events

    def record_leader(self, oid: int, t: float) -> None:
        with self._lock:
            self._events.setdefault(oid, []).append(AffiliationEvent(oid, t, True))

    def record_follower(self, oid: int, leader_id: int, disp: tuple[float, float], t: float) -> None:
        with self._lock:
            self._events.setdefault(oid, []).append(
                AffiliationEvent(oid, t, False, leader_id, disp)
            )

    def events_of(self, oid: int) -> list[AffiliationEvent]:
        with self._lock:
            return list(self._events.get(oid, ()))

    # ---------------------------------------------------------------- queries

    def _read_page(self, disk: _Disk, meta: _PageMeta) -> Iterator[tuple]:
        f = disk.file()
        f.seek(meta.offset + _PAGE_HEADER.size)
        return _RECORD.iter_unpack(f.read(meta.count * RECORD_SIZE))

    def _scan(self, disk: _Disk, t0: float, t1: float) -> Iterator[tuple]:
        """Raw records of one disk stamped in [t0, t1]: those of each flushed
        page whose header range can match, then those still in the filling page."""
        lo = int(round(t0 * 1e6))
        hi = int(round(t1 * 1e6))
        for meta in disk.meta:
            if meta.count == 0 or meta.max_ts < lo or meta.min_ts > hi:
                self.pages_skipped += 1
                continue
            self.pages_scanned += 1
            for r in self._read_page(disk, meta):
                if lo <= r[1] <= hi:
                    yield r
        for r in disk.pages[disk.filling].records:
            if lo <= r[1] <= hi:
                yield r

    def _raw_records(self, oid: int, t0: float, t1: float) -> list[ArchivedRecord]:
        d = self._placement.get(oid)
        if d is None:
            return []
        out = [
            ArchivedRecord(r[0], r[1] / 1e6, r[2], r[3], r[4], r[5])
            for r in self._scan(self.disks[d], t0, t1)
            if r[0] == oid
        ]
        out.sort(key=lambda r: r.t)
        return out

    def _follower_intervals(self, oid: int) -> list[tuple[float, float, int, tuple[float, float]]]:
        """(since, until, leader, disp) spans where the object was a follower."""
        evs = self.events_of(oid)
        out = []
        for i, ev in enumerate(evs):
            if ev.became_leader:
                continue
            until = evs[i + 1].t if i + 1 < len(evs) else math.inf
            out.append((ev.t, until, ev.leader_id, ev.disp))
        return out

    def _reconstructed(
        self, oid: int, t0: float, t1: float, leader_records: Callable[[int, float, float], list[ArchivedRecord]]
    ) -> list[ArchivedRecord]:
        """The object's follower spans in [t0, t1], rebuilt from what
        leader_records(leader, lo, hi) returns of each leader's history."""
        out = []
        for since, until, leader, (dx, dy) in self._follower_intervals(oid):
            lo = max(t0, since)
            hi = min(t1, until)
            if lo > hi:
                continue
            for r in leader_records(leader, lo, hi):
                # the span is open at both ends: records at the boundary
                # belong to the object's own raw history
                if since < r.t < until:
                    out.append(
                        ArchivedRecord(oid, r.t, r.x + dx, r.y + dy, r.vx, r.vy, reconstructed=True)
                    )
        return out

    def query_history_by_object(self, oid: int, t0: float, t1: float) -> list[ArchivedRecord]:
        """All archived records of one object in [t0, t1], including the
        follower spans reconstructed from its leaders' trajectories."""
        with self._lock:
            raw = self._raw_records(oid, t0, t1)
            recon = self._reconstructed(oid, t0, t1, self._raw_records)
            have = {(r.oid, r.t) for r in raw}
            out = raw + [r for r in recon if (r.oid, r.t) not in have]
            out.sort(key=lambda r: (r.t, r.oid))
            return out

    def query_history_by_region(
        self, cell: spatial.SpatialIndex, t0: float, t1: float
    ) -> list[ArchivedRecord]:
        """All archived records falling inside a cell during [t0, t1].

        Scans every disk once, filling pages included, skipping flushed
        pages whose header timestamp range cannot intersect the query. The
        records read serve both the raw answer and the follower spans, which
        are reconstructed from them and filtered the same way.
        """
        with self._lock:
            if self.levels is None:
                raise ArchiveError("region queries need a LevelConfig")
            box = spatial.decode(cell, self.levels)
            out = []
            by_oid: dict[int, list[tuple[int, ArchivedRecord]]] = {}  # (timestamp us, record)
            for disk in self.disks:
                for r in self._scan(disk, t0, t1):
                    rec = ArchivedRecord(r[0], r[1] / 1e6, r[2], r[3], r[4], r[5])
                    by_oid.setdefault(r[0], []).append((r[1], rec))
                    if box.contains((r[2], r[3]), self.levels.map_size):
                        out.append(rec)
            for recs in by_oid.values():
                recs.sort(key=lambda tr: tr[0])

            def leader_records(leader: int, lo: float, hi: float) -> list[ArchivedRecord]:
                # the window test of _scan, on the records it already yielded
                lo_us = int(round(lo * 1e6))
                hi_us = int(round(hi * 1e6))
                return [rec for ts, rec in by_oid.get(leader, ()) if lo_us <= ts <= hi_us]

            for oid in list(self._events):
                for rec in self._reconstructed(oid, t0, t1, leader_records):
                    if box.contains((rec.x, rec.y), self.levels.map_size):
                        out.append(rec)
            out.sort(key=lambda r: (r.t, r.oid))
            return out

    # ------------------------------------------------------------ monitoring

    def measured_utilization(self) -> float:
        """Transfer-to-overhead time ratio accumulated by the disk clocks."""
        transfer = sum(d.transfer_time for d in self.disks)
        overhead = sum(d.overhead_time for d in self.disks)
        if overhead == 0:
            return 0.0
        return transfer / overhead

    def disk_record_counts(self) -> list[int]:
        return [d.records for d in self.disks]

    def flush_count(self) -> int:
        return sum(d.flushes for d in self.disks)

    def close(self) -> None:
        for d in self.disks:
            d.close()
