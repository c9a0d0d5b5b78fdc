"""School tracking: leader/follower affiliation, update shedding, reclustering.

Objects are grouped into schools: one leader plus followers that co-move with
it. A follower is stored as a fixed displacement from its leader, so its
location can be estimated from the leader's latest record without writing
anything. An incoming follower update whose estimated location is within
epsilon of the reported location is shed outright (zero table writes); one
that deviates promotes the object back to a leader. Reclustering periodically
scans one clustering cell, bins its leaders by velocity (hexagonal bins whose
diameter is strictly below delta_m), and merges each bin into the leader with
the most followers.

Tables used:
  location     row = object id, column loc/rec, value = packed (x, y, vx, vy)
  spatial      row = cell key at key_level + "." + id (one row per leader,
               prefix-scannable by cell), column ids/<id>, value = packed (x, y)
  affiliation  row = object id; lf/status holds the leader-or-follower record,
               finfo/<follower id> holds that follower's displacement

Search bounds, in memory and derived from the tables:
  school_boxes  leader id -> [min dx, min dy, max dx, max dy, reach] over the
                follower displacements and the leader's (0, 0), reach being
                the farthest corner; only leaders with followers have one.
  cell_bounds   per level 0..key_level, cell (cx << level | cy) -> [max speed,
                min record t, max record t rounded up to a whole second, max
                reach] over the leaders recorded in the cell or below it.
Leader writes and merges only widen them; reclustering recomputes both for
its clustering cell, shedding what promotions and moves left loose.

Concurrency: updates for distinct ids may run on different threads. All
mutating paths, the bounds included, serialize on one affiliation lock; the
shed path takes no lock.
Reclustering holds one clustering cell exclusively: updates that would write
into that cell wait until the pass ends, updates elsewhere are never blocked.
"""

from __future__ import annotations

import math
import struct
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

from . import spatial
from .spatial import LevelConfig, SpatialIndex
from .store import Store

_LOC = struct.Struct("<dddd")  # x, y, vx, vy
_POS = struct.Struct("<dd")  # x, y
_STATUS = struct.Struct("<BQddd")  # flag, leader id, disp x, disp y, since

_LEADER = 76  # 'L'
_FOLLOWER = 70  # 'F'

LOCATION = "location"
SPATIAL = "spatial"
AFFILIATION = "affiliation"


class SchoolingError(Exception):
    pass


class StaleUpdateError(SchoolingError):
    """Update timestamp is older than the object's last accepted update."""


class AffiliationError(SchoolingError):
    """Affiliation rows contradict each other or are missing."""


class Outcome(Enum):
    LEADER_UPDATED = "leader_updated"
    SHED = "shed"
    PROMOTED = "promoted"


@dataclass(frozen=True)
class UpdateMessage:
    oid: int
    t: float
    x: float
    y: float
    vx: float
    vy: float


@dataclass(frozen=True)
class UpdateOutcome:
    kind: Outcome
    writes: int  # store puts + deletes performed for this update


@dataclass(frozen=True)
class LocationRecord:
    t: float
    x: float
    y: float
    vx: float
    vy: float


@dataclass(frozen=True)
class Affiliation:
    is_leader: bool
    leader_id: int  # self for leaders
    disp: tuple[float, float]  # (0, 0) for leaders
    since: float


@dataclass(frozen=True)
class MergeStats:
    cell: SpatialIndex
    leaders_before: int
    leaders_after: int
    read_time: float
    compute_time: float
    write_time: float


@dataclass(frozen=True)
class SchoolConfig:
    epsilon: float = 16.0
    delta_m: float = 1.0
    cluster_period: float = 5.0  # seconds per full sweep; inf disables

    def __post_init__(self) -> None:
        if self.epsilon <= 0 or self.delta_m <= 0 or self.cluster_period <= 0:
            raise ValueError("epsilon, delta_m, cluster_period must be positive")


class ArchiveSink(Protocol):
    """Where evicted history and affiliation transitions are sent."""

    def append(self, oid: int, rec: LocationRecord) -> None: ...

    def record_leader(self, oid: int, t: float) -> None: ...

    def record_follower(self, oid: int, leader_id: int, disp: tuple[float, float], t: float) -> None: ...


def hexagon_bin(vx: float, vy: float, delta_m: float) -> tuple[int, int]:
    """Axial coordinates of the velocity's hexagonal bin.

    Bins are pointy-top hexagons with circumradius delta_m/2 * (1 - 1e-9), so
    any two velocities in one bin differ by strictly less than delta_m, and
    two velocities at least delta_m apart can never share a bin.
    """
    r_hex = 0.5 * delta_m * (1.0 - 1e-9)
    q = (math.sqrt(3.0) / 3.0 * vx - vy / 3.0) / r_hex
    r = (2.0 / 3.0 * vy) / r_hex
    # cube rounding; the y component is derived, so when it has the largest
    # rounding error the (q, r) pair is already the right bin
    x, z = q, r
    y = -x - z
    rx, ry, rz = round(x), round(y), round(z)
    dx, dy, dz = abs(rx - x), abs(ry - y), abs(rz - z)
    if dx > dy and dx > dz:
        rx = -ry - rz
    elif dy <= dz:
        rz = -rx - ry
    return int(rx), int(rz)


def _box(disps: list[tuple[float, float]]) -> list[float]:
    """The school box (module docstring) over these and the leader's (0, 0)."""
    dxs, dys = zip((0.0, 0.0), *disps)
    x0, y0, x1, y1 = min(dxs), min(dys), max(dxs), max(dys)
    return [x0, y0, x1, y1, math.hypot(max(-x0, x1), max(-y0, y1))]


def pack_location(x: float, y: float, vx: float, vy: float) -> bytes:
    return _LOC.pack(x, y, vx, vy)


def unpack_location(value: bytes, t: float) -> LocationRecord:
    x, y, vx, vy = _LOC.unpack(value)
    return LocationRecord(t, x, y, vx, vy)


def _us(t: float) -> int:
    return int(round(t * 1e6))


def _id_key(oid: int) -> bytes:
    return b"%d" % oid


class Tracker:
    """Runs the update procedure and reclustering over a store."""

    def __init__(
        self,
        store: Store,
        levels: LevelConfig,
        cfg: SchoolConfig,
        archive: ArchiveSink | None = None,
        location_ttls: tuple[float, ...] = (60.0, 120.0, 240.0),
    ):
        self.store = store
        self.levels = levels
        self.cfg = cfg
        self.archive = archive
        self.loc = store.create_table(
            LOCATION, ("loc",), location_ttls, on_final_evict=self._on_location_evict
        )
        self.spa = store.create_table(SPATIAL, ("ids",), (math.inf,))
        self.aff = store.create_table(AFFILIATION, ("lf", "finfo"), (math.inf,))
        self._last_t: dict[int, float] = {}
        self._aff_lock = threading.RLock()
        self._cluster_cond = threading.Condition()
        self._active_cell: int | None = None
        self._inflight: dict[int, int] = {}  # cluster cell value -> writers inside
        # counters
        self.updates = 0
        self.sheds = 0
        self.leader_updates = 0
        self.promotions = 0
        self.registrations = 0
        self.merges = 0
        self.rejected = 0
        self.leader_count = 0
        self.object_count = 0
        # bounds read by the search layer (see the module docstring)
        self.school_boxes: dict[int, list[float]] = {}
        self.cell_bounds: list[dict[int, list[float]]] = [{} for _ in range(levels.key_level + 1)]
        # clustering scheduler state
        self._sweep_pos = 0
        self._sweep_t0: float | None = None
        self._sweep_done = 0

    # ------------------------------------------------------------------ reads

    def affiliation_of(self, oid: int) -> Affiliation | None:
        got = self.aff.latest(_id_key(oid), "lf", "status")
        if got is None:
            return None
        flag, leader_id, dx, dy, since = _STATUS.unpack(got[1])
        if flag == _LEADER:
            return Affiliation(True, oid, (0.0, 0.0), since)
        return Affiliation(False, leader_id, (dx, dy), since)

    def latest_record(self, oid: int) -> LocationRecord | None:
        got = self.loc.latest(_id_key(oid), "loc", "rec")
        if got is None:
            return None
        return unpack_location(got[1], got[0] / 1e6)

    def followers_of(self, oid: int) -> list[tuple[int, tuple[float, float]]]:
        out = []
        for cell in self.aff.get_row(_id_key(oid)):
            if cell.family == "finfo":
                out.append((int(cell.column), _POS.unpack(cell.value)))
        return out

    def estimated_location(self, oid: int, t: float) -> tuple[float, float]:
        """Model the object's position at time t from stored state."""
        a = self.affiliation_of(oid)
        if a is None:
            raise AffiliationError("object %d is unknown" % oid)
        base_id = oid if a.is_leader else a.leader_id
        rec = self.latest_record(base_id)
        if rec is None:
            raise AffiliationError("no location record for leader %d" % base_id)
        dt = t - rec.t
        return (
            rec.x + rec.vx * dt + a.disp[0],
            rec.y + rec.vy * dt + a.disp[1],
        )

    def all_locations(self, t: float) -> list[tuple[int, tuple[float, float]]]:
        """Modeled position of every known object at time t.

        Meant for oracles and benchmarks at quiescent points, not for use
        concurrent with mutation.
        """
        out = []
        for key in self.aff.keys():
            oid = int(key)
            try:
                out.append((oid, self.estimated_location(oid, t)))
            except AffiliationError:
                continue
        return out

    def school_count(self) -> int:
        return self.leader_count

    # ------------------------------------------------- clustering-cell guards

    def _cluster_cell_of(self, x: float, y: float) -> int:
        return spatial.encode((x, y), self.levels.cluster_level, self.levels).value

    def _enter_cells(self, cells: set[int]) -> None:
        with self._cluster_cond:
            while self._active_cell is not None and self._active_cell in cells:
                self._cluster_cond.wait()
            for c in cells:
                self._inflight[c] = self._inflight.get(c, 0) + 1

    def _exit_cells(self, cells: set[int]) -> None:
        with self._cluster_cond:
            for c in cells:
                n = self._inflight.get(c, 0) - 1
                if n <= 0:
                    self._inflight.pop(c, None)
                else:
                    self._inflight[c] = n
            self._cluster_cond.notify_all()

    # ---------------------------------------------------------------- updates

    def _raise_cells(self, oid: int, r: UpdateMessage | LocationRecord, bounds: list | None = None) -> None:
        """Make leader oid's cell and its ancestors in bounds (or cell_bounds) cover
        the record and the school's reach, up to a cell that does: its ancestors do too."""
        box = self.school_boxes.get(oid)
        reach = box[4] if box else 0.0
        speed = math.hypot(r.vx, r.vy)
        t = round(r.t * 1e6) / 1e6  # the record time as the location table returns it
        t_hi = float(math.ceil(t))
        level = self.levels.key_level
        n = 1 << level  # the key-level cell, as spatial.grid_coord finds it
        cx = min(int(r.x * n / self.levels.map_size), n - 1)
        cy = min(int(r.y * n / self.levels.map_size), n - 1)
        for aggs in reversed(bounds or self.cell_bounds):
            key = (cx << level) | cy
            a = aggs.get(key)
            if a is None:
                aggs[key] = [speed, t, t_hi, reach]
            elif speed <= a[0] and a[1] <= t and t_hi <= a[2] and reach <= a[3]:
                return
            else:
                a[0], a[3] = (speed if speed > a[0] else a[0]), (reach if reach > a[3] else a[3])
                a[1], a[2] = (t if t < a[1] else a[1]), (t_hi if t_hi > a[2] else a[2])
            level, cx, cy = level - 1, cx >> 1, cy >> 1

    def _tighten_cells(self, cell: SpatialIndex, leaders: list[tuple[int, LocationRecord]]) -> None:
        """Recompute the bounds inside a clustering cell; its ancestors keep theirs.
        A search meanwhile finds each occupied cell's old or new entry."""
        fresh: list[dict[int, list[float]]] = [{} for _ in self.cell_bounds]
        for oid, rec in leaders:
            self._raise_cells(oid, rec, fresh)
        top = cell.level
        ccx, ccy = spatial.decode_cell(cell.value, top)
        for level, aggs in enumerate(self.cell_bounds[top:], top):
            s, m, new = level - top, (1 << level) - 1, fresh[level]  # cell (cx, cy) lies in (cx >> s, cy >> s)
            for key in [k for k in aggs if k not in new and (k >> (level + s), (k & m) >> s) == (ccx, ccy)]:
                del aggs[key]
            aggs.update(new)

    def _write_leader_status(self, oid: int, since: float) -> None:
        val = _STATUS.pack(_LEADER, oid, 0.0, 0.0, since)
        self.aff.put(_id_key(oid), "lf", "status", val, _us(since))

    def _write_follower_status(self, oid: int, leader_id: int, disp: tuple[float, float], since: float) -> None:
        val = _STATUS.pack(_FOLLOWER, leader_id, disp[0], disp[1], since)
        self.aff.put(_id_key(oid), "lf", "status", val, _us(since))

    def _spatial_put(self, oid: int, x: float, y: float, t: float) -> None:
        # One row per leader: cell key + "." + id. "." sorts below "0", so
        # every leader row of a cell falls inside that cell's key_range and
        # a scan's row count equals the leader count, which is what the
        # level selector's density probe needs to see. The spatial table is
        # a current-state index, not history, so a re-put replaces: without
        # the delete a stationary leader would pile up versions that every
        # scan re-reads.
        cell = spatial.encode((x, y), self.levels.key_level, self.levels)
        row = cell.key() + b"." + str(oid).encode()
        col = str(oid)
        self.spa.delete(row, "ids", col)
        self.spa.put(row, "ids", col, _POS.pack(x, y), _us(t))

    def _spatial_delete(self, oid: int, x: float, y: float) -> None:
        cell = spatial.encode((x, y), self.levels.key_level, self.levels)
        self.spa.delete(cell.key() + b"." + str(oid).encode(), "ids", str(oid))

    def process_update(self, msg: UpdateMessage) -> UpdateOutcome:
        """Apply one location update per the shedding procedure.

        Leaders always write; followers within epsilon of their estimated
        location are shed with zero writes; deviating followers are promoted
        to leaders. Unknown ids register as leaders. A timestamp older than
        the object's last accepted update raises StaleUpdateError.
        """
        last = self._last_t.get(msg.oid)
        if last is not None and msg.t < last:
            self.rejected += 1
            raise StaleUpdateError("update for %d at t=%r precedes t=%r" % (msg.oid, msg.t, last))
        self.updates += 1
        a = self.affiliation_of(msg.oid)
        if a is not None and not a.is_leader:
            # no record: a merge absorbed the leader since the read above; the locked path retests
            rec = self.latest_record(a.leader_id)
            if rec is not None:
                dt = msg.t - rec.t
                ex = rec.x + rec.vx * dt + a.disp[0]
                ey = rec.y + rec.vy * dt + a.disp[1]
                if math.hypot(ex - msg.x, ey - msg.y) <= self.cfg.epsilon:
                    self.sheds += 1
                    self._last_t[msg.oid] = msg.t
                    return UpdateOutcome(Outcome.SHED, 0)
        # a write is needed: reserve the clustering cells we may touch
        cells = {self._cluster_cell_of(msg.x, msg.y)}
        if a is not None and a.is_leader:
            prev = self.latest_record(msg.oid)
            if prev is not None:
                cells.add(self._cluster_cell_of(prev.x, prev.y))
        self._enter_cells(cells)
        try:
            with self._aff_lock:
                a = self.affiliation_of(msg.oid)  # revalidate under the lock
                if a is None:
                    out = self._register_locked(msg)
                elif a.is_leader:
                    out = self._leader_update_locked(msg)
                else:
                    out = self._promote_locked(msg, a)
        finally:
            self._exit_cells(cells)
        self._last_t[msg.oid] = msg.t
        return out

    def _register_locked(self, msg: UpdateMessage) -> UpdateOutcome:
        self._write_leader_status(msg.oid, msg.t)
        self.loc.put(_id_key(msg.oid), "loc", "rec", pack_location(msg.x, msg.y, msg.vx, msg.vy), _us(msg.t))
        self._spatial_put(msg.oid, msg.x, msg.y, msg.t)
        self.leader_count += 1
        self.object_count += 1
        self.registrations += 1
        self._raise_cells(msg.oid, msg)
        if self.archive is not None:
            self.archive.record_leader(msg.oid, msg.t)
        return UpdateOutcome(Outcome.PROMOTED, 3)

    def _leader_update_locked(self, msg: UpdateMessage) -> UpdateOutcome:
        prev = self.latest_record(msg.oid)
        writes = 1
        self.loc.put(_id_key(msg.oid), "loc", "rec", pack_location(msg.x, msg.y, msg.vx, msg.vy), _us(msg.t))
        if prev is not None:
            self._spatial_delete(msg.oid, prev.x, prev.y)
            writes += 1
        self._spatial_put(msg.oid, msg.x, msg.y, msg.t)
        writes += 1
        self.leader_updates += 1
        self._raise_cells(msg.oid, msg)
        return UpdateOutcome(Outcome.LEADER_UPDATED, writes)

    def _promote_locked(self, msg: UpdateMessage, a: Affiliation) -> UpdateOutcome:
        # the affiliation may have been rebased by a merge since the shed
        # test; recompute the decision against current state
        rec = self.latest_record(a.leader_id)
        if rec is not None:
            dt = msg.t - rec.t
            ex = rec.x + rec.vx * dt + a.disp[0]
            ey = rec.y + rec.vy * dt + a.disp[1]
            if math.hypot(ex - msg.x, ey - msg.y) <= self.cfg.epsilon:
                self.sheds += 1
                return UpdateOutcome(Outcome.SHED, 0)
        self.aff.delete(_id_key(a.leader_id), "finfo", str(msg.oid))
        self._write_leader_status(msg.oid, msg.t)
        self.loc.put(_id_key(msg.oid), "loc", "rec", pack_location(msg.x, msg.y, msg.vx, msg.vy), _us(msg.t))
        self._spatial_put(msg.oid, msg.x, msg.y, msg.t)
        self.leader_count += 1
        self.promotions += 1
        self._raise_cells(msg.oid, msg)
        if self.archive is not None:
            self.archive.record_leader(msg.oid, msg.t)
        return UpdateOutcome(Outcome.PROMOTED, 4)

    # ------------------------------------------------------------- clustering

    def _extrapolate(self, rec: LocationRecord, t: float) -> tuple[float, float]:
        dt = t - rec.t
        return rec.x + rec.vx * dt, rec.y + rec.vy * dt

    def merge_schools(self, survivor: int, absorbed: int, t_m: float) -> bool:
        """Fold school `absorbed` into school `survivor` at time t_m.

        The absorbed leader and all its followers become followers of the
        survivor; displacements are rebased so every transferred object's
        estimated location at t_m is unchanged. The absorbed leader's live
        location and spatial rows are removed; its record history goes to the
        archive. Returns False if either side is no longer a leader.
        """
        if survivor == absorbed:
            return False
        with self._aff_lock:
            a_s = self.affiliation_of(survivor)
            a_j = self.affiliation_of(absorbed)
            if a_s is None or a_j is None or not a_s.is_leader or not a_j.is_leader:
                return False
            rec_i = self.latest_record(survivor)
            rec_j = self.latest_record(absorbed)
            if rec_i is None or rec_j is None:
                return False
            ix, iy = self._extrapolate(rec_i, t_m)
            jx, jy = self._extrapolate(rec_j, t_m)
            old = self.school_boxes.get(survivor)
            moved = [(old[0], old[1]), (old[2], old[3])] if old else []  # the old box's corners
            for fid, (fdx, fdy) in self.followers_of(absorbed):
                ndx, ndy = jx + fdx - ix, jy + fdy - iy
                self._write_follower_status(fid, survivor, (ndx, ndy), t_m)
                self.aff.put(_id_key(survivor), "finfo", str(fid), _POS.pack(ndx, ndy), _us(t_m))
                moved.append((ndx, ndy))
                if self.archive is not None:
                    self.archive.record_follower(fid, survivor, (ndx, ndy), t_m)
            self.aff.delete(_id_key(absorbed), "finfo")
            jdx, jdy = jx - ix, jy - iy
            self._write_follower_status(absorbed, survivor, (jdx, jdy), t_m)
            self.aff.put(_id_key(survivor), "finfo", str(absorbed), _POS.pack(jdx, jdy), _us(t_m))
            moved.append((jdx, jdy))
            self.school_boxes[survivor] = _box(moved)
            self.school_boxes.pop(absorbed, None)
            self._raise_cells(survivor, rec_i)
            self._spatial_delete(absorbed, rec_j.x, rec_j.y)
            # the absorbed leader's own trajectory is history now; archive it
            hist = sorted(
                (
                    unpack_location(c.value, c.timestamp / 1e6)
                    for c in self.loc.get_row(_id_key(absorbed))
                    if c.family == "loc"
                ),
                key=lambda r: r.t,
            )
            if self.archive is not None:
                for r in hist:
                    self.archive.append(absorbed, r)
                self.archive.record_follower(absorbed, survivor, (jdx, jdy), t_m)
            self.loc.delete(_id_key(absorbed))
            self.leader_count -= 1
            self.merges += 1
            return True

    def recluster_cell(self, cell: SpatialIndex, now: float) -> MergeStats:
        """Scan one clustering cell and merge co-moving leaders.

        Holds exclusive access to the cell: updates that would write into it
        wait until the pass finishes; everything else proceeds.
        """
        if cell.level != self.levels.cluster_level:
            raise ValueError("cell level %d is not the clustering level" % cell.level)
        with self._cluster_cond:
            while self._active_cell is not None:
                self._cluster_cond.wait()
            self._active_cell = cell.value
            while self._inflight.get(cell.value, 0) > 0:
                self._cluster_cond.wait()
        try:
            t0 = time.perf_counter()
            start, end = spatial.key_range(cell, self.levels.key_level)
            leaders: list[tuple[int, LocationRecord, int, list[float] | None]] = []
            placed: list[tuple[int, LocationRecord]] = []  # every leader row, for the bounds
            for _, cells in self.spa.scan_range(start, end):
                for c in cells:
                    if c.family != "ids":
                        continue
                    oid = int(c.column)
                    rec = self.latest_record(oid)
                    # no live record: no kNN answer, but nearest_leaders still finds the row
                    placed.append((oid, rec or LocationRecord(c.timestamp / 1e6, *_POS.unpack(c.value), 0.0, 0.0)))
                    if rec is None:
                        continue
                    disps = [_POS.unpack(rc.value) for rc in self.aff.get_row(_id_key(oid)) if rc.family == "finfo"]
                    leaders.append((oid, rec, len(disps), _box(disps) if disps else None))
            t1 = time.perf_counter()
            bins: dict[tuple[int, int], list[tuple[int, LocationRecord, int, list[float] | None]]] = {}
            for entry in leaders:
                b = hexagon_bin(entry[1].vx, entry[1].vy, self.cfg.delta_m)
                bins.setdefault(b, []).append(entry)
            plans: list[tuple[int, list[int]]] = []
            for group in bins.values():
                if len(group) < 2:
                    continue
                group.sort(key=lambda e: (-e[2], e[0]))  # most followers, then smaller id
                survivor = group[0][0]
                plans.append((survivor, [e[0] for e in group[1:]]))
            t2 = time.perf_counter()
            # no update writes into the cell during the pass, so the boxes
            # read above are exact up to promotions, which only shrink them
            with self._aff_lock:
                for oid, _, _, box in leaders:
                    if box is None:
                        self.school_boxes.pop(oid, None)
                    else:
                        self.school_boxes[oid] = box
            gone: set[int] = set()
            for survivor, absorbed in plans:
                for j in absorbed:
                    if self.merge_schools(survivor, j, now):
                        gone.add(j)
            with self._aff_lock:
                self._tighten_cells(cell, [p for p in placed if p[0] not in gone])
            t3 = time.perf_counter()
            return MergeStats(
                cell=cell,
                leaders_before=len(leaders),
                leaders_after=len(leaders) - len(gone),
                read_time=t1 - t0,
                compute_time=t2 - t1,
                write_time=t3 - t2,
            )
        finally:
            with self._cluster_cond:
                self._active_cell = None
                self._cluster_cond.notify_all()

    def clustering_tick(self, now: float) -> list[MergeStats]:
        """Advance the round-robin schedule to `now`, reclustering due cells.

        A full sweep over all clustering cells takes cluster_period seconds,
        so each cell is visited once per period, one exclusive cell at a time.
        """
        if math.isinf(self.cfg.cluster_period):
            return []
        n_cells = 1 << (2 * self.levels.cluster_level)
        cadence = self.cfg.cluster_period / n_cells
        if self._sweep_t0 is None:
            self._sweep_t0 = now
        due = int((now - self._sweep_t0) / cadence) - self._sweep_done
        due = max(0, min(due, n_cells))
        out = []
        for _ in range(due):
            cell = SpatialIndex(self.levels.cluster_level, self._sweep_pos)
            out.append(self.recluster_cell(cell, now))
            self._sweep_pos = (self._sweep_pos + 1) % n_cells
            self._sweep_done += 1
        return out

    # --------------------------------------------------------------- eviction

    def _on_location_evict(self, row: bytes, family: str, column: str, ts: int, value: bytes) -> None:
        if self.archive is not None:
            self.archive.append(int(row), unpack_location(value, ts / 1e6))

    # ------------------------------------------------------------- invariants

    def check_consistency(self) -> None:
        """Raise AffiliationError on any affiliation/spatial inconsistency.

        Checks, over the whole store: every follower's leader is a leader and
        lists it in finfo; every finfo entry points back; spatial rows contain
        exactly the current leaders; followers have no live location rows.
        """
        status: dict[int, Affiliation] = {}
        finfo: dict[int, set[int]] = {}
        for key in self.aff.keys():
            oid = int(key)
            for c in self.aff.get_row(key):
                if c.family == "lf" and c.column == "status":
                    if oid not in status:  # newest-first: first seen wins
                        flag, lid, dx, dy, since = _STATUS.unpack(c.value)
                        status[oid] = Affiliation(
                            flag == _LEADER, lid if flag == _FOLLOWER else oid, (dx, dy), since
                        )
                elif c.family == "finfo":
                    finfo.setdefault(oid, set()).add(int(c.column))
        leaders = {o for o, a in status.items() if a.is_leader}
        for oid, a in status.items():
            if a.is_leader:
                continue
            if a.leader_id not in leaders:
                raise AffiliationError("follower %d points to non-leader %d" % (oid, a.leader_id))
            if oid not in finfo.get(a.leader_id, set()):
                raise AffiliationError("leader %d does not list follower %d" % (a.leader_id, oid))
        for lid, fs in finfo.items():
            if fs and lid not in leaders:
                raise AffiliationError("non-leader %d has follower info" % lid)
            for f in fs:
                a = status.get(f)
                if a is None or a.is_leader or a.leader_id != lid:
                    raise AffiliationError("finfo entry %d -> %d not mirrored" % (lid, f))
        spatial_ids: set[int] = set()
        for key in self.spa.keys():
            for c in self.spa.get_row(key):
                if c.family == "ids":
                    oid = int(c.column)
                    if oid in spatial_ids:
                        raise AffiliationError("object %d appears in two spatial cells" % oid)
                    spatial_ids.add(oid)
        if spatial_ids != leaders:
            missing = sorted(leaders - spatial_ids)[:10]
            extra = sorted(spatial_ids - leaders)[:10]
            raise AffiliationError("spatial/leader mismatch: missing %s extra %s" % (missing, extra))
        if self.leader_count != len(leaders):
            raise AffiliationError("leader counter %d != %d" % (self.leader_count, len(leaders)))
        for oid, a in status.items():
            if not a.is_leader and self.loc.latest(_id_key(oid), "loc", "rec") is not None:
                raise AffiliationError("follower %d still has a live location row" % oid)
