"""Sorted key-value store with column families, versioned cells, and tiered aging.

Tables map byte row keys (lexicographically ordered) to rows; a row holds
timestamped cells addressed by (column family, column). Every cell lives in
exactly one tier: tier 0 is in-memory, higher tiers are backed by append-only
files with an in-memory index of value offsets. A periodic age_tick moves
cells whose age exceeds their tier's TTL one tier down; cells aging out of the
final tier are handed to an eviction callback (the archive) or discarded.

A table whose every tier TTL is infinite never ages. If it also has no
eviction callback, it holds state rather than history bound for an archive,
and it is a current-state table: it keeps one cell per column, as a Bigtable
column family with a one-version GC policy does. A put there replaces the
column's cell whatever the timestamps: the last write wins. The writer keeps
the order of its writes the order of its events (shoal's tracker writes these
tables only under one lock), while the timestamps need not follow it: a merge
stamps statuses with the clock time, and a later write for the same object
may carry its own, earlier report time when updates arrive out of global time
order. Keeping the larger timestamp there would drop the newer state.

Each finite tier keeps an expiry queue: a min-heap of (timestamp, sequence,
row, column, cell) entries pushed when a cell enters the tier. A tick pops
only the entries that have expired, so it costs what it moves, not what the
table holds. Entries whose cell a delete removed are skipped when popped.

Thread safety: every table operation runs under that table's lock. Range scans
snapshot one row at a time, so a scan racing a writer sees each row at one
instant but different rows possibly at different instants.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import os
import shutil
import struct
import tempfile
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

EvictFn = Callable[[bytes, str, str, int, bytes], None]

_REC_HEAD = struct.Struct("<I")
_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")


class StoreError(Exception):
    pass


class UnknownTableError(StoreError):
    pass


class UnknownFamilyError(StoreError):
    pass


@dataclass(frozen=True)
class Cell:
    """One materialized cell version."""

    family: str
    column: str
    timestamp: int  # microseconds
    value: bytes
    tier: int


class _Cell:
    __slots__ = ("ts", "val")

    def __init__(self, ts: int, val):
        self.ts = ts
        self.val = val  # bytes in tier 0, (offset, size) in disk tiers


class _TierFile:
    """Append-only backing file for one disk tier.

    Records are little-endian and length-prefixed:
    u32 payload length, then payload =
    u16 row length + row, u16 family length + family, u16 column length +
    column, u64 timestamp, u32 value length + value.
    The in-memory index kept by the table points straight at the value bytes.
    """

    def __init__(self, path: str):
        self.path = path
        self._w = open(path, "ab")
        self._r = open(path, "rb")
        self._offset = self._w.tell()
        self._dirty = False

    def append(self, row: bytes, family: str, column: str, ts: int, value: bytes) -> tuple[int, int]:
        fam = family.encode()
        col = column.encode()
        payload = b"".join(
            (
                _U16.pack(len(row)),
                row,
                _U16.pack(len(fam)),
                fam,
                _U16.pack(len(col)),
                col,
                _U64.pack(ts),
                _U32.pack(len(value)),
                value,
            )
        )
        self._w.write(_REC_HEAD.pack(len(payload)))
        # value starts after the fixed prefix within the payload
        val_off = self._offset + _REC_HEAD.size + len(payload) - len(value)
        self._w.write(payload)
        self._offset += _REC_HEAD.size + len(payload)
        self._dirty = True
        return val_off, len(value)

    def read(self, offset: int, size: int) -> bytes:
        if self._dirty:
            self._w.flush()
            self._dirty = False
        self._r.seek(offset)
        return self._r.read(size)

    def close(self) -> None:
        self._w.close()
        self._r.close()


class _Column:
    __slots__ = ("tiers",)

    def __init__(self):
        self.tiers: list[deque[_Cell] | None] = [deque()]

    def tier(self, i: int) -> deque:
        while len(self.tiers) <= i:
            self.tiers.append(None)
        if self.tiers[i] is None:
            self.tiers[i] = deque()
        return self.tiers[i]


def _insert(dq: deque, cell: _Cell) -> None:
    """Place the cell in a newest-first deque, ahead of cells with its timestamp."""
    if not dq or cell.ts >= dq[0].ts:
        dq.appendleft(cell)
    else:  # out-of-order timestamp
        dq.insert(sum(c.ts > cell.ts for c in dq), cell)


class Table:
    """One table: rows of versioned cells plus the tier plumbing."""

    def __init__(
        self,
        name: str,
        families: tuple[str, ...],
        tier_ttls: tuple[float, ...],
        tier_dir: str | None,
        on_final_evict: EvictFn | None,
    ):
        if not tier_ttls:
            raise ValueError("at least one tier required")
        if any(t <= 0 for t in tier_ttls):
            raise ValueError("tier TTLs must be positive")
        self.name = name
        self.families = tuple(families)
        self.tier_ttls_us = tuple(t * 1e6 for t in tier_ttls)
        self.tier_count = len(tier_ttls)
        self._ages = any(t != math.inf for t in tier_ttls)
        self.current_state = not self._ages and on_final_evict is None
        # expiry queue per finite tier (module docstring)
        self._expiry: list[list | None] = [None if t == math.inf else [] for t in tier_ttls]
        self._seq = itertools.count()
        self.on_final_evict = on_final_evict
        self._rows: dict[bytes, dict[tuple[str, str], _Column]] = {}
        self._keys: list[bytes] = []
        self._lock = threading.RLock()
        self._files: list[_TierFile | None] = [None] * self.tier_count
        self._dir = tier_dir
        self.puts = 0
        self.deletes = 0
        self.evicted = 0
        self.tier_cells = [0] * self.tier_count

    def _file(self, tier: int) -> _TierFile:
        f = self._files[tier]
        if f is None:
            if self._dir is None:
                raise StoreError("table %s has no tier directory" % self.name)
            f = _TierFile(os.path.join(self._dir, "%s.tier%d.dat" % (self.name, tier)))
            self._files[tier] = f
        return f

    def _check_family(self, family: str) -> None:
        if family not in self.families:
            raise UnknownFamilyError("family %r not declared on table %s" % (family, self.name))

    def put(self, row: bytes, family: str, column: str, value: bytes, timestamp: int) -> None:
        """Add a cell version; in a current-state table, replace the column's cell."""
        self._check_family(family)
        with self._lock:
            cols = self._rows.get(row)
            if cols is None:
                cols = {}
                self._rows[row] = cols
                bisect.insort(self._keys, row)
            kc = (family, column)
            col = cols.get(kc)
            if col is None:
                col = _Column()
                cols[kc] = col
            t0 = col.tiers[0]
            cell = _Cell(timestamp, value)
            self.puts += 1
            if self.current_state and t0:
                t0[0] = cell
                return
            _insert(t0, cell)
            self.tier_cells[0] += 1
            queue = self._expiry[0]
            if queue is not None:
                heapq.heappush(queue, (timestamp, next(self._seq), row, kc, cell))

    def _materialize(self, fam: str, colname: str, c: _Cell, tier: int) -> Cell:
        val = c.val
        if tier > 0 and isinstance(val, tuple):
            val = self._file(tier).read(val[0], val[1])
        return Cell(fam, colname, c.ts, val, tier)

    def get_row(self, row: bytes) -> list[Cell]:
        """All cells of the row, grouped by column, newest-first per column."""
        with self._lock:
            cols = self._rows.get(row)
            if not cols:
                return []
            out: list[Cell] = []
            for (fam, colname) in sorted(cols):
                col = cols[(fam, colname)]
                cells: list[tuple[int, _Cell]] = []
                for ti, dq in enumerate(col.tiers):
                    if dq:
                        cells.extend((ti, c) for c in dq)
                cells.sort(key=lambda tc: -tc[1].ts)
                out.extend(self._materialize(fam, colname, c, ti) for ti, c in cells)
            return out

    def latest(self, row: bytes, family: str, column: str) -> tuple[int, bytes] | None:
        """Newest (timestamp, value) of one column, or None."""
        with self._lock:
            cols = self._rows.get(row)
            if not cols:
                return None
            col = cols.get((family, column))
            if col is None:
                return None
            best: _Cell | None = None
            best_tier = 0
            for ti, dq in enumerate(col.tiers):
                if dq and (best is None or dq[0].ts > best.ts):
                    best = dq[0]
                    best_tier = ti
            if best is None:
                return None
            val = best.val
            if best_tier > 0 and isinstance(val, tuple):
                val = self._file(best_tier).read(val[0], val[1])
            return best.ts, val

    def scan_range(self, start: bytes, end: bytes) -> list[tuple[bytes, list[Cell]]]:
        """Rows with start <= key < end, in key order, one snapshot per row."""
        if start > end:
            raise StoreError("scan range start %r > end %r" % (start, end))
        with self._lock:
            lo = bisect.bisect_left(self._keys, start)
            hi = bisect.bisect_left(self._keys, end)
            keys = self._keys[lo:hi]
        out = []
        for k in keys:
            cells = self.get_row(k)
            if cells:
                out.append((k, cells))
        return out

    def delete(self, row: bytes, family: str | None = None, column: str | None = None) -> int:
        """Remove all versions of the addressed cells; returns cells removed."""
        with self._lock:
            cols = self._rows.get(row)
            if not cols:
                return 0
            if family is None:
                victims = list(cols)
            elif column is None:
                victims = [kc for kc in cols if kc[0] == family]
            else:
                victims = [(family, column)] if (family, column) in cols else []
            removed = 0
            for kc in victims:
                col = cols.pop(kc)
                for ti, dq in enumerate(col.tiers):
                    if dq:
                        removed += len(dq)
                        self.tier_cells[ti] -= len(dq)
            if not cols:
                self._drop_row(row)
            if removed:
                self.deletes += 1
            return removed

    def age_tick(self, now_us: float) -> int:
        """Move cells older than their tier TTL one tier down; returns moves."""
        if not self._ages:
            return 0
        moved = 0
        with self._lock:
            # highest tier first so a cell moves at most one step per tick
            for ti in range(self.tier_count - 1, -1, -1):
                queue = self._expiry[ti]
                if queue is None:
                    continue
                ttl = self.tier_ttls_us[ti]
                while queue and now_us - queue[0][0] > ttl:
                    _, _, row, kc, cell = heapq.heappop(queue)
                    cols = self._rows.get(row)
                    col = cols.get(kc) if cols else None
                    dq = col.tiers[ti] if col is not None and ti < len(col.tiers) else None
                    # a live cell is its deque's oldest: both orders are (ts, write order)
                    if not dq or dq[-1] is not cell:
                        continue  # a delete removed it
                    dq.pop()
                    self.tier_cells[ti] -= 1
                    moved += 1
                    val = cell.val
                    if isinstance(val, tuple):
                        val = self._file(ti).read(val[0], val[1])
                    if ti + 1 < self.tier_count:
                        cell.val = self._file(ti + 1).append(row, kc[0], kc[1], cell.ts, val)
                        _insert(col.tier(ti + 1), cell)
                        self.tier_cells[ti + 1] += 1
                        nxt = self._expiry[ti + 1]
                        if nxt is not None:
                            heapq.heappush(nxt, (cell.ts, next(self._seq), row, kc, cell))
                        continue
                    self.evicted += 1
                    if self.on_final_evict is not None:
                        self.on_final_evict(row, kc[0], kc[1], cell.ts, val)
                    if not any(col.tiers):
                        del cols[kc]
                        if not cols:
                            self._drop_row(row)
        return moved

    def _drop_row(self, row: bytes) -> None:
        del self._rows[row]
        i = bisect.bisect_left(self._keys, row)
        if i < len(self._keys) and self._keys[i] == row:
            self._keys.pop(i)

    def row_count(self) -> int:
        with self._lock:
            return len(self._keys)

    def cell_count(self) -> int:
        with self._lock:
            return sum(self.tier_cells)

    def keys(self) -> list[bytes]:
        with self._lock:
            return list(self._keys)

    def close(self) -> None:
        for f in self._files:
            if f is not None:
                f.close()


class Store:
    """A set of named tables sharing one tier directory."""

    def __init__(self, tier_dir: str | None = None):
        self._tables: dict[str, Table] = {}
        self._own_dir = tier_dir is None
        self._dir = tier_dir or tempfile.mkdtemp(prefix="shoal-store-")
        os.makedirs(self._dir, exist_ok=True)
        self._lock = threading.Lock()

    def create_table(
        self,
        name: str,
        families: Iterable[str],
        tier_ttls: Iterable[float] = (60.0, 120.0, 240.0),
        on_final_evict: EvictFn | None = None,
    ) -> Table:
        with self._lock:
            if name in self._tables:
                raise StoreError("table %s already exists" % name)
            t = Table(name, tuple(families), tuple(tier_ttls), self._dir, on_final_evict)
            self._tables[name] = t
            return t

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def age_tick(self, now_us: float) -> int:
        return sum(t.age_tick(now_us) for t in self._tables.values())

    def drain_aging(self) -> int:
        """Repeat age_tick until no cell moves (at an infinite now: past every
        storable timestamp, up to 2^64 us, by more than any finite TTL)."""
        total = 0
        while True:
            m = self.age_tick(math.inf)
            total += m
            if m == 0:
                return total

    def tables(self) -> list[Table]:
        return list(self._tables.values())

    def close(self) -> None:
        """Close the tier files; remove the tier directory if the store made it."""
        for t in self._tables.values():
            t.close()
        if self._own_dir:
            shutil.rmtree(self._dir, ignore_errors=True)

    @property
    def tier_dir(self) -> str:
        return self._dir
