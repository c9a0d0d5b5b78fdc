"""Wiring layer: store, schooling tracker, NN searcher, archiver, sim clock.

The engine owns simulated time. Updates carry their own timestamps; between
updates `advance_time` runs the clustering scheduler at its cadence and ages
store tiers once per `age_interval` simulated second. Aged-out location cells
flow into the archiver, which is drained explicitly at shutdown.

`ingest` may be called from several threads, provided each object's updates
come from one thread in time order. The clock moves under one lock, checked
again inside it: the thread whose update moves the clock runs the due
reclustering and aging, while the others keep ingesting updates at or before
the clock (blocked only in the cell being reclustered). An update beyond the
clock waits for that work, then moves the clock the rest of the way.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, field

from .archive import Archiver, DiskModelParams
from .nn import FlagConfig, Neighbor, NNQuery, Searcher
from .schooling import T_END, MergeStats, SchoolConfig, Tracker, UpdateMessage, UpdateOutcome
from .spatial import LevelConfig
from .store import Store


@dataclass
class EngineConfig:
    levels: LevelConfig = field(default_factory=LevelConfig)
    school: SchoolConfig = field(default_factory=SchoolConfig)
    flag: FlagConfig = field(default_factory=FlagConfig)
    location_ttls: tuple[float, ...] = (60.0, 120.0, 240.0)
    age_interval: float = 1.0
    archive_enabled: bool = True
    archive_params: DiskModelParams = field(default_factory=DiskModelParams)
    n_disks: int = 4
    work_dir: str | None = None  # holds store tiers and archive pages; None: a temporary one


class Engine:
    """One complete moving-object index over simulated time."""

    def __init__(self, cfg: EngineConfig | None = None):
        self.cfg = cfg = cfg if cfg is not None else EngineConfig()
        self._own_dir = cfg.work_dir is None
        self.work_dir = cfg.work_dir or tempfile.mkdtemp(prefix="shoal-")
        self.now = 0.0
        self._clock = threading.Lock()
        self.store = Store(tier_dir=os.path.join(self.work_dir, "tiers"))
        self.archive: Archiver | None = None
        if cfg.archive_enabled:
            self.archive = Archiver(
                cfg.archive_params,
                cfg.n_disks,
                os.path.join(self.work_dir, "pages"),
                levels=cfg.levels,
            )
        self.tracker = Tracker(
            self.store,
            cfg.levels,
            cfg.school,
            archive=self.archive,
            location_ttls=cfg.location_ttls,
        )
        self.searcher = Searcher(self.tracker, cfg.flag, clock=lambda: self.now)
        self._next_age = cfg.age_interval

    # ------------------------------------------------------------------ drive

    def ingest(self, msg: UpdateMessage) -> UpdateOutcome:
        """Apply one update, first moving the clock to its time; thread-safe (module docstring)."""
        if msg.t > self.now:
            self.advance_time(msg.t)
        return self.tracker.process_update(msg)

    def advance_time(self, t: float) -> list[MergeStats]:
        """Move the sim clock forward to t, running due clustering and aging work.

        Returns the MergeStats of the clustering passes that ran. A clock
        already at or past t, moved by another thread meanwhile, stays put.
        A t the archive cannot store (non-finite, or 2^64 us or more) raises
        ValueError and moves nothing.
        """
        if not t < T_END:  # also true for NaN
            raise ValueError("time %r is not below 2^64 us" % t)
        tracker = self.tracker
        stats = []
        with self._clock:
            # a tick before next_cluster_t would find no cell due: skip the call
            while self._next_age <= t:
                self.now = self._next_age
                if self.now >= tracker.next_cluster_t:
                    stats.extend(tracker.clustering_tick(self.now))
                self.store.age_tick(int(self.now * 1e6))
                self._next_age += self.cfg.age_interval
            if t > self.now:
                self.now = t
            if self.now >= tracker.next_cluster_t:
                stats.extend(tracker.clustering_tick(self.now))
        return stats

    def query(self, x: float, y: float, k: int, t: float | None = None) -> list[Neighbor]:
        return self.searcher.knn(NNQuery(x, y, self.now if t is None else t, k))

    # --------------------------------------------------------------- shutdown

    def drain(self) -> None:
        """Push every live location through the tiers into the archive."""
        self.store.drain_aging()
        if self.archive is not None:
            self.archive.drain()

    def close(self) -> None:
        """Close the archive and the store; remove work_dir if the engine made it."""
        if self.archive is not None:
            self.archive.close()
        self.store.close()
        if self._own_dir:
            shutil.rmtree(self.work_dir, ignore_errors=True)
