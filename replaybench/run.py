"""Trace-replay benchmark for shoal.

    python3 replaybench/run.py --workload commute --seed 1 --seconds 30 --trace 0

Set-up generates a seeded road-grid trace with shoal.workload.Generator and
builds an Engine. A round then replays the whole trace through the public
Engine API from one thread, in a closed loop: each call starts when the
previous one returns. kNN queries sit at fixed simulated times, so the mix
of operations does not depend on how fast the program is. After the replay
the round drains the engine and runs object- and region-history queries
against the archive. Rounds repeat, each on a fresh Engine, while another
round as long as the longest so far still fits in --seconds of wall time;
every round does exactly the same operations. See README.md for the
workloads and metrics.

Every output is checked outside the timed calls (see checks.py). The last
line of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics`. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the benchmark wraps shoal's modules (tracer.py) and reports the
per-layer ones instead. A `fingerprint` line before it digests the
per-update outcomes and write counts in trace order plus the kNN answers,
and an `ungated` line gives latency tails and the region-query mean,
which are reported, never gated.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()  # fallback origin when /proc is unavailable

import argparse
import gc
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import Tracer, install  # noqa: E402

N_DISKS = 4
KNN_K = 10
KNN_CHECKS = 60  # kNN answers per round compared with the brute-force oracle
REGION_LEVEL = 3
QUERY_START = 5.0  # every agent has reported once by interval_max = 5 s


@dataclass(frozen=True)
class Workload:
    agents: int
    duration: float  # simulated seconds of trace
    ttls: tuple[float, ...]  # location-table tier TTLs, seconds
    page_records: int  # archive page size per disk
    knn_per_s: float  # kNN queries per simulated second during the replay
    object_queries: int  # object-history queries after drain
    object_window: float
    region_queries: int  # region-history queries after drain, level-3 cells
    region_window: float


WORKLOADS = {
    # dense co-moving traffic: the shed test, the write path, reclustering and
    # tier aging do the ingest work; cells reach the archive after 30 s
    "commute": Workload(
        agents=3000, duration=120.0, ttls=(10.0, 10.0, 10.0), page_records=1024,
        knn_per_s=1.0, object_queries=3000, object_window=20.0,
        region_queries=5, region_window=2.0,
    ),
    # kNN takes most of the run, with ingest between the queries
    "rush_knn": Workload(
        agents=1000, duration=200.0, ttls=(60.0, 120.0, 240.0), page_records=1024,
        knn_per_s=5.5, object_queries=3000, object_window=20.0,
        region_queries=5, region_window=2.0,
    ),
    # short tiers and small pages: many pages flush during the replay, and
    # the history queries read them back
    "archive_history": Workload(
        agents=1500, duration=150.0, ttls=(5.0, 5.0, 5.0), page_records=256,
        knn_per_s=1.0, object_queries=4000, object_window=30.0,
        region_queries=5, region_window=10.0,
    ),
}


def since_process_start() -> float:
    """Wall seconds since this process started (kernel start time)."""
    try:
        with open("/proc/self/stat", "rb") as f:
            fields = f.read().rsplit(b")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        elapsed = time.clock_gettime(time.CLOCK_BOOTTIME) - start
        if 0.0 < elapsed < 3600.0:
            return elapsed
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    return time.perf_counter() - _T_START


@dataclass
class Plan:
    """The operations of one round, fixed by the workload and the seed."""

    knn: list[tuple[float, int]]  # (simulated time, agent whose last report is the query point)
    objects: list[tuple[int, int, int]]  # (oid, window start us, window end us)
    regions: list[tuple[int, int, int, int]]  # (grid x, grid y, window start us, window end us)
    knn_checked: set[int]


def make_plan(wl: Workload, seed: int) -> Plan:
    rng = random.Random("%d:queries" % seed)
    n_knn = int((wl.duration - QUERY_START) * wl.knn_per_s)
    knn = [(QUERY_START + (i + 1) / wl.knn_per_s, rng.randrange(wl.agents)) for i in range(n_knn)]
    knn = [q for q in knn if q[0] < wl.duration]

    # History windows are spread evenly over the trace, whole milliseconds
    # apart, so what a query costs depends on the seed only through which
    # object or cell it names.
    def window(i: int, n: int, length: float) -> tuple[int, int]:
        span_ms = int((wl.duration - length) * 1000)
        lo = (span_ms * (2 * i + 1) // (2 * n)) * 1000
        return lo, lo + int(length * 1e6)

    # Objects are drawn as whole shuffles of all agents: rounds repeat the
    # same queries, so a draw with repeats would let a few objects set the
    # tail. Where there are more queries than agents, an agent's queries get
    # windows in different parts of the trace.
    n_obj, n_reg = wl.object_queries, wl.region_queries
    oids: list[int] = []
    while len(oids) < n_obj:
        oids += rng.sample(range(wl.agents), wl.agents)
    oids = oids[:n_obj]
    objects = [(oid,) + window(i, n_obj, wl.object_window) for i, oid in enumerate(oids)]
    # A region query re-reads, for every follower span in its window, the
    # leader's pages that overlap the window. Aged records reach the archive
    # out of order, so pages overlap in time and a window meets one page of
    # a disk in some stretches of the trace and two in others: the cost of a
    # window jumps with where it falls. The windows are spread over the
    # trace and the benchmark prints their mean.
    side = 1 << REGION_LEVEL
    regions = [(rng.randrange(side), rng.randrange(side)) + window(i, n_reg, wl.region_window) for i in range(n_reg)]
    checked = set(rng.sample(range(len(knn)), min(KNN_CHECKS, len(knn))))
    return Plan(knn, objects, regions, checked)


@dataclass
class Tally:
    """What the rounds of one run measured, summed over rounds."""

    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    update_s: list[float] = field(default_factory=list)
    knn_s: list[float] = field(default_factory=list)
    object_s: list[float] = field(default_factory=list)
    region_s: list[float] = field(default_factory=list)
    replay_wall: float = 0.0
    updates: int = 0
    writes: int = 0
    live_cells: int = 0
    fingerprints: set[str] = field(default_factory=set)
    cyclic_garbage: int = 0  # objects only the collector could free, found after each round
    layer: dict[str, float] = field(default_factory=dict)  # per-round figures read off the program

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append("%s: %s: %s" % (what, type(exc).__name__, exc))

    def add(self, key: str, value: float) -> None:
        self.layer[key] = self.layer.get(key, 0.0) + value


class Run:
    def __init__(self, wl: Workload, seed: int, trace: list, run_dir: Path, tracer: Tracer):
        from shoal.archive import RECORD_SIZE, DiskModelParams
        from shoal.engine import EngineConfig

        self.wl = wl
        self.trace = trace
        self.run_dir = run_dir
        self.tracer = tracer
        self.plan = make_plan(wl, seed)
        self.cfg = EngineConfig(
            location_ttls=wl.ttls,
            archive_params=DiskModelParams(s_B=float(wl.page_records * N_DISKS * RECORD_SIZE)),
            n_disks=N_DISKS,
        )
        self.tally = Tally()
        self.failures: dict[str, list] = {}  # check name -> [times failed, first message]

    def engine(self, rnd: int):
        from dataclasses import replace

        from shoal.engine import Engine

        work = self.run_dir / ("round%d" % rnd)
        return Engine(replace(self.cfg, work_dir=str(work))), work

    def check(self, name: str, fn, *args) -> None:
        try:
            fn(*args)
        except Exception as exc:  # a check that cannot run has failed too
            self.failures.setdefault(name, [0, "%s: %s" % (type(exc).__name__, exc)])[0] += 1

    def round(self, eng, work: Path) -> None:
        from shoal.schooling import Outcome

        wl, plan, tally, tracer = self.wl, self.plan, self.tally, self.tracer
        perf = time.perf_counter
        tracker = eng.tracker
        eps = tracker.cfg.epsilon
        kinds = {Outcome.SHED: b"s", Outcome.LEADER_UPDATED: b"l", Outcome.PROMOTED: b"p"}
        digest = hashlib.sha256()
        reports: list[tuple] = []  # non-shed reports as archive records
        last: dict[int, tuple[float, float]] = {}
        update_s = tally.update_s
        knn_plan = plan.knn
        qi = 0
        check_s = 0.0

        tracer.phase = "replay"
        tracer.active = True
        wall0 = perf()
        for msg in self.trace:
            while qi < len(knn_plan) and knn_plan[qi][0] < msg.t:
                check_s += self._knn(eng, qi, last, digest)
                qi += 1
            t0 = perf()
            try:
                out = eng.ingest(msg)
            except Exception as exc:
                tally.fail("ingest", exc)
                continue
            update_s.append(perf() - t0)
            last[msg.oid] = (msg.x, msg.y)
            c0 = perf()
            tracer.active = False
            digest.update(kinds[out.kind] + bytes((out.writes,)))
            if out.kind is not Outcome.SHED:
                reports.append((msg.oid, int(round(msg.t * 1e6)), msg.x, msg.y, msg.vx, msg.vy))
            self.check("shedding", self._check_shed, tracker, msg, out.kind is Outcome.SHED, eps)
            tracer.active = True
            check_s += perf() - c0
        for qi in range(qi, len(knn_plan)):
            check_s += self._knn(eng, qi, last, digest)
        tally.replay_wall += perf() - wall0 - check_s
        tracer.active = False
        tally.attempted += len(self.trace) + len(knn_plan)
        tally.fingerprints.add(digest.hexdigest())

        self.check("consistency", tracker.check_consistency)
        tables = {t.name: t for t in eng.store.tables()}
        tally.updates += len(self.trace)
        tally.writes += sum(t.puts + t.deletes for t in tables.values())
        tally.live_cells += sum(t.cell_count() for t in tables.values())
        for name, t in tables.items():
            tally.add("store.%s.cells_end" % name, t.cell_count())
        tally.add("schooling.leaders_end", tracker.leader_count)
        tally.add("schooling.merges", tracker.merges)
        tally.add("schooling.sheds", tracker.sheds)
        tally.add("schooling.updates", tracker.updates)
        tally.add("nn.cache_hits", eng.searcher.cache_hits)
        tally.add("nn.cache_misses", eng.searcher.cache_misses)

        arch = eng.archive
        tracer.phase = "drain"
        tracer.active = True
        tally.attempted += 1
        try:
            eng.drain()
        except Exception as exc:
            tally.fail("drain", exc)
        tracer.active = False
        tally.add("archive.flushes", arch.flush_count())
        tally.add("archive.events", sum(len(arch.events_of(o)) for o in range(wl.agents)))
        self.check("lossless_archive", checks.check_lossless, str(work / "pages"), reports)

        index = checks.ReportIndex(reports)
        tracer.phase = "history"
        # Region queries are spread evenly among the object queries, so that
        # their few samples are not all taken in the same second.
        n_obj, n_reg = len(plan.objects), len(plan.regions)
        region_at = {(2 * j + 1) * n_obj // (2 * n_reg): j for j in range(n_reg)}
        for i, query in enumerate(plan.objects):
            if i in region_at:
                self._region_history(arch, index, plan.regions[region_at[i]])
            self._object_history(arch, index, query)
        tally.attempted += len(plan.objects) + len(plan.regions)
        tally.rounds += 1

    def _object_history(self, arch, index, query: tuple[int, int, int]) -> None:
        oid, lo, hi = query
        tally = self.tally
        scanned, skipped = arch.pages_scanned, arch.pages_skipped
        self.tracer.active = True
        t0 = time.perf_counter()
        try:
            got = arch.query_history_by_object(oid, lo / 1e6, hi / 1e6)
        except Exception as exc:
            tally.fail("history_object", exc)
            got = None
        tally.object_s.append(time.perf_counter() - t0)
        self.tracer.active = False
        tally.add("archive.object_pages_scanned", arch.pages_scanned - scanned)
        tally.add("archive.object_pages_skipped", arch.pages_skipped - skipped)
        if got is not None:
            want = index.object_window(oid, lo, hi)
            self.check("history_object", checks.check_history, got, want, lo, hi, index.raw_times, oid)

    def _region_history(self, arch, index, query: tuple[int, int, int, int]) -> None:
        from shoal import spatial

        gx, gy, lo, hi = query
        tally = self.tally
        levels = self.cfg.levels
        box = checks.cell_box(gx, gy, REGION_LEVEL, levels.map_size)
        cell = spatial.encode(((box[0] + box[2]) / 2, (box[1] + box[3]) / 2), REGION_LEVEL, levels)
        scanned = arch.pages_scanned
        self.tracer.active = True
        t0 = time.perf_counter()
        try:
            got = arch.query_history_by_region(cell, lo / 1e6, hi / 1e6)
        except Exception as exc:
            tally.fail("history_region", exc)
            got = None
        tally.region_s.append(time.perf_counter() - t0)
        self.tracer.active = False
        tally.add("archive.region_pages_scanned", arch.pages_scanned - scanned)
        if got is not None:
            want = index.region_window(box, levels.map_size, lo, hi)

            def inside(x, y):
                return checks.in_box(box, levels.map_size, x, y)

            self.check("history_region", checks.check_history, got, want, lo, hi, index.raw_times, None, inside)

    def _knn(self, eng, qi: int, last: dict, digest) -> float:
        """Issue the plan's qi-th kNN query; returns the time spent checking it."""
        t_q, agent = self.plan.knn[qi]
        qx, qy = last.get(agent, (0.0, 0.0))  # every agent has reported unless its ingest failed
        t0 = time.perf_counter()
        try:
            got = eng.query(qx, qy, KNN_K, t=t_q)
        except Exception as exc:
            self.tally.fail("knn", exc)
            return 0.0
        finally:
            self.tally.knn_s.append(time.perf_counter() - t0)
        digest.update(b"q" + ",".join(str(n.oid) for n in got).encode())
        if qi not in self.plan.knn_checked:
            return 0.0
        c0 = time.perf_counter()
        self.tracer.active = False
        self.check("knn_exact", self._check_knn, eng.tracker, got, qx, qy, t_q)
        self.tracer.active = True
        return time.perf_counter() - c0

    @staticmethod
    def _check_shed(tracker, msg, shed: bool, eps: float) -> None:
        est = tracker.estimated_location(msg.oid, msg.t)
        checks.check_shed(shed, est, msg.x, msg.y, eps)

    def _check_knn(self, tracker, got, qx, qy, t_q) -> None:
        locs = tracker.all_locations(t_q)
        want = checks.brute_knn(locs, qx, qy, KNN_K)
        ids = [n.oid for n in got]
        if ids != want:
            raise checks.CheckFailed("kNN at t=%r returned %s, oracle %s" % (t_q, ids, want))
        if len(ids) != min(KNN_K, len(locs)):
            raise checks.CheckFailed("kNN returned %d of %d objects" % (len(ids), len(locs)))


def percentile(samples: list[float], p: float) -> float:
    s = sorted(samples)
    pos = (len(s) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def enough(samples: list[float], rounds: int, p: float) -> bool:
    """Whether one round's operations leave at least ten beyond the p-th percentile.

    Rounds repeat the same operations, so pooling rounds adds no new ones to
    the tail.
    """
    return len(samples) // rounds >= round(10 * 100 / (100 - p))


def end_to_end(tally: Tally, setup_s: float, wl: Workload) -> dict[str, tuple[float, str]]:
    n = tally.rounds
    out: dict[str, tuple[float, str]] = {
        "setup_s": (setup_s, "s"),
        "ingest_ups": (len(tally.update_s) / sum(tally.update_s), "updates/s"),
    }

    def timing(name: str, samples: list[float], p: float, scale: float, unit: str) -> None:
        if not enough(samples, n, p):
            raise SystemExit("replaybench: %d operations a round are too few for %s" % (len(samples) // n, name))
        out[name] = (percentile(samples, p) * scale, unit)

    timing("update_p50_us", tally.update_s, 50, 1e6, "us")
    out["realtime_x"] = (wl.duration * n / tally.replay_wall, "sim_s/s")
    timing("knn_p50_ms", tally.knn_s, 50, 1e3, "ms")
    timing("history_object_p50_ms", tally.object_s, 50, 1e3, "ms")
    out["writes_per_update"] = (tally.writes / tally.updates, "ops/update")
    out["live_cells"] = (tally.live_cells // n, "cells")
    return out


def ungated(tally: Tally) -> list[str]:
    """Figures printed for reading and never gated: a slow spell of the
    machine moves them far more than the medians (see README.md)."""
    out = ["history_region_mean_ms=%.4g" % (statistics.fmean(tally.region_s) * 1e3)]
    for name, samples, p, scale in (
        ("update_p95_us", tally.update_s, 95, 1e6),
        ("update_p99_us", tally.update_s, 99, 1e6),
        ("update_p999_us", tally.update_s, 99.9, 1e6),
        ("knn_p99_ms", tally.knn_s, 99, 1e3),
        ("history_object_p99_ms", tally.object_s, 99, 1e3),
    ):
        if enough(samples, tally.rounds, p):
            out.append("%s=%.4g" % (name, percentile(samples, p) * scale))
    return out


# The store operations shoal calls on each table. The others (scan_range on
# the location and affiliation tables, latest on the spatial table) never
# run, and a figure that reads 0 in every run measures nothing.
STORE_OPS = {
    "location": ("put", "delete", "latest", "get_row"),
    "spatial": ("put", "delete", "get_row", "scan_range"),
    "affiliation": ("put", "delete", "latest", "get_row"),
}


def per_layer(tally: Tally, tracer: Tracer, wl: Workload, generate_s: float) -> dict[str, tuple[float, str]]:
    n = tally.rounds
    calls, self_s, count, layer = tracer.calls, tracer.self_s, tracer.counts, tally.layer
    knn_calls = max(1, calls["nn.knn"])

    def mean(total: float, k: float) -> float:
        return total / k if k else 0.0

    out: dict[str, tuple[float, str]] = {
        "schooling.shed_ratio": (mean(layer["schooling.sheds"], layer["schooling.updates"]), "ratio"),
        "schooling.shed_path_us": (mean(count["schooling.shed_s"], count["schooling.shed_n"]) * 1e6, "us"),
        "schooling.write_path_us": (mean(count["schooling.write_s"], count["schooling.write_n"]) * 1e6, "us"),
        "schooling.recluster_read_s": (count["schooling.recluster_read_s"] / n, "s"),
        "schooling.recluster_compute_s": (count["schooling.recluster_compute_s"] / n, "s"),
        "schooling.recluster_write_s": (count["schooling.recluster_write_s"] / n, "s"),
        "schooling.merges": (layer["schooling.merges"] / n, "count"),
        "schooling.followers_of_calls": (calls["schooling.followers_of"] / n, "count"),
        "schooling.followers_of_s": (self_s["schooling.followers_of"] / n, "s"),
        "schooling.leaders_end": (layer["schooling.leaders_end"] / n, "count"),
    }
    for table, ops in STORE_OPS.items():
        for op in ops:
            key = "store.%s.%s" % (table, op)
            out[key + "_calls"] = (calls[key] / n, "count")
            out[key + "_s"] = (self_s[key] / n, "s")
        out["store.%s.get_row_cells" % table] = (
            mean(count["store.%s.get_row_cells" % table], calls["store.%s.get_row" % table]),
            "cells/call",
        )
        out["store.%s.cells_end" % table] = (layer["store.%s.cells_end" % table] / n, "cells")
    out.update({
        "store.age_tick_s": (self_s["store.replay_tick"] / n, "s"),
        "store.age_tick_moved": (count["store.replay_tick_moved"] / n, "cells"),
        "engine.advance_time_s": (tracer.total_s["engine.advance_time"] / n, "s"),
        "nn.knn_s": (self_s["nn.knn"] / n, "s"),
        "nn.nearest_leaders_per_query": (calls["nn.nearest_leaders"] / knn_calls, "calls/query"),
        "nn.rows_scanned_per_query": (count["nn.rows_scanned"] / knn_calls, "rows/query"),
        "nn.objects_expanded_per_query": (count["nn.objects_expanded"] / knn_calls, "objects/query"),
        "nn.cached_level_s": (self_s["nn.cached_level"] / n, "s"),
        "nn.level_cache_hit_ratio": (
            mean(layer["nn.cache_hits"], layer["nn.cache_hits"] + layer["nn.cache_misses"]),
            "ratio",
        ),
        "nn.flag_probes_per_query": (count["nn.flag_probes"] / knn_calls, "probes/query"),
        "archive.append_calls": (calls["archive.append"] / n, "count"),
        "archive.append_s": (self_s["archive.append"] / n, "s"),
        "archive.flushes": (layer["archive.flushes"] / n, "count"),
        "archive.object_pages_scanned": (
            layer["archive.object_pages_scanned"] / max(1, n * wl.object_queries), "pages/query"),
        "archive.object_pages_skipped": (
            layer["archive.object_pages_skipped"] / max(1, n * wl.object_queries), "pages/query"),
        "archive.region_pages_scanned": (
            layer["archive.region_pages_scanned"] / max(1, n * wl.region_queries), "pages/query"),
        "archive.events": (layer["archive.events"] / n, "count"),
        "spatial.encode_calls": (calls["spatial.encode"] / n, "count"),
        "spatial.encode_s": (self_s["spatial.encode"] / n, "s"),
        "spatial.neighbors_calls": (calls["spatial.neighbors"] / n, "count"),
        "workload.generate_s": (generate_s, "s"),
    })
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "shoal" / "__init__.py").is_file():
        print("replaybench: no shoal sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from shoal.workload import Generator, WorkloadConfig

    wl = WORKLOADS[args.workload]
    tracer = Tracer()
    if args.trace:
        install(tracer)
    run_dir = ROOT / ".replaybench_runs" / ("run-%d" % os.getpid())
    try:
        t0 = time.perf_counter()
        trace = list(Generator(WorkloadConfig(seed=args.seed, n_agents=wl.agents, duration=wl.duration)).messages())
        generate_s = time.perf_counter() - t0
        run = Run(wl, args.seed, trace, run_dir, tracer)
        # The trace and the plan live through every round, so they are frozen
        # out of the collector's sight. Automatic collection then stays off:
        # a full collection pauses for tens of milliseconds wherever it falls,
        # which is noise in the few kNN or history calls it lands in. The
        # benchmark collects after each round instead, outside the timings.
        gc.collect()
        gc.freeze()
        gc.disable()
        eng, work = run.engine(0)
        setup_s = since_process_start()

        began = round_began = time.perf_counter()
        longest = 0.0
        while True:
            run.round(eng, work)
            run.tally.cyclic_garbage += gc.collect()
            eng.close()
            del eng
            gc.collect()  # the engine itself: its searcher's clock refers back to it
            shutil.rmtree(work, ignore_errors=True)
            # another round only if one as long as the longest so far fits
            now = time.perf_counter()
            longest = max(longest, now - round_began)
            if args.seconds - (now - began) < longest:
                break
            round_began = now
            eng, work = run.engine(run.tally.rounds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    tally = run.tally
    if len(tally.fingerprints) != 1:
        run.failures["fingerprint"] = [len(tally.fingerprints), "rounds disagree on the behaviour"]
    for fp in sorted(tally.fingerprints):
        print("fingerprint %s seed=%d %s" % (args.workload, args.seed, fp))
    print("rounds=%d updates=%d knn=%d object_queries=%d region_queries=%d cyclic_garbage=%d" % (
        tally.rounds, len(tally.update_s), len(tally.knn_s), len(tally.object_s), len(tally.region_s),
        tally.cyclic_garbage))
    print("seconds: replay=%.3f ingest=%.3f knn=%.3f object=%.3f region=%.3f run=%.3f" % (
        tally.replay_wall, sum(tally.update_s), sum(tally.knn_s), sum(tally.object_s),
        sum(tally.region_s), time.perf_counter() - began))
    print("ungated: " + " ".join(ungated(tally)))
    for msg in tally.errors:
        print("replaybench: operation failed: %s" % msg, file=sys.stderr)
    for name, (times, first) in sorted(run.failures.items()):
        print("replaybench: check %s failed %d times, first: %s" % (name, times, first), file=sys.stderr)
    if args.trace:
        metrics = per_layer(tally, tracer, wl, generate_s)
    else:
        metrics = end_to_end(tally, setup_s, wl)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
