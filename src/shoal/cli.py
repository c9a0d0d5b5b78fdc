"""Benchmark and orchestration command line.

Subcommands:
  simulate     road-network workload through the full engine, per-second report
  nnbench      fixed levels vs adaptive level selection on static populations
  archive-opt  disk-count optimizer (JSON result; --sweep emits the curve)
  scaling      engine ingest throughput at several worker counts
  trace        record a workload to a file / replay a file through the engine

Configuration is a flat key=value text file (--config) plus positional
key=value overrides; --seed and --out are common. Reports are JSON-lines
(one object per line, "type" field) with a CSV rendering of the per-second
series next to it. Exit codes: 0 ok, 2 bad config, 3 infeasible optimization.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
import threading
import time
from contextlib import closing
from typing import Iterable

from .archive import DiskModelParams, InfeasibleError, fill_time, flush_duration, optimize, retrieval_ratio, utilization
from .engine import Engine, EngineConfig
from .nn import FlagConfig, NNQuery
from .schooling import MergeStats, SchoolConfig, StaleUpdateError, UpdateMessage
from .spatial import LevelConfig
from .workload import Generator, TraceError, WorkloadConfig, record_trace, replay_trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


class ConfigError(Exception):
    pass


# -------------------------------------------------------------- configuration


def _parse_kv_line(line: str, where: str) -> tuple[str, str] | None:
    text = line.split("#", 1)[0].strip()
    if not text:
        return None
    if "=" not in text:
        raise ConfigError("%s: expected key=value, got %r" % (where, line.strip()))
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def load_config(path: str | None, overrides: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as f:
                for lineno, line in enumerate(f, start=1):
                    kv = _parse_kv_line(line, "%s:%d" % (path, lineno))
                    if kv:
                        out[kv[0]] = kv[1]
        except OSError as exc:
            raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    for item in overrides:
        kv = _parse_kv_line(item, "override")
        if kv is None:
            raise ConfigError("empty override")
        out[kv[0]] = kv[1]
    return out


def _get(cfg: dict[str, str], key: str, cast, default):
    if key not in cfg:
        return default
    raw = cfg.pop(key)
    try:
        if cast is bool:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except ValueError as exc:
        raise ConfigError("bad value for %s: %r" % (key, raw)) from exc


def _reject_unknown(cfg: dict[str, str]) -> None:
    if cfg:
        raise ConfigError("unknown config keys: %s" % ", ".join(sorted(cfg)))


def _levels(cfg: dict[str, str]) -> LevelConfig:
    return LevelConfig(
        map_size=_get(cfg, "map_size", float, 1000.0),
        key_level=_get(cfg, "key_level", int, 5),
        cluster_level=_get(cfg, "cluster_level", int, 1),
    )


def _school(cfg: dict[str, str]) -> SchoolConfig:
    return SchoolConfig(
        epsilon=_get(cfg, "epsilon", float, 16.0),
        delta_m=_get(cfg, "delta_m", float, 1.0),
        cluster_period=_get(cfg, "cluster_period", float, 5.0),
    )


def _flag(cfg: dict[str, str], levels: LevelConfig) -> FlagConfig:
    return FlagConfig(
        sigma=_get(cfg, "sigma", float, 32.0),
        l_min=_get(cfg, "l_min", int, 1),
        l_max=_get(cfg, "l_max", int, levels.key_level),
        delta_max=_get(cfg, "delta_max", int, 4),
        cache_ttl=_get(cfg, "cache_ttl", float, 60.0),
        cache_max=_get(cfg, "cache_max", int, 4096),
    )


def _disk_params(cfg: dict[str, str]) -> DiskModelParams:
    return DiskModelParams(
        t_rot=_get(cfg, "t_rot", float, 0.005),
        t_seek=_get(cfg, "t_seek", float, 0.005),
        r_disk=_get(cfg, "r_disk", float, 1e8),
        s_rec=_get(cfg, "s_rec", int, 48),
        n_o=_get(cfg, "n_o", int, 1_000_000),
        k=_get(cfg, "k_records", float, 10_000.0),
        update_rate=_get(cfg, "update_rate", float, 10_000.0),
        s_B=_get(cfg, "s_b", float, 0.0),
    )


def _workload(cfg: dict[str, str], seed: int, levels: LevelConfig) -> WorkloadConfig:
    return WorkloadConfig(
        seed=seed,
        n_agents=_get(cfg, "n_agents", int, 1000),
        pedestrian_fraction=_get(cfg, "pedestrian_fraction", float, 0.5),
        map_size=levels.map_size,
        blocks=_get(cfg, "blocks", int, 20),
        pos_noise=_get(cfg, "pos_noise", float, 0.5),
        vel_noise=_get(cfg, "vel_noise", float, 0.05),
        interval_max=_get(cfg, "interval_max", float, 5.0),
        entry_prob=_get(cfg, "entry_prob", float, 0.05),
        exit_prob=_get(cfg, "exit_prob", float, 0.05),
        entry_radius=_get(cfg, "entry_radius", float, 1.0),
        duration=_get(cfg, "duration", float, 60.0),
    )


def _engine_config(cfg: dict[str, str], levels: LevelConfig, **extra) -> EngineConfig:
    """The engine keys that simulate and trace replay share; extra sets the rest."""
    ttl0 = _get(cfg, "tier_ttl", float, 60.0)
    return EngineConfig(
        levels=levels,
        school=_school(cfg),
        flag=_flag(cfg, levels),
        location_ttls=(ttl0, ttl0 * 2, ttl0 * 4),
        archive_enabled=_get(cfg, "archive", bool, True),
        archive_params=_disk_params(cfg),
        n_disks=_get(cfg, "n_disks", int, 4),
        **extra,
    )


def _ingest_batch(engine: Engine, batch: Iterable[UpdateMessage], workers: int = 1) -> list[MergeStats]:
    """Feed updates through engine.ingest, moving the clock to each one first.

    Split by oid % workers over that many threads (inline for one), so each
    object's updates stay in order on one thread. Stale updates are skipped
    (the tracker counts them). Returns the MergeStats of the passes run.
    """

    def feed(msgs: Iterable[UpdateMessage]) -> list[MergeStats]:
        merges = []
        for msg in msgs:
            merges += engine.advance_time(msg.t)
            try:
                engine.ingest(msg)
            except StaleUpdateError:
                pass
        return merges

    if workers <= 1:
        return feed(batch)
    parts: list[list[UpdateMessage]] = [[] for _ in range(workers)]
    for msg in batch:
        parts[msg.oid % workers].append(msg)
    results: list = [None] * workers

    def run(i: int) -> None:
        try:
            results[i] = feed(parts[i])
        except Exception as exc:  # raised again on the calling thread
            results[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for got in results:
        if isinstance(got, Exception):
            raise got
    return [st for merges in results for st in merges]


class _Report:
    """JSON-lines writer with an optional CSV view of the per-second series."""

    def __init__(self, out_base: str):
        self.base = out_base
        os.makedirs(os.path.dirname(os.path.abspath(out_base)) or ".", exist_ok=True)
        self._f = open(out_base + ".jsonl", "w", encoding="utf-8")
        self.seconds: list[dict] = []

    def emit(self, record: dict) -> None:
        self._f.write(json.dumps(record, sort_keys=True))
        self._f.write("\n")
        if record.get("type") == "second":
            self.seconds.append(record)

    def close(self) -> None:
        self._f.close()
        if self.seconds:
            cols = sorted({k for row in self.seconds for k in row if k != "type"})
            with open(self.base + ".csv", "w", newline="", encoding="utf-8") as f:
                w = csv.DictWriter(f, fieldnames=cols, extrasaction="ignore")
                w.writeheader()
                for row in self.seconds:
                    w.writerow({k: row.get(k) for k in cols})


# ------------------------------------------------------------------- simulate


class SimulationRun:
    """Drives workload messages through an engine in per-second buckets.

    Each bucket goes through _ingest_batch on `workers` threads. The clock
    moves with the messages, on whichever thread holds the latest one, so
    reclustering and aging run inside the bucket while the other threads
    ingest. The driving thread then moves the clock to the bucket's end and
    runs the queries and the report there.
    """

    def __init__(
        self,
        engine: Engine,
        gen: Generator,
        workers: int = 1,
        query_rate: float = 0.0,
        query_k: int = 10,
        query_timeout: float = 1.0,
        seed: int = 0,
    ):
        self.engine = engine
        self.gen = gen
        self.workers = max(1, workers)
        self.query_rate = query_rate
        self.query_k = query_k
        self.query_timeout = query_timeout
        self._qrng = random.Random(seed ^ 0x51C2A5)
        self.failed_queries = 0
        self.queries = 0

    def _run_queries(self, now: float) -> tuple[int, int]:
        n = int(self.query_rate)
        frac = self.query_rate - n
        if frac > 0 and self._qrng.random() < frac:
            n += 1
        failed = 0
        size = self.engine.cfg.levels.map_size
        for _ in range(n):
            q = NNQuery(
                self._qrng.uniform(0, size),
                self._qrng.uniform(0, size),
                now,
                self.query_k,
            )
            began = time.monotonic()
            self.engine.searcher.knn(q)
            if time.monotonic() - began > self.query_timeout:
                failed += 1
        self.queries += n
        self.failed_queries += failed
        return n, failed

    def run(self, duration: float, report: _Report | None = None) -> dict:
        engine, tracker = self.engine, self.engine.tracker
        store_tables = list(engine.store.tables())
        last = {
            "updates": 0, "sheds": 0, "leader_updates": 0, "promotions": 0,
            "registrations": 0, "rejected": 0, "writes": 0,
        }

        def writes_now() -> int:
            return sum(t.puts + t.deletes for t in store_tables)

        n_buckets = int(math.ceil(duration))
        for sec in range(1, n_buckets + 1):
            boundary = min(float(sec), duration)
            merges = _ingest_batch(engine, self.gen.step(boundary), self.workers)
            merges += engine.advance_time(boundary)
            queries, failed = self._run_queries(boundary)
            cur = {
                "updates": tracker.updates, "sheds": tracker.sheds,
                "leader_updates": tracker.leader_updates,
                "promotions": tracker.promotions,
                "registrations": tracker.registrations,
                "rejected": tracker.rejected, "writes": writes_now(),
            }
            if report is not None:
                report.emit({
                    "type": "second",
                    "t": boundary,
                    "received": cur["updates"] - last["updates"],
                    "shed": cur["sheds"] - last["sheds"],
                    "written": (cur["leader_updates"] - last["leader_updates"])
                    + (cur["promotions"] - last["promotions"])
                    + (cur["registrations"] - last["registrations"]),
                    "rejected": cur["rejected"] - last["rejected"],
                    "store_writes": cur["writes"] - last["writes"],
                    "os_count": tracker.leader_count,
                    "objects": tracker.object_count,
                    "queries": queries,
                    "failed_queries": failed,
                })
                for st in merges:
                    report.emit({
                        "type": "clustering",
                        "t": boundary,
                        "cell": st.cell.text(),
                        "leaders_before": st.leaders_before,
                        "leaders_after": st.leaders_after,
                        "read_time": st.read_time,
                        "compute_time": st.compute_time,
                        "write_time": st.write_time,
                    })
            last = cur
        received = tracker.updates
        summary = {
            "type": "summary",
            "received": received,
            "shed": tracker.sheds,
            "shed_rate": tracker.sheds / received if received else 0.0,
            "leader_updates": tracker.leader_updates,
            "promotions": tracker.promotions,
            "registrations": tracker.registrations,
            "rejected": tracker.rejected,
            "merges": tracker.merges,
            "os_count": tracker.leader_count,
            "objects": tracker.object_count,
            "store_writes": writes_now(),
            "queries": self.queries,
            "failed_queries": self.failed_queries,
        }
        if engine.archive is not None:
            summary["archived_records"] = engine.archive.appended
            summary["blocked_appends"] = engine.archive.blocked_appends
        if report is not None:
            report.emit(summary)
        return summary


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.overrides)
    levels = _levels(cfg)
    wl = _workload(cfg, args.seed, levels)
    workers = _get(cfg, "workers", int, 1)
    query_rate = _get(cfg, "query_rate", float, 1.0)
    query_k = _get(cfg, "query_k", int, 10)
    query_timeout = _get(cfg, "query_timeout", float, 1.0)
    ecfg = _engine_config(
        cfg, levels,
        age_interval=_get(cfg, "age_interval", float, 1.0),
        work_dir=_get(cfg, "work_dir", str, None),
    )
    _reject_unknown(cfg)

    engine = Engine(ecfg)
    gen = Generator(wl)
    report = _Report(args.out)
    report.emit({
        "type": "config", "command": "simulate", "seed": args.seed,
        "duration": wl.duration, "n_agents": wl.n_agents, "workers": workers,
        "epsilon": ecfg.school.epsilon, "delta_m": ecfg.school.delta_m,
        "cluster_period": ecfg.school.cluster_period,
        "key_level": levels.key_level, "cluster_level": levels.cluster_level,
        "map_size": levels.map_size, "sigma": ecfg.flag.sigma,
    })
    run = SimulationRun(
        engine, gen,
        workers=workers, query_rate=query_rate, query_k=query_k,
        query_timeout=query_timeout, seed=args.seed,
    )
    try:
        summary = run.run(wl.duration, report)
    finally:
        report.close()
        engine.close()
    print("simulate: %d updates, shed rate %.3f, %d schools, report %s.jsonl" % (
        summary["received"], summary["shed_rate"], summary["os_count"], args.out))
    return EXIT_OK


# -------------------------------------------------------------------- nnbench


def _static_population(n: int, levels: LevelConfig, flag: FlagConfig, seed: int) -> Engine:
    """n motionless leaders uniform over the map at t = 1, on an engine with
    clustering and the archive off."""
    rng = random.Random(seed)
    engine = Engine(EngineConfig(
        levels=levels, school=SchoolConfig(cluster_period=math.inf), flag=flag, archive_enabled=False))
    size = levels.map_size
    _ingest_batch(engine, (
        UpdateMessage(oid, 1.0, rng.uniform(0, size), rng.uniform(0, size), 0.0, 0.0) for oid in range(n)))
    return engine


def _brute_force_knn(engine: Engine, q: NNQuery) -> list[tuple[float, int]]:
    """Oracle: squared distance over every modeled object location."""
    out = []
    for oid, (x, y) in engine.tracker.all_locations(q.t):
        dx = x - q.x
        dy = y - q.y
        out.append((dx * dx + dy * dy, oid))
    out.sort()
    return out[: q.k]


def cmd_nnbench(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.overrides)
    levels = _levels(cfg)
    flag = _flag(cfg, levels)
    densities = [int(v) for v in _get(cfg, "densities", str, "1000,10000,50000,100000").split(",")]
    fixed_levels = [int(v) for v in _get(cfg, "fixed_levels", str, "1,2,3,4,5").split(",")]
    n_queries = _get(cfg, "queries", int, 200)
    exact_sample = _get(cfg, "exact_sample", int, 1000)
    query_k = _get(cfg, "query_k", int, 10)
    _reject_unknown(cfg)

    report = _Report(args.out)
    report.emit({
        "type": "config", "command": "nnbench", "seed": args.seed,
        "densities": densities, "fixed_levels": fixed_levels,
        "queries": n_queries, "query_k": query_k, "sigma": flag.sigma,
    })
    rng = random.Random(args.seed ^ 0xBE7C4)
    mismatches = 0
    exact_checked = 0
    rows_by_level: dict[int, dict[str, float]] = {}
    try:
        for density in densities:
            with closing(_static_population(density, levels, flag, args.seed)) as engine:
                searcher = engine.searcher
                points = [
                    (rng.uniform(0, levels.map_size), rng.uniform(0, levels.map_size))
                    for _ in range(n_queries)
                ]
                results: dict[str, float] = {}
                for level in fixed_levels:
                    rows = 0
                    began = time.monotonic()
                    for x, y in points:
                        searcher.knn(NNQuery(x, y, 1.0, query_k), l_n=level)
                        rows += searcher.last_stats.rows_scanned
                    elapsed = time.monotonic() - began
                    results[str(level)] = rows / n_queries
                    report.emit({
                        "type": "nnbench", "density": density, "level": level,
                        "rows_per_query": rows / n_queries,
                        "latency_ms": 1e3 * elapsed / n_queries,
                    })
                for x, y in points:  # warm the level cache so probes amortize
                    searcher.cached_level((x, y), None)
                rows = 0
                began = time.monotonic()
                for x, y in points:
                    searcher.knn(NNQuery(x, y, 1.0, query_k))
                    rows += searcher.last_stats.rows_scanned
                elapsed = time.monotonic() - began
                results["flag"] = rows / n_queries
                report.emit({
                    "type": "nnbench", "density": density, "level": "flag",
                    "rows_per_query": rows / n_queries,
                    "latency_ms": 1e3 * elapsed / n_queries,
                    "cache_hits": searcher.cache_hits,
                    "cache_misses": searcher.cache_misses,
                })
                rows_by_level[density] = results
                per_density = max(1, exact_sample // max(1, len(densities)))
                for _ in range(per_density):
                    x = rng.uniform(0, levels.map_size)
                    y = rng.uniform(0, levels.map_size)
                    q = NNQuery(x, y, 1.0, query_k)
                    got = [nb.oid for nb in searcher.knn(q)]
                    want = [oid for _, oid in _brute_force_knn(engine, q)]
                    exact_checked += 1
                    if got != want:
                        mismatches += 1
        best = {
            d: min(v for k, v in res.items() if k != "flag")
            for d, res in rows_by_level.items()
        }
        report.emit({
            "type": "summary",
            "exact_checked": exact_checked,
            "mismatches": mismatches,
            "flag_vs_best": {
                str(d): rows_by_level[d]["flag"] / best[d] if best[d] else 0.0
                for d in rows_by_level
            },
        })
    finally:
        report.close()
    print("nnbench: %d exactness checks, %d mismatches, report %s.jsonl" % (
        exact_checked, mismatches, args.out))
    return EXIT_OK


# ---------------------------------------------------------------- archive-opt


def cmd_archive_opt(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.overrides)
    params = _disk_params(cfg)
    n_d_max = _get(cfg, "n_d_max", int, 4096)
    _reject_unknown(cfg)
    if args.sweep:
        path = args.out + ".csv"
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["n_d", "u_d", "r_d", "objective", "t_d", "t_m", "feasible"])
            t_m = fill_time(params)
            for n in range(1, min(n_d_max, 1024) + 1):
                u = utilization(params, n)
                r = retrieval_ratio(params, n)
                t_d = flush_duration(params, n)
                w.writerow([n, u, r, min(u, r), t_d, t_m, int(t_m >= t_d)])
        print("archive-opt: sweep written to %s" % path)
    try:
        res = optimize(params, n_d_max)
    except InfeasibleError as exc:
        print(json.dumps({"error": "infeasible", "detail": str(exc)}))
        return EXIT_INFEASIBLE
    print(json.dumps({
        "n_d": res.n_d, "u_d": res.u_d, "r_d": res.r_d,
        "t_d": res.t_d, "t_m": res.t_m, "constrained": res.constrained,
    }, sort_keys=True))
    return EXIT_OK


# -------------------------------------------------------------------- scaling


def cmd_scaling(args: argparse.Namespace) -> int:
    """Engine ingest throughput per worker count, each on a fresh engine with the
    archive off; the clock's reclustering and aging count in the time."""
    cfg = load_config(args.config, args.overrides)
    levels = _levels(cfg)
    school = _school(cfg)
    wl = _workload(cfg, args.seed, levels)
    workers_list = [int(v) for v in _get(cfg, "workers", str, "1,2,4").split(",")]
    _reject_unknown(cfg)

    messages = list(Generator(wl).messages())
    report = _Report(args.out)
    report.emit({
        "type": "config", "command": "scaling", "seed": args.seed,
        "n_agents": wl.n_agents, "duration": wl.duration,
        "messages": len(messages), "workers": workers_list,
    })
    base = None
    try:
        for w in workers_list:
            with closing(Engine(EngineConfig(levels=levels, school=school, archive_enabled=False))) as engine:
                began = time.monotonic()
                _ingest_batch(engine, messages, w)
                elapsed = time.monotonic() - began
            throughput = len(messages) / elapsed if elapsed > 0 else 0.0
            if base is None:
                base = throughput
            report.emit({
                "type": "scaling", "workers": w,
                "throughput": throughput,
                "speedup": throughput / base if base else 0.0,
                "elapsed": elapsed,
            })
            print("scaling: W=%d %.0f updates/s (%.2fx)" % (
                w, throughput, throughput / base if base else 0.0))
    finally:
        report.close()
    return EXIT_OK


# ---------------------------------------------------------------------- trace


def cmd_trace_record(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.overrides)
    levels = _levels(cfg)
    wl = _workload(cfg, args.seed, levels)
    _reject_unknown(cfg)
    path = args.out + ".trace" if not args.out.endswith(".trace") else args.out
    n = record_trace(wl, path)
    print("trace: %d updates written to %s" % (n, path))
    return EXIT_OK


def cmd_trace_replay(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.overrides)
    ecfg = _engine_config(cfg, _levels(cfg))
    _reject_unknown(cfg)
    engine = Engine(ecfg)
    try:
        _ingest_batch(engine, replay_trace(args.trace))
        engine.drain()
    except TraceError as exc:
        print("replay failed: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    finally:
        engine.close()
    tracker = engine.tracker
    n = tracker.updates + tracker.rejected
    print("replay: %d updates, shed rate %.3f, %d rejected, %d archived" % (
        n, tracker.sheds / n if n else 0.0, tracker.rejected,
        engine.archive.appended if engine.archive else 0))
    return EXIT_OK


# ----------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="shoal", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--config", default=None, help="key=value file")
        sp.add_argument("--out", default="report", help="output base path")
        sp.add_argument("overrides", nargs="*", help="key=value overrides")

    common(sub.add_parser("simulate", help="full engine over the road workload"))
    common(sub.add_parser("nnbench", help="fixed levels vs adaptive selection"))
    opt = sub.add_parser("archive-opt", help="disk-count optimizer")
    opt.add_argument("--sweep", action="store_true", help="emit the full curve as CSV")
    common(opt)
    common(sub.add_parser("scaling", help="worker-count ingest throughput"))
    tr = sub.add_parser("trace", help="record or replay workload traces")
    tsub = tr.add_subparsers(dest="trace_command", required=True)
    common(tsub.add_parser("record", help="write a trace file"))
    rp = tsub.add_parser("replay", help="replay a trace through the engine")
    rp.add_argument("trace", help="trace file path")
    common(rp)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "nnbench":
            return cmd_nnbench(args)
        if args.command == "archive-opt":
            return cmd_archive_opt(args)
        if args.command == "scaling":
            return cmd_scaling(args)
        if args.command == "trace":
            if args.trace_command == "record":
                return cmd_trace_record(args)
            return cmd_trace_replay(args)
        raise ConfigError("unknown command %r" % args.command)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
