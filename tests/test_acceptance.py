"""End-to-end acceptance: ten numbered behavioral criteria.

Each test evaluates one criterion at its stated tolerance and prints a single
``[criterion NN] PASS/FAIL`` line with the measured numbers (visible under
``pytest -s``; the assertion message carries the same line on failure).

These are deliberately heavier than the unit tests: million-record replays,
oracle sweeps, density benchmarks. Expect the whole module to take minutes.
"""

import dataclasses
import math
import os
import random
import struct
import threading
import time
from collections import Counter

import numpy as np
import pytest

from shoal import spatial
from shoal.archive import (
    DiskModelParams,
    InfeasibleError,
    fill_time,
    flush_duration,
    optimize,
    retrieval_ratio,
    utilization,
)
from shoal.engine import Engine, EngineConfig
from shoal.nn import FlagConfig, NNQuery, Searcher
from shoal.schooling import Outcome, SchoolConfig, Tracker, UpdateMessage
from shoal.spatial import LevelConfig, SpatialIndex
from shoal.store import Store
from shoal.workload import Generator, WorkloadConfig


def report(num: int, ok: bool, detail: str) -> None:
    line = "[criterion %02d] %s  %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line, flush=True)
    assert ok, line


# --------------------------------------------------------------------- 1


def test_criterion_01_curve_invariants():
    """Round-trips, consecutive-cell adjacency, key ranges vs descendants."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)

    # 10^6 randomized round-trips through the batch kernels, both
    # directions, spread over random levels.
    total = 0
    bad = 0
    while total < 1_000_000:
        n = 100_000
        level = int(rng.integers(1, 29))
        side = 1 << level
        gx = rng.integers(0, side, n, dtype=np.int64)
        gy = rng.integers(0, side, n, dtype=np.int64)
        ds = spatial.encode_cells(gx, gy, level)
        rx, ry = spatial.decode_cells(ds, level)
        bad += int(np.count_nonzero(rx != gx) + np.count_nonzero(ry != gy))
        ds2 = rng.integers(0, side * side, n, dtype=np.int64)
        x2, y2 = spatial.decode_cells(ds2, level)
        bad += int(np.count_nonzero(spatial.encode_cells(x2, y2, level) != ds2))
        total += n

    # Point-level round-trip through the public API: the decoded box
    # contains the encoded point (closed upper edges on the map boundary).
    cfg = LevelConfig(map_size=1000.0, key_level=28, cluster_level=0)
    prng = random.Random(9)
    pts = [(prng.uniform(0, 1000), prng.uniform(0, 1000)) for _ in range(20_000)]
    pts += [(0.0, 0.0), (1000.0, 1000.0), (0.0, 1000.0), (500.0, 1000.0)]
    for p in pts:
        level = prng.randint(1, 16)
        box = spatial.decode(spatial.encode(p, level, cfg), cfg)
        if not box.contains(p, cfg.map_size):
            bad += 1

    # Exhaustive adjacency: consecutive curve indexes are edge neighbors.
    for level in range(1, 9):
        ds = np.arange(1 << (2 * level), dtype=np.int64)
        ox, oy = spatial.decode_cells(ds, level)
        step = np.abs(np.diff(ox)) + np.abs(np.diff(oy))
        bad += int(np.count_nonzero(step != 1))

    # key_range vs descendant enumeration, exhaustive at key level 8 for
    # ancestors up to four levels coarser. Keys must be in curve order, the
    # range must open at the first descendant and close just past the last,
    # and dotted per-object suffixes of boundary cells must stay inside.
    ls = 8
    keys = [SpatialIndex(ls, v).key() for v in range(1 << (2 * ls))]
    for a, b in zip(keys, keys[1:]):
        if not a < b:
            bad += 1
    n_keys = len(keys)
    for d in range(5):
        lp = ls - d
        span = 1 << (2 * d)
        for v in range(1 << (2 * lp)):
            start, end = spatial.key_range(SpatialIndex(lp, v), ls)
            lo, hi = v * span, (v + 1) * span
            if start != keys[lo]:
                bad += 1
            if end != (keys[hi] if hi < n_keys else b"4"):
                bad += 1
            if keys[hi - 1] + b".42" >= end:  # suffixed rows of last child
                bad += 1
            if lo > 0 and keys[lo - 1] + b".42" >= start:
                bad += 1

    dt = time.perf_counter() - t0
    report(1, bad == 0 and dt < 60.0,
           "violations=%d round_trips=%d runtime=%.1fs (limit 60s)" % (bad, total, dt))


# --------------------------------------------------------------------- 2


def _brute_knn(locs, q):
    cands = [((x - q.x) ** 2 + (y - q.y) ** 2, oid, x, y) for oid, x, y in locs]
    cands.sort(key=lambda c: (c[0], c[1]))
    return cands[: q.k]


def test_criterion_02_knn_matches_oracle(tmp_path):
    """10,000 random queries against a brute-force modeled-position oracle."""
    t0 = time.perf_counter()
    levels = LevelConfig(map_size=1000.0, key_level=8, cluster_level=4)
    rng = random.Random(77)
    shapes = [(300, 0), (250, 1), (400, 2), (500, 3), (660, 2)]
    query_times = (0.0, 1.5, 3.0)
    checked = 0
    mismatches = 0

    for pi, (n_leaders, fper) in enumerate(shapes):
        store = Store(tier_dir=str(tmp_path / ("p%d" % pi)))
        tr = Tracker(store, levels, SchoolConfig(epsilon=5.0, cluster_period=math.inf),
                     location_ttls=(math.inf,))
        oid = 0
        for _ in range(n_leaders):
            lid = oid
            tr.process_update(UpdateMessage(lid, 0.0, rng.uniform(1, 999),
                                            rng.uniform(1, 999),
                                            rng.uniform(-2, 2), rng.uniform(-2, 2)))
            oid += 1
            rec = tr.latest_record(lid)
            for _ in range(fper):
                tr.process_update(UpdateMessage(
                    oid, 0.0,
                    min(998.0, max(1.0, rec.x + rng.uniform(-4, 4))),
                    min(998.0, max(1.0, rec.y + rng.uniform(-4, 4))),
                    rec.vx, rec.vy))
                assert tr.merge_schools(lid, oid, 0.0)
                oid += 1

        # population is static from here on: modeled positions depend on t only
        locs_at = {t: [(o, x, y) for o, (x, y) in tr.all_locations(t)]
                   for t in query_times}
        searchers = {s: Searcher(tr, FlagConfig(sigma=s, cache_ttl=1e9),
                                 clock=lambda: 0.0) for s in (2.0, 8.0, 32.0)}
        plain = Searcher(tr)

        for _ in range(2000):
            q = NNQuery(rng.uniform(0, 1000), rng.uniform(0, 1000),
                        rng.choice(query_times), rng.randint(1, 50))
            if rng.random() < 0.5:
                got = plain.knn(q, l_n=rng.randint(0, levels.key_level))
            else:
                got = searchers[rng.choice([2.0, 8.0, 32.0])].knn(q)
            want = _brute_knn(locs_at[q.t], q)
            checked += 1
            if ([n.oid for n in got] != [w[1] for w in want]
                    or any(n.x != w[2] or n.y != w[3]
                           or not math.isclose(n.dist, math.sqrt(w[0]), rel_tol=1e-12, abs_tol=1e-12)
                           for n, w in zip(got, want))):
                mismatches += 1
        store.close()

    dt = time.perf_counter() - t0
    report(2, checked == 10_000 and mismatches == 0 and dt < 300.0,
           "queries=%d mismatches=%d runtime=%.1fs (limit 300s)" % (checked, mismatches, dt))


# --------------------------------------------------------------------- 3


def _run_shed(seed, n_agents, duration, tmp_path, tag):
    eng = Engine(EngineConfig(archive_enabled=False,
                              work_dir=str(tmp_path / tag)))
    gen = Generator(WorkloadConfig(seed=seed, n_agents=n_agents, duration=duration))
    for m in gen.messages():
        eng.ingest(m)
    rate = eng.tracker.sheds / max(1, eng.tracker.updates)
    eng.close()
    return rate


def test_criterion_03_update_shedding(tmp_path):
    """Default workload and epsilon: most updates never touch the store."""
    r1k = _run_shed(7, 1_000, 600.0, tmp_path, "s1k")
    r10k = _run_shed(7, 10_000, 600.0, tmp_path, "s10k")
    report(3, r1k >= 0.75 and r10k >= 0.70,
           "shed@1k=%.3f (need >=0.75) shed@10k=%.3f (need >=0.70)" % (r1k, r10k))


# --------------------------------------------------------------------- 4


def test_criterion_04_epsilon_monotonicity(tmp_path):
    """School count falls with the deviation threshold, near-linearly.

    Long report intervals and low position noise keep the sweep in the
    regime where the deviation latency, not reporting jitter, sets the
    school count, so the five-point correlation is meaningful.
    """
    eps_values = [1.0, 2.0, 4.0, 8.0, 16.0]
    avgs = []
    for eps in eps_values:
        eng = Engine(EngineConfig(
            school=SchoolConfig(epsilon=eps, delta_m=1.0, cluster_period=5.0),
            location_ttls=(math.inf,),
            archive_enabled=False,
            work_dir=str(tmp_path / ("e%g" % eps))))
        gen = Generator(WorkloadConfig(seed=11, n_agents=1000, duration=450.0,
                                       interval_max=30.0, pos_noise=0.05))
        samples = []
        next_s = 1.0
        for m in gen.messages():
            while m.t >= next_s:
                eng.advance_time(next_s)
                samples.append(eng.tracker.leader_count)
                next_s += 1.0
            eng.ingest(m)
        eng.close()
        avgs.append(float(np.mean(samples)))
    mono = all(b <= a for a, b in zip(avgs, avgs[1:]))
    pearson = float(np.corrcoef(eps_values, avgs)[0, 1])
    report(4, mono and pearson <= -0.9,
           "avg_os=%s monotone=%s pearson=%.3f (need <= -0.9)"
           % ([round(a, 1) for a in avgs], mono, pearson))


# --------------------------------------------------------------------- 5


def _cell_of_leaders(tmp_path, tag, n):
    """n leaders inside clustering cell 0, every velocity in its own bin."""
    levels = LevelConfig(map_size=1000.0, key_level=5, cluster_level=1)
    store = Store(tier_dir=str(tmp_path / tag))
    tr = Tracker(store, levels, SchoolConfig(epsilon=5.0, delta_m=1.0,
                                             cluster_period=math.inf),
                 location_ttls=(math.inf,))
    cell = SpatialIndex(1, 0)
    box = spatial.decode(cell, levels)
    rng = random.Random(31 + n)
    for i in range(n):
        x = rng.uniform(box.x_min + 1, box.x_max - 1)
        y = rng.uniform(box.y_min + 1, box.y_max - 1)
        tr.process_update(UpdateMessage(i, 0.0, x, y, 2.0 * (i + 1), 0.0))
    return store, tr, cell


def test_criterion_05_clustering_linearity(tmp_path):
    """Recluster compute phase grows linearly in the leader count.

    Amortized as the median of 100 interleaved runs per size: on a shared
    single-CPU host a lone scheduler preemption inside one pass is tens of
    milliseconds, which would swamp a sum of sub-millisecond phases.
    """
    import gc

    store1, tr1, cell = _cell_of_leaders(tmp_path, "c1k", 1000)
    store2, tr2, _ = _cell_of_leaders(tmp_path, "c2k", 2000)
    t1 = []
    t2 = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):  # interleave so clock drift hits both sides alike
            s = tr1.recluster_cell(cell, 1.0)
            assert s.leaders_before == 1000 and s.leaders_after == 1000
            t1.append(s.compute_time)
            s = tr2.recluster_cell(cell, 1.0)
            assert s.leaders_before == 2000 and s.leaders_after == 2000
            t2.append(s.compute_time)
    finally:
        gc.enable()
    store1.close()
    store2.close()
    m1 = float(np.median(t1))
    m2 = float(np.median(t2))
    ratio = m2 / m1
    report(5, ratio <= 2.5,
           "compute 2k/1k ratio=%.2f over 100 runs (need <= 2.5; median 1k=%.2fms 2k=%.2fms)"
           % (ratio, m1 * 1e3, m2 * 1e3))


# --------------------------------------------------------------------- 6


def test_criterion_06_adaptive_level_effectiveness(tmp_path):
    """Adaptive level selection stays near the best fixed level everywhere."""
    levels = LevelConfig(map_size=1000.0, key_level=8, cluster_level=4)
    densities = [1_000, 10_000, 50_000, 100_000]
    fixed_levels = [1, 2, 3, 4, 5]
    rng = random.Random(123)
    queries = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(200)]
    rows = {l: {} for l in fixed_levels}  # level -> density -> rows/query
    flag_rows = {}

    for den in densities:
        store = Store(tier_dir=str(tmp_path / ("d%d" % den)))
        tr = Tracker(store, levels,
                     SchoolConfig(epsilon=16.0, cluster_period=math.inf),
                     location_ttls=(math.inf,))
        prng = random.Random(den)
        for oid in range(den):
            tr.process_update(UpdateMessage(oid, 0.0, prng.uniform(0.5, 999.5),
                                            prng.uniform(0.5, 999.5), 0.0, 0.0))
        plain = Searcher(tr)
        for l in fixed_levels:
            total = 0
            for x, y in queries:
                plain.knn(NNQuery(x, y, 0.0, 10), l_n=l)
                total += plain.last_stats.rows_scanned
            rows[l][den] = total / len(queries)
        flag = Searcher(tr, FlagConfig(sigma=4.0, l_min=1, l_max=8,
                                       cache_ttl=1e9, cache_max=8192),
                        clock=lambda: 0.0)
        for pt in queries:  # steady state: level cache warmed once
            flag.cached_level(pt, None)
        total = 0
        for x, y in queries:
            flag.knn(NNQuery(x, y, 0.0, 10))
            total += flag.last_stats.rows_scanned
        flag_rows[den] = total / len(queries)
        store.close()

    worst_ratio = 0.0
    ok = True
    for den in densities:
        best = min(rows[l][den] for l in fixed_levels)
        worst_ratio = max(worst_ratio, flag_rows[den] / best)
        if flag_rows[den] > 2.0 * best:
            ok = False
    min_spread = math.inf
    for l in fixed_levels:
        own = rows[l]
        spread = max(own.values()) / min(own.values())
        min_spread = min(min_spread, spread)
        if spread < 4.0:
            ok = False
    report(6, ok,
           "flag_vs_best worst=%.2f (need <= 2.0); fixed-level spread min=%.1f (need >= 4.0); "
           "flag rows/query=%s" % (worst_ratio, min_spread,
                                   {d: round(r, 1) for d, r in flag_rows.items()}))


# --------------------------------------------------------------------- 7


def test_criterion_07_optimizer_matches_sweep():
    """Disk-count choice equals the integer sweep argmax; U/R are monotone."""
    n_max = 4096

    def brute(params):
        feas = []
        for n in range(1, n_max + 1):
            if fill_time(params) >= flush_duration(params, n):
                feas.append(n)
        if not feas:
            raise InfeasibleError("no feasible disk count")
        return min(feas, key=lambda n: (-min(utilization(params, n),
                                             retrieval_ratio(params, n)), n))

    rng = random.Random(555)
    checked = 0
    agree = 0
    mono_bad = 0
    for _ in range(100):
        params = DiskModelParams(
            t_rot=10 ** rng.uniform(-4, -1.5),
            t_seek=10 ** rng.uniform(-4, -1.5),
            r_disk=10 ** rng.uniform(6, 9),
            s_rec=float(rng.choice([16, 32, 48, 64, 128, 256])),
            n_o=10 ** rng.uniform(4, 7),
            k=10 ** rng.uniform(2, 4),
            update_rate=10 ** rng.uniform(2, 6),
            s_B=10 ** rng.uniform(5, 9),
        )
        us = [utilization(params, n) for n in range(1, n_max + 1)]
        rs = [retrieval_ratio(params, n) for n in range(1, n_max + 1)]
        mono_bad += sum(1 for a, b in zip(us, us[1:]) if b > a + 1e-12)
        mono_bad += sum(1 for a, b in zip(rs, rs[1:]) if b < a - 1e-12)
        try:
            want = brute(params)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                optimize(params, n_max)
            checked += 1
            agree += 1
            continue
        got = optimize(params, n_max)
        checked += 1
        agree += got.n_d == want

    # closed-form corner: both ratios saturate at 1 and the bound is exact
    ex = optimize(DiskModelParams(t_rot=0.005, t_seek=0.005, r_disk=1e8,
                                  s_rec=48.0, n_o=1e6, k=1e4,
                                  update_rate=1e4, s_B=1e8))
    example_ok = (ex.n_d == 100 and math.isclose(ex.u_d, 1.0)
                  and math.isclose(ex.r_d, 1.0) and math.isclose(ex.t_d, 0.02)
                  and not ex.constrained)
    report(7, agree == checked == 100 and mono_bad == 0 and example_ok,
           "sweep_agreement=%d/100 monotonicity_violations=%d example(n_d=%d u=%.3f r=%.3f t_d=%.4f)"
           % (agree, mono_bad, ex.n_d, ex.u_d, ex.r_d, ex.t_d))


# --------------------------------------------------------------------- 8


_PAGE_HEADER = struct.Struct("<4sIQQII")
_RECORD = struct.Struct("<QQdddd")


def _read_archive_pages(pages_dir):
    """Parse every page file: Counter of (oid, ts) plus oid -> disks seen."""
    archived = Counter()
    disks_of = {}
    for name in sorted(os.listdir(pages_dir)):
        with open(os.path.join(pages_dir, name), "rb") as f:
            while True:
                head = f.read(_PAGE_HEADER.size)
                if not head:
                    break
                magic, count, _min_ts, _max_ts, disk_idx, _seq = _PAGE_HEADER.unpack(head)
                assert magic == b"MOPG"
                for _ in range(count):
                    oid, ts, _x, _y, _vx, _vy = _RECORD.unpack(f.read(_RECORD.size))
                    archived[(oid, ts)] += 1
                    disks_of.setdefault(oid, set()).add(disk_idx)
    return archived, disks_of


def _replay_archive(tmp_path, tag, params):
    eng = Engine(EngineConfig(
        location_ttls=(20.0, 40.0),
        archive_params=params,
        n_disks=4,
        work_dir=str(tmp_path / tag)))
    gen = Generator(WorkloadConfig(seed=4242, n_agents=2000, duration=1300.0))
    written = Counter()
    n_msgs = 0
    for m in gen.messages():
        n_msgs += 1
        out = eng.ingest(m)
        if out.kind is not Outcome.SHED:  # every non-shed writes one record
            written[(m.oid, int(round(m.t * 1e6)))] += 1
    eng.drain()
    blocked = eng.archive.blocked_appends
    appended = eng.archive.appended
    eng.close()
    return eng.work_dir, written, n_msgs, blocked, appended


def test_criterion_08_archive_pipeline(tmp_path):
    """A million-record replay survives aging and archiving losslessly."""
    params = DiskModelParams(t_rot=0.005, t_seek=0.005, r_disk=1e8, s_rec=48.0,
                             n_o=1e6, k=1e4, update_rate=300.0, s_B=49152.0)
    wd, written, n_msgs, blocked_ok, appended = _replay_archive(tmp_path, "ok", params)
    archived, disks_of = _read_archive_pages(os.path.join(wd, "pages"))

    lossless = archived == written
    single_disk = all(len(d) == 1 for d in disks_of.values())
    realized = dataclasses.replace(params, update_rate=appended / 1300.0)
    t_m = fill_time(realized)
    t_d_ok = flush_duration(params, 4)

    # same trace, flushes slowed past twice the realized fill time
    params_bad = dataclasses.replace(params, r_disk=300.0)
    t_d_bad = flush_duration(params_bad, 4)
    _, _, _, blocked_bad, _ = _replay_archive(tmp_path, "bad", params_bad)

    report(8, (n_msgs >= 1_000_000 and lossless and single_disk
               and t_m >= t_d_ok and blocked_ok == 0
               and t_d_bad >= 2 * t_m and blocked_bad > 0),
           "trace=%d records=%d lossless=%s single_disk=%s "
           "T_m=%.2fs T_d=%.4fs blocked=%d | slowed T_d=%.1fs blocked=%d"
           % (n_msgs, sum(written.values()), lossless, single_disk,
              t_m, t_d_ok, blocked_ok, t_d_bad, blocked_bad))


# --------------------------------------------------------------------- 9


def test_criterion_09_affiliation_fuzz(tmp_path):
    """10^5 random update/recluster interleavings keep the tables mirrored."""
    levels = LevelConfig(map_size=1000.0, key_level=5, cluster_level=1)
    store = Store(tier_dir=str(tmp_path / "fuzz"))
    tr = Tracker(store, levels, SchoolConfig(epsilon=5.0, delta_m=1.0,
                                             cluster_period=math.inf),
                 location_ttls=(math.inf,))
    rng = random.Random(2718)
    n_obj = 500
    vel_choices = [(0.0, 0.0), (1.2, 0.0), (0.0, 1.2), (-1.2, 0.0),
                   (0.0, -1.2), (1.2, 1.2)]
    pos = {}
    vel = {}
    t = 0.0
    checks = 0
    kinds = Counter()
    for step in range(100_000):
        t += 0.002
        if rng.random() < 0.03:
            cell = SpatialIndex(1, rng.randrange(4))
            tr.recluster_cell(cell, t)
            kinds["recluster"] += 1
        else:
            oid = rng.randrange(n_obj)
            if oid not in pos or rng.random() < 0.02:
                pos[oid] = (rng.uniform(5, 995), rng.uniform(5, 995))
                vel[oid] = rng.choice(vel_choices)
            else:
                x, y = pos[oid]
                pos[oid] = (min(995.0, max(5.0, x + rng.uniform(-3, 3))),
                            min(995.0, max(5.0, y + rng.uniform(-3, 3))))
                if rng.random() < 0.1:
                    vel[oid] = rng.choice(vel_choices)
            out = tr.process_update(UpdateMessage(oid, t, *pos[oid], *vel[oid]))
            kinds[out.kind.value] += 1
        if step % 2000 == 1999:  # quiescent: nothing in flight between ops
            tr.check_consistency()
            checks += 1
    tr.check_consistency()
    checks += 1
    store.close()
    mixed = all(kinds[k] > 0 for k in ("shed", "promoted", "leader_updated", "recluster"))
    report(9, mixed and tr.merges > 0,
           "ops=100000 checks=%d outcomes=%s merges=%d"
           % (checks, dict(kinds), tr.merges))


# -------------------------------------------------------------------- 10


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 8,
    reason="ingest-scaling criterion applies on machines with >= 8 hardware "
           "threads; os.cpu_count() reports %d here" % (os.cpu_count() or 1))
def test_criterion_10_ingest_scaling(tmp_path):
    """Four ingest workers beat one by at least 2.8x on distinct id ranges."""
    n_per_worker = 50_000
    n_obj = 2_000

    def worker_messages(w):
        rng = random.Random(100 + w)
        base = w * n_obj
        t = 0.0
        out = []
        for _ in range(n_per_worker):
            t += 0.001
            out.append(UpdateMessage(base + rng.randrange(n_obj), t,
                                     rng.uniform(1, 999), rng.uniform(1, 999),
                                     rng.uniform(-2, 2), rng.uniform(-2, 2)))
        return out

    def throughput(workers):
        store = Store(tier_dir=str(tmp_path / ("w%d" % workers)))
        tr = Tracker(store, LevelConfig(),
                     SchoolConfig(cluster_period=math.inf),
                     location_ttls=(math.inf,))
        batches = [worker_messages(w) for w in range(workers)]
        barrier = threading.Barrier(workers + 1)

        def pump(batch):
            barrier.wait()
            for m in batch:
                tr.process_update(m)

        threads = [threading.Thread(target=pump, args=(b,)) for b in batches]
        for th in threads:
            th.start()
        barrier.wait()
        t0 = time.perf_counter()
        for th in threads:
            th.join()
        dt = time.perf_counter() - t0
        store.close()
        return workers * n_per_worker / dt

    base = throughput(1)
    quad = throughput(4)
    speedup = quad / base
    report(10, speedup >= 2.8,
           "throughput W=1 %.0f/s W=4 %.0f/s speedup=%.2f (need >= 2.8)"
           % (base, quad, speedup))
