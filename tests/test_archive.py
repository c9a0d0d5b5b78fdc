"""Archive: disk-count optimizer, placement, page format, history queries."""

import math
import os
import random
import struct
import threading

import pytest

from shoal import spatial
from shoal.archive import (
    PAGE_MAGIC,
    RECORD_SIZE,
    Archiver,
    DiskModelParams,
    InfeasibleError,
    fill_time,
    flush_duration,
    optimize,
    placement_hash,
    retrieval_ratio,
    utilization,
)
from shoal.schooling import LocationRecord
from shoal.spatial import LevelConfig, SpatialIndex

LEVELS = LevelConfig(map_size=1000.0, key_level=8, cluster_level=4)
_PAGE_HEADER = struct.Struct("<4sIQQII")
_RECORD = struct.Struct("<QQdddd")


def rec(t, x, y, vx=0.0, vy=0.0):
    return LocationRecord(t, x, y, vx, vy)


class TestOptimizer:
    def test_worked_example_balances_at_one_hundred_disks(self):
        p = DiskModelParams(t_rot=0.005, t_seek=0.005, r_disk=1e8,
                            n_o=1_000_000, k=1e4, s_B=1e8)
        got = optimize(p)
        assert got.n_d == 100
        assert got.u_d == pytest.approx(1.0)
        assert got.r_d == pytest.approx(1.0)
        assert got.t_d == pytest.approx(0.02)
        assert not got.constrained

    def test_matches_exhaustive_sweep(self):
        rng = random.Random(41)
        n_max = 512
        for _ in range(40):
            p = DiskModelParams(
                t_rot=rng.uniform(0.001, 0.02),
                t_seek=rng.uniform(0.001, 0.02),
                r_disk=rng.uniform(1e7, 1e9),
                s_rec=rng.choice([16, 48, 64]),
                n_o=rng.randrange(1_000, 10_000_000),
                k=rng.uniform(10, 1e5),
                update_rate=rng.uniform(1e2, 1e7),
                s_B=rng.uniform(1e6, 1e9),
            )
            t_m = fill_time(p)
            feas = [n for n in range(1, n_max + 1) if t_m >= flush_duration(p, n)]
            if not feas:
                with pytest.raises(InfeasibleError):
                    optimize(p, n_d_max=n_max)
                continue
            best = min(feas, key=lambda n: (-min(utilization(p, n), retrieval_ratio(p, n)), n))
            got = optimize(p, n_d_max=n_max)
            assert got.n_d == best

    def test_components_are_monotonic_in_disk_count(self):
        p = DiskModelParams()
        for n in range(1, 64):
            assert utilization(p, n) > utilization(p, n + 1)
            assert retrieval_ratio(p, n) < retrieval_ratio(p, n + 1)

    def test_fill_constraint_pushes_disk_count_up(self):
        p = DiskModelParams(t_rot=0.005, t_seek=0.005, r_disk=1e8,
                            n_o=1_000_000, k=1e4, s_B=1e8, update_rate=1.6e8)
        got = optimize(p)
        assert got.constrained
        assert got.n_d > 100
        assert got.t_m >= flush_duration(p, got.n_d)
        assert got.t_m < flush_duration(p, got.n_d - 1)

    def test_unsatisfiable_fill_constraint_raises(self):
        p = DiskModelParams(t_rot=0.005, t_seek=0.005, r_disk=1e8,
                            n_o=1_000_000, k=1e4, s_B=1e8, update_rate=1e9)
        with pytest.raises(InfeasibleError):
            optimize(p)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DiskModelParams(t_rot=-0.001)
        with pytest.raises(ValueError):
            DiskModelParams(r_disk=0.0)
        with pytest.raises(ValueError):
            DiskModelParams(n_o=0)
        with pytest.raises(ValueError):
            optimize(DiskModelParams(), n_d_max=0)

    def test_buffer_size_defaults_to_population_bytes(self):
        p = DiskModelParams(n_o=10, s_rec=48)
        assert p.s_B == 480.0


class TestPlacement:
    def test_hash_is_deterministic(self):
        assert placement_hash(12345, 7) == placement_hash(12345, 7)
        assert placement_hash(12345, 7) != placement_hash(12345, 8)

    def test_disk_fixed_at_first_contact(self, tmp_path):
        a = Archiver(DiskModelParams(), n_d=8, directory=str(tmp_path), levels=LEVELS)
        d = a.placement(5, (100.0, 100.0))
        assert a.placement(5, (900.0, 900.0)) == d  # sticky
        cell = spatial.encode((100.0, 100.0), LEVELS.cluster_level, LEVELS).value
        assert d == placement_hash(5, cell) % 8
        a.close()

    def test_ids_spread_evenly_over_disks(self, tmp_path):
        a = Archiver(DiskModelParams(), n_d=16, directory=str(tmp_path))
        counts = [0] * 16
        for oid in range(10_000):
            counts[a.placement(oid, (0.0, 0.0))] += 1
        assert min(counts) > 500 and max(counts) < 750
        a.close()


class TestPages:
    def test_rotation_and_file_format(self, tmp_path):
        # s_B 384 over 2 disks at 48 bytes/record: 4 records per page
        p = DiskModelParams(s_B=384.0)
        a = Archiver(p, n_d=2, directory=str(tmp_path))
        assert a.page_records == 4
        rng = random.Random(2)
        for i in range(20):
            a.append(i % 3, rec(float(i + 1), rng.uniform(0, 999), rng.uniform(0, 999)))
        a.drain()
        total = 0
        for disk in a.disks:
            raw = open(disk.path, "rb").read()
            pos = 0
            seq = 0
            while pos < len(raw):
                magic, count, min_ts, max_ts, idx, got_seq = _PAGE_HEADER.unpack_from(raw, pos)
                assert magic == PAGE_MAGIC
                assert idx == disk.idx
                assert got_seq == seq
                pos += _PAGE_HEADER.size
                recs = [_RECORD.unpack_from(raw, pos + j * RECORD_SIZE) for j in range(count)]
                pos += count * RECORD_SIZE
                if count:
                    assert recs == sorted(recs)  # (id, timestamp) page order
                    assert min(r[1] for r in recs) == min_ts
                    assert max(r[1] for r in recs) == max_ts
                total += count
                seq += 1
            assert pos == len(raw)
        assert total == 20
        a.close()

    def test_page_bytes_match_a_per_record_packing(self, tmp_path):
        p = DiskModelParams(s_B=192.0)  # 4 records per page on one disk
        a = Archiver(p, n_d=1, directory=str(tmp_path))
        rng = random.Random(5)
        appended = []  # (id, timestamp us, x, y, vx, vy)
        for i in range(10):
            oid, t = rng.choice([0, 3, 9, 2**64 - 1]), rng.uniform(0, 10)
            r = rec(t, rng.uniform(0, 999), rng.uniform(0, 999), rng.uniform(-5, 5), rng.uniform(-5, 5))
            appended.append((oid, int(round(t * 1e6)), r.x, r.y, r.vx, r.vy))
            a.append(oid, r)
        a.drain()
        want = b""
        for seq, start in enumerate(range(0, 10, 4)):
            page = sorted(appended[start:start + 4])
            want += _PAGE_HEADER.pack(PAGE_MAGIC, len(page), min(r[1] for r in page),
                                      max(r[1] for r in page), 0, seq)
            for r in page:
                want += _RECORD.pack(*r)
        assert open(a.disks[0].path, "rb").read() == want
        a.close()

    def test_unpackable_record_leaves_the_page_and_the_file_as_they_were(self, tmp_path):
        p = DiskModelParams(s_B=192.0)
        a = Archiver(p, n_d=1, directory=str(tmp_path))
        for i in range(4):
            a.append(i, rec(0.5 + i, 1.0, 1.0))
        a.drain()
        disk = a.disks[0]
        size = os.path.getsize(disk.path)
        for i in range(3):
            a.append(i, rec(10.0 + i, 2.0, 2.0))
        state = (disk.filling, disk.busy_until, disk.seq, len(disk.meta), a.flush_count(),
                 a.blocked_appends, disk.transfer_time, disk.overhead_time)
        with pytest.raises(struct.error):
            a.append(7, rec(-1.0, 3.0, 3.0))  # fills the page; -1 s packs into no u64
        assert (disk.filling, disk.busy_until, disk.seq, len(disk.meta), a.flush_count(),
                a.blocked_appends, disk.transfer_time, disk.overhead_time) == state
        assert len(disk.pages[disk.filling].records) == 4
        assert os.path.getsize(disk.path) == size
        assert [r.t for r in a.query_history_by_object(1, 0.0, 20.0)] == [1.5, 11.0]
        a.close()

    def test_slow_fill_never_blocks(self, tmp_path):
        p = DiskModelParams(s_B=192.0)  # 4 records per page on one disk
        a = Archiver(p, n_d=1, directory=str(tmp_path))
        for i in range(16):
            a.append(7, rec(float(i + 1), 1.0, 1.0))  # 1 s apart >> flush time
        assert a.blocked_appends == 0
        assert a.flush_count() == 4
        a.close()

    def test_burst_fill_blocks_on_the_sibling_flush(self, tmp_path):
        p = DiskModelParams(s_B=192.0)
        a = Archiver(p, n_d=1, directory=str(tmp_path))
        for _ in range(16):
            a.append(7, rec(1.0, 1.0, 1.0))  # simulated clock never advances
        # first rotation finds an idle sibling; the next three all wait
        assert a.blocked_appends == 3
        assert a.flush_count() == 4
        assert a.measured_utilization() > 0
        a.close()


class TestHistory:
    def test_round_trip_single_object(self, tmp_path):
        p = DiskModelParams(s_B=384.0)
        a = Archiver(p, n_d=2, directory=str(tmp_path))
        times = [0.25, 1.0, 1.5, 2.75, 3.0, 4.25, 5.0]
        for i, t in enumerate(times):
            a.append(9, rec(t, 10.0 + i, 20.0))
        a.drain()
        got = a.query_history_by_object(9, 0.0, 10.0)
        assert [r.t for r in got] == times
        assert [r.x for r in got] == [10.0 + i for i in range(len(times))]
        assert not any(r.reconstructed for r in got)
        # sub-range is inclusive at both ends
        sub = a.query_history_by_object(9, 1.0, 3.0)
        assert [r.t for r in sub] == [1.0, 1.5, 2.75, 3.0]
        a.close()

    def test_unknown_object_has_no_history(self, tmp_path):
        a = Archiver(DiskModelParams(), n_d=2, directory=str(tmp_path))
        assert a.query_history_by_object(99, 0.0, 1.0) == []
        a.close()

    def test_follower_span_reconstructs_from_leader(self, tmp_path):
        p = DiskModelParams(s_B=384.0)
        a = Archiver(p, n_d=2, directory=str(tmp_path))
        for t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            a.append(1, rec(t, 100.0 + t, 200.0))
        a.record_leader(2, 0.5)
        a.append(2, rec(2.0, 102.0, 205.0))
        a.record_follower(2, 1, (0.0, 5.0), 2.0)
        a.record_leader(2, 5.0)
        a.append(2, rec(6.0, 300.0, 300.0))
        a.drain()
        got = a.query_history_by_object(2, 0.0, 10.0)
        assert [(r.t, r.reconstructed) for r in got] == [
            (2.0, False),   # own raw record wins at the boundary
            (3.0, True),    # leader at 103 plus displacement (0, 5)
            (4.0, True),
            (6.0, False),
        ]
        assert (got[1].x, got[1].y) == (103.0, 205.0)
        assert (got[2].x, got[2].y) == (104.0, 205.0)
        assert len(a.events_of(2)) == 3
        a.close()

    def test_region_query_filters_and_skips_pages(self, tmp_path):
        p = DiskModelParams(s_B=384.0)
        a = Archiver(p, n_d=2, directory=str(tmp_path), levels=LEVELS)
        # batch one: early timestamps, two spatial clusters
        for i in range(8):
            a.append(i, rec(1.0 + i * 0.1, 50.0 + i, 50.0))
            a.append(100 + i, rec(1.0 + i * 0.1, 900.0, 900.0 + i))
        a.drain()
        # batch two: far later, same places
        for i in range(8):
            a.append(i, rec(100.0 + i * 0.1, 50.0 + i, 50.0))
        a.drain()
        cell = spatial.encode((50.0, 50.0), 2, LEVELS)  # 250x250 corner cell
        skipped_before = a.pages_skipped
        got = a.query_history_by_region(cell, 0.0, 2.0)
        assert [r.oid for r in got] == list(range(8))
        assert all(50.0 <= r.x < 250.0 for r in got)
        assert a.pages_skipped > skipped_before  # batch-two pages pruned by time
        a.close()

    def test_region_query_reads_each_page_once(self, tmp_path):
        p = DiskModelParams(s_B=384.0)  # 4-record pages
        a = Archiver(p, n_d=2, directory=str(tmp_path), levels=LEVELS)
        for t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            a.append(1, rec(t, 100.0 + t, 200.0))
        for f in (2, 3, 4):  # three followers of 1 from t=2 on
            a.record_leader(f, 0.5)
            a.record_follower(f, 1, (0.0, float(f)), 2.0)
        a.drain()
        pages = sum(1 for d in a.disks for m in d.meta if m.count)
        before = a.pages_scanned
        got = a.query_history_by_region(spatial.encode((100.0, 200.0), 3, LEVELS), 0.0, 10.0)
        assert a.pages_scanned - before == pages
        assert [r.t for r in got if r.oid == 1] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert sorted((r.oid, r.t, r.y) for r in got if r.reconstructed) == [
            (f, t, 200.0 + f) for f in (2, 3, 4) for t in (3.0, 4.0, 5.0, 6.0)
        ]
        a.close()

    def test_filling_page_records_answer_before_drain(self, tmp_path):
        # default pages hold 250,000 records, so nothing is flushed yet
        a = Archiver(DiskModelParams(), n_d=2, directory=str(tmp_path), levels=LEVELS)
        a.append(7, rec(1.5, 60.0, 70.0))
        assert a.flush_count() == 0
        got = a.query_history_by_object(7, 0.0, 2.0)
        assert [(r.oid, r.t, r.x, r.y) for r in got] == [(7, 1.5, 60.0, 70.0)]
        assert a.query_history_by_object(7, 2.0, 3.0) == []
        cell = spatial.encode((60.0, 70.0), 2, LEVELS)
        assert [r.oid for r in a.query_history_by_region(cell, 0.0, 2.0)] == [7]
        a.close()

    def test_region_query_needs_levels(self, tmp_path):
        from shoal.archive import ArchiveError

        a = Archiver(DiskModelParams(), n_d=1, directory=str(tmp_path))
        with pytest.raises(ArchiveError):
            a.query_history_by_region(SpatialIndex(2, 0), 0.0, 1.0)
        a.close()


def _page_ranges(path):
    """(min_ts, max_ts) of each non-empty page, parsed from the disk file."""
    raw = open(path, "rb").read() if os.path.exists(path) else b""
    out, pos = [], 0
    while pos < len(raw):
        _, count, min_ts, max_ts, _, _ = _PAGE_HEADER.unpack_from(raw, pos)
        pos += _PAGE_HEADER.size + count * RECORD_SIZE
        if count:
            out.append((min_ts, max_ts))
    return out


class TestObjectQueries:
    """query_history_by_object against a filter over every appended record."""

    @staticmethod
    def brute_force(appended, events, oid, t0, t1):
        def raw(o, lo, hi):
            return sorted((r for r in appended if r[0] == o and lo <= r[1] <= hi), key=lambda r: r[1])

        out = raw(oid, t0, t1)
        have = {(r[0], r[1]) for r in out}
        evs = events.get(oid, [])
        for i, (t, leader, disp) in enumerate(evs):
            if leader is None:
                continue
            until = evs[i + 1][0] if i + 1 < len(evs) else math.inf
            for r in raw(leader, max(t0, t), min(t1, until)):
                if t < r[1] < until and (oid, r[1]) not in have:
                    out.append((oid, r[1], r[2] + disp[0], r[3] + disp[1], r[4], r[5]))
        out.sort(key=lambda r: (r[1], r[0]))
        return out

    @staticmethod
    def expected_pages(a, oid, t0, t1, events):
        """(scanned, skipped) of one query under the header-range rule."""
        def pages(o, lo, hi):
            d = a._placement.get(o)
            if d is None:
                return 0, 0
            ranges = _page_ranges(a.disks[d].path)
            lo_us, hi_us = round(lo * 1e6), round(hi * 1e6)
            meet = sum(1 for mn, mx in ranges if mx >= lo_us and mn <= hi_us)
            return meet, len(ranges) - meet

        scanned, skipped = pages(oid, t0, t1)
        evs = events.get(oid, [])
        for i, (t, leader, _) in enumerate(evs):
            until = evs[i + 1][0] if i + 1 < len(evs) else math.inf
            if leader is not None and max(t0, t) <= min(t1, until):
                sc, sk = pages(leader, max(t0, t), min(t1, until))
                scanned, skipped = scanned + sc, skipped + sk
        return scanned, skipped

    def test_matches_a_filter_over_every_record(self, tmp_path):
        rng = random.Random(8)
        top = 2**64 - 1
        queries = 0
        for case in range(60):
            n_d = rng.randint(1, 3)
            per_page = rng.randint(1, 7)
            a = Archiver(DiskModelParams(s_B=float(per_page * n_d * RECORD_SIZE)), n_d=n_d,
                         directory=str(tmp_path / str(case)))
            assert a.page_records == per_page
            ids = [0, top, 5, 6, 7, 1000]
            appended = []  # (id, t, x, y, vx, vy): one record per (id, t), t a whole number of us
            events = {}  # id -> [(t, leader or None, disp)]
            for oid in (5, 6):  # followers of 0 and of the top id for a while
                leader = 0 if oid == 5 else top
                since, until = rng.randrange(50) / 10, rng.randrange(50, 100) / 10
                events[oid] = [(0.0, None, None), (since, leader, (1.0, -2.0)), (until, None, None)]
                a.record_leader(oid, 0.0)
                a.record_follower(oid, leader, (1.0, -2.0), since)
                a.record_leader(oid, until)
            for _ in range(rng.randint(0, 60)):
                oid = rng.choice(ids)
                t = rng.randrange(100) / 10
                if any(r[:2] == (oid, t) for r in appended):
                    continue
                r = (oid, t, rng.uniform(0, 999), rng.uniform(0, 999), rng.uniform(-1, 1), 0.5)
                appended.append(r)
                a.append(oid, rec(*r[1:]))
                if rng.random() < 0.05:
                    a.drain()
            if rng.random() < 0.5:
                a.drain()
            stamps = sorted({r[1] for r in appended}) or [0.0]
            for _ in range(12):
                oid = rng.choice(ids + [42])  # 42 is never appended
                t0 = rng.choice(stamps + [rng.randrange(100) / 10, -1.0])
                t1 = rng.choice(stamps + [rng.randrange(100) / 10, 20.0])
                if t0 > t1:
                    t0, t1 = t1, t0
                want_pages = self.expected_pages(a, oid, t0, t1, events)
                scanned, skipped = a.pages_scanned, a.pages_skipped
                got = a.query_history_by_object(oid, t0, t1)
                assert (a.pages_scanned - scanned, a.pages_skipped - skipped) == want_pages
                assert [(r.oid, r.t, r.x, r.y, r.vx, r.vy) for r in got] == \
                    self.brute_force(appended, events, oid, t0, t1)
                queries += 1
            a.close()
        assert queries == 720

    def test_runs_at_the_ends_of_a_page_and_pages_without_the_object(self, tmp_path):
        a = Archiver(DiskModelParams(s_B=5.0 * RECORD_SIZE), n_d=1, directory=str(tmp_path))
        top = 2**64 - 1
        page = [(0, 1.0), (0, 2.0), (4, 1.5), (top, 1.0), (top, 3.0)]
        for oid, t in page:
            a.append(oid, rec(t, 1.0, 1.0))  # fills and flushes one page
        for oid, t in [(4, 2.5), (4, 2.6), (9, 2.0), (9, 2.1), (9, 2.2)]:
            a.append(oid, rec(t, 2.0, 2.0))  # a second page with no 0 and no top
        a.append(0, rec(2.5, 3.0, 3.0))  # stays in the filling page
        assert a.flush_count() == 2
        assert [r.t for r in a.query_history_by_object(0, 1.0, 2.5)] == [1.0, 2.0, 2.5]
        assert [r.t for r in a.query_history_by_object(0, 1.0, 1.0)] == [1.0]
        assert [r.t for r in a.query_history_by_object(top, 3.0, 3.0)] == [3.0]
        assert [r.t for r in a.query_history_by_object(top, 1.0, 2.9)] == [1.0]
        scanned = a.pages_scanned
        assert a.query_history_by_object(4, 1.6, 2.4) == []
        assert a.pages_scanned - scanned == 2  # both header ranges meet [1.6, 2.4]
        a.close()


class TestConcurrentQueries:
    def test_object_queries_while_another_thread_appends(self, tmp_path):
        a = Archiver(DiskModelParams(s_B=4 * 8 * RECORD_SIZE), n_d=4, directory=str(tmp_path))
        ids = list(range(12))
        n = 3000
        done = [0] * len(ids)  # per id: appends returned so far, in time order
        errors = []

        def writer():
            try:
                for i in range(n):
                    oid = ids[i % len(ids)]
                    a.append(oid, rec(i / 100, float(oid), float(i % 97)))
                    done[oid] += 1
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        t = threading.Thread(target=writer)
        t.start()
        checked = overlapped = 0
        while t.is_alive() or checked == 0:
            oid = ids[checked % len(ids)]
            before = done[oid]
            overlapped += 0 < before < n // len(ids)
            got = a.query_history_by_object(oid, 0.0, n / 100)
            times = [r.t for r in got]
            assert times == sorted(set(times))
            # the object's k-th append is stamped (k * len(ids) + oid) / 100
            want = [(k * len(ids) + oid) / 100 for k in range(before)]
            assert times[:before] == want
            assert all(r.oid == oid and not r.reconstructed for r in got)
            checked += 1
        t.join()
        assert not errors
        assert a.flush_count() >= n // 8 - 4
        assert overlapped > 10  # queries that ran between the object's appends
        a.close()


class TestValidation:
    def test_archiver_needs_a_disk(self, tmp_path):
        with pytest.raises(ValueError):
            Archiver(DiskModelParams(), n_d=0, directory=str(tmp_path))
