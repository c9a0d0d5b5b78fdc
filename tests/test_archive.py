"""Archive: disk-count optimizer, placement, page format, history queries."""

import math
import random
import struct

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


class TestValidation:
    def test_archiver_needs_a_disk(self, tmp_path):
        with pytest.raises(ValueError):
            Archiver(DiskModelParams(), n_d=0, directory=str(tmp_path))
