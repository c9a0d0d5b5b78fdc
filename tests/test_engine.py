"""Engine wiring: sim clock, scheduled aging and clustering, archive flow."""

import math
import os
import sys
import threading

import pytest

from shoal.archive import RECORD_SIZE, DiskModelParams
from shoal.engine import Engine, EngineConfig
from shoal.schooling import SchoolConfig, UpdateMessage
from shoal.spatial import LevelConfig
from shoal.workload import Generator, WorkloadConfig


def make_engine(tmp_path, **kw):
    base = dict(
        levels=LevelConfig(map_size=1000.0, key_level=5, cluster_level=1),
        school=SchoolConfig(epsilon=5.0, cluster_period=math.inf),
        location_ttls=(1.0,),
        age_interval=1.0,
        n_disks=2,
        work_dir=str(tmp_path / "wd"),
    )
    base.update(kw)
    return Engine(EngineConfig(**base))


def msg(oid, t, x, y, vx=0.0, vy=0.0):
    return UpdateMessage(oid, t, x, y, vx, vy)


class TestClock:
    def test_ingest_advances_the_clock(self, tmp_path):
        e = make_engine(tmp_path)
        e.ingest(msg(1, 5.0, 100.0, 100.0))
        assert e.now == 5.0
        e.ingest(msg(2, 5.0, 200.0, 100.0))  # same time: no move backwards
        assert e.now == 5.0
        e.close()

    def test_advance_time_without_updates(self, tmp_path):
        e = make_engine(tmp_path)
        e.advance_time(3.5)
        assert e.now == 3.5
        e.close()


class TestThreadedIngest:
    def test_ingest_threads_keep_the_tables_mirrored(self, tmp_path):
        # three threads split the trace by id and each moves the clock as
        # its own updates reach it; records outlive some report intervals
        e = make_engine(
            tmp_path, school=SchoolConfig(cluster_period=5.0), location_ttls=(2.0, 2.0, 2.0),
            archive_enabled=False)
        tr = e.tracker
        msgs = list(Generator(WorkloadConfig(seed=1, n_agents=1000, duration=60.0)).messages())
        errors = []
        ticks = []  # each aging tick's time: once per simulated second, in order
        age_tick = e.store.age_tick

        def counted_tick(now_us):
            ticks.append(now_us)
            return age_tick(now_us)

        e.store.age_tick = counted_tick

        def feed(part):
            try:
                for m in part:
                    e.ingest(m)
            except Exception as exc:
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for sec in range(60):
                parts = [[m for m in msgs if sec <= m.t < sec + 1 and m.oid % 3 == w] for w in range(3)]
                threads = [threading.Thread(target=feed, args=(p,)) for p in parts]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=30.0)
                assert not any(th.is_alive() for th in threads)
                assert errors == []
                tr.check_consistency()
        finally:
            sys.setswitchinterval(switch)
        assert tr.updates == len(msgs) and tr.rejected == 0
        assert tr.updates == tr.sheds + tr.leader_updates + tr.promotions + tr.registrations
        assert tr.merges > 0 and tr.promotions > 0 and e.now >= 59.0
        assert ticks == [sec * 1_000_000 for sec in range(1, 60)]
        e.close()


class TestWorkDir:
    def test_close_removes_only_a_work_dir_it_made(self, tmp_path):
        e = Engine()
        made = e.work_dir
        e.ingest(msg(1, 0.5, 100.0, 100.0))
        assert os.path.isdir(made)
        e.close()
        assert not os.path.exists(made)
        e = make_engine(tmp_path)
        e.ingest(msg(1, 0.5, 100.0, 100.0))
        e.drain()
        e.close()
        assert os.listdir(os.path.join(e.work_dir, "pages"))


class TestAgingFlow:
    def test_expired_locations_flow_into_the_archive(self, tmp_path):
        e = make_engine(tmp_path)
        e.ingest(msg(1, 0.5, 100.0, 100.0, 1.0, 0.0))
        assert e.archive.appended == 0
        e.advance_time(5.0)  # ttl 1 s: the t=0.5 record expires by t=2
        assert e.archive.appended == 1
        e.close()

    def test_drain_archives_every_record_and_pages_answer(self, tmp_path):
        e = make_engine(tmp_path)
        times = [0.25, 1.5, 3.0]
        for t in times:
            e.ingest(msg(7, t, 100.0 + t, 200.0, 1.0, 0.0))
        e.drain()
        assert e.archive.appended == len(times)
        got = e.archive.query_history_by_object(7, 0.0, 10.0)
        assert [r.t for r in got] == times
        assert e.archive.flush_count() >= 1
        e.close()

    def test_unstorable_update_leaves_aging_and_the_archive_intact(self, tmp_path):
        # one disk of 4-record pages: a negative timestamp, once accepted,
        # failed the flush of the page it shared with objects 1-3
        e = make_engine(tmp_path, n_disks=1, archive_params=DiskModelParams(s_B=192.0))
        for oid, t in ((1, 0.1), (2, 0.2), (3, 0.3)):
            e.ingest(msg(oid, t, 100.0 * oid, 100.0))
        for bad in (msg(5, -1.0, 500.0, 100.0), msg(5, math.inf, 500.0, 100.0),
                    msg(-1, 0.3, 500.0, 100.0)):
            with pytest.raises(ValueError):
                e.ingest(bad)
        assert e.now == 0.3  # an infinite timestamp moved no clock
        with pytest.raises(ValueError):
            e.advance_time(math.inf)
        e.advance_time(2.0)
        assert e.archive.appended == 3
        e.drain()
        assert e.archive.flush_count() == 1
        for oid, t in ((1, 0.1), (2, 0.2), (3, 0.3)):
            assert [r.t for r in e.archive.query_history_by_object(oid, 0.0, 2.0)] == [t]
        assert os.path.getsize(e.archive.disks[0].path) == 32 + 3 * RECORD_SIZE
        e.close()

    def test_archive_can_be_disabled(self, tmp_path):
        e = make_engine(tmp_path, archive_enabled=False)
        assert e.archive is None
        e.ingest(msg(1, 0.5, 100.0, 100.0))
        e.advance_time(5.0)
        e.drain()
        e.close()


class TestClusteringSchedule:
    def test_co_moving_leaders_merge_during_advance(self, tmp_path):
        e = make_engine(tmp_path, school=SchoolConfig(epsilon=5.0, cluster_period=2.0))
        e.ingest(msg(1, 0.1, 100.0, 100.0, 1.0, 0.0))
        e.ingest(msg(2, 0.1, 110.0, 100.0, 1.0, 0.0))
        assert e.tracker.leader_count == 2
        stats = e.advance_time(10.0)  # several full sweeps
        assert e.tracker.leader_count == 1
        assert len(stats) > 0
        assert any(s.leaders_before > s.leaders_after for s in stats)
        e.tracker.check_consistency()
        e.close()


    def test_skipped_calls_would_find_no_cell_due(self, tmp_path):
        # a period whose cadence (0.3 / 4 cells) is not a binary fraction
        e = make_engine(tmp_path, school=SchoolConfig(epsilon=5.0, cluster_period=0.3))
        e.ingest(msg(1, 0.1, 100.0, 100.0, 1.0, 0.0))
        tr = e.tracker
        for _ in range(40):
            t = tr.next_cluster_t
            assert tr.clustering_tick(math.nextafter(t, -math.inf)) == []
            assert tr.next_cluster_t == t
            assert len(e.advance_time(t)) == 1
        e.close()

    def test_no_cluster_time_without_a_period(self, tmp_path):
        e = make_engine(tmp_path)
        assert e.tracker.next_cluster_t == math.inf
        e.close()


class TestSteadyState:
    def test_state_is_flat_in_elapsed_time(self, tmp_path):
        # location cells live about 8 s, longer than any report interval (5 s)
        e = make_engine(
            tmp_path, school=SchoolConfig(), location_ttls=(6.0, 6.0, 6.0), archive_enabled=False)
        tr = e.tracker
        live = []
        gen = Generator(WorkloadConfig(seed=3, n_agents=400, duration=150.0))
        for m in gen.messages():
            if m.t >= 30.0 + 15.0 * len(live):  # warm-up, then every 15 s
                status = finfo = 0
                for key in tr.aff.keys():
                    cells = tr.aff.get_row(key)
                    status += sum(c.family == "lf" for c in cells)
                    finfo += sum(c.family == "finfo" for c in cells)
                assert status == tr.object_count == 400
                assert finfo == tr.object_count - tr.leader_count
                live.append(sum(t.cell_count() for t in e.store.tables()))
            e.ingest(m)
        tr.check_consistency()
        assert len(live) == 8
        assert max(live) - min(live) <= 0.15 * min(live)
        e.close()


class TestQueries:
    def test_query_returns_nearest_by_modeled_position(self, tmp_path):
        e = make_engine(tmp_path)
        e.ingest(msg(1, 1.0, 100.0, 100.0, 1.0, 0.0))
        e.ingest(msg(2, 1.0, 500.0, 500.0, 0.0, 0.0))
        got = e.query(104.0, 100.0, 1, t=5.0)  # leader 1 extrapolates to 104
        assert [n.oid for n in got] == [1]
        assert got[0].dist == 0.0
        got = e.query(500.0, 500.0, 2)
        assert [n.oid for n in got] == [2, 1]
        e.close()
