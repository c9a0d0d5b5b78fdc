"""Engine wiring: sim clock, scheduled aging and clustering, archive flow."""

import math

from shoal.engine import Engine, EngineConfig
from shoal.schooling import SchoolConfig, UpdateMessage
from shoal.spatial import LevelConfig


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
