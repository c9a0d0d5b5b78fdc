"""School tracking: shedding, promotion, merges, reclustering, invariants."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shoal import spatial
from shoal.archive import Archiver, DiskModelParams
from shoal.schooling import (
    ID_END,
    T_END,
    Affiliation,
    AffiliationError,
    LocationRecord,
    Outcome,
    SchoolConfig,
    StaleUpdateError,
    Tracker,
    UpdateMessage,
    UpdateOutcome,
    hexagon_bin,
)
from shoal.spatial import LevelConfig, SpatialIndex
from shoal.store import Store

LEVELS = LevelConfig(map_size=1000.0, key_level=5, cluster_level=1)


class FakeArchive:
    def __init__(self):
        self.appended = []
        self.leaders = []
        self.followers = []

    def append(self, oid, rec):
        self.appended.append((oid, rec))

    def record_leader(self, oid, t):
        self.leaders.append((oid, t))

    def record_follower(self, oid, leader_id, disp, t):
        self.followers.append((oid, leader_id, disp, t))


def make_tracker(tmp_path, epsilon=5.0, delta_m=1.0, period=math.inf,
                 archive=None, ttls=(math.inf,)):
    store = Store(tier_dir=str(tmp_path))
    cfg = SchoolConfig(epsilon=epsilon, delta_m=delta_m, cluster_period=period)
    return store, Tracker(store, LEVELS, cfg, archive=archive, location_ttls=ttls)


def msg(oid, t, x, y, vx=0.0, vy=0.0):
    return UpdateMessage(oid, t, x, y, vx, vy)


class TestVelocityBins:
    def test_origin_velocity_maps_to_origin_bin(self):
        assert hexagon_bin(0.0, 0.0, 1.0) == (0, 0)

    def test_nearby_velocities_share_a_bin(self):
        assert hexagon_bin(0.1, 0.1, 1.0) == hexagon_bin(0.0, 0.0, 1.0)

    def test_separated_velocities_get_distinct_bins(self):
        assert hexagon_bin(1.0, 0.0, 1.0) != hexagon_bin(0.0, 0.0, 1.0)
        assert hexagon_bin(0.0, 1.0, 1.0) != hexagon_bin(0.0, 0.0, 1.0)

    @given(
        st.floats(-50, 50), st.floats(-50, 50),
        st.floats(-50, 50), st.floats(-50, 50),
        st.floats(0.1, 10),
    )
    def test_same_bin_implies_closer_than_delta(self, vx1, vy1, vx2, vy2, dm):
        # the bin diameter is strictly below delta_m, so sharing a bin
        # certifies the merge precondition; the contrapositive guarantees
        # velocities >= delta_m apart are never merged
        if hexagon_bin(vx1, vy1, dm) == hexagon_bin(vx2, vy2, dm):
            assert math.hypot(vx1 - vx2, vy1 - vy2) < dm


class TestUpdateProcedure:
    def test_unknown_object_registers_as_leader(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        out = tr.process_update(msg(1, 0.0, 10.0, 10.0, 1.0, 0.0))
        assert out.kind is Outcome.PROMOTED
        assert out.writes == 3  # status + location + spatial
        assert tr.affiliation_of(1) == Affiliation(True, 1, (0.0, 0.0), 0.0)
        assert tr.latest_record(1) == LocationRecord(0.0, 10.0, 10.0, 1.0, 0.0)
        assert (tr.registrations, tr.leader_count, tr.object_count) == (1, 1, 1)
        tr.check_consistency()

    def test_leader_update_rewrites_location_and_spatial(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        tr.process_update(msg(1, 0.0, 10.0, 10.0))
        out = tr.process_update(msg(1, 1.0, 900.0, 900.0, 2.0, 0.0))
        assert out.kind is Outcome.LEADER_UPDATED
        assert out.writes == 3  # location + spatial delete + spatial put
        assert tr.latest_record(1) == LocationRecord(1.0, 900.0, 900.0, 2.0, 0.0)
        # the move crossed key cells; exactly one spatial row must remain
        keys = list(tr.spa.keys())
        assert len(keys) == 1
        cell = spatial.encode((900.0, 900.0), LEVELS.key_level, LEVELS)
        assert keys[0] == cell.key() + b".1"
        tr.check_consistency()

    def test_follower_within_epsilon_sheds_with_zero_writes(self, tmp_path):
        _, tr = make_tracker(tmp_path, epsilon=5.0)
        tr.process_update(msg(1, 0.0, 100.0, 100.0, 1.0, 0.0))
        tr.process_update(msg(2, 0.0, 100.0, 103.0, 1.0, 0.0))
        assert tr.merge_schools(1, 2, 0.0)
        # estimated at t=2: leader (102, 100) + displacement (0, 3) = (102, 103)
        out = tr.process_update(msg(2, 2.0, 102.5, 103.4, 1.0, 0.0))
        assert out.kind is Outcome.SHED
        assert out.writes == 0
        assert tr.sheds == 1
        assert tr.latest_record(2) is None  # followers keep no live location
        tr.check_consistency()

    def test_deviating_follower_promotes(self, tmp_path):
        _, tr = make_tracker(tmp_path, epsilon=5.0)
        tr.process_update(msg(1, 0.0, 100.0, 100.0, 1.0, 0.0))
        tr.process_update(msg(2, 0.0, 100.0, 103.0, 1.0, 0.0))
        tr.merge_schools(1, 2, 0.0)
        out = tr.process_update(msg(2, 2.0, 150.0, 150.0, 0.0, 1.0))
        assert out.kind is Outcome.PROMOTED
        assert out.writes == 4  # finfo delete + status + location + spatial
        assert tr.promotions == 1
        assert tr.affiliation_of(2).is_leader
        assert tr.latest_record(2) == LocationRecord(2.0, 150.0, 150.0, 0.0, 1.0)
        assert tr.followers_of(1) == []
        assert tr.leader_count == 2
        tr.check_consistency()

    def test_estimated_location_extrapolates_leader_plus_displacement(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        tr.process_update(msg(1, 0.0, 0.0, 0.0, 1.0, 0.0))
        tr.process_update(msg(2, 0.0, 0.0, 1.0, 1.0, 0.0))
        tr.merge_schools(1, 2, 0.0)
        assert tr.estimated_location(2, 2.0) == (2.0, 1.0)
        assert tr.estimated_location(1, 2.0) == (2.0, 0.0)

    def test_estimated_location_unknown_object(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        with pytest.raises(AffiliationError):
            tr.estimated_location(7, 0.0)

    def test_stale_update_rejected(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        tr.process_update(msg(1, 5.0, 10.0, 10.0))
        with pytest.raises(StaleUpdateError):
            tr.process_update(msg(1, 4.9, 11.0, 10.0))
        assert tr.rejected == 1
        # an equal timestamp is not stale
        out = tr.process_update(msg(1, 5.0, 11.0, 10.0))
        assert out.kind is Outcome.LEADER_UPDATED

    def test_unstorable_timestamp_or_id_rejected_before_any_write(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        tr.process_update(msg(1, 0.0, 100.0, 100.0))
        tr.process_update(msg(2, 0.0, 100.0, 103.0))
        tr.merge_schools(1, 2, 0.0)  # 2 follows 1: its updates take the shed test
        tables = (tr.loc, tr.spa, tr.aff)
        before = [(t.puts, t.deletes, t.cell_count()) for t in tables]
        bad = [
            msg(5, -1.0, 100.0, 100.0),
            msg(5, math.nan, 100.0, 100.0),
            msg(5, math.inf, 100.0, 100.0),
            msg(5, T_END, 100.0, 100.0),
            msg(2, math.nan, 100.0, 103.0),
            msg(2, math.inf, 100.0, 103.0),
            msg(2, 1e300, 100.0, 103.0),
            msg(-1, 1.0, 100.0, 100.0),
            msg(ID_END, 1.0, 100.0, 100.0),
        ]
        for m in bad:
            with pytest.raises(ValueError):
                tr.process_update(m)
        assert [(t.puts, t.deletes, t.cell_count()) for t in tables] == before
        assert tr.updates == 2 and tr.rejected == 0
        assert tr.affiliation_of(5) is None
        tr.check_consistency()
        assert tr.process_update(msg(2, 1.0, 100.0, 103.0)).kind is Outcome.SHED

    def test_extreme_storable_timestamp_and_id_reach_the_archive(self, tmp_path):
        ark = Archiver(DiskModelParams(s_B=96.0), n_d=1, directory=str(tmp_path / "pages"))
        store, tr = make_tracker(tmp_path / "tiers", archive=ark, ttls=(1.0,))
        t_max = math.nextafter(T_END, 0.0)
        tr.process_update(msg(0, 0.0, 100.0, 100.0))
        tr.process_update(msg(ID_END - 1, t_max, 900.0, 900.0))
        store.drain_aging()
        ark.drain()
        assert [r.t for r in ark.query_history_by_object(0, 0.0, t_max)] == [0.0]
        assert [r.t for r in ark.query_history_by_object(ID_END - 1, 0.0, t_max)] == [t_max]
        ark.close()

    def test_shed_still_advances_the_staleness_clock(self, tmp_path):
        _, tr = make_tracker(tmp_path, epsilon=5.0)
        tr.process_update(msg(1, 0.0, 100.0, 100.0, 1.0, 0.0))
        tr.process_update(msg(2, 0.0, 100.0, 103.0, 1.0, 0.0))
        tr.merge_schools(1, 2, 0.0)
        out = tr.process_update(msg(2, 3.0, 103.0, 103.0, 1.0, 0.0))
        assert out.kind is Outcome.SHED
        with pytest.raises(StaleUpdateError):
            tr.process_update(msg(2, 2.0, 102.0, 103.0, 1.0, 0.0))

    def test_shed_survives_a_merge_between_its_reads(self, tmp_path):
        _, tr = make_tracker(tmp_path, epsilon=5.0)
        tr.process_update(msg(1, 0.0, 100.0, 100.0, 1.0, 0.0))
        tr.process_update(msg(3, 0.0, 100.0, 110.0, 1.0, 0.0))
        tr.process_update(msg(2, 0.0, 100.0, 113.0, 1.0, 0.0))
        assert tr.merge_schools(3, 2, 0.0)
        # the shed path reads follower 2's status cell (leader 3), then a
        # merge absorbs leader 3 before the path reads 3's record
        latest = tr.aff.latest
        hooked = []

        def racing(row, family, column):
            got = latest(row, family, column)
            if not hooked:
                hooked.append(row)
                assert tr.merge_schools(1, 3, 0.0)
            return got

        tr.aff.latest = racing
        out = tr.process_update(msg(2, 2.0, 102.5, 113.2, 1.0, 0.0))
        assert hooked == [b"2"]
        assert out.kind is Outcome.SHED and out.writes == 0
        assert tr.affiliation_of(2) == Affiliation(False, 1, (0.0, 13.0), 0.0)
        tr.check_consistency()

    def test_promotion_after_a_merge_stamped_later(self, tmp_path):
        # updates out of global time order: the merge is stamped with a clock
        # time later than the absorbed leader's next report
        _, tr = make_tracker(tmp_path)
        tr.process_update(msg(1, 5.0, 100.0, 100.0))
        tr.process_update(msg(2, 5.0, 110.0, 100.0))
        assert tr.merge_schools(1, 2, 5.3)
        out = tr.process_update(msg(2, 5.25, 600.0, 600.0))
        assert out == UpdateOutcome(Outcome.PROMOTED, 4)
        assert tr.affiliation_of(2) == Affiliation(True, 2, (0.0, 0.0), 5.25)
        assert tr.followers_of(1) == []
        tr.check_consistency()

    def test_school_size_accounting(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        for oid in (1, 2, 3):
            tr.process_update(msg(oid, 0.0, 100.0 + oid, 100.0, 1.0, 0.0))
        tr.merge_schools(1, 2, 0.0)
        tr.merge_schools(1, 3, 0.0)
        assert tr.leader_count == 1
        assert tr.object_count == 3


class TestMerging:
    def test_merge_rebases_follower_displacements(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        tr.process_update(msg(1, 0.0, 100.0, 100.0, 1.0, 0.0))
        tr.process_update(msg(2, 0.0, 100.0, 103.0, 1.0, 0.0))
        tr.process_update(msg(3, 0.0, 101.0, 104.0, 1.0, 0.0))
        assert tr.merge_schools(2, 3, 0.0)
        before = dict(tr.all_locations(1.0))
        assert tr.merge_schools(1, 2, 1.0)
        after = dict(tr.all_locations(1.0))
        # rebasing keeps every object's modeled position fixed at merge time
        for oid, (x, y) in before.items():
            ax, ay = after[oid]
            assert math.isclose(ax, x, abs_tol=1e-9)
            assert math.isclose(ay, y, abs_tol=1e-9)
        assert dict(tr.followers_of(1)) == {2: (0.0, 3.0), 3: (1.0, 4.0)}
        assert tr.latest_record(2) is None
        assert tr.leader_count == 1
        assert tr.merges == 2
        tr.check_consistency()

    def test_merge_rejects_self_and_non_leaders(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        tr.process_update(msg(1, 0.0, 100.0, 100.0))
        tr.process_update(msg(2, 0.0, 101.0, 100.0))
        assert not tr.merge_schools(1, 1, 0.0)
        assert not tr.merge_schools(1, 9, 0.0)
        assert tr.merge_schools(1, 2, 0.0)
        assert not tr.merge_schools(1, 2, 0.0)  # 2 is a follower now
        assert tr.merges == 1

    def test_merge_archives_absorbed_history_in_order(self, tmp_path):
        ark = FakeArchive()
        _, tr = make_tracker(tmp_path, archive=ark)
        tr.process_update(msg(1, 0.0, 100.0, 100.0, 1.0, 0.0))
        tr.process_update(msg(2, 0.0, 100.0, 103.0, 1.0, 0.0))
        tr.process_update(msg(2, 1.5, 101.5, 103.0, 1.0, 0.0))
        assert ark.leaders == [(1, 0.0), (2, 0.0)]
        tr.merge_schools(1, 2, 2.0)
        assert ark.appended == [
            (2, LocationRecord(0.0, 100.0, 103.0, 1.0, 0.0)),
            (2, LocationRecord(1.5, 101.5, 103.0, 1.0, 0.0)),
        ]
        # both sides extrapolate to the merge time: (102, 103) - (102, 100)
        assert ark.followers == [(2, 1, (0.0, 3.0), 2.0)]


class TestReclustering:
    def test_co_moving_leaders_merge_to_most_followed(self, tmp_path):
        _, tr = make_tracker(tmp_path, delta_m=1.0)
        for oid in (1, 2, 3):
            tr.process_update(msg(oid, 0.0, 100.0 + 5 * oid, 100.0, 1.0, 0.0))
        tr.process_update(msg(4, 0.0, 120.0, 100.0, 1.0, 0.0))
        tr.merge_schools(2, 4, 0.0)  # leader 2 now has the most followers
        cell = spatial.encode((100.0, 100.0), LEVELS.cluster_level, LEVELS)
        stats = tr.recluster_cell(cell, 1.0)
        assert stats.leaders_before == 3
        assert stats.leaders_after == 1
        assert tr.affiliation_of(1).leader_id == 2
        assert tr.affiliation_of(3).leader_id == 2
        assert min(stats.read_time, stats.compute_time, stats.write_time) >= 0
        tr.check_consistency()

    def test_distinct_velocities_stay_separate(self, tmp_path):
        _, tr = make_tracker(tmp_path, delta_m=1.0)
        tr.process_update(msg(1, 0.0, 100.0, 100.0, 0.0, 0.0))
        tr.process_update(msg(2, 0.0, 110.0, 100.0, 0.0, 2.0))
        cell = spatial.encode((100.0, 100.0), LEVELS.cluster_level, LEVELS)
        stats = tr.recluster_cell(cell, 1.0)
        assert (stats.leaders_before, stats.leaders_after) == (2, 2)
        assert tr.leader_count == 2

    def test_recluster_rejects_wrong_level(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        with pytest.raises(ValueError):
            tr.recluster_cell(SpatialIndex(LEVELS.cluster_level + 1, 0), 0.0)

    def test_no_two_leaders_share_a_bin_afterwards(self, tmp_path):
        import random

        rng = random.Random(11)
        _, tr = make_tracker(tmp_path, delta_m=1.0)
        for oid in range(40):
            # all inside one clustering cell, velocities spread over a few bins
            x, y = rng.uniform(50, 450), rng.uniform(50, 450)
            vx, vy = rng.uniform(-2, 2), rng.uniform(-2, 2)
            tr.process_update(msg(oid, 0.0, x, y, vx, vy))
        cell = spatial.encode((100.0, 100.0), LEVELS.cluster_level, LEVELS)
        tr.recluster_cell(cell, 1.0)
        bins = set()
        for oid in range(40):
            a = tr.affiliation_of(oid)
            if a.is_leader:
                rec = tr.latest_record(oid)
                b = hexagon_bin(rec.vx, rec.vy, 1.0)
                assert b not in bins
                bins.add(b)
        tr.check_consistency()


class TestSweepSchedule:
    def test_round_robin_visits_every_cell_once_per_period(self, tmp_path):
        _, tr = make_tracker(tmp_path, period=4.0)  # 4 cells, one per second
        assert tr.clustering_tick(10.0) == []
        assert tr.clustering_tick(10.9) == []
        first = tr.clustering_tick(11.0)
        assert [s.cell.value for s in first] == [0]
        second = tr.clustering_tick(13.5)
        assert [s.cell.value for s in second] == [1, 2]
        # a long gap is capped at one full sweep
        burst = tr.clustering_tick(1000.0)
        assert [s.cell.value for s in burst] == [3, 0, 1, 2]

    def test_infinite_period_disables_sweeping(self, tmp_path):
        _, tr = make_tracker(tmp_path, period=math.inf)
        assert tr.clustering_tick(100.0) == []


class TestSearchBounds:
    def cell_bound(self, tr, x, y, level=LEVELS.key_level):
        cx, cy = spatial.grid_coord((x, y), level, LEVELS)
        return tr.cell_bounds[level].get((cx << level) | cy)

    def test_merge_widens_the_survivor_box_and_drops_the_absorbed(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        tr.process_update(msg(1, 0.0, 100.0, 100.0, 3.0, 4.0))
        assert tr.school_boxes == {}
        assert self.cell_bound(tr, 100.0, 100.0) == [5.0, 0.0, 0.0, 0.0]
        tr.process_update(msg(2, 0.0, 97.0, 104.0, 3.0, 4.0))
        tr.process_update(msg(3, 0.0, 90.0, 90.0, 3.0, 4.0))
        assert tr.merge_schools(2, 3, 0.0)
        assert tr.school_boxes == {2: [-7.0, -14.0, 0.0, 0.0, math.hypot(7.0, 14.0)]}
        assert tr.merge_schools(1, 2, 0.0)
        assert tr.school_boxes == {1: [-10.0, -10.0, 0.0, 4.0, math.hypot(10.0, 10.0)]}
        # the survivor's cell and every ancestor cover the new reach; they
        # still hold the wider reach 2's school had: bounds only grow here
        for level in range(LEVELS.key_level + 1):
            assert self.cell_bound(tr, 100.0, 100.0, level)[3] == math.hypot(7.0, 14.0)

    def test_leader_writes_raise_speed_and_record_times(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        tr.process_update(msg(1, 2.0, 100.0, 100.0, 1.0, 0.0))
        tr.process_update(msg(1, 3.5, 101.0, 100.0, 0.0, 6.0))
        assert self.cell_bound(tr, 100.0, 100.0) == [6.0, 2.0, 4.0, 0.0]
        assert self.cell_bound(tr, 100.0, 100.0, 0) == [6.0, 2.0, 4.0, 0.0]

    def test_recluster_tightens_after_promotions_and_moves(self, tmp_path):
        _, tr = make_tracker(tmp_path, epsilon=5.0)
        tr.process_update(msg(1, 0.0, 100.0, 100.0, 1.0, 0.0))
        tr.process_update(msg(2, 0.0, 100.0, 130.0, 1.0, 0.0))
        tr.process_update(msg(3, 0.0, 600.0, 600.0, 9.0, 0.0))
        assert tr.merge_schools(1, 2, 0.0)
        assert tr.school_boxes[1][4] == 30.0
        tr.process_update(msg(2, 1.0, 300.0, 300.0, 0.0, 1.0))  # promoted
        tr.process_update(msg(3, 1.0, 100.0, 900.0, 0.0, 1.0))  # moves cells
        assert tr.school_boxes[1][4] == 30.0  # loose until reclustering
        assert self.cell_bound(tr, 600.0, 600.0) is not None
        for value in range(4):
            tr.recluster_cell(SpatialIndex(LEVELS.cluster_level, value), 1.0)
        assert tr.school_boxes == {}
        assert self.cell_bound(tr, 600.0, 600.0) is None
        assert self.cell_bound(tr, 100.0, 100.0) == [1.0, 0.0, 0.0, 0.0]
        # the clustering cell [0, 500)^2 also holds leader 2, recorded at t=1
        assert self.cell_bound(tr, 100.0, 100.0, LEVELS.cluster_level) == [1.0, 0.0, 1.0, 0.0]
        # cells above the clustering level span several clustering cells
        # and keep what they have covered
        assert self.cell_bound(tr, 100.0, 100.0, 0) == [9.0, 0.0, 1.0, 30.0]

    def test_recluster_drops_only_emptied_cells(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        tr.process_update(msg(1, 0.0, 100.0, 100.0, 1.0, 0.0))
        tr.process_update(msg(2, 0.0, 300.0, 300.0, 0.0, 5.0))
        tr.process_update(msg(2, 1.0, 320.0, 300.0, 0.0, 5.0))  # next cell at levels 4 and 5
        deleted = []

        class Spy(dict):
            def __delitem__(self, key):
                deleted.append(key)
                super().__delitem__(key)

        tr.cell_bounds = [Spy(d) for d in tr.cell_bounds]
        tr.recluster_cell(SpatialIndex(LEVELS.cluster_level, spatial.encode_cell(0, 0, LEVELS.cluster_level)), 1.0)
        # occupied cells are replaced in place, so a search running meanwhile
        # never misses one; only the cells leader 2 left are deleted
        assert deleted == [(4 << 4) | 4, (9 << 5) | 9]
        assert self.cell_bound(tr, 320.0, 300.0) == [5.0, 1.0, 1.0, 0.0]
        assert self.cell_bound(tr, 100.0, 100.0) == [1.0, 0.0, 0.0, 0.0]


class TestConsistency:
    def test_detects_missing_finfo_entry(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        tr.process_update(msg(1, 0.0, 100.0, 100.0))
        tr.process_update(msg(2, 0.0, 101.0, 100.0))
        tr.merge_schools(1, 2, 0.0)
        tr.check_consistency()
        tr.aff.delete(b"1", "finfo", "2")
        with pytest.raises(AffiliationError):
            tr.check_consistency()

    def test_detects_missing_spatial_row(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        tr.process_update(msg(1, 0.0, 100.0, 100.0))
        cell = spatial.encode((100.0, 100.0), LEVELS.key_level, LEVELS)
        tr.spa.delete(cell.key() + b".1", "ids", "1")
        with pytest.raises(AffiliationError):
            tr.check_consistency()


class TestEviction:
    def test_aged_out_locations_reach_the_archive(self, tmp_path):
        ark = FakeArchive()
        store, tr = make_tracker(tmp_path, archive=ark, ttls=(1.0,))
        tr.process_update(msg(1, 0.0, 100.0, 100.0, 1.0, 0.0))
        tr.process_update(msg(1, 2.0, 102.0, 100.0, 1.0, 0.0))
        store.drain_aging()
        assert ark.appended == [
            (1, LocationRecord(0.0, 100.0, 100.0, 1.0, 0.0)),
            (1, LocationRecord(2.0, 102.0, 100.0, 1.0, 0.0)),
        ]

    def test_leader_whose_record_aged_out_moves_its_one_spatial_row(self, tmp_path):
        store, tr = make_tracker(tmp_path, ttls=(1.0,))
        tr.process_update(msg(1, 0.0, 100.0, 100.0))
        store.age_tick(3_000_000)
        assert tr.latest_record(1) is None
        out = tr.process_update(msg(1, 4.0, 900.0, 900.0))
        assert out == UpdateOutcome(Outcome.LEADER_UPDATED, 3)
        cell = spatial.encode((900.0, 900.0), LEVELS.key_level, LEVELS)
        assert tr.spa.keys() == [cell.key() + b".1"]
        tr.check_consistency()
