"""Nearest-neighbor search: exactness, level selection, level cache."""

import math
import random

import pytest

from shoal.nn import FlagConfig, NNQuery, QueryStats, SearchError, Searcher
from shoal.schooling import SchoolConfig, Tracker, UpdateMessage
from shoal.spatial import LevelConfig
from shoal.store import Store

LEVELS = LevelConfig(map_size=1000.0, key_level=8, cluster_level=4)


def make_tracker(tmp_path):
    store = Store(tier_dir=str(tmp_path))
    tr = Tracker(store, LEVELS, SchoolConfig(epsilon=5.0), location_ttls=(math.inf,))
    return store, tr


def put(tr, oid, t, x, y, vx=0.0, vy=0.0):
    tr.process_update(UpdateMessage(oid, t, x, y, vx, vy))


def seed_schools(tr, rng, n_leaders, followers_per):
    """Random leaders, each with followers merged in at t=0."""
    oid = 0
    for _ in range(n_leaders):
        lid = oid
        put(tr, lid, 0.0, rng.uniform(1, 999), rng.uniform(1, 999),
            rng.uniform(-2, 2), rng.uniform(-2, 2))
        oid += 1
        rec = tr.latest_record(lid)
        for _ in range(followers_per):
            put(tr, oid, 0.0,
                min(998.0, max(1.0, rec.x + rng.uniform(-4, 4))),
                min(998.0, max(1.0, rec.y + rng.uniform(-4, 4))),
                rec.vx, rec.vy)
            assert tr.merge_schools(lid, oid, 0.0)
            oid += 1
    return oid


def brute_knn(tr, q):
    """Oracle: modeled position of every object, (distance, id) order."""
    cands = []
    for oid, (x, y) in tr.all_locations(q.t):
        d2 = (x - q.x) ** 2 + (y - q.y) ** 2
        cands.append((d2, oid, x, y))
    cands.sort(key=lambda c: (c[0], c[1]))
    return cands[: q.k]


class TestNearestLeaders:
    def test_matches_recorded_positions_at_every_level(self, tmp_path):
        rng = random.Random(5)
        _, tr = make_tracker(tmp_path)
        pts = {}
        for oid in range(150):
            x, y = rng.uniform(0, 999), rng.uniform(0, 999)
            put(tr, oid, 0.0, x, y)
            pts[oid] = (x, y)
        s = Searcher(tr)
        for _ in range(30):
            loc = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            count = rng.choice([1, 5, 17])
            level = rng.randint(0, LEVELS.key_level)
            got = s.nearest_leaders(loc, count, level)
            want = sorted(
                ((x - loc[0]) ** 2 + (y - loc[1]) ** 2, oid)
                for oid, (x, y) in pts.items()
            )[:count]
            assert [n.oid for n in got] == [oid for _, oid in want]
            for n, (d2, _) in zip(got, want):
                assert math.isclose(n.dist, math.sqrt(d2))

    def test_equidistant_tie_breaks_by_smaller_id(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        put(tr, 9, 0.0, 100.0, 100.0)
        put(tr, 5, 0.0, 120.0, 100.0)
        s = Searcher(tr)
        got = s.nearest_leaders((110.0, 100.0), 2, 3)
        assert [n.oid for n in got] == [5, 9]

    def test_count_beyond_population_returns_all(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        for oid in range(4):
            put(tr, oid, 0.0, 50.0 + 10 * oid, 50.0)
        s = Searcher(tr)
        assert len(s.nearest_leaders((0.0, 0.0), 99, 2)) == 4

    def test_non_positive_count_and_empty_index(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        s = Searcher(tr)
        assert s.nearest_leaders((1.0, 1.0), 3, 2) == []
        put(tr, 1, 0.0, 5.0, 5.0)
        assert s.nearest_leaders((1.0, 1.0), 0, 2) == []

    def test_level_outside_key_range_raises(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        put(tr, 1, 0.0, 5.0, 5.0)
        s = Searcher(tr)
        with pytest.raises(SearchError):
            s.nearest_leaders((1.0, 1.0), 1, -1)
        with pytest.raises(SearchError):
            s.nearest_leaders((1.0, 1.0), 1, LEVELS.key_level + 1)


class TestKnn:
    def test_matches_brute_force_with_schools(self, tmp_path):
        rng = random.Random(23)
        _, tr = make_tracker(tmp_path)
        seed_schools(tr, rng, n_leaders=60, followers_per=2)
        s = Searcher(tr, FlagConfig(sigma=8.0))
        for _ in range(40):
            q = NNQuery(rng.uniform(0, 1000), rng.uniform(0, 1000),
                        rng.uniform(-2.0, 5.0), rng.choice([1, 3, 10, 25]))
            level = rng.choice([None, 0, 2, 4, 6, 8])
            got = s.knn(q, l_n=level)
            want = brute_knn(tr, q)
            assert [n.oid for n in got] == [oid for _, oid, _, _ in want]
            for n, (d2, _, x, y) in zip(got, want):
                assert math.isclose(n.dist, math.sqrt(d2))
                assert (n.x, n.y) == (x, y)

    def test_follower_found_at_modeled_position(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        put(tr, 1, 0.0, 100.0, 100.0, 1.0, 0.0)
        put(tr, 2, 0.0, 100.0, 105.0, 1.0, 0.0)
        tr.merge_schools(1, 2, 0.0)
        s = Searcher(tr)
        got = s.knn(NNQuery(102.0, 105.0, 2.0, 1), l_n=4)
        assert len(got) == 1
        n = got[0]
        assert (n.oid, n.x, n.y, n.dist) == (2, 102.0, 105.0, 0.0)

    def test_k_beyond_population_returns_everything(self, tmp_path):
        rng = random.Random(3)
        _, tr = make_tracker(tmp_path)
        total = seed_schools(tr, rng, n_leaders=8, followers_per=1)
        s = Searcher(tr)
        got = s.knn(NNQuery(500.0, 500.0, 1.0, 2 * total), l_n=3)
        assert len(got) == total
        assert [n.oid for n in got] == [oid for _, oid, _, _ in
                                        brute_knn(tr, NNQuery(500.0, 500.0, 1.0, total))]

    def test_non_positive_k_and_empty_tracker(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        s = Searcher(tr)
        assert s.knn(NNQuery(1.0, 1.0, 0.0, 5)) == []
        put(tr, 1, 0.0, 5.0, 5.0)
        assert s.knn(NNQuery(1.0, 1.0, 0.0, 0)) == []

    def test_far_leader_with_the_nearest_follower(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        # leader 1 sits 400 units away, its follower 2 right at the query;
        # nine singleton leaders lie between 10 and 90 units away
        put(tr, 1, 0.0, 900.0, 500.0)
        put(tr, 2, 0.0, 500.0, 501.0)
        assert tr.merge_schools(1, 2, 0.0)
        for i in range(9):
            put(tr, 10 + i, 0.0, 500.0 + 10.0 * (i + 1), 500.0)
        s = Searcher(tr)
        q = NNQuery(500.0, 500.0, 0.0, 3)
        for level in range(LEVELS.key_level + 1):
            got = s.knn(q, l_n=level)
            assert [n.oid for n in got] == [2, 10, 11]
            assert [n.oid for n in got] == [oid for _, oid, _, _ in brute_knn(tr, q)]

    def test_school_out_of_reach_is_never_expanded(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        # a 40-member school around (200, 200) and ten singletons near the
        # query at (800, 800)
        put(tr, 1, 0.0, 200.0, 200.0)
        for oid in range(2, 42):
            put(tr, oid, 0.0, 200.0 + (oid % 7), 200.0 - (oid % 5))
            assert tr.merge_schools(1, oid, 0.0)
        for i in range(10):
            put(tr, 100 + i, 0.0, 800.0 + i, 800.0)
        calls = []
        followers_of = tr.followers_of
        tr.followers_of = lambda oid: calls.append(oid) or followers_of(oid)
        s = Searcher(tr)
        for level in (None, 0, 1, 4, 8):
            got = s.knn(NNQuery(800.0, 800.0, 0.0, 10), l_n=level)
            assert [n.oid for n in got] == list(range(100, 110))
        assert calls == []
        # a query inside the school's reach does expand it
        got = s.knn(NNQuery(203.0, 198.0, 0.0, 10), l_n=4)
        assert calls == [1]
        assert [n.oid for n in got] == [oid for _, oid, _, _ in brute_knn(tr, NNQuery(203.0, 198.0, 0.0, 10))]

    def test_exact_after_merges_promotions_and_moves(self, tmp_path):
        rng = random.Random(41)
        _, tr = make_tracker(tmp_path)
        n = seed_schools(tr, rng, n_leaders=30, followers_per=3)
        for _ in range(25):  # merge random schools into one another
            leaders = sorted(o for o in range(n) if tr.affiliation_of(o).is_leader)
            a, b = rng.sample(leaders, 2)
            assert tr.merge_schools(a, b, 1.0)
        # promotions leave the old leaders' boxes loose
        followers = [o for o in range(n) if not tr.affiliation_of(o).is_leader]
        for oid in rng.sample(followers, 15):
            put(tr, oid, 2.0, rng.uniform(1, 999), rng.uniform(1, 999), rng.uniform(-3, 3), rng.uniform(-3, 3))
        # leaders move across cells, fast and slow
        leaders = [o for o in range(n) if tr.affiliation_of(o).is_leader]
        for oid in rng.sample(leaders, len(leaders) // 2):
            put(tr, oid, 3.0, rng.uniform(1, 999), rng.uniform(1, 999), rng.uniform(-8, 8), rng.uniform(-8, 8))
        tr.check_consistency()
        s = Searcher(tr, FlagConfig(sigma=4.0))
        for _ in range(60):
            q = NNQuery(rng.uniform(0, 1000), rng.uniform(0, 1000),
                        rng.choice([-5.0, 0.0, 1.5, 3.0, 4.0, 20.0]), rng.choice([1, 4, 10, 30]))
            got = s.knn(q, l_n=rng.choice([None, 0, 2, 5, 8]))
            want = brute_knn(tr, q)
            assert [n.oid for n in got] == [oid for _, oid, _, _ in want]
            for n, (d2, _, x, y) in zip(got, want):
                assert (n.x, n.y) == (x, y)
                assert math.isclose(n.dist, math.sqrt(d2))

    def test_stats_are_per_query(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        grid_population(tr)
        s = Searcher(tr)
        mine = QueryStats()
        s.knn(NNQuery(300.0, 300.0, 0.0, 5), l_n=3, stats=mine)
        assert s.last_stats is mine
        assert mine.rows_scanned > 0 and mine.scans > 0
        s.knn(NNQuery(300.0, 300.0, 0.0, 5), l_n=3)
        assert s.last_stats is not mine
        assert s.last_stats.rows_scanned == mine.rows_scanned


def grid_population(tr):
    # four leaders per level-3 cell (125 x 125): local density equals
    # sigma=4 everywhere, so the first probe already lands on level 3
    oid = 0
    for ix in range(8):
        for iy in range(8):
            for dx, dy in ((30, 30), (30, 90), (90, 30), (90, 90)):
                put(tr, oid, 0.0, ix * 125.0 + dx, iy * 125.0 + dy)
                oid += 1


class TestBestLevel:
    def test_uniform_grid_converges_in_one_probe(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        grid_population(tr)
        s = Searcher(tr, FlagConfig(sigma=4.0))
        stats = QueryStats()
        assert s.best_level((300.0, 700.0), stats) == 3
        assert stats.flag_probes == 1

    def test_empty_tracker_returns_floor(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        s = Searcher(tr, FlagConfig(sigma=4.0, l_min=2))
        assert s.best_level((10.0, 10.0)) == 2

    def test_empty_neighborhood_steps_down_to_floor(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        oid = 0
        for ix in range(16):
            for iy in range(16):
                put(tr, oid, 0.0, ix * 5.0 + 2.0, iy * 5.0 + 2.0)
                oid += 1
        s = Searcher(tr, FlagConfig(sigma=4.0))
        stats = QueryStats()
        assert s.best_level((999.0, 999.0), stats) == 1
        assert stats.flag_probes == 2

    def test_dense_spot_climbs_to_ceiling(self, tmp_path):
        rng = random.Random(7)
        _, tr = make_tracker(tmp_path)
        for oid in range(1000):
            put(tr, oid, 0.0, rng.uniform(500.0, 500.5), rng.uniform(500.0, 500.5))
        s = Searcher(tr, FlagConfig(sigma=1.0))
        assert s.best_level((500.2, 500.2)) == 8


class TestCachedLevel:
    def searcher(self, tr, now, **kw):
        cfg = FlagConfig(sigma=4.0, cache_ttl=10.0, **kw)
        return Searcher(tr, cfg, clock=lambda: now[0])

    def test_hit_answers_without_store_access(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        grid_population(tr)
        now = [0.0]
        s = self.searcher(tr, now)
        st1 = QueryStats()
        l1 = s.cached_level((30.0, 30.0), st1)
        assert st1.flag_probes > 0 and s.cache_misses == 1
        st2 = QueryStats()
        l2 = s.cached_level((30.0, 30.0), st2)
        assert l2 == l1
        assert st2.cache_hit
        assert (st2.scans, st2.rows_scanned, st2.flag_probes) == (0, 0, 0)
        assert s.cache_hits == 1

    def test_record_expires_after_ttl(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        grid_population(tr)
        now = [0.0]
        s = self.searcher(tr, now)
        s.cached_level((30.0, 30.0))
        now[0] = 5.0
        s.cached_level((30.0, 30.0))
        assert (s.cache_hits, s.cache_misses) == (1, 1)
        now[0] = 11.0
        s.cached_level((30.0, 30.0))
        assert (s.cache_hits, s.cache_misses) == (1, 2)

    def test_record_covers_its_whole_cell(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        grid_population(tr)
        now = [0.0]
        s = self.searcher(tr, now)
        s.cached_level((30.0, 30.0))    # caches the level-3 cell [0,125)^2
        s.cached_level((90.0, 90.0))    # same cell: hit
        s.cached_level((200.0, 30.0))   # different cell: miss
        assert (s.cache_hits, s.cache_misses) == (1, 2)

    def test_cache_respects_size_cap(self, tmp_path):
        _, tr = make_tracker(tmp_path)
        grid_population(tr)
        now = [0.0]
        s = self.searcher(tr, now, cache_max=2)
        for loc in ((30.0, 30.0), (300.0, 30.0), (700.0, 700.0)):
            s.cached_level(loc)
        assert s.cache_size() == 2


class TestConfig:
    def test_flag_config_validation(self):
        with pytest.raises(ValueError):
            FlagConfig(sigma=0.0)
        with pytest.raises(ValueError):
            FlagConfig(l_min=5, l_max=4)
        with pytest.raises(ValueError):
            FlagConfig(delta_max=0)
        with pytest.raises(ValueError):
            FlagConfig(cache_ttl=0.0)

    def test_ceiling_clamps_to_key_level(self, tmp_path):
        store = Store(tier_dir=str(tmp_path))
        tr = Tracker(store, LevelConfig(1000.0, 5, 1), SchoolConfig())
        s = Searcher(tr, FlagConfig(l_max=12))
        assert s.flag.l_max == 5
