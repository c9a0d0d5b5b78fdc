"""Sorted store: ordering, versions, range scans, tier aging, eviction."""

import os
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoal.store import Store, StoreError, UnknownFamilyError, UnknownTableError

US = 1_000_000


@pytest.fixture
def store(tmp_path):
    s = Store(tier_dir=str(tmp_path))
    yield s
    s.close()


class TestPutGet:
    def test_write_read_roundtrip(self, store):
        t = store.create_table("t", ("fam",))
        t.put(b"4", "fam", "col", b"payload", 10)
        cells = t.get_row(b"4")
        assert len(cells) == 1
        c = cells[0]
        assert (c.family, c.column, c.timestamp, c.value, c.tier) == (
            "fam", "col", 10, b"payload", 0)

    def test_newest_first(self, store):
        t = store.create_table("t", ("fam",))
        t.put(b"r", "fam", "c", b"old", 1)
        t.put(b"r", "fam", "c", b"new", 2)
        vals = [c.value for c in t.get_row(b"r")]
        assert vals == [b"new", b"old"]
        assert t.latest(b"r", "fam", "c") == (2, b"new")

    def test_out_of_order_write_keeps_order(self, store):
        t = store.create_table("t", ("fam",))
        t.put(b"r", "fam", "c", b"b", 20)
        t.put(b"r", "fam", "c", b"a", 10)
        t.put(b"r", "fam", "c", b"m", 15)
        assert [c.timestamp for c in t.get_row(b"r")] == [20, 15, 10]

    def test_absent_row_empty(self, store):
        t = store.create_table("t", ("fam",))
        assert t.get_row(b"nope") == []
        assert t.latest(b"nope", "fam", "c") is None

    def test_unknown_family_rejected(self, store):
        t = store.create_table("t", ("fam",))
        with pytest.raises(UnknownFamilyError):
            t.put(b"r", "other", "c", b"v", 1)

    def test_unknown_table(self, store):
        store.create_table("t", ("fam",))
        with pytest.raises(UnknownTableError):
            store.table("u")
        with pytest.raises(StoreError):
            store.create_table("t", ("fam",))


class TestScan:
    def test_scan_sorted(self, store):
        t = store.create_table("t", ("fam",))
        for k in (b"10", b"02", b"2", b"0110", b"1"):
            t.put(k, "fam", "c", k, 1)
        keys = [k for k, _ in t.scan_range(b"", b"\xff")]
        assert keys == sorted([b"10", b"02", b"2", b"0110", b"1"])

    def test_scan_half_open(self, store):
        t = store.create_table("t", ("fam",))
        for k in (b"a", b"b", b"c"):
            t.put(k, "fam", "c", b"", 1)
        assert [k for k, _ in t.scan_range(b"a", b"c")] == [b"a", b"b"]
        assert t.scan_range(b"a", b"a") == []

    def test_scan_includes_dotted_subkeys(self, store):
        # spatial-style keys: cell digits + "." + id sort inside the cell range
        t = store.create_table("t", ("fam",))
        t.put(b"0110.7", "fam", "c", b"", 1)
        keys = [k for k, _ in t.scan_range(b"01", b"10")]
        assert keys == [b"0110.7"]

    def test_scan_rejects_reversed(self, store):
        t = store.create_table("t", ("fam",))
        with pytest.raises(StoreError):
            t.scan_range(b"b", b"a")

    @given(st.sets(st.binary(min_size=1, max_size=6), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_scan_full_range_is_sorted(self, keys):
        s = Store()
        t = s.create_table("t", ("fam",))
        for k in keys:
            t.put(k, "fam", "c", b"", 1)
        got = [k for k, _ in t.scan_range(b"", b"\xff" * 8)]
        assert got == sorted(keys)
        s.close()


class TestDelete:
    def test_delete_cell_and_row(self, store):
        t = store.create_table("t", ("fam", "other"))
        t.put(b"r", "fam", "c1", b"v", 1)
        t.put(b"r", "fam", "c1", b"v2", 2)
        t.put(b"r", "other", "c2", b"w", 1)
        assert t.delete(b"r", "fam", "c1") == 2  # both versions go
        fams = {c.family for c in t.get_row(b"r")}
        assert fams == {"other"}
        assert t.delete(b"r") == 1
        assert t.get_row(b"r") == []
        assert t.row_count() == 0

    def test_delete_idempotent(self, store):
        t = store.create_table("t", ("fam",))
        assert t.delete(b"gone", "fam", "c") == 0
        t.put(b"r", "fam", "c", b"v", 1)
        t.delete(b"r", "fam", "c")
        assert t.delete(b"r", "fam", "c") == 0

    def test_delete_family(self, store):
        t = store.create_table("t", ("a", "b"))
        t.put(b"r", "a", "c1", b"", 1)
        t.put(b"r", "a", "c2", b"", 1)
        t.put(b"r", "b", "c1", b"", 1)
        assert t.delete(b"r", "a") == 2
        assert {c.family for c in t.get_row(b"r")} == {"b"}


class TestAging:
    def test_no_aged_cells(self, store):
        t = store.create_table("t", ("fam",), tier_ttls=(60.0,))
        t.put(b"r", "fam", "c", b"v", 0)
        assert t.age_tick(30 * US) == 0

    def test_cell_moves_one_tier_and_stays_readable(self, store):
        t = store.create_table("t", ("fam",), tier_ttls=(10.0, 100.0))
        t.put(b"r", "fam", "c", b"v", 0)
        assert t.age_tick(11 * US) == 1
        cells = t.get_row(b"r")
        assert len(cells) == 1
        assert cells[0].tier == 1
        assert cells[0].value == b"v"
        assert t.tier_cells == [0, 1]

    def test_one_step_per_tick(self, store):
        t = store.create_table("t", ("fam",), tier_ttls=(1.0, 1.0, 1.0))
        t.put(b"r", "fam", "c", b"v", 0)
        t.age_tick(10 * US)
        assert t.get_row(b"r")[0].tier == 1
        t.age_tick(10 * US)
        assert t.get_row(b"r")[0].tier == 2

    def test_infinite_ttl_never_ages(self, store):
        t = store.create_table("t", ("fam",), tier_ttls=(float("inf"),))
        t.put(b"r", "fam", "c", b"v", 0)
        assert t.age_tick(1 << 61) == 0
        assert t.get_row(b"r")[0].tier == 0

    def test_final_tier_eviction_callback(self, store):
        out = []
        t = store.create_table(
            "t", ("fam",), tier_ttls=(1.0, 2.0),
            on_final_evict=lambda *a: out.append(a))
        t.put(b"r", "fam", "c", b"v", 0)
        t.age_tick(2 * US)
        assert out == []
        t.age_tick(5 * US)
        assert out == [(b"r", "fam", "c", 0, b"v")]
        assert t.get_row(b"r") == []
        assert t.evicted == 1

    def test_final_tier_discard_without_callback(self, store):
        t = store.create_table("t", ("fam",), tier_ttls=(1.0,))
        t.put(b"r", "fam", "c", b"v", 0)
        assert t.age_tick(2 * US) == 1
        assert t.get_row(b"r") == []
        assert t.evicted == 1

    def test_aging_conservation(self, store):
        # cells never vanish mid-pipeline: store count + evictions constant
        evicted = []
        t = store.create_table(
            "t", ("fam",), tier_ttls=(1.0, 2.0, 4.0),
            on_final_evict=lambda *a: evicted.append(a))
        for i in range(50):
            t.put(b"%d" % i, "fam", "c", b"v%d" % i, i * US)
        total = t.cell_count()
        for tick in range(1, 80):
            t.age_tick(tick * US)
            assert t.cell_count() + len(evicted) == total
        assert len(evicted) == 50

    def test_newest_first_across_tiers(self, store):
        t = store.create_table("t", ("fam",), tier_ttls=(5.0, 100.0))
        t.put(b"r", "fam", "c", b"old", 0)
        t.put(b"r", "fam", "c", b"new", 8 * US)
        t.age_tick(10 * US)  # only the old one crosses
        cells = t.get_row(b"r")
        assert [(c.value, c.tier) for c in cells] == [(b"new", 0), (b"old", 1)]
        assert t.latest(b"r", "fam", "c") == (8 * US, b"new")

    def test_drain_aging(self, store):
        hits = []
        t = store.create_table(
            "t", ("fam",), tier_ttls=(1.0, 1.0, 1.0),
            on_final_evict=lambda *a: hits.append(a))
        for i in range(10):
            t.put(b"%d" % i, "fam", "c", b"", 0)
        moved = store.drain_aging()
        assert moved == 30  # 10 cells x 3 tier exits
        assert len(hits) == 10
        assert t.cell_count() == 0


class TestExpiryQueues:
    def test_evicts_across_rows_in_timestamp_order(self, store):
        out = []
        t = store.create_table(
            "t", ("fam",), tier_ttls=(1.0,), on_final_evict=lambda *a: out.append(a))
        for row, ts in ((b"a", 3), (b"b", 1), (b"c", 2), (b"a", 0)):
            t.put(row, "fam", "c", b"", ts * US)
        assert t.age_tick(10 * US) == 4
        assert [(row, ts // US) for row, _, _, ts, _ in out] == [
            (b"a", 0), (b"b", 1), (b"c", 2), (b"a", 3)]
        assert t.row_count() == 0

    def test_pops_only_expired_cells(self, store):
        t = store.create_table("t", ("fam",), tier_ttls=(5.0, 100.0))
        for i in range(10):
            t.put(b"%d" % i, "fam", "c", b"", i * US)
        assert t.age_tick(8 * US) == 3  # ages 8, 7, 6 exceed 5
        assert t.tier_cells == [7, 3]
        assert t.age_tick(8 * US) == 0

    def test_out_of_order_put_ages_by_its_own_timestamp(self, store):
        out = []
        t = store.create_table(
            "t", ("fam",), tier_ttls=(5.0, 10.0), on_final_evict=lambda *a: out.append(a))
        t.put(b"r", "fam", "c", b"b", 5 * US)
        assert t.age_tick(11 * US) == 1  # b reaches tier 1
        t.put(b"r", "fam", "c", b"a", 0)  # older than b, written after it
        assert t.age_tick(12 * US) == 1  # a reaches tier 1, behind b
        assert [(c.value, c.tier) for c in t.get_row(b"r")] == [(b"b", 1), (b"a", 1)]
        assert t.age_tick(13 * US) == 1  # a is 13 s old, b only 8 s
        assert [o[4] for o in out] == [b"a"]
        assert t.latest(b"r", "fam", "c") == (5 * US, b"b")

    def test_deleted_cells_are_skipped(self, store):
        out = []
        t = store.create_table(
            "t", ("fam",), tier_ttls=(5.0,), on_final_evict=lambda *a: out.append(a))
        t.put(b"gone", "fam", "c", b"", 0)
        t.put(b"kept", "fam", "c", b"v", 1 * US)
        t.put(b"again", "fam", "c", b"old", 0)
        assert t.delete(b"gone") == 1
        assert t.delete(b"again", "fam", "c") == 1
        t.put(b"again", "fam", "c", b"new", 8 * US)  # the column written again
        assert t.age_tick(10 * US) == 1
        assert [o[0] for o in out] == [b"kept"]
        assert t.cell_count() == 1 and t.tier_cells == [1]
        assert t.age_tick(20 * US) == 1
        assert [o[0] for o in out] == [b"kept", b"again"]
        assert t.cell_count() == 0 and t.row_count() == 0

    def test_one_tier_step_per_tick_for_every_cell(self, store):
        out = []
        t = store.create_table(
            "t", ("fam",), tier_ttls=(1.0, 1.0, 1.0), on_final_evict=lambda *a: out.append(a))
        for i, ts in enumerate((7, 3, 9, 0, 5)):
            t.put(b"%d" % (i % 2), "fam", "c%d" % i, b"", ts * US)
        for tier in (1, 2):
            assert t.age_tick(100 * US) == 5
            assert {c.tier for k in t.keys() for c in t.get_row(k)} == {tier}
        assert t.age_tick(100 * US) == 5
        assert [o[3] // US for o in out] == [0, 3, 5, 7, 9]
        assert t.cell_count() == 0


class TestCurrentState:
    def test_last_write_wins(self, store):
        t = store.create_table("t", ("fam",), tier_ttls=(float("inf"),))
        assert t.current_state
        t.put(b"r", "fam", "c", b"first", 10)
        t.put(b"r", "fam", "c", b"second", 20)
        assert [(c.timestamp, c.value) for c in t.get_row(b"r")] == [(20, b"second")]
        t.put(b"r", "fam", "c", b"older", 15)  # an earlier timestamp replaces too
        assert t.latest(b"r", "fam", "c") == (15, b"older")
        t.put(b"r", "fam", "c", b"same", 15)
        assert t.latest(b"r", "fam", "c") == (15, b"same")
        assert t.puts == 4
        assert t.cell_count() == 1 and t.tier_cells == [1]

    def test_one_cell_per_column(self, store):
        t = store.create_table("t", ("a", "b"), tier_ttls=(float("inf"),))
        for ts in range(5):
            t.put(b"r", "a", "x", b"%d" % ts, ts)
            t.put(b"r", "a", "y", b"%d" % ts, ts)
            t.put(b"r", "b", "x", b"%d" % ts, ts)
        assert [(c.family, c.column, c.value) for c in t.get_row(b"r")] == [
            ("a", "x", b"4"), ("a", "y", b"4"), ("b", "x", b"4")]
        assert t.cell_count() == 3 and t.puts == 15
        assert t.delete(b"r", "a") == 2
        t.put(b"r", "a", "x", b"back", 1)  # a fresh column after the delete
        assert t.cell_count() == 2
        assert t.age_tick(1 << 61) == 0

    def test_tables_that_age_or_evict_keep_versions(self, store):
        evicting = store.create_table(
            "e", ("fam",), tier_ttls=(float("inf"),), on_final_evict=lambda *a: None)
        aging = store.create_table("a", ("fam",), tier_ttls=(float("inf"), 5.0))
        for t in (evicting, aging):
            assert not t.current_state
            t.put(b"r", "fam", "c", b"old", 1)
            t.put(b"r", "fam", "c", b"new", 2)
            assert [c.value for c in t.get_row(b"r")] == [b"new", b"old"]


class TestTierDir:
    def test_close_removes_only_a_tier_dir_the_store_made(self, tmp_path):
        own = Store()
        t = own.create_table("t", ("fam",), tier_ttls=(1.0, 1.0))
        t.put(b"r", "fam", "c", b"v", 0)
        t.age_tick(2 * US)  # into the disk tier
        assert os.listdir(own.tier_dir)
        own.close()
        assert not os.path.exists(own.tier_dir)
        given = Store(tier_dir=str(tmp_path))
        given.close()
        assert os.path.isdir(str(tmp_path))


class TestDiskTiers:
    def test_disk_tier_file_format(self, store, tmp_path):
        t = store.create_table("fmt", ("fam",), tier_ttls=(1.0, 100.0))
        t.put(b"rowk", "fam", "colname", b"\x01\x02\x03", 7)
        t.age_tick(2 * US)
        # a read through the API flushes the tier file's write buffer
        assert t.get_row(b"rowk")[0].value == b"\x01\x02\x03"
        path = tmp_path / "fmt.tier1.dat"
        raw = path.read_bytes()
        (plen,) = struct.unpack_from("<I", raw, 0)
        assert plen == len(raw) - 4
        off = 4
        (rl,) = struct.unpack_from("<H", raw, off); off += 2
        assert raw[off:off + rl] == b"rowk"; off += rl
        (fl,) = struct.unpack_from("<H", raw, off); off += 2
        assert raw[off:off + fl] == b"fam"; off += fl
        (cl,) = struct.unpack_from("<H", raw, off); off += 2
        assert raw[off:off + cl] == b"colname"; off += cl
        (ts,) = struct.unpack_from("<Q", raw, off); off += 8
        assert ts == 7
        (vl,) = struct.unpack_from("<I", raw, off); off += 4
        assert raw[off:off + vl] == b"\x01\x02\x03"

    def test_values_survive_many_moves(self, store):
        t = store.create_table("t", ("fam",), tier_ttls=(1.0, 1.0, 100.0))
        blobs = {b"%d" % i: bytes([i]) * (i + 1) for i in range(20)}
        for k, v in blobs.items():
            t.put(k, "fam", "c", v, 0)
        t.age_tick(2 * US)
        t.age_tick(4 * US)
        for k, v in blobs.items():
            assert t.get_row(k)[0].value == v
            assert t.get_row(k)[0].tier == 2


class TestConcurrency:
    def test_parallel_writers_disjoint_rows(self, store):
        t = store.create_table("t", ("fam",))
        n_threads, per = 8, 200

        def work(tid):
            for i in range(per):
                t.put(b"%d-%d" % (tid, i), "fam", "c", b"v", i)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert t.row_count() == n_threads * per
        keys = [k for k, _ in t.scan_range(b"", b"\xff")]
        assert keys == sorted(keys)

    def test_scan_during_writes_returns_whole_rows(self, store):
        t = store.create_table("t", ("fam",))
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set() and i < 12_000:
                t.put(b"r%06d" % i, "fam", "a", b"x", i)
                t.put(b"r%06d" % i, "fam", "b", b"y", i)
                i += 1

        th = threading.Thread(target=writer)
        th.start()
        try:
            for _ in range(40):
                for _, cells in t.scan_range(b"r", b"s"):
                    cols = [c.column for c in cells]
                    # writes land a then b; per-row snapshots may miss b but
                    # never show b without a
                    if "b" in cols:
                        assert "a" in cols
        finally:
            stop.set()
            th.join()
