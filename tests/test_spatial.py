"""Hilbert cells, row keys, and geometry.

The reference ordering comes from an independent construction: recursive
subdivision of the square with explicit frame vectors, which never touches
the bit-twiddling in shoal.spatial. The two must agree cell for cell.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoal import spatial
from shoal.spatial import CellBox, LevelConfig, SpatialIndex

CFG = LevelConfig(map_size=1000.0, key_level=8, cluster_level=4)


def hilbert_order(level: int) -> list:
    """Cell coords in curve order, by recursive frame subdivision.

    Frame = origin corner plus x/y span vectors. Each quadrant recurses with
    the frame transposed (first), kept (middle two), or anti-transposed
    (last). Base orientation: lower-left, upper-left, upper-right,
    lower-right.
    """
    pts: list = []
    side = 1 << level

    def gen(x0, y0, xi, xj, yi, yj, n):
        if n == 0:
            pts.append((x0 + (xi + yi) // 2, y0 + (xj + yj) // 2))
            return
        gen(x0, y0, yi // 2, yj // 2, xi // 2, xj // 2, n - 1)
        gen(x0 + xi // 2, y0 + xj // 2, xi // 2, xj // 2, yi // 2, yj // 2, n - 1)
        gen(x0 + xi // 2 + yi // 2, y0 + xj // 2 + yj // 2,
            xi // 2, xj // 2, yi // 2, yj // 2, n - 1)
        gen(x0 + xi // 2 + yi, y0 + xj // 2 + yj,
            -yi // 2, -yj // 2, -xi // 2, -xj // 2, n - 1)

    gen(0, 0, 0, side, side, 0, level)
    return pts


class TestCurveOrder:
    def test_matches_recursive_construction_exhaustively(self):
        for level in range(1, 7):
            pts = hilbert_order(level)
            for d, (x, y) in enumerate(pts):
                assert spatial.decode_cell(d, level) == (x, y)
                assert spatial.encode_cell(x, y, level) == d

    def test_base_orientation(self):
        # level 1: LL, UL, UR, LR
        assert [spatial.decode_cell(d, 1) for d in range(4)] == [
            (0, 0), (0, 1), (1, 1), (1, 0)]

    def test_frozen_values(self):
        # Values computed with the recursive construction above.
        assert spatial.decode_cell(5, 3) == (3, 0)
        assert spatial.decode_cell(37, 3) == (4, 7)
        assert spatial.decode_cell(63, 3) == (7, 0)
        assert spatial.decode_cell(444, 5) == (14, 24)
        assert spatial.decode_cell(12345, 8) == (62, 123)
        assert spatial.encode_cell(200, 13, 8) == 61587
        assert spatial.encode_cell(255, 0, 8) == 65535

    @given(st.integers(1, 28), st.data())
    def test_roundtrip_any_level(self, level, data):
        d = data.draw(st.integers(0, 4 ** level - 1))
        x, y = spatial.decode_cell(d, level)
        assert 0 <= x < (1 << level) and 0 <= y < (1 << level)
        assert spatial.encode_cell(x, y, level) == d

    def test_consecutive_indexes_are_grid_neighbors(self):
        for level in (1, 2, 3, 5):
            prev = spatial.decode_cell(0, level)
            for d in range(1, 4 ** level):
                cur = spatial.decode_cell(d, level)
                assert abs(cur[0] - prev[0]) + abs(cur[1] - prev[1]) == 1
                prev = cur

    def test_prefix_nesting(self):
        for level in (2, 3, 4):
            for d in range(4 ** level):
                x, y = spatial.decode_cell(d, level)
                assert spatial.decode_cell(d >> 2, level - 1) == (x >> 1, y >> 1)


class TestBatchKernels:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        for level in (1, 4, 9, 16):
            n = 1 << level
            cx = rng.integers(0, n, 300)
            cy = rng.integers(0, n, 300)
            vals = spatial.encode_cells(cx, cy, level)
            for i in range(300):
                assert vals[i] == spatial.encode_cell(int(cx[i]), int(cy[i]), level)
            dx, dy = spatial.decode_cells(vals, level)
            assert np.array_equal(dx, cx)
            assert np.array_equal(dy, cy)


class TestKeys:
    def test_key_is_base4_digits(self):
        idx = SpatialIndex(3, 0b100100)  # digits 2,1,0
        assert idx.digits() == (2, 1, 0)
        assert idx.key() == b"210"
        assert idx.text() == "L3:210"

    def test_lexicographic_equals_numeric(self):
        keys = [SpatialIndex(4, v).key() for v in range(256)]
        assert keys == sorted(keys)

    def test_ancestor_key_is_prefix(self):
        level, v = 6, 2905
        idx = SpatialIndex(level, v)
        for lvl in range(7):
            anc = SpatialIndex(lvl, v >> 2 * (level - lvl))
            assert idx.key().startswith(anc.key())

    @given(st.integers(1, 8), st.data())
    def test_text_and_key_roundtrip(self, level, data):
        v = data.draw(st.integers(0, 4 ** level - 1))
        idx = SpatialIndex(level, v)
        assert int(idx.key(), 4) == v
        assert idx.text() == "L%d:%s" % (level, idx.key().decode())


class TestGeometry:
    def test_grid_coord_interior(self):
        assert spatial.grid_coord((0.0, 0.0), 3, CFG) == (0, 0)
        assert spatial.grid_coord((125.0, 0.0), 3, CFG) == (1, 0)
        assert spatial.grid_coord((999.9, 999.9), 3, CFG) == (7, 7)

    def test_grid_coord_max_edge_closed(self):
        assert spatial.grid_coord((1000.0, 1000.0), 3, CFG) == (7, 7)

    def test_grid_coord_outside_raises(self):
        with pytest.raises(ValueError):
            spatial.grid_coord((-0.001, 0.0), 3, CFG)
        with pytest.raises(ValueError):
            spatial.grid_coord((0.0, 1000.001), 3, CFG)

    @given(st.floats(0, 1000), st.floats(0, 1000), st.integers(0, 10))
    def test_decoded_box_contains_point(self, x, y, level):
        idx = spatial.encode((x, y), level, CFG)
        box = spatial.decode(idx, CFG)
        assert box.contains((x, y), CFG.map_size)

    def test_every_point_in_exactly_one_cell(self):
        # sample points on interior cell boundaries; half-open rule picks one
        level = 2
        boxes = [spatial.decode(SpatialIndex(level, v), CFG) for v in range(16)]
        for p in [(250.0, 250.0), (500.0, 100.0), (0.0, 750.0), (1000.0, 500.0),
                  (1000.0, 1000.0), (0.0, 0.0)]:
            owners = [b for b in boxes if b.contains(p, CFG.map_size)]
            assert len(owners) == 1

    def test_neighbors_counts_and_symmetry(self):
        level = 3
        for v in range(64):
            idx = SpatialIndex(level, v)
            nbrs = spatial.neighbors(idx, CFG)
            cx, cy = spatial.decode_cell(v, level)
            on_edge = int(cx in (0, 7)) + int(cy in (0, 7))
            assert len(nbrs) == 4 - on_edge
            for nb in nbrs:
                assert idx in spatial.neighbors(nb, CFG)

    def test_cellbox_contains_edges(self):
        box = CellBox(0.0, 0.0, 500.0, 500.0)
        assert box.contains((0.0, 0.0), 1000.0)
        assert not box.contains((500.0, 0.0), 1000.0)
        top = CellBox(500.0, 500.0, 1000.0, 1000.0)
        assert top.contains((1000.0, 1000.0), 1000.0)


class TestKeyRanges:
    def test_key_range_enumeration(self):
        # descendants of a level-2 cell at key level 4 = 16 contiguous keys
        idx = SpatialIndex(2, 9)
        start, end = spatial.key_range(idx, 4)
        all_keys = [SpatialIndex(4, v).key() for v in range(256)]
        inside = [k for k in all_keys if start <= k < end]
        want = [SpatialIndex(4, (9 << 4) + i).key() for i in range(16)]
        assert inside == want

    def test_key_range_last_cell_sentinel(self):
        start, end = spatial.key_range(SpatialIndex(1, 3), 3)
        assert start == b"300"
        assert end == b"4"
        assert all(SpatialIndex(3, v).key() < end for v in range(64))

    def test_key_range_whole_map(self):
        start, end = spatial.key_range(SpatialIndex(0, 0), 3)
        assert start == b"000"
        assert end == b"4"

    def test_key_range_at_key_level(self):
        idx = SpatialIndex(3, 17)
        start, end = spatial.key_range(idx, 3)
        assert start == idx.key()
        assert end == SpatialIndex(3, 18).key()

    def test_key_range_level_too_deep(self):
        with pytest.raises(ValueError):
            spatial.key_range(SpatialIndex(4, 0), 3)

    def test_key_interval_closed(self):
        idx = SpatialIndex(2, 9)
        left, right = spatial.key_interval(idx, 4)
        assert left == SpatialIndex(4, 9 << 4).key()
        assert right == SpatialIndex(4, (10 << 4) - 1).key()
        # interval of the very last cell stays within valid keys
        left, right = spatial.key_interval(SpatialIndex(1, 3), 3)
        assert right == SpatialIndex(3, 63).key()

    @given(st.integers(0, 3), st.data())
    def test_interval_bounds_match_range(self, level, data):
        v = data.draw(st.integers(0, 4 ** level - 1))
        idx = SpatialIndex(level, v)
        start, _ = spatial.key_range(idx, 5)
        left, right = spatial.key_interval(idx, 5)
        assert left == start
        all_keys = [SpatialIndex(5, u).key() for u in range(4 ** 5)]
        inside_closed = [k for k in all_keys if left <= k <= right]
        assert len(inside_closed) == 4 ** (5 - level)


class TestLevelConfig:
    def test_defaults_keep_cluster_rule(self):
        cfg = LevelConfig()
        assert cfg.key_level - cfg.cluster_level == 4

    @pytest.mark.parametrize("kw", [
        {"map_size": 0.0},
        {"key_level": 0},
        {"key_level": 29},
        {"cluster_level": -1},
        {"key_level": 3, "cluster_level": 4},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            LevelConfig(**kw)
