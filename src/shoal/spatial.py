"""Planar Hilbert-curve cells, row keys, and geometry helpers.

The map is the square ``[0, M] x [0, M]``. At level ``l`` the map is split
into ``2**l x 2**l`` square cells; each cell is identified by the index of its
position along the Hilbert curve of that level. Cells are half-open on their
upper and right edges except along the map boundary, where the last row and
column of cells are closed, so every point of the map belongs to exactly one
cell per level.

Row keys: the base-4 digits of the curve index, one ASCII byte ('0'..'3') per
digit, fixed length equal to the level. Lexicographic order of keys therefore
equals numeric order of indexes, and the key of an ancestor cell is a prefix
of every descendant's key.

Curve kernels: cells are addressed by integer grid coordinates
``0 <= x, y < 2**level``; the curve index ``d`` satisfies ``0 <= d < 4**level``.
The base orientation visits the four level-1 quadrants in the order
lower-left, upper-left, upper-right, lower-right, so each pair of curve digits
(base 4) is 0, 1, 2, 3 for those quadrants respectively. The scalar forms
serve every update and search cell; the numpy batch forms convert whole
arrays at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Point = tuple[float, float]


def encode_cell(x: int, y: int, level: int) -> int:
    """Curve index of grid cell (x, y) at the level."""
    d = 0
    s = 1 << (level - 1) if level > 0 else 0
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d


def decode_cell(d: int, level: int) -> tuple[int, int]:
    """Grid coordinates of curve index d at the level."""
    x = y = 0
    t = d
    s = 1
    n = 1 << level
    while s < n:
        rx = 1 & (t >> 1)
        ry = 1 & (t ^ rx)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        t >>= 2
        s <<= 1
    return x, y


def encode_cells(xs: np.ndarray, ys: np.ndarray, level: int) -> np.ndarray:
    """Batch form of encode_cell over coordinate arrays."""
    x = np.ascontiguousarray(xs, dtype=np.int64).copy()
    y = np.ascontiguousarray(ys, dtype=np.int64).copy()
    d = np.zeros(x.shape, np.int64)
    s = np.int64(1 << (level - 1)) if level > 0 else np.int64(0)
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        swap = ry == 0
        flip = swap & (rx == 1)
        xf = x[flip]
        x[flip] = s - 1 - xf
        y[flip] = s - 1 - y[flip]
        tx = x[swap].copy()
        x[swap] = y[swap]
        y[swap] = tx
        s >>= 1
    return d


def decode_cells(ds: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Batch form of decode_cell over an index array."""
    t = np.ascontiguousarray(ds, dtype=np.int64).copy()
    x = np.zeros(t.shape, np.int64)
    y = np.zeros(t.shape, np.int64)
    s = np.int64(1)
    n = np.int64(1) << level
    while s < n:
        rx = np.int64(1) & (t >> 1)
        ry = np.int64(1) & (t ^ rx)
        swap = ry == 0
        flip = swap & (rx == 1)
        xf = x[flip]
        x[flip] = s - 1 - xf
        y[flip] = s - 1 - y[flip]
        tx = x[swap].copy()
        x[swap] = y[swap]
        y[swap] = tx
        x += s * rx
        y += s * ry
        t >>= 2
        s <<= 1
    return x, y


@dataclass(frozen=True)
class LevelConfig:
    """Grid geometry shared by the store schema and the search layer.

    key_level is the level at which spatial row keys are written (finest
    addressable cell); cluster_level is the coarser level used to batch
    leaders for reclustering.
    """

    map_size: float = 1000.0
    key_level: int = 5
    cluster_level: int = 1  # key_level - 4: clustering cells sized for merges

    def __post_init__(self) -> None:
        if self.map_size <= 0:
            raise ValueError("map_size must be positive")
        if not 0 < self.key_level <= 28:
            raise ValueError("key_level out of range")
        if not 0 <= self.cluster_level <= self.key_level:
            raise ValueError("cluster_level must lie in [0, key_level]")


@dataclass(frozen=True, order=True)
class SpatialIndex:
    """A Hilbert cell: curve position `value` at grid `level`."""

    level: int
    value: int

    def digits(self) -> tuple[int, ...]:
        out = []
        v = self.value
        for _ in range(self.level):
            out.append(v & 3)
            v >>= 2
        return tuple(reversed(out))

    def key(self) -> bytes:
        return bytes(48 + d for d in self.digits())

    def text(self) -> str:
        return "L%d:%s" % (self.level, "".join(str(d) for d in self.digits()))


@dataclass(frozen=True)
class CellBox:
    """Axis-aligned extent of a cell in map units."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def contains(self, p: Point, map_size: float) -> bool:
        # Half-open on top/right except where the cell touches the map edge.
        x_hi_ok = p[0] < self.x_max or (self.x_max >= map_size and p[0] <= self.x_max)
        y_hi_ok = p[1] < self.y_max or (self.y_max >= map_size and p[1] <= self.y_max)
        return self.x_min <= p[0] and x_hi_ok and self.y_min <= p[1] and y_hi_ok


def grid_coord(p: Point, level: int, cfg: LevelConfig) -> tuple[int, int]:
    """Integer cell coordinates of the point at a level, map-edge closed."""
    x, y = p
    if not (0.0 <= x <= cfg.map_size and 0.0 <= y <= cfg.map_size):
        raise ValueError("point (%r, %r) outside the map" % (x, y))
    n = 1 << level
    cx = int(x * n / cfg.map_size)
    cy = int(y * n / cfg.map_size)
    # Points exactly on the max edge fall into the last cell.
    if cx == n:
        cx = n - 1
    if cy == n:
        cy = n - 1
    return cx, cy


def encode(p: Point, level: int, cfg: LevelConfig) -> SpatialIndex:
    """Cell containing the point at the given level."""
    cx, cy = grid_coord(p, level, cfg)
    return SpatialIndex(level, encode_cell(cx, cy, level))


def decode(idx: SpatialIndex, cfg: LevelConfig) -> CellBox:
    """Extent of the cell in map units."""
    cx, cy = decode_cell(idx.value, idx.level)
    side = cfg.map_size / (1 << idx.level)
    return CellBox(cx * side, cy * side, (cx + 1) * side, (cy + 1) * side)


def neighbors(idx: SpatialIndex, cfg: LevelConfig) -> list[SpatialIndex]:
    """Edge-sharing cells at the same level, clipped at the map boundary."""
    cx, cy = decode_cell(idx.value, idx.level)
    n = 1 << idx.level
    out = []
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        nx, ny = cx + dx, cy + dy
        if 0 <= nx < n and 0 <= ny < n:
            out.append(SpatialIndex(idx.level, encode_cell(nx, ny, idx.level)))
    return out


def key_range(idx: SpatialIndex, key_level: int) -> tuple[bytes, bytes]:
    """Half-open [start, end) row-key interval of the cell's descendants.

    Keys are written at key_level; the cell may be at any coarser (or equal)
    level. Descendants of a cell occupy one contiguous curve interval, so the
    scan bounds are the first descendant key and the key just past the last.
    """
    if idx.level > key_level:
        raise ValueError("cell level %d exceeds key level %d" % (idx.level, key_level))
    shift = 2 * (key_level - idx.level)
    lo = idx.value << shift
    hi = (idx.value + 1) << shift
    start = SpatialIndex(key_level, lo).key()
    if hi >= 1 << (2 * key_level):
        end = b"4"  # sorts after every valid key
    else:
        end = SpatialIndex(key_level, hi).key()
    return start, end


def key_interval(idx: SpatialIndex, key_level: int) -> tuple[bytes, bytes]:
    """Closed [left, right] key interval: smallest and largest descendant keys."""
    if idx.level > key_level:
        raise ValueError("cell level %d exceeds key level %d" % (idx.level, key_level))
    shift = 2 * (key_level - idx.level)
    lo = idx.value << shift
    hi = ((idx.value + 1) << shift) - 1
    return SpatialIndex(key_level, lo).key(), SpatialIndex(key_level, hi).key()
