"""Synthetic road-network mobility workload.

A square map is divided into a grid of rectangular buildings separated by
roads (the grid lines). Each building has one entrance at a random non-corner
point of its perimeter. Agents are pedestrians (speed 0..1 units/s) or cars
(1..2 units/s) moving along roads; at a crossroad they turn with equal
probability over the available directions, excluding going back unless that
is the only option, and redraw their speed. Pedestrians passing within
`entry_radius` of an entrance enter the building with probability
`entry_prob`; while inside they report a fresh uniform position with zero
velocity each update and leave with probability `exit_prob` per update.

Every agent reports at intervals drawn uniformly from (0, interval_max];
reported positions and velocities carry uniform noise. The whole stream is a
pure function of (config, seed).

Trace files hold one update per line, `t id x y vx vy`, t in seconds with
microsecond precision, coordinates in repr form so replay round-trips
bit-exactly.
"""

from __future__ import annotations

import enum
import heapq
import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterator

from .schooling import UpdateMessage


class WorkloadError(Exception):
    pass


class TraceError(WorkloadError):
    """Malformed trace line; message names the line number."""


class AgentKind(enum.Enum):
    PEDESTRIAN = "pedestrian"
    CAR = "car"


SPEED_RANGE = {AgentKind.PEDESTRIAN: (0.0, 1.0), AgentKind.CAR: (1.0, 2.0)}


def _quantize(t: float) -> float:
    return round(t * 1e6) / 1e6


@dataclass(frozen=True)
class WorkloadConfig:
    seed: int = 0
    n_agents: int = 1000
    pedestrian_fraction: float = 0.5
    map_size: float = 1000.0
    blocks: int = 20  # blocks x blocks buildings
    pos_noise: float = 0.5
    vel_noise: float = 0.05
    interval_max: float = 5.0
    entry_prob: float = 0.05
    exit_prob: float = 0.05
    entry_radius: float = 1.0
    duration: float = 60.0
    start_id: int = 0  # disjoint id ranges let several instances coexist

    def __post_init__(self) -> None:
        if self.map_size <= 0 or self.blocks < 1:
            raise ValueError("degenerate map dimensions")
        if self.n_agents < 0 or self.duration < 0:
            raise ValueError("n_agents and duration must be non-negative")
        for p in (self.entry_prob, self.exit_prob, self.pedestrian_fraction):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        if self.interval_max <= 0:
            raise ValueError("interval_max must be positive")
        if min(self.pos_noise, self.vel_noise, self.entry_radius) < 0:
            raise ValueError("noise amplitudes must be non-negative")


@dataclass(frozen=True)
class Building:
    index: int
    x0: float
    y0: float
    x1: float
    y1: float
    entrance: tuple[float, float]
    # road-line coordinates of the entrance: axis 'h' means the door sits on
    # the horizontal road y = line * block, at x = offset
    axis: str
    line: int
    offset: float


@dataclass(frozen=True)
class RoadMap:
    size: float
    blocks: int
    block: float
    buildings: tuple[Building, ...]
    doors: dict[tuple[str, int], list[tuple[float, int]]] = field(compare=False)


def generate_map(cfg: WorkloadConfig) -> RoadMap:
    """Deterministic building grid with one entrance per building."""
    rng = random.Random(cfg.seed)
    map_rng = random.Random(rng.getrandbits(64))
    b = cfg.map_size / cfg.blocks
    buildings = []
    doors: dict[tuple[str, int], list[tuple[float, int]]] = {}
    idx = 0
    for j in range(cfg.blocks):
        for i in range(cfg.blocks):
            x0, y0 = i * b, j * b
            side = map_rng.randrange(4)  # south, east, north, west
            u = map_rng.uniform(0.0, b)
            while u <= 0.0 or u >= b:  # corners are not entrances
                u = map_rng.uniform(0.0, b)
            if side == 0:
                ent, axis, line, off = (x0 + u, y0), "h", j, x0 + u
            elif side == 1:
                ent, axis, line, off = (x0 + b, y0 + u), "v", i + 1, y0 + u
            elif side == 2:
                ent, axis, line, off = (x0 + u, y0 + b), "h", j + 1, x0 + u
            else:
                ent, axis, line, off = (x0, y0 + u), "v", i, y0 + u
            buildings.append(Building(idx, x0, y0, x0 + b, y0 + b, ent, axis, line, off))
            doors.setdefault((axis, line), []).append((off, idx))
            idx += 1
    for lst in doors.values():
        lst.sort()
    return RoadMap(cfg.map_size, cfg.blocks, b, tuple(buildings), doors)


@dataclass
class MobileAgent:
    oid: int
    kind: AgentKind
    speed: float
    axis: str  # 'h': y fixed, x = offset; 'v': x fixed, y = offset
    line: int
    offset: float
    direction: int  # +1 or -1 along the axis
    t: float
    next_t: float
    inside: int | None = None  # building index while indoors

    def position(self, block: float) -> tuple[float, float]:
        if self.axis == "h":
            return (self.offset, self.line * block)
        return (self.line * block, self.offset)

    def velocity(self) -> tuple[float, float]:
        if self.inside is not None:
            return (0.0, 0.0)
        s = self.speed * self.direction
        return (s, 0.0) if self.axis == "h" else (0.0, s)


class Generator:
    """Event-driven agent simulator emitting a time-ordered update stream."""

    def __init__(self, cfg: WorkloadConfig, road_map: RoadMap | None = None):
        self.cfg = cfg
        self.road_map = road_map if road_map is not None else generate_map(cfg)
        rng = random.Random(cfg.seed)
        rng.getrandbits(64)  # map stream comes first; keep agents independent
        self._rng = random.Random(rng.getrandbits(64))
        self.agents: dict[int, MobileAgent] = {}
        self._heap: list[tuple[float, int]] = []
        self.crossroad_events = 0
        self.turn_counts: Counter[str] = Counter()  # left/straight/right at 4-way nodes
        self.entries = 0
        self.exits = 0
        self.emitted = 0
        n_ped = round(cfg.n_agents * cfg.pedestrian_fraction)
        for i in range(cfg.n_agents):
            oid = cfg.start_id + i
            kind = AgentKind.PEDESTRIAN if i < n_ped else AgentKind.CAR
            lo, hi = SPEED_RANGE[kind]
            agent = MobileAgent(
                oid=oid,
                kind=kind,
                speed=self._rng.uniform(lo, hi),
                axis="h" if self._rng.random() < 0.5 else "v",
                line=self._rng.randrange(cfg.blocks + 1),
                offset=self._rng.uniform(0.0, cfg.map_size),
                direction=1 if self._rng.random() < 0.5 else -1,
                t=0.0,
                next_t=_quantize(max(self._rng.uniform(0.0, cfg.interval_max), 1e-6)),
            )
            self.agents[oid] = agent
            heapq.heappush(self._heap, (agent.next_t, oid))

    # ------------------------------------------------------------- kinematics

    def _turn(self, agent: MobileAgent) -> None:
        """Uniform direction choice at a road node; speed is redrawn."""
        b = self.road_map.block
        size = self.road_map.size
        if agent.axis == "h":
            gx, gy = round(agent.offset / b), agent.line
        else:
            gx, gy = agent.line, round(agent.offset / b)
        x, y = gx * b, gy * b
        options: list[tuple[str, int, int]] = []  # (axis, line, direction)
        if x < size:
            options.append(("h", gy, 1))
        if x > 0:
            options.append(("h", gy, -1))
        if y < size:
            options.append(("v", gx, 1))
        if y > 0:
            options.append(("v", gx, -1))
        reverse = (agent.axis, agent.line, -agent.direction)
        allowed = [o for o in options if o != reverse]
        if not allowed:  # dead end: going back is the only way out
            allowed = [reverse]
        choice = allowed[self._rng.randrange(len(allowed))]
        self.crossroad_events += 1
        if len(options) == 4:
            self.turn_counts[self._classify_turn(agent, choice)] += 1
        axis, line, direction = choice
        agent.axis = axis
        agent.line = line
        agent.offset = x if axis == "h" else y
        agent.direction = direction
        lo, hi = SPEED_RANGE[agent.kind]
        agent.speed = self._rng.uniform(lo, hi)

    @staticmethod
    def _classify_turn(agent: MobileAgent, choice: tuple[str, int, int]) -> str:
        hx, hy = (agent.direction, 0) if agent.axis == "h" else (0, agent.direction)
        cx, cy = (choice[2], 0) if choice[0] == "h" else (0, choice[2])
        if (hx, hy) == (cx, cy):
            return "straight"
        return "left" if hx * cy - hy * cx > 0 else "right"

    def _sweep_doors(self, agent: MobileAgent, lo: float, hi: float) -> int | None:
        """Entry roll for each door within entry_radius of the swept span."""
        doors = self.road_map.doors.get((agent.axis, agent.line))
        if not doors:
            return None
        r = self.cfg.entry_radius
        i = bisect_left(doors, (lo - r, -1))
        j = bisect_right(doors, (hi + r, 1 << 62))
        for off, bidx in doors[i:j]:
            if self._rng.random() < self.cfg.entry_prob:
                agent.offset = min(max(off, 0.0), self.road_map.size)
                return bidx
        return None

    def _advance(self, agent: MobileAgent, t: float) -> None:
        """Move an on-road agent along the grid from agent.t to t."""
        remaining = agent.speed * (t - agent.t)
        b = self.road_map.block
        size = self.road_map.size
        while remaining > 1e-12:
            if agent.direction > 0:
                node = min(math.floor(agent.offset / b + 1) * b, size)
                gap = node - agent.offset
            else:
                node = max(math.ceil(agent.offset / b - 1) * b, 0.0)
                gap = agent.offset - node
            if gap < 1e-9:  # float residue: already standing on the node
                agent.offset = node
                self._turn(agent)
                continue
            step = min(remaining, gap)
            new_off = agent.offset + step * agent.direction
            if agent.kind is AgentKind.PEDESTRIAN:
                span = (min(agent.offset, new_off), max(agent.offset, new_off))
                entered = self._sweep_doors(agent, *span)
                if entered is not None:
                    agent.inside = entered
                    self.entries += 1
                    return
            agent.offset = new_off
            remaining -= step
            if step == gap:
                self._turn(agent)

    # --------------------------------------------------------------- emission

    def _emit(self, agent: MobileAgent, t: float) -> UpdateMessage:
        cfg = self.cfg
        rng = self._rng
        if agent.inside is not None:
            if rng.random() < cfg.exit_prob:
                bld = self.road_map.buildings[agent.inside]
                agent.inside = None
                agent.axis = bld.axis
                agent.line = bld.line
                agent.offset = bld.offset
                agent.direction = 1 if rng.random() < 0.5 else -1
                lo, hi = SPEED_RANGE[agent.kind]
                agent.speed = rng.uniform(lo, hi)
                self.exits += 1
                x, y = agent.position(self.road_map.block)
            else:
                bld = self.road_map.buildings[agent.inside]
                x = rng.uniform(bld.x0, bld.x1)
                y = rng.uniform(bld.y0, bld.y1)
        else:
            self._advance(agent, t)
            if agent.inside is not None:
                bld = self.road_map.buildings[agent.inside]
                x = rng.uniform(bld.x0, bld.x1)
                y = rng.uniform(bld.y0, bld.y1)
            else:
                x, y = agent.position(self.road_map.block)
        vx, vy = agent.velocity()
        size = self.road_map.size
        if cfg.pos_noise > 0:
            x = min(max(x + rng.uniform(-cfg.pos_noise, cfg.pos_noise), 0.0), size)
            y = min(max(y + rng.uniform(-cfg.pos_noise, cfg.pos_noise), 0.0), size)
        if cfg.vel_noise > 0:
            vx += rng.uniform(-cfg.vel_noise, cfg.vel_noise)
            vy += rng.uniform(-cfg.vel_noise, cfg.vel_noise)
            vx, vy = self._clamp_speed(agent.kind, vx, vy)
        agent.t = t
        self.emitted += 1
        return UpdateMessage(agent.oid, t, x, y, vx, vy)

    @staticmethod
    def _clamp_speed(kind: AgentKind, vx: float, vy: float) -> tuple[float, float]:
        lo, hi = SPEED_RANGE[kind]
        n = math.hypot(vx, vy)
        if n > hi:
            s = hi / n
            return (vx * s, vy * s)
        if n < lo:
            if n == 0.0:
                return (lo, 0.0)
            s = lo / n
            return (vx * s, vy * s)
        return (vx, vy)

    # ------------------------------------------------------------------ drive

    def step(self, until: float) -> Iterator[UpdateMessage]:
        """Emit every update scheduled at or before `until`, in time order."""
        cfg = self.cfg
        while self._heap and self._heap[0][0] <= until:
            t, oid = heapq.heappop(self._heap)
            agent = self.agents[oid]
            msg = self._emit(agent, t)
            agent.next_t = _quantize(t + max(self._rng.uniform(0.0, cfg.interval_max), 1e-6))
            heapq.heappush(self._heap, (agent.next_t, oid))
            yield msg

    def messages(self) -> Iterator[UpdateMessage]:
        """The full stream for cfg.duration simulated seconds."""
        return self.step(self.cfg.duration)


# ------------------------------------------------------------------- tracing


def format_message(msg: UpdateMessage) -> str:
    return "%.6f %d %r %r %r %r" % (msg.t, msg.oid, msg.x, msg.y, msg.vx, msg.vy)


def parse_line(line: str, lineno: int) -> UpdateMessage:
    parts = line.split()
    if len(parts) != 6:
        raise TraceError("line %d: expected 6 fields, got %d" % (lineno, len(parts)))
    try:
        return UpdateMessage(
            oid=int(parts[1]),
            t=float(parts[0]),
            x=float(parts[2]),
            y=float(parts[3]),
            vx=float(parts[4]),
            vy=float(parts[5]),
        )
    except ValueError as exc:
        raise TraceError("line %d: %s" % (lineno, exc)) from exc


def write_trace(messages: Iterator[UpdateMessage], out: IO[str]) -> int:
    n = 0
    for msg in messages:
        out.write(format_message(msg))
        out.write("\n")
        n += 1
    return n


def record_trace(cfg: WorkloadConfig, path: str, road_map: RoadMap | None = None) -> int:
    """Generate cfg's stream and write it as a trace file; returns line count."""
    gen = Generator(cfg, road_map)
    with open(path, "w", encoding="ascii") as f:
        return write_trace(gen.messages(), f)


def replay_trace(path: str) -> Iterator[UpdateMessage]:
    """Stream a trace file back as messages; malformed lines raise TraceError."""
    with open(path, "r", encoding="ascii") as f:
        for lineno, line in enumerate(f, start=1):
            if line.strip():
                yield parse_line(line, lineno)
