"""Per-layer spans recorded from outside the program.

`install` replaces public functions and methods of shoal's modules with
wrappers that time each call. A span's self time is its duration minus the
time covered by the wrapped calls it makes, so nested layers (a `scan_range`
that calls `get_row`, an `age_tick` that evicts into `Archiver.append`) are
not counted twice. Spans are aggregated in memory by name as they close:
call count, summed duration and summed self time.

The wrappers stay in place for the life of the process. With `active`
False they pass straight through and record nothing, which is how the
benchmark keeps its own checks out of the figures.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.phase = "replay"  # the benchmark sets "drain" and "history" too
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)  # tallies made from results
        # one entry per open span: [name, time covered by its wrapped children]
        self._stack: list[list] = [["", 0.0]]

    def inside(self, name: str) -> bool:
        return any(entry[0] == name for entry in self._stack)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str | Callable[[tuple], str],
        on_result: Callable[[tuple, object, float], None] | None = None,
    ) -> None:
        """Replace owner.attr by a timed wrapper; on_result sees (args, result, duration)."""
        fn = getattr(owner, attr)
        tracer = self
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            entry = [label, 0.0]
            stack.append(entry)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                stack[-1][1] += dur
                tracer.calls[label] += 1
                tracer.total_s[label] += dur
                tracer.self_s[label] += dur - entry[1]
            if on_result is not None:
                on_result(args, out, dur)
            return out

        setattr(owner, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every shoal module the benchmark reports."""
    from shoal import archive, engine, nn, schooling, spatial, store

    count = tracer.counts

    tracer.wrap(spatial, "encode", "spatial.encode")
    tracer.wrap(spatial, "neighbors", "spatial.neighbors")

    def on_get_row(args, out, dur):
        count["store.%s.get_row_cells" % args[0].name] += len(out)

    for op in ("put", "delete", "latest", "get_row", "scan_range"):
        tracer.wrap(
            store.Table,
            op,
            lambda a, op=op: "store.%s.%s" % (a[0].name, op),
            on_get_row if op == "get_row" else None,
        )

    # ticks made by Engine.drain are kept apart from those of the live clock
    def on_age(args, out, dur):
        count["store.%s_tick_moved" % tracer.phase] += out

    tracer.wrap(store.Store, "age_tick", lambda a: "store.%s_tick" % tracer.phase, on_age)

    def on_update(args, out, dur):
        path = "shed" if out.kind is schooling.Outcome.SHED else "write"
        count["schooling.%s_n" % path] += 1
        count["schooling.%s_s" % path] += dur

    tracer.wrap(schooling.Tracker, "process_update", "schooling.process_update", on_update)

    def on_tick(args, out, dur):
        for ms in out:
            count["schooling.recluster_read_s"] += ms.read_time
            count["schooling.recluster_compute_s"] += ms.compute_time
            count["schooling.recluster_write_s"] += ms.write_time

    tracer.wrap(schooling.Tracker, "clustering_tick", "schooling.clustering_tick", on_tick)
    tracer.wrap(schooling.Tracker, "merge_schools", "schooling.merge_schools")

    # leaders fetched plus followers handed back, counted only inside kNN
    def on_expand(args, out, dur):
        if tracer.inside("nn.knn"):
            count["nn.objects_expanded"] += len(out)

    tracer.wrap(schooling.Tracker, "followers_of", "schooling.followers_of", on_expand)
    tracer.wrap(nn.Searcher, "nearest_leaders", "nn.nearest_leaders", on_expand)

    tracer.wrap(engine.Engine, "advance_time", "engine.advance_time")

    def on_knn(args, out, dur):
        stats = args[0].last_stats
        count["nn.rows_scanned"] += stats.rows_scanned
        count["nn.flag_probes"] += stats.flag_probes

    tracer.wrap(nn.Searcher, "knn", "nn.knn", on_knn)
    tracer.wrap(nn.Searcher, "cached_level", "nn.cached_level")

    tracer.wrap(archive.Archiver, "append", "archive.append")
    tracer.wrap(archive.Archiver, "query_history_by_object", "archive.query_history_by_object")
    tracer.wrap(archive.Archiver, "query_history_by_region", "archive.query_history_by_region")
