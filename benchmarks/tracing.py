"""Per-layer spans, recorded from outside divbound by wrapping its public functions.

Each wrapper replaces a function under the name its caller looks it up by: the
numtheory and solver names that `divbound.series` imports, the
`is_admissible_with` that `divbound.solver` imports, and the `BlockCache`
methods and `evaluate` in `divbound.series`. Spans are aggregated in memory per
name: calls, total time, self time (total minus the time of wrapped calls made
inside it) and the longest single call.
"""

from __future__ import annotations

import time


class Span:
    __slots__ = ("calls", "total", "self_time", "longest")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.longest = 0.0

    def add(self, elapsed: float, self_time: float) -> None:
        self.calls += 1
        self.total += elapsed
        self.self_time += self_time
        if elapsed > self.longest:
            self.longest = elapsed


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        # time of wrapped calls nested in each open call; the bottom entry
        # collects calls made outside any wrapped call
        self._nested = [0.0]
        self._undo: list[tuple[object, str, object]] = []
        self.max_component = 0
        self.records_loaded = 0
        self.accepted = 0
        self._caches: list[tuple[object, int, int]] = []

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        fn = getattr(owner, attr)
        span = self.spans.setdefault(name, Span())
        nested = self._nested
        clock = time.perf_counter

        def traced(*args, **kwargs):
            nested.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = nested.pop()
                nested[-1] += elapsed
                span.add(elapsed, elapsed - inner)
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def register_cache(self, cache) -> None:
        """Count the hits and misses of a cache from now on."""
        self._caches.append((cache, cache.hits, cache.misses))

    def install(self, series, solver) -> None:
        def on_component(comp, args):
            self.max_component = max(self.max_component, len(comp.elements))

        def on_cache_open(result, args):
            self.records_loaded += len(args[0])
            self.register_cache(args[0])

        def on_admissible(result, args):
            self.accepted += bool(result)

        self.wrap(series, "rooted_component", "component", on_component)
        self.wrap(series, "canonical_key", "key")
        self.wrap(series.BlockCache, "__init__", "cache_load", on_cache_open)
        self.wrap(series.BlockCache, "lookup_or_solve", "lookup")
        self.wrap(series, "evaluate", "evaluate")
        self.wrap(series, "solve_block", "solve")
        self.wrap(solver, "is_admissible_with", "admissible", on_admissible)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def metrics(self) -> dict[str, float]:
        s = self.spans
        nodes = s["admissible"].calls
        return {
            "numtheory.component_s": s["component"].total,
            "numtheory.component_calls": s["component"].calls,
            "numtheory.max_component": self.max_component,
            "numtheory.key_s": s["key"].total,
            "series.segments": s["lookup"].calls,
            "series.cache_load_s": s["cache_load"].total,
            "series.cache_records": self.records_loaded,
            "series.cache_hits": sum(c.hits - h for c, h, _ in self._caches),
            "series.cache_misses": sum(c.misses - m for c, _, m in self._caches),
            "series.lookup_self_s": s["lookup"].self_time,
            "series.reduce_self_s": s["evaluate"].self_time,
            "solver.blocks": s["solve"].calls,
            "solver.solve_self_s": s["solve"].self_time,
            "solver.max_block_s": s["solve"].longest,
            "solver.nodes": nodes,
            "patterns.admissible_s": s["admissible"].total,
            "patterns.accept_ratio": self.accepted / nodes if nodes else 0.0,
        }
