"""In-memory span tracer that wraps venplan's functions at their call sites.

Every wrapped call is timed; its self time is its duration minus the time
covered by wrapped calls it made. Spans carry (id, name, start, end, parent)
and stay in memory until the run writes them out. Hot leaf functions (called
hundreds of thousands of times per run) are aggregated into counts and
totals only, so that recording them does not dominate the run's memory.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, NamedTuple, Optional


class Tracer:
    """Collects spans, per-name call counts, self times and durations."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, Optional[int]]] = []
        self.count: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self._stack: list[list] = []  # frames: [span id or None, child seconds]
        self._next_id = 0

    def wrap(
        self,
        fn: Callable,
        name: str,
        record: bool = True,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """Return ``fn`` timed as span ``name``.

        ``record=False`` keeps only counts and self time (for hot leaves);
        ``on_result`` sees each call's return value, for output counters.
        """
        now = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = None
            if record:
                span_id = self._next_id
                self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.count[name] = self.count.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
                if record:
                    self.durations.setdefault(name, []).append(duration)
                    parent = next(
                        (f[0] for f in reversed(stack) if f[0] is not None), None
                    )
                    self.spans.append((span_id, name, start, end, parent))
            if on_result is not None:
                on_result(result)
            return result

        return traced


class GcClock:
    """``gc.callbacks`` hook: time spent in cyclic garbage collection.

    Collections run inside whichever span allocated, so this time is also
    part of the layers' self times; it is reported on its own because it
    scales with every live object, not with the layer that triggered it.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.full_collections = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        self.seconds += time.perf_counter() - self._start
        self.full_collections += info["generation"] == 2


class Site(NamedTuple):
    """A module global that venplan's own code calls, traced as ``name``."""

    module: Any
    attr: str
    name: str
    record: bool = True
    on_result: Optional[Callable[[Any], None]] = None


@contextmanager
def patched(tracer: Tracer, sites: list[Site]) -> Iterator[None]:
    """Replace each site's global by its traced form for the block's duration.

    The library runs unchanged: it looks the global up at call time and so
    calls the wrapper.
    """
    saved = []
    try:
        for site in sites:
            original = getattr(site.module, site.attr)
            saved.append((site.module, site.attr, original))
            setattr(
                site.module,
                site.attr,
                tracer.wrap(original, site.name, site.record, site.on_result),
            )
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
