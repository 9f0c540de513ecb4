"""Span timing around calls into the package, installed from outside it.

``Tracer.wrap`` replaces a function or method on its module or class with a
wrapper that records one span per call; ``restore`` puts the originals back.
Spans nest, so a layer's self time is its duration minus the time of the
spans opened inside it (``Session.submit`` minus ``SearchRegion.apply_point``).
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self._stack: list[float] = []
        self._originals: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        self._stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            inner = self._stack.pop()
            self.total[name] += elapsed
            self.self_time[name] += elapsed - inner
            self.calls[name] += 1
            self.durations[name].append(elapsed)
            if self._stack:
                self._stack[-1] += elapsed

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def median_ms(self, name: str) -> float:
        durations = self.durations.get(name)
        return statistics.median(durations) * 1e3 if durations else 0.0


def install_package_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of each layer of the package."""
    from hyperboxing import engine, problems, scalarization, search_region

    tracer.wrap(engine.Session, "next_query", "engine.next_query")
    tracer.wrap(engine.Session, "submit", "engine.submit")
    tracer.wrap(engine.Session, "final_max_box_size", "engine.final_max_box_size")
    tracer.wrap(search_region.SearchRegion, "apply_point", "region.apply_point")
    tracer.wrap(search_region.SearchRegion, "largest_box", "region.largest_box")
    tracer.wrap(scalarization, "solve_quadric_ps", "solve")
    tracer.wrap(scalarization.GridScalarizer, "solve", "solve")
    tracer.wrap(scalarization.GridScalarizer, "__init__", "setup.grid_build")
    tracer.wrap(scalarization, "encode_query", "codec.encode_query")
    tracer.wrap(scalarization, "decode_solution", "codec.decode_solution")
    tracer.wrap(problems, "make_problem", "problems.make_problem")
