"""Span tracing of audfb's public functions, installed from outside the package.

The tracer replaces each traced function at every binding inside ``audfb``
(the defining module, the package namespace, and every module that imported
it by name), so a call such as ``synthesis.walnut_apply`` is caught as well
as ``frame_diagnostics.walnut_apply``. Spans (name, start, end, parent) are
kept in memory and written out once, at the end of the run. Peak memory is
taken with ``tracemalloc``, started only inside the spans that report it.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

# (module, function) pairs wrapped by the tracer. ``cli.main`` is recorded as
# ``cli.<subcommand>``.
TRACED = (
    ("scales", "inverse_scale"),
    ("filterbank", "build_audlet"),
    ("filterbank", "analyze"),
    ("filterbank", "synthesize"),
    ("filterbank", "expanded_filters"),
    ("filterbank", "circular_cover"),
    ("frame_diagnostics", "frequency_response"),
    ("frame_diagnostics", "alias_components"),
    ("frame_diagnostics", "painless_check"),
    ("frame_diagnostics", "estimate_bounds"),
    ("frame_diagnostics", "walnut_apply"),
    ("frame_diagnostics", "pr_residual"),
    ("frame_diagnostics", "equivalent_uniform"),
    ("finite_frames", "frame_bounds"),
    ("synthesis", "painless_dual"),
    ("synthesis", "cg_synthesize"),
    ("synthesis", "neumann_synthesize"),
    ("masking", "irrelevance_threshold"),
    ("masking", "irrelevance_filter"),
    ("container", "write_coefficients"),
    ("container", "read_coefficients"),
    ("container", "write_mask"),
    ("cli", "main"),
)

# Spans whose peak traced allocation (above the level at entry) is recorded.
PEAK_SPANS = frozenset({"filterbank.build_audlet", "synthesis.painless_dual"})

# Root span names opened by the benchmark itself around set-up and jobs.
SETUP = "bench.setup"
JOB = "bench.job"


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    peak_bytes: int | None = None
    children: list[int] = field(default_factory=list)


class Tracer:
    """Records spans while ``active``; otherwise wrapped calls pass through."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, 0.0, parent)
        self.spans.append(span)
        if parent is not None:
            self.spans[parent].children.append(index)
        if name in PEAK_SPANS and not tracemalloc.is_tracing():
            tracemalloc.start()
            span.peak_bytes = 0
        self._stack.append(index)
        span.start = time.perf_counter()
        return index

    def _exit(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.peak_bytes is not None:
            span.peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a recorded root span (set-up or job)."""
        self.active = True
        index = self._enter(name)
        try:
            return fn(*args)
        finally:
            self._exit(index)
            self.active = False

    def _wrap(self, fn, name: str):
        tracer = self

        if name == "cli.main":

            @functools.wraps(fn)
            def wrapper(argv=None):
                if not tracer.active:
                    return fn(argv)
                sub = argv[0] if argv else "none"
                index = tracer._enter(f"cli.{sub}")
                try:
                    return fn(argv)
                finally:
                    tracer._exit(index)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(index)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced function at every binding inside ``package``."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"{package.__name__}.{module_name}"], fn_name)
            wrapper = self._wrap(original, f"{module_name}.{fn_name}")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._originals.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    # -- analysis ----------------------------------------------------------

    def self_time(self, index: int) -> float:
        span = self.spans[index]
        inner = sum(self.spans[c].end - self.spans[c].start for c in span.children)
        return (span.end - span.start) - inner

    def descendants(self, index: int):
        todo = list(self.spans[index].children)
        while todo:
            i = todo.pop()
            yield i
            todo.extend(self.spans[i].children)

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent is None and s.name == name]

    def totals(self, root: int) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name under one root, root included."""
        out: dict[str, tuple[int, float]] = {}
        for i in [root, *self.descendants(root)]:
            calls, seconds = out.get(self.spans[i].name, (0, 0.0))
            out[self.spans[i].name] = (calls + 1, seconds + self.self_time(i))
        return out

    def nested_calls(self, root: int, outer: str, inner: str) -> int:
        """Calls of ``inner`` below every ``outer`` span under one root."""
        count = 0
        for i in self.descendants(root):
            if self.spans[i].name == outer:
                count += sum(1 for j in self.descendants(i) if self.spans[j].name == inner)
        return count

    def peak_mib(self, name: str) -> float:
        peaks = [s.peak_bytes for s in self.spans if s.name == name and s.peak_bytes is not None]
        return max(peaks) / 2**20 if peaks else 0.0

    def write(self, path) -> None:
        """Write all spans as JSON lines: index, name, start, end, parent."""
        with open(path, "w", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                    )
                    + "\n"
                )


def per_layer(tracer: Tracer, names: list[str]) -> dict[str, float]:
    """Per-layer metrics ``<module>.<function>.<stat>`` from the recorded spans.

    ``calls``, ``self_s`` and ``iterations`` are medians over the traced jobs;
    ``setup_self_s`` comes from the traced set-up; ``peak_mb`` is the largest
    peak over all spans of that function. Names without a span read 0.
    """
    jobs = tracer.roots(JOB)
    setups = tracer.roots(SETUP)
    job_totals = [tracer.totals(j) for j in jobs]
    setup_totals = tracer.totals(setups[-1]) if setups else {}
    out = {}
    for metric in names:
        span, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = statistics.median(t.get(span, (0, 0.0))[0] for t in job_totals)
        elif stat == "self_s":
            out[metric] = statistics.median(t.get(span, (0, 0.0))[1] for t in job_totals)
        elif stat == "setup_self_s":
            out[metric] = setup_totals.get(span, (0, 0.0))[1]
        elif stat == "iterations":
            out[metric] = statistics.median(
                tracer.nested_calls(j, span, "frame_diagnostics.walnut_apply") for j in jobs
            )
        elif stat == "peak_mb":
            out[metric] = tracer.peak_mib(span)
    return out
