"""In-memory spans for the traced run (stdlib only).

A span records its name, start, end and the span that was open when it
began.  Spans stay in memory and the runner writes them out when the run
ends.  ``NullTracer`` has the same interface, records nothing and wraps
nothing; the untraced passes that give the end-to-end numbers run with it.
"""

from __future__ import annotations

import contextlib
import time


class Span:
    __slots__ = ("span_id", "parent", "name", "start", "end")

    def __init__(self, span_id: int, parent: int | None, name: str) -> None:
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.span_id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end}


class _Open:
    """Context manager that opens one span on the tracer's stack."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        stack = tracer._stack
        self.span = Span(len(tracer.spans), stack[-1].span_id if stack else None, name)

    def __enter__(self) -> Span:
        self.tracer.spans.append(self.span)
        self.tracer._stack.append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """Spans plus named values (counts, derived times) recorded at the same
    call boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.values: dict[str, float] = {}
        self._stack: list[Span] = []

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def add(self, name: str, value: float) -> None:
        self.values[name] = self.values.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.values[name] = max(self.values.get(name, value), value)

    @contextlib.contextmanager
    def wrap(self, module, attr: str, name: str, results: list | None = None):
        """Open a span named ``name`` around every call the package makes to
        ``module.attr`` while the block runs; keep what they return in
        ``results``.  The attribute is restored on leaving the block."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                out = original(*args, **kwargs)
            if results is not None:
                results.append(out)
            return out

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)


class _NullSpan:
    seconds = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


class NullTracer:
    spans: list = []
    values: dict = {}
    _null = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._null

    def add(self, name: str, value: float) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass

    def wrap(self, module, attr: str, name: str, results: list | None = None):
        return contextlib.nullcontext()


def durations(spans: list[dict]) -> dict[str, float]:
    """Total duration per span name, child spans included."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the time its
    child spans cover.  Children of one span run one after another in one
    thread, so their durations add up without overlap."""
    child_time: dict = {}
    for s in spans:
        if s["parent"] is not None:
            key = s["parent"]
            child_time[key] = child_time.get(key, 0.0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def call_counts(spans: list[dict]) -> dict[str, int]:
    out: dict[str, int] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0) + 1
    return out
