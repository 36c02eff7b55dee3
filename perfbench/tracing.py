"""Spans and counters recorded from outside the package.

The benchmark records a span around each public call it makes into a layer
(``with tracer.span("zielonka.solve"): ...``) and, for calls the package
makes internally, replaces a public module attribute with a counting or
span-recording wrapper.  Python resolves module globals at call time, so a
replaced attribute is also seen by the package's own callers.

Spans are kept in memory and written out when the run ends.  Nothing runs
concurrently, so a layer's time is all busy time: there is no wait time to
report.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer used by untraced runs: every call is a no-op."""

    active = False

    def span(self, name: str):
        return _NULL_SPAN

    def count(self, name: str, k: int = 1) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False


class Tracer:
    """Spans ``[name, start, end, parent index, op id]`` and named counters.

    Recording happens only while ``active`` is true, which the harness
    sets for the duration of each op (and of set-up), so the correctness
    checks between ops, which call the same functions, are not counted.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter[str] = Counter()
        self.active = False
        self.op: str | int = "setup"
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans and counters -------------------------------------------------
    def span(self, name: str):
        return _Span(self, name) if self.active else _NULL_SPAN

    def count(self, name: str, k: int = 1) -> None:
        if self.active:
            self.counters[name] += k

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    # -- wrappers around public module attributes ---------------------------
    def _replace(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, make_wrapper(original))
        self._patched.append((owner, attr, original))

    def hook_span(self, owner, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        tracer = self

        def make(original):
            def wrapped(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                index = tracer._open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._close(index)
            return wrapped

        self._replace(owner, attr, make)

    def hook_count(self, owner, attr: str, name: str, size=None) -> None:
        """Count the calls of ``owner.attr`` under ``name``; with ``size``,
        also add ``size[1](*args)`` to the counter named ``size[0]``."""
        tracer, counters = self, self.counters
        size_name, size_of = size or (None, None)

        def make(original):
            def wrapped(*args, **kwargs):
                if tracer.active:
                    counters[name] += 1
                    if size_of is not None:
                        counters[size_name] += size_of(*args)
                return original(*args, **kwargs)
            return wrapped

        self._replace(owner, attr, make)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Per span name, the summed duration minus the part covered by
        direct child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Counter[str] = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[i]
        return dict(totals)

    def write_spans(self, path: str) -> None:
        """One JSON object per line: name, start and end (seconds since the
        first span), parent span index (-1 for none) and op id."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "op": op}) + "\n")
