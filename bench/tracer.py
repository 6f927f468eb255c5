"""Outside-in span tracer for the eigenflow benchmark.

The tracer rebinds module-level names (and class attributes) through which
one eigenflow layer calls the next, so that every call records a span:
name, thread, start, end, parent span and an optional size tag. Nothing in
the package itself is changed; :meth:`Tracer.restore` puts every original
binding back.

Spans nest per thread: each thread keeps its own stack, so a replica
thread's spans never become children of another thread's spans. A span's
self time is its duration minus the time its direct children (same thread)
cover.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int  # 0 for a root span of its thread
    name: str
    thread: int
    start: float
    end: float
    self_s: float
    tag: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters; owns the bindings it replaced."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        tag: Callable | None = None,
        count: Callable | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped so that each call records a span.

        ``tag(args, kwargs)`` labels the span (e.g. with the matrix size);
        ``count(args, kwargs)`` returns ``{counter: increment}`` added to
        :attr:`counters` after a successful call.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [next(tracer._ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append(
                    Span(
                        frame[0],
                        parent,
                        name,
                        threading.get_ident(),
                        start,
                        end,
                        duration - frame[1],
                        tag(args, kwargs) if tag else None,
                    )
                )
            if count is not None:
                increments = count(args, kwargs)
                with tracer._lock:
                    tracer.counters.update(increments)
            return result

        return functools.wraps(fn)(traced)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (a root span per request)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        """Rebind ``owner.attr`` to a traced wrapper; static methods stay static."""
        original = owner.__dict__[attr]
        if isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(name, original.__func__, **kwargs))
        else:
            replacement = self.wrap(name, original, **kwargs)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every binding :meth:`patch` replaced, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- aggregation -------------------------------------------------------

    def by_name(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            out[span.name].append(span)
        return out

    def self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_s
        return dict(totals)

    def calls(self) -> Counter:
        return Counter(span.name for span in self.spans)
