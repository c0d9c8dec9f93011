"""In-memory spans for the traced run.

Spans are recorded from the benchmark's own files, around each call into
the library; the structural lemmas are reached by temporarily wrapping
the module-level `checkers._check_*` functions that `check_structural`
calls. Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from otwb import checkers


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


def no_span(name: str) -> _NoSpan:
    """The span factory of an untraced run: records nothing."""
    return _NO_SPAN


class Span:
    __slots__ = ("tracer", "name", "trace_id", "id", "parent", "start", "end", "child")

    def __init__(self, tracer: "Tracer", name: str, span_id: int):
        self.tracer = tracer
        self.name = name
        self.trace_id = tracer.trace_id
        self.id = span_id
        self.parent: Optional[int] = None
        self.child = 0.0  # time covered by child spans

    def __enter__(self) -> "Span":
        stack = self.tracer.stack
        self.parent = stack[-1].id if stack else None
        stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = perf_counter()
        stack = self.tracer.stack
        stack.pop()
        if stack:
            stack[-1].child += self.end - self.start
        self.tracer.spans.append(self)
        return False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        # single-threaded, so child spans never overlap each other
        return self.duration - self.child


class Tracer:
    """Spans of one run. `trace_id` is the schedule being verified."""

    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.trace_id: Optional[str] = None
        self._ids = itertools.count()

    def span(self, name: str) -> Span:
        return Span(self, name, next(self._ids))

    def totals(self) -> Dict[str, Tuple[float, float]]:
        """Per span name: (total duration, total self time)."""
        out: Dict[str, Tuple[float, float]] = {}
        for s in self.spans:
            total, own = out.get(s.name, (0.0, 0.0))
            out[s.name] = (total + s.duration, own + s.self_time)
        return out

    def per_trace(self, name: str) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for s in self.spans:
            if s.name == name:
                out[s.trace_id] = out.get(s.trace_id, 0.0) + s.duration
        return out

    def write(self, path: Path, t0: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for s in sorted(self.spans, key=lambda s: s.start):
                f.write(json.dumps({
                    "trace": s.trace_id, "span": s.id, "parent": s.parent, "name": s.name,
                    "start_s": s.start - t0, "end_s": s.end - t0, "self_s": s.self_time,
                }) + "\n")


@contextmanager
def traced_lemmas(tracer: Tracer):
    """Wrap every `checkers._check_*` function in a span named after the
    verdict it returns, so a lemma that is deleted or merged simply stops
    appearing. The originals are restored on exit."""
    originals = {
        name: fn for name, fn in vars(checkers).items()
        if name.startswith("_check_") and callable(fn)
    }

    def wrap(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span("checkers.lemma") as s:
                verdict = fn(*args, **kwargs)
                s.name = f"checkers.lemma.{getattr(verdict, 'check', fn.__name__)}"
            return verdict
        return traced

    for name, fn in originals.items():
        setattr(checkers, name, wrap(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(checkers, name, fn)
