"""In-memory spans around the benchmark's calls into each layer.

A :class:`Tracer` records one span per call the benchmark makes into a
layer's public function (``load_grammar``, ``build_automaton``,
``AutomatonCache.get``/``put``, ``CounterexampleFinder.explain`` per
conflict, ``analyze_conflicts``, ``safe_format_report``): its name,
start, end, parent span and operation id. Spans stay in memory until the
run ends. A layer's self time is its span minus the part its child
spans cover.

Untimed passes use :data:`NULL`, whose spans cost one attribute load and
a shared no-op context manager, so the traced and untraced operation
run the same code.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self._tracer = tracer
        self._index = index

    def __enter__(self) -> "_Open":
        return self

    def __exit__(self, *exc_info: object) -> None:
        tracer = self._tracer
        tracer.spans[self._index].end = tracer.clock()
        tracer._stack.pop()


class _Null:
    __slots__ = ()

    def __enter__(self) -> "_Null":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _Null()


class NullTracer:
    """Records nothing; the untraced passes use the shared :data:`NULL`."""

    def span(self, name: str) -> _Null:
        return _NULL_SPAN

    def wrap(self, obj: Any, attribute: str, name: str) -> None:
        return None


NULL = NullTracer()


class Tracer:
    """Collects the spans of one traced operation."""

    def __init__(self, op: int, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: The id of the operation these spans belong to.
        self.op = op

    def span(self, name: str) -> _Open:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.op, parent, self.clock()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return _Open(self, index)

    def wrap(self, obj: Any, attribute: str, name: str) -> None:
        """Trace every call of ``obj.attribute`` (an instance attribute shadows it)."""
        method = getattr(obj, attribute)

        @functools.wraps(method)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return method(*args, **kwargs)

        setattr(obj, attribute, traced)


def write_spans(path: Path, traced: list[list[Span]]) -> None:
    """Write the spans of every traced op as JSON lines; ids and parents
    are renumbered to be unique across the file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    offset = 0
    with path.open("w", encoding="utf-8") as handle:
        for spans in traced:
            for index, span in enumerate(spans):
                record = {
                    "id": offset + index,
                    "name": span.name,
                    "op": span.op,
                    "parent": None if span.parent is None else offset + span.parent,
                    "start": span.start,
                    "end": span.end,
                }
                handle.write(json.dumps(record) + "\n")
            offset += len(spans)


def own_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Spans of one thread never overlap their siblings, so the covered
    part is the sum of the children's durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, covered)]
