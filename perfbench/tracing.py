"""In-memory spans for the traced benchmark run.

Spans are recorded by the benchmark around its calls into the library, kept
in memory while the pass runs, and written out once at the end.  A span's
self time is its duration minus the durations of its direct children; the
benchmark is single-threaded, so children never overlap.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    instance: Optional[str]


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, instance: Optional[str] = None):
        parent = self._open[-1] if self._open else None
        if instance is None and parent is not None:
            instance = self.spans[parent].instance
        record = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, instance)
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict:
        """Seconds of self time summed per span name."""
        children = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] += s.end - s.start
        totals = defaultdict(float)
        for s in self.spans:
            totals[s.name] += (s.end - s.start) - children[s.id]
        return dict(totals)

    def counts(self) -> dict:
        """Number of spans per name."""
        totals = defaultdict(int)
        for s in self.spans:
            totals[s.name] += 1
        return dict(totals)

    def write_jsonl(self, path):
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(asdict(s)) + "\n")


def span(tracer: Optional[Tracer], name: str, instance: Optional[str] = None):
    """A span when tracing, otherwise a context that records nothing."""
    return tracer.span(name, instance) if tracer is not None else nullcontext()
