"""Hash-floor timing and in-memory spans.

One *floor* is the time of one ``hashlib.<alg>(a + b).digest()`` call on
two digests of the workload's algorithm. The machine this benchmark was
tuned on changes speed by up to a factor of two between runs and under
load from other processes; an operation divided by a floor measured next
to it moves far less. Every timed batch is therefore bracketed by two
short floor blocks, run with the garbage collector paused on inputs
allocated in advance.
"""

from __future__ import annotations

import gc
import gzip
import hashlib
import json
import statistics
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

FLOOR_BLOCKS = 7
FLOOR_CALLS = 200


class Floor:
    """Measures the hash floor of one algorithm, in nanoseconds per call."""

    def __init__(self, alg: str, seed_bytes: bytes) -> None:
        hasher = getattr(hashlib, alg)
        size = hasher().digest_size
        pool = hashlib.shake_256(seed_bytes).digest(size * 2 * FLOOR_CALLS)
        self._hasher = hasher
        self._pairs = [
            (pool[2 * i * size : (2 * i + 1) * size], pool[(2 * i + 1) * size : (2 * i + 2) * size])
            for i in range(FLOOR_CALLS)
        ]
        self.history: list[float] = []

    def measure(self) -> float:
        """Median per-call time over a few short blocks."""
        hasher, pairs = self._hasher, self._pairs
        enabled = gc.isenabled()
        gc.disable()
        try:
            for a, b in pairs:  # warm-up: the block after a large operation runs cold
                hasher(a + b).digest()
            blocks = []
            for _ in range(FLOOR_BLOCKS):
                start = perf_counter_ns()
                for a, b in pairs:
                    hasher(a + b).digest()
                blocks.append((perf_counter_ns() - start) / len(pairs))
        finally:
            if enabled:
                gc.enable()
        value = statistics.median(blocks)
        self.history.append(value)
        return value


class Tracer:
    """Spans recorded around calls into the package, kept in memory.

    Each span stores its name, parent span, start, end and the number of
    calls it covers; its cost in floors goes into a per-name sample list
    that the per-layer metrics are taken from. ``floor`` is set from the
    floor block next to the batch being traced.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.records = array("q")  # name, parent, start_ns, end_ns, calls
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.floor = 1.0
        self._stack: list[int] = []

    def span(self, name: str, calls: int = 1) -> "_Span":
        return _Span(self, name, calls)

    def _open(self) -> int:
        index = len(self.records) // 5
        self.records.extend((0, self._stack[-1] if self._stack else -1, 0, 0, 0))
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: int, end: int, calls: int) -> None:
        self._stack.pop()
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        base = index * 5
        self.records[base] = name_id
        self.records[base + 2] = start
        self.records[base + 3] = end
        self.records[base + 4] = calls
        self.samples[name].append((end - start) / calls / self.floor)

    def write(self, path: Path, floors: list[float]) -> None:
        """Write every span (raw nanoseconds) and the floor history."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["name", "parent", "start_ns", "end_ns", "calls"],
            "names": self.names,
            "floors_ns": floors,
            "spans": self.records.tolist(),
        }
        with gzip.open(path, "wt", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "name", "calls", "index", "start")

    def __init__(self, tracer: Tracer, name: str, calls: int) -> None:
        self.tracer, self.name, self.calls = tracer, name, calls

    def __enter__(self) -> "_Span":
        self.index = self.tracer._open()
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter_ns()
        self.tracer._close(self.index, self.name, self.start, end, self.calls)
