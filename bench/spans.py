"""In-memory spans recorded around calls into the package's public functions.

A span is ``[name, start, end, parent, size, outcome]``: ``parent`` is the
index of the enclosing span (or -1), ``size`` is the amount of work the call
returned (tokens, tree nodes, characters, relation pairs) and ``outcome`` is
``"ok"`` or the name of the exception that left the call.  Spans stay in a
list while the benchmark runs and are written out when it ends.
"""

from __future__ import annotations

import json
import time
from typing import Callable

perf_counter = time.perf_counter


def plain_call(name: str, fn: Callable, *args):
    """The untraced stand-in for :meth:`Tracer.call`."""
    return fn(*args)


class Tracer:
    def __init__(self, sizers: dict[str, Callable[[object], int]]):
        self.sizers = sizers
        self.spans: list[list] = []
        self.stack: list[int] = []

    def call(self, name: str, fn: Callable, *args):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0, "ok"]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = perf_counter()
        try:
            result = fn(*args)
        except BaseException as error:
            span[2] = perf_counter()
            span[5] = type(error).__name__
            raise
        else:
            span[2] = perf_counter()
            sizer = self.sizers.get(name)
            if sizer is not None:
                span[4] = sizer(result)
            return result
        finally:
            self.stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args):
            return self.call(name, fn, *args)
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time covered by its child spans."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")
