"""In-memory spans recorded around calls into the program's modules.

The program itself is not instrumented: :meth:`Tracer.wrap` replaces a
public function or method with a wrapper that opens a span for the call
and restores the original on :meth:`Tracer.restore`. Spans are kept in
memory; the runner writes them out once, when the run ends.

A span's self time is its duration minus its children's durations. The
program runs single-threaded in the traced process (pool workers are
separate processes and are timed by the parent's ``exec.map`` span), so
spans nest properly and children never overlap.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Set


class Tracer:
    """Spans ``(name, start, end, parent, op)`` recorded around wrapped calls."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, op id]
        self.spans: List[list] = []
        self.op = 0
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        hook: Optional[Callable] = None,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``hook(args, kwargs, result)`` runs after each call, outside the
        span, for counts the call's arguments or result carry.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self, ops: Optional[Set[int]] = None) -> Dict[str, float]:
        """Seconds of self time per span name, optionally only for ``ops``."""
        totals: Dict[str, float] = defaultdict(float)
        for name, begin, end, parent, op in self.spans:
            if ops is not None and op not in ops:
                continue
            duration = end - begin
            totals[name] += duration
            if parent >= 0:
                totals[self.spans[parent][0]] -= duration
        return dict(totals)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)
