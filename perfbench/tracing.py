"""Spans around the program's public entry points, recorded from outside.

:class:`Tracer` wraps named methods and functions of the program for the
length of a traced run and restores them afterwards; nothing in ``src/``
is edited.  Each call becomes a span — name, start, end, parent span —
tagged with the run id.  Spans stay in memory (up to :data:`SPAN_CAP`;
totals are exact past it) and are written out once, at the end.

Only the process that installed the tracer records: forked replicas and
hub workers restore the original functions right after the fork, so
their spans are never silently lost in a child's memory.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

_MISSING = object()


#: Spans kept in memory per run; past it only the totals grow.
SPAN_CAP = 50_000

#: Span name that marks "inside the service call" (see :class:`Tracer`).
SERVICE_CALL = "ShardedService.run_stream"


class Tracer:
    """Collects spans; :meth:`install` patches, :meth:`uninstall` restores.

    Each span records wall time (``perf_counter``) and the calling thread's
    CPU time (``thread_time``); totals are kept per ``(name, inside)``,
    where ``inside`` says whether the span ran within a
    :data:`SERVICE_CALL` span on the same thread — so hub work can be told
    apart from, say, the frontend parsing client frames on another thread.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        #: (name, inside) -> [calls, wall incl, wall self, cpu incl, cpu self]
        self.totals: dict[tuple[str, bool], list[float]] = defaultdict(
            lambda: [0, 0.0, 0.0, 0.0, 0.0]
        )
        #: name -> items a generator span produced (frames for ``feed``)
        self.items: dict[tuple[str, bool], int] = defaultdict(int)
        self.dropped = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []
        self._owner_pid = os.getpid()
        os.register_at_fork(after_in_child=self._forked)

    # -- recording -------------------------------------------------------------------

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, stack: list[list[Any]], name: str) -> bool:
        inside = name == SERVICE_CALL or bool(stack and stack[-1][4])
        stack.append(
            [next(self._ids), stack[-1][0] if stack else 0, 0.0, 0.0, inside]
        )
        return inside

    def _close(
        self, stack: list[list[Any]], name: str, t0: float, c0: float
    ) -> None:
        t1 = time.perf_counter()
        cpu = time.thread_time() - c0
        span_id, parent, child_wall, child_cpu, inside = stack.pop()
        wall = t1 - t0
        if stack:
            stack[-1][2] += wall
            stack[-1][3] += cpu
        total = self.totals[(name, inside)]
        total[0] += 1
        total[1] += wall
        total[2] += wall - child_wall
        total[3] += cpu
        total[4] += cpu - child_cpu
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, name, t0, t1, cpu))
        else:
            self.dropped += 1

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call records one span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            tracer._open(stack, name)
            c0, t0 = time.thread_time(), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(stack, name, t0, c0)

        return traced

    def generator_span(self, name: str, fn: Callable) -> Callable:
        """``fn`` (a generator function) wrapped so each step of the
        generator is one span; the consumer's work between steps is not
        counted.  Items produced are tallied in :attr:`items`."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                stack = tracer._stack()
                inside = tracer._open(stack, name)
                c0, t0 = time.thread_time(), time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(stack, name, t0, c0)
                tracer.items[(name, inside)] += 1
                yield item

        return traced

    # -- patching --------------------------------------------------------------------

    def install(self, targets: Iterable[tuple[Any, str, str, bool]]) -> None:
        """Wrap each ``(owner, attribute, span name, is_generator)``."""
        for owner, attr, name, generator in targets:
            original = owner.__dict__.get(attr, _MISSING)
            current = getattr(owner, attr)
            wrap = self.generator_span if generator else self.span
            setattr(owner, attr, wrap(name, current))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _forked(self) -> None:
        if os.getpid() != self._owner_pid:
            self.uninstall()

    # -- reading ---------------------------------------------------------------------

    def _sum(self, names: Iterable[str], column: int, inside: bool | None) -> float:
        return sum(
            total[column]
            for (name, within), total in self.totals.items()
            if name in names and (inside is None or within == inside)
        )

    def calls(self, *names: str, inside: bool | None = None) -> int:
        return int(self._sum(names, 0, inside))

    def cpu(self, *names: str, inside: bool | None = None) -> float:
        """Inclusive CPU seconds of the calling threads."""
        return self._sum(names, 3, inside)

    def self_cpu(self, *names: str, inside: bool | None = None) -> float:
        return self._sum(names, 4, inside)

    def produced(self, name: str, inside: bool | None = None) -> int:
        return sum(
            k for (n, within), k in self.items.items()
            if n == name and (inside is None or within == inside)
        )

    def write(self, path: str, extra: dict[str, Any]) -> None:
        """Write the kept spans plus per-name totals as one JSON document.

        Spans are ``[id, parent, name, start, end, cpu]`` rows (``parent``
        0 = top level; times in seconds)."""
        doc = {
            "run_id": self.run_id,
            "dropped_spans": self.dropped,
            "totals": [
                {
                    "name": name,
                    "inside_service_call": inside,
                    "calls": int(c),
                    "wall_s": wall,
                    "self_wall_s": own,
                    "cpu_s": cpu,
                    "self_cpu_s": own_cpu,
                }
                for (name, inside), (c, wall, own, cpu, own_cpu) in sorted(
                    self.totals.items()
                )
            ],
            **extra,
            "span_columns": ["id", "parent", "name", "start", "end", "cpu"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
