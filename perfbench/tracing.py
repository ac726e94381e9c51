"""In-memory spans around the public entry points of each layer.

The benchmark measures the program from outside: nothing under ``src/``
knows it is traced.  :func:`instrument` patches a list of class
attributes with thin wrappers for the length of a ``with`` block and
restores the originals on exit, so the untraced run executes the
unmodified code.

Three kinds of probe, chosen by how hot the call is:

* ``span`` -- one record per call: ``(id, name, start, end, parent)``.
  Used for calls that happen at most a few thousand times per run.
* ``leaf`` -- hot calls (a transport send, a partner pick, a Bloom
  lookup) would flood memory with one record each, so their count and
  summed duration are kept per (enclosing span, name) instead.  They
  still count toward the self time of the span they ran in.
* ``count`` -- calls are counted but not timed (Bloom probes).

A wrapper never touches arguments, return values or random state, so a
traced run computes the same bits as an untraced one; the self-check
verifies that.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Optional, Sequence, Tuple

#: one finished span: (id, name, start, end, parent id or -1)
Span = Tuple[int, str, float, float, int]


class Tracer:
    """Collects spans, leaf totals and counters in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.leaves: Dict[Tuple[int, str], List[float]] = defaultdict(lambda: [0, 0.0])
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = [-1]
        self._next_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def add_leaf(self, name: str, seconds: float) -> None:
        """Fold one hot call into its enclosing span's leaf total."""
        slot = self.leaves[(self._stack[-1], name)]
        slot[0] += 1
        slot[1] += seconds

    def count(self, name: str, k: float = 1) -> None:
        self.counters[name] += k

    # -- queries -----------------------------------------------------------

    def total(self, name: str) -> float:
        """Summed duration of every span (or leaf) called ``name``."""
        spans = sum(end - start for _, n, start, end, _ in self.spans if n == name)
        leaves = sum(t for (_, n), (_, t) in self.leaves.items() if n == name)
        return spans + leaves

    def calls(self, name: str) -> int:
        spans = sum(1 for s in self.spans if s[1] == name)
        leaves = sum(int(c) for (_, n), (c, _) in self.leaves.items() if n == name)
        return spans + leaves

    def child_time(self, parent_name: str) -> Tuple[float, float]:
        """(duration of ``parent_name`` spans, time their direct children explain)."""
        parents = {s[0]: s[3] - s[2] for s in self.spans if s[1] == parent_name}
        covered = sum(end - start for _, _, start, end, p in self.spans if p in parents)
        covered += sum(t for (p, _), (_, t) in self.leaves.items() if p in parents)
        return sum(parents.values()), covered

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        """Write every span, leaf total and counter as one JSON document."""
        doc = {
            "meta": meta,
            "span_fields": ["id", "name", "start", "end", "parent"],
            "spans": [list(s) for s in sorted(self.spans)],
            "leaves": [
                {"parent": p, "name": n, "calls": int(c), "seconds": t}
                for (p, n), (c, t) in sorted(self.leaves.items())
            ],
            "counters": dict(sorted(self.counters.items())),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


@dataclass(frozen=True)
class Probe:
    """One attribute to wrap: ``owner.attr`` becomes a probe called ``name``."""

    owner: type
    attr: str
    name: str
    kind: str = "span"  # "span" | "leaf" | "count"
    #: optional hook ``(tracer, args, kwargs, result)`` run after each call
    after: Optional[Callable[..., None]] = None


def _wrap(tracer: Tracer, probe: Probe, fn: Callable[..., Any]) -> Callable[..., Any]:
    name, after, clock = probe.name, probe.after, time.perf_counter
    if probe.kind == "count":

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            tracer.counters[name] += 1
            return fn(*args, **kwargs)

        return counted
    if probe.kind == "leaf":

        @functools.wraps(fn)
        def leaf(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add_leaf(name, clock() - start)

        return leaf

    @functools.wraps(fn)
    def spanned(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return spanned


@contextmanager
def instrument(tracer: Tracer, probes: Sequence[Probe]) -> Iterator[None]:
    """Install every probe for the ``with`` body, then restore the originals."""
    saved: List[Tuple[type, str, Any]] = []
    try:
        for probe in probes:
            raw = probe.owner.__dict__.get(probe.attr)
            if raw is None:
                raise AttributeError(f"{probe.owner.__name__}.{probe.attr} is not defined there")
            saved.append((probe.owner, probe.attr, raw))
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(_wrap(tracer, probe, raw.__func__))
            else:
                wrapped = _wrap(tracer, probe, raw)
            setattr(probe.owner, probe.attr, wrapped)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


class Instrumentation:
    """The two traced phases of a run: set-up and measurement.

    Set-up and the measured phase get separate tracers, so per-layer
    metrics of the measured phase never mix with set-up work.  With
    ``probes=None`` (the untraced run) every context is a no-op.
    """

    def __init__(self, probes: Optional[Sequence[Probe]]) -> None:
        self.enabled = probes is not None
        self._probes = list(probes or ())
        self.tracers = {"setup": Tracer(), "measure": Tracer()}

    def probes(self, phase: str) -> ContextManager[None]:
        if not self.enabled:
            return nullcontext()
        return instrument(self.tracers[phase], self._probes)

    def span(self, phase: str, name: str) -> ContextManager[None]:
        if not self.enabled:
            return nullcontext()
        return self.tracers[phase].span(name)
