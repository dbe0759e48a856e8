"""Span tracing from outside the program.

The benchmark records spans around calls into each layer by replacing
the layer's public functions with timing wrappers for the duration of
a traced pass; the program itself is not modified.  A span is
``(id, name, parent, thread, start, end)``; spans are kept in memory
and written out when the run ends.  A layer's self time is its span's
duration minus the part of that interval its direct child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs timing wrappers and collects the spans they record."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, original, name, note):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            if not tracer.active or label is None:
                return original(*args, **kwargs)
            stack = tracer._stack()
            span = Span(next(tracer._ids), label, stack[-1] if stack else None,
                        threading.get_ident(), time.perf_counter())
            stack.append(span.id)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            else:
                if note is not None:
                    span.attrs.update(note(args, result))
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def wrap_method(self, cls, attr: str, name, note=None) -> None:
        """Trace ``cls.attr`` (a plain instance method)."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(original, name, note))
        self._patches.append((cls, attr, original))

    def wrap_function(self, function, name, note=None) -> None:
        """Trace ``function`` wherever a loaded ``repro`` module holds it.

        ``from m import f`` copies the binding, so every module-level
        name bound to the function object is replaced, not only the
        defining module's.  The benchmark's own modules keep the
        original, so its output checks are never traced.
        """
        traced = self._wrapper(function, name, note)
        for module_name, module in list(sys.modules.items()):
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is function:
                    setattr(module, attr, traced)
                    self._patches.append((module, attr, function))

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        """Stop recording and restore every wrapped binding."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union its direct children cover
    (children clipped to the parent's interval)."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None:
            children.setdefault(parent.id, []).append(
                (max(s.start, parent.start), min(s.end, parent.end))
            )
    return {
        s.id: s.duration - covered(children.get(s.id, ())) for s in spans
    }


@dataclass
class LayerTotals:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0


def layer_totals(spans) -> dict[str, LayerTotals]:
    """Aggregate spans by name: count, summed duration and self time."""
    own = self_times(spans)
    out: dict[str, LayerTotals] = {}
    for s in spans:
        agg = out.setdefault(s.name, LayerTotals())
        agg.count += 1
        agg.total_s += s.duration
        agg.self_s += own[s.id]
        agg.errors += s.error is not None
    return out
