"""In-memory span tracer that wraps library functions where callers look them up.

A span records a name, start and end (``time.perf_counter`` seconds), the
span that caused it, the thread it ran on and free-form attributes. Spans
stay in memory until the run ends.

``Patcher.replace`` (and ``Tracer.wrap`` on top of it) replaces a function
on every loaded module of a package that holds a reference to it
(``spmd.trainer.train``, ``spmd.theory.train``, ``spmd.multiclass.train``
...), because a caller that did ``from .x import f`` looks ``f`` up in its
own module. ``restore`` puts every original back. Nothing in the traced
package is edited on disk.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans; one instance per traced job."""

    def __init__(self, package: str):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._lock = threading.Lock()
        self.patcher = Patcher(package)

    # --- spans ---------------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._main_stack:
            # a worker thread's first span was caused by whatever the main
            # thread is blocked in (the pool's submitting call)
            parent = self._main_stack[-1].id
        else:
            parent = None
        with self._lock:
            span = Span(len(self.spans), name, parent, threading.get_ident(),
                        time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of open/close."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def traced(self, fn, name: str, hook=None):
        """``fn`` wrapped in a span; ``hook(span, result)`` may record
        attributes and returns the (possibly replaced) result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            return result if hook is None else hook(span, result)

        return wrapper

    def wrap(self, owner, attr: str, name: str, hook=None) -> int:
        """Wrap ``owner.attr`` in a span at every lookup site (see Patcher)."""
        return self.patcher.replace(owner, attr,
                                    lambda fn: self.traced(fn, name, hook))

    def restore(self) -> None:
        self.patcher.restore()


class Patcher:
    """Replaces a function at every lookup site and puts it back later."""

    def __init__(self, package: str):
        self.package = package
        self._patches: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> int:
        """Replace ``owner.attr`` by ``make_wrapper(original)``.

        ``owner`` is a module or a class. For a module-level function every
        module under ``self.package`` whose namespace holds the same object
        is patched; for a class only the class attribute is. Returns the
        number of sites patched.
        """
        original = owner.__dict__[attr]
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            sites = [owner]
        else:
            prefix = self.package + "."
            sites = [m for key, m in sorted(sys.modules.items())
                     if m is not None and (key == self.package or key.startswith(prefix))]
        count = 0
        for site in sites:
            for key, value in list(vars(site).items()):
                if value is original:
                    self._patches.append((site, key, original))
                    setattr(site, key, wrapper)
                    count += 1
        if count == 0:
            raise RuntimeError(f"no lookup site holds {attr}")
        return count

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            site, key, original = self._patches.pop()
            setattr(site, key, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover.

    Children running concurrently on worker threads overlap; the covered
    part is the union of their intervals, clipped to the parent.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = s.duration - covered
    return out


def spans_as_records(spans: list[Span], origin: float) -> list[dict]:
    """JSON-ready span list with times relative to ``origin``."""
    return [{"id": s.id, "name": s.name, "parent": s.parent, "thread": s.thread,
             "start": s.start - origin, "end": s.end - origin,
             **({"attrs": s.attrs} if s.attrs else {})} for s in spans]
