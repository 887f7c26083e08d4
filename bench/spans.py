"""In-memory span recorder that wraps library functions where they are looked up.

A span is one call of a wrapped function: its name, start and end times, the
span that was open on the same thread when it started (its parent), and the
total duration of its direct children.  Spans are kept in memory until the
run ends; nothing is written while the measured code runs.  A span's self
time is its duration minus the duration of its direct children.

Wrapping replaces a module (or namespace) attribute, so only callers that look
the name up at call time see the wrapper.  ``Tracer.restore`` puts every
original back.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "thread", "info")

    def __init__(self, name: str, parent: "Span | None", info: Any):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.thread = threading.get_ident()
        self.info = info
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stacks = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def open(self, name: str, info: Any = None) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, info)
        stack.append(span)
        self.spans.append(span)  # list.append is atomic across threads
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.duration

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        keep: Callable[[Any], Any] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``keep`` maps the return value to what the span retains as ``info``;
        a call that raises retains the exception instead.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.info = exc
                raise
            finally:
                self.close(span)
            if keep is not None:
                span.info = keep(result)
            return result

        self._patch(owner, attr, fn, traced)

    def wrap_generator(self, owner: object, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a generator function: one span per ``next()``.

        The span's ``info`` is (the generator's first positional argument,
        whether the call yielded an item).
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            tag = args[0] if args else None
            while True:
                span = self.open(name, (tag, True))
                try:
                    item = next(items)
                except StopIteration:
                    span.info = (tag, False)
                    return
                finally:
                    self.close(span)
                yield item

        self._patch(owner, attr, fn, traced)

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
