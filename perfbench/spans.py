"""In-memory spans recorded by the benchmark's own wrappers.

The traced run installs :meth:`Tracer.wrap` around public functions of
each serving layer (protocol decode/encode, routing, live ingest,
refit, setup phases) in the benchmark process, so no span code lives in
the program under test. A span carries its name, start, end, parent
span and request id; parents and request ids travel in context
variables, so spans nest per asyncio task and per thread. Work handed
to an executor thread starts a new root (executors do not copy the
context). Spans stay in memory until :func:`write_spans`.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Collects spans; patches and restores wrapped callables."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        #: The request id the current task is serving (set by a wrapper).
        self.request_id: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=None
        )
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the ``with`` body; yields its attrs dict."""
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append({
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "request_id": self.request_id.get(),
                **attrs,
            })

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        on_return: Callable[[tuple, object, dict], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_return(args, result, attrs)`` may add fields to the span
        (e.g. a row count) or set :attr:`request_id` once a call has
        revealed it. Plain functions, methods and staticmethods are
        supported; :meth:`restore` undoes every patch.
        """
        original = inspect.getattr_static(owner, attr)
        func = original.__func__ if isinstance(original, staticmethod) else original
        if inspect.iscoroutinefunction(func):
            raise TypeError(f"{name}: wrap synchronous callables only")

        @functools.wraps(func)
        def timed(*args, **kwargs):
            with self.span(name) as attrs:
                result = func(*args, **kwargs)
                if on_return is not None:
                    on_return(args, result, attrs)
                return result

        setattr(owner, attr, staticmethod(timed) if func is not original else timed)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]


def write_spans(path: Path, spans: list[dict]) -> None:
    """Write spans as JSON lines (times are ``perf_counter`` seconds)."""
    with path.open("w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
