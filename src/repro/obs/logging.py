"""Structured JSON logging with a slow-request sampler.

One line of JSON per event on a chosen stream (stderr by default), no
``logging`` module configuration to fight over, and an explicit
``enabled`` switch so the serving stack can thread a logger through
every layer unconditionally and let ``--log-json`` decide whether
anything is emitted.

The request-line sampler keeps production logs proportionate: errors
(status >= 400) are always logged; successes are logged only when they
are slow (``duration_ms >= slow_ms``) or when no threshold is set.
"""

from __future__ import annotations

import json
import sys
import threading
import time


class JsonLogger:
    """Line-per-event JSON logger for one component.

    Parameters
    ----------
    component:
        Stamped on every line (``"serve"``, ``"fleet"``, ``"worker"``).
    enabled:
        When false, every method returns immediately — recording
        sites stay in place at near-zero cost.
    slow_ms:
        Slow-request threshold for :meth:`request`. ``None`` logs
        every request; a number drops successful requests faster
        than the threshold (errors always log).
    stream:
        Target text stream; defaults to ``sys.stderr`` (resolved at
        emit time so pytest's capture replacement is honored).
    """

    def __init__(
        self,
        component: str,
        *,
        enabled: bool = False,
        slow_ms: float | None = None,
        stream=None,
    ) -> None:
        self.component = component
        self.enabled = bool(enabled)
        self.slow_ms = None if slow_ms is None else float(slow_ms)
        self._stream = stream
        self._lock = threading.Lock()

    def child(self, component: str) -> JsonLogger:
        """A logger for a sub-component sharing this one's settings."""
        return JsonLogger(
            component,
            enabled=self.enabled,
            slow_ms=self.slow_ms,
            stream=self._stream,
        )

    def event(self, event: str, **fields) -> None:
        """Emit one JSON line: ``{"ts", "component", "event", ...}``."""
        if not self.enabled:
            return
        record = {
            "ts": round(time.time(), 3),
            "component": self.component,
            "event": event,
        }
        record.update(fields)
        line = json.dumps(record, separators=(",", ":"), default=str)
        stream = self._stream if self._stream is not None else sys.stderr
        with self._lock:
            stream.write(line + "\n")

    def request(
        self,
        *,
        request_id: str,
        endpoint: str,
        status: int,
        duration_ms: float | None,
        **fields,
    ) -> None:
        """One served request, subject to the slow-request sampler.

        Errors (status >= 400) always log; successes log when no
        ``slow_ms`` threshold is set or the request met it.
        ``duration_ms=None`` (no handling time was measured) logs as
        ``null``.
        """
        if not self.enabled:
            return
        if (
            status < 400
            and self.slow_ms is not None
            and duration_ms is not None
            and duration_ms < self.slow_ms
        ):
            return
        self.event(
            "request",
            request_id=request_id,
            endpoint=endpoint,
            status=int(status),
            duration_ms=None if duration_ms is None else round(duration_ms, 3),
            **fields,
        )


__all__ = ["JsonLogger"]
