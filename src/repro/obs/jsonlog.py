"""Structured JSON logging and the slow-query log.

Log records under the ``repro`` logger hierarchy render as one JSON
object per line (machine-parseable, greppable by field), carrying the
current trace id automatically when a request trace is bound.  The
library is quiet by default: the ``repro`` logger carries only a
``NullHandler``, so with no logging configured nothing reaches stderr.
Call :func:`configure_json_logging` once from an entry point (the CLI
does) to attach the handler; libraries just :func:`get_logger` and log.

:class:`SlowQueryLog` is the query-latency tail surface: evaluations
slower than the threshold are kept in a bounded ring (newest last) and
emitted as structured warnings, so "what was slow in the last minute"
is answerable without scraping metrics.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, TextIO

from .trace import current_trace

__all__ = [
    "JsonLogFormatter",
    "SlowQueryLog",
    "configure_json_logging",
    "get_logger",
]

_ROOT = "repro"

# The library convention: without it, logging's last-resort handler
# would print every warning (the slow-query log's) to stderr.
logging.getLogger(_ROOT).addHandler(logging.NullHandler())

#: logging.LogRecord attributes that are plumbing, not payload; anything
#: else found on a record (i.e. passed via ``extra=``) is emitted as a
#: top-level JSON field.
_RESERVED = frozenset(
    logging.LogRecord(
        name="", level=0, pathname="", lineno=0, msg="", args=(), exc_info=None
    ).__dict__
) | {"message", "asctime", "taskName"}


class JsonLogFormatter(logging.Formatter):
    """One JSON object per record: ts, level, logger, event, extras."""

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        trace = current_trace()
        if trace is not None:
            payload["trace_id"] = trace.trace_id
        for key, value in record.__dict__.items():
            if key not in _RESERVED and not key.startswith("_"):
                payload[key] = value
        if record.exc_info:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=str, sort_keys=False)


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro`` hierarchy (``repro.<name>``)."""
    return logging.getLogger(f"{_ROOT}.{name}" if name else _ROOT)


def configure_json_logging(
    stream: Optional[TextIO] = None, level: int = logging.INFO
) -> logging.Logger:
    """Attach one JSON-formatted stream handler to the ``repro`` logger.

    Idempotent: an existing handler installed by a previous call is
    replaced, not duplicated, so re-running an entry point (or a test
    calling it per case) never double-logs.
    """
    root = logging.getLogger(_ROOT)
    for handler in list(root.handlers):
        if getattr(handler, "_repro_json_handler", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(JsonLogFormatter())
    handler._repro_json_handler = True  # type: ignore[attr-defined]
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False
    return root


class SlowQueryLog:
    """Bounded ring of queries that exceeded the latency threshold.

    ``record()`` is called with every evaluation's elapsed seconds; only
    those at or above ``threshold_seconds`` are kept (newest last, ring
    capacity ``maxlen``) and logged as structured warnings with the
    active trace id.  The default 100 ms threshold is far above the
    microsecond-scale batched query path, so healthy serving records
    nothing.
    """

    def __init__(
        self,
        threshold_seconds: float = 0.1,
        maxlen: int = 256,
        logger: Optional[logging.Logger] = None,
    ) -> None:
        if threshold_seconds < 0:
            raise ValueError(
                f"threshold must be >= 0, got {threshold_seconds}"
            )
        self.threshold_seconds = float(threshold_seconds)
        self._entries: "deque[Dict[str, Any]]" = deque(maxlen=int(maxlen))
        self._lock = threading.Lock()
        self._logger = logger if logger is not None else get_logger("slowlog")

    def record(
        self, kind: str, name: str, seconds: float, **extra: Any
    ) -> bool:
        """Keep (and log) the query if it was slow; returns whether it was."""
        if seconds < self.threshold_seconds:
            return False
        entry: Dict[str, Any] = {
            "ts": time.time(),
            "kind": kind,
            "name": name,
            "seconds": seconds,
        }
        trace = current_trace()
        if trace is not None:
            entry["trace_id"] = trace.trace_id
        entry.update(extra)
        with self._lock:
            self._entries.append(entry)
        self._logger.warning(
            "slow query",
            extra={
                "kind": kind,
                "query_name": name,
                "seconds": round(seconds, 6),
                **extra,
            },
        )
        return True

    def entries(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
