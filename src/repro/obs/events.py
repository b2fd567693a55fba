"""Live telemetry event bus: typed run events, bounded and subscribable.

The ledger records *what a run was* after it finished; this module
streams *what a run is doing* while it happens.  Instrumented code
publishes small typed events — per-iteration solver progress
(``solver.iteration``), LP solves (``lp.solve``), fuzz cases
(``fuzz.case``), benchmark cases (``bench.case``) and run boundaries
(``run.start`` / ``run.end``) — into a process-global, thread-safe,
bounded ring buffer.  Consumers attach three ways:

* :func:`subscribe` — an in-process callback invoked synchronously on
  every published event (subscriber exceptions are caught, counted in
  ``events.subscriber_errors.count`` and never break the publisher);
* :func:`recent` — snapshot the newest buffered events (the live view
  behind ``repro-defender tail``);
* the **JSONL sink** — with a directory, every event is also appended
  to ``events.jsonl`` under it, so ``repro-defender tail --follow`` can
  stream a run from another process and finished runs replay exactly.

The bus is one of the JSONL sinks (:mod:`repro.obs.sink`): opt-in, and
:func:`publish` is a single boolean check while off.  Switch it with
:func:`enable_events`, the CLI ``--events`` flag or ``REPRO_EVENTS=1``
(``REPRO_EVENTS_DIR``; default ``.repro/events/``).  Event schema::

    {"schema": "repro.obs/event/v1", "seq": 17, "ts": 1754640000.123,
     "type": "solver.iteration", "payload": {...}}

``seq`` is a process-wide monotone sequence number, so interleaved
multi-threaded streams have a total order independent of clock ties.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from pathlib import Path
from time import time
from typing import Any, Callable, Dict, Iterator, List, Optional

import repro.obs.metrics as _metrics
from repro.obs.log import get_logger
from repro.obs.sink import Sink, read_records

__all__ = [
    "EVENT_SCHEMA",
    "EVENT_TYPES",
    "DEFAULT_EVENTS_DIR",
    "DEFAULT_CAPACITY",
    "enable_events",
    "disable_events",
    "events_enabled",
    "events_sink_path",
    "publish",
    "subscribe",
    "unsubscribe",
    "recent",
    "clear_events",
    "read_events",
    "tail_events",
]

_log = get_logger("repro.obs.events")

EVENT_SCHEMA = "repro.obs/event/v1"
DEFAULT_EVENTS_DIR = ".repro/events"
SINK_FILENAME = "events.jsonl"

#: Ring-buffer capacity: events kept for :func:`recent` (oldest dropped).
DEFAULT_CAPACITY = 4096

#: The typed event vocabulary.  Publishing an unknown type is allowed
#: (forward compatibility for downstream subsystems) but counted in
#: ``events.unknown_type.count`` so drift is visible.
EVENT_TYPES = frozenset({
    "run.start",
    "run.end",
    "solver.iteration",
    "lp.solve",
    "fuzz.case",
    "bench.case",
    "serve.request",
    "slo.breach",
})


class _BusState:
    """Process-global bus: ring buffer, subscribers, sequence numbers.

    The on/off switch and the JSONL file are the sink's (``_SINK``)."""

    __slots__ = ("buffer", "subscribers", "seq", "next_token", "lock")

    def __init__(self) -> None:
        self.buffer: deque = deque(maxlen=DEFAULT_CAPACITY)  # repro: lock(lock)
        self.subscribers: Dict[int, Callable[[Dict[str, Any]], None]] = {}  # repro: lock(lock)
        self.seq = 0  # repro: lock(lock)
        self.next_token = 1  # repro: lock(lock)
        self.lock = threading.Lock()


_STATE = _BusState()
_SINK = Sink("events", DEFAULT_EVENTS_DIR)


def enable_events(directory: Optional[os.PathLike] = None,
                  sink: bool = True) -> None:
    """Turn the bus on, optionally persisting events under ``directory``.

    With ``sink=True`` (the default) every event is appended to
    ``<directory>/events.jsonl`` (``.repro/events/`` when no directory is
    given); ``sink=False`` keeps events purely in-memory — the mode the
    overhead benchmark and in-process subscribers use.
    """
    if directory is None:
        directory = DEFAULT_EVENTS_DIR
    _SINK.enable(directory if sink else None)


def disable_events() -> None:
    """Turn the bus off and close the JSONL sink (buffer is kept)."""
    _SINK.disable()


def events_enabled() -> bool:
    """True while :func:`publish` is recording events."""
    return _SINK.is_enabled()


def events_sink_path() -> Optional[Path]:
    """The JSONL file events are appended to (None when sink-less)."""
    return _SINK.path(SINK_FILENAME)


def clear_events() -> None:
    """Drop all buffered events (subscribers and the sink are kept)."""
    with _STATE.lock:
        _STATE.buffer.clear()


def publish(event_type: str, **payload: Any) -> Optional[Dict[str, Any]]:
    """Publish one event; a no-op single boolean check while disabled.

    Returns the event dict when published (None while the bus is off),
    so instrumentation can assert on what it emitted in tests.
    """
    # Deliberate benign race: a stale read of the boolean switch costs
    # one event around enable/disable, and keeps the disabled-path
    # overhead to a single attribute load.
    if not _SINK.enabled:
        return None
    return _publish(event_type, payload)


def _publish(event_type: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    with _STATE.lock:
        _STATE.seq += 1
        event = {
            "schema": EVENT_SCHEMA,
            "seq": _STATE.seq,
            "ts": time(),
            "type": event_type,
            "payload": payload,
        }
        _STATE.buffer.append(event)
        # Still under the lock that assigned ``seq``: file order is
        # sequence order.
        _SINK.append(SINK_FILENAME, event)
        callbacks = list(_STATE.subscribers.values())
    _metrics.counter("events.published.count").inc()
    if event_type not in EVENT_TYPES:
        _metrics.counter("events.unknown_type.count").inc()
    for callback in callbacks:
        try:
            callback(event)
        except Exception as exc:  # a bad subscriber never breaks the run
            _metrics.counter("events.subscriber_errors.count").inc()
            _log.warning("events.subscriber.failed",
                         error=type(exc).__name__)
    return event


def subscribe(callback: Callable[[Dict[str, Any]], None]) -> int:
    """Attach an in-process callback to every published event.

    The callback runs synchronously on the publisher's thread; exceptions
    it raises are swallowed (and counted).  Returns a token for
    :func:`unsubscribe`.
    """
    with _STATE.lock, _metrics.timer("events.subscribe.seconds"):
        token = _STATE.next_token
        _STATE.next_token += 1
        _STATE.subscribers[token] = callback
    return token


def unsubscribe(token: int) -> bool:
    """Detach a subscriber; True when the token was attached."""
    with _STATE.lock:
        return _STATE.subscribers.pop(token, None) is not None


def recent(count: Optional[int] = None,
           types: Optional[List[str]] = None) -> List[Dict[str, Any]]:
    """Snapshot the newest buffered events, oldest first.

    ``count`` caps the result (newest kept); ``types`` filters to the
    given event types.
    """
    with _STATE.lock, _metrics.timer("events.recent.seconds"):
        events = list(_STATE.buffer)
    if types is not None:
        wanted = set(types)
        events = [e for e in events if e.get("type") in wanted]
    if count is not None and count >= 0:
        events = events[len(events) - min(count, len(events)):]
    return events


# --------------------------------------------------------------------------
# reading a sink back (the `repro-defender tail` engine)


def read_events(path: os.PathLike,
                types: Optional[List[str]] = None) -> List[Dict[str, Any]]:
    """Parse a JSONL event-sink file, tolerating a torn trailing line.

    Corrupt lines are skipped and counted in
    ``events.read.corrupt_lines.count`` — the sink is append-only, so a
    torn tail is expected when tailing a live run.
    """
    with _metrics.timer("events.read.seconds"):
        wanted = None if types is None else set(types)
        return [event for event in read_records(path, "events")
                if wanted is None or event.get("type") in wanted]


def tail_events(
    path: os.PathLike,
    types: Optional[List[str]] = None,
    follow: bool = False,
    poll_interval: float = 0.25,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield events from a sink file, optionally following appends.

    Without ``follow`` this yields the current file contents and stops.
    With it, the file is polled every ``poll_interval`` seconds for new
    lines until ``stop()`` (when given) returns True — the generator the
    ``repro-defender tail --follow`` loop drains (Ctrl-C breaks it).
    """
    with _metrics.timer("events.tail.setup.seconds"):
        wanted = None if types is None else set(types)
    for event in read_records(path, "events", follow=follow,
                              poll_interval=poll_interval, stop=stop):
        if wanted is None or event.get("type") in wanted:
            yield event
