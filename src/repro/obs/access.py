"""Structured per-request access log for the solve service.

One JSONL line per HTTP request — the operational record the SLO engine
(:mod:`repro.obs.slo`), ``repro-defender slo check`` and post-hoc
latency forensics consume.  Schema ``repro.obs/access/v1``::

    {"schema": "repro.obs/access/v1", "ts": 1754640000.123,
     "trace_id": "4bf92f3577b34da6a3ce929d0e0e4736", "method": "POST",
     "endpoint": "/solve", "status": 200, "error_code": null,
     "latency_s": 0.0123, "cache_hit": false, "inflight": 1}

``trace_id`` is the request's W3C trace id (also echoed in the
``X-Request-Id`` response header and stamped into the ledger record and
run events — see :mod:`repro.obs.tracing`), so one grep joins the
access line with everything else the request produced.  ``error_code``
is the stable machine code of the error contract (``null`` on success);
``cache_hit`` is ``null`` for non-solver endpoints; ``inflight`` is the
worker-pool occupancy sampled at completion.

The log is one of the JSONL sinks (:mod:`repro.obs.sink`): opt-in,
a single boolean check while off, switched by :func:`enable_access_log`,
the CLI's ``--access-log`` flag or ``REPRO_ACCESS=1``
(``REPRO_ACCESS_DIR``; default ``.repro/access/``).
"""

from __future__ import annotations

import os
from pathlib import Path
from time import time
from typing import Any, Dict, List, Optional

import repro.obs.metrics as _metrics
from repro.obs.sink import Sink, read_records

__all__ = [
    "ACCESS_SCHEMA",
    "DEFAULT_ACCESS_DIR",
    "enable_access_log",
    "disable_access_log",
    "access_log_enabled",
    "access_log_path",
    "log_request",
    "read_access",
]

ACCESS_SCHEMA = "repro.obs/access/v1"
DEFAULT_ACCESS_DIR = ".repro/access"
SINK_FILENAME = "access.jsonl"

_SINK = Sink("access", DEFAULT_ACCESS_DIR)


def enable_access_log(directory: Optional[os.PathLike] = None) -> None:
    """Turn the access log on, appending to ``<directory>/access.jsonl``
    (``.repro/access/`` when no directory is given)."""
    _SINK.enable(DEFAULT_ACCESS_DIR if directory is None else directory)


def disable_access_log() -> None:
    """Turn the access log off and close the sink."""
    _SINK.disable()


def access_log_enabled() -> bool:
    """True while :func:`log_request` is recording request lines."""
    return _SINK.is_enabled()


def access_log_path() -> Optional[Path]:
    """The JSONL file request lines are appended to (None while off)."""
    return _SINK.path(SINK_FILENAME)


def log_request(
    trace_id: Optional[str],
    method: str,
    endpoint: str,
    status: int,
    error_code: Optional[str],
    latency_s: float,
    cache_hit: Optional[bool] = None,
    inflight: int = 0,
) -> Optional[Dict[str, Any]]:
    """Append one ``repro.obs/access/v1`` line; no-op while disabled.

    Returns the record dict when written (None while off), so the serve
    layer's tests can assert on exactly what was logged.
    """
    # Deliberate benign race: a stale read of the boolean switch costs
    # one line around enable/disable, and keeps the disabled-path
    # overhead to a single attribute load (the obs cost contract).
    if not _SINK.enabled:
        return None
    record: Dict[str, Any] = {
        "schema": ACCESS_SCHEMA,
        "ts": time(),
        "trace_id": trace_id,
        "method": method,
        "endpoint": endpoint,
        "status": status,
        "error_code": error_code,
        "latency_s": latency_s,
        "cache_hit": cache_hit,
        "inflight": inflight,
    }
    with _metrics.timer("access.append.seconds"):
        if not _SINK.append(SINK_FILENAME, record):
            return None
    _metrics.counter("access.lines.count").inc()
    return record


def read_access(path: os.PathLike) -> List[Dict[str, Any]]:
    """Parse an access-log JSONL file (or a directory containing
    ``access.jsonl``), tolerating a torn trailing line.

    Corrupt lines are skipped and counted in
    ``access.read.corrupt_lines.count`` — the sink is append-only, so a
    torn tail is expected while the service is live.
    """
    with _metrics.timer("access.read.seconds"):
        target = Path(path)
        if target.is_dir():
            target = target / SINK_FILENAME
        return list(read_records(target, "access"))
