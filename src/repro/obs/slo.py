"""Service-level objectives: declarative targets, sliding-window burn rates.

An *objective* names a slice of traffic (one endpoint, or ``*`` for all
of it), a sliding window, and one or both of

* a **latency target** — the observed p95 latency over the window must
  stay at or under ``latency_p95_s``;
* an **error budget** — the fraction of requests answered with a 5xx
  status over the window must stay under ``error_rate_budget``.  The
  reported **burn rate** is ``observed error rate / budget``: 1.0 means
  the window is consuming its budget exactly as fast as allowed, and
  anything above ``burn_rate_threshold`` (default 1.0) is a breach.

Objectives are declared in a JSON config (schema
``repro.obs/slo-config/v1``)::

    {"schema": "repro.obs/slo-config/v1",
     "objectives": [
       {"name": "solve-latency", "endpoint": "/solve", "window_s": 3600,
        "latency_p95_s": 2.0},
       {"name": "availability", "endpoint": "*", "window_s": 3600,
        "error_rate_budget": 0.01, "burn_rate_threshold": 1.0}]}

:func:`evaluate_slos` computes a ``repro.obs/slo-report/v1`` document
from ``repro.obs/access/v1`` request records (the access log is the
measurement source — see :mod:`repro.obs.access`); it backs the
``repro-defender slo check|report`` CLI and the SLO panel of the HTML
run report.  :class:`SloEngine` is the live in-process form: the serve
layer feeds it one observation per request, ``GET /slo`` renders its
:meth:`~SloEngine.status_document`, and each transition into breach
publishes one ``slo.breach`` event on the telemetry bus.

Client errors (4xx) do not burn the error budget — a flood of malformed
requests is the client's defect, not the service's — but they do count
toward the latency sample, since the service still spent that time.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path
from time import time
from typing import Any, Dict, Iterable, List, Optional

import repro.obs.events as _events
import repro.obs.metrics as _metrics

__all__ = [
    "SLO_CONFIG_SCHEMA",
    "SLO_REPORT_SCHEMA",
    "SloObjective",
    "SloEngine",
    "default_objectives",
    "load_slo_config",
    "evaluate_slos",
]

SLO_CONFIG_SCHEMA = "repro.obs/slo-config/v1"
SLO_REPORT_SCHEMA = "repro.obs/slo-report/v1"

#: Observations buffered by a live engine (oldest dropped): bounds the
#: memory of a long-running service regardless of window lengths.
DEFAULT_ENGINE_CAPACITY = 65536


class SloObjective:
    """One declarative objective over a slice of request traffic.

    ``endpoint`` selects the traffic (an endpoint name as it appears in
    access records, or ``"*"`` for all requests); ``window_s`` is the
    sliding evaluation window ending at "now".  At least one of
    ``latency_p95_s`` (seconds) and ``error_rate_budget`` (a fraction in
    ``(0, 1]``) must be set.
    """

    __slots__ = ("name", "endpoint", "window_s", "latency_p95_s",
                 "error_rate_budget", "burn_rate_threshold")

    def __init__(
        self,
        name: str,
        endpoint: str = "*",
        window_s: float = 3600.0,
        latency_p95_s: Optional[float] = None,
        error_rate_budget: Optional[float] = None,
        burn_rate_threshold: float = 1.0,
    ) -> None:
        if not name or not isinstance(name, str):
            raise ValueError("objective needs a non-empty string name")
        if not isinstance(endpoint, str) or not endpoint:
            raise ValueError(f"objective {name!r}: endpoint must be a "
                             "non-empty string (use '*' for all traffic)")
        if not isinstance(window_s, (int, float)) or not window_s > 0:
            raise ValueError(f"objective {name!r}: window_s must be "
                             f"positive; got {window_s!r}")
        if latency_p95_s is None and error_rate_budget is None:
            raise ValueError(f"objective {name!r} needs latency_p95_s "
                             "and/or error_rate_budget")
        if latency_p95_s is not None and not latency_p95_s > 0:
            raise ValueError(f"objective {name!r}: latency_p95_s must be "
                             f"positive; got {latency_p95_s!r}")
        if error_rate_budget is not None and not (
                0 < error_rate_budget <= 1):
            raise ValueError(f"objective {name!r}: error_rate_budget must "
                             f"be in (0, 1]; got {error_rate_budget!r}")
        if not burn_rate_threshold > 0:
            raise ValueError(f"objective {name!r}: burn_rate_threshold "
                             f"must be positive; got {burn_rate_threshold!r}")
        self.name = name
        self.endpoint = endpoint
        self.window_s = float(window_s)
        self.latency_p95_s = (
            None if latency_p95_s is None else float(latency_p95_s))
        self.error_rate_budget = (
            None if error_rate_budget is None else float(error_rate_budget))
        self.burn_rate_threshold = float(burn_rate_threshold)

    def matches(self, endpoint: str) -> bool:
        """True when this objective covers requests to ``endpoint``."""
        return self.endpoint == "*" or self.endpoint == endpoint

    def to_dict(self) -> Dict[str, Any]:
        """The objective as a plain config-schema dict."""
        doc: Dict[str, Any] = {
            "name": self.name,
            "endpoint": self.endpoint,
            "window_s": self.window_s,
            "burn_rate_threshold": self.burn_rate_threshold,
        }
        if self.latency_p95_s is not None:
            doc["latency_p95_s"] = self.latency_p95_s
        if self.error_rate_budget is not None:
            doc["error_rate_budget"] = self.error_rate_budget
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "SloObjective":
        """Build an objective from one config-schema dict entry."""
        if not isinstance(doc, dict):
            raise ValueError(f"objective entry must be an object; got "
                             f"{type(doc).__name__}")
        known = {"name", "endpoint", "window_s", "latency_p95_s",
                 "error_rate_budget", "burn_rate_threshold"}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(
                f"unknown objective keys: {', '.join(unknown)} "
                f"(allowed: {', '.join(sorted(known))})")
        kwargs = dict(doc)
        name = kwargs.pop("name", "")
        return cls(name, **kwargs)

    def __repr__(self) -> str:
        return (f"SloObjective({self.name!r}, endpoint={self.endpoint!r}, "
                f"window_s={self.window_s:g})")


def default_objectives() -> List[SloObjective]:
    """The built-in objectives a service runs with when no config is
    given: 1% availability budget and a 5s p95 across all endpoints."""
    return [
        SloObjective("availability", endpoint="*", window_s=3600.0,
                     error_rate_budget=0.01),
        SloObjective("latency", endpoint="*", window_s=3600.0,
                     latency_p95_s=5.0),
    ]


def load_slo_config(path: "Path | str") -> List[SloObjective]:
    """Load and validate a ``repro.obs/slo-config/v1`` file.

    Raises ``ValueError`` on a missing/malformed file, a wrong schema
    tag, or any invalid objective — config defects must fail loudly at
    startup, not silently during an incident.
    """
    with _metrics.timer("slo.config.load.seconds"):
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot read SLO config {path}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"SLO config {path} is not valid JSON: "
                             f"{exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError(f"SLO config {path} must be a JSON object")
        if doc.get("schema") != SLO_CONFIG_SCHEMA:
            raise ValueError(
                f"SLO config {path} has schema {doc.get('schema')!r}; "
                f"expected {SLO_CONFIG_SCHEMA!r}")
        raw = doc.get("objectives")
        if not isinstance(raw, list) or not raw:
            raise ValueError(f"SLO config {path} needs a non-empty "
                             "'objectives' list")
        objectives = [SloObjective.from_dict(entry) for entry in raw]
        names = [obj.name for obj in objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"SLO config {path} has duplicate objective "
                             "names")
    return objectives


def _evaluate_one(objective: SloObjective,
                  records: Iterable[Dict[str, Any]],
                  now: float) -> Dict[str, Any]:
    cutoff = now - objective.window_s
    latencies: List[float] = []
    requests = 0
    errors = 0
    for record in records:
        endpoint = record.get("endpoint", "")
        ts = record.get("ts", 0.0)
        if not objective.matches(str(endpoint)):
            continue
        if not isinstance(ts, (int, float)) or ts < cutoff or ts > now:
            continue
        requests += 1
        status = record.get("status", 0)
        if isinstance(status, int) and status >= 500:
            errors += 1
        latency = record.get("latency_s")
        if isinstance(latency, (int, float)) and not isinstance(latency, bool):
            latencies.append(float(latency))
    latencies.sort()
    error_rate = (errors / requests) if requests else 0.0
    p95 = _metrics.nearest_rank(latencies, 95.0)
    result: Dict[str, Any] = {
        "name": objective.name,
        "endpoint": objective.endpoint,
        "window_s": objective.window_s,
        "requests": requests,
        "errors": errors,
        "error_rate": error_rate,
        "latency_p95_s": p95,
        "objective": objective.to_dict(),
    }
    breached = False
    if objective.error_rate_budget is not None:
        burn_rate = error_rate / objective.error_rate_budget
        result["burn_rate"] = burn_rate
        result["budget_remaining"] = max(0.0, 1.0 - burn_rate)
        if burn_rate > objective.burn_rate_threshold:
            breached = True
    if objective.latency_p95_s is not None and requests:
        if p95 > objective.latency_p95_s:
            breached = True
    result["breached"] = breached
    return result


def evaluate_slos(
    objectives: List[SloObjective],
    records: List[Dict[str, Any]],
    now: Optional[float] = None,
) -> Dict[str, Any]:
    """Evaluate objectives over access records into a report document.

    ``records`` are ``repro.obs/access/v1`` dicts (see
    :func:`repro.obs.access.read_access`).  ``now`` anchors the sliding
    windows; it defaults to the newest record timestamp — which makes a
    re-run over a committed fixture reproduce the same report — and to
    the wall clock when there are no records at all.
    """
    with _metrics.timer("slo.evaluate.seconds"):
        if now is None:
            stamps = [r.get("ts") for r in records
                      if isinstance(r.get("ts"), (int, float))]
            now = max(stamps) if stamps else time()
        results = [_evaluate_one(obj, records, now) for obj in objectives]
        breaches = [r["name"] for r in results if r["breached"]]
    return {
        "schema": SLO_REPORT_SCHEMA,
        "now": now,
        "results": results,
        "breaches": breaches,
    }


class SloEngine:
    """Live sliding-window SLO tracker fed one observation per request.

    The serve layer calls :meth:`observe` from its request-completion
    path (cheap: one deque append under a lock) and renders
    :meth:`status_document` for ``GET /slo``.  Each objective's
    transition from healthy to breached publishes one ``slo.breach``
    event and increments ``slo.breach.count``; recovery re-arms the
    objective so a later breach publishes again.
    """

    def __init__(self, objectives: Optional[List[SloObjective]] = None,
                 capacity: int = DEFAULT_ENGINE_CAPACITY) -> None:
        self.objectives = list(objectives) if objectives \
            else default_objectives()
        self._lock = threading.Lock()
        self._records: deque = deque(maxlen=capacity)  # repro: lock(_lock)
        self._breached: set = set()  # repro: lock(_lock)
        self._max_window = max(obj.window_s for obj in self.objectives)

    def observe(
        self,
        endpoint: str,
        status: int,
        latency_s: float,
        ts: Optional[float] = None,
    ) -> None:
        """Record one finished request (timestamped now by default)."""
        stamp = time() if ts is None else ts
        record = {"ts": stamp, "endpoint": endpoint, "status": status,
                  "latency_s": latency_s}
        with self._lock:
            self._records.append(record)
            # Prune observations no window can see anymore, so the
            # buffer tracks traffic age, not just the capacity cap.
            horizon = stamp - self._max_window
            while self._records and self._records[0]["ts"] < horizon:
                self._records.popleft()

    def status_document(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Evaluate all objectives over the buffered observations.

        Returns a ``repro.obs/slo-report/v1`` document (the ``GET /slo``
        body) anchored at the wall clock, and publishes ``slo.breach``
        events for objectives newly in breach.
        """
        with self._lock:
            records = list(self._records)
        report = evaluate_slos(self.objectives, records,
                               now=time() if now is None else now)
        newly_breached = []
        with self._lock:
            for result in report["results"]:
                name = result["name"]
                if result["breached"] and name not in self._breached:
                    self._breached.add(name)
                    newly_breached.append(result)
                elif not result["breached"]:
                    self._breached.discard(name)
        for result in newly_breached:
            _metrics.counter("slo.breach.count").inc()
            _events.publish(
                "slo.breach",
                objective=result["name"],
                endpoint=result["endpoint"],
                burn_rate=result.get("burn_rate"),
                latency_p95_s=result["latency_p95_s"],
                error_rate=result["error_rate"],
            )
        return report
