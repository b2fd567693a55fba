"""Process-global metrics: counters, gauges and timing histograms.

The scaling results this library reproduces (double-oracle pool sizes,
LP matrix dimensions, simulation throughput) are *quantitative* claims,
so the solver stack needs a place to put numbers that is cheaper than
logging and richer than return values.  This module provides it:

* :class:`Counter` — monotonically increasing tallies
  (``double_oracle.iterations.count``);
* :class:`Gauge` — last-value-wins instantaneous readings
  (``simulation.trials_per_sec``);
* :class:`Histogram` — streaming distributions with nearest-rank
  percentiles (``lp.solve.seconds`` p50/p95/max);
* :class:`MetricsRegistry` — a named collection of the above,
  snapshot-able to a plain dict and exportable as JSON or
  Prometheus-style text.

A process-global registry (:func:`get_registry`) backs the module-level
helpers :func:`counter` / :func:`gauge` / :func:`histogram` /
:func:`timer`, which is what the instrumented hot paths call.  Metric
names follow the ``component.operation.unit`` convention documented in
``docs/observability.md``.

Everything here is stdlib-only and cheap: recording a counter is a
dict lookup plus a float add, and a histogram observation appends to a
bounded sample buffer (deterministic stride decimation past
``Histogram.MAX_SAMPLES`` — no RNG, so benchmark runs stay
reproducible).
"""

from __future__ import annotations

import json
import math
import threading
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
    "timer",
    "render_snapshot",
    "nearest_rank",
]


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (in [0, 100]) of an ascending sequence.

    The rank ``ceil(q * n / 100)`` is computed in integers on ``q * n``
    rounded to six decimals, so binary float error cannot push it up
    one: the 99.9th percentile of 1..1000 is 999, not 1000.  Returns 0.0
    for an empty sequence.
    """
    if not sorted_values:
        return 0.0
    micro_rank = round(q * len(sorted_values) * 10**6)
    rank = -(-micro_rank // 10**8)
    return float(sorted_values[min(max(rank, 1), len(sorted_values)) - 1])


class Counter:
    """A monotonically increasing tally.

    Examples
    --------
    >>> c = Counter("demo.count")
    >>> c.inc(); c.inc(2); c.value
    3.0
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the tally."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A last-value-wins instantaneous reading."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current reading."""
        self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """A streaming distribution with nearest-rank percentiles.

    Tracks exact ``count`` / ``total`` / ``min`` / ``max`` for every
    observation.  Percentiles are computed over a sample buffer that is
    decimated deterministically (keep every other sample, double the
    recording stride) once it reaches :data:`MAX_SAMPLES`, so memory
    stays bounded without randomness.
    """

    MAX_SAMPLES = 8192

    __slots__ = ("name", "count", "total", "min", "max", "_samples", "_stride", "_pending")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: List[float] = []
        self._stride = 1
        self._pending = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._pending += 1
        if self._pending >= self._stride:
            self._pending = 0
            self._samples.append(value)
            if len(self._samples) >= self.MAX_SAMPLES:
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        """Exact mean over all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile ``q`` (in [0, 100]) over the samples.

        Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100]; got {q}")
        return nearest_rank(sorted(self._samples), q)

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:.6g})"


class Timer:
    """Context manager that times a block into a :class:`Histogram`.

    >>> registry = MetricsRegistry()
    >>> with registry.timer("demo.seconds"):
    ...     pass
    >>> registry.histogram("demo.seconds").count
    1
    """

    __slots__ = ("_histogram", "_start", "elapsed")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = perf_counter() - self._start
        self._histogram.observe(self.elapsed)
        return False


def _prometheus_name(name: str) -> str:
    """Sanitize a dotted metric name for the Prometheus exposition format."""
    return "repro_" + "".join(
        c if c.isalnum() or c == "_" else "_" for c in name
    )


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    All accessors are get-or-create and thread-safe; instruments are
    returned by reference so hot paths can cache them.  ``snapshot()``
    freezes the registry into a plain nested dict; ``to_json()`` /
    ``to_prometheus()`` serialize that snapshot.
    """

    __slots__ = ("_counters", "_gauges", "_histograms", "_lock")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # The get-or-create fast paths read the dict without the lock on
    # purpose: a hit never mutates, CPython dict reads are atomic, and a
    # racy miss just falls through to the locked setdefault.

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        try:
            return self._counters[name]  # repro: noqa[LCK001]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        try:
            return self._gauges[name]  # repro: noqa[LCK001]
        except KeyError:
            with self._lock:
                return self._gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        try:
            return self._histograms[name]  # repro: noqa[LCK001]
        except KeyError:
            with self._lock:
                return self._histograms.setdefault(name, Histogram(name))

    def timer(self, name: str) -> Timer:
        """A context manager timing its block into histogram ``name``."""
        return Timer(self.histogram(name))

    def reset(self) -> None:
        """Drop every instrument (used between benchmark sessions)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __iter__(self) -> Iterator[str]:
        # Snapshot the names under the lock, iterate outside it, so a
        # loop body that calls get-or-create accessors cannot deadlock.
        with self._lock:
            names = (sorted(self._counters) + sorted(self._gauges)
                     + sorted(self._histograms))
        return iter(names)

    def __len__(self) -> int:
        with self._lock:
            return (len(self._counters) + len(self._gauges)
                    + len(self._histograms))

    def snapshot(self) -> Dict[str, Dict]:
        """Freeze the registry into a plain, JSON-ready nested dict."""
        with self._lock:
            counters = {
                name: c.value for name, c in sorted(self._counters.items())
            }
            gauges = {
                name: g.value for name, g in sorted(self._gauges.items())
            }
            histogram_objs = sorted(self._histograms.items())
        histograms = {}
        for name, h in histogram_objs:
            histograms[name] = {
                "count": h.count,
                "total": h.total,
                "mean": h.mean,
                "min": h.min if h.count else 0.0,
                "max": h.max if h.count else 0.0,
                "p50": h.percentile(50),
                "p95": h.percentile(95),
            }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The snapshot serialized as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """The snapshot in Prometheus-style exposition text.

        Dotted names become ``repro_``-prefixed underscore names;
        histograms emit ``_count`` / ``_sum`` series plus ``quantile``
        -labelled samples for p50/p95 and the max.
        """
        lines: List[str] = []
        snap = self.snapshot()
        for name, value in snap["counters"].items():
            metric = _prometheus_name(name)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {value:g}")
        for name, value in snap["gauges"].items():
            metric = _prometheus_name(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {value:g}")
        for name, stats in snap["histograms"].items():
            metric = _prometheus_name(name)
            lines.append(f"# TYPE {metric} summary")
            lines.append(f'{metric}{{quantile="0.5"}} {stats["p50"]:g}')
            lines.append(f'{metric}{{quantile="0.95"}} {stats["p95"]:g}')
            lines.append(f'{metric}{{quantile="1"}} {stats["max"]:g}')
            lines.append(f"{metric}_count {stats['count']:g}")
            lines.append(f"{metric}_sum {stats['total']:g}")
        return "\n".join(lines) + ("\n" if lines else "")


def render_snapshot(snapshot: Dict[str, Dict]) -> str:
    """Human-readable text rendering of a :meth:`MetricsRegistry.snapshot`.

    One aligned line per instrument; histograms show count/mean/p50/p95/max.
    """
    rows: List[tuple] = []
    for name, value in snapshot.get("counters", {}).items():
        rows.append((name, "counter", f"{value:g}"))
    for name, value in snapshot.get("gauges", {}).items():
        rows.append((name, "gauge", f"{value:g}"))
    for name, stats in snapshot.get("histograms", {}).items():
        rows.append((
            name,
            "histogram",
            (
                f"count={stats['count']:g} mean={stats['mean']:.6g} "
                f"p50={stats['p50']:.6g} p95={stats['p95']:.6g} "
                f"max={stats['max']:.6g}"
            ),
        ))
    if not rows:
        return "(no metrics recorded)"
    rows.sort()
    width_name = max(len(r[0]) for r in rows)
    width_kind = max(len(r[1]) for r in rows)
    return "\n".join(
        f"{name.ljust(width_name)}  {kind.ljust(width_kind)}  {value}"
        for name, kind, value in rows
    )


_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry the instrumented hot paths feed."""
    return _GLOBAL_REGISTRY


def counter(name: str) -> Counter:
    """Get or create ``name`` on the process-global registry."""
    return _GLOBAL_REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """Get or create ``name`` on the process-global registry."""
    return _GLOBAL_REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    """Get or create ``name`` on the process-global registry."""
    return _GLOBAL_REGISTRY.histogram(name)


def timer(name: str) -> Timer:
    """Time a block into histogram ``name`` on the global registry."""
    return _GLOBAL_REGISTRY.timer(name)
