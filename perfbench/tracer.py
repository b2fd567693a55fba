"""Out-of-program tracing: wrap the public entry points of each layer.

Nothing under ``src/`` knows about this module.  :func:`install` swaps
each layer's function for a wrapper that records a span (name, start,
end, parent, request id) into an in-memory :class:`Recorder`; the
recorder is written out once, when the run ends.  Names are wrapped
where the caller resolves them: ``double_oracle`` imported
``minimax_over_strategies`` by name, so the wrapper goes on
``repro.solvers.double_oracle.minimax_over_strategies``, while
``repro.weighted`` imports ``scipy.optimize.linprog`` inside the
function, so that one is wrapped on ``scipy.optimize`` itself.

A span's self time is its duration minus the time its child spans
cover; spans nest per thread, so children never overlap each other.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# (module, attribute path, span name, counted).  ``counted`` spans feed
# ``<name>.calls``; the ledger's __enter__ half adds self time only, so
# one recorded run counts once.
WRAPS: List[Tuple[str, str, str, bool]] = [
    ("repro.kernels.coverage", "CoverageOracle.__init__", "kernels.build", True),
    ("repro.kernels.coverage", "CoverageOracle.exhaustive", "kernels.exhaustive", True),
    ("repro.kernels.coverage", "CoverageOracle.branch_and_bound", "kernels.bnb", True),
    ("repro.kernels.coverage", "CoverageOracle.greedy", "kernels.greedy", True),
    ("repro.solvers.double_oracle", "minimax_over_strategies", "solvers.lp", True),
    ("repro.solvers.lp", "linprog", "scipy.linprog", True),
    ("scipy.optimize", "linprog", "scipy.linprog", True),
    ("scipy.optimize._highspy._core", "_Highs.run", "scipy.highs_run", True),
    ("repro.solvers.double_oracle", "double_oracle", "solvers.double_oracle", True),
    ("repro.solvers.fictitious_play", "fictitious_play", "solvers.fictitious_play", True),
    ("repro.weighted.game", "weighted_double_oracle", "weighted.double_oracle", True),
    ("repro.equilibria.solve", "solve_game", "equilibria.solve", True),
    ("repro.serve.routes", "solve_game", "equilibria.solve", True),
    ("repro.equilibria.solve", "minimum_edge_cover_size", "matching.edge_cover", True),
    ("repro.equilibria.solve", "find_partition", "matching.partition", True),
    ("repro.equilibria.solve", "algorithm_a_tuple", "equilibria.atuple", True),
    ("repro.equilibria.solve", "find_pure_nash", "core.pure", True),
    ("repro.cache", "lookup", "cache.lookup", True),
    ("repro.cache", "CacheProbe.store", "cache.store", True),
    ("repro.serve.schemas", "game_from_json", "serialize.game_from_json", True),
    ("repro.serve.routes", "solve_result_to_json", "serialize.solve_result_to_json", True),
    ("repro.equilibria.solve", "solve_result_to_json", "serialize.solve_result_to_json", True),
    ("repro.obs.ledger", "_RunContext.__enter__", "obs.ledger", False),
    ("repro.obs.ledger", "_RunContext.__exit__", "obs.ledger", True),
    ("repro.obs.access", "log_request", "obs.access", True),
    # ``publish`` is one boolean check while the sink is off; ``_publish``
    # is the work done when it is on, so sinks-off runs count nothing.
    ("repro.obs.events", "_publish", "obs.events.publish", True),
    ("repro.serve.routes", "parse_request", "serve.parse_request", True),
    ("repro.serve.app", "prepare", "serve.prepare", True),
]

#: Cascade kinds the bipartite and tree inputs can produce (Theorems
#: 3.1 and 5.1).
KINDS = ("pure", "k-matching")

#: Every span name a layer table row is built from.
SPAN_NAMES = sorted({name for _, _, name, _ in WRAPS} | {"serve.run"})


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "children_s",
                 "counted", "info")

    def __init__(self, name: str, start: float, parent: Optional["Span"],
                 rid: Any, counted: bool) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.children_s = 0.0
        self.counted = counted
        self.info: Any = None


class Recorder:
    """Spans kept in memory for one traced run.

    ``request_id`` names the request a span belongs to: the solve index
    for the in-process workloads, the ``traceparent`` trace id in the
    server.  Timestamps are ``time.monotonic()``, one clock for every
    process on the host, so client and server spans line up.
    """

    def __init__(self, request_id: Callable[[], Any]) -> None:
        self.request_id = request_id
        self.spans: List[Span] = []
        self.waits: List[Tuple[Any, float, float]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def queue_wait(self, rid: Any, submitted: float, started: float) -> None:
        with self._lock:
            self.waits.append((rid, submitted, started))

    def call(self, name: str, counted: bool,
             observe: Optional[Callable[[Any, tuple], Any]], fn: Callable,
             *args: Any, **kwargs: Any) -> Any:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        span = Span(name, time.monotonic(), parent, self.request_id(),
                    counted)
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                span.info = observe(result, args)
            return result
        finally:
            span.end = time.monotonic()
            stack.pop()
            if parent is not None:
                parent.children_s += span.end - span.start
            with self._lock:
                self.spans.append(span)

    def doc(self) -> Dict[str, Any]:
        """Every span and queue wait, as plain JSON-ready lists."""
        with self._lock:
            spans = list(self.spans)
            waits = list(self.waits)
        ids = {id(s): i for i, s in enumerate(spans)}
        return {
            "spans": [
                [s.name, s.start, s.end, ids.get(id(s.parent)), s.rid,
                 s.children_s, s.counted, s.info]
                for s in spans
            ],
            "waits": waits,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.doc(), handle)


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _resolve(module: str, attr_path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _wrap(rec: Recorder, name: str, counted: bool, fn: Callable,
          observe: Optional[Callable[[Any, tuple], Any]]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return rec.call(name, counted, observe, fn, *args, **kwargs)

    return wrapper


#: What a span keeps from its layer's result (``Span.info``), so counts
#: are taken where the work happens and filtered with the span.
OBSERVERS: Dict[str, Callable[[Any, tuple], Any]] = {
    "solvers.lp": lambda result, args: len(args[1]),
    "solvers.double_oracle": lambda result, args: [
        result.iterations,
        len(result.solution.defender) / result.defender_pool_size,
    ],
    "solvers.fictitious_play": lambda result, args: result.rounds,
    "equilibria.solve": lambda result, args: result.kind,
    "cache.lookup": lambda result, args: bool(result.hit),
}


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every layer in :data:`WRAPS`; return a function that undoes it."""
    undo: List[Tuple[Any, str, Any]] = []
    for module, attr_path, name, counted in WRAPS:
        owner, attr = _resolve(module, attr_path)
        original = getattr(owner, attr)
        setattr(owner, attr, _wrap(rec, name, counted, original,
                                   OBSERVERS.get(name)))
        undo.append((owner, attr, original))
    _wrap_pool_submit(rec, undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def _wrap_pool_submit(rec: Recorder, undo: List[Tuple[Any, str, Any]]) -> None:
    """Time queue wait (submit to start) and the worker's run as a span."""
    from repro.serve.workers import WorkerPool

    original = WorkerPool.submit

    def submit(self: Any, fn: Callable[[], Any]) -> Any:
        submitted = time.monotonic()

        def run() -> Any:
            rec.queue_wait(rec.request_id(), submitted, time.monotonic())
            return rec.call("serve.run", True, None, fn)

        return original(self, run)

    WorkerPool.submit = submit
    undo.append((WorkerPool, "submit", original))


# --------------------------------------------------------------------------
# accounting


def _union_s(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def window_spans(doc: Dict[str, Any],
                 windows: List[Tuple[float, float]]) -> List[list]:
    """The spans whose root span lies inside one of ``windows``."""
    spans = doc["spans"]

    def root(i: int) -> list:
        while spans[i][3] is not None:
            i = spans[i][3]
        return spans[i]

    def inside(span: list) -> bool:
        return any(start <= span[1] and span[2] <= end
                   for start, end in windows)

    return [span for i, span in enumerate(spans) if inside(root(i))]


def layer_table(spans: List[list], wall_s: float) -> Dict[str, float]:
    """Per-layer ``calls`` / ``self_ms`` plus ``trace.wall_ms`` and
    ``trace.other_ms``, the part of ``wall_s`` covered by no span."""
    out: Dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0.0
        out[f"{name}.self_ms"] = 0.0
    infos: Dict[str, List[Any]] = {name: [] for name in OBSERVERS}
    roots: List[Tuple[float, float]] = []
    for name, start, end, parent, _rid, children_s, counted, info in spans:
        out[f"{name}.self_ms"] += ((end - start) - children_s) * 1e3
        if counted:
            out[f"{name}.calls"] += 1
        if name in infos:
            infos[name].append(info)
        if parent is None:
            roots.append((start, end))
    out["solvers.lp.strategies.mean"] = mean(infos["solvers.lp"])
    out["solvers.double_oracle.iterations"] = float(
        sum(i for i, _ in infos["solvers.double_oracle"]))
    out["solvers.double_oracle.support_ratio"] = mean(
        [r for _, r in infos["solvers.double_oracle"]])
    out["solvers.fictitious_play.rounds"] = float(
        sum(infos["solvers.fictitious_play"]))
    for kind in KINDS:
        out[f"equilibria.kind.{kind}.count"] = float(
            infos["equilibria.solve"].count(kind))
    lookups = infos["cache.lookup"]
    out["cache.hit_ratio"] = sum(lookups) / len(lookups) if lookups else 0.0
    out["trace.wall_ms"] = wall_s * 1e3
    out["trace.other_ms"] = (wall_s - _union_s(roots)) * 1e3
    return out


def self_s_by_request(spans: List[list]) -> Dict[Any, float]:
    """Summed self time (seconds) of each request id's spans."""
    out: Dict[Any, float] = {}
    for _name, start, end, _parent, rid, children_s, _c, _i in spans:
        out[rid] = out.get(rid, 0.0) + (end - start) - children_s
    return out


def misnested(spans: List[list]) -> int:
    """Spans whose children cover more than the span itself."""
    return sum(children_s > (end - start) + 1e-9
               for _n, start, end, _p, _r, children_s, _c, _i in spans)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0
