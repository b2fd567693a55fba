#!/usr/bin/env python
"""Hot-path benchmark smoke test (``make bench-smoke``).

Times the tracked solver hot paths — double oracle, fictitious play, and
the Monte-Carlo engines — on small fixed instances, best-of-3, and

* ``--write``   refreshes the committed ``BENCH_KERNELS.json`` trajectory
  file: updates the latest-snapshot ``cases`` block *and appends* one
  history entry keyed by the current git revision (schema v2; a v1 file
  is migrated in place, its old snapshot preserved as the
  ``pre-history`` entry);
* ``--check``   (default) re-times the same cases and fails when any
  tracked path regressed more than 20% (plus a 50 ms absolute slack for
  scheduler noise) against the committed latest snapshot;
* ``--watch``   re-times the cases and compares them against the
  trailing-median history via :mod:`repro.obs.watchdog` — report-only
  unless ``--strict`` (the ``make bench-watch`` CI step).

The ``REFERENCE`` timings below were measured on the pre-kernel code path
(the BENCH_OBS.json-era solvers, commit 38fe232) on the same instances,
best-of-3, and are embedded so the trajectory file always evidences the
speedup against a fixed origin rather than a moving one.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

BENCH_FILE = REPO_ROOT / "BENCH_KERNELS.json"

#: History entries kept in the trajectory file (oldest dropped first).
MAX_HISTORY = 100

#: Pre-kernel (seed) wall-clock seconds for the tracked cases, best-of-3.
REFERENCE = {
    "double_oracle.medium_a": 0.2078,
    "double_oracle.medium_b": 0.4345,
    "double_oracle.cached": None,  # added with the result cache; hit path
    "fictitious_play.medium": 0.9336,
    "simulation.engine.small": None,  # added with the kernel; no seed datum
    "simulation.fast.medium": None,
    "fuzz.batch.small": None,  # added with repro.fuzz; no seed datum
    "events.publish.off": None,  # added with the event bus; no seed datum
    "events.publish.on": None,
    "trace_context.off": None,  # added with request correlation; no seed datum
    "access_log.off": None,
}

#: Publishes per event-bus micro-bench repetition.
_BUS_PUBLISHES = 50_000

#: Disabled-path calls per correlation micro-bench repetition.
_CORRELATION_CALLS = 50_000

#: Regression gate: fail when current > baseline * (1 + SLACK_REL) + SLACK_ABS.
SLACK_REL = 0.20
SLACK_ABS = 0.05


def _cases():
    from repro.core.game import TupleGame
    from repro.equilibria.solve import solve_game
    from repro.fuzz.runner import run_fuzz
    from repro.graphs.generators import random_bipartite_graph
    from repro.kernels import clear_shared_oracles
    from repro.simulation.engine import simulate
    from repro.simulation.fast import simulate_fast
    from repro.solvers.double_oracle import double_oracle
    from repro.solvers.fictitious_play import fictitious_play

    import repro.cache as result_cache
    from repro.obs import events as obs_events
    from repro.obs import access as obs_access
    from repro.obs import tracing as obs_tracing

    def publish_off() -> None:
        # The disabled fast path: one attribute check per publish.  The
        # watchdog history of this case is the proof that leaving the bus
        # off keeps instrumented hot loops effectively free.
        obs_events.disable_events()
        for index in range(_BUS_PUBLISHES):
            obs_events.publish("bench.case", case="bus-off", index=index)

    def publish_on() -> None:
        # Ring buffer + lock, no sink: the marginal cost a live `tail`
        # subscriber imposes on an instrumented solver loop.
        obs_events.enable_events(sink=False)
        try:
            for index in range(_BUS_PUBLISHES):
                obs_events.publish("bench.case", case="bus-on", index=index)
        finally:
            obs_events.disable_events()

    def trace_context_off() -> None:
        # Disabled tracing with the contextvars-backed trace context:
        # span() must stay a single boolean check even now that the
        # span stack lives on a per-context object.  The history of
        # this case guards the correlation layer's off-cost.
        obs_tracing.enable_tracing(False)
        for _ in range(_CORRELATION_CALLS):
            with obs_tracing.span("bench.case"):
                pass

    def access_log_off() -> None:
        # The disabled access log: log_request() falls through on one
        # attribute load, so a service run without --access-log pays
        # nothing per request for the sink.
        obs_access.disable_access_log()
        for index in range(_CORRELATION_CALLS):
            obs_access.log_request(
                None, "POST", "/solve", 200, None, 0.0, inflight=index
            )

    do_a = TupleGame(random_bipartite_graph(15, 25, 0.15, seed=60), 4, nu=1)
    do_b = TupleGame(random_bipartite_graph(25, 40, 0.10, seed=1000), 5, nu=1)

    # Result-cache hit path: populate a throwaway store once here, then
    # every timed repetition replays from it (clear_shared_oracles wipes
    # the coverage kernel between reps, not the result cache).  The case
    # enables the cache only inside its own closure so the other cases
    # keep timing the uncached paths.
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    result_cache.enable_cache(cache_dir)
    try:
        double_oracle(do_b)
    finally:
        result_cache.disable_cache()

    def cached_double_oracle() -> None:
        result_cache.enable_cache(cache_dir)
        try:
            double_oracle(do_b)
        finally:
            result_cache.disable_cache()
    fp = TupleGame(random_bipartite_graph(10, 15, 0.2, seed=150), 3, nu=1)
    sim_game = TupleGame(random_bipartite_graph(8, 12, 0.25, seed=9), 3, nu=4)
    sim_config = solve_game(sim_game).mixed

    return {
        "double_oracle.medium_a": lambda: double_oracle(do_a),
        "double_oracle.medium_b": lambda: double_oracle(do_b),
        "double_oracle.cached": cached_double_oracle,
        "fictitious_play.medium": lambda: fictitious_play(fp, rounds=60),
        "simulation.engine.small": lambda: simulate(
            sim_game, sim_config, trials=20_000, seed=0
        ),
        "simulation.fast.medium": lambda: simulate_fast(
            sim_game, sim_config, trials=400_000, seed=0
        ),
        # A small differential-fuzz batch: every solver path end to end.
        # Same fixed seed as the `make fuzz-smoke` gate, one fifth of its
        # game count, so the telemetry tracks the per-game cost drift.
        "fuzz.batch.small": lambda: run_fuzz(count=10, seed=20060707),
        # Telemetry-bus overhead, disabled vs enabled (50k publishes).
        "events.publish.off": publish_off,
        "events.publish.on": publish_on,
        # Correlation-layer off-cost (50k disabled calls each).
        "trace_context.off": trace_context_off,
        "access_log.off": access_log_off,
    }, clear_shared_oracles


def run_cases():
    cases, clear_shared_oracles = _cases()
    timings = {}
    for name, fn in cases.items():
        best = float("inf")
        for _ in range(3):
            # Each repetition pays the oracle build again — the tracked
            # number is a cold solve, comparable to the reference runs.
            clear_shared_oracles()
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        timings[name] = best
        print(f"  {name:28s} {best * 1000:8.1f} ms")
    return timings


def _load_document():
    """The committed trajectory as a schema-v2 document (migrating v1)."""
    from repro.obs.watchdog import SCHEMA_V2, load_history_document

    if not BENCH_FILE.exists():
        return {
            "schema": SCHEMA_V2,
            "slack": {"relative": SLACK_REL, "absolute_s": SLACK_ABS},
            "cases": {},
            "history": [],
        }
    return load_history_document(BENCH_FILE)


def write(timings) -> None:
    from repro.obs.ledger import capture_environment

    document = _load_document()
    document["slack"] = {"relative": SLACK_REL, "absolute_s": SLACK_ABS}
    document["cases"] = {
        name: {
            "wall_clock_s": timings[name],
            "reference_s": REFERENCE.get(name),
            "speedup_vs_reference": (
                round(REFERENCE[name] / timings[name], 2)
                if REFERENCE.get(name)
                else None
            ),
        }
        for name in sorted(timings)
    }
    rev = capture_environment()["git_rev"]
    entry = {
        "git_rev": rev,
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "cases": {name: timings[name] for name in sorted(timings)},
    }
    # Re-running --write at the same revision replaces its entry instead
    # of stacking duplicates that would bias the trailing median.
    history = [e for e in document.get("history", [])
               if e.get("git_rev") != rev]
    history.append(entry)
    document["history"] = history[-MAX_HISTORY:]
    BENCH_FILE.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {BENCH_FILE} "
          f"({len(document['history'])} history entries, newest {rev})")


def check(timings) -> int:
    if not BENCH_FILE.exists():
        print(f"{BENCH_FILE} missing; run python tools/bench_smoke.py --write",
              file=sys.stderr)
        return 1
    baseline = _load_document()["cases"]
    failures = []
    for name, seconds in timings.items():
        base = baseline.get(name, {}).get("wall_clock_s")
        if base is None:
            failures.append(f"{name}: not in committed baseline")
            continue
        limit = base * (1.0 + SLACK_REL) + SLACK_ABS
        if seconds > limit:
            failures.append(
                f"{name}: {seconds:.3f}s exceeds {limit:.3f}s "
                f"(baseline {base:.3f}s + 20% + {SLACK_ABS * 1000:.0f}ms)"
            )
    if failures:
        print("bench-smoke REGRESSION:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"bench-smoke OK: {len(timings)} hot paths within budget")
    return 0


def watch(timings, against=None, ratio=None, strict=False) -> int:
    """Live timings vs the trailing-median history (the watchdog face)."""
    from repro.obs.watchdog import DEFAULT_RATIO, watch_file

    if not BENCH_FILE.exists():
        print(f"{BENCH_FILE} missing; run python tools/bench_smoke.py "
              "--write first", file=sys.stderr)
        return 1 if strict else 0
    try:
        report = watch_file(
            BENCH_FILE, current=timings, against=against,
            ratio=DEFAULT_RATIO if ratio is None else ratio,
        )
    except ValueError as exc:
        print(f"bench-watch: {exc}", file=sys.stderr)
        return 1
    print(report.summary())
    return 1 if (strict and not report.ok) else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="refresh BENCH_KERNELS.json and append a history "
                           "entry for the current git revision")
    mode.add_argument("--check", action="store_true",
                      help="fail on >20%% regression vs the baseline (default)")
    mode.add_argument("--watch", action="store_true",
                      help="compare live timings to the trailing-median "
                           "history (report-only unless --strict)")
    parser.add_argument("--against", default=None, metavar="REV",
                        help="with --watch: pin the baseline to one git "
                             "revision's history entry")
    parser.add_argument("--ratio", type=float, default=None,
                        help="with --watch: slowdown ratio that trips the "
                             "alarm (default: 1.5)")
    parser.add_argument("--strict", action="store_true",
                        help="with --watch: exit non-zero on regressions")
    args = parser.parse_args()
    timings = run_cases()
    if args.write:
        write(timings)
        return 0
    if args.watch:
        return watch(timings, against=args.against, ratio=args.ratio,
                     strict=args.strict)
    return check(timings)


if __name__ == "__main__":
    raise SystemExit(main())
