#!/usr/bin/env python
"""HTTP solve-service load generator (``make bench-serve``).

Boots the service on an ephemeral port and measures four request
profiles end to end — TCP connect to parsed response body:

* ``serve.solve.cold`` — sequential ``POST /solve`` latency with the
  result cache disabled (full validate → worker → solver path);
* ``serve.solve.cache_hit`` — the same request against a primed result
  cache: validate → probe → inline reply, no worker slot;
* ``serve.reject.invalid`` — a schema-invalid request: the cost of
  shedding garbage at the door;
* ``serve.solve.correlated`` — the cache-hit request with a client
  ``traceparent`` header: parse + adopt + echo of the inbound trace
  context on the cheapest path, where correlation overhead would show;
* ``serve.mixed.concurrent`` — 8 client threads hammering ``/solve`` +
  ``/fictitious-play``, for sustained throughput.

``--write`` refreshes the committed ``BENCH_SERVE.json``: a rich
latest-snapshot ``cases`` block (p50/p95/req_s) plus one history entry
per git revision in the :mod:`repro.obs.watchdog` schema — the history
scalar is each case's **p95 seconds** (seconds-per-request for the
throughput case), so ``watch_file``'s trailing-median alarm applies
as-is.  ``--check`` (default) fails on a large p95 regression against
the committed snapshot; ``--watch`` consults the history median.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

BENCH_FILE = REPO_ROOT / "BENCH_SERVE.json"
MAX_HISTORY = 100

#: Regression gate versus the committed snapshot: HTTP round-trips are
#: noisier than in-process kernels, so the slack is wider than
#: bench_smoke's (50% + 100 ms).
SLACK_REL = 0.50
SLACK_ABS = 0.10

_SEQUENTIAL_REQUESTS = 30
_CONCURRENT_CLIENTS = 8
_REQUESTS_PER_CLIENT = 8

GAME = {
    "vertices": [1, 2, 3, 4, 5, 6],
    "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]],
    "k": 2,
    "nu": 1,
}


def _post(base: str, path: str, body: bytes, headers=None) -> int:
    request = urllib.request.Request(
        base + path, data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=60.0) as resp:
            resp.read()
            return resp.status
    except urllib.error.HTTPError as exc:
        exc.read()
        return exc.code


def _quantile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def _profile(latencies, wall_clock_s: float) -> dict:
    ordered = sorted(latencies)
    return {
        "requests": len(ordered),
        "p50_s": round(_quantile(ordered, 0.50), 6),
        "p95_s": round(_quantile(ordered, 0.95), 6),
        "req_per_s": round(len(ordered) / wall_clock_s, 2)
        if wall_clock_s > 0 else None,
        "wall_clock_s": round(wall_clock_s, 6),
    }


def _timed_sequence(base: str, path: str, body: bytes, count: int,
                    expect_status: int = 200, headers=None):
    latencies = []
    start = time.perf_counter()
    for _ in range(count):
        t0 = time.perf_counter()
        status = _post(base, path, body, headers=headers)
        latencies.append(time.perf_counter() - t0)
        if status != expect_status:
            raise RuntimeError(
                f"bench request to {path} answered {status}, "
                f"expected {expect_status}"
            )
    return latencies, time.perf_counter() - start


def run_cases() -> dict:
    import repro.cache as result_cache
    from repro.serve import ServeConfig, running_service

    solve_body = json.dumps({"game": GAME}).encode()
    fp_body = json.dumps(
        {"game": GAME, "params": {"rounds": 30}}
    ).encode()
    invalid_body = json.dumps(
        {"game": dict(GAME, edges=[[1, 99]])}
    ).encode()

    cases: dict = {}
    with running_service(ServeConfig(workers=2, queue_limit=16)) \
            as (_service, base):
        # Warm the shared coverage oracle so the cold case times the
        # steady-state request path, not the first-touch build.
        _post(base, "/solve", solve_body)

        latencies, wall = _timed_sequence(
            base, "/solve", solve_body, _SEQUENTIAL_REQUESTS)
        cases["serve.solve.cold"] = _profile(latencies, wall)

        cache_dir = tempfile.mkdtemp(prefix="repro-bench-serve-")
        result_cache.enable_cache(cache_dir)
        try:
            _post(base, "/solve", solve_body)  # prime the store
            latencies, wall = _timed_sequence(
                base, "/solve", solve_body, _SEQUENTIAL_REQUESTS)
            cases["serve.solve.cache_hit"] = _profile(latencies, wall)
            # Same primed path with an inbound traceparent: the delta
            # against cache_hit is the cost of parsing, adopting and
            # echoing a client-supplied trace context.
            traceparent = ("00-4bf92f3577b34da6a3ce929d0e0e4736"
                           "-00f067aa0ba902b7-01")
            latencies, wall = _timed_sequence(
                base, "/solve", solve_body, _SEQUENTIAL_REQUESTS,
                headers={"traceparent": traceparent})
            cases["serve.solve.correlated"] = _profile(latencies, wall)
        finally:
            result_cache.disable_cache()

        latencies, wall = _timed_sequence(
            base, "/solve", invalid_body, _SEQUENTIAL_REQUESTS,
            expect_status=400)
        cases["serve.reject.invalid"] = _profile(latencies, wall)

        all_latencies = []
        lock = threading.Lock()

        def client(index: int) -> None:
            body = solve_body if index % 2 == 0 else fp_body
            path = "/solve" if index % 2 == 0 else "/fictitious-play"
            mine = []
            for _ in range(_REQUESTS_PER_CLIENT):
                t0 = time.perf_counter()
                status = _post(base, path, body)
                mine.append(time.perf_counter() - t0)
                if status != 200:
                    raise RuntimeError(f"concurrent {path} answered {status}")
            with lock:
                all_latencies.extend(mine)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(_CONCURRENT_CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cases["serve.mixed.concurrent"] = _profile(
            all_latencies, time.perf_counter() - start)

    for name, profile in sorted(cases.items()):
        print(f"  {name:26s} p50 {profile['p50_s'] * 1000:7.1f} ms   "
              f"p95 {profile['p95_s'] * 1000:7.1f} ms   "
              f"{profile['req_per_s']:8.1f} req/s")
    return cases


def _history_scalar(name: str, profile: dict) -> float:
    """The per-case seconds value tracked in the watchdog history."""
    if name == "serve.mixed.concurrent":
        # Throughput case: seconds-per-request, so "bigger is worse"
        # holds for the watchdog exactly like the latency cases.
        return round(1.0 / profile["req_per_s"], 6)
    return profile["p95_s"]


def _load_document() -> dict:
    from repro.obs.watchdog import SCHEMA_V2, load_history_document

    if not BENCH_FILE.exists():
        return {
            "schema": SCHEMA_V2,
            "slack": {"relative": SLACK_REL, "absolute_s": SLACK_ABS},
            "cases": {},
            "history": [],
        }
    return load_history_document(BENCH_FILE)


def write(cases: dict) -> None:
    from repro.obs.ledger import capture_environment

    document = _load_document()
    document["slack"] = {"relative": SLACK_REL, "absolute_s": SLACK_ABS}
    document["cases"] = {name: cases[name] for name in sorted(cases)}
    rev = capture_environment()["git_rev"]
    entry = {
        "git_rev": rev,
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "cases": {name: _history_scalar(name, profile)
                  for name, profile in sorted(cases.items())},
    }
    history = [e for e in document.get("history", [])
               if e.get("git_rev") != rev]
    history.append(entry)
    document["history"] = history[-MAX_HISTORY:]
    BENCH_FILE.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {BENCH_FILE} "
          f"({len(document['history'])} history entries, newest {rev})")


def check(cases: dict) -> int:
    if not BENCH_FILE.exists():
        print(f"{BENCH_FILE} missing; run python tools/bench_serve.py "
              "--write", file=sys.stderr)
        return 1
    baseline = _load_document()["cases"]
    failures = []
    for name, profile in cases.items():
        base = baseline.get(name, {}).get("p95_s")
        if base is None:
            failures.append(f"{name}: not in committed baseline")
            continue
        limit = base * (1.0 + SLACK_REL) + SLACK_ABS
        if profile["p95_s"] > limit:
            failures.append(
                f"{name}: p95 {profile['p95_s']:.3f}s exceeds {limit:.3f}s "
                f"(baseline {base:.3f}s + {SLACK_REL:.0%} "
                f"+ {SLACK_ABS * 1000:.0f}ms)"
            )
    if failures:
        print("bench-serve REGRESSION:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"bench-serve OK: {len(cases)} request profiles within budget")
    return 0


def watch(cases: dict, against=None, ratio=None, strict=False) -> int:
    from repro.obs.watchdog import DEFAULT_RATIO, watch_file

    if not BENCH_FILE.exists():
        print(f"{BENCH_FILE} missing; run python tools/bench_serve.py "
              "--write first", file=sys.stderr)
        return 1 if strict else 0
    current = {name: _history_scalar(name, profile)
               for name, profile in cases.items()}
    try:
        report = watch_file(
            BENCH_FILE, current=current, against=against,
            ratio=DEFAULT_RATIO if ratio is None else ratio,
        )
    except ValueError as exc:
        print(f"bench-serve --watch: {exc}", file=sys.stderr)
        return 1
    print(report.summary())
    return 1 if (strict and not report.ok) else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="refresh BENCH_SERVE.json and append a history "
                           "entry for the current git revision")
    mode.add_argument("--check", action="store_true",
                      help="fail on a p95 regression vs the committed "
                           "snapshot (default)")
    mode.add_argument("--watch", action="store_true",
                      help="compare against the trailing-median history "
                           "(report-only unless --strict)")
    parser.add_argument("--against", default=None, metavar="REV",
                        help="with --watch: pin the baseline to one git "
                             "revision's history entry")
    parser.add_argument("--ratio", type=float, default=None,
                        help="with --watch: slowdown ratio that trips the "
                             "alarm (default: 1.5)")
    parser.add_argument("--strict", action="store_true",
                        help="with --watch: exit non-zero on regressions")
    args = parser.parse_args()
    cases = run_cases()
    if args.write:
        write(cases)
        return 0
    if args.watch:
        return watch(cases, against=args.against, ratio=args.ratio,
                     strict=args.strict)
    return check(cases)


if __name__ == "__main__":
    raise SystemExit(main())
