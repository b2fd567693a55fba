"""The repository benchmark: three workloads, end to end or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fp-exhaustive --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same inputs untraced and traced, alternating
between the two, and reports per-layer self time and counts.  A human-readable table goes to
stderr; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import tracer
from compare import spec
from hostspeed import at_reference_speed, calibration_s
from tracer import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fp-exhaustive", "do-lp", "serve-mixed")

#: Spawns of a fresh interpreter (or service) per run; setup_s is their
#: median.
SETUP_SPAWNS = {"fp-exhaustive": 5, "do-lp": 5, "serve-mixed": 3}
#: What a fresh interpreter imports before it can solve.
ENTRY_IMPORTS = {
    "fp-exhaustive": "import repro.solvers.fictitious_play, repro.equilibria.solve",
    "do-lp": "import repro.solvers.double_oracle, repro.weighted.game",
}

Metrics = Dict[str, Tuple[float, str]]


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.valid = True
        self.notes: List[str] = []

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)


def spawn_import_s(statement: str) -> float:
    """Seconds from spawning an interpreter until ``statement`` ran."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = f"{statement}; import sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline() if proc.stdout else ""
    elapsed = time.monotonic() - started
    proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {statement}")
    return elapsed


# --------------------------------------------------------------------------
# plants: deliberate defects used only by perfbench/selftest.py


def plant_slowdown(kind: str) -> None:
    """Make one layer do its work twice (results unchanged)."""

    def twice(fn: Callable) -> Callable:
        def doubled(*args: Any, **kwargs: Any) -> Any:
            fn(*args, **kwargs)
            return fn(*args, **kwargs)
        return doubled

    if kind == "exhaustive-2x":
        from repro.kernels.coverage import CoverageOracle
        CoverageOracle.exhaustive = twice(CoverageOracle.exhaustive)
    elif kind == "linprog-2x":
        import scipy.optimize
        import repro.solvers.lp
        repro.solvers.lp.linprog = twice(repro.solvers.lp.linprog)
        scipy.optimize.linprog = twice(scipy.optimize.linprog)


# --------------------------------------------------------------------------
# fp-exhaustive and do-lp: one in-process caller, closed loop


def _solver(workload: str) -> Callable[[Any], Any]:
    # Resolve through the module so the traced run's wrappers apply.
    # (import_module: ``repro.solvers`` re-exports functions under the
    # submodules' names.)
    from importlib import import_module

    from inputs import FP_ROUNDS

    do_mod = import_module("repro.solvers.double_oracle")
    fp_mod = import_module("repro.solvers.fictitious_play")
    weighted_mod = import_module("repro.weighted.game")

    if workload == "fp-exhaustive":
        return lambda game: fp_mod.fictitious_play(game, rounds=FP_ROUNDS)

    def solve(game: Any) -> Any:
        if isinstance(game, weighted_mod.WeightedTupleGame):
            return weighted_mod.weighted_double_oracle(game)
        return do_mod.double_oracle(game)

    return solve


class CurrentSolve:
    """The request id of in-process spans: the index of the solve."""

    index = -1

    def __call__(self) -> int:
        return self.index


def closed_loop(games: List[Any], solve: Callable[[Any], Any],
                seconds: float) -> Tuple[List[Any], List[float], List[float]]:
    """Solve games back to back until ``seconds`` have passed, with one
    calibration pass before each solve (outside its timing)."""
    results: List[Any] = []
    times: List[float] = []
    calibration: List[float] = []
    deadline = time.perf_counter() + seconds
    for game in games:
        calibration.append(calibration_s())
        t0 = time.perf_counter()
        results.append(solve(game))
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if t1 >= deadline:
            break
    return results, times, calibration


def check_solver(workload: str, games: List[Any], results: List[Any],
                 tally: Tally, plant_wrong: bool) -> None:
    """Per-solve correctness against references computed here, after the
    timed loop: the FP sandwich ``lower <= v* <= upper`` around the
    cascade value, the exact double-oracle value, or — for weighted
    games — a best-response certificate of both oracles."""
    from repro.equilibria.solve import solve_game
    from repro.weighted.game import WeightedTupleGame

    for i, (game, result) in enumerate(zip(games, results)):
        if isinstance(game, WeightedTupleGame):
            config, value = result
            if plant_wrong and i == 0:
                value += 0.5
            certified, _gaps = game.verify_best_responses(config, tol=1e-6)
            escape = game.expected_profit_attacker(config, 0)
            scale = max(game.weights.values())
            ok = certified and abs(escape - value) <= 1e-6 * scale
        else:
            v_star = solve_game(game).defender_gain / game.nu
            if workload == "fp-exhaustive":
                lower, upper = result.lower_bound, result.upper_bound
                if plant_wrong and i == 0:
                    upper = v_star - 0.1
                ok = lower - 1e-9 <= v_star <= upper + 1e-9
            else:
                value = result.value + (0.5 if plant_wrong and i == 0 else 0.0)
                ok = result.exact is True and abs(value - v_star) <= 1e-6
        tally.add(ok, f"{workload} game {i}")


def run_solver(workload: str, seed: int, seconds: float, trace: bool,
               plant_wrong: bool, tally: Tally) -> Metrics:
    import inputs
    from repro.kernels.coverage import clear_shared_oracles

    games = inputs.solver_games(workload, seed, int(seconds * 40) + 10)
    solve = _solver(workload)
    if not trace:
        setup = [spawn_import_s(ENTRY_IMPORTS[workload])
                 for _ in range(SETUP_SPAWNS[workload])]
        results, times, calibration = closed_loop(games, solve, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_solver(workload, games, results, tally, plant_wrong)
        ms = [t * 1e3 for t in times]
        return report(workload, [
            ("setup_s", statistics.median(setup), "s", len(setup)),
            ("peak_rss_mb", rss_mb, "MB", 1),
            ("solves_per_s", at_reference_speed(len(times) / sum(times),
                                                calibration), "1/s", len(times)),
            ("solves_per_s.raw", len(times) / sum(times), "1/s", len(times)),
            ("host.calibration_ms", statistics.fmean(calibration) * 1e3, "ms",
             len(calibration)),
            ("solve_ms.p50", percentile(ms, 50), "ms", len(ms)),
            ("solve_ms.p90", percentile(ms, 90), "ms", len(ms)),
        ], tally)

    # Every game is solved twice, untraced and traced, and the order
    # alternates from game to game, so drift in the host's speed falls
    # on both sides alike.  The shared oracle cache is cleared before
    # each solve, so the second solve of a game rebuilds it too.
    current = CurrentSolve()
    recorder = tracer.Recorder(current)
    results: Dict[bool, List[Any]] = {False: [], True: []}
    times: Dict[bool, List[float]] = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    for i, game in enumerate(games):
        current.index = i
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            clear_shared_oracles()
            uninstall = tracer.install(recorder) if traced else None
            try:
                t0 = time.perf_counter()
                results[traced].append(solve(game))
                times[traced].append(time.perf_counter() - t0)
            finally:
                if uninstall is not None:
                    uninstall()
        if time.perf_counter() >= deadline:
            break
    check_solver(workload, games, results[False], tally, plant_wrong)
    check_solver(workload, games, results[True], tally, False)
    spans = recorder.doc()["spans"]
    check_solve_accounting(spans, times[True], tally)
    layers = tracer.layer_table(spans, sum(times[True]))
    # Same code, same games, same count: overhead from total solve time.
    layers["trace.overhead_frac"] = sum(times[True]) / sum(times[False]) - 1.0
    layers.update(inputs.input_shares(games[:100]))
    return per_layer_metrics(layers)


#: How far the layer self times of one traced solve may fall short of
#: its closed-loop time: the call into the solver and the wrapper's own
#: bookkeeping before its first clock read and after its last.
SOLVE_SLACK_S = 1e-3
SOLVE_SLACK_FRAC = 0.01


def check_solve_accounting(spans: List[list], times: List[float],
                           tally: Tally) -> None:
    """The self times of solve ``i``'s spans must add up to the time the
    closed loop measured around that solve, to within the slack; no span
    may have children covering more than itself, and every span must
    belong to a solve."""
    self_s = tracer.self_s_by_request(spans)
    problems = []
    if tracer.misnested(spans):
        problems.append(f"{tracer.misnested(spans)} spans shorter than "
                        "their children")
    if set(self_s) - set(range(len(times))):
        problems.append("spans outside every solve")
    for i, measured in enumerate(times):
        gap = measured - self_s.get(i, 0.0)
        if not -1e-6 <= gap <= max(SOLVE_SLACK_S, SOLVE_SLACK_FRAC * measured):
            problems.append(f"solve {i}: layer self time {self_s.get(i, 0.0):.6f}"
                            f" s against {measured:.6f} s measured")
    if problems:
        tally.valid = False
        tally.notes.extend(f"accounting: {p}" for p in problems[:5])


# --------------------------------------------------------------------------
# serve-mixed: the HTTP service, open loop


def serve_phases(stream: Any, seconds: float) -> Dict[str, List[Any]]:
    """The serve-mixed schedule, scaled to ``seconds``.  Counts are
    multiples of ten so every phase holds whole request-mix blocks."""
    import serve

    def rung(rate: float, share: float) -> List[Any]:
        count = max(10, int(rate * share * seconds / 10) * 10)
        return stream.phase(count, count / rate)

    return {
        "warmup": stream.phase(40, 0.0, mix=False),
        "light": rung(serve.LIGHT_RPS, 0.35),
        "medium": rung(serve.MEDIUM_RPS, 0.15),
        "heavy": rung(serve.HEAVY_RPS, 0.3),
        "overload": rung(serve.OVERLOAD_RPS, 0.1),
    }


def serve_references(stream: Any) -> List[str]:
    """Canonical in-process answers, one per distinct game."""
    import serve
    from repro.core.serialize import solve_result_to_json
    from repro.equilibria.solve import solve_game

    return [serve.canonical(json.loads(solve_result_to_json(solve_game(g))))
            for g in stream.games]


def check_outcomes(outcomes: List[Any], references: List[str], tally: Tally,
                   plant_wrong: bool) -> List[bool]:
    import serve

    ok = []
    for i, outcome in enumerate(outcomes):
        good = serve.check(outcome, references)
        if plant_wrong and i == 0:
            good = serve.check(_corrupted(outcome), references)
        tally.add(good, f"serve request {outcome.request.trace_id} "
                        f"({outcome.request.kind}, status {outcome.status})")
        ok.append(good)
    return ok


def _corrupted(outcome: Any) -> Any:
    import copy

    wrong = copy.copy(outcome)
    wrong.body = outcome.body.replace(b"defender_gain", b"defender_gaim", 1) \
        if b"defender_gain" in outcome.body else b"{}"
    return wrong


def run_serve(seed: int, seconds: float, trace: bool, plant_wrong: bool,
              tally: Tally, work: str) -> Metrics:
    import inputs
    import serve

    if trace:
        return run_serve_traced(seed, seconds, plant_wrong, tally, work)
    setup, server = serve.spawn_setup(ROOT, work, SETUP_SPAWNS["serve-mixed"])
    stream = inputs.ServeStream(seed)
    phases = serve_phases(stream, seconds)
    seen: Dict[str, Tuple[List[Any], int]] = {}
    unsaturated = ("light", "medium", "heavy")
    calibration: List[float] = []
    try:
        for name, requests in phases.items():
            if name == "light":
                cpu0 = server.cpu_s()
            seen[name] = serve.run_phase(
                server, requests,
                calibration=calibration if name in unsaturated else None)
            if name == "heavy":
                cpu_s = server.cpu_s() - cpu0
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    references = serve_references(stream)
    ok: Dict[str, List[bool]] = {}
    for name in phases:
        ok[name] = check_outcomes(seen[name][0], references, tally,
                                  plant_wrong and name == "light")

    def latencies(name: str) -> List[float]:
        return [o.latency_ms for o in seen[name][0]]

    ladder = ("light", "medium", "heavy", "overload")
    measured = [o for name in ladder for o in seen[name][0]]
    late_p95 = percentile([o.late * 1e3 for o in measured], 95)
    goodput = 0.0
    for name in ladder:
        outcomes, _ = seen[name]
        if serve.rung_passes(outcomes, ok[name]):
            span = max(o.done for o in outcomes) - min(o.due for o in outcomes)
            goodput = sum(ok[name]) / span
    light = latencies("light")
    heavy = latencies("heavy")
    # First-sight requests are the ones that run the solve cascade.  The
    # whole mix is bimodal (hits and invalid bodies are fast, misses
    # slow, half and half), which puts its median on the gap between the
    # modes; the first-sight latencies have no such gap.
    solves = [o.latency_ms for o in seen["light"][0] if o.request.kind == "first"]
    backlog = max(seen[n][1] for n in ("light", "medium", "heavy"))
    check_late(late_p95, tally)
    # The gated names are shared with the solver workloads.  solves_per_s
    # is correct 200 answers per CPU-second of the server over the light,
    # medium and heavy rungs: the open loop fixes the answers per wall
    # second at the offered rate, so the server's cost per answer is the
    # figure that tracks the program.  It is scaled to the reference
    # host speed by calibration passes the load generator takes during
    # those rungs.  solve_ms.* is the first-sight latency at the light
    # rate.
    answered = sum(good and o.status == 200 for name in unsaturated
                   for o, good in zip(seen[name][0], ok[name]))
    return report("serve-mixed", [
        ("setup_s", statistics.median(setup), "s", len(setup)),
        ("peak_rss_mb", rss_mb, "MB", 1),
        ("solves_per_s", at_reference_speed(answered / cpu_s, calibration),
         "1/s", answered),
        ("solves_per_s.raw", answered / cpu_s, "1/s", answered),
        ("host.calibration_ms", statistics.fmean(calibration) * 1e3, "ms",
         len(calibration)),
        ("solve_ms.p50", percentile(solves, 50), "ms", len(solves)),
        ("solve_ms.p90", percentile(solves, 90), "ms", len(solves)),
        ("req_ms.p50.light", percentile(light, 50), "ms", len(light)),
        ("req_ms.p95.light", percentile(light, 95), "ms", len(light)),
        ("req_ms.p50.heavy", percentile(heavy, 50), "ms", len(heavy)),
        ("req_ms.p95.heavy", percentile(heavy, 95), "ms", len(heavy)),
        ("goodput_rps", goodput, "1/s", len(measured)),
        ("loadgen.late_ms.p95", late_p95, "ms", len(measured)),
        ("loadgen.sent", float(len(measured)), "count", 1),
        ("loadgen.backlog.max", float(backlog), "count", 1),
    ], tally)


#: Requests per chunk of the traced serve-mixed run.
TRACE_CHUNK = 50
#: Root spans that run after the response is written (the access line
#: and the ``serve.request`` event), so they may end after the client
#: has its answer.
EPILOGUE = ("obs.access", "obs.events.publish")


def run_serve_traced(seed: int, seconds: float, plant_wrong: bool,
                     tally: Tally, work: str) -> Metrics:
    """Warm-up plus S/2 of the heavy rung, sent to a plain service and to
    the launcher with every layer wrapped.  Both servers get every
    request; the heavy rung goes in chunks of TRACE_CHUNK, and which
    server takes a chunk first alternates, so drift in the host's speed
    falls on both sides alike."""
    import inputs
    import serve

    stream = inputs.ServeStream(seed)
    warmup = stream.phase(40, 0.0, mix=False)
    count = max(10, int(serve.HEAVY_RPS * seconds / 2 / 10) * 10)
    heavy = stream.phase(count, count / serve.HEAVY_RPS)
    spans_path = os.path.join(work, "spans.json")
    plain = serve.Server(ROOT, os.path.join(work, "plain"))
    try:
        traced = serve.Server(ROOT, os.path.join(work, "traced"), spans_path)
    except BaseException:
        plain.stop()
        raise
    cpu = {"plain": 0.0, "traced": 0.0}
    seen: Dict[str, List[Any]] = {"plain": [], "traced": []}
    windows: List[Tuple[float, float]] = []
    backlog = 0
    try:
        serve.run_phase(plain, warmup)
        serve.run_phase(traced, warmup)
        for j in range(0, len(heavy), TRACE_CHUNK):
            chunk = heavy[j:j + TRACE_CHUNK]
            order = [("plain", plain), ("traced", traced)]
            for side, server in (order if j // TRACE_CHUNK % 2 == 0
                                 else order[::-1]):
                cpu0 = server.cpu_s()
                start = time.monotonic()
                outcomes, chunk_backlog = serve.run_phase(server, chunk,
                                                          chunk[0].due)
                end = time.monotonic()
                cpu[side] += server.cpu_s() - cpu0
                seen[side] += outcomes
                backlog = max(backlog, chunk_backlog)
                if side == "traced":
                    windows.append((start, end))
    finally:
        plain.stop()
        traced.stop()
    references = serve_references(stream)
    check_outcomes(seen["plain"], references, tally, plant_wrong)
    check_outcomes(seen["traced"], references, tally, False)
    late_p95 = percentile([o.late * 1e3 for side in seen
                           for o in seen[side]], 95)
    check_late(late_p95, tally)

    doc = tracer.load(spans_path)
    window = tracer.window_spans(doc, windows)
    check_request_accounting(window, seen["traced"], tally)
    layers = tracer.layer_table(window, sum(e - s for s, e in windows))
    # Open loop: both servers answer the same requests, so server CPU
    # per request is the inverse of throughput.
    layers["trace.overhead_frac"] = cpu["traced"] / cpu["plain"] - 1.0
    waits = {rid: (began - submitted) * 1e3
             for rid, submitted, began in doc["waits"]
             if any(s <= submitted <= e for s, e in windows)}
    layers["serve.queue_wait_ms.p50"] = percentile(list(waits.values()), 50)
    layers["serve.queue_wait_ms.p95"] = percentile(list(waits.values()), 95)
    server_s: Dict[str, float] = {}
    for _name, s0, s1, parent, rid, _c, _n, _i in window:
        if parent is None:
            server_s[rid] = server_s.get(rid, 0.0) + (s1 - s0)
    http = [(o.done - o.sent) * 1e3 - server_s.get(o.request.trace_id, 0.0) * 1e3
            - waits.get(o.request.trace_id, 0.0) for o in seen["traced"]]
    layers["serve.http_ms.p50"] = percentile(http, 50)
    for status in (200, 400):
        layers[f"serve.status.{status}.count"] = float(
            sum(o.status == status for o in seen["traced"]))
    layers["loadgen.late_ms.p95"] = late_p95
    layers["loadgen.sent"] = float(sum(len(v) for v in seen.values()))
    layers["loadgen.backlog.max"] = float(backlog)
    layers.update(inputs.input_shares(stream.games[:100]))
    layers["inputs.repeat_frac"] = sum(r.kind == "repeat" for r in heavy) / len(heavy)
    layers["inputs.invalid_frac"] = sum(r.kind == "invalid" for r in heavy) / len(heavy)
    return per_layer_metrics(layers)


def check_request_accounting(spans: List[list], outcomes: List[Any],
                             tally: Tally) -> None:
    """Every answered request has server spans, and they lie inside the
    client's own window for it (sent to answer received; the epilogue
    only has to start inside it); no span has children covering more
    than itself.  Client and server read one host-wide monotonic clock."""
    by_request: Dict[Any, List[list]] = {}
    for span in spans:
        by_request.setdefault(span[4], []).append(span)
    problems = []
    if tracer.misnested(spans):
        problems.append(f"{tracer.misnested(spans)} spans shorter than "
                        "their children")
    for o in outcomes:
        mine = by_request.get(o.request.trace_id, [])
        inside = all(
            o.sent <= start and (end <= o.done or
                                 (parent is None and name in EPILOGUE))
            for name, start, end, parent, *_ in mine)
        if not mine or not inside:
            problems.append(f"request {o.request.trace_id}: {len(mine)} spans, "
                            f"{'inside' if inside else 'outside'} its window")
    if problems:
        tally.valid = False
        tally.notes.extend(f"accounting: {p}" for p in problems[:5])


def check_late(late_p95: float, tally: Tally) -> None:
    """A run whose load generator fell behind its schedule is invalid."""
    import serve

    if late_p95 > serve.LATE_LIMIT_MS:
        tally.valid = False
        tally.notes.append(f"load generator fell behind: late p95 "
                           f"{late_p95:.1f} ms > {serve.LATE_LIMIT_MS} ms")


# --------------------------------------------------------------------------
# output


def per_layer_metrics(layers: Dict[str, float]) -> Metrics:
    """Every per-layer metric BENCHMARK.json names, 0 where a layer did
    no work."""
    out: Metrics = {}
    for metric in spec()["per_layer"]:
        out[metric["name"]] = (float(layers.get(metric["name"], 0.0)), metric["unit"])
    lines = [f"  {name:42s} {value:14.4f} {unit}" for name, (value, unit) in out.items()]
    print("per-layer (traced run)\n" + "\n".join(lines), file=sys.stderr)
    return out


def report(workload: str, rows: List[Tuple[str, float, str, int]],
           tally: Tally) -> Metrics:
    """Print every end-to-end figure with its unit and sample count to
    stderr; return the ones BENCHMARK.json declares."""
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    rows = rows + [("failed_frac", frac, "ratio", tally.attempted)]
    lines = [f"{workload}: end to end (untraced)"]
    lines += [f"  {name:22s} {value:12.4f} {unit:6s} n={n}"
              for name, value, unit, n in rows]
    print("\n".join(lines), file=sys.stderr)
    declared = {m["name"] for m in spec()["end_to_end"]}
    return {name: (value, unit) for name, value, unit, _ in rows
            if name in declared}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Deliberate defects for perfbench/selftest.py; never used by a
    # measurement.
    parser.add_argument("--plant", choices=("exhaustive-2x", "linprog-2x",
                                            "wrong-answer"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.plant in ("exhaustive-2x", "linprog-2x"):
        plant_slowdown(args.plant)

    tally = Tally()
    plant_wrong = args.plant == "wrong-answer"
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(dir=scratch)
    try:
        if args.workload == "serve-mixed":
            metrics = run_serve(args.seed, args.seconds, bool(args.trace),
                                plant_wrong, tally, work)
        else:
            metrics = run_solver(args.workload, args.seed, args.seconds,
                                 bool(args.trace), plant_wrong, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in tally.notes:
        print(f"  check: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and tally.valid,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
