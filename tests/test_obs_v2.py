"""Tests for repro.obs v2: run ledger, deterministic profiler, watchdog."""

from __future__ import annotations

import json

import pytest

from repro.core.game import TupleGame
from repro.graphs.core import Graph
from repro.graphs.generators import cycle_graph, grid_graph
from repro.obs import ledger, metrics as obs_metrics, tracing
from repro.obs import prof, watchdog
from repro.obs.tracing import Span


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with ledger/tracing off, buffers empty."""
    ledger.disable_ledger()
    tracing.enable_tracing(False)
    tracing.clear_trace()
    yield
    ledger.disable_ledger()
    tracing.enable_tracing(False)
    tracing.clear_trace()


@pytest.fixture
def ledger_dir(tmp_path):
    d = tmp_path / "ledger"
    ledger.enable_ledger(d)
    yield d
    ledger.disable_ledger()


def _solve(k=2, nu=2, graph=None):
    from repro.equilibria.solve import solve_game

    return solve_game(TupleGame(graph or cycle_graph(6), k, nu))


# --------------------------------------------------------------------------
# ledger


class TestLedgerRecording:
    def test_disabled_run_is_shared_noop(self):
        assert ledger.run("x") is ledger.run("y")
        with ledger.run("x", game=object()) as handle:
            assert handle is None

    def test_solve_lands_in_ledger(self, ledger_dir):
        _solve()
        records = ledger.read_runs(
            directory=ledger_dir, entry_point="equilibria.solve"
        )
        assert len(records) == 1
        record = records[0]
        assert record["schema"] == ledger.RECORD_SCHEMA
        assert record["status"] == "ok"
        assert record["duration_s"] > 0.0
        fp = record["fingerprint"]
        assert fp["kind"] == "tuple-game"
        assert len(fp["sha256"]) == 64
        assert (fp["n"], fp["m"], fp["k"], fp["nu"]) == (6, 6, 2, 2)
        assert record["metrics"]["counters"]["equilibria.solve.count"] >= 1
        assert [s["name"] for s in record["spans"]] == ["equilibria.solve"]
        assert record["env"]["cpu_count"] >= 1
        assert record["env"]["python"]

    def test_run_id_is_content_addressed(self, ledger_dir):
        _solve()
        record = ledger.read_runs(directory=ledger_dir)[-1]
        body = {k: v for k, v in record.items() if k != "run_id"}
        assert ledger.canonical_sha256(body)[:16] == record["run_id"]

    def test_error_run_recorded_with_exception(self, ledger_dir):
        from repro.equilibria.solve import NoEquilibriumFoundError, solve_game

        # C5 + chord defeats every structural construction at k=1.
        house = Graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        with pytest.raises(NoEquilibriumFoundError):
            solve_game(TupleGame(house, 1, 1))
        record = ledger.read_runs(
            directory=ledger_dir, entry_point="equilibria.solve", status="error"
        )[-1]
        assert record["error"]["type"] == "NoEquilibriumFoundError"
        assert "k=1" in record["error"]["message"]

    def test_append_only_across_runs(self, ledger_dir):
        _solve()
        _solve()
        path = ledger_dir / "equilibria.solve.jsonl"
        assert len(path.read_text().splitlines()) == 2

    def test_fingerprint_deterministic_across_instances(self):
        a = ledger.fingerprint_game(TupleGame(grid_graph(3, 3), 2, 1))
        b = ledger.fingerprint_game(TupleGame(grid_graph(3, 3), 2, 1))
        c = ledger.fingerprint_game(TupleGame(grid_graph(3, 3), 3, 1))
        assert a["sha256"] == b["sha256"]
        assert a["sha256"] != c["sha256"]

    def test_solver_routes_record(self, ledger_dir):
        from repro.solvers.double_oracle import double_oracle
        from repro.solvers.fictitious_play import fictitious_play

        game = TupleGame(cycle_graph(6), 2, 1)
        double_oracle(game)
        fictitious_play(game, rounds=5)
        points = {
            r["entry_point"] for r in ledger.read_runs(directory=ledger_dir)
        }
        assert "solvers.double_oracle" in points
        assert "solvers.fictitious_play" in points

    def test_fuzz_batch_records_dict_fingerprint(self, ledger_dir):
        from repro.fuzz.runner import run_fuzz

        run_fuzz(count=2, seed=3)
        record = ledger.read_runs(
            directory=ledger_dir, entry_point="fuzz.run"
        )[-1]
        assert record["fingerprint"] == {
            "kind": "fuzz-batch", "count": 2, "seed": 3,
        }

    def test_recording_failure_never_breaks_the_solve(self, tmp_path):
        # Point the ledger at a path that cannot be a directory.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        ledger.enable_ledger(blocker / "sub")
        before = obs_metrics.counter("ledger.errors.count").value
        assert _solve().kind == "k-matching"
        assert obs_metrics.counter("ledger.errors.count").value > before


class TestLedgerReading:
    def test_filters_and_limit(self, ledger_dir):
        _solve(k=1, nu=1)
        _solve(k=2, nu=1)
        _solve(k=2, nu=1)
        all_runs = ledger.read_runs(directory=ledger_dir)
        solves = ledger.read_runs(
            directory=ledger_dir, entry_point="equilibria.solve"
        )
        assert len(solves) == 3
        assert len(all_runs) >= 3
        fp = solves[-1]["fingerprint"]["sha256"]
        same = ledger.read_runs(
            directory=ledger_dir, fingerprint_sha256=fp
        )
        assert len(same) == 2
        newest = ledger.read_runs(
            directory=ledger_dir, entry_point="equilibria.solve", limit=1
        )
        assert len(newest) == 1
        assert newest[0]["started_at"] == max(
            r["started_at"] for r in solves
        )

    def test_read_tolerates_torn_line(self, ledger_dir):
        _solve()
        path = ledger_dir / "equilibria.solve.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro.obs/ledger-re')  # torn write
        assert len(ledger.read_runs(directory=ledger_dir)) == 1

    def test_find_run_by_prefix(self, ledger_dir):
        _solve()
        record = ledger.read_runs(directory=ledger_dir)[-1]
        assert ledger.find_run(
            record["run_id"][:6], directory=ledger_dir
        ) == record
        assert ledger.find_run("ffffffffff", directory=ledger_dir) is None

    def test_run_diff_same_game(self, ledger_dir):
        _solve()
        _solve()
        a, b = ledger.read_runs(
            directory=ledger_dir, entry_point="equilibria.solve"
        )
        diff = ledger.run_diff(a, b)
        assert diff["same_fingerprint"] is True
        assert diff["env_changes"] == {}
        assert diff["entry_points"] == ["equilibria.solve"] * 2
        # The second run bumped the cumulative solve counter.
        assert diff["metrics"]["counters"]["equilibria.solve.count"] >= 1

    def test_run_diff_different_games(self, ledger_dir):
        _solve(k=1)
        _solve(k=2)
        runs = ledger.read_runs(
            directory=ledger_dir, entry_point="equilibria.solve"
        )
        assert ledger.run_diff(runs[0], runs[1])["same_fingerprint"] is False

    def test_missing_directory_reads_empty(self, tmp_path):
        assert ledger.read_runs(directory=tmp_path / "nope") == []


# --------------------------------------------------------------------------
# profiler


def _span(name, start, duration, children=(), status="ok", **attributes):
    s = Span(name, attributes)
    s.start = start
    s.duration_s = duration
    s.status = status
    s.children = list(children)
    return s


class TestAggregate:
    def test_self_time_subtracts_children(self):
        inner = _span("inner", 0.1, 0.3)
        outer = _span("outer", 0.0, 1.0, children=[inner])
        stats = prof.aggregate([outer])
        assert stats["outer"].total_s == pytest.approx(1.0)
        assert stats["outer"].self_s == pytest.approx(0.7)
        assert stats["inner"].self_s == pytest.approx(0.3)
        assert stats["outer"].calls == 1

    def test_recursive_span_not_double_counted(self):
        leaf = _span("f", 0.2, 0.4)
        root = _span("f", 0.0, 1.0, children=[leaf])
        stats = prof.aggregate([root])
        assert stats["f"].calls == 2
        assert stats["f"].total_s == pytest.approx(1.0)  # outermost only
        assert stats["f"].self_s == pytest.approx(0.6 + 0.4)

    def test_errors_counted(self):
        stats = prof.aggregate([_span("x", 0.0, 0.1, status="error")])
        assert stats["x"].errors == 1

    def test_defaults_to_thread_trace(self):
        tracing.enable_tracing(True)
        with tracing.span("live"):
            pass
        assert "live" in prof.aggregate()

    def test_render_aggregate(self):
        inner = _span("inner", 0.1, 0.3)
        outer = _span("outer", 0.0, 1.0, children=[inner])
        text = prof.render_aggregate(prof.aggregate([outer]))
        lines = text.splitlines()
        assert lines[0].split() == [
            "span", "calls", "total", "ms", "self", "ms", "self", "%",
        ]
        # Hottest self-time first: outer (0.7) before inner (0.3).
        assert lines[1].startswith("outer")
        assert lines[2].startswith("inner")

    def test_render_empty(self):
        assert prof.render_aggregate({}) == "(no spans recorded)"


class TestFoldedStacks:
    def test_format_and_merge(self):
        run1 = _span("root", 0.0, 1.0, children=[_span("leaf", 0.1, 0.4)])
        run2 = _span("root", 2.0, 1.0, children=[_span("leaf", 2.1, 0.4)])
        text = prof.to_folded_stacks([run1, run2])
        assert text.endswith("\n")
        lines = dict(
            line.rsplit(" ", 1) for line in text.strip().splitlines()
        )
        # Identical stacks merged; self-time in integer microseconds.
        assert int(lines["root"]) == 2 * 600_000
        assert int(lines["root;leaf"]) == 2 * 400_000

    def test_empty_is_empty_string(self):
        assert prof.to_folded_stacks([]) == ""

    def test_write(self, tmp_path):
        target = prof.write_folded_stacks(
            tmp_path / "out.folded", [_span("a", 0.0, 0.5)]
        )
        assert target.read_text() == "a 500000\n"


class TestChromeTrace:
    def test_schema(self):
        inner = _span("pkg.inner", 0.25, 0.5, status="error", n=3)
        inner.error_type = "ValueError"
        outer = _span("pkg.outer", 0.0, 1.0, children=[inner])
        document = prof.to_chrome_trace([outer])
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["generator"] == "repro.obs.prof"
        events = document["traceEvents"]
        assert [e["name"] for e in events] == ["pkg.outer", "pkg.inner"]
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == 1 and event["tid"] == 1
            assert event["cat"] == "pkg"
        outer_ev, inner_ev = events
        assert outer_ev["ts"] == 0.0
        assert outer_ev["dur"] == pytest.approx(1e6)
        assert inner_ev["ts"] == pytest.approx(0.25e6)
        assert inner_ev["args"] == {
            "n": 3, "error": True, "error_type": "ValueError",
        }

    def test_events_sorted_parents_first(self):
        a = _span("a", 1.0, 0.2)
        b = _span("b", 0.5, 1.0, children=[_span("b.child", 0.5, 0.9)])
        events = prof.to_chrome_trace([a, b])["traceEvents"]
        assert [e["name"] for e in events] == ["b", "b.child", "a"]

    def test_empty_trace(self):
        assert prof.to_chrome_trace([])["traceEvents"] == []

    def test_write_round_trips(self, tmp_path):
        tracing.enable_tracing(True)
        with tracing.span("outer"):
            with tracing.span("inner"):
                pass
        target = prof.write_chrome_trace(tmp_path / "trace.json")
        document = json.loads(target.read_text())
        assert {e["name"] for e in document["traceEvents"]} == {
            "outer", "inner",
        }


# --------------------------------------------------------------------------
# watchdog


def _history(values, case="case.a", rev_prefix="r"):
    return [
        {"git_rev": f"{rev_prefix}{i}", "timestamp": None,
         "cases": {case: v}}
        for i, v in enumerate(values)
    ]


class TestWatchdogCheck:
    def test_injected_2x_slowdown_detected(self):
        history = _history([0.10, 0.11, 0.09, 0.10, 0.12])
        report = watchdog.check(history, {"case.a": 0.20})
        assert not report.ok
        regression = report.regressions[0]
        assert regression.case == "case.a"
        assert regression.baseline_s == pytest.approx(0.10)
        assert regression.current_s == pytest.approx(0.20)
        assert "2.00x" in regression.describe()

    def test_steady_timing_passes(self):
        history = _history([0.10, 0.11, 0.09, 0.10, 0.12])
        report = watchdog.check(history, {"case.a": 0.12})
        assert report.ok
        assert report.checked == ["case.a"]

    def test_median_defeats_single_outlier(self):
        # One historic 10x spike must not raise the bar.
        history = _history([0.10, 0.10, 1.0, 0.10, 0.10])
        assert not watchdog.check(history, {"case.a": 0.20}).ok

    def test_no_history_case_skipped_not_fatal(self):
        report = watchdog.check(_history([0.1]), {"case.b": 5.0})
        assert report.ok
        assert report.skipped == ["case.b"]
        assert "no trailing history" in report.summary()

    def test_window_limits_lookback(self):
        # Old slow era followed by a fast era: a small window must judge
        # against the fast era only.
        history = _history([1.0] * 10 + [0.1] * 5)
        assert watchdog.check(history, {"case.a": 0.3}, window=15).ok
        assert not watchdog.check(history, {"case.a": 0.3}, window=5).ok

    def test_custom_ratio(self):
        history = _history([0.10] * 3)
        assert watchdog.check(history, {"case.a": 0.25}, ratio=3.0).ok
        assert not watchdog.check(history, {"case.a": 0.25}, ratio=2.0).ok


class TestWatchdogFile:
    def _write(self, tmp_path, document):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(document))
        return path

    def test_newest_entry_vs_trailing(self, tmp_path):
        document = {
            "schema": watchdog.SCHEMA_V2, "cases": {},
            "history": _history([0.1, 0.1, 0.1, 0.5]),
        }
        report = watchdog.watch_file(self._write(tmp_path, document))
        assert not report.ok
        assert "r3" in report.baseline_label

    def test_live_timings_against_full_history(self, tmp_path):
        document = {
            "schema": watchdog.SCHEMA_V2, "cases": {},
            "history": _history([0.1, 0.1, 0.1]),
        }
        path = self._write(tmp_path, document)
        assert watchdog.watch_file(path, current={"case.a": 0.1}).ok
        assert not watchdog.watch_file(path, current={"case.a": 0.9}).ok

    def test_against_pins_single_revision(self, tmp_path):
        document = {
            "schema": watchdog.SCHEMA_V2, "cases": {},
            "history": _history([0.05, 0.4, 0.1]),
        }
        path = self._write(tmp_path, document)
        # Against the slow r1 entry 0.2s is fine; against fast r0 it is not.
        assert watchdog.watch_file(
            path, current={"case.a": 0.2}, against="r1"
        ).ok
        assert not watchdog.watch_file(
            path, current={"case.a": 0.2}, against="r0"
        ).ok

    def test_against_unknown_revision_raises(self, tmp_path):
        document = {
            "schema": watchdog.SCHEMA_V2, "cases": {}, "history": [],
        }
        with pytest.raises(ValueError, match="no history entry"):
            watchdog.watch_file(
                self._write(tmp_path, document), current={}, against="zzz"
            )

    def test_committed_trajectory_passes(self):
        """The real BENCH_KERNELS.json must be watchdog-clean as committed."""
        from pathlib import Path

        path = Path(__file__).parent.parent / "BENCH_KERNELS.json"
        report = watchdog.watch_file(path)
        assert report.ok, report.summary()
        assert report.checked  # it actually compared something


class TestMigration:
    V1 = {
        "schema": watchdog.SCHEMA_V1,
        "slack": {"relative": 0.2, "absolute_s": 0.05},
        "cases": {
            "case.a": {"wall_clock_s": 0.125, "reference_s": 0.5},
            "case.b": {"wall_clock_s": 0.250, "reference_s": None},
        },
    }

    def test_v1_becomes_pre_history_entry(self):
        migrated = watchdog.migrate_history(self.V1)
        assert migrated["schema"] == watchdog.SCHEMA_V2
        assert migrated["cases"] == self.V1["cases"]  # snapshot preserved
        (entry,) = migrated["history"]
        assert entry["git_rev"] == "pre-history"
        assert entry["cases"] == {"case.a": 0.125, "case.b": 0.250}

    def test_v2_passes_through_unchanged(self):
        document = {"schema": watchdog.SCHEMA_V2, "history": []}
        assert watchdog.migrate_history(document) is document

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="unrecognized"):
            watchdog.migrate_history({"schema": "something/else"})

    def test_load_history_document_migrates(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(self.V1))
        assert (
            watchdog.load_history_document(path)["schema"]
            == watchdog.SCHEMA_V2
        )


class TestCanonicalJson:
    """The explicit canonicalizer behind run ids and cache keys.

    Regression: the encoder previously leaned on ``json.dumps(...,
    default=str)``, so sets hashed in ``PYTHONHASHSEED``-dependent
    iteration order, NaN/Infinity leaked as non-RFC tokens, and unknown
    types were silently stringified into near-miss identities.
    """

    def test_key_order_independent(self):
        assert ledger.canonical_json({"b": 1, "a": 2}) \
            == ledger.canonical_json({"a": 2, "b": 1})

    def test_sets_sorted_independent_of_insertion(self):
        forward = ledger.canonical_json({"s": {1, 2, 3, 10}})
        backward = ledger.canonical_json({"s": frozenset([10, 3, 2, 1])})
        assert forward == backward
        assert json.loads(forward)["s"] == sorted(
            json.loads(forward)["s"],
            key=lambda m: json.dumps(m, sort_keys=True))

    def test_mixed_type_sets_are_deterministic(self):
        # Sorted by canonical JSON encoding, not by hash order.
        a = ledger.canonical_json({"s": {1, "1", 2.5}})
        b = ledger.canonical_json({"s": {"1", 2.5, 1}})
        assert a == b

    def test_nonfinite_floats_tagged(self):
        text = ledger.canonical_json(
            [float("nan"), float("inf"), float("-inf")])
        assert "NaN" not in text and "Infinity" not in text
        assert json.loads(text) == [
            {"__nonfinite__": "nan"},
            {"__nonfinite__": "inf"},
            {"__nonfinite__": "-inf"},
        ]

    def test_unknown_types_raise(self):
        with pytest.raises(TypeError):
            ledger.canonical_json({"x": object()})
        with pytest.raises(TypeError):
            ledger.canonical_json({1: "non-string key"})

    def test_tuples_encode_as_lists(self):
        assert ledger.canonical_json((1, 2)) == ledger.canonical_json([1, 2])

    def test_sha256_matches_canonical_text(self):
        import hashlib

        payload = {"z": {3, 1}, "a": [1.5, "x"]}
        expected = hashlib.sha256(
            ledger.canonical_json(payload).encode("utf-8")).hexdigest()
        assert ledger.canonical_sha256(payload) == expected
        # The private alias older tools import still points at it.
        assert ledger.canonical_sha256(payload) == expected
