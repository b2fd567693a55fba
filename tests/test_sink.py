"""The JSONL sinks' outside contract: env switches and record bytes.

The run ledger, the telemetry event bus and the access log each append
one JSON line per record.  These tests pin what their shared plumbing
(:mod:`repro.obs.sink`) must keep:

* the ``REPRO_<NAME>`` / ``REPRO_<NAME>_DIR`` environment convention
  turns each sink on at import (checked in a fresh interpreter);
* the exact bytes one record of each schema (ledger v3, event v1,
  access v1) writes, with the clock and the environment capture pinned,
  compared with the files under ``tests/fixtures/sink_bytes/``;
* a failed write is counted and logged, and the sink keeps writing:
  the next record lands and a served request still answers 200.

Regenerate the fixtures (only when a change of record is intended) with::

    PYTHONPATH=src python tests/test_sink.py
"""

from __future__ import annotations

import contextvars
import json
import os
import pathlib
import subprocess
import sys
import threading
import time
import urllib.request
from typing import Callable, Dict

import pytest

from repro.obs import access as obs_access
from repro.obs import events as obs_events
from repro.obs import ledger as obs_ledger
from repro.obs import metrics as obs_metrics
from repro.obs import resources as obs_resources
from repro.obs import sink as obs_sink
from repro.obs import tracing
from repro.serve import ServeConfig, running_service

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "sink_bytes"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

TRACEPARENT = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
CLOCK = 1754640000.25

ENVIRONMENT = {
    "argv0": "repro-defender", "cpu_count": 2, "git_rev": "1234abc",
    "implementation": "CPython", "machine": "x86_64",
    "platform": "Linux-x86_64", "python": "3.11.7",
}
RESOURCES = {
    "cpu_system_s": 0.5, "cpu_user_s": 1.5, "gc_collections": [3, 2, 1],
    "rss_bytes": 1048576, "rss_peak_bytes": 2097152, "samples": 1,
    "sampler_running": False, "threads": 1,
}


@pytest.fixture(autouse=True)
def _sinks_off():
    yield
    obs_access.disable_access_log()
    obs_events.disable_events()
    obs_ledger.disable_ledger()
    tracing.enable_tracing(False)
    tracing.clear_trace()


# --------------------------------------------------------------------------
# golden bytes


def _ledger_bytes(mp: pytest.MonkeyPatch, directory: pathlib.Path) -> bytes:
    mp.setattr(obs_ledger, "time", lambda: CLOCK)
    mp.setattr(obs_ledger, "perf_counter", lambda: 7.5)
    mp.setattr(obs_ledger, "capture_environment", lambda: dict(ENVIRONMENT))
    mp.setattr(obs_metrics, "_GLOBAL_REGISTRY", obs_metrics.MetricsRegistry())
    mp.setattr(obs_resources, "start_sampler", lambda: None)
    mp.setattr(obs_resources, "stop_sampler", lambda: None)
    mp.setattr(obs_resources, "snapshot", lambda: dict(RESOURCES))

    def record() -> None:
        tracing.start_trace(TRACEPARENT)
        obs_ledger.enable_ledger(directory)
        try:
            with obs_ledger.run("golden.entry",
                                fingerprint={"kind": "golden", "n": 3},
                                seed=7, method="auto"):
                obs_metrics.counter("golden.work.count").inc(2)
        finally:
            obs_ledger.disable_ledger()

    contextvars.Context().run(record)
    return (directory / "golden.entry.jsonl").read_bytes()


def _event_bytes(mp: pytest.MonkeyPatch, directory: pathlib.Path) -> bytes:
    mp.setattr(obs_events, "time", lambda: CLOCK)
    mp.setattr(obs_events._STATE, "seq", 41)
    obs_events.enable_events(directory)
    try:
        obs_events.publish("solver.iteration", solver="double_oracle",
                           iteration=3, gap=0.125, pools=[4, 5])
    finally:
        obs_events.disable_events()
    return (directory / "events.jsonl").read_bytes()


def _access_bytes(mp: pytest.MonkeyPatch, directory: pathlib.Path) -> bytes:
    mp.setattr(obs_access, "time", lambda: CLOCK)
    obs_access.enable_access_log(directory)
    try:
        obs_access.log_request(
            "4bf92f3577b34da6a3ce929d0e0e4736", "POST", "/solve", 200, None,
            0.0123, cache_hit=False, inflight=1)
        obs_access.log_request(
            None, "POST", "/solve", 400, "invalid_game", 0.5)
    finally:
        obs_access.disable_access_log()
    return (directory / "access.jsonl").read_bytes()


CASES: Dict[str, Callable[[pytest.MonkeyPatch, pathlib.Path], bytes]] = {
    "ledger-v3.jsonl": _ledger_bytes,
    "event-v1.jsonl": _event_bytes,
    "access-v1.jsonl": _access_bytes,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_sink_bytes(case, monkeypatch, tmp_path):
    expected = (FIXTURES / case).read_bytes()
    assert CASES[case](monkeypatch, tmp_path) == expected


# --------------------------------------------------------------------------
# REPRO_<NAME> / REPRO_<NAME>_DIR


_PROBE = """
import json
from repro.obs import access, events, ledger
with ledger.run("env.probe", fingerprint={"kind": "probe"}):
    pass
events.publish("bench.case", case="env")
access.log_request(None, "GET", "/healthz", 200, None, 0.001)
print(json.dumps({
    "ledger": [ledger.ledger_enabled(), str(ledger.ledger_directory()),
               len(ledger.read_runs())],
    "events": [events.events_enabled(), str(events.events_sink_path()),
               [e["type"] for e in events.read_events(events.events_sink_path())]
               if events.events_sink_path() else []],
    "access": [access.access_log_enabled(), str(access.access_log_path()),
               len(access.read_access(access.access_log_path()))
               if access.access_log_path() else 0],
}))
"""


def _probe(tmp_path: pathlib.Path, values: Dict[str, str]) -> Dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env.update(values)
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


#: What the probe publishes with the bus on: the ledger run's boundary
#: pair, then its own event.
RUN_EVENTS = ["run.start", "run.end", "bench.case"]


class TestEnvConvention:
    def test_each_sink_turns_on_with_its_directory(self, tmp_path):
        values = {}
        for name in ("LEDGER", "EVENTS", "ACCESS"):
            values[f"REPRO_{name}"] = "1"
            values[f"REPRO_{name}_DIR"] = str(tmp_path / name.lower())
        got = _probe(tmp_path, values)
        assert got == {
            "ledger": [True, str(tmp_path / "ledger"), 1],
            "events": [True, str(tmp_path / "events" / "events.jsonl"),
                       RUN_EVENTS],
            "access": [True, str(tmp_path / "access" / "access.jsonl"), 1],
        }

    def test_default_directories(self, tmp_path):
        got = _probe(tmp_path, {"REPRO_LEDGER": "yes", "REPRO_EVENTS": "1",
                                "REPRO_ACCESS": "true"})
        assert got == {
            "ledger": [True, ".repro/ledger", 1],
            "events": [True, ".repro/events/events.jsonl", RUN_EVENTS],
            "access": [True, ".repro/access/access.jsonl", 1],
        }
        assert (tmp_path / ".repro" / "ledger" / "env.probe.jsonl").is_file()

    @pytest.mark.parametrize("value", ["", "0", "false", "no"])
    def test_off_values(self, tmp_path, value):
        values = {}
        for name in ("LEDGER", "EVENTS", "ACCESS"):
            values[f"REPRO_{name}"] = value
            values[f"REPRO_{name}_DIR"] = str(tmp_path / name.lower())
        got = _probe(tmp_path, values)
        assert got == {
            "ledger": [False, str(tmp_path / "ledger"), 0],
            "events": [False, "None", []],
            "access": [False, "None", 0],
        }
        assert not any(tmp_path.iterdir())


# --------------------------------------------------------------------------
# a failed write


class _FailFirstOpen:
    """Stands in for ``open`` in :mod:`repro.obs.sink`: the first open of
    ``filename`` raises as a full disk would, later opens go through."""

    def __init__(self, filename: str) -> None:
        self.filename = filename
        self.failed = False

    def __call__(self, path, *args, **kwargs):
        if not self.failed and pathlib.Path(path).name == self.filename:
            self.failed = True
            raise OSError(28, "No space left on device")
        return open(path, *args, **kwargs)


def _sink_records(name: str, directory: pathlib.Path):
    if name == "ledger":
        return [r for r in obs_ledger.read_runs(directory=directory)
                if r["entry_point"] == "serve.solve"]
    if name == "events":
        return [e for e in obs_events.read_events(directory / "events.jsonl")
                if e["type"] == "run.start"
                and e["payload"]["entry_point"] == "serve.solve"]
    return obs_access.read_access(directory)


#: sink name -> (switch on, is it on, file the first write goes to)
SWITCHES = {
    "ledger": (obs_ledger.enable_ledger, obs_ledger.ledger_enabled,
               "serve.solve.jsonl"),
    "events": (obs_events.enable_events, obs_events.events_enabled,
               "events.jsonl"),
    "access": (obs_access.enable_access_log, obs_access.access_log_enabled,
               "access.jsonl"),
}


def _solve(base: str) -> int:
    body = json.dumps({"game": {"vertices": [1, 2, 3, 4],
                                "edges": [[1, 2], [2, 3], [3, 4]],
                                "k": 2, "nu": 1}}).encode()
    request = urllib.request.Request(
        base + "/solve", data=body,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return response.status


def _wait_for(condition: Callable[[], bool]) -> None:
    deadline = time.monotonic() + 10.0
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


@pytest.mark.parametrize("name", sorted(SWITCHES))
def test_failed_write_is_counted_and_the_sink_keeps_writing(
        name, monkeypatch, tmp_path):
    enable, enabled, filename = SWITCHES[name]
    errors = obs_metrics.counter(f"{name}.sink_errors.count")
    before = errors.value
    monkeypatch.setattr(obs_sink, "open", _FailFirstOpen(filename),
                        raising=False)
    enable(tmp_path)
    with running_service(ServeConfig(workers=1)) as (_service, base):
        assert _solve(base) == 200
        _wait_for(lambda: errors.value == before + 1)
        assert _sink_records(name, tmp_path) == []
        assert enabled()
        assert _solve(base) == 200
        _wait_for(lambda: len(_sink_records(name, tmp_path)) == 1)
    assert errors.value == before + 1


def test_concurrent_appends_keep_every_line_in_seq_order(tmp_path):
    workers, per_worker = 8, 200
    obs_events.enable_events(tmp_path / "events")
    obs_access.enable_access_log(tmp_path / "access")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def work(worker: int) -> None:
        for i in range(per_worker):
            obs_events.publish("bench.case", worker=worker, i=i)
            obs_access.log_request(None, "GET", "/healthz", 200, None, 0.0)

    try:
        threads = [threading.Thread(target=work, args=(w,))
                   for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        obs_access.disable_access_log()
        obs_events.disable_events()
    seqs = [e["seq"] for e in obs_events.read_events(
        tmp_path / "events" / "events.jsonl")]
    assert len(seqs) == workers * per_worker
    assert seqs == sorted(set(seqs))
    assert len(obs_access.read_access(tmp_path / "access")) == \
        workers * per_worker


if __name__ == "__main__":
    import tempfile

    FIXTURES.mkdir(parents=True, exist_ok=True)
    for case, produce in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as mp:
            (FIXTURES / case).write_bytes(produce(mp, pathlib.Path(tmp)))
        print(case)
