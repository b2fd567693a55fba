"""serve-mixed: the HTTP service under a seeded open-loop request mix.

The target is ``python -m repro.cli serve --port 0 --workers 1`` with
every sink on (result cache, ledger, access log, events), all under a
per-run temp directory inside the checkout.  One client process keeps
at most ``os.cpu_count()`` connections in flight; a request that is due
while every connection is busy waits, and its latency counts from when
it was due.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, List, Optional, Tuple

from hostspeed import calibration_s
from inputs import Request
from tracer import percentile

#: Fixed offered rates (requests/s).  On the tree this benchmark was
#: written against, the service saturated near 60 requests/s under this
#: mix in an open loop (2-core host), so LIGHT is about 30% and HEAVY
#: about 70% of that capacity, and OVERLOAD is well beyond it.  The four
#: are the goodput ladder; MEDIUM keeps a slow spell of the host from
#: dropping goodput all the way from HEAVY to LIGHT.
LIGHT_RPS = 18.0
MEDIUM_RPS = 30.0
HEAVY_RPS = 42.0
OVERLOAD_RPS = 100.0
#: Latency limit on a rung's p95 for it to count towards goodput.  The
#: heavy rung's p95 is near 100 ms on a quiet host; an overloaded rung's
#: backlog pushes its p95 to seconds.
LIMIT_MS = 1000.0
#: A generator that sends this late (p95, ms) has fallen behind its own
#: schedule and the run is invalid.
LATE_LIMIT_MS = 25.0

SLOTS = os.cpu_count() or 1
#: Seconds between host-speed calibration passes in a calibrated phase.
CALIBRATE_EVERY_S = 0.1


class Server:
    """One spawned service process (plain CLI, or the tracing launcher)."""

    def __init__(self, root: str, work: str, spans: Optional[str] = None) -> None:
        flags = [
            "--cache-dir", os.path.join(work, "cache"),
            "--ledger-dir", os.path.join(work, "ledger"),
            "--access-log-dir", os.path.join(work, "access"),
            "--events-dir", os.path.join(work, "events"),
            "serve", "--port", "0", "--workers", "1",
        ]
        if spans is None:
            cmd = [sys.executable, "-m", "repro.cli", *flags]
        else:
            cmd = [sys.executable, os.path.join(root, "perfbench", "launcher.py"),
                   spans, *flags]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   PYTHONUNBUFFERED="1")
        started = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline() if self.proc.stdout else ""
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        address = line.split()[2].split("//", 1)[1]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        status, _ = asyncio.run(_request(self.host, self.port, "GET", "/healthz"))
        if status != 200:
            self.stop()
            raise RuntimeError(f"/healthz answered {status}")
        self.setup_s = time.monotonic() - started

    def _status(self, field: str) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
        raise RuntimeError(f"{field} missing from /proc status")

    def peak_rss_mb(self) -> float:
        return self._status("VmHWM") / 1024.0

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGINT (the service's own shutdown path), then wait for exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


async def _request(host: str, port: int, method: str, path: str,
                   body: bytes = b"",
                   trace_id: Optional[str] = None) -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    head = [f"{method} {path} HTTP/1.1", f"Host: {host}",
            f"Content-Length: {len(body)}", "Connection: close"]
    if trace_id is not None:
        head.append(f"traceparent: 00-{trace_id}-{trace_id[:16]}-01")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
    try:
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    status_line, _, rest = data.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), payload


class Outcome:
    """What the generator saw for one request (monotonic seconds)."""

    __slots__ = ("request", "due", "sent", "done", "status", "body", "late")

    def __init__(self, request: Request, due: float) -> None:
        self.request = request
        self.due = due
        self.sent = 0.0
        self.done = 0.0
        self.status = 0
        self.body = b""
        self.late = 0.0

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


async def _calibrate(into: List[float]) -> None:
    """A host-speed calibration pass every CALIBRATE_EVERY_S on the
    generator's event loop; a pass delays a send by about 3 ms."""
    while True:
        into.append(calibration_s())
        await asyncio.sleep(CALIBRATE_EVERY_S)


async def _open_loop(server: Server, requests: List[Request], start: float,
                     calibration: Optional[List[float]]
                     ) -> Tuple[List[Outcome], int]:
    calibrating = None if calibration is None else \
        asyncio.create_task(_calibrate(calibration))
    slots = asyncio.Semaphore(SLOTS)
    dues = [start + r.due for r in requests]
    outcomes = [Outcome(r, d) for r, d in zip(requests, dues)]
    freed = [start]
    backlog_max = 0
    tasks = []

    async def send(o: Outcome) -> None:
        try:
            o.status, o.body = await _request(
                server.host, server.port, "POST", "/solve",
                o.request.body, o.request.trace_id)
        except (OSError, ValueError, IndexError):
            o.status = 0
        finally:
            o.done = time.monotonic()
            freed[0] = o.done
            slots.release()

    previous = start
    for i, o in enumerate(outcomes):
        delay = o.due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        waited = slots.locked()
        await slots.acquire()
        o.sent = time.monotonic()
        # Late = sent past the moment it could have gone: its due time,
        # the previous send, or the release of the connection it waited
        # for — so a busy server's backlog is not charged to the client.
        ready = max(o.due, previous, freed[0] if waited else start)
        o.late = o.sent - ready
        previous = o.sent
        backlog_max = max(backlog_max, bisect.bisect_right(dues, o.sent) - i)
        tasks.append(asyncio.create_task(send(o)))
    await asyncio.gather(*tasks)
    if calibrating is not None:
        calibrating.cancel()
    return outcomes, backlog_max


def run_phase(server: Server, requests: List[Request], origin: float = 0.0,
              calibration: Optional[List[float]] = None
              ) -> Tuple[List[Outcome], int]:
    """Send ``requests`` on their schedule, starting now; ``origin`` is
    the schedule offset that maps to now (a chunk's first due time).
    With ``calibration``, the host-speed calibration passes taken
    meanwhile are appended to it."""
    return asyncio.run(_open_loop(server, requests,
                                  time.monotonic() + 0.05 - origin,
                                  calibration))


def check(outcome: Outcome, references: List[str]) -> bool:
    """A 200 whose result is byte-equal (canonical JSON) to the in-process
    answer, or a 400 ``invalid-game`` for an invalid body."""
    try:
        body = json.loads(outcome.body)
    except ValueError:
        return False
    if outcome.request.game is None:
        return outcome.status == 400 and \
            body.get("error", {}).get("code") == "invalid-game"
    return outcome.status == 200 and body.get("endpoint") == "solve" and \
        canonical(body.get("result")) == references[outcome.request.game]


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def rung_passes(outcomes: List[Outcome], ok: List[bool]) -> bool:
    """p95 within LIMIT_MS (a failure misses the limit) and no growing
    backlog: the rung's last answer lands within LIMIT_MS of its end."""
    p95 = percentile([o.latency_ms if good else float("inf")
                      for o, good in zip(outcomes, ok)], 95)
    last_due = max(o.due for o in outcomes)
    drained = (max(o.done for o in outcomes) - last_due) * 1e3 <= LIMIT_MS
    return p95 <= LIMIT_MS and drained


def spawn_setup(root: str, work: str, count: int) -> Tuple[List[float], Server]:
    """Spawn the service ``count`` times; keep the last one running."""
    times = []
    server: Optional[Server] = None
    for i in range(count):
        if server is not None:
            server.stop()
        server = Server(root, os.path.join(work, f"spawn{i}"))
        times.append(server.setup_s)
    assert server is not None
    return times, server
