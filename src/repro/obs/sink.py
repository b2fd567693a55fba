"""The append-only JSONL sink under the ledger, event bus and access log.

A :class:`Sink` is a process-global on/off switch plus a directory of
JSONL files.  :meth:`Sink.append` writes one record as one line and
flushes it through a handle held open per file, so a busy service pays
no open/close per record.  A failed write never breaks the caller: it
is counted in ``<name>.sink_errors.count``, logged as
``<name>.sink.write_failed``, the handle is dropped, and the next append
opens the file again.  The switch is a plain attribute, so callers keep
the obs cost contract — one boolean check while the sink is off.

:func:`read_records` reads a sink file back, skipping a torn or corrupt
line (counted in ``<name>.read.corrupt_lines.count``); with
``follow=True`` it polls for appends and leaves a torn last line for
the next poll.

Callers keep their own timers and record counters
(``ledger.append.seconds``, ``access.lines.count``, ...).  The
environment convention is :func:`env_enabled` /
:func:`env_directory`: ``REPRO_<NAME>`` turns a switch on at import
unless it is empty, ``0``, ``false`` or ``no``, and ``REPRO_<NAME>_DIR``
overrides the default directory.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from time import sleep
from typing import IO, Any, Callable, Dict, Iterator, Optional

import repro.obs.metrics as _metrics
from repro.obs.log import get_logger

__all__ = ["Sink", "env_enabled", "env_directory", "read_records"]


def env_enabled(name: str) -> bool:
    """True when ``REPRO_<NAME>`` is set to anything but an off value."""
    value = os.environ.get(f"REPRO_{name.upper()}", "")
    return value not in ("", "0", "false", "no")


def env_directory(name: str, default: str) -> Path:
    """``REPRO_<NAME>_DIR``, or ``default`` when it is unset."""
    return Path(os.environ.get(f"REPRO_{name.upper()}_DIR", default))


class Sink:
    """Switch, lock and held file handles of one JSONL sink.

    ``directory`` is None while the sink is on in memory only (the event
    bus without a file); every file name passed to :meth:`append` lives
    directly under it.  Warnings go to the ``repro.obs.<name>`` logger.
    """

    __slots__ = ("name", "log", "enabled", "directory", "handles", "lock")

    def __init__(self, name: str, default_dir: str) -> None:
        self.name = name
        self.log = get_logger(f"repro.obs.{name}")
        self.enabled = env_enabled(name)  # repro: lock(lock)
        self.directory: Optional[Path] = env_directory(  # repro: lock(lock)
            name, default_dir)
        self.handles: Dict[str, IO[str]] = {}  # repro: lock(lock)
        self.lock = threading.Lock()

    def enable(self, directory: Optional[os.PathLike]) -> None:
        """Turn on, appending under ``directory`` (None: no files)."""
        with self.lock:
            self._close_locked()
            self.directory = None if directory is None else Path(directory)
            self.enabled = True

    def disable(self) -> None:
        """Turn off and close every held handle."""
        with self.lock:
            self.enabled = False
            self._close_locked()

    def is_enabled(self) -> bool:
        with self.lock:
            return self.enabled

    def current_directory(self) -> Optional[Path]:
        """The directory files go under, also while the sink is off."""
        with self.lock:
            return self.directory

    def path(self, filename: str) -> Optional[Path]:
        """Where ``filename`` is appended (None while off or file-less)."""
        with self.lock:
            if not self.enabled or self.directory is None:
                return None
            return self.directory / filename

    def append(self, filename: str, record: Dict[str, Any]) -> bool:
        """Append ``record`` as one line of ``filename``; True if written.

        False while the sink is off or file-less, and after a failed
        write, which is counted and logged and drops the file's handle,
        so the next append opens the file again.
        """
        with self.lock:
            if not self.enabled or self.directory is None:
                return False
            return self._write_locked(filename, record)

    def _write_locked(self, filename: str, record: Dict[str, Any]) -> bool:
        handle = self.handles.get(filename)
        try:
            line = json.dumps(record, sort_keys=True, default=str) + "\n"
            if handle is None:
                self.directory.mkdir(parents=True, exist_ok=True)
                handle = open(self.directory / filename, "a",
                              encoding="utf-8")
                self.handles[filename] = handle
            handle.write(line)
            handle.flush()
        except (OSError, TypeError, ValueError) as exc:
            _metrics.counter(f"{self.name}.sink_errors.count").inc()
            self.log.warning(f"{self.name}.sink.write_failed",
                             file=filename, error=type(exc).__name__)
            self.handles.pop(filename, None)
            if handle is not None:
                _close_quietly(handle)
            return False
        return True

    def _close_locked(self) -> None:
        for handle in self.handles.values():
            _close_quietly(handle)
        self.handles.clear()


def _close_quietly(handle: IO[str]) -> None:
    try:
        handle.close()
    except (OSError, ValueError):
        pass


def read_records(
    path: os.PathLike,
    name: str,
    follow: bool = False,
    poll_interval: float = 0.25,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield the JSON objects of a sink file, one per line, in file order.

    A missing file yields nothing.  Blank lines and JSON values that are
    not objects are skipped; a line that does not parse is counted in
    ``<name>.read.corrupt_lines.count`` and logged.  Without ``follow``
    the whole file is read once, a torn last line included.  With it,
    the file is polled every ``poll_interval`` seconds until ``stop()``
    (when given) returns True, and only whole lines are consumed, so a
    line still being written is read complete on a later poll.
    """
    offset = 0
    while True:
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
        except OSError:
            chunk = b""
        if follow:
            chunk = chunk[:chunk.rfind(b"\n") + 1]
        offset += len(chunk)
        for line in chunk.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                _metrics.counter(f"{name}.read.corrupt_lines.count").inc()
                get_logger(f"repro.obs.{name}").warning(
                    f"{name}.read.corrupt_line", file=Path(path).name)
                continue
            if isinstance(record, dict):
                yield record
        if not follow or (stop is not None and stop()):
            return
        sleep(poll_interval)
