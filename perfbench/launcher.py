"""Run ``repro.cli serve`` with the benchmark's layer wrappers installed.

Usage: ``python perfbench/launcher.py SPANS_JSON <repro-defender args>``.
The wrappers go in before ``repro.cli.main`` runs; the spans are written
to SPANS_JSON when the service shuts down (SIGINT).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from repro import cli
    from repro.obs import tracing

    recorder = tracer.Recorder(tracing.current_trace_id)
    tracer.install(recorder)
    try:
        return cli.main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
