"""Run ``repro serve`` with the benchmark's span wrappers installed.

    PYTHONPATH=src python3 perfbench/servechild.py DUMP serve [ARGS...]

Starts the unmodified service through its own command line, wrapped
at the serve and engine layer entry points.  When the service exits
(SIGINT), writes ``DUMP``: every recorded span (on the system-wide
monotonic clock, so the client can select its window) and, per
executed job, when it was accepted and how long it queued.
"""

from __future__ import annotations

import json
import sys
import time

import layers
import spans


def main(argv: list[str]) -> int:
    dump, serve_args = argv[0], argv[1:]
    recorder = spans.SpanRecorder(clock=time.monotonic)
    spans.install(recorder, layers.ENGINE_ENTRY_POINTS
                  + layers.SERVE_ENTRY_POINTS)
    from repro.cli import main as cli_main
    from repro.serve.service import ExperimentService

    services = []
    original_start = ExperimentService.start

    async def start(self) -> None:
        services.append(self)
        await original_start(self)

    ExperimentService.start = start
    try:
        return cli_main(serve_args)
    finally:
        recorder.enabled = False
        queue_waits = [
            (job.accepted_at, job.started_at - job.accepted_at)
            for service in services for job in service.jobs.values()
            if job.served_from == "execution"
            and job.started_at is not None]
        with open(dump, "w") as handle:
            json.dump({"spans": [
                (s.layer, s.start, s.end, s.parent, s.thread, s.counts)
                for s in recorder.take()],
                "queue_waits": queue_waits}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
