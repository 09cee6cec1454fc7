"""The serve-open workload: ``repro serve`` under open-loop load.

The service runs as its own process with its defaults (event backend,
fsync'd journal, 2 workers) and a fresh data directory.  One asyncio
client sends seeded Poisson arrivals at a fixed rate with at most
``nproc`` HTTP exchanges in flight.  Most requests repeat digests
answered during set-up (hot: one POST answered from the artifact
store); a fixed number per second are new digests (cold: POST, poll
at a fixed interval, fetch the artifact).  Latency counts from the
time each request was due, so a stalled client or server delays later
requests visibly.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
import mix
import spans
import speed
from report import Outcome
from stats import p50

HERE = Path(__file__).resolve().parent
HOST = "127.0.0.1"
#: Poisson arrival rate (requests/s) and the rate of new digests.  A
#: cold job at default sizes holds the service's interpreter lock for
#: 0.6-1.2 s, and hot answers wait behind it.  8 cold jobs per 28 s
#: keep that to about a fifth of the window, and under a third when
#: the host runs 1.5x slow: were it near half, the hot median would
#: sit inside the stalls in some runs and outside in others.
RATE = 40.0
COLD_RATE = 2 / 7
POLL_S = 0.025
#: How often the client times the host-speed work unit (about 2 ms,
#: speed.py), and the least time before the next arrival it does so in.
SPEED_PERIOD_S = 0.5
SPEED_GAP_S = 0.005
#: Latency limit for goodput: answered correctly within this.
LATENCY_LIMIT_S = 2.0
#: HTTP exchanges in flight: the client never exceeds nproc.
INFLIGHT = max(1, min(2, len(os.sched_getaffinity(0))))
#: Give up on a cold job after this long (counts as a failure).
JOB_TIMEOUT_S = 60.0
READY_TIMEOUT_S = 60.0


def now() -> float:
    # CLOCK_MONOTONIC is system-wide on Linux, so client and server
    # timestamps compare directly.
    return time.monotonic()


# ----------------------------------------------------------------------
# The service process.
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve --port 0`` process with a fresh data dir;
    ``traced`` runs it under the span-recording launcher."""

    def __init__(self, root: Path, run_dir: Path, name: str,
                 traced: bool) -> None:
        self.dir = run_dir / name
        self.dir.mkdir()
        self.dump = self.dir / "spans.json"
        self.traced = traced
        command = ([sys.executable, str(HERE / "servechild.py"),
                    str(self.dump)] if traced
                   else [sys.executable, "-m", "repro"])
        command += ["serve", "--port", "0",
                    "--data-dir", str(self.dir / "data")]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log = open(self.dir / "server.log", "wb")
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT)
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        deadline = now() + READY_TIMEOUT_S
        log = self.dir / "server.log"
        while now() < deadline:
            match = re.search(rb"serving on http://[^:]+:(\d+)",
                              log.read_bytes())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise RuntimeError(f"server did not come up: "
                           f"{log.read_text(errors='replace')[-2000:]}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> dict | None:
        """SIGINT, wait for exit; returns the span dump if traced."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        if self.traced and self.dump.exists():
            return json.loads(self.dump.read_text())
        return None


# ----------------------------------------------------------------------
# The client.
# ----------------------------------------------------------------------
async def exchange(port: int, method: str, path: str,
                   body: dict | None = None) -> tuple[int, bytes]:
    """One HTTP/1.1 exchange (``Connection: close``).

    The benchmark's own client rather than ``repro.serve.http``'s, so
    that a change to the program's client code cannot change how the
    benchmark measures the server."""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        data = json.dumps(body).encode() if body is not None else b""
        writer.write(f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
                     f"Content-Type: application/json\r\n"
                     f"Content-Length: {len(data)}\r\n"
                     f"Connection: close\r\n\r\n".encode() + data)
        await writer.drain()
        blob = await asyncio.wait_for(reader.read(), JOB_TIMEOUT_S)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head, _, payload = blob.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head else 0
    return status, payload


@dataclass
class Reply:
    """One request's fate as the client saw it."""

    request: dict
    due: float
    cold: bool
    fate: str = ""                  # hot | cold | refused_<n> | failed
    latency_s: float = 0.0
    polls: int = 0
    body: bytes = b""
    #: (layer, start, end) client-side spans, root first.
    spans: list[tuple[str, float, float]] = field(default_factory=list)


class Client:
    def __init__(self, port: int) -> None:
        self.port = port
        self.gate = asyncio.Semaphore(INFLIGHT)

    async def call(self, reply: Reply, method: str, path: str,
                   body: dict | None = None) -> tuple[int, bytes]:
        queued = now()
        async with self.gate:
            started = now()
            status, data = await exchange(self.port, method, path, body)
            reply.spans.append(("loadgen.queue", queued, started))
            reply.spans.append(("serve.http.exchange", started, now()))
        return status, data

    async def fetch(self, reply: Reply) -> None:
        """Submit; on 202 poll to terminal and fetch the artifact."""
        status, data = await self.call(reply, "POST", "/v1/jobs",
                                       reply.request)
        if status == 200:
            reply.fate, reply.body = "hot", data
            return
        if status != 202:
            reply.fate = f"refused_{status}"
            return
        job_id = json.loads(data)["job"]["id"]
        give_up = now() + JOB_TIMEOUT_S
        state = "queued"
        while state not in ("completed", "failed") and now() < give_up:
            slept = now()
            await asyncio.sleep(POLL_S)
            reply.spans.append(("serve.http.poll_wait", slept, now()))
            status, data = await self.call(reply, "GET",
                                           f"/v1/jobs/{job_id}")
            reply.polls += 1
            state = json.loads(data)["job"]["state"]
        if state != "completed":
            reply.fate = "failed"
            return
        status, data = await self.call(reply, "GET",
                                       f"/v1/jobs/{job_id}/artifact")
        reply.fate, reply.body = ("cold", data) if status == 200 \
            else ("failed", data)

    async def one(self, reply: Reply) -> None:
        woke = now()
        reply.spans.append(("request", reply.due, 0.0))
        reply.spans.append(("loadgen.lag", reply.due, woke))
        try:
            await self.fetch(reply)
        except (OSError, asyncio.TimeoutError, ValueError,
                KeyError) as error:
            reply.fate = f"failed: {type(error).__name__}: {error}"
        done = now()
        reply.spans[0] = ("request", reply.due, done)
        reply.latency_s = done - reply.due


async def drive(port: int, arrivals: list[mix.Arrival],
                speed_samples: list[tuple[float, float]] | None = None
                ) -> list[Reply]:
    """Send ``arrivals`` on schedule (open loop) and wait for all.

    With ``speed_samples``, also time the host-speed work unit every
    ``SPEED_PERIOD_S``, while waiting for an arrival that is due in
    more than ``SPEED_GAP_S``, appending (clock, unit ms)."""
    client = Client(port)
    if speed_samples is not None:
        speed_samples.append((now(), speed.unit_ms()))
    start = now()
    next_sample = start + SPEED_PERIOD_S
    replies = [Reply(a.request, start + a.due_s, a.cold)
               for a in arrivals]
    tasks = []
    for reply in replies:
        if (speed_samples is not None and now() >= next_sample
                and reply.due - now() > SPEED_GAP_S):
            speed_samples.append((now(), speed.unit_ms()))
            next_sample = now() + SPEED_PERIOD_S
        delay = reply.due - now()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(client.one(reply)))
    await asyncio.gather(*tasks)
    return replies


def warm(port: int, requests: list[dict]) -> dict[str, str]:
    """Answer the hot set once (cold), verified; digest -> canonical
    body, the reference every later hot answer must equal.  One job at
    a time, so the server's peak memory does not depend on which jobs
    happened to overlap."""
    replies = [reply for request in requests
               for reply in asyncio.run(drive(
                   port, [mix.Arrival(0.0, True, request)]))]
    expected = {}
    for reply in replies:
        if reply.fate not in ("hot", "cold"):
            raise RuntimeError(f"warm-up request failed: {reply.fate}")
        body = checks.verify_envelope(json.loads(reply.body),
                                      reply.request)
        expected[checks.digest_of(reply.request)] = checks.canonical(body)
    return expected


def setup_server(root: Path, run_dir: Path, name: str, traced: bool,
                 hot: list[dict]) -> tuple[Server, dict, float, float]:
    """A server answering ``hot``: (server, expected, s, speed factor
    for those seconds)."""
    unit_before = speed.unit_ms()
    started = time.perf_counter()
    server = Server(root, run_dir, name, traced)
    try:
        expected = warm(server.port, hot)
    except BaseException:
        server.stop()
        raise
    took = time.perf_counter() - started
    return server, expected, took, speed.scale(unit_before,
                                               speed.unit_ms())


# ----------------------------------------------------------------------
# The workload.
# ----------------------------------------------------------------------
def run(root: Path, seed: int, seconds: float, trace: bool,
        run_dir: Path) -> Outcome:
    hot = mix.serve_hot_set()
    arrivals = mix.serve_schedule(seed, seconds, RATE, COLD_RATE)
    outcome = Outcome()
    # Three set-ups for the setup_s median.  Untraced runs keep the
    # first; traced runs keep an untraced and a traced server and
    # split the window between them.
    plan = [("a", False, True), ("b", trace, trace), ("c", False, False)]
    kept: list[tuple[Server, dict]] = []
    speed_samples: list[tuple[float, float]] = []
    try:
        for name, traced, keep in plan:
            server, expected, took, factor = setup_server(
                root, run_dir, name, traced, hot)
            outcome.setup_samples.append(took)
            outcome.setup_scales.append(factor)
            if keep:
                kept.append((server, expected))
            else:
                server.stop()
        if trace:
            half = seconds / 2
            first = [a for a in arrivals if a.due_s < half]
            second = [mix.Arrival(a.due_s - half, a.cold, a.request)
                      for a in arrivals if a.due_s >= half]
            base_replies = asyncio.run(drive(kept[0][0].port, first))
            window_start = now()
            replies = asyncio.run(drive(kept[1][0].port, second,
                                        speed_samples))
            expected = kept[1][1]
        else:
            window_start = now()
            replies = asyncio.run(drive(kept[0][0].port, arrivals,
                                        speed_samples))
            expected = kept[0][1]
            outcome.peak_rss_mb = kept[0][0].peak_rss_mb()
        outcome.window_s = now() - window_start
    finally:
        dumps = [server.stop() for server, _ in kept]

    _verify(outcome, replies, expected, seed, speed_samples)
    if trace:
        _layers(outcome, replies, base_replies, dumps[1], window_start)
    return outcome


def _verify(outcome: Outcome, replies: list[Reply],
            expected: dict[str, str], seed: int,
            speed_samples: list[tuple[float, float]]) -> None:
    """Every envelope checked; a seeded sample re-run on the event
    reference backend."""
    outcome.attempted = len(replies)
    bodies: dict[int, dict] = {}
    hot_ms, cold_ms, kb = [], [], []
    good = delivered_hot = 0
    for index, reply in enumerate(replies):
        if reply.fate not in ("hot", "cold"):
            outcome.failures.append((index, f"{reply.request}: "
                                            f"{reply.fate}"))
            continue
        try:
            body = checks.verify_envelope(json.loads(reply.body),
                                          reply.request)
            want = expected.get(checks.digest_of(reply.request))
            if want is not None and checks.canonical(body) != want:
                raise checks.Mismatch("hot answer differs from the "
                                      "set-up answer")
        except (checks.Mismatch, ValueError) as error:
            outcome.failures.append((index, f"{reply.request}: {error}"))
            continue
        bodies[index] = body
        outcome.latencies_ms.append(reply.latency_s * 1e3)
        outcome.latency_scales.append(speed.scale_at(
            speed_samples, reply.due, reply.due + reply.latency_s))
        outcome.latency_kinds.append((reply.fate,)
                                     + mix.cell(reply.request))
        if reply.fate == "hot":
            delivered_hot += 1
            hot_ms.append(reply.latency_s * 1e3)
            kb.append(len(reply.body) / 1024.0)
        else:
            cold_ms.append(reply.latency_s * 1e3)
        good += reply.latency_s <= LATENCY_LIMIT_S
    # The reference sample: two cold answers and one hot one.
    rng = random.Random(f"perfbench:check:serve-open:{seed}")
    cold = [i for i in sorted(bodies) if replies[i].fate == "cold"]
    hot = [i for i in sorted(bodies) if replies[i].fate == "hot"]
    sample = rng.sample(cold, min(2, len(cold))) + \
        rng.sample(hot, min(1, len(hot)))
    for index in sample:
        try:
            checks.check_served(replies[index].request, bodies[index])
        except checks.Mismatch as error:
            outcome.failures.append((index, f"reference: {error}"))
    outcome.samples["serve_hot_ms"] = hot_ms
    outcome.samples["serve_cold_ms"] = cold_ms
    outcome.extra["reference_checks"] = float(len(sample))
    outcome.extra["serve_goodput"] = good / max(len(replies), 1)
    outcome.extra["input.hot_share"] = delivered_hot / max(len(replies),
                                                          1)
    outcome.extra["serve.http.response_kb"] = (sum(kb) / len(kb)
                                               if kb else 0.0)


def _layers(outcome: Outcome, replies: list[Reply],
            base_replies: list[Reply], dump: dict | None,
            window_start: float) -> None:
    """Per-layer metrics from the traced half: server spans since the
    half began, plus the client's own spans per request."""
    if dump is None:
        outcome.failures.append((-1, "traced server wrote no spans"))
        return
    server_spans = [spans.Span(layer, start, end, parent, thread,
                               counts)
                    for layer, start, end, parent, thread, counts
                    in dump["spans"]]
    totals = layers.LayerTotals()
    totals.add(server_spans, since=window_start)
    requests = len(replies)
    metrics = totals.metrics(requests)
    waits = [wait * 1e3 for accepted, wait in dump["queue_waits"]
             if accepted >= window_start]
    metrics["serve.service.queue_wait_ms.p50"] = p50(waits) if waits \
        else 0.0
    outcome.samples["serve.service.queue_wait_ms"] = waits
    residual = total = 0.0
    for index, reply in enumerate(replies):
        client_spans = [spans.Span(layer, start, end,
                                   None if i == 0 else 0)
                        for i, (layer, start, end)
                        in enumerate(reply.spans)]
        try:
            residual += spans.check_conservation(client_spans,
                                                 reply.latency_s)
        except ValueError as error:
            outcome.failures.append((index, f"conservation: {error}"))
        total += reply.latency_s
    metrics["trace.residual_share"] = residual / total if total else 0.0
    cold = [r.polls for r in replies if r.fate == "cold"]
    metrics["serve.http.polls"] = sum(cold) / len(cold) if cold else 0.0
    traced = [r.latency_s for r in replies if r.fate in ("hot", "cold")]
    base = [r.latency_s for r in base_replies
            if r.fate in ("hot", "cold")]
    if traced and base:
        metrics["trace.overhead"] = p50(traced) / p50(base)
    lags = [(r.spans[1][2] - r.spans[1][1]) * 1e3
            for r in base_replies + replies]
    outcome.samples["loadgen.lag_ms"] = lags
    outcome.layer_metrics = metrics
    outcome.notes.append(
        f"window split: {len(base_replies)} requests on an untraced "
        f"server, {requests} on a traced one; per-layer values are "
        f"per-request means over the traced half")
