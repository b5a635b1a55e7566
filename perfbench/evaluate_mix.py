"""evaluate-mix: closed-loop ``POST /evaluate`` against an in-process service.

The service is ``create_service(port=0)`` served on a thread of this process;
the load is a closed loop of keep-alive connections, one thread each, so a
slow reply delays that connection's next request.  Payload parse, device
build, fingerprint and the two caches dominate; cold Fig.-4 builds form the
tail.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional

from repro.engine import EvaluationSession
from repro.service import create_service, evaluate_payload

import generate
import probes
from harness import (Outcome, latency_metrics, peak_rss_mb, percentile,
                     ratio, scaled_call, timed_setup)
from spans import Recorder

#: Single-device requests never batch: the model cache builds serially.
BACKEND = "serial"

#: Keep-alive connections of the closed loop (the reference host's CPUs).
CONNECTIONS = 2

#: Request bodies generated per run; the stream wraps around.
REQUESTS = 50_000

#: Requests sent before timing starts, so the caches reach steady state.
WARMUP_REQUESTS = 1500

SETUP_REPEATS = 5

#: Thousands of requests per run.  p99 would keep ten samples beyond it,
#: but over ten runs on the reference host its spread was 0.23 of its
#: median against 0.04 for p50; p90 lies inside the cold-build tail (about
#: a fifth of requests build a model) and is steady enough to bound.
TAIL_PERCENTILE = 90

#: The timed phase runs as blocks of this length (s).  Between blocks no
#: request is in flight and the calibration loop of
#: :func:`harness.scaled_call` runs; each block is scaled by the loop
#: around it.
BLOCK_SECONDS = 1.0

#: Longest a client thread may take to finish after its phase ends (s).
JOIN_TIMEOUT = 60.0


class ServedService:
    """An ephemeral-port service answering on a thread of this process."""

    def __init__(self) -> None:
        self.server = create_service(port=0)
        self.port = self.server.server_port
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            name="evaluate-mix-service")
        self.thread.start()

    def close(self) -> None:
        """Stop serving, close the socket, join the thread."""
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=JOIN_TIMEOUT)
        if self.thread.is_alive():
            raise RuntimeError("service thread did not stop")


class _Load:
    """The closed loop: shared request stream, latencies and replies."""

    def __init__(self, port: int, bodies: List[bytes]):
        self.port = port
        self.bodies = bodies
        self.next_index = itertools.count()
        self.lock = threading.Lock()
        #: request body -> reply bytes -> times seen
        self.replies: Dict[bytes, Counter] = defaultdict(Counter)
        self.errors: List[str] = []
        self.stop = threading.Event()

    def phase(self, outcome: Outcome, seconds: Optional[float] = None,
              requests: Optional[int] = None,
              recorder: Optional[Recorder] = None):
        """Run the loop for ``seconds`` or until ``requests`` more have been
        sent; returns latencies (s; ``inf`` for a failed request), the
        requests answered and the wall time."""
        latencies: List[float] = []
        budget = itertools.count()
        until = None if seconds is None else time.perf_counter() + seconds

        def more() -> bool:
            if self.stop.is_set():
                return False
            if requests is not None:
                return next(budget) < requests
            return time.perf_counter() < until

        def client() -> None:
            try:
                self._client(more, latencies, recorder)
            except Exception as exc:  # counted as a failed request
                with self.lock:
                    self.errors.append(f"client thread died: {exc!r}")
                latencies.append(math.inf)

        started = time.perf_counter()
        threads = [threading.Thread(target=client, name=f"client-{n}")
                   for n in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        try:
            for thread in threads:
                thread.join(timeout=(seconds or 0) + JOIN_TIMEOUT)
        except BaseException:  # SIGTERM/SIGINT: stop the loop, join, re-raise
            self.stop.set()
            for thread in threads:
                thread.join(timeout=JOIN_TIMEOUT)
            raise
        if any(thread.is_alive() for thread in threads):
            self.stop.set()
            raise RuntimeError("client thread did not finish")
        wall = time.perf_counter() - started
        outcome.attempted += len(latencies)
        failed = sum(1 for value in latencies if math.isinf(value))
        if failed:
            outcome.fail(f"{failed} requests failed: {self.errors[:3]}",
                         failed)
        answered = len(latencies) - failed
        return latencies, answered, wall

    def _client(self, more, latencies: List[float],
                recorder: Optional[Recorder]) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=30)
        try:
            while more():
                body = self.bodies[next(self.next_index) % len(self.bodies)]
                started = time.perf_counter()
                try:
                    if recorder is None:
                        status, reply = _post(connection, body, {})
                    else:
                        with recorder.span("service.http") as span:
                            status, reply = _post(
                                connection, body,
                                {probes.SPAN_HEADER: str(span.sid)})
                except (OSError, http.client.HTTPException) as exc:
                    connection.close()
                    connection = http.client.HTTPConnection(
                        "127.0.0.1", self.port, timeout=30)
                    with self.lock:
                        self.errors.append(repr(exc))
                    latencies.append(math.inf)
                    continue
                elapsed = time.perf_counter() - started
                if status != 200:
                    with self.lock:
                        self.errors.append(f"HTTP {status}: {reply[:200]!r}")
                    latencies.append(math.inf)
                    continue
                latencies.append(elapsed)
                with self.lock:
                    self.replies[body][reply] += 1
        finally:
            connection.close()


def _post(connection: http.client.HTTPConnection, body: bytes,
          headers: Dict[str, str]):
    connection.request("POST", "/evaluate", body=body, headers={
        "Content-Type": "application/json", **headers})
    response = connection.getresponse()
    return response.status, response.read()


def _scaled_phase(load: _Load, outcome: Outcome, seconds: float,
                  recorder: Optional[Recorder] = None):
    """Run the loop for ``seconds`` as scaled blocks.

    Returns the scaled latencies (s), the host latencies, the requests
    answered and the scaled wall time.
    """
    scaled: List[float] = []
    host: List[float] = []
    answered = 0
    wall = 0.0
    until = time.perf_counter() + seconds
    while not host or time.perf_counter() < until:
        block = max(min(BLOCK_SECONDS, until - time.perf_counter()), 0.1)
        (latencies, done, _), host_s, scaled_s = scaled_call(
            lambda: load.phase(outcome, seconds=block, recorder=recorder))
        host += latencies
        scaled += [value * scaled_s / host_s for value in latencies]
        answered += done
        wall += scaled_s
    return scaled, host, answered, wall


def _check(load: _Load, outcome: Outcome) -> int:
    """Compare every reply with ``evaluate_payload`` on a fresh session;
    returns the distinct payloads checked."""
    for body, seen in sorted(load.replies.items()):
        payload = json.loads(body)
        expected = json.dumps(evaluate_payload(EvaluationSession(),
                                               payload)).encode("utf-8")
        for reply, count in seen.items():
            if reply != expected:
                outcome.fail(f"wrong reply for {payload}", count)
    return len(load.replies)


def run(seed: int, seconds: float, trace: bool, out: Path) -> Outcome:
    outcome = Outcome()
    bodies = generate.request_bodies(seed, REQUESTS)
    service, setup_s = timed_setup(ServedService, ServedService.close,
                                   SETUP_REPEATS)
    outcome.end_to_end["setup_s"] = setup_s
    try:
        load = _Load(service.port, bodies)
        load.phase(outcome, requests=WARMUP_REQUESTS)
        plain_s = seconds / 2 if trace else seconds
        latencies, host, answered, wall = _scaled_phase(load, outcome,
                                                        plain_s)
        latency_metrics(outcome, latencies, answered, wall, TAIL_PERCENTILE,
                        host)
        if trace:
            recorder = Recorder()
            engine_before = service.server.session.stats
            cache_before = service.server.result_cache.snapshot()
            with probes.traced_service(recorder):
                traced, traced_host, _, _ = _scaled_phase(
                    load, outcome, seconds - plain_s, recorder)
            engine = service.server.session.stats.delta(engine_before)
            cache = service.server.result_cache.snapshot()
            hits = cache["hits"] - cache_before["hits"]
            misses = cache["misses"] - cache_before["misses"]
            outcome.spans = recorder.spans
            outcome.traced_s = traced_host
            outcome.per_layer.update({
                "tracing_overhead_frac": (percentile(traced, 50)
                                          / percentile(latencies, 50) - 1.0),
                "service.result_cache.hit_ratio": ratio(hits, hits + misses),
                "engine.cache.hit_ratio": engine.hit_rate,
                "engine.cache.misses_per_op": ratio(engine.misses,
                                                    len(traced)),
                "engine.cache.evictions_per_op": ratio(engine.evictions,
                                                       len(traced)),
            })
        outcome.end_to_end["peak_rss_mb"] = peak_rss_mb()
        stats = service.server.session.stats
    finally:
        service.close()
    ran = "vector" if stats.vector_batches else "serial"
    if ran != BACKEND:
        outcome.fail(f"service evaluated on {ran!r}, pinned {BACKEND!r}")
    outcome.record["distinct_payloads"] = _check(load, outcome)
    outcome.record["backends"] = {"evaluate": ran}
    return outcome
