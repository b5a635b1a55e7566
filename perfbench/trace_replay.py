"""trace-replay: columnar replay of a gzipped k6 trace.

All of the work is in ``repro.trace`` (read, parse, decode, fold) and
``repro.core.trace``; the service and the engine cache are not touched.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from pathlib import Path
from typing import List, Optional, Set, Tuple

from repro import DramPowerModel
from repro.description import Command
from repro.devices import build_device
from repro.trace import AddressDecoder, open_trace_lines, replay_trace_file

import generate
import probes
from harness import (Outcome, latency_metrics, peak_rss_mb, percentile,
                     scaled_call, timed_setup)
from spans import Recorder

#: The backend ``auto`` resolves to with numpy present.
BACKEND = "vector"

#: Device and shard geometry: 1 channel bit + 1 rank bit = 4 shards.
NODE = 55
CHANNEL_BITS = 1
RANK_BITS = 1

SETUP_REPEATS = 5

#: About thirty-five replays per 20 s run: p75 keeps about ten beyond it.
TAIL_PERCENTILE = 75


def _prepare() -> Tuple[DramPowerModel, AddressDecoder]:
    device = build_device(NODE)
    decoder = AddressDecoder.from_device(device, channel_bits=CHANNEL_BITS,
                                         rank_bits=RANK_BITS)
    return DramPowerModel(device), decoder


def result_key(accumulator) -> tuple:
    """Everything a replay reports, for bit-identity comparisons."""
    result = accumulator.result()
    return (result.energy, result.duration, sorted(
        (command.value, count) for command, count in result.counts.items()),
        result.row_hits, result.row_misses, result.row_conflicts,
        result.data_bits, result.breakdown.values,
        accumulator.commands_seen)


def _replay(model, decoder, path, backend, outcome: Outcome):
    accumulator, used = replay_trace_file(model, path, decoder=decoder,
                                          backend=backend)
    if used != backend:
        outcome.fail(f"replay ran on {used!r}, pinned {backend!r}")
    return accumulator


def _phase(model, decoder, path: Path, records: int, seconds: float,
           outcome: Outcome, reference: List[tuple],
           recorder: Optional[Recorder] = None):
    """Replay the trace until ``seconds`` have passed.

    With a recorder every other replay runs traced, so traced and untraced
    replays meet the same host conditions.  Returns the scaled latencies
    (s) of the untraced and the traced replays, the host latencies of the
    untraced ones and the commands they folded.
    """
    plain: List[float] = []
    traced: List[float] = []
    host: List[float] = []
    commands = 0
    until = time.perf_counter() + seconds
    while not plain or time.perf_counter() < until:
        tracing = recorder is not None and len(traced) < len(plain)
        outcome.attempted += 1

        def replay():
            if not tracing:
                return _replay(model, decoder, path, BACKEND, outcome)
            with recorder.span("trace.ingest"):
                return _replay(model, decoder, path, BACKEND, outcome)

        with probes.traced_trace(recorder) if tracing else nullcontext():
            accumulator, host_s, scaled_s = scaled_call(replay)
        key = result_key(accumulator)
        counts = accumulator.result().counts
        expanded = records + counts[Command.ACT] + counts[Command.PRE]
        if accumulator.commands_seen != expanded:
            outcome.fail(f"commands_seen {accumulator.commands_seen} != "
                         f"records + ACT + PRE = {expanded}")
        elif not reference:
            reference.append(key)
        elif key != reference[0]:
            outcome.fail("replay result differs from the first replay")
        if tracing:
            traced.append(scaled_s)
            outcome.traced_s.append(host_s)
        else:
            plain.append(scaled_s)
            host.append(host_s)
            commands += accumulator.commands_seen
    return plain, traced, host, commands


def run(seed: int, seconds: float, trace: bool, out: Path) -> Outcome:
    outcome = Outcome()
    (model, decoder), setup_s = timed_setup(_prepare, lambda _: None,
                                            SETUP_REPEATS)
    outcome.end_to_end["setup_s"] = setup_s
    path = out / f"trace-{seed}.trc.gz"
    prefix = out / f"trace-{seed}-prefix.trc.gz"
    try:
        records = generate.write_trace(path, prefix, seed,
                                       decoder.address_bits)
        # The prefix replay on the pinned backend doubles as warm-up.
        vector_prefix = _replay(model, decoder, prefix, BACKEND, outcome)
        reference: List[tuple] = []
        recorder = Recorder() if trace else None
        latencies, traced, host, commands = _phase(
            model, decoder, path, records, seconds, outcome, reference,
            recorder)
        latency_metrics(outcome, latencies, commands, sum(latencies),
                        TAIL_PERCENTILE, host)
        if recorder is not None:
            outcome.spans = recorder.spans
            outcome.per_layer["tracing_overhead_frac"] = (
                percentile(traced, 50) / percentile(latencies, 50) - 1.0)
        outcome.end_to_end["peak_rss_mb"] = peak_rss_mb()
        outcome.record.update({
            "backends": {"replay": BACKEND}, "records": records,
            "commands_per_replay": commands // len(latencies),
            "shards": decoder.num_shards, "replays": len(latencies)})
        shards = _shards_reached(decoder, prefix)
        if len(shards) != decoder.num_shards:
            outcome.fail(f"prefix reaches shards {sorted(shards)} only")
        serial_prefix = _replay(model, decoder, prefix, "serial", outcome)
        if result_key(serial_prefix) != result_key(vector_prefix):
            outcome.fail("vector replay of the prefix differs from serial")
    finally:
        path.unlink(missing_ok=True)
        prefix.unlink(missing_ok=True)
    return outcome


def _shards_reached(decoder: AddressDecoder, path: Path) -> Set[int]:
    """The (channel, rank) shards the transactions of a trace address."""
    handle = open_trace_lines(path)
    try:
        return {decoder.shard_of(int(line.split()[0], 16))
                for line in handle if "REF" not in line}
    finally:
        handle.close()
