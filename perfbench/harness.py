"""Measurement helpers shared by the three workloads.

Nothing here imports :mod:`repro`; the workload modules do.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from spans import Span, layer_totals, roots

#: Repository root: the directory holding ``src/`` and ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent

#: Where runs leave their span dumps and generated inputs.
OUT_DIR = ROOT / "perfbench" / "out"

#: End-to-end metrics, reported by every workload with tracing off.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("work_per_s", "1/s"),
)

#: Layers the traced run charges self time to, named after their modules.
#: The first layer of each group is the root of that workload's operations:
#: its self time is the remainder no deeper layer accounts for.
LAYERS: Tuple[str, ...] = (
    # evaluate-mix
    "service.http",
    "service.jsonapi.parse",
    "devices.build",
    "engine.fingerprint",
    "service.jsonapi.evaluate",
    "engine.cache",
    "engine.stages",
    "floorplan.geometry",
    "core.builder.capacitance",
    "core.builder.charge",
    "core.operations.current",
    "core.model.power",
    "core.model.pattern_power",
    "service.encode",
    # sweep-campaign
    "bench.campaign",
    "analysis",
    "engine.session",
    "engine.vector",
    "analysis.measure",
    # trace-replay
    "trace.ingest",
    "trace.formats.read",
    "trace.columnar.parse",
    "trace.columnar.fold",
)

#: Per-layer figures recorded for every layer: name suffix, unit, better.
LAYER_FIGURES: Tuple[Tuple[str, str, str], ...] = (
    ("calls_per_op", "count", "lower"),
    ("ms_per_call", "ms", "lower"),
    ("ms_per_op", "ms", "lower"),
    ("share", "ratio", "lower"),
)

#: Per-layer counters and ratios: name, unit, better.
COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("service.result_cache.hit_ratio", "ratio", "higher"),
    ("engine.cache.hit_ratio", "ratio", "higher"),
    ("engine.cache.misses_per_op", "count", "lower"),
    ("engine.cache.evictions_per_op", "count", "lower"),
    ("engine.vector.build_ratio", "ratio", "higher"),
    ("engine.vector.fallback_ratio", "ratio", "lower"),
    ("analysis.verification.max_rel_err", "ratio", "lower"),
    ("tracing_overhead_frac", "ratio", "lower"),
    ("layers.accounted_share", "ratio", "higher"),
    ("layers.gap_to_untraced_frac", "ratio", "lower"),
)

#: Least share of the timed traced operations the layers must account for.
#: The rest is the span bookkeeping between the benchmark's clock and the
#: root span; a lost root span or an orphaned child moves the share out of
#: ``[ACCOUNTED_MIN, 1]`` and fails the traced run.
ACCOUNTED_MIN = 0.95


def per_layer_names() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    names = [(f"{layer}.{suffix}", unit, better)
             for layer in LAYERS for suffix, unit, better in LAYER_FIGURES]
    return names + list(COUNTERS)


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    record: Dict[str, object] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)
    #: Host latencies (s) the benchmark timed around the untraced and the
    #: traced operations; failed operations are ``inf``.
    untraced_s: List[float] = field(default_factory=list)
    traced_s: List[float] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        """Count ``count`` failed or wrong operations, keeping the first
        few messages."""
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; failed operations enter as ``inf``."""
    ordered = sorted(values)
    if not ordered:
        return math.inf
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Fastest time of :func:`spin_seconds` on the reference host (a 2-vCPU
#: Intel Xeon VM, Python 3.11) at full speed.  Scaled times read as host
#: time at that speed.
REFERENCE_SPIN_S = 1.2e-3


def spin_seconds() -> float:
    """The host's current speed: the fastest of five runs of a fixed
    pure-Python loop (about a millisecond each)."""
    fastest = math.inf
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(20_000):
            total += value * value
        fastest = min(fastest, time.perf_counter() - started)
    return fastest


def scaled_call(fn: Callable[[], object]) -> Tuple[object, float, float]:
    """Run ``fn``; return its result, its host time (s) and that time scaled
    to the reference host's full speed.

    The reference host drifts between full speed and 1.4 to 1.7 times slower
    for seconds to minutes at a time, on both CPUs, whatever the program
    does.  The calibration loop runs just before and just after ``fn``, and
    their mean speed sets the scale.  The loop is the benchmark's own code,
    so a change to the program moves the scaled time exactly as much as the
    host time.
    """
    before = spin_seconds()
    started = time.perf_counter()
    result = fn()
    host = time.perf_counter() - started
    after = spin_seconds()
    return result, host, host * 2 * REFERENCE_SPIN_S / (before + after)


def timed_setup(build: Callable[[], object],
                teardown: Callable[[object], None],
                repeats: int) -> Tuple[object, float]:
    """Run ``build`` ``repeats`` times; keep the last product, tear down
    the others, and return it with the median scaled build time (s)."""
    times = []
    product = None
    for index in range(repeats):
        product, _, scaled = scaled_call(build)
        times.append(scaled)
        if index < repeats - 1:
            teardown(product)
    return product, statistics.median(times)


def latency_metrics(outcome: "Outcome", latencies_s: Sequence[float],
                    work: float, seconds: float, tail: float,
                    host_s: Sequence[float]) -> None:
    """Record the latency and throughput end-to-end metrics of a phase.

    ``tail`` is the workload's tail percentile.  ``host_s`` holds the
    unscaled host latencies (the latencies themselves where they are not
    scaled); their median goes on the record line.
    """
    outcome.end_to_end.update({
        "op_p50_ms": percentile(latencies_s, 50) * 1e3,
        "op_tail_ms": percentile(latencies_s, tail) * 1e3,
        "work_per_s": work / seconds,
    })
    outcome.record.update({"op_samples": len(latencies_s),
                           "op_tail_percentile": tail})
    outcome.record["op_p50_host_ms"] = percentile(host_s, 50) * 1e3
    outcome.untraced_s = list(host_s)


def layer_metrics(spans: List[Span], traced_s: Sequence[float],
                  untraced_s: Sequence[float]) -> Dict[str, float]:
    """Per-layer figures of a traced phase.

    The operations are the root spans; ``share`` is a layer's self time
    over the summed duration of all operations.  ``traced_s`` and
    ``untraced_s`` are the host latencies the benchmark timed around the
    traced and the untraced operations, independently of the spans:

    - ``layers.accounted_share`` is the summed self time of all layers over
      the timed latency of the traced operations;
    - ``layers.gap_to_untraced_frac`` is the summed ``ms_per_op`` of all
      layers over the mean untraced latency, minus 1.
    """
    ops = roots(spans)
    count = len(ops)
    total_ns = sum(span.end - span.start for span in ops)
    totals = layer_totals(spans)
    unknown = sorted(set(totals) - set(LAYERS))
    if unknown:
        raise ValueError(f"spans charged to unknown layers: {unknown}")
    metrics: Dict[str, float] = {}
    charged = 0
    for layer in LAYERS:
        calls, ns = totals.get(layer, (0, 0))
        charged += ns
        metrics[f"{layer}.calls_per_op"] = calls / count if count else 0.0
        metrics[f"{layer}.ms_per_call"] = ns / 1e6 / calls if calls else 0.0
        metrics[f"{layer}.ms_per_op"] = ns / 1e6 / count if count else 0.0
        metrics[f"{layer}.share"] = ns / total_ns if total_ns else 0.0
    traced = [value for value in traced_s if math.isfinite(value)]
    untraced = [value for value in untraced_s if math.isfinite(value)]
    metrics["layers.accounted_share"] = ratio(charged, sum(traced) * 1e9)
    metrics["layers.gap_to_untraced_frac"] = (
        ratio(charged / 1e9 / count, statistics.mean(untraced)) - 1.0
        if count and untraced else 0.0)
    return metrics


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def leftover_children() -> List[str]:
    """Processes or threads this process started that are still there."""
    problems = []
    active = multiprocessing.active_children()
    if active:
        problems.append(f"multiprocessing children alive: {active}")
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass  # no child process at all
    else:
        problems.append(f"child process left behind (pid {pid or '?'})")
    threads = [thread.name for thread in threading.enumerate()
               if thread is not threading.main_thread()]
    if threads:
        problems.append(f"threads still running: {threads}")
    return problems


def git_sha(root: Path = ROOT) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git;
    ``None`` outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def host_record(workload: str, seed: int) -> Dict[str, object]:
    """Where a result was measured."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
    }
