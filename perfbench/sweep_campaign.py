"""sweep-campaign: repeated library campaigns, each on a fresh session.

A campaign is a Monte-Carlo batch and a ±20% sensitivity Pareto (batchable
families: the vector kernel), a generation trend (one floorplan per node: the
scalar path) and the Fig. 8/9 datasheet verification.  Nearly every lookup is
a distinct variant, so the model cache mostly misses and the Fig.-4 stages
and ``engine.vector`` do the work.
"""

from __future__ import annotations

import dataclasses
import math
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.montecarlo import monte_carlo
from repro.analysis.sensitivity import sensitivity
from repro.analysis.trends import generation_trend
from repro.analysis.verification import verify_ddr2, verify_ddr3
from repro.devices import build_device
from repro.engine import EvaluationSession, merge_stats

import generate
import probes
from harness import (Outcome, latency_metrics, peak_rss_mb, percentile,
                     ratio, scaled_call, timed_setup)
from spans import Recorder

#: What ``auto`` resolves to for each analysis on a host with numpy; never
#: ``process``.  Verification takes no backend: it runs serial.
PINNED = {"montecarlo": "vector", "sensitivity": "vector",
          "trends": "serial", "verification": "serial"}

MC_SAMPLES = 256
VARIATION = 0.2
SETUP_REPEATS = 5

#: About forty campaigns per 20 s run: p75 keeps ten samples beyond it.
TAIL_PERCENTILE = 75

#: More campaign specs than any run gets through.
SPECS = 1000

#: Relative tolerance of the vector results against the serial oracle.
TOLERANCE = 1e-9

#: The one known departure of a campaign's verification rows from serial.
#: When the campaign's base device is a Fig. 8/9 part, the model cache hands
#: ``verify_ddr2`` the model the vector kernel folded for the sensitivity
#: base point, and one current of one row differs from the serial build in
#: the last bits.  ``(node, io_width) -> (row index, node key of model_ma,
#: most ULPs)``.  Any other difference in any row fails the campaign.
KNOWN_ROW_DRIFT = {(75, 8): (7, 75, 2)}


def _ran_on(before, after) -> str:
    """The backend a call ran on, from the session counters it moved."""
    delta = after.delta(before)
    if delta.vector_downgrades:
        return "serial (numpy missing)"
    return "vector" if delta.vector_batches else "serial"


def campaign(spec: generate.CampaignSpec, session: EvaluationSession,
             backends: Dict[str, str], ran: Dict[str, str],
             recorder: Optional[Recorder] = None) -> dict:
    """One campaign's results; ``ran`` receives the backend of each step."""
    device = build_device(spec.node, io_width=spec.io_width)
    steps = (
        ("montecarlo", lambda backend: [
            dist.samples for dist in monte_carlo(
                device, samples=MC_SAMPLES, seed=spec.mc_seed,
                session=session, backend=backend)]),
        ("sensitivity", lambda backend: {
            row.name: (row.power_base, row.power_low, row.power_high)
            for row in sensitivity(device, variation=VARIATION,
                                   session=session, backend=backend)}),
        ("trends", lambda backend: generation_trend(
            io_width=spec.io_width, session=session, backend=backend)),
        ("verification", lambda backend: (
            verify_ddr2(session=session) + verify_ddr3(session=session))),
    )
    results = {}
    for name, step in steps:
        before = session.stats
        if recorder is None:
            results[name] = step(backends[name])
        else:
            with recorder.span("analysis"):
                results[name] = step(backends[name])
        ran[name] = _ran_on(before, session.stats)
    return results


def _close(left, right) -> bool:
    """Equal structure, numbers within ``TOLERANCE`` relative."""
    if dataclasses.is_dataclass(left) and dataclasses.is_dataclass(right):
        return _close(dataclasses.astuple(left), dataclasses.astuple(right))
    if isinstance(left, float) and isinstance(right, float):
        return math.isclose(left, right, rel_tol=TOLERANCE)
    if isinstance(left, dict) and isinstance(right, dict):
        return (left.keys() == right.keys()
                and all(_close(left[key], right[key]) for key in left))
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return (len(left) == len(right)
                and all(_close(a, b) for a, b in zip(left, right)))
    return left == right


def rows_match(spec: generate.CampaignSpec, rows, expected) -> bool:
    """``rows`` equal the serial ``expected`` exactly, apart from the known
    drift (:data:`KNOWN_ROW_DRIFT`) of ``spec``'s base device."""
    drift = KNOWN_ROW_DRIFT.get((spec.node, spec.io_width))
    if drift is not None and len(rows) == len(expected):
        index, key, ulps = drift
        got, want = rows[index].model_ma, expected[index].model_ma
        if (got.keys() == want.keys()
                and abs(got[key] - want[key]) <= ulps * math.ulp(want[key])):
            rows = list(rows)
            rows[index] = dataclasses.replace(
                rows[index], model_ma={**got, key: want[key]})
    return list(rows) == list(expected)


def max_rel_err(rows) -> float:
    """Max |model / datasheet mean - 1| over the Fig. 8/9 rows."""
    return max(abs(row.ratio_to_mean - 1.0) for row in rows)


def _phase(specs, seconds: float, outcome: Outcome,
           done: List[Tuple[generate.CampaignSpec, dict]],
           recorder: Optional[Recorder] = None):
    """Run campaigns until ``seconds`` have passed.

    With a recorder every other campaign runs traced, so traced and
    untraced campaigns meet the same host conditions.  Returns the scaled
    latencies (s) of the untraced and the traced campaigns, the host
    latencies of the untraced ones, the variants they evaluated and the
    summed engine counters of the traced ones.
    """
    plain: List[float] = []
    traced: List[float] = []
    host: List[float] = []
    variants = 0
    stats = None
    until = time.perf_counter() + seconds
    while not plain or time.perf_counter() < until:
        spec = next(specs)
        tracing = recorder is not None and len(traced) < len(plain)
        outcome.attempted += 1
        ran: Dict[str, str] = {}

        def run_campaign():
            if not tracing:
                session = EvaluationSession()
                return session, campaign(spec, session, PINNED, ran)
            with recorder.span("bench.campaign"):
                session = EvaluationSession()
                return session, campaign(spec, session, PINNED, ran,
                                         recorder)

        with probes.traced_sweep(recorder) if tracing else nullcontext():
            try:
                (session, results), host_s, scaled_s = scaled_call(
                    run_campaign)
            except Exception as exc:  # a failed campaign is a data point
                host_s = scaled_s = math.inf
                session = None
                outcome.fail(f"campaign {spec} failed: {exc!r}")
        if tracing:
            traced.append(scaled_s)
            outcome.traced_s.append(host_s)
        else:
            plain.append(scaled_s)
            host.append(host_s)
        if session is None:
            continue
        if ran != PINNED:
            outcome.fail(f"campaign {spec} ran on {ran}, pinned {PINNED}")
        snapshot = session.stats
        if tracing:
            stats = snapshot if stats is None else merge_stats(stats,
                                                               snapshot)
        else:
            variants += snapshot.lookups
        done.append((spec, results))
    return plain, traced, host, variants, stats


def run(seed: int, seconds: float, trace: bool, out: Path) -> Outcome:
    outcome = Outcome()
    _, setup_s = timed_setup(EvaluationSession, lambda _: None, SETUP_REPEATS)
    outcome.end_to_end["setup_s"] = setup_s
    specs = iter(generate.campaign_specs(seed, SPECS))
    done: List[Tuple[generate.CampaignSpec, dict]] = []
    # Warm-up: the first campaign loads the lazily imported kernels.
    campaign(next(specs), EvaluationSession(), PINNED, {})
    recorder = Recorder() if trace else None
    plain, traced, host, variants, stats = _phase(specs, seconds, outcome,
                                                  done, recorder)
    finite = [value for value in plain if math.isfinite(value)]
    latency_metrics(outcome, plain, variants, sum(finite), TAIL_PERCENTILE,
                    host)
    if recorder is not None:
        outcome.spans = recorder.spans
        outcome.per_layer["tracing_overhead_frac"] = (
            percentile(traced, 50) / percentile(plain, 50) - 1.0)
        if stats is not None:
            campaigns = len(traced)
            eligible = stats.vector_builds + stats.vector_fallbacks
            outcome.per_layer.update({
                "engine.cache.hit_ratio": stats.hit_rate,
                "engine.cache.misses_per_op": stats.misses / campaigns,
                "engine.cache.evictions_per_op": stats.evictions / campaigns,
                "engine.vector.build_ratio": ratio(stats.vector_builds,
                                                   stats.lookups),
                "engine.vector.fallback_ratio": ratio(stats.vector_fallbacks,
                                                      eligible),
            })
    outcome.end_to_end["peak_rss_mb"] = peak_rss_mb()
    # Oracle: every campaign again, all on the serial backend.  Serial
    # verification rows are deterministic: identical in every campaign.
    serial = {name: "serial" for name in PINNED}
    reference_rows = None
    drifted = 0
    for spec, results in done:
        expected = campaign(spec, EvaluationSession(), serial, {})
        if reference_rows is None:
            reference_rows = expected["verification"]
        if expected["verification"] != reference_rows:
            outcome.fail(f"campaign {spec}: serial verification rows "
                         "changed between campaigns")
        rows = results["verification"]
        if not rows_match(spec, rows, expected["verification"]):
            outcome.fail(f"campaign {spec}: verification rows differ from "
                         "the serial oracle")
        elif rows != expected["verification"]:
            drifted += 1
        for name in ("montecarlo", "sensitivity", "trends"):
            if not _close(results[name], expected[name]):
                outcome.fail(f"campaign {spec}: {name} differs from the "
                             f"serial oracle beyond {TOLERANCE}")
    if done:
        # From the rows the campaigns produced, not from the oracle's.
        error = max(max_rel_err(results["verification"])
                    for _, results in done)
        outcome.per_layer["analysis.verification.max_rel_err"] = error
        outcome.record["datasheet_max_rel_err"] = error
    outcome.record["campaigns_with_known_row_drift"] = drifted
    outcome.record.update({"backends": PINNED, "campaigns": len(done),
                           "mc_samples": MC_SAMPLES})
    return outcome
