"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload evaluate-mix --seed 1 --seconds 10 \\
        --trace 0

The program is imported from ``src/`` next to this directory and nowhere
else.  Every workload runs inside this one process and starts no child
process.  The run prints where it ran (one JSON line), each metric with its
name and unit, and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A traced run also writes its spans to ``perfbench/out/``.

Exit codes: 0 correct, 1 wrong or failed operations, 2 the program could
not be imported, 3 a child process or thread outlived the run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import signal
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Workload name -> (module in this directory, program modules it uses).
WORKLOADS = {
    "evaluate-mix": ("evaluate_mix", ("repro.engine", "repro.service")),
    "sweep-campaign": ("sweep_campaign",
                       ("repro.analysis", "repro.devices", "repro.engine")),
    "trace-replay": ("trace_replay",
                     ("repro", "repro.description", "repro.devices",
                      "repro.trace")),
}

#: Fresh imports of the program's modules; set-up reports the median.
IMPORT_REPEATS = 5


def _terminate(signum, frame):
    # SystemExit unwinds through every ``finally``: the service is shut
    # down and every thread joined before the process exits.
    raise SystemExit(128 + signum)


def import_seconds(modules) -> float:
    """Median time (scaled, see :func:`harness.scaled_call`) to import the
    program's modules afresh.

    Each repeat drops every ``repro`` module and imports them again.  The
    first import also loads numpy and the standard library, which stay
    loaded; the median leaves that one-off cost out.
    """
    import harness
    times = []
    for _ in range(IMPORT_REPEATS):
        for name in [name for name in sys.modules
                     if name == "repro" or name.startswith("repro.")]:
            del sys.modules[name]
        gc.collect()  # the dropped copy must not count in peak_rss_mb
        _, _, scaled = harness.scaled_call(
            lambda: [importlib.import_module(module) for module in modules])
        times.append(scaled)
    return statistics.median(times)


def _metric(value: float, unit: str) -> dict:
    return {"value": value if math.isfinite(value) else None, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    sys.path[:0] = [str(HERE), str(SRC)]
    import harness

    module_name, program = WORKLOADS[args.workload]
    try:
        import_s = import_seconds(program)
        # Imported last, so it binds to the final copy of the program.
        module = importlib.import_module(module_name)
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"repro was imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    harness.OUT_DIR.mkdir(exist_ok=True)
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace),
                             harness.OUT_DIR)
    finally:
        leftovers = harness.leftover_children()
        if leftovers:
            print("left behind: " + "; ".join(leftovers), file=sys.stderr)
    if leftovers:
        return 3

    outcome.end_to_end["setup_s"] += import_s
    if args.trace:
        figures = harness.layer_metrics(outcome.spans, outcome.traced_s,
                                        outcome.untraced_s)
        figures.update(outcome.per_layer)
        accounted = figures["layers.accounted_share"]
        if not harness.ACCOUNTED_MIN <= accounted <= 1.0 + 1e-9:
            outcome.fail(f"layer self times account for {accounted:.4f} of "
                         "the timed traced operations")
        metrics = {name: _metric(figures.get(name, 0.0), unit)
                   for name, unit, _ in harness.per_layer_names()}
        spans_path = (harness.OUT_DIR
                      / f"spans-{args.workload}-seed{args.seed}.json")
        spans_path.write_text(json.dumps(
            {"columns": ["sid", "parent", "group", "name", "start_ns",
                         "end_ns"],
             "spans": [span.as_row() for span in outcome.spans]}))
    else:
        metrics = {name: _metric(outcome.end_to_end[name], unit)
                   for name, unit in harness.END_TO_END}

    record = harness.host_record(args.workload, args.seed)
    record.update(outcome.record)
    record.update({"trace": args.trace, "import_s": import_s,
                   "error_rate": harness.ratio(outcome.failed,
                                               outcome.attempted),
                   "problems": outcome.problems})
    print(json.dumps(record, sort_keys=True, default=str))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
