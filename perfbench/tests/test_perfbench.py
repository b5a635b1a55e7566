"""Tests of the benchmark's own machinery (not of the program).

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import gzip
import json
import math
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import generate  # noqa: E402
import harness  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import sweep_campaign  # noqa: E402
from spans import (Recorder, Span, layer_totals, patched, roots,  # noqa: E402
                   self_times)


# ----------------------------------------------------------------------
# Generators: the seed alone decides the inputs.
# ----------------------------------------------------------------------
def test_request_bodies_repeat_for_a_seed_and_differ_across_seeds():
    assert generate.request_bodies(7, 500) == generate.request_bodies(7, 500)
    assert generate.request_bodies(7, 500) != generate.request_bodies(8, 500)


def test_request_bodies_draw_from_the_catalogue_with_some_patterns():
    catalogue = generate.device_catalogue()
    assert len(catalogue) > 2 * 256  # larger than both service caches
    bodies = [json.loads(body) for body in generate.request_bodies(3, 2000)]
    assert all(body["device"] in catalogue for body in bodies)
    with_pattern = sum("pattern" in body for body in bodies)
    assert 0.2 < with_pattern / len(bodies) < 0.4


def test_campaign_specs_repeat_for_a_seed_and_differ_across_seeds():
    assert generate.campaign_specs(5, 50) == generate.campaign_specs(5, 50)
    assert generate.campaign_specs(5, 50) != generate.campaign_specs(6, 50)
    assert {spec.node for spec in generate.campaign_specs(5, 200)} <= set(
        generate.CAMPAIGN_NODES)


def _trace_bytes(tmp_path, seed, name):
    path = tmp_path / f"{name}.trc.gz"
    prefix = tmp_path / f"{name}-prefix.trc.gz"
    records = generate.write_trace(path, prefix, seed, address_bits=30,
                                   transactions=3000, prefix_lines=1200)
    return records, path.read_bytes(), prefix.read_bytes()


def test_trace_files_are_byte_identical_for_a_seed(tmp_path):
    first = _trace_bytes(tmp_path, 1, "a")
    assert first == _trace_bytes(tmp_path, 1, "b")
    assert first[1] != _trace_bytes(tmp_path, 2, "c")[1]


def test_trace_prefix_is_the_head_of_the_trace(tmp_path):
    import gzip
    records, full, head = _trace_bytes(tmp_path, 4, "d")
    lines = gzip.decompress(full).decode().splitlines()
    assert records == len(lines) == 3000  # no refresh before 50k lines
    assert gzip.decompress(head).decode().splitlines() == lines[:1200]


# ----------------------------------------------------------------------
# Span arithmetic on a hand-built tree.
# ----------------------------------------------------------------------
def _tree():
    # r: 0-100 with children a (10-40, itself holding a1 15-25), b (50-70)
    # and c (90-130, outliving r); c1 (95-120) sits inside c.
    return [
        Span(1, None, 1, "root", 0, 100),
        Span(2, 1, 1, "layer.a", 10, 40),
        Span(3, 2, 1, "layer.b", 15, 25),
        Span(4, 1, 1, "layer.b", 50, 70),
        Span(5, 1, 1, "layer.c", 90, 130),
        Span(6, 5, 1, "layer.a/extra", 95, 120),
    ]


def test_self_time_subtracts_children_clipped_to_their_parent():
    selfs = self_times(_tree())
    assert selfs == {1: 40, 2: 20, 3: 10, 4: 20, 5: 5, 6: 5}
    assert sum(selfs.values()) == 100  # the root's duration, exactly


def test_overlapping_children_are_covered_once():
    spans = [Span(1, None, 1, "root", 0, 100),
             Span(2, 1, 1, "x", 10, 40),
             Span(3, 1, 1, "y", 30, 60)]
    assert self_times(spans)[1] == 50


def test_a_span_whose_parent_was_not_recorded_is_a_root():
    spans = [Span(1, None, 1, "root", 0, 10), Span(2, 99, 99, "x", 20, 30)]
    assert [span.sid for span in roots(spans)] == [1, 2]
    assert self_times(spans) == {1: 10, 2: 10}


def test_layer_totals_charge_suffixed_spans_without_counting_calls():
    totals = layer_totals(_tree())
    assert totals == {"root": (1, 40), "layer.a": (1, 25),
                      "layer.b": (2, 30), "layer.c": (1, 5)}


_REPLAYS = [Span(1, None, 1, "trace.ingest", 0, 100),
            Span(2, 1, 1, "trace.columnar.parse", 10, 70),
            Span(3, None, 3, "trace.ingest", 200, 300),
            Span(4, 3, 3, "trace.formats.read", 210, 230)]


def test_layer_metrics_per_layer_figures():
    metrics = harness.layer_metrics(_REPLAYS, [125e-9, 125e-9],
                                    [80e-9, 120e-9])
    assert metrics["trace.columnar.parse.share"] == pytest.approx(0.3)
    assert metrics["trace.ingest.ms_per_op"] == pytest.approx(120 / 2 / 1e6)
    assert metrics["trace.formats.read.calls_per_op"] == 0.5
    # 200 ns of spans against 250 ns timed around the two replays.
    assert metrics["layers.accounted_share"] == pytest.approx(0.8)
    # 100 ns per traced replay against a 100 ns untraced mean.
    assert metrics["layers.gap_to_untraced_frac"] == pytest.approx(0.0)
    with pytest.raises(ValueError):
        harness.layer_metrics([Span(1, None, 1, "no.such.layer", 0, 1)],
                              [1e-9], [1e-9])


def test_accounted_share_exposes_an_orphaned_span():
    timed = [100e-9, 100e-9]
    assert harness.layer_metrics(_REPLAYS, timed, timed)[
        "layers.accounted_share"] == pytest.approx(1.0)
    # A fold whose parent span was lost counts as an operation of its own.
    orphan = _REPLAYS + [Span(5, 99, 99, "trace.columnar.fold", 240, 260)]
    assert harness.layer_metrics(orphan, timed, timed)[
        "layers.accounted_share"] == pytest.approx(1.1)


def test_recorder_nests_per_thread_and_joins_an_explicit_parent():
    recorder = Recorder()
    with recorder.span("root") as root:
        worker = threading.Thread(target=lambda: recorder.wrap(
            lambda: None, "inner")())

        def handler():
            with recorder.span("remote", parent=root.sid, group=root.sid):
                recorder.wrap(lambda: None, "leaf")()
        remote = threading.Thread(target=handler)
        for thread in (worker, remote):
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["inner"].parent is None  # another thread's own root
    assert by_name["remote"].parent == root.sid
    assert by_name["leaf"].parent == by_name["remote"].sid
    assert by_name["leaf"].group == root.sid


def test_patched_restores_module_functions_and_methods():
    module = types.ModuleType("fake")
    module.fn = lambda value: value + 1
    original = module.fn

    class Base:
        def method(self):
            return "base"

    class Child(Base):
        pass

    recorder = Recorder()
    with patched(recorder, [(module, "fn", "x"), (Child, "method", "y")],
                 {(module, "fn"): {"y": "x.under.y"}}):
        assert module.fn(1) == 2
        assert Child().method() == "base"
    assert module.fn is original
    assert "method" not in vars(Child)
    assert [span.name for span in recorder.spans] == ["x", "y"]


def test_timed_reads_keep_the_lines_and_record_the_stream_reads(tmp_path):
    from repro.trace import open_trace_lines
    path = tmp_path / "t.trc.gz"
    path.write_bytes(gzip.compress(b"".join(
        b"0x%X P_MEM_RD %d\n" % (i, i) for i in range(20000))))
    handle = open_trace_lines(path)
    expected = list(handle)
    handle.close()
    recorder = Recorder()
    handle = probes._timed_reads(open_trace_lines(path), recorder)
    try:
        assert list(handle) == expected
    finally:
        handle.close()
    assert len(recorder.spans) > 1
    assert {span.name for span in recorder.spans} == {"trace.formats.read"}


# ----------------------------------------------------------------------
# The campaign oracle: verification rows exact but for the pinned drift.
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _Row:
    label: str
    model_ma: dict


def _rows(value):
    rows = [_Row(f"row {i}", {75: 10.0 + i, 65: 20.0 + i}) for i in range(9)]
    rows[7] = _Row("row 7", {75: value, 65: 27.0})
    return rows


def test_rows_match_allows_only_the_pinned_drift():
    (node, io_width), (_, key, ulps) = next(iter(
        sweep_campaign.KNOWN_ROW_DRIFT.items()))
    assert key == 75
    pinned = generate.CampaignSpec(node, io_width, 1)
    other = generate.CampaignSpec(170, 16, 1)
    expected = _rows(53.9)
    near = 53.9 + ulps * math.ulp(53.9)
    far = 53.9 + (ulps + 1) * math.ulp(53.9)
    assert sweep_campaign.rows_match(other, _rows(53.9), expected)
    assert sweep_campaign.rows_match(pinned, _rows(near), expected)
    assert not sweep_campaign.rows_match(pinned, _rows(far), expected)
    assert not sweep_campaign.rows_match(other, _rows(near), expected)
    moved = _rows(near)
    moved[7] = _Row("row 7", {75: near, 65: 27.5})
    assert not sweep_campaign.rows_match(pinned, moved, expected)
    moved = _rows(53.9)
    moved[2] = _Row("row 2", {75: 12.0 + math.ulp(12.0), 65: 22.0})
    assert not sweep_campaign.rows_match(pinned, moved, expected)


# ----------------------------------------------------------------------
# No process or thread outlives a run.
# ----------------------------------------------------------------------
def test_leftover_children_reports_a_live_child_process():
    assert harness.leftover_children() == []
    child = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(30)"])
    try:
        assert any("child process" in problem
                   for problem in harness.leftover_children())
    finally:
        child.kill()
        child.wait(timeout=10)
    assert harness.leftover_children() == []


def test_leftover_children_reports_a_running_thread():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, name="lingering")
    thread.start()
    try:
        assert any("lingering" in problem
                   for problem in harness.leftover_children())
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert harness.leftover_children() == []


# ----------------------------------------------------------------------
# BENCHMARK.json names exactly what the runs print.
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_metrics_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == harness.per_layer_names()


def test_percentile_is_nearest_rank_and_counts_failures_as_infinite():
    values = [float(v) for v in range(1, 101)]
    assert harness.percentile(values, 50) == 50.0
    assert harness.percentile(values, 99) == 99.0
    assert harness.percentile([1.0, float("inf")], 99) == float("inf")
