"""Where the traced run places its spans: the calls into each layer.

Each probe is ``(owner, attribute, span name)``: the traced run replaces the
attribute with a span-recording wrapper for its duration (see
:func:`spans.patched`).  A module owner means the name the calling module
looks up, so only calls made from that module are timed.
"""

from __future__ import annotations

import importlib
import json
import types
from contextlib import contextmanager
from typing import Iterator

from spans import Recorder, patched

#: Request header carrying the client span id, so the server-side spans of
#: one request join the client's tree.
SPAN_HEADER = "X-Bench-Span"


def _module(name: str):
    # importlib, not attribute access: ``repro.analysis`` re-exports
    # functions under the names of their submodules.
    return importlib.import_module(name)


def engine_probes():
    """The model cache and the five Fig.-4 stages behind it."""
    cache = _module("repro.engine.cache")
    stages = _module("repro.engine.stages")
    from repro.core import DramPowerModel
    return [
        (cache, "fingerprint", "engine.fingerprint"),
        (cache.ModelCache, "model", "engine.cache"),
        (cache, "build_model", "engine.stages"),
        (stages, "FloorplanGeometry", "floorplan.geometry"),
        (stages, "build_skeletons", "core.builder.capacitance"),
        (stages, "resolve_events", "core.builder.charge"),
        (stages, "OperationEnergies", "core.operations.current"),
        (DramPowerModel, "pattern_power", "core.model.pattern_power"),
    ]


#: ``pattern_power`` called while a model is being built is the build's
#: power stage; called on a built model it is pattern evaluation.
POWER_STAGE = {"engine.stages": "core.model.power",
               "engine.vector": "core.model.power"}


def _power_renames():
    from repro.core import DramPowerModel
    return {(DramPowerModel, "pattern_power"): POWER_STAGE}


@contextmanager
def traced_service(recorder: Recorder) -> Iterator[None]:
    """Spans on the service's request path, joined to the client's."""
    server = _module("repro.service.server")
    jsonapi = _module("repro.service.jsonapi")
    handler_cls = server.ServiceHandler
    do_post = handler_cls.do_POST

    def traced_post(handler):
        header = handler.headers.get(SPAN_HEADER)
        parent = int(header) if header else None
        with recorder.span("service.http/handler", parent=parent,
                           group=parent):
            do_post(handler)

    encoder = types.SimpleNamespace(
        loads=recorder.wrap(json.loads, "service.jsonapi.parse/loads"),
        dumps=recorder.wrap(json.dumps, "service.encode"))
    targets = engine_probes() + [
        (server, "evaluate_payload", "service.jsonapi.evaluate"),
        (jsonapi, "parse_evaluate_request", "service.jsonapi.parse"),
        (jsonapi, "build_device", "devices.build"),
        (jsonapi, "fingerprint", "engine.fingerprint"),
    ]
    handler_cls.do_POST = traced_post
    server.json = encoder
    try:
        with patched(recorder, targets, _power_renames()):
            yield
    finally:
        server.json = json
        handler_cls.do_POST = do_post


@contextmanager
def traced_sweep(recorder: Recorder) -> Iterator[None]:
    """Spans on the library sweep path: session, vector kernel, stages
    and the measure callables of each analysis."""
    from repro.engine import EvaluationSession
    session = _module("repro.engine.session")
    vector = _module("repro.engine.vector")
    montecarlo = _module("repro.analysis.montecarlo")
    sensitivity = _module("repro.analysis.sensitivity")
    trends = _module("repro.analysis.trends")
    verification = _module("repro.analysis.verification")
    targets = engine_probes() + [
        (EvaluationSession, "map", "engine.session"),
        (session, "build_family_models", "engine.vector"),
        (vector, "FloorplanGeometry", "floorplan.geometry"),
        (vector, "build_skeletons", "core.builder.capacitance"),
        (montecarlo, "run_measure", "analysis.measure"),
        (sensitivity, "idd7_mixed", "analysis.measure"),
        (verification, "run_measure", "analysis.measure"),
        (verification, "build_device", "devices.build"),
        (trends, "build_device", "devices.build"),
    ] + [(trends, name, "analysis.measure")
         for name in ("idd0", "idd4r", "idd4w", "idd7_mixed")]
    with patched(recorder, targets, _power_renames()):
        yield


def _timed_reads(handle, recorder: Recorder):
    """``handle`` with the reads beneath its text layer recorded as
    ``trace.formats.read`` spans.

    The text layer fetches decompressed bytes a chunk at a time through
    ``read1`` (or ``read``) of the gzip stream under it; those two methods
    are wrapped on that one stream object.  Line iteration, decoding and
    line splitting stay in the program's own loop, so they remain part of
    the replay driver's self time.
    """
    stream = handle.buffer
    for name in ("read1", "read"):
        setattr(stream, name, recorder.wrap(getattr(stream, name),
                                            "trace.formats.read"))
    return handle


@contextmanager
def traced_trace(recorder: Recorder) -> Iterator[None]:
    """Spans on the replay path: decompressed reads under the trace
    handle's text layer, batch parse and batch fold."""
    ingest = _module("repro.trace.ingest")
    columnar = _module("repro.trace.columnar")
    original = ingest.open_trace_lines
    ingest.open_trace_lines = lambda path: _timed_reads(original(path),
                                                        recorder)
    try:
        with patched(recorder, [
                (columnar, "parse_columns", "trace.columnar.parse"),
                (columnar, "fold_columns", "trace.columnar.fold")]):
            yield
    finally:
        ingest.open_trace_lines = original
