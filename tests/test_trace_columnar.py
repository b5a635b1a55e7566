"""Columnar kernel and backend-choice tests.

The columnar fast path is held to one standard: every observable —
energies, counts, durations, even error messages with their global
line numbers — must be bit-identical to the scalar pipeline, across
formats, decode policies, shard geometries and batch boundaries.
"""

import importlib.util
import json
import random
import sys

import pytest

from repro import DramPowerModel
from repro.core.trace import TraceAccumulator, TraceError
from repro.devices import build_device
from repro.trace import (DEFAULT_CLOCK, AddressDecoder,
                         TraceFormatError, accumulate_records,
                         choose_trace_backend, columnar_available,
                         commands_from_records, evaluate_trace_file,
                         fold_file_shards, iter_records, parse_columns,
                         read_trace, replay_trace_file)
from repro.trace import columnar
from repro.trace.columnar import (LINES_PER_BATCH, ColumnarReplayer,
                                  reset_downgrades, trace_downgrades)

needs_numpy = pytest.mark.skipif(not columnar_available(),
                                 reason="numpy not installed")


def _lcg(state):
    return (state * 1103515245 + 12345) & 0x7FFFFFFF


def make_lines(fmt, count, address_bits=26, with_refresh=True,
               seed=7):
    """Deterministic trace lines exercising the full address width."""
    lines = []
    state = seed
    mask = (1 << address_bits) - 1
    for i in range(count):
        state = _lcg(state)
        address = (state * 2654435761) & mask
        cycle = i * 4
        if with_refresh and i % 97 == 96:
            op, kind = "REF", "refresh"
        elif state % 3 == 0:
            op, kind = "P_MEM_WR", "write"
        else:
            op, kind = "P_MEM_RD", "read"
        if fmt == "k6":
            lines.append(f"0x{address:x} {op} {cycle}")
        elif fmt == "mase":
            mase_op = {"refresh": "REF", "write": "WRITE",
                       "read": "IFETCH"}[kind]
            lines.append(f"0x{address:x} {mase_op} {cycle}")
        else:
            lines.append(json.dumps({"addr": address, "op": op,
                                     "cycle": cycle}))
    return lines


def _fingerprint(accumulator):
    result = accumulator.result()
    return (result.energy, result.duration, result.counts,
            result.row_hits, result.row_misses, result.row_conflicts,
            result.data_bits, result.breakdown.values,
            accumulator.commands_seen)


def _replay_text(accumulator, lines, decoder,
                 batch_lines=LINES_PER_BATCH):
    """Feed k6 text lines to the replayer in batches, as the service
    feeds an upload."""
    replayer = ColumnarReplayer(accumulator, "k6", decoder,
                                DEFAULT_CLOCK)
    for low in range(0, len(lines), batch_lines):
        replayer.feed(lines[low:low + batch_lines])


def _serial_fingerprint(model, records, decoder):
    accumulator = accumulate_records(model, records, decoder=decoder,
                                     backend="serial")
    return _fingerprint(accumulator)


@needs_numpy
class TestColumnarParity:
    """vector == serial, bit for bit, across the whole matrix."""

    @pytest.mark.parametrize("fmt", ["k6", "mase", "jsonl"])
    @pytest.mark.parametrize("policy", ["row-bank-column",
                                        "bank-row-column"])
    def test_formats_and_policies(self, fmt, policy, tmp_path):
        device = build_device(55)
        model = DramPowerModel(device)
        decoder = AddressDecoder.from_device(device, policy=policy,
                                             channel_bits=1,
                                             rank_bits=1)
        lines = make_lines(fmt, 3000,
                           address_bits=decoder.address_bits)
        path = tmp_path / f"t.{fmt}.trc"
        path.write_text("\n".join(lines) + "\n")
        serial = evaluate_trace_file(model, path, fmt=fmt,
                                     decoder=decoder,
                                     backend="serial")
        vector = evaluate_trace_file(model, path, fmt=fmt,
                                     decoder=decoder,
                                     backend="vector")
        assert vector.energy == serial.energy
        assert vector.duration == serial.duration
        assert vector.counts == serial.counts
        assert vector.row_hits == serial.row_hits
        assert vector.breakdown.values == serial.breakdown.values

    def test_batch_boundaries_carry_open_rows(self, ddr3_model):
        decoder = AddressDecoder.from_device(ddr3_model.device)
        lines = make_lines("k6", 500)
        records = list(iter_records(iter(lines), "k6"))
        expect = _serial_fingerprint(ddr3_model, iter(records),
                                     decoder)
        for batch_lines in (1, 3, 17, 499, 10_000):
            accumulator = TraceAccumulator(ddr3_model, strict=False)
            _replay_text(accumulator, lines, decoder, batch_lines)
            assert _fingerprint(accumulator) == expect

    def test_comments_blanks_and_case_match_scalar(self, ddr3_model):
        decoder = AddressDecoder.from_device(ddr3_model.device)
        lines = ["# header", "", "0x100 read 1", "; note",
                 "0x200 Wr 2", "0x100 P_MEM_RD 3", "  ", "0x0 REF 9",
                 "0x300 rd 11"]
        records = list(iter_records(iter(lines), "k6"))
        expect = _serial_fingerprint(ddr3_model, iter(records),
                                     decoder)
        accumulator = TraceAccumulator(ddr3_model, strict=False)
        _replay_text(accumulator, lines, decoder)
        assert _fingerprint(accumulator) == expect

    def test_record_stream_backend_parity(self, ddr3_model):
        decoder = AddressDecoder.from_device(ddr3_model.device,
                                             channel_bits=1)
        lines = make_lines("k6", 2000,
                           address_bits=decoder.address_bits)
        records = list(iter_records(iter(lines), "k6"))
        serial = _serial_fingerprint(ddr3_model, iter(records),
                                     decoder)
        vector = accumulate_records(ddr3_model, iter(records),
                                    decoder=decoder,
                                    backend="vector")
        auto = accumulate_records(ddr3_model, iter(records),
                                  decoder=decoder)
        assert _fingerprint(vector) == serial
        assert _fingerprint(auto) == serial

    def test_oversize_addresses_fall_back_exactly(self, ddr3_model):
        # 1 << 70 cannot live in an int64 array: the batch must drop
        # to the scalar fold, splicing the open-row register exactly.
        decoder = AddressDecoder.from_device(ddr3_model.device)
        lines = make_lines("k6", 50)
        lines.insert(25, f"0x{1 << 70:x} READ 99")
        records = list(iter_records(iter(lines), "k6"))
        expect = _serial_fingerprint(ddr3_model, iter(records),
                                     decoder)
        accumulator = TraceAccumulator(ddr3_model, strict=False)
        _replay_text(accumulator, lines, decoder, batch_lines=10)
        assert _fingerprint(accumulator) == expect


@needs_numpy
class TestErrorParity:
    """The fast path must raise the scalar path's exact errors."""

    def _error_of(self, model, path, fmt, backend):
        decoder = AddressDecoder.from_device(model.device)
        with pytest.raises(TraceFormatError) as excinfo:
            evaluate_trace_file(model, path, fmt=fmt, decoder=decoder,
                                backend=backend)
        return str(excinfo.value), excinfo.value.line

    @pytest.mark.parametrize("bad_line", [
        "0x10 BOGUS 5",          # unknown op
        "0x10 READ",             # wrong arity
        "zz READ 5",             # bad address
        "0x10 READ -5",          # negative cycle
        "0x10 READ nope",        # bad cycle
    ])
    def test_malformed_lines(self, ddr3_model, tmp_path, bad_line):
        lines = make_lines("k6", 40)
        lines.insert(20, bad_line)
        path = tmp_path / "bad.trc"
        path.write_text("\n".join(lines) + "\n")
        serial = self._error_of(ddr3_model, path, "k6", "serial")
        vector = self._error_of(ddr3_model, path, "k6", "vector")
        assert vector == serial
        assert serial[1] == 21  # the global line number, not batch

    def test_blank_plus_six_token_line_goes_scalar(self):
        # A blank line next to a double line keeps the token count
        # at three per line on average but not on every line — the
        # per-line arity check must catch it and the scalar parser
        # must raise its usual error.
        lines = ["0x10 READ 1", "",
                 "0x20 READ 2 0x30 READ 3"]
        with pytest.raises(TraceFormatError) as excinfo:
            parse_columns(lines, "k6", source="t.trc")
        assert "t.trc:3" in str(excinfo.value)

    def test_parse_columns_matches_scalar_records(self):
        lines = make_lines("k6", 200)
        columns = parse_columns(lines, "k6")
        records = list(iter_records(iter(lines), "k6"))
        assert list(columns.addresses) == [r.address for r in records]
        assert list(columns.cycles) == [r.cycle for r in records]
        kinds = {0: "read", 1: "write", 2: "refresh"}
        assert ([kinds[int(code)] for code in columns.kinds]
                == [r.kind for r in records])


#: Lines the byte kernel must refuse (the block goes scalar), with
#: what the scalar parser makes of them: a record or an exact error.
REFUSED = {
    "lone_cr": b"0x10 READ 1\r0x20 READ 2\n",
    "cr_in_line": b"0x10 READ\r 1\n",
    "cr_cr_lf": b"0x10 READ 1\r\r\n",
    "tab": b"0x10\tREAD\t1\n",
    "vertical_tab": b"0x10\x0bREAD 1\n",
    "file_separator": b"0x10\x1cREAD 1\n",
    "nbsp": b"0x10\xc2\xa0READ 1\n",
    "blank": b"\n",
    "spaces_only": b"   \n",
    "hash_comment": b"# 0x10 READ 1\n",
    "semicolon_comment": b"; note\n",
    "slash_comment": b"// note\n",
    "invalid_utf8_cycle": b"0x10 READ \xff\n",
    "invalid_utf8_op": b"0x10 R\xc3\xa9AD 1\n",
    "truncated_utf8": b"0x10 READ 1 \xe2\x82\n",
    "hex16_fits": b"0x0123456789abcdef READ 1\n",
    "hex16_overflow": b"0xFFFFFFFFFFFFFFFF READ 1\n",
    "prefix_alone": b"0x READ 1\n",
    "double_prefix": b"0x0x5 READ 1\n",
    "address_underscore": b"0x1_0 READ 1\n",
    "cycle_underscore": b"0x10 READ 1_0\n",
    "address_plus": b"+0x10 READ 1\n",
    "cycle_plus": b"0x10 READ +1\n",
    "address_minus": b"-0x10 READ 1\n",
    "cycle_minus": b"0x10 READ -1\n",
    "cycle_00": b"0x10 READ 00\n",
    "cycle_010": b"0x10 READ 010\n",
    "cycle_hex": b"0x10 READ 0x1F\n",
    "cycle_19_digits": b"0x10 READ 1234567890123456789\n",
    "cycle_overflow": b"0x10 READ 99999999999999999999\n",
    "bad_address": b"zz READ 1\n",
    "unknown_op": b"0x10 BOGUS 1\n",
    "op_too_long": b"0x10 READWRITEREF 1\n",
    "op_del": b"0x10 RE\x7fD 1\n",
    "two_tokens": b"0x10 READ\n",
    "four_tokens": b"0x10 READ 1 2\n",
    "no_final_newline": b"0x10 READ 1",
}

#: Lines the kernel parses itself, identically to the scalar parser.
ACCEPTED = {
    "canonical": b"0x10 READ 1\n",
    "crlf": b"0x10 READ 1\r\n",
    "crlf_after_space": b"0x10 READ 1 \r\n",
    "upper_prefix": b"0X1F read 7\n",
    "no_prefix": b"1f Read 7\n",
    "hex_b_digit": b"0b1 WRITE 3\n",
    "zero_address": b"0 REF 0\n",
    "spacing": b"  0x10   wRiTe  5  \n",
    "hex15": b"0xFFFFFFFFFFFFFFF READ 1\n",
    "cycle18": b"0x10 READ 999999999999999999\n",
}

#: Format-specific ops: mixed case, and k6's nine-byte ops (one
#: unknown op shares its first eight bytes with a known one).
FORMAT_OPS = {
    "k6": ({"p_lock_rd": b"0x10 p_LoCk_Rd 1\n",
            "p_lock_wr": b"0x10 P_LOCK_WR 1\n",
            "p_mem_rd": b"0x10 P_MEM_RD 1\n"},
           {"p_lock_rx": b"0x10 P_LOCK_RX 1\n",
            "ifetch": b"0x10 IFETCH 1\n",
            "p_mem_rd_del": b"0x10 P_MEM\x7fRD 1\n"}),
    "mase": ({"ifetch": b"0x10 iFeTcH 1\n"},
             {"p_mem_rd": b"0x10 P_MEM_RD 1\n"}),
}


def _good_block(fmt, count, seed=3):
    return ("\n".join(make_lines(fmt, count, seed=seed)) + "\n").encode()


def _outcome(run):
    """A replay's fingerprint, or its exact error and line number."""
    try:
        return _fingerprint(run())
    except TraceFormatError as exc:
        return ("error", str(exc), exc.line)


def _replay_outcome(model, decoder, path, fmt, backend):
    return _outcome(lambda: replay_trace_file(
        model, path, fmt=fmt, decoder=decoder, backend=backend)[0])


def _records_or_error(path, fmt):
    try:
        return [(r.address, r.kind, r.cycle)
                for r in read_trace(path, fmt)]
    except TraceFormatError as exc:
        return ("error", str(exc), exc.line)


def _columns_or_error(block, fmt, source):
    kinds = {0: "read", 1: "write", 2: "refresh"}
    try:
        columns = parse_columns(block, fmt, source=source)
    except TraceFormatError as exc:
        return ("error", str(exc), exc.line)
    return [(int(a), kinds[int(k)], int(c)) for a, k, c in
            zip(columns.addresses, columns.kinds, columns.cycles)]


def _assert_matches_scalar(model, decoder, path, fmt):
    """vector == serial on the file, and the one-block parse of its
    bytes == the scalar records of the decoded file."""
    serial = _replay_outcome(model, decoder, path, fmt, "serial")
    assert _replay_outcome(model, decoder, path, fmt,
                           "vector") == serial
    data = path.read_bytes()
    try:
        columns = _columns_or_error(data, fmt, str(path))
    except columnar._ColumnarOverflow:
        return  # beyond int64: the replayer folds that batch scalar
    assert columns == _records_or_error(path, fmt)


def _kernel_accepts(block, fmt):
    vocabulary = columnar._VOCABULARIES[fmt]
    return columnar._parse_block(block, vocabulary) is not None


def _cases(fmt, accepted):
    cases = dict(ACCEPTED if accepted else REFUSED)
    cases.update(FORMAT_OPS[fmt][0 if accepted else 1])
    return sorted(cases.items())


@needs_numpy
class TestByteKernel:
    """The byte-block kernel against the scalar oracle: what it
    accepts parses identically, what it refuses goes scalar with the
    scalar path's exact records and errors."""

    @pytest.mark.parametrize("fmt", ["k6", "mase"])
    def test_refuses_edge_cases(self, fmt):
        assert _kernel_accepts(_good_block(fmt, 20), fmt)
        for name, line in _cases(fmt, accepted=False):
            block = _good_block(fmt, 10) + line + _good_block(fmt, 10)
            assert not _kernel_accepts(block, fmt), name

    @pytest.mark.parametrize("fmt", ["k6", "mase"])
    def test_accepts_well_formed_variants(self, fmt):
        for name, line in _cases(fmt, accepted=True):
            block = _good_block(fmt, 10) + line + _good_block(fmt, 10)
            assert _kernel_accepts(block, fmt), name

    @pytest.mark.parametrize("fmt", ["k6", "mase"])
    @pytest.mark.parametrize("accepted", [True, False])
    def test_edge_cases_match_scalar(self, ddr3_model, tmp_path, fmt,
                                     accepted):
        decoder = AddressDecoder.from_device(ddr3_model.device)
        for name, line in _cases(fmt, accepted):
            path = tmp_path / f"{name}.trc"
            tail = b"" if name == "no_final_newline" else _good_block(
                fmt, 30, seed=5)
            path.write_bytes(_good_block(fmt, 30) + line + tail)
            _assert_matches_scalar(ddr3_model, decoder, path, fmt)

    @pytest.mark.parametrize("fmt", ["k6", "mase"])
    def test_text_line_batches_match_scalar(self, fmt):
        for name, line in _cases(fmt, False) + _cases(fmt, True):
            lines = (make_lines(fmt, 5)
                     + line.decode("utf-8", "replace").split("\n")
                     + make_lines(fmt, 5, seed=9))
            try:
                expect = [(r.address, r.kind, r.cycle) for r in
                          iter_records(iter(lines), fmt, source="u")]
            except TraceFormatError as exc:
                expect = ("error", str(exc), exc.line)
            try:
                got = _columns_or_error(lines, fmt, "u")
            except columnar._ColumnarOverflow:
                continue
            assert got == expect, name

    @pytest.mark.parametrize("fmt", ["k6", "mase"])
    def test_block_boundaries_and_straddling_errors(
            self, ddr3_model, tmp_path, monkeypatch, fmt):
        decoder = AddressDecoder.from_device(ddr3_model.device)
        clean = (_good_block(fmt, 12) + b"# comment\n\r\n"
                 + _good_block(fmt, 12, seed=4) + b"0x10 READ 1\r\n"
                 + _good_block(fmt, 12, seed=6))
        broken = clean + b"0x10 READ 010\n" + _good_block(fmt, 4)
        for name, data in (("clean", clean), ("broken", broken)):
            path = tmp_path / f"{name}.trc"
            path.write_bytes(data)
            serial = _replay_outcome(ddr3_model, decoder, path, fmt,
                                     "serial")
            assert (name == "broken") == (serial[0] == "error")
            # Every block size from smaller than a line to the whole
            # file: lines and the error line straddle cuts everywhere.
            for size in list(range(1, 80, 3)) + [4096]:
                monkeypatch.setattr(columnar, "BLOCK_BYTES", size)
                vector = _replay_outcome(ddr3_model, decoder, path,
                                         fmt, "vector")
                assert vector == serial, (name, size)

    def test_random_mixtures_match_scalar(self, ddr3_model, tmp_path,
                                          monkeypatch):
        decoder = AddressDecoder.from_device(ddr3_model.device)
        rng = random.Random(13)
        good = make_lines("k6", 400)
        edges = ([line for _, line in _cases("k6", True)]
                 + [REFUSED[name] for name in
                    ("cr_cr_lf", "lone_cr", "tab", "blank", "hash_comment",
                     "nbsp", "cycle_00", "cycle_hex", "hex16_fits",
                     "address_plus", "invalid_utf8_op")])
        for trial in range(8):
            data = b"".join(
                rng.choice(edges) if rng.random() < 0.05
                else (good[rng.randrange(len(good))] + "\n").encode()
                for _ in range(300))
            path = tmp_path / f"mix{trial}.trc"
            path.write_bytes(data)
            monkeypatch.setattr(columnar, "BLOCK_BYTES",
                                rng.choice([64, 500, 1 << 20]))
            _assert_matches_scalar(ddr3_model, decoder, path, "k6")

    @pytest.mark.parametrize("shards", [{0}, {1, 3}, {2}, {0, 1, 2, 3}])
    def test_shard_masked_file_fold_parity(self, ddr3_model, tmp_path,
                                           monkeypatch, shards):
        decoder = AddressDecoder.from_device(ddr3_model.device,
                                             channel_bits=1,
                                             rank_bits=1)
        lines = make_lines("k6", 1500,
                           address_bits=decoder.address_bits)
        lines.insert(700, "# a comment sends one block scalar")
        path = tmp_path / "sharded.trc"
        path.write_text("\n".join(lines) + "\n")
        expect = TraceAccumulator(ddr3_model, strict=False)
        expect.feed(commands_from_records(
            (record for record in read_trace(path, "k6")
             if decoder.shard_of(record.address) in shards),
            decoder, DEFAULT_CLOCK))
        monkeypatch.setattr(columnar, "BLOCK_BYTES", 4096)
        folded = fold_file_shards(ddr3_model, path, "k6", decoder,
                                  DEFAULT_CLOCK, shards)
        assert _fingerprint(folded) == _fingerprint(expect)


class TestStrictRejection:
    def test_vector_backend_rejects_strict(self, ddr3_model,
                                           tmp_path):
        path = tmp_path / "s.trc"
        path.write_text("0x100 READ 1\n")
        for backend in ("vector", "process"):
            with pytest.raises(TraceError, match="strict"):
                evaluate_trace_file(ddr3_model, path, backend=backend,
                                    strict=True)

    def test_auto_stays_serial_for_strict(self, ddr3_model, tmp_path):
        # Expanded ACT+RD share a timestamp, so only a refresh-only
        # trace is strict-legal; spacing them past tRFC keeps it so.
        path = tmp_path / "s.trc"
        path.write_text("0x0 REF 1000\n0x0 REF 2000\n")
        _, backend = replay_trace_file(ddr3_model, path, strict=True)
        assert backend == "serial"

    def test_unknown_backend_rejected(self, ddr3_model, tmp_path):
        path = tmp_path / "s.trc"
        path.write_text("0x100 READ 1\n")
        with pytest.raises(TraceError, match="unknown trace backend"):
            evaluate_trace_file(ddr3_model, path, backend="quantum")


class TestBackendChoice:
    def test_strict_is_always_serial(self):
        assert choose_trace_backend(strict=True, shards=64,
                                    jobs=32) == "serial"

    @needs_numpy
    def test_numpy_means_vector(self):
        assert choose_trace_backend(strict=False) == "vector"
        assert choose_trace_backend(strict=False, shards=64,
                                    jobs=32) == "vector"


def _import_columnar_without_numpy(monkeypatch):
    """A fresh repro.trace.columnar instance with numpy blocked."""
    import repro.trace.columnar as real
    monkeypatch.setitem(sys.modules, "numpy", None)
    spec = importlib.util.spec_from_file_location(
        "repro.trace.columnar", real.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestNoNumpyDegradation:
    """Without numpy every columnar entry point degrades to scalar,
    fires the one-time marker, and changes no results."""

    def test_auto_degrades_serially_with_marker(self, ddr3_model,
                                                monkeypatch):
        decoder = AddressDecoder.from_device(ddr3_model.device)
        lines = make_lines("k6", 300)
        records = list(iter_records(iter(lines), "k6"))
        expect = _serial_fingerprint(ddr3_model, iter(records),
                                     decoder)
        stub = _import_columnar_without_numpy(monkeypatch)
        assert stub.columnar_available() is False
        assert stub.trace_downgrades() == 0
        # ingest imports the columnar module lazily, so installing
        # the numpy-free instance reroutes the auto backend.
        monkeypatch.setitem(sys.modules, "repro.trace.columnar", stub)
        first = accumulate_records(ddr3_model, iter(records),
                                   decoder=decoder)
        assert stub.trace_downgrades() == 1
        second = accumulate_records(ddr3_model, iter(records),
                                    decoder=decoder)
        assert stub.trace_downgrades() == 1  # marker is one-time
        assert _fingerprint(first) == expect
        assert _fingerprint(second) == expect

    def test_explicit_vector_degrades_with_marker(self, ddr3_model,
                                                  monkeypatch,
                                                  tmp_path):
        path = tmp_path / "t.trc"
        path.write_text("\n".join(make_lines("k6", 200)) + "\n")
        decoder = AddressDecoder.from_device(ddr3_model.device)
        expect = evaluate_trace_file(ddr3_model, path,
                                     decoder=decoder,
                                     backend="serial")
        stub = _import_columnar_without_numpy(monkeypatch)
        monkeypatch.setitem(sys.modules, "repro.trace.columnar", stub)
        accumulator, backend = replay_trace_file(
            ddr3_model, path, decoder=decoder, backend="vector")
        assert backend == "serial"
        assert stub.trace_downgrades() == 1
        result = accumulator.result()
        assert result.energy == expect.energy
        assert result.counts == expect.counts

    def test_stub_replayer_refuses_to_build(self, ddr3_model,
                                            monkeypatch):
        stub = _import_columnar_without_numpy(monkeypatch)
        decoder = AddressDecoder.from_device(ddr3_model.device)
        accumulator = TraceAccumulator(ddr3_model, strict=False)
        with pytest.raises(TraceError, match="numpy"):
            stub.ColumnarReplayer(accumulator, "k6", decoder,
                                  DEFAULT_CLOCK)

    def test_stub_choice_prefers_process_for_big_shardable(
            self, monkeypatch):
        stub = _import_columnar_without_numpy(monkeypatch)
        big = 2 * stub.MIN_PROCESS_BYTES
        assert stub.choose_trace_backend(
            strict=False, shards=4, jobs=4, size_bytes=big
        ) == "process"
        # Small files, single shards or single workers stay serial.
        assert stub.choose_trace_backend(
            strict=False, shards=4, jobs=4, size_bytes=1024
        ) == "serial"
        assert stub.choose_trace_backend(
            strict=False, shards=1, jobs=4, size_bytes=big
        ) == "serial"
        assert stub.choose_trace_backend(
            strict=False, shards=4, jobs=1, size_bytes=big
        ) == "serial"
        assert stub.trace_downgrades() == 1

    def test_downgrade_marker_reset_hook(self):
        before = trace_downgrades()
        reset_downgrades()
        assert trace_downgrades() == 0
        if before:  # leave the process-global marker as found
            from repro.trace.columnar import record_downgrade
            record_downgrade()
