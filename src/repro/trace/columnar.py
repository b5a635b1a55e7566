"""Columnar fast path: byte-block parse, vectorized decode, batched fold.

The scalar pipeline walks a trace one line → one record → a handful of
commands at a time, all in interpreted Python; it is correct and
constant-memory but tops out around 0.2 M commands/s.  This module
processes the same pipeline a *block of lines* at a time:

* **read** — :func:`iter_blocks` reads ~1 MiB of decompressed bytes
  at a time from the file handle's binary layer and cuts each read at
  its last newline; the remainder carries into the next block.  No
  text decoding or per-line splitting happens on the fast path.

* **parse** — :func:`parse_columns` turns one k6/mase block into
  three column arrays with numpy alone.  One ``np.frombuffer`` view
  gives the token boundaries; every line must hold exactly three
  tokens.  Addresses (optional ``0x``, 1–15 hex digits) and cycles
  (1–18 decimal digits, no leading zero) are converted eight digits
  at a time: an unaligned uint64 view of the block loads the eight
  bytes ending at each number, and byte-wise arithmetic checks and
  folds them.  Ops match the format's vocabulary case-insensitively
  as packed 16-byte keys.  A block the kernel cannot prove
  well-formed — any lone ``\\r``, tab or other control byte,
  non-ASCII byte, blank or comment line, sign, underscore, ``0x``
  cycle, leading-zero or overlong number, unknown op, or a final line
  without a newline — is decoded exactly as the streaming text handle
  decodes it and re-parsed by the scalar parser, which raises the
  exact :class:`~repro.trace.formats.TraceFormatError` (same message,
  same global line number) the scalar path would have raised.  A
  batch of ``str`` lines (the service's uploads) is encoded once and
  takes the same kernel.  NDJSON always parses scalar (``json.loads``
  dominates regardless) and only the decode/fold is columnar.

* **decode** — :meth:`AddressDecoder.field_layout` turns the bit-slice
  policy into shift/mask pairs applied to the whole address array.

* **fold** — open-page expansion reduces to per-bank row-transition
  detection: a stable argsort by flat bank turns the batch into
  per-bank runs, the previous-row array (seeded from the carried
  open-row registers at run starts) marks misses, and the lenient
  fold collapses to count deltas absorbed through
  :meth:`~repro.core.trace.TraceAccumulator.absorb_batch`.  Energy is
  derived from counts by the unchanged ``snapshot`` code, so columnar
  and scalar replay are bit-for-bit identical — the scalar path stays
  on as the oracle, and the parity suite holds them together.

numpy is optional (the ``repro[vector]`` extra), mirroring
:mod:`repro.engine.vector`: with numpy missing every caller degrades
to the scalar path and the one-time ``trace_downgrades`` marker fires,
results unchanged.  The columnar fold is lenient-only (``strict=False``)
— expanded external traces always replay leniently, and strict
legality needs per-command timing the batch reduction discards.
"""

from __future__ import annotations

import io
from typing import (BinaryIO, Dict, FrozenSet, Iterable, Iterator, List,
                    Optional, Sequence, Union)

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the no-numpy leg
    _np = None

from ..core.trace import TraceAccumulator, TraceError
from ..description import Command
from .decoder import AddressDecoder
from .formats import K6_OPS, MASE_OPS, TraceRecord, iter_records

#: Decompressed bytes per read of a trace file — ~40k k6 lines, a few
#: MB of kernel working set.
BLOCK_BYTES = 1 << 20

#: Lines per batch for line-stream replay (service uploads).
LINES_PER_BATCH = 65_536

#: Records per batch when folding an in-memory record stream.
RECORDS_PER_BATCH = 65_536

#: Canonical record kinds as small integer codes for array work.
_READ, _WRITE, _REFRESH = 0, 1, 2

_KIND_CODES = {"read": _READ, "write": _WRITE, "refresh": _REFRESH}

#: Longest numbers the kernel converts: 15 hex digits (60 bits) and 18
#: decimal digits (< 10**18) both fit int64.
_ADDRESS_DIGITS = 15
_CYCLE_DIGITS = 18

#: Longest op the kernel matches, in bytes: two uint64 lanes.
_OP_BYTES = 16

#: Zero bytes either side of a block, so that every 8-byte lane the
#: kernel loads (up to three left of a number's end, two from an op's
#: start) stays inside the buffer.
_PAD = 24
_PAD_BYTES = bytes(_PAD)

_NEWLINE, _RETURN, _SPACE, _ZERO, _LOWER_X = 0x0A, 0x0D, 0x20, 0x30, 0x78

# ----------------------------------------------------------------------
# Degradation marker (the vector_downgrades idiom of repro.engine).
# ----------------------------------------------------------------------
_DOWNGRADES = 0


def columnar_available() -> bool:
    """Whether the columnar kernel can run in this process."""
    return _np is not None


def trace_downgrades() -> int:
    """One-time marker: 1 once any caller wanted the columnar path
    and degraded to scalar because numpy is missing, else 0."""
    return _DOWNGRADES


def record_downgrade() -> None:
    """Fire the downgrade marker (idempotent after the first call)."""
    global _DOWNGRADES
    if _DOWNGRADES == 0:
        _DOWNGRADES = 1


def reset_downgrades() -> None:
    """Test hook: clear the one-time downgrade marker."""
    global _DOWNGRADES
    _DOWNGRADES = 0


class _ColumnarOverflow(Exception):
    """A batch carries integers no int64 array can hold; the caller
    replays that batch through the scalar pipeline instead."""


# ----------------------------------------------------------------------
# Eight-byte lanes for the block kernel.
#
# The kernel loads the eight bytes ending at a number (or starting at
# an op) as one little-endian uint64 — first byte lowest — and checks
# and converts all eight at once with byte-wise arithmetic ("SIMD
# within a register").  The block check admits only bytes 0x20..0x7E
# besides newlines, so no byte of a lane ever carries into the next.
# ----------------------------------------------------------------------
_ONES = 0x0101010101010101

if _np is not None:
    _LANE = _np.dtype("<u8")
    _HIGH_BITS = _np.uint64(0x80 * _ONES)
    _NIBBLES = _np.uint64(0x0F * _ONES)
    _LOW_BITS = _np.uint64(_ONES)
    #: OR-ing it lower-cases ASCII letters (and maps ``_`` to DEL,
    #: which the block check keeps out of the input).
    _FOLD = _np.uint64(0x20 * _ONES)
    _ASCII_ZEROS = _np.uint64(_ZERO * _ONES)
    #: ``[k]`` keeps the last ``k`` bytes (in text order) of a lane.
    _KEEP_LAST = _np.array([((1 << 8 * k) - 1) << 8 * (8 - k)
                            for k in range(9)], dtype=_np.uint64)
    #: ``[k]`` keeps the first ``k`` bytes (in text order) of a lane.
    _KEEP_FIRST = _np.array([(1 << 8 * k) - 1 for k in range(9)],
                            dtype=_np.uint64)


def _bytes_between(lanes, low: int, high: int):
    """0x80 in each byte of ``lanes`` that lies in [low, high], else 0
    (bytes must be below 0x80)."""
    return ((lanes + _np.uint64((0x80 - low) * _ONES))
            & ~(lanes + _np.uint64((0x7F - high) * _ONES))
            & _HIGH_BITS)


def _lane_value(digits, base: int):
    """The number whose eight base-``base`` digits, most significant
    first in text order, are the bytes of ``digits``: pairs, then
    quads, then the whole lane, one multiply and shift each.  The
    multiplies wrap only bits above the kept result."""
    lanes = (digits * _np.uint64(base * 256 + 1)) >> _np.uint64(8)
    lanes = (((lanes & _np.uint64(0x00FF00FF00FF00FF))
              * _np.uint64(base ** 2 * 65536 + 1)) >> _np.uint64(16))
    return (((lanes & _np.uint64(0x0000FFFF0000FFFF))
             * _np.uint64((base ** 4 << 32) + 1)) >> _np.uint64(32))


def _numbers(lanes, end, count, base: int, max_digits: int):
    """int64 values of the digit runs of ``count`` digits that end
    just before ``end``; ``None`` when a run is longer than
    ``max_digits`` or holds a byte that is not a base-``base`` digit.

    Each run is read right-aligned, eight digits per lane from its
    end; bytes left of a run's first digit are replaced by ``0``.
    """
    if int(count.max()) > max_digits:
        return None
    value = _np.zeros(count.shape[0], dtype=_np.uint64)
    for lane in range((int(count.max()) + 7) // 8):
        kept = _KEEP_LAST[_np.clip(count - 8 * lane, 0, 8)]
        chars = ((lanes[end - 8 * (lane + 1)] & kept)
                 | (_ASCII_ZEROS & ~kept))
        if base == 16:
            chars |= _FOLD
            valid = (_bytes_between(chars, 0x30, 0x39)
                     | _bytes_between(chars, 0x61, 0x66))
            # '0'..'9' → 0..9 and 'a'..'f' → 1..6 + 9 (bit 6 set).
            digits = ((chars & _NIBBLES)
                      + ((chars >> _np.uint64(6)) & _LOW_BITS)
                      * _np.uint64(9))
        else:
            valid = _bytes_between(chars, 0x30, 0x39)
            digits = chars & _NIBBLES
        if not _np.all(valid == _HIGH_BITS):
            return None
        value += (_lane_value(digits, base)
                  * _np.uint64(base ** (8 * lane)))
    return value.view(_np.int64)


class _Vocabulary:
    """A format's op vocabulary as sorted packed keys: each op's bytes
    OR 0x20 (the case fold tokens get), zero-padded to
    :data:`_OP_BYTES` and split into a low and a high lane."""

    def __init__(self, ops: Dict[str, str]):
        names = sorted(ops)
        self.width = max(len(name) for name in names)
        packed = _np.zeros((len(names), _OP_BYTES), dtype=_np.uint8)
        for index, name in enumerate(names):
            packed[index, :len(name)] = [byte | 0x20
                                         for byte in name.encode()]
        words = packed.view(_LANE)
        order = _np.argsort(words[:, 0], kind="stable")
        self.low = words[order, 0].astype(_np.uint64)
        self.high = words[order, 1].astype(_np.uint64)
        self.kinds = _np.array([_KIND_CODES[ops[names[index]]]
                                for index in order], dtype=_np.int8)

    def match(self, lanes, begin, count):
        """Kind codes of the op tokens of ``count`` bytes starting at
        ``begin``, matched case-insensitively; ``None`` when any op is
        not in the vocabulary."""
        if int(count.max()) > self.width:
            return None
        low = ((lanes[begin] | _FOLD)
               & _KEEP_FIRST[_np.minimum(count, 8)])
        high = ((lanes[begin + 8] | _FOLD)
                & _KEEP_FIRST[_np.clip(count - 8, 0, 8)])
        slot = _np.searchsorted(self.low, low)
        _np.minimum(slot, self.low.shape[0] - 1, out=slot)
        if not (_np.array_equal(self.low[slot], low)
                and _np.array_equal(self.high[slot], high)):
            return None
        return self.kinds[slot]


_VOCABULARIES = ({"k6": _Vocabulary(K6_OPS),
                  "mase": _Vocabulary(MASE_OPS)}
                 if _np is not None else {})


# ----------------------------------------------------------------------
# Batch parsing.
# ----------------------------------------------------------------------
class TraceColumns:
    """One parsed batch as (addresses, kinds, cycles) int arrays.

    ``lines`` counts the source lines the batch spanned, comments and
    blanks included (the record count when built from records).
    """

    def __init__(self, addresses, kinds, cycles,
                 lines: Optional[int] = None):
        self.addresses = addresses
        self.kinds = kinds
        self.cycles = cycles
        self.lines = len(self) if lines is None else lines

    def __len__(self) -> int:
        return int(self.addresses.shape[0])


def _columns_from_records(records: Iterable[TraceRecord],
                          lines: Optional[int] = None
                          ) -> TraceColumns:
    """Columns via the scalar record parser (the fallback path and
    the whole story for NDJSON).  Raises exactly what the scalar
    pipeline raises; raises :class:`_ColumnarOverflow` for integers
    beyond int64."""
    addresses: List[int] = []
    kinds: List[int] = []
    cycles: List[int] = []
    for record in records:
        addresses.append(record.address)
        kinds.append(_KIND_CODES[record.kind])
        cycles.append(record.cycle)
    try:
        return TraceColumns(
            _np.array(addresses, dtype=_np.int64),
            _np.array(kinds, dtype=_np.int8),
            _np.array(cycles, dtype=_np.int64), lines)
    except OverflowError:
        raise _ColumnarOverflow() from None


def _decode_block(block: bytes) -> List[str]:
    """The text lines a streaming trace handle yields for ``block``.

    Same UTF-8 ``replace`` decoding and universal newlines as
    :func:`~repro.trace.formats.open_trace_lines`; because blocks are
    cut just after a ``\\n``, decoding them one at a time gives exactly
    the lines of decoding the whole file at once.
    """
    return list(io.TextIOWrapper(io.BytesIO(block), encoding="utf-8",
                                 errors="replace"))


def parse_columns(batch: Union[bytes, Sequence[str]], fmt: str,
                  source: str = "<trace>",
                  start: int = 1) -> TraceColumns:
    """Parse one batch of trace lines into column arrays.

    ``batch`` is a byte block of whole lines (as :func:`iter_blocks`
    cuts them) or a sequence of text lines, which is encoded once and
    takes the same kernel.  Well-formed k6/mase batches parse in
    numpy; anything else (comments, blank lines, malformed payloads,
    NDJSON) re-parses through the scalar parser — slower, but
    byte-identical in both results and errors.  ``start`` is the
    global 1-based line number of the batch's first line.
    """
    if _np is None:
        raise TraceError("columnar parsing requires numpy "
                         "(the repro[vector] extra)", 0.0, None)
    lines: Optional[Sequence[str]] = None
    block: Optional[bytes] = None
    if isinstance(batch, bytes):
        block = batch
    else:
        lines = batch
        try:
            block = ("\n".join(lines) + "\n").encode("ascii")
        except UnicodeEncodeError:
            pass  # non-ASCII: the kernel would refuse the block
    vocabulary = _VOCABULARIES.get(fmt)
    if vocabulary is not None and block is not None:
        columns = _parse_block(block, vocabulary)
        if columns is not None and (lines is None
                                    or len(columns) == len(lines)):
            return columns
    # Scalar fallback: exact errors, exact records, global numbering.
    if lines is None:
        lines = _decode_block(batch)
    return _columns_from_records(
        iter_records(iter(lines), fmt, source=source, start=start),
        len(lines))


def _parse_block(block: bytes,
                 vocabulary: _Vocabulary) -> Optional[TraceColumns]:
    """The byte-block kernel; ``None`` means "not provably
    well-formed, go scalar"."""
    if not block.endswith(b"\n"):
        return None
    padded = b"".join((_PAD_BYTES, block, _PAD_BYTES))
    data = _np.frombuffer(padded, dtype=_np.uint8)
    # Every 8-byte window of the buffer as one lane (unaligned view).
    lanes = _np.ndarray((data.shape[0] - 7,), dtype=_LANE,
                        buffer=padded, strides=(1,))
    newlines = _np.flatnonzero(data == _NEWLINE)
    lines = newlines.shape[0]
    # Besides the newlines, only printable ASCII (0x20..0x7E) and the
    # \r of a CRLF line end, which the text handle folds into the
    # newline: no lone \r (the text handle would split there), tab,
    # other control byte, DEL or non-ASCII byte.
    body = data[_PAD:-_PAD]
    returns = _np.count_nonzero(body - _np.uint8(_SPACE) > 0x5E) - lines
    if returns:
        at = _np.flatnonzero(data == _RETURN)
        if (at.shape[0] != returns
                or not _np.all(data[at + 1] == _NEWLINE)):
            return None
    token = data > _SPACE
    edges = _np.flatnonzero(token[1:] != token[:-1]) + 1
    starts = edges[0::2]
    ends = edges[1::2]  # exclusive
    # Exactly three tokens per line: 3n tokens in all, each line's
    # first token after the previous newline and its third before its
    # own.  Blank lines and wrong arity fail here; comments fail here
    # or in the digit checks below.
    if starts.shape[0] != 3 * lines:
        return None
    if not (_np.all(starts[3::3] > newlines[:-1])
            and _np.all(ends[2::3] <= newlines)):
        return None

    begin, end = starts[0::3], ends[0::3]
    count = end - begin
    prefixed = ((count > 2) & (data[begin] == _ZERO)
                & ((data[begin + 1] | 0x20) == _LOWER_X))
    addresses = _numbers(lanes, end, count - 2 * prefixed, 16,
                         _ADDRESS_DIGITS)
    if addresses is None:
        return None

    begin, end = starts[2::3], ends[2::3]
    count = end - begin
    if _np.any((data[begin] == _ZERO) & (count > 1)):
        return None  # 00, 010, 0x1F: int(token, 0) rules, go scalar
    cycles = _numbers(lanes, end, count, 10, _CYCLE_DIGITS)
    if cycles is None:
        return None

    begin, end = starts[1::3], ends[1::3]
    kinds = vocabulary.match(lanes, begin, end - begin)
    if kinds is None:
        return None
    return TraceColumns(addresses, kinds, cycles)


# ----------------------------------------------------------------------
# Batched open-page expansion and fold.
# ----------------------------------------------------------------------
def fold_columns(accumulator: TraceAccumulator, columns: TraceColumns,
                 decoder: AddressDecoder, period: float,
                 open_rows: Dict[int, int],
                 shards: Optional[FrozenSet[int]] = None) -> None:
    """Expand and fold one parsed batch into ``accumulator``.

    Mirrors the scalar ``commands_from_records`` + ``feed`` pipeline
    exactly: per flat bank, a transaction to a row other than the open
    one costs PRE (when a row was open) + ACT, refresh costs PRE (when
    open) + REF, and every access to the already-open row is a row
    hit except the one its activate paid for.  ``open_rows`` is the
    carried open-row register, updated in place.  With ``shards`` the
    batch is first masked to the given (channel, rank) shard indices.
    """
    n = len(columns)
    if n == 0:
        return
    layout = decoder.field_layout()
    addresses = columns.addresses
    kinds = columns.kinds
    cycles = columns.cycles
    if shards is not None:
        rank_shift = layout["rank"][0]
        shard_index = ((addresses >> rank_shift)
                       & (decoder.num_shards - 1))
        mask = _np.isin(shard_index, _np.array(sorted(shards),
                                               dtype=_np.int64))
        addresses = addresses[mask]
        kinds = kinds[mask]
        cycles = cycles[mask]
        n = int(addresses.shape[0])
        if n == 0:
            return
    bank_shift, bank_bits = layout["bank"]
    row_shift, row_bits = layout["row"]
    rank_shift = layout["rank"][0]
    bank = (addresses >> bank_shift) & ((1 << bank_bits) - 1)
    row = (addresses >> row_shift) & ((1 << row_bits) - 1)
    shard_index = (addresses >> rank_shift) & (decoder.num_shards - 1)
    flat = (shard_index << bank_bits) | bank

    order = _np.argsort(flat, kind="stable")
    flat_sorted = flat[order]
    row_sorted = row[order]
    kind_sorted = kinds[order]
    is_refresh = kind_sorted == _REFRESH
    # Open row *after* each record: refresh closes the bank (-1).
    effective = _np.where(is_refresh, _np.int64(-1), row_sorted)
    previous = _np.empty(n, dtype=_np.int64)
    previous[1:] = effective[:-1]
    run_start = _np.empty(n, dtype=bool)
    run_start[0] = True
    run_start[1:] = flat_sorted[1:] != flat_sorted[:-1]
    start_positions = _np.flatnonzero(run_start)
    run_banks = flat_sorted[start_positions].tolist()
    carried = [open_rows.get(b, -1) for b in run_banks]
    carried = [-1 if value is None else value for value in carried]
    previous[start_positions] = carried

    access = ~is_refresh
    miss = access & (previous != row_sorted)
    precharge = (previous >= 0) & (miss | is_refresh)
    n_act = int(miss.sum())
    n_pre = int(precharge.sum())
    n_access = int(access.sum())
    reads = int((kind_sorted == _READ).sum())
    refreshes = int(is_refresh.sum())

    # Carry the open-row register (and the accumulator's bank view)
    # forward from each run's final record.
    end_positions = _np.append(start_positions[1:] - 1, n - 1)
    bank_rows: Dict[int, Optional[int]] = {}
    for bank_id, final in zip(run_banks,
                              effective[end_positions].tolist()):
        bank_id = int(bank_id)
        if final < 0:
            open_rows.pop(bank_id, None)
            bank_rows[bank_id] = None
        else:
            open_rows[bank_id] = int(final)
            bank_rows[bank_id] = int(final)

    counts = {Command.ACT: n_act, Command.PRE: n_pre,
              Command.RD: reads, Command.WR: n_access - reads,
              Command.REF: refreshes}
    # int * float in Python mirrors the scalar per-record time product
    # bit for bit (multiplication by a positive period is monotone, so
    # the max cycle carries the max time).
    last_time = int(cycles.max()) * period
    accumulator.absorb_batch(counts, row_hits=n_access - n_act,
                             commands=n + n_act + n_pre,
                             last_time=last_time, bank_rows=bank_rows)


# ----------------------------------------------------------------------
# Streaming drivers.
# ----------------------------------------------------------------------
class ColumnarReplayer:
    """Batched replay of one trace stream into a
    :class:`TraceAccumulator`, with scalar fallbacks per batch.

    Feed byte blocks or line batches with :meth:`feed`; the replayer
    tracks global line numbers (for exact error parity), carries the
    open-row register across batches and across any scalar-fallback
    batch, and optionally masks to a (channel, rank) shard set.
    """

    def __init__(self, accumulator: TraceAccumulator, fmt: str,
                 decoder: AddressDecoder, clock: float,
                 source: str = "<trace>",
                 shards: Optional[FrozenSet[int]] = None):
        if _np is None:
            raise TraceError("columnar replay requires numpy "
                             "(the repro[vector] extra)", 0.0, None)
        if accumulator.strict:
            raise TraceError(
                "columnar replay requires strict=False", 0.0, None)
        if clock <= 0:
            raise ValueError("clock must be positive")
        self.accumulator = accumulator
        self.fmt = fmt
        self.decoder = decoder
        self.period = 1.0 / clock
        self.clock = clock
        self.source = source
        self.shards = shards
        self.open_rows: Dict[int, int] = {}
        self._next_line = 1

    def feed(self, batch: Union[bytes, Sequence[str]]) -> None:
        """Parse and fold one batch: a byte block of whole lines or a
        sequence of text lines (see :func:`parse_columns`)."""
        start = self._next_line
        try:
            columns = parse_columns(batch, self.fmt,
                                    source=self.source, start=start)
        except _ColumnarOverflow:
            lines = (_decode_block(batch) if isinstance(batch, bytes)
                     else batch)
            self._next_line += len(lines)
            self._feed_scalar(lines, start)
            return
        self._next_line += columns.lines
        fold_columns(self.accumulator, columns, self.decoder,
                     self.period, self.open_rows, shards=self.shards)

    def _feed_scalar(self, lines: Sequence[str], start: int) -> None:
        """Replay one batch through the scalar pipeline, sharing the
        open-row register so the streams splice exactly."""
        from .ingest import commands_from_records
        records: Iterable[TraceRecord] = iter_records(
            iter(lines), self.fmt, source=self.source, start=start)
        if self.shards is not None:
            wanted = self.shards
            records = (record for record in records
                       if self.decoder.shard_of(record.address)
                       in wanted)
        self.accumulator.feed(commands_from_records(
            records, self.decoder, self.clock,
            open_rows=self.open_rows))


def iter_blocks(stream: BinaryIO) -> Iterator[bytes]:
    """Cut a binary stream into blocks of whole lines.

    Reads :data:`BLOCK_BYTES` at a time and cuts each read just after
    its last ``\n``; the remainder carries into the next block, so
    only the final block can end without a newline.
    """
    carry = b""
    while True:
        data = stream.read(BLOCK_BYTES)
        if not data:
            break
        cut = data.rfind(b"\n") + 1
        if cut == 0:
            carry += data
            continue
        yield b"".join((carry, memoryview(data)[:cut]))
        carry = data[cut:]
    if carry:
        yield carry


def replay_bytes_columnar(accumulator: TraceAccumulator,
                          stream: BinaryIO, fmt: str,
                          decoder: AddressDecoder, clock: float,
                          source: str = "<trace>",
                          shards: Optional[FrozenSet[int]] = None
                          ) -> TraceAccumulator:
    """Drive a binary trace stream — the ``.buffer`` of
    :func:`~repro.trace.formats.open_trace_lines` — through the
    columnar replayer one byte block at a time."""
    replayer = ColumnarReplayer(accumulator, fmt, decoder, clock,
                                source=source, shards=shards)
    for block in iter_blocks(stream):
        replayer.feed(block)
    return accumulator


def replay_records_columnar(accumulator: TraceAccumulator,
                            records: Iterable[TraceRecord],
                            decoder: AddressDecoder, clock: float,
                            batch_records: int = RECORDS_PER_BATCH
                            ) -> TraceAccumulator:
    """Fold an already-parsed record stream in columnar batches."""
    if _np is None:
        raise TraceError("columnar replay requires numpy "
                         "(the repro[vector] extra)", 0.0, None)
    if accumulator.strict:
        raise TraceError(
            "columnar replay requires strict=False", 0.0, None)
    if clock <= 0:
        raise ValueError("clock must be positive")
    period = 1.0 / clock
    open_rows: Dict[int, int] = {}
    batch: List[TraceRecord] = []

    def flush() -> None:
        try:
            columns = _columns_from_records(batch)
        except _ColumnarOverflow:
            from .ingest import commands_from_records
            accumulator.feed(commands_from_records(
                iter(batch), decoder, clock, open_rows=open_rows))
            return
        fold_columns(accumulator, columns, decoder, period, open_rows)

    for record in records:
        batch.append(record)
        if len(batch) >= batch_records:
            flush()
            batch = []
    if batch:
        flush()
    return accumulator


# ----------------------------------------------------------------------
# Backend choice.
# ----------------------------------------------------------------------
#: Trace files below this size (bytes) never leave the serial path
#: under ``backend="auto"`` without numpy: forking workers costs more
#: than replaying a small file.
MIN_PROCESS_BYTES = 4 * 1024 * 1024


def choose_trace_backend(strict: bool, shards: int = 1,
                         jobs: Optional[int] = None,
                         size_bytes: Optional[int] = None) -> str:
    """The serial/vector/process decision behind ``backend="auto"``.

    Strict replay is always serial (per-command timing legality).
    With numpy present the columnar kernel wins on any host — it
    folds in-process, needs no fork and measured ~15× over scalar —
    so auto picks ``vector``.  Without numpy, rank-sharded process
    replay is the only speedup left; it pays one whole-file parse per
    worker, so it is chosen only when there are real shards, usable
    workers and enough trace to amortize (``size_bytes`` ≥
    :data:`MIN_PROCESS_BYTES`).  Everything else stays serial.
    """
    if strict:
        return "serial"
    if columnar_available():
        return "vector"
    record_downgrade()
    from ..engine.executor import default_jobs
    workers = jobs if jobs is not None else default_jobs()
    if (shards > 1 and workers > 1
            and size_bytes is not None
            and size_bytes >= MIN_PROCESS_BYTES):
        return "process"
    return "serial"
