"""External trace-file formats: k6, gem5/mase and NDJSON lines.

All three formats carry memory *transactions* — a physical address, an
operation and an integer cycle stamp — one per line:

``k6`` (DRAMSim2 / Kill-Llama)
    ``0x7FF2C8A0 P_MEM_RD 186`` — ops ``P_MEM_RD`` / ``P_FETCH`` /
    ``P_LOCK_RD`` read, ``P_MEM_WR`` / ``P_LOCK_WR`` write, plus plain
    ``READ`` / ``WRITE`` and the ``REF`` extension.

``mase`` (gem5 / mase)
    ``0x2971CFA0 IFETCH 62`` — ops ``IFETCH`` / ``READ`` read,
    ``WRITE`` write.

``jsonl``
    One JSON object per line: ``{"address": "0x100", "op": "read",
    "cycle": 4}`` (``address`` may be an integer).

Parsers stream lazily — they accept any line iterable and yield
:class:`TraceRecord` objects one at a time; malformed lines raise
:class:`TraceFormatError` with 1-based line numbers.  Gzip input is
handled transparently: by magic-byte sniffing for files
(:func:`open_trace_lines`) and by incremental decompression for byte
streams (:func:`iter_decompressed`).
"""

from __future__ import annotations

import gzip
import io
import json
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List

from ..core.trace import TraceError
from ..errors import ModelError


#: Canonical operation kinds carried by :class:`TraceRecord`.
KINDS = ("read", "write", "refresh")

#: k6 / DRAMSim2 operation vocabulary → canonical kind.
K6_OPS: Dict[str, str] = {
    "p_mem_rd": "read",
    "p_fetch": "read",
    "p_lock_rd": "read",
    "p_mem_wr": "write",
    "p_lock_wr": "write",
    "read": "read",
    "rd": "read",
    "write": "write",
    "wr": "write",
    "ref": "refresh",
    "refresh": "refresh",
}

#: gem5 / mase operation vocabulary → canonical kind.
MASE_OPS: Dict[str, str] = {
    "ifetch": "read",
    "read": "read",
    "write": "write",
    "ref": "refresh",
    "refresh": "refresh",
}


class TraceFormatError(TraceError):
    """A trace line failed to parse; carries its 1-based line number."""

    def __init__(self, message: str, line: int = 0,
                 source: str = "<trace>"):
        self.line = line
        self.source = source
        self.time = 0.0
        self.index = line
        ModelError.__init__(self, f"{source}:{line}: {message}")


@dataclass(frozen=True)
class TraceRecord:
    """One parsed transaction of an external trace."""

    address: int
    """Physical byte address."""
    kind: str
    """Canonical operation: ``read``, ``write`` or ``refresh``."""
    cycle: int
    """Integer cycle stamp from the trace line."""
    line: int = 0
    """1-based source line number (for error reporting)."""


def _skip(line: str) -> bool:
    stripped = line.strip()
    return not stripped or stripped.startswith(("#", ";", "//"))


def _parse_address(token: str, number: int, source: str) -> int:
    try:
        address = int(token, 16)
    except ValueError:
        raise TraceFormatError(f"bad address {token!r}", number, source)
    if address < 0:
        raise TraceFormatError(f"negative address {token!r}", number,
                               source)
    return address


def _parse_cycle(token: str, number: int, source: str) -> int:
    try:
        cycle = int(token, 0)
    except ValueError:
        raise TraceFormatError(f"bad cycle {token!r}", number, source)
    if cycle < 0:
        raise TraceFormatError(f"negative cycle {token!r}", number,
                               source)
    return cycle


def _iter_columns(lines: Iterable[str], ops: Dict[str, str],
                  source: str, start: int = 1) -> Iterator[TraceRecord]:
    for number, line in enumerate(lines, start=start):
        if _skip(line):
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise TraceFormatError(
                f"expected '<address> <op> <cycle>', got {line.strip()!r}",
                number, source,
            )
        kind = ops.get(tokens[1].lower())
        if kind is None:
            raise TraceFormatError(f"unknown operation {tokens[1]!r}",
                                   number, source)
        yield TraceRecord(
            address=_parse_address(tokens[0], number, source),
            kind=kind,
            cycle=_parse_cycle(tokens[2], number, source),
            line=number,
        )


def iter_k6(lines: Iterable[str], source: str = "<trace>",
            start: int = 1) -> Iterator[TraceRecord]:
    """Parse k6 / DRAMSim2 trace lines lazily.

    ``start`` is the 1-based source line number of the first line —
    batch parsers hand line windows here with their global offset so
    error messages keep whole-file line numbers.
    """
    return _iter_columns(lines, K6_OPS, source, start=start)


def iter_mase(lines: Iterable[str], source: str = "<trace>",
              start: int = 1) -> Iterator[TraceRecord]:
    """Parse gem5 / mase trace lines lazily."""
    return _iter_columns(lines, MASE_OPS, source, start=start)


def iter_jsonl(lines: Iterable[str], source: str = "<trace>",
               start: int = 1) -> Iterator[TraceRecord]:
    """Parse NDJSON trace lines lazily."""
    for number, line in enumerate(lines, start=start):
        if _skip(line):
            continue
        try:
            payload = json.loads(line)
        except ValueError:
            raise TraceFormatError("line is not valid JSON", number,
                                   source)
        if not isinstance(payload, dict):
            raise TraceFormatError("line is not a JSON object", number,
                                   source)
        address = payload.get("address", payload.get("addr"))
        if isinstance(address, str):
            address = _parse_address(address, number, source)
        if not isinstance(address, int) or address < 0:
            raise TraceFormatError("missing or bad 'address'", number,
                                   source)
        op = str(payload.get("op", payload.get("kind", ""))).lower()
        kind = K6_OPS.get(op)
        if kind is None:
            raise TraceFormatError(f"unknown operation {op!r}", number,
                                   source)
        cycle = payload.get("cycle", payload.get("time"))
        if not isinstance(cycle, int) or cycle < 0:
            raise TraceFormatError("missing or bad 'cycle'", number,
                                   source)
        yield TraceRecord(address=address, kind=kind, cycle=cycle,
                          line=number)


#: Registered line parsers by format name.
FORMATS = {
    "k6": iter_k6,
    "mase": iter_mase,
    "jsonl": iter_jsonl,
}


def detect_format(line: str) -> str:
    """Best-effort format guess from the first payload line."""
    stripped = line.strip()
    if stripped.startswith("{"):
        return "jsonl"
    tokens = stripped.split()
    if len(tokens) == 3 and tokens[1].lower() in ("ifetch",):
        return "mase"
    return "k6"


def iter_records(lines: Iterable[str], fmt: str,
                 source: str = "<trace>",
                 start: int = 1) -> Iterator[TraceRecord]:
    """Dispatch to the parser registered for ``fmt``."""
    parser = FORMATS.get(fmt)
    if parser is None:
        known = ", ".join(sorted(FORMATS))
        raise TraceFormatError(f"unknown trace format {fmt!r} "
                               f"(known: {known})", 0, source)
    return parser(lines, source=source, start=start)


# ----------------------------------------------------------------------
# Byte-stream plumbing (files and chunked uploads).

def open_trace_lines(path) -> io.TextIOWrapper:
    """Open a trace file as text lines, gunzipping when the gzip magic
    (or a ``.gz`` suffix) is present.  Caller closes the handle."""
    raw = open(path, "rb")
    magic = raw.read(2)
    raw.seek(0)
    if magic == b"\x1f\x8b" or str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.GzipFile(fileobj=raw),
                                encoding="utf-8", errors="replace")
    return io.TextIOWrapper(raw, encoding="utf-8", errors="replace")


def iter_decompressed(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """Incrementally gunzip a byte-chunk stream (constant memory).

    Handles multi-member gzip streams (members are concatenated).
    """
    decomp = zlib.decompressobj(16 + zlib.MAX_WBITS)
    for chunk in chunks:
        data = bytes(chunk)
        while data:
            out = decomp.decompress(data)
            if out:
                yield out
            if decomp.eof:
                data = decomp.unused_data
                decomp = zlib.decompressobj(16 + zlib.MAX_WBITS)
            else:
                data = b""
    tail = decomp.flush()
    if tail:
        yield tail


def iter_lines(chunks: Iterable[bytes]) -> Iterator[str]:
    """Split a byte-chunk stream into text lines (constant memory).

    Each chunk is split once; only its unterminated tail carries into
    the next chunk, so the cost stays linear in the chunk size.
    """
    pending: List[bytes] = []
    for chunk in chunks:
        pending.append(chunk)
        if b"\n" not in chunk:
            continue
        lines = b"".join(pending).split(b"\n")
        pending = [lines.pop()]
        for line in lines:
            yield line.decode("utf-8", "replace")
    tail = b"".join(pending)
    if tail:
        yield tail.decode("utf-8", "replace")
