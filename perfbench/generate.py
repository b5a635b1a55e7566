"""Workload inputs, made from the seed alone.

The same seed gives byte-identical inputs; nothing here imports the program,
so the inputs do not move when the program does.
"""

from __future__ import annotations

import gzip
import itertools
import json
import random
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

# ----------------------------------------------------------------------
# evaluate-mix: builder-key device specs with Zipf-like popularity.
# ----------------------------------------------------------------------

#: Roadmap grid the catalogue is drawn from: node (nm), interface,
#: log2 of the node's mainstream density, and the interface's data rates.
_GRID: Tuple[Tuple[int, str, int, Tuple[int, ...]], ...] = (
    (170, "SDR", 27, (83000000, 124500000, 166000000)),
    (140, "DDR", 28, (166500000, 249750000, 333000000)),
    (110, "DDR", 29, (200000000, 300000000, 400000000)),
    (90, "DDR2", 29, (400000000, 533000000, 667000000, 800000000)),
    (75, "DDR2", 30, (400000000, 533000000, 667000000, 800000000)),
    (65, "DDR3", 30, (800000000, 1066000000, 1333000000, 1600000000,
                      1866000000)),
    (55, "DDR3", 31, (800000000, 1066000000, 1333000000, 1600000000,
                      1866000000)),
    (44, "DDR3", 32, (800000000, 1066000000, 1333000000, 1600000000,
                      1866000000)),
    (36, "DDR4", 32, (2400000000, 3200000000)),
    (31, "DDR4", 33, (2400000000, 3200000000)),
    (25, "DDR4", 33, (2400000000, 3200000000)),
    (21, "DDR5", 34, (4800000000, 6400000000)),
    (18, "DDR5", 34, (4800000000, 6400000000)),
    (16, "DDR5", 34, (4800000000, 6400000000)),
)

IO_WIDTHS = (4, 8, 16, 32)

#: Densities relative to the node's mainstream part, as log2 offsets.
DENSITY_SHIFTS = (-2, -1, 0, 1)

#: Command loops some requests carry; the rest use the device default.
#: These are the loops the repository itself documents: the example request
#: of docs/SERVICE.md, and the default loop of ``repro pattern`` and
#: examples/quickstart.py.
PATTERNS = (
    "rd nop nop nop",
    "act nop wrt nop rd nop pre nop",
)

# The repository holds no request log and no documented caller mix, so the
# two figures below are assumptions, not measurements.  The cache figures of
# the traced run (result- and model-cache hit ratios, fingerprint calls per
# request, misses per request) and the share of cold builds in the latency
# tail follow from them; see perfbench/README.md.

#: Share of requests that carry a pattern string (assumed).
PATTERN_SHARE = 0.3

#: Exponent of the Zipf-like popularity over catalogue ranks (assumed).
ZIPF_EXPONENT = 1.0


def device_catalogue() -> List[Dict[str, object]]:
    """Every builder-key spec of the grid (704 entries: several times the
    256-entry model and result caches)."""
    catalogue = []
    for node, interface, log2_density, rates in _GRID:
        for datarate, io_width, shift in itertools.product(
                rates, IO_WIDTHS, DENSITY_SHIFTS):
            catalogue.append({"node": node, "interface": interface,
                              "io_width": io_width, "datarate": datarate,
                              "density_bits": 1 << (log2_density + shift)})
    return catalogue


def request_bodies(seed: int, count: int) -> List[bytes]:
    """``count`` ``POST /evaluate`` bodies drawn with Zipf-like popularity.

    The seed fixes which catalogue entries are popular, the draw order and
    which requests carry a pattern.
    """
    rng = random.Random(f"evaluate-mix:{seed}")
    catalogue = device_catalogue()
    rng.shuffle(catalogue)  # rank order: the seed picks the hot devices
    weights = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(catalogue))))
    bodies = []
    for spec in rng.choices(catalogue, cum_weights=weights, k=count):
        payload: Dict[str, object] = {"device": spec}
        if rng.random() < PATTERN_SHARE:
            payload["pattern"] = rng.choice(PATTERNS)
        bodies.append(json.dumps(payload, sort_keys=True).encode("utf-8"))
    return bodies


# ----------------------------------------------------------------------
# sweep-campaign: one library campaign per spec.
# ----------------------------------------------------------------------

#: Base nodes whose Vint sits at least five sigma of the Monte-Carlo
#: voltage draw below Vdd, so no sample is an invalid description.
CAMPAIGN_NODES = (170, 140, 110, 75, 44, 25, 18)

CAMPAIGN_IO_WIDTHS = (8, 16)


class CampaignSpec(NamedTuple):
    node: int
    io_width: int
    mc_seed: int


def campaign_specs(seed: int, count: int) -> List[CampaignSpec]:
    """``count`` campaigns: base device and Monte-Carlo seed of each."""
    rng = random.Random(f"sweep-campaign:{seed}")
    return [CampaignSpec(rng.choice(CAMPAIGN_NODES),
                         rng.choice(CAMPAIGN_IO_WIDTHS),
                         rng.getrandbits(32))
            for _ in range(count)]


# ----------------------------------------------------------------------
# trace-replay: a gzipped k6 trace shaped like benchmarks/smoke_trace.py.
# ----------------------------------------------------------------------

#: Transactions per trace; open-page expansion takes the replay past one
#: million DRAM commands.
TRANSACTIONS = 400_000

#: A refresh record follows every this many transactions.
REFRESH_EVERY = 50_000

#: Lines of the prefix replayed on the serial oracle: more than two
#: 65,536-line columnar batches, so the check crosses batch boundaries.
PREFIX_LINES = 140_000

_CHUNK = 10_000


def write_trace(path: Path, prefix_path: Path, seed: int,
                address_bits: int,
                transactions: int = TRANSACTIONS,
                prefix_lines: int = PREFIX_LINES) -> int:
    """Write the trace and its first ``prefix_lines`` lines as two gzipped
    k6 files; returns the number of records (lines) in the full trace.

    Addresses are uniform over ``address_bits``, so every (channel, rank)
    shard sees traffic.  An empty name and ``mtime=0`` in the gzip header
    keep the bytes a function of the seed alone.  Lines are written a chunk
    at a time, so the trace is never held in memory.
    """
    rng = random.Random(f"trace-replay:{seed}")
    written = 0
    with open(path, "wb") as raw, open(prefix_path, "wb") as raw_prefix, \
            _gzip(raw) as out, _gzip(raw_prefix) as prefix:
        for start in range(0, transactions, _CHUNK):
            lines = []
            for i in range(start, min(start + _CHUNK, transactions)):
                address = rng.getrandbits(address_bits)
                op = "P_MEM_WR" if rng.random() < 1.0 / 3.0 else "P_MEM_RD"
                lines.append(f"0x{address:X} {op} {i * 16}\n")
                if i % REFRESH_EVERY == REFRESH_EVERY - 1:
                    lines.append(f"0x0 REF {i * 16 + 8}\n")
            out.write("".join(lines).encode("ascii"))
            if written < prefix_lines:
                head = lines[:prefix_lines - written]
                prefix.write("".join(head).encode("ascii"))
            written += len(lines)
    return written


def _gzip(raw) -> gzip.GzipFile:
    return gzip.GzipFile(filename="", fileobj=raw, mode="wb",
                         compresslevel=6, mtime=0)
