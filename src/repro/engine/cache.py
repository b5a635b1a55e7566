"""Bounded LRU cache of built power models, keyed by fingerprint.

Building a :class:`~repro.core.DramPowerModel` means resolving the
floorplan geometry, deriving the full charge-event list and folding it
into per-operation energies — by far the dominant cost of any sweep.
The cache memoises the *whole built model*: a hit returns the identical
object, so repeated evaluations of equal descriptions share geometry,
events and energies bit-for-bit.

The cache is thread-safe (a single lock around the table) so an
:class:`~repro.engine.session.EvaluationSession` can hand it to a
thread pool, and bounded (least-recently-used eviction) so open-ended
sweeps cannot grow memory without limit.

Two extensions feed the scale-out paths:

* an optional :class:`~repro.engine.diskcache.DiskModelCache` is
  consulted on every LRU miss and written on every cold build, so
  repeated processes (CLI runs, CI jobs, pool workers) skip cold
  builds entirely — a disk hit counts as a *hit* in the statistics,
  since no model was built;
* :meth:`ModelCache.absorb` folds the counter deltas of per-worker
  caches back into the parent, so a process-backend sweep reports one
  coherent :class:`EngineStats` line.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from ..core import ChargeEvent, DramPowerModel
from ..description import DramDescription
from ..errors import ModelError
from .diskcache import DiskModelCache
from .fingerprint import fingerprint
from .stages import (DEFAULT_STAGE_CAPACITY, STAGE_ORDER, StageCache,
                     build_model, seed_stage_cache, stage_payload)

#: Default number of built models kept alive.
DEFAULT_CAPACITY = 256


@dataclass(frozen=True)
class EngineStats:
    """Snapshot of one cache's counters (all cumulative)."""

    hits: int
    """Lookups answered from the in-memory cache."""
    misses: int
    """Lookups that had to build a model (cold builds)."""
    evictions: int
    """Models dropped by the LRU bound."""
    size: int
    """Models currently held — an occupancy gauge, not a counter:
    merges across worker caches take the maximum, never the sum."""
    capacity: int
    """Maximum models held."""
    build_seconds: float
    """Total wall-clock time spent building models (s)."""
    disk_hits: int = 0
    """LRU misses answered by the on-disk cache (no build needed)."""
    disk_misses: int = 0
    """LRU misses the on-disk cache could not answer either."""
    disk_writes: int = 0
    """Cold builds persisted to the on-disk cache."""
    disk_corrupt: int = 0
    """Disk entries skipped as corrupt or stale (treated as misses)."""
    pool_retries: int = 0
    """Process-backend chunks re-dispatched to a fresh pool after a
    worker died (crash/kill) mid-sweep."""
    serial_fallbacks: int = 0
    """Process-backend chunks degraded to in-parent serial evaluation
    after the fresh-pool retry died too."""
    stage_hits: int = 0
    """Pipeline stages reused from the stage cache during cold model
    builds (geometry/capacitance/charge/current/power granularity)."""
    stage_misses: int = 0
    """Pipeline stages that had to be computed during cold builds."""
    shm_stores: int = 0
    """Shared-memory stage payloads published for pool workers."""
    shm_loads: int = 0
    """Worker stage caches seeded from a shared-memory payload."""
    shm_errors: int = 0
    """Shared-memory store/attach attempts that failed (the sweep
    falls back to per-worker cold builds; results are unaffected)."""
    vector_batches: int = 0
    """Sweep-family batches folded columnarly by the vectorized
    kernel (one batch = one (variants × events) array fold)."""
    vector_builds: int = 0
    """Models assembled from vector-folded energies instead of a
    scalar cold build."""
    vector_fallbacks: int = 0
    """Devices a vectorized call routed back through the scalar
    path (structure too small or not batchable); results identical."""
    vector_downgrades: int = 0
    """One-time marker: a vector-eligible call found numpy missing
    and the whole session degraded to the scalar path (0 or 1)."""
    vector_seconds: float = 0.0
    """Total wall-clock time spent in the columnar kernel (s)."""

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return (self.hits + self.disk_hits + self.misses
                + self.vector_builds)

    @property
    def hit_rate(self) -> float:
        """Lookups answered without a cold build; 0.0 before the
        first lookup.  Disk hits count — no model was built."""
        if not self.lookups:
            return 0.0
        return (self.hits + self.disk_hits) / self.lookups

    @property
    def stage_lookups(self) -> int:
        """Total stage-cache lookups during cold builds."""
        return self.stage_hits + self.stage_misses

    @property
    def stage_hit_rate(self) -> float:
        """Pipeline stages reused instead of recomputed; 0.0 before
        the first cold build."""
        if not self.stage_lookups:
            return 0.0
        return self.stage_hits / self.stage_lookups

    def __str__(self) -> str:
        text = (f"hits={self.hits} misses={self.misses} "
                f"hit-rate={self.hit_rate:.1%} size={self.size}/"
                f"{self.capacity} build-time={self.build_seconds:.3f}s")
        if self.stage_hits or self.stage_misses:
            text += (f" stages[hits={self.stage_hits} "
                     f"misses={self.stage_misses} "
                     f"hit-rate={self.stage_hit_rate:.1%}]")
        if (self.disk_hits or self.disk_misses or self.disk_writes
                or self.disk_corrupt):
            text += (f" disk[hits={self.disk_hits} "
                     f"misses={self.disk_misses} "
                     f"writes={self.disk_writes} "
                     f"corrupt={self.disk_corrupt}]")
        if self.shm_stores or self.shm_loads or self.shm_errors:
            text += (f" shm[stores={self.shm_stores} "
                     f"loads={self.shm_loads} "
                     f"errors={self.shm_errors}]")
        if (self.vector_batches or self.vector_builds
                or self.vector_fallbacks or self.vector_downgrades):
            text += (f" vector[batches={self.vector_batches} "
                     f"builds={self.vector_builds} "
                     f"fallbacks={self.vector_fallbacks} "
                     f"downgrades={self.vector_downgrades} "
                     f"time={self.vector_seconds:.3f}s]")
        if self.pool_retries or self.serial_fallbacks:
            text += (f" faults[pool-retries={self.pool_retries} "
                     f"serial-fallbacks={self.serial_fallbacks}]")
        return text

    @classmethod
    def from_dict(cls, payload) -> "EngineStats":
        """Rebuild a snapshot from a JSON-ish mapping.

        Accepts the ``engine`` payload of ``GET /stats`` verbatim:
        unknown keys (derived properties like ``hit_rate``) are
        ignored and missing counters default, so snapshots survive a
        round trip through older or newer wire formats.  Malformed
        values raise ``TypeError``/``ValueError`` for the caller.
        """
        fields = {field.name for field in dataclasses.fields(cls)}
        kwargs = {key: value for key, value in dict(payload).items()
                  if key in fields}
        for key in ("hits", "misses", "evictions", "size", "capacity",
                    "build_seconds"):
            kwargs.setdefault(key, 0)
        return cls(**kwargs)

    def delta(self, since: "EngineStats") -> "EngineStats":
        """The counter growth between ``since`` and this snapshot.

        ``size``/``capacity`` are states, not counters; the delta
        keeps this snapshot's values.  Used to report exactly the work
        one sweep (or one worker chunk) performed.
        """
        return EngineStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            evictions=self.evictions - since.evictions,
            size=self.size,
            capacity=self.capacity,
            build_seconds=self.build_seconds - since.build_seconds,
            disk_hits=self.disk_hits - since.disk_hits,
            disk_misses=self.disk_misses - since.disk_misses,
            disk_writes=self.disk_writes - since.disk_writes,
            disk_corrupt=self.disk_corrupt - since.disk_corrupt,
            pool_retries=self.pool_retries - since.pool_retries,
            serial_fallbacks=(self.serial_fallbacks
                              - since.serial_fallbacks),
            stage_hits=self.stage_hits - since.stage_hits,
            stage_misses=self.stage_misses - since.stage_misses,
            shm_stores=self.shm_stores - since.shm_stores,
            shm_loads=self.shm_loads - since.shm_loads,
            shm_errors=self.shm_errors - since.shm_errors,
            vector_batches=self.vector_batches - since.vector_batches,
            vector_builds=self.vector_builds - since.vector_builds,
            vector_fallbacks=(self.vector_fallbacks
                              - since.vector_fallbacks),
            vector_downgrades=(self.vector_downgrades
                               - since.vector_downgrades),
            vector_seconds=self.vector_seconds - since.vector_seconds,
        )


def merge_stats(left: EngineStats, right: EngineStats) -> EngineStats:
    """Counter-wise sum of two snapshots (or deltas).

    ``size`` is an occupancy *gauge*, not a counter: N caches each
    holding k models do not hold N·k models between them from any one
    cache's point of view, so the merge takes the maximum occupancy
    and keeps the left (first) operand's configured capacity.  Shared
    by the process-backend chunk merge and the multi-worker service's
    cluster ``/stats`` (which overrides ``capacity`` with the fleet
    total it computes itself).
    """
    return EngineStats(
        hits=left.hits + right.hits,
        misses=left.misses + right.misses,
        evictions=left.evictions + right.evictions,
        size=max(left.size, right.size),
        capacity=left.capacity,
        build_seconds=left.build_seconds + right.build_seconds,
        disk_hits=left.disk_hits + right.disk_hits,
        disk_misses=left.disk_misses + right.disk_misses,
        disk_writes=left.disk_writes + right.disk_writes,
        disk_corrupt=left.disk_corrupt + right.disk_corrupt,
        pool_retries=left.pool_retries + right.pool_retries,
        serial_fallbacks=left.serial_fallbacks + right.serial_fallbacks,
        stage_hits=left.stage_hits + right.stage_hits,
        stage_misses=left.stage_misses + right.stage_misses,
        shm_stores=left.shm_stores + right.shm_stores,
        shm_loads=left.shm_loads + right.shm_loads,
        shm_errors=left.shm_errors + right.shm_errors,
        vector_batches=left.vector_batches + right.vector_batches,
        vector_builds=left.vector_builds + right.vector_builds,
        vector_fallbacks=left.vector_fallbacks + right.vector_fallbacks,
        vector_downgrades=max(left.vector_downgrades,
                              right.vector_downgrades),
        vector_seconds=left.vector_seconds + right.vector_seconds,
    )


class ModelCache:
    """LRU-memoised construction of :class:`DramPowerModel` instances."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 disk: Optional[DiskModelCache] = None):
        if capacity <= 0:
            raise ModelError("cache capacity must be positive")
        self.capacity = capacity
        self.disk = disk
        self._models: "OrderedDict[str, DramPowerModel]" = OrderedDict()
        #: Keys whose LRU entry the vector kernel folded.  Its sums run
        #: in another order (~1e-15 relative), so scalar lookups rebuild
        #: those instead of reusing them: serial results never depend on
        #: what a vector sweep left in the cache.
        self._folded: set = set()
        self._lock = threading.Lock()
        self.stages = StageCache(
            max(DEFAULT_STAGE_CAPACITY, capacity * len(STAGE_ORDER)))
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._build_seconds = 0.0
        self._disk_hits = 0
        self._disk_misses = 0
        self._disk_writes = 0
        self._disk_corrupt = 0
        self._pool_retries = 0
        self._serial_fallbacks = 0
        self._stage_hits_extra = 0
        self._stage_misses_extra = 0
        self._shm_stores = 0
        self._shm_loads = 0
        self._shm_errors = 0
        self._vector_batches = 0
        self._vector_builds = 0
        self._vector_fallbacks = 0
        self._vector_downgrades = 0
        self._vector_seconds = 0.0

    def __len__(self) -> int:
        return len(self._models)

    # ------------------------------------------------------------------
    # Vectorized-kernel hooks.  The columnar kernel wants the raw LRU —
    # consult it per device, then store whole folded batches — without
    # triggering the scalar cold-build path of :meth:`model`.
    # ------------------------------------------------------------------
    def lookup(self, device: DramDescription
               ) -> Tuple[str, Optional[DramPowerModel]]:
        """``(fingerprint, cached model or None)`` — LRU probe only.

        A hit — scalar-built or folded — counts as a hit; a miss
        counts *nothing* here — the kernel either folds the model
        (counted as ``vector_builds`` via :meth:`record_vector`) or
        falls back to :meth:`model`, which does its own accounting.
        The disk cache is not consulted: vector-built models are
        cheaper to refold than to round-trip through pickle.
        """
        key = fingerprint(device)
        with self._lock:
            cached = self._models.get(key)
            if cached is not None:
                self._hits += 1
                self._models.move_to_end(key)
        return key, cached

    def store_built(self, key: str,
                    model: DramPowerModel) -> DramPowerModel:
        """Insert a vector-folded model under ``key``.

        Keeps the first copy on a race (hits stay identity-stable)
        and returns the canonical instance.  Folded models serve later
        vector lookups only (see :meth:`model`) and are not written to
        the disk cache — see :meth:`lookup`.
        """
        with self._lock:
            racing = self._models.get(key)
            if racing is not None:
                self._models.move_to_end(key)
                return racing
            self._models[key] = model
            self._folded.add(key)
            self._evict()
        return model

    def _evict(self) -> None:
        """Drop least-recently-used models beyond the capacity (locked)."""
        while len(self._models) > self.capacity:
            key, _ = self._models.popitem(last=False)
            self._folded.discard(key)
            self._evictions += 1

    def record_vector(self, batches: int = 0, builds: int = 0,
                      fallbacks: int = 0, seconds: float = 0.0) -> None:
        """Count columnar-kernel work (batches folded, models built,
        scalar fallbacks, kernel wall-clock)."""
        with self._lock:
            self._vector_batches += batches
            self._vector_builds += builds
            self._vector_fallbacks += fallbacks
            self._vector_seconds += seconds

    def record_vector_downgrade(self) -> None:
        """Set the one-time numpy-missing downgrade marker."""
        with self._lock:
            self._vector_downgrades = 1

    # ------------------------------------------------------------------
    def model(self, device: DramDescription,
              events: Optional[Tuple[ChargeEvent, ...]] = None
              ) -> DramPowerModel:
        """The built model of ``device``, from cache when possible.

        Lookup order: in-memory LRU, then the disk cache (when
        configured), then a cold build — which is persisted to disk so
        the *next* process hits.  A vector-folded LRU entry does not
        answer here: it is rebuilt on the scalar path and replaced, so
        the result equals a fresh serial session's bit for bit.

        With ``events`` given
        (scheme-transformed charge lists) the returned model is built
        fresh around those events — it is never cached, since events
        are not part of the key — but it still reuses the cached
        model's resolved geometry.
        """
        key = fingerprint(device)
        with self._lock:
            cached = self._models.get(key)
            if cached is not None and key in self._folded:
                cached = None
            if cached is not None:
                self._hits += 1
                self._models.move_to_end(key)
        if cached is None:
            loaded = self.disk.load(key) if self.disk is not None else None
            elapsed = 0.0
            if loaded is None:
                started = time.perf_counter()
                built = build_model(device, self.stages)
                elapsed = time.perf_counter() - started
            else:
                built = loaded
                payload = stage_payload(device, loaded)
                if payload is not None:
                    # Disk-loaded stages feed later incremental builds.
                    seed_stage_cache(self.stages, payload)
            stored_fresh = False
            with self._lock:
                if loaded is not None:
                    self._disk_hits += 1
                else:
                    self._misses += 1
                    self._build_seconds += elapsed
                    if self.disk is not None:
                        self._disk_misses += 1
                racing = self._models.get(key)
                if racing is not None and key not in self._folded:
                    # Another thread built it first; keep one canonical
                    # model so hits stay identity-stable.
                    cached = racing
                    self._models.move_to_end(key)
                else:
                    cached = built
                    self._models[key] = cached
                    self._models.move_to_end(key)
                    self._folded.discard(key)
                    stored_fresh = loaded is None
                    self._evict()
            if stored_fresh and self.disk is not None:
                if self.disk.store(key, cached):
                    with self._lock:
                        self._disk_writes += 1
        if events is None:
            return cached
        return DramPowerModel(device, events=events,
                              geometry=cached.geometry)

    # ------------------------------------------------------------------
    def absorb(self, worker_stats: EngineStats) -> None:
        """Fold a worker cache's counter *delta* into this cache.

        Process-backend workers build models in their own caches; the
        executor snapshots their counters per chunk and merges them
        here, so the parent session's statistics describe the whole
        sweep.  ``size``/``capacity`` stay the parent's own.
        """
        with self._lock:
            self._hits += worker_stats.hits
            self._misses += worker_stats.misses
            self._evictions += worker_stats.evictions
            self._build_seconds += worker_stats.build_seconds
            self._disk_hits += worker_stats.disk_hits
            self._disk_misses += worker_stats.disk_misses
            self._disk_writes += worker_stats.disk_writes
            self._disk_corrupt += worker_stats.disk_corrupt
            self._pool_retries += worker_stats.pool_retries
            self._serial_fallbacks += worker_stats.serial_fallbacks
            self._stage_hits_extra += worker_stats.stage_hits
            self._stage_misses_extra += worker_stats.stage_misses
            self._shm_stores += worker_stats.shm_stores
            self._shm_loads += worker_stats.shm_loads
            self._shm_errors += worker_stats.shm_errors
            self._vector_batches += worker_stats.vector_batches
            self._vector_builds += worker_stats.vector_builds
            self._vector_fallbacks += worker_stats.vector_fallbacks
            self._vector_downgrades = max(
                self._vector_downgrades, worker_stats.vector_downgrades)
            self._vector_seconds += worker_stats.vector_seconds

    def record_shm(self, stores: int = 0, loads: int = 0,
                   errors: int = 0) -> None:
        """Count shared-memory store/load/error events (executor hook)."""
        with self._lock:
            self._shm_stores += stores
            self._shm_loads += loads
            self._shm_errors += errors

    def stage_export(self, device: DramDescription):
        """Exportable stage payload of ``device`` (builds if needed).

        The payload is what the shared-memory store ships to pool
        workers; ``None`` when the model carries no canonical stage
        artifacts.
        """
        return stage_payload(device, self.model(device))

    def clear(self) -> None:
        """Drop every cached model and stage artifact (counters keep
        accumulating)."""
        with self._lock:
            self._models.clear()
            self._folded.clear()
        self.stages.clear()

    def stats(self) -> EngineStats:
        """A consistent snapshot of the counters."""
        corrupt = (self.disk.corrupt_entries
                   if self.disk is not None else 0)
        stage_hits, stage_misses = self.stages.counters()
        with self._lock:
            return EngineStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._models),
                capacity=self.capacity,
                build_seconds=self._build_seconds,
                disk_hits=self._disk_hits,
                disk_misses=self._disk_misses,
                disk_writes=self._disk_writes,
                disk_corrupt=self._disk_corrupt + corrupt,
                pool_retries=self._pool_retries,
                serial_fallbacks=self._serial_fallbacks,
                stage_hits=stage_hits + self._stage_hits_extra,
                stage_misses=stage_misses + self._stage_misses_extra,
                shm_stores=self._shm_stores,
                shm_loads=self._shm_loads,
                shm_errors=self._shm_errors,
                vector_batches=self._vector_batches,
                vector_builds=self._vector_builds,
                vector_fallbacks=self._vector_fallbacks,
                vector_downgrades=self._vector_downgrades,
                vector_seconds=self._vector_seconds,
            )
