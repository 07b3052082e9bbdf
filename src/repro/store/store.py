"""The durable segmented audit store.

:class:`AuditStore` turns a directory into a crash-safe, append-only
audit log:

- appends go to one bounded **active segment** (length-prefixed, CRC32'd
  records — :mod:`repro.store.codec`), rotated by size or entry count;
- sealed segments are immutable and listed in ``MANIFEST.json``, replaced
  atomically (:mod:`repro.store.manifest`); a seal fsyncs the segment and
  commits the manifest, nothing else;
- each sealed segment's hash + sparse-time index (:mod:`repro.store.index`)
  stays in memory and reaches its sidecar file at ``close()``; a sidecar
  is a cache that a reopened store checks against the manifest and
  rebuilds from the segment when it is missing, torn or stale;
- opening an existing directory runs **recovery**: the active segment is
  scanned record-by-record and a torn tail (a crash mid-write) is
  truncated back to the last checksum-valid frame, so every fully
  committed entry survives and nothing partial is ever surfaced;
- the **fsync policy** trades durability for throughput: ``always``
  fsyncs every append, ``interval`` every N appends (and on seal/close),
  ``off`` leaves flushing to the OS.  Seals, compactions and manifest
  replacements are always durable regardless of policy.

Reads stream segment-at-a-time — memory stays proportional to one
segment, never the log — and window scans / point lookups use the
per-segment indexes to skip data.  One process should own a store
directory at a time; concurrent writers are not arbitrated.
"""

from __future__ import annotations

import logging
import os
import weakref
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from repro.audit.entry import AuditEntry
from repro.errors import AuditError, StoreError
from repro.obs.runtime import get_registry
from repro.store.codec import HEADER_SIZE, SEGMENT_HEADER, RecordMemo
from repro.store.index import (
    DEFAULT_TIME_STRIDE,
    INDEXED_ATTRIBUTES,
    IndexBuilder,
    SegmentIndex,
    build_index,
    index_path,
    load_index,
    save_index,
)
from repro.store.manifest import (
    Manifest,
    SegmentMeta,
    load_manifest,
    manifest_path,
    save_manifest,
)
from repro.store.segment import (
    SegmentWriter,
    iter_segment,
    read_record_at,
    scan_segment,
    segment_name,
)
from repro.vocab.tree import canonical

def _listener_failed(listener, event) -> None:
    """Log a store listener's failure: it must not poison the write path
    (the append or seal it observed is already committed)."""
    logging.getLogger("repro.store").exception(
        "store listener %r failed on %r", listener, event
    )


#: Valid values of :attr:`StoreConfig.fsync`.
FSYNC_POLICIES: tuple[str, ...] = ("always", "interval", "off")


@dataclass(frozen=True)
class StoreConfig:
    """Tunables of one :class:`AuditStore`.

    ``fsync`` picks the durability policy (see the module docstring);
    ``fsync_interval`` is the append count between fsyncs under
    ``interval``.  Rotation seals the active segment when either bound is
    reached.  ``time_index_stride`` controls how sparse the per-segment
    time index is (one probe point every N records).
    """

    max_segment_bytes: int = 4 * 1024 * 1024
    max_segment_entries: int = 100_000
    fsync: str = "interval"
    fsync_interval: int = 256
    time_index_stride: int = DEFAULT_TIME_STRIDE

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_POLICIES:
            raise StoreError(
                f"unknown fsync policy {self.fsync!r} (choose from {FSYNC_POLICIES})"
            )
        if self.max_segment_bytes < HEADER_SIZE + 16:
            raise StoreError("max_segment_bytes is too small to hold one record")
        if self.max_segment_entries < 1:
            raise StoreError("max_segment_entries must be >= 1")
        if self.fsync_interval < 1:
            raise StoreError("fsync_interval must be >= 1")
        if self.time_index_stride < 1:
            raise StoreError("time_index_stride must be >= 1")


@dataclass(frozen=True)
class StoreStats:
    """A point-in-time summary of a store's on-disk state."""

    directory: str
    segments: int
    sealed_segments: int
    entries: int
    size_bytes: int
    first_time: int | None
    last_time: int | None
    fsync: str

    def summary(self) -> str:
        """One human-readable block, CLI-ready."""
        window = (
            f"t{self.first_time}..t{self.last_time}"
            if self.first_time is not None
            else "(empty)"
        )
        return (
            f"store      : {self.directory}\n"
            f"entries    : {self.entries}\n"
            f"segments   : {self.segments} ({self.sealed_segments} sealed + 1 active)\n"
            f"bytes      : {self.size_bytes}\n"
            f"time range : {window}\n"
            f"fsync      : {self.fsync}"
        )


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a full checksum pass over every segment."""

    segments: int
    records: int
    size_bytes: int
    errors: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """True when every segment verified clean."""
        return not self.errors

    def summary(self) -> str:
        """One human-readable block, CLI-ready."""
        lines = [
            f"segments checked : {self.segments}",
            f"records checked  : {self.records}",
            f"bytes checked    : {self.size_bytes}",
            f"result           : {'OK' if self.ok else 'CORRUPT'}",
        ]
        lines.extend(f"  error: {error}" for error in self.errors)
        return "\n".join(lines)


@dataclass(frozen=True)
class RecoveryReport:
    """What opening an existing store had to repair."""

    scanned_entries: int
    torn: bool
    torn_bytes_dropped: int
    active_recreated: bool


class AuditStore:
    """A crash-safe, segmented, append-only audit store in one directory."""

    def __init__(
        self,
        directory: str | Path,
        config: StoreConfig | None = None,
        create: bool = True,
    ) -> None:
        self.directory = Path(directory)
        self.config = config or StoreConfig()
        self._closed = False
        self._appends = 0
        self._bytes_written = 0
        self._flushes = 0
        self._seals = 0
        self._seal_listeners: list = []
        #: weak references to append listeners (see add_append_listener),
        #: replaced whole on every change so a running append never sees
        #: the tuple mutate
        self._append_listeners: tuple[weakref.ref, ...] = ()
        self._since_sync = 0
        self._index_cache: dict[str, SegmentIndex] = {}
        #: indexes of segments sealed since open whose sidecar ``close()``
        #: writes (compaction drops those of the segments it replaces)
        self._pending_sidecars: dict[str, SegmentIndex] = {}
        self._obs = get_registry()
        self._reported = (0, 0, 0, 0)
        self.last_recovery: RecoveryReport | None = None

        exists = manifest_path(self.directory).exists()
        if not exists:
            if not create:
                raise StoreError(f"no audit store at {self.directory} (no manifest)")
            if any(self.directory.glob("*.seg")):
                raise StoreError(
                    f"{self.directory} has segment files but no manifest; "
                    f"refusing to initialise over it"
                )
            self.directory.mkdir(parents=True, exist_ok=True)
            self._manifest = Manifest(active=segment_name(1), next_segment=2)
            self._builder = IndexBuilder(self.config.time_index_stride)
            self._writer = SegmentWriter(
                self.directory / self._manifest.active, create=True
            )
            save_manifest(self.directory, self._manifest)
            self._last_time = -1
        else:
            self._manifest = load_manifest(self.directory)
            self._recover()
        if self._obs.enabled:
            self._obs.register_collector(self._flush_metrics)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Validate the manifest against disk and repair the active tail."""
        for meta in self._manifest.sealed:
            if not (self.directory / meta.name).exists():
                raise StoreError(
                    f"manifest lists sealed segment {meta.name} but the file "
                    f"is missing from {self.directory}"
                )
        active_path = self.directory / self._manifest.active
        self._builder = IndexBuilder(self.config.time_index_stride)
        recreated = False
        torn = False
        torn_dropped = 0
        scanned = 0
        if not active_path.exists():
            # Crash between the seal's manifest write and the creation of
            # the next active file: the manifest is authoritative, so just
            # materialise the promised (empty) segment.
            self._writer = SegmentWriter(active_path, create=True)
            recreated = True
        else:
            scan = scan_segment(active_path, visit=self._builder.add)
            scanned = scan.entries
            if scan.torn:
                torn = True
                size = active_path.stat().st_size
                if size < HEADER_SIZE:
                    # Crash before even the header landed: nothing was
                    # committed; rewrite the stub as an empty segment.
                    torn_dropped = size
                    active_path.write_bytes(SEGMENT_HEADER)
                else:
                    torn_dropped = size - scan.valid_bytes
                    with active_path.open("r+b") as handle:
                        handle.truncate(scan.valid_bytes)
                        handle.flush()
                        os.fsync(handle.fileno())
            self._writer = SegmentWriter(
                active_path,
                create=False,
                entries=scan.entries,
                size=scan.valid_bytes,
                first_time=scan.first_time,
                last_time=scan.last_time,
            )
        last_sealed = (
            self._manifest.sealed[-1].last_time if self._manifest.sealed else None
        )
        candidates = [t for t in (last_sealed, self._writer.last_time) if t is not None]
        self._last_time = max(candidates) if candidates else -1
        self.last_recovery = RecoveryReport(
            scanned_entries=scanned,
            torn=torn,
            torn_bytes_dropped=torn_dropped,
            active_recreated=recreated,
        )
        if self._obs.enabled:
            self._obs.counter("repro_store_recoveries_total").inc()
            if torn:
                self._obs.counter("repro_store_torn_tail_truncations_total").inc()
                self._obs.counter("repro_store_torn_bytes_dropped_total").inc(
                    torn_dropped
                )

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _flush_metrics(self) -> None:
        reg = self._obs
        current = (self._appends, self._bytes_written, self._flushes, self._seals)
        seen = self._reported
        reg.counter("repro_store_appends_total").inc(current[0] - seen[0])
        reg.counter("repro_store_bytes_written_total").inc(current[1] - seen[1])
        reg.counter("repro_store_flushes_total").inc(current[2] - seen[2])
        reg.counter("repro_store_segments_sealed_total").inc(current[3] - seen[3])
        self._reported = current
        reg.gauge("repro_store_segments").set(len(self._manifest.sealed) + 1)
        reg.gauge("repro_store_entries").set(len(self))

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def append(self, entry: AuditEntry) -> None:
        """Append one entry; times must be non-decreasing (like
        :class:`~repro.audit.log.AuditLog`)."""
        self._check_open()
        if not isinstance(entry, AuditEntry):
            raise AuditError(f"audit stores hold AuditEntry objects, got {entry!r}")
        if entry.time < self._last_time:
            raise AuditError(
                f"audit entries must be time-ordered: {entry.time} after "
                f"{self._last_time}"
            )
        offset, written = self._writer.append(entry)
        self._builder.add(offset, entry)
        self._last_time = entry.time
        self._appends += 1
        self._bytes_written += written
        for ref in self._append_listeners:
            listener = ref()
            if listener is not None:
                try:
                    listener(entry)
                except Exception:
                    _listener_failed(listener, entry)
        policy = self.config.fsync
        if policy == "always":
            self._writer.flush(sync=True)
            self._flushes += 1
        elif policy == "interval":
            self._since_sync += 1
            if self._since_sync >= self.config.fsync_interval:
                self._writer.flush(sync=True)
                self._flushes += 1
                self._since_sync = 0
        if (
            self._writer.size >= self.config.max_segment_bytes
            or self._writer.entries >= self.config.max_segment_entries
        ):
            self._seal_active()

    def extend(self, entries: Iterable[AuditEntry]) -> None:
        """Append every entry in order (same time rules as append)."""
        for entry in entries:
            self.append(entry)

    def sync(self) -> None:
        """Force-flush the active segment to stable storage."""
        self._check_open()
        self._writer.flush(sync=True)
        self._flushes += 1
        self._since_sync = 0

    def _seal_active(self) -> None:
        """Seal the active segment and open a fresh one.

        Seals are always durable: the data is fsynced before the manifest
        atomically promotes the segment, so a crash anywhere in the
        sequence leaves a recoverable store.  The segment's index stays in
        memory and its sidecar waits for ``close()``.
        """
        writer = self._writer
        writer.flush(sync=True)
        self._flushes += 1
        # A sidecar already under this name is an orphan of a compaction
        # that crashed before its commit; the manifest commit's directory
        # fsync makes the unlink durable.
        index_path(writer.path).unlink(missing_ok=True)
        self._index_cache[writer.name] = self._builder.index
        self._pending_sidecars[writer.name] = self._builder.index
        meta = SegmentMeta(
            name=writer.name,
            entries=writer.entries,
            size=writer.size,
            first_time=writer.first_time,
            last_time=writer.last_time,
        )
        new_name = segment_name(self._manifest.next_segment)
        self._manifest.sealed.append(meta)
        self._manifest.active = new_name
        self._manifest.next_segment += 1
        save_manifest(self.directory, self._manifest)
        writer.close(sync=False)
        self._writer = SegmentWriter(self.directory / new_name, create=True)
        self._builder = IndexBuilder(self.config.time_index_stride)
        self._since_sync = 0
        self._seals += 1
        # append listeners close out the segment before seal listeners
        # (which may wake a daemon that looks for what they built) run
        for ref in self._append_listeners:
            listener = ref()
            if listener is not None:
                try:
                    listener.sealed(meta)
                except Exception:
                    _listener_failed(listener, meta)
        for listener in tuple(self._seal_listeners):
            try:
                listener(meta)
            except Exception:
                _listener_failed(listener, meta)

    def seal_active(self) -> SegmentMeta | None:
        """Seal the active segment now; returns its :class:`SegmentMeta`.

        A no-op returning ``None`` when the active segment is empty (the
        store never seals empty segments).  The online refinement daemon
        uses this to force a round boundary: only sealed segments are
        behind its watermark, so sealing makes the current tail minable.
        """
        self._check_open()
        if self._writer.entries == 0:
            return None
        self._seal_active()
        return self._manifest.sealed[-1]

    def add_seal_listener(self, listener) -> None:
        """Call ``listener(meta)`` after every durable seal commit.

        The callback runs on the sealing thread *after* the manifest has
        atomically promoted the segment, so a listener that wakes a
        tailing daemon can rely on the sealed entries being readable.
        Exceptions raised by listeners are logged, never propagated.
        """
        self._seal_listeners.append(listener)

    def add_append_listener(self, listener) -> None:
        """Call ``listener(entry)`` after every committed append and
        ``listener.sealed(meta)`` at every seal.

        An append runs the call on the appending thread before any
        rotation seal, so the entry lands in the segment the next
        ``sealed`` call names; ``sealed`` runs after the manifest commit
        and before the seal listeners.  The store holds the listener
        *weakly* — it never keeps its owner alive, and a collected
        listener is dropped — so pass an object the caller keeps, not a
        bound method.  Exceptions are logged, never propagated.
        """
        owner = weakref.ref(self)

        def forget(dead: weakref.ref) -> None:
            store = owner()
            if store is not None:
                store._append_listeners = tuple(
                    ref for ref in store._append_listeners if ref is not dead
                )

        self._append_listeners = (
            *self._append_listeners,
            weakref.ref(listener, forget),
        )

    def sealed_segments(self) -> tuple[SegmentMeta, ...]:
        """The manifest's sealed segments, oldest first (post-compaction
        names included) — the region a watermark may cover."""
        return tuple(self._manifest.sealed)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush (durably unless ``fsync='off'``), release the file handle
        and write the sidecar index of each segment sealed since open."""
        if self._closed:
            return
        synced = self.config.fsync != "off"
        self._writer.close(sync=synced)
        if synced:
            self._flushes += 1
        self._closed = True
        pending, self._pending_sidecars = self._pending_sidecars, {}
        for name, index in pending.items():
            save_index(self.directory / name, index)

    def __enter__(self) -> "AuditStore":
        """Context-manager entry: the store itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close the store."""
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError(f"audit store at {self.directory} is closed")

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Total committed entries (manifest counts + active segment)."""
        return self._manifest.sealed_entries() + self._writer.entries

    def __iter__(self) -> Iterator[AuditEntry]:
        """Stream every entry in append order, segment at a time."""
        return self.iter_entries()

    def iter_entries(self) -> Iterator[AuditEntry]:
        """Stream every committed entry without materialising the log."""
        for meta in self._manifest.sealed:
            yield from iter_segment(self.directory / meta.name)
        yield from self._iter_active()

    def _iter_active(self, start_offset: int = HEADER_SIZE) -> Iterator[AuditEntry]:
        if not self._closed:
            self._writer.flush(sync=False)
        yield from iter_segment(self._writer.path, start_offset)

    def segment_snapshot(self) -> tuple[tuple[str, int], ...]:
        """Segment file paths with committed entry counts, oldest first.

        Flushes the active segment (no fsync) so the returned files hold
        every appended entry; the snapshot therefore enumerates exactly
        the entries ``iter_entries`` would stream, in the same order.
        The parallel refinement sharder uses this to plan disjoint
        segment-file shards that worker processes stream directly with
        :func:`~repro.store.segment.iter_segment` — no store recovery,
        no shared file handles.
        """
        self._check_open()
        self._writer.flush(sync=False)
        rows = [
            (str(self.directory / meta.name), meta.entries)
            for meta in self._manifest.sealed
        ]
        rows.append((str(self._writer.path), self._writer.entries))
        return tuple(rows)

    def scan_window(self, start: int, end: int) -> Iterator[AuditEntry]:
        """Stream entries with ``start <= time < end``.

        Segment metadata prunes whole segments and the sparse time index
        seeks close to ``start`` inside the first relevant one; global
        time order lets the scan stop at the first entry past ``end``.
        """
        if end <= start:
            return
        for meta in self._manifest.sealed:
            if meta.last_time is None or meta.last_time < start:
                continue
            if meta.first_time is not None and meta.first_time >= end:
                return
            offset = self._segment_index(meta).seek_offset(start)
            for entry in iter_segment(self.directory / meta.name, offset):
                if entry.time >= end:
                    return
                if entry.time >= start:
                    yield entry
        if self._writer.last_time is None or self._writer.last_time < start:
            return
        if self._writer.first_time is not None and self._writer.first_time >= end:
            return
        offset = self._builder.index.seek_offset(start)
        for entry in self._iter_active(offset):
            if entry.time >= end:
                return
            if entry.time >= start:
                yield entry

    def lookup(
        self,
        user: str | None = None,
        data: str | None = None,
        purpose: str | None = None,
    ) -> Iterator[AuditEntry]:
        """Stream entries matching every given attribute, via the hash
        indexes (sealed segments) and the in-memory index (active)."""
        query = {
            attribute: canonical(value)
            for attribute, value in (
                ("user", user), ("data", data), ("purpose", purpose)
            )
            if value is not None
        }
        if not query:
            raise StoreError(
                f"lookup needs at least one of {INDEXED_ATTRIBUTES}"
            )

        def matching_offsets(index: SegmentIndex) -> list[int]:
            offset_sets = [
                set(index.offsets_for(attribute, value))
                for attribute, value in query.items()
            ]
            common = set.intersection(*offset_sets) if offset_sets else set()
            return sorted(common)

        for meta in self._manifest.sealed:
            offsets = matching_offsets(self._segment_index(meta))
            if not offsets:
                continue
            memo = RecordMemo()
            with (self.directory / meta.name).open("rb") as handle:
                for offset in offsets:
                    yield read_record_at(handle, offset, memo)
        offsets = matching_offsets(self._builder.index)
        if offsets:
            if not self._closed:
                self._writer.flush(sync=False)
            memo = RecordMemo()
            with self._writer.path.open("rb") as handle:
                for offset in offsets:
                    yield read_record_at(handle, offset, memo)

    def tail(self, count: int) -> tuple[AuditEntry, ...]:
        """The last ``count`` entries, scanning newest segments first."""
        if count < 1:
            return ()
        collected: deque[AuditEntry] = deque()
        segments = [self._writer.path] + [
            self.directory / meta.name for meta in reversed(self._manifest.sealed)
        ]
        if not self._closed:
            self._writer.flush(sync=False)
        for path in segments:
            block = list(iter_segment(path))
            needed = count - len(collected)
            if needed <= 0:
                break
            collected.extendleft(reversed(block[-needed:]))
        return tuple(collected)

    def time_range(self) -> tuple[int, int]:
        """(first, last) entry times; raises on an empty store."""
        first = self._first_time()
        if first is None:
            raise AuditError(f"audit store at {self.directory} is empty")
        return first, self._last_time

    def _first_time(self) -> int | None:
        for meta in self._manifest.sealed:
            if meta.first_time is not None:
                return meta.first_time
        return self._writer.first_time

    def _segment_index(self, meta: SegmentMeta) -> SegmentIndex:
        cached = self._index_cache.get(meta.name)
        if cached is not None:
            return cached
        path = self.directory / meta.name
        index = load_index(path, meta.entries)
        if index is None:
            # No sidecar to trust (a crash before close, a torn or stale
            # file): rebuild it from the segment and cache it again.
            index = build_index(path, self.config.time_index_stride)
            save_index(path, index)
        self._index_cache[meta.name] = index
        return index

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def stats(self) -> StoreStats:
        """A point-in-time :class:`StoreStats` snapshot."""
        size = self._writer.size + sum(meta.size for meta in self._manifest.sealed)
        return StoreStats(
            directory=str(self.directory),
            segments=len(self._manifest.sealed) + 1,
            sealed_segments=len(self._manifest.sealed),
            entries=len(self),
            size_bytes=size,
            first_time=self._first_time(),
            last_time=self._last_time if self._last_time >= 0 else None,
            fsync=self.config.fsync,
        )

    def verify(self) -> VerifyReport:
        """Full checksum pass over every segment vs the manifest."""
        errors: list[str] = []
        records = 0
        size = 0
        if not self._closed:
            self._writer.flush(sync=False)
        for meta in self._manifest.sealed:
            path = self.directory / meta.name
            if not path.exists():
                errors.append(f"{meta.name}: file missing")
                continue
            try:
                scan = scan_segment(path)
            except StoreError as exc:
                errors.append(f"{meta.name}: {exc}")
                continue
            records += scan.entries
            size += scan.valid_bytes
            if scan.torn:
                errors.append(f"{meta.name}: sealed segment has invalid bytes")
            if scan.entries != meta.entries:
                errors.append(
                    f"{meta.name}: manifest promises {meta.entries} entries, "
                    f"file holds {scan.entries}"
                )
        try:
            scan = scan_segment(self._writer.path)
        except StoreError as exc:
            errors.append(f"{self._writer.name}: {exc}")
        else:
            records += scan.entries
            size += scan.valid_bytes
            if scan.torn:
                errors.append(
                    f"{self._writer.name}: active segment has a torn tail "
                    f"(reopen the store to repair)"
                )
        return VerifyReport(
            segments=len(self._manifest.sealed) + 1,
            records=records,
            size_bytes=size,
            errors=tuple(errors),
        )

    def compact(self, target_bytes: int | None = None):
        """Merge sealed segments offline; see
        :func:`repro.store.compaction.compact_store`."""
        from repro.store.compaction import compact_store

        return compact_store(self, target_bytes=target_bytes)

    def __repr__(self) -> str:
        return (
            f"AuditStore(directory={str(self.directory)!r}, entries={len(self)}, "
            f"segments={len(self._manifest.sealed) + 1})"
        )
