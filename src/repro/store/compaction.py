"""Offline compaction of sealed segments.

Rotation keeps appends cheap but leaves a long chain of small sealed
segments behind; compaction rewrites them into the fewest segments that
respect the size bound, rebuilding indexes along the way (their sidecars
are written next to the new segments; the replaced segments' sidecars,
written or still pending in the store, are dropped).  The active
segment is never touched, record order and content are preserved
byte-for-byte at the entry level, and the swap is crash-safe: new
segments are written and fsynced first, the manifest replacement is the
single atomic commit point, and only then are the old files deleted
(stale files left by a crash before deletion are orphans a later
compaction ignores).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StoreError
from repro.store.index import IndexBuilder, index_path, save_index
from repro.store.manifest import SegmentMeta, save_manifest
from repro.store.segment import SegmentWriter, iter_segment, segment_name
from repro.store.store import AuditStore


@dataclass(frozen=True)
class CompactionReport:
    """What one compaction pass did."""

    segments_before: int
    segments_after: int
    entries: int
    bytes_before: int
    bytes_after: int

    @property
    def changed(self) -> bool:
        """True when the pass rewrote anything."""
        return self.segments_before != self.segments_after

    def summary(self) -> str:
        """One human-readable line, CLI-ready."""
        if not self.changed:
            return (
                f"compaction: nothing to do "
                f"({self.segments_before} sealed segments)"
            )
        return (
            f"compaction: {self.segments_before} -> {self.segments_after} sealed "
            f"segments, {self.entries} entries, "
            f"{self.bytes_before} -> {self.bytes_after} bytes"
        )


def compact_store(
    store: AuditStore, target_bytes: int | None = None
) -> CompactionReport:
    """Merge the store's sealed segments into full-sized ones.

    ``target_bytes`` defaults to the store's rotation bound.  Returns a
    :class:`CompactionReport`; a store with fewer than two sealed
    segments is left untouched.
    """
    store._check_open()
    target = target_bytes or store.config.max_segment_bytes
    if target < 16:
        raise StoreError(f"compaction target of {target} bytes is too small")
    old = list(store._manifest.sealed)
    bytes_before = sum(meta.size for meta in old)
    if len(old) < 2:
        return CompactionReport(
            segments_before=len(old),
            segments_after=len(old),
            entries=sum(meta.entries for meta in old),
            bytes_before=bytes_before,
            bytes_after=bytes_before,
        )

    new_metas: list[SegmentMeta] = []
    next_id = store._manifest.next_segment
    writer: SegmentWriter | None = None
    builder: IndexBuilder | None = None

    def seal_current() -> None:
        nonlocal writer, builder
        if writer is None or builder is None:
            return
        writer.flush(sync=True)
        save_index(writer.path, builder.index)
        new_metas.append(
            SegmentMeta(
                name=writer.name,
                entries=writer.entries,
                size=writer.size,
                first_time=writer.first_time,
                last_time=writer.last_time,
            )
        )
        writer.close(sync=False)
        writer = None
        builder = None

    entries = 0
    for meta in old:
        for entry in iter_segment(store.directory / meta.name):
            if writer is not None and writer.size >= target:
                seal_current()
            if writer is None:
                writer = SegmentWriter(
                    store.directory / segment_name(next_id), create=True
                )
                builder = IndexBuilder(store.config.time_index_stride)
                next_id += 1
            offset, _ = writer.append(entry)
            builder.add(offset, entry)
            entries += 1
    seal_current()

    # The atomic commit point: the manifest flips from the old sealed
    # chain to the new one in a single rename.
    store._manifest.sealed = new_metas
    store._manifest.next_segment = next_id
    save_manifest(store.directory, store._manifest)
    store._index_cache.clear()
    for meta in old:
        store._pending_sidecars.pop(meta.name, None)
        (store.directory / meta.name).unlink(missing_ok=True)
        index_path(store.directory / meta.name).unlink(missing_ok=True)
    if store._obs.enabled:
        store._obs.counter("repro_store_compactions_total").inc()
    return CompactionReport(
        segments_before=len(old),
        segments_after=len(new_metas),
        entries=entries,
        bytes_before=bytes_before,
        bytes_after=sum(meta.size for meta in new_metas),
    )
