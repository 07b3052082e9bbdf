"""A disk-backed audit log satisfying the ``AuditLog`` read protocol.

:class:`DurableAuditLog` looks like :class:`~repro.audit.log.AuditLog` to
every consumer — the refinement engine and loop, the coverage trends,
the federation, the enforcement replay — but is backed by an
:class:`~repro.store.store.AuditStore`, so appends are crash-safe and
reads *stream* off disk instead of materialising the log.  Derived
subsets (``window``, ``where``, ``exceptions`` …) come back as
:class:`StreamedAuditView` objects: re-iterable, lazily filtered views
that themselves satisfy the read protocol, so chained slicing never
copies entries into memory.

The shared read operations live in :class:`~repro.audit.log.AuditReadOps`
(re-exported here with :class:`~repro.audit.log.StreamedAuditView`); the
in-memory log, this durable log and its views all inherit them, so every
shape has one implementation of each derived readout.  This module
overrides only what the store answers from its indexes and manifest.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path

from repro.audit.entry import AuditEntry
from repro.audit.log import AuditLog, AuditReadOps, StreamedAuditView
from repro.store.store import AuditStore, StoreConfig, StoreStats, VerifyReport


class DurableAuditLog(AuditReadOps):
    """An append-only audit log persisted in a segmented disk store.

    Satisfies the full :class:`~repro.audit.log.AuditLog` protocol:
    writes go straight through to the crash-safe store, reads stream off
    disk.  ``window`` uses the store's sparse time index instead of a
    full scan, and ``len``/``time_range`` come from the manifest in O(1).
    """

    def __init__(
        self,
        directory: str | Path,
        config: StoreConfig | None = None,
        name: str | None = None,
        create: bool = True,
    ) -> None:
        self.store = AuditStore(directory, config=config, create=create)
        self.name = name or Path(directory).name

    # ------------------------------------------------------------------
    # collection protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Committed entries, from segment metadata (no scan)."""
        return len(self.store)

    def __iter__(self) -> Iterator[AuditEntry]:
        """Stream every committed entry in append order."""
        return self.store.iter_entries()

    def __getitem__(self, index: int) -> AuditEntry:
        """Positional access by streaming (O(n) — prefer iteration)."""
        if index < 0:
            index += len(self)
        if index < 0:
            raise IndexError(index)
        for position, entry in enumerate(self):
            if position == index:
                return entry
        raise IndexError(index)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append(self, entry: AuditEntry) -> None:
        """Append one entry durably; times must be non-decreasing."""
        self.store.append(entry)

    def extend(self, entries) -> None:
        """Append every entry in order (same time rules as append)."""
        self.store.extend(entries)

    # ------------------------------------------------------------------
    # indexed overrides
    # ------------------------------------------------------------------
    def window(self, start: int, end: int) -> StreamedAuditView:
        """Entries with ``start <= time < end`` via the sparse time index."""
        return StreamedAuditView(
            lambda: self.store.scan_window(start, end),
            name=f"{self.name}[{start}:{end}]",
        )

    def lookup(
        self,
        user: str | None = None,
        data: str | None = None,
        purpose: str | None = None,
    ) -> StreamedAuditView:
        """Entries matching the given attributes via the hash indexes."""
        return StreamedAuditView(
            lambda: self.store.lookup(user=user, data=data, purpose=purpose),
            name=f"{self.name}.lookup",
        )

    def time_range(self) -> tuple[int, int]:
        """(first, last) entry times from segment metadata (no scan)."""
        return self.store.time_range()

    def tail(self, count: int) -> tuple[AuditEntry, ...]:
        """The newest ``count`` entries (the serve health surface uses
        this to report the live trail's head without a full scan)."""
        return self.store.tail(count)

    # ------------------------------------------------------------------
    # store lifecycle and maintenance
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Force-flush pending appends to stable storage."""
        self.store.sync()

    def close(self) -> None:
        """Flush and close the underlying store."""
        self.store.close()

    def __enter__(self) -> "DurableAuditLog":
        """Context-manager entry: the log itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close the store."""
        self.close()

    def seal_active(self):
        """Seal the active segment now (see
        :meth:`~repro.store.store.AuditStore.seal_active`)."""
        return self.store.seal_active()

    def add_seal_listener(self, listener) -> None:
        """Register a post-seal callback (see
        :meth:`~repro.store.store.AuditStore.add_seal_listener`)."""
        self.store.add_seal_listener(listener)

    def sealed_segments(self):
        """Sealed segment metadata, oldest first (see
        :meth:`~repro.store.store.AuditStore.sealed_segments`)."""
        return self.store.sealed_segments()

    def stats(self) -> StoreStats:
        """The underlying store's :class:`~repro.store.store.StoreStats`."""
        return self.store.stats()

    def verify(self) -> VerifyReport:
        """Run a full checksum pass over the underlying store."""
        return self.store.verify()

    def __repr__(self) -> str:
        return (
            f"DurableAuditLog(name={self.name!r}, entries={len(self)}, "
            f"directory={str(self.store.directory)!r})"
        )


def copy_to_durable(
    log: AuditLog, directory: str | Path, config: StoreConfig | None = None
) -> DurableAuditLog:
    """Persist an in-memory log into a fresh durable store at ``directory``."""
    durable = DurableAuditLog(directory, config=config, name=log.name)
    durable.extend(log)
    durable.sync()
    return durable
